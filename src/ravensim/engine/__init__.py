"""Engine construction: new_engine is the one way to build any backend.

new_engine validates the network and the stimulus, then builds the engine
its backend= argument names (one of BACKENDS). "auto" picks the compiled
kernel when it can be built here, every value it would hold fits its 64-bit
arithmetic and no delivery log is asked for, otherwise the pure-Python
backend; "reference" is the naive differential-testing oracle. All backends
implement identical cycle semantics; the test suite holds them equal on
every fixture and on randomized networks.
"""

from __future__ import annotations

from collections import Counter

from ..netmodel import HardwareConstants, Network, ValidationError, validate_network
from . import compiled
from .events import (
    INJECTION,
    INPUT_SPIKE,
    PHASE_ABSOLUTE,
    PHASE_RELATIVE,
    PHASE_STANDARD,
    CycleReport,
    Stimulus,
    StimulusEvent,
)
from .layout import Layout, build_layout, check_stimulus
from .pycore import PyEngine
from .reference import ReferenceEngine

__all__ = [
    "BACKENDS",
    "INJECTION",
    "INPUT_SPIKE",
    "PHASE_ABSOLUTE",
    "PHASE_RELATIVE",
    "PHASE_STANDARD",
    "CycleReport",
    "PyEngine",
    "ReferenceEngine",
    "Stimulus",
    "StimulusEvent",
    "available_backends",
    "new_engine",
    "new_reference_engine",
]

BACKENDS = ("auto", "python", "compiled", "reference")

_INT64_MAX = (1 << 63) - 1


def available_backends() -> list[str]:
    names = ["python"]
    if compiled.available():
        names.append("compiled")
    return names


def _kernel_fits(hw: HardwareConstants, layout: Layout) -> bool:
    """Whether every value the kernel stores stays inside int64_t.

    A charge is at most a resting value plus one cycle of synaptic input
    plus E stimulus events, E being the most events on one neuron in one
    cycle, each term bounded by 2**(widest - 1); so (2 + E) * 2**(widest - 1)
    must fit. Durations, delays and STDP entries leave room for one addition.
    """
    widest = max(hw.accumulator_width, hw.threshold_width, hw.weight_width)
    room = (_INT64_MAX >> (widest - 1)) - 2  # the largest E that fits
    if room < 0 or (layout.ev_cycle and layout.ev_cycle[-1] > _INT64_MAX):
        return False
    # E can exceed room only when there are more events than room in total.
    if len(layout.ev_cycle) > room:
        hits = Counter(zip(layout.ev_cycle, layout.ev_neuron))
        if max(hits.values()) > room:
            return False
    limits = (hw.max_delay, hw.max_leak, hw.max_abs_refractory, hw.max_rel_refractory,
              *map(abs, hw.stdp_table))
    return max(limits) < 1 << 62


def new_engine(net: Network, hw: HardwareConstants, stim: Stimulus | None = None,
               backend: str = "auto", record_deliveries: bool = False):
    """Validate and build a simulator over net/hw driven by stim."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend: {backend}")
    if record_deliveries and backend not in ("auto", "python"):
        raise ValueError("delivery recording is only available on the python backend")
    stim = stim if stim is not None else Stimulus.empty()
    report = validate_network(net, hw)
    if not report.ok:
        raise ValidationError(report)
    check_stimulus(stim, net, hw)
    if backend == "reference":
        return ReferenceEngine(net, hw, stim)

    layout = build_layout(net, hw, stim)
    if backend == "auto":
        fits = not record_deliveries and compiled.available() and _kernel_fits(hw, layout)
        backend = "compiled" if fits else "python"
    if backend == "python":
        return PyEngine(layout, record_deliveries=record_deliveries)
    if not compiled.available():
        raise ValueError("compiled backend requested but the kernel cannot be built")
    if not _kernel_fits(hw, layout):
        raise ValueError("compiled backend cannot hold the configured bit widths "
                         "and stimulus in 64-bit integers")
    return compiled.CompiledEngine(layout)


def new_reference_engine(net: Network, hw: HardwareConstants,
                         stim: Stimulus | None = None) -> ReferenceEngine:
    """new_engine(..., backend="reference"): the naive differential-testing oracle."""
    return new_engine(net, hw, stim, backend="reference")
