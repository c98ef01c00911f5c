"""Engine construction: new_engine is the one way to build any backend.

new_engine validates the network and the stimulus, then builds one Engine
class around the cycle core its backend= argument names (one of BACKENDS).
A stimulus that load_stimulus read for the very same network and hardware
objects has been checked already and is not checked again.
"auto" picks the compiled kernel when it can be built here and no delivery
log is asked for, otherwise the pure-Python core; "reference" is the naive
differential-testing oracle. Every backend computes in int64 and accepts the
same inputs. The cores implement identical cycle semantics; the test suite
holds them equal on every fixture and on randomized networks.

A core mirrors the kernel.c ABI rk_run(k, n, counts, charges): run(n, trace)
runs n cycles and fills their cycles of trace, the one Trace that Engine.run
allocates for them; Engine.advance passes None and nothing is recorded. The
python and reference cores fill the trace through Trace.add, and the compiled
core has the kernel write its blocks in place. charges(), weights() and
phases() read the state as lists. Engine.run and Engine.advance both go
through core.run, so a traced run and an untraced one execute the same cycle
code.
"""

from __future__ import annotations

from ..columns import must_be
from ..netmodel import INT64_MAX, HardwareConstants, Network, ValidationError, validate_network
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
    Trace,
)
from .layout import build_layout, check_stimulus, is_checked

__all__ = [
    "BACKENDS",
    "INJECTION",
    "INPUT_SPIKE",
    "PHASE_ABSOLUTE",
    "PHASE_RELATIVE",
    "PHASE_STANDARD",
    "CycleReport",
    "Engine",
    "Stimulus",
    "StimulusEvent",
    "Trace",
    "available_backends",
    "new_engine",
    "new_reference_engine",
]

BACKENDS = ("auto", "python", "compiled", "reference")


def _check_count(n_cycles: int) -> None:
    if type(n_cycles) is not int:
        raise ValueError(must_be("cycle count", int, n_cycles))
    if n_cycles < 0:
        raise ValueError("cycle count must be >= 0")


class Engine:
    """A simulator over one network: the public state and the traces around
    the cycle core of one backend. Not thread-safe."""

    def __init__(self, backend: str, names: tuple[str, ...], core,
                 delivery_log: list[tuple[int, int, int]] | None = None):
        self.backend = backend
        self.names = names
        self.cycle = 0
        # (scheduled cycle, delivery cycle, synapse index) when recording, else None.
        self.delivery_log = delivery_log
        self._core = core

    def step(self) -> CycleReport:
        return self.run(1)[0]

    def run(self, n_cycles: int) -> Trace:
        """Run n_cycles and return their trace, numbered from self.cycle."""
        _check_count(n_cycles)
        start = self.cycle
        trace = Trace(self.names, range(start, start + n_cycles))
        self._core.run(n_cycles, trace)
        self.cycle = start + n_cycles
        return trace

    def advance(self, n_cycles: int) -> None:
        """Run n_cycles without recording them. A count the kernel's int64_t
        cannot hold is refused on every backend, before any cycle runs."""
        _check_count(n_cycles)
        if n_cycles > INT64_MAX:
            raise ValueError("cycle count must be <= 2**63 - 1")
        self._core.run(n_cycles, None)
        self.cycle += n_cycles

    def charges(self) -> dict[str, int]:
        return dict(zip(self.names, self._core.charges()))

    def weights(self) -> list[int]:
        return self._core.weights()

    def phases(self) -> list[tuple[int, int]]:
        """(phase code, cycles left in it) for every neuron."""
        return self._core.phases()


def available_backends() -> list[str]:
    names = ["python"]
    if compiled.available():
        names.append("compiled")
    return names


def new_engine(net: Network, hw: HardwareConstants, stim: Stimulus | None = None,
               backend: str = "auto", record_deliveries: bool = False) -> Engine:
    """Validate and build a simulator over net/hw driven by stim."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend: {backend}")
    if record_deliveries and backend not in ("auto", "python"):
        raise ValueError("delivery recording is only available on the python backend")
    stim = stim if stim is not None else Stimulus()
    report = validate_network(net, hw)
    if not report.ok:
        raise ValidationError(report)
    if not is_checked(stim, net, hw):
        check_stimulus(stim, net, hw)
    if backend == "reference":
        from .reference import ReferenceEngine  # the oracle stays off the run path

        return Engine(backend, net.neurons.name, ReferenceEngine(net, hw, stim))

    layout = build_layout(net, hw, stim)
    if backend == "auto":
        backend = "compiled" if not record_deliveries and compiled.available() else "python"
    if backend == "python":
        from .pycore import PyEngine  # the compiled run path never builds one

        log = [] if record_deliveries else None
        return Engine(backend, net.neurons.name, PyEngine(layout, log), log)
    if not compiled.available():
        raise ValueError("compiled backend requested but the kernel cannot be built")
    return Engine(backend, net.neurons.name, compiled.CompiledEngine(layout))


def new_reference_engine(net: Network, hw: HardwareConstants,
                         stim: Stimulus | None = None) -> Engine:
    """new_engine(..., backend="reference"): the naive differential-testing oracle."""
    return new_engine(net, hw, stim, backend="reference")
