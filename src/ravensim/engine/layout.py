"""Flattening of a validated network into dense arrays, and the stimulus rules.

Both the pure-Python engine and the compiled kernel run from the same
flattened layout, so their cycle-by-cycle behaviour matches by
construction of their inputs. Only the inner loops differ. A layout is
read-only: no core writes to it, and each keeps its own state, the weights
included.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from ..netmodel import HardwareConstants, Network, delivery_slots, signed_range
from .events import INJECTION, Events, Stimulus


@dataclass(frozen=True)
class Layout:
    names: list[str]

    # Per-neuron settings, indexed by neuron.
    threshold: Sequence[int]
    standard_resting: Sequence[int]
    refractory_resting: Sequence[int]
    abs_refractory: Sequence[int]
    rel_refractory: Sequence[int]
    leak: Sequence[int]

    # Per-synapse settings, indexed by synapse declaration order. syn_weight
    # holds the initial weights; each core keeps its own live copy.
    syn_pre: Sequence[int]
    syn_post: Sequence[int]
    syn_weight: Sequence[int]
    syn_delay: Sequence[int]

    # Stimulus events as columns, stably sorted by cycle: the cycle, the
    # target neuron, and the charge the event adds (the input spike amount
    # or the injected value).
    ev_cycle: Sequence[int]
    ev_neuron: Sequence[int]
    ev_value: Sequence[int]

    ring_slots: int  # the longest delay in use + 1 (netmodel.delivery_slots)
    stdp_enabled: bool
    stdp_table: tuple[int, ...]
    weight_width: int


def stimulus_problem(events: Events, net: Network,
                     hw: HardwareConstants) -> tuple[int, str] | None:
    """The position of the first event that breaks a stimulus rule and the
    rule it breaks, or None when every event keeps every rule.

    The rules are checked on whole columns; the events are walked only to
    find the first one that breaks a rule."""
    injection = dict(zip(net.neurons.name, net.neurons.injection))
    lo, hi = signed_range(hw.injection_ports) if hw.injection_ports > 0 else (0, 0)
    if injection.keys() >= set(events.neuron):
        if INJECTION not in events.kind:
            return None
        injected = [(neuron, value) for neuron, kind, value
                    in zip(events.neuron, events.kind, events.value) if kind == INJECTION]
        values = [value for _, value in injected]
        if (hw.injection_ports > 0 and all(injection[neuron] for neuron, _ in injected)
                and lo <= min(values) and max(values) <= hi):
            return None
    for i, (neuron, kind, value) in enumerate(zip(events.neuron, events.kind, events.value)):
        enabled = injection.get(neuron)
        if enabled is None:
            return i, f'unknown neuron "{neuron}"'
        if kind == INJECTION:
            if not enabled:
                return i, f'neuron "{neuron}" does not have injection enabled'
            if hw.injection_ports == 0:
                return i, "hardware has no injection ports"
            if not lo <= value <= hi:
                return i, f"injection value {value} outside [{lo}, {hi}]"
    return None


def check_stimulus(stim: Stimulus, net: Network, hw: HardwareConstants) -> None:
    """Reject stimulus events that the network or hardware cannot accept."""
    problem = stimulus_problem(stim.events, net, hw)
    if problem is not None:
        raise ValueError(f"stimulus event #{problem[0]}: {problem[1]}")


def mark_checked(stim: Stimulus, net: Network, hw: HardwareConstants) -> Stimulus:
    """stim, noted as keeping every stimulus rule for these very net and hw
    objects. All three are immutable, so the note stays true."""
    object.__setattr__(stim, "_checked_for", (net, hw))
    return stim


def is_checked(stim: Stimulus, net: Network, hw: HardwareConstants) -> bool:
    """Whether mark_checked noted stim for these very net and hw objects."""
    checked = stim.__dict__.get("_checked_for")
    return checked is not None and checked[0] is net and checked[1] is hw


def _indices(index: dict[str, int], names: Sequence[str]) -> Sequence[int]:
    """index[name] for every name, looked up in one itemgetter call. itemgetter
    returns a bare value for one name and cannot be built for none."""
    if len(names) > 1:
        return itemgetter(*names)(index)
    return tuple(index[name] for name in names)


def build_layout(net: Network, hw: HardwareConstants, stim: Stimulus) -> Layout:
    index = net.neuron_index()
    neurons, synapses = net.neurons, net.synapses
    ev_cycle, ev_neuron, ev_kind, ev_value = stim.events.by_cycle().columns()
    amount = net.input_spike_amount

    # The network's and the stimulus's columns are immutable tuples and are shared.
    return Layout(
        names=list(neurons.name),
        threshold=neurons.threshold,
        standard_resting=neurons.standard_resting,
        refractory_resting=neurons.refractory_resting,
        abs_refractory=neurons.abs_refractory,
        rel_refractory=neurons.rel_refractory,
        leak=neurons.leak,
        syn_pre=_indices(index, synapses.pre),
        syn_post=_indices(index, synapses.post),
        syn_weight=synapses.weight,
        syn_delay=synapses.delay,
        ev_cycle=ev_cycle,
        ev_neuron=_indices(index, ev_neuron),
        ev_value=[value if kind == INJECTION else amount
                  for kind, value in zip(ev_kind, ev_value)],
        ring_slots=delivery_slots(net),
        stdp_enabled=net.stdp_enabled,
        stdp_table=tuple(hw.stdp_table),
        weight_width=hw.weight_width,
    )
