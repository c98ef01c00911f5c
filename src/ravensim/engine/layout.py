"""Flattening of a validated network into dense arrays, and the stimulus rules.

Both the pure-Python engine and the compiled kernel run from the same
flattened layout, so their cycle-by-cycle behaviour matches by
construction of their inputs. Only the inner loops differ.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter

from ..netmodel import HardwareConstants, Network, signed_range
from .events import INJECTION, Stimulus, StimulusEvent


@dataclass
class Layout:
    names: list[str]

    # Per-neuron settings, indexed by neuron.
    threshold: list[int]
    standard_resting: list[int]
    refractory_resting: list[int]
    abs_refractory: list[int]
    rel_refractory: list[int]
    leak: list[int]

    # Per-synapse settings, indexed by synapse declaration order.
    syn_pre: list[int]
    syn_post: list[int]
    syn_weight: list[int]
    syn_delay: list[int]

    # Adjacency, in declaration order.
    out_synapses: list[list[int]]
    pre_synapses: list[list[int]]

    # Stimulus events as columns, stably sorted by cycle: the cycle, the
    # target neuron, and the charge the event adds (the input spike amount
    # or the injected value).
    ev_cycle: list[int]
    ev_neuron: list[int]
    ev_value: list[int]

    ring_slots: int
    stdp_enabled: bool
    stdp_table: tuple[int, ...]
    weight_width: int


def stimulus_problem(events: Sequence[StimulusEvent], net: Network,
                     hw: HardwareConstants) -> tuple[int, str] | None:
    """The position of the first event that breaks a stimulus rule and the
    rule it breaks, or None when every event keeps every rule."""
    injection = {m.name: m.injection for m in net.neurons}
    lo, hi = signed_range(hw.injection_ports) if hw.injection_ports > 0 else (0, 0)
    for i, ev in enumerate(events):
        enabled = injection.get(ev.neuron)
        if enabled is None:
            return i, f'unknown neuron "{ev.neuron}"'
        if ev.kind == INJECTION:
            if not enabled:
                return i, f'neuron "{ev.neuron}" does not have injection enabled'
            if hw.injection_ports == 0:
                return i, "hardware has no injection ports"
            if not lo <= ev.value <= hi:
                return i, f"injection value {ev.value} outside [{lo}, {hi}]"
    return None


def check_stimulus(stim: Stimulus, net: Network, hw: HardwareConstants) -> None:
    """Reject stimulus events that the network or hardware cannot accept."""
    problem = stimulus_problem(stim.events, net, hw)
    if problem is not None:
        raise ValueError(f"stimulus event #{problem[0]}: {problem[1]}")


def build_layout(net: Network, hw: HardwareConstants, stim: Stimulus) -> Layout:
    index = net.neuron_index()
    n = len(net.neurons)
    out_synapses: list[list[int]] = [[] for _ in range(n)]
    pre_synapses: list[list[int]] = [[] for _ in range(n)]
    syn_pre, syn_post, syn_weight, syn_delay = [], [], [], []
    for j, s in enumerate(net.synapses):
        p, q = index[s.pre], index[s.post]
        syn_pre.append(p)
        syn_post.append(q)
        syn_weight.append(s.weight)
        syn_delay.append(s.delay)
        out_synapses[p].append(j)
        pre_synapses[q].append(j)

    events = sorted(stim.events, key=attrgetter("cycle"))
    amount = net.input_spike_amount

    return Layout(
        names=net.neuron_names(),
        threshold=[m.threshold for m in net.neurons],
        standard_resting=[m.standard_resting for m in net.neurons],
        refractory_resting=[m.refractory_resting for m in net.neurons],
        abs_refractory=[m.abs_refractory for m in net.neurons],
        rel_refractory=[m.rel_refractory for m in net.neurons],
        leak=[m.leak for m in net.neurons],
        syn_pre=syn_pre,
        syn_post=syn_post,
        syn_weight=syn_weight,
        syn_delay=syn_delay,
        out_synapses=out_synapses,
        pre_synapses=pre_synapses,
        ev_cycle=[ev.cycle for ev in events],
        ev_neuron=[index[ev.neuron] for ev in events],
        ev_value=[ev.value if ev.kind == INJECTION else amount for ev in events],
        ring_slots=hw.max_delay + 1,
        stdp_enabled=net.stdp_enabled,
        stdp_table=tuple(hw.stdp_table),
        weight_width=hw.weight_width,
    )
