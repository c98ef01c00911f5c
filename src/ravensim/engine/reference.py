"""Naive oracle engine for differential testing.

Deliberately written without the production engine's machinery: no delivery
ring, no adjacency lists, no shared helper imports. Every cycle it walks the
full synapse list and looks each pre-neuron up in the fire set of cycle
t - delay, kept for every cycle run, so a delivery happens at cycle t exactly
when the pre-neuron fired at cycle t - delay. STDP is one more walk over the
synapses, each adjusted by the rule of its post-neuron. Slow and simple on
purpose: every cycle costs time linear in the number of synapses, where the
production cores touch only the synapses that deliver.
"""

from __future__ import annotations

from ..netmodel import HardwareConstants, Network
from .events import (
    INJECTION,
    PHASE_ABSOLUTE,
    PHASE_RELATIVE,
    PHASE_STANDARD,
    Stimulus,
    StimulusEvent,
    Trace,
)

_STD = "standard"
_ABS = "absolute"
_REL = "relative"
_PHASE_CODES = {_STD: PHASE_STANDARD, _ABS: PHASE_ABSOLUTE, _REL: PHASE_RELATIVE}


class ReferenceEngine:
    """The cycle core of the reference backend, keyed by neuron name."""

    def __init__(self, net: Network, hw: HardwareConstants, stim: Stimulus):
        self.net = net
        self.hw = hw
        neurons = tuple(net.neurons)  # settings records, built once
        self.synapses = tuple(net.synapses)
        self.events: dict[int, list[StimulusEvent]] = {}  # by cycle, in stimulus order
        for ev in stim.events:
            self.events.setdefault(ev.cycle, []).append(ev)
        self.names = [m.name for m in neurons]
        self.settings = {m.name: m for m in neurons}
        self.acc = {m.name: m.standard_resting for m in neurons}
        self.mode = {m.name: _STD for m in neurons}
        self.mode_left = {m.name: 0 for m in neurons}
        self.pending = {m.name: False for m in neurons}
        self.anchor: dict[str, int | None] = {m.name: None for m in neurons}
        self.weight = {j: s.weight for j, s in enumerate(net.synapses)}
        self.last_delivery: dict[int, int | None] = {j: None for j in range(len(net.synapses))}
        self.history: list[set[str]] = []  # the fire set of every cycle run
        lo = -(1 << (hw.weight_width - 1))
        self.bounds = (lo, -lo - 1)

    def _clamped(self, value: int) -> int:
        lo, hi = self.bounds
        return min(max(value, lo), hi)

    def run(self, n_cycles: int, trace: Trace | None) -> None:
        """Run n_cycles, filling their cycles of trace when one is given."""
        for _ in range(n_cycles):
            fired, charges = self._cycle()
            if trace is not None:
                trace.add(fired, charges)

    def _cycle(self) -> tuple[list[int], list[int]]:
        t = len(self.history)
        fired = [name for name in self.names if self.pending[name]]
        self.history.append(set(fired))
        for name in fired:
            m = self.settings[name]
            self.acc[name] = m.refractory_resting if m.rel_refractory > 0 else m.standard_resting
            if m.abs_refractory > 0:
                self.mode[name] = _ABS
                self.mode_left[name] = m.abs_refractory
            elif m.rel_refractory > 0:
                self.mode[name] = _REL
                self.mode_left[name] = m.rel_refractory
            else:
                self.mode[name] = _STD
                self.mode_left[name] = 0
            self.pending[name] = False

        for name in self.names:
            m = self.settings[name]
            if m.leak <= 0 or self.mode[name] == _ABS:
                continue
            floor = m.refractory_resting if self.mode[name] == _REL else m.standard_resting
            if self.acc[name] > floor:
                self.acc[name] = max(self.acc[name] - m.leak, floor)

        delivered: set[int] = set()
        for j, s in enumerate(self.synapses):
            born = t - s.delay
            if born < 0 or s.pre not in self.history[born]:
                continue
            delivered.add(j)
            self.last_delivery[j] = t
            if self.mode[s.post] != _ABS:
                self.acc[s.post] += self.weight[j]
        for ev in self.events.get(t, ()):
            if self.mode[ev.neuron] == _ABS:
                continue
            if ev.kind == INJECTION:
                self.acc[ev.neuron] += ev.value
            else:
                self.acc[ev.neuron] += self.net.input_spike_amount

        # A neuron whose charge exceeds its threshold potentiates every synapse
        # into it by how recently that synapse delivered. One that does not,
        # but has exceeded before, depresses the synapses into it that
        # delivered this cycle by how long ago it last exceeded. Each synapse
        # has one post-neuron, so one walk over the synapses applies both.
        exceeded = {name for name in self.names if self.acc[name] > self.settings[name].threshold}
        table = self.hw.stdp_table
        tsize = len(table)
        if self.net.stdp_enabled and tsize > 0:
            for j, s in enumerate(self.synapses):
                if s.post in exceeded:
                    if self.last_delivery[j] is None:
                        continue
                    k = tsize // 2 - (t - self.last_delivery[j])
                    if k >= 0:
                        self.weight[j] = self._clamped(self.weight[j] + table[k])
                elif j in delivered and self.anchor[s.post] is not None:
                    k = tsize // 2 + (t - self.anchor[s.post])
                    if k < tsize:
                        self.weight[j] = self._clamped(self.weight[j] + table[k])
        for name in exceeded:
            self.pending[name] = True
            self.anchor[name] = t

        charges = [self.acc[name] for name in self.names]

        for name in self.names:
            m = self.settings[name]
            mode = self.mode[name]
            if mode == _STD:
                self.acc[name] = max(self.acc[name], m.standard_resting)
            elif mode == _REL:
                self.acc[name] = max(self.acc[name], m.refractory_resting)
                self.mode_left[name] -= 1
                if self.mode_left[name] == 0:
                    self.mode[name] = _STD
                    self.acc[name] = max(self.acc[name], m.standard_resting)
            else:
                self.mode_left[name] -= 1
                if self.mode_left[name] == 0:
                    if m.rel_refractory > 0:
                        self.mode[name] = _REL
                        self.mode_left[name] = m.rel_refractory
                    else:
                        self.mode[name] = _STD

        return [i for i, name in enumerate(self.names) if name in self.history[t]], charges

    def charges(self) -> list[int]:
        return [self.acc[name] for name in self.names]

    def weights(self) -> list[int]:
        return [self.weight[j] for j in range(len(self.synapses))]

    def phases(self) -> list[tuple[int, int]]:
        return [(_PHASE_CODES[self.mode[name]], self.mode_left[name]) for name in self.names]
