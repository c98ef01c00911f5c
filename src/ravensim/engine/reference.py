"""Naive oracle engine for differential testing.

Deliberately written without the production engine's machinery: no delivery
ring, no adjacency lists, no shared helper imports. Every cycle it rescans
the full synapse list and the full fire history, so a delivery happens at
cycle t exactly when the pre-neuron fired at cycle t - delay. Slow and
simple on purpose.
"""

from __future__ import annotations

from ..netmodel import HardwareConstants, Network
from .events import (
    INJECTION,
    PHASE_ABSOLUTE,
    PHASE_RELATIVE,
    PHASE_STANDARD,
    Stimulus,
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
        self.events = list(stim.events)
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
        for ev in self.events:
            if ev.cycle != t or self.mode[ev.neuron] == _ABS:
                continue
            if ev.kind == INJECTION:
                self.acc[ev.neuron] += ev.value
            else:
                self.acc[ev.neuron] += self.net.input_spike_amount

        table = self.hw.stdp_table
        tsize = len(table)
        plastic = self.net.stdp_enabled and tsize > 0
        for name in self.names:
            if self.acc[name] > self.settings[name].threshold:
                self.pending[name] = True
                if plastic:
                    for j, s in enumerate(self.synapses):
                        if s.post != name or self.last_delivery[j] is None:
                            continue
                        k = tsize // 2 - (t - self.last_delivery[j])
                        if k >= 0:
                            self.weight[j] = self._clamped(self.weight[j] + table[k])
                self.anchor[name] = t
            elif plastic and self.anchor[name] is not None:
                k = tsize // 2 + (t - self.anchor[name])
                if k < tsize:
                    for j, s in enumerate(self.synapses):
                        if s.post == name and j in delivered:
                            self.weight[j] = self._clamped(self.weight[j] + table[k])

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
