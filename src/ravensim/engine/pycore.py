"""Pure-Python engine backend.

One integration cycle runs four phases in a fixed order:

  FIRE    neurons flagged at the end of the previous cycle fire now; their
          outgoing spikes are scheduled delay cycles ahead and their
          accumulators reset
  LEAK    accumulators above the active resting potential decay toward it
  DELIVER scheduled spikes and this cycle's external stimuli add charge
  SETTLE  threshold comparison, STDP weight adjustment, resting floors,
          refractory bookkeeping, and the cycle report

This ordering is what makes zero-delay self-loops, leak-before-delivery
and fire-at-beginning semantics come out right; the golden trace suite
locks it down.
"""

from __future__ import annotations

from .events import (
    PHASE_ABSOLUTE,
    PHASE_RELATIVE,
    PHASE_STANDARD,
    CycleReport,
)
from .layout import Layout


class PyEngine:
    """Cycle-accurate simulator state. Not thread-safe; instances are cheap."""

    backend = "python"

    def __init__(self, layout: Layout, record_deliveries: bool = False):
        lay = layout
        self.names = list(lay.names)
        self.n = len(self.names)
        self.threshold = list(lay.threshold)
        self.standard_resting = list(lay.standard_resting)
        self.refractory_resting = list(lay.refractory_resting)
        self.abs_refractory = list(lay.abs_refractory)
        self.rel_refractory = list(lay.rel_refractory)
        self.leak = list(lay.leak)

        self.syn_pre = list(lay.syn_pre)
        self.syn_post = list(lay.syn_post)
        self.syn_weight = list(lay.syn_weight)
        self.syn_delay = list(lay.syn_delay)
        self.n_syn = len(self.syn_pre)
        self.out_synapses = [list(v) for v in lay.out_synapses]
        self.pre_synapses = [list(v) for v in lay.pre_synapses]

        self.ev_cycle = lay.ev_cycle
        self.ev_neuron = lay.ev_neuron
        self.ev_value = lay.ev_value
        self.ev_cursor = 0
        self.stdp_enabled = lay.stdp_enabled
        self.stdp_table = tuple(lay.stdp_table)
        wlo = -(1 << (lay.weight_width - 1))
        self.weight_lo = wlo
        self.weight_hi = (1 << (lay.weight_width - 1)) - 1

        self.ring_slots = lay.ring_slots
        self.ring: list[list[int]] = [[] for _ in range(self.ring_slots)]

        self.acc = list(self.standard_resting)
        self.phase = [PHASE_STANDARD] * self.n
        self.phase_left = [0] * self.n
        self.pending = [False] * self.n
        self.last_exceed: list[int | None] = [None] * self.n

        self.syn_last_delivery: list[int | None] = [None] * self.n_syn
        self.syn_delivered = [False] * self.n_syn
        self.got_delivery = [False] * self.n

        self.cycle = 0
        self.record_deliveries = record_deliveries
        # (scheduled cycle, delivery cycle, synapse index) when recording.
        self.delivery_log: list[tuple[int, int, int]] = []

    def step(self) -> CycleReport:
        t = self.cycle
        ring = self.ring
        slots = self.ring_slots
        acc = self.acc
        phase = self.phase

        # FIRE
        fired: list[int] = []
        for i in range(self.n):
            if not self.pending[i]:
                continue
            fired.append(i)
            for j in self.out_synapses[i]:
                ring[(t + self.syn_delay[j]) % slots].append(j)
            if self.rel_refractory[i] > 0:
                acc[i] = self.refractory_resting[i]
            else:
                acc[i] = self.standard_resting[i]
            if self.abs_refractory[i] > 0:
                phase[i] = PHASE_ABSOLUTE
                self.phase_left[i] = self.abs_refractory[i]
            elif self.rel_refractory[i] > 0:
                phase[i] = PHASE_RELATIVE
                self.phase_left[i] = self.rel_refractory[i]
            else:
                phase[i] = PHASE_STANDARD
                self.phase_left[i] = 0
            self.pending[i] = False

        # LEAK (suspended during absolute refractory)
        for i in range(self.n):
            amount = self.leak[i]
            if amount <= 0:
                continue
            ph = phase[i]
            if ph == PHASE_STANDARD:
                floor = self.standard_resting[i]
            elif ph == PHASE_RELATIVE:
                floor = self.refractory_resting[i]
            else:
                continue
            if acc[i] > floor:
                value = acc[i] - amount
                acc[i] = value if value > floor else floor

        # DELIVER
        delivered = ring[t % slots]
        ring[t % slots] = []
        for j in delivered:
            self.syn_delivered[j] = True
            self.syn_last_delivery[j] = t
            post = self.syn_post[j]
            self.got_delivery[post] = True
            if self.record_deliveries:
                self.delivery_log.append((t - self.syn_delay[j], t, j))
            if phase[post] != PHASE_ABSOLUTE:
                acc[post] += self.syn_weight[j]
        ev = self.ev_cursor
        while ev < len(self.ev_cycle) and self.ev_cycle[ev] == t:
            i = self.ev_neuron[ev]
            if phase[i] != PHASE_ABSOLUTE:
                acc[i] += self.ev_value[ev]
            ev += 1
        self.ev_cursor = ev

        # SETTLE
        table = self.stdp_table
        tsize = len(table)
        stdp = self.stdp_enabled and tsize > 0
        half = tsize // 2
        wlo, whi = self.weight_lo, self.weight_hi
        for i in range(self.n):
            if acc[i] > self.threshold[i]:
                self.pending[i] = True
                if stdp:
                    for j in self.pre_synapses[i]:
                        last = self.syn_last_delivery[j]
                        if last is None:
                            continue
                        k = half - (t - last)
                        if k >= 0:
                            w = self.syn_weight[j] + table[k]
                            self.syn_weight[j] = wlo if w < wlo else (whi if w > whi else w)
                self.last_exceed[i] = t
            elif stdp and self.got_delivery[i] and self.last_exceed[i] is not None:
                k = half + (t - self.last_exceed[i])
                if k < tsize:
                    for j in self.pre_synapses[i]:
                        if self.syn_delivered[j]:
                            w = self.syn_weight[j] + table[k]
                            self.syn_weight[j] = wlo if w < wlo else (whi if w > whi else w)

        # Reported charges are the compared values, before the floor below.
        charges = {self.names[i]: acc[i] for i in range(self.n)}

        for i in range(self.n):
            ph = phase[i]
            if ph == PHASE_STANDARD:
                if acc[i] < self.standard_resting[i]:
                    acc[i] = self.standard_resting[i]
            elif ph == PHASE_RELATIVE:
                if acc[i] < self.refractory_resting[i]:
                    acc[i] = self.refractory_resting[i]
                self.phase_left[i] -= 1
                if self.phase_left[i] == 0:
                    phase[i] = PHASE_STANDARD
                    if acc[i] < self.standard_resting[i]:
                        acc[i] = self.standard_resting[i]
            else:
                self.phase_left[i] -= 1
                if self.phase_left[i] == 0:
                    if self.rel_refractory[i] > 0:
                        phase[i] = PHASE_RELATIVE
                        self.phase_left[i] = self.rel_refractory[i]
                    else:
                        phase[i] = PHASE_STANDARD

        for j in delivered:
            self.syn_delivered[j] = False
            self.got_delivery[self.syn_post[j]] = False

        self.cycle = t + 1
        return CycleReport(t, tuple(self.names[i] for i in fired), charges)

    def run(self, n_cycles: int) -> list[CycleReport]:
        if n_cycles < 0:
            raise ValueError("cycle count must be >= 0")
        return [self.step() for _ in range(n_cycles)]

    def advance(self, n_cycles: int) -> None:
        """Step n_cycles without building reports (benchmark fast path)."""
        for _ in range(n_cycles):
            self.step()

    # Introspection used by tests and the benchmark.
    def charges(self) -> dict[str, int]:
        return {self.names[i]: self.acc[i] for i in range(self.n)}

    def weights(self) -> list[int]:
        return list(self.syn_weight)

    def phases(self) -> list[tuple[int, int]]:
        return [(self.phase[i], self.phase_left[i]) for i in range(self.n)]
