"""Pure-Python cycle core.

One integration cycle runs four phases in a fixed order:

  FIRE    neurons flagged at the end of the previous cycle fire now; their
          outgoing spikes are scheduled delay cycles ahead and their
          accumulators reset
  LEAK    accumulators above the active resting potential decay toward it
  DELIVER scheduled spikes and this cycle's external stimuli add charge
  SETTLE  threshold comparison, STDP weight adjustment, resting floors and
          refractory bookkeeping

This ordering is what makes zero-delay self-loops, leak-before-delivery
and fire-at-beginning semantics come out right; the golden trace suite
locks it down.
"""

from __future__ import annotations

from array import array

from .events import PHASE_ABSOLUTE, PHASE_RELATIVE, PHASE_STANDARD, TraceBlocks
from .layout import Layout


class PyEngine:
    """The cycle core of the python backend. It runs on the columns of a
    layout built for it alone: its syn_weight column is the live weights."""

    def __init__(self, layout: Layout, delivery_log: list[tuple[int, int, int]] | None = None):
        self.lay = layout
        self.n = n = len(layout.names)
        n_syn = len(layout.syn_pre)
        self.weight_lo = -(1 << (layout.weight_width - 1))
        self.weight_hi = (1 << (layout.weight_width - 1)) - 1
        self.ring: list[list[int]] = [[] for _ in range(layout.ring_slots)]
        # Adjacency in declaration order: the synapses leaving and entering
        # each neuron (the kernel builds the same lists as CSR blocks).
        self.out_synapses: list[list[int]] = [[] for _ in range(n)]
        self.pre_synapses: list[list[int]] = [[] for _ in range(n)]
        for j, (p, q) in enumerate(zip(layout.syn_pre, layout.syn_post)):
            self.out_synapses[p].append(j)
            self.pre_synapses[q].append(j)
        self.ev_cursor = 0

        self.acc = list(layout.standard_resting)
        self.phase = [PHASE_STANDARD] * n
        self.phase_left = [0] * n
        self.pending = [False] * n
        self.last_exceed: list[int | None] = [None] * n

        self.syn_last_delivery: list[int | None] = [None] * n_syn
        self.syn_delivered = [False] * n_syn
        self.got_delivery = [False] * n

        self.cycle = 0
        # Appended (scheduled cycle, delivery cycle, synapse index) when given.
        self.delivery_log = delivery_log

    def run(self, n_cycles: int, record: bool) -> tuple[array, array, array | list] | None:
        """Run n_cycles; with record, return their fired, count and charge blocks."""
        blocks = TraceBlocks(n_cycles, self.n) if record else None
        for _ in range(n_cycles):
            self._cycle(blocks)
        return blocks.blocks() if blocks is not None else None

    def _cycle(self, blocks: TraceBlocks | None) -> None:
        t = self.cycle
        lay = self.lay
        ring = self.ring
        slots = lay.ring_slots
        acc = self.acc
        phase = self.phase

        # FIRE
        fired: list[int] = []
        for i in range(self.n):
            if not self.pending[i]:
                continue
            fired.append(i)
            for j in self.out_synapses[i]:
                ring[(t + lay.syn_delay[j]) % slots].append(j)
            if lay.rel_refractory[i] > 0:
                acc[i] = lay.refractory_resting[i]
            else:
                acc[i] = lay.standard_resting[i]
            if lay.abs_refractory[i] > 0:
                phase[i] = PHASE_ABSOLUTE
                self.phase_left[i] = lay.abs_refractory[i]
            elif lay.rel_refractory[i] > 0:
                phase[i] = PHASE_RELATIVE
                self.phase_left[i] = lay.rel_refractory[i]
            else:
                phase[i] = PHASE_STANDARD
                self.phase_left[i] = 0
            self.pending[i] = False

        # LEAK (suspended during absolute refractory)
        for i in range(self.n):
            amount = lay.leak[i]
            if amount <= 0:
                continue
            ph = phase[i]
            if ph == PHASE_STANDARD:
                floor = lay.standard_resting[i]
            elif ph == PHASE_RELATIVE:
                floor = lay.refractory_resting[i]
            else:
                continue
            if acc[i] > floor:
                value = acc[i] - amount
                acc[i] = value if value > floor else floor

        # DELIVER
        delivered = ring[t % slots]
        ring[t % slots] = []
        log = self.delivery_log
        for j in delivered:
            self.syn_delivered[j] = True
            self.syn_last_delivery[j] = t
            post = lay.syn_post[j]
            self.got_delivery[post] = True
            if log is not None:
                log.append((t - lay.syn_delay[j], t, j))
            if phase[post] != PHASE_ABSOLUTE:
                acc[post] += lay.syn_weight[j]
        ev = self.ev_cursor
        while ev < len(lay.ev_cycle) and lay.ev_cycle[ev] == t:
            i = lay.ev_neuron[ev]
            if phase[i] != PHASE_ABSOLUTE:
                acc[i] += lay.ev_value[ev]
            ev += 1
        self.ev_cursor = ev

        # SETTLE
        table = lay.stdp_table
        tsize = len(table)
        stdp = lay.stdp_enabled and tsize > 0
        half = tsize // 2
        wlo, whi = self.weight_lo, self.weight_hi
        for i in range(self.n):
            if acc[i] > lay.threshold[i]:
                self.pending[i] = True
                if stdp:
                    for j in self.pre_synapses[i]:
                        last = self.syn_last_delivery[j]
                        if last is None:
                            continue
                        k = half - (t - last)
                        if k >= 0:
                            w = lay.syn_weight[j] + table[k]
                            lay.syn_weight[j] = wlo if w < wlo else (whi if w > whi else w)
                self.last_exceed[i] = t
            elif stdp and self.got_delivery[i] and self.last_exceed[i] is not None:
                k = half + (t - self.last_exceed[i])
                if k < tsize:
                    for j in self.pre_synapses[i]:
                        if self.syn_delivered[j]:
                            w = lay.syn_weight[j] + table[k]
                            lay.syn_weight[j] = wlo if w < wlo else (whi if w > whi else w)

        # Recorded charges are the compared values, before the floor below.
        if blocks is not None:
            blocks.add(fired, acc)

        for i in range(self.n):
            ph = phase[i]
            if ph == PHASE_STANDARD:
                if acc[i] < lay.standard_resting[i]:
                    acc[i] = lay.standard_resting[i]
            elif ph == PHASE_RELATIVE:
                if acc[i] < lay.refractory_resting[i]:
                    acc[i] = lay.refractory_resting[i]
                self.phase_left[i] -= 1
                if self.phase_left[i] == 0:
                    phase[i] = PHASE_STANDARD
                    if acc[i] < lay.standard_resting[i]:
                        acc[i] = lay.standard_resting[i]
            else:
                self.phase_left[i] -= 1
                if self.phase_left[i] == 0:
                    if lay.rel_refractory[i] > 0:
                        phase[i] = PHASE_RELATIVE
                        self.phase_left[i] = lay.rel_refractory[i]
                    else:
                        phase[i] = PHASE_STANDARD

        for j in delivered:
            self.syn_delivered[j] = False
            self.got_delivery[lay.syn_post[j]] = False

        self.cycle = t + 1

    def charges(self) -> list[int]:
        return self.acc[:]

    def weights(self) -> list[int]:
        return self.lay.syn_weight[:]

    def phases(self) -> list[tuple[int, int]]:
        return list(zip(self.phase, self.phase_left))
