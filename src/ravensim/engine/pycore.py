"""Pure-Python cycle core: the passes of kernel.c's rk_step, one by one.

FIRE then LEAK for each neuron, DELIVER, the charge report, SETTLE for each
neuron, then STDP for each neuron when the table is not empty; kernel.c's
header argues that these three passes run the four phases of README "Cycle
model", which reference.py writes out one by one. "This cycle" is read from
cycle stamps: a neuron fires in cycle t when its exceed stamp is t - 1.
"""

from __future__ import annotations

from collections import defaultdict

from .events import PHASE_ABSOLUTE, PHASE_RELATIVE, PHASE_STANDARD, Trace
from .layout import Layout


class PyEngine:
    """The cycle core of the python backend, over a read-only layout and
    its own copy of the weights."""

    def __init__(self, layout: Layout, delivery_log: list[tuple[int, int, int]] | None = None):
        self.lay = layout
        self.n = n = len(layout.threshold)
        self.weight = list(layout.syn_weight)
        # The synapses due to deliver, by due cycle: no delay sizes anything.
        self.due: defaultdict[int, list[int]] = defaultdict(list)
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
        # Cycle stamps: the last cycle the charge exceeded the threshold and
        # the last cycle the synapse delivered; -2 for never, which no cycle t
        # reads as t - 1. STDP depression tests the stamps of the synapses into
        # a neuron, so the neuron needs no stamp for "got a delivery".
        self.last_exceed = [-2] * n
        self.syn_last_delivery = [-2] * len(layout.syn_pre)

        self.cycle = 0
        # Appended (scheduled cycle, delivery cycle, synapse index) when given.
        self.delivery_log = delivery_log

    def run(self, n_cycles: int, trace: Trace | None) -> None:
        """Run n_cycles, filling their cycles of trace when one is given."""
        for _ in range(n_cycles):
            self._cycle(trace)

    def _cycle(self, trace: Trace | None) -> None:
        t, lay = self.cycle, self.lay
        std_rest, ref_rest, threshold = lay.standard_resting, lay.refractory_resting, lay.threshold
        abs_ref, rel_ref, leak = lay.abs_refractory, lay.rel_refractory, lay.leak
        acc, phase, phase_left = self.acc, self.phase, self.phase_left
        last_exceed, due, delay = self.last_exceed, self.due, lay.syn_delay
        weight, last_delivery = self.weight, self.syn_last_delivery

        # FIRE, then LEAK, suspended during absolute refractory
        fired: list[int] = []
        for i in range(self.n):
            if last_exceed[i] == t - 1:
                fired.append(i)
                for j in self.out_synapses[i]:
                    due[t + delay[j]].append(j)
                acc[i] = ref_rest[i] if rel_ref[i] > 0 else std_rest[i]
                if abs_ref[i] > 0:
                    phase[i], phase_left[i] = PHASE_ABSOLUTE, abs_ref[i]
                elif rel_ref[i] > 0:
                    phase[i], phase_left[i] = PHASE_RELATIVE, rel_ref[i]
                else:
                    phase[i], phase_left[i] = PHASE_STANDARD, 0
            if leak[i] <= 0 or phase[i] == PHASE_ABSOLUTE:
                continue
            floor = std_rest[i] if phase[i] == PHASE_STANDARD else ref_rest[i]
            if acc[i] > floor:
                value = acc[i] - leak[i]
                acc[i] = value if value > floor else floor

        # DELIVER
        syn_post, now = lay.syn_post, due.pop(t, ())
        for j in now:
            last_delivery[j] = t
            post = syn_post[j]
            if phase[post] != PHASE_ABSOLUTE:
                acc[post] += weight[j]
        if self.delivery_log is not None:
            self.delivery_log.extend([(t - delay[j], t, j) for j in now])
        ev_cycle, ev = lay.ev_cycle, self.ev_cursor
        while ev < len(ev_cycle) and ev_cycle[ev] == t:
            i = lay.ev_neuron[ev]
            if phase[i] != PHASE_ABSOLUTE:
                acc[i] += lay.ev_value[ev]
            ev += 1
        self.ev_cursor = ev

        # The report: the charges as compared against the thresholds, which
        # SETTLE reads before its resting floors change them.
        if trace is not None:
            trace.add(fired, acc)

        # SETTLE: threshold comparison, then the resting floors and the
        # refractory bookkeeping
        for i in range(self.n):
            charge = acc[i]
            if charge > threshold[i]:
                last_exceed[i] = t
            ph = phase[i]
            if ph == PHASE_STANDARD:
                if charge < std_rest[i]:
                    acc[i] = std_rest[i]
            elif ph == PHASE_RELATIVE:
                if charge < ref_rest[i]:
                    charge = acc[i] = ref_rest[i]
                phase_left[i] -= 1
                if phase_left[i] == 0:
                    phase[i] = PHASE_STANDARD
                    if charge < std_rest[i]:
                        acc[i] = std_rest[i]
            else:
                phase_left[i] -= 1
                if phase_left[i] == 0:
                    phase[i] = PHASE_RELATIVE if rel_ref[i] > 0 else PHASE_STANDARD
                    phase_left[i] = rel_ref[i]

        # STDP, off with an empty table: potentiate into a neuron that exceeded
        # in this cycle, depress into one whose last exceed the table reaches.
        table = lay.stdp_table
        if table:
            pre_synapses, tsize, half = self.pre_synapses, len(table), len(table) // 2
            wlo, whi = -(1 << (lay.weight_width - 1)), (1 << (lay.weight_width - 1)) - 1
            for i in range(self.n):
                if last_exceed[i] == t:
                    for j in pre_synapses[i]:
                        last = last_delivery[j]
                        if last >= 0 and half - (t - last) >= 0:
                            w = weight[j] + table[half - (t - last)]
                            weight[j] = wlo if w < wlo else (whi if w > whi else w)
                elif last_exceed[i] >= 0 and half + (t - last_exceed[i]) < tsize:
                    delta = table[half + (t - last_exceed[i])]
                    for j in pre_synapses[i]:
                        if last_delivery[j] == t:
                            w = weight[j] + delta
                            weight[j] = wlo if w < wlo else (whi if w > whi else w)

        self.cycle = t + 1

    def charges(self) -> list[int]:
        return self.acc[:]

    def weights(self) -> list[int]:
        return self.weight[:]

    def phases(self) -> list[tuple[int, int]]:
        return list(zip(self.phase, self.phase_left))
