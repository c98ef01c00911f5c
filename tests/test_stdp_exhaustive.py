"""Bounded-exhaustive STDP timing: every small case of one synapse, on every backend.

The scope: neurons A and B and one A -> B synapse of delay 0, 1 or 2 whose
weight starts on or one step inside a rail of a 3-bit weight (-4, -3, 2 or
3); five fixed STDP tables of lengths 1 to 5; and every subset of the eight
input spikes on A and B in cycles 0 to 3. That is 3 * 4 * 5 * 256 = 15,360
cases. Each runs 8 cycles on python, compiled and reference, which must
agree on every cycle's report and weights and on the final phases.

Tier-1 runs a seeded slice of the scope. The whole scope runs with

    PYTHONPATH=src python tests/test_stdp_exhaustive.py
"""

from __future__ import annotations

import random
import shutil
import time
from itertools import product

from ravensim import HardwareConstants, Network, NeuronSettings, SynapseSettings, new_engine
from ravensim.engine import INPUT_SPIKE, Stimulus, StimulusEvent

DELAYS = (0, 1, 2)
WEIGHTS = (-4, -3, 2, 3)
TABLES = ((3,), (-2, 1), (1, 3, -2), (2, 3, -1, -3), (1, 2, 3, -3, -1))
SPIKES = tuple(product(range(4), "AB"))  # (cycle, neuron)
CYCLES = 8
SCOPE = tuple(product(DELAYS, WEIGHTS, TABLES, range(1 << len(SPIKES))))
SLICE = 5000

BACKENDS = ["python", "reference"] + (["compiled"] if shutil.which("cc") else [])


def setup(delay: int, weight: int, table: tuple[int, ...], spikes: int):
    """The case's network, hardware and stimulus; bit k of spikes picks SPIKES[k].

    An input spike makes A exceed, and B too unless a negative delivery
    comes with it. A delivery of weight 3 alone makes B exceed, one of
    weight 2 only on top of a charge left from before."""
    net = Network(
        neurons=(NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=2)),
        synapses=(SynapseSettings("A", "B", weight, delay),),
        stdp_enabled=True,
        input_spike_amount=3,
    )
    hw = HardwareConstants(
        accumulator_width=8, threshold_width=4, weight_width=3, max_delay=2, max_leak=0,
        max_abs_refractory=0, max_rel_refractory=0, ports=2, injection_ports=0,
        stdp_table=table)
    events = [StimulusEvent(c, name, INPUT_SPIKE)
              for k, (c, name) in enumerate(SPIKES) if spikes >> k & 1]
    return net, hw, Stimulus(tuple(events))


def history(backend: str, case) -> list:
    """Every cycle's report and weights, then the phases."""
    engine = new_engine(*setup(*case), backend=backend)
    return [(engine.step(), engine.weights()) for _ in range(CYCLES)] + [engine.phases()]


def compare(case) -> list:
    """python's history of case, after checking that every backend agrees."""
    expected = history("python", case)
    for backend in BACKENDS[1:]:
        assert history(backend, case) == expected, (backend, case)
    return expected


def test_stdp_timing_agrees_on_every_backend_on_a_slice_of_the_scope():
    moved = set()  # the weights a case ends on, when not its start weight
    for case in random.Random(22).sample(SCOPE, SLICE):
        final = compare(case)[-2][1][0]
        if final != case[1]:
            moved.add(final)
    # The slice saturates in both directions, not only looks entries up.
    assert {-4, 3} <= moved


if __name__ == "__main__":
    start = time.perf_counter()
    bad = []
    for case in SCOPE:
        try:
            compare(case)
        except AssertionError:
            bad.append(case)
    print(f"{len(SCOPE)} cases on {', '.join(BACKENDS)}: {len(bad)} disagreements "
          f"in {time.perf_counter() - start:.1f} s")
    for case in bad[:10]:
        print("  ", case)
