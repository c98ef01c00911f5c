"""Bounded-exhaustive phase logic: every small case of one synapse, on every backend.

The scope: neurons A and B and one A -> B synapse of delay 0 or 1; a leak
of 0 or 1, absolute and relative refractory periods of 0 to 2 each, and a
standard and a refractory resting potential each at 0 or below it, all
shared by both neurons; STDP off, or on with one 3-entry table; and every
subset of the six input spikes on A and B in cycles 0 to 2. That is
2 * 2 * 3 * 3 * 2 * 2 * 2 * 64 = 18,432 cases. Each runs 8 cycles on
python, compiled and reference, which must agree on every cycle's report,
charges after SETTLE, weights and phases.

Tier-1 runs a seeded slice of the scope, which must reach every phase
transition SETTLE makes: absolute to relative, absolute to standard, and
relative to standard with the lift to the standard floor. The whole scope
runs with

    PYTHONPATH=src python tests/test_phase_exhaustive.py
"""

from __future__ import annotations

import random
import shutil
import time
from itertools import product

from ravensim import HardwareConstants, Network, NeuronSettings, SynapseSettings, new_engine
from ravensim.engine import (INPUT_SPIKE, PHASE_ABSOLUTE, PHASE_RELATIVE, PHASE_STANDARD,
                             Stimulus, StimulusEvent)

DELAYS = (0, 1)
LEAKS = (0, 1)
REFRACTORY = (0, 1, 2)
STANDARD_RESTING = (0, -1)
REFRACTORY_RESTING = (0, -3)
TABLE = (1, 2, -1)
SPIKES = tuple(product(range(3), "AB"))  # (cycle, neuron)
CYCLES = 8
SCOPE = tuple(product(DELAYS, LEAKS, REFRACTORY, REFRACTORY, STANDARD_RESTING,
                      REFRACTORY_RESTING, (False, True), range(1 << len(SPIKES))))
SLICE = 3000

BACKENDS = ["python", "reference"] + (["compiled"] if shutil.which("cc") else [])


def setup(delay, leak, abs_ref, rel_ref, std_rest, ref_rest, stdp, spikes):
    """The case's network, hardware and stimulus; bit k of spikes picks SPIKES[k].

    The threshold is 1, an input spike adds 3 and the synapse 2. So a spike
    alone lifts a neuron past the threshold from either standard resting
    potential, and from the refractory resting potential -3 only together
    with a delivery."""
    neurons = tuple(NeuronSettings(name, threshold=1, standard_resting=std_rest,
                                   refractory_resting=ref_rest, abs_refractory=abs_ref,
                                   rel_refractory=rel_ref, leak=leak) for name in "AB")
    net = Network(neurons=neurons, synapses=(SynapseSettings("A", "B", 2, delay),),
                  stdp_enabled=stdp, input_spike_amount=3)
    hw = HardwareConstants(
        accumulator_width=8, threshold_width=4, weight_width=3, max_delay=1, max_leak=1,
        max_abs_refractory=2, max_rel_refractory=2, ports=2, injection_ports=0,
        stdp_table=TABLE)
    events = [StimulusEvent(c, name, INPUT_SPIKE)
              for k, (c, name) in enumerate(SPIKES) if spikes >> k & 1]
    return net, hw, Stimulus(tuple(events))


def history(backend: str, case) -> list:
    """Every cycle's report, then its charges, weights and phases after SETTLE."""
    engine = new_engine(*setup(*case), backend=backend)
    return [(engine.step(), engine.charges(), engine.weights(), engine.phases())
            for _ in range(CYCLES)]


def compare(case) -> list:
    """python's history of case, after checking that every backend agrees."""
    expected = history("python", case)
    for backend in BACKENDS[1:]:
        assert history(backend, case) == expected, (backend, case)
    return expected


def transitions(case, steps) -> set[str]:
    """The phase transitions of SETTLE in a history of case."""
    _, _, abs_ref, rel_ref, std_rest, ref_rest, _, _ = case
    fired_phase = ((PHASE_ABSOLUTE, abs_ref) if abs_ref else
                   (PHASE_RELATIVE, rel_ref) if rel_ref else (PHASE_STANDARD, 0))
    found = set()
    phases = [(PHASE_STANDARD, 0)] * 2
    for report, charges, _, after in steps:
        for i, name in enumerate("AB"):
            before = fired_phase if name in report.fired else phases[i]
            if before[0] == PHASE_ABSOLUTE and after[i][0] != PHASE_ABSOLUTE:
                found.add("absolute -> " + ("relative" if after[i][0] == PHASE_RELATIVE
                                            else "standard"))
            if (before[0] == PHASE_RELATIVE and after[i][0] == PHASE_STANDARD
                    and charges[name] == std_rest > max(report.charges[name], ref_rest)):
                found.add("relative -> standard, lifted")
        phases = after
    return found


def test_phase_logic_agrees_on_every_backend_on_a_slice_of_the_scope():
    assert len(SCOPE) == 18_432
    found = set()
    for case in random.Random(24).sample(SCOPE, SLICE):
        found |= transitions(case, compare(case))
    assert found == {"absolute -> relative", "absolute -> standard",
                     "relative -> standard, lifted"}


if __name__ == "__main__":
    start = time.perf_counter()
    bad, found = [], set()
    for case in SCOPE:
        try:
            found |= transitions(case, compare(case))
        except AssertionError:
            bad.append(case)
    print(f"{len(SCOPE)} cases on {', '.join(BACKENDS)}: {len(bad)} disagreements "
          f"in {time.perf_counter() - start:.1f} s; transitions: {', '.join(sorted(found))}")
    for case in bad[:10]:
        print("  ", case)
