"""Per-cycle invariants checked on randomized networks.

Each property reads only what an outside observer gets: cycle reports,
plus the weight/phase introspection hooks. The networks come from the
shared seeded generator, so failures reproduce.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import replace

import pytest

from fuzz import FUZZ_CYCLES, mixed_setup, random_setup
from ravensim import NeuronSettings, new_engine
from ravensim.engine import PHASE_ABSOLUTE, PHASE_RELATIVE, PHASE_STANDARD, CycleReport, Stimulus
from ravensim.ioformats import format_trace

TRIALS = 60


def setups(seed: int, count: int = TRIALS):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_setup(rng)


def test_firing_follows_strict_threshold_comparison():
    # A neuron fires in cycle t+1 exactly when its reported charge in
    # cycle t strictly exceeded its threshold; nothing fires in cycle 0.
    for net, hw, stim in setups(101):
        thresholds = {m.name: m.threshold for m in net.neurons}
        trace = new_engine(net, hw, stim, backend="python").run(FUZZ_CYCLES)
        assert trace[0].fired == ()
        for prev, cur in zip(trace, trace[1:]):
            for name, threshold in thresholds.items():
                assert (name in cur.fired) == (prev.charges[name] > threshold), (
                    f"cycle {cur.cycle} neuron {name}")


def test_absolute_refractory_freezes_reported_charge():
    for net, hw, stim in setups(102):
        settings = {m.name: m for m in net.neurons}
        trace = new_engine(net, hw, stim, backend="python").run(FUZZ_CYCLES)
        for rep in trace:
            for name in rep.fired:
                m = settings[name]
                if m.abs_refractory == 0:
                    continue
                reset = (m.refractory_resting if m.rel_refractory > 0
                         else m.standard_resting)
                window = trace[rep.cycle:rep.cycle + m.abs_refractory]
                for frozen in window:
                    assert frozen.charges[name] == reset, (
                        f"cycle {frozen.cycle} neuron {name}")


def test_deliveries_land_exactly_delay_cycles_later():
    for net, hw, stim in setups(103, count=40):
        engine = new_engine(net, hw, stim, backend="python",
                            record_deliveries=True)
        trace = engine.run(FUZZ_CYCLES)
        fires = {m.name: [] for m in net.neurons}
        for rep in trace:
            for name in rep.fired:
                fires[name].append(rep.cycle)
        for scheduled, delivered, j in engine.delivery_log:
            syn = net.synapses[j]
            assert delivered - scheduled == syn.delay
            assert scheduled in fires[syn.pre]
        # Completeness: each fire delivers on every outgoing synapse whose
        # delay still lands inside the simulated window.
        for j, syn in enumerate(net.synapses):
            want = sum(1 for s in fires[syn.pre] if s + syn.delay < FUZZ_CYCLES)
            got = sum(1 for entry in engine.delivery_log if entry[2] == j)
            assert got == want, f"synapse {j}"


def test_post_cycle_charges_respect_phase_floors():
    for net, hw, stim in setups(104):
        engine = new_engine(net, hw, stim, backend="python")
        names = net.neuron_names()
        settings = {m.name: m for m in net.neurons}
        for _ in range(FUZZ_CYCLES):
            engine.step()
            charges = engine.charges()
            for (phase, _left), name in zip(engine.phases(), names):
                m = settings[name]
                if phase == PHASE_STANDARD:
                    assert charges[name] >= m.standard_resting, name
                elif phase == PHASE_RELATIVE:
                    assert charges[name] >= m.refractory_resting, name
                else:
                    assert phase == PHASE_ABSOLUTE
                    reset = (m.refractory_resting if m.rel_refractory > 0
                             else m.standard_resting)
                    assert charges[name] == reset, name


def test_weights_stay_clamped_to_signed_width():
    # 4-bit weights: every plastic update saturates inside [-8, 7].
    seen_change = False
    for net, hw, stim in setups(105):
        if not net.stdp_enabled:
            net = replace(net, stdp_enabled=True)
            if not hw.stdp_table:
                continue
        engine = new_engine(net, hw, stim, backend="python")
        initial = engine.weights()
        for _ in range(FUZZ_CYCLES):
            engine.step()
            assert all(-8 <= w <= 7 for w in engine.weights())
        seen_change = seen_change or engine.weights() != initial
    assert seen_change, "no trial ever adjusted a weight"


def test_weights_frozen_without_stdp():
    for net, hw, stim in setups(106):
        frozen = replace(net, stdp_enabled=False)
        engine = new_engine(frozen, hw, stim, backend="python")
        initial = engine.weights()
        for _ in range(FUZZ_CYCLES):
            engine.step()
            assert engine.weights() == initial


def test_repeated_runs_render_byte_identical_traces():
    for net, hw, stim in setups(107, count=20):
        first = new_engine(net, hw, stim, backend="python").run(FUZZ_CYCLES)
        second = new_engine(net, hw, stim, backend="python").run(FUZZ_CYCLES)
        assert format_trace(first, "jsonl") == format_trace(second, "jsonl")
        assert format_trace(first, "table") == format_trace(second, "table")


def test_report_shape_invariants():
    for net, hw, stim in setups(108, count=20):
        names = net.neuron_names()
        trace = new_engine(net, hw, stim, backend="python").run(FUZZ_CYCLES)
        assert [rep.cycle for rep in trace] == list(range(FUZZ_CYCLES))
        for rep in trace:
            assert list(rep.charges.keys()) == names
            assert set(rep.fired) <= set(names)


# Metamorphic relations: a relabelled input must give the relabelled output,
# which catches index-mapping and slot-ordering faults that every backend
# could share through Layout, with no oracle needed.
@pytest.mark.parametrize("stdp", [False, True], ids=["stdp_off", "stdp_on"])
@pytest.mark.parametrize("n_neurons, seed", [(32, 11), (48, 12)])
@pytest.mark.parametrize("backend", ["python", "compiled", "reference"])
def test_permuting_declarations_permutes_the_outputs(backend, n_neurons, seed, stdp):
    if backend == "compiled" and shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    net, hw, stim = mixed_setup(n_neurons, 8, stdp, 100, seed)
    rng = random.Random(seed)
    order = rng.sample(range(n_neurons), n_neurons)  # new position k holds neuron order[k]
    where = {old: new for new, old in enumerate(order)}
    links = rng.sample(range(len(net.synapses)), len(net.synapses))
    engine = new_engine(net, hw, stim, backend=backend)
    by_neuron = new_engine(replace(net, neurons=[net.neurons[i] for i in order]), hw, stim,
                           backend=backend)
    by_synapse = new_engine(replace(net, synapses=[net.synapses[j] for j in links]), hw, stim,
                            backend=backend)
    trace, neuron_trace, synapse_trace = (e.run(100) for e in (engine, by_neuron, by_synapse))
    assert sum(trace.counts) > 0

    assert neuron_trace.names == tuple(trace.names[i] for i in order)
    rows = zip(trace.rows(), neuron_trace.rows())
    for (cycle, fired, charges), (n_cycle, n_fired, n_charges) in rows:
        assert n_cycle == cycle
        assert list(n_fired) == sorted(where[i] for i in fired)
        assert list(n_charges) == [charges[i] for i in order]
    charges, phases = list(engine.charges().items()), engine.phases()
    assert list(by_neuron.charges().items()) == [charges[i] for i in order]
    assert by_neuron.phases() == [phases[i] for i in order]
    assert by_neuron.weights() == engine.weights()

    assert (synapse_trace.names, synapse_trace.cycles, synapse_trace.fired,
            synapse_trace.counts, synapse_trace.charges) == (
        trace.names, trace.cycles, trace.fired, trace.counts, trace.charges)
    assert by_synapse.weights() == [engine.weights()[j] for j in links]
    assert (engine.weights() != list(net.synapses.weight)) == stdp


def prefixed(net, stim, prefix: str):
    """net and stim with every neuron name prefixed."""
    neurons = [replace(m, name=prefix + m.name) for m in net.neurons]
    synapses = [replace(s, pre=prefix + s.pre, post=prefix + s.post) for s in net.synapses]
    events = [replace(ev, neuron=prefix + ev.neuron) for ev in stim.events]
    return replace(net, neurons=neurons, synapses=synapses), Stimulus(events)


# Two networks side by side, with no synapse between them, run as they run
# apart: the union's trace is the column-wise union of theirs.
@pytest.mark.parametrize("stdp", [False, True], ids=["stdp_off", "stdp_on"])
@pytest.mark.parametrize("backend", ["python", "compiled", "reference"])
def test_a_disjoint_union_runs_its_parts_side_by_side(backend, stdp):
    if backend == "compiled" and shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    (net_a, hw_a, stim_a), (net_b, hw_b, stim_b) = (
        mixed_setup(n, 8, stdp, 60, seed) for n, seed in ((32, 21), (24, 22)))
    # mixed_setup hardware differs only in its ports, and the accumulator
    # width they need: the one with more ports takes both networks.
    hw = max(hw_a, hw_b, key=lambda h: h.ports)
    net_a, stim_a = prefixed(net_a, stim_a, "a.")
    net_b, stim_b = prefixed(net_b, stim_b, "b.")
    union = replace(net_a, neurons=[*net_a.neurons, *net_b.neurons],
                    synapses=[*net_a.synapses, *net_b.synapses])
    parts = [new_engine(net, hw, stim, backend=backend)
             for net, stim in ((net_a, stim_a), (net_b, stim_b))]
    whole = new_engine(union, hw, Stimulus([*stim_a.events, *stim_b.events]), backend=backend)
    (trace_a, trace_b), trace = [part.run(60) for part in parts], whole.run(60)
    assert sum(trace_a.counts) > 0 and sum(trace_b.counts) > 0

    n_a = len(net_a.neurons)
    assert trace.names == trace_a.names + trace_b.names
    for (cycle, fired, charges), (cycle_a, fired_a, charges_a), (cycle_b, fired_b, charges_b) in (
            zip(trace.rows(), trace_a.rows(), trace_b.rows())):
        assert cycle == cycle_a == cycle_b
        assert list(fired) == [*fired_a, *(n_a + i for i in fired_b)]
        assert list(charges) == [*charges_a, *charges_b]
    assert whole.charges() == {**parts[0].charges(), **parts[1].charges()}
    assert whole.weights() == parts[0].weights() + parts[1].weights()
    assert whole.phases() == parts[0].phases() + parts[1].phases()
    assert (whole.weights() != list(union.synapses.weight)) == stdp


# A neuron with no synapses and no stimulus changes nothing else: the other
# neurons fire, charge and move through their phases as they do without it,
# and the weights learn the same, though it fires and refracts on its own.
@pytest.mark.parametrize("backend", ["python", "compiled", "reference"])
def test_an_isolated_neuron_changes_nothing_else(backend):
    if backend == "compiled" and shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")
    net, hw, stim = mixed_setup(32, 8, True, 60, seed=23)
    at = 13  # inserted mid-list, so every neuron after it moves up one index
    lone = NeuronSettings("lone", threshold=-1, refractory_resting=-2, abs_refractory=1,
                          rel_refractory=2, leak=1)
    grown = replace(net, neurons=[*net.neurons[:at], lone, *net.neurons[at:]])
    alone, beside = (new_engine(n, hw, stim, backend=backend) for n in (net, grown))
    trace, grown_trace = alone.run(60), beside.run(60)
    assert any("lone" in rep.fired for rep in grown_trace)
    assert [CycleReport(rep.cycle, tuple(name for name in rep.fired if name != "lone"),
                        {name: v for name, v in rep.charges.items() if name != "lone"})
            for rep in grown_trace] == trace
    others = beside.charges()
    del others["lone"]
    assert others == alone.charges()
    assert beside.weights() == alone.weights() != list(net.synapses.weight)
    phases = beside.phases()
    assert phases[:at] + phases[at + 1:] == alone.phases()
