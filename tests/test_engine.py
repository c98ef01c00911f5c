"""Cycle semantics of the engine, pinned with small hand-built networks.

Each test isolates one rule: phase order within a cycle, delay exactness,
leak direction, refractory behaviour, the pre-floor charge snapshot, and
the two plasticity branches.
"""

from __future__ import annotations

import shutil
from array import array

import pytest

from fuzz import build_setup
from ravensim import (
    HardwareConstants,
    Network,
    NeuronSettings,
    SynapseSettings,
    new_engine,
)
from ravensim.engine import INJECTION, INPUT_SPIKE, CycleReport, Stimulus, StimulusEvent, Trace
from ravensim.goldens import compare_traces
from ravensim.ioformats import format_trace, parse_trace_jsonl

EVERY_BACKEND = ["python", "reference", pytest.param("compiled", marks=pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler (cc)"))]


def hw(**overrides) -> HardwareConstants:
    base = dict(
        accumulator_width=12,
        threshold_width=8,
        weight_width=4,
        max_delay=8,
        max_leak=7,
        max_abs_refractory=7,
        max_rel_refractory=7,
        ports=8,
        injection_ports=4,
        stdp_table=(),
    )
    base.update(overrides)
    return HardwareConstants(**base)


def spikes(*cycle_neuron: tuple[int, str]) -> Stimulus:
    return Stimulus(tuple(StimulusEvent(c, n, INPUT_SPIKE) for c, n in cycle_neuron))


def charges_of(trace, name: str) -> list[int]:
    return [rep.charges[name] for rep in trace]


def fire_cycles(trace, name: str) -> list[int]:
    return [rep.cycle for rep in trace if name in rep.fired]


def test_initial_charges_sit_at_standard_resting():
    net = Network(
        neurons=(NeuronSettings("A", threshold=9, standard_resting=-3),
                 NeuronSettings("B", threshold=9)),
        synapses=(),
    )
    engine = new_engine(net, hw(), backend="python")
    assert engine.charges() == {"A": -3, "B": 0}


def test_idle_network_never_fires():
    net = Network(
        neurons=(NeuronSettings("A", threshold=0, standard_resting=-1),),
        synapses=(SynapseSettings("A", "A", 7, 0),),
    )
    engine = new_engine(net, hw(), backend="python")
    for rep in engine.run(20):
        assert rep.fired == ()
        assert rep.charges == {"A": -1}


def test_zero_delay_self_loop_fires_every_cycle():
    # The fire phase schedules spikes before the delivery phase consumes
    # the current slot, so a zero-delay synapse lands in the same cycle.
    net = Network(
        neurons=(NeuronSettings("S", threshold=1),),
        synapses=(SynapseSettings("S", "S", 2, 0),),
        input_spike_amount=2,
    )
    engine = new_engine(net, hw(), spikes((0, "S")), backend="python")
    trace = engine.run(10)
    assert fire_cycles(trace, "S") == list(range(1, 10))
    assert charges_of(trace, "S") == [2] * 10


def test_delivery_arrives_exactly_delay_cycles_after_fire():
    for delay in range(0, 9):
        net = Network(
            neurons=(NeuronSettings("A", threshold=1),
                     NeuronSettings("B", threshold=50)),
            synapses=(SynapseSettings("A", "B", 3, delay),),
            input_spike_amount=2,
        )
        engine = new_engine(net, hw(), spikes((0, "A")), backend="python",
                            record_deliveries=True)
        trace = engine.run(12)
        # A fires at cycle 1; B's charge must move at cycle 1 + delay and
        # stay put (no leak, threshold never met).
        expected = [3 if t >= 1 + delay else 0 for t in range(12)]
        assert charges_of(trace, "B") == expected, f"delay {delay}"
        assert engine.delivery_log == [(1, 1 + delay, 0)]


@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_delivery_log_is_none_unless_recorded(backend):
    # An engine that records nothing has no log, rather than an empty one
    # that would read as "no deliveries".
    net = Network((NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=50)),
                  (SynapseSettings("A", "B", 3, 1),), input_spike_amount=2)
    engine = new_engine(net, hw(), spikes((0, "A")), backend=backend)
    assert charges_of(engine.run(4), "B") == [0, 0, 3, 3]  # delivered at cycle 2
    assert engine.delivery_log is None


def test_leak_decays_toward_resting_and_stops_there():
    net = Network(
        neurons=(NeuronSettings("L", threshold=50, standard_resting=-1, leak=2),),
        synapses=(),
        input_spike_amount=6,
    )
    engine = new_engine(net, hw(), spikes((0, "L")), backend="python")
    trace = engine.run(6)
    # Leak runs before delivery, so the cycle-0 spike lands unleaked, then
    # decays by 2 per cycle and parks at the resting potential.
    assert charges_of(trace, "L") == [5, 3, 1, -1, -1, -1]


def test_leak_clips_final_step_at_resting():
    net = Network(
        neurons=(NeuronSettings("L", threshold=50, leak=4),),
        synapses=(),
        input_spike_amount=6,
    )
    engine = new_engine(net, hw(), spikes((0, "L")), backend="python")
    assert charges_of(engine.run(4), "L") == [6, 2, 0, 0]


def test_charge_report_shows_pre_floor_value():
    # Inhibition can drag the accumulator below the resting potential; the
    # report keeps the compared value, the floor applies afterwards.
    net = Network(
        neurons=(NeuronSettings("A", threshold=1),
                 NeuronSettings("B", threshold=9)),
        synapses=(SynapseSettings("A", "B", -3, 0),),
        input_spike_amount=2,
    )
    engine = new_engine(net, hw(), spikes((0, "A")), backend="python")
    trace = engine.run(3)
    assert charges_of(trace, "B") == [0, -3, 0]


def test_abs_refractory_discards_charge_and_suspends_leak():
    net = Network(
        neurons=(NeuronSettings("R", threshold=1, abs_refractory=2, leak=1),),
        synapses=(SynapseSettings("R", "R", 2, 0),),
        input_spike_amount=2,
    )
    stim = spikes((0, "R"), (1, "R"), (2, "R"), (3, "R"))
    engine = new_engine(net, hw(), stim, backend="python")
    trace = engine.run(6)
    # Fires at 1, then sits absolute for cycles 1-2 discarding the self
    # spike and both input spikes; the cycle-3 spike lands again.
    assert fire_cycles(trace, "R") == [1, 4]
    assert charges_of(trace, "R")[:4] == [2, 0, 0, 2]


def test_rel_refractory_resets_low_then_recovers_to_standard():
    net = Network(
        neurons=(NeuronSettings("A", threshold=1),
                 NeuronSettings("V", threshold=2, rel_refractory=1,
                                refractory_resting=-2)),
        synapses=(SynapseSettings("A", "V", 3, 0),),
        input_spike_amount=2,
    )
    engine = new_engine(net, hw(), spikes((0, "A")), backend="python")
    trace = engine.run(4)
    # V exceeds at cycle 1 and fires at 2, resetting to the refractory
    # resting value; when the relative window closes the accumulator is
    # raised to the standard resting value for the next cycle.
    assert fire_cycles(trace, "V") == [2]
    assert charges_of(trace, "V") == [0, 3, -2, 0]


def test_injection_adds_signed_values():
    net = Network(
        neurons=(NeuronSettings("J", threshold=50, injection=True),),
        synapses=(),
    )
    stim = Stimulus((
        StimulusEvent(0, "J", INJECTION, 7),
        StimulusEvent(1, "J", INJECTION, -8),
    ))
    engine = new_engine(net, hw(), stim, backend="python")
    assert charges_of(engine.run(3), "J") == [7, -1, 0]


def test_input_spike_amount_is_programmable():
    net = Network(
        neurons=(NeuronSettings("A", threshold=50),),
        synapses=(),
        input_spike_amount=5,
    )
    engine = new_engine(net, hw(), spikes((0, "A")), backend="python")
    assert charges_of(engine.run(1), "A") == [5]


def test_run_zero_cycles_is_empty():
    net = Network((NeuronSettings("A", threshold=1),), ())
    engine = new_engine(net, hw(), backend="python")
    assert engine.run(0) == []
    assert engine.cycle == 0


@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_potentiation_uses_stale_delivery_marks(backend):
    # A synapse keeps its last-delivery mark; a later exceed caused purely
    # by an input spike still potentiates it when the gap fits the table.
    table = (0, 0, 3, 0, 1, 0, 0, 0)
    net = Network(
        neurons=(NeuronSettings("A", threshold=1),
                 NeuronSettings("B", threshold=3)),
        synapses=(SynapseSettings("A", "B", 5, 0),),
        stdp_enabled=True,
        input_spike_amount=10,
    )
    engine = new_engine(net, hw(stdp_table=table), spikes((0, "A"), (3, "B")),
                        backend=backend)
    engine.run(2)
    # Delivery and exceed in the same cycle: gap 0 hits table[4].
    assert engine.weights() == [6]
    engine.run(2)
    # Exceed at cycle 3 against the cycle-1 mark: gap 2 hits table[2],
    # and 6 + 3 saturates at the 4-bit maximum.
    assert engine.weights() == [7]


@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_depression_applies_to_deliveries_after_exceed(backend):
    table = (0, 0, -2, -3)
    net = Network(
        neurons=(NeuronSettings("A", threshold=1),
                 NeuronSettings("B", threshold=5)),
        synapses=(SynapseSettings("A", "B", 2, 0),),
        stdp_enabled=True,
        input_spike_amount=6,
    )
    engine = new_engine(net, hw(stdp_table=table), spikes((0, "A"), (0, "B")),
                        backend=backend)
    engine.run(2)
    # B exceeded at cycle 0; A's spike arrives at cycle 1 without pushing
    # B over threshold again, so the gap-1 depression entry applies.
    assert engine.weights() == [-1]


def stdp_pair(backend: str, table: tuple[int, ...], weight: int, a_spikes=(), b_spikes=(),
              weight_width: int = 4):
    """A -> B over one zero-delay synapse. An input spike makes A exceed, so
    the synapse delivers in the next cycle; B exceeds exactly in the cycles
    of b_spikes, as one delivery alone stays below its threshold."""
    net = Network(
        neurons=(NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=3)),
        synapses=(SynapseSettings("A", "B", weight, 0),),
        stdp_enabled=True,
        input_spike_amount=8,
    )
    stim = spikes(*[(c, "A") for c in a_spikes], *[(c, "B") for c in b_spikes])
    return new_engine(net, hw(stdp_table=table, weight_width=weight_width), stim,
                      backend=backend)


# Tables of length 1, 2 and 4: half = 0, 1 and 2, and depression entries
# only in the last.
EDGE_TABLES = [(2,), (3, 1), (1, 2, 3, -2)]


@pytest.mark.parametrize("table", EDGE_TABLES + [(1, 2, 3, 4, 5, 6, 7, -1, -2)])
@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_a_never_delivered_synapse_is_not_potentiated(backend, table):
    # B exceeds in every cycle from 0 to past half while A never fires, so
    # the synapse has no delivery for any table entry to time.
    half = len(table) // 2
    engine = stdp_pair(backend, table, 1, b_spikes=range(half + 3))
    trace = engine.run(half + 3)
    assert fire_cycles(trace, "B") == list(range(1, half + 3))
    assert engine.weights() == [1]


@pytest.mark.parametrize("table", EDGE_TABLES)
@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_potentiation_reaches_back_exactly_half_cycles(backend, table):
    # A's spike at cycle 0 delivers at cycle 1; B exceeds half cycles later
    # (gap half: table[0]) or one more (no entry).
    half = len(table) // 2
    for gap, weight in ((half, 1 + table[0]), (half + 1, 1)):
        engine = stdp_pair(backend, table, 1, a_spikes=[0], b_spikes=[1 + gap])
        engine.run(gap + 3)
        assert engine.weights() == [weight], gap


@pytest.mark.parametrize("table", EDGE_TABLES + [(0, 0, -1), (0, 0, 1, -1, -2)])
@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_depression_reaches_forward_to_the_last_table_entry(backend, table):
    # B exceeds at cycle 0; A's delivery arrives gap cycles later. The last
    # entry has gap len - 1 - half, which is 0 for tables of length 1 and
    # 2: they have no depression entry, and gap 1 changes nothing.
    last = len(table) - 1 - len(table) // 2
    cases = [(last + 1, 1)] + ([(last, 1 + table[-1])] if last else [])
    for gap, weight in cases:
        engine = stdp_pair(backend, table, 1, a_spikes=[gap - 1], b_spikes=[0])
        engine.run(gap + 2)
        assert engine.weights() == [weight], gap


@pytest.mark.parametrize(("table", "weight", "a_spikes", "b_spikes", "rail"), [
    ((3, 3, 3), 2, [0], [1], 3),  # potentiation up to the top rail
    ((-3, -3, -3), -3, [0], [1], -4),  # potentiation down to the bottom rail
    ((0, 0, -3), -3, [0], [0], -4),  # depression down to the bottom rail
    ((0, 0, 3), 2, [0], [0], 3),  # depression up to the top rail
])
@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_stdp_saturates_at_both_weight_rails(backend, table, weight, a_spikes, b_spikes, rail):
    engine = stdp_pair(backend, table, weight, a_spikes, b_spikes, weight_width=3)
    engine.run(4)
    assert engine.weights() == [rail]


def test_stdp_disabled_freezes_weights():
    table = (4, 4, 4, 4)
    net = Network(
        neurons=(NeuronSettings("A", threshold=1),
                 NeuronSettings("B", threshold=1)),
        synapses=(SynapseSettings("A", "B", 2, 0),),
        stdp_enabled=False,
        input_spike_amount=2,
    )
    engine = new_engine(net, hw(stdp_table=table),
                        spikes((0, "A"), (1, "A"), (2, "A")), backend="python")
    engine.run(8)
    assert engine.weights() == [2]


def test_same_inputs_same_trace():
    net = Network(
        neurons=(NeuronSettings("A", threshold=1, leak=1),
                 NeuronSettings("B", threshold=2, abs_refractory=1)),
        synapses=(SynapseSettings("A", "B", 3, 1), SynapseSettings("B", "A", 2, 0)),
        input_spike_amount=2,
    )
    stim = spikes((0, "A"), (3, "B"), (7, "A"))
    first = new_engine(net, hw(), stim, backend="python").run(30)
    second = new_engine(net, hw(), stim, backend="python").run(30)
    assert first == second


def twin_engines(backend: str):
    net, hw_, stim = build_setup(8, 2, 2, stdp=True, seed=3)
    return new_engine(net, hw_, stim, backend=backend), new_engine(net, hw_, stim, backend=backend)


@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_trace_is_a_sequence_of_reports(backend):
    engine, twin = twin_engines(backend)
    trace = engine.run(12)
    reports = [twin.step() for _ in range(12)]
    assert isinstance(trace, Trace) and len(trace) == 12
    assert any(r.fired for r in reports) and any(not r.fired for r in reports)
    assert trace == reports and reports == trace and trace == tuple(reports)
    assert trace != reports[:-1] and trace != reports[::-1]
    assert list(trace) == reports and list(reversed(trace)) == reports[::-1]
    assert trace[-1] == reports[11] and trace[-12] == reports[0]
    for index in (12, -13):
        with pytest.raises(IndexError):
            trace[index]
    for part in (slice(3, 7), slice(-4, None), slice(None, None, -3), slice(20, None)):
        assert isinstance(trace[part], Trace)
        assert trace[part] == reports[part]
    assert trace.names == engine.names
    for copy in (trace, Trace.of(list(trace)), trace[:]):
        for column in ("fired", "counts", "charges"):
            block = getattr(copy, column)
            assert type(block) is array and block.typecode == "q", column
            assert block == getattr(trace, column), column


@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_run_after_advance_numbers_cycles_from_engine_cycle(backend):
    engine, twin = twin_engines(backend)
    engine.advance(5)
    twin.run(5)
    trace = engine.run(4)
    assert [r.cycle for r in trace] == list(trace.cycles) == [5, 6, 7, 8]
    assert trace == twin.run(4)
    assert engine.cycle == 9 and engine.step().cycle == 9


@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_a_filled_trace_refuses_another_cycle(backend):
    # The compiled core writes the blocks in place and the others add cycle
    # by cycle; either way the trace of a run is full, and adding to it
    # changes no column.
    engine, _ = twin_engines(backend)
    trace = engine.run(12)
    columns = (trace.fired[:], trace.counts[:], trace.charges[:])
    assert trace.fired
    with pytest.raises(IndexError, match="every cycle of the trace is filled"):
        trace.add([0], [5] * len(trace.names))
    assert (trace.fired, trace.counts, trace.charges) == columns


def test_trace_add_refuses_a_malformed_cycle():
    # A charge row of the wrong length would resize the charge block and
    # shift every later cycle ([1, 0, 2, 3] here); it, and a fired index
    # outside the names, is refused before any column changes.
    t = Trace(("A", "B"), range(2))
    with pytest.raises(ValueError, match="1 charges for 2 neurons"):
        t.add([], [1])
    t.add([0], [2, 3])
    assert t.charges == array("q", [2, 3, 0, 0])
    for fired, charges in (([5], [1, 2]), ([-1], [1, 2]), ([1, 2], [1, 2]), ([], [1, 2, 3])):
        with pytest.raises(ValueError):
            t.add(fired, charges)
    assert (t.fired, t.counts, t.charges) == (array("q", [0]), array("q", [1, 0]),
                                              array("q", [2, 3, 0, 0]))
    t.add([1], [4, 5])
    assert [(r.fired, r.charges) for r in t] == [(("A",), {"A": 2, "B": 3}),
                                                (("B",), {"A": 4, "B": 5})]


def test_trace_add_and_of_refuse_a_neuron_fired_twice():
    t = Trace(("A", "B"), range(2))
    with pytest.raises(ValueError, match="^a fired index repeats$"):
        t.add([1, 0, 1], [1, 2])
    assert (t.fired, t.counts, t.charges) == (array("q"), array("q", [0, 0]), array("q", [0] * 4))
    t.add([1, 0], [1, 2])
    assert list(t.fired) == [1, 0]
    reports = [CycleReport(0, (), {"A": 0, "B": 0}), CycleReport(1, ("B", "B"), {"A": 0, "B": 3})]
    with pytest.raises(ValueError, match="^cycle 1: fired neuron 'B' more than once$") as refused:
        Trace.of(reports)
    assert isinstance(refused.value, Trace.RowError) and refused.value.row == 1
    for mode in ("table", "jsonl"):
        with pytest.raises(Trace.RowError):
            format_trace(reports, mode)


@pytest.mark.parametrize("backend", EVERY_BACKEND)
def test_trace_keeps_indexed_reports_and_no_iterated_ones(backend):
    engine, twin = twin_engines(backend)
    trace, untouched = engine.run(6), twin.run(6)
    first, second = list(trace), list(trace)
    assert first == second and all(a is not b for a, b in zip(first, second))
    assert all(a is not b for a, b in zip(reversed(trace), reversed(trace)))
    assert trace[2] is not first[2] and trace[2] is trace[-4]

    name = engine.names[0]
    trace[-1].charges[name] += 1
    assert list(trace)[-1].charges[name] == untouched[-1].charges[name] + 1
    assert trace[3:][-1] is trace[-1]
    assert trace != untouched and trace[:5] == untouched[:5]
    assert parse_trace_jsonl(format_trace(trace, "jsonl")) == trace
    assert [(d.cycle, d.neuron, d.field) for d in compare_traces(untouched, trace)] == [
        (5, name, "charge")]
