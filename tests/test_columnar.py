"""Networks and stimuli stored by column: the record views, the text path
against the object path, and what the ingest path may and may not build."""

from __future__ import annotations

import pickle
import random
from dataclasses import replace

import pytest

import ravensim.engine
from fuzz import FUZZ_CYCLES, build_setup, random_setup
from ravensim import Network, NeuronSettings, SynapseSettings, new_engine
from ravensim.engine import INJECTION, INPUT_SPIKE, Stimulus, StimulusEvent
from ravensim.engine.compiled import available as kernel_available
from ravensim.engine.events import Events
from ravensim.ioformats import (
    load_hardware,
    load_network,
    load_stimulus,
    parse_network,
    save_hardware,
    save_network,
    save_stimulus,
)
from ravensim.netmodel import Neurons, Synapses

BACKENDS = ["python", *(["compiled"] if kernel_available() else [])]


def random_setups(count: int = 40):
    rng = random.Random(20231)
    return [random_setup(rng) for _ in range(count)]


def test_columns_are_sequences_of_records():
    records = (NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=2, leak=1,
                                                               injection=True))
    neurons = Neurons.of(records)
    assert neurons.name == ("A", "B") and neurons.injection == (False, True)
    assert len(neurons) == 2
    assert neurons[1] == records[1] and neurons[-1] == records[1]
    assert list(neurons) == list(records)
    assert neurons[1:] == records[1:] and isinstance(neurons[1:], Neurons)
    assert neurons == records and records == neurons and neurons == list(records)
    assert neurons != records[:1] and neurons != records[::-1]
    assert hash(neurons) == hash(records)
    assert Neurons.of(neurons) is neurons
    assert pickle.loads(pickle.dumps(neurons)) == neurons
    with pytest.raises(IndexError):
        neurons[2]
    with pytest.raises(AttributeError):
        neurons.leak = (0, 0)
    with pytest.raises(ValueError, match="differ in length"):
        Synapses(("A",), ("B",), (1,), ())
    with pytest.raises(TypeError, match="takes 4 columns"):
        Synapses(("A",), ("B",), (1,))


def test_network_keeps_any_record_sequence_by_column():
    neurons = [NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=1)]
    synapses = [SynapseSettings("A", "B", 2, 1)]
    net = Network(neurons, synapses, stdp_enabled=True)
    assert isinstance(net.neurons, Neurons) and isinstance(net.synapses, Synapses)
    assert net.neurons == tuple(neurons) and net.synapses == tuple(synapses)
    assert net == Network(tuple(neurons), tuple(synapses), stdp_enabled=True)
    assert net.neuron_names() == ["A", "B"] and net.neuron_index() == {"A": 0, "B": 1}
    assert hash(net) == hash(Network(tuple(neurons), tuple(synapses), stdp_enabled=True))
    assert "NeuronSettings(name='A'" in repr(net)


def test_events_check_their_records_and_sort_stably():
    with pytest.raises(ValueError, match="cycle must be >= 0"):
        Events((0, -1), ("A", "A"), (INPUT_SPIKE, INPUT_SPIKE), (0, 0))
    with pytest.raises(ValueError, match="unknown stimulus kind: poke"):
        Events((0,), ("A",), ("poke",), (0,))
    with pytest.raises(ValueError, match="^an input spike carries no value$"):
        Events((0, 1, 2), ("A", "B", "A"), (INJECTION, INPUT_SPIKE, INPUT_SPIKE), (5, 0, -2))
    events = Events((2, 0, 2, 1), ("a", "b", "c", "d"), (INPUT_SPIKE,) * 4, (0,) * 4)
    ordered = events.by_cycle()
    assert ordered.neuron == ("b", "d", "a", "c") and ordered.cycle == (0, 1, 2, 2)
    assert ordered.by_cycle() is ordered
    stim = Stimulus([StimulusEvent(1, "A", INJECTION, -3)])
    assert stim.events == (StimulusEvent(1, "A", INJECTION, -3),)
    assert stim == Stimulus(Events((1,), ("A",), (INJECTION,), (-3,)))


def test_text_path_equals_object_path():
    setups = random_setups() + [build_setup(1024, 16, 4, True, seed=5)]
    for net, hw, stim in setups:
        hw_text, net_text = save_hardware(hw), save_network(net)
        parsed = parse_network(net_text)
        assert parsed == net and net == parsed
        assert parsed.neurons == tuple(net.neurons) and tuple(net.synapses) == parsed.synapses
        assert save_network(parsed) == net_text
        loaded = load_stimulus(save_stimulus(stim), parsed, load_hardware(hw_text))
        assert loaded == stim and stim == loaded

        # dataclasses.replace on a parsed network and on its record views.
        first = parsed.neurons[0]
        edited = replace(parsed, neurons=(replace(first, threshold=first.threshold + 1),
                                          *parsed.neurons[1:]))
        assert edited.neurons[0].threshold == first.threshold + 1
        assert edited.synapses is parsed.synapses and edited.neurons[1:] == parsed.neurons[1:]
        assert replace(parsed, stdp_enabled=not net.stdp_enabled) == replace(
            net, stdp_enabled=not net.stdp_enabled)


@pytest.mark.parametrize("backend", BACKENDS)
def test_text_and_object_paths_run_the_same_trace(backend):
    setups = random_setups(20) + [build_setup(1024, 16, 4, True, seed=5)]
    for net, hw, stim in setups:
        hw2 = load_hardware(save_hardware(hw))
        net2 = load_network(save_network(net), hw2)
        stim2 = load_stimulus(save_stimulus(stim), net2, hw2)
        cycles = FUZZ_CYCLES if len(net.neurons) < 100 else 10
        a = new_engine(net, hw, stim, backend=backend)
        b = new_engine(net2, hw2, stim2, backend=backend)
        assert a.run(cycles) == b.run(cycles)
        assert a.weights() == b.weights() and a.charges() == b.charges()


def test_ingest_builds_no_records(monkeypatch):
    net, hw, stim = build_setup(1024, 16, 4, True, seed=7)
    texts = save_hardware(hw), save_network(net), save_stimulus(stim)
    built = []
    for cls in (NeuronSettings, SynapseSettings, StimulusEvent):
        def counting(self, *args, __init__=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            __init__(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)

    hw = load_hardware(texts[0])
    net = parse_network(texts[1])
    stim = load_stimulus(texts[2], net, hw)
    assert built == []
    # Validation and the two production engines read the columns too.
    net = load_network(texts[1], hw)
    for backend in BACKENDS:
        new_engine(net, hw, load_stimulus(texts[2], net, hw), backend=backend)
        new_engine(net, hw, Stimulus(stim.events), backend=backend)
    assert built == []
    net.neurons[0]
    assert built == ["NeuronSettings"]


@pytest.mark.parametrize("backend", [*BACKENDS, "reference"])
def test_engines_leave_their_network_unchanged(backend):
    source, hw, stim = build_setup(48, 4, 3, True, seed=11)
    text = save_network(source)
    net = parse_network(text)
    weights = net.synapses.weight
    first = new_engine(net, hw, stim, backend=backend)
    trace = first.run(30)
    assert first.weights() != list(weights)  # STDP moved some weights
    assert net.synapses.weight == weights
    assert [s.weight for s in net.synapses] == list(weights)
    assert save_network(net) == text
    second = new_engine(net, hw, stim, backend=backend)
    assert second.run(30) == trace
    assert second.weights() == first.weights()


@pytest.fixture
def stimulus_checks(monkeypatch):
    """The calls new_engine makes to check_stimulus."""
    calls = []
    check = ravensim.engine.check_stimulus

    def counting(stim, net, hw):
        calls.append(stim)
        return check(stim, net, hw)

    monkeypatch.setattr(ravensim.engine, "check_stimulus", counting)
    return calls


def test_a_loaded_stimulus_is_checked_once(stimulus_checks):
    net, hw, stim = build_setup(16, 3, 2, False, seed=3)
    hw = load_hardware(save_hardware(hw))
    net = load_network(save_network(net), hw)
    loaded = load_stimulus(save_stimulus(stim), net, hw)
    new_engine(net, hw, loaded)
    assert stimulus_checks == []
    new_engine(net, hw, Stimulus(tuple(loaded.events)))  # built by hand
    assert len(stimulus_checks) == 1
    # Only the very objects it was loaded against count as checked.
    new_engine(parse_network(save_network(net)), hw, loaded)
    new_engine(net, load_hardware(save_hardware(hw)), loaded)
    assert len(stimulus_checks) == 3


def test_a_loaded_stimulus_is_checked_against_another_network(stimulus_checks):
    hw = load_hardware(save_hardware(build_setup(4, 2, 2, False, seed=1)[1]))
    net_a = parse_network(save_network(Network(
        (NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=1)), ())))
    net_b = parse_network(save_network(Network((NeuronSettings("A", threshold=1),), ())))
    stim = load_stimulus("AS 0 A\nAS 1 B\n", net_a, hw)
    with pytest.raises(ValueError, match='^stimulus event #1: unknown neuron "B"$'):
        new_engine(net_b, hw, stim)
    assert len(stimulus_checks) == 1


def test_stimulus_event_checks_its_record():
    with pytest.raises(ValueError, match=r"^stimulus cycle must be >= 0$"):
        StimulusEvent(-1, "A")
    with pytest.raises(ValueError, match=r"^unknown stimulus kind: poke$"):
        StimulusEvent(0, "A", "poke")
    # A stimulus file writes a spike as "AS cycle neuron": a value on it could not be saved.
    with pytest.raises(ValueError, match=r"^an input spike carries no value$"):
        StimulusEvent(0, "A", value=5)
