"""One type rule for every input, whichever way it is built.

An int field holds exactly an int, so a bool is no int; a flag holds exactly
a bool; a neuron name is a non-empty str. The record dataclasses state each
field's type once, and the column constructors, HardwareConstants and Network
check it, so an in-memory input is held to the rule the file readers apply.

Each rule is tested as a pair, in the style of test_int64_domain: a value it
accepts runs alike on python, compiled and reference and survives a save and
a load; each value it refuses raises one ValueError, with one message, for
every backend, before any engine is built. None of them reaches the compiled
marshalling, whose struct.error is no ValueError.
"""

from __future__ import annotations

import random
import re
import shutil

import pytest

from fuzz import build_setup, mixed_setup, random_setup
from ravensim import HardwareConstants, Network, NeuronSettings, SynapseSettings, new_engine
from ravensim.engine import BACKENDS, INJECTION, Stimulus, StimulusEvent
from ravensim.engine.events import Events
from ravensim.ioformats import (
    load_hardware,
    load_stimulus,
    parse_network,
    save_hardware,
    save_network,
    save_stimulus,
)
from ravensim.netmodel import Neurons, Synapses

RUNNING = ["python", "reference"] + (["compiled"] if shutil.which("cc") else [])
CYCLES = 12


def setup(owner: str = "", field: str = "", value=None):
    """Two neurons that drive each other, one taking injections, on hardware
    with room to spare, and a stimulus that injects and spikes; owner's field
    (in its first record, for a column) is set to value. A new name for the
    first neuron is its name in the synapses and the events too."""
    a = value if (owner, field) == ("Neurons", "name") else "A"
    records = {
        "HardwareConstants": dict(accumulator_width=16, threshold_width=8, weight_width=4,
                                  max_delay=4, max_leak=4, max_abs_refractory=4,
                                  max_rel_refractory=4, ports=4, injection_ports=2,
                                  stdp_table=(1, -1)),
        "Network": dict(stdp_enabled=True, input_spike_amount=5),
        "Neurons": [dict(name=a, threshold=1, injection=True),
                    dict(name="B", threshold=2, leak=1)],
        "Synapses": [dict(pre=a, post="B", weight=3, delay=1),
                     dict(pre="B", post=a, weight=-2)],
        "Events": [dict(cycle=0, neuron=a, kind=INJECTION, value=1),
                   dict(cycle=1, neuron=a)],
    }
    if owner:
        target = records[owner]
        (target[0] if isinstance(target, list) else target)[field] = value
    hw = HardwareConstants(**records["HardwareConstants"])
    net = Network([NeuronSettings(**r) for r in records["Neurons"]],
                  [SynapseSettings(**r) for r in records["Synapses"]], **records["Network"])
    return net, hw, Stimulus([StimulusEvent(**r) for r in records["Events"]])


def assert_round_trip(net: Network, hw: HardwareConstants, stim: Stimulus) -> None:
    """load(save(x)) == x for each part, and the saved text is a fixed point."""
    hw_text, net_text, stim_text = save_hardware(hw), save_network(net), save_stimulus(stim)
    assert load_hardware(hw_text) == hw and save_hardware(load_hardware(hw_text)) == hw_text
    assert parse_network(net_text) == net and save_network(parse_network(net_text)) == net_text
    loaded = load_stimulus(stim_text, net, hw)
    assert loaded.events == stim.events.by_cycle()
    assert save_stimulus(loaded) == save_stimulus(Stimulus(stim.events.by_cycle()))


# (owner, field, a value the rule accepts that runs, differing from setup()'s).
INTEGER_FIELDS = [
    ("Neurons", "threshold", 2),
    ("Neurons", "standard_resting", 2),
    ("Neurons", "refractory_resting", -2),
    ("Neurons", "abs_refractory", 2),
    ("Neurons", "rel_refractory", 2),
    ("Neurons", "leak", 2),
    ("Synapses", "weight", 2),
    ("Synapses", "delay", 2),
    ("Events", "cycle", 2),
    ("Events", "value", -2),
    ("HardwareConstants", "accumulator_width", 12),
    ("HardwareConstants", "threshold_width", 6),
    ("HardwareConstants", "weight_width", 3),
    ("HardwareConstants", "max_delay", 2),
    ("HardwareConstants", "max_leak", 2),
    ("HardwareConstants", "max_abs_refractory", 2),
    ("HardwareConstants", "max_rel_refractory", 2),
    ("HardwareConstants", "ports", 5),
    ("HardwareConstants", "injection_ports", 3),
    ("Network", "input_spike_amount", 2),
]
FLAG_FIELDS = [("Neurons", "injection", True), ("Network", "stdp_enabled", False)]
ACCEPTED = INTEGER_FIELDS + FLAG_FIELDS + [("Neurons", "name", "C")]


def message(owner: str, field: str, value, kind: str) -> str:
    """The refusal: a column names its first record, HardwareConstants the field alone."""
    label = {"HardwareConstants": field, "Network": f"Network.{field}"}.get(
        owner, f"{owner}.{field}[0]")
    return f"{label} must be {kind}, got {value!r}"


REFUSED = ([(owner, field, value, message(owner, field, value, "an integer"))
            for owner, field, _ in INTEGER_FIELDS for value in (1.5, 2.0, True, "3", None)]
           + [(owner, field, value, message(owner, field, value, "a boolean"))
              for owner, field, _ in FLAG_FIELDS for value in (1, 0, None)]
           + [("Neurons", "name", "", "Neurons.name[0] must not be empty"),
              ("Neurons", "name", 5, message("Neurons", "name", 5, "a string"))])


@pytest.mark.parametrize("owner, field, value", ACCEPTED,
                         ids=[f"{owner}.{field}={value!r}" for owner, field, value in ACCEPTED])
def test_an_accepted_value_runs_alike_everywhere_and_round_trips(owner, field, value):
    net, hw, stim = setup(owner, field, value)
    engines = [new_engine(net, hw, stim, backend=backend) for backend in RUNNING]
    traces = [engine.run(CYCLES) for engine in engines]
    assert sum(traces[0].counts) > 0
    for engine, trace in zip(engines[1:], traces[1:]):
        assert trace == traces[0], engine.backend
        assert engine.weights() == engines[0].weights(), engine.backend
    assert_round_trip(net, hw, stim)


@pytest.mark.parametrize("owner, field, value, error", REFUSED,
                         ids=[f"{owner}.{field}={value!r}" for owner, field, value, _ in REFUSED])
def test_a_refused_value_raises_one_message_before_any_engine(owner, field, value, error):
    for backend in BACKENDS:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            new_engine(*setup(owner, field, value), backend=backend)


def test_the_column_constructors_and_the_records_give_one_message():
    with pytest.raises(ValueError, match=r"^Events\.cycle\[0\] must be an integer, got 1\.0$"):
        StimulusEvent(1.0, "A")
    with pytest.raises(ValueError, match=r"^Events\.cycle\[1\] must be an integer, got 1\.0$"):
        Events((0, 1.0), ("A", "A"), ("spike", "spike"), (0, 0))
    with pytest.raises(ValueError, match=r"^Events\.value\[0\] must be an integer, got True$"):
        StimulusEvent(0, "A", INJECTION, True)
    with pytest.raises(ValueError, match=r"^Neurons\.threshold\[1\] must be an integer, "
                                         r"got 1\.5$"):
        Network([NeuronSettings("A", 1), NeuronSettings("B", 1.5)], [])
    with pytest.raises(ValueError, match=r"^Synapses\.weight\[0\] must be an integer, got 2\.0$"):
        Synapses(("A",), ("B",), (2.0,), (1,))
    with pytest.raises(ValueError, match=r"^Neurons\.name\[2\] must not be empty$"):
        Neurons(("A", "B", ""), (1,) * 3, (0,) * 3, (0,) * 3, (0,) * 3, (0,) * 3, (0,) * 3,
                (False,) * 3)
    # A record alone is not checked; it is checked when gathered into its columns.
    assert NeuronSettings("A", 1.5).threshold == 1.5
    # A synapse end "" keeps the name rule of validation: no neuron has that name.
    assert Synapses(("",), ("A",), (1,), (0,)).pre == ("",)


@pytest.mark.parametrize("backend", RUNNING)
@pytest.mark.parametrize("count", [2.0, True, "3", None], ids=repr)
def test_a_cycle_count_must_be_an_integer(backend, count):
    engine = new_engine(*setup(), backend=backend)
    engine.advance(2)
    state = (engine.cycle, engine.charges(), engine.weights(), engine.phases())
    error = f"cycle count must be an integer, got {count!r}"
    for method in (engine.run, engine.advance):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            method(count)
    assert (engine.cycle, engine.charges(), engine.weights(), engine.phases()) == state


def test_every_accepted_input_round_trips(golden_cases):
    rng = random.Random(0x5EED)
    setups = [random_setup(rng) for _ in range(60)]
    setups += [build_setup(64, 4, 3, stdp, seed=seed) for stdp in (False, True) for seed in (1, 2)]
    setups += [mixed_setup(128, 8, stdp, 40, seed=seed) for stdp in (False, True)
               for seed in (1, 2)]
    setups += [(case.network, case.hardware, case.stimulus) for case in golden_cases]
    for net, hw, stim in setups:
        assert_round_trip(net, hw, stim)
