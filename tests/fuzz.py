"""Seeded random network/stimulus generators shared by the differential tests.

Every draw stays inside the hardware limits by construction, so generated
setups always validate. random_setup draws tiny networks of every shape;
build_setup draws self-sustaining networks at the sizes the benchmark uses,
and mixed_setup networks at those sizes with every feature mixed in.
malformed_documents writes random setups out as text and then breaks them,
to drive the readers' error paths.
"""

from __future__ import annotations

import copy
import json
import random

from ravensim import (
    HardwareConstants,
    Network,
    NeuronSettings,
    SynapseSettings,
    min_accumulator_width,
)
from ravensim.engine import INJECTION, INPUT_SPIKE, Stimulus, StimulusEvent
from ravensim.ioformats import save_hardware, save_network, save_stimulus

FUZZ_CYCLES = 64

_BASE_HW = dict(
    accumulator_width=16,
    threshold_width=8,
    weight_width=4,
    max_delay=8,
    max_leak=4,
    max_abs_refractory=4,
    max_rel_refractory=4,
    ports=24,
    injection_ports=4,
)


def random_setup(rng: random.Random) -> tuple[Network, HardwareConstants, Stimulus]:
    table_size = rng.randint(0, 8)
    table = tuple(rng.randint(-4, 4) for _ in range(table_size))
    hw = HardwareConstants(stdp_table=table, **_BASE_HW)

    n_neurons = rng.randint(1, 8)
    neurons = []
    for i in range(n_neurons):
        neurons.append(NeuronSettings(
            name=f"n{i}",
            threshold=rng.randint(0, 12),
            standard_resting=rng.randint(-8, 0),
            refractory_resting=rng.randint(-8, 0),
            abs_refractory=rng.randint(0, 4),
            rel_refractory=rng.randint(0, 4),
            leak=rng.randint(0, 4),
            injection=rng.random() < 0.25,
        ))

    n_synapses = rng.randint(0, 16)
    synapses = []
    for _ in range(n_synapses):
        synapses.append(SynapseSettings(
            pre=f"n{rng.randrange(n_neurons)}",
            post=f"n{rng.randrange(n_neurons)}",
            weight=rng.randint(-8, 7),
            delay=rng.randint(0, 8),
        ))

    net = Network(
        neurons=tuple(neurons),
        synapses=tuple(synapses),
        stdp_enabled=table_size > 0 and rng.random() < 0.5,
        input_spike_amount=rng.randint(1, 16),
    )

    injectable = [m.name for m in neurons if m.injection]
    events = []
    for _ in range(rng.randint(0, 24)):
        cycle = rng.randrange(FUZZ_CYCLES)
        if injectable and rng.random() < 0.3:
            events.append(StimulusEvent(cycle, rng.choice(injectable),
                                        INJECTION, rng.randint(-8, 7)))
        else:
            events.append(StimulusEvent(cycle, f"n{rng.randrange(n_neurons)}",
                                        INPUT_SPIKE))
    events.sort(key=lambda ev: ev.cycle)
    return net, hw, Stimulus(tuple(events))


def build_setup(n_neurons: int, fan_out: int, max_delay: int, stdp: bool,
                seed: int) -> tuple[Network, HardwareConstants, Stimulus]:
    """A network that keeps firing once kicked.

    Each neuron has fan_out outgoing synapses: a zero-delay self-synapse
    strong enough to re-fire it every cycle, and fan_out - 1 random ones.
    Every neuron gets an input spike at cycle 0.
    """
    rng = random.Random(seed)
    neurons = []
    for i in range(n_neurons):
        kw = dict(name=f"n{i}", threshold=1, leak=1)
        roll = rng.random()
        if roll < 0.1:
            kw.update(abs_refractory=rng.randint(1, 2))
        elif roll < 0.2:
            kw.update(rel_refractory=rng.randint(1, 2), refractory_resting=-2)
        neurons.append(NeuronSettings(**kw))

    synapses = [SynapseSettings(f"n{i}", f"n{i}", 2, 0)
                for i in range(n_neurons) if fan_out > 0]
    for i in range(n_neurons):
        for _ in range(max(fan_out - 1, 0)):
            target = rng.randrange(n_neurons)
            weight = rng.choice((-2, -1, 1, 2, 3))
            delay = rng.randrange(max_delay + 1)
            synapses.append(SynapseSettings(f"n{i}", f"n{target}", weight, delay))

    fan_in: dict[str, int] = {m.name: 0 for m in neurons}
    for s in synapses:
        fan_in[s.post] += 1
    ports = max([1, *fan_in.values()])
    hw = HardwareConstants(
        accumulator_width=min_accumulator_width(4, ports, 0) + 8,
        threshold_width=4,
        weight_width=4,
        max_delay=max_delay,
        max_leak=4,
        max_abs_refractory=4,
        max_rel_refractory=4,
        ports=ports,
        injection_ports=0,
        stdp_table=(1, 1, -1) if stdp else (),
    )
    net = Network(tuple(neurons), tuple(synapses), stdp_enabled=stdp)
    stim = Stimulus(tuple(StimulusEvent(0, f"n{i}") for i in range(n_neurons)))
    return net, hw, stim


def mixed_setup(n_neurons: int, fan_out: int, stdp: bool, cycles: int,
                seed: int) -> tuple[Network, HardwareConstants, Stimulus]:
    """A network at the sizes the benchmark uses with every feature mixed in.

    Neurons draw leaks, both refractory kinds and resting values, and one in
    four takes injections. Each has fan_out outgoing synapses with weights
    of both signs and delays from 0 to 6. The hardware carries the 5-entry
    STDP table (1, 2, 3, -2, -1); stdp only switches it on. The stimulus
    spreads input spikes and injections over cycles.
    """
    rng = random.Random(seed)
    neurons = []
    for i in range(n_neurons):
        neurons.append(NeuronSettings(
            name=f"n{i}",
            threshold=rng.randint(0, 6),
            standard_resting=rng.randint(-4, 0),
            refractory_resting=rng.randint(-6, 0),
            abs_refractory=rng.choice((0, 0, 1, 2, 3)),
            rel_refractory=rng.choice((0, 0, 1, 2, 3)),
            leak=rng.randint(0, 3),
            injection=rng.random() < 0.25,
        ))
    synapses = []
    for i in range(n_neurons):
        for _ in range(fan_out):
            synapses.append(SynapseSettings(f"n{i}", f"n{rng.randrange(n_neurons)}",
                                            rng.randint(-4, 7), rng.randint(0, 6)))

    fan_in: dict[str, int] = {m.name: 0 for m in neurons}
    for s in synapses:
        fan_in[s.post] += 1
    ports = max(fan_in.values()) + 4
    hw = HardwareConstants(
        accumulator_width=min_accumulator_width(4, ports, 4) + 4,
        threshold_width=4,
        weight_width=4,
        max_delay=6,
        max_leak=3,
        max_abs_refractory=3,
        max_rel_refractory=3,
        ports=ports,
        injection_ports=4,
        stdp_table=(1, 2, 3, -2, -1),
    )
    net = Network(tuple(neurons), tuple(synapses), stdp_enabled=stdp, input_spike_amount=4)

    injectable = [m.name for m in neurons if m.injection]
    events = []
    for cycle in range(cycles):
        for _ in range(rng.randint(0, 4)):
            if injectable and rng.random() < 0.3:
                events.append(StimulusEvent(cycle, rng.choice(injectable),
                                            INJECTION, rng.randint(-8, 7)))
            else:
                events.append(StimulusEvent(cycle, f"n{rng.randrange(n_neurons)}"))
    return net, hw, Stimulus(tuple(events))


# JSON values of every type, including the empty name, a float and an int
# beyond 64 bits.
_ODD_VALUES = (None, True, False, 0, -3, 7, 2.5, 1 << 70, "", "n0", "x", [], [1, "x"], {}, {"k": 1})
# Stimulus tokens: keywords, names, integer spellings the reader accepts or
# refuses (int() alone would read "1_0" and "٣"), and a comment mark.
_ODD_TOKENS = ("AS", "AI", "XX", "n0", "Z", "0", "-1", "+3", "007", "1_0", "1.5", "x", "٣",
               "#")


def _odd_value(rng: random.Random):
    return copy.deepcopy(rng.choice(_ODD_VALUES))


def _containers(value) -> list:
    """value and every list and object nested in it."""
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, list):
        children = value
    else:
        return []
    return [value] + [found for child in children for found in _containers(child)]


def _mutate_json(rng: random.Random, doc):
    """doc with one key or element deleted, replaced or added."""
    target = rng.choice(_containers(doc) or [None])
    if target is None or rng.random() < 0.03:
        return _odd_value(rng)
    roll = rng.random()
    if isinstance(target, dict):
        keys = list(target)
        if keys and roll < 0.3:
            del target[rng.choice(keys)]
        elif keys and roll < 0.85:
            target[rng.choice(keys)] = _odd_value(rng)
        else:
            target[rng.choice(("lek", "name", "stdp", "wait", "threshold"))] = _odd_value(rng)
    elif target and roll < 0.3:
        del target[rng.randrange(len(target))]
    elif target and roll < 0.85:
        target[rng.randrange(len(target))] = _odd_value(rng)
    else:
        target.append(_odd_value(rng))
    return doc


def _mutate_line(rng: random.Random, line: str) -> str:
    """line with one or two tokens replaced, added or deleted, or a comment
    or odd whitespace appended."""
    parts = line.split() or [""]
    for _ in range(rng.choice((1, 1, 2))):
        roll = rng.random()
        if roll < 0.5:
            parts[rng.randrange(len(parts))] = rng.choice(_ODD_TOKENS)
        elif roll < 0.7:
            parts.insert(rng.randrange(len(parts) + 1), rng.choice(_ODD_TOKENS))
        elif roll < 0.8 and len(parts) > 1:
            del parts[rng.randrange(len(parts))]
        else:
            return line + rng.choice(("  # note", "\t", " \u3000", "#AS 0"))
    return rng.choice((" ", "  ", "\t", "\x0b")).join(parts)


def malformed_documents(rng: random.Random, count: int):
    """count (reader, text, net, hw) tuples: a hardware, network or stimulus
    document written from a random_setup, then broken in up to three places
    (none for about one in six). reader is "hardware", "network" or
    "stimulus"; net and hw are the setup's, to read a stimulus against."""
    for _ in range(count):
        net, hw, stim = random_setup(rng)
        reader = rng.choice(("hardware", "network", "stimulus"))
        mutations = rng.choice((0, 1, 1, 1, 2, 3))
        if reader == "stimulus":
            lines = save_stimulus(stim).splitlines() + ["# comment", ""]
            rng.shuffle(lines)
            for _ in range(mutations):
                i = rng.randrange(len(lines))
                lines[i] = _mutate_line(rng, lines[i])
            yield reader, "\n".join(lines), net, hw
            continue
        doc = json.loads(save_hardware(hw) if reader == "hardware" else save_network(net))
        for _ in range(mutations):
            doc = _mutate_json(rng, doc)
        text = json.dumps(doc)
        if rng.random() < 0.03:
            text = text[:rng.randrange(len(text) + 1)]
        yield reader, text, net, hw
