"""Seeded input generator for the three benchmark workloads.

Every workload is a pure function of its seed: the same seed gives the
same networks, hardware and stimulus, and a different seed rewires them.
Sizes (neuron and synapse counts, stimulus volume, cycle counts, the share
of plastic networks) are fixed by the workload, so only wiring, weights
and stimulus placement move with the seed; that keeps host time comparable
across seeds.

The CLI inputs are written here, as text, in the same hardware JSON,
network JSON and stimulus formats a user passes to ``ravensim run``. The
generator depends only on ravensim's public record types, never on
``ravensim.bench``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from ravensim.engine import Stimulus, StimulusEvent
from ravensim.netmodel import HardwareConstants, Network, NeuronSettings, SynapseSettings

# Well above the single-cycle overflow minimum of every generated network
# (about 10 bits at a fan-in of 35), so a stricter validator still accepts
# every input.
ACCUMULATOR_WIDTH = 16

CLI_NEURONS = 1024
CLI_FANOUT = 16
CLI_CYCLES = 200
CLI_SPIKES_PER_CYCLE = 24

DENSE_NEURONS = 1024
DENSE_FANOUT = 16
DENSE_CYCLES = 20

SWEEP_NETWORKS = 200
SWEEP_MIN_NEURONS = 8
SWEEP_MAX_NEURONS = 64
SWEEP_FANOUT = 4
SWEEP_CYCLES = 100


@dataclass(frozen=True)
class Case:
    """One simulation input: objects plus the text a user would pass."""

    name: str
    hw: HardwareConstants
    net: Network
    stim: Stimulus
    cycles: int

    def hardware_text(self) -> str:
        return hardware_json(self.hw)

    def network_text(self) -> str:
        return network_json(self.net)

    def stimulus_text(self) -> str:
        return stimulus_text(self.stim)


def _rng(workload: str, seed: int, index: int = 0) -> random.Random:
    # A string seed is hashed with SHA-512, so streams are stable across
    # runs and Python versions and independent between workloads.
    return random.Random(f"{workload}:{seed}:{index}")


def _hardware(net: Network, weight_width: int, threshold_width: int, max_delay: int,
              stdp_table: tuple[int, ...]) -> HardwareConstants:
    fan_in = dict.fromkeys(net.neuron_names(), 0)
    for s in net.synapses:
        fan_in[s.post] += 1
    return HardwareConstants(
        accumulator_width=ACCUMULATOR_WIDTH,
        threshold_width=threshold_width,
        weight_width=weight_width,
        max_delay=max_delay,
        max_leak=7,
        max_abs_refractory=7,
        max_rel_refractory=7,
        ports=max(max(fan_in.values()), 1),
        injection_ports=0,
        stdp_table=stdp_table,
    )


def cli_sparse_case(seed: int) -> Case:
    """1024 neurons, 16 synapses each, STDP off, sparse random input spikes.

    Weights are symmetric around zero and leak drains charge, so recurrent
    input rarely crosses a threshold: activity stays near 2.5% of neurons
    per cycle and is carried by the 24 input spikes of each cycle.
    """
    rng = _rng("cli_sparse_1k", seed)
    n = CLI_NEURONS
    max_delay = 7
    neurons = []
    for i in range(n):
        roll = rng.random()
        kw = {}
        if roll < 0.15:
            kw = {"abs_refractory": rng.randint(1, 3)}
        elif roll < 0.3:
            kw = {"rel_refractory": rng.randint(1, 3), "refractory_resting": -3}
        neurons.append(NeuronSettings(name=f"n{i}", threshold=rng.randint(4, 7),
                                      leak=rng.randint(1, 3), **kw))
    synapses = []
    for i in range(n):
        for _ in range(CLI_FANOUT):
            synapses.append(SynapseSettings(f"n{i}", f"n{rng.randrange(n)}",
                                            rng.choice((-3, -2, -1, 1, 2, 3)),
                                            rng.randint(0, max_delay)))
    net = Network(tuple(neurons), tuple(synapses), stdp_enabled=False, input_spike_amount=8)
    events = [StimulusEvent(c, f"n{rng.randrange(n)}")
              for c in range(CLI_CYCLES) for _ in range(CLI_SPIKES_PER_CYCLE)]
    stim = Stimulus(tuple(events))
    hw = _hardware(net, weight_width=4, threshold_width=4, max_delay=max_delay, stdp_table=())
    return Case("cli_sparse_1k", hw, net, stim, CLI_CYCLES)


def dense_stdp_case(seed: int) -> Case:
    """1024 neurons, fan-out 16, STDP on, self-sustaining activity.

    Every neuron has a zero-delay self-synapse that re-excites it after it
    fires, and all neurons are kicked at cycle 0, so most of the network
    fires every cycle and STDP rewrites weights every cycle.
    """
    rng = _rng("engine_dense_stdp_1k", seed)
    n = DENSE_NEURONS
    max_delay = 4
    neurons = []
    for i in range(n):
        roll = rng.random()
        kw = {}
        if roll < 0.1:
            kw = {"abs_refractory": rng.randint(1, 2)}
        elif roll < 0.2:
            kw = {"rel_refractory": rng.randint(1, 2), "refractory_resting": -2}
        neurons.append(NeuronSettings(name=f"n{i}", threshold=1, leak=1, **kw))
    synapses = [SynapseSettings(f"n{i}", f"n{i}", 2, 0) for i in range(n)]
    for i in range(n):
        for _ in range(DENSE_FANOUT - 1):
            synapses.append(SynapseSettings(f"n{i}", f"n{rng.randrange(n)}",
                                            rng.choice((-2, -1, 1, 2, 3)),
                                            rng.randint(0, max_delay)))
    net = Network(tuple(neurons), tuple(synapses), stdp_enabled=True)
    stim = Stimulus(tuple(StimulusEvent(0, f"n{i}") for i in range(n)))
    hw = _hardware(net, weight_width=4, threshold_width=4, max_delay=max_delay,
                   stdp_table=(1, 1, -1))
    return Case("engine_dense_stdp_1k", hw, net, stim, DENSE_CYCLES)


def _sweep_case(seed: int, index: int, n: int, stdp: bool) -> Case:
    rng = _rng("sweep_small", seed, index)
    max_delay = rng.randint(2, 7)
    neurons = [NeuronSettings(name=f"g{index}_{i}", threshold=rng.randint(2, 5),
                              leak=rng.randint(0, 2),
                              abs_refractory=rng.choice((0, 0, 0, 1, 2)))
               for i in range(n)]
    synapses = [SynapseSettings(neurons[i].name, neurons[rng.randrange(n)].name,
                                rng.randint(-2, 4), rng.randint(0, max_delay))
                for i in range(n) for _ in range(SWEEP_FANOUT)]
    net = Network(tuple(neurons), tuple(synapses), stdp_enabled=stdp, input_spike_amount=8)
    events = [StimulusEvent(c, neurons[rng.randrange(n)].name)
              for c in range(0, SWEEP_CYCLES, 2) for _ in range(max(n // 6, 1))]
    table = (2, 1, 1, -1, -2) if rng.random() < 0.5 else (1, 1, -1)
    hw = _hardware(net, weight_width=4, threshold_width=4, max_delay=max_delay,
                   stdp_table=table)
    return Case(f"sweep_small[{index}]", hw, net, Stimulus(tuple(events)), SWEEP_CYCLES)


def sweep_cases(seed: int, count: int = SWEEP_NETWORKS) -> list[Case]:
    """count distinct networks of 8-64 neurons, every other one plastic.

    Sizes are spread evenly over the range and shuffled by the seed, so
    the total work of a sweep barely depends on the seed.
    """
    span = SWEEP_MAX_NEURONS - SWEEP_MIN_NEURONS + 1
    sizes = [SWEEP_MIN_NEURONS + (i * span) // count for i in range(count)]
    _rng("sweep_small", seed, -1).shuffle(sizes)
    return [_sweep_case(seed, i, n, stdp=i % 2 == 1) for i, n in enumerate(sizes)]


# --- Text renderings in the formats ravensim reads --------------------------

def hardware_json(hw: HardwareConstants) -> str:
    obj = {
        "format": 1,
        "accumulator_width": hw.accumulator_width,
        "threshold_width": hw.threshold_width,
        "weight_width": hw.weight_width,
        "max_delay": hw.max_delay,
        "max_leak": hw.max_leak,
        "max_abs_refractory": hw.max_abs_refractory,
        "max_rel_refractory": hw.max_rel_refractory,
        "ports": hw.ports,
        "injection_ports": hw.injection_ports,
        "stdp_table": list(hw.stdp_table),
    }
    return json.dumps(obj, indent=2) + "\n"


def network_json(net: Network) -> str:
    obj = {
        "format": 1,
        "neurons": [
            {
                "name": m.name,
                "threshold": m.threshold,
                "standard_resting": m.standard_resting,
                "refractory_resting": m.refractory_resting,
                "abs_refractory": m.abs_refractory,
                "rel_refractory": m.rel_refractory,
                "leak": m.leak,
                "injection": m.injection,
            }
            for m in net.neurons
        ],
        "synapses": [
            {"from": s.pre, "to": s.post, "weight": s.weight, "delay": s.delay}
            for s in net.synapses
        ],
        "settings": {"stdp": net.stdp_enabled, "input_spike_amount": net.input_spike_amount},
    }
    return json.dumps(obj, indent=2) + "\n"


def stimulus_text(stim: Stimulus) -> str:
    lines = [f"AS {ev.cycle} {ev.neuron}" for ev in stim.events]
    return "\n".join(lines) + "\n"
