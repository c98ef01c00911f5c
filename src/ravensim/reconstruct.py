"""Constraint searches behind the reconstructed golden fixtures.

The worked examples publish traces but not machine-readable networks, so
the bundled fixtures were reconstructed. This module re-runs the searches
that justify them:

  - a joint exhaustive search over every synapse's (delay, weight) pair for
    the two plain integrate-and-fire fixtures, using a linear consistency
    check derived from the trace alone (no simulator involved), and
  - per-parameter sweeps for the remaining fixtures, simulating each
    candidate value and keeping those that reproduce the expected trace
    exactly.

Search ranges are documented here as code. Sweep modes state what the
fixture claims: "unique" parameters admit exactly one consistent value,
"minimal" parameters use the smallest consistent value, and "member"
parameters are stated by the example narrative and are checked only for
consistency (the trace alone admits more than one value).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .engine import new_engine
from .engine.events import INPUT_SPIKE
from .goldens import GoldenCase, compare_traces
from .netmodel import Network, ValidationError

THRESHOLDS = range(1, 5)
WEIGHTS = range(-2, 3)
DELAYS = range(0, 3)
LONG_DELAYS = range(0, 9)
REFRACTORIES = range(0, 8)
LEAKS = range(0, 8)
RESTINGS = range(-8, 1)


@dataclass(frozen=True)
class SweepSpec:
    kind: str        # "neuron" | "synapse" | "shared_threshold"
    target: object   # neuron name, (pre, post) pair, or excluded-name tuple
    field: str       # settings field, or "threshold" for shared sweeps
    candidates: tuple[int, ...]
    mode: str        # "unique" | "minimal" | "member"


@dataclass(frozen=True)
class SweepResult:
    case: str
    label: str
    mode: str
    survivors: tuple[int, ...]
    fixture_value: int
    ok: bool


@dataclass(frozen=True)
class JointResult:
    case: str
    solutions: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (delays, weights)
    fixture: tuple[tuple[int, ...], tuple[int, ...]]
    ok: bool


def _with_neuron(net: Network, name: str, field: str, value: int) -> Network:
    neurons = tuple(replace(m, **{field: value}) if m.name == name else m
                    for m in net.neurons)
    return replace(net, neurons=neurons)


def _with_synapse(net: Network, pre: str, post: str, field: str, value: int) -> Network:
    synapses = tuple(replace(s, **{field: value}) if (s.pre, s.post) == (pre, post) else s
                     for s in net.synapses)
    return replace(net, synapses=synapses)


def _with_thresholds(net: Network, value: int, exclude: tuple[str, ...]) -> Network:
    neurons = tuple(m if m.name in exclude else replace(m, threshold=value)
                    for m in net.neurons)
    return replace(net, neurons=neurons)


def _consistent(case: GoldenCase, net: Network) -> bool:
    try:
        engine = new_engine(net, case.hardware, case.stimulus, backend="python")
    except (ValidationError, ValueError):
        return False
    return not compare_traces(case.expected, engine.run(case.cycles))


def run_sweep(case: GoldenCase, spec: SweepSpec) -> SweepResult:
    """Try every candidate value for one parameter against the trace."""
    net = case.network
    if spec.kind == "neuron":
        fixture_value = getattr(next(m for m in net.neurons if m.name == spec.target),
                                spec.field)
        build = lambda v: _with_neuron(net, spec.target, spec.field, v)
        label = f"{spec.target}.{spec.field}"
    elif spec.kind == "synapse":
        pre, post = spec.target
        fixture_value = getattr(next(s for s in net.synapses
                                     if (s.pre, s.post) == (pre, post)), spec.field)
        build = lambda v: _with_synapse(net, pre, post, spec.field, v)
        label = f"{pre}->{post}.{spec.field}"
    elif spec.kind == "shared_threshold":
        exclude = tuple(spec.target)
        sample = next(m for m in net.neurons if m.name not in exclude)
        fixture_value = sample.threshold
        build = lambda v: _with_thresholds(net, v, exclude)
        label = "shared threshold" + (f" (except {', '.join(exclude)})" if exclude else "")
    else:
        raise ValueError(f"unknown sweep kind: {spec.kind}")

    survivors = tuple(v for v in spec.candidates if _consistent(case, build(v)))
    if spec.mode == "unique":
        ok = survivors == (fixture_value,)
    elif spec.mode == "minimal":
        ok = bool(survivors) and fixture_value == min(survivors)
    elif spec.mode == "member":
        ok = fixture_value in survivors
    else:
        raise ValueError(f"unknown sweep mode: {spec.mode}")
    return SweepResult(case.name, label, spec.mode, survivors, fixture_value, ok)


def joint_edge_search(case: GoldenCase) -> JointResult:
    """Exhaustive (delay, weight) search over DELAYS and WEIGHTS for every
    synapse at once.

    Valid only for plain accumulate-and-fire traces (no leak, refractory
    periods, plasticity, or resting offsets, and no negative charge cells):
    under those conditions an end-of-cycle charge is the previous charge
    (or zero after a fire) plus stimulus plus the weights of the synapses
    delivering that cycle, so trace consistency is a linear constraint on
    the weights once delays are fixed, and no simulation is needed.
    """
    net = case.network
    for m in net.neurons:
        if (m.leak, m.abs_refractory, m.rel_refractory) != (0, 0, 0) or m.standard_resting != 0:
            raise ValueError("joint search requires plain accumulate-and-fire neurons")
    if net.stdp_enabled:
        raise ValueError("joint search requires plasticity off")
    trace = case.expected
    if any(v < 0 for v in trace.charges):
        raise ValueError("joint search requires non-negative charge cells")

    # Neurons by their index in trace.names, cycles by their row in the trace.
    index = {name: i for i, name in enumerate(trace.names)}
    horizon = len(trace)
    fires = [set(fired) for _, fired, _ in trace.rows()]
    charge = [charges for _, _, charges in trace.rows()]
    stim_add: dict[tuple[int, int], int] = {}
    for ev in case.stimulus.events:
        if ev.kind != INPUT_SPIKE:
            raise ValueError("joint search supports input-spike stimuli only")
        if ev.cycle < horizon:
            key = (ev.cycle, index[ev.neuron])
            stim_add[key] = stim_add.get(key, 0) + net.input_spike_amount

    edges = [(index[s.pre], index[s.post]) for s in net.synapses]
    n_edges = len(edges)
    solutions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    for combo in itertools.product(DELAYS, repeat=n_edges):
        # Which synapses deliver into (cycle, neuron) under these delays.
        deliver: dict[tuple[int, int], list[int]] = {}
        for j, (pre, post) in enumerate(edges):
            d = combo[j]
            for t in range(d, horizon):
                if pre in fires[t - d]:
                    deliver.setdefault((t, post), []).append(j)

        equations: list[tuple[list[int], int]] = []
        for t in range(horizon):
            for n in range(len(trace.names)):
                base = 0 if n in fires[t] else (charge[t - 1][n] if t >= 1 else 0)
                rhs = charge[t][n] - base - stim_add.get((t, n), 0)
                equations.append((deliver.get((t, n), []), rhs))

        assigned: dict[int, int] = {}
        feasible = True
        progressing = True
        while progressing and feasible:
            progressing = False
            for js, rhs in equations:
                unknown = [j for j in js if j not in assigned]
                known = sum(assigned[j] for j in js if j in assigned)
                if not unknown:
                    if known != rhs:
                        feasible = False
                        break
                elif len(unknown) == 1:
                    w = rhs - known
                    if w not in WEIGHTS:
                        feasible = False
                        break
                    assigned[unknown[0]] = w
                    progressing = True
        if not feasible:
            continue

        free = [j for j in range(n_edges) if j not in assigned]
        for fill in itertools.product(WEIGHTS, repeat=len(free)):
            trial = dict(assigned)
            trial.update(zip(free, fill))
            if all(sum(trial[j] for j in js) == rhs for js, rhs in equations):
                solutions.append((tuple(combo), tuple(trial[j] for j in range(n_edges))))

    fixture = (tuple(s.delay for s in net.synapses), tuple(s.weight for s in net.synapses))
    return JointResult(case.name, tuple(solutions), fixture,
                       ok=(len(solutions) == 1 and solutions[0] == fixture))


def _n(target: str, field: str, candidates, mode: str) -> SweepSpec:
    return SweepSpec("neuron", target, field, tuple(candidates), mode)


def _s(pre: str, post: str, field: str, candidates, mode: str) -> SweepSpec:
    return SweepSpec("synapse", (pre, post), field, tuple(candidates), mode)


def _shared(exclude: tuple[str, ...] = ()) -> SweepSpec:
    return SweepSpec("shared_threshold", exclude, "threshold", tuple(THRESHOLDS), "unique")


_FAMILY_EDGES = (("Main", "Main"), ("Main", "Out"), ("Main", "Bias"), ("Bias", "Bias"))


def _family_sweeps(weight: str = "unique", delay: str = "unique") -> list[SweepSpec]:
    out = []
    for pre, post in _FAMILY_EDGES:
        out.append(_s(pre, post, "weight", WEIGHTS, weight))
        out.append(_s(pre, post, "delay", DELAYS, delay))
    return out


CASE_SWEEPS: dict[str, list[SweepSpec]] = {
    "network_1_basic": [_shared()],
    "network_2_every_timestep": [_shared()],
    "network_3_leak": [
        _shared(exclude=("Out",)),
        _n("Out", "threshold", THRESHOLDS, "unique"),
        _n("Out", "leak", LEAKS, "unique"),
        _n("Out", "standard_resting", RESTINGS, "unique"),
        *_family_sweeps(),
    ],
    "network_4_more_leak": [
        _shared(exclude=("Out",)),
        _n("Out", "threshold", THRESHOLDS, "minimal"),
        _n("Out", "leak", LEAKS, "unique"),
        _n("Out", "standard_resting", RESTINGS, "unique"),
        _s("Main", "Main", "delay", DELAYS, "unique"),
    ],
    "network_4_more": [
        _s("Off", "Main", "weight", WEIGHTS, "unique"),
        _s("Off", "Main", "delay", DELAYS, "unique"),
    ],
    "network_5_abs_ref": [
        _shared(exclude=("Out",)),
        _n("Out", "threshold", THRESHOLDS, "member"),
        _n("Out", "abs_refractory", REFRACTORIES, "unique"),
    ],
    "network_6_rel_ref": [
        _shared(exclude=("Out",)),
        _n("Out", "threshold", THRESHOLDS, "member"),
        _n("Out", "abs_refractory", REFRACTORIES, "unique"),
        _n("Out", "rel_refractory", REFRACTORIES, "unique"),
        _n("Out", "refractory_resting", RESTINGS, "unique"),
    ],
    "network_7_stdp": [
        _shared(),
        *_family_sweeps(),
    ],
    "network_8_stdp": [
        _shared(),
        _s("On", "Main", "weight", WEIGHTS, "unique"),
        _s("Main", "Main", "weight", WEIGHTS, "unique"),
    ],
    "network_9_stdp": [
        _shared(),
        _s("Main", "Main", "delay", range(0, 5), "unique"),
        _s("Main", "Main", "weight", WEIGHTS, "unique"),
        _s("On", "Main", "weight", WEIGHTS, "unique"),
    ],
    "network_a_stdp": [
        _shared(exclude=("Out",)),
        _n("Out", "threshold", THRESHOLDS, "unique"),
        _n("Out", "abs_refractory", REFRACTORIES, "unique"),
    ],
    "network_c_flight": [
        _shared(),
        _s("On", "Main", "delay", LONG_DELAYS, "unique"),
        _s("On", "Main", "weight", WEIGHTS, "unique"),
        _s("Main", "Out", "weight", WEIGHTS, "unique"),
        _s("Main", "Out", "delay", DELAYS, "unique"),
        _s("Main", "Bias", "weight", WEIGHTS, "unique"),
        _s("Main", "Bias", "delay", DELAYS, "unique"),
        _s("Bias", "Bias", "weight", WEIGHTS, "unique"),
        _s("Bias", "Bias", "delay", DELAYS, "unique"),
    ],
}

JOINT_CASES = ("network_1_basic", "network_2_every_timestep")


def verify_case(case: GoldenCase) -> list[SweepResult]:
    return [run_sweep(case, spec) for spec in CASE_SWEEPS.get(case.name, [])]
