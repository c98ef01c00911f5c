"""Constraint searches behind the reconstructed golden fixtures.

The worked examples publish traces but not machine-readable networks, so
the bundled fixtures were reconstructed. This module re-runs the searches
that justify them:

  - a joint exhaustive search over every synapse's (delay, weight) pair for
    the two plain integrate-and-fire fixtures, using a linear consistency
    check derived from the trace alone (no simulator involved), and
  - per-parameter sweeps for the remaining fixtures: each sets one field to
    every candidate value in turn, on the records a selector picks, and keeps
    the values whose edited case passes goldens.run_golden.

Search ranges are documented here as code. Sweep modes state what the
fixture claims: "unique" parameters admit exactly one consistent value,
"minimal" parameters use the smallest consistent value, and "member"
parameters are stated by the example narrative and are checked only for
consistency (the trace alone admits more than one value).
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, replace

from .engine.events import INPUT_SPIKE
from .goldens import GoldenCase, run_golden
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
    """One sweep: every candidate value of one field, set on the records of
    one Network column ("neurons" or "synapses") that picks selects."""

    label: str
    column: str
    picks: Callable[[object], bool]
    field: str
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


def _with(net: Network, spec: SweepSpec, value: int) -> Network:
    records = tuple(replace(r, **{spec.field: value}) if spec.picks(r) else r
                    for r in getattr(net, spec.column))
    return replace(net, **{spec.column: records})


def _consistent(case: GoldenCase, net: Network) -> bool:
    try:
        return not run_golden(replace(case, network=net), "python")
    except (ValidationError, ValueError):
        return False


def run_sweep(case: GoldenCase, spec: SweepSpec) -> SweepResult:
    """Try every candidate value for one parameter against the trace."""
    net = case.network
    fixture_value = getattr(next(filter(spec.picks, getattr(net, spec.column))), spec.field)
    survivors = tuple(v for v in spec.candidates if _consistent(case, _with(net, spec, v)))
    ok = {"unique": survivors == (fixture_value,),
          "minimal": bool(survivors) and fixture_value == min(survivors),
          "member": fixture_value in survivors}[spec.mode]
    return SweepResult(case.name, spec.label, spec.mode, survivors, fixture_value, ok)


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


def _n(name: str, field: str, candidates, mode: str) -> SweepSpec:
    return SweepSpec(f"{name}.{field}", "neurons", lambda m: m.name == name, field,
                     tuple(candidates), mode)


def _s(pre: str, post: str, field: str, candidates, mode: str) -> SweepSpec:
    return SweepSpec(f"{pre}->{post}.{field}", "synapses",
                     lambda s: (s.pre, s.post) == (pre, post), field, tuple(candidates), mode)


def _shared(exclude: tuple[str, ...] = ()) -> SweepSpec:
    """The one threshold of every neuron not in exclude."""
    label = "shared threshold" + (f" (except {', '.join(exclude)})" if exclude else "")
    return SweepSpec(label, "neurons", lambda m: m.name not in exclude, "threshold",
                     tuple(THRESHOLDS), "unique")


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
