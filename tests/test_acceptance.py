"""Acceptance gate: the six criteria the package must meet.

Each test prints one [PASS]/[FAIL] line (run pytest -s to watch them) and
asserts the same condition, so the gate reads as a checklist:

  1. every bundled worked-example trace reproduces exactly, quickly
  2. adjustment-table index arithmetic hits the published worked values
  3. the closed-form minimum accumulator width matches a brute-force oracle
  4. the engine and the naive reference oracle agree on >= 1000 random nets
  5. the per-cycle property suite holds
  6. the fixture parameters are justified by their constraint searches
"""

from __future__ import annotations

import random
import time

import test_properties
from fuzz import FUZZ_CYCLES, random_setup
from ravensim import goldens, min_accumulator_width, new_engine, new_reference_engine
from ravensim.plasticity import potentiation_index
from ravensim.reconstruct import JOINT_CASES, joint_edge_search, verify_case

EXPECTED_CYCLES = {
    "network_1_basic": 15,
    "network_2_every_timestep": 16,
    "network_3_leak": 11,
    "network_4_more_leak": 8,
    "network_4_more": 3,
    "network_5_abs_ref": 10,
    "network_6_rel_ref": 12,
    "network_7_stdp": 8,
    "network_8_stdp": 5,
    "network_9_stdp": 5,
    "network_a_stdp": 11,
    "network_c_flight": 10,
}


def conclude(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_golden_traces(golden_cases):
    started = time.perf_counter()
    failures = []
    for case in golden_cases:
        diffs = goldens.run_golden(case, backend="auto")
        if diffs:
            failures.append(f"{case.name}: {diffs[0]}")
    elapsed = time.perf_counter() - started
    coverage = {case.name: case.cycles for case in golden_cases}
    ok = (not failures and coverage == EXPECTED_CYCLES and elapsed < 1.0)
    conclude(ok, f"criterion 1: {len(golden_cases) - len(failures)}/"
                 f"{len(golden_cases)} golden traces exact in {elapsed:.3f}s"
                 + (f"; first failure {failures[0]}" if failures else ""))


def test_criterion_2_stdp_index_arithmetic():
    got = [potentiation_index(8, 12, x) for x in (7, 10, 12)]
    conclude(got == [-1, 2, 4],
             f"criterion 2: size-8 table, exceed at 12, deliveries at "
             f"(7, 10, 12) -> indices {got}")


def test_criterion_3_width_formula_vs_oracle():
    checked = 0
    bad = None
    for weight_width in range(1, 9):
        for ports in range(1, 17):
            for injection_ports in range(0, ports + 1):
                wmax = (1 << weight_width) - 1
                worst = max(wmax * (ports - injection_ports)
                            + (1 << injection_ports) - 1,
                            wmax * ports)
                bits = 0
                while (1 << bits) < worst:
                    bits += 1
                if min_accumulator_width(weight_width, ports, injection_ports) != bits:
                    bad = (weight_width, ports, injection_ports)
                checked += 1
    conclude(bad is None,
             f"criterion 3: width formula matches the brute-force oracle on "
             f"{checked} (W, S, C) points" + (f"; first mismatch {bad}" if bad else ""))


def test_criterion_4_differential_oracle():
    rng = random.Random(0xD1FF)
    trials = 1000
    divergences = 0
    first = None
    for trial in range(trials):
        net, hw, stim = random_setup(rng)
        fast = new_engine(net, hw, stim, backend="python")
        oracle = new_reference_engine(net, hw, stim)
        for cycle in range(FUZZ_CYCLES):
            if fast.step() != oracle.step():
                divergences += 1
                first = first or (trial, cycle)
                break
        else:
            if fast.weights() != oracle.weights():
                divergences += 1
                first = first or (trial, "weights")
    conclude(divergences == 0,
             f"criterion 4: engine vs reference oracle, {trials} random "
             f"networks x {FUZZ_CYCLES} cycles, {divergences} divergences"
             + (f" (first at {first})" if first else ""))


def test_criterion_5_property_suite():
    properties = [
        test_properties.test_firing_follows_strict_threshold_comparison,
        test_properties.test_absolute_refractory_freezes_reported_charge,
        test_properties.test_deliveries_land_exactly_delay_cycles_later,
        test_properties.test_post_cycle_charges_respect_phase_floors,
        test_properties.test_weights_stay_clamped_to_signed_width,
        test_properties.test_weights_frozen_without_stdp,
        test_properties.test_repeated_runs_render_byte_identical_traces,
    ]
    failed = []
    for prop in properties:
        try:
            prop()
        except AssertionError as e:
            failed.append(f"{prop.__name__}: {e}")
    conclude(not failed,
             f"criterion 5: {len(properties) - len(failed)}/{len(properties)} "
             f"trace properties hold" + (f"; {failed[0]}" if failed else ""))


def test_criterion_6_fixture_reconstruction(golden_cases):
    problems = []
    for name in JOINT_CASES:
        case = next(c for c in golden_cases if c.name == name)
        joint = joint_edge_search(case)
        if not joint.ok:
            problems.append(f"{name}: {len(joint.solutions)} joint solutions")
    sweeps = 0
    for case in golden_cases:
        for result in verify_case(case):
            sweeps += 1
            if not result.ok:
                problems.append(f"{case.name} {result.label} [{result.mode}]: "
                                f"survivors {result.survivors}, fixture "
                                f"{result.fixture_value}")
    conclude(not problems,
             f"criterion 6: {len(JOINT_CASES)} joint searches unique, "
             f"{sweeps} parameter sweeps consistent"
             + (f"; {problems[0]}" if problems else ""))
