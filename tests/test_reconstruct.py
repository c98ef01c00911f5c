"""The searches behind the reconstructed fixtures, held result by result.

test_criterion_6_fixture_reconstruction checks that every search comes out
as its fixture claims; these tests hold what each one found: the values
each sweep kept, and every solution of each joint search.
"""

from __future__ import annotations

from ravensim.reconstruct import CASE_SWEEPS, JOINT_CASES, joint_edge_search, verify_case

# (label, mode, survivors, fixture value, ok) of every sweep, case by case.
SWEEPS = {
    "network_1_basic": [
        ("shared threshold", "unique", (1,), 1, True),
    ],
    "network_2_every_timestep": [
        ("shared threshold", "unique", (1,), 1, True),
    ],
    "network_3_leak": [
        ("shared threshold (except Out)", "unique", (1,), 1, True),
        ("Out.threshold", "unique", (2,), 2, True),
        ("Out.leak", "unique", (1,), 1, True),
        ("Out.standard_resting", "unique", (-1,), -1, True),
        ("Main->Main.weight", "unique", (2,), 2, True),
        ("Main->Main.delay", "unique", (0,), 0, True),
        ("Main->Out.weight", "unique", (2,), 2, True),
        ("Main->Out.delay", "unique", (0,), 0, True),
        ("Main->Bias.weight", "unique", (2,), 2, True),
        ("Main->Bias.delay", "unique", (0,), 0, True),
        ("Bias->Bias.weight", "unique", (2,), 2, True),
        ("Bias->Bias.delay", "unique", (0,), 0, True),
    ],
    "network_4_more": [
        ("Off->Main.weight", "unique", (-2,), -2, True),
        ("Off->Main.delay", "unique", (0,), 0, True),
    ],
    "network_4_more_leak": [
        ("shared threshold (except Out)", "unique", (1,), 1, True),
        ("Out.threshold", "minimal", (1, 2, 3, 4), 1, True),
        ("Out.leak", "unique", (1,), 1, True),
        ("Out.standard_resting", "unique", (-1,), -1, True),
        ("Main->Main.delay", "unique", (1,), 1, True),
    ],
    "network_5_abs_ref": [
        ("shared threshold (except Out)", "unique", (1,), 1, True),
        ("Out.threshold", "member", (2, 3), 3, True),
        ("Out.abs_refractory", "unique", (1,), 1, True),
    ],
    "network_6_rel_ref": [
        ("shared threshold (except Out)", "unique", (1,), 1, True),
        ("Out.threshold", "member", (2, 3), 3, True),
        ("Out.abs_refractory", "unique", (1,), 1, True),
        ("Out.rel_refractory", "unique", (1,), 1, True),
        ("Out.refractory_resting", "unique", (-3,), -3, True),
    ],
    "network_7_stdp": [
        ("shared threshold", "unique", (1,), 1, True),
        ("Main->Main.weight", "unique", (2,), 2, True),
        ("Main->Main.delay", "unique", (0,), 0, True),
        ("Main->Out.weight", "unique", (2,), 2, True),
        ("Main->Out.delay", "unique", (0,), 0, True),
        ("Main->Bias.weight", "unique", (2,), 2, True),
        ("Main->Bias.delay", "unique", (0,), 0, True),
        ("Bias->Bias.weight", "unique", (2,), 2, True),
        ("Bias->Bias.delay", "unique", (0,), 0, True),
    ],
    "network_8_stdp": [
        ("shared threshold", "unique", (1,), 1, True),
        ("On->Main.weight", "unique", (1,), 1, True),
        ("Main->Main.weight", "unique", (2,), 2, True),
    ],
    "network_9_stdp": [
        ("shared threshold", "unique", (1,), 1, True),
        ("Main->Main.delay", "unique", (2,), 2, True),
        ("Main->Main.weight", "unique", (2,), 2, True),
        ("On->Main.weight", "unique", (1,), 1, True),
    ],
    "network_a_stdp": [
        ("shared threshold (except Out)", "unique", (1,), 1, True),
        ("Out.threshold", "unique", (1,), 1, True),
        ("Out.abs_refractory", "unique", (2,), 2, True),
    ],
    "network_c_flight": [
        ("shared threshold", "unique", (1,), 1, True),
        ("On->Main.delay", "unique", (5,), 5, True),
        ("On->Main.weight", "unique", (2,), 2, True),
        ("Main->Out.weight", "unique", (2,), 2, True),
        ("Main->Out.delay", "unique", (0,), 0, True),
        ("Main->Bias.weight", "unique", (2,), 2, True),
        ("Main->Bias.delay", "unique", (0,), 0, True),
        ("Bias->Bias.weight", "unique", (2,), 2, True),
        ("Bias->Bias.delay", "unique", (0,), 0, True),
    ],
}

# (solutions, fixture) of each joint search, both as (delays, weights).
JOINT = {
    "network_1_basic": ((((1, 1, 0, 0, 1, 1), (1, 1, 1, 1, 1, -1)),),
        ((1, 1, 0, 0, 1, 1), (1, 1, 1, 1, 1, -1))),
    "network_2_every_timestep": ((((0, 0, 0, 0, 0, 0), (2, 2, 2, 2, 2, -2)),),
        ((0, 0, 0, 0, 0, 0), (2, 2, 2, 2, 2, -2))),
}


def test_every_sweep_keeps_the_values_it_kept(golden_cases):
    assert sum(map(len, SWEEPS.values())) == 57 and SWEEPS.keys() == CASE_SWEEPS.keys()
    for case in golden_cases:
        results = verify_case(case)
        assert {result.case for result in results} == {case.name}
        assert [(r.label, r.mode, r.survivors, r.fixture_value, r.ok)
                for r in results] == SWEEPS[case.name], case.name


def test_each_joint_search_finds_its_fixture_alone(cases_by_name):
    assert JOINT_CASES == tuple(JOINT)
    for name, (solutions, fixture) in JOINT.items():
        result = joint_edge_search(cases_by_name[name])
        assert (result.case, result.solutions, result.fixture, result.ok) == (
            name, solutions, fixture, True)
