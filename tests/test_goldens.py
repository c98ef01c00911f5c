"""Golden regression cases: every bundled fixture must reproduce exactly."""

from __future__ import annotations

import json
import shutil

import pytest

from ravensim import goldens

EXPECTED_CASES = [
    "network_1_basic",
    "network_2_every_timestep",
    "network_3_leak",
    "network_4_more",
    "network_4_more_leak",
    "network_5_abs_ref",
    "network_6_rel_ref",
    "network_7_stdp",
    "network_8_stdp",
    "network_9_stdp",
    "network_a_stdp",
    "network_c_flight",
]


def test_all_cases_discovered(golden_cases):
    assert sorted(case.name for case in golden_cases) == EXPECTED_CASES


def test_case_manifests_are_complete(golden_cases):
    for case in golden_cases:
        assert case.cycles == len(case.expected), case.name
        assert case.notes, f"{case.name} has no provenance notes"
        assert [rep.cycle for rep in case.expected] == list(range(case.cycles))


@pytest.mark.parametrize("backend", ["python", "reference"])
def test_goldens_pass(golden_cases, backend):
    for case in golden_cases:
        diffs = goldens.run_golden(case, backend=backend)
        assert diffs == [], f"{case.name} [{backend}]: {diffs[0]}"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc)")
def test_goldens_pass_compiled(golden_cases):
    for case in golden_cases:
        diffs = goldens.run_golden(case, backend="compiled")
        assert diffs == [], f"{case.name} [compiled]: {diffs[0]}"


def test_perturbed_case_reports_first_divergence(tmp_path, cases_by_name):
    source = cases_by_name["network_3_leak"].root
    for name in ("case.json", "hardware.json", "network.json", "stimulus.txt",
                 "expected.jsonl"):
        (tmp_path / name).write_text((source / name).read_text())

    net = json.loads((tmp_path / "network.json").read_text())
    out = next(m for m in net["neurons"] if m["name"] == "Out")
    out["leak"] = out["leak"] + 1
    (tmp_path / "network.json").write_text(json.dumps(net))

    case = goldens.load_case(tmp_path)
    diffs = goldens.run_golden(case, backend="python")
    assert diffs, "perturbation must break the trace"
    first = diffs[0]
    assert first.neuron == "Out"
    assert first.field in ("fired", "charge")
    assert "expected" in str(first)


def test_compare_traces_flags_missing_cycles(cases_by_name):
    case = cases_by_name["network_1_basic"]
    truncated = list(case.expected[:-2])
    diffs = goldens.compare_traces(case.expected, truncated)
    assert any(d.field == "length" for d in diffs)


def test_load_case_requires_manifest(tmp_path):
    with pytest.raises(goldens.FormatError, match="case.json"):
        goldens.load_case(tmp_path)


def test_discover_requires_cases(tmp_path):
    with pytest.raises(goldens.FormatError, match="no golden cases"):
        goldens.discover_cases(tmp_path)
