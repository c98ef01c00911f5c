"""Golden regression cases: every bundled fixture must reproduce exactly."""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import replace

import pytest

import results_digest
from fuzz import mixed_setup
from ravensim import goldens, new_engine
from ravensim.engine import CycleReport, Trace

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


def reference_compare(expected, actual) -> list[goldens.TraceDiff]:
    """The report-by-report diff the columnar compare_traces replaced."""
    diffs = []
    for exp, got in zip(expected, actual):
        if exp.cycle != got.cycle:
            diffs.append(goldens.TraceDiff(exp.cycle, "*", "cycle", exp.cycle, got.cycle))
        exp_fired, got_fired = set(exp.fired), set(got.fired)
        if exp_fired != got_fired:
            for name in sorted(exp_fired | got_fired):
                if (name in exp_fired) != (name in got_fired):
                    diffs.append(goldens.TraceDiff(exp.cycle, name, "fired",
                                                   name in exp_fired, name in got_fired))
        for name, value in exp.charges.items():
            actual_value = got.charges.get(name)
            if actual_value != value:
                diffs.append(goldens.TraceDiff(exp.cycle, name, "charge", value, actual_value))
        for name, actual_value in got.charges.items():
            if name not in exp.charges:
                diffs.append(goldens.TraceDiff(exp.cycle, name, "charge", None, actual_value))
    if len(actual) != len(expected):
        diffs.append(goldens.TraceDiff(min(len(actual), len(expected)), "*", "length",
                                       len(expected), len(actual)))
    return diffs


def corruptions(trace: Trace, rng: random.Random) -> dict[str, list[CycleReport]]:
    """Seeded copies of the reports of trace: with fires flipped, with charges
    edited, cut short by two cycles, with one cycle renumbered, and untouched."""
    names = trace.names

    def copy():
        return [CycleReport(rep.cycle, rep.fired, dict(rep.charges)) for rep in trace]

    flipped = copy()
    for _ in range(4):
        i, flip = rng.randrange(len(flipped)), rng.choice(names)
        rep = flipped[i]
        fired = tuple(name for name in names if (name in rep.fired) != (name == flip))
        flipped[i] = CycleReport(rep.cycle, fired, rep.charges)
    edited = copy()
    for _ in range(5):
        edited[rng.randrange(len(edited))].charges[rng.choice(names)] += rng.choice((-3, 1, 7))
    renumbered = copy()
    i = rng.randrange(len(renumbered))
    renumbered[i] = replace(renumbered[i], cycle=renumbered[i].cycle + rng.choice((-1, 5)))
    return {"flipped": flipped, "edited": edited, "truncated": copy()[:-2],
            "renumbered": renumbered, "untouched": copy()}


def test_columnar_diff_matches_the_report_by_report_diff(golden_cases):
    rng = random.Random(13)
    pairs = []
    for case in golden_cases:
        engine = new_engine(case.network, case.hardware, case.stimulus)
        pairs.append((case.expected, engine.run(case.cycles)))
    net, hw, stim = mixed_setup(32, 8, True, 100, seed=4)
    mixed = new_engine(net, hw, stim).run(100)
    pairs.append((mixed, mixed))
    found = set()
    for expected, trace in pairs:
        assert isinstance(expected, Trace)
        # The same cells with the neurons listed in the reverse order.
        backwards = [CycleReport(rep.cycle, rep.fired, dict(reversed(rep.charges.items())))
                     for rep in expected]
        for kind, actual in corruptions(trace, rng).items():
            for a, b in ((expected, actual), (actual, expected), (backwards, actual),
                         (actual, backwards)):
                diffs = goldens.compare_traces(a, b)
                assert diffs == reference_compare(a, b)
                found |= {(kind, diff.field) for diff in diffs}
    assert found == {("flipped", "fired"), ("edited", "charge"), ("truncated", "length"),
                     ("renumbered", "cycle")}


def test_diff_compares_cycle_numbers_and_the_neurons_only_the_actual_trace_charges():
    expected = [CycleReport(0, (), {"A": 1}), CycleReport(7, (), {"A": 2})]
    renumbered = [CycleReport(5, (), {"A": 1}), CycleReport(6, (), {"A": 2})]
    assert goldens.compare_traces(expected, renumbered) == [
        goldens.TraceDiff(0, "*", "cycle", 0, 5), goldens.TraceDiff(7, "*", "cycle", 7, 6)]
    wider = [CycleReport(0, (), {"A": 1, "B": 0}), CycleReport(7, (), {"B": 3, "A": 2})]
    assert goldens.compare_traces(expected, wider) == [
        goldens.TraceDiff(0, "B", "charge", None, 0), goldens.TraceDiff(7, "B", "charge", None, 3)]
    assert goldens.compare_traces(wider, expected) == [
        goldens.TraceDiff(0, "B", "charge", 0, None), goldens.TraceDiff(7, "B", "charge", 3, None)]


def test_diff_needs_one_neuron_set_per_trace():
    good = [CycleReport(0, (), {"A": 0, "B": 0}), CycleReport(1, ("A",), {"A": 5, "B": 0})]
    mixed = [good[0], CycleReport(1, (), {"A": 5})]
    uncharged = [good[0], CycleReport(1, ("C",), {"A": 5, "B": 0})]
    for bad, message in ((mixed, "cycle 1: charges must name the neurons of the first cycle"),
                         (uncharged, "cycle 1: fired neuron 'C' has no charge")):
        for a, b in ((good, bad), (bad, good)):
            with pytest.raises(ValueError, match=message):
                goldens.compare_traces(a, b)


def test_a_neuron_fired_twice_in_one_row_fails_the_diff_and_the_golden(tmp_path, cases_by_name):
    # Fire sets cannot tell one fire from two, so the diff of these two traces
    # was empty although they differ; the row rule refuses the repeat instead.
    once = [CycleReport(0, ("A",), {"A": 1, "B": 2})]
    twice = [CycleReport(0, ("A", "A"), {"A": 1, "B": 2})]
    assert once != twice
    for a, b in ((once, twice), (twice, once)):
        with pytest.raises(ValueError, match="^cycle 0: fired neuron 'A' more than once$"):
            goldens.compare_traces(a, b)

    source = cases_by_name["network_1_basic"].root
    for name in ("case.json", "hardware.json", "network.json", "stimulus.txt"):
        (tmp_path / name).write_text((source / name).read_text())
    lines = (source / "expected.jsonl").read_text().splitlines()
    lineno, row = next((k, json.loads(line)) for k, line in enumerate(lines, 1)
                       if json.loads(line)["fired"])
    row["fired"].append(row["fired"][0])
    lines[lineno - 1] = json.dumps(row)
    (tmp_path / "expected.jsonl").write_text("\n".join(lines) + "\n")
    message = f"trace line {lineno}: fired neuron {row['fired'][0]!r} more than once"
    with pytest.raises(goldens.FormatError, match=f"^{re.escape(message)}$"):
        goldens.load_case(tmp_path)


# results_digest.digest over the goldens alone, at 12 engine runs.
GOLDEN_DIGEST = "75e5101db37a8ba32c6f305de1e4617ceb7a662641e2b54e899449be06fc726b"


@pytest.mark.parametrize("backend", ["python", "reference", pytest.param("compiled", marks=(
    pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc)")))])
def test_results_digest_over_the_goldens_is_one_digest_on_every_backend(backend):
    # The whole digest (tests/results_digest.py) adds the benchmark networks;
    # this slice keeps its serialization from drifting unseen.
    assert results_digest.digest(results_digest.golden_cases(), backend) == (GOLDEN_DIGEST, 12)


def test_load_case_requires_manifest(tmp_path):
    with pytest.raises(goldens.FormatError, match="case.json"):
        goldens.load_case(tmp_path)


def test_discover_requires_cases(tmp_path):
    with pytest.raises(goldens.FormatError, match="no golden cases"):
        goldens.discover_cases(tmp_path)


def test_load_case_rejects_duplicate_manifest_keys(tmp_path, cases_by_name):
    source = cases_by_name["network_3_leak"].root
    for name in ("hardware.json", "network.json", "stimulus.txt", "expected.jsonl"):
        (tmp_path / name).write_text((source / name).read_text())
    manifest = json.loads((source / "case.json").read_text())
    manifest["notes"] = "reconstructed: a note with colons: two"
    text = json.dumps(manifest)
    (tmp_path / "case.json").write_text(text)
    assert goldens.load_case(tmp_path).notes == manifest["notes"]

    (tmp_path / "case.json").write_text(text.replace('"cycles": ', '"cycles": 1, "cycles": ', 1))
    message = f'{tmp_path / "case.json"}: duplicate key "cycles"'
    with pytest.raises(goldens.FormatError, match=f"^{re.escape(message)}$"):
        goldens.load_case(tmp_path)


def test_load_case_names_a_manifest_that_is_not_json(tmp_path):
    (tmp_path / "case.json").write_text('{"name": ')
    message = f"{tmp_path / 'case.json'}: parse error at line 1, column 10: Expecting value"
    with pytest.raises(goldens.FormatError, match=f"^{re.escape(message)}$"):
        goldens.load_case(tmp_path)
