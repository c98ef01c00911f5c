"""Command-line interface: exit codes, stream separation, output shape."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ravensim
from ravensim.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from ravensim.engine import BACKENDS
from ravensim.ioformats import parse_trace_jsonl

SRC = str(Path(ravensim.__file__).resolve().parent.parent)


@pytest.fixture
def case_paths(cases_by_name):
    case = cases_by_name["network_3_leak"]
    root = case.root
    return {
        "case": case,
        "hw": str(root / "hardware.json"),
        "net": str(root / "network.json"),
        "stim": str(root / "stimulus.txt"),
    }


def test_validate_ok(case_paths, capsys):
    code = main(["validate", "--hw", case_paths["hw"], "--net", case_paths["net"]])
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert out.startswith("ok:")
    assert err == ""


def test_validate_reports_violations(tmp_path, case_paths, capsys):
    doc = json.loads(open(case_paths["net"]).read())
    doc["synapses"][0]["delay"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["validate", "--hw", case_paths["hw"], "--net", str(bad)])
    out, err = capsys.readouterr()
    assert code == EXIT_FAIL
    assert out == ""
    assert "violation [delay out of range]" in err
    assert "1 violation(s)" in err


def test_report_summarises_resources(case_paths, capsys):
    code = main(["report", "--hw", case_paths["hw"], "--net", case_paths["net"]])
    out, _ = capsys.readouterr()
    assert code == EXIT_OK
    assert "min accumulator width: 7" in out
    assert "port usage:" in out


def test_run_emits_expected_trace(case_paths, capsys):
    case = case_paths["case"]
    code = main(["run", "--hw", case_paths["hw"], "--net", case_paths["net"],
                 "--stim", case_paths["stim"], "--cycles", str(case.cycles),
                 "--format", "jsonl", "--backend", "python"])
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert err == ""
    assert tuple(parse_trace_jsonl(out)) == case.expected


def run_argv(case_paths, stim=None):
    return ["run", "--hw", case_paths["hw"], "--net", case_paths["net"],
            "--stim", stim or case_paths["stim"],
            "--cycles", str(case_paths["case"].cycles), "--format", "jsonl"]


def skip_compiled_without_cc(backend):
    if backend == "compiled" and shutil.which("cc") is None:
        pytest.skip("no C compiler (cc)")


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_prints_the_same_trace_on_every_backend(backend, case_paths, capsys):
    skip_compiled_without_cc(backend)
    assert main(run_argv(case_paths) + ["--backend", "python"]) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(run_argv(case_paths) + ["--backend", backend]) == EXIT_OK
    assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_passes_on_every_backend(backend, capsys):
    skip_compiled_without_cc(backend)
    assert main(["golden", "--backend", backend]) == EXIT_OK
    assert "12/12 passed" in capsys.readouterr().out


def cli_process(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ravensim.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_backend_errors_exit_without_traceback(tmp_path, case_paths):
    reference = cli_process(run_argv(case_paths) + ["--backend", "reference"])
    assert reference.returncode == EXIT_OK
    # A stimulus cycle beyond int64_t: the kernel cannot hold it, and without
    # cc it cannot be built; either way a one-line error.
    stim = tmp_path / "stimulus.txt"
    stim.write_text("AS 99999999999999999999 Main\n")
    compiled = cli_process(run_argv(case_paths, str(stim)) + ["--backend", "compiled"])
    assert compiled.returncode == EXIT_USAGE
    assert compiled.stderr.startswith("error: compiled backend")
    assert "Traceback" not in reference.stderr + compiled.stderr


def test_run_table_header(case_paths, capsys):
    main(["run", "--hw", case_paths["hw"], "--net", case_paths["net"],
          "--stim", case_paths["stim"], "--cycles", "3"])
    out, _ = capsys.readouterr()
    header = out.splitlines()[0]
    assert header.startswith("cycle | fired")
    for name in case_paths["case"].network.neuron_names():
        assert name in header


def test_run_rejects_negative_cycles(case_paths, capsys):
    code = main(["run", "--hw", case_paths["hw"], "--net", case_paths["net"],
                 "--stim", case_paths["stim"], "--cycles", "-1"])
    _, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "--cycles" in err


def test_parse_error_exits_2(tmp_path, case_paths, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code = main(["validate", "--hw", str(broken), "--net", case_paths["net"]])
    _, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_missing_file_exits_2(case_paths, capsys):
    code = main(["validate", "--hw", "/no/such/file.json", "--net", case_paths["net"]])
    _, err = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK


def test_golden_all_pass(capsys):
    code = main(["golden", "--backend", "python"])
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    assert err == ""
    assert out.count("[PASS]") == 12
    assert "12/12 passed" in out


def test_golden_reports_divergence(tmp_path, cases_by_name, capsys):
    source = cases_by_name["network_1_basic"].root
    dest = tmp_path / "network_1_basic"
    shutil.copytree(source, dest)
    expected = (dest / "expected.jsonl").read_text().splitlines()
    doc = json.loads(expected[3])
    doc["charges"][next(iter(doc["charges"]))] += 1
    expected[3] = json.dumps(doc)
    (dest / "expected.jsonl").write_text("\n".join(expected) + "\n")

    code = main(["golden", "--fixtures", str(tmp_path), "--backend", "python"])
    out, err = capsys.readouterr()
    assert code == EXIT_FAIL
    assert "[FAIL] network_1_basic: first divergence at cycle 3" in err
    assert "0/1 passed" in out


@pytest.mark.skipif(shutil.which("ravensim") is None,
                    reason="console script not installed")
def test_console_entry_point():
    proc = subprocess.run(["ravensim", "golden", "--backend", "auto"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "12/12 passed" in proc.stdout
