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
from ravensim.engine import BACKENDS, Engine
from ravensim.engine.compiled import available as kernel_available
from ravensim.ioformats import parse_trace_jsonl, save_hardware, save_network
from ravensim.netmodel import HardwareConstants, Network, NeuronSettings, SynapseSettings

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
    doc = json.loads(Path(case_paths["net"]).read_text())
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
    assert parse_trace_jsonl(out) == case.expected


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


def cli_process(argv, **kwargs):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "ravensim.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, **kwargs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backend_errors_exit_without_traceback(backend, tmp_path, case_paths):
    skip_compiled_without_cc(backend)
    ok = cli_process(run_argv(case_paths) + ["--backend", backend])
    assert (ok.returncode, ok.stderr) == (EXIT_OK, "")
    # A stimulus cycle beyond int64, which no backend computes in: a one-line
    # error on every backend.
    stim = tmp_path / "stimulus.txt"
    stim.write_text("AS 99999999999999999999 Main\n")
    refused = cli_process(run_argv(case_paths, str(stim)) + ["--backend", backend])
    assert (refused.returncode, refused.stdout) == (EXIT_USAGE, "")
    assert refused.stderr == ("error: stimulus line 1: cycle 99999999999999999999 "
                              "above 2**63 - 1\n")


@pytest.mark.parametrize("message", ["", "cannot grow the delivery ring"])
def test_out_of_memory_exits_2_in_one_line(message, case_paths, capsys, monkeypatch):
    def run(self, cycles):
        raise MemoryError(message)

    monkeypatch.setattr(Engine, "run", run)
    assert main(run_argv(case_paths)) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message or 'out of memory'}\n"


def cap_address_space():
    """Runs in the child before exec: 1 GiB of address space at most."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("cycles", ["10000000000000", "100000000000000000000"])
@pytest.mark.parametrize("backend", ["python", "compiled", "reference"])
def test_impossible_cycle_count_fails_at_once(backend, cycles, case_paths):
    # Every core allocates its count and charge blocks before the first
    # cycle, so a trace no memory can hold ends the run at once; a core
    # that grew its blocks cycle by cycle would run until the cap or the
    # timeout stopped it.
    skip_compiled_without_cc(backend)
    if backend == "compiled":
        assert kernel_available()  # built here, outside the cap
    argv = run_argv(case_paths) + ["--backend", backend]
    argv[argv.index("--cycles") + 1] = cycles
    proc = cli_process(argv, preexec_fn=cap_address_space, timeout=60)
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert proc.stderr == "error: out of memory\n"


@pytest.mark.parametrize("backend", ["default", "compiled", "python", "reference"])
def test_kernel_state_too_large_fails_at_once(backend, tmp_path):
    # rk_new sizes its delivery ring from the delays it copies: one synapse
    # of delay 10**8 makes it 10**8 + 1 slots, which it cannot allocate
    # under the cap. The python core and the reference oracle keep no ring
    # and run.
    if backend in ("default", "compiled"):
        skip_compiled_without_cc("compiled")
        assert kernel_available()  # built here, outside the cap
    hw = HardwareConstants(accumulator_width=8, threshold_width=4, weight_width=4,
                           max_delay=10**8, max_leak=0, max_abs_refractory=0,
                           max_rel_refractory=0, ports=2, injection_ports=0)
    net = Network((NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=1)),
                  (SynapseSettings("A", "B", weight=1, delay=10**8),))
    paths = {"hw": tmp_path / "hw.json", "net": tmp_path / "net.json",
             "stim": tmp_path / "stim.txt"}
    paths["hw"].write_text(save_hardware(hw))
    paths["net"].write_text(save_network(net))
    paths["stim"].write_text("AS 0 A\n")
    argv = ["run", "--cycles", "10", "--format", "jsonl"]
    argv += [] if backend == "default" else ["--backend", backend]
    for option, path in paths.items():
        argv += [f"--{option}", str(path)]
    proc = cli_process(argv, preexec_fn=cap_address_space, timeout=60)
    if backend in ("python", "reference"):
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert len(proc.stdout.splitlines()) == 10
    else:
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr == "error: cannot allocate the kernel state\n"


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


@pytest.mark.parametrize("cycles", ["1_2", "\u0661\u0662", " 12"])
def test_run_reads_cycles_as_ascii_digits_only(cycles, case_paths, capsys):
    # int() alone would read each of these as 12.
    code = main(["run", "--hw", case_paths["hw"], "--net", case_paths["net"],
                 "--stim", case_paths["stim"], "--cycles", cycles])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_USAGE, "")
    assert "argument --cycles: invalid integer value" in err


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


def test_non_utf8_input_exits_2_naming_the_file(tmp_path, case_paths, capsys):
    stim = tmp_path / "stimulus.txt"
    stim.write_bytes(b"AS 0 Main\n\xff\n")
    assert main(run_argv(case_paths, str(stim))) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot read {stim}: not UTF-8 text (invalid start byte at byte 10)\n"


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["--help"]) == EXIT_OK


def test_cli_import_leaves_the_golden_modules_unloaded():
    # Only `ravensim golden` needs the fixture tree and its readers.
    code = "import sys, ravensim.cli; print(' '.join(sorted(sys.modules)))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    loaded = proc.stdout.split()
    assert "ravensim.cli" in loaded
    assert "ravensim.goldens" not in loaded and "ravensim.reconstruct" not in loaded
    # new_engine imports the oracle and the python core on demand.
    assert "ravensim.engine.reference" not in loaded and "ravensim.engine.pycore" not in loaded
    import ravensim.cli as cli
    for name in ("main", "load_hardware", "parse_network", "validate_network",
                 "load_stimulus", "new_engine", "format_trace"):
        assert callable(getattr(cli, name)), name


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


# A fault planted in a copy of one fixture case, and what the error names.
BROKEN_FIXTURES = {
    "missing_directory": "cannot read fixtures directory",
    "no_hardware_key": 'missing key "hardware"',
    "missing_member": "cannot read",
    "not_an_object": "case.json: must be a JSON object",
    "null_cycles": 'key "cycles" must be an integer, got None',
    "file_key_not_a_string": 'key "hardware" must be a string, got 5',
    "name_not_a_string": "key \"name\" must be a string, got ['x']",
    "notes_not_a_string": 'key "notes" must be a string, got 1',
    "manifest_is_a_directory": "case.json: Is a directory",
    "member_not_utf8": "stimulus.txt: not UTF-8 text (invalid start byte at byte 8)",
}


def broken_fixtures(tmp_path, cases_by_name, fault):
    if fault == "missing_directory":
        return tmp_path / "no_such_directory"
    dest = tmp_path / "fixtures" / "network_1_basic"
    shutil.copytree(cases_by_name["network_1_basic"].root, dest)
    if fault == "manifest_is_a_directory":
        (dest / "case.json").unlink()
        (dest / "case.json").mkdir()
        return dest.parent
    if fault == "member_not_utf8":
        (dest / "stimulus.txt").write_bytes(b"AS 0 In\n\xff\n")
        return dest.parent
    manifest = json.loads((dest / "case.json").read_text())
    if fault == "no_hardware_key":
        del manifest["hardware"]
    elif fault == "not_an_object":
        manifest = [1]
    elif fault == "null_cycles":
        manifest["cycles"] = None
    elif fault == "file_key_not_a_string":
        manifest["hardware"] = 5
    elif fault == "name_not_a_string":
        manifest["name"] = ["x"]
    elif fault == "notes_not_a_string":
        manifest["notes"] = 1
    else:
        manifest["stimulus"] = "no_such_stimulus.txt"
    (dest / "case.json").write_text(json.dumps(manifest))
    return dest.parent


@pytest.mark.parametrize("fault", sorted(BROKEN_FIXTURES))
def test_golden_reports_broken_fixtures_in_one_line(fault, tmp_path, cases_by_name, capsys):
    fixtures = broken_fixtures(tmp_path, cases_by_name, fault)
    assert main(["golden", "--fixtures", str(fixtures)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and BROKEN_FIXTURES[fault] in err
    if fault == "missing_member":
        assert "no_such_stimulus.txt" in err
    assert err.count("\n") == 1


@pytest.mark.skipif(shutil.which("ravensim") is None,
                    reason="console script not installed")
def test_console_entry_point():
    proc = subprocess.run(["ravensim", "golden", "--backend", "auto"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "12/12 passed" in proc.stdout


def test_validate_names_a_network_file_that_is_not_json(tmp_path, case_paths, capsys):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"format": 1, "neurons": [')
    code = main(["validate", "--hw", case_paths["hw"], "--net", str(bad)])
    assert code == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: network file: parse error at line 1, column 27: Expecting value\n")


def test_report_refuses_a_network_that_fails_validation(tmp_path, case_paths, capsys):
    doc = json.loads(Path(case_paths["net"]).read_text())
    doc["synapses"][0]["delay"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["report", "--hw", case_paths["hw"], "--net", str(bad)])
    out, err = capsys.readouterr()
    assert code == EXIT_FAIL
    assert out == ""
    assert err == "violation [delay out of range] synapse Main->Main: delay 99 outside [0, 8]\n"
