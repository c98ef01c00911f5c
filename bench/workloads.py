"""The three benchmark workloads and the timed passes they are made of.

A workload owns its generated inputs and knows how to run one pass over
them. Every operation inside a pass is timed with ``time.perf_counter``
around calls into ravensim's public entry points only; rendering, hashing
and comparing outputs happen between the timed segments.

    cli_sparse_1k         ``python -m ravensim.cli run ... --format jsonl``
                          on generated files, one child process at a time
    engine_dense_stdp_1k  ``new_engine(...).run(C)`` on in-memory objects
    sweep_small           a few hundred small networks, each from JSON text
                          through load_hardware/load_network/load_stimulus/
                          new_engine/run, as an evolutionary search does
"""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import ravensim
import ravensim.cli
import ravensim.ioformats

import gates
import gen
from gates import Gate, Outcome, SimStats

clock = time.perf_counter

CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed operation: one network taken from its input to its last cycle."""

    latency: float
    setup: float = 0.0  # input to an engine ready to step
    sim: float = 0.0  # inside engine.run or engine.advance
    rss_mb: float = 0.0  # peak RSS of the child process, CLI runs only
    stats: SimStats | None = None


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    cycles: int = 0
    output_bytes: int = 0  # bytes the CLI wrote to standard output

    @property
    def wall(self) -> float:
        return sum(op.latency for op in self.ops)

    @property
    def setup(self) -> float:
        return sum(op.setup for op in self.ops)

    @property
    def sim(self) -> float:
        return sum(op.sim for op in self.ops)

    @property
    def stats(self) -> SimStats | None:
        total = SimStats()
        for op in self.ops:
            if op.stats is None:
                return None
            total = total + op.stats
        return total


class Workload:
    """Generated inputs plus the expected outcome of each case.

    The expected outcomes come from the first (warm-up) pass and are
    confirmed against the oracles by check_oracles() at the end of the run.
    """

    name = ""
    cases: list[gen.Case]
    # Cycles of the 1k network checked against ReferenceEngine, which
    # rescans every synapse for every neuron that crosses its threshold.
    reference_prefix = 0

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.gate = Gate()
        self.expected: list[Outcome] = []
        self._stats: dict[tuple[int, str], SimStats] = {}
        self.engine_cls: type | None = None
        self.backend = ""
        workdir.mkdir(parents=True, exist_ok=True)
        self.out_path = workdir / "stdout.txt"
        self.err_path = workdir / "stderr.txt"
        self.env = dict(os.environ)
        src = str(Path(ravensim.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    # --- one in-process operation ------------------------------------------

    def build(self, index: int):
        """The timed set-up: from this case's input to an engine ready to step."""
        raise NotImplementedError

    def api_op(self, index: int, method: str) -> tuple[Op, Outcome]:
        case = self.cases[index]
        t0 = clock()
        engine = self.build(index)
        t1 = clock()
        trace = getattr(engine, method)(case.cycles)
        t2 = clock()
        self.engine_cls = type(engine)
        self.backend = getattr(engine, "backend", type(engine).__name__)
        charges = engine.charges() if hasattr(engine, "charges") else None
        weights = engine.weights()
        op = Op(latency=t2 - t0, setup=t1 - t0, sim=t2 - t1)
        if method != "run":
            return op, Outcome(charges=charges, weights=weights)
        rendered = gates.render_jsonl(trace)
        outcome = Outcome(gates.digest(rendered), charges, weights)
        op.stats = self.stats_of(index, trace, weights, rendered, outcome.digest)
        return op, outcome

    def stats_of(self, index, trace, weights, rendered, digest) -> SimStats:
        key = (index, digest)
        if key not in self._stats:
            self._stats[key] = gates.sim_stats(self.cases[index].net, self.cases[index].cycles,
                                               trace, weights, rendered)
        return self._stats[key]

    def api_pass(self, method: str = "run") -> Pass:
        """Every case once through the public API, gated op by op."""
        result = Pass()
        warm = not self.expected
        for index, case in enumerate(self.cases):
            what = f"{case.name} {method}"
            try:
                op, outcome = self.api_op(index, method)
            except Exception as e:  # an operation that raises is a failed operation
                self.gate.attempted += 1
                self.gate.fail(f"{what} raised {type(e).__name__}: {e}")
                continue
            if warm:
                self.expected.append(outcome)
                self.gate.attempted += 1
                self.gate.passed_by_case[index] += 1
            else:
                self.gate.check(what, self.expected[index], outcome, key=index)
            result.ops.append(op)
            result.cycles += case.cycles
        return result

    # --- oracles ------------------------------------------------------------

    def check_oracles(self) -> None:
        raise NotImplementedError

    def _check_1k_oracles(self) -> None:
        """Python backend in full (trace, final charges, weights) and the
        reference engine on a prefix of cycles."""
        case, expected = self.cases[0], self.expected[0] if self.expected else None
        if expected is None:
            self.gate.fail("no operation completed, nothing to check")
            return
        py = ravensim.new_engine(case.net, case.hw, case.stim, backend="python")
        py_trace = py.run(case.cycles)
        want = Outcome(gates.digest(gates.render_jsonl(py_trace)), py.charges(), py.weights())
        for field_name in ("digest", "charges", "weights"):
            if getattr(want, field_name) != getattr(expected, field_name):
                self.gate.fail(f"{case.name}: {field_name} differs from the python backend",
                               count=self.gate.passed_by_case.pop(0, 0))
                return
        prefix = self.reference_prefix
        ref_trace = ravensim.new_reference_engine(case.net, case.hw, case.stim).run(prefix)
        diff = gates.first_difference(ref_trace, py_trace[:prefix])
        if diff is not None:
            self.gate.fail(f"{case.name}: differs from ReferenceEngine at {diff}",
                           count=self.gate.passed_by_case.pop(0, 0))

    # --- reporting ------------------------------------------------------------

    def shape(self) -> dict:
        neurons = sum(len(c.net.neurons) for c in self.cases)
        synapses = sum(len(c.net.synapses) for c in self.cases)
        return {"networks": len(self.cases), "neurons": neurons, "synapses": synapses,
                "cycles": sum(c.cycles for c in self.cases),
                "stdp_networks": sum(1 for c in self.cases if c.net.stdp_enabled)}

    def entities(self) -> int:
        """Neurons plus synapses parsed from JSON in one pass."""
        return 0

    def import_time(self) -> float:
        """Seconds to import ravensim.cli in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import ravensim.cli; "
                "print(repr(time.perf_counter() - t))")
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-c", code], stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            status, _ = _wait(proc)
        if status != 0:
            raise RuntimeError(f"importing ravensim.cli failed with exit code {status}")
        return float(self.out_path.read_text())


class DenseWorkload(Workload):
    """engine_dense_stdp_1k: the simulation core on in-memory objects."""

    name = "engine_dense_stdp_1k"
    reference_prefix = 3  # about 1 s per cycle here

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.cases = [gen.dense_stdp_case(seed)]

    def build(self, index):
        case = self.cases[index]
        return ravensim.new_engine(case.net, case.hw, case.stim)

    def check_oracles(self):
        self._check_1k_oracles()


class SweepWorkload(Workload):
    """sweep_small: hundreds of small networks, fixed per-network costs."""

    name = "sweep_small"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        self.cases = gen.sweep_cases(seed)
        self.texts = [(c.hardware_text(), c.network_text(), c.stimulus_text()) for c in self.cases]

    def build(self, index):
        io = ravensim.ioformats
        hw_text, net_text, stim_text = self.texts[index]
        hw = io.load_hardware(hw_text)
        net = io.load_network(net_text, hw)
        stim = io.load_stimulus(stim_text, net, hw)
        return ravensim.new_engine(net, hw, stim)

    def entities(self):
        return sum(len(c.net.neurons) + len(c.net.synapses) for c in self.cases)

    def check_oracles(self):
        """Every trace and final weight vector against ReferenceEngine, in full."""
        if len(self.expected) != len(self.cases):
            self.gate.fail("the warm-up pass did not complete every network")
            return
        for index, (case, expected) in enumerate(zip(self.cases, self.expected)):
            ref = ravensim.new_reference_engine(case.net, case.hw, case.stim)
            trace = ref.run(case.cycles)
            if gates.digest(gates.render_jsonl(trace)) != expected.digest:
                self.gate.fail(f"{case.name}: trace differs from ReferenceEngine",
                               count=self.gate.passed_by_case.pop(index, 0))
            elif ref.weights() != expected.weights:
                self.gate.fail(f"{case.name}: final weights differ from ReferenceEngine",
                               count=self.gate.passed_by_case.pop(index, 0))


class CliWorkload(Workload):
    """cli_sparse_1k: the user's command-line path on generated files."""

    name = "cli_sparse_1k"
    reference_prefix = gen.CLI_CYCLES  # the whole run: a few ms per cycle here

    def __init__(self, seed: int, workdir: Path):
        super().__init__(workdir)
        case = gen.cli_sparse_case(seed)
        self.cases = [case]
        self.hw_path = workdir / "hardware.json"
        self.net_path = workdir / "network.json"
        self.stim_path = workdir / "stimulus.txt"
        self.hw_path.write_text(case.hardware_text())
        self.net_path.write_text(case.network_text())
        self.stim_path.write_text(case.stimulus_text())
        self.argv = ["run", "--hw", str(self.hw_path), "--net", str(self.net_path),
                     "--stim", str(self.stim_path), "--cycles", str(case.cycles),
                     "--format", "jsonl"]

    def build(self, index):
        # The calls ravensim.cli makes for `run`, in its order, through the
        # same names it looks up.
        cli = ravensim.cli
        hw = cli.load_hardware(self.hw_path.read_text())
        net = cli.parse_network(self.net_path.read_text())
        report = cli.validate_network(net, hw)
        if not report.ok:
            raise ravensim.ValidationError(report)
        stim = cli.load_stimulus(self.stim_path.read_text(), net, hw)
        return cli.new_engine(net, hw, stim)

    def entities(self):
        return len(self.cases[0].net.neurons) + len(self.cases[0].net.synapses)

    def _output_op(self, what: str, latency: float, code: int, rss_mb: float = 0.0) -> Op:
        """Gate what the CLI wrote; the first output is checked against the API pass."""
        data = self.out_path.read_bytes()
        op = Op(latency=latency, rss_mb=rss_mb)
        if code != 0:
            err = self.err_path.read_text(errors="replace")[-500:] if self.err_path.exists() else ""
            self.gate.attempted += 1
            self.gate.fail(f"{what} exited with {code}: {err.strip()}")
            return op
        outcome = Outcome(digest=gates.digest(data))
        expected = self.expected[0] if self.expected else Outcome()
        if self.gate.check(what, expected, outcome, key=0):
            known = self._stats[(0, outcome.digest)]
            op.stats = SimStats(known.fires, known.deliveries, known.weight_changes,
                                len(data), outcome.digest)
        return op

    def child_pass(self) -> Pass:
        """One `python -m ravensim.cli run` child, timed from spawn to exit."""
        cmd = [sys.executable, "-m", "ravensim.cli", *self.argv]
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            t0 = clock()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.workdir)
            status, usage = _wait(proc)
            t1 = clock()
        result = Pass(cycles=self.cases[0].cycles)
        result.ops.append(self._output_op("cli child", t1 - t0, status, usage.ru_maxrss / 1024))
        result.output_bytes = self.out_path.stat().st_size
        return result

    def main_pass(self) -> Pass:
        """ravensim.cli.main in this process, standard output sent to a file."""
        result = Pass(cycles=self.cases[0].cycles)
        with open(self.out_path, "w") as out, contextlib.redirect_stdout(out):
            t0 = clock()
            try:
                code = ravensim.cli.main(self.argv)
            except Exception as e:
                code = f"{type(e).__name__}: {e}"
            t1 = clock()
        result.ops.append(self._output_op("cli main", t1 - t0, code))
        result.output_bytes = self.out_path.stat().st_size
        return result

    def check_oracles(self):
        self._check_1k_oracles()


def _wait(proc: subprocess.Popen) -> tuple[int, resource.struct_rusage]:
    """Reap a child with its own resource usage; kill it after CHILD_TIMEOUT_S."""

    def on_alarm(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


WORKLOADS = {w.name: w for w in (CliWorkload, DenseWorkload, SweepWorkload)}
