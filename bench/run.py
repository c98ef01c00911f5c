"""ravensim benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cli_sparse_1k --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` a run measures the end-to-end metrics listed in
BENCHMARK.json, untraced; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics from the spans recorded
around calls into each ravensim module. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Every other line is for people. ``--workload all`` runs every workload in
both modes, one child process at a time, and prints every metric.

The program is imported from ``src/`` next to this directory and nothing
else; without it the run stops with a non-zero exit and no result. All
host times are ``time.perf_counter`` seconds; all simulated quantities
(cycles, fires, deliveries, weight changes) are exact counts. The run
exits 1 when any operation fails the correctness gate, and refuses to
start when ``RAVENSIM_BACKEND`` pins a backend.

Everything a run writes goes under ``.bench_out/`` in the checkout: the
generated CLI inputs (removed at the end) and one report per run with the
environment, the simulated statistics and the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

def _import_program():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import ravensim
    except ImportError as e:
        raise SystemExit(f"bench: cannot import ravensim from {src}: {e}")
    if Path(ravensim.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: ravensim was imported from {ravensim.__file__}, not {src}")
    return ravensim


def environment(ravensim, w) -> dict:
    backends = getattr(ravensim, "available_backends", lambda: [])()
    return {"backend": w.backend, "kernel_available": "compiled" in backends,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "RAVENSIM_BACKEND": os.environ.get("RAVENSIM_BACKEND")}


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def run_one(args) -> int:
    ravensim = _import_program()
    from measure import measure_traced, measure_untraced
    from workloads import WORKLOADS

    spec = load_spec()
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        measure = measure_traced if args.trace else measure_untraced
        metrics, detail = measure(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: metrics not measured: {missing}")

    env = environment(ravensim, w)
    correct = w.gate.ok
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "shape": w.shape(), "environment": env,
              "correct": correct, "attempted": w.gate.attempted, "failed": w.gate.failed,
              "problems": w.gate.problems, "metrics": metrics, **detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(w.shape())}")
    print(f"environment: {json.dumps(env)}")
    print(f"statistics: {json.dumps(detail['stats'])}")
    samples = detail.get("net_samples")
    print(f"passes: {detail['passes']}" + (f", network samples: {samples}" if samples else ""))
    if detail.get("absent_wrap_points"):
        print(f"absent wrap points (0 calls): {detail['absent_wrap_points']}")
    fail_ratio = w.gate.failed / w.gate.attempted if w.gate.attempted else 1.0
    print(f"fail_ratio {fail_ratio:.6g} ({w.gate.failed}/{w.gate.attempted})")
    if args.trace:
        parts = [f"{key[5:-2]} {metrics[key]:.6f}" for key in metrics if key.startswith("self.")]
        print(f"self time by layer, median traced pass (s): {' + '.join(parts)} "
              f"= {metrics['trace.wall_s']:.6f} traced wall_s")
    for m in listed:
        print(f"  {m['name']:40s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": w.gate.attempted,
        "failed": w.gate.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in both modes, each in its own child process."""
    spec = load_spec()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    digests: dict[str, set] = {}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            report = OUT / f"{wl}-seed{args.seed}-trace{trace}.json"
            report.unlink(missing_ok=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            total["correct"] &= result["correct"] and proc.returncode == 0
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                total["metrics"][f"{wl}/{name}"] = value
            if report.exists():
                digests.setdefault(wl, set()).add(
                    json.dumps(json.loads(report.read_text())["stats"], sort_keys=True))
    for wl, seen in digests.items():
        if len(seen) != 1:
            print(f"gate: {wl}: simulated statistics differ between traced and untraced runs")
            total["correct"] = False
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("cli_sparse_1k", "engine_dense_stdp_1k", "sweep_small", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("RAVENSIM_BACKEND"):
        # Results must come from the backend new_engine picks by default.
        print("bench: RAVENSIM_BACKEND is set; unset it so the default backend "
              "selection is measured", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
