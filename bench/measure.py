"""Timed passes and the metrics computed from them.

measure_untraced gives the end-to-end metrics of BENCHMARK.json with no
tracing installed; measure_traced alternates untraced and traced passes
and gives the per-layer metrics from the recorded spans. Both run the
correctness gate's oracles after the timed window and require identical
simulated statistics on every pass.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from gates import SimStats
from spans import LAYERS, Tracer, layer_of
from workloads import CliWorkload

MIN_PASSES = 3
CLI_API_EVERY = 2  # one in-process set-up + run after every 2 CLI children
IMPORT_SAMPLES = 5


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def p95(values) -> float:
    values = list(values)
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def window(seconds: float, step, min_passes: int = MIN_PASSES) -> list:
    """Call step() until `seconds` have passed, at least min_passes times."""
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < min_passes or time.perf_counter() < deadline:
        gc.collect()
        results.append(step())
    return results


def rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def check_stats(w, passes) -> dict:
    """Simulated statistics must be identical on every pass that ran."""
    seen = {p.stats for p in passes if p.stats is not None}
    if len(seen) > 1:
        w.gate.fail(f"simulated statistics differ between passes: {sorted(map(str, seen))}")
    stats = next(iter(seen)) if seen else None
    return {} if stats is None else {
        "fires": stats.fires, "deliveries": stats.deliveries,
        "weight_changes": stats.weight_changes, "trace_bytes": stats.trace_bytes,
        "digest": stats.digest}


def measure_untraced(w, seconds: float) -> tuple[dict, dict]:
    warm = [w.api_pass()]
    if isinstance(w, CliWorkload):
        warm.append(w.child_pass())
        api_passes, child_passes = [], []

        def step():
            p = w.child_pass()
            child_passes.append(p)
            if len(child_passes) % CLI_API_EVERY == 0:
                gc.collect()
                api_passes.append(w.api_pass())
            return p

        window(seconds, step, min_passes=max(MIN_PASSES, CLI_API_EVERY))
        timed, sim_passes = child_passes, api_passes
        rss = median(op.rss_mb for p in child_passes for op in p.ops)
    else:
        timed = sim_passes = window(seconds, w.api_pass)
        rss = rss_self_mb()
    w.check_oracles()
    stats = check_stats(w, warm + timed + sim_passes)

    # Rates are totals over the run divided by the host time they took.
    gated = [p for p in sim_passes if p.stats is not None]
    sim_time = sum(p.sim for p in gated)
    latencies_ms = [op.latency * 1e3 for p in timed for op in p.ops]
    metrics = {
        "setup_s": median(p.setup for p in sim_passes),
        "wall_s": median(p.wall for p in timed),
        "cycles_per_s": sum(p.cycles for p in gated) / sim_time if sim_time else 0.0,
        "events_per_s": sum(p.stats.fires + p.stats.deliveries for p in gated) / sim_time
        if sim_time else 0.0,
        "nets_per_s": len(latencies_ms) / sum(p.wall for p in timed),
        "net_p50_ms": median(latencies_ms),
        "net_p95_ms": p95(latencies_ms),
        "peak_rss_mb": rss,
    }
    detail = {"stats": stats, "passes": len(timed), "sim_passes": len(sim_passes),
              "net_samples": len(latencies_ms), "wall_samples_s": [p.wall for p in timed]}
    return metrics, detail


def measure_traced(w, seconds: float) -> tuple[dict, dict]:
    warm = [w.api_pass()]
    tracer = Tracer(w.engine_cls)
    cli = isinstance(w, CliWorkload)
    run_pass = w.main_pass if cli else w.api_pass
    untraced, traced, per_pass, advance_us = [], [], [], []

    def step():
        untraced.append(run_pass())
        gc.collect()
        with tracer.installed():
            mark = tracer.mark()
            t = run_pass()
        traced.append(t)
        figures = layer_metrics(w, t, tracer.totals(mark), tracer.root_time(mark))
        per_pass.append((figures, mark, tracer.mark()))
        gc.collect()
        with tracer.installed():
            mark = tracer.mark()
            a = w.api_pass("advance")
        adv = tracer.totals(mark).get("engine.advance")
        advance_us.append(adv.total / a.cycles * 1e6 if adv and a.cycles else 0.0)

    window(seconds, step, min_passes=2)
    imports = [w.import_time() for _ in range(IMPORT_SAMPLES)]
    w.check_oracles()
    stats = check_stats(w, warm + untraced + traced)

    # Every span figure comes from one traced pass, the one with the median
    # wall time, so the per-layer self times add up exactly to its wall time.
    per_pass.sort(key=lambda entry: entry[0]["trace.wall_s"])
    figures, start, end = per_pass[(len(per_pass) - 1) // 2]
    metrics = dict(figures)
    run_us, adv_us = metrics["engine.run_us_per_cycle"], median(advance_us)
    last = traced[-1].stats or SimStats()
    metrics.update({
        "engine.advance_us_per_cycle": adv_us,
        "engine.report_ratio": run_us / adv_us if adv_us > 0 else 0.0,
        "engine.cycles": traced[-1].cycles,
        "engine.fires": last.fires,
        "engine.deliveries": last.deliveries,
        "engine.weight_changes": last.weight_changes,
        "cli.import_s": median(imports),
        "trace.overhead_ratio": median(p.wall for p in traced) / median(p.wall for p in untraced),
    })
    spans = [{"name": s.name, "start": s.start, "end": s.end,
              "parent": s.parent - start if s.parent >= start else -1}
             for s in tracer.spans[start:end]]
    detail = {"stats": stats, "passes": len(traced), "absent_wrap_points": tracer.absent,
              "untraced_wall_s": median(p.wall for p in untraced), "median_pass_spans": spans}
    return metrics, detail


def layer_metrics(w, t, totals, root_time) -> dict:
    """Per-layer figures of one traced pass, from its span totals."""

    def self_s(name):
        return totals[name].self_time if name in totals else 0.0

    def calls(name):
        return totals[name].calls if name in totals else 0

    parse_s = self_s("ioformats.parse_network")
    run = totals.get("engine.run")
    engines = calls("engine.new_engine")
    m = {
        "ioformats.parse_network_s": parse_s,
        "ioformats.parse_network_us_per_entity":
            parse_s / w.entities() * 1e6 if calls("ioformats.parse_network") else 0.0,
        "ioformats.load_stimulus_s": self_s("ioformats.load_stimulus"),
        "ioformats.format_trace_s": self_s("ioformats.format_trace"),
        "ioformats.trace_bytes": t.output_bytes,
        "netmodel.validate_network_s": self_s("netmodel.validate_network"),
        "netmodel.validate_network_calls":
            calls("netmodel.validate_network") / engines if engines else 0.0,
        "engine.layout.build_layout_s": self_s("engine.layout.build_layout"),
        "engine.layout.check_stimulus_s": self_s("engine.layout.check_stimulus"),
        "engine.new_engine_self_s": self_s("engine.new_engine"),
        "engine.run_us_per_cycle": run.total / t.cycles * 1e6 if run and t.cycles else 0.0,
        "cli.main_self_s": self_s("cli.main"),
        "trace.wall_s": t.wall,
    }
    for layer in LAYERS:
        m[f"self.{layer.replace('.', '_')}_s"] = sum(
            v.self_time for name, v in totals.items() if layer_of(name) == layer)
    # Time inside the timed region but outside every span: the benchmark's
    # own loop and clock reads.
    m["self.unaccounted_s"] = t.wall - root_time
    return m
