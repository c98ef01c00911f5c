"""Tests of the benchmark itself: python -m pytest bench -q"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import gates
import gen
import spans
import workloads
from ravensim import new_engine

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _texts(case: gen.Case) -> tuple[str, str, str]:
    return case.hardware_text(), case.network_text(), case.stimulus_text()


@pytest.mark.parametrize("make", [gen.cli_sparse_case, gen.dense_stdp_case,
                                  lambda seed: gen.sweep_cases(seed, count=8)[7]])
def test_generator_same_seed_same_inputs(make):
    a, b, c = make(3), make(3), make(4)
    assert _texts(a) == _texts(b)
    assert a.net == b.net and a.hw == b.hw and a.stim == b.stim
    assert _texts(a)[1] != _texts(c)[1]
    assert _texts(a)[2] != _texts(c)[2] or a.name.startswith("engine_dense")


def test_generator_sizes_do_not_depend_on_seed():
    for seed in (1, 2):
        cli = gen.cli_sparse_case(seed)
        assert len(cli.net.neurons) == 1024 and len(cli.net.synapses) == 1024 * 16
        assert not cli.net.stdp_enabled
        dense = gen.dense_stdp_case(seed)
        assert len(dense.net.synapses) == 1024 * 16 and dense.net.stdp_enabled
    sizes = lambda seed: sorted(len(c.net.neurons) for c in gen.sweep_cases(seed, count=20))
    assert sizes(1) == sizes(2)


def test_count_deliveries_matches_the_engine_delivery_log():
    for case in gen.sweep_cases(5, count=6):
        engine = new_engine(case.net, case.hw, case.stim, backend="python",
                            record_deliveries=True)
        trace = engine.run(case.cycles)
        assert gates.count_deliveries(case.net, trace, case.cycles) == len(engine.delivery_log)


def test_render_jsonl_matches_the_cli_format():
    from ravensim.ioformats import format_trace

    case = gen.sweep_cases(2, count=3)[2]
    trace = new_engine(case.net, case.hw, case.stim).run(case.cycles)
    assert gates.render_jsonl(trace) == format_trace(trace, mode="jsonl").encode()


def _small_sweep(tmp_path, count=3) -> workloads.SweepWorkload:
    w = workloads.SweepWorkload(9, tmp_path)
    w.cases, w.texts = w.cases[:count], w.texts[:count]
    return w


def _corrupting(monkeypatch, engine_cls):
    original = engine_cls.run

    def run(self, n):
        trace = original(self, n)
        last = trace[-1]
        name = next(iter(last.charges))
        last.charges[name] += 1
        return trace

    monkeypatch.setattr(engine_cls, "run", run)


def test_gate_counts_a_corrupted_trace_as_a_failed_operation(tmp_path, monkeypatch):
    w = _small_sweep(tmp_path)
    w.api_pass()
    assert (w.gate.attempted, w.gate.failed) == (3, 0)
    _corrupting(monkeypatch, w.engine_cls)
    w.api_pass()
    assert (w.gate.attempted, w.gate.failed) == (6, 3)
    assert not w.gate.ok


def test_oracle_fails_every_operation_that_matched_a_corrupted_first_pass(tmp_path, monkeypatch):
    w = _small_sweep(tmp_path)
    with monkeypatch.context() as m:
        _corrupting(m, new_engine(w.cases[0].net, w.cases[0].hw).__class__)
        w.api_pass()
        w.api_pass()
    assert w.gate.failed == 0
    w.check_oracles()
    assert (w.gate.attempted, w.gate.failed) == (6, 6)


def test_gate_counts_corrupted_cli_output_as_a_failed_operation(tmp_path):
    w = workloads.CliWorkload(1, tmp_path)
    w.api_pass()
    good = gates.render_jsonl(new_engine(w.cases[0].net, w.cases[0].hw, w.cases[0].stim)
                              .run(w.cases[0].cycles))
    w.out_path.write_bytes(good)
    assert w._output_op("cli", 0.1, 0).stats is not None
    w.out_path.write_bytes(good.replace(b'"charges": {"n0": ', b'"charges": {"n0": 1', 1))
    assert w._output_op("cli", 0.1, 0).stats is None
    w._output_op("cli", 0.1, 2)
    assert (w.gate.attempted, w.gate.failed) == (4, 2)


def test_tracer_reports_absent_wrap_points_and_self_times_add_up(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "MODULE_POINTS", spans.MODULE_POINTS + (
        ("ravensim.ioformats", "no_such_function", "ioformats.no_such_function"),
        ("ravensim.no_such_module", "f", "x.f")))
    w = _small_sweep(tmp_path, count=2)
    w.api_pass()
    tracer = spans.Tracer(w.engine_cls)
    assert "ravensim.ioformats.no_such_function" in tracer.absent
    assert "ravensim.no_such_module.f" in tracer.absent
    with tracer.installed():
        p = w.api_pass()
    totals = tracer.totals()
    assert totals["engine.new_engine"].calls == 2
    assert totals["netmodel.validate_network"].calls == 4
    assert "ioformats.no_such_function" not in totals
    assert sum(t.self_time for t in totals.values()) == pytest.approx(tracer.root_time())
    assert tracer.root_time() <= p.wall
    # Originals are restored once the traced pass ends.
    import ravensim.engine
    assert not hasattr(ravensim.engine.build_layout, "__wrapped__")
    assert not hasattr(w.engine_cls.run, "__wrapped__")


def test_every_listed_metric_has_a_unique_valid_name():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
