"""Backend construction, selection and python/compiled equivalence."""

from __future__ import annotations

import hashlib
import random
import shutil

import pytest

from fuzz import FUZZ_CYCLES, build_setup, random_setup
from ravensim import (
    HardwareConstants,
    Network,
    NeuronSettings,
    ValidationError,
    available_backends,
    new_engine,
    new_reference_engine,
)
from ravensim.cli import EXIT_OK, main
from ravensim.engine import Stimulus, StimulusEvent, compiled
from ravensim.engine.compiled import available as kernel_available
from ravensim.ioformats import load_stimulus, parse_trace_jsonl, save_hardware, save_network

# The kernel is built on first use wherever a C compiler is on PATH, so only
# a missing compiler may skip the compiled backend's tests.
needs_kernel = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc)")


def tiny_setup():
    net = Network((NeuronSettings("A", threshold=1),), (), input_spike_amount=2)
    hw = HardwareConstants(
        accumulator_width=8, threshold_width=4, weight_width=4, max_delay=2,
        max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=2,
        injection_ports=0)
    return net, hw, Stimulus((StimulusEvent(0, "A"),))


def test_python_backend_always_available():
    assert "python" in available_backends()


@needs_kernel
def test_kernel_builds_wherever_cc_exists():
    assert "compiled" in available_backends()


def test_kernel_build_fails_soft(monkeypatch, tmp_path):
    # A source that does not compile, a directory that cannot take the
    # library, then no compiler at all; none leaves a file behind.
    broken = tmp_path / "kernel.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(compiled, "_SOURCE", broken)
    assert not compiled._build(tmp_path / "kernel.so")
    assert not compiled._build(tmp_path / "missing" / "kernel.so")
    monkeypatch.setattr(shutil, "which", lambda name: None)
    assert not compiled._build(tmp_path / "kernel.so")
    assert list(tmp_path.iterdir()) == [broken]

    monkeypatch.setattr(compiled, "available", lambda: False)
    net, hw, stim = tiny_setup()
    assert available_backends() == ["python"]
    assert new_engine(net, hw, stim).backend == "python"
    with pytest.raises(ValueError, match="cannot be built"):
        new_engine(net, hw, stim, backend="compiled")


@needs_kernel
def test_build_deletes_stale_kernel_libraries(monkeypatch, tmp_path):
    source = tmp_path / "kernel.c"
    source.write_bytes(compiled._SOURCE.read_bytes())
    stale = tmp_path / "_kernel-deadbeef.so"
    stale.write_bytes(b"built from an earlier kernel.c")
    monkeypatch.setattr(compiled, "_SOURCE", source)
    compiled._library.cache_clear()
    try:
        assert compiled.available()
    finally:
        compiled._library.cache_clear()
    assert not stale.exists()
    assert [path.name for path in tmp_path.glob("_kernel-*.so")] == [
        f"_kernel-{hashlib.sha256(source.read_bytes()).hexdigest()}.so"]


def test_new_engine_validates():
    net, hw, stim = tiny_setup()
    bad = Network((NeuronSettings("A", threshold=99),), ())
    with pytest.raises(ValidationError):
        new_engine(bad, hw)
    with pytest.raises(ValueError, match="unknown neuron"):
        new_engine(net, hw, Stimulus((StimulusEvent(0, "Z"),)))
    # Backend arguments are rejected before the network is even validated.
    with pytest.raises(ValueError, match="unknown backend"):
        new_engine(bad, hw, stim, backend="gpu")
    with pytest.raises(ValueError, match="delivery recording"):
        new_engine(bad, hw, stim, backend="reference", record_deliveries=True)


def test_backend_attribute_names_the_implementation():
    net, hw, stim = tiny_setup()
    assert new_engine(net, hw, stim, backend="python").backend == "python"
    assert new_reference_engine(net, hw, stim).backend == "reference"
    if kernel_available():
        assert new_engine(net, hw, stim, backend="compiled").backend == "compiled"
        assert new_engine(net, hw, stim, backend="auto").backend == "compiled"


@needs_kernel
def test_wide_accumulators_fall_back_to_python():
    net, hw, stim = tiny_setup()
    wide = HardwareConstants(
        accumulator_width=80, threshold_width=4, weight_width=4, max_delay=2,
        max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=2,
        injection_ports=0)
    assert new_engine(net, wide, stim, backend="auto").backend == "python"
    with pytest.raises(ValueError, match="bit widths"):
        new_engine(net, wide, stim, backend="compiled")


@needs_kernel
def test_delivery_recording_requires_python_backend():
    net, hw, stim = tiny_setup()
    with pytest.raises(ValueError, match="delivery recording"):
        new_engine(net, hw, stim, backend="compiled", record_deliveries=True)
    assert new_engine(net, hw, stim, record_deliveries=True).backend == "python"


@needs_kernel
def test_compiled_matches_python_on_goldens(golden_cases):
    for case in golden_cases:
        py = new_engine(case.network, case.hardware, case.stimulus,
                        backend="python")
        ck = new_engine(case.network, case.hardware, case.stimulus,
                        backend="compiled")
        assert ck.run(case.cycles) == py.run(case.cycles), case.name
        assert ck.charges() == py.charges()
        assert ck.weights() == py.weights()
        assert ck.phases() == py.phases()


@needs_kernel
def test_compiled_matches_python_on_random_networks():
    rng = random.Random(0xC0DE)
    for trial in range(300):
        net, hw, stim = random_setup(rng)
        py = new_engine(net, hw, stim, backend="python")
        ck = new_engine(net, hw, stim, backend="compiled")
        for cycle in range(FUZZ_CYCLES):
            a, b = py.step(), ck.step()
            assert a == b, f"trial {trial} cycle {cycle}"
        assert py.weights() == ck.weights(), f"trial {trial}"
        assert py.phases() == ck.phases(), f"trial {trial}"


@needs_kernel
def test_compiled_advance_equals_stepping():
    net, hw, stim = tiny_setup()
    stepped = new_engine(net, hw, stim, backend="compiled")
    for _ in range(40):
        stepped.step()
    advanced = new_engine(net, hw, stim, backend="compiled")
    advanced.advance(40)
    assert advanced.cycle == stepped.cycle == 40
    assert advanced.charges() == stepped.charges()
    assert advanced.weights() == stepped.weights()
    assert advanced.phases() == stepped.phases()


@needs_kernel
@pytest.mark.parametrize("stdp", [False, True], ids=["stdp_off", "stdp_on"])
@pytest.mark.parametrize("n_neurons, fan_out, max_delay", [
    (128, 8, 4),  # the bench shape: delivery ring slots grow to hundreds of entries
    (0, 8, 4),
    (16, 0, 4),
    (16, 8, 0),
], ids=["bench", "empty_network", "no_synapses", "one_ring_slot"])
def test_compiled_matches_python_at_bench_scale(n_neurons, fan_out, max_delay, stdp):
    net, hw, stim = build_setup(n_neurons, fan_out, max_delay, stdp, seed=1)
    py = new_engine(net, hw, stim, backend="python")
    ck = new_engine(net, hw, stim, backend="compiled")
    assert ck.run(50) == py.run(50)
    py.advance(950)
    ck.advance(950)
    assert ck.cycle == py.cycle == 1000
    assert ck.charges() == py.charges()
    assert ck.weights() == py.weights()
    assert ck.phases() == py.phases()


def overflow_setup(width: int, amount: int, stim_text: str):
    hw = HardwareConstants(
        accumulator_width=width, threshold_width=4, weight_width=4, max_delay=2,
        max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=2,
        injection_ports=0)
    net = Network((NeuronSettings("A", threshold=1),), (), input_spike_amount=amount)
    return net, hw, load_stimulus(stim_text, net, hw)


# Inputs the kernel cannot hold in int64_t: five input spikes of 2**61 - 1
# on one neuron in one cycle, or a stimulus cycle above 2**63. The last
# entry is the charge of A after cycle 0.
OVERFLOWS = {
    "duplicate_events": (62, (1 << 61) - 1, "AS 0 A\n" * 5, 11529215046068469755),
    "huge_cycle": (8, 2, "AS 0 A\nAS 99999999999999999999 A\n", 2),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_values_beyond_int64_stay_on_python(name, tmp_path, capsys):
    width, amount, stim_text, charge = OVERFLOWS[name]
    net, hw, stim = overflow_setup(width, amount, stim_text)
    auto = new_engine(net, hw, stim)
    assert auto.backend == "python"
    trace = auto.run(3)
    assert trace == new_engine(net, hw, stim, backend="python").run(3)
    assert trace[0].charges == {"A": charge}
    assert trace[1].fired == ("A",)
    with pytest.raises(ValueError, match="64-bit" if kernel_available() else "cannot be built"):
        new_engine(net, hw, stim, backend="compiled")

    paths = {"hw": save_hardware(hw), "net": save_network(net), "stim": stim_text}
    argv = ["run", "--cycles", "3", "--format", "jsonl"]
    for flag, text in paths.items():
        (tmp_path / flag).write_text(text)
        argv += [f"--{flag}", str(tmp_path / flag)]
    assert main(argv) == EXIT_OK
    assert parse_trace_jsonl(capsys.readouterr().out) == trace

    if kernel_available():
        # The first stimulus line alone fits.
        fits = overflow_setup(width, amount, stim_text.splitlines()[0])
        assert new_engine(*fits).backend == "compiled"

