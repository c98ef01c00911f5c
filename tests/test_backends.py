"""Backend construction, selection, one interface, and cross-backend equivalence."""

from __future__ import annotations

import hashlib
import os
import random
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ravensim
from fuzz import FUZZ_CYCLES, build_setup, mixed_setup, random_setup
from ravensim import (
    HardwareConstants,
    Network,
    NeuronSettings,
    SynapseSettings,
    ValidationError,
    available_backends,
    new_engine,
    new_reference_engine,
    resource_report,
    validate_network,
)
from ravensim.engine import INJECTION, Engine, Stimulus, StimulusEvent, compiled
from ravensim.engine.compiled import available as kernel_available
from ravensim.engine.layout import build_layout
from ravensim.ioformats import load_stimulus
from ravensim.netmodel import signed_range

# The kernel is built on first use wherever a C compiler is on PATH, so only
# a missing compiler may skip the compiled backend's tests.
needs_kernel = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc)")
COMPILED = pytest.param("compiled", marks=needs_kernel)


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


@needs_kernel
def test_kernel_compiles_without_warnings(tmp_path):
    # Some warnings, such as an unused static function, need code generation,
    # so the kernel is also built at -O2, as compiled.py builds it, and at
    # -O3, whose deeper analysis warns about more.
    # -Wconversion catches an implicit narrowing of the kernel's int64_t values.
    flags = ["-std=c99", "-Wall", "-Wextra", "-pedantic", "-Wconversion", "-Wshadow", "-Werror"]
    proc = subprocess.run(["cc", *flags, "-fsyntax-only", str(compiled._SOURCE)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for level in ("-O2", "-O3"):
        proc = subprocess.run(["cc", level, *flags, "-shared", "-fPIC", "-o",
                               str(tmp_path / "kernel.so"), str(compiled._SOURCE)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, (level, proc.stderr)


# A definition of an rk_* function in kernel.c: "static " or not, the return
# type, the name and the parameter list.
KERNEL_FUNCTION = re.compile(r"^(static )?([A-Za-z][^\n(;]*?)\s*\b(rk_\w+)\(([^)]*)\)\s*\{", re.M)


@needs_kernel
def test_bind_declares_exactly_the_exported_kernel_functions():
    # The ctypes boundary: _bind declares each non-static rk_* function of
    # kernel.c, and no other, with one argtype per C parameter. A pointer
    # travels as c_void_p and an int64_t as c_int64.
    import ctypes

    def ctype(decl: str):
        return ctypes.c_void_p if "*" in decl else {
            "void": None, "int64_t": ctypes.c_int64}[decl.split()[0]]

    defined = {name: (ctype(result), tuple(ctype(p) for p in params.split(",")))
               for static, result, name, params in KERNEL_FUNCTION.findall(
                   compiled._SOURCE.read_text()) if not static}
    assert {"rk_new", "rk_free", "rk_run", "rk_fired", "rk_read"} <= defined.keys()
    lib = compiled._bind(compiled._library()._name)  # a fresh CDLL: only _bind's lookups
    declared = {name: (function.restype, tuple(function.argtypes))
                for name, function in vars(lib).items() if name.startswith("rk_")}
    assert declared == defined


def test_int64s_packs_columns_end_to_end():
    top = (1 << 63) - 1
    columns = ([], [0, -1, top, -top], [], [-(1 << 63)], [5, -7], [])
    assert compiled._int64s(*columns) == struct.pack(
        "7q", *[value for column in columns for value in column])
    assert compiled._int64s() == compiled._int64s([], []) == b""
    assert compiled._int64s(range(3), (4,)) == struct.pack("4q", 0, 1, 2, 4)


# Runs in a child process over a kernel library built elsewhere (argv[1]):
# every golden, a 256-neuron STDP network, the 1024-neuron, 16k-synapse STDP
# shape of the dense benchmark (most neurons exceed every cycle, so the STDP
# loops visit most synapses), a 64-neuron network with every feature,
# neurons with no synapses, no stimulus and an empty STDP table
# (zero-size ranges in the kernel's state block) and the empty network,
# compiled against python. Exit 77 when the library cannot be loaded here.
SANITIZED_RUN = """
import sys
from dataclasses import replace
from fuzz import build_setup, mixed_setup
from ravensim import (HardwareConstants, Network, NeuronSettings, SynapseSettings, goldens,
                      new_engine)
from ravensim.engine import Stimulus, StimulusEvent, compiled

try:
    lib = compiled._bind(sys.argv[1])
except OSError:
    sys.exit(77)
compiled._library = lambda: lib
setups = [(case.name, case.network, case.hardware, case.stimulus, case.cycles)
          for case in goldens.discover_cases()]
setups.append(("stdp_256", *build_setup(256, 8, 4, stdp=True, seed=7), 300))
setups.append(("stdp_1024", *build_setup(1024, 16, 4, stdp=True, seed=7), 20))
net, hw, stim = build_setup(256, 8, 4, stdp=True, seed=7)
setups.append(("stdp_off_256", replace(net, stdp_enabled=False), hw, stim, 300))  # table_len 0
setups.append(("mixed_64", *mixed_setup(64, 8, True, 200, seed=3), 200))
hw = HardwareConstants(accumulator_width=8, threshold_width=4, weight_width=4, max_delay=2,
                       max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=2,
                       injection_ports=0)
lonely = (NeuronSettings("A", threshold=1, standard_resting=3, leak=1),
          NeuronSettings("B", threshold=2, abs_refractory=1))
setups.append(("no_synapses", Network(lonely, ()), hw, Stimulus(), 20))
setups.append(("empty", Network((), ()), hw, Stimulus(), 20))
# The longest delay only on the last synapse: rk_new must read every delay.
ping = (SynapseSettings("A", "B", 2, 0), SynapseSettings("B", "A", 2, 1),
        SynapseSettings("A", "B", 2, 2))
setups.append(("last_delay_longest", Network(lonely, ping), hw,
               Stimulus((StimulusEvent(0, "A"),)), 50))
for name, net, hw, stim, cycles in setups:
    py = new_engine(net, hw, stim, backend="python")
    ck = new_engine(net, hw, stim, backend="compiled")
    assert ck.run(cycles) == py.run(cycles), name
    ck.advance(cycles)
    py.advance(cycles)
    assert ck.charges() == py.charges(), name
    assert ck.weights() == py.weights(), name
    assert ck.phases() == py.phases(), name
print(len(setups), "setups")
"""


def sanitized_run(tmp_path, golden_cases, sanitizer: str, env: dict[str, str]):
    """SANITIZED_RUN in a child over kernel.c built with -fsanitize=sanitizer,
    which aborts on the first fault it detects; skips where that cannot run."""
    library = tmp_path / f"kernel-{sanitizer}.so"
    flags = ["-O1", "-g", "-std=c99", "-shared", "-fPIC", f"-fsanitize={sanitizer}",
             "-fno-sanitize-recover=all"]
    build = subprocess.run(["cc", *flags, "-o", str(library), str(compiled._SOURCE)],
                           capture_output=True, text=True)
    if build.returncode != 0:
        pytest.skip(f"no {sanitizer} sanitizer here: {build.stderr.strip()[-200:]}")
    src = Path(ravensim.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), str(Path(__file__).parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SANITIZED_RUN, str(library)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path, **env})
    if proc.returncode == 77:
        pytest.skip("the sanitizer runtime cannot be loaded here")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(golden_cases) + 7} setups\n"
    return proc


@needs_kernel
def test_kernel_has_no_undefined_behaviour(tmp_path, golden_cases):
    # Signed overflow, shifts out of range, misaligned or null accesses, ...
    proc = sanitized_run(tmp_path, golden_cases, "undefined",
                         {"UBSAN_OPTIONS": "print_stacktrace=1"})
    assert "runtime error" not in proc.stderr


@needs_kernel
def test_kernel_makes_no_bad_memory_access(tmp_path, golden_cases):
    # Heap overruns and uses after free, which UBSan does not see: the state
    # block's ranges, the ring growth and the fired log's copy. The runtime
    # must be loaded before the python executable's own libraries; the
    # interpreter's allocations are never freed, so leaks are not reported.
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.isfile(runtime):
        pytest.skip("no AddressSanitizer runtime to preload here")
    sanitized_run(tmp_path, golden_cases, "address",
                  {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"})


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
    # The three injection rules on an in-code stimulus: the neuron must
    # accept injection, the hardware must have injection ports, and the
    # value must fit them.
    inject = Stimulus((StimulusEvent(0, "A", INJECTION, 3),))
    with pytest.raises(ValueError, match="does not have injection enabled"):
        new_engine(net, hw, inject)
    injectable = Network((NeuronSettings("A", threshold=1, injection=True),), ())
    with pytest.raises(ValueError, match="no injection ports"):
        new_engine(injectable, hw, inject)
    two_ports = HardwareConstants(
        accumulator_width=8, threshold_width=4, weight_width=4, max_delay=2,
        max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=2,
        injection_ports=2)
    with pytest.raises(ValueError, match=r"injection value 3 outside \[-2, 1\]"):
        new_engine(injectable, two_ports, inject)
    fits = Stimulus((StimulusEvent(0, "A", INJECTION, -2),))
    assert new_engine(injectable, two_ports, fits).run(1)[0].charges == {"A": -2}
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
def test_delivery_recording_requires_python_backend():
    net, hw, stim = tiny_setup()
    with pytest.raises(ValueError, match="delivery recording"):
        new_engine(net, hw, stim, backend="compiled", record_deliveries=True)
    assert new_engine(net, hw, stim, record_deliveries=True).backend == "python"


@pytest.mark.parametrize("backend", [COMPILED, "reference"])
def test_backend_matches_python_on_goldens(backend, golden_cases):
    for case in golden_cases:
        py = new_engine(case.network, case.hardware, case.stimulus, backend="python")
        other = new_engine(case.network, case.hardware, case.stimulus, backend=backend)
        assert other.run(case.cycles) == py.run(case.cycles), case.name
        assert other.charges() == py.charges(), case.name
        assert other.weights() == py.weights(), case.name
        assert other.phases() == py.phases(), case.name


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


@pytest.mark.parametrize("backend", ["python", COMPILED, "reference"])
def test_advance_equals_stepping(backend):
    net, hw, stim = build_setup(8, 2, 2, stdp=True, seed=3)
    stepped = new_engine(net, hw, stim, backend=backend)
    for _ in range(40):
        stepped.step()
    advanced = new_engine(net, hw, stim, backend=backend)
    advanced.advance(40)
    assert type(advanced) is Engine
    assert advanced.backend == backend
    assert advanced.cycle == stepped.cycle == 40
    assert advanced.charges() == stepped.charges()
    assert advanced.weights() == stepped.weights()
    assert advanced.phases() == stepped.phases()
    for method in (advanced.run, advanced.advance):
        with pytest.raises(ValueError, match="cycle count"):
            method(-1)
    assert advanced.cycle == 40
    assert advanced.run(0) == []


@pytest.mark.parametrize("backend", ["python", COMPILED, "reference"])
@pytest.mark.parametrize("count", [1 << 63, (1 << 64) + 5], ids=["2**63", "2**64+5"])
def test_advance_refuses_counts_beyond_int64(backend, count):
    # The kernel counts cycles in int64_t, where a larger count would wrap;
    # every backend refuses one before running any cycle.
    engine = new_engine(*build_setup(8, 2, 2, stdp=True, seed=3), backend=backend)
    engine.advance(5)
    state = (engine.cycle, engine.charges(), engine.weights(), engine.phases())
    with pytest.raises(ValueError, match="cycle count"):
        engine.advance(count)
    assert (engine.cycle, engine.charges(), engine.weights(), engine.phases()) == state


# The reference engine rescans every synapse per crossing, so it runs fewer cycles.
TWIN_CYCLES = {"python": 200, "compiled": 1000, "reference": 50}


@pytest.mark.parametrize("backend", ["python", COMPILED, "reference"])
def test_run_equals_stepping_a_twin(backend, golden_cases):
    setups = [(case.name, case.network, case.hardware, case.stimulus, case.cycles)
              for case in golden_cases]
    # 128 neurons with STDP, the bench shape whose delivery ring slots grow.
    setups.append(("bench", *build_setup(128, 8, 4, stdp=True, seed=2), TWIN_CYCLES[backend]))
    for name, net, hw, stim, cycles in setups:
        ran = new_engine(net, hw, stim, backend=backend)
        twin = new_engine(net, hw, stim, backend=backend)
        assert ran.run(cycles) == [twin.step() for _ in range(cycles)], name
        assert ran.cycle == twin.cycle == cycles, name
        assert ran.charges() == twin.charges(), name
        assert ran.weights() == twin.weights(), name
        assert ran.phases() == twin.phases(), name


def twins(net, hw, stim):
    return (new_engine(net, hw, stim, backend="python"),
            new_engine(net, hw, stim, backend="compiled"))


def assert_same_run(py, ck, cycles):
    a, b = py.run(cycles), ck.run(cycles)
    assert b == a
    assert (b.fired, b.counts) == (a.fired, a.counts)
    assert len(b.fired) == sum(b.counts)
    return b


@needs_kernel
def test_fired_log_restarts_with_every_run():
    # The kernel logs the fired indices of one run and copies them out after
    # it; each trace holds its own cycles' fires and no earlier ones, also
    # after an empty run and after cycles advanced without a trace.
    py, ck = twins(*build_setup(128, 8, 4, stdp=True, seed=5))
    for cycles in (0, 1, 3, 0, 7, 1):
        assert_same_run(py, ck, cycles)
    py.advance(5)
    ck.advance(5)
    assert_same_run(py, ck, 4)
    assert ck.run(0) == [] and len(ck.run(0).fired) == 0
    assert ck.cycle == py.cycle == 21
    assert ck.charges() == py.charges()
    assert ck.weights() == py.weights()


@needs_kernel
def test_fired_log_grows_to_every_neuron_every_cycle():
    # A zero-delay self-synapse re-fires every neuron in every cycle after
    # the kick at cycle 0: the log holds n x cycles indices.
    names = [f"n{i}" for i in range(64)]
    net = Network(tuple(NeuronSettings(name, threshold=1) for name in names),
                  tuple(SynapseSettings(name, name, 2) for name in names),
                  input_spike_amount=2)
    _, hw, _ = tiny_setup()
    py, ck = twins(net, hw, Stimulus(tuple(StimulusEvent(0, name) for name in names)))
    assert list(assert_same_run(py, ck, 1).counts) == [0]
    trace = assert_same_run(py, ck, 100)
    assert list(trace.fired) == list(range(64)) * 100

    quiet = twins(net, hw, Stimulus())
    trace = assert_same_run(*quiet, 50)
    assert list(trace.counts) == [0] * 50 and len(trace.fired) == 0


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


@pytest.mark.parametrize("backend", ["reference", COMPILED])
def test_backends_agree_on_the_dense_benchmark_shape(backend):
    # 1024 neurons and 16384 synapses with STDP on, most of them firing
    # every cycle: the size the per-call setup of new_engine is tuned for.
    net, hw, stim = build_setup(1024, 16, 4, True, seed=7)
    assert (len(net.neurons), len(net.synapses)) == (1024, 16384)
    py = new_engine(net, hw, stim, backend="python")
    other = new_engine(net, hw, stim, backend=backend)
    trace = py.run(20)
    assert other.run(20) == trace
    assert sum(trace.counts) > 10 * 1024
    assert other.charges() == py.charges()
    assert other.weights() == py.weights() != list(net.synapses.weight)
    assert other.phases() == py.phases()


def delay_setup(max_delay: int, delays: tuple[int, ...]):
    """Neurons A and B with synapses of the given delays, A->B, B->A, A->B
    and so on, on hardware allowing delays up to max_delay. A kick at
    cycles 0 and 4 fires A, which fires B when the first synapse delivers."""
    net = Network((NeuronSettings("A", threshold=2), NeuronSettings("B", threshold=2)),
                  tuple(SynapseSettings("AB"[j % 2], "BA"[j % 2], 3, delay)
                        for j, delay in enumerate(delays)),
                  stdp_enabled=True, input_spike_amount=3)
    hw = HardwareConstants(
        accumulator_width=8, threshold_width=4, weight_width=4, max_delay=max_delay,
        max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=4,
        injection_ports=0, stdp_table=(1, 2, -1))
    return net, hw, Stimulus((StimulusEvent(0, "A"), StimulusEvent(4, "A")))


DELAY_SETS = [(), (1,), (0, 3, 1, 2, 0, 3, 1)]
DELAY_SET_IDS = ["no_synapses", "one_synapse", "seven_synapses"]


@pytest.mark.parametrize("delays, longest", zip(DELAY_SETS, [0, 1, 3]), ids=DELAY_SET_IDS)
def test_report_names_the_longest_delay_in_use(delays, longest):
    net, hw, _ = delay_setup(2**40, delays)
    assert validate_network(net, hw).ok
    assert f"longest delay: {longest}" in resource_report(net, hw).splitlines()


@pytest.mark.parametrize("delays", DELAY_SETS, ids=DELAY_SET_IDS)
@pytest.mark.parametrize("backend", [COMPILED, "reference"])
def test_backends_agree_whatever_the_delays_in_use(backend, delays):
    # The kernel sizes its ring from the delays it is given; 2**40 allows
    # far longer ones than any in use.
    net, hw, stim = delay_setup(2**40, delays)
    py = new_engine(net, hw, stim, backend="python")
    other = new_engine(net, hw, stim, backend=backend)
    assert other.run(12) == py.run(12)
    assert other.charges() == py.charges()
    assert other.weights() == py.weights()
    assert other.phases() == py.phases()


@pytest.mark.parametrize("backend", ["python", COMPILED, "reference"])
def test_stdp_off_changes_no_weight_whatever_the_table(backend):
    on, hw, stim = delay_setup(2**40, DELAY_SETS[-1])
    off = replace(on, stdp_enabled=False)
    assert hw.stdp_table and build_layout(off, hw, stim).stdp_table == ()
    plastic = new_engine(on, hw, stim, backend=backend)
    plastic.run(12)
    assert plastic.weights() != list(on.synapses.weight)  # the same input moves weights
    engine = new_engine(off, hw, stim, backend=backend)
    for _ in range(12):
        engine.step()
        assert engine.weights() == list(off.synapses.weight)


@pytest.mark.parametrize("backend", [COMPILED, "reference"])
def test_hardware_max_delay_sizes_no_engine(backend):
    # Delays of up to 2**40 cycles are allowed, and one of 1 is in use: the
    # ring is sized by the delay, so every backend builds and runs alike.
    net, hw, stim = delay_setup(2**40, (1,))
    py = new_engine(net, hw, stim, backend="python")
    other = new_engine(net, hw, stim, backend=backend)
    trace = py.run(10)
    assert other.run(10) == trace
    assert [report.fired for report in trace if report.fired] == [("A",), ("B",)] * 2
    assert other.charges() == py.charges()
    assert other.weights() == py.weights() != list(net.synapses.weight)
    assert other.phases() == py.phases()


LONG_RUN = """
import resource, sys
from ravensim import HardwareConstants, Network, NeuronSettings, SynapseSettings, new_engine
from ravensim.engine import Stimulus, StimulusEvent
net = Network((NeuronSettings("A", threshold=1),), (SynapseSettings("A", "A", 2, 3),),
              input_spike_amount=2)
hw = HardwareConstants(accumulator_width=8, threshold_width=4, weight_width=4, max_delay=4,
                       max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=2,
                       injection_ports=0)
engine = new_engine(net, hw, Stimulus((StimulusEvent(0, "A"),)), backend=sys.argv[1])
engine.advance(1000)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
engine.advance(200000)
print(sum(engine.run(8).counts), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


@pytest.mark.parametrize("backend", ["python", COMPILED, "reference"])
def test_long_runs_hold_no_more_memory(backend):
    # A self-loop of delay 3 fires its neuron every fourth cycle. After
    # 200,000 more cycles, the peak resident size of a fresh process, which
    # bounds the memory its engine holds, C allocations included, has grown
    # by less than 1 MB.
    src = Path(ravensim.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LONG_RUN, backend], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    fires, grown_kb = map(int, proc.stdout.split())
    assert fires == 2
    assert grown_kb < 1024


EDGE_SYNAPSES = (SynapseSettings("A", "B", 3, 0), SynapseSettings("B", "A", -2, 1))
EDGE_EVENTS = (StimulusEvent(0, "A"), StimulusEvent(1, "B", INJECTION, 3))


@pytest.mark.parametrize("backend", ["reference", COMPILED])
@pytest.mark.parametrize("n_events", [0, 1, 2])
@pytest.mark.parametrize("n_synapses", [0, 1, 2])
def test_short_endpoint_columns_run_alike_on_every_backend(n_synapses, n_events, backend):
    # build_layout looks the endpoints up with one itemgetter call per column,
    # which returns a bare value for one name and cannot be made for none.
    neurons = (NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=2, injection=True))
    net = Network(neurons, EDGE_SYNAPSES[:n_synapses], stdp_enabled=True)
    hw = HardwareConstants(
        accumulator_width=8, threshold_width=4, weight_width=4, max_delay=2,
        max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=4,
        injection_ports=3, stdp_table=(1, 2, -1))
    stim = Stimulus(EDGE_EVENTS[:n_events])
    layout = build_layout(net, hw, stim)
    index = {"A": 0, "B": 1}
    assert list(layout.syn_pre) == [index[s.pre] for s in net.synapses]
    assert list(layout.syn_post) == [index[s.post] for s in net.synapses]
    assert list(layout.ev_neuron) == [index[ev.neuron] for ev in stim.events]
    py = new_engine(net, hw, stim, backend="python")
    other = new_engine(net, hw, stim, backend=backend)
    trace = py.run(12)
    assert other.run(12) == trace
    assert sum(trace.counts) > 0 or n_events == 0
    assert other.charges() == py.charges()
    assert other.weights() == py.weights()
    assert other.phases() == py.phases()


@pytest.mark.parametrize("stdp", [False, True], ids=["stdp_off", "stdp_on"])
@pytest.mark.parametrize("n_neurons, seed", [(32, 1), (48, 2), (64, 3)])
def test_python_matches_reference_at_bench_shape(n_neurons, seed, stdp):
    # Fan-out 8, delays from 0, leak, both refractory kinds, injections and
    # a 5-entry STDP table of both signs, over 200 cycles.
    net, hw, stim = mixed_setup(n_neurons, 8, stdp, 200, seed)
    py = new_engine(net, hw, stim, backend="python")
    ref = new_engine(net, hw, stim, backend="reference")
    trace = py.run(200)
    assert ref.run(200) == trace
    assert sum(trace.counts) > 0
    assert ref.charges() == py.charges()
    assert ref.weights() == py.weights()
    assert ref.phases() == py.phases()
    assert (py.weights() != list(net.synapses.weight)) == stdp


@pytest.mark.parametrize("other", ["python", "reference"])
@pytest.mark.parametrize("stdp", [False, True], ids=["stdp_off", "stdp_on"])
@pytest.mark.parametrize("n_neurons, seed", [(32, 1), (48, 2), (64, 3)])
@needs_kernel
def test_compiled_matches_other_backends_on_every_feature(n_neurons, seed, stdp, other):
    # The networks of test_python_matches_reference_at_bench_shape: leaks,
    # negative restings, both refractory kinds, injections and STDP.
    net, hw, stim = mixed_setup(n_neurons, 8, stdp, 200, seed)
    ck = new_engine(net, hw, stim, backend="compiled")
    ref = new_engine(net, hw, stim, backend=other)
    trace = ck.run(200)
    assert ref.run(200) == trace
    assert sum(trace.counts) > 0
    assert ck.charges() == ref.charges()
    assert ck.weights() == ref.weights()
    assert ck.phases() == ref.phases()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the validator bounds one cycle of synaptic input from zero "
                   "and ignores duplicate stimulus events")
@pytest.mark.parametrize("backend", ["python", COMPILED, "reference"])
def test_charges_stay_inside_the_accumulator_width(backend):
    # The network validates, yet two input spikes of 7 in one cycle charge
    # the neuron to 14, outside the 4-bit accumulator's [-8, 7]. A validator
    # that refuses the network closes the gap as well.
    hw = HardwareConstants(
        accumulator_width=4, threshold_width=3, weight_width=3, max_delay=1,
        max_leak=1, max_abs_refractory=1, max_rel_refractory=1, ports=1,
        injection_ports=0)
    net = Network((NeuronSettings("a", threshold=1),), (), input_spike_amount=7)
    if not validate_network(net, hw).ok:
        return
    engine = new_engine(net, hw, load_stimulus("AS 0 a\nAS 0 a\n", net, hw), backend=backend)
    lo, hi = signed_range(hw.accumulator_width)
    for report in engine.run(3):
        assert all(lo <= charge <= hi for charge in report.charges.values()), report
