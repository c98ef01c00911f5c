"""One int64 domain: every backend computes in int64, and the hardware and
stimulus rules that keep it so hold at their bounds on every backend.

Each rule is tested as a pair: the last value it accepts runs alike on
python, compiled and reference, through the API and the CLI; the first value
it refuses is refused on every backend, with one error line and exit 2 from
the CLI.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import replace

import pytest

from fuzz import random_setup
from ravensim import HardwareConstants, Network, NeuronSettings, SynapseSettings, new_engine
from ravensim.cli import EXIT_OK, EXIT_USAGE, main
from ravensim.engine import BACKENDS, Stimulus, StimulusEvent
from ravensim.ioformats import FormatError, format_trace, load_stimulus, save_hardware, save_network

HAS_CC = shutil.which("cc") is not None
RUNNING = ["python", "reference"] + (["compiled"] if HAS_CC else [])
CYCLES = 12
INT64_MAX = (1 << 63) - 1


def extreme_setup(**changes) -> tuple[Network, HardwareConstants, str]:
    """Two neurons that excite and inhibit each other with the widest weights
    and the largest input spike the hardware allows, STDP on, and the text of
    a stimulus that kicks both. changes edit the hardware."""
    fields = dict(accumulator_width=8, threshold_width=4, weight_width=4, max_delay=2,
                  max_leak=2, max_abs_refractory=2, max_rel_refractory=2, ports=1,
                  injection_ports=0, stdp_table=(1, 2, -1))
    hw = HardwareConstants(**{**fields, **changes})
    top = 1 << (hw.weight_width - 1)
    net = Network((NeuronSettings("A", threshold=1, leak=min(hw.max_leak, 1)),
                   NeuronSettings("B", threshold=1, abs_refractory=min(hw.max_abs_refractory, 1))),
                  (SynapseSettings("A", "B", top - 1, 1), SynapseSettings("B", "A", -top, 0)),
                  stdp_enabled=True, input_spike_amount=(1 << (hw.accumulator_width - 1)) - 1)
    return net, hw, "AS 0 A\nAS 1 A\nAS 4 B\nAS 5 A\n"


def run_cli(tmp_path, capsys, hw_text: str, net_text: str, stim_text: str,
            backend: str) -> tuple[int, str, str]:
    """ravensim run over the three texts: the exit status, stdout and stderr."""
    argv = ["run", "--cycles", str(CYCLES), "--format", "jsonl", "--backend", backend]
    for option, text in (("hw", hw_text), ("net", net_text), ("stim", stim_text)):
        path = tmp_path / option
        path.write_text(text)
        argv += [f"--{option}", str(path)]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def assert_runs_alike(net: Network, hw: HardwareConstants, stim_text: str, tmp_path, capsys):
    """Equal traces and states on every backend, and the same jsonl from the CLI."""
    stim = load_stimulus(stim_text, net, hw)
    engines = [new_engine(net, hw, stim, backend=backend) for backend in RUNNING]
    traces = [engine.run(CYCLES) for engine in engines]
    for engine, trace in zip(engines[1:], traces[1:]):
        assert trace == traces[0], engine.backend
        assert engine.charges() == engines[0].charges(), engine.backend
        assert engine.weights() == engines[0].weights(), engine.backend
        assert engine.phases() == engines[0].phases(), engine.backend
    if HAS_CC:
        assert new_engine(net, hw, stim).backend == "compiled"
    expected = format_trace(traces[0], "jsonl")
    for backend in BACKENDS if HAS_CC else RUNNING:
        run = run_cli(tmp_path, capsys, save_hardware(hw), save_network(net), stim_text, backend)
        assert run == (EXIT_OK, expected, ""), backend
    return traces[0], engines[0]


def assert_refused_by_cli(tmp_path, capsys, texts: tuple[str, str, str], error: str):
    for backend in BACKENDS if HAS_CC else RUNNING:
        assert run_cli(tmp_path, capsys, *texts, backend) == (EXIT_USAGE, "", f"error: {error}\n")


LAST = (1 << 62) - 1  # the largest duration, delay or STDP magnitude accepted
ACCEPTED = {
    "widths_62": dict(accumulator_width=62, threshold_width=62, weight_width=62,
                      stdp_table=(-1, -2, 1)),
    "max_delay": dict(max_delay=LAST),
    "max_leak": dict(max_leak=LAST),
    "max_abs_refractory": dict(max_abs_refractory=LAST),
    "max_rel_refractory": dict(max_rel_refractory=LAST),
    "stdp_positive": dict(stdp_table=(LAST,) * 3),
    "stdp_negative": dict(stdp_table=(-LAST,) * 3),
}


@pytest.mark.parametrize("changes", ACCEPTED.values(), ids=ACCEPTED)
def test_hardware_at_the_int64_bounds_runs_alike_everywhere(changes, tmp_path, capsys):
    net, hw, stim_text = extreme_setup(**changes)
    trace, engine = assert_runs_alike(net, hw, stim_text, tmp_path, capsys)
    assert sum(trace.counts) > 0
    assert engine.weights() != list(net.synapses.weight)


REFUSED = [
    ("accumulator_width", 63, "accumulator_width must be <= 62"),
    ("threshold_width", 63, "threshold_width must be <= 62"),
    ("weight_width", 63, "weight_width must be <= 62"),
    ("max_delay", 1 << 62, "max_delay must be < 2**62"),
    ("max_leak", 1 << 62, "max_leak must be < 2**62"),
    ("max_abs_refractory", 1 << 62, "max_abs_refractory must be < 2**62"),
    ("max_rel_refractory", 1 << 62, "max_rel_refractory must be < 2**62"),
    ("stdp_table", (0, 1 << 62, 0), "stdp_table entries must lie in (-2**62, 2**62)"),
    ("stdp_table", (0, -(1 << 62), 0), "stdp_table entries must lie in (-2**62, 2**62)"),
]


@pytest.mark.parametrize("field, value, message", REFUSED,
                         ids=[f"{field}={value}" for field, value, _ in REFUSED])
def test_hardware_beyond_the_int64_bounds_is_refused(field, value, message, tmp_path, capsys):
    net, hw, stim_text = extreme_setup()
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(hw, **{field: value})
    doc = json.loads(save_hardware(hw))
    doc[field] = list(value) if isinstance(value, tuple) else value
    texts = (json.dumps(doc), save_network(net), stim_text)
    assert_refused_by_cli(tmp_path, capsys, texts, f"hardware file: {message}")


def test_a_stimulus_at_the_last_int64_cycle_runs_and_fires_nothing(tmp_path, capsys):
    net, hw, _ = extreme_setup()
    trace, _ = assert_runs_alike(net, hw, f"AS {INT64_MAX} A\n", tmp_path, capsys)
    assert list(trace.counts) == [0] * CYCLES


def test_a_stimulus_cycle_beyond_int64_is_refused(tmp_path, capsys):
    net, hw, _ = extreme_setup()
    stim_text = f"AS 0 B\nAS {INT64_MAX + 1} A\n"
    rule = f"cycle {INT64_MAX + 1} above 2**63 - 1"
    with pytest.raises(FormatError, match=re.escape(f"stimulus line 2: {rule}")):
        load_stimulus(stim_text, net, hw)
    stim = Stimulus((StimulusEvent(0, "B"), StimulusEvent(INT64_MAX + 1, "A")))
    for backend in BACKENDS:
        with pytest.raises(ValueError, match=re.escape(f"stimulus event #1: {rule}")):
            new_engine(net, hw, stim, backend=backend)
    texts = (save_hardware(hw), save_network(net), stim_text)
    assert_refused_by_cli(tmp_path, capsys, texts, f"stimulus line 2: {rule}")


# room = ((2**63 - 1) >> (W - 1)) - 2 events on one neuron in one cycle, W the
# widest width, keep a charge inside int64: 1 at W = 62, 13 at W = 60.
@pytest.mark.parametrize("width, room", [(62, 1), (60, 13)])
def test_events_per_neuron_and_cycle_stop_at_the_room_int64_leaves(width, room, tmp_path,
                                                                    capsys):
    net, hw, _ = extreme_setup(accumulator_width=width)
    assert room == (INT64_MAX >> (width - 1)) - 2
    crowd = "AS 2 A\n" * room
    trace, _ = assert_runs_alike(net, hw, crowd, tmp_path, capsys)
    assert trace[2].charges["A"] == room * net.input_spike_amount

    stim_text = crowd + "AS 2 B\nAS 2 A\n"  # one event too many, on line room + 2
    rule = f'more than {room} events on neuron "A" in cycle 2'
    with pytest.raises(FormatError, match=re.escape(f"stimulus line {room + 2}: {rule}")):
        load_stimulus(stim_text, net, hw)
    events = [StimulusEvent(int(line.split()[1]), line.split()[2])
              for line in stim_text.splitlines()]
    for backend in BACKENDS:
        with pytest.raises(ValueError, match=re.escape(f"stimulus event #{room + 1}: {rule}")):
            new_engine(net, hw, Stimulus(events), backend=backend)
    texts = (save_hardware(hw), save_network(net), stim_text)
    assert_refused_by_cli(tmp_path, capsys, texts, f"stimulus line {room + 2}: {rule}")


@pytest.mark.skipif(not HAS_CC, reason="no C compiler (cc)")
def test_auto_runs_every_accepted_input_on_the_kernel(golden_cases):
    # auto depends on no input: every golden and random network runs compiled.
    for case in golden_cases:
        assert new_engine(case.network, case.hardware, case.stimulus).backend == "compiled"
    rng = random.Random(0x1D64)
    for _ in range(40):
        assert new_engine(*random_setup(rng)).backend == "compiled"
