"""Hardware/network JSON, stimulus text and trace rendering."""

from __future__ import annotations

import dataclasses
import json
import random
import re
import typing

import pytest

from fuzz import malformed_documents, mixed_setup
from ravensim import (
    HardwareConstants,
    Network,
    NeuronSettings,
    SynapseSettings,
    ioformats,
    new_engine,
)
from ravensim.engine import INJECTION, INPUT_SPIKE, CycleReport, Stimulus, StimulusEvent, Trace
from ravensim.engine.events import Events
from ravensim.ioformats import (
    FormatError,
    format_trace,
    load_hardware,
    load_network,
    load_stimulus,
    parse_network,
    parse_trace_jsonl,
    save_hardware,
    save_network,
    save_stimulus,
)
from ravensim.netmodel import Neurons, Synapses, ValidationError

HW_DOC = {
    "format": 1,
    "accumulator_width": 7,
    "threshold_width": 4,
    "weight_width": 4,
    "max_delay": 8,
    "max_leak": 7,
    "max_abs_refractory": 7,
    "max_rel_refractory": 7,
    "ports": 8,
    "injection_ports": 4,
    "stdp_table": [1, 2, -1],
}

NET_DOC = {
    "format": 1,
    "neurons": [
        {"name": "A", "threshold": 1},
        {"name": "B", "threshold": 2, "leak": 1, "standard_resting": -1,
         "injection": True},
    ],
    "synapses": [
        {"from": "A", "to": "B", "weight": 2, "delay": 1},
        {"from": "B", "to": "A", "weight": -1},
    ],
    "settings": {"stdp": False, "input_spike_amount": 4},
}


def hw_text(**overrides) -> str:
    doc = dict(HW_DOC)
    doc.update(overrides)
    return json.dumps(doc)


def net_text(**overrides) -> str:
    doc = dict(NET_DOC)
    doc.update(overrides)
    return json.dumps(doc)


def test_load_hardware_round_trip():
    hw = load_hardware(hw_text())
    assert hw.accumulator_width == 7
    assert hw.stdp_table == (1, 2, -1)
    assert load_hardware(save_hardware(hw)) == hw


def test_load_hardware_rejects_bad_documents():
    with pytest.raises(FormatError, match="missing key"):
        load_hardware(json.dumps({k: v for k, v in HW_DOC.items() if k != "ports"}))
    with pytest.raises(FormatError, match="unknown key"):
        load_hardware(hw_text(portz=8))
    with pytest.raises(FormatError, match="must be an integer"):
        load_hardware(hw_text(max_leak=7.0))
    with pytest.raises(FormatError, match="must be an integer"):
        load_hardware(hw_text(ports=True))
    with pytest.raises(FormatError, match="unsupported format version"):
        load_hardware(hw_text(format=2))
    with pytest.raises(FormatError, match="stdp_table"):
        load_hardware(hw_text(stdp_table=[1, "x"]))
    with pytest.raises(FormatError, match="top level"):
        load_hardware("[]")
    with pytest.raises(FormatError, match="parse error"):
        load_hardware("{nope")


def test_load_hardware_wraps_constructor_errors():
    with pytest.raises(FormatError, match="injection_ports"):
        load_hardware(hw_text(injection_ports=99))


def test_parse_network_defaults():
    net = parse_network(net_text())
    assert net.neurons[0] == NeuronSettings("A", threshold=1)
    assert net.neurons[1].leak == 1
    assert net.neurons[1].injection is True
    assert net.synapses[1] == SynapseSettings("B", "A", -1, 0)
    assert net.stdp_enabled is False
    assert net.input_spike_amount == 4


def test_parse_network_settings_optional():
    doc = {k: v for k, v in NET_DOC.items() if k != "settings"}
    net = parse_network(json.dumps(doc))
    assert net.stdp_enabled is False
    assert net.input_spike_amount == 16


def test_parse_network_errors_name_the_entity():
    doc = dict(NET_DOC, neurons=[{"name": "Out"}])
    with pytest.raises(FormatError, match='neuron "Out": missing key "threshold"'):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, neurons=[{"name": "Out", "threshold": 1, "lek": 2}])
    with pytest.raises(FormatError, match='neuron "Out": unknown key "lek"'):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, synapses=[{"from": "A", "to": "B"}])
    with pytest.raises(FormatError, match='synapse #0: missing key "weight"'):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, synapses=[{"from": "A", "weight": 1}])
    with pytest.raises(FormatError, match="synapse #0"):
        parse_network(json.dumps(doc))


def test_parse_network_rejects_bool_and_float_settings():
    doc = dict(NET_DOC, neurons=[{"name": "A", "threshold": True}])
    with pytest.raises(FormatError, match="must be an integer"):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, neurons=[{"name": "A", "threshold": 1, "leak": 0.5}])
    with pytest.raises(FormatError, match="must be an integer"):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, neurons=[{"name": "A", "threshold": 1, "injection": 1}])
    with pytest.raises(FormatError, match="must be a boolean"):
        parse_network(json.dumps(doc))


def test_parse_network_reports_the_first_error_in_document_order():
    # Neurons are read before synapses, and each object key by key: unknown
    # keys first, then the settings in declaration order.
    doc = dict(NET_DOC, neurons=[{"name": "A", "threshold": 1}, {"name": "B"}],
               synapses=[{"from": "A"}])
    with pytest.raises(FormatError, match='^neuron "B": missing key "threshold"$'):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, neurons=[{"name": "A", "threshold": 1, "leak": 0.5},
                                 {"name": "", "threshold": 1}])
    with pytest.raises(FormatError, match=r'^neuron "A": key "leak" must be an integer, got 0\.5$'):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, neurons=[{"name": "A", "threshold": 1.5, "lek": 1}])
    with pytest.raises(FormatError, match='^neuron "A": unknown key "lek"$'):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, neurons=[{"name": "A", "threshold": 1}, 7])
    with pytest.raises(FormatError, match="^neuron #1: must be an object$"):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, synapses=[{"from": "A", "to": "B", "weight": 1, "delay": True},
                                  {"from": "A", "to": 2, "weight": 1}],
               settings={"stdp": 1})
    with pytest.raises(FormatError, match='^synapse #0: key "delay" must be an integer, got True$'):
        parse_network(json.dumps(doc))
    doc = dict(NET_DOC, synapses=[{"from": "A", "to": "B", "weight": 1, "wait": 1}])
    with pytest.raises(FormatError, match='^synapse #0: unknown key "wait"$'):
        parse_network(json.dumps(doc))


NEURON_A = {"name": "A", "threshold": 1}
SYNAPSE_AB = {"from": "A", "to": "B", "weight": 1}
# Whole messages, pinned so that every entity, settings, hardware and
# stimulus error reads the same whichever reader path reports it.
EXACT_MESSAGES = [
    (net_text(neurons=[NEURON_A, {"name": "", "threshold": 1}]),
     'neuron #1: missing or empty "name"'),
    (net_text(neurons=[{"threshold": 1}]), 'neuron #0: missing or empty "name"'),
    (net_text(neurons=[{"name": 5, "threshold": 1}]), 'neuron #0: missing or empty "name"'),
    (net_text(neurons=[dict(NEURON_A, injection=1)]),
     'neuron "A": key "injection" must be a boolean, got 1'),
    (net_text(synapses=[SYNAPSE_AB, "A->B"]), "synapse #1: must be an object"),
    (net_text(synapses=[{"from": "A", "weight": 1}]),
     'synapse #0: "from" and "to" must be neuron names'),
    (net_text(synapses=[{"from": "A", "to": None, "weight": 1, "wait": 1}]),
     'synapse #0: unknown key "wait"'),
    (net_text(settings=[]), 'network file: "settings" must be an object'),
    (net_text(settings={"stpd": True}), 'settings: unknown key "stpd"'),
    (net_text(settings={"stdp": 1}), 'settings: key "stdp" must be a boolean, got 1'),
    (net_text(settings={"input_spike_amount": "4"}),
     'settings: key "input_spike_amount" must be an integer, got \'4\''),
    (net_text(neurons={}), 'network file: "neurons" must be an array'),
    (net_text(format="1"), 'network file: key "format" must be an integer, got \'1\''),
]


@pytest.mark.parametrize("text, message", EXACT_MESSAGES)
def test_parse_network_messages_exactly(text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_network(text)


@pytest.mark.parametrize("text, message", [
    (json.dumps({k: v for k, v in HW_DOC.items() if k != "ports"}),
     'hardware file: missing key "ports"'),
    (json.dumps({k: v for k, v in HW_DOC.items() if k != "stdp_table"}),
     'hardware file: missing key "stdp_table"'),
    (hw_text(stdp_table=[1, "x"]), "hardware file: stdp_table[1] must be an integer, got 'x'"),
    (hw_text(stdp_table=[1, False]), "hardware file: stdp_table[1] must be an integer, got False"),
    (hw_text(stdp_table={}), "hardware file: stdp_table must be an array of integers"),
    (hw_text(max_leak=7.0), 'hardware file: key "max_leak" must be an integer, got 7.0'),
])
def test_load_hardware_messages_exactly(text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_hardware(text)


def test_readers_raise_only_format_errors():
    # Every reader returns or raises FormatError, whichever path reads the
    # document: a malformed one must meet a reporter that raises.
    outcomes = set()
    for reader, text, net, hw in malformed_documents(random.Random(0xBAD), 3000):
        try:
            if reader == "hardware":
                load_hardware(text)
            elif reader == "network":
                parse_network(text)
            else:
                load_stimulus(text, net, hw)
            outcomes.add((reader, "ok"))
        except FormatError:
            outcomes.add((reader, "error"))
    assert len(outcomes) == 6


def test_load_network_validates_against_hardware():
    hw = load_hardware(hw_text())
    bad = dict(NET_DOC, synapses=[{"from": "A", "to": "B", "weight": 2, "delay": 99}])
    with pytest.raises(ValidationError) as err:
        load_network(json.dumps(bad), hw)
    assert {v.rule for v in err.value.report.violations} == {"delay out of range"}


def test_network_round_trip():
    net = parse_network(net_text())
    assert parse_network(save_network(net)) == net


def make_net() -> Network:
    return Network(
        neurons=(NeuronSettings("A", threshold=1),
                 NeuronSettings("In", threshold=1, injection=True)),
        synapses=(),
    )


def test_load_stimulus_basic():
    text = "\n".join([
        "# warm-up",
        "AS 0 A   # spike on the first cycle",
        "AI 3 In -4",
        "",
        "AS 1 A",
    ])
    stim = load_stimulus(text, make_net(), load_hardware(hw_text()))
    assert stim.events == (
        StimulusEvent(0, "A", INPUT_SPIKE, 0),
        StimulusEvent(1, "A", INPUT_SPIKE, 0),
        StimulusEvent(3, "In", INJECTION, -4),
    )


def test_load_stimulus_sorts_stably_by_cycle():
    text = "AS 5 A\nAI 5 In 1\nAS 0 A\n"
    stim = load_stimulus(text, make_net(), load_hardware(hw_text()))
    assert [(ev.cycle, ev.neuron) for ev in stim.events] == [
        (0, "A"), (5, "A"), (5, "In")]


def test_load_stimulus_errors():
    net = make_net()
    hw = load_hardware(hw_text())
    with pytest.raises(FormatError, match="line 1"):
        load_stimulus("AS zero A", net, hw)
    with pytest.raises(FormatError, match='unknown neuron "Z"'):
        load_stimulus("AS 0 Z", net, hw)
    with pytest.raises(FormatError, match='line 4: unknown neuron "Z"'):
        load_stimulus("# comment\n\nAS 0 A\nAS 1 Z\n", net, hw)
    with pytest.raises(FormatError, match="expected"):
        load_stimulus("XX 0 A", net, hw)
    with pytest.raises(FormatError, match="must be >= 0"):
        load_stimulus("AS -1 A", net, hw)
    with pytest.raises(FormatError, match="does not have injection enabled"):
        load_stimulus("AI 0 A 1", net, hw)
    with pytest.raises(FormatError, match="outside"):
        load_stimulus("AI 0 In 8", net, hw)  # 4 injection ports: [-8, 7]
    with pytest.raises(FormatError, match="no injection ports"):
        load_stimulus("AI 0 In 1", net, load_hardware(hw_text(injection_ports=0)))


def test_stimulus_shape_message_exactly():
    hw = load_hardware(hw_text())
    message = ('stimulus line 2: expected "AS <cycle> <neuron>" or '
               '"AI <cycle> <neuron> <value>", got \'AS 0\\t A  extra\'')
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_stimulus("AS 0 A\n  AS 0\t A  extra # note\n", make_net(), hw)


def test_load_stimulus_reports_syntax_errors_before_rule_errors():
    # Every line is read before any event is checked against the network, so
    # a later syntax error wins over an earlier rule error.
    net = make_net()
    hw = load_hardware(hw_text())
    with pytest.raises(FormatError, match="^stimulus line 3: cycle must be an integer$"):
        load_stimulus("AS 0 Z\nAI 0 A 99\nAS x A\n", net, hw)
    with pytest.raises(FormatError, match="^stimulus line 2: injection value must be an integer$"):
        load_stimulus("AS 0 Z\nAI 0 In 1.5\nAS -1 A\n", net, hw)
    with pytest.raises(FormatError, match="^stimulus line 2: cycle must be >= 0$"):
        load_stimulus("AS 0 Z\nAS -1 A\nAS 0\n", net, hw)
    with pytest.raises(FormatError, match="^stimulus line 1: cycle must be >= 0$"):
        load_stimulus("AI -1 In x\n", net, hw)
    with pytest.raises(FormatError, match='^stimulus line 1: unknown neuron "Z"$'):
        load_stimulus("AS 3 Z\nAI 0 A 99\n", net, hw)


def test_load_stimulus_accepts_signs_and_leading_zeros():
    text = "AS +3 A\nAS 007 A\nAS 010 A\nAI 0 In +3\nAI 0 In -07 # comment\n"
    stim = load_stimulus(text, make_net(), load_hardware(hw_text()))
    assert [(ev.cycle, ev.value) for ev in stim.events] == [(0, 3), (0, -7), (3, 0), (7, 0),
                                                            (10, 0)]


@pytest.mark.parametrize("line, message", [
    ("AS 1_0 A", "cycle must be an integer"),
    ("AS \u0661 A", "cycle must be an integer"),  # ARABIC-INDIC DIGIT ONE
    ("AS \uff11 A", "cycle must be an integer"),  # FULLWIDTH DIGIT ONE
    ("AI 0 A -0_1", "injection value must be an integer"),
    ("AI 0 In \u0661", "injection value must be an integer"),
], ids=["underscore", "arabic_indic", "fullwidth", "injection_underscore",
        "injection_arabic_indic"])
def test_load_stimulus_refuses_python_only_integer_spellings(line, message):
    # int() alone would read each of these; save_stimulus writes none of them.
    hw = load_hardware(hw_text())
    with pytest.raises(FormatError, match=f"^stimulus line 2: {message}$"):
        load_stimulus(f"AS 0 A\n{line}\nAS 1 A\n", make_net(), hw)


def test_save_stimulus_round_trip():
    stim = Stimulus((
        StimulusEvent(0, "A", INPUT_SPIKE),
        StimulusEvent(2, "In", INJECTION, -4),
        StimulusEvent(2, "In", INJECTION, 0),
        StimulusEvent(3, "In"),
    ))
    text = save_stimulus(stim)
    assert text == "AS 0 A\nAI 2 In -4\nAI 2 In 0\nAS 3 In\n"
    assert load_stimulus(text, make_net(), load_hardware(hw_text())) == stim


def test_save_stimulus_refuses_a_name_that_reads_back_as_another_event():
    # "#" starts a comment, so the line "AS 0 a#b" is a spike on a. The network
    # and the in-memory stimulus may still use the name; only the file cannot.
    hw = load_hardware(hw_text())
    net = Network((NeuronSettings("a", threshold=1), NeuronSettings("a#b", threshold=1)), ())
    stim = Stimulus((StimulusEvent(0, "a#b"),))
    assert load_stimulus("AS 0 a#b\n", net, hw) == Stimulus((StimulusEvent(0, "a"),))
    assert [rep.fired for rep in new_engine(net, hw, stim).run(2)] == [(), ("a#b",)]
    with pytest.raises(ValueError, match="^stimulus event 0: no stimulus line can hold "
                                         "the name 'a#b'$"):
        save_stimulus(stim)


@pytest.mark.parametrize("name", ["a b", "a\xa0b", "x ", "\ta", ""])
def test_save_stimulus_refuses_names_with_whitespace_or_none(name):
    # A line splits on any whitespace, so such a name loads as a malformed line
    # or as another neuron; the error names the first event on such a name.
    events = (StimulusEvent(0, "a"), StimulusEvent(1, name, INJECTION, 2), StimulusEvent(2, name))
    with pytest.raises(ValueError, match=f"^stimulus event 1: no stimulus line can hold "
                                         f"the name {re.escape(repr(name))}$"):
        save_stimulus(Stimulus(events))
    if name:
        net = Network((NeuronSettings("a", 1), NeuronSettings(name, 1, injection=True)), ())
        hw = load_hardware(hw_text())
        assert new_engine(net, hw, Stimulus(events)).run(3)[2].fired == (name,)
        with pytest.raises(FormatError):
            load_stimulus(f"AS 0 a\nAI 1 {name} 2\nAS 2 {name}\n", net, hw)


TRACE = [
    CycleReport(0, (), {"A": 0, "Out": -1}),
    CycleReport(1, ("A",), {"A": 2, "Out": 16}),
    CycleReport(2, ("A", "Out"), {"A": 0, "Out": 0}),
]


def test_format_trace_table():
    lines = format_trace(TRACE).splitlines()
    assert lines[0] == "cycle | fired  | A | Out"
    assert lines[1] == "------+--------+---+----"
    assert lines[2] == "    0 | -      | 0 |  -1"
    assert lines[3] == "    1 | A      | 2 |  16"
    assert lines[4] == "    2 | A, Out | 0 |   0"


def test_format_trace_jsonl_round_trip():
    text = format_trace(TRACE, mode="jsonl")
    assert parse_trace_jsonl(text) == TRACE
    first = json.loads(text.splitlines()[0])
    assert first == {"cycle": 0, "fired": [], "charges": {"A": 0, "Out": -1}}


def test_format_trace_empty():
    assert format_trace([]) == ""
    assert format_trace([], mode="jsonl") == ""
    with pytest.raises(ValueError, match="unknown trace mode"):
        format_trace(TRACE, mode="csv")


def reference_jsonl(reports) -> str:
    """The row-by-row renderer the columnar one replaced: json.dumps per cycle."""
    return "".join(json.dumps({"cycle": r.cycle, "fired": list(r.fired),
                               "charges": dict(r.charges)}) + "\n" for r in reports)


# Names json.dumps must escape, %-format directives, and non-ASCII text.
ODD_NAMES = ('say "hi"', "back\\slash", "100%", "%d %s %%", "Ωmega", "név", "😀")


def odd_trace(cycles: int) -> Trace:
    """A chain of neurons with odd names, kicked every fourth cycle."""
    net = Network(
        neurons=tuple(NeuronSettings(name, threshold=1 + i % 3, standard_resting=-i)
                      for i, name in enumerate(ODD_NAMES)),
        synapses=tuple(SynapseSettings(a, b, 3, 1) for a, b in zip(ODD_NAMES, ODD_NAMES[1:])),
        input_spike_amount=5,
    )
    hw = HardwareConstants(
        accumulator_width=8, threshold_width=4, weight_width=4, max_delay=2, max_leak=0,
        max_abs_refractory=0, max_rel_refractory=0, ports=4, injection_ports=0)
    stim = Stimulus(tuple(StimulusEvent(c, ODD_NAMES[0]) for c in range(0, cycles, 4)))
    return new_engine(net, hw, stim, backend="python").run(cycles)


def test_columnar_jsonl_matches_json_dumps():
    trace = odd_trace(12)
    reports = list(trace)
    assert any(r.fired for r in reports) and any(not r.fired for r in reports)
    expected = reference_jsonl(reports)
    assert format_trace(trace, "jsonl") == format_trace(reports, "jsonl") == expected
    assert "\\u03a9mega" in expected and '"%d %s %%": ' in expected
    assert parse_trace_jsonl(expected) == trace


def test_table_layout_with_odd_names():
    trace = odd_trace(3)
    assert format_trace(trace) == format_trace(list(trace)) == (
        'cycle | fired    | say "hi" | back\\slash | 100% | %d %s %% | Ωmega | név | 😀\n'
        "------+----------+----------+------------+------+----------+-------+-----+---\n"
        "    0 | -        |        5 |         -1 |   -2 |       -3 |    -4 |  -5 | -6\n"
        '    1 | say "hi" |        0 |         -1 |   -2 |       -3 |    -4 |  -5 | -6\n'
        "    2 | -        |        0 |          2 |   -2 |       -3 |    -4 |  -5 | -6\n")


def test_jsonl_on_empty_quiet_and_wide_traces():
    assert format_trace(odd_trace(0), "jsonl") == format_trace(odd_trace(0)) == ""
    quiet = [CycleReport(t, (), {"A": 0, "B": -7}) for t in range(3)]
    assert format_trace(quiet, "jsonl") == reference_jsonl(quiet)
    # Charges at the int64 extremes; one beyond them cannot enter a trace.
    wide = [CycleReport(123456, ("B",), {"A": (1 << 63) - 1, "B": -(1 << 63)}),
            CycleReport(123457, ("A", "B"), {"A": -1, "B": 5})]
    assert format_trace(wide, "jsonl") == reference_jsonl(wide)
    with pytest.raises(OverflowError):
        format_trace([CycleReport(0, (), {"A": 1 << 63})], "jsonl")
    no_neurons = [CycleReport(0, (), {}), CycleReport(1, (), {})]
    assert format_trace(no_neurons, "jsonl") == reference_jsonl(no_neurons)


def reference_table(reports) -> str:
    """The row-by-row table renderer the columnar one replaced."""
    if not reports:
        return ""
    names = list(reports[0].charges.keys())
    header = ["cycle", "fired"] + names
    rows = []
    for rep in reports:
        fired = ", ".join(rep.fired) if rep.fired else "-"
        rows.append([str(rep.cycle), fired] + [str(rep.charges[n]) for n in names])
    widths = [max(len(header[c]), max(len(r[c]) for r in rows)) for c in range(len(header))]
    out = []
    out.append(" | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    out.append("-+-".join("-" * w for w in widths))
    for r in rows:
        cells = [r[0].rjust(widths[0]), r[1].ljust(widths[1])]
        cells += [v.rjust(w) for v, w in zip(r[2:], widths[2:])]
        out.append(" | ".join(cells).rstrip())
    return "\n".join(out) + "\n"


def test_columnar_table_matches_the_row_by_row_table():
    net, hw, stim = mixed_setup(48, 8, True, 100, seed=5)
    traces = [
        odd_trace(12),
        odd_trace(0),
        new_engine(net, hw, stim).run(100),
        TRACE,
        # No neurons; charges at the int64 extremes; cycle numbers of every width.
        [CycleReport(0, (), {}), CycleReport(1, (), {})],
        [CycleReport(123456, ("B",), {"A": (1 << 63) - 1, "B": -(1 << 63)}),
         CycleReport(-7, ("A", "B"), {"A": -1, "B": 5})],
        [CycleReport(t, (), {"long name": -t * 1000, "x": t}) for t in range(12)],
    ]
    for trace in traces:
        reports = list(trace)
        assert format_trace(trace) == format_trace(reports) == reference_table(reports)


def test_jsonl_needs_one_neuron_set_per_list():
    # The table as well: both formats write from the columns of Trace.of.
    mixed = [CycleReport(0, (), {"A": 0}), CycleReport(1, (), {"A": 0, "B": 1})]
    for mode in ("table", "jsonl"):
        with pytest.raises(ValueError, match="cycle 1: charges must name the neurons of the first"):
            format_trace(mixed, mode)
        with pytest.raises(ValueError, match="cycle 0: fired neuron 'B' has no charge"):
            format_trace([CycleReport(0, ("B",), {"A": 0})], mode)


def test_parse_trace_jsonl_returns_a_trace():
    text = format_trace(TRACE, "jsonl")
    trace = parse_trace_jsonl("\n" + text.replace("\n", "\n\n"))
    assert isinstance(trace, Trace)
    assert trace.names == ("A", "Out") and trace == TRACE
    # Lines may list the neurons in any order; the first line's is the trace's.
    lines = ['{"cycle": 0, "fired": [], "charges": {"B": 1, "A": 2}}',
             '{"cycle": 1, "fired": ["A"], "charges": {"A": 3, "B": 4}}']
    trace = parse_trace_jsonl("\n".join(lines))
    assert trace.names == ("B", "A") and list(trace.charges) == [1, 2, 4, 3]
    assert list(trace.fired) == [1]
    assert parse_trace_jsonl("") == [] and parse_trace_jsonl("").names == ()


def test_parse_trace_jsonl_rejects_malformed_lines():
    with pytest.raises(FormatError, match="trace line 1"):
        parse_trace_jsonl("{broken")
    with pytest.raises(FormatError, match="must be an object"):
        parse_trace_jsonl("[1, 2]")
    with pytest.raises(FormatError, match='"fired" must be an array'):
        parse_trace_jsonl('{"cycle": 0, "fired": "A", "charges": {}}')
    with pytest.raises(FormatError, match="must be an integer"):
        parse_trace_jsonl('{"cycle": 0, "fired": [], "charges": {"A": 0.5}}')
    with pytest.raises(FormatError, match='^trace line 1: charge for "B" must be an integer$'):
        parse_trace_jsonl('{"cycle": 0, "fired": [], "charges": {"A": 1, "B": true}}')
    first = '{"cycle": 0, "fired": [], "charges": {"A": 0, "B": 1}}\n\n'
    for charges in ('{"A": 0}', '{"A": 0, "B": 1, "C": 2}', '{"A": 0, "C": 1}'):
        line = '{"cycle": 1, "fired": [], "charges": %s}' % charges
        with pytest.raises(FormatError, match="^trace line 3: charges must name the neurons "
                                              "of the first line and no others$"):
            parse_trace_jsonl(first + line)
    with pytest.raises(FormatError, match="^trace line 3: fired neuron 'C' has no charge$"):
        parse_trace_jsonl(first + '{"cycle": 1, "fired": ["A", "C"], "charges": {"A": 0, "B": 1}}')
    with pytest.raises(FormatError, match="^trace line 1: fired neuron 'A' has no charge$"):
        parse_trace_jsonl('{"cycle": 0, "fired": ["A"], "charges": {}}')


def test_parse_trace_jsonl_refuses_a_neuron_fired_twice():
    # counts == [2] for one neuron would not survive into a fire set.
    with pytest.raises(FormatError, match="^trace line 1: fired neuron 'A' more than once$"):
        parse_trace_jsonl('{"cycle": 0, "fired": ["A", "A"], "charges": {"A": 1, "B": 2}}')
    first = '{"cycle": 0, "fired": ["A"], "charges": {"A": 0, "B": 1}}\n\n'
    line = '{"cycle": 1, "fired": %s, "charges": {"A": 0, "B": 1}}'
    with pytest.raises(FormatError, match="^trace line 3: fired neuron 'B' more than once$"):
        parse_trace_jsonl(first + line % '["B", "A", "B"]')
    # The fired name missing from the charges comes first in the row, so it is named.
    with pytest.raises(FormatError, match="^trace line 3: fired neuron 'C' has no charge$"):
        parse_trace_jsonl(first + line % '["C", "A", "A"]')
    # Every line is read before the row rules are checked, as in load_stimulus.
    bad_type = '{"cycle": 2, "fired": [], "charges": {"A": 0, "B": 0.5}}'
    with pytest.raises(FormatError, match='^trace line 4: charge for "B" must be an integer$'):
        parse_trace_jsonl(first + line % '["A", "A"]' + "\n" + bad_type)


def test_parse_trace_jsonl_keeps_charges_inside_int64():
    line = '{"cycle": %d, "fired": [], "charges": {"A": %d, "B": %d}}'
    top = (1 << 63) - 1
    trace = parse_trace_jsonl(line % (0, top, -top - 1))
    assert list(trace.charges) == [top, -top - 1]
    for a, b, name in ((top + 1, 0, "A"), (0, -top - 2, "B")):
        with pytest.raises(FormatError, match=f'^trace line 2: charge for "{name}" outside int64$'):
            parse_trace_jsonl(line % (0, 0, 0) + "\n" + line % (1, a, b))


def _repeat_key(text: str, pair: str, repeated: str) -> str:
    """text with the key-value pair `pair` followed by `repeated`, a second
    value for the same key, in the one object where pair first appears."""
    assert pair in text
    return text.replace(pair, f"{pair}, {repeated}", 1)


@pytest.mark.parametrize("read, text, message", [
    (load_hardware, _repeat_key(hw_text(), '"max_delay": 8', '"max_delay": 2'),
     'hardware file: duplicate key "max_delay"'),
    (load_hardware, _repeat_key(hw_text(), '"format": 1', '"format": 1'),
     'hardware file: duplicate key "format"'),
    (parse_network, _repeat_key(net_text(), '"threshold": 2', '"threshold": 5'),
     'network file: duplicate key "threshold"'),
    (parse_network, _repeat_key(net_text(), '"input_spike_amount": 4', '"stdp": true'),
     'network file: duplicate key "stdp"'),
    (parse_network, _repeat_key(net_text(), '"format": 1', '"neurons": []'),
     'network file: duplicate key "neurons"'),
    # An object nested deeper than any ravensim format goes: reported all the same.
    (parse_network, net_text(settings={"stdp": "{}"}).replace('"{}"', '{"a": 1, "a": 2}'),
     'network file: duplicate key "a"'),
    (parse_trace_jsonl, '{"cycle": 0, "fired": [], "charges": {"A": 1}}\n'
                        '{"cycle": 1, "fired": [], "charges": {"A": 1, "A": 2}}',
     'trace line 2: duplicate key "A"'),
    (parse_trace_jsonl, '{"cycle": 0, "cycle": 1, "fired": [], "charges": {"A": 1}}',
     'trace line 1: duplicate key "cycle"'),
])
def test_readers_reject_duplicate_keys(read, text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read(text)


def test_colons_inside_strings_are_no_duplicate_keys():
    # A ':' inside a string makes the ':' count exceed the key count; the
    # second, pair-by-pair decode clears it and the document reads as usual.
    doc = json.loads(net_text())
    doc["neurons"][0]["name"] = "A:1"
    doc["synapses"][0]["from"] = doc["synapses"][1]["to"] = "A:1"
    net = parse_network(json.dumps(doc))
    assert net.neurons.name == ("A:1", "B") and net.synapses.pre == ("A:1", "B")
    assert parse_network(save_network(net)) == net
    with pytest.raises(FormatError, match='^hardware file: unknown key "max:leak"$'):
        load_hardware(hw_text(**{"max:leak": 1}))
    with pytest.raises(FormatError, match="^settings: key \"stdp\" must be a boolean, "
                                          "got {'x:': 1}$"):
        parse_network(net_text(settings={"stdp": {"x:": 1}}))
    trace = parse_trace_jsonl('{"cycle": 0, "fired": ["a:b"], "charges": {"a:b": 1, ":": 2}}')
    assert trace.names == ("a:b", ":") and list(trace.fired) == [0]


def test_parse_trace_jsonl_names_the_line_of_each_error():
    good = '{"cycle": 0, "fired": [], "charges": {"A": 1}}'
    with pytest.raises(FormatError, match=r"^trace line 3: parse error at line 1, column 2: "
                       r"Expecting property name enclosed in double quotes$"):
        parse_trace_jsonl(f"{good}\n\n{{broken")
    with pytest.raises(FormatError, match=r'^trace line 2: "charges" must be an object$'):
        parse_trace_jsonl(f'{good}\n{{"cycle": 1, "fired": [], "charges": [1]}}')


def _declared(record, skip: tuple[str, ...] = ()) -> list[tuple[str, object, type]]:
    """(name, default or None when required, annotated type) of each field of record."""
    hints = typing.get_type_hints(record)
    return [(f.name, None if f.default is dataclasses.MISSING else f.default, hints[f.name])
            for f in dataclasses.fields(record) if f.name not in skip]


def test_the_reader_field_lists_name_every_record_field_in_order():
    # ioformats states each record's fields again, as JSON keys with a default
    # and an exact type, and each column class names them as its slots: a
    # field added to a record and not to these lists fails here.
    json_key = {"pre": "from", "post": "to"}
    for record, columns in ((NeuronSettings, ioformats._NEURON_COLUMNS),
                            (SynapseSettings, ioformats._SYNAPSE_COLUMNS)):
        assert [(json_key.get(name, name), default, kind)
                for name, default, kind in _declared(record)] == list(columns)
    assert _declared(HardwareConstants, skip=("stdp_table",)) == [
        (key, None, int) for key in ioformats._HW_KEYS]
    for columns in (Neurons, Synapses, Events):
        assert columns.__slots__ == tuple(f.name for f in dataclasses.fields(columns.record))
