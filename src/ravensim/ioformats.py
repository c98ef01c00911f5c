"""File formats: hardware JSON, network JSON, stimulus text, trace output.

Hardware and network files are JSON with a "format": 1 version key. All
numeric settings are integers; floats are rejected. Unknown keys, and keys
repeated within one object, are rejected so that typos fail loudly instead
of silently deprogramming a neuron. The stimulus format is line oriented:

    # comment
    AS <cycle> <neuron>            apply an input spike
    AI <cycle> <neuron> <value>    inject a signed charge value

Traces render either as an aligned table (one row per cycle) or as JSON
lines, one object per cycle, suitable for machine comparison.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Container, Sequence
from itertools import chain, repeat
from operator import itemgetter
from typing import Any

from .engine.events import INJECTION, INPUT_SPIKE, CycleReport, Events, Stimulus, Trace
from .engine.layout import mark_checked, stimulus_problem
from .netmodel import (
    INT64_MAX,
    HardwareConstants,
    Network,
    Neurons,
    Synapses,
    ValidationError,
    validate_network,
)

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Malformed input: bad syntax, wrong type, or an unknown name/key."""


def read_text(path: str | os.PathLike) -> str:
    """The text of the file at path; one that cannot be read or is not UTF-8
    raises a FormatError that names it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise FormatError(f"cannot read {path}: not UTF-8 text "
                          f"({e.reason} at byte {e.start})") from None


def _key_count(doc: Any) -> int:
    """The keys of the object doc, of the objects among its values and of the
    objects in the arrays among its values. Deeper objects are not counted:
    the count is exact for every document ravensim reads, and a lower bound
    for any other."""
    if type(doc) is not dict:
        return 0
    values = doc.values()
    nested = [value for value in values if type(value) is dict]
    for value in values:
        if type(value) is list:
            nested += [item for item in value if type(item) is dict]
    return len(doc) + sum(map(len, nested))


def _reject_duplicate_keys(text: str, doc: Any, where: str) -> None:
    """Raise a FormatError naming a key that an object of the JSON text
    repeats; doc is what json.loads read from text, which kept only the last
    value of such a key.

    Every key of a document writes one ':' outside its strings. So when the
    keys doc holds account for every ':' in text, no key was repeated. Only
    otherwise (a repeated key, a ':' inside a string, or objects nested
    deeper than _key_count looks) is text decoded again, pair by pair; the
    first object whose closing brace comes with a repeated key names it."""
    if _key_count(doc) == text.count(":"):
        return

    def unique(pairs: list[tuple[str, Any]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set[str] = set()
            for key, _ in pairs:
                if key in seen:
                    raise FormatError(f'{where}: duplicate key "{key}"')
                seen.add(key)
        return obj

    json.loads(text, object_pairs_hook=unique)


def _parse_json(text: str, where: str) -> Any:
    """text as JSON; a decode error or a repeated key raises a FormatError naming where."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{where}: parse error at line {e.lineno}, column {e.colno}: "
                          f"{e.msg}") from None
    _reject_duplicate_keys(text, doc, where)
    return doc


_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def _field(obj: dict, key: str, default: Any, kind: type, where: str) -> Any:
    """obj[key], which must be of exactly type kind (so a bool is no int);
    default when the key is absent, unless default is None (a required key)."""
    if key not in obj:
        if default is None:
            raise FormatError(f"{where}: missing key \"{key}\"")
        return default
    value = obj[key]
    if type(value) is not kind:
        raise FormatError(f"{where}: key \"{key}\" must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _reject_unknown(obj: dict, allowed: Container[str], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise FormatError(f"{where}: unknown key \"{key}\"")


def _check_version(obj: dict, where: str) -> None:
    version = _field(obj, "format", None, int, where)
    if version != FORMAT_VERSION:
        raise FormatError(f"{where}: unsupported format version {version}")


_HW_KEYS = (
    "accumulator_width",
    "threshold_width",
    "weight_width",
    "max_delay",
    "max_leak",
    "max_abs_refractory",
    "max_rel_refractory",
    "ports",
    "injection_ports",
)


def load_hardware(text: str) -> HardwareConstants:
    """Parse a hardware-constants JSON document."""
    where = "hardware file"
    obj = _parse_json(text, where)
    if not isinstance(obj, dict):
        raise FormatError("hardware file: top level must be a JSON object")
    _check_version(obj, where)
    _reject_unknown(obj, set(_HW_KEYS) | {"format", "stdp_table"}, where)
    kwargs = {key: _field(obj, key, None, int, where) for key in _HW_KEYS}
    if "stdp_table" not in obj:
        raise FormatError(f"{where}: missing key \"stdp_table\"")
    table = obj["stdp_table"]
    if not isinstance(table, list):
        raise FormatError(f"{where}: stdp_table must be an array of integers")
    for i, v in enumerate(table):
        if type(v) is not int:
            raise FormatError(f"{where}: stdp_table[{i}] must be an integer, got {v!r}")
    try:
        return HardwareConstants(stdp_table=tuple(table), **kwargs)
    except ValueError as e:
        raise FormatError(f"{where}: {e}") from None


def save_hardware(hw: HardwareConstants) -> str:
    obj = {"format": FORMAT_VERSION}
    for key in _HW_KEYS:
        obj[key] = getattr(hw, key)
    obj["stdp_table"] = list(hw.stdp_table)
    return json.dumps(obj, indent=2) + "\n"


_SETTINGS_KEYS = {"stdp", "input_spike_amount"}

# The JSON key, default (None when required) and type of every column of the
# neuron and synapse objects, in the field order of Neurons and Synapses.
_NEURON_COLUMNS = (("name", None, str), ("threshold", None, int),
                   ("standard_resting", 0, int), ("refractory_resting", 0, int),
                   ("abs_refractory", 0, int), ("rel_refractory", 0, int),
                   ("leak", 0, int), ("injection", False, bool))
_SYNAPSE_COLUMNS = (("from", None, str), ("to", None, str), ("weight", None, int),
                    ("delay", 0, int))
_NEURON_KEYS = tuple(key for key, _, _ in _NEURON_COLUMNS)
_SYNAPSE_KEYS = tuple(key for key, _, _ in _SYNAPSE_COLUMNS)


def _columns(objs: list, spec: tuple) -> list[list] | None:
    """The columns spec names, read from a list of JSON objects; None when an
    object is not a well-formed entity, which the row-by-row check reports."""
    keys = {key for key, _, _ in spec}
    if not {dict}.issuperset(map(type, objs)) or not keys.issuperset(chain.from_iterable(objs)):
        return None
    columns = []
    for key, default, kind in spec:
        column = list(map(dict.get, objs, repeat(key), repeat(default)))
        if not {kind}.issuperset(map(type, column)):
            return None
        columns.append(column)
    return columns


def _neuron_error(objs: list) -> None:
    """Raises the first error of the neuron objects, in document order."""
    for i, raw in enumerate(objs):
        if not isinstance(raw, dict):
            raise FormatError(f"neuron #{i}: must be an object")
        name = raw.get("name")
        if not isinstance(name, str) or not name:
            raise FormatError(f"neuron #{i}: missing or empty \"name\"")
        where = f"neuron \"{name}\""
        _reject_unknown(raw, _NEURON_KEYS, where)
        for key, default, kind in _NEURON_COLUMNS:
            _field(raw, key, default, kind, where)


def _synapse_error(objs: list) -> None:
    """Raises the first error of the synapse objects, in document order."""
    for i, raw in enumerate(objs):
        where = f"synapse #{i}"
        if not isinstance(raw, dict):
            raise FormatError(f"{where}: must be an object")
        _reject_unknown(raw, _SYNAPSE_KEYS, where)
        if not isinstance(raw.get("from"), str) or not isinstance(raw.get("to"), str):
            raise FormatError(f"{where}: \"from\" and \"to\" must be neuron names")
        for key, default, kind in _SYNAPSE_COLUMNS:
            _field(raw, key, default, kind, where)


def parse_network(text: str) -> Network:
    """Parse a network document without hardware validation.

    The neuron and synapse objects are read straight into columns. Only a
    document with a malformed entity is read again object by object, to
    report its first error in document order."""
    obj = _parse_json(text, "network file")
    if not isinstance(obj, dict):
        raise FormatError("network file: top level must be a JSON object")
    _check_version(obj, "network file")
    _reject_unknown(obj, {"format", "neurons", "synapses", "settings"}, "network file")
    for key in ("neurons", "synapses"):
        if key not in obj or not isinstance(obj[key], list):
            raise FormatError(f"network file: \"{key}\" must be an array")

    neurons = _columns(obj["neurons"], _NEURON_COLUMNS)
    if neurons is None or "" in neurons[0]:
        _neuron_error(obj["neurons"])
    synapses = _columns(obj["synapses"], _SYNAPSE_COLUMNS)
    if synapses is None:
        _synapse_error(obj["synapses"])

    settings = obj.get("settings", {})
    if not isinstance(settings, dict):
        raise FormatError("network file: \"settings\" must be an object")
    _reject_unknown(settings, _SETTINGS_KEYS, "settings")
    stdp = _field(settings, "stdp", False, bool, "settings")
    amount = _field(settings, "input_spike_amount", 16, int, "settings")

    return Network(neurons=Neurons(*neurons), synapses=Synapses(*synapses),
                   stdp_enabled=stdp, input_spike_amount=amount)


def load_network(text: str, hw: HardwareConstants) -> Network:
    """Parse a network document and validate it against the hardware."""
    net = parse_network(text)
    report = validate_network(net, hw)
    if not report.ok:
        raise ValidationError(report)
    return net


def save_network(net: Network) -> str:
    obj = {
        "format": FORMAT_VERSION,
        "neurons": [dict(zip(_NEURON_KEYS, row)) for row in zip(*net.neurons.columns())],
        "synapses": [dict(zip(_SYNAPSE_KEYS, row)) for row in zip(*net.synapses.columns())],
        "settings": {"stdp": net.stdp_enabled, "input_spike_amount": net.input_spike_amount},
    }
    return json.dumps(obj, indent=2) + "\n"


# An integer as save_stimulus writes it; int() alone also reads "1_0" and "١".
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INTEGERS = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")  # separated by single spaces


def integer(text: str) -> int:
    """text as ASCII digits with an optional sign; ValueError for any other spelling."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


# (keyword, token count) of the two stimulus line shapes, AS and AI.
_STIMULUS_SHAPES = frozenset({("AS", 3), ("AI", 4)})


def _stimulus_error(lines: list[str]) -> None:
    """Raises the first syntax error of the stimulus lines, in line order."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        parts = line.split()
        if not parts:
            continue
        where = f"stimulus line {lineno}"
        if (parts[0], len(parts)) not in _STIMULUS_SHAPES:
            raise FormatError(f"{where}: expected \"AS <cycle> <neuron>\" or "
                              f"\"AI <cycle> <neuron> <value>\", got {line!r}")
        if not _INTEGER.fullmatch(parts[1]):
            raise FormatError(f"{where}: cycle must be an integer")
        if int(parts[1]) < 0:
            raise FormatError(f"{where}: cycle must be >= 0")
        if len(parts) == 4 and not _INTEGER.fullmatch(parts[3]):
            raise FormatError(f"{where}: injection value must be an integer")


def _stimulus_columns(text: str, lines: list[str]) -> list[list] | None:
    """The cycle, neuron, kind and value columns of the event lines of text,
    read a column at a time; None when a line may be malformed, which
    _stimulus_error reports."""
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = list(filter(None, map(str.split, lines)))
    shapes = set(zip(map(itemgetter(0), rows), map(len, rows)))
    if not shapes <= _STIMULUS_SHAPES:
        return None
    cycles = list(map(itemgetter(1), rows))
    injected = [parts[3] for parts in rows if len(parts) == 4] if ("AI", 4) in shapes else []
    if rows and not _INTEGERS.fullmatch(" ".join(cycles + injected)):
        return None
    cycles = list(map(int, cycles))
    if injected:
        kinds = [INPUT_SPIKE if len(parts) == 3 else INJECTION for parts in rows]
        values = [0 if len(parts) == 3 else int(parts[3]) for parts in rows]
    else:
        kinds, values = [INPUT_SPIKE] * len(rows), [0] * len(rows)
    if cycles and min(cycles) < 0:
        return None
    return [cycles, list(map(itemgetter(2), rows)), kinds, values]


def load_stimulus(text: str, net: Network, hw: HardwareConstants) -> Stimulus:
    """Parse stimulus lines against a network and its hardware.

    Every line is read before any event is checked against the network, so
    the first syntax error wins over an earlier rule error. Events are
    sorted stably by cycle; line order breaks ties. The lines are read
    straight into columns; only a text with a malformed line is read line
    by line, to report its first error. The stimulus returned is marked as
    checked for net and hw, so new_engine does not check it again.
    """
    lines = text.splitlines()
    columns = _stimulus_columns(text, lines)
    if columns is None:
        _stimulus_error(lines)
    events = Events(*columns)
    problem = stimulus_problem(events, net, hw)
    if problem is not None:
        i, rule = problem
        linenos = [lineno for lineno, line in enumerate(lines, 1)
                   if line.split("#", 1)[0].strip()]
        raise FormatError(f"stimulus line {linenos[i]}: {rule}")
    return mark_checked(Stimulus(events.by_cycle()), net, hw)


def save_stimulus(stim: Stimulus) -> str:
    """Stimulus-file text; ValueError names the first event on a name no line can hold."""
    neurons = stim.events.neuron
    k = next((k for k, name in enumerate(neurons) if "#" in name or name.split() != [name]), -1)
    if k >= 0:
        raise ValueError(f"stimulus event {k}: no stimulus line can hold the name {neurons[k]!r}")
    lines = [f"AI {cycle} {neuron} {value}" if kind == INJECTION else f"AS {cycle} {neuron}"
             for cycle, neuron, kind, value in zip(*stim.events.columns())]
    return "\n".join(lines) + ("\n" if lines else "")


def _int_width(title: str, column: Sequence[int]) -> int:
    """The width of a column of integers: its widest cell is its least or greatest value."""
    return max(len(title), len(str(min(column))), len(str(max(column))))


def _table_trace(trace: Trace) -> str:
    if not trace:
        return ""
    names = trace.names
    rows = [(cycle, ", ".join([names[i] for i in fired]) or "-", *charges)
            for cycle, fired, charges in trace.rows()]
    cycles, fired, *charges = zip(*rows)
    header = ["cycle", "fired", *names]
    widths = [_int_width("cycle", cycles), max(len("fired"), *map(len, fired)),
              *map(_int_width, names, charges)]
    line = " | ".join([f"%{widths[0]}d", f"%-{widths[1]}s", *(f"%{w}d" for w in widths[2:])])
    out = [" | ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
           "-+-".join("-" * w for w in widths)]
    out += [(line % row).rstrip() for row in rows]
    return "\n".join(out) + "\n"


def _jsonl_trace(trace: Trace) -> str:
    # One %-template per trace, byte for byte what json.dumps writes for the
    # {"cycle", "fired", "charges"} object of a cycle.
    quoted = [json.dumps(name) for name in trace.names]
    line = ('{"cycle": %d, "fired": [%s], "charges": {'
            + ", ".join(q.replace("%", "%%") + ": %d" for q in quoted) + "}}\n")
    return "".join([line % (cycle, ", ".join([quoted[i] for i in fired]), *charges)
                    for cycle, fired, charges in trace.rows()])


def format_trace(trace: Sequence[CycleReport], mode: str = "table") -> str:
    """Render a trace, or a list of cycle reports, as an aligned table or as
    JSON lines. Both are written from the columns of Trace.of(trace), so a
    list of reports must name the same neurons in every cycle."""
    if mode not in ("table", "jsonl"):
        raise ValueError(f"unknown trace mode: {mode}")
    trace = Trace.of(trace)
    return _table_trace(trace) if mode == "table" else _jsonl_trace(trace)


def parse_trace_jsonl(text: str) -> Trace:
    """JSON-lines trace output as a Trace, in the first line's neuron order. Every line is read
    as an object of a cycle, fired names and int64 charges before Trace.of checks its row rules."""
    reports: dict[int, CycleReport] = {}  # by line number
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        where = f"trace line {lineno}"
        obj = _parse_json(line, where)
        if not isinstance(obj, dict):
            raise FormatError(f"{where}: must be an object")
        cycle = _field(obj, "cycle", None, int, where)
        fired, charges = obj.get("fired"), obj.get("charges")
        if not isinstance(fired, list) or not all(isinstance(x, str) for x in fired):
            raise FormatError(f"{where}: \"fired\" must be an array of names")
        if not isinstance(charges, dict):
            raise FormatError(f"{where}: \"charges\" must be an object")
        for name, value in charges.items():
            if type(value) is not int:
                raise FormatError(f"{where}: charge for \"{name}\" must be an integer")
            if not -INT64_MAX - 1 <= value <= INT64_MAX:
                raise FormatError(f"{where}: charge for \"{name}\" outside int64")
        reports[lineno] = CycleReport(cycle=cycle, fired=tuple(fired), charges=charges)
    try:
        return Trace.of(list(reports.values()))
    except Trace.RowError as e:
        raise FormatError(f"trace line {list(reports)[e.row]}: {e.rule('line')}") from None
