"""Golden regression cases: bundled fixture networks with expected traces.

Each case directory holds a manifest (case.json), the hardware and network
files, a stimulus file, and the expected trace in JSON-lines form. The
expected values are transcribed verbatim from the published worked-example
tables; reconstructed parameters are described in each manifest's notes.
run_golden simulates the case and compares fire sets and end-of-cycle
charges cell by cell.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .engine import CycleReport, Trace, new_engine
from .ioformats import (
    FormatError,
    _field,
    _parse_json,
    load_hardware,
    load_network,
    load_stimulus,
    parse_trace_jsonl,
    read_text,
)
from .netmodel import HardwareConstants, Network
from .engine.events import Stimulus


@dataclass(frozen=True)
class GoldenCase:
    name: str
    root: Path
    hardware: HardwareConstants
    network: Network
    stimulus: Stimulus
    cycles: int
    expected: Trace
    notes: str


@dataclass(frozen=True)
class TraceDiff:
    """First point where a simulated trace left the expected one."""

    cycle: int
    neuron: str
    field: str  # "fired" or "charge"
    expected: object
    actual: object

    def __str__(self) -> str:
        return (f"cycle {self.cycle}, neuron {self.neuron}, {self.field}: "
                f"expected {self.expected}, got {self.actual}")


def default_fixtures_dir() -> Path:
    """Location of the fixture tree bundled with the package."""
    return Path(str(resources.files("ravensim") / "fixtures" / "v1"))


def load_case(case_dir: Path | str) -> GoldenCase:
    case_dir = Path(case_dir)
    where = str(case_dir / "case.json")
    manifest = _parse_json(read_text(where), where)
    if not isinstance(manifest, dict):
        raise FormatError(f"{where}: must be a JSON object")
    cycles = _field(manifest, "cycles", None, int, where)
    name = _field(manifest, "name", None, str, where)
    hw_text, net_text, stim_text, expected_text = (
        read_text(case_dir / _field(manifest, key, None, str, where))
        for key in ("hardware", "network", "stimulus", "expected"))
    hw = load_hardware(hw_text)
    net = load_network(net_text, hw)
    return GoldenCase(
        name=name,
        root=case_dir,
        hardware=hw,
        network=net,
        stimulus=load_stimulus(stim_text, net, hw),
        cycles=cycles,
        expected=parse_trace_jsonl(expected_text),
        notes=_field(manifest, "notes", "", str, where),
    )


def discover_cases(fixtures_dir: Path | str | None = None) -> list[GoldenCase]:
    root = Path(fixtures_dir) if fixtures_dir is not None else default_fixtures_dir()
    try:
        paths = sorted(root.iterdir())
    except OSError as e:
        raise FormatError(f"cannot read fixtures directory {root}: {e.strerror}") from None
    cases = [load_case(path) for path in paths
             if path.is_dir() and (path / "case.json").exists()]
    if not cases:
        raise FormatError(f"no golden cases found under {root}")
    return cases


def compare_traces(expected: Sequence[CycleReport],
                   actual: Sequence[CycleReport]) -> list[TraceDiff]:
    """Cell-by-cell diff of two traces' columns, matching neurons by name; ordered
    by cycle, fire sets before charges. Both sides go through Trace.of, so a list of
    reports that breaks a row rule, such as firing a neuron twice, raises ValueError."""
    expected, actual = Trace.of(expected), Trace.of(actual)
    names = expected.names
    column = {name: j for j, name in enumerate(actual.names)}
    at = [column.get(name) for name in names]  # None: no actual column
    diffs: list[TraceDiff] = []
    rows = zip(expected.rows(), actual.rows())
    for (cycle, exp_fired, exp_charges), (_, got_fired, got_charges) in rows:
        exp_set = {names[i] for i in exp_fired}
        got_set = {actual.names[i] for i in got_fired}
        for name in sorted(exp_set ^ got_set):
            diffs.append(TraceDiff(cycle, name, "fired", name in exp_set, name in got_set))
        for name, value, j in zip(names, exp_charges, at):
            actual_value = None if j is None else got_charges[j]
            if actual_value != value:
                diffs.append(TraceDiff(cycle, name, "charge", value, actual_value))
    if len(actual) != len(expected):
        diffs.append(TraceDiff(min(len(actual), len(expected)), "*", "length",
                               len(expected), len(actual)))
    return diffs


def run_golden(case: GoldenCase, backend: str = "auto") -> list[TraceDiff]:
    """Simulate a case and diff it against the expected trace.

    An empty list means the case passed; otherwise the first entry is the
    first divergent (cycle, neuron, field) triple.
    """
    engine = new_engine(case.network, case.hardware, case.stimulus, backend=backend)
    trace = engine.run(case.cycles)
    return compare_traces(case.expected, trace)
