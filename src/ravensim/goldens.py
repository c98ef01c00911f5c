"""Golden regression cases: bundled fixture networks with expected traces.

Each case directory holds a manifest (case.json), the hardware and network
files, a stimulus file, and the expected trace in JSON-lines form. The
expected values are transcribed verbatim from the published worked-example
tables; reconstructed parameters are described in each manifest's notes.
run_golden simulates the case and compares fire sets and end-of-cycle
charges cell by cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .engine import CycleReport, new_engine
from .ioformats import (
    FormatError,
    load_hardware,
    load_network,
    load_stimulus,
    parse_trace_jsonl,
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
    expected: tuple[CycleReport, ...]
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
    manifest_path = case_dir / "case.json"
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError:
        raise FormatError(f"{case_dir}: no case.json manifest") from None
    except json.JSONDecodeError as e:
        raise FormatError(f"{manifest_path}: {e.msg}") from None
    hw = load_hardware((case_dir / manifest["hardware"]).read_text())
    net = load_network((case_dir / manifest["network"]).read_text(), hw)
    stim = load_stimulus((case_dir / manifest["stimulus"]).read_text(), net, hw)
    expected = parse_trace_jsonl((case_dir / manifest["expected"]).read_text())
    return GoldenCase(
        name=manifest["name"],
        root=case_dir,
        hardware=hw,
        network=net,
        stimulus=stim,
        cycles=int(manifest["cycles"]),
        expected=tuple(expected),
        notes=manifest.get("notes", ""),
    )


def discover_cases(fixtures_dir: Path | str | None = None) -> list[GoldenCase]:
    root = Path(fixtures_dir) if fixtures_dir is not None else default_fixtures_dir()
    cases = []
    for path in sorted(root.iterdir()):
        if path.is_dir() and (path / "case.json").exists():
            cases.append(load_case(path))
    if not cases:
        raise FormatError(f"no golden cases found under {root}")
    return cases


def compare_traces(expected: tuple[CycleReport, ...] | list[CycleReport],
                   actual: list[CycleReport]) -> list[TraceDiff]:
    """Cell-by-cell diff; ordered by cycle, fire sets before charges."""
    diffs: list[TraceDiff] = []
    for exp, got in zip(expected, actual):
        exp_fired, got_fired = set(exp.fired), set(got.fired)
        if exp_fired != got_fired:
            for name in sorted(exp_fired | got_fired):
                if (name in exp_fired) != (name in got_fired):
                    diffs.append(TraceDiff(exp.cycle, name, "fired",
                                           name in exp_fired, name in got_fired))
        for name, value in exp.charges.items():
            actual_value = got.charges.get(name)
            if actual_value != value:
                diffs.append(TraceDiff(exp.cycle, name, "charge", value, actual_value))
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
