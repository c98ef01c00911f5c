"""Correctness gate and simulated statistics.

Every operation the benchmark times (one CLI run, one network evaluated
through the API) is checked outside the timed region. Its trace is
rendered canonically, exactly as ``ravensim run --format jsonl`` prints
it, and hashed; its final charges and weights are kept. The first pass of
a run is checked against independent oracles: the pure-Python backend
(trace, final charges and weights) and ``ReferenceEngine`` (every cycle,
except on the dense 1k network where only a prefix is affordable). Every
later operation must reproduce the first pass exactly.

The statistics recorded per pass (fires, deliveries, weight changes,
trace bytes and the trace digest) are computed from the trace and the
network alone, so they do not depend on any engine's internals and a
speed-only change cannot move them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from dataclasses import dataclass

from ravensim.netmodel import Network


def render_jsonl(trace) -> bytes:
    """The trace as the CLI prints it with ``--format jsonl``."""
    lines = [json.dumps({"cycle": r.cycle, "fired": list(r.fired), "charges": dict(r.charges)})
             for r in trace]
    return ("\n".join(lines) + ("\n" if lines else "")).encode()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class SimStats:
    """Simulated statistics of one pass; identical on every repetition."""

    fires: int = 0
    deliveries: int = 0
    weight_changes: int = 0
    trace_bytes: int = 0
    digest: str = ""

    def __add__(self, other: "SimStats") -> "SimStats":
        # The empty SimStats() is the identity, so a one-network pass keeps
        # the plain SHA-256 of its trace.
        combined = digest(f"{self.digest}:{other.digest}".encode()) if self.digest else other.digest
        return SimStats(self.fires + other.fires, self.deliveries + other.deliveries,
                        self.weight_changes + other.weight_changes,
                        self.trace_bytes + other.trace_bytes, combined)


def count_deliveries(net: Network, trace, cycles: int) -> int:
    """Spikes delivered within the run: a fire at cycle c over a synapse of
    delay d is delivered at cycle c + d, if that cycle was simulated."""
    delays: dict[str, list[int]] = {}
    for s in net.synapses:
        delays.setdefault(s.pre, []).append(s.delay)
    total = 0
    for report in trace:
        left = cycles - report.cycle
        for name in report.fired:
            total += sum(1 for d in delays.get(name, ()) if d < left)
    return total


def sim_stats(net: Network, cycles: int, trace, weights: list[int], rendered: bytes) -> SimStats:
    initial = [s.weight for s in net.synapses]
    return SimStats(
        fires=sum(len(r.fired) for r in trace),
        deliveries=count_deliveries(net, trace, cycles),
        weight_changes=sum(1 for a, b in zip(initial, weights) if a != b),
        trace_bytes=len(rendered),
        digest=digest(rendered),
    )


def first_difference(expected, actual) -> str | None:
    """Where two traces first differ, or None when they are equal."""
    if len(expected) != len(actual):
        return f"{len(actual)} cycles, expected {len(expected)}"
    for e, a in zip(expected, actual):
        if e.cycle != a.cycle:
            return f"cycle number {a.cycle}, expected {e.cycle}"
        if tuple(e.fired) != tuple(a.fired):
            return f"cycle {e.cycle}: fired {list(a.fired)}, expected {list(e.fired)}"
        if dict(e.charges) != dict(a.charges):
            bad = next(k for k in e.charges if e.charges[k] != a.charges.get(k))
            return (f"cycle {e.cycle}: charge of {bad} is {a.charges.get(bad)}, "
                    f"expected {e.charges[bad]}")
    return None


@dataclass(frozen=True)
class Outcome:
    """What one timed operation produced, kept for the gate."""

    digest: str | None = None  # None when the operation produced no trace
    charges: dict | None = None
    weights: list | None = None


class Gate:
    """Counts operations and failures; an operation fails when it raises,
    when the CLI exits non-zero, or when its output is not the expected one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Operations that matched the first pass, per case: they all fail
        # together if that first pass then fails an oracle.
        self.passed_by_case: Counter = Counter()

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)
            print(f"gate: {what}", file=sys.stderr)

    def check(self, what: str, expected: Outcome, actual: Outcome, key: int) -> bool:
        """Count one operation of case `key` and compare its outcome with the
        expected one; fields the operation did not produce are skipped."""
        self.attempted += 1
        for field in ("digest", "charges", "weights"):
            got = getattr(actual, field)
            if got is not None and got != getattr(expected, field):
                self.fail(f"{what}: {field} differs from the first pass")
                return False
        self.passed_by_case[key] += 1
        return True

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems
