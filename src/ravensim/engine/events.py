"""Stimulus and trace record types shared by every engine backend."""

from __future__ import annotations

import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate

from ..columns import Columns

INPUT_SPIKE = "spike"
INJECTION = "inject"

# Neuron phase codes, shared with the compiled kernel.
PHASE_STANDARD = 0
PHASE_ABSOLUTE = 1
PHASE_RELATIVE = 2


@dataclass(frozen=True)
class StimulusEvent:
    """One external event: an input spike or a signed charge injection."""

    cycle: int
    neuron: str
    kind: str = INPUT_SPIKE
    value: int = 0

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("stimulus cycle must be >= 0")
        if self.kind not in (INPUT_SPIKE, INJECTION):
            raise ValueError(f"unknown stimulus kind: {self.kind}")


class Events(Columns[StimulusEvent]):
    """The events of a Stimulus, one column per StimulusEvent field."""

    __slots__ = ("cycle", "neuron", "kind", "value")
    record = StimulusEvent

    def __init__(self, cycle: Iterable[int], neuron: Iterable[str], kind: Iterable[str],
                 value: Iterable[int]):
        super().__init__(cycle, neuron, kind, value)
        if self.cycle and min(self.cycle) < 0:
            raise ValueError("stimulus cycle must be >= 0")
        if not {INPUT_SPIKE, INJECTION}.issuperset(self.kind):
            kind = next(k for k in self.kind if k not in (INPUT_SPIKE, INJECTION))
            raise ValueError(f"unknown stimulus kind: {kind}")

    def by_cycle(self) -> Events:
        """The events stably sorted by cycle; self when they already are."""
        cycle = self.cycle
        if not any(map(operator.gt, cycle, cycle[1:])):
            return self
        order = sorted(range(len(cycle)), key=cycle.__getitem__)
        return Events(*([column[i] for i in order] for column in self.columns()))


@dataclass(frozen=True)
class Stimulus:
    """An ordered collection of stimulus events.

    events takes any sequence of StimulusEvent and keeps it by column
    (Events); reading an element builds its StimulusEvent.
    """

    events: Sequence[StimulusEvent] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", Events.of(self.events))


@dataclass(frozen=True)
class CycleReport:
    """What one integration cycle produced.

    fired lists, in declaration order, the neurons that fired at the
    beginning of the cycle. charges maps every neuron name to its
    accumulator value at the end of the cycle, recorded after deliveries
    and threshold comparison but before the resting floor is reapplied.
    """

    cycle: int
    fired: tuple[str, ...]
    charges: dict[str, int]


_ZERO = array("q", [0])


class Trace(Sequence[CycleReport]):
    """The cycle reports of one run, stored by column.

    names holds the neuron names once. Cycle i of the trace has the number
    cycles[i] and counts[i] fired neurons, whose indices follow those of the
    cycles before it in fired, and the charges of every neuron, in names
    order, at charges[i * n:(i + 1) * n] for n names. fired, counts and
    charges are array('q') blocks: every backend computes in int64.

    Trace(names, cycles) allocates the count and charge blocks of every
    cycle at once, so a trace no memory can hold raises MemoryError before
    any cycle runs, and add() fills them a cycle at a time. Engine.run makes
    the one Trace of a run and its core fills it; Trace.of and slicing fill
    a fresh one.

    A Trace is a Sequence[CycleReport] that compares equal to a list of equal
    reports. trace[i] builds the CycleReport of cycle i, with a fresh mutable
    charges dict, and keeps it, so an edit through trace[i].charges is seen by
    every later read of the trace. Iteration builds the reports it has not
    kept and keeps none of them; so does reversed(). rows() reads the columns
    alone; Trace.of folds kept reports back into columns.
    """

    __slots__ = ("names", "cycles", "fired", "counts", "charges", "_added", "_starts", "_views")

    def __init__(self, names: Sequence[str], cycles: Sequence[int]):
        self.names = tuple(names)
        self.cycles = cycles
        try:  # len() of a range beyond sys.maxsize raises OverflowError too
            self.counts = _ZERO * len(cycles)
            self.charges = _ZERO * (len(cycles) * len(self.names))
        except OverflowError:
            raise MemoryError from None
        self.fired = array("q")
        self._added = 0  # the cycles filled so far
        self._starts: list[int] | None = None  # where each cycle's fired indices begin
        self._views: dict[int, CycleReport] = {}

    def add(self, fired: Sequence[int], charges: Sequence[int]) -> None:
        """Fills the next cycle: the indices that fired and every charge, in
        names order. IndexError when every cycle is filled, ValueError for a
        charge row that is not one charge per name or a fired index outside
        range(len(names)) or repeated, and OverflowError for a charge beyond
        int64, each with every column as it was."""
        c, n = self._added, len(self.names)
        if c == len(self.counts):
            raise IndexError("every cycle of the trace is filled")
        if len(charges) != n:
            raise ValueError(f"{len(charges)} charges for {n} neurons")
        if fired and not (min(fired) >= 0 and max(fired) < n):
            raise ValueError(f"fired indices must lie in range({n})")
        if len(set(fired)) < len(fired):
            raise ValueError("a fired index repeats")
        self.charges[c * n:(c + 1) * n] = array("q", charges)
        self._added = c + 1
        self.fired.extend(fired)
        self.counts[c] = len(fired)

    class RowError(ValueError):
        """Trace.of's refusal of reports[row]; rule(noun) states it, with noun naming a row."""

        def __init__(self, row: int, cycle: int, rule: str = ""):
            self.row, self._rule = row, rule
            super().__init__(f"cycle {cycle}: {self.rule('cycle')}")

        def rule(self, noun: str) -> str:
            return self._rule or f"charges must name the neurons of the first {noun} and no others"

    @classmethod
    def of(cls, reports: Sequence[CycleReport]) -> Trace:
        """reports as a Trace: a Trace that has kept no reports is returned as
        it is. Every report charges the neurons of the first, and no others,
        and fires each at most once, or Trace.RowError names the first that does
        not; the first report's order is the trace's."""
        if isinstance(reports, Trace) and not reports._views:
            return reports
        reports = list(reports)
        names = tuple(reports[0].charges) if reports else ()
        index = {name: i for i, name in enumerate(names)}
        trace = cls(names, [rep.cycle for rep in reports])
        for row, rep in enumerate(reports):
            ordered = tuple(rep.charges) == names  # then its values are the row as they stand
            if not ordered and rep.charges.keys() != index.keys():
                raise cls.RowError(row, rep.cycle)
            fired = [index.get(name, -1) for name in rep.fired]
            if -1 in fired or len(set(fired)) < len(fired):
                k = next(k for k, i in enumerate(fired) if i < 0 or i in fired[:k])
                why = "has no charge" if fired[k] < 0 else "more than once"
                raise cls.RowError(row, rep.cycle, f"fired neuron {rep.fired[k]!r} {why}")
            trace.add(fired, list(rep.charges.values()) if ordered
                      else [rep.charges[n] for n in names])
        return trace

    def rows(self) -> Iterator[tuple[int, Sequence[int], Sequence[int]]]:
        """(cycle number, fired indices, charges) of every cycle, from the columns."""
        n, fired, charges = len(self.names), self.fired, self.charges
        at = 0
        for i, (cycle, count) in enumerate(zip(self.cycles, self.counts)):
            yield cycle, fired[at:at + count], charges[i * n:(i + 1) * n]
            at += count

    def _cells(self, i: int) -> tuple[Sequence[int], Sequence[int]]:
        """The fired indices and the charges of cycle i."""
        if self._starts is None:
            self._starts = list(accumulate(self.counts, initial=0))
        n = len(self.names)
        return self.fired[self._starts[i]:self._starts[i + 1]], self.charges[i * n:(i + 1) * n]

    def _report(self, i: int) -> CycleReport:
        """The kept report of cycle i, or a new one built from its cells."""
        view = self._views.get(i)
        if view is not None:
            return view
        names, (fired, charges) = self.names, self._cells(i)
        return CycleReport(self.cycles[i], tuple([names[j] for j in fired]),
                           dict(zip(names, charges)))

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[CycleReport]:
        return map(self._report, range(len(self)))

    def __reversed__(self) -> Iterator[CycleReport]:
        return map(self._report, range(len(self) - 1, -1, -1))

    def __getitem__(self, key):
        if isinstance(key, slice):
            picked = range(len(self))[key]
            part = Trace(self.names, self.cycles[key])
            for i in picked:
                part.add(*self._cells(i))
            part._views = {k: self._views[i] for k, i in enumerate(picked) if i in self._views}
            return part
        i = operator.index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("trace index out of range")
        view = self._views[i] = self._report(i)
        return view

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Trace, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"
