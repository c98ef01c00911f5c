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


def zeros(count: int) -> array:
    """A block of count zeros as one array('q'). A count too large for the
    memory at hand, or for the address space, raises MemoryError at once."""
    try:
        return _ZERO * count
    except OverflowError:
        raise MemoryError from None


class TraceBlocks:
    """The fired, count and charge blocks of one run of n_cycles over n
    neurons, filled a cycle at a time by the python and reference cores.

    The count and charge blocks are allocated whole before the first cycle,
    as the compiled core allocates them, so a run too long for memory fails
    at once. A charge beyond 64 bits turns the charge block into a list.
    """

    def __init__(self, n_cycles: int, n: int):
        self.fired = array("q")
        self.counts = zeros(n_cycles)
        self.charges: array | list[int] = zeros(n_cycles * n)
        self._n = n
        self._cycle = 0

    def add(self, fired: list[int], charges: list[int]) -> None:
        """Records the next cycle: the indices that fired and every charge."""
        c, n = self._cycle, self._n
        self._cycle = c + 1
        self.fired.extend(fired)
        self.counts[c] = len(fired)
        if isinstance(self.charges, array):
            try:
                self.charges[c * n:(c + 1) * n] = array("q", charges)
                return
            except OverflowError:
                self.charges = self.charges.tolist()
        self.charges[c * n:(c + 1) * n] = charges

    def blocks(self) -> tuple[array, array, array | list[int]]:
        return self.fired, self.counts, self.charges


def int64_block(values: list[int]) -> array | list[int]:
    """values as one array('q') block, or the list itself when a value does
    not fit in 64 bits (possible on the python and reference backends)."""
    try:
        return array("q", values)
    except OverflowError:
        return values


class Trace(Sequence[CycleReport]):
    """The cycle reports of one run, stored by column.

    names holds the neuron names once. Cycle i of the trace has the number
    cycles[i] and counts[i] fired neurons, whose indices follow those of the
    cycles before it in fired, and the charges of every neuron, in names
    order, at charges[i * n:(i + 1) * n] for n names. fired and counts are
    array('q') blocks; charges is one too, unless a charge does not fit in
    64 bits.

    A Trace is a Sequence[CycleReport] that compares equal to a list of equal
    reports. trace[i] builds the CycleReport of cycle i, with a fresh mutable
    charges dict, and keeps it, so an edit through trace[i].charges is seen by
    every later read of the trace. Iteration builds the reports it has not
    kept and keeps none of them; so does reversed(). rows() reads the columns
    alone; Trace.of folds kept reports back into columns.
    """

    __slots__ = ("names", "cycles", "fired", "counts", "charges", "_starts", "_views")

    def __init__(self, names: Sequence[str], cycles: Sequence[int], fired: Sequence[int],
                 counts: Sequence[int], charges: Sequence[int]):
        self.names = tuple(names)
        self.cycles = cycles
        self.fired = fired
        self.counts = counts
        self.charges = charges
        self._starts: list[int] | None = None  # where each cycle's fired indices begin
        self._views: dict[int, CycleReport] = {}

    @classmethod
    def of(cls, reports: Sequence[CycleReport]) -> Trace:
        """reports as a Trace: a Trace that has kept no reports is returned as
        it is. Every report must hold a charge for the neurons of the first
        one, and only for them; the first report's order is the trace's."""
        if isinstance(reports, Trace) and not reports._views:
            return reports
        reports = list(reports)
        names = tuple(reports[0].charges) if reports else ()
        index = {name: i for i, name in enumerate(names)}
        cycles, fired, counts, charges = [], [], [], []
        for rep in reports:
            ordered = tuple(rep.charges) == names  # then its values are the row as they stand
            if not ordered and rep.charges.keys() != index.keys():
                raise ValueError(f"cycle {rep.cycle}: charges must name the neurons "
                                 "of the first cycle and no others")
            missing = next((name for name in rep.fired if name not in index), None)
            if missing is not None:
                raise ValueError(f"cycle {rep.cycle}: fired neuron {missing!r} has no charge")
            cycles.append(rep.cycle)
            fired += [index[name] for name in rep.fired]
            counts.append(len(rep.fired))
            charges += rep.charges.values() if ordered else [rep.charges[n] for n in names]
        return cls(names, cycles, array("q", fired), array("q", counts), int64_block(charges))

    def rows(self) -> Iterator[tuple[int, Sequence[int], Sequence[int]]]:
        """(cycle number, fired indices, charges) of every cycle, from the columns."""
        n, fired, charges = len(self.names), self.fired, self.charges
        at = 0
        for i, (cycle, count) in enumerate(zip(self.cycles, self.counts)):
            yield cycle, fired[at:at + count], charges[i * n:(i + 1) * n]
            at += count

    def _report(self, cycle: int, fired: Sequence[int], charges: Sequence[int]) -> CycleReport:
        names = self.names
        return CycleReport(cycle, tuple([names[j] for j in fired]), dict(zip(names, charges)))

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[CycleReport]:
        views = self._views
        for i, row in enumerate(self.rows()):
            view = views.get(i)
            yield view if view is not None else self._report(*row)

    def __reversed__(self) -> Iterator[CycleReport]:
        views = self._views
        for i in range(len(self) - 1, -1, -1):
            view = views.get(i)
            yield view if view is not None else self._report(self.cycles[i], *self._cells(i))

    def _cells(self, i: int) -> tuple[Sequence[int], Sequence[int]]:
        """The fired indices and the charges of cycle i."""
        if self._starts is None:
            self._starts = list(accumulate(self.counts, initial=0))
        n = len(self.names)
        return self.fired[self._starts[i]:self._starts[i + 1]], self.charges[i * n:(i + 1) * n]

    def __getitem__(self, key):
        if isinstance(key, slice):
            picked = range(len(self))[key]
            fired, charges = self.fired[:0], self.charges[:0]
            for i in picked:
                cycle_fired, cycle_charges = self._cells(i)
                fired += cycle_fired
                charges += cycle_charges
            part = Trace(self.names, self.cycles[key], fired, self.counts[key], charges)
            part._views = {k: self._views[i] for k, i in enumerate(picked) if i in self._views}
            return part
        i = operator.index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("trace index out of range")
        view = self._views.get(i)
        if view is None:
            view = self._views[i] = self._report(self.cycles[i], *self._cells(i))
        return view

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Trace, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Trace({list(self)!r})"
