"""Immutable sequences of frozen records, stored by column.

A network holds thousands of neuron and synapse settings and a stimulus tens
of thousands of events. Kept as one tuple per field, they are parsed,
validated and flattened for the engines a column at a time; a record object
is built only when code reads an element.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import attrgetter, eq
from typing import Any, ClassVar, Generic, TypeVar

R = TypeVar("R")


class Columns(Sequence[R], Generic[R]):
    """A Sequence[R] of `record` instances, one tuple per record field.

    A subclass names the fields of `record`, in the order of its constructor,
    as its __slots__; each slot holds that field's column. seq[i] and
    iteration build fresh records and keep none of them. A Columns compares
    equal to a Columns of the same class with equal columns, and to a tuple
    or list of equal records.
    """

    __slots__ = ()
    record: ClassVar[type]

    def __init__(self, *columns: Iterable[Any]):
        fields = self.__slots__
        if len(columns) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} columns, "
                            f"got {len(columns)}")
        columns = tuple(map(tuple, columns))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"{type(self).__name__} columns differ in length")
        for name, column in zip(fields, columns):
            object.__setattr__(self, name, column)

    @classmethod
    def of(cls, records: Iterable[R]):
        """records as columns; an instance of cls is returned as it is."""
        if isinstance(records, cls):
            return records
        records = tuple(records)
        return cls(*(map(attrgetter(name), records) for name in cls.__slots__))

    def columns(self) -> tuple[tuple, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self.columns()

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __iter__(self) -> Iterator[R]:
        return map(self.record, *self.columns())

    def __getitem__(self, key):
        if isinstance(key, slice):
            return type(self)(*(column[key] for column in self.columns()))
        return self.record(*(column[key] for column in self.columns()))

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self.columns() == other.columns()
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}.of({list(self)!r})"
