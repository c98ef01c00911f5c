"""Immutable sequences of frozen records, stored by column.

A network holds thousands of neuron and synapse settings and a stimulus tens
of thousands of events. Kept as one tuple per field, they are parsed,
validated and flattened for the engines a column at a time; a record object
is built only when code reads an element.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import MISSING, fields
from functools import cache
from operator import attrgetter, eq
from typing import Any, ClassVar, Generic, TypeVar, get_type_hints

R = TypeVar("R")

# The one type rule: a field typed int, bool or str holds exactly that type; a bool is no int.
KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def must_be(label: str, kind: type, value: Any) -> str:
    return f"{label} must be {KIND_NAMES[kind]}, got {value!r}"


@cache
def record_fields(record: type) -> tuple[tuple[str, str, Any, Any], ...]:
    """(name, key, default or None when required, annotated type) of each
    field of the dataclass record; the key is metadata["key"], else the name."""
    hints = get_type_hints(record)
    return tuple((f.name, f.metadata.get("key", f.name),
                  None if f.default is MISSING else f.default, hints[f.name])
                 for f in fields(record))


def check_column(label: str, kind: type, column: Sequence[Any]) -> None:
    """ValueError naming label[i] for the first value of column not of exactly type kind."""
    if not {kind}.issuperset(map(type, column)):
        i = next(i for i, value in enumerate(column) if type(value) is not kind)
        raise ValueError(must_be(f"{label}[{i}]", kind, column[i]))


def check_fields(obj: Any, owner: str = "") -> None:
    """check_column's rule for each int, bool or str field of the dataclass obj."""
    for name, _, _, kind in record_fields(type(obj)):
        if kind in KIND_NAMES and type(getattr(obj, name)) is not kind:
            raise ValueError(must_be(owner + name, kind, getattr(obj, name)))


class Columns(Sequence[R], Generic[R]):
    """A Sequence[R] of `record` instances, one tuple per record field.

    A subclass sets `record` and names its fields, in order, as __slots__;
    each slot holds that field's column. The constructor refuses a column
    with a value that breaks the type rule of its field, naming the first.
    seq[i] and iteration build fresh records and keep none of them. A Columns
    compares equal to a Columns of the same class with equal columns, and to
    a tuple or list of equal records.
    """

    __slots__ = ()
    record: ClassVar[type]

    def __init__(self, *columns: Iterable[Any]):
        specs, owner = record_fields(self.record), type(self).__name__
        if len(columns) != len(specs):
            raise TypeError(f"{owner} takes {len(specs)} columns, got {len(columns)}")
        columns = tuple(map(tuple, columns))
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"{owner} columns differ in length")
        for (name, _, _, kind), column in zip(specs, columns):
            check_column(f"{owner}.{name}", kind, column)
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
