"""In-memory span tracing around ravensim's public functions.

A Tracer replaces each wrap point (a module attribute, or a method on the
engine class new_engine returned) with a wrapper that records a span:
name, start, end and parent. Wrappers are installed only for the duration
of a traced pass and the originals are restored afterwards, so untraced
passes run the program unmodified.

Functions are wrapped where their callers look them up: ``ravensim.cli``
calls the loaders it imported by name, ``new_engine`` calls the validator,
the stimulus check and the layout builder through ``ravensim.engine``,
and ``load_network`` calls the parser and validator through
``ravensim.ioformats``. One function object may be bound at several of
these places; each call goes through one binding, so it is counted once.

A wrap point that no longer exists is reported as absent and counts zero
calls; it never stops the run.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name). The span name is "<layer>.<function>";
# the layer is the ravensim module that implements the function.
MODULE_POINTS = (
    ("ravensim.cli", "main", "cli.main"),
    ("ravensim.cli", "load_hardware", "ioformats.load_hardware"),
    ("ravensim.cli", "parse_network", "ioformats.parse_network"),
    ("ravensim.cli", "validate_network", "netmodel.validate_network"),
    ("ravensim.cli", "load_stimulus", "ioformats.load_stimulus"),
    ("ravensim.cli", "new_engine", "engine.new_engine"),
    ("ravensim.cli", "format_trace", "ioformats.format_trace"),
    ("ravensim", "new_engine", "engine.new_engine"),
    ("ravensim.ioformats", "load_hardware", "ioformats.load_hardware"),
    ("ravensim.ioformats", "load_network", "ioformats.load_network"),
    ("ravensim.ioformats", "parse_network", "ioformats.parse_network"),
    ("ravensim.ioformats", "validate_network", "netmodel.validate_network"),
    ("ravensim.ioformats", "load_stimulus", "ioformats.load_stimulus"),
    ("ravensim.engine", "validate_network", "netmodel.validate_network"),
    ("ravensim.engine", "check_stimulus", "engine.layout.check_stimulus"),
    ("ravensim.engine", "build_layout", "engine.layout.build_layout"),
)
# Methods looked up on the engine object that new_engine returned.
ENGINE_METHODS = (("run", "engine.run"), ("advance", "engine.advance"))

LAYERS = ("cli", "ioformats", "netmodel", "engine.layout", "engine")

_INHERITED = object()


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same span list, -1 for a root


@dataclass
class SpanTotals:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Records spans while installed. Single-threaded by design."""

    def __init__(self, engine_cls: type | None):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._points: list[tuple[object, str, str]] = []
        self.absent: list[str] = []
        for mod_name, attr, span in MODULE_POINTS:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            if callable(getattr(mod, attr, None)):
                self._points.append((mod, attr, span))
            else:
                self.absent.append(f"{mod_name}.{attr}")
        for attr, span in ENGINE_METHODS:
            if engine_cls is not None and callable(getattr(engine_cls, attr, None)):
                self._points.append((engine_cls, attr, span))
            else:
                owner = engine_cls.__name__ if engine_cls is not None else "engine"
                self.absent.append(f"{owner}.{attr}")

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Install every wrap point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in self._points:
                if isinstance(owner, type):
                    original = owner.__dict__.get(attr, _INHERITED)
                else:
                    original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def totals(self, since: int = 0) -> dict[str, SpanTotals]:
        """Calls, total time and self time per span name, from span `since` on.

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested, so self times of all spans add
        up to the durations of the root spans.
        """
        spans = self.spans[since:]
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span.parent - since
            if parent >= 0:
                child_time[parent] += span.end - span.start
        out: dict[str, SpanTotals] = {}
        for span, children in zip(spans, child_time):
            t = out.setdefault(span.name, SpanTotals())
            t.calls += 1
            t.total += span.end - span.start
            t.self_time += span.end - span.start - children
        return out

    def root_time(self, since: int = 0) -> float:
        return sum(s.end - s.start for s in self.spans[since:] if s.parent < since)
