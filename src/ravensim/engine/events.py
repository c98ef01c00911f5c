"""Stimulus and trace record types shared by every engine backend."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Stimulus:
    """An ordered collection of stimulus events."""

    events: tuple[StimulusEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))


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
