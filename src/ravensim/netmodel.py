"""Hardware constants, network settings and validation.

A simulated RAVENS processor is described in two layers. HardwareConstants
capture the structural choices baked in when the processor is built: the
bit widths of weights, thresholds and accumulators, the maximum programmable
delay, leak and refractory durations, the number of input ports per neuron,
and the hardware STDP adjustment table. A Network programs per-neuron and
per-synapse settings onto that hardware. Validation checks every programmed
value against the hardware limits and reports each violation with the entity
and rule that failed.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from .columns import Columns, check_column, check_fields, record_fields


# Every backend computes in int64. Widths of at most MAX_WIDTH bits, and durations,
# delays and STDP entries below 2**MAX_WIDTH, leave room for the sums of a cycle.
INT64_MAX = (1 << 63) - 1
MAX_WIDTH = 62


def signed_range(bits: int) -> tuple[int, int]:
    """Inclusive (lo, hi) range of a two's-complement value of `bits` bits."""
    if bits < 1:
        raise ValueError("bit width must be >= 1")
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def ceil_log2(x: int) -> int:
    """Smallest a such that 2**a >= x, for x >= 1. Integer arithmetic only."""
    if x < 1:
        raise ValueError("ceil_log2 requires x >= 1")
    return (x - 1).bit_length()


def min_accumulator_width(weight_width: int, ports: int, injection_ports: int) -> int:
    """Minimum accumulator width, in bits, that a single cycle cannot overflow.

    Both port configurations are considered: all ports carrying synapses at
    the maximum weight magnitude, or `injection_ports` ports reserved for
    charge injection while the rest carry synapses. The worse case decides.
    """
    if weight_width < 1:
        raise ValueError("weight width must be >= 1")
    if ports < 1:
        raise ValueError("port count must be >= 1")
    if not 0 <= injection_ports <= ports:
        raise ValueError("injection ports must lie in [0, ports]")
    wmax = (1 << weight_width) - 1
    with_injection = wmax * (ports - injection_ports) + (1 << injection_ports) - 1
    synapses_only = wmax * ports
    return ceil_log2(max(with_injection, synapses_only))


@dataclass(frozen=True)
class HardwareConstants:
    """Structural limits of a built processor, each exactly an int. Immutable."""

    accumulator_width: int
    threshold_width: int
    weight_width: int
    max_delay: int
    max_leak: int
    max_abs_refractory: int
    max_rel_refractory: int
    ports: int
    injection_ports: int
    stdp_table: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "stdp_table", tuple(self.stdp_table))
        check_fields(self)
        check_column("stdp_table", int, self.stdp_table)
        for name in ("accumulator_width", "threshold_width", "weight_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
            if getattr(self, name) > MAX_WIDTH:
                raise ValueError(f"{name} must be <= {MAX_WIDTH}")
        for name in ("max_delay", "max_leak", "max_abs_refractory", "max_rel_refractory"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
            if getattr(self, name) >= 1 << MAX_WIDTH:
                raise ValueError(f"{name} must be < 2**{MAX_WIDTH}")
        if self.ports < 1:
            raise ValueError("ports must be >= 1")
        if not 0 <= self.injection_ports <= self.ports:
            raise ValueError("injection_ports must lie in [0, ports]")
        if any(abs(v) >= 1 << MAX_WIDTH for v in self.stdp_table):
            raise ValueError(f"stdp_table entries must lie in (-2**{MAX_WIDTH}, 2**{MAX_WIDTH})")


@dataclass(frozen=True)
class NeuronSettings:
    """Per-neuron programmable settings."""

    name: str
    threshold: int
    standard_resting: int = 0
    refractory_resting: int = 0
    abs_refractory: int = 0
    rel_refractory: int = 0
    leak: int = 0
    injection: bool = False


@dataclass(frozen=True)
class SynapseSettings:
    """Per-synapse programmable settings."""

    pre: str = field(metadata={"key": "from"})
    post: str = field(metadata={"key": "to"})
    weight: int
    delay: int = 0


class Neurons(Columns[NeuronSettings]):
    """The neurons of a Network, one column per NeuronSettings field; no name is empty."""

    record = NeuronSettings
    __slots__ = tuple(name for name, *_ in record_fields(record))

    def __init__(self, *columns):
        super().__init__(*columns)
        if "" in self.name:
            raise ValueError(f"Neurons.name[{self.name.index('')}] must not be empty")


class Synapses(Columns[SynapseSettings]):
    """The synapses of a Network, one column per SynapseSettings field."""

    record = SynapseSettings
    __slots__ = tuple(name for name, *_ in record_fields(record))


@dataclass(frozen=True)
class Network:
    """A programmed network: neurons, synapses and overall settings.

    Immutable. neurons and synapses take any sequence of settings records
    and keep them by column (Neurons, Synapses), whose constructors check
    their types; reading an element builds its record. Engines copy the
    synapse weights into their own mutable state, so a Network can be
    shared between concurrent simulations.
    """

    neurons: Sequence[NeuronSettings]
    synapses: Sequence[SynapseSettings]
    stdp_enabled: bool = field(default=False, metadata={"key": "stdp"})
    input_spike_amount: int = 16

    def __post_init__(self) -> None:
        object.__setattr__(self, "neurons", Neurons.of(self.neurons))
        object.__setattr__(self, "synapses", Synapses.of(self.synapses))
        check_fields(self, "Network.")

    def neuron_names(self) -> list[str]:
        return list(self.neurons.name)

    def neuron_index(self) -> dict[str, int]:
        return dict(zip(self.neurons.name, range(len(self.neurons))))


@dataclass(frozen=True)
class Violation:
    """One validation failure: which entity broke which rule."""

    entity: str
    rule: str
    message: str


class ValidationError(ValueError):
    """Raised when a network cannot be programmed onto the hardware."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        lines = [v.message for v in report.violations]
        super().__init__("network validation failed:\n" + "\n".join(lines))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]
    min_accumulator_width: int


# A range rule over one column: the column, its inclusive bounds, the rule
# name, and what a violation says about an offending value.
_RangeRule = tuple[Sequence[int], int, int, str, Callable[[int], str]]


def _outside(rules: Sequence[_RangeRule]) -> set[int]:
    """Indices of the entities that break one of the range rules. A column is
    scanned element by element only when its min or max is out of bounds.
    The min and max are taken over the column's distinct values: a settings
    column holds few of them, and one pass to find them costs less than the
    two passes of min and max over the whole column."""
    bad: set[int] = set()
    for column, lo, hi, _, _ in rules:
        values = set(column)
        if values and not (lo <= min(values) and max(values) <= hi):
            bad.update(i for i, value in enumerate(column) if not lo <= value <= hi)
    return bad


def _range_violations(i: int, entity: str, label: str, rules: Sequence[_RangeRule],
                      out: list[Violation]) -> None:
    for column, lo, hi, rule, describe in rules:
        value = column[i]
        if not lo <= value <= hi:
            out.append(Violation(entity, rule, f"{label}: {describe(value)}"))


def validate_network(net: Network, hw: HardwareConstants) -> ValidationReport:
    """Check every programmed setting against the hardware limits.

    Returns a report listing all violations; ok is true when there are none.
    Violations come entity by entity: the hardware, each neuron in order,
    each synapse in order, the port budget of each neuron, then the network
    settings. Each rule is checked on a whole column at once; entities are
    visited only to report the ones that break a rule.
    """
    violations: list[Violation] = []
    needed = min_accumulator_width(hw.weight_width, hw.ports, hw.injection_ports)
    if hw.accumulator_width < needed:
        violations.append(Violation("hardware", "accumulator width too small",
                                    f"accumulator width {hw.accumulator_width} is below the "
                                    f"minimum {needed} for weight width {hw.weight_width}, "
                                    f"{hw.ports} ports, {hw.injection_ports} injection ports"))

    neurons = net.neurons
    names = neurons.name
    tlo, thi = signed_range(hw.threshold_width)
    alo, ahi = signed_range(hw.accumulator_width)
    acc = f"for a {hw.accumulator_width}-bit accumulator"
    neuron_rules: tuple[_RangeRule, ...] = (
        (neurons.threshold, tlo, thi, "threshold out of range",
         lambda v: f"threshold {v} outside [{tlo}, {thi}] for a {hw.threshold_width}-bit threshold"),
        (neurons.standard_resting, alo, ahi, "resting potential out of range",
         lambda v: f"standard resting potential {v} outside [{alo}, {ahi}] {acc}"),
        (neurons.refractory_resting, alo, ahi, "resting potential out of range",
         lambda v: f"refractory resting potential {v} outside [{alo}, {ahi}] {acc}"),
        (neurons.leak, 0, hw.max_leak, "leak out of range",
         lambda v: f"leak {v} outside [0, {hw.max_leak}]"),
        (neurons.abs_refractory, 0, hw.max_abs_refractory, "refractory out of range",
         lambda v: f"absolute refractory {v} outside [0, {hw.max_abs_refractory}]"),
        (neurons.rel_refractory, 0, hw.max_rel_refractory, "refractory out of range",
         lambda v: f"relative refractory {v} outside [0, {hw.max_rel_refractory}]"),
    )
    known, first = set(names), {}  # first: the index of each name's first declaration
    duplicates = ({i for i, name in enumerate(names) if first.setdefault(name, i) != i}
                  if len(known) < len(names) else set())
    for i in sorted(duplicates | _outside(neuron_rules)):
        name = names[i]
        if i in duplicates:
            violations.append(Violation(name, "duplicate neuron id",
                                        f"neuron name {name} declared more than once"))
        _range_violations(i, name, f"neuron {name}", neuron_rules, violations)

    synapses = net.synapses
    pre, post = synapses.pre, synapses.post
    wlo, whi = signed_range(hw.weight_width)
    synapse_rules: tuple[_RangeRule, ...] = (
        (synapses.weight, wlo, whi, "weight out of range",
         lambda v: f"weight {v} outside [{wlo}, {whi}] for a {hw.weight_width}-bit weight"),
        (synapses.delay, 0, hw.max_delay, "delay out of range",
         lambda v: f"delay {v} outside [0, {hw.max_delay}]"),
    )
    # One count of the post names serves both the endpoint test here and the
    # port budget below; the unknown names are gathered only when some exist.
    fan_in = Counter(post)
    dangling: set[int] = set()
    if not (known.issuperset(pre) and known.issuperset(fan_in)):
        unknown = set(pre).union(fan_in) - known
        dangling = {i for i, ends in enumerate(zip(pre, post)) if not unknown.isdisjoint(ends)}
    for i in sorted(dangling | _outside(synapse_rules)):
        label = f"{pre[i]}->{post[i]}"
        for end in (pre[i], post[i]):
            if end not in known:
                violations.append(Violation(label, "unknown neuron",
                                            f"synapse {label}: no neuron named {end}"))
        _range_violations(i, label, f"synapse {label}", synapse_rules, violations)

    # Each neuron has hw.ports input ports; enabling injection reserves
    # hw.injection_ports of them, leaving fewer for incoming synapses.
    if fan_in and max(fan_in.values()) > hw.ports - hw.injection_ports:
        for name, injection in zip(names, neurons.injection):
            budget = hw.ports - (hw.injection_ports if injection else 0)
            if fan_in[name] > budget:
                violations.append(Violation(name, "port budget exceeded",
                                            f"neuron {name}: {fan_in[name]} incoming synapses "
                                            f"exceed the {budget} available ports"))

    if net.stdp_enabled and len(hw.stdp_table) == 0:
        violations.append(Violation("network", "stdp unavailable",
                                    "stdp is enabled but the hardware adjustment table is empty"))

    if not alo <= net.input_spike_amount <= ahi:
        violations.append(Violation("network", "input spike amount out of range",
                                    f"input spike amount {net.input_spike_amount} outside "
                                    f"[{alo}, {ahi}]"))

    return ValidationReport(ok=not violations, violations=tuple(violations),
                            min_accumulator_width=needed)


def resource_report(net: Network, hw: HardwareConstants) -> str:
    """Human-readable resource summary for a network on given hardware."""
    fan_in = Counter(net.synapses.post)
    needed = min_accumulator_width(hw.weight_width, hw.ports, hw.injection_ports)
    lines = [
        f"neurons: {len(net.neurons)}",
        f"synapses: {len(net.synapses)}",
        f"stdp table size: {len(hw.stdp_table)}",
        f"min accumulator width: {needed}",
        f"accumulator width: {hw.accumulator_width}",
        f"longest delay: {max(net.synapses.delay, default=0)}",
    ]
    if net.neurons:
        lines.append("port usage:")
        for name, injection in zip(net.neurons.name, net.neurons.injection):
            budget = hw.ports - (hw.injection_ports if injection else 0)
            lines.append(f"  {name}: {fan_in[name]}/{budget}")
    return "\n".join(lines)
