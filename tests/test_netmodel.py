"""Width arithmetic and network validation rules."""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from ravensim import (
    HardwareConstants,
    Network,
    NeuronSettings,
    SynapseSettings,
    min_accumulator_width,
    resource_report,
    validate_network,
)
from ravensim.netmodel import ValidationReport, Violation, ceil_log2, signed_range


def small_hw(**overrides) -> HardwareConstants:
    base = dict(
        accumulator_width=7,
        threshold_width=4,
        weight_width=4,
        max_delay=8,
        max_leak=7,
        max_abs_refractory=7,
        max_rel_refractory=7,
        ports=8,
        injection_ports=0,
        stdp_table=(),
    )
    base.update(overrides)
    return HardwareConstants(**base)


def two_neuron_net(**overrides) -> Network:
    base = dict(
        neurons=(NeuronSettings("A", threshold=1), NeuronSettings("B", threshold=1)),
        synapses=(SynapseSettings("A", "B", 2, 0),),
    )
    base.update(overrides)
    return Network(**base)


def test_signed_range():
    assert signed_range(1) == (-1, 0)
    assert signed_range(4) == (-8, 7)
    assert signed_range(8) == (-128, 127)
    with pytest.raises(ValueError):
        signed_range(0)


def test_ceil_log2_small_values():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_min_accumulator_width_known_points():
    # 4-bit weights on 8 ports, 4 reserved for injection: the synapses-only
    # configuration dominates, 15 * 8 = 120 needs 7 bits.
    assert min_accumulator_width(4, 8, 4) == 7
    assert min_accumulator_width(1, 2, 0) == 1
    assert min_accumulator_width(8, 4, 2) == 10


def oracle_min_width(weight_width: int, ports: int, injection_ports: int) -> int:
    """Brute-force width: grow until one cycle's worst total fits."""
    wmax = (1 << weight_width) - 1
    worst = max(
        wmax * (ports - injection_ports) + (1 << injection_ports) - 1,
        wmax * ports,
    )
    bits = 0
    while (1 << bits) < worst:
        bits += 1
    return bits


def test_min_accumulator_width_matches_oracle():
    for weight_width in range(1, 9):
        for ports in range(1, 17):
            for injection_ports in range(0, ports + 1):
                got = min_accumulator_width(weight_width, ports, injection_ports)
                want = oracle_min_width(weight_width, ports, injection_ports)
                assert got == want, (weight_width, ports, injection_ports)


def test_hardware_constants_reject_bad_values():
    with pytest.raises(ValueError):
        small_hw(accumulator_width=0)
    with pytest.raises(ValueError):
        small_hw(max_delay=-1)
    with pytest.raises(ValueError):
        small_hw(injection_ports=9)  # exceeds ports=8


def rules_of(report) -> set[str]:
    return {v.rule for v in report.violations}


def test_valid_network_passes():
    report = validate_network(two_neuron_net(), small_hw())
    assert report.ok
    assert report.violations == ()
    assert report.min_accumulator_width == 7


def test_threshold_bounds():
    hw = small_hw()  # 4-bit threshold: [-8, 7]
    net = two_neuron_net(neurons=(NeuronSettings("A", threshold=8),
                                  NeuronSettings("B", threshold=-8)))
    report = validate_network(net, hw)
    assert rules_of(report) == {"threshold out of range"}
    assert len(report.violations) == 1  # -8 is in range


def test_resting_potential_bounds():
    hw = small_hw()  # 7-bit accumulator: [-64, 63]
    net = two_neuron_net(neurons=(
        NeuronSettings("A", threshold=1, standard_resting=-65),
        NeuronSettings("B", threshold=1, refractory_resting=64),
    ))
    assert rules_of(validate_network(net, hw)) == {"resting potential out of range"}


def test_leak_and_refractory_bounds():
    hw = small_hw(max_leak=3, max_abs_refractory=2, max_rel_refractory=2)
    net = two_neuron_net(neurons=(
        NeuronSettings("A", threshold=1, leak=4),
        NeuronSettings("B", threshold=1, abs_refractory=3, rel_refractory=3),
    ))
    report = validate_network(net, hw)
    assert rules_of(report) == {"leak out of range", "refractory out of range"}
    assert len(report.violations) == 3


def test_duplicate_neuron_name():
    net = two_neuron_net(neurons=(NeuronSettings("A", threshold=1),
                                  NeuronSettings("A", threshold=1)),
                         synapses=())
    assert rules_of(validate_network(net, small_hw())) == {"duplicate neuron id"}


def test_unknown_synapse_endpoint():
    net = two_neuron_net(synapses=(SynapseSettings("A", "Z", 1, 0),))
    assert rules_of(validate_network(net, small_hw())) == {"unknown neuron"}


def test_weight_bounds():
    # 4-bit weights: [-8, 7]; both endpoints legal, one past each end not.
    ok = two_neuron_net(synapses=(SynapseSettings("A", "B", -8, 0),
                                  SynapseSettings("A", "B", 7, 0)))
    assert validate_network(ok, small_hw()).ok
    bad = two_neuron_net(synapses=(SynapseSettings("A", "B", 8, 0),
                                   SynapseSettings("A", "B", -9, 0)))
    report = validate_network(bad, small_hw())
    assert rules_of(report) == {"weight out of range"}
    assert len(report.violations) == 2


def test_delay_bounds():
    ok = two_neuron_net(synapses=(SynapseSettings("A", "B", 1, 8),))
    assert validate_network(ok, small_hw()).ok
    bad = two_neuron_net(synapses=(SynapseSettings("A", "B", 1, 9),))
    assert rules_of(validate_network(bad, small_hw())) == {"delay out of range"}


def test_port_budget():
    hw = small_hw(ports=4, injection_ports=2, accumulator_width=8)
    fan_in = tuple(SynapseSettings("A", "B", 1, 0) for _ in range(4))
    net = two_neuron_net(synapses=fan_in)
    assert validate_network(net, hw).ok

    # Enabling injection reserves 2 of B's 4 ports; 3 synapses no longer fit.
    injected = two_neuron_net(
        neurons=(NeuronSettings("A", threshold=1),
                 NeuronSettings("B", threshold=1, injection=True)),
        synapses=fan_in[:3],
    )
    report = validate_network(injected, hw)
    assert rules_of(report) == {"port budget exceeded"}
    assert "3 incoming synapses" in report.violations[0].message


def test_accumulator_width_too_small():
    hw = small_hw(accumulator_width=6)  # needs 7 for 15 * 8
    report = validate_network(two_neuron_net(), hw)
    assert "accumulator width too small" in rules_of(report)


def test_stdp_requires_table():
    net = two_neuron_net(stdp_enabled=True)
    assert rules_of(validate_network(net, small_hw())) == {"stdp unavailable"}
    assert validate_network(net, small_hw(stdp_table=(1,))).ok


def test_input_spike_amount_bounds():
    net = two_neuron_net(input_spike_amount=64)  # 7-bit accumulator: [-64, 63]
    assert rules_of(validate_network(net, small_hw())) == {"input spike amount out of range"}


def test_multiple_violations_all_reported():
    net = Network(
        neurons=(NeuronSettings("A", threshold=99, leak=8),),
        synapses=(SynapseSettings("A", "Z", 40, 20),),
        stdp_enabled=True,
    )
    report = validate_network(net, small_hw())
    assert rules_of(report) == {
        "threshold out of range",
        "leak out of range",
        "unknown neuron",
        "weight out of range",
        "delay out of range",
        "stdp unavailable",
    }


def test_violations_come_in_entity_order():
    # Every rule broken by two or more entities, where an entity can break it
    # twice; the CLI prints the violations in this order.
    net = Network(
        neurons=(NeuronSettings("A", threshold=99, standard_resting=40, refractory_resting=-40,
                                leak=8, abs_refractory=9, rel_refractory=-1),
                 NeuronSettings("B", threshold=-9, standard_resting=-33, refractory_resting=32,
                                leak=-1, abs_refractory=-1, rel_refractory=8, injection=True),
                 NeuronSettings("A", threshold=1, leak=8),
                 NeuronSettings("B", threshold=1)),
        synapses=(SynapseSettings("Z", "Y", 40, 20),
                  SynapseSettings("A", "X", -9, -1),
                  *[SynapseSettings("B", "A", 1, 0)] * 9,
                  *[SynapseSettings("A", "B", 1, 0)] * 7),
        stdp_enabled=True,
        input_spike_amount=99,
    )
    report = validate_network(net, small_hw(accumulator_width=6, injection_ports=2))
    assert [v.message for v in report.violations] == [
        "accumulator width 6 is below the minimum 7 for weight width 4, 8 ports, "
        "2 injection ports",
        "neuron A: threshold 99 outside [-8, 7] for a 4-bit threshold",
        "neuron A: standard resting potential 40 outside [-32, 31] for a 6-bit accumulator",
        "neuron A: refractory resting potential -40 outside [-32, 31] for a 6-bit accumulator",
        "neuron A: leak 8 outside [0, 7]",
        "neuron A: absolute refractory 9 outside [0, 7]",
        "neuron A: relative refractory -1 outside [0, 7]",
        "neuron B: threshold -9 outside [-8, 7] for a 4-bit threshold",
        "neuron B: standard resting potential -33 outside [-32, 31] for a 6-bit accumulator",
        "neuron B: refractory resting potential 32 outside [-32, 31] for a 6-bit accumulator",
        "neuron B: leak -1 outside [0, 7]",
        "neuron B: absolute refractory -1 outside [0, 7]",
        "neuron B: relative refractory 8 outside [0, 7]",
        "neuron name A declared more than once",
        "neuron A: leak 8 outside [0, 7]",
        "neuron name B declared more than once",
        "synapse Z->Y: no neuron named Z",
        "synapse Z->Y: no neuron named Y",
        "synapse Z->Y: weight 40 outside [-8, 7] for a 4-bit weight",
        "synapse Z->Y: delay 20 outside [0, 8]",
        "synapse A->X: no neuron named X",
        "synapse A->X: weight -9 outside [-8, 7] for a 4-bit weight",
        "synapse A->X: delay -1 outside [0, 8]",
        "neuron A: 9 incoming synapses exceed the 8 available ports",
        "neuron B: 7 incoming synapses exceed the 6 available ports",
        "neuron A: 9 incoming synapses exceed the 8 available ports",
        "stdp is enabled but the hardware adjustment table is empty",
        "input spike amount 99 outside [-32, 31]",
    ]


def test_resource_report_contents():
    text = resource_report(two_neuron_net(), small_hw())
    lines = text.splitlines()
    assert "neurons: 2" in lines
    assert "synapses: 1" in lines
    assert "min accumulator width: 7" in lines
    assert "accumulator width: 7" in lines
    assert "delivery buffer slots: 1" in lines  # only a zero-delay synapse
    assert "  B: 1/8" in lines


def test_resource_report_empty_network():
    text = resource_report(Network((), ()), small_hw())
    assert "neurons: 0" in text
    assert "port usage:" not in text


def naive_validate(net: Network, hw: HardwareConstants) -> ValidationReport:
    """validate_network written row by row, as the rules read: the reference
    for the column-at-a-time checks of the real one."""
    out: list[Violation] = []
    needed = min_accumulator_width(hw.weight_width, hw.ports, hw.injection_ports)
    if hw.accumulator_width < needed:
        out.append(Violation("hardware", "accumulator width too small",
                             f"accumulator width {hw.accumulator_width} is below the minimum "
                             f"{needed} for weight width {hw.weight_width}, {hw.ports} ports, "
                             f"{hw.injection_ports} injection ports"))
    tlo, thi = signed_range(hw.threshold_width)
    alo, ahi = signed_range(hw.accumulator_width)
    wlo, whi = signed_range(hw.weight_width)
    acc = f"for a {hw.accumulator_width}-bit accumulator"
    seen: set[str] = set()
    for m in net.neurons:
        if m.name in seen:
            out.append(Violation(m.name, "duplicate neuron id",
                                 f"neuron name {m.name} declared more than once"))
        seen.add(m.name)
        for value, lo, hi, rule, text in (
                (m.threshold, tlo, thi, "threshold out of range",
                 f"threshold {m.threshold} outside [{tlo}, {thi}] for a "
                 f"{hw.threshold_width}-bit threshold"),
                (m.standard_resting, alo, ahi, "resting potential out of range",
                 f"standard resting potential {m.standard_resting} outside [{alo}, {ahi}] {acc}"),
                (m.refractory_resting, alo, ahi, "resting potential out of range",
                 f"refractory resting potential {m.refractory_resting} outside "
                 f"[{alo}, {ahi}] {acc}"),
                (m.leak, 0, hw.max_leak, "leak out of range",
                 f"leak {m.leak} outside [0, {hw.max_leak}]"),
                (m.abs_refractory, 0, hw.max_abs_refractory, "refractory out of range",
                 f"absolute refractory {m.abs_refractory} outside [0, {hw.max_abs_refractory}]"),
                (m.rel_refractory, 0, hw.max_rel_refractory, "refractory out of range",
                 f"relative refractory {m.rel_refractory} outside [0, {hw.max_rel_refractory}]")):
            if not lo <= value <= hi:
                out.append(Violation(m.name, rule, f"neuron {m.name}: {text}"))
    fan_in: dict[str, int] = {}
    for s in net.synapses:
        label = f"{s.pre}->{s.post}"
        for end in (s.pre, s.post):
            if end not in seen:
                out.append(Violation(label, "unknown neuron",
                                     f"synapse {label}: no neuron named {end}"))
        if not wlo <= s.weight <= whi:
            out.append(Violation(label, "weight out of range",
                                 f"synapse {label}: weight {s.weight} outside [{wlo}, {whi}] "
                                 f"for a {hw.weight_width}-bit weight"))
        if not 0 <= s.delay <= hw.max_delay:
            out.append(Violation(label, "delay out of range",
                                 f"synapse {label}: delay {s.delay} outside [0, {hw.max_delay}]"))
        fan_in[s.post] = fan_in.get(s.post, 0) + 1
    for m in net.neurons:
        budget = hw.ports - (hw.injection_ports if m.injection else 0)
        if fan_in.get(m.name, 0) > budget:
            out.append(Violation(m.name, "port budget exceeded",
                                 f"neuron {m.name}: {fan_in[m.name]} incoming synapses exceed "
                                 f"the {budget} available ports"))
    if net.stdp_enabled and not hw.stdp_table:
        out.append(Violation("network", "stdp unavailable",
                             "stdp is enabled but the hardware adjustment table is empty"))
    if not alo <= net.input_spike_amount <= ahi:
        out.append(Violation("network", "input spike amount out of range",
                             f"input spike amount {net.input_spike_amount} outside [{alo}, {ahi}]"))
    return ValidationReport(not out, tuple(out), needed)


# The rules a generated network may break, each switched on per network.
FAULTS = ("duplicate", "unknown_pre", "unknown_post", "threshold", "standard_resting",
          "refractory_resting", "leak", "abs_refractory", "rel_refractory", "weight", "delay",
          "ports", "accumulator", "stdp", "input_spike_amount")


def faulty_case(rng: random.Random) -> tuple[Network, HardwareConstants]:
    """A random network and its hardware, breaking each rule of FAULTS with
    probability 1/4. A value under a broken range rule is drawn now and then
    from both sides of both bounds; any other stays inside them."""
    faults = {fault for fault in FAULTS if rng.random() < 0.25}
    ports = rng.randint(1, 8)
    hw = small_hw(accumulator_width=rng.randint(2, 9), threshold_width=rng.randint(1, 6),
                  weight_width=rng.randint(1, 5), max_delay=rng.randint(0, 8),
                  max_leak=rng.randint(0, 5), max_abs_refractory=rng.randint(0, 5),
                  max_rel_refractory=rng.randint(0, 5), ports=ports,
                  injection_ports=rng.randint(0, ports), stdp_table=rng.choice(((), (1, -1))))
    if "accumulator" not in faults:
        needed = min_accumulator_width(hw.weight_width, hw.ports, hw.injection_ports)
        hw = dataclasses.replace(hw, accumulator_width=max(hw.accumulator_width, needed))

    def value(fault: str, lo: int, hi: int) -> int:
        if fault in faults and rng.random() < 0.2:
            return rng.choice((lo - 1, lo, hi, hi + 1))
        return rng.randint(lo, hi)

    tlo, thi = signed_range(hw.threshold_width)
    alo, ahi = signed_range(hw.accumulator_width)
    wlo, whi = signed_range(hw.weight_width)
    n_neurons = rng.choice((0, 1, 2, rng.randint(3, 40), rng.randint(250, 320)))
    names = [f"n{i}" for i in range(n_neurons)]
    if "duplicate" in faults and names:
        names = [rng.choice(names) if rng.random() < 0.1 else name for name in names]
    neurons = [NeuronSettings(name, threshold=value("threshold", tlo, thi),
                              standard_resting=value("standard_resting", alo, ahi),
                              refractory_resting=value("refractory_resting", alo, ahi),
                              abs_refractory=value("abs_refractory", 0, hw.max_abs_refractory),
                              rel_refractory=value("rel_refractory", 0, hw.max_rel_refractory),
                              leak=value("leak", 0, hw.max_leak), injection=rng.random() < 0.3)
               for name in names]

    def endpoint(fault: str) -> str:
        if not names or (fault in faults and rng.random() < 0.1):
            return f"ghost{rng.randint(0, 3)}"
        # A few hubs take most synapses when the port budget is to be broken.
        return rng.choice(names[:2] if "ports" in faults and rng.random() < 0.5 else names)

    n_synapses = rng.choice((0, 1, 2, rng.randint(3, 40), rng.randint(250, 320)))
    synapses = [SynapseSettings(endpoint("unknown_pre"), endpoint("unknown_post"),
                                value("weight", wlo, whi), value("delay", 0, hw.max_delay))
                for _ in range(n_synapses)]
    net = Network(tuple(neurons), tuple(synapses), stdp_enabled="stdp" in faults,
                  input_spike_amount=value("input_spike_amount", alo, ahi))
    return net, hw


RANGE_MESSAGE = re.compile(r"^([a-z ]+) (-?\d+) outside \[(-?\d+), (-?\d+)\]")


def test_validator_matches_the_row_by_row_reference():
    rng = random.Random(0x5EED)
    seen_rules: set[str] = set()
    unknown_sides: set[tuple[bool, bool]] = set()
    budgets: set[bool] = set()
    range_sides: set[tuple[str, str]] = set()
    for _ in range(400):
        net, hw = faulty_case(rng)
        report = validate_network(net, hw)
        assert report == naive_validate(net, hw)
        seen_rules |= rules_of(report)
        known = set(net.neurons.name)
        unknown_sides.add((not known.issuperset(net.synapses.pre),
                           not known.issuperset(net.synapses.post)))
        for v in report.violations:
            if v.rule == "port budget exceeded":
                budgets.add(v.message.endswith(f" the {hw.ports} available ports"))
            found = RANGE_MESSAGE.match(v.message.rsplit(": ", 1)[-1])
            if found:
                what, value, lo, _ = found.groups()
                range_sides.add((what, "below" if int(value) < int(lo) else "above"))
    assert seen_rules == {
        "accumulator width too small", "duplicate neuron id", "threshold out of range",
        "resting potential out of range", "leak out of range", "refractory out of range",
        "unknown neuron", "weight out of range", "delay out of range", "port budget exceeded",
        "stdp unavailable", "input spike amount out of range"}
    # Networks with unknown pre-neurons only, unknown post-neurons only, both
    # and neither; port budgets broken with and without the injection ports
    # reserved; every range rule broken on both sides.
    assert unknown_sides == {(False, False), (True, False), (False, True), (True, True)}
    assert budgets == {False, True}
    assert range_sides == {(what, side) for side in ("below", "above") for what in (
        "threshold", "standard resting potential", "refractory resting potential", "leak",
        "absolute refractory", "relative refractory", "weight", "delay", "input spike amount")}


def test_min_accumulator_width_checks_its_arguments():
    with pytest.raises(ValueError, match=r"^weight width must be >= 1$"):
        min_accumulator_width(0, 1, 0)
    with pytest.raises(ValueError, match=r"^port count must be >= 1$"):
        min_accumulator_width(1, 0, 0)
    with pytest.raises(ValueError, match=r"^injection ports must lie in \[0, ports\]$"):
        min_accumulator_width(1, 1, 2)


def test_hardware_constants_reject_a_non_integer_stdp_entry():
    with pytest.raises(ValueError, match=r"^stdp_table entries must be integers$"):
        small_hw(stdp_table=(1, "x"))
