"""Command-line interface.

    ravensim validate --hw HW --net NET
    ravensim report   --hw HW --net NET
    ravensim run      --hw HW --net NET --stim STIM --cycles N
                      [--format table|jsonl] [--backend BACKEND]
    ravensim golden   [--fixtures DIR] [--backend BACKEND]

BACKEND is one of auto (the default), python, compiled and reference.

Traces go to standard output; everything diagnostic goes to standard error.
Exit status: 0 success, 1 validation failure or golden divergence, 2 parse
or usage errors, or an input the chosen backend cannot run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import goldens
from .engine import BACKENDS, new_engine
from .ioformats import FormatError, format_trace, load_hardware, load_stimulus, parse_network
from .netmodel import ValidationError, resource_report, validate_network

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e.strerror}") from None


def _load_pair(hw_path: str, net_path: str):
    hw = load_hardware(_read(hw_path))
    net = parse_network(_read(net_path))
    return hw, net


def _print_violations(report) -> None:
    for v in report.violations:
        print(f"violation [{v.rule}] {v.message}", file=sys.stderr)


def _cmd_validate(args) -> int:
    hw, net = _load_pair(args.hw, args.net)
    report = validate_network(net, hw)
    if report.ok:
        print(f"ok: {len(net.neurons)} neurons, {len(net.synapses)} synapses, "
              f"min accumulator width {report.min_accumulator_width}")
        return EXIT_OK
    _print_violations(report)
    print(f"{len(report.violations)} violation(s)", file=sys.stderr)
    return EXIT_FAIL


def _cmd_report(args) -> int:
    hw, net = _load_pair(args.hw, args.net)
    report = validate_network(net, hw)
    if not report.ok:
        raise ValidationError(report)
    print(resource_report(net, hw))
    return EXIT_OK


def _cmd_run(args) -> int:
    hw, net = _load_pair(args.hw, args.net)
    stim = load_stimulus(_read(args.stim), net, hw)
    engine = new_engine(net, hw, stim, backend=args.backend)
    trace = engine.run(args.cycles)
    sys.stdout.write(format_trace(trace, mode=args.format))
    return EXIT_OK


def _cmd_golden(args) -> int:
    started = time.perf_counter()
    cases = goldens.discover_cases(args.fixtures)
    passed = 0
    for case in cases:
        diffs = goldens.run_golden(case, backend=args.backend)
        if diffs:
            print(f"[FAIL] {case.name}: first divergence at {diffs[0]}", file=sys.stderr)
        else:
            print(f"[PASS] {case.name} ({case.cycles} cycles)")
            passed += 1
    elapsed = time.perf_counter() - started
    print(f"{passed}/{len(cases)} passed in {elapsed:.3f}s")
    return EXIT_OK if passed == len(cases) else EXIT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ravensim",
                                     description="Cycle-accurate RAVENS network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network against hardware limits")
    p.add_argument("--hw", required=True, help="hardware constants JSON file")
    p.add_argument("--net", required=True, help="network JSON file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="print a resource usage summary")
    p.add_argument("--hw", required=True)
    p.add_argument("--net", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("run", help="simulate a network and print the trace")
    p.add_argument("--hw", required=True)
    p.add_argument("--net", required=True)
    p.add_argument("--stim", required=True, help="stimulus text file")
    p.add_argument("--cycles", type=int, required=True, help="number of cycles (>= 0)")
    p.add_argument("--format", choices=("table", "jsonl"), default="table")
    p.add_argument("--backend", choices=BACKENDS, default="auto")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("golden", help="run the bundled golden regression cases")
    p.add_argument("--fixtures", default=None, help="fixtures directory (bundled by default)")
    p.add_argument("--backend", choices=BACKENDS, default="auto")
    p.set_defaults(func=_cmd_golden)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    cycles = getattr(args, "cycles", None)
    if cycles is not None and cycles < 0:
        print("error: --cycles must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ValidationError as e:
        _print_violations(e.report)
        return EXIT_FAIL
    except ValueError as e:  # a FormatError, or a backend that cannot run the input
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
