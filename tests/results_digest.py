"""Results digest: one sha256 over what every golden and benchmark case computes.

A change that must leave every output as it was leaves this digest as it
was. The cases are the goldens, in discover order, then for each of seeds
1 to 3 the bench/gen.py dense case, cli case and 200 sweep cases, in that
order. Each gets one engine, which twice runs the case's cycles and
hashes the trace's names, counts, fired indices and charges, then advances
37 cycles and hashes the charges, weights, phases and cycle. Run with

    python tests/results_digest.py --backend compiled

It hashes this checkout's src/ and prints the digest and the number of
engines built. The file name does
not start with test_, so pytest does not collect it; test_goldens.py runs
digest() over the goldens on every backend.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from ravensim import HardwareConstants, Network, goldens, new_engine  # noqa: E402
from ravensim.engine import BACKENDS, Stimulus  # noqa: E402

Case = tuple[Network, HardwareConstants, Stimulus, int]
SEEDS = (1, 2, 3)
ADVANCE = 37


def golden_cases() -> list[Case]:
    return [(c.network, c.hardware, c.stimulus, c.cycles) for c in goldens.discover_cases()]


def bench_cases() -> Iterator[Case]:
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    for seed in SEEDS:
        for case in (gen.dense_stdp_case(seed), gen.cli_sparse_case(seed), *gen.sweep_cases(seed)):
            yield case.net, case.hw, case.stim, case.cycles


def digest(cases: Iterable[Case], backend: str) -> tuple[str, int]:
    """The sha256 hex digest over cases on backend, and the number of cases."""
    h = hashlib.sha256()
    runs = 0
    for net, hw, stim, cycles in cases:
        engine = new_engine(net, hw, stim, backend=backend)
        for _ in range(2):
            t = engine.run(cycles)
            h.update(repr((t.names, t.counts, t.fired, t.charges)).encode())
            engine.advance(ADVANCE)
            h.update(repr((engine.charges(), engine.weights(), engine.phases(),
                           engine.cycle)).encode())
        runs += 1
    return h.hexdigest(), runs


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--backend", choices=BACKENDS, default="auto")
    args = parser.parse_args()
    value, runs = digest([*golden_cases(), *bench_cases()], args.backend)
    print(f"{value}  {runs} engine runs on {args.backend}")
