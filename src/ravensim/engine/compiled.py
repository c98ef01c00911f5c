"""The compiled backend: kernel.c driven through ctypes, with the PyEngine interface.

The first use builds kernel.c with ``cc`` into ``_kernel-<sha256>.so`` next
to the source. The hash of the source in the name means an edited kernel is
never run against a stale library; a successful build deletes the libraries
of earlier sources. Without ``cc``, after a failed build, or in a package
directory that cannot be written, available() is False and new_engine uses
the pure-Python backend instead.
"""

from __future__ import annotations

import functools
import os
import struct
import weakref
from array import array
from collections.abc import Sequence
from itertools import chain
from pathlib import Path

from .events import CycleReport
from .layout import Layout

_SOURCE = Path(__file__).with_name("kernel.c")


def _build(target: Path) -> bool:
    """Compile the kernel to target; False when that is not possible here."""
    import shutil
    import subprocess
    import tempfile

    cc = shutil.which("cc")
    if cc is None:
        return False
    try:
        fd, tmp = tempfile.mkstemp(prefix=".kernel-", suffix=".so", dir=target.parent)
    except OSError:
        return False
    os.close(fd)
    try:
        subprocess.run([cc, "-O2", "-std=c99", "-shared", "-fPIC", "-o", tmp, str(_SOURCE)],
                       check=True, capture_output=True)
        os.replace(tmp, target)
    except (OSError, subprocess.CalledProcessError):
        return False
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in _SOURCE.parent.glob("_kernel-*.so"):  # built from earlier sources
        if stale != target:
            try:
                stale.unlink()
            except OSError:
                pass
    return True


@functools.cache
def _library():
    """The kernel as a loaded ctypes.CDLL, built on first use; None when unavailable."""
    import ctypes
    import hashlib

    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()
    path = _SOURCE.with_name(f"_kernel-{digest}.so")
    if not path.exists() and not _build(path):
        return None
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.rk_new.argtypes = [i64, ptr, i64, ptr, i64, ptr, i64, i64, ptr, i64, i64]
    lib.rk_new.restype = ptr
    lib.rk_free.argtypes = [ptr]
    lib.rk_free.restype = None
    lib.rk_step.argtypes = [ptr, ptr, ptr]
    lib.rk_step.restype = i64
    lib.rk_advance.argtypes = [ptr, i64]
    lib.rk_advance.restype = i64
    lib.rk_read.argtypes = [ptr, ptr, ptr, ptr]
    lib.rk_read.restype = i64
    return lib


def available() -> bool:
    return _library() is not None


def _int64s(*columns: Sequence[int]) -> bytes:
    """The columns end to end as native int64_t values, for the kernel to copy."""
    values = list(chain.from_iterable(columns))
    return struct.pack(f"{len(values)}q", *values)


def _address(buf: array) -> int:
    return buf.buffer_info()[0]


class CompiledEngine:
    backend = "compiled"

    def __init__(self, layout: Layout):
        lib = _library()
        if lib is None:
            raise RuntimeError("compiled kernel is not built")
        self._lib = lib
        self.names = list(layout.names)
        n = len(self.names)
        self._n_syn = len(layout.syn_pre)

        neurons = _int64s(layout.threshold, layout.standard_resting, layout.refractory_resting,
                          layout.abs_refractory, layout.rel_refractory, layout.leak)
        synapses = _int64s(layout.syn_pre, layout.syn_post, layout.syn_weight, layout.syn_delay)
        events = _int64s(layout.ev_cycle, layout.ev_neuron, layout.ev_value)
        self._k = lib.rk_new(n, neurons, self._n_syn, synapses,
                             len(layout.ev_cycle), events, layout.ring_slots,
                             len(layout.stdp_table), _int64s(layout.stdp_table),
                             layout.stdp_enabled, layout.weight_width)
        if not self._k:
            raise MemoryError("cannot allocate the kernel state")
        weakref.finalize(self, lib.rk_free, self._k)
        self._fired = array("q", bytes(8 * n))
        self._charges = array("q", bytes(8 * n))

    @property
    def cycle(self) -> int:
        return self._lib.rk_read(self._k, None, None, None)

    def _report(self, t: int) -> CycleReport:
        count = self._lib.rk_step(self._k, _address(self._fired), _address(self._charges))
        if count < 0:
            raise MemoryError("cannot grow the delivery ring")
        names = self.names
        fired = tuple([names[i] for i in self._fired[:count]])
        return CycleReport(t, fired, dict(zip(names, self._charges)))

    def step(self) -> CycleReport:
        return self._report(self.cycle)

    def run(self, n_cycles: int) -> list[CycleReport]:
        if n_cycles < 0:
            raise ValueError("cycle count must be >= 0")
        start = self.cycle
        return [self._report(start + c) for c in range(n_cycles)]

    def advance(self, n_cycles: int) -> None:
        if n_cycles < 0:
            raise ValueError("cycle count must be >= 0")
        if self._lib.rk_advance(self._k, n_cycles) < 0:
            raise MemoryError("cannot grow the delivery ring")

    def charges(self) -> dict[str, int]:
        self._lib.rk_read(self._k, _address(self._charges), None, None)
        return dict(zip(self.names, self._charges))

    def weights(self) -> list[int]:
        weights = array("q", bytes(8 * self._n_syn))
        self._lib.rk_read(self._k, None, _address(weights), None)
        return weights.tolist()

    def phases(self) -> list[tuple[int, int]]:
        phases = array("q", bytes(16 * len(self.names)))
        self._lib.rk_read(self._k, None, None, _address(phases))
        return list(zip(phases[0::2], phases[1::2]))
