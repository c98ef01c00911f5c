"""The compiled backend's cycle core: kernel.c driven through ctypes.

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
from pathlib import Path

from .events import Trace
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


def _bind(path: Path):
    """The kernel library at path as a ctypes.CDLL with the signatures of its ABI."""
    import ctypes

    lib = ctypes.CDLL(str(path))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.rk_new.argtypes = [i64, i64, i64, i64, i64, ptr]
    lib.rk_new.restype = ptr
    lib.rk_free.argtypes = [ptr]
    lib.rk_free.restype = None
    lib.rk_run.argtypes = [ptr, i64, ptr, ptr]
    lib.rk_run.restype = i64
    lib.rk_fired.argtypes = [ptr, ptr]
    lib.rk_fired.restype = i64
    lib.rk_read.argtypes = [ptr, ptr, ptr, ptr]
    lib.rk_read.restype = i64
    return lib


@functools.cache
def _library():
    """The kernel as a loaded ctypes.CDLL, built on first use; None when unavailable."""
    import hashlib

    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()
    path = _SOURCE.with_name(f"_kernel-{digest}.so")
    if not path.exists() and not _build(path):
        return None
    try:
        return _bind(path)
    except OSError:
        return None


def available() -> bool:
    return _library() is not None


def _int64s(*columns: Sequence[int]) -> bytes:
    """The columns end to end as native int64_t values, for the kernel to copy."""
    return b"".join([struct.pack(f"{len(column)}q", *column) for column in columns])


def _zeros(count: int) -> array:
    """A block of count zeros for the kernel to copy values into."""
    return array("q", [0]) * count


def _fires(status: int) -> int:
    """The fire count rk_run returned; MemoryError when it could not grow a buffer."""
    if status < 0:
        raise MemoryError("cannot grow the delivery ring or the fired log")
    return status


class CompiledEngine:
    """The cycle core of the compiled backend, over the kernel's own copy of a layout."""

    def __init__(self, layout: Layout):
        lib = self._lib = _library()  # new_engine has checked that it is available
        self._n = n = len(layout.threshold)
        self._n_syn = len(layout.syn_pre)

        table = layout.stdp_table
        packed = _int64s(layout.threshold, layout.standard_resting, layout.refractory_resting,
                         layout.abs_refractory, layout.rel_refractory, layout.leak,
                         layout.syn_pre, layout.syn_post, layout.syn_weight, layout.syn_delay,
                         layout.ev_cycle, layout.ev_neuron, layout.ev_value, table)
        self._k = lib.rk_new(n, self._n_syn, len(layout.ev_cycle), len(table),
                             layout.weight_width, packed)
        if not self._k:
            raise MemoryError("cannot allocate the kernel state")
        weakref.finalize(self, lib.rk_free, self._k)

    def run(self, n_cycles: int, trace: Trace | None) -> None:
        """One rk_run call. Given a trace, the kernel writes its counts and
        charges in place and logs the fired indices, which rk_fired copies
        into a block of the exact size."""
        if trace is None:
            _fires(self._lib.rk_run(self._k, n_cycles, None, None))
            return
        fires = _fires(self._lib.rk_run(self._k, n_cycles, trace.counts.buffer_info()[0],
                                        trace.charges.buffer_info()[0]))
        trace.fired = _zeros(fires)
        self._lib.rk_fired(self._k, trace.fired.buffer_info()[0])
        trace._added = n_cycles  # every cycle is filled: Trace.add refuses another

    def charges(self) -> list[int]:
        charges = _zeros(self._n)
        self._lib.rk_read(self._k, charges.buffer_info()[0], None, None)
        return charges.tolist()

    def weights(self) -> list[int]:
        weights = _zeros(self._n_syn)
        self._lib.rk_read(self._k, None, weights.buffer_info()[0], None)
        return weights.tolist()

    def phases(self) -> list[tuple[int, int]]:
        n, phases = self._n, _zeros(2 * self._n)
        self._lib.rk_read(self._k, None, None, phases.buffer_info()[0])
        return list(zip(phases[:n], phases[n:]))
