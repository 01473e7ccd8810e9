"""Host-speed calibration: scale every measured host time to a reference speed.

On a shared host the same pure-Python call runs up to twice as slowly
from one minute to the next, because other tenants contend for the core,
its caches and memory.  Raw wall time then says more about the neighbours
than about the program.  The benchmark therefore runs a small fixed
kernel (:func:`kernel_seconds`) between every two measured calls, and
reports each call's host seconds scaled by ``REFERENCE_S`` over the mean
of the two kernel times before and the two after it: seconds as the call
would take on a host where the kernel takes ``REFERENCE_S``.  The kernel
does the same kind of work as the simulator (method calls on a dict-based
set-associative cache, fills and dirty evictions, HMAC-SHA256, bytes
building) and imports nothing from the program, so a change to the
program moves the scaled time in the same proportion as the raw time.
"""

from __future__ import annotations

import gc
import hmac
import statistics
import time

#: Kernel seconds at the reference speed; the scale of every reported time.
REFERENCE_S = 0.05
_KEY = b"hostbench-calibration-key-000000"


class _Line:
    __slots__ = ("addr", "data", "dirty")

    def __init__(self, addr: int, data: bytes) -> None:
        self.addr = addr
        self.data = data
        self.dirty = False


class _Cache:
    """8-way cache of :class:`_Line` with FIFO replacement."""

    def __init__(self, sets: int) -> None:
        self.sets: list[dict[int, _Line]] = [{} for _ in range(sets)]
        self.mask = sets - 1

    def set_of(self, addr: int) -> dict[int, _Line]:
        return self.sets[(addr >> 6) & self.mask]

    def access(self, addr: int) -> _Line | None:
        return self.set_of(addr).get(addr)

    def fill(self, addr: int, data: bytes) -> _Line | None:
        lines = self.set_of(addr)
        victim = lines.pop(next(iter(lines))) if len(lines) >= 8 else None
        lines[addr] = _Line(addr, data)
        return victim


def kernel_seconds(steps: int = 20_000) -> float:
    """Host seconds of one run of the fixed calibration kernel."""
    started = time.perf_counter()
    cache = _Cache(256)
    backing: dict[int, bytes] = {}
    for i in range(steps):
        addr = ((i * 2654435761) & 0xFFFFF) << 6
        line = cache.access(addr)
        if line is not None:
            line.dirty = True
            continue
        data = backing.get(addr) or hmac.digest(_KEY, addr.to_bytes(8, "little"), "sha256") * 2
        victim = cache.fill(addr, data)
        if victim is not None and victim.dirty:
            head = bytes(a ^ b for a, b in zip(victim.data[:8], data[:8]))
            backing[victim.addr] = head + victim.data[8:]
    return time.perf_counter() - started


class Calibration:
    """Kernel runs interleaved with measured calls.

    Kernel ``i`` runs just before call ``i`` and kernel ``i + 1`` just
    after it; :meth:`scale` needs the two kernels on each side, so scale
    a call only once the calls after it have run.
    """

    def __init__(self) -> None:
        #: Every kernel time measured, in order.
        self.kernel_s: list[float] = []
        self._kernel()

    def _kernel(self) -> None:
        gc.collect()
        self.kernel_s.append(kernel_seconds())

    def measure(self, call) -> tuple[object, int, float]:
        """Run *call*; (its result, call index, raw host seconds)."""
        started = time.perf_counter()
        result = call()
        raw = time.perf_counter() - started
        self._kernel()
        return result, len(self.kernel_s) - 2, raw

    def scale(self, index: int) -> float:
        """``REFERENCE_S`` over the mean kernel time around call *index*."""
        return REFERENCE_S / statistics.fmean(self.kernel_s[max(0, index - 1): index + 3])
