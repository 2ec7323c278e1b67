"""Per-rank BLAS thread budget.

A multi-threaded BLAS starts one worker thread per core in *every*
process (and serves every thread of a process from one pool), so W
ranks on one host run W times as many BLAS threads as there are cores
and spend the difference on contention.  A launch therefore gives each
rank a budget of ``min(current, max(1, usable_cores // ranks_on_host))``
threads for its duration and restores the caller's count afterwards
(:func:`thread_budget`).  A single rank keeps the caller's count.

The count is read and written through the C API of the OpenBLAS that
numpy bundles, reached with :mod:`ctypes`.  The library is found among
the shared objects already mapped into this process — numpy loads it
at import — and probed for the known symbol pairs.  When none is found
(another BLAS, or a platform without ``/proc/self/maps``) the BLAS is
*unmanaged*: getting returns ``None``, setting does nothing, and
nothing raises.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "BlasLibrary",
    "budget_for",
    "fingerprint",
    "get_threads",
    "library",
    "set_threads",
    "thread_budget",
    "usable_cores",
]

#: OpenBLAS ``(getter, setter)`` symbol pairs, probed in order: the
#: scipy-openblas wheels numpy ships (64-bit-int and plain builds), then
#: a system OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class BlasLibrary:
    """Thread-count control over one BLAS shared object (or none)."""

    def __init__(
        self,
        vendor: str = "unknown",
        getter: Optional[Callable[[], int]] = None,
        setter: Optional[Callable[[int], None]] = None,
    ):
        self.vendor = vendor
        self._get = getter
        self._set = setter

    @property
    def managed(self) -> bool:
        return self._get is not None and self._set is not None

    def get_threads(self) -> Optional[int]:
        return int(self._get()) if self.managed else None

    def set_threads(self, n: int) -> None:
        if self.managed:
            self._set(int(n))


def _mapped_blas_objects() -> List[str]:
    """Paths of the BLAS-named shared objects mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            lines = f.read().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        parts = line.split(maxsplit=5)
        if len(parts) < 6:
            continue
        path = parts[5]
        name = os.path.basename(path).lower()
        if "blas" in name and ".so" in name and path not in paths:
            paths.append(path)
    return paths


def _probe() -> BlasLibrary:
    import numpy  # noqa: F401 - maps numpy's bundled BLAS into the process

    for path in _mapped_blas_objects():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is None or setter is None:
                continue
            getter.restype = ctypes.c_int
            getter.argtypes = []
            setter.restype = None
            setter.argtypes = [ctypes.c_int]
            return BlasLibrary("openblas", getter, setter)
    return BlasLibrary()


_LIBRARY: Optional[BlasLibrary] = None


def library() -> BlasLibrary:
    """The process's BLAS control, probed once on first use."""
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = _probe()
    return _LIBRARY


def get_threads() -> Optional[int]:
    """The BLAS's current thread count (``None`` when unmanaged)."""
    return library().get_threads()


def set_threads(n: int) -> None:
    """Set the BLAS's thread count (a no-op when unmanaged)."""
    library().set_threads(n)


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def budget_for(ranks: int, current: int, cores: int) -> int:
    """Per-rank thread count for ``ranks`` ranks sharing ``cores`` cores,
    never above the caller's ``current`` count; one rank keeps it."""
    if ranks <= 1:
        return current
    return min(current, max(1, cores // ranks))


@contextmanager
def thread_budget(ranks: int) -> Iterator[Optional[int]]:
    """Hold the per-rank budget for ``ranks`` ranks on this host while
    the block runs, then restore the caller's count.  Yields the budget
    (``None`` when the BLAS is unmanaged)."""
    lib = library()
    current = lib.get_threads()
    if current is None:
        yield None
        return
    budget = budget_for(ranks, current, usable_cores())
    if budget != current:
        lib.set_threads(budget)
    try:
        yield budget
    finally:
        if budget != current:
            lib.set_threads(current)


def fingerprint(ranks: int, budget: Optional[int]) -> Dict:
    """The BLAS part of an environment fingerprint for a launch of
    ``ranks`` ranks that ran under ``budget`` threads per rank."""
    lib = library()
    return {
        "vendor": lib.vendor,
        "managed": lib.managed,
        "usable_cores": usable_cores(),
        "ranks": ranks,
        "threads_per_rank": budget,
    }
