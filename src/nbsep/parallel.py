"""Worker threads for independent pieces of work.

`NBC_THREADS` sets the worker count, by default the number of CPUs this
process may run on.  `parallel_map` runs a function over items on that many
threads and hands the results back in item order; numpy's element-wise ops
and OpenBLAS release the interpreter lock, so numerical work overlaps.
While a map runs, at one worker too, numpy's bundled OpenBLAS runs one
thread per call where its thread control is found: the process uses no more
threads than it has workers, results do not depend on the worker count, and
no spinning BLAS thread slows a busy neighbour process (40x, for a
room-simulation pair's tap product).  Nor do pools nest: a `parallel_map`
called on a worker of another pool runs its items in order on that worker's
thread.
So when `generate_dataset` makes several mixtures at once, each mixture's
room simulation runs on its own worker, and when it makes one at a time,
the simulation spreads its mic-speaker pairs over all the workers and its
two speakers' convolutions over two of them.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """NBC_THREADS clamped to [1, usable CPUs]: more workers than cores only costs memory."""
    cpus = usable_cpus()
    raw = os.environ.get("NBC_THREADS")
    if raw is None:
        return cpus
    try:
        return min(max(1, int(raw)), cpus)
    except ValueError:
        raise ValueError(f"NBC_THREADS must be an integer, got {raw!r}") from None


# numpy.libs file pattern and symbol prefix of the OpenBLAS that numpy 2 wheels
# bundle, then of the one numpy 1.x wheels bundle; both are 64-bit-integer builds
_OPENBLAS_BUILDS = (("libscipy_openblas*.so", "scipy_openblas_"), ("libopenblas*.so", "openblas_"))


def _openblas_thread_control():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for pattern, prefix in _OPENBLAS_BUILDS:
        for path in sorted(libs.glob(pattern)):
            try:  # the library numpy already loaded: dlopen hands back the same handle
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, f"{prefix}get_num_threads64_")
                set_ = getattr(lib, f"{prefix}set_num_threads64_")
            except (AttributeError, OSError):
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


_OPENBLAS = _openblas_thread_control()


@contextmanager
def _single_threaded_blas():
    """OpenBLAS at one thread inside, then restored; no-op without control or in a pool."""
    if _OPENBLAS is None or getattr(_THREAD, "in_pool", False):  # a pool holds it at one
        yield
        return
    get_threads, set_threads = _OPENBLAS
    blas_threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(blas_threads)


_THREAD = threading.local()


def _mark_pool_worker() -> None:
    _THREAD.in_pool = True


def parallel_map(fn, items, workers: int):
    """Yield ``fn(item)`` for each item, in item order, computed on `workers` threads.

    With one worker, or when the caller is itself a worker of a
    `parallel_map` pool, the items run in order on the calling thread.
    OpenBLAS runs at one thread until the map is done, where its control is
    found.  An exception of `fn` is raised when its item's result is reached.
    """
    if workers <= 1 or getattr(_THREAD, "in_pool", False):
        with _single_threaded_blas():
            yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(max_workers=workers, initializer=_mark_pool_worker)
    with _single_threaded_blas(), pool:
        yield from pool.map(fn, items)
