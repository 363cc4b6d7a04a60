"""Stacked LAPACK calls solved in row parts at once, one thread per part.

numpy's stacked linear-algebra calls release the GIL while LAPACK runs, and
each matrix of a stack is solved alone, so a stack cut into contiguous row
parts can be solved on several CPUs at once with the results of the whole
stack bit for bit.  Threads are started and joined within each call; none
outlives it and none starts at import.  The helper lives in its own module:
inside ``linalg``, the largest module, it raised the peak memory of
compiling that module by about 90 KiB, which every run without cached
bytecode pays.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

import numpy as np

__all__ = ["split_solve"]


# eigenvalues in the smallest part of a split solve.  numpy releases the GIL
# in a stacked eigvals call only past 500 eigenvalues, so smaller parts would
# run one after another.  On a 2-CPU host the complex solves of the six
# spectrum benchmark jobs took 0.166 s at 512, 0.182 s at 1024 and 0.238 s
# unsplit (medians of 30 runs)
_MIN_PART = 512


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_solve(solve: Callable[[np.ndarray], object], ms: np.ndarray):
    """``solve(ms)`` for a checked (N, n, n) stack, solved in row parts at once.

    The stack is cut into contiguous row parts, one per CPU available but
    each of at least ``_MIN_PART`` eigenvalues; a stack too small for two
    parts is solved whole.  The calling thread solves the first part and a
    new thread each other part; numpy's stacked LAPACK calls release the GIL.
    Every thread is joined before this returns.  The results, an array or a
    tuple of arrays, are concatenated in row order; if parts raised, the
    exception of the first of them in row order is raised.
    """
    rows = -(-_MIN_PART // max(1, ms.shape[1]))
    parts = min(_cpu_count(), len(ms) // rows)
    if parts < 2:
        return solve(ms)
    chunks = np.array_split(ms, parts)
    results: list = [None] * parts
    errors: list = [None] * parts

    def run(i: int) -> None:
        try:
            results[i] = solve(chunks[i])
        except Exception as exc:  # raised below, once every thread has joined
            errors[i] = exc

    started = []
    try:
        for i in range(1, parts):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    if isinstance(results[0], tuple):
        return tuple(np.concatenate(part) for part in zip(*results))
    return np.concatenate(results)
