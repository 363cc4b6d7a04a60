"""Host-speed reference: a fixed slice of work that never touches hyperspec.

The benchmark's usual host, a 2-vCPU VM on a shared machine, changes speed by
up to a factor of two over minutes, with CPU time equal to wall time, so the
cause lies outside the VM and outside the program.  A median over one run
cannot remove a slowdown that lasts the whole run, so runs made minutes apart
disagree by far more than any change to the program should be allowed to.
The benchmark therefore runs ``reference_slice`` right before every timed
unit (each CLI call and each fresh interpreter of the set-up measurement) and
multiplies the run's times by ``REFERENCE_SLICE_S`` over the mean slice time:
seconds as they would read while the slice takes its reference time.  The slice
mixes interpreted Python (dict updates, formatting, sorting) with small
complex eigensolves, the two kinds of work the CLI does.  Its inputs are
fixed, it uses no hyperspec code, and the garbage collector is off while it
runs, so the objects the package leaves alive cannot change its cost.  It
runs in the benchmark's own process and thread, like the CLI calls: on the
2-vCPU VM a slice run in a separate helper process followed the jobs'
slowdowns less closely.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# A round figure for the slice's usual time on a 2-vCPU Intel Xeon VM
# (2.0 GHz), where it ranged from 0.09 to 0.2 s as the host's speed changed.
# Only the scale of the reported times depends on it.
REFERENCE_SLICE_S = 0.13

_REAL, _IMAG = np.random.default_rng(2024).standard_normal((2, 40, 6, 6))
_MATRICES = _REAL + 1j * _IMAG


def reference_slice() -> float:
    """Run the fixed slice of work once; return its wall time in seconds."""
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        width = 0
        for i in range(240_000):
            key = i % 97
            counts[key] = counts.get(key, 0) + (i * i) % 7
            width += len(str(key))
        sorted(counts.items(), key=lambda item: -item[1])
        for _ in range(12):
            for m in _MATRICES:
                np.sort_complex(np.round(np.linalg.eigvals(m), 8))
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_factor(slice_s: list[float]) -> float:
    """Factor that turns a run's wall times into reference-speed times.

    The mean, not the median: from one slice to the next the host flips
    between a fast and a slow state, and the mean follows the share of time
    spent in each as the work between the slices does.
    """
    return REFERENCE_SLICE_S / statistics.fmean(slice_s)
