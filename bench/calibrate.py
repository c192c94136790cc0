"""A fixed reference kernel that measures how fast the host runs right now.

The small shared machines this benchmark runs on change speed by up to
about 1.8x for seconds to minutes at a time (other tenants on the same
cores), so raw wall times of one program differ by that much from run to
run.  The timed worker runs :func:`kernel` before and after every pass and
every set-up.  ``run.py`` divides each sample by the mean of the two kernel
times around it and multiplies by :data:`REFERENCE_S`: the end-to-end times
read as seconds at the host speed at which the kernel takes
:data:`REFERENCE_S`.  Raw wall times are printed beside them.

The kernel mixes the kinds of work the workloads do: float-to-text
formatting in the interpreter (CSV writing), arithmetic on small numpy
vectors (the correlation metrics) and LAPACK SVDs (alignment), in about
15/15/70 shares of its time.  Those shares tracked the speed of all three
workloads best in an eight-minute recording on the machine the benchmark
was made on; an even split left three times the run-to-run spread on
``loso-wide`` (8.7% against 2.8% of the median over ten runs).  It uses no
multialign code, so a change to the program cannot move it.

    python3 bench/calibrate.py [SECONDS]   # kernel time quartiles on this host
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

# Seconds the kernel takes at the reference speed.  On the 2-vCPU Intel
# Xeon VM the benchmark was made on (2.1 GHz, Python 3.11, numpy 2.4.6,
# OpenBLAS 0.3.31, one BLAS thread) its median over a run was 0.108 s to
# 0.158 s, depending on the host's load.  The value sets only the scale of
# the reported times; it stays fixed, since changing it moves every baseline.
REFERENCE_S = 0.125

_rng = np.random.default_rng(2001_02894)
_ROWS = _rng.standard_normal((70, 250)).tolist()
_VECTORS = _rng.standard_normal((40, 20))
_MATRIX = _rng.standard_normal((320, 80))


def kernel() -> float:
    """Seconds one run of the fixed reference work takes now."""
    started = time.perf_counter()
    for row in _ROWS:
        ",".join(repr(float(v)) for v in row)
    for i in range(1200):
        a = _VECTORS[i % 40] - _VECTORS[i % 40].mean()
        b = _VECTORS[(i + 7) % 40] - _VECTORS[(i + 7) % 40].mean()
        float(a @ b / np.sqrt((a @ a) * (b @ b)))
    for _ in range(38):
        np.linalg.svd(_MATRIX, full_matrices=False)
    return time.perf_counter() - started


class Bracket:
    """Kernel times around consecutive samples.

    Create it before the first sample and call :meth:`around` after each.
    """

    def __init__(self):
        self.last = kernel()

    def around(self) -> float:
        """Mean of the kernel's time before and after the sample just taken."""
        now = kernel()
        mean, self.last = (self.last + now) / 2, now
        return mean


def main(argv: list[str]) -> int:
    seconds = float(argv[0]) if argv else 20.0
    deadline = time.perf_counter() + seconds
    times = []
    while time.perf_counter() < deadline:
        times.append(kernel())
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"{len(times)} runs: quartiles {q1:.4f} {q2:.4f} {q3:.4f} s; "
          f"REFERENCE_S {REFERENCE_S} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
