"""Host-speed probe of the benchmark, run as a helper process.

Each line read from standard input runs the probe once and answers with
its wall time in seconds on one line.  The workload process brackets
every timed operation with two probes (see workloads.HostProbe); the
probe runs in its own process so that its arrays stay out of the
workload's peak memory.

The probe is fixed work that slows down with the shared host as the
workloads do: numpy streaming over arrays larger than any cache, then a
sort and a binary search.  It calls nothing in tlsrf, so no change to
the package moves it.
"""

import sys
import time

import numpy as np

BIG = np.linspace(0.0, 50.0, 4_000_000)  # 32 MB
OUT = np.empty_like(BIG)
KEYS = np.random.default_rng(0).random(200_000)
GRID = np.linspace(0.0, 1.0, 100_000)


def probe() -> float:
    t0 = time.perf_counter()
    for _ in range(2):
        np.multiply(BIG, 1.5, out=OUT)
        np.add(OUT, BIG, out=OUT)
        OUT.sum()
    np.searchsorted(GRID, np.sort(KEYS))
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in sys.stdin:
        print(probe(), flush=True)
