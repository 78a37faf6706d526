"""A fixed calibration probe: how fast this machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes, as other tenants come and go; a
pure-Python loop's time drifts as much as a metareduce invocation's.  The
probe times a fixed mix of the kinds of work metareduce does, about 0.3 s in
all: an interpreted Python loop, many numpy calls on small arrays, numpy on
mid-sized arrays, a scipy Dijkstra on a fixed sparse graph, a small dense
LAPACK eigensolve and scattered reads from an 8 MB table.  It never calls
metareduce, so a change of the program cannot change what the probe
measures.

run.py probes before and after every set-up process and every timed
invocation, rescales each time to reference speed,

    time * REFERENCE_PROBE_S / mean(probe just before, probe just after)

and reports the median of the rescaled times.  The host switches between a
fast and a slow state every few seconds, and the probes on either side of an
invocation see much the same state as the invocation; the median discards
the few invocations whose probes caught a stall.

REFERENCE_PROBE_S is a constant (about the probe's median time on a 2-vCPU
Intel Xeon VM with one OpenBLAS thread), so a faster program reads lower
whatever the host does, and the same program reads about the same on a quiet
and a busy host.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_PROBE_S = 0.3


class Probe:
    """Calling the probe runs the fixed mix once and returns its seconds."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        n = 1500
        rows = np.repeat(np.arange(n), 8)
        cols = rng.integers(0, n, rows.size)
        self._graph = sp.csr_matrix((rng.random(rows.size), (rows, cols)),
                                    shape=(n, n))
        self._dense = rng.random((120, 120))
        self._small = np.linspace(-1.0, 1.0, 64)
        self._points = rng.random((4000, 2))
        self._table = rng.random(2_000_000, np.float32)     # 8 MB
        self._where = rng.integers(0, self._table.size, 1_000_000, np.int32)

    def __call__(self):
        import numpy as np
        from scipy.sparse.csgraph import dijkstra

        t0 = perf_counter()
        total = 0
        for i in range(600_000):                    # interpreted Python
            total += i * i
        a = self._small
        for _ in range(12_000):                     # numpy call overhead
            a = np.tanh(2.0 * a) + 0.1 * a[::-1]
        cov = np.eye(2)
        for k in range(150):                        # mid-sized arrays
            diff = self._points - self._points[k]
            hop = np.sqrt((diff ** 2).sum(axis=1))
            keep = hop <= 0.5
            np.einsum("ij,jk,ik->i", diff[keep], cov, diff[keep])
        dijkstra(self._graph, indices=range(80))    # compiled graph search
        for _ in range(4):                          # dense LAPACK
            np.linalg.eig(self._dense)
        for _ in range(3):                          # scattered reads, 8 MB
            self._table[self._where].sum()
        return perf_counter() - t0
