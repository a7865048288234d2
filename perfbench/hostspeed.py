"""Host-speed calibration, so that timings do not follow other tenants' load.

On a shared two-core virtual machine the same iteration of the simulator
took anywhere from 0.40 s to 0.75 s within two minutes, with the CPU time
tracking the wall time: the host, not this process, sets the speed. The
benchmark times a fixed kernel of the same kind of work (numpy calls on
small arrays plus Python glue) between iterations, on as many cores at once
as the workload keeps busy, and reports every timing at the speed of a host
on which the kernel takes ``REFERENCE_S``:

    reported = measured / (mean kernel time of the run / REFERENCE_S) ** sensitivity

The mean over the whole run is used because one 35 ms kernel run is a noisy
reading of the host's speed during a 1-8 s iteration, and because the wall
time adds up the host's fast and slow spells. ``sensitivity`` is how strongly
a workload's wall time follows the kernel (the slope of log wall time against
log kernel time across runs). It is 1 for the single-process simulations. For
the two-worker sweep a one-core kernel did not track the wall time at all,
and the two-core kernel moved about twice as much as the wall time (slopes
0.46 and 0.52 in two five-run trials), so that workload uses 0.5.

The kernel is the benchmark's own code and never calls hiera_est, so a change
to the program moves the reported times and a change of host load does not.
Raw times are kept in the results file next to the reported ones.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from time import perf_counter

import numpy as np

# kernel() on an uncontended core of a 2-vCPU Xeon VM (numpy 2.4, py3.11).
REFERENCE_S = 0.035

_rng = np.random.default_rng(12345)
_MATS = _rng.uniform(-1.0, 1.0, size=(10, 3, 3))
_VECS = _rng.uniform(-1.0, 1.0, size=(10, 3))
_LAP = _rng.uniform(0.0, 1.0, size=(60, 60))
_X = _rng.uniform(-1.0, 1.0, size=(60, 3))
REPS = 1000


def kernel() -> float:
    """Seconds taken by the fixed kernel."""
    t0 = perf_counter()
    acc = 0.0
    m, v = _MATS, _VECS
    for i in range(REPS):
        g = np.einsum("aij,aik->ajk", m, m)
        d = np.linalg.det(g)
        y = np.einsum("aij,aj->ai", g, v)
        q = 0.036 * np.floor((_LAP @ _X) / 0.036)
        acc += float(d[i % 10]) + float(y[0, 0]) + float(q[0, 0])
        parts = [float(x) for x in d[:5]]
        acc += sum(parts) * 1e-12
    if not np.isfinite(acc):
        raise FloatingPointError("calibration kernel produced a non-finite value")
    return perf_counter() - t0


class HostSpeed:
    """Times the kernel on ``processes`` cores at once, like the workload it corrects."""

    def __init__(self, processes: int = 1):
        self.processes = processes
        self._pool = None
        if processes > 1:
            # Fork, not spawn: spawn also starts multiprocessing's resource
            # tracker, a process that outlives the run by a moment. Forked
            # workers are all joined by close().
            self._pool = ProcessPoolExecutor(processes - 1, mp_context=get_context("fork"))
            self.sample()  # start the workers, so that later samples run concurrently

    def sample(self) -> float:
        """Mean kernel time over the cores, all running at the same time."""
        futures = [self._pool.submit(kernel) for _ in range(self.processes - 1)]
        times = [kernel()] + [f.result() for f in futures]
        return sum(times) / len(times)

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
