"""Reference kernels that gauge how fast the host runs at the moment.

On a shared host the same op list can take 40% longer in one minute
than in the next, with the load of whatever else the host runs.  The
worker therefore runs its workload's fixed kernel before the first op
of a pass and after every op, outside the ops' timed regions, and
``run.py`` scales each op's latency by ``REFERENCE_S`` over the mean of
the two kernel times around it; it scales each set-up time the same way
with the ``cli`` kernel.  The times it reports are what the work would
have taken on a host that runs the kernel in ``REFERENCE_S`` seconds.

Each kernel mimics the kind of work its workload spends its time on,
so host load slows it by the same share, and uses only numpy, so no
change to nhwind can change it.  ``chain`` is a dense complex ``eig``
of about the size the 100- and 200-cell chains solve.  ``loop`` is the
closed-form roots of a 2×2 family on a grid, a few vectorized passes
over it, and a scalar continuation loop in Python over the roots, the
shape of the branch tracker that dominates that workload.  ``cli`` is
a fresh interpreter that imports numpy: process start-up and imports
are most of each command.
"""
from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# About the kernel times on a quiet 2.1 GHz VM core (numpy 2 with
# OpenBLAS 0.3.31, one thread).  They only fix the scale: changing one
# rescales every time its workload reports and so breaks comparison
# with earlier runs.
REFERENCE_S = {"loop": 0.010, "chain": 0.050, "cli": 0.150}

_EIG_DIM = 200
_LOOP_GRID = 4096
_LOOP_REPEATS = 2


class Kernel:
    """One workload's reference kernel with its inputs built once."""

    def __init__(self, workload: str):
        rng = np.random.default_rng(20161020)
        if workload == "chain":
            self.matrix = (rng.standard_normal((_EIG_DIM, _EIG_DIM))
                           + 1j * rng.standard_normal((_EIG_DIM, _EIG_DIM)))
            self._run = self._chain
        elif workload == "loop":
            k = np.linspace(0.0, 4.0 * np.pi, _LOOP_GRID, endpoint=False)
            self.k = k + 1e-3 * rng.standard_normal(k.size)
            self._run = self._loop
        elif workload == "cli":
            self._run = self._cli
        else:
            raise ValueError(f"no reference kernel for {workload!r}")
        self.reference_s = REFERENCE_S[workload]

    def _chain(self) -> None:
        np.linalg.eig(self.matrix)

    def _loop(self) -> None:
        for _ in range(_LOOP_REPEATS):
            z = np.exp(1j * self.k)
            a = 0.7 + 0.4 * z
            b = 0.5 + 0.3j / z
            m = 0.5 * (a + b)
            s = np.sqrt(m * m - (a * b - 0.2))
            e1, e2 = m + s, m - s
            vectors = np.stack([np.stack([b, e1 - a], axis=-1),
                                np.stack([e2 - b, a], axis=-1)], axis=1)
            norms = np.linalg.norm(vectors, axis=-1)
            np.einsum("kij,kij->ki", vectors.conj(), vectors / norms[..., None])
            cur = e1[0]
            tracked = np.empty_like(e1)
            tracked[0] = cur
            for j in range(1, e1.size):
                d1 = abs(e1[j] - cur)
                d2 = abs(e2[j] - cur)
                if abs(d1 - d2) <= 1e-12 * max(1.0, abs(cur)):
                    d1 = -d1
                cur = e1[j] if d1 < d2 else e2[j]
                tracked[j] = cur
            np.sum(np.abs(np.diff(tracked)))

    def _cli(self) -> None:
        # Captured output makes ``run`` wait on the pipes instead of
        # polling the child in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                       capture_output=True, timeout=60)

    def __call__(self) -> float:
        """Runs the kernel once and returns its wall time in seconds."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0
