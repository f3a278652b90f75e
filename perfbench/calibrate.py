"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to ~2x slower in some spells than in
others, and the spells last a fraction of a second to minutes.  Run between
the timed ops, the kernel samples that speed next to each op, so the runner
can scale an op's wall time to the machine's uncontended speed.  The kernel
does what the workloads do, in small: interpreter-bound set algebra and
loops, a dense Cholesky factorization through SciPy, and a fancy-index
gather.  It calls nothing in ``rasqp``, so no change to the program under
test can change it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

_RNG = np.random.default_rng(20211127)
_B = _RNG.standard_normal((160, 160))
_SPD = _B @ _B.T + 160.0 * np.eye(160)
_IDX = np.sort(_RNG.permutation(400)[:160])
_BIG = _RNG.standard_normal((400, 400))
_EVENS = frozenset(range(0, 600, 2))
_THIRDS = frozenset(range(0, 600, 3))


def _kernel() -> float:
    acc = 0.0
    for _ in range(12):
        acc += len((_EVENS - _THIRDS) | (_THIRDS & _EVENS))
    for i in range(3000):
        acc += i % 7
    for _ in range(2):
        acc += scipy.linalg.cho_factor(_SPD)[0][0, 0]
    acc += _BIG[np.ix_(_IDX, _IDX)][0, 0]
    return acc


def sample() -> float:
    """Wall seconds of one run of the kernel (~1.3 ms at the machine's full speed)."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


_kernel()  # warm caches and lazy imports before the first sample
