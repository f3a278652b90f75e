"""Print one digest line per seeded run on a fixed grid, to diff two checkouts.

Each line names the instance and the run, then gives its status, its solve
count and the SHA-256 of its inactive-set sequence, of x and of s.  Two
checkouts whose outputs are equal gave bit-identical runs.  The grid holds an
easy n=3000 in its own order and stored under a random symmetric permutation
(blocks above the 1024-row cut, band Cholesky), medium n=2000, 3000 and
10,000 (SuperLU) and hard n=100 (dense), each run by ``ras`` with seeds 0-2
and by ``kr``.  Run from anywhere with
``OPENBLAS_NUM_THREADS=1 python3 tools/run_digests.py > digests.txt``.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rasqp.generators import gen_easy, gen_hard, gen_medium  # noqa: E402
from rasqp.model import QpProblem  # noqa: E402
from rasqp.solvers import KrConfig, RasConfig, kr_solve, ras_solve  # noqa: E402


def permuted_easy(n: int, seed: int) -> QpProblem:
    """gen_easy(n, 1, seed) stored under a random symmetric permutation."""
    p, perm = gen_easy(n, 1.0, seed), np.random.default_rng(seed).permutation(n)
    return QpProblem(p.Q[perm][:, perm], p.g[perm])


GRID = (
    ("easy n=3000 eps=1 seed=0", lambda: gen_easy(3000, 1.0, 0)),
    ("easy n=3000 eps=1 seed=0 permuted", lambda: permuted_easy(3000, 0)),
    ("medium n=2000 density=0.003 cond=1e10 seed=3", lambda: gen_medium(2000, 0.003, 1e10, 3)),
    ("medium n=3000 density=0.002 cond=1e10 seed=3", lambda: gen_medium(3000, 0.002, 1e10, 3)),
    ("medium n=10000 density=5e-4 cond=1e10 seed=3", lambda: gen_medium(10000, 5e-4, 1e10, 3)),
    ("hard n=100 cond=1e10 seed=0", lambda: gen_hard(100, 1e10, 0)),
)


def digests(name: str, build) -> list[str]:
    """The digest lines of the ``ras`` (seeds 0-2) and ``kr`` runs on one instance."""
    problem, lines = build(), []
    runs = [(f"ras seed={seed}", lambda seed=seed: ras_solve(
        problem, RasConfig(seed=seed, record_sets=True))) for seed in range(3)]
    for label, run in (*runs, ("kr", lambda: kr_solve(problem, KrConfig(record_sets=True)))):
        result = run()
        sets = hashlib.sha256()
        for I in result.inactive_sets:
            sets.update(len(I).to_bytes(8, "little") + I.astype("<i8").tobytes())
        x, s = (hashlib.sha256(v.astype("<f8").tobytes()).hexdigest()
                for v in (result.point.x, result.point.s))
        lines.append(f"{name} | {label} | {result.status.value} solves={result.solves} "
                     f"sets={sets.hexdigest()} x={x} s={s}")
    return lines


if __name__ == "__main__":
    for name, build in GRID:
        print(*digests(name, build), sep="\n", flush=True)
