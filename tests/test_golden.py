"""Golden-file gate: seeded runs must reproduce their recorded working sets.

``tests/data/golden_runs.json`` records, for every (problem, solver) run of
the grid below, the status, the solve count and, for the solvers that can
record them, a SHA-256 of the ``inactive_sets`` sequence.  A change that
alters any seeded run, including its random draw order, fails here even when
every other test still passes.

That grid stops at easy n=200, so no block it factors has more than 1024
rows, and every sparse one is densified; its sparse-stored problems run
again against the same entries with every nonempty block above that cut,
through the band Cholesky and through SuperLU, and with the cut at 64, so
that runs cross it mid-run.  ``tests/data/golden_superlu_runs.json``
records the same fields for ``ras`` and ``kr`` on easy n=3000, whose blocks
Q[I,I] (|I| around 1300) have more than 1024 rows and were recorded
through SuperLU.  Those blocks are full bands in the problem's elimination
order, its own when no wider than RCM's (reverse Cuthill-McKee), so by
default they take the band Cholesky; the grid runs once with SuperLU
forced and once on the default rule, against the same file.

Regenerate both files only when a change is meant to alter seeded runs:

    PYTHONPATH=src python tests/test_golden.py --write

which prints each key whose entry differs from the file it replaces, so a
re-record shows its own scope.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import rasqp.subsystem
from rasqp.bench import default_tol, solver_seed_for_trial
from rasqp.generators import GeneratorSpec, generate
from rasqp.solvers import (
    GenericRasConfig,
    KrConfig,
    RasConfig,
    fletcher_solve,
    generic_ras_solve,
    kr_solve,
    ras_solve,
)

GOLDEN = Path(__file__).parent / "data" / "golden_runs.json"
SEEDS = range(5)
SPECS = (
    *(GeneratorSpec("hard", n, seed=0, cond=c) for n in (30, 100) for c in (1e10, 1e14)),
    GeneratorSpec("medium", 100, seed=0, density=0.1, cond=1e10),
    *(GeneratorSpec("easy", 200, seed=0, epsilon=e) for e in (1.0, 1e-10)),
)
SOLVERS = ("ras", "generic", "kr", "fletcher")

SUPERLU_GOLDEN = Path(__file__).parent / "data" / "golden_superlu_runs.json"
SUPERLU_SEEDS = range(3)
SUPERLU_SPECS = tuple(GeneratorSpec("easy", 3000, seed=0, epsilon=e) for e in (1.0, 1e-10))
SUPERLU_SOLVERS = ("ras", "kr")


def _spec_key(spec: GeneratorSpec) -> str:
    return f"{spec.family} n={spec.n} cond={spec.cond} density={spec.density} eps={spec.epsilon}"


def _sets_digest(sets) -> str:
    h = hashlib.sha256()
    for I in sets:
        h.update(len(I).to_bytes(8, "little"))
        h.update(I.astype("<i8").tobytes())
    return h.hexdigest()


def _runs(spec: GeneratorSpec, seed: int, solvers=SOLVERS) -> dict[str, dict]:
    problem = generate(GeneratorSpec(**{**spec.__dict__, "seed": seed}))
    tol = default_tol(spec.family)
    solver_seed = solver_seed_for_trial(seed)
    run = {
        "ras": lambda: ras_solve(problem, RasConfig(tol=tol, seed=solver_seed, record_sets=True)),
        "generic": lambda: generic_ras_solve(
            problem, GenericRasConfig(tol=tol, seed=solver_seed, record_sets=True)
        ),
        "kr": lambda: kr_solve(problem, KrConfig(tol=tol, record_sets=True)),
        "fletcher": lambda: fletcher_solve(problem, tol=tol, record_sets=True),
    }
    out = {}
    for name in solvers:
        result = run[name]()
        entry = {"status": result.status.value, "solves": result.solves}
        if result.inactive_sets is not None:
            entry["sets_sha256"] = _sets_digest(result.inactive_sets)
        out[name] = entry
    return out


def _all_runs(specs, seeds, solvers) -> dict[str, dict]:
    return {f"{_spec_key(spec)} seed={seed}": _runs(spec, seed, solvers)
            for spec in specs for seed in seeds}


@pytest.mark.parametrize("spec", SPECS, ids=_spec_key)
def test_seeded_runs_match_golden_file(spec):
    golden = json.loads(GOLDEN.read_text())
    for seed in SEEDS:
        key = f"{_spec_key(spec)} seed={seed}"
        assert _runs(spec, seed) == golden[key], key


def _counted(monkeypatch, module, name) -> list:
    """Record the first argument's shape on each call of ``module.name``."""
    kernel = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kernels", ("dense", "band", "superlu", "dense+band", "dense+superlu"))
def test_sparse_golden_runs_match_under_every_sparse_kernel(kernels, monkeypatch):
    # The grid's sparse-stored problems, recorded through the densified
    # blocks, again with every nonempty block above the cut (band Cholesky
    # by the default rule, or SuperLU forced), and with the cut at 64, where
    # runs cross it mid-run: 187 blocks are densified and 854 lie above it.
    named = set(kernels.split("+"))
    if named != {"dense"}:
        monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 64 if "dense" in named else 0)
    if "superlu" in named:
        monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
    calls = {"dense": _counted(monkeypatch, rasqp.subsystem, "_csc_block"),
             "band": _counted(monkeypatch, rasqp.subsystem, "_pbtrf"),
             "superlu": _counted(monkeypatch, scipy.sparse.linalg, "splu")}
    golden = json.loads(GOLDEN.read_text())
    for spec in SPECS:
        if spec.family != "hard":
            for seed in SEEDS:
                key = f"{_spec_key(spec)} seed={seed}"
                assert _runs(spec, seed) == golden[key], key
    assert {name for name, c in calls.items() if c} == named


def _check_superlu_grid(spec) -> None:
    golden = json.loads(SUPERLU_GOLDEN.read_text())
    for seed in SUPERLU_SEEDS:
        key = f"{_spec_key(spec)} seed={seed}"
        assert _runs(spec, seed, SUPERLU_SOLVERS) == golden[key], key


@pytest.mark.parametrize("spec", SUPERLU_SPECS, ids=_spec_key)
def test_seeded_superlu_runs_match_golden_file(spec, monkeypatch):
    monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)  # SuperLU for every block
    lu_calls = _counted(monkeypatch, scipy.sparse.linalg, "splu")
    _check_superlu_grid(spec)
    assert lu_calls, "the grid no longer reaches the SuperLU branch"


@pytest.mark.parametrize("spec", SUPERLU_SPECS, ids=_spec_key)
def test_seeded_band_runs_match_the_superlu_golden_file(spec, monkeypatch):
    band_calls = _counted(monkeypatch, rasqp.subsystem, "_pbtrf")
    lu_calls = _counted(monkeypatch, scipy.sparse.linalg, "splu")
    _check_superlu_grid(spec)
    assert band_calls, "the grid no longer reaches the band Cholesky"
    assert not lu_calls


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    for path, grid in ((GOLDEN, (SPECS, SEEDS, SOLVERS)),
                       (SUPERLU_GOLDEN, (SUPERLU_SPECS, SUPERLU_SEEDS, SUPERLU_SOLVERS))):
        before = json.loads(path.read_text()) if path.exists() else {}
        after = _all_runs(*grid)
        path.write_text(json.dumps(after, indent=1, sort_keys=True) + "\n")
        for key in sorted(before.keys() | after.keys()):
            if before.get(key) != after.get(key):
                print(f"{path.name}: {key}")
