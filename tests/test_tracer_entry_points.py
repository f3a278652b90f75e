"""The benchmark tracer must still find every rasqp entry point it wraps.

``perfbench/tracer.py`` looks its entry points up by name and patches them
wherever a rasqp module binds them, so a rename or a call that bypasses the
module attribute would silently drop a layer from ``--trace 1``.  The tracer
is loaded from its file, exactly as the benchmark runs it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rasqp.subsystem
from rasqp.generators import gen_easy, gen_hard, gen_medium
from rasqp.solvers import (
    GenericRasConfig,
    KrConfig,
    RasConfig,
    fletcher_solve,
    generic_ras_solve,
    kr_solve,
    ras_solve,
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_exists_on_its_home_module(tracer):
    for name, (home, _, _) in tracer.ENTRY_POINTS.items():
        assert callable(getattr(home, name, None)), f"{home.__name__}.{name}"


@pytest.mark.parametrize("solve, cfg, expected", [
    (ras_solve, RasConfig(seed=3),
     {"classify", "categorize", "select_exchange_ras", "next_sets"}),
    (generic_ras_solve, GenericRasConfig(seed=3),
     {"classify", "select_exchange_generic", "next_sets"}),
    (kr_solve, KrConfig(), {"classify", "next_sets"}),
])
def test_solver_calls_reach_the_wrappers(tracer, solve, cfg, expected):
    """Every solve of an exchange solver is one ``solve_subsystem`` call
    through the module attribute, so the traced solve count matches the
    solver's own.  The dense kernel calls LAPACK ``potrf``/``potrs``
    directly and has no span of its own: its time lands in the
    ``solve_subsystem`` self time, as fletcher's factor and the band
    Cholesky's do, and SciPy's Cholesky wrappers are never reached."""
    problem = gen_hard(20, 1e6, seed=1)
    untraced = solve(problem, cfg)
    t = tracer.Tracer()
    with t.installed():
        traced = solve(problem, cfg)
    names = {span[0] for span in t.spans}
    assert expected | {"solve_subsystem", "embed_point"} <= names
    assert not names & {"cho_factor", "cho_solve"}
    assert (traced.status, traced.solves) == (untraced.status, untraced.solves)
    assert sum(span[0] == "solve_subsystem" for span in t.spans) == untraced.solves
    np.testing.assert_array_equal(traced.point.x, untraced.point.x)


def test_sparse_factor_reaches_the_splu_wrapper(tracer, monkeypatch):
    """A large sparse block that SuperLU factorizes goes through
    ``scipy.sparse.linalg.splu``.

    The tracer reads ``subsystem.sparse_factor_s`` from the ``splu`` spans,
    so the factor must be called through that attribute.  The choice of
    the elimination order, with its reverse Cuthill-McKee ordering, is not
    an entry point: its one-off cost per problem lands in the
    ``solve_subsystem`` self time, ``subsystem.gather_s``.

    SuperLU is forced here.  By default a block whose band is full enough
    takes the band Cholesky instead, whose ``pbtrf``/``pbtrs`` calls the
    tracer does not wrap: on the easy family, where every block is such a
    band, ``subsystem.sparse_factor_s`` then falls and ``subsystem.gather_s``
    holds the band factor's time, as it holds fletcher's updated factor.
    """
    monkeypatch.setattr(rasqp.subsystem, "_DENSE_MAX", 0)
    monkeypatch.setattr(rasqp.subsystem, "_BAND_FILL", np.inf)
    problem = gen_easy(200, 1.0, seed=1)
    cfg = RasConfig(seed=3)
    untraced = ras_solve(problem, cfg)
    t = tracer.Tracer()
    with t.installed():
        traced = ras_solve(problem, cfg)
    names = [span[0] for span in t.spans]
    nonempty = [len(span[5][0]) > 0 for span in t.spans if span[0] == "solve_subsystem"]
    assert len(nonempty) == untraced.solves
    assert names.count("splu") == sum(nonempty) > 0  # every nonempty block
    assert "cho_factor" not in names
    assert (traced.status, traced.solves) == (untraced.status, untraced.solves)
    np.testing.assert_array_equal(traced.point.x, untraced.point.x)


@pytest.mark.parametrize("make", [lambda: gen_hard(20, 1e6, seed=1),
                                  lambda: gen_medium(60, 0.1, 1e8, 1)], ids=["hard", "medium"])
def test_fletcher_solves_are_counted_by_their_spans(tracer, make):
    """Each fletcher solve is one ``solve_subsystem`` call, whether its factor
    was updated or refactored, so the benchmark's traced solve count matches
    the solver's own.  The factor kernels call LAPACK directly and have no
    spans of their own.  Each accepted objective is read from the factor's
    Q x, so the only ``objective`` span is the result's."""
    problem = make()
    untraced = fletcher_solve(problem)
    t = tracer.Tracer()
    with t.installed():
        traced = fletcher_solve(problem)
    names = [span[0] for span in t.spans]
    assert names.count("solve_subsystem") == untraced.solves
    assert names.count("objective") == 1
    assert {"classify", "embed_point", "next_sets"} <= set(names)  # the shared loop ran
    assert (traced.status, traced.solves) == (untraced.status, untraced.solves)
    np.testing.assert_array_equal(traced.point.x, untraced.point.x)
