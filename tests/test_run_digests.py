"""``tools/run_digests.py``, which prints one digest line per seeded run."""

import hashlib
import importlib.util
from pathlib import Path

from rasqp.generators import gen_easy
from rasqp.solvers import KrConfig, RasConfig, kr_solve, ras_solve

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("run_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_run_with_the_digests_of_its_results():
    tool = load_tool()
    lines = tool.digests("easy n=60", lambda: gen_easy(60, 1.0, 0))
    assert lines == tool.digests("easy n=60", lambda: gen_easy(60, 1.0, 0))  # seeded
    problem = gen_easy(60, 1.0, 0)
    runs = [ras_solve(problem, RasConfig(seed=seed, record_sets=True)) for seed in range(3)]
    runs.append(kr_solve(problem, KrConfig(record_sets=True)))
    labels = ("ras seed=0", "ras seed=1", "ras seed=2", "kr")
    assert len(lines) == len(runs)
    for line, label, result in zip(lines, labels, runs):
        name, run, fields = line.split(" | ")
        assert (name, run) == ("easy n=60", label)
        status, solves, sets, x, s = fields.split()
        assert status == result.status.value and solves == f"solves={result.solves}"
        assert len(sets) == len("sets=") + 64
        assert x == "x=" + hashlib.sha256(result.point.x.tobytes()).hexdigest()
        assert s == "s=" + hashlib.sha256(result.point.s.tobytes()).hexdigest()
    assert len({line.split()[-3] for line in lines}) > 1  # the sets differ by seed


def test_grid_names_are_distinct():
    names = [name for name, _ in load_tool().GRID]
    assert len(names) == len(set(names)) == 6
