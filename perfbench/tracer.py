"""Span tracing around the calls into each layer of rasqp, from outside it.

:meth:`Tracer.installed` replaces each entry-point callable with a wrapper
wherever a ``rasqp`` module (or, for the SciPy kernels, the SciPy module
``rasqp.subsystem`` calls through) binds it, and restores the originals on
exit.  No source under ``src/`` changes.  A span is
``[name, start, end, parent, op, note, error]``: ``parent`` indexes the
enclosing span (-1 for none), ``op`` is the op id the runner set (0 for the
traced set-up, k + 1 for timed op k) and ``note`` is what the wrapper kept of
the arguments.  Spans stay in memory until :meth:`write_csv`.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

import rasqp.bench
import rasqp.engine
import rasqp.generators
import rasqp.model
import rasqp.solvers
import rasqp.subsystem

SOLVERS = ("ras_solve", "generic_ras_solve", "kr_solve", "fletcher_solve")
SELECTS = ("select_exchange_ras", "select_exchange_generic")


def _subsystem_note(args):
    # (I as passed, |A>) of solve_subsystem(problem, I, A): churn and sizes.
    return np.asarray(args[1]), len(args[2])


# name -> (defining module, layer, note taken from the positional arguments)
ENTRY_POINTS = {
    "generate": (rasqp.generators, "generators", None),
    "run_plan": (rasqp.bench, "bench", None),
    **{name: (rasqp.solvers, "solvers", None) for name in SOLVERS},
    "classify": (rasqp.engine, "engine", None),
    "categorize": (rasqp.engine, "engine", None),
    **{name: (rasqp.engine, "engine", None) for name in SELECTS},
    "next_sets": (rasqp.engine, "engine", None),
    "solve_subsystem": (rasqp.subsystem, "subsystem", _subsystem_note),
    "embed_point": (rasqp.subsystem, "subsystem", None),
    "cho_factor": (scipy.linalg, "subsystem", lambda args: args[0].shape[0]),
    "cho_solve": (scipy.linalg, "subsystem", None),
    "splu": (scipy.sparse.linalg, "subsystem", None),
    "objective": (rasqp.model, "model", None),
}
LAYERS = ("generators", "bench", "solvers", "engine", "subsystem", "model")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    note(args) if note else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        modules = [m for key, m in sys.modules.items()
                   if key == "rasqp" or key.startswith("rasqp.")]
        patched = []
        try:
            for name, (home, _, note) in ENTRY_POINTS.items():
                original = getattr(home, name)
                wrapper = self._wrap(name, original, note)
                for module in {id(m): m for m in (*modules, home)}.values():
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        patched.append((module, name, original))
            yield self
        finally:
            for module, name, original in reversed(patched):
                setattr(module, name, original)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        own = np.array([s[2] - s[1] for s in self.spans])
        out = own.copy()
        for s, d in zip(self.spans, own):
            if s[3] >= 0:
                out[s[3]] -= d
        return out

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over timed ops 1..ops; ``_s`` and call counts are per op."""
        self_s = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        setup_calls = setup_secs = 0.0
        for s, t in zip(self.spans, self_s):
            if s[4] == 0:
                if s[0] == "generate":
                    setup_calls += 1
                    setup_secs += t
                continue
            calls[s[0]] += 1
            secs[s[0]] += t
        layer_s = defaultdict(float)
        for name, t in secs.items():
            layer_s[ENTRY_POINTS[name][1]] += t
        total = sum(layer_s.values())

        sizes, churn, factor_failures = self._subsystem_stats()
        dense_sizes = np.array([s[5] for s in self.spans if s[0] == "cho_factor" and s[4] > 0],
                               dtype=float)
        n_I, n_A = np.array(sizes, dtype=float).reshape(-1, 2).T
        per_op = lambda v: v / ops  # noqa: E731
        selects = sum(calls[name] for name in SELECTS)
        next_sets_in_select_ops = self._next_sets_in_select_ops()
        metrics = {
            "generators.calls": per_op(calls["generate"]),
            "generators.self_s": per_op(secs["generate"]),
            "generators.setup_calls": setup_calls,
            "generators.setup_s": setup_secs,
            "bench.self_s": per_op(secs["run_plan"]),
            "solvers.runs": per_op(sum(calls[name] for name in SOLVERS)),
            "solvers.self_s": per_op(layer_s["solvers"]),
            "engine.classify_s": per_op(secs["classify"]),
            "engine.categorize_s": per_op(secs["categorize"]),
            "engine.select_s": per_op(sum(secs[name] for name in SELECTS)),
            "engine.next_sets_s": per_op(secs["next_sets"]),
            "engine.select_calls": per_op(selects),
            "engine.redraws": per_op(selects - next_sets_in_select_ops),
            "engine.useful_draw_ratio": next_sets_in_select_ops / selects if selects else 1.0,
            "subsystem.calls": per_op(calls["solve_subsystem"]),
            "subsystem.gather_s": per_op(secs["solve_subsystem"]),
            "subsystem.dense_factor_s": per_op(secs["cho_factor"]),
            "subsystem.dense_solve_s": per_op(secs["cho_solve"]),
            "subsystem.dense_calls": per_op(calls["cho_factor"]),
            "subsystem.sparse_factor_s": per_op(secs["splu"]),
            "subsystem.sparse_calls": per_op(calls["splu"]),
            "subsystem.embed_s": per_op(secs["embed_point"]),
            "subsystem.mean_size": float(n_I.mean()) if len(n_I) else 0.0,
            "subsystem.factor_failures": factor_failures,
            "subsystem.churn_mean": churn[0] / churn[1] if churn[1] else 0.0,
            "subsystem.churn_frac": churn[0] / churn[2] if churn[2] else 0.0,
            "subsystem.factor_flops_computed": per_op(float((n_I ** 3).sum()) / 3.0),
            "subsystem.dense_gflops_computed": (
                float((dense_sizes ** 3).sum()) / 3.0 / secs["cho_factor"] / 1e9
                if secs["cho_factor"] else 0.0),
            "subsystem.gather_bytes_computed": per_op(8.0 * float((n_I ** 2 + n_A * n_I).sum())),
            "model.objective_calls": per_op(calls["objective"]),
            "model.objective_s": per_op(secs["objective"]),
        }
        for layer in LAYERS:
            metrics[f"{layer}.share"] = layer_s[layer] / total if total else 0.0
        return metrics

    def _subsystem_stats(self):
        """|I|, |A| of every timed solve_subsystem call; churn
        (sum |I_k xor I_k-1|, pairs, sum |I_k|) between consecutive calls of
        one solver run; calls that raised FactorizationError."""
        sizes, last_I = [], {}
        churn = [0, 0, 0]
        failures = 0
        for s in self.spans:
            if s[0] != "solve_subsystem" or s[4] == 0:
                continue
            I, n_A = s[5]
            sizes.append((len(I), n_A))
            failures += s[6] == "FactorizationError"
            prev = last_I.get(s[3])
            if prev is not None:
                churn[0] += len(np.setxor1d(prev, I))
                churn[1] += 1
                churn[2] += len(I)
            last_I[s[3]] = I
        return sizes, churn, failures

    def _next_sets_in_select_ops(self) -> int:
        """next_sets calls within solver runs that draw with a select rule
        (kr calls next_sets without drawing, so it has no redraws)."""
        drawing = {s[3] for s in self.spans if s[0] in SELECTS}
        return sum(1 for s in self.spans if s[0] == "next_sets" and s[3] in drawing and s[4] > 0)

    def solves_per_op(self, ops: int) -> list[int]:
        """solve_subsystem calls that returned, per timed op."""
        counts = [0] * ops
        for s in self.spans:
            if s[0] == "solve_subsystem" and s[4] > 0 and s[6] is None:
                counts[s[4] - 1] += 1
        return counts

    def write_csv(self, path) -> None:
        """Write every span; ``size`` is |I| for solve_subsystem, m for cho_factor."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "parent", "op", "name", "start_s", "end_s", "size", "error"])
            for i, (name, start, end, parent, op, note, error) in enumerate(self.spans):
                size = len(note[0]) if name == "solve_subsystem" else note
                out.writerow([i, parent, op, name, repr(start - t0), repr(end - t0),
                              "" if size is None else size, error or ""])
