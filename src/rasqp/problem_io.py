"""Plain-text problem files.

Line-oriented format; ``#`` starts a comment, blank lines are ignored::

    meta family hard          # optional, repeatable key/value pairs
    n 3
    coo 4                     # or: dense
    1 1 4.0                   # 1-based "i j value"; either triangle accepted
    1 2 1.0                   # and mirrored automatically
    2 2 3.0
    3 3 5.0
    g
    -1.0 -2.0 0.5

A ``dense`` section instead holds n rows of n whitespace-separated numbers.
If a coo file lists both (i, j) and (j, i), the two values must agree
exactly; listing the same cell twice is an error.  Every number must be
finite: ``nan`` and ``inf`` are rejected on the line that holds them.  A
coo section becomes a sparse matrix straight from its entries, with no
dense n×n staging.  The parsed matrix must pass
:func:`rasqp.model.validate_problem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .model import QpProblem, validate_problem

__all__ = ["ProblemFile", "ProblemFileError", "load_problem", "save_problem"]


class ProblemFileError(ValueError):
    """Syntax or consistency error in a problem file, with a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass
class ProblemFile:
    """A parsed problem plus its metadata key/value pairs."""

    problem: QpProblem
    meta: dict[str, str] = field(default_factory=dict)


class _Lines:
    """Iterator over semantic lines, tracking 1-based line numbers."""

    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next(self) -> tuple[int, list[str]] | None:
        while self.pos < len(self.raw):
            self.pos += 1
            line = self.raw[self.pos - 1]
            body = line.split("#", 1)[0].strip()
            if body:
                return self.pos, body.split()
        return None


def load_problem(path) -> ProblemFile:
    """Parse and validate a problem file.

    Raises :class:`ProblemFileError` for malformed input and the model
    validation errors (:class:`rasqp.model.NotPositiveDefiniteError`,
    :class:`rasqp.model.NotSymmetricError`) for a well-formed file whose
    matrix is unusable.
    """
    text = Path(path).read_text()
    lines = _Lines(text)
    meta: dict[str, str] = {}
    n = None
    Q = None
    g = None

    while True:
        item = lines.next()
        if item is None:
            break
        line_no, tokens = item
        word = tokens[0]
        if word == "meta":
            if len(tokens) < 3:
                raise ProblemFileError(line_no, "meta needs a key and a value")
            meta[tokens[1]] = " ".join(tokens[2:])
        elif word == "n":
            if n is not None:
                raise ProblemFileError(line_no, "duplicate n")
            n = _parse_int(line_no, tokens)
            if n < 1:
                raise ProblemFileError(line_no, "n must be >= 1")
        elif word in ("dense", "coo"):
            _require_n(line_no, n)
            if Q is not None:
                raise ProblemFileError(line_no, "duplicate matrix section")
            Q = (_parse_dense(lines, n) if word == "dense"
                 else _parse_coo(line_no, tokens, lines, n))
        elif word == "g":
            _require_n(line_no, n)
            if g is not None:
                raise ProblemFileError(line_no, "duplicate g section")
            g = _parse_vector(lines, n, line_no)
        else:
            raise ProblemFileError(line_no, f"unknown directive {word!r}")

    last = len(lines.raw) if lines.raw else 1
    if n is None:
        raise ProblemFileError(last, "missing n")
    if Q is None:
        raise ProblemFileError(last, "missing matrix section (dense or coo)")
    if g is None:
        raise ProblemFileError(last, "missing g section")
    problem = QpProblem(Q, g)
    validate_problem(problem)
    return ProblemFile(problem=problem, meta=meta)


def _require_n(line_no: int, n) -> None:
    if n is None:
        raise ProblemFileError(line_no, "n must be declared first")


def _parse_int(line_no: int, tokens: list[str]) -> int:
    if len(tokens) != 2:
        raise ProblemFileError(line_no, f"expected '{tokens[0]} <integer>'")
    try:
        return int(tokens[1])
    except ValueError:
        raise ProblemFileError(line_no, f"not an integer: {tokens[1]!r}") from None


def _parse_float(line_no: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ProblemFileError(line_no, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ProblemFileError(line_no, f"NaN or infinite value: {token!r}")
    return value


def _parse_dense(lines: _Lines, n: int) -> np.ndarray:
    Q = np.empty((n, n))
    for i in range(n):
        item = lines.next()
        if item is None:
            raise ProblemFileError(len(lines.raw), f"dense matrix ends after {i} of {n} rows")
        line_no, tokens = item
        if len(tokens) != n:
            raise ProblemFileError(line_no, f"matrix row has {len(tokens)} entries, expected {n}")
        Q[i] = [_parse_float(line_no, t) for t in tokens]
    return Q


def _parse_coo(header_line: int, header_tokens: list[str], lines: _Lines, n: int) -> sp.coo_array:
    count = _parse_int(header_line, header_tokens)
    if count < 0:
        raise ProblemFileError(header_line, "entry count must be >= 0")
    seen: dict[tuple[int, int], tuple[float, int, tuple[int, int]]] = {}
    for _ in range(count):
        item = lines.next()
        if item is None:
            raise ProblemFileError(len(lines.raw), f"coo section ends before {count} entries")
        line_no, tokens = item
        if len(tokens) != 3:
            raise ProblemFileError(line_no, "expected 'i j value'")
        i = _parse_int(line_no, ["i", tokens[0]])
        j = _parse_int(line_no, ["j", tokens[1]])
        value = _parse_float(line_no, tokens[2])
        if not (1 <= i <= n and 1 <= j <= n):
            raise ProblemFileError(line_no, f"index ({i}, {j}) out of range 1..{n}")
        key = (min(i, j), max(i, j))
        if key in seen:
            prev_value, prev_line, prev_pos = seen[key]
            if prev_pos == (i, j):
                raise ProblemFileError(
                    line_no, f"duplicate entry ({i}, {j}), first on line {prev_line}"
                )
            # The mirrored counterpart: allowed, but only with the same value.
            if prev_value != value:
                raise ProblemFileError(
                    line_no,
                    f"entry ({i}, {j}) contradicts value {prev_value!r} on line {prev_line}",
                )
            continue
        seen[key] = (value, line_no, (i, j))
    # One stored entry per upper-triangle cell, mirrored off the diagonal.
    # int32 coordinates give Q the same index width as a generated problem.
    # COO holds no per-column array, so nothing of size n is allocated until
    # QpProblem converts it, after g has shown that the file really has n values.
    upper = np.array(list(seen), dtype=np.int32).reshape(-1, 2) - 1
    values = np.array([entry[0] for entry in seen.values()])
    off = upper[:, 0] != upper[:, 1]
    rows = np.concatenate([upper[:, 0], upper[off, 1]])
    cols = np.concatenate([upper[:, 1], upper[off, 0]])
    return sp.coo_array((np.concatenate([values, values[off]]), (rows, cols)), shape=(n, n))


def _parse_vector(lines: _Lines, n: int, header_line: int) -> np.ndarray:
    values: list[float] = []
    while len(values) < n:
        item = lines.next()
        if item is None:
            raise ProblemFileError(
                len(lines.raw), f"g has {len(values)} of {n} entries"
            )
        line_no, tokens = item
        for t in tokens:
            values.append(_parse_float(line_no, t))
        if len(values) > n:
            raise ProblemFileError(line_no, f"g has more than {n} entries")
    return np.array(values)


def save_problem(problem_file: ProblemFile, path, form: str = "auto") -> None:
    """Write a problem file; ``form`` is 'dense', 'coo' or 'auto' (follow storage).

    Numbers are written with full precision, so load(save(p)) reproduces Q
    and g exactly.  Sparse matrices are stored as their upper triangle
    (1-based), relying on the mirroring rule of the parser.  Metadata that
    would not read back unchanged raises ``ValueError``.
    """
    problem = problem_file.problem
    if form == "auto":
        form = "coo" if problem.is_sparse else "dense"
    if form not in ("dense", "coo"):
        raise ValueError(f"form must be 'dense', 'coo' or 'auto', got {form!r}")
    out = []
    for key, value in problem_file.meta.items():
        words = value.split()  # the parser cuts a line at "#" and splits it on whitespace
        if key.split() != [key] or not words or " ".join(words) != value or "#" in key + value:
            raise ValueError(f"meta {key!r}: the key or its value would not read back unchanged")
        out.append(f"meta {key} {value}")
    out.append(f"n {problem.n}")
    if form == "dense":
        out.append("dense")
        for row in problem.dense_q():
            out.append(" ".join(repr(float(v)) for v in row))
    else:
        upper = sp.coo_array(sp.triu(problem.Q))
        order = np.lexsort((upper.coords[1], upper.coords[0]))
        out.append(f"coo {upper.nnz}")
        for k in order:
            i, j = upper.coords[0][k], upper.coords[1][k]
            out.append(f"{i + 1} {j + 1} {repr(float(upper.data[k]))}")
    out.append("g")
    out.append(" ".join(repr(float(v)) for v in problem.g))
    Path(path).write_text("\n".join(out) + "\n")
