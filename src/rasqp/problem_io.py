"""Plain-text problem files.

Line-oriented format; only a line feed ends a line, ``#`` starts a comment::

    meta family hard          # optional, repeatable key/value pairs
    n 3
    coo 4                     # or: dense
    1 1 4.0                   # 1-based "i j value"; either triangle accepted
    1 2 1.0                   # and mirrored automatically
    2 2 3.0
    3 3 5.0
    g
    -1.0 -2.0 0.5

Blank lines are ignored, and the carriage return of a CRLF reads as
whitespace.  A ``dense`` section instead holds n rows of n whitespace-separated
numbers; Q is built only once all n rows are read, so a file that declares
a large n but does not hold it fails on the line where it falls short.  If
a coo file lists both (i, j) and (j, i), the two values must agree
exactly; listing the same cell twice is an error.  Every number must be
finite: ``nan`` and ``inf`` are rejected on the line that holds them.  A
coo section becomes a sparse matrix straight from its entries, with no
dense n×n staging, and stays sparse through
:func:`rasqp.model.validate_problem`, which the parsed matrix must pass.
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


def _semantic_lines(raw: list[str]):
    """Yield (1-based line number, tokens) of each line with words left once
    its comment is cut."""
    for line_no, line in enumerate(raw, 1):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


def load_problem(path) -> ProblemFile:
    """Parse and validate a problem file.

    The file is read in one pass.  ``n`` must come before the matrix and g;
    each of the three appears exactly once, and a missing one is reported
    on the file's last line, as is a section the file ends inside.

    Raises :class:`ProblemFileError` for malformed input and the model
    validation errors (:class:`rasqp.model.NotPositiveDefiniteError`,
    :class:`rasqp.model.NotSymmetricError`) for a well-formed file whose
    matrix is unusable.  A coo file stays sparse throughout: its matrix is
    validated by a sparse factorization, with no dense copy of Q.
    """
    with open(path, newline="") as f:  # no newline translation: only "\n" ends a line
        raw = f.read().removesuffix("\n").split("\n")
    end = max(len(raw), 1)  # the line an error at the end of the file names
    lines = _semantic_lines(raw)
    meta: dict[str, str] = {}
    found: dict[str, object] = {}  # section name -> its parsed value

    for line_no, tokens in lines:
        word = tokens[0]
        if word == "meta":
            if len(tokens) < 3:
                raise ProblemFileError(line_no, "meta needs a key and a value")
            meta[tokens[1]] = " ".join(tokens[2:])
            continue
        name = _SECTION_OF.get(word)
        if name is None:
            raise ProblemFileError(line_no, f"unknown directive {word!r}")
        n = found.get("n")
        if n is None and word != "n":
            raise ProblemFileError(line_no, "n must be declared first")
        if name in found:
            raise ProblemFileError(line_no, f"duplicate {name}")
        if word == "n":
            n = _parse_int(line_no, tokens)
            if n < 1:
                raise ProblemFileError(line_no, "n must be >= 1")
            found[name] = n
        elif word == "dense":
            found[name] = _parse_dense(lines, n, end)
        elif word == "coo":
            found[name] = _parse_coo(line_no, tokens, lines, n, end)
        else:
            found[name] = _parse_vector(lines, n, end)

    for name, (_, missing) in _SECTIONS.items():
        if name not in found:
            raise ProblemFileError(end, missing)
    problem = QpProblem(found["matrix section"], found["g section"])
    validate_problem(problem)
    return ProblemFile(problem=problem, meta=meta)


# The once-only sections, by their name in "duplicate <name>" and in the order
# a missing one is reported: the directives that open each, and its message.
_SECTIONS = {
    "n": (("n",), "missing n"),
    "matrix section": (("dense", "coo"), "missing matrix section (dense or coo)"),
    "g section": (("g",), "missing g section"),
}
_SECTION_OF = {word: name for name, (words, _) in _SECTIONS.items() for word in words}


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


def _parse_dense(lines, n: int, end: int) -> np.ndarray:
    # Q is built once all n rows are read, so a declared n that the file
    # does not back allocates nothing of size n * n.
    rows = []
    for i in range(n):
        line_no, tokens = next(lines, (end, None))
        if tokens is None:
            raise ProblemFileError(end, f"dense matrix ends after {i} of {n} rows")
        if len(tokens) != n:
            raise ProblemFileError(line_no, f"matrix row has {len(tokens)} entries, expected {n}")
        rows.append(np.array([_parse_float(line_no, t) for t in tokens]))
    return np.vstack(rows)


def _parse_coo(header_line: int, header_tokens: list[str], lines, n: int,
               end: int) -> sp.coo_array:
    count = _parse_int(header_line, header_tokens)
    if count < 0:
        raise ProblemFileError(header_line, "entry count must be >= 0")
    seen: dict[tuple[int, int], tuple[float, int, tuple[int, int]]] = {}
    for _ in range(count):
        line_no, tokens = next(lines, (end, None))
        if tokens is None:
            raise ProblemFileError(end, f"coo section ends before {count} entries")
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


def _parse_vector(lines, n: int, end: int) -> np.ndarray:
    values: list[float] = []
    while len(values) < n:
        line_no, tokens = next(lines, (end, None))
        if tokens is None:
            raise ProblemFileError(end, f"g has {len(values)} of {n} entries")
        for t in tokens:
            values.append(_parse_float(line_no, t))
        if len(values) > n:
            raise ProblemFileError(line_no, f"g has more than {n} entries")
    return np.array(values)


def save_problem(problem_file: ProblemFile, path) -> None:
    """Write a problem file in the form of Q's storage: ``dense`` for a dense
    Q, ``coo`` for a sparse one.

    Numbers are written with full precision, so load(save(p)) reproduces Q
    and g exactly.  Sparse matrices are stored as their upper triangle
    (1-based), relying on the mirroring rule of the parser.  Metadata that
    would not read back unchanged raises ``ValueError``.
    """
    problem = problem_file.problem
    out = []
    for key, value in problem_file.meta.items():
        # The parser reads strings: it cuts a line at "#" and splits it on whitespace.
        if (not isinstance(key, str) or not isinstance(value, str) or key.split() != [key]
                or " ".join(value.split()) != value or not value or "#" in key + value):
            raise ValueError(f"meta {key!r}: the key or its value would not read back unchanged")
        out.append(f"meta {key} {value}")
    out.append(f"n {problem.n}")
    if not problem.is_sparse:
        out.append("dense")
        for row in problem.Q:
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
