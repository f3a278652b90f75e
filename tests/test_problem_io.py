import numpy as np
import pytest

from conftest import rand_spd_problem
from rasqp.generators import gen_easy, gen_medium
from rasqp.model import NotPositiveDefiniteError, NotSymmetricError, QpProblem
from rasqp.problem_io import ProblemFile, ProblemFileError, load_problem, save_problem


def write(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


GOOD_COO = """\
# a 3x3 instance
meta family demo
n 3
coo 4
1 1 4.0
1 2 1.0   # either triangle may be listed
2 2 3.0
3 3 5.0
g
-1.0 -2.0
0.5
"""


class TestLoad:
    def test_coo_file(self, tmp_path):
        loaded = load_problem(write(tmp_path, GOOD_COO))
        assert loaded.meta == {"family": "demo"}
        assert loaded.problem.is_sparse
        want = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 5.0]])
        np.testing.assert_array_equal(loaded.problem.dense_q(), want)
        np.testing.assert_array_equal(loaded.problem.g, [-1.0, -2.0, 0.5])

    def test_dense_file(self, tmp_path):
        text = "n 2\ndense\n4 1\n1 3\ng\n-1 -2\n"
        loaded = load_problem(write(tmp_path, text))
        assert not loaded.problem.is_sparse
        np.testing.assert_array_equal(
            loaded.problem.dense_q(), [[4.0, 1.0], [1.0, 3.0]]
        )

    def test_mirrored_pair_with_equal_values(self, tmp_path):
        # (2,1) restates (1,2) with the same value: allowed, stored once.
        text = "n 2\ncoo 4\n1 1 2.0\n1 2 0.5\n2 1 0.5\n2 2 2.0\ng\n0 0\n"
        loaded = load_problem(write(tmp_path, text))
        np.testing.assert_array_equal(
            loaded.problem.dense_q(), [[2.0, 0.5], [0.5, 2.0]]
        )

    def test_meta_value_may_contain_spaces(self, tmp_path):
        text = "meta note two words\nn 1\ndense\n1\ng\n0\n"
        assert load_problem(write(tmp_path, text)).meta["note"] == "two words"

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "\n# header\n\nn 1\n dense \n 1.5 # trailing\n\ng\n2.0\n"
        loaded = load_problem(write(tmp_path, text))
        assert loaded.problem.dense_q()[0, 0] == 1.5

    @pytest.mark.parametrize("char", ["\f", "\v", "\x1c", "\x85", "\u2028"], ids=repr)
    def test_only_a_line_feed_ends_a_line(self, tmp_path, char):
        # str.splitlines would end a line at each of these and read "break"
        # as a directive; here they stay inside their comments, and line
        # numbers count line feeds, as an editor or wc -l does.
        text = f"n 2 # page{char}break\ndense\n4 1\n1 3 # row{char}2\ng\n-1 -2\n"
        loaded = load_problem(write(tmp_path, text))
        np.testing.assert_array_equal(loaded.problem.dense_q(), [[4.0, 1.0], [1.0, 3.0]])
        with pytest.raises(ProblemFileError, match="^line 7: unknown directive 'wat'$"):
            load_problem(write(tmp_path, text + "wat\n"))

    def test_crlf_line_ends(self, tmp_path):
        loaded = load_problem(write(tmp_path, GOOD_COO.replace("\n", "\r\n"), "crlf.txt"))
        want = load_problem(write(tmp_path, GOOD_COO))
        assert loaded.meta == want.meta
        np.testing.assert_array_equal(loaded.problem.dense_q(), want.problem.dense_q())
        np.testing.assert_array_equal(loaded.problem.g, want.problem.g)


class TestLoadErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("n 2\ncoo 2\n1 2 0.5\n2 1 0.7\ng\n0 0\n", "contradicts"),
            ("n 2\ncoo 2\n1 2 0.5\n1 2 0.5\ng\n0 0\n", "duplicate entry"),
            ("n 2\ncoo 1\n3 1 0.5\ng\n0 0\n", "out of range"),
            ("n 2\ncoo 1\n1 1\ng\n0 0\n", "expected 'i j value'"),
            ("n 2\ncoo 1\n1 1 abc\ng\n0 0\n", "not a number"),
            ("n 2\ncoo -1\ng\n0 0\n", "entry count must be >= 0"),
            ("dense\n1\n", "n must be declared first"),
            ("g\n0\nn 1\n", "line 1: n must be declared first"),
            ("n 1\nn 2\n", "duplicate n"),
            ("n 0\n", "n must be >= 1"),
            ("n x\n", "not an integer"),
            ("n 2\ndense\n1 0 0\n0 1\ng\n0 0\n", "row has 3 entries"),
            ("n 2\ndense\n1 0\n", "ends after 1 of 2 rows"),
            ("n 2\ndense\n1 0\n0 1\ng\n0\n", "g has 1 of 2 entries"),
            ("n 2\ndense\n1 0\n0 1\ng\n0 0 0\n", "more than 2 entries"),
            ("n 2\ndense\n1 0\n0 1\ng\n0 0\ng\n0 0\n", "duplicate g"),
            ("n 2\ndense\n1 0\n0 1\ndense\n1 0\n0 1\ng\n0 0\n", "duplicate matrix"),
            ("n 1\ndense\n1\ncoo 1\n1 1 1.0\ng\n0\n", "line 4: duplicate matrix section"),
            ("meta only_key\n", "meta needs a key and a value"),
            ("wat 3\n", "unknown directive"),
            ("n 2\r\nwat\r\n", "line 2: unknown directive 'wat'"),
            ("n 2\rwat\n", "line 1: expected 'n <integer>'"),  # a lone \r ends no line
            ("n 2\ng\n0 0\n", "missing matrix"),
            ("n 2\ndense\n1 0\n0 1\n", "missing g"),
            ("# nothing\n", "missing n"),
        ],
    )
    def test_malformed_files(self, tmp_path, text, fragment):
        with pytest.raises(ProblemFileError, match=fragment):
            load_problem(write(tmp_path, text))

    def test_error_carries_line_number(self, tmp_path):
        text = "n 2\ncoo 2\n1 2 0.5\n2 1 0.7\ng\n0 0\n"
        with pytest.raises(ProblemFileError) as exc:
            load_problem(write(tmp_path, text))
        assert exc.value.line_no == 4
        assert str(exc.value).startswith("line 4:")

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("n 2\ndense\n1 0\n0 nan\ng\n0 0\n", 4),  # dense row
            ("n 2\ncoo 1\n1 1 inf\ng\n0 0\n", 3),  # coo entry
            ("n 2\ndense\n1 0\n0 1\ng\n0 -Infinity\n", 6),  # g line
        ],
    )
    def test_non_finite_number_names_its_line(self, tmp_path, text, line_no):
        with pytest.raises(ProblemFileError, match="NaN or infinite") as exc:
            load_problem(write(tmp_path, text))
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("text, fragment, line_no", [
        ("n 2\ncoo 3\n1 1 1.0\n# end\n\n", "coo section ends before 3 entries", 5),
        ("n 2\ndense\n1 0\n\n# end\n", "dense matrix ends after 1 of 2 rows", 5),
        ("n 2\ndense\n1 0\n0 1\ng\n0\n# end\n", "g has 1 of 2 entries", 7),
        ("", "missing n", 1),
        ("# nothing\n\n\n", "missing n", 3),
        ("n 2\r\ndense\r\n1 0\r\n", "dense matrix ends after 1 of 2 rows", 3),
        ("# nothing\r\n\r\n\r\n", "missing n", 3),
    ])
    def test_end_of_file_errors_name_the_last_line(self, tmp_path, text, fragment, line_no):
        with pytest.raises(ProblemFileError, match=fragment) as exc:
            load_problem(write(tmp_path, text))
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize("text, fragment, line_no", [
        ("n 1000000\ndense\n1 2\n", "matrix row has 2 entries, expected 1000000", 3),
        ("n 1000000\ndense\n", "dense matrix ends after 0 of 1000000 rows", 2),
    ])
    def test_dense_rows_are_read_before_q_is_built(self, tmp_path, text, fragment, line_no):
        # A dense Q of the declared n would take 7.3 TiB; the file holds no
        # such row, and the reader says so without allocating one.
        with pytest.raises(ProblemFileError, match=fragment) as exc:
            load_problem(write(tmp_path, text))
        assert exc.value.line_no == line_no

    def test_not_positive_definite(self, tmp_path):
        text = "n 2\ndense\n1 0\n0 -1\ng\n0 0\n"
        with pytest.raises(NotPositiveDefiniteError) as exc:
            load_problem(write(tmp_path, text))
        assert exc.value.pivot == 2

    def test_sparse_not_positive_definite(self, tmp_path):
        # Q = [[1/4, 1, 1], [1, 2, 0], [1, 0, 2]], the path 1-0-2 stored
        # middle first: its own bandwidth, 2, is wider than RCM's, 1, so it
        # is eliminated in its RCM order (2, 0, 1), whose pivots are 2, then
        # 1/4 - 1/2 < 0.
        text = "n 3\ncoo 5\n1 1 0.25\n1 2 1.0\n1 3 1.0\n2 2 2.0\n3 3 2.0\ng\n0 0 0\n"
        with pytest.raises(NotPositiveDefiniteError) as exc:
            load_problem(write(tmp_path, text))
        assert exc.value.pivot == 2

    def test_sparse_not_positive_definite_in_its_own_order(self, tmp_path):
        # Q = [[0, 1], [1, 2]]: both orders of two indexes have bandwidth 1,
        # so Q keeps its own, whose first pivot is 0.
        text = "n 2\ncoo 2\n1 2 1.0\n2 2 2.0\ng\n0 0\n"
        with pytest.raises(NotPositiveDefiniteError) as exc:
            load_problem(write(tmp_path, text))
        assert exc.value.pivot == 1

    def test_not_symmetric(self, tmp_path):
        text = "n 2\ndense\n1 2\n0 1\ng\n0 0\n"
        with pytest.raises(NotSymmetricError):
            load_problem(write(tmp_path, text))


class TestSaveRoundTrip:
    def test_dense_exact(self, tmp_path):
        problem = rand_spd_problem(7, np.random.default_rng(0))
        path = tmp_path / "dense.txt"
        save_problem(ProblemFile(problem, {"family": "random"}), path)
        loaded = load_problem(path)
        assert loaded.meta == {"family": "random"}
        assert not loaded.problem.is_sparse
        np.testing.assert_array_equal(loaded.problem.dense_q(), problem.dense_q())
        np.testing.assert_array_equal(loaded.problem.g, problem.g)

    def test_sparse_exact(self, tmp_path):
        problem = gen_easy(40, 1e-3, seed=5)
        path = tmp_path / "sparse.txt"
        save_problem(ProblemFile(problem, {}), path)
        loaded = load_problem(path)
        assert loaded.problem.is_sparse
        assert (loaded.problem.Q - problem.Q).nnz == 0
        np.testing.assert_array_equal(loaded.problem.g, problem.g)

    @pytest.mark.parametrize("problem", [
        gen_easy(300, 1.0, seed=0),
        gen_medium(120, 0.1, 1e8, seed=1),
    ], ids=["easy", "medium"])
    def test_sparse_arrays_byte_equal(self, tmp_path, problem):
        path = tmp_path / "sparse.txt"
        save_problem(ProblemFile(problem, {}), path)
        Q = load_problem(path).problem.Q
        for name in ("data", "indices", "indptr"):
            got, want = getattr(Q, name), getattr(problem.Q, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_metadata_reads_back(self, tmp_path):
        meta = {"family": "hard", "note": "run 3 of 10", "cond": "1e+10"}
        path = tmp_path / "meta.txt"
        save_problem(ProblemFile(QpProblem(np.eye(2), [0.0, 0.0]), meta), path)
        assert load_problem(path).meta == meta

    @pytest.mark.parametrize("meta", [
        {"note": "run #3"},  # would read back as "run"
        {"tag#": "x"},
        {"two words": "x"},  # would read back as {"two": "words x"}
        {"": "x"},
        {"k": "a  b"},  # would read back as "a b"
        {"k": " a"},
        {"k": "a "},
        {"k": "a\tb"},
        {"k": "a\nn 5"},  # would add a line "n 5" to the file
        {"k": "a\rb"},
        {"k": "a\fb"},  # whitespace to str.split, as are the next three
        {"k": "a\x1cb"},
        {"k": "a\x85b"},
        {"k": "a\u2028b"},
        {"k": ""},
        {"k": 3},  # would read back as "3"; not a str, so it used to raise AttributeError
        {3: "x"},
        {"k": None},
        {"k": b"x"},
    ], ids=repr)
    def test_metadata_that_would_not_read_back(self, tmp_path, meta):
        problem = QpProblem(np.eye(2), [0.0, 0.0])
        path = tmp_path / "meta.txt"
        with pytest.raises(ValueError, match=repr(next(iter(meta)))):
            save_problem(ProblemFile(problem, meta), path)
        assert not path.exists()
