import dataclasses
import itertools
import math
import os
import random
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gmodelc
from gmodelc import intrinsics, refexec
from gmodelc.cli import main
from gmodelc.codegen import generate_kernels
from gmodelc.intrinsics import (INTRINSICS, RANGE_PROLOGUE, IntrinsicShapeMismatch,
                                IntrinsicSpec, PortSpec)
from gmodelc.memmap import build_memory_maps
from gmodelc.metamodel import Direction
from gmodelc.partition import Schedule, WorkRange, build_schedule, partition_equally
from gmodelc.refexec import (BreakdownDetected, CsrMatrix, DimensionMismatch,
                             IndexOutOfRange, MalformedHeader, MissingBinding,
                             NonFiniteInput, NonFiniteValue, NonSquare, NonSymmetricMatrix,
                             RhsNormOutOfRange, SolverConfig,
                             build_sweep_plan, execute_schedule, instantiate_for_matrix,
                             load_matrix_market, run_cg, spmv_csr,
                             spmv_range)

import loopmodels
from conftest import golden_path
from matrices import (csr_from_dense, csr_to_dense, matrix_to_coordinate_text, poisson_1d,
                      poisson_2d, poisson_3d, random_spd)
from oracles import (partitioned_cg, per_launch_execute, reference_cg, sample_symmetry_loop,
                     spmv_loop)


# -- matrix market -------------------------------------------------------------

def test_load_identity():
    A = load_matrix_market("""\
%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
2 2 1.0
""")
    assert A.n == 2 and A.nnz == 2
    assert list(A.row_ptr) == [0, 1, 2]


def test_symmetric_expansion():
    A = load_matrix_market("""\
%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 2.0
2 1 5.0
""")
    dense = csr_to_dense(A)
    assert dense[0, 1] == 5.0 and dense[1, 0] == 5.0


def test_array_format_rejected():
    with pytest.raises(MalformedHeader):
        load_matrix_market("%%MatrixMarket matrix array real general\n2 2 4\n")


BANNER = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("text, message", [
    ("2 2 1\n1 1 1.0\n", "missing %%MatrixMarket banner"),
    ("%%MatrixMarket matrix coordinate real\n2 2 1\n", "banner needs 5 fields, got 4"),
    ("%%MatrixMarket matrix coordinate complex general\n2 2 1\n",
     "only real values are supported, got 'complex'"),
    ("%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n",
     "only general or symmetric, got 'hermitian'"),
    (BANNER + "% a comment\n", "missing size line"),
    (BANNER + "3 3\n", "line 2: size line needs 'rows cols nnz'"),
    (BANNER + "3 3 x\n", "line 2: size line needs integers"),
    (BANNER + "0 0 0\n", "matrix size must be positive"),
], ids=["no-banner", "4-field-banner", "complex", "hermitian", "no-size-line",
        "2-field-size", "non-integer-size", "empty-size"])
def test_header_rejected(text, message):
    with pytest.raises(MalformedHeader) as exc:
        load_matrix_market(text)
    assert str(exc.value) == message


def test_non_square_rejected():
    with pytest.raises(NonSquare):
        load_matrix_market("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")


def test_index_out_of_range_carries_line():
    with pytest.raises(IndexOutOfRange) as exc:
        load_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "5 1 1.0\n")
    assert exc.value.line == 4


def test_duplicates_summed():
    A = load_matrix_market(
        "%%MatrixMarket matrix coordinate real general\n"
        "1 1 2\n"
        "1 1 2.0\n"
        "1 1 3.0\n")
    assert A.nnz == 1 and A.values[0] == 5.0
    # a symmetric file sums like the general file with each mirror written
    # right after its entry; the order matters at these magnitudes
    lines = ["2 1 1.0", "1 2 1e-16", "1 2 1e-16"]
    mirrored = [f"{i} {j} {v}\n{j} {i} {v}" for i, j, v in (l.split() for l in lines)]
    A = load_matrix_market("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
                           + "\n".join(lines))
    B = load_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 6\n"
                           + "\n".join(mirrored))
    assert A.nnz == B.nnz == 2 and A.values.tobytes() == B.values.tobytes()


def test_rows_sorted_by_column():
    A = load_matrix_market(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 3 1.0\n"
        "1 1 2.0\n"
        "1 2 3.0\n")
    assert list(A.col_idx) == [0, 1, 2]
    assert list(A.values) == [2.0, 3.0, 1.0]


def test_loader_round_trip():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(1, 30))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        A = csr_from_dense(dense)
        B = load_matrix_market(matrix_to_coordinate_text(A))
        assert B.n == A.n
        assert np.array_equal(B.row_ptr, A.row_ptr)
        assert np.array_equal(B.col_idx, A.col_idx)
        assert np.array_equal(B.values, A.values)


@pytest.mark.parametrize("token", ["nan", "-inf", "inf", "1e400"])
def test_non_finite_value_rejected_with_line(token):
    with pytest.raises(NonFiniteValue, match="line 5:"):
        load_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "2 2 2\n"
            "1 1 1.0\n"
            f"2 2 {token}\n")


FLOAT_FORMATS = (repr, "{:.17g}".format, "{:.4e}".format, "{:.6f}".format)
BAD_LINES = (
    lambda i, j, v, n: f"{i} {j}",
    lambda i, j, v, n: f"{i} {j} {v} 1",
    lambda i, j, v, n: f"{i}.0 {j} {v}",
    lambda i, j, v, n: f"1_0 {j} {v}",
    lambda i, j, v, n: f"{i} {n + 1} {v}",
    lambda i, j, v, n: f"0 {j} {v}",
    lambda i, j, v, n: f"{i} {j} nan",
    lambda i, j, v, n: f"{i} {j} -inf",
    lambda i, j, v, n: f"{i} {j} 1e400",
)


@st.composite
def matrix_market_texts(draw):
    """(text, clean): small coordinate files in varied layouts; clean when the
    body has entries, no comment line and no bad line or count."""
    n = draw(st.integers(1, 5))
    sym = draw(st.sampled_from(["general", "symmetric"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    entries = draw(st.lists(st.tuples(
        st.integers(1, n), st.integers(1, n),
        # values of mixed magnitude make duplicate sums depend on their order
        st.sampled_from([1.0, -1.0, 0.1, 3.0, 1e-16, -0.0, 5e-324])
        | st.floats(allow_nan=False, allow_infinity=False)),
        max_size=12))
    lines = []
    clean = bool(entries)
    for i, j, v in entries:
        filler = draw(st.sampled_from(["", "", "", "  ", "\t", "% comment"]))
        if filler:
            lines.append(filler)
            clean = clean and not filler.startswith("%")
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        tail = draw(st.sampled_from(["", " ", "\t"]))
        value = draw(st.sampled_from(FLOAT_FORMATS))(v)
        clean = clean and math.isfinite(float(value))   # "{:.4e}" can round up to 1.8e+308
        lines.append(f"{i}{sep}{j}{sep}{value}{tail}")
    declared = len(entries)
    if lines and draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        i, j, v = draw(st.sampled_from(entries))
        lines[at] = draw(st.sampled_from(BAD_LINES))(i, j, v, n)
        clean = False
    if draw(st.integers(0, 5)) == 0:
        declared += draw(st.sampled_from([-1, 1]))
        clean = False
    head = [f"%%MatrixMarket matrix coordinate real {sym}"]
    if draw(st.booleans()):
        head.append("% header comment")
    head.append(f"{n} {n} {declared}")
    return newline.join(head + lines) + newline * draw(st.integers(0, 2)), clean


def _load_outcome(source):
    """A load's arrays or error; source is the text, a file object or the
    path of a file."""
    try:
        A = refexec.read_matrix_market(str(source)) if isinstance(source, os.PathLike) \
            else load_matrix_market(source)
    except (MalformedHeader, IndexOutOfRange) as exc:
        return type(exc), str(exc)
    return A.row_ptr.tobytes(), A.col_idx.tobytes(), A.values.tobytes()


@settings(max_examples=400, deadline=None)
@given(matrix_market_texts(), st.integers(2, 16))
def test_streamed_loader_matches_line_loop(case, small_block):
    """At the default block size and at blocks of a few bytes, cut inside
    lines, CRLF pairs (always, at one byte) and the final line, the
    streamed loader gives the line loop's arrays or error, and takes every
    clean body itself."""
    text, clean = case
    original = refexec._entries_streamed
    with mock.patch.object(refexec, "_entries_streamed", return_value=None):
        want = _load_outcome(text)
    for block_bytes in (refexec.MATRIX_BLOCK_BYTES, 1, small_block):
        parsed = []

        def spy(*args):
            entries = original(*args)
            parsed.append(entries is not None)
            return entries

        with mock.patch.object(refexec, "_entries_streamed", spy), \
                mock.patch.object(refexec, "MATRIX_BLOCK_BYTES", block_bytes):
            got = _load_outcome(text)
        assert got == want, f"{block_bytes}-byte blocks"
        if clean and parsed:
            assert parsed == [True], \
                f"a clean body fell back to the line loop at {block_bytes}-byte blocks"


LINE_ENDING_TEXT = (
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "% a comment\n"
    "\n"
    "3 3 4\n"
    "1 1 2.0\n"
    "2 1 -1.0\n"
    "\n"
    "2 2 2.0\n"
    "3 3 2.5\n")


@pytest.mark.parametrize("bad,error", [
    (None, None),
    ("2 2", (MalformedHeader, "line 8: expected 'i j value'")),
    ("2 2 nan", (NonFiniteValue, "line 8: value 'nan' is not finite")),
    ("4 2 1.0", (IndexOutOfRange, "line 8: entry (4,2) outside 3x3")),
])
def test_line_ends_of_a_matrix_file(tmp_path, bad, error):
    """LF, CRLF and CR-only copies of one file, the same texts as a str and
    the files opened in text mode load to the same arrays, and a malformed
    entry (on line 8) gives the error of the file read in text mode."""
    lines = LINE_ENDING_TEXT.split("\n")
    if bad is not None:
        lines[7] = bad
    outcomes = set()
    for i, newline in enumerate(("\n", "\r\n", "\r")):
        path = tmp_path / f"copy{i}.mtx"
        path.write_bytes(newline.join(lines).encode("ascii"))
        outcomes.add(_load_outcome(path))
        outcomes.add(_load_outcome(newline.join(lines)))
        with open(path, encoding="ascii") as f:
            outcomes.add(_load_outcome(f.read()))
        with open(path, encoding="ascii") as f:
            outcomes.add(_load_outcome(f))
    if error is None:
        (got,) = outcomes
        assert isinstance(got[0], bytes)
    else:
        assert outcomes == {error}


def test_non_ascii_matrix_file_raises_unicode_error(tmp_path):
    """A byte outside ASCII in a file, or such a character in a str, is an
    error, even where str.split() or int() would accept it."""
    path = tmp_path / "latin1.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n1 1 1\n"
                     b"1 1 1.0\xa0\n")
    with pytest.raises(UnicodeDecodeError):
        refexec.read_matrix_market(str(path))
    for text in (path.read_bytes().decode("latin-1"),
                 "%%MatrixMarket matrix coordinate real general\n1 1 1\n\u0661 1 1.0\n"):
        with pytest.raises(UnicodeError):
            load_matrix_market(text)


def test_matrix_file_load_peaks_below_twice_the_csr(tmp_path):
    """Loading holds each large array about once: the file's bytes are
    read a block at a time, never whole, and the build frees its
    temporaries.  The file (7.2 MB) spans several blocks."""
    A = poisson_3d(40)
    path = tmp_path / "poisson3d.mtx"
    path.write_text(matrix_to_coordinate_text(A))
    assert path.stat().st_size > 4 * refexec.MATRIX_BLOCK_BYTES
    tracemalloc.start()
    try:
        B = refexec.read_matrix_market(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(B.row_ptr, A.row_ptr) and np.array_equal(B.values, A.values)
    csr_bytes = B.row_ptr.nbytes + B.col_idx.nbytes + B.values.nbytes
    assert peak <= 2 * csr_bytes, f"peak {peak} B is {peak / csr_bytes:.2f}x the CSR"


def test_a_declared_count_the_body_cannot_hold_is_a_count_error(tmp_path, monkeypatch):
    """The streamed loader gives up, without allocating the declared 10^12
    entries, so the line parser reports the count."""
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1000000000000\n1 1 1.0\n2 2 1.0\n")
    sizes = []
    empty = np.empty

    def spy(shape, *args, **kwargs):
        sizes.append(shape)
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", spy)
    with pytest.raises(MalformedHeader) as exc:
        refexec.read_matrix_market(str(path))
    assert str(exc.value) == "declared 1000000000000 entries, found 2"
    assert 1000000000000 not in sizes


def _row_ordered_entries(A: CsrMatrix) -> np.ndarray:
    """A's entries in CSR order, as views of one record array."""
    entries = np.empty(A.nnz, dtype=refexec._ENTRY)
    entries["i"] = np.repeat(np.arange(A.n), np.diff(A.row_ptr))
    entries["j"] = A.col_idx
    entries["v"] = A.values
    return entries


def test_row_ordered_build_peaks_near_the_csr():
    """Entries already in CSR order are copied, not sorted: the build holds
    little more than the CSR's own arrays beside its inputs."""
    A = poisson_3d(24)
    entries = _row_ordered_entries(A)
    tracemalloc.start()
    try:
        B = refexec.csr_from_coo(A.n, entries["i"], entries["j"], entries["v"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (B.row_ptr.tobytes(), B.col_idx.tobytes(), B.values.tobytes()) \
        == (A.row_ptr.tobytes(), A.col_idx.tobytes(), A.values.tobytes())
    csr_bytes = B.row_ptr.nbytes + B.col_idx.nbytes + B.values.nbytes
    assert peak <= 1.2 * csr_bytes, f"peak {peak} B is {peak / csr_bytes:.2f}x the CSR"


def test_row_ordered_entries_never_reach_argsort(tmp_path, monkeypatch):
    A = poisson_2d(6)
    text = matrix_to_coordinate_text(A)
    path = tmp_path / "ordered.mtx"
    path.write_text(text)
    sorted_lengths = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        sorted_lengths.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    entries = _row_ordered_entries(A)
    loaded = [refexec.csr_from_coo(A.n, entries["i"], entries["j"], entries["v"]),
              refexec.read_matrix_market(str(path))]    # the streamed loader
    with mock.patch.object(refexec, "_entries_streamed", return_value=None):
        loaded.append(load_matrix_market(text))         # the line loader
    assert sorted_lengths == []
    for B in loaded:
        assert B.col_idx.tobytes() == A.col_idx.tobytes()
    # the spy sees the sorting path: the rows of one entry swapped
    swapped = load_matrix_market("%%MatrixMarket matrix coordinate real general\n"
                                 "2 2 2\n2 2 1.0\n1 1 1.0\n")
    assert sorted_lengths == [2] and list(swapped.row_ptr) == [0, 1, 2]


@st.composite
def csr_entry_sets(draw):
    """(n, entries, order, split, bad): entries at distinct positions in
    row-major order, a shuffle of their indices, the index of a finite entry
    to split in two, or None, and (index, value) of an entry to make
    non-finite, or None."""
    n = draw(st.integers(1, 6))
    positions = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                    max_size=20)))
    values = draw(st.lists(
        st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.1, 3.0, 1e-16, 5e-324, 1.7e308])
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=len(positions), max_size=len(positions)))
    entries = [(i, j, v) for (i, j), v in zip(positions, values)]
    order = draw(st.permutations(range(len(entries))))
    bad = None
    if entries and draw(st.integers(0, 4)) == 0:
        bad = (draw(st.integers(0, len(entries) - 1)), draw(st.sampled_from([math.inf, -math.inf, math.nan])))
    finite = [k for k in range(len(entries)) if bad is None or k != bad[0]]
    split = draw(st.sampled_from(finite)) if finite else None
    return n, entries, order, split, bad


def _csr_outcome(n, entries, index_dtype):
    """csr_from_coo of (row, col, value) triples: its arrays' bytes or its error."""
    if index_dtype is np.int32:     # int32 indices, as the streamed loader
        arrays = np.array(entries, dtype=refexec._ENTRY)
        rows, cols, vals = arrays["i"], arrays["j"], arrays["v"]
    else:                           # separate int64 arrays, as the line loader
        rows = np.array([e[0] for e in entries], dtype=np.int64)
        cols = np.array([e[1] for e in entries], dtype=np.int64)
        vals = np.array([e[2] for e in entries], dtype=np.float64)
    try:
        A = refexec.csr_from_coo(n, rows, cols, vals)
    except NonFiniteValue as exc:
        return str(exc)
    except ValueError as exc:
        return type(exc), str(exc)
    return A.row_ptr.tobytes(), A.col_idx.tobytes(), A.values.tobytes()


@settings(max_examples=300, deadline=None)
@given(csr_entry_sets())
@example((1, [], [], None, None))
@example((1, [(0, 0, -0.0)], [0], 0, None))
@example((3, [(0, 1, -0.0), (1, 0, 2.0), (1, 2, -1.0)], [2, 0, 1], 1, None))    # last row empty
@example((4, [(1, 1, 5.0), (1, 3, -0.0), (3, 0, 1.0)], [1, 2, 0], 1, None))     # rows 0 and 2 empty
@example((2, [(0, 0, 1.0), (1, 1, 2.0)], [1, 0], 0, (1, math.nan)))
def test_csr_build_is_the_same_in_any_entry_order(case):
    """Entries in row-major order, shuffled, and shuffled with one entry split
    into two halves that sum to it exactly, build byte-identical CSR arrays,
    or raise the same NonFiniteValue."""
    n, entries, order, split, bad = case
    if bad is not None:
        k, v = bad
        entries = entries[:k] + [(entries[k][0], entries[k][1], v)] + entries[k + 1:]
    shuffled = [entries[k] for k in order]
    halved = list(shuffled)
    if split is not None:
        i, j, v = entries[split]
        half = v / 2
        rest = v if v == 0 else v - half        # -0.0 halves to -0.0 and -0.0
        assert (np.float64(half) + np.float64(rest)).tobytes() == np.float64(v).tobytes()
        at = order.index(split)
        halved[at:at + 1] = [(i, j, half)]
        halved.append((i, j, rest))
    want = "entry ({},{}): summed value {!r} is not finite".format(
        entries[bad[0]][0] + 1, entries[bad[0]][1] + 1, float(bad[1])) if bad else (
        np.cumsum([0] + [sum(e[0] == i for e in entries) for i in range(n)],
                  dtype=np.int32).tobytes(),
        np.array([e[1] for e in entries], dtype=np.int32).tobytes(),
        np.array([e[2] for e in entries], dtype=np.float64).tobytes())
    for dtype in (np.int32, np.int64):
        assert _csr_outcome(n, entries, dtype) == want
        assert _csr_outcome(n, shuffled, dtype) == want
        assert _csr_outcome(n, halved, dtype) == want


@pytest.mark.parametrize("entries", [
    [(0, 0, 1.0), (0, 2, 5.0)],     # a column past the last
    [(0, 1, 1.0), (2, 0, 2.0)],     # a row past the last
    [(-1, 1, 1.0), (0, 0, 2.0)],    # a negative row
])
def test_entries_outside_the_matrix_build_alike_in_any_order(entries):
    """An entry outside the matrix raises ValueError, naming it 1-based,
    whatever the entries' order and index dtype."""
    ((i, j, _),) = [e for e in entries if not (0 <= e[0] < 2 and 0 <= e[1] < 2)]
    want = (ValueError, f"entry ({i + 1},{j + 1}) is outside the 2x2 matrix")
    for dtype in (np.int32, np.int64):
        assert _csr_outcome(2, entries, dtype) == want
        assert _csr_outcome(2, entries[::-1], dtype) == want


@pytest.mark.parametrize("n,row_ptr,col_idx,nnz,error", [
    (0, [0], [], 0, "row_ptr length must be n \\+ 1"),
    (2, [0, 1], [0], 1, "row_ptr length must be n \\+ 1"),
    (2, [1, 1, 2], [0, 1], 2, "must start at 0 and end at nnz"),
    (2, [0, 1, 3], [0, 1], 2, "must start at 0 and end at nnz"),
    (3, [0, 2, 1, 3], [0, 1, 2], 3, "non-decreasing"),
    (2, [0, 1, 2], [0, 1, 1], 2, "lengths differ"),
    (2, [0, 1, 2], [0, 2], 2, "column index out of range"),
    (2, [0, 1, 2], [-1, 1], 2, "column index out of range"),
    (3, [0, 3, 3, 3], [0, 2, 1], 3, "^row 0: column indices not strictly increasing"),
    (4, [0, 0, 2, 2, 4], [3, 1, 0, 2], 4, "^row 1: column indices not strictly increasing"),
    (4, [0, 1, 1, 2, 4], [2, 0, 3, 3], 4, "^row 3: column indices not strictly increasing"),
    (3, [0, 0, 1, 3], [0, 2, 1], 3, "^row 2: column indices not strictly increasing"),
    # a row may start left of where the previous row ends
    (3, [0, 2, 4, 5], [1, 2, 0, 1, 0], 5, None),
    # empty rows: the first, the last, and all of them
    (4, [0, 0, 2, 2, 2], [1, 3], 2, None),
    (3, [0, 0, 0, 0], [], 0, None),
])
def test_csr_validate(n, row_ptr, col_idx, nnz, error):
    A = CsrMatrix(n=n, row_ptr=np.array(row_ptr, dtype=np.int32),
                  col_idx=np.array(col_idx, dtype=np.int32), values=np.ones(nnz))
    if error is None:
        A.validate()
    else:
        with pytest.raises(ValueError, match=error):
            A.validate()


# -- spmv ----------------------------------------------------------------------

def test_spmv_identity():
    A = csr_from_dense(np.eye(3))
    assert np.array_equal(spmv_csr(A, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_spmv_small_dense():
    A = csr_from_dense(np.array([[2.0, 0.0], [1.0, 3.0]]))
    assert np.array_equal(spmv_csr(A, np.array([1.0, 2.0])), [2.0, 7.0])


def test_spmv_dimension_mismatch():
    A = csr_from_dense(np.eye(3))
    with pytest.raises(DimensionMismatch):
        spmv_csr(A, np.ones(4))


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 51))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.25)
        A = csr_from_dense(dense)
        x = rng.standard_normal(n)
        got = spmv_csr(A, x)
        want = dense @ x
        scale = max(1e-300, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, scale)


def _accumulation_cases():
    """Random matrices, then shapes that stress the level-by-level sweep."""
    rng = np.random.default_rng(12)
    for trial in range(25):
        n = int(rng.integers(1, 40))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
        yield csr_from_dense(dense), rng.standard_normal(n)
    rng = np.random.default_rng(13)
    empty_rows = rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.6)
    empty_rows[[0, 3, 6]] = 0.0     # the first, a middle and the last row
    yield csr_from_dense(empty_rows), rng.standard_normal(7)
    long_row = np.eye(30)
    long_row[12] = rng.standard_normal(30)
    yield csr_from_dense(long_row), rng.standard_normal(30)
    # three entries in every row, so every level covers every row
    circulant = sum(np.roll(np.eye(9), k, axis=1) * rng.uniform(1.0, 2.0, 9)
                    for k in (0, 1, 4))
    yield csr_from_dense(circulant), rng.standard_normal(9)
    # every product is a signed zero, some of them -0.0: summed left to right
    # from +0.0 each row gives +0.0, where a sum that starts from the row's
    # first product would keep a -0.0
    signed = np.array([[-1.0, 2.0, 0.0, 0.0],
                       [0.0, -3.0, 0.0, 0.0],
                       [4.0, 0.0, 0.0, -1.0],
                       [0.0, 0.0, 5.0, 0.0]])
    yield csr_from_dense(signed), np.array([0.0, -0.0, -0.0, 0.0])


def test_spmv_left_to_right_accumulation():
    rng = np.random.default_rng(14)
    for A, x in _accumulation_cases():
        want = spmv_loop(A.row_ptr, A.col_idx, A.values, x)
        got = spmv_csr(A, x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for _ in range(4):
            lo, hi = sorted(int(v) for v in rng.integers(0, A.n + 1, 2))
            # the range in one row block, then in blocks of at most 8 entries
            for block_entries, plan in itertools.product(
                    (refexec.SPMV_BLOCK_ENTRIES, 8), (None, build_sweep_plan(A.row_ptr, lo, hi))):
                with mock.patch.object(refexec, "SPMV_BLOCK_ENTRIES", block_entries):
                    part = spmv_range(A.row_ptr, A.col_idx, A.values, x, lo, hi,
                                      plan=plan, out=np.full(hi - lo, np.nan))
                assert np.array_equal(part, want[lo:hi])
                assert np.array_equal(np.signbit(part), np.signbit(want[lo:hi]))
    # rows 0..7 of a 4x4 grid have 3, 4, 4, 3, 4, 5, 5, 4 entries, so their
    # sorted order is a real permutation; rows 5..6 have 5 each, so theirs
    # is the identity
    A = poisson_2d(4)
    x = rng.standard_normal(A.n)
    want = spmv_loop(A.row_ptr, A.col_idx, A.values, x)
    for lo, hi, permuted in ((0, 8, True), (5, 7, False)):
        lens = np.diff(A.row_ptr[lo:hi + 1])
        assert np.array_equal(np.argsort(-lens, kind="stable"), np.arange(hi - lo)) != permuted
        for plan in (None, build_sweep_plan(A.row_ptr, lo, hi)):
            part = spmv_range(A.row_ptr, A.col_idx, A.values, x, lo, hi,
                              plan=plan, out=np.full(hi - lo, np.nan))
            assert part.tobytes() == want[lo:hi].tobytes()


def _expected_form(A: CsrMatrix, lo: int, hi: int) -> str:
    """The form the rows lo..hi-1 take as one spmv block: diagonal when their
    distinct offsets col - row, times their rows, are at most twice their
    entries."""
    offsets = {int(A.col_idx[k]) - i for i in range(lo, hi)
               for k in range(int(A.row_ptr[i]), int(A.row_ptr[i + 1]))}
    entries = int(A.row_ptr[hi] - A.row_ptr[lo])
    return "diagonal" if len(offsets) * (hi - lo) <= 2 * entries else "jagged"


def _diagonal_form_cases():
    """(name, matrix, x, form of the whole matrix as one block)."""
    rng = np.random.default_rng(16)
    # grid-edge holes inside the band of offsets -1 and +1: x[6] = +inf is
    # the missing column of row 5 and x[30] = nan that of row 29, so the
    # products in those missing slots are not finite; no row meets both
    A = poisson_2d(6)
    x = rng.standard_normal(A.n)
    x[6], x[30], x[18:24] = np.inf, np.nan, -0.0
    yield "holes", A, x, "diagonal"
    yield "holes-float32-x", A, x.astype(np.float32), "diagonal"
    # positive entries times -0.0: every product is -0.0 and every row +0.0
    positive = csr_from_dense(np.abs(csr_to_dense(poisson_2d(5))))
    yield "signed-zeros", positive, np.full(positive.n, -0.0), "diagonal"
    # empty rows: the first, one inside the band and the last four, which
    # make an all-empty range
    dense = csr_to_dense(poisson_1d(20))
    dense[[0, 9, 16, 17, 18, 19]] = 0.0
    yield "empty-rows", csr_from_dense(dense), rng.standard_normal(20), "diagonal"
    # 3 offsets (0, +2, -3) times 6 rows is exactly twice the 9 entries;
    # one more offset (+5, one entry) makes 24 > 20
    at_rule = np.diag(rng.uniform(1.0, 2.0, 6))
    at_rule[0, 2], at_rule[1, 3], at_rule[3, 0] = 1.5, 2.5, 0.5
    yield "at-rule", csr_from_dense(at_rule), rng.standard_normal(6), "diagonal"
    past_rule = at_rule.copy()
    past_rule[0, 5] = 0.25
    yield "past-rule", csr_from_dense(past_rule), rng.standard_normal(6), "jagged"
    # scattered: nearly every entry on an offset of its own
    yield "random", random_spd(12, 17, density=0.3), rng.standard_normal(12), "jagged"
    # constant diagonals 0.2 and -0.1 over a float32 x: each product is
    # rounded in float64, as the float64 values make it
    B = poisson_1d(12)
    tenth = CsrMatrix(B.n, B.row_ptr, B.col_idx, B.values * 0.1)
    yield "scalar-float32-x", tenth, rng.standard_normal(B.n).astype(np.float32), "diagonal"
    # a constant diagonal keeps one scalar; these diagonals keep value rows.
    # One entry of the +1 diagonal one ulp off -1.0, over the holes' x
    values = A.values.copy()
    values[np.flatnonzero(A.col_idx - _entry_rows(A) == 1)[7]] = np.nextafter(-1.0, -2.0)
    yield "one-ulp-off", CsrMatrix(A.n, A.row_ptr, A.col_idx, values), x, "diagonal"
    # the holes grid with a varying main diagonal: the value rows meet inf and nan
    values = A.values.copy()
    on_main = A.col_idx == _entry_rows(A)
    values[on_main] = 4.0 + np.arange(A.n) % 3
    yield "holes-varying", CsrMatrix(A.n, A.row_ptr, A.col_idx, values), x, "diagonal"
    # a +1 diagonal of 0.0 and -0.0 by turns: not one value, bit for bit
    B = poisson_1d(12)
    values = B.values.copy()
    upper = np.flatnonzero(B.col_idx - _entry_rows(B) == 1)
    values[upper] = np.where(np.arange(len(upper)) % 2, -0.0, 0.0)
    yield "mixed-zeros", CsrMatrix(B.n, B.row_ptr, B.col_idx, values), \
        rng.standard_normal(B.n), "diagonal"
    # a +1 diagonal of stored zeros that lacks row 4, where x[5] = inf: a
    # scalar 0.0 would make 0 * inf in that slot
    entries = [(i, i, 2.0) for i in range(10)] + [(i, i - 1, -1.0) for i in range(1, 10)] \
        + [(i, i + 1, 0.0) for i in range(9) if i != 4]
    x = rng.standard_normal(10)
    x[5] = np.inf
    yield "stored-zeros", _csr_of_entries(10, entries), x, "diagonal"
    # a +1 diagonal of 2.0 that lacks row 3, where x[4] = 1e308: a scalar
    # 2.0 would overflow in that slot, and no stored entry does
    entries = [(i, i, 1.0) for i in range(8)] + [(i, i + 1, 2.0) for i in range(7) if i != 3]
    x = rng.standard_normal(8)
    x[4] = 1e308
    yield "overflow-hole", _csr_of_entries(8, entries), x, "diagonal"
    # +1.0 and -1.0 diagonals add or subtract x with no product.  Row 3
    # lacks the +1 offset, its sum is 1e308 by then and x[4] is 1e308 (for
    # -1.0, -1e308): an add that skipped zeroing the missing slot before
    # restoring it would overflow there
    for unit in (1.0, -1.0):
        entries = [(i, i, 1.0) for i in range(8)] + [(i, i + 1, unit) for i in range(7) if i != 3]
        x = rng.standard_normal(8)
        x[3], x[4] = 1e308, unit * 1e308
        yield f"unit-{unit:+}-overflow-hole", _csr_of_entries(8, entries), x, "diagonal"
    # a -1.0 diagonal that lacks row 3, whose sum is +inf, where x[4] = +inf:
    # inf - inf there would be nan
    entries = [(i, i, 1.0) for i in range(8)] + [(i, i + 1, -1.0) for i in range(7) if i != 3]
    x = rng.standard_normal(8)
    x[3] = x[4] = np.inf
    yield "unit-inf-hole", _csr_of_entries(8, entries), x, "diagonal"
    # a +1.0 and a -1.0 diagonal, each with holes, over a float32 x and over
    # an x of 0.0 and -0.0 by turns
    entries = [(i, i, 3.0) for i in range(12)] \
        + [(i, i + 1, 1.0) for i in range(11) if i % 4 != 1] \
        + [(i, i - 1, -1.0) for i in range(1, 12) if i % 5 != 2]
    unit_holes = _csr_of_entries(12, entries)
    yield "unit-float32-x", unit_holes, rng.standard_normal(12).astype(np.float32), "diagonal"
    yield "unit-signed-zeros", unit_holes, np.where(np.arange(12) % 2, -0.0, 0.0), "diagonal"
    # products follow the unit diagonals' rule: a +1 diagonal of 0.5 (one
    # scalar) or of 2.0, 3.0, 4.0 by turns (a value row) lacks row 3, whose
    # sum is +inf by then, where x[4] is -inf or 1e308: the slot's product
    # of -inf, added into the kept sum rather than into 0.0, is inf - inf
    for kind, value in (("scalar", lambda i: 0.5), ("value-row", lambda i: 2.0 + i % 3)):
        entries = [(i, i, 1.0) for i in range(8)] \
            + [(i, i + 1, value(i)) for i in range(7) if i != 3]
        for label, hole_x in (("-inf", -np.inf), ("1e308", 1e308)):
            x = rng.standard_normal(8)
            x[3], x[4] = np.inf, hole_x
            yield f"{kind}-inf-sum-{label}-hole", _csr_of_entries(8, entries), x, "diagonal"


def _entry_rows(A: CsrMatrix) -> np.ndarray:
    """The row of each stored entry."""
    return np.repeat(np.arange(A.n), np.diff(A.row_ptr))


def _csr_of_entries(n: int, entries: list[tuple[int, int, float]]) -> CsrMatrix:
    """The CSR matrix of (row, col, value) entries, stored zeros kept."""
    rows, cols, vals = (np.array(column) for column in zip(*entries))
    return refexec.csr_from_coo(n, rows, cols, vals.astype(np.float64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spmv_diagonal_form_bitwise(monkeypatch):
    """Both block forms give spmv_loop's bytes, sign bits included, over the
    whole matrix and over sub-ranges, in one block and in blocks of at most
    8 entries, and each block takes the form the 2x rule gives, also when a
    diagonal block's build scans its entries 3 at a time, cutting rows.  No
    warning is raised: no missing slot multiplies 0 by an infinite x."""
    rng = np.random.default_rng(18)
    blocks = _record_blocks(monkeypatch)
    one_block = refexec.SPMV_BLOCK_ENTRIES
    forms = set()
    for name, A, x, form in _diagonal_form_cases():
        want = spmv_loop(A.row_ptr, A.col_idx, A.values, x)
        ranges = [(0, A.n), (0, 3), (A.n - 3, A.n)]
        ranges += [tuple(sorted(int(v) for v in rng.integers(0, A.n + 1, 2))) for _ in range(4)]
        if name == "empty-rows":
            ranges.append((16, 20))
        for block_entries, scan_entries in ((one_block, refexec.DIAGONAL_SCAN_ENTRIES),
                                            (8, refexec.DIAGONAL_SCAN_ENTRIES), (one_block, 3)):
            monkeypatch.setattr(refexec, "SPMV_BLOCK_ENTRIES", block_entries)
            monkeypatch.setattr(refexec, "DIAGONAL_SCAN_ENTRIES", scan_entries)
            for lo, hi in ranges:
                blocks.clear()
                part = spmv_range(A.row_ptr, A.col_idx, A.values, x, lo, hi,
                                  out=np.full(hi - lo, np.nan))
                assert part.tobytes() == want[lo:hi].tobytes(), (name, lo, hi, block_entries)
                assert np.array_equal(np.signbit(part), np.signbit(want[lo:hi]))
                assert [(b_lo, b_hi) for _, b_lo, b_hi in blocks] == \
                    refexec._row_blocks(A.row_ptr, lo, hi)
                for block_form, b_lo, b_hi in blocks:
                    assert block_form == _expected_form(A, b_lo, b_hi), (name, b_lo, b_hi)
                    forms.add(block_form)
                if (lo, hi, block_entries) == (0, A.n, one_block):
                    assert blocks == [(form, 0, A.n)], name
                if (name, lo, hi) == ("empty-rows", 16, 20):
                    assert blocks == [("diagonal", 16, 20)]
            blocks.clear()
            assert spmv_csr(A, x).tobytes() == want.tobytes(), name
    assert forms == {"diagonal", "jagged"}


_UNIT_DIAGONALS = (1.0, -1.0, np.nextafter(-1.0, -2.0), None)    # None: random values
_SPECIAL_X = (np.inf, -np.inf, np.nan, 0.0, -0.0, 1e308, -1e308)


def _loop_raises_a_flag(A: CsrMatrix, x: np.ndarray) -> bool:
    """Whether spmv_loop's products and sums, in its order, overflow or are
    invalid (inf - inf, 0 * inf) anywhere."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            for i in range(A.n):
                acc = np.float64(0.0)
                for k in range(int(A.row_ptr[i]), int(A.row_ptr[i + 1])):
                    acc = acc + A.values[k] * np.float64(x[A.col_idx[k]])
        except FloatingPointError:
            return True
    return False


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 30), st.lists(st.tuples(st.integers(-6, 6), st.sampled_from(_UNIT_DIAGONALS)),
                                    min_size=1, max_size=5, unique_by=lambda d: d[0]),
       st.floats(0.0, 0.6), st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_banded_products_with_unit_diagonals_match_the_loop(n, diagonals, hole_rate, seed,
                                                            small_blocks, data):
    """Banded matrices whose diagonals are +1.0, -1.0, one ulp past -1.0 or
    random, with random holes, over an x holding inf, nan, +-0.0 and
    +-1e308: csr_product gives spmv_loop's bytes over the whole matrix and a
    sub-range, in one block and in blocks of 8 entries whose diagonal-form
    builds scan 3 entries at a time, but for the sign
    and payload of a nan: where two nans meet, numpy's add keeps either one
    (+nan from x against the -nan of inf - inf, at the parent too).  It
    raises a floating-point warning only where the loop itself overflows or
    is invalid, never in a missing slot."""
    rng = np.random.default_rng(seed)
    entries = [(i, i + d, rng.uniform(-2.0, 2.0) if unit is None else unit)
               for d, unit in diagonals for i in range(n)
               if 0 <= i + d < n and rng.random() >= hole_rate]
    if not entries:
        entries = [(0, 0, 1.0)]
    A = _csr_of_entries(n, entries)
    x = rng.standard_normal(n)
    specials = rng.random(n) < 0.4
    x[specials] = rng.choice(_SPECIAL_X, int(specials.sum()))
    want = spmv_loop(A.row_ptr, A.col_idx, A.values, x)
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    flags = "ignore" if _loop_raises_a_flag(A, x) else "warn"
    block_entries = 8 if small_blocks else refexec.SPMV_BLOCK_ENTRIES
    scan_entries = 3 if small_blocks else refexec.DIAGONAL_SCAN_ENTRIES
    with warnings.catch_warnings(), np.errstate(all=flags), \
            mock.patch.object(refexec, "SPMV_BLOCK_ENTRIES", block_entries), \
            mock.patch.object(refexec, "DIAGONAL_SCAN_ENTRIES", scan_entries):
        warnings.simplefilter("error", RuntimeWarning)
        for start, stop in ((0, n), (lo, hi)):
            out = np.full(stop - start, np.nan)
            refexec.csr_product(A.row_ptr, A.col_idx, A.values, x, out, start, stop)()
            nan = np.isnan(want[start:stop])
            assert np.array_equal(np.isnan(out), nan), (start, stop)
            assert out[~nan].tobytes() == want[start:stop][~nan].tobytes(), (start, stop)


@pytest.mark.parametrize("matrix, form", [
    (lambda: poisson_2d(100), "diagonal"), (lambda: poisson_3d(30), "diagonal"),
    (lambda: random_spd(300, 19, density=0.05), "jagged")],
    ids=["poisson_2d", "poisson_3d", "random_spd"])
def test_spmv_blocks_of_stencils_are_diagonal_and_of_random_matrices_jagged(
        monkeypatch, matrix, form):
    A = matrix()
    x = np.random.default_rng(20).standard_normal(A.n)
    blocks = _record_blocks(monkeypatch)
    y = spmv_csr(A, x)
    assert [(lo, hi) for _, lo, hi in blocks] == refexec._row_blocks(A.row_ptr, 0, A.n)
    assert {block_form for block_form, _, _ in blocks} == {form}
    assert y.tobytes() == spmv_loop(A.row_ptr, A.col_idx, A.values, x).tobytes()


def test_spmv_product_of_a_stencil_keeps_scalars_not_value_rows():
    """A product over constant-coefficient diagonals keeps one scalar per
    diagonal: what the closure holds is a small part of the matrix values."""
    A = poisson_3d(30)
    x = np.random.default_rng(23).standard_normal(A.n)
    out = np.empty(A.n)
    tracemalloc.start()
    try:
        run = refexec.csr_product(A.row_ptr, A.col_idx, A.values, x, out, 0, A.n)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 0.25 * A.values.nbytes, \
        f"kept {kept} B is {kept / A.values.nbytes:.2f}x the values"
    run()
    assert out.tobytes() == spmv_loop(A.row_ptr, A.col_idx, A.values, x).tobytes()


@pytest.mark.parametrize("varied", [False, True], ids=["constant", "varied"])
def test_diagonal_block_build_holds_a_few_bytes_per_entry(varied):
    """A diagonal-form block's build analyses its entries
    DIAGONAL_SCAN_ENTRIES at a time: beside what its closure keeps (value
    rows included, for diagonals whose values vary), it holds at most 4
    bytes per stored entry of a full block, where one pass over the whole
    block's entries held about 20."""
    A = poisson_3d(40)
    values = A.values * (1.0 + np.arange(A.nnz) % 3) if varied else A.values
    lo, hi = refexec._row_blocks(A.row_ptr, 0, A.n)[0]
    entries = int(A.row_ptr[hi] - A.row_ptr[lo])
    assert entries > refexec.SPMV_BLOCK_ENTRIES - 8
    x = np.random.default_rng(24).standard_normal(A.n)
    out = np.empty(hi - lo)
    tracemalloc.start()
    try:
        run = refexec.csr_product(A.row_ptr, A.col_idx, values, x, out, lo, hi)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    scratch = (peak - kept) / entries
    assert scratch <= 4, f"the build held {scratch:.2f} B per entry beyond what it keeps"
    run()
    jagged = np.empty(hi - lo)
    refexec._jagged_block(A.row_ptr, A.col_idx, values, x, jagged, lo, hi)()
    assert out.tobytes() == jagged.tobytes()


@pytest.mark.parametrize("matrix, form", [
    (lambda: poisson_1d(10), "diagonal"), (lambda: random_spd(10, 21), "jagged")],
    ids=["diagonal", "jagged"])
def test_spmv_column_outside_x_raises_in_either_form(monkeypatch, matrix, form):
    """A product is built against x: a column past its end is an IndexError
    at build time, not a row silently clipped or read from clipped memory."""
    A = matrix()
    blocks = _record_blocks(monkeypatch)
    spmv_range(A.row_ptr, A.col_idx, A.values, np.ones(A.n), 0, A.n)
    assert blocks == [(form, 0, A.n)]
    with pytest.raises(IndexError, match="column index outside a vector of length 9"):
        spmv_range(A.row_ptr, A.col_idx, A.values, np.ones(A.n - 1), 0, A.n)


# -- run_cg --------------------------------------------------------------------

def test_cg_identity_system():
    A = csr_from_dense(np.eye(3))
    b = np.array([3.0, -1.0, 4.0])
    res = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=10))
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.outputs["x"], b, rtol=0, atol=1e-14)


def test_cg_diagonal_finite_termination():
    A = csr_from_dense(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    b = np.ones(5)
    res = run_cg(A, b, SolverConfig(tol=1e-12, max_iter=20))
    assert res.converged
    assert res.iterations <= 6  # 5 distinct eigenvalues, +1 float slack
    assert np.allclose(res.outputs["x"], np.linalg.solve(csr_to_dense(A), b), rtol=1e-12)


def test_cg_poisson_matches_dense_and_oracle_iterations():
    A = poisson_2d(20)  # n = 400
    b = np.ones(A.n)
    res = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=A.n))
    assert res.converged
    x_direct = np.linalg.solve(csr_to_dense(A), b)
    rel = np.max(np.abs(res.outputs["x"] - x_direct)) / np.max(np.abs(x_direct))
    assert rel <= 1e-8
    _, oracle_iters, oracle_conv = reference_cg(A.row_ptr, A.col_idx, A.values, b,
                                                1e-10, A.n)
    assert oracle_conv
    assert res.iterations == oracle_iters


# 65536 is the old default block size; like the current default it holds the
# whole matrix in one block, while 8 cuts it into several.
@pytest.mark.parametrize("block_entries", [65536, refexec.SPMV_BLOCK_ENTRIES, 8])
def test_cg_matches_reference_cg_bitwise(monkeypatch, block_entries):
    """run_cg gives the textbook solver's x byte for byte, with its iteration
    count and convergence, on a matrix with empty rows and one long row,
    whether its product runs as one row block or as several."""
    n, empty = 40, [0, 20, 39]
    dense = np.diag(np.full(n, 4.0)) - np.eye(n, k=1) - np.eye(n, k=-1)
    dense[12, :] = dense[:, 12] = 0.05
    dense[12, 12] = 4.0 + 0.05 * n
    dense[empty, :] = dense[:, empty] = 0.0
    A = csr_from_dense(dense)
    b = np.random.default_rng(15).standard_normal(n)
    b[empty] = 0.0      # the solution is zero on the empty rows
    monkeypatch.setattr(refexec, "SPMV_BLOCK_ENTRIES", block_entries)
    assert (len(refexec._row_blocks(A.row_ptr, 0, n)) > 1) == (block_entries == 8)
    res = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=n))
    want_x, want_iters, want_conv = reference_cg(A.row_ptr, A.col_idx, A.values, b, 1e-10, n)
    assert res.outputs["x"].tobytes() == want_x.tobytes()
    assert res.iterations == want_iters
    assert res.converged == want_conv
    assert res.converged


def test_cg_breakdown_on_indefinite():
    A = csr_from_dense(np.diag([1.0, -1.0]))
    with pytest.raises(BreakdownDetected):
        run_cg(A, np.array([0.0, 1.0]), SolverConfig(tol=1e-10, max_iter=5))


def test_cg_zero_rhs_is_result():
    A = poisson_1d(10)
    res = run_cg(A, np.zeros(10), SolverConfig(tol=1e-10, max_iter=5))
    assert res.converged and res.iterations == 0
    assert not res.residual_history
    assert np.array_equal(res.outputs["x"], np.zeros(10))


@pytest.mark.parametrize("where", ["b", "values"])
def test_cg_rejects_non_finite_input_before_iterating(monkeypatch, where):
    A, b = poisson_1d(8), np.ones(8)
    if where == "b":
        b[3] = np.nan
    else:
        A.values[5] = np.inf
    products = []
    monkeypatch.setattr(refexec, "csr_product", lambda *args: products.append(args))
    message = r"rhs b: element 3 \(nan\)" if where == "b" else r"matrix values: element 5 \(inf\)"
    with pytest.raises(NonFiniteInput, match=message):
        run_cg(A, b, SolverConfig(tol=1e-10, max_iter=50))
    assert products == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value, message", [
    (1e-170, "underflows to 0.0"), (1e200, "overflows to inf")])
def test_cg_rejects_a_nonzero_rhs_whose_squared_norm_is_out_of_range(monkeypatch, value,
                                                                       message):
    """b.b of sixteen 1e-170 underflows to 0.0, which the zero-rhs path took
    for b = 0; that of sixteen 1e200 overflows.  Either is rejected before
    the product is built, with no warning."""
    A = poisson_2d(4)
    products = []
    monkeypatch.setattr(refexec, "csr_product", lambda *args: products.append(args))
    with pytest.raises(RhsNormOutOfRange) as exc:
        run_cg(A, np.full(A.n, value), SolverConfig(tol=1e-10, max_iter=50))
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == f"rhs b: nonzero, but its squared norm {message}"
    assert products == []


def test_cg_rejects_nonsymmetric():
    A = csr_from_dense(np.array([[2.0, 1.0], [0.5, 2.0]]))
    with pytest.raises(NonSymmetricMatrix):
        run_cg(A, np.ones(2), SolverConfig(tol=1e-10, max_iter=5))


def test_symmetry_sample_names_the_first_differing_pair():
    """Every (nnz // 64)-th entry is sampled, and the entries between are
    not; the message gives the two values as plain floats."""
    A = poisson_2d(30)
    refexec._sample_symmetry(A)
    step = A.nnz // 64
    rows = np.repeat(np.arange(A.n), np.diff(A.row_ptr))
    sampled = next(k for k in range(step, A.nnz, step) if rows[k] != A.col_idx[k])
    i, j = int(rows[sampled]), int(A.col_idx[sampled])
    for k, detected in ((sampled, True), (sampled + 1, False)):
        values = A.values.copy()
        values[k] = -1.5
        B = CsrMatrix(A.n, A.row_ptr, A.col_idx, values)
        if detected:
            with pytest.raises(NonSymmetricMatrix) as exc:
                refexec._sample_symmetry(B)
            assert str(exc.value) == f"a[{i},{j}]=-1.5 but a[{j},{i}]=-1.0"
        else:
            refexec._sample_symmetry(B)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0),
       st.sampled_from([64, 7, 1]), st.sampled_from(["symmetric", "perturbed", "general"]))
def test_symmetry_sample_matches_the_entry_by_entry_loop(n, seed, density, samples, kind):
    """The sample searches all mirror rows at once and names the same first
    pair as the loop over the samples: on symmetric matrices, on ones with
    one entry zeroed, moved by 1e-12 of itself or by 1.0, and on general ones."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    if kind != "general":
        dense = np.triu(dense) + np.triu(dense, 1).T
    if kind == "perturbed" and n > 1:
        i, j = rng.integers(n, size=2)
        dense[i, j] = rng.choice([0.0, dense[i, j] * (1 + 1e-12), dense[i, j] + 1.0])
    A = csr_from_dense(dense)
    want = sample_symmetry_loop(A, samples)
    if want is None:
        refexec._sample_symmetry(A, samples)
    else:
        with pytest.raises(NonSymmetricMatrix) as exc:
            refexec._sample_symmetry(A, samples)
        assert str(exc.value) == want


def test_cg_residual_contract():
    eps = np.finfo(np.float64).eps
    for A, seed in ((poisson_1d(50), 0), (poisson_2d(8), 1), (random_spd(30, 5), 2)):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(A.n)
        res = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=10 * A.n))
        assert res.converged
        true_res = float(np.linalg.norm(csr_to_dense(A) @ res.outputs["x"] - b))
        bound = 1e-10 * float(np.linalg.norm(b)) * (1 + 10 * A.n * eps)
        assert true_res <= bound
        assert res.iterations == len(res.residual_history)
        assert res.residual_history[-1] <= 1e-10


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=1.5, max_iter=10)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-10, max_iter=0)


# -- schedule execution --------------------------------------------------------

def _cg_setup(k: int):
    model = gmodelc.parse_model(gmodelc.bundled_model_text())
    A = poisson_2d(k)
    sized = instantiate_for_matrix(model, A.n, A.nnz)
    assert gmodelc.validate_conformance(sized) == []
    b = np.ones(A.n)
    bindings = {"rowptr": A.row_ptr, "colidx": A.col_idx, "values": A.values, "b": b}
    return sized, A, b, bindings


def test_schedule_matches_oracle_cg_bitwise_single_device():
    sized, A, b, bindings = _cg_setup(20)
    schedule = build_schedule(sized, 1)
    res = execute_schedule(sized, schedule, bindings)
    history = []
    x, iters, _ = partitioned_cg(A.row_ptr, A.col_idx, A.values, b, 1e-10, A.n, [(0, A.n)],
                                 history)
    assert res.iterations == iters
    assert np.array_equal(res.outputs["x"], x)
    assert res.converged
    assert res.final_relres == history[-1]


@pytest.mark.parametrize("devices", [1, 2, 3, 4, 16])
def test_schedule_matches_partitioned_cg_bitwise(devices):
    sized, A, b, bindings = _cg_setup(20)
    res = execute_schedule(sized, build_schedule(sized, devices), bindings)
    ranges = [(r.offset, r.count) for r in partition_equally(A.n, devices)]
    x, iters, relres = partitioned_cg(A.row_ptr, A.col_idx, A.values, b, 1e-10, A.n,
                                      ranges)
    assert res.converged
    assert res.iterations == iters
    assert res.final_relres == relres
    assert res.outputs["x"].tobytes() == x.tobytes()


def test_schedule_residual_history():
    sized, A, b, bindings = _cg_setup(20)
    res = execute_schedule(sized, build_schedule(sized, 1), bindings)
    history = []
    partitioned_cg(A.row_ptr, A.col_idx, A.values, b, 1e-10, A.n, [(0, A.n)], history)
    assert res.residual_history == history
    res = execute_schedule(sized, build_schedule(sized, 4), bindings)
    assert len(res.residual_history) == res.iterations
    assert res.residual_history[-1] == res.final_relres


def test_device_count_invariance_desk_scale():
    sized, A, b, bindings = _cg_setup(20)
    results = [execute_schedule(sized, build_schedule(sized, d), bindings)
               for d in (1, 2, 4)]
    iters = {r.iterations for r in results}
    assert len(iters) == 1
    for i in range(3):
        for j in range(i + 1, 3):
            xi, xj = results[i].outputs["x"], results[j].outputs["x"]
            rel = np.max(np.abs(xi - xj)) / np.max(np.abs(xi))
            assert rel <= 1e-10


@pytest.mark.filterwarnings("error")
def test_schedule_zero_rhs_is_a_breakdown_before_any_division():
    """execute_schedule has no zero-rhs rule of its own (solve has it): with
    b = 0 the curvature p.Ap is 0.0, and the div host op refuses it before
    it divides, with no warning."""
    sized, A, _, bindings = _cg_setup(5)
    bindings["b"] = np.zeros(A.n)
    with pytest.raises(BreakdownDetected) as exc:
        execute_schedule(sized, build_schedule(sized, 1), bindings)
    assert str(exc.value) == "task 'loop.alpha': den = 0.0, but it must be finite and > 0"


def _solve_on(devices: int, A: CsrMatrix, b: np.ndarray):
    """solve over the bundled CG re-sized to A, on `devices` devices, with
    tol 1e-10 and at most 10 n iterations, as the tests below give run_cg."""
    sized = instantiate_for_matrix(gmodelc.parse_model(gmodelc.bundled_model_text()),
                                   A.n, A.nnz)
    return refexec.solve(sized, build_schedule(sized, devices), A, b,
                         tol=1e-10, max_iter=10 * A.n)


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(DimensionMismatch, match=r"^rhs length 3 != matrix size 4$"):
        _solve_on(1, poisson_1d(4), np.ones(3))


def _random_symmetric(n: int, rng) -> np.ndarray:
    S = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    return np.triu(S) + np.triu(S, 1).T


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_cg_on_diagonally_dominant_spd_matches_the_oracle(n, seed):
    """run_cg gives partitioned_cg's x bytes and iteration count over one
    range; solve on 4 devices converges in as many iterations, with the
    oracle's x over the 4 device ranges."""
    rng = np.random.default_rng(seed)
    dense = _random_symmetric(n, rng)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.uniform(0.5, 5.0, n))
    A, b = csr_from_dense(dense), rng.standard_normal(n)
    res = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=10 * n))
    x, iters, _ = partitioned_cg(A.row_ptr, A.col_idx, A.values, b, 1e-10, 10 * n,
                                 [(0, n)])
    assert res.converged
    assert res.outputs["x"].tobytes() == x.tobytes()
    assert res.iterations == iters
    on4 = _solve_on(4, A, b)
    ranges = [(r.offset, r.count) for r in partition_equally(n, 4)]
    x4, iters4, _ = partitioned_cg(A.row_ptr, A.col_idx, A.values, b, 1e-10, 10 * n, ranges)
    assert on4.converged
    assert on4.iterations == iters4 == iters
    assert on4.outputs["x"].tobytes() == x4.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.0, 4.0))
def test_cg_breaks_down_at_the_first_curvature_when_b_sees_negative_curvature(n, seed,
                                                                               margin):
    """A symmetric A shifted so that b'Ab = -(0.5 + margin) b'b: the first
    p.Ap, b'Ab, is negative, so on 1 and on 4 devices the div of alpha
    raises BreakdownDetected in iteration 1, naming that p.Ap."""
    rng = np.random.default_rng(seed)
    S, b = _random_symmetric(n, rng), rng.standard_normal(n)
    A = csr_from_dense(S - (b @ S @ b / (b @ b) + 0.5 + margin) * np.eye(n))
    Ab = spmv_loop(A.row_ptr, A.col_idx, A.values, b)
    for devices in (1, 4):
        pap = 0.0
        for r in partition_equally(n, devices):
            pap += float(np.dot(b[r.offset:r.offset + r.count], Ab[r.offset:r.offset + r.count]))
        assert pap <= -0.5 * float(b @ b) * (1 - 1e-9)
        with pytest.raises(BreakdownDetected) as exc:
            if devices == 1:
                run_cg(A, b, SolverConfig(tol=1e-10, max_iter=10 * n))
            else:
                _solve_on(devices, A, b)
        assert str(exc.value) == \
            f"task 'loop.alpha': den = {pap!r}, but it must be finite and > 0"


SINGLE_TASK = """\
platform p {{
  component Host {{
    processor cpu : hwProcessor
    memory ram : hwMemory role=hostRam
  }}
  component Cu : hwProcessor {{
    processor pe : hwProcessor shaped [8]
  }}
  component Dev {{
    processor cu : Cu shaped [4]
    memory gmem : hwMemory role=deviceGlobal
  }}
  component p {{
    part host : Host
    part dev : Dev
  }}
}}
application m {{
  component T {{
{ports}
    repeat [{n}]
    deploy {op}
  }}
  component m {{
{root_ports}
    part t : T
{conns}
  }}
}}
{allocs}
"""


def _single_task_model(op, ports, root_ports, conns, allocs, n=64, edit=None):
    text = SINGLE_TASK.format(
        op=op, n=n,
        ports="\n".join(f"    port {p}" for p in ports),
        root_ports="\n".join(f"    port {p}" for p in root_ports),
        conns="\n".join(f"    connect {c}" for c in conns),
        allocs="\n".join(allocs))
    if edit is not None:
        text = edit(text)
    model = gmodelc.parse_model(text)
    assert gmodelc.validate_conformance(model) == [], text
    return model


@pytest.mark.parametrize("a, c, iterations, converged", [
    (-1.0, -1.0, 5, False), (-1.0, -0.25, 4, False), (-0.25, -1.0, 3, False),
    (-0.25, -0.25, 2, True)])
def test_each_loop_runs_to_its_own_bound(a, c, iterations, converged):
    """Loop first (repeat [3]) then loop second (repeat [2]), r = -a in each:
    every loop runs until r < 0.5 or its own count, the iterations are every
    body run and the run converged only when every loop did."""
    model = gmodelc.parse_model(loopmodels.TWO_LOOPS)
    result = execute_schedule(model, build_schedule(model, 1),
                              {"a": np.array([a]), "c": np.array([c])})
    assert (result.iterations, result.converged) == (iterations, converged)
    assert result.final_relres == -c


REL_RESIDUAL = (["num in float64 [1]", "den in float64 [1]", "z out float64 [1]"],
                ["n in float64 [1]", "d in float64 [1]", "o out float64 [1]"],
                ["n -> t.num", "d -> t.den", "t.z -> o"],
                [f"allocate data {port} onto host.ram" for port in "ndo"]
                + ["allocate task t onto host.cpu"])


@pytest.mark.parametrize("num, den, message", [
    (-16.0, 4.0, "num = -16.0, but it must be finite and >= 0"),
    (4.0, 0.0, "den = 0.0, but it must be finite and > 0"),
    (4.0, -0.0, "den = -0.0, but it must be finite and > 0"),
    (4.0, -1.0, "den = -1.0, but it must be finite and > 0")])
def test_rel_residual_that_cannot_be_computed_is_a_breakdown(num, den, message):
    """sqrt(num) / sqrt(den) needs num >= 0 and den > 0: otherwise the host
    op raises BreakdownDetected naming its task and operand, not the bare
    ValueError or ZeroDivisionError of the root or the division."""
    model = _single_task_model("rel_residual", *REL_RESIDUAL, n=1)
    with pytest.raises(BreakdownDetected, match=f"^task 't': {re.escape(message)}$"):
        execute_schedule(model, build_schedule(model, 1),
                         {"n": np.array([num]), "d": np.array([den])})
    result = execute_schedule(model, build_schedule(model, 1),
                              {"n": np.array([0.0]), "d": np.array([4.0])})
    assert result.outputs["o"].tolist() == [0.0]


def test_copy_schedule_is_bitwise_identity():
    model = _single_task_model(
        "copy",
        ["src in float64 [64]", "dst out float64 [64]"],
        ["i in float64 [64]", "o out float64 [64]"],
        ["i -> t.src", "t.dst -> o"],
        ["allocate data i onto dev.gmem", "allocate data t.dst onto dev.gmem",
         "allocate task t onto dev.cu"])
    rng = np.random.default_rng(0)
    data = rng.standard_normal(64)
    res = execute_schedule(model, build_schedule(model, 3), {"i": data})
    assert np.array_equal(res.outputs["o"], data)
    assert res.iterations == 0 and res.converged


@pytest.mark.parametrize("op,ports,root_ports,conns,allocs,bind_names", [
    ("copy", ["src in float64 [64]", "dst out float64 [64]"],
     ["i in float64 [64]", "o out float64 [64]"],
     ["i -> t.src", "t.dst -> o"],
     ["allocate data i onto dev.gmem", "allocate data t.dst onto dev.gmem",
      "allocate task t onto dev.cu"], ["i"]),
    ("sub", ["x in float64 [64]", "y in float64 [64]", "z out float64 [64]"],
     ["i1 in float64 [64]", "i2 in float64 [64]", "o out float64 [64]"],
     ["i1 -> t.x", "i2 -> t.y", "t.z -> o"],
     ["allocate data i1 onto dev.gmem", "allocate data i2 onto dev.gmem",
      "allocate data t.z onto dev.gmem", "allocate task t onto dev.cu"], ["i1", "i2"]),
    ("scale", ["y inout float64 [64]", "a in float64 [1]"],
     ["i in float64 [64]", "s in float64 [1]", "o out float64 [64]"],
     ["i -> t.y", "s -> t.a", "t.y -> o"],
     ["allocate data i onto dev.gmem", "allocate data s onto host.ram",
      "allocate task t onto dev.cu"], ["i", "s"]),
    ("axpy", ["y inout float64 [64]", "x in float64 [64]", "a in float64 [1]"],
     ["i in float64 [64]", "v in float64 [64]", "s in float64 [1]",
      "o out float64 [64]"],
     ["i -> t.y", "v -> t.x", "s -> t.a", "t.y -> o"],
     ["allocate data i onto dev.gmem", "allocate data v onto dev.gmem",
      "allocate data s onto host.ram", "allocate task t onto dev.cu"],
     ["i", "v", "s"]),
])
def test_partition_transparency_elementwise(op, ports, root_ports, conns, allocs,
                                            bind_names):
    model = _single_task_model(op, ports, root_ports, conns, allocs)
    rng = np.random.default_rng(42)
    bindings = {}
    for name in bind_names:
        bindings[name] = rng.standard_normal(1 if name == "s" else 64)
    outs = []
    for d in (1, 3, 5):
        res = execute_schedule(model, build_schedule(model, d), dict(bindings))
        outs.append(res.outputs["o"])
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_partition_transparency_spmv_bitwise():
    A = poisson_2d(8)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(A.n)
    # with a float32 vector the products and sums are still float64
    for xtype in ("float64", "float32"):
        model = _single_task_model(
            "spmv_csr",
            [f"rowptr in int32 [{A.n + 1}]", f"colidx in int32 [{A.nnz}]",
             f"values in float64 [{A.nnz}]", f"x in {xtype} [{A.n}]",
             f"y out float64 [{A.n}]"],
            [f"rp in int32 [{A.n + 1}]", f"ci in int32 [{A.nnz}]",
             f"va in float64 [{A.nnz}]", f"vx in {xtype} [{A.n}]",
             f"o out float64 [{A.n}]"],
            ["rp -> t.rowptr", "ci -> t.colidx", "va -> t.values", "vx -> t.x",
             "t.y -> o"],
            ["allocate data rp onto dev.gmem", "allocate data ci onto dev.gmem",
             "allocate data va onto dev.gmem", "allocate data vx onto dev.gmem",
             "allocate data t.y onto dev.gmem", "allocate task t onto dev.cu"],
            n=A.n)
        vx = x.astype(xtype)
        bindings = {"rp": A.row_ptr, "ci": A.col_idx, "va": A.values, "vx": vx}
        outs = [execute_schedule(model, build_schedule(model, d), dict(bindings))
                .outputs["o"] for d in (1, 3)]
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], spmv_csr(A, vx))
        assert outs[0].tobytes() == spmv_loop(A.row_ptr, A.col_idx, A.values, vx).tobytes()


def test_spmv_of_written_csr_ports_bitwise():
    """A copy task writes the values that spmv reads, so the spmv cannot
    keep its product and builds it at each launch."""
    A = poisson_2d(8)
    copy_task = ("  component C {{\n    port src in float64 [{nnz}]\n"
                 "    port dst out float64 [{nnz}]\n    repeat [{nnz}]\n"
                 "    deploy copy\n  }}\n  component m {{").format(nnz=A.nnz)
    model = _single_task_model(
        "spmv_csr",
        [f"rowptr in int32 [{A.n + 1}]", f"colidx in int32 [{A.nnz}]",
         f"values in float64 [{A.nnz}]", f"x in float64 [{A.n}]",
         f"y out float64 [{A.n}]"],
        [f"rp in int32 [{A.n + 1}]", f"ci in int32 [{A.nnz}]",
         f"va in float64 [{A.nnz}]", f"vx in float64 [{A.n}]",
         f"o out float64 [{A.n}]"],
        ["rp -> t.rowptr", "ci -> t.colidx", "va -> c.src", "c.dst -> t.values",
         "vx -> t.x", "t.y -> o"],
        ["allocate data rp onto dev.gmem", "allocate data ci onto dev.gmem",
         "allocate data va onto dev.gmem", "allocate data vx onto dev.gmem",
         "allocate data c.dst onto dev.gmem", "allocate data t.y onto dev.gmem",
         "allocate task c onto dev.cu", "allocate task t onto dev.cu"],
        n=A.n, edit=lambda text: text.replace("  component m {", copy_task, 1)
        .replace("    part t : T", "    part c : C\n    part t : T", 1))
    rng = np.random.default_rng(6)
    x = rng.standard_normal(A.n)
    bindings = {"rp": A.row_ptr, "ci": A.col_idx, "va": A.values, "vx": x}
    want = spmv_csr(A, x)
    for d in (1, 3):
        got = execute_schedule(model, build_schedule(model, d), dict(bindings))
        assert got.outputs["o"].tobytes() == want.tobytes()


# The straight-line model of every intrinsic, with its values routed through
# a copy task so that the spmv reads CSR ports that a task writes.
_WRITTEN_CSR = (
    ("  component intrinsics {",
     "  component CopyNnz {\n    port src in float64 [64]\n    port dst out float64 [64]\n"
     "    repeat [64]\n    deploy copy\n  }\n  component intrinsics {"),
    ("    part spmv : Spmv", "    part load : CopyNnz\n    part spmv : Spmv"),
    ("    connect values -> spmv.values",
     "    connect values -> load.src\n    connect load.dst -> spmv.values"),
    ("allocate task spmv onto device.c",
     "allocate data load.dst onto device.gmem\nallocate task load onto device.c\n"
     "allocate task spmv onto device.c"),
)


def _intrinsics_model(written_csr: bool):
    text = golden_path("intrinsics.gmodel").read_text()
    if written_csr:
        for old, new in _WRITTEN_CSR:
            assert text.count(old) == 1
            text = text.replace(old, new)
    model = gmodelc.parse_model(text)
    assert gmodelc.validate_conformance(model) == []
    return model


@pytest.mark.parametrize("written_csr", [False, True])
@pytest.mark.parametrize("devices", [1, 2, 3, 16])
def test_executor_matches_per_launch_oracle(monkeypatch, devices, written_csr):
    """Each non-reduction step runs as one closure, yet every output equals,
    byte for byte, a run of each launch range alone: axpy with and without
    a, scale, copy, float32 sub, dots, host ops and spmv, with the spmv rows
    in one block and in blocks of at most 8 entries."""
    model = _intrinsics_model(written_csr)
    A = poisson_2d(4)
    assert (A.n, A.nnz) == (16, 64)
    rng = np.random.default_rng(devices)
    bindings = {"rowptr": A.row_ptr, "colidx": A.col_idx, "values": A.values,
                "b": rng.standard_normal(16),
                "f": rng.standard_normal(16).astype(np.float32),
                "g": rng.standard_normal(16).astype(np.float32)}
    schedule = build_schedule(model, devices)
    want = per_launch_execute(model, schedule, bindings)
    assert sorted(want) == ["h", "relres", "x"] and want["h"].dtype == np.float32
    for block_entries in (refexec.SPMV_BLOCK_ENTRIES, 8):
        monkeypatch.setattr(refexec, "SPMV_BLOCK_ENTRIES", block_entries)
        got = execute_schedule(model, schedule, dict(bindings)).outputs
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].dtype == want[name].dtype
            assert got[name].tobytes() == want[name].tobytes(), name


def _record_blocks(monkeypatch):
    """Records each spmv row block's closure as it is built, as (form, lo, hi)
    with form "diagonal" or "jagged"; _diagonal_block builds none, and
    records nothing, for a block that it leaves to _jagged_block."""
    blocks = []
    for form in ("diagonal", "jagged"):
        def recording_block(*args, _form=form, _block=getattr(refexec, f"_{form}_block")):
            run = _block(*args)
            if run is not None:
                blocks.append((_form, *args[5:7]))
            return run
        monkeypatch.setattr(refexec, f"_{form}_block", recording_block)
    return blocks


def _record_closures(monkeypatch):
    """Counts each launch closure built, as (op, lo, hi) or, for a
    reduction, (op, ranges), and each spmv row block's closure, as
    (form, lo, hi)."""
    built = []
    for name, spec in INTRINSICS.items():
        if spec.launch is None:
            continue

        def launch(arrays, *where, _name=name, _launch=spec.launch):
            built.append((_name, *where))
            return _launch(arrays, *where)
        monkeypatch.setitem(INTRINSICS, name, dataclasses.replace(spec, launch=launch))
    return built, _record_blocks(monkeypatch)


def test_one_closure_per_elementwise_step_whatever_the_device_count(monkeypatch):
    sized, A, b, bindings = _cg_setup(20)
    built, blocks = _record_closures(monkeypatch)
    for devices in (1, 4, 16):
        built.clear()
        blocks.clear()
        schedule = build_schedule(sized, devices)
        execute_schedule(sized, schedule, bindings, max_iter=2)
        want = []
        for step in schedule.device_steps():
            ranges = [(l.range.offset, l.range.offset + l.range.count)
                      for l in step.launches]
            assert len(ranges) == devices
            if INTRINSICS[step.op].reduce:
                want.append((step.op, ranges))
            else:
                want.append((step.op, 0, step.total_work))
        assert built == want
        assert blocks == [("diagonal", 0, A.n)]     # 1920 entries: one block


def test_spmv_blocks_depend_on_the_matrix_alone(monkeypatch):
    """Four entries per row and a block size that is a multiple of four: no
    row straddles a block boundary, so every block but the last holds exactly
    SPMV_BLOCK_ENTRIES entries, whatever the device count."""
    per_block = refexec.SPMV_BLOCK_ENTRIES
    assert per_block % 4 == 0
    n = per_block // 2 + 1000      # two full blocks and a short one
    rows = np.repeat(np.arange(n), 4)
    cols = (rows + np.tile(np.arange(4), n) * 7) % n
    A = refexec.csr_from_coo(n, rows, cols, np.random.default_rng(3).standard_normal(4 * n))
    assert (np.diff(A.row_ptr) == 4).all()
    model = _single_task_model(
        "spmv_csr",
        [f"rowptr in int32 [{n + 1}]", f"colidx in int32 [{A.nnz}]",
         f"values in float64 [{A.nnz}]", f"x in float64 [{n}]", f"y out float64 [{n}]"],
        [f"rp in int32 [{n + 1}]", f"ci in int32 [{A.nnz}]",
         f"va in float64 [{A.nnz}]", f"vx in float64 [{n}]", f"o out float64 [{n}]"],
        ["rp -> t.rowptr", "ci -> t.colidx", "va -> t.values", "vx -> t.x", "t.y -> o"],
        ["allocate data rp onto dev.gmem", "allocate data ci onto dev.gmem",
         "allocate data va onto dev.gmem", "allocate data vx onto dev.gmem",
         "allocate data t.y onto dev.gmem", "allocate task t onto dev.cu"],
        n=n)
    x = np.random.default_rng(4).standard_normal(n)
    bindings = {"rp": A.row_ptr, "ci": A.col_idx, "va": A.values, "vx": x}
    built, blocks = _record_closures(monkeypatch)
    rows_per_block = per_block // 4
    # offsets 0, 7, 14 and 21, and the last 21 rows' wrapped ones: banded
    want = [("diagonal", 0, rows_per_block), ("diagonal", rows_per_block, 2 * rows_per_block),
            ("diagonal", 2 * rows_per_block, n)]
    for devices in (1, 3, 16):
        built.clear()
        blocks.clear()
        out = execute_schedule(model, build_schedule(model, devices), bindings).outputs["o"]
        assert built == [("spmv_csr", 0, n)]
        assert blocks == want
        assert all(A.row_ptr[hi] - A.row_ptr[lo] <= per_block for _, lo, hi in blocks)
        assert out.tobytes() == spmv_csr(A, x).tobytes()


def test_launch_ranges_that_do_not_tile_one_range_are_rejected():
    """An elementwise step runs as one closure over the range its launches
    tile, so the compiler rejects ranges with a gap rather than fill it."""
    model = _single_task_model(
        "copy",
        ["src in float64 [64]", "dst out float64 [64]"],
        ["i in float64 [64]", "o out float64 [64]"],
        ["i -> t.src", "t.dst -> o"],
        ["allocate data i onto dev.gmem", "allocate data t.dst onto dev.gmem",
         "allocate task t onto dev.cu"])
    (step,) = build_schedule(model, 2).steps
    first, second = step.launches
    gap = dataclasses.replace(second, range=WorkRange(33, 31))
    schedule = Schedule(steps=(dataclasses.replace(step, launches=(first, gap)),),
                        device_count=2)
    with pytest.raises(ValueError, match="task 't': launch ranges .* do not tile one range"):
        execute_schedule(model, schedule, {"i": np.ones(64)})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=40), st.integers(1, 10),
       st.data())
def test_row_blocks_are_maximal_and_tile_the_range(lengths, limit, data):
    row_ptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    lo = data.draw(st.integers(0, len(lengths) - 1))
    hi = data.draw(st.integers(lo + 1, len(lengths)))
    with mock.patch.object(refexec, "SPMV_BLOCK_ENTRIES", limit):
        blocks = refexec._row_blocks(row_ptr, lo, hi)
    assert [b[0] for b in blocks] == [lo] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == hi
    for start, stop in blocks:
        entries = int(row_ptr[stop] - row_ptr[start])
        assert entries <= limit or stop == start + 1     # a longer row stands alone
        if stop < hi:       # the next row would not fit
            assert int(row_ptr[stop + 1] - row_ptr[start]) > limit


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_axpy_in_chunks_gives_the_bytes_of_one_pass(monkeypatch, dtype):
    """With 5-element chunks, the scaled and the bare axpy over ranges that
    start off zero and end mid-chunk write y + a * x and y + x, unchunked,
    and leave y outside the range as it was."""
    rng = np.random.default_rng(24)
    n = 23
    x, y0 = (rng.standard_normal(n).astype(dtype) for _ in range(2))
    a = np.array([rng.standard_normal()], dtype=dtype)
    monkeypatch.setattr(intrinsics, "AXPY_CHUNK", 5)
    for lo, hi in ((3, 21), (1, 4), (6, 23), (2, 9), (4, 15)):
        for scaled in (True, False):
            y = y0.copy()
            INTRINSICS["axpy"].launch({"y": y, "x": x, **({"a": a} if scaled else {})}, lo, hi)()
            want = y0.copy()
            want[lo:hi] = y0[lo:hi] + (float(a[0]) * x[lo:hi] if scaled else x[lo:hi])
            assert want.dtype == dtype
            assert y.tobytes() == want.tobytes(), (lo, hi, scaled)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(np.float64, np.float64), (np.float32, np.float32),
                        (np.float32, np.float64), (np.float64, np.float32)]),
       st.integers(0, 2**32 - 1), st.integers(0, 3), st.data())
def test_dot_partial_gives_per_range_dots_summed_in_order(dtypes, seed, pad, data):
    """The dot step's closure gives, bit for bit, the sum from 0.0 in
    ascending order of one np.dot per launch range: over ranges from
    partition_equally, runs of two lengths and arbitrary cuts, of 1-300
    elements in 1-16 ranges, of float64, float32 and mixed operands whose
    magnitudes spread over 1e-20..1e20."""
    how = data.draw(st.sampled_from(["equal", "two lengths", "cuts"]))
    if how == "equal":
        n, count = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 16))
        lengths = [r.count for r in partition_equally(n, count)]
    elif how == "two lengths":
        pair = data.draw(st.lists(st.integers(1, 18), min_size=2, max_size=2))
        lengths = data.draw(st.lists(st.sampled_from(pair), min_size=1, max_size=16))
    else:
        n = data.draw(st.integers(1, 300))
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=15)))
        lengths = np.diff([0, *cuts, n]).tolist()
    ends = np.cumsum(lengths).tolist()
    ranges = [(pad + end - length, pad + end) for length, end in zip(lengths, ends)]
    rng = np.random.default_rng(seed)
    size = ends[-1] + 2 * pad
    u, v = ((rng.standard_normal(size) * 10.0 ** rng.uniform(-20, 20, size)).astype(dtype)
            for dtype in dtypes)
    s = np.full(1, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):     # float32 may overflow, in both
        INTRINSICS["dot_partial"].launch({"a": u, "b": v, "s": s}, ranges)()
        want = 0.0
        for lo, hi in ranges:
            want += float(np.dot(u[lo:hi], v[lo:hi]))
    assert s.tobytes() == np.float64(want).tobytes(), (how, lengths)


@pytest.mark.parametrize("devices", [1, 4])
def test_schedule_with_axpy_in_chunks_is_bitwise_the_same(monkeypatch, devices):
    sized, A, b, bindings = _cg_setup(12)
    schedule = build_schedule(sized, devices)
    want = execute_schedule(sized, schedule, bindings)
    monkeypatch.setattr(intrinsics, "AXPY_CHUNK", 5)
    got = execute_schedule(sized, schedule, bindings)
    assert got.outputs["x"].tobytes() == want.outputs["x"].tobytes()
    assert (got.iterations, got.converged) == (want.iterations, True)


def test_partition_transparency_dot_tolerance():
    model = _single_task_model(
        "dot_partial",
        ["a in float64 [4096]", "b in float64 [4096]", "s out float64 [1]"],
        ["i1 in float64 [4096]", "i2 in float64 [4096]", "o out float64 [1]"],
        ["i1 -> t.a", "i2 -> t.b", "t.s -> o"],
        ["allocate data i1 onto dev.gmem", "allocate data i2 onto dev.gmem",
         "allocate data t.s onto host.ram", "allocate task t onto dev.cu"],
        n=4096)
    rng = np.random.default_rng(9)
    bindings = {"i1": rng.standard_normal(4096), "i2": rng.standard_normal(4096)}
    values = [float(execute_schedule(model, build_schedule(model, d), dict(bindings))
                    .outputs["o"][0]) for d in (1, 2, 4, 7)]
    exact = values[0]
    for v in values[1:]:
        assert abs(v - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("writeable", [True, False])
def test_execute_schedule_leaves_bound_arrays_unchanged(writeable):
    """Never-written inputs are bound as read-only views and the others
    copied: the caller's arrays keep their values and their writeable flag."""
    sized, A, b, cg_bindings = _cg_setup(6)
    axpy = _single_task_model(   # i is written in place through t.y
        "axpy", ["y inout float64 [64]", "x in float64 [64]", "a in float64 [1]"],
        ["i in float64 [64]", "v in float64 [64]", "s in float64 [1]", "o out float64 [64]"],
        ["i -> t.y", "v -> t.x", "s -> t.a", "t.y -> o"],
        ["allocate data i onto dev.gmem", "allocate data v onto dev.gmem",
         "allocate data s onto host.ram", "allocate task t onto dev.cu"])
    rng = np.random.default_rng(5)
    axpy_bindings = {"i": rng.standard_normal(64), "v": rng.standard_normal(64),
                     "s": np.array([0.5])}
    for model, bindings in ((sized, cg_bindings), (axpy, axpy_bindings)):
        bindings = {name: array.copy() for name, array in bindings.items()}
        for array in bindings.values():
            array.flags.writeable = writeable
        before = {name: array.copy() for name, array in bindings.items()}
        for devices in (1, 2):
            result = execute_schedule(model, build_schedule(model, devices), bindings)
            assert result.converged
            for name, array in bindings.items():
                assert array.flags.writeable is writeable, name
                assert np.array_equal(array, before[name]), name
    assert np.array_equal(result.outputs["o"], before["i"] + 0.5 * before["v"])


def test_missing_binding():
    sized, A, b, bindings = _cg_setup(4)
    del bindings["b"]
    with pytest.raises(MissingBinding) as missing:
        execute_schedule(sized, build_schedule(sized, 1), bindings)
    assert str(missing.value) == "no binding for input port 'b'"    # a ValueError: unquoted


def test_binding_shape_mismatch_reported():
    sized, A, b, bindings = _cg_setup(4)
    bindings["b"] = np.ones(3)
    with pytest.raises(MissingBinding):
        execute_schedule(sized, build_schedule(sized, 1), bindings)


def test_schedule_rejects_non_finite_binding_before_the_first_step(monkeypatch):
    sized, A, b, bindings = _cg_setup(4)
    bindings["b"] = b.copy()
    bindings["b"][7] = -np.inf
    steps = []
    monkeypatch.setattr(refexec, "_leaf", lambda *args: steps.append(args))
    with pytest.raises(NonFiniteInput, match=r"binding 'b': element 7 \(-inf\) is not finite"):
        execute_schedule(sized, build_schedule(sized, 1), bindings)
    assert steps == []


def test_intrinsic_signature_mismatch():
    model = _single_task_model(
        "scale", ["y inout float64 [64]", "b in float64 [1]"],
        ["i in float64 [64]", "s in float64 [1]", "o out float64 [64]"],
        ["i -> t.y", "s -> t.b", "t.y -> o"],
        ["allocate data i onto dev.gmem", "allocate data s onto host.ram",
         "allocate task t onto dev.cu"])
    with pytest.raises(IntrinsicShapeMismatch):
        execute_schedule(model, build_schedule(model, 1),
                         {"i": np.ones(64), "s": np.ones(1)})


def test_execute_schedule_options_are_keyword_only():
    sized, A, b, bindings = _cg_setup(4)
    with pytest.raises(TypeError):
        execute_schedule(sized, build_schedule(sized, 1), bindings, 1)


def test_intrinsic_defined_by_its_table_entry_alone(monkeypatch, tmp_path, capsys):
    """z = x * y, added to INTRINSICS only, passes `check`, gets a kernel and
    runs bit-exactly against numpy."""
    def launch(a, lo, hi):
        x, y, z = a["x"][lo:hi], a["y"][lo:hi], a["z"][lo:hi]

        def run():
            np.multiply(x, y, out=z)
        return run

    monkeypatch.setitem(INTRINSICS, "mul", IntrinsicSpec("mul", "device", (
        PortSpec("x", Direction.IN), PortSpec("y", Direction.IN),
        PortSpec("z", Direction.OUT),
    ), kernel=RANGE_PROLOGUE + ("z[i] = x[i] * y[i];",), launch=launch))
    model = _single_task_model(
        "mul", ["x in float64 [64]", "y in float64 [64]", "z out float64 [64]"],
        ["i1 in float64 [64]", "i2 in float64 [64]", "o out float64 [64]"],
        ["i1 -> t.x", "i2 -> t.y", "t.z -> o"],
        ["allocate data i1 onto dev.gmem", "allocate data i2 onto dev.gmem",
         "allocate data t.z onto dev.gmem", "allocate task t onto dev.cu"])
    path = tmp_path / "mul.gmodel"
    path.write_text(gmodelc.serialize_model(model))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""
    kernels = generate_kernels(model, build_memory_maps(model), build_schedule(model, 3))
    assert "    z[i] = x[i] * y[i];\n}\n" in kernels.contents
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal(64), rng.standard_normal(64)
    for d in (1, 3):
        res = execute_schedule(model, build_schedule(model, d), {"i1": x, "i2": y})
        assert res.outputs["o"].tobytes() == (x * y).tobytes()


def test_max_iter_override_stops_early():
    sized, A, b, bindings = _cg_setup(10)
    res = execute_schedule(sized, build_schedule(sized, 1), bindings, max_iter=3)
    assert res.iterations == 3
    assert not res.converged


def test_instantiate_for_matrix_rescales_all_dims(cg_model):
    sized = instantiate_for_matrix(cg_model, 400, 1920)
    spmv = sized.application_components["SpmvCsr"]
    assert spmv.port("x").shape == gmodelc.Shape((400,))
    assert spmv.port("rowptr").shape == gmodelc.Shape((401,))
    assert spmv.port("values").shape == gmodelc.Shape((1920,))
    loop = sized.application_components["CgLoop"]
    assert loop.repetition_space == gmodelc.Shape((400,))
    root = sized.application_components["cg"]
    assert root.port("b").shape == gmodelc.Shape((400,))
    assert gmodelc.validate_conformance(sized) == []
