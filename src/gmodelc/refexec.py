"""Reference CPU executor: CSR linear algebra and schedule execution.

Runs a schedule over concrete numpy arrays; solve runs one over A x = b
and holds every rule on such a system, and run_cg is solve over the
bundled cg.gmodel's schedule.  execute_schedule first compiles the
schedule into a flat list of closures, one per device step, host op and
loop, each with its task's arrays, checks, [lo:hi] views and spmv
products bound once; the run then only calls closures.  A task's
closures come from its intrinsic's entry of intrinsics.INTRINSICS: the
launch function of a device intrinsic, the scalar function of a host one.

A launch of an intrinsic without a reduction is separable over its
range: a launch over [lo:hi) writes the same bytes as launches over any
split of it.  So such a step runs as one closure over the whole range its
device launches tile.  The device partition is kept where it changes the
numbers: a reduction step sums one dot partial per launch range, from
0.0 in ascending device order, so a single-device run reproduces a
textbook CG bit for bit and multi-device runs agree up to reduction
rounding.

One builder, csr_product, makes every matrix product: spmv_csr's,
spmv_range's and the executor's spmv launches.  Its closure
cuts the rows into consecutive blocks of at most SPMV_BLOCK_ENTRIES
stored entries, set by the matrix alone, and holds each block in one of
two forms, chosen from the block's own entries:

- diagonal (DIA) form, when the block's distinct offsets d = col - row,
  times its rows, are at most twice its stored entries, as for a stencil:
  one factor per offset multiplied by a slice of x and added into a slice
  of the output, with no gather and no permutation.  The factor is one
  scalar when every stored entry of the offset has the same bits, as in
  a constant-coefficient stencil, and a value array laid out by row
  otherwise.  A row that lacks an offset gets -0.0 in that slot, the one
  value whose sum v + (-0.0) is v bit for bit for every v, signed zeros,
  infinities and nan included, so a 0 * inf there cannot leak.
- jagged-diagonal form otherwise (rows sorted by descending length,
  entries stored level by level): one gather-multiply, one slice add per
  level and one scatter back to row order.

Either way every row is summed left to right, ascending offset being
ascending column, from +0.0 over the same products, so results match a
plain CSR loop bit for bit.
"""

from __future__ import annotations

import functools
import io
import math
import warnings
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .dsl import parse_model
from .intrinsics import IntrinsicSpec, deployed_intrinsic
from .metamodel import (CompileContext, Component, ComponentKind, DataType, Direction, Model,
                        Shape, iter_instances)
from .partition import HostOp, LoopStep, Schedule, build_schedule


class DimensionMismatch(ValueError):
    pass


class BreakdownDetected(ArithmeticError):
    """A host op's operand declared positive is not finite and > 0, as CG's
    curvature p.Ap is on a matrix that is not positive definite."""


class NonSymmetricMatrix(ValueError):
    pass


class MissingBinding(KeyError):
    pass


class NonFiniteInput(ValueError):
    """An executor's input array holds nan or an infinite value."""


class RhsNormOutOfRange(ValueError):
    """A nonzero right-hand side whose squared norm underflows to 0.0 or
    overflows: CG's relative residual ||r|| / ||b|| has no finite base."""


class MalformedHeader(ValueError):
    pass


class NonFiniteValue(MalformedHeader):
    """A matrix value reads as nan or infinite (overflow such as 1e400 included)."""


class NonSquare(ValueError):
    pass


class IndexOutOfRange(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_NUMPY_TYPES = {DataType.FLOAT32: np.float32, DataType.FLOAT64: np.float64,
                DataType.INT32: np.int32, DataType.INT64: np.int64}


def _check_finite(what: str, values: np.ndarray):
    """Raise NonFiniteInput, naming what and its first bad element, on nan or inf."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise NonFiniteInput(f"{what}: element {bad[0]} ({float(values[bad[0]])!r}) is not finite")


def _check_rhs_norm(what: str, b: np.ndarray):
    """Raise RhsNormOutOfRange, naming what, when a finite right-hand side
    b is nonzero but b.b is 0.0 or not finite."""
    with np.errstate(over="ignore"):    # reported below, as the error
        rr = float(np.dot(b, b))
    if not 0.0 < rr < math.inf and b.any():
        raise RhsNormOutOfRange(
            f"{what}: nonzero, but its squared norm "
            + ("underflows to 0.0" if rr == 0.0 else f"overflows to {rr!r}"))


@dataclass(eq=False)
class CsrMatrix:
    """Square sparse matrix in compressed sparse row form (float64 values)."""

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.row_ptr[-1])

    def validate(self):
        if self.n < 1 or len(self.row_ptr) != self.n + 1:
            raise ValueError("row_ptr length must be n + 1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.values):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(self.row_ptr[1:] < self.row_ptr[:-1]):
            raise ValueError("row_ptr must be non-decreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values lengths differ")
        if len(self.col_idx) and (self.col_idx.min() < 0 or self.col_idx.max() >= self.n):
            raise ValueError("column index out of range")
        # each entry's column must exceed the previous one, except where a row
        # begins: rising[k] for entry k, one byte each, and a slot for nnz
        nnz = len(self.col_idx)
        rising = np.empty(nnz + 1, dtype=bool)
        np.greater(self.col_idx[1:], self.col_idx[:-1], out=rising[1:nnz])
        rising[self.row_ptr] = True
        if not rising.all():
            k = int(np.argmin(rising))
            i = int(np.searchsorted(self.row_ptr, k, side="right")) - 1
            raise ValueError(f"row {i}: column indices not strictly increasing")


def build_sweep_plan(row_ptr: np.ndarray, lo: int, hi: int):
    """Precomputed gather indices for a row range: one level per entry position.

    Level j holds (relative rows with > j entries, flat index of their
    j-th entry); the rows are slice(None) when the level covers every row
    of the range.  Accumulating level by level reproduces a strict
    left-to-right per-row summation.
    """
    starts = row_ptr[lo:hi].astype(np.int64)
    lens = row_ptr[lo + 1:hi + 1].astype(np.int64) - starts
    plan = []
    max_len = int(lens.max()) if len(lens) else 0
    for j in range(max_len):
        rows = np.flatnonzero(lens > j)
        plan.append((slice(None) if len(rows) == hi - lo else rows, starts[rows] + j))
    return plan


# The most stored entries in one spmv row block: 2^16 keeps a jagged
# block's float64 gather buffer at 512 KiB, inside a core's L2.  A block
# whose distinct offsets times rows are at most twice its entries runs in
# diagonal form instead (_diagonal_block): no gather, no scatter, and the
# same bits, since its -0.0 hole slots add nothing.
SPMV_BLOCK_ENTRIES = 1 << 16


def _row_blocks(row_ptr: np.ndarray, lo: int, hi: int) -> list[tuple[int, int]]:
    """Rows lo..hi-1 cut into consecutive blocks of at most SPMV_BLOCK_ENTRIES
    stored entries; a longer row is a block of its own."""
    blocks = []
    while lo < hi:
        limit = int(row_ptr[lo]) + SPMV_BLOCK_ENTRIES
        stop = lo + int(np.searchsorted(row_ptr[lo + 1:hi + 1], limit, side="right"))
        stop = max(stop, lo + 1)
        blocks.append((lo, stop))
        lo = stop
    return blocks


def _jagged_block(row_ptr, col_idx, values, x, out, lo, hi, scratch):
    """A closure that sets out[i] to row lo + i of the CSR matrix times x.

    The rows are stably sorted by descending length, so level j (the j-th
    entry of every row that has one) covers a prefix of the sorted rows;
    the levels' values and columns are copied out one after another.  The
    gather goes to the front of scratch, an array of x's dtype with room
    for the rows' entries, which closures that never run at the same time
    may share.  x, out and scratch must be written only in place while the
    closure is in use.
    """
    starts = row_ptr[lo:hi].astype(np.int64)
    lens = row_ptr[lo + 1:hi + 1].astype(np.int64) - starts
    perm = np.argsort(-lens, kind="stable")
    starts, lens = starts[perm], lens[perm]
    # level j covers the sorted rows with more than j entries
    counts = np.searchsorted(-lens, -np.arange(lens[0] if len(lens) else 0), side="left")
    flat = np.concatenate([np.zeros(0, dtype=np.int64)]    # empty with no levels
                          + [starts[:count] + j for j, count in enumerate(counts)])
    vals, cols = values[flat], col_idx[flat].astype(np.intp)
    if len(cols) and not (0 <= cols.min() and cols.max() < len(x)):
        raise IndexError(f"column index outside a vector of length {len(x)}")
    gathered = scratch[:len(vals)]
    products = gathered if gathered.dtype == np.result_type(vals, x) \
        else np.empty(len(vals), dtype=np.result_type(vals, x))
    acc = np.empty(hi - lo, dtype=out.dtype)
    adds = [(acc[:count], products[stop - count:stop])
            for count, stop in zip(counts.tolist(), np.cumsum(counts).tolist())]

    def run():
        x.take(cols, out=gathered, mode="clip")     # no column is clipped: checked above
        np.multiply(vals, gathered, out=products)
        acc.fill(0.0)
        for level_acc, level_products in adds:
            level_acc += level_products
        out[perm] = acc
    return run


def _diagonal_block(row_ptr, col_idx, values, x, out, lo, hi, scratch):
    """A closure that sets out[i] to row lo + i of the CSR matrix times x,
    offset by offset, or None when the block is not banded enough: when its
    distinct offsets d = col - row, times its rows, exceed twice its stored
    entries (a diagonal slot costs about half a jagged entry).

    Offset d holds its factor, the x[lo+d+r0:lo+d+r1] slice (rows whose
    column falls outside x clipped off) and the rows that lack it.  The
    factor is one float c when every stored entry of the offset has c's
    bits (0.0 and -0.0 differ) and, if a row lacks the offset, 0 < |c| <= 1,
    so that c * x in that slot raises no warning whatever x holds: c * x[i]
    is v[i] * x[i] bit for bit when v[i] has c's bits.  Otherwise it is
    the offset's value array laid out by row; only those arrays are built
    and kept.  A run fills out with +0.0 and, offset by ascending offset,
    multiplies into scratch, writes -0.0 into the missing rows' slots and
    adds scratch into out.  scratch, of x's dtype with room for the rows,
    may be shared as in _jagged_block.
    """
    first, last = int(row_ptr[lo]), int(row_ptr[hi])
    rows = hi - lo
    cols = col_idx[first:last]
    row_of = np.repeat(np.arange(rows, dtype=np.int32), np.diff(row_ptr[lo:hi + 1]))
    keys = cols - row_of        # d + lo, ascending in each row
    sorted_keys = np.sort(keys)
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    distinct = sorted_keys[new]
    del sorted_keys, new
    if len(distinct) * rows > 2 * (last - first):
        return None
    if len(cols) and not (0 <= cols.min() and cols.max() < len(x)):
        raise IndexError(f"column index outside a vector of length {len(x)}")
    slot = np.searchsorted(distinct, keys)      # each entry's offset, then its slot
    del keys
    # an offset's value in one of its entries, and whether every entry has
    # its bits (0.0 and -0.0 differ)
    vals = values[first:last]
    bits = vals.view(f"i{vals.itemsize}")
    one = np.empty(len(distinct), dtype=bits.dtype)
    one[slot] = bits
    varies = np.zeros(len(distinct), dtype=bool)
    varies[slot[bits != one[slot]]] = True
    constants = one.view(vals.dtype).tolist()
    del bits, one
    slot *= rows
    slot += row_of
    del row_of
    present = np.zeros((len(distinct), rows), dtype=bool)
    present.ravel()[slot] = True
    spans = []
    for j, key in enumerate(distinct.tolist()):
        r0, r1 = max(0, -key), min(rows, len(x) - key)
        missing = np.flatnonzero(~present[j, r0:r1])
        spans.append((key, r0, r1, missing if len(missing) else None))
    del present
    # c * x in a missing slot must raise no warning whatever x holds: c != 0
    # rules out 0 * inf and |c| <= 1 an overflow
    arrays = [j for j, (_, _, _, missing) in enumerate(spans)
              if varies[j] or missing is not None and not 0 < abs(constants[j]) <= 1]
    value_rows = {}
    if arrays:
        # 1.0 in a missing slot of a value array: its product with any x
        # raises no warning, no 0 * inf and no overflow, and the run
        # overwrites it with -0.0
        diagonals = np.ones((len(distinct), rows), dtype=values.dtype)
        diagonals.ravel()[slot] = vals
        value_rows = dict(zip(arrays, diagonals[arrays]))   # a copy of those rows alone
        del diagonals
    del slot
    dtype = np.result_type(values, x)
    products = scratch[:rows] if scratch.dtype == dtype and len(scratch) >= rows \
        else np.empty(rows, dtype=dtype)
    steps = [(value_rows[j][r0:r1] if j in value_rows else constants[j],
              x[key + r0:key + r1], out[r0:r1], products[:r1 - r0], missing)
             for j, (key, r0, r1, missing) in enumerate(spans)]

    def run():
        out.fill(0.0)
        for factor, x_slice, out_slice, prod, missing in steps:
            # dtype: a float factor times a float32 x multiplies in float64
            # when the values do, as their array would
            np.multiply(factor, x_slice, out=prod, dtype=dtype)
            if missing is not None:
                prod[missing] = -0.0     # v + (-0.0) is v, bit for bit
            out_slice += prod
    return run


def csr_product(row_ptr, col_idx, values, x, out, lo, hi):
    """A closure that sets out, of length hi - lo, to rows lo..hi-1 of the
    CSR matrix times x, each row summed left to right from +0.0.

    The rows are cut into _row_blocks, each a _diagonal_block closure when
    the block is banded enough and a _jagged_block one otherwise; the
    blocks run one after another.  The diagonal blocks share one scratch
    buffer of a block's rows, the jagged ones one of a block's entries,
    made at the first jagged block.  Everything is built here, once: the
    closure stays valid while x and out are written only in place and the
    CSR arrays not at all.
    """
    blocks = _row_blocks(row_ptr, lo, hi)
    products = np.empty(max((stop - start for start, stop in blocks), default=0), dtype=x.dtype)
    gather = None
    runs = []
    for start, stop in blocks:
        args = (row_ptr, col_idx, values, x, out[start - lo:stop - lo], start, stop)
        run = _diagonal_block(*args, products)
        if run is None:
            if gather is None:
                gather = np.empty(max(int(row_ptr[b]) - int(row_ptr[a]) for a, b in blocks),
                                  dtype=x.dtype)
            run = _jagged_block(*args, gather)
        runs.append(run)
    if len(runs) == 1:
        return runs[0]

    def run_blocks():
        for block in runs:
            block()
    return run_blocks


def spmv_range(row_ptr, col_idx, values, x, lo, hi, plan=None, out=None):
    """y[i] for rows lo..hi-1, each row accumulated left to right in float64.

    plan, a build_sweep_plan(row_ptr, lo, hi) plan or None, is not read:
    the product is csr_product's, built here.
    """
    if out is None:
        out = np.empty(hi - lo)
    csr_product(row_ptr, col_idx, values, x, out, lo, hi)()
    return out


def spmv_csr(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product y = A x."""
    if len(x) != A.n:
        raise DimensionMismatch(f"vector length {len(x)} != matrix size {A.n}")
    y = np.empty(A.n)
    csr_product(A.row_ptr, A.col_idx, A.values, x, y, 0, A.n)()
    return y


@dataclass(frozen=True)
class SolverConfig:
    tol: float
    max_iter: int

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must be in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


def _sample_symmetry(A: CsrMatrix, samples: int = 64):
    """Spot-check a_ij == a_ji on a deterministic sample of entries: every
    (nnz // samples)-th entry, its row found by one searchsorted and its
    mirror by one binary search of all the mirror rows at once.  Raises
    NonSymmetricMatrix naming the first pair that differs."""
    entries = np.arange(0, A.nnz, max(1, A.nnz // samples))
    rows = np.searchsorted(A.row_ptr, entries, side="right") - 1
    cols = A.col_idx[entries]
    first, stop = A.row_ptr[cols].astype(np.int64), A.row_ptr[cols + 1]
    count = stop - first    # first ends at row j's first entry whose column is >= i
    while count.any():
        half = count // 2
        below = (A.col_idx[np.minimum(first + half, A.nnz - 1)] < rows) & (count > 0)
        first = np.where(below, first + half + 1, first)
        count = np.where(below, count - half - 1, half)
    at = np.minimum(first, A.nnz - 1)
    mirror = np.where((first < stop) & (A.col_idx[at] == rows), A.values[at], 0.0)
    v = A.values[entries]
    bad = (rows != cols) & (np.abs(v - mirror) > 1e-12 * np.maximum(1.0, np.abs(v)))
    if bad.any():
        k = int(np.argmax(bad))
        i, j = int(rows[k]), int(cols[k])
        raise NonSymmetricMatrix(
            f"a[{i},{j}]={float(v[k])!r} but a[{j},{i}]={float(mirror[k])!r}")


# -- matrix market ------------------------------------------------------------


def read_matrix_market(path: str) -> CsrMatrix:
    """load_matrix_market of the file at path, read as bytes.

    The file must be ASCII: any other byte raises UnicodeDecodeError.  Its
    line ends are read as text mode reads them: CRLF and a lone CR end a
    line, as LF does.
    """
    with open(path, "rb") as f:
        return load_matrix_market(f)


def load_matrix_market(source: str | IO) -> CsrMatrix:
    """Parse Matrix Market coordinate text (real, general or symmetric).

    source is the text or a file, binary or text mode.  All are read by one
    path, as ASCII bytes: a str, given or read, is encoded on entry, so
    that a character outside ASCII raises UnicodeEncodeError, as such a byte
    in a binary file raises UnicodeDecodeError, and a lone CR or a CRLF
    ends a line, as LF does.
    The bytes are dropped once the entries are parsed, before the matrix
    is built.  A clean body is parsed by one np.loadtxt into a record
    array; otherwise the line parser reads it.  Symmetric inputs are
    expanded to full storage, duplicates are summed and each row is sorted
    by column.  Raises MalformedHeader (NonFiniteValue for a nan or
    infinite value), NonSquare or IndexOutOfRange; an error in an entry
    line names that line.
    """
    data = source if isinstance(source, str) else source.read()
    if isinstance(data, str):
        data = data.encode("ascii")
    if not data.isascii():
        data.decode("ascii")    # raises UnicodeDecodeError at the first such byte
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    banner_line, start = _line_at(data, 0)
    if not banner_line.startswith("%%MatrixMarket"):
        raise MalformedHeader("missing %%MatrixMarket banner")
    banner = banner_line.split()
    if len(banner) != 5:
        raise MalformedHeader(f"banner needs 5 fields, got {len(banner)}")
    _, obj, fmt, fld, sym = (w.lower() for w in banner)
    if obj != "matrix" or fmt != "coordinate":
        raise MalformedHeader(f"only 'matrix coordinate' is supported, got '{obj} {fmt}'")
    if fld != "real":
        raise MalformedHeader(f"only real values are supported, got '{fld}'")
    if sym not in ("general", "symmetric"):
        raise MalformedHeader(f"only general or symmetric, got '{sym}'")

    pos = 1     # 0-based line number of `line`
    while True:
        if start > len(data):
            raise MalformedHeader("missing size line")
        line, body = _line_at(data, start)
        if line.strip() and not line.lstrip().startswith("%"):
            break
        pos += 1
        start = body
    size_fields = line.split()
    if len(size_fields) != 3:
        raise MalformedHeader(f"line {pos + 1}: size line needs 'rows cols nnz'")
    try:
        rows, cols, declared = (int(f) for f in size_fields)
    except ValueError:
        raise MalformedHeader(f"line {pos + 1}: size line needs integers") from None
    if rows != cols:
        raise NonSquare(f"{rows}x{cols} matrix is not square")
    if rows < 1:
        raise MalformedHeader("matrix size must be positive")

    entries = _entries_vectorised(data, body, rows, declared)
    if entries is None:
        entries = _entries_by_line(data.decode("ascii").split("\n"), pos + 1, rows, declared)
    del data    # the file's bytes, before the matrix is built
    ii, jj, vv = entries
    if sym == "symmetric":
        ii, jj, vv = _with_mirrors(ii, jj, vv)
    return csr_from_coo(rows, ii, jj, vv)


def _line_at(data: bytes, start: int) -> tuple[str, int]:
    """The line that begins at offset start, and the offset after its newline."""
    stop = data.find(b"\n", start)
    if stop < 0:
        stop = len(data)
    return data[start:stop].decode("ascii"), stop + 1


_ENTRY = np.dtype([("i", np.int32), ("j", np.int32), ("v", np.float64)])


def _entries_vectorised(data: bytes, body: int, n: int, declared: int):
    """0-based (rows, cols, values) of the entries from offset body on, parsed
    in one pass: views of one (int32, int32, float64) record array.

    Returns None, leaving the result or the error to _entries_by_line, on
    any doubt: a `%` in the body, a numpy parse error or warning (numpy
    refuses, rather than misreads, the tokens that int() and float() accept
    and it does not, such as `1_0`, `1.0` as an index and non-ASCII digits,
    and an index that does not fit int32), a wrong count, an index out of
    range or a value that is not finite.
    """
    if data.find(b"%", body) >= 0:
        return None
    try:
        stream = io.BytesIO(data)   # shares the bytes, no copy
        stream.seek(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = np.loadtxt(stream, dtype=_ENTRY, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    ii, jj, vv = entries["i"], entries["j"], entries["v"]
    ii -= 1
    jj -= 1
    if len(entries) != declared or not np.isfinite(vv).all() \
            or min(ii.min(initial=0), jj.min(initial=0)) < 0 \
            or max(ii.max(initial=0), jj.max(initial=0)) >= n:
        return None
    return ii, jj, vv


def _entries_by_line(lines: list[str], first: int, n: int, declared: int):
    """0-based (rows, cols, values) of the entries in lines[first:], line by line.

    The reference parser: every error in the entries is raised here, with
    its 1-based line number.
    """
    ii: list[int] = []
    jj: list[int] = []
    vv: list[float] = []
    for line_no in range(first, len(lines)):
        raw = lines[line_no].strip()
        if not raw or raw.startswith("%"):
            continue
        fields = raw.split()
        if len(fields) != 3:
            raise MalformedHeader(f"line {line_no + 1}: expected 'i j value'")
        try:
            i, j, v = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise MalformedHeader(f"line {line_no + 1}: expected 'i j value'") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(line_no + 1, f"entry ({i},{j}) outside {n}x{n}")
        if not math.isfinite(v):
            raise NonFiniteValue(f"line {line_no + 1}: value '{fields[2]}' is not finite")
        ii.append(i - 1)
        jj.append(j - 1)
        vv.append(v)
    if len(vv) != declared:
        raise MalformedHeader(f"declared {declared} entries, found {len(vv)}")
    return (np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64),
            np.array(vv, dtype=np.float64))


def _with_mirrors(ii: np.ndarray, jj: np.ndarray, vv: np.ndarray):
    """Symmetric storage expanded: each off-diagonal entry followed by its mirror."""
    off = ii != jj
    copies = off + 1
    ii2, jj2, vv2 = np.repeat(ii, copies), np.repeat(jj, copies), np.repeat(vv, copies)
    mirrors = np.cumsum(copies)[off] - 1
    ii2[mirrors], jj2[mirrors] = jj[off], ii[off]
    return ii2, jj2, vv2


def csr_from_coo(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> CsrMatrix:
    """CSR from coordinate triplets; duplicate positions are summed.

    Every entry must lie inside the n x n matrix: the first that does not
    raises ValueError, naming its 1-based row and column.  Entries already
    in CSR order, their keys row * n + col strictly increasing, as in a
    file written from a CSR matrix, are used as they stand, with no sort,
    so the build holds little more than the CSR arrays beside its inputs.
    Any other input (unordered, duplicated, or a symmetric file's
    interleaved mirrors) takes a stable argsort of the keys, then each run
    of equal keys is summed by np.add.reduceat in input order.  That path
    keeps one int64 key array, built in place, gathers the sorted keys and
    values into fresh arrays and drops each temporary once it is dead, so
    at most four entry-sized 8-byte arrays live beside the inputs.  Both
    paths then share one tail: row_ptr found by np.searchsorted, the
    columns as int32 and the values as float64 (the caller's own arrays
    when they are contiguous and of that dtype), so both give the same
    bytes for the same entries.  Raises NonFiniteValue, naming the 1-based
    row and column, when a summed value is nan or infinite, such as two
    finite entries whose sum overflows.
    """
    if len(rows) and not (0 <= min(rows.min(), cols.min())
                          and max(rows.max(), cols.max()) < n):
        k = int(np.argmax((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)))
        raise ValueError(f"entry ({rows[k] + 1},{cols[k] + 1}) is outside the {n}x{n} matrix")
    if not _in_csr_order(rows, cols):
        keys = rows.astype(np.int64)
        keys *= n
        keys += cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        start = np.flatnonzero(first)
        del first
        vals = vals[order]      # indexing, unlike take, copies a strided view once
        del order
        with np.errstate(over="ignore"):
            vals = np.add.reduceat(vals, start)
        rows = keys[start]      # the keys of the summed entries, made rows in place
        del keys, start
        cols = rows % n
        rows //= n
    row_ptr = np.searchsorted(rows, np.arange(n + 1, dtype=rows.dtype)).astype(np.int32)
    cols = np.ascontiguousarray(cols, dtype=np.int32)
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    _check_finite_entries(rows, cols, vals)
    del rows
    A = CsrMatrix(n=n, row_ptr=row_ptr, col_idx=cols, values=vals)
    A.validate()
    return A


def _in_csr_order(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the keys row * n + col of the entries, all inside the n x n
    matrix, strictly increase, found by one comparison pass over
    consecutive entries."""
    later = rows[1:] > rows[:-1]
    tied = rows[1:] == rows[:-1]
    tied &= cols[1:] > cols[:-1]
    later |= tied
    return bool(later.all())


def _check_finite_entries(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    finite = np.isfinite(vals)
    if not finite.all():
        k = int(np.argmin(finite))      # the first entry that is not finite
        raise NonFiniteValue(f"entry ({rows[k] + 1},{cols[k] + 1}): "
                             f"summed value {float(vals[k])!r} is not finite")


# -- schedule interpretation ---------------------------------------------------


@dataclass
class ExecutionResult:
    outputs: dict[str, np.ndarray]
    iterations: int
    final_relres: float | None
    converged: bool
    residual_history: list[float]


class _Storage:
    """Arrays per connector-connected port group, plus lookup helpers.

    A group whose every member is an input port is never written: its
    array is read-only, so an spmv over it keeps its product across launches.
    A root input of such a group is bound as a read-only view of the
    caller's array when the dtype already matches, so the caller must not
    write it while the schedule runs; every other binding is copied.  A
    bound floating-point array is checked once, here, to be finite.  A
    task's output never shares an array with one of its inputs: the
    executor takes each task's spec from intrinsics.deployed_intrinsic,
    which rejects such a task before its arrays are looked up.
    """

    def __init__(self, ctx: CompileContext, bindings: dict[str, np.ndarray]):
        self.groups = ctx.port_groups
        ports = {node: ctx.element_at(ComponentKind.APPLICATION, node) for node in self.groups}
        read_only = {group for group in {self.groups[node] for node in ports}
                     if all(ports[n].direction is Direction.IN for n in group)}
        self.arrays: dict[frozenset, np.ndarray] = {}
        root = ctx.model.root(ComponentKind.APPLICATION)
        for port in root.ports:
            if port.direction not in (Direction.IN, Direction.INOUT):
                continue
            if port.name not in bindings:
                raise MissingBinding(f"no binding for input port '{port.name}'")
            data = np.asarray(bindings[port.name]).ravel()
            if data.size != port.shape.total:
                raise MissingBinding(
                    f"binding '{port.name}' has {data.size} elements, "
                    f"port expects {port.shape.total}")
            # ravel made data a view of its own: marking it read-only below
            # leaves the caller's array as it is
            group, dtype = self.groups[port.name], _NUMPY_TYPES[port.data_type]
            array = self.arrays[group] = data \
                if group in read_only and data.dtype == dtype else data.astype(dtype)
            if port.data_type.is_float:
                _check_finite(f"binding '{port.name}'", array)
        for node, port in ports.items():
            group = self.groups[node]
            if group not in self.arrays:
                self.arrays[group] = np.zeros(port.shape.total,
                                              dtype=_NUMPY_TYPES[port.data_type])
        for group in read_only:
            self.arrays[group].flags.writeable = False

    def array(self, node: str) -> np.ndarray:
        return self.arrays[self.groups[node]]

    def task_arrays(self, task_path: str, comp: Component) -> dict[str, np.ndarray]:
        """A leaf task's arrays by port name."""
        return {port.name: self.array(f"{task_path}.{port.name}") for port in comp.ports}


def spmv_launch(a: dict[str, np.ndarray], lo: int, hi: int):
    """The spmv_csr launch over rows lo..hi-1: csr_product's closure, built
    once, here, when the CSR arrays are read-only, and at each launch when a
    task writes them."""
    csr = (a["rowptr"], a["colidx"], a["values"])
    args = (*csr, a["x"], a["y"][lo:hi], lo, hi)
    if not any(array.flags.writeable for array in csr):
        return csr_product(*args)

    def run():
        csr_product(*args)()
    return run


def _host_op(task_path: str, spec: IntrinsicSpec, arrays: dict[str, np.ndarray]):
    """A closure applying a host intrinsic's scalar function once each
    operand its spec declares positive is found finite and > 0."""
    (out,) = [arrays[p.name] for p in spec.ports if p.direction is Direction.OUT]
    operands = [arrays[p.name] for p in spec.ports if p.direction is Direction.IN]
    positive = [(p.name, arrays[p.name]) for p in spec.ports if p.positive]
    scalar = spec.scalar

    def run():
        for name, array in positive:
            value = float(array[0])
            if not 0.0 < value < math.inf:      # nan included
                raise BreakdownDetected(
                    f"task '{task_path}': {name} = {value!r}, but it must be finite and > 0")
        out[0] = scalar(*operands)
    return run


def _tiled_range(task_path: str, ranges: list[tuple[int, int]]) -> tuple[int, int]:
    """The one range [lo:hi) that a step's launch ranges tile, in order and
    without gaps or overlaps."""
    for (_, stop), (start, _) in zip(ranges, ranges[1:]):
        if start != stop:
            raise ValueError(f"task '{task_path}': launch ranges {ranges} "
                             "do not tile one range")
    return ranges[0][0], ranges[-1][1]


class _Compiler:
    """Compiles schedule steps once into a flat list of closures: one per
    device step or host op, and one per loop, which runs its body's list
    and records each iteration's relative residual.  A non-reduction
    step's closure covers the whole range its launches tile; a reduction
    step's closure keeps one partial per launch range."""

    def __init__(self, ctx: CompileContext, storage: _Storage, tol: float | None,
                 max_iter: int | None):
        self.ctx, self.storage = ctx, storage
        self.tol, self.max_iter = tol, max_iter
        self.history: list[float] = []            # each loop iteration's relres
        self.loops_converged: list[bool] = []

    def steps(self, steps) -> list:
        program = []
        for step in steps:
            if isinstance(step, LoopStep):
                program.append(self.loop(step))
                continue
            comp = self.ctx.component_at(ComponentKind.APPLICATION, step.task_path)
            spec = deployed_intrinsic(self.ctx, step.task_path, on_host=isinstance(step, HostOp))
            arrays = self.storage.task_arrays(step.task_path, comp)
            if isinstance(step, HostOp):
                program.append(_host_op(step.task_path, spec, arrays))
                continue
            ranges = [(l.range.offset, l.range.offset + l.range.count) for l in step.launches]
            if spec.reduce:
                program.append(spec.launch(arrays, ranges))
            else:
                program.append(spec.launch(arrays, *_tiled_range(step.task_path, ranges)))
        return program

    def loop(self, step: LoopStep):
        body = self.steps(step.body)
        tol = self.tol if self.tol is not None else step.tolerance
        max_iter = self.max_iter if self.max_iter is not None else step.max_iterations
        relres = self.storage.array(step.relres_port)
        history, loops_converged = self.history, self.loops_converged

        def run():
            for _ in range(max(1, max_iter)):     # the body runs at least once
                for launch in body:
                    launch()
                history.append(float(relres[0]))
                if history[-1] <= tol:
                    loops_converged.append(True)
                    return
            loops_converged.append(False)
        return run


def execute_schedule(model: Model, schedule: Schedule, bindings: dict[str, np.ndarray],
                     *, tol: float | None = None, max_iter: int | None = None) -> ExecutionResult:
    """Run a schedule over bound arrays, one simulated device per launch.

    Produces the arrays of the application root's out ports plus loop
    bookkeeping.  tol and max_iter, when given, override every loop
    step's own continue-condition.  Raises NonFiniteInput, before the first
    step, when a bound floating-point array holds nan or an infinite value,
    and BreakdownDetected from a host op whose positive operand is not.
    """
    storage = _Storage(model.context, bindings)
    compiler = _Compiler(model.context, storage, tol, max_iter)
    for run in compiler.steps(schedule.steps):
        run()

    root = model.root(ComponentKind.APPLICATION)
    outputs = {port.name: storage.array(port.name).copy()
               for port in root.ports if port.direction is Direction.OUT}
    history = compiler.history
    return ExecutionResult(outputs=outputs, iterations=len(history),
                           final_relres=history[-1] if history else None,
                           converged=all(compiler.loops_converged),
                           residual_history=history)


def spmv_task(model: Model) -> tuple[str, Component]:
    """The first spmv_csr task instance in pre-order: the matrix consumer
    that `run` binds the matrix to and sizes the model by."""
    for path, comp in iter_instances(model, ComponentKind.APPLICATION):
        if comp.elementary_op == "spmv_csr":
            return path, comp
    raise ValueError("model has no spmv_csr task; `run` needs a matrix consumer")


def instantiate_for_matrix(model: Model, n: int, nnz: int) -> Model:
    """Re-size a model written for one matrix to another problem size.

    The template sizes are read off the model's spmv task (x extent = N,
    values extent = NNZ); every dimension equal to NNZ, N or N+1 is
    rewritten to the new value, everything else is kept.
    """
    _, spmv = spmv_task(model)
    n_model = spmv.port("x").shape.total
    nnz_model = spmv.port("values").shape.total

    def map_dim(d: int) -> int:
        if d == nnz_model:
            return nnz
        if d == n_model:
            return n
        if d == n_model + 1:
            return n + 1
        return d

    def map_shape(shape: Shape | None) -> Shape | None:
        if shape is None:
            return None
        return Shape(tuple(map_dim(d) for d in shape.dims))

    return replace(model, application_components={
        name: replace(comp, repetition_space=map_shape(comp.repetition_space),
                      ports=tuple(replace(p, shape=map_shape(p.shape)) for p in comp.ports))
        for name, comp in model.application_components.items()})


def _matrix_bindings(model: Model, A: CsrMatrix, rhs: np.ndarray) -> dict[str, np.ndarray]:
    """Bind root input ports structurally: CSR ports via their connection to
    the spmv task, the remaining float input as the right-hand side."""
    groups = model.context.port_groups
    root = model.root(ComponentKind.APPLICATION)
    spmv_path, _ = spmv_task(model)
    csr_arrays = {f"{spmv_path}.rowptr": A.row_ptr,
                  f"{spmv_path}.colidx": A.col_idx,
                  f"{spmv_path}.values": A.values}
    bindings: dict[str, np.ndarray] = {}
    for port in root.ports:
        if port.direction is not Direction.IN:
            continue
        bound = next((arr for node, arr in csr_arrays.items() if node in groups[port.name]),
                     None)
        if bound is None:
            if not port.data_type.is_float:
                raise ValueError(f"cannot infer a binding for input port '{port.name}'")
            bound = rhs
        bindings[port.name] = bound
    return bindings


def solve(model: Model, schedule: Schedule, A: CsrMatrix, b: np.ndarray, *,
          tol: float | None = None, max_iter: int | None = None) -> ExecutionResult:
    """A x = b by a schedule of a model sized to A: the one home of the
    rules on a matrix system, in order.  DimensionMismatch, NonFiniteInput
    on A or b, NonSymmetricMatrix from a sample of A; a zero b gives zero
    out ports after zero iterations, converged; RhsNormOutOfRange.  Then
    one execute_schedule over the bound arrays, whose breakdown check
    raises BreakdownDetected."""
    if len(b) != A.n:
        raise DimensionMismatch(f"rhs length {len(b)} != matrix size {A.n}")
    _check_finite("matrix values", A.values)
    _check_finite("rhs b", b)
    _sample_symmetry(A)
    if not b.any():
        root = model.root(ComponentKind.APPLICATION)
        zeros = {port.name: np.zeros(port.shape.total, dtype=_NUMPY_TYPES[port.data_type])
                 for port in root.ports if port.direction is Direction.OUT}
        return ExecutionResult(outputs=zeros, iterations=0, final_relres=None,
                               converged=True, residual_history=[])
    _check_rhs_norm("rhs b", b)
    return execute_schedule(model, schedule, _matrix_bindings(model, A, b),
                            tol=tol, max_iter=max_iter)


@functools.cache
def _bundled_cg() -> Model:
    from . import bundled_model_text    # the package imports this module
    return parse_model(bundled_model_text())


def run_cg(A: CsrMatrix, b: np.ndarray, config: SolverConfig) -> ExecutionResult:
    """Unpreconditioned conjugate gradient from x0 = 0: solve over the
    schedule of the bundled cg.gmodel, re-sized to A, on one device, with
    config's tol and max_iter.  The solution is outputs["x"]."""
    model = instantiate_for_matrix(_bundled_cg(), A.n, A.nnz)
    return solve(model, build_schedule(model, 1), A, b,
                 tol=config.tol, max_iter=config.max_iter)
