"""Reference CPU executor: CSR linear algebra and schedule execution.

Runs a schedule over concrete numpy arrays; solve runs one over A x = b
and holds every rule on such a system, and run_cg is solve over the
bundled cg.gmodel's schedule.  execute_schedule first compiles the
schedule into a flat list of closures, one per device step, host op and
loop, each with its task's arrays, checks, [lo:hi] views and spmv
products bound once; the run then only calls closures.  A loop's closure
calls its body's closures, which are all leaves: loops do not nest.  A
task's closures come from its intrinsic's entry of intrinsics.INTRINSICS:
the launch function of a device intrinsic, the scalar function of a host
one.

A launch of an intrinsic without a reduction is separable over its
range: a launch over [lo:hi) writes the same bytes as launches over any
split of it.  So such a step runs as one closure over the whole range its
device launches tile.  The device partition is kept where it changes the
numbers: a reduction step sums one dot partial per launch range, from
0.0 in ascending device order, so a single-device run reproduces a
textbook CG bit for bit and multi-device runs agree up to reduction
rounding.  The partials of a run of adjacent equal-length ranges come
from one stacked BLAS call (intrinsics._dot_partial).

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
  otherwise.  A scalar of exactly 1.0 or -1.0, as on the off-diagonals
  of a Poisson stencil, is not multiplied: the slice of x is added or
  subtracted as it is.  Rows that lack an offset keep their sums: the
  run sets them aside, writes 0.0 in those slots, applies the offset
  and puts the sums back, bit for bit and with no warning from x there.
- jagged-diagonal form otherwise (rows sorted by descending length,
  entries stored level by level): one gather-multiply, one slice add per
  level and one scatter back to row order.

Each block owns its buffers.  Either way every row is summed left to
right, ascending offset being ascending column, from +0.0 over the same
products, so results match a plain CSR loop bit for bit on finite
inputs.  Where non-finite inputs make two nans meet in a row's sum,
numpy's add may keep either one, so the sign and payload of a nan are
not kept: solve rejects such inputs before they reach a product.
"""

from __future__ import annotations

import functools
import io
import math
import warnings
from dataclasses import dataclass, replace
from typing import IO, Iterator

import numpy as np

from .dsl import parse_model
from .intrinsics import IntrinsicSpec, deployed_intrinsic
from .metamodel import (CompileContext, Component, ComponentKind, DataType, Direction, Model,
                        Shape, iter_instances)
from .partition import LoopStep, Schedule, build_schedule


class DimensionMismatch(ValueError):
    pass


class BreakdownDetected(ArithmeticError):
    """A host op's bounded operand is not finite and within its bound, as
    CG's curvature p.Ap is not > 0 on a matrix that is not positive
    definite; value is that operand's value."""

    def __init__(self, message: str, value: float):
        super().__init__(message)
        self.value = value


class NonSymmetricMatrix(ValueError):
    pass


class MissingBinding(ValueError):
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


# The most stored entries in one spmv row block.  A block whose distinct
# offsets times rows are at most twice its entries runs in diagonal form
# (_diagonal_block): no gather, no scatter, and the same bits.  With its
# unit diagonals added without a product pass, per-call overhead dominates
# a stencil block, so blocks are large: on the 7-point Poisson-3D product
# at N = 132651 (x86-64, 2 MiB L2 per core, one thread, median of six
# rounds) one closure call took 588 us at 2^16, 520 at 2^17, 500 at 2^18
# and 487 at 2^19; 2^18 keeps the block temporaries at half of 2^19's.
# The jagged form over a random 928537-entry matrix, whose gather buffer
# is 2 MiB at 2^18, took 4.0 ms against 4.5 ms at 2^16.
SPMV_BLOCK_ENTRIES = 1 << 18


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


def _jagged_block(row_ptr, col_idx, values, x, out, lo, hi):
    """A closure that sets out[i] to row lo + i of the CSR matrix times x.

    The rows are stably sorted by descending length, so level j (the j-th
    entry of every row that has one) covers a prefix of the sorted rows;
    the levels' values and columns are copied out one after another and
    gathered into a buffer of the closure's own.  x and out must be
    written only in place while the closure is in use.
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
    products = np.empty(len(vals), dtype=np.result_type(vals, x))
    gathered = products if products.dtype == x.dtype else np.empty(len(vals), dtype=x.dtype)
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


# Stored entries that a diagonal form's build analyses at a time: its scans
# hold a few arrays of this length, not of the block's.
DIAGONAL_SCAN_ENTRIES = 1 << 14


def _entry_scans(row_ptr, lo, hi):
    """(start, stop, row_of) for consecutive runs of at most
    DIAGONAL_SCAN_ENTRIES of the stored entries of rows lo..hi-1: entries
    start..stop-1 and, as int32, the row of each, counted from lo."""
    bounds = row_ptr[lo:hi + 1]
    if bounds[-1] - bounds[0] <= DIAGONAL_SCAN_ENTRIES:     # one scan, no row cut
        yield int(bounds[0]), int(bounds[-1]), np.repeat(np.arange(hi - lo, dtype=np.int32),
                                                         np.diff(bounds))
        return
    starts = np.arange(bounds[0], bounds[-1], DIAGONAL_SCAN_ENTRIES, dtype=bounds.dtype)
    stops = np.append(starts[1:], bounds[-1])
    # the rows that hold entry start and entry stop - 1
    firsts = np.searchsorted(bounds, starts, side="right") - 1
    lasts = np.searchsorted(bounds, stops, side="left")
    for start, stop, r0, r1 in zip(starts.tolist(), stops.tolist(), firsts.tolist(),
                                   lasts.tolist()):
        counts = np.diff(np.clip(bounds[r0:r1 + 1], start, stop))
        yield start, stop, np.repeat(np.arange(r0, r1, dtype=np.int32), counts)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys, ascending, found by one sort (np.unique
    hashes, which is slower on these small integer arrays)."""
    keys = np.sort(keys)
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


# A constant factor of exactly 1.0 or -1.0 adds or subtracts x itself
_UNIT_OPS = {1.0: np.add, -1.0: np.subtract}


def _diagonal_block(row_ptr, col_idx, values, x, out, lo, hi):
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
    the offset's value array laid out by row, 1.0 in a missing slot; only
    those arrays are built and kept.  A scalar factor of exactly 1.0 or
    -1.0 takes no product: v + 1.0*x is v + x and v + (-1.0)*x is v - x,
    bit for bit, so the x slice is added or subtracted into out, in the
    dtype the product and its add would use.  Any other factor is
    multiplied into a buffer of the closure's own and added into out.

    A run fills out with +0.0 and applies the offsets in ascending order.
    Where rows lack an offset, it keeps their sums aside, writes 0.0 in
    their slots, applies the offset and puts the sums back: 0.0 plus any
    product or x raises no warning, where a kept sum of 1e308 or inf plus
    x could overflow or make nan.

    The build reads the entries in _entry_scans of DIAGONAL_SCAN_ENTRIES.
    One pass finds the distinct offsets, each offset's factor, whether its
    bits vary and which rows hold it, widening its tables when a scan meets
    a new offset and stopping once the offsets are too many; a second, only
    when some offset needs a value array, fills those arrays.  So beside
    what the closure keeps the build holds one bool per offset and row (at
    most 2 bytes per stored entry) and a few arrays of a scan's length, not
    arrays of the block's.
    """
    first, last = int(row_ptr[lo]), int(row_ptr[hi])
    rows = hi - lo
    vals = values[first:last]
    bits = vals.view(f"i{vals.itemsize}")
    # the keys d + lo = col - row met so far, ascending; for each, the bits
    # of one of its entries, whether every entry has them (0.0 and -0.0
    # differ) and which rows hold it
    distinct = np.zeros(0, dtype=np.int32)
    one = np.zeros(0, dtype=bits.dtype)
    varies = np.zeros(0, dtype=bool)
    present = np.zeros((0, rows), dtype=bool)
    for start, stop, row_of in _entry_scans(row_ptr, lo, hi):
        keys = col_idx[start:stop] - row_of
        slot = np.searchsorted(distinct, keys)
        scan_bits = bits[start - first:stop - first]
        if not len(distinct) or (distinct.take(slot, mode="clip") != keys).any():
            # keys no earlier scan met: each table grows a row per new key,
            # whose bits are taken from this scan
            grown = _distinct(np.concatenate([distinct, keys]))
            if len(grown) * rows > 2 * (last - first):
                return None
            moved = np.searchsorted(grown, distinct)    # the earlier keys' rows
            slot = np.searchsorted(grown, keys)
            distinct, earlier = grown, (one, varies, present)
            one = np.empty(len(distinct), dtype=bits.dtype)
            one[slot] = scan_bits
            varies = np.zeros(len(distinct), dtype=bool)
            present = np.zeros((len(distinct), rows), dtype=bool)
            one[moved], varies[moved], present[moved] = earlier
            del earlier
        if not varies.all():
            varies[slot[scan_bits != one[slot]]] = True
        slot *= rows
        slot += row_of
        present.ravel()[slot] = True
    cols = col_idx[first:last]
    if len(cols) and not (0 <= cols.min() and cols.max() < len(x)):
        raise IndexError(f"column index outside a vector of length {len(x)}")
    constants = one.view(vals.dtype).tolist()
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
        # raises no warning, no 0 * inf and no overflow
        diagonals = np.ones((len(arrays), rows), dtype=values.dtype)
        row_at = np.full(len(distinct), -1)     # an offset's row of diagonals
        row_at[arrays] = np.arange(len(arrays))
        for start, stop, row_of in _entry_scans(row_ptr, lo, hi):
            slot = np.searchsorted(distinct, col_idx[start:stop] - row_of)
            scan_vals = values[start:stop]
            if len(arrays) < len(distinct):
                slot = row_at[slot]
                wanted = slot >= 0
                slot, row_of, scan_vals = slot[wanted], row_of[wanted], scan_vals[wanted]
            slot *= rows
            slot += row_of
            diagonals.ravel()[slot] = scan_vals
        value_rows = dict(zip(arrays, diagonals))
    # dtype: a float factor times a float32 x multiplies in float64 when the
    # values do, as their array would; sums add in what out += product does
    dtype = np.result_type(values, x)
    sums = np.result_type(out, dtype)
    products = np.empty(rows, dtype=dtype)
    steps = []
    for j, (key, r0, r1, missing) in enumerate(spans):
        factor = value_rows[j][r0:r1] if j in value_rows else constants[j]
        unit = None if j in value_rows else _UNIT_OPS.get(factor)
        kept = None if missing is None else np.empty(len(missing), dtype=out.dtype)
        steps.append((unit, factor, x[key + r0:key + r1], out[r0:r1], products[:r1 - r0],
                      missing, kept))

    def run():
        out.fill(0.0)
        for unit, factor, x_slice, out_slice, product, missing, kept in steps:
            if missing is not None:
                out_slice.take(missing, out=kept)
                out_slice[missing] = 0.0
            if unit is None:
                np.multiply(factor, x_slice, out=product, dtype=dtype)
                out_slice += product
            else:
                unit(out_slice, x_slice, out=out_slice, dtype=sums)
            if missing is not None:
                out_slice[missing] = kept
    return run


def csr_product(row_ptr, col_idx, values, x, out, lo, hi):
    """A closure that sets out, of length hi - lo, to rows lo..hi-1 of the
    CSR matrix times x, each row summed left to right from +0.0.

    The rows are cut into _row_blocks, each a _diagonal_block closure when
    the block is banded enough and a _jagged_block one otherwise, each with
    buffers of its own; the blocks run one after another.  Everything is
    built here, once: the closure stays valid while x and out are written
    only in place and the CSR arrays not at all.
    """
    blocks = []
    for start, stop in _row_blocks(row_ptr, lo, hi):
        args = (row_ptr, col_idx, values, x, out[start - lo:stop - lo], start, stop)
        blocks.append(_diagonal_block(*args) or _jagged_block(*args))

    def run():
        for block in blocks:
            block()
    return run


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
    """load_matrix_market of the file at path, opened in binary mode, so
    that its body is parsed block by block and its bytes are never held
    whole beside the entries.

    The file must be ASCII: any other byte raises UnicodeDecodeError.  Its
    line ends are read as text mode reads them: CRLF and a lone CR end a
    line, as LF does.
    """
    with open(path, "rb") as f:
        return load_matrix_market(f)


# Bytes of a matrix file's body read at a time: each block, cut at its last
# line end, is parsed by one np.loadtxt, so it and its record array are the
# only scratch beside the entry columns.
MATRIX_BLOCK_BYTES = 1 << 20


def load_matrix_market(source: str | IO) -> CsrMatrix:
    """Parse Matrix Market coordinate text (real, general or symmetric).

    source is the text or a file, binary or text mode, read as ASCII bytes:
    a str, given or read from a text-mode file, is encoded on entry, so that
    a character outside ASCII raises UnicodeEncodeError, as such a byte in a
    binary file raises UnicodeDecodeError, and a lone CR or a CRLF ends a
    line, as LF does.  A binary file that cannot seek is read whole first.

    The header is read line by line and the body block by block
    (MATRIX_BLOCK_BYTES at a time), each block parsed by one np.loadtxt and
    copied into int32, int32 and float64 columns of the declared length,
    which the matrix build then takes as they stand: a seekable binary
    file's bytes are never held whole beside the entries.  On any doubt (a
    lone CR in the header, a `%` or a byte outside ASCII in the body, a
    token numpy refuses, a count the body cannot hold or does not match,
    an index out of range or a value that is not finite) the source is read
    again from where it started, whole, by the line parser, which alone
    raises every error.  Symmetric inputs are expanded to full storage,
    duplicates are summed and each row is sorted by column.  Raises
    MalformedHeader (NonFiniteValue for a nan or infinite value), NonSquare
    or IndexOutOfRange; an error in an entry line names that line.
    """
    if isinstance(source, str) or isinstance(source.read(0), str) or not source.seekable():
        data = source if isinstance(source, str) else source.read()
        source = io.BytesIO(data.encode("ascii") if isinstance(data, str) else data)
    origin = source.tell()
    parsed = _parsed_streaming(source)
    if parsed is None:
        source.seek(origin)
        parsed = _parsed_by_line(source.read())
    sym, n, (ii, jj, vv) = parsed
    if sym == "symmetric":
        ii, jj, vv = _with_mirrors(ii, jj, vv)
    return csr_from_coo(n, ii, jj, vv)


def _header(lines: Iterator[str]) -> tuple[str, int, int, int]:
    """(symmetry, n, declared entry count, 0-based number of the first body
    line) of a file's lines, read up to its size line."""
    banner_line = next(lines, "")
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
    for pos, line in enumerate(lines, 1):   # 0-based line number of `line`
        if line.strip() and not line.lstrip().startswith("%"):
            break
    else:
        raise MalformedHeader("missing size line")
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
    return sym, rows, declared, pos + 1


def _parsed_by_line(data: bytes):
    """(symmetry, n, entries) of a whole file's bytes, by the line parser:
    the reference, which raises every error of a load."""
    if not data.isascii():
        data.decode("ascii")    # raises UnicodeDecodeError at the first such byte
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    lines = data.decode("ascii").split("\n")
    del data
    sym, n, declared, first = _header(iter(lines))
    return sym, n, _entries_by_line(lines, first, n, declared)


def _parsed_streaming(stream: IO[bytes]):
    """(symmetry, n, entries) of a seekable binary stream, its header read
    line by line and its body by _entries_streamed, or None on any doubt."""
    try:
        sym, n, declared, _ = _header(_header_lines(stream))
    except ValueError:      # _parsed_by_line raises it again, or the error before it
        return None
    entries = _entries_streamed(stream, n, declared)
    return None if entries is None else (sym, n, entries)


def _header_lines(stream: IO[bytes]) -> Iterator[str]:
    """The stream's lines as _parsed_by_line splits them, each read when
    asked for: the last one has no line end, and may be empty.  Raises
    UnicodeDecodeError at a byte outside ASCII and ValueError at a CR that
    does not end a line with its LF: a lone CR ends a line that readline
    does not end."""
    while True:
        line = stream.readline()
        ended = line.endswith(b"\n")
        line = line[:-2] if line.endswith(b"\r\n") else line[:-1] if ended else line
        if b"\r" in line:
            raise ValueError("a lone CR in the header")
        yield line.decode("ascii")
        if not ended:
            return


_ENTRY = np.dtype([("i", np.int32), ("j", np.int32), ("v", np.float64)])


def _entries_streamed(stream: IO[bytes], n: int, declared: int):
    """0-based (rows, cols, values) of the entries from the stream's
    position on, parsed MATRIX_BLOCK_BYTES at a time into contiguous int32,
    int32 and float64 columns of the declared length.

    Each block is read, its CR line ends made LF as _parsed_by_line makes
    them (a CRLF cut between two blocks becomes a blank line, which both
    parsers skip), and cut after its last LF; the partial line goes on into
    the next block.  Returns None, leaving the result or the error to the
    line parser, on any doubt: a declared count that is negative or more
    than the rest of the stream can hold (so no column is allocated for
    it), a `%` or a byte outside ASCII in a block, a numpy parse error or
    warning (numpy refuses, rather than misreads, the tokens that int()
    and float() accept and it does not, such as `1_0`, `1.0` as an index
    and non-ASCII digits, and an index that does not fit int32), a wrong
    count, an index out of range or a value that is not finite.
    """
    start = stream.tell()
    size = stream.seek(0, io.SEEK_END) - start
    stream.seek(start)
    # the shortest entry line is "1 1 1\n": a body of b bytes holds at most
    # (b + 1) // 6 entries, the last one without a line end
    if not 0 <= declared <= (size + 1) // 6:
        return None
    rows = np.empty(declared, dtype=np.int32)
    cols = np.empty(declared, dtype=np.int32)
    vals = np.empty(declared, dtype=np.float64)
    filled = 0
    carry = b""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while True:
            block = stream.read(MATRIX_BLOCK_BYTES)
            last = not block
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            block = carry + block
            cut = len(block) if last else block.rfind(b"\n") + 1
            block, carry = block[:cut], block[cut:]
            if block and not block.isspace():
                if b"%" in block or not block.isascii():
                    return None
                try:
                    entries = np.loadtxt(io.BytesIO(block), dtype=_ENTRY, comments=None,
                                         ndmin=1)
                except (ValueError, Warning):
                    return None
                end = filled + len(entries)
                if end > declared:
                    return None
                ii, jj, vv = rows[filled:end], cols[filled:end], vals[filled:end]
                np.subtract(entries["i"], 1, out=ii)
                np.subtract(entries["j"], 1, out=jj)
                vv[:] = entries["v"]
                del entries     # before the next block is parsed
                if not np.isfinite(vv).all() \
                        or min(ii.min(initial=0), jj.min(initial=0)) < 0 \
                        or max(ii.max(initial=0), jj.max(initial=0)) >= n:
                    return None
                filled = end
            if last:
                break
    if filled != declared:
        return None
    return rows, cols, vals


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
    converged: bool
    residual_history: list[float]

    @property
    def iterations(self) -> int:
        return len(self.residual_history)

    @property
    def final_relres(self) -> float | None:
        return self.residual_history[-1] if self.residual_history else None


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
    operand its spec bounds is found finite and within its bound."""
    (out,) = [arrays[p.name] for p in spec.ports if p.direction is Direction.OUT]
    operands = [arrays[p.name] for p in spec.ports if p.direction is Direction.IN]
    bounded = [(p.name, arrays[p.name], p.bound) for p in spec.ports if p.bound]
    scalar = spec.scalar

    def run():
        for name, array, bound in bounded:
            value = float(array[0])
            if not (value < math.inf and (value > 0.0 if bound == "> 0" else value >= 0.0)):
                raise BreakdownDetected(       # nan included
                    f"task '{task_path}': {name} = {value!r}, but it must be finite and {bound}",
                    value)
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


def _leaf(ctx: CompileContext, storage: _Storage, step):
    """A device step's or host op's closure.  A non-reduction step's closure
    covers the whole range its launches tile; a reduction step's closure
    keeps one partial per launch range."""
    comp = ctx.component_at(ComponentKind.APPLICATION, step.task_path)
    spec, on_host, _ = deployed_intrinsic(ctx, step.task_path)
    arrays = storage.task_arrays(step.task_path, comp)
    if on_host:
        return _host_op(step.task_path, spec, arrays)
    ranges = [(l.range.offset, l.range.offset + l.range.count) for l in step.launches]
    if spec.reduce:
        return spec.launch(arrays, ranges)
    return spec.launch(arrays, *_tiled_range(step.task_path, ranges))


def execute_schedule(model: Model, schedule: Schedule, bindings: dict[str, np.ndarray],
                     *, tol: float | None = None, max_iter: int | None = None) -> ExecutionResult:
    """Run a schedule over bound arrays, one simulated device per launch.

    Produces the arrays of the application root's out ports plus loop
    bookkeeping.  Each loop runs its body to its own bound: until its
    relative residual is below its tolerance, at most its repeat count of
    times and at least once; tol and max_iter, when given, override every
    loop's tolerance and repeat count.  The iterations are every body run
    of every loop, and the run converged when every loop did.  Raises
    NonFiniteInput, before the first step, when a bound floating-point
    array holds nan or an infinite value, and BreakdownDetected from a
    host op whose bounded operand is out of its bound.
    """
    ctx = model.context
    storage = _Storage(ctx, bindings)
    history: list[float] = []            # each loop iteration's relres
    loops_converged: list[bool] = []

    def loop(step: LoopStep):
        body = [_leaf(ctx, storage, leaf) for leaf in step.body]
        bound = tol if tol is not None else step.tolerance
        count = max(1, max_iter if max_iter is not None else step.max_iterations)
        relres = storage.array(step.relres_port)

        def run():
            for _ in range(count):
                for launch in body:
                    launch()
                history.append(float(relres[0]))
                if history[-1] < bound:
                    loops_converged.append(True)
                    return
            loops_converged.append(False)
        return run

    program = [loop(step) if isinstance(step, LoopStep) else _leaf(ctx, storage, step)
               for step in schedule.steps]
    for run in program:
        run()

    root = model.root(ComponentKind.APPLICATION)
    outputs = {port.name: storage.array(port.name).copy()
               for port in root.ports if port.direction is Direction.OUT}
    return ExecutionResult(outputs=outputs, converged=all(loops_converged),
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
    rewritten to the new value, everything else is kept.  Raises
    ValueError when N, N+1 and NNZ are not all different: a dimension
    would then not say which size it is.
    """
    _, spmv = spmv_task(model)
    n_model = spmv.port("x").shape.total
    nnz_model = spmv.port("values").shape.total
    if nnz_model in (n_model, n_model + 1):
        raise ValueError(f"cannot re-size the model: its spmv task has N = {n_model} and "
                         f"NNZ = {nnz_model}, but N, N + 1 and NNZ must all differ")

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
    raises BreakdownDetected.  The inputs are finite by then, so an operand
    that is not comes from an overflow, which the message puts down to
    the scale of b: the iterates scale with b and the dots with its square.
    numpy's overflow warnings are kept off stderr: the breakdown, or a
    residual that is not finite, reports the overflow."""
    if len(b) != A.n:
        raise DimensionMismatch(f"rhs length {len(b)} != matrix size {A.n}")
    _check_finite("matrix values", A.values)
    _check_finite("rhs b", b)
    _sample_symmetry(A)
    if not b.any():
        root = model.root(ComponentKind.APPLICATION)
        zeros = {port.name: np.zeros(port.shape.total, dtype=_NUMPY_TYPES[port.data_type])
                 for port in root.ports if port.direction is Direction.OUT}
        return ExecutionResult(outputs=zeros, converged=True, residual_history=[])
    _check_rhs_norm("rhs b", b)
    try:
        with np.errstate(over="ignore"):
            return execute_schedule(model, schedule, _matrix_bindings(model, A, b),
                                    tol=tol, max_iter=max_iter)
    except BreakdownDetected as exc:
        if math.isfinite(exc.value):
            raise
        scale = float(np.max(np.abs(b)))
        raise BreakdownDetected(f"{exc}: the solve overflowed at the scale of the "
                                f"right-hand side (max |b| = {scale!r}); scale b down",
                                exc.value) from None


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
