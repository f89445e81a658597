"""Test matrices: stencil, random SPD and dense conversions, built on
gmodelc.refexec.csr_from_coo, and the Matrix Market text of a matrix."""

from __future__ import annotations

import numpy as np

from gmodelc.refexec import CsrMatrix, csr_from_coo


def csr_from_dense(dense: np.ndarray) -> CsrMatrix:
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return csr_from_coo(dense.shape[0], rows, cols, dense[rows, cols])


def matrix_to_coordinate_text(A: CsrMatrix) -> str:
    """Matrix Market general coordinate text round-tripping load_matrix_market."""
    out = ["%%MatrixMarket matrix coordinate real general",
           f"{A.n} {A.n} {A.nnz}"]
    for i in range(A.n):
        for k in range(A.row_ptr[i], A.row_ptr[i + 1]):
            out.append(f"{i + 1} {int(A.col_idx[k]) + 1} {float(A.values[k])!r}")
    return "\n".join(out) + "\n"


def csr_to_dense(A: CsrMatrix) -> np.ndarray:
    dense = np.zeros((A.n, A.n))
    for i in range(A.n):
        lo, hi = A.row_ptr[i], A.row_ptr[i + 1]
        dense[i, A.col_idx[lo:hi]] = A.values[lo:hi]
    return dense


def poisson_1d(n: int) -> CsrMatrix:
    """Tridiagonal (-1, 2, -1) stencil matrix of size n."""
    idx = np.arange(n, dtype=np.int64)
    rows = np.concatenate([idx, idx[1:], idx[:-1]])
    cols = np.concatenate([idx, idx[1:] - 1, idx[:-1] + 1])
    vals = np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0)])
    return csr_from_coo(n, rows, cols, vals)


def poisson_2d(k: int) -> CsrMatrix:
    """Five-point stencil on a k-by-k grid (n = k*k)."""
    n = k * k
    idx = np.arange(n, dtype=np.int64)
    gi, gj = idx // k, idx % k
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, 4.0)]
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        ok = (0 <= gi + di) & (gi + di < k) & (0 <= gj + dj) & (gj + dj < k)
        rows.append(idx[ok])
        cols.append((gi[ok] + di) * k + (gj[ok] + dj))
        vals.append(np.full(int(ok.sum()), -1.0))
    return csr_from_coo(n, np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals))


def random_spd(n: int, seed: int, density: float = 0.2) -> CsrMatrix:
    """Random symmetric positive-definite test matrix: M^T M + n I."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    dense = M.T @ M + n * np.eye(n)
    return csr_from_dense(dense)


def poisson_3d(k: int) -> CsrMatrix:
    """Seven-point stencil on a k-by-k-by-k grid (n = k**3)."""
    n = k ** 3
    idx = np.arange(n)
    grid = np.unravel_index(idx, (k, k, k))
    rows, cols, vals = [idx], [idx], [np.full(n, 6.0)]
    for axis, stride in enumerate((k * k, k, 1)):
        for step in (-1, 1):
            ok = (0 <= grid[axis] + step) & (grid[axis] + step < k)
            rows.append(idx[ok])
            cols.append(idx[ok] + step * stride)
            vals.append(np.full(int(ok.sum()), -1.0))
    return csr_from_coo(n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
