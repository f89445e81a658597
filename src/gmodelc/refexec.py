"""Reference CPU executor: CSR linear algebra and schedule interpretation.

Runs a schedule over concrete numpy arrays with exactly the partitioning
the generated OpenCL would use.  Simulated devices share nothing except
through explicit host reductions (dot partials are summed in ascending
device order), so a single-device run reproduces run_cg bit for bit and
multi-device runs agree up to reduction rounding.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .intrinsics import INTRINSICS, IntrinsicShapeMismatch, check_task_signature
from .metamodel import (Component, ComponentKind, DataType, Direction, FlowPort, Model,
                        Shape, connected_port_groups, iter_instances)
from .partition import DeviceStep, HostOp, LoopStep, Schedule


class DimensionMismatch(ValueError):
    pass


class BreakdownDetected(ArithmeticError):
    """The p.Ap curvature went non-positive: the matrix is not positive definite."""


class NonSymmetricMatrix(ValueError):
    pass


class MissingBinding(KeyError):
    pass


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


@dataclass(eq=False)
class CsrMatrix:
    """Square sparse matrix in compressed sparse row form (float64 values)."""

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    _plans: dict = field(default_factory=dict, repr=False)

    @property
    def nnz(self) -> int:
        return int(self.row_ptr[-1])

    def validate(self):
        if self.n < 1 or len(self.row_ptr) != self.n + 1:
            raise ValueError("row_ptr length must be n + 1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.values):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if len(self.col_idx) != len(self.values):
            raise ValueError("col_idx and values lengths differ")
        if len(self.col_idx) and (self.col_idx.min() < 0 or self.col_idx.max() >= self.n):
            raise ValueError("column index out of range")
        # each entry's column must exceed the previous one, except where a row begins
        rising = np.diff(self.col_idx) > 0
        starts = self.row_ptr[1:-1]
        rising[starts[(starts > 0) & (starts < len(self.col_idx))] - 1] = True
        if not rising.all():
            k = int(np.argmin(rising))
            i = int(np.searchsorted(self.row_ptr, k, side="right")) - 1
            raise ValueError(f"row {i}: column indices not strictly increasing")

    def plan(self, lo: int, hi: int):
        """The sweep plan of rows lo..hi-1 with each level's values and column
        indices gathered once into contiguous arrays; cached per range, so
        valid while the matrix arrays are not written."""
        key = (lo, hi)
        if key not in self._plans:
            self._plans[key] = _gathered(build_sweep_plan(self.row_ptr, lo, hi),
                                         self.col_idx, self.values)
        return self._plans[key]


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


def _gathered(plan, col_idx, values):
    """Levels of (rows, values, column indices) from a build_sweep_plan plan."""
    return [(rows, values[idx], col_idx[idx].astype(np.intp)) for rows, idx in plan]


def spmv_range(row_ptr, col_idx, values, x, lo, hi, plan=None, out=None):
    """y[i] for rows lo..hi-1, each row accumulated left to right in float64.

    plan is build_sweep_plan(row_ptr, lo, hi), built here when omitted, or
    CsrMatrix.plan(lo, hi), whose levels carry their entries already gathered.
    """
    if plan is None:
        plan = build_sweep_plan(row_ptr, lo, hi)
    if plan and len(plan[0]) == 2:
        plan = _gathered(plan, col_idx, values)
    if out is None:
        out = np.zeros(hi - lo)
    else:
        out[:] = 0.0
    for rows, vals, cols in plan:
        out[rows] += vals * x[cols]
    return out


def spmv_csr(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product y = A x."""
    if len(x) != A.n:
        raise DimensionMismatch(f"vector length {len(x)} != matrix size {A.n}")
    return spmv_range(A.row_ptr, A.col_idx, A.values, x, 0, A.n, plan=A.plan(0, A.n))


@dataclass(frozen=True)
class SolverConfig:
    tol: float
    max_iter: int

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must be in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    residual_history: list[float]
    converged: bool


def _sample_symmetry(A: CsrMatrix, samples: int = 64):
    """Spot-check a_ij == a_ji on a deterministic sample of entries."""
    nnz = A.nnz
    if nnz == 0:
        return
    step = max(1, nnz // samples)
    for k in range(0, nnz, step):
        i = int(np.searchsorted(A.row_ptr, k, side="right")) - 1
        j = int(A.col_idx[k])
        if i == j:
            continue
        lo, hi = A.row_ptr[j], A.row_ptr[j + 1]
        pos = np.searchsorted(A.col_idx[lo:hi], i)
        mirror = A.values[lo + pos] if pos < hi - lo and A.col_idx[lo + pos] == i else 0.0
        v = A.values[k]
        if abs(v - mirror) > 1e-12 * max(1.0, abs(v)):
            raise NonSymmetricMatrix(f"a[{i},{j}]={v!r} but a[{j},{i}]={mirror!r}")


def run_cg(A: CsrMatrix, b: np.ndarray, config: SolverConfig) -> SolveResult:
    """Unpreconditioned conjugate gradient from x0 = 0.

    Stops when the recurrence residual satisfies ||r||/||b|| <= tol or
    max_iter is reached; the relative residual is recorded after each
    x-update.  A zero right-hand side returns x = 0, converged, zero
    iterations.  Raises BreakdownDetected when p.Ap <= 0 (not positive
    definite) and DimensionMismatch on a size mismatch.
    """
    if len(b) != A.n:
        raise DimensionMismatch(f"rhs length {len(b)} != matrix size {A.n}")
    _sample_symmetry(A)
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(A.n)
    r = b.copy()
    p = r.copy()
    rr = float(np.dot(r, r))
    bnorm = math.sqrt(rr)
    if bnorm == 0.0:
        return SolveResult(x=x, iterations=0, residual_history=[], converged=True)
    history: list[float] = []
    converged = False
    for _ in range(config.max_iter):
        Ap = spmv_csr(A, p)
        pAp = float(np.dot(p, Ap))
        if pAp <= 0.0:
            raise BreakdownDetected(f"p.Ap = {pAp!r} <= 0")
        alpha = rr / pAp
        x += alpha * p
        r += (-alpha) * Ap
        rr_new = float(np.dot(r, r))
        relres = math.sqrt(rr_new) / bnorm
        history.append(relres)
        if relres <= config.tol:
            converged = True
            break
        beta = rr_new / rr
        p *= beta
        p += r
        rr = rr_new
    return SolveResult(x=x, iterations=len(history), residual_history=history,
                       converged=converged)


# -- matrix market ------------------------------------------------------------


def load_matrix_market(text: str) -> CsrMatrix:
    """Parse Matrix Market coordinate text (real, general or symmetric).

    Symmetric inputs are expanded to full storage, duplicates are summed
    and each row is sorted by column.  Raises MalformedHeader (NonFiniteValue
    for a nan or infinite value), NonSquare or IndexOutOfRange; an error in
    an entry line names that line.
    """
    banner_line, start = _line_at(text, 0)
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
        if start > len(text):
            raise MalformedHeader("missing size line")
        line, body = _line_at(text, start)
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

    entries = _entries_vectorised(text, body, rows, declared)
    if entries is None:
        entries = _entries_by_line(text.split("\n"), pos + 1, rows, declared)
    ii, jj, vv = entries
    if sym == "symmetric":
        ii, jj, vv = _with_mirrors(ii, jj, vv)
    return csr_from_coo(rows, ii, jj, vv)


def _line_at(text: str, start: int) -> tuple[str, int]:
    """The line that begins at offset start, and the offset after its newline."""
    stop = text.find("\n", start)
    if stop < 0:
        stop = len(text)
    return text[start:stop], stop + 1


_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _entries_vectorised(text: str, body: int, n: int, declared: int):
    """0-based (rows, cols, values) of the entries from offset body on, parsed
    in one pass.

    Returns None, leaving the result or the error to _entries_by_line, on
    any doubt: a `%` in the body, a numpy parse error or warning (numpy
    refuses, rather than misreads, the tokens that int() and float() accept
    and it does not, such as `1_0`, `1.0` as an index and non-ASCII digits),
    a wrong count, an index out of range or a value that is not finite.
    """
    if text.find("%", body) >= 0:
        return None
    try:
        stream = io.BytesIO(text.encode("ascii"))
        stream.seek(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            entries = np.loadtxt(stream, dtype=_ENTRY, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    ii, jj, vv = entries["i"] - 1, entries["j"] - 1, entries["v"].copy()
    if len(entries) != declared or not np.isfinite(vv).all() \
            or ((ii < 0) | (ii >= n) | (jj < 0) | (jj >= n)).any():
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
    """CSR from coordinate triplets; duplicate positions are summed."""
    if len(rows):
        keys = rows.astype(np.int64) * n + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        start = np.flatnonzero(first)
        vals = np.add.reduceat(vals[order], start)
        keys = keys[start]
        rows = keys // n
        cols = (keys % n).astype(np.int32)
    counts = np.bincount(rows, minlength=n) if len(rows) else np.zeros(n, dtype=np.int64)
    row_ptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=row_ptr[1:])
    A = CsrMatrix(n=n, row_ptr=row_ptr, col_idx=cols.astype(np.int32),
                  values=vals.astype(np.float64))
    A.validate()
    return A


def matrix_to_coordinate_text(A: CsrMatrix) -> str:
    """Matrix Market general coordinate text round-tripping load_matrix_market."""
    out = ["%%MatrixMarket matrix coordinate real general",
           f"{A.n} {A.n} {A.nnz}"]
    for i in range(A.n):
        for k in range(A.row_ptr[i], A.row_ptr[i + 1]):
            out.append(f"{i + 1} {int(A.col_idx[k]) + 1} {float(A.values[k])!r}")
    return "\n".join(out) + "\n"


def csr_from_dense(dense: np.ndarray) -> CsrMatrix:
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = np.nonzero(dense)
    return csr_from_coo(dense.shape[0], rows, cols, dense[rows, cols])


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


# -- schedule interpretation ---------------------------------------------------


@dataclass
class ExecutionResult:
    outputs: dict[str, np.ndarray]
    iterations: int
    final_relres: float | None
    converged: bool


class _Storage:
    """Arrays per connector-connected port group, plus lookup helpers."""

    def __init__(self, model: Model, bindings: dict[str, np.ndarray]):
        self.groups = connected_port_groups(model)
        self.ports = {}
        for inst_path, comp in iter_instances(model, ComponentKind.APPLICATION):
            for port in comp.ports:
                node = f"{inst_path}.{port.name}" if inst_path else port.name
                self.ports[node] = port
        self.arrays: dict[frozenset, np.ndarray] = {}
        root = model.root(ComponentKind.APPLICATION)
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
            self.arrays[self.groups[port.name]] = data.astype(
                _NUMPY_TYPES[port.data_type], copy=True)
        for node, port in self.ports.items():
            group = self.groups[node]
            if group not in self.arrays:
                self.arrays[group] = np.zeros(port.shape.total,
                                              dtype=_NUMPY_TYPES[port.data_type])
        # groups whose every member is an input port are never written;
        # spmv plans gathered from them stay valid across iterations
        self.immutable = {
            group for group in set(self.groups.values())
            if all(self.ports[n].direction is Direction.IN for n in group)
        }

    def array(self, node: str) -> np.ndarray:
        return self.arrays[self.groups[node]]


def _task_arrays(storage: _Storage, model: Model, task_path: str):
    part = None
    comp = model.root(ComponentKind.APPLICATION)
    for seg in task_path.split("."):
        part = comp.part(seg)
        comp = model.component(ComponentKind.APPLICATION, part.type_ref)
    arrays = {}
    for port in comp.ports:
        arrays[port.name] = storage.array(f"{task_path}.{port.name}")
    return comp, arrays


def execute_schedule(model: Model, schedule: Schedule, bindings: dict[str, np.ndarray],
                     device_count: int, tol: float | None = None,
                     max_iter: int | None = None) -> ExecutionResult:
    """Interpret a schedule over bound arrays with device_count simulated devices.

    Produces the arrays of the application root's out ports plus loop
    bookkeeping.  tol and max_iter, when given, override every loop
    step's own continue-condition.
    """
    storage = _Storage(model, bindings)

    task_cache: dict[str, tuple] = {}

    def task_info(task_path: str):
        if task_path not in task_cache:
            comp, arrays = _task_arrays(storage, model, task_path)
            spec = check_task_signature(task_path, comp)
            for port in comp.ports:
                if port.direction is not Direction.OUT:
                    continue
                out_group = storage.groups[f"{task_path}.{port.name}"]
                for other in comp.ports:
                    if other.direction is Direction.IN and \
                            storage.groups[f"{task_path}.{other.name}"] is out_group:
                        raise IntrinsicShapeMismatch(
                            f"task '{task_path}': output port '{port.name}' aliases "
                            f"input port '{other.name}'")
            csr = None
            if spec.name == "spmv_csr" and all(
                    storage.groups[f"{task_path}.{p}"] in storage.immutable
                    for p in ("rowptr", "colidx", "values")):
                csr = CsrMatrix(n=len(arrays["rowptr"]) - 1, row_ptr=arrays["rowptr"],
                                col_idx=arrays["colidx"], values=arrays["values"])
            task_cache[task_path] = (comp, arrays, csr)
        return task_cache[task_path]

    iterations = 0
    final_relres: float | None = None
    converged = True

    def run_host(step: HostOp):
        _, arrays, _ = task_info(step.task_path)
        if step.op == "div":
            arrays["q"][0] = arrays["num"][0] / arrays["den"][0]
        elif step.op == "neg":
            arrays["z"][0] = -arrays["a"][0]
        elif step.op == "rel_residual":
            arrays["z"][0] = math.sqrt(float(arrays["num"][0])) \
                / math.sqrt(float(arrays["den"][0]))
        else:
            impl = INTRINSICS[step.op]
            raise IntrinsicShapeMismatch(
                f"intrinsic '{impl.name}' cannot run as a host scalar op")

    def run_device(step: DeviceStep):
        comp, arrays, csr = task_info(step.task_path)
        if step.op == "dot_partial":
            a, b_ = arrays["a"], arrays["b"]
            partials = [float(np.dot(a[l.range.offset:l.range.offset + l.range.count],
                                     b_[l.range.offset:l.range.offset + l.range.count]))
                        for l in step.launches]
            total = 0.0
            for p in partials:
                total += p
            arrays["s"][0] = total
            return
        for launch in step.launches:
            lo = launch.range.offset
            hi = lo + launch.range.count
            if step.op == "spmv_csr":
                spmv_range(arrays["rowptr"], arrays["colidx"], arrays["values"], arrays["x"],
                           lo, hi, plan=csr.plan(lo, hi) if csr is not None else None,
                           out=arrays["y"][lo:hi])
            elif step.op == "axpy":
                if comp.port("a") is not None:
                    arrays["y"][lo:hi] += float(arrays["a"][0]) * arrays["x"][lo:hi]
                else:
                    arrays["y"][lo:hi] += arrays["x"][lo:hi]
            elif step.op == "scale":
                arrays["y"][lo:hi] *= float(arrays["a"][0])
            elif step.op == "copy":
                arrays["dst"][lo:hi] = arrays["src"][lo:hi]
            elif step.op == "sub":
                arrays["z"][lo:hi] = arrays["x"][lo:hi] - arrays["y"][lo:hi]
            else:
                raise IntrinsicShapeMismatch(f"no device implementation for '{step.op}'")

    def run_steps(steps):
        nonlocal iterations, final_relres, converged
        for step in steps:
            if isinstance(step, HostOp):
                run_host(step)
            elif isinstance(step, DeviceStep):
                run_device(step)
            elif isinstance(step, LoopStep):
                loop_tol = tol if tol is not None else step.tolerance
                loop_max = max_iter if max_iter is not None else step.max_iterations
                loop_converged = False
                loop_iters = 0
                while True:
                    run_steps(step.body)
                    loop_iters += 1
                    iterations += 1
                    relres = float(storage.array(step.relres_port)[0])
                    final_relres = relres
                    if relres <= loop_tol:
                        loop_converged = True
                        break
                    if loop_iters >= loop_max:
                        break
                converged = converged and loop_converged

    run_steps(schedule.steps)

    root = model.root(ComponentKind.APPLICATION)
    outputs = {port.name: storage.array(port.name).copy()
               for port in root.ports if port.direction is Direction.OUT}
    return ExecutionResult(outputs=outputs, iterations=iterations,
                           final_relres=final_relres, converged=converged)


def instantiate_for_matrix(model: Model, n: int, nnz: int) -> Model:
    """Re-size a model written for one matrix to another problem size.

    The template sizes are read off the model's spmv task (x extent = N,
    values extent = NNZ); every dimension equal to NNZ, N or N+1 is
    rewritten to the new value, everything else is kept.
    """
    spmv = None
    for comp in model.application_components.values():
        if comp.elementary_op == "spmv_csr":
            spmv = comp
            break
    if spmv is None:
        raise ValueError("model has no spmv_csr task to infer problem sizes from")
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

    new_comps = {}
    for name, comp in model.application_components.items():
        new_comps[name] = Component(
            name=comp.name, kind=comp.kind,
            ports=tuple(FlowPort(p.name, p.direction, map_shape(p.shape), p.data_type)
                        for p in comp.ports),
            parts=comp.parts, connectors=comp.connectors, stereotype=comp.stereotype,
            repetition_space=map_shape(comp.repetition_space),
            elementary_op=comp.elementary_op, until=comp.until)
    return Model(platform_components=model.platform_components,
                 application_components=new_comps,
                 platform_root=model.platform_root,
                 application_root=model.application_root,
                 allocations=model.allocations)
