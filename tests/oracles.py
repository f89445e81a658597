"""Independent oracles: brute-force implementations the library code never shares."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from gmodelc.dsl import ParseError, SourceSpan
from gmodelc.metamodel import ComponentKind, Direction, connected_port_groups, iter_instances
from gmodelc.partition import DeviceStep, HostOp


def dense_matvec(dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dense @ x


def spmv_loop(row_ptr, col_idx, values, x) -> np.ndarray:
    """Plain double-loop CSR product, sequential left-to-right per row."""
    n = len(row_ptr) - 1
    y = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for k in range(int(row_ptr[i]), int(row_ptr[i + 1])):
            acc += float(values[k]) * float(x[col_idx[k]])
        y[i] = acc
    return y


def reference_cg(row_ptr, col_idx, values, b, tol, max_iter):
    """Textbook conjugate gradient, written independently of the library solver.

    Uses the same conventions (x0 = 0, recurrence residual, relative
    residual recorded after the x-update) with a loop-based spmv.
    """
    n = len(b)
    x = np.zeros(n)
    r = np.array(b, dtype=float)
    p = r.copy()
    rr = float(np.dot(r, r))
    bnorm = math.sqrt(rr)
    if bnorm == 0.0:
        return x, 0, True
    iters = 0
    converged = False
    while iters < max_iter:
        Ap = spmv_loop(row_ptr, col_idx, values, p)
        pAp = float(np.dot(p, Ap))
        alpha = rr / pAp
        x += alpha * p
        r += (-alpha) * Ap
        rr_new = float(np.dot(r, r))
        iters += 1
        if math.sqrt(rr_new) / bnorm <= tol:
            converged = True
            break
        beta = rr_new / rr
        p *= beta
        p += r
        rr = rr_new
    return x, iters, converged


def sample_symmetry_loop(A, samples=64):
    """The symmetry sample, one entry at a time: every (nnz // samples)-th
    entry against its mirror, found by a searchsorted of the mirror row.
    Returns the first differing pair's message, or None."""
    entries = np.arange(0, A.nnz, max(1, A.nnz // samples))
    rows = np.searchsorted(A.row_ptr, entries, side="right") - 1
    for k, i, j in zip(entries.tolist(), rows.tolist(), A.col_idx[entries].tolist()):
        if i == j:
            continue
        lo, hi = int(A.row_ptr[j]), int(A.row_ptr[j + 1])
        pos = lo + int(np.searchsorted(A.col_idx[lo:hi], i))
        mirror = float(A.values[pos]) if pos < hi and A.col_idx[pos] == i else 0.0
        v = float(A.values[k])
        if abs(v - mirror) > 1e-12 * max(1.0, abs(v)):
            return f"a[{i},{j}]={v!r} but a[{j},{i}]={mirror!r}"
    return None


def balanced_split(total: int, devices: int) -> list[int]:
    """Fair division by dealing items one at a time to the least-loaded device.

    Starting from zero with lowest-index tie-break, least-loaded dealing
    is round-robin dealing, so item i lands on device i mod D; counting
    the deal stays independent of any closed-form chunk arithmetic.
    """
    used = min(devices, total)
    if total <= 512:
        counts = [0] * used
        for _ in range(total):
            counts[counts.index(min(counts))] += 1
        return counts
    return np.bincount(np.arange(total) % used, minlength=used).tolist()


def partitioned_cg(row_ptr, col_idx, values, b, tol, max_iter, ranges, history=None):
    """Conjugate gradient with every dot product split over device ranges.

    Each dot is one np.dot partial per (offset, count) range, summed from
    0.0 in ascending range order, as the schedule's host reduction does;
    the loop stops when ||r||/||b|| <= tol, checked after each iteration.
    Returns (x, iterations, final relative residual); each iteration's
    relative residual is also appended to history when it is a list.
    """
    def dot(u, v):
        total = 0.0
        for offset, count in ranges:
            total += float(np.dot(u[offset:offset + count], v[offset:offset + count]))
        return total

    b = np.array(b, dtype=float)
    x = np.zeros(len(b))
    r = b.copy()
    p = r.copy()
    bb = dot(b, b)
    relres = None
    for iters in range(1, max_iter + 1):
        rr = dot(r, r)
        Ap = spmv_loop(row_ptr, col_idx, values, p)
        alpha = rr / dot(p, Ap)
        x += alpha * p
        r += (-alpha) * Ap
        rr_new = dot(r, r)
        relres = math.sqrt(rr_new) / math.sqrt(bb)
        if history is not None:
            history.append(relres)
        if relres <= tol:
            break
        p *= rr_new / rr
        p += r
    return x, iters, relres


def per_launch_execute(model, schedule, bindings):
    """Run a loop-free schedule one launch range at a time, each intrinsic
    written out here over [lo:hi) alone, as one kernel launch per device
    computes it.  Dot partials are summed from 0.0 in ascending device
    order.  Only the storage, one array per connected port group, comes
    from the library.  Returns the root's out-port arrays by name.
    """
    groups = connected_port_groups(model)
    arrays = {}
    for path, comp in iter_instances(model, ComponentKind.APPLICATION):
        for port in comp.ports:
            group = groups[f"{path}.{port.name}" if path else port.name]
            if group not in arrays:
                arrays[group] = np.zeros(port.shape.total, dtype=port.data_type.value)
    root = model.root(ComponentKind.APPLICATION)
    for name, data in bindings.items():
        arrays[groups[name]][:] = data
    for step in schedule.steps:
        a = {port: arrays[group] for node, group in groups.items()
             for task, _, port in [node.rpartition(".")] if task == step.task_path}
        if isinstance(step, HostOp):
            if step.op == "div":
                a["q"][0] = a["num"][0] / a["den"][0]
            elif step.op == "neg":
                a["z"][0] = -a["a"][0]
            elif step.op == "rel_residual":
                a["z"][0] = math.sqrt(float(a["num"][0])) / math.sqrt(float(a["den"][0]))
            else:
                raise NotImplementedError(step.op)
            continue
        if not isinstance(step, DeviceStep):
            raise NotImplementedError(f"{type(step).__name__} in a per-launch oracle run")
        total = 0.0
        for launch in step.launches:
            lo, hi = launch.range.offset, launch.range.offset + launch.range.count
            if step.op == "spmv_csr":
                rowptr, colidx, values, x = a["rowptr"], a["colidx"], a["values"], a["x"]
                for i in range(lo, hi):
                    acc = 0.0
                    for k in range(int(rowptr[i]), int(rowptr[i + 1])):
                        acc += float(values[k]) * float(x[colidx[k]])
                    a["y"][i] = acc
            elif step.op == "dot_partial":
                total += float(np.dot(a["a"][lo:hi], a["b"][lo:hi]))
            elif step.op == "axpy":
                if "a" in a:
                    a["y"][lo:hi] += float(a["a"][0]) * a["x"][lo:hi]
                else:
                    a["y"][lo:hi] += a["x"][lo:hi]
            elif step.op == "scale":
                a["y"][lo:hi] *= float(a["a"][0])
            elif step.op == "copy":
                a["dst"][lo:hi] = a["src"][lo:hi]
            elif step.op == "sub":
                a["z"][lo:hi] = a["x"][lo:hi] - a["y"][lo:hi]
            else:
                raise NotImplementedError(step.op)
        if step.op == "dot_partial":
            a["s"][0] = total
    return {port.name: arrays[groups[port.name]].copy()
            for port in root.ports if port.direction is Direction.OUT}


# -- instance paths -----------------------------------------------------------

def reference_element_at(model, kind, path):
    """The part or port at a dotted path of one side, walked segment by
    segment from the root: each segment but the last names a part (the
    first declared of its name), the last a part or else a port."""
    segments = path.split(".") if path else []
    comp = model.root(kind)
    if comp is None or not segments or not all(segments):
        return None
    for seg in segments[:-1]:
        part = comp.part(seg)
        comp = model.component(kind, part.type_ref) if part is not None else None
        if comp is None:
            return None
    part = comp.part(segments[-1])
    return part if part is not None else comp.port(segments[-1])


# -- DSL tokenizer ------------------------------------------------------------
# The original tokenizer, kept as the reference: one regex match per token or
# whitespace run from the current position, one error per character that
# starts no token.

_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#.*)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?[KM]?)"
    r"|(?P<arrow>->)"
    r"|(?P<sym>[{}\[\]:=,.<])"
)


@dataclass(frozen=True)
class ReferenceTok:
    kind: str   # word | num | arrow | sym
    text: str
    line: int
    col: int
    is_float: bool = False
    value: float = 0.0
    suffix: str = ""


def reference_tokenize_line(text: str, line_no: int, errors: list[ParseError]) -> list[ReferenceTok]:
    toks: list[ReferenceTok] = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            errors.append(ParseError(SourceSpan(line_no, pos + 1, 1),
                                     "a token", repr(text[pos])))
            pos += 1
            continue
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "num":
            suffix = lexeme[-1] if lexeme[-1] in "KM" else ""
            body = lexeme[:-1] if suffix else lexeme
            is_float = any(c in body for c in ".eE")
            toks.append(ReferenceTok("num", lexeme, line_no, pos + 1,
                                is_float=is_float, value=float(body), suffix=suffix))
        elif kind not in ("ws", "comment"):
            toks.append(ReferenceTok(kind, lexeme, line_no, pos + 1))
        pos = m.end()
    return toks
