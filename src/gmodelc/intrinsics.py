"""Deployment intrinsics: the one definition of each leaf-task operation.

A leaf task deploys an intrinsic by name, and its IntrinsicSpec in
INTRINSICS is all that codegen, the reference executor and `gmodelc
check` know of it:

- its port signature: a task deploying it declares exactly its ports
  (optional ones may be omitted)
- a device intrinsic's OpenCL kernel body and the function that makes
  the numpy closure running a launch range in the reference executor
- a host intrinsic's host-C statement and the scalar function the
  reference executor applies

Adding an intrinsic touches this module alone.  deployed_intrinsic is
the one check, and the one error message, shared by codegen, `run` and
`check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metamodel import (AllocKind, CompileContext, Component, ComponentKind, Diagnostic,
                        Direction, MemoryRole, Model, iter_instances)
from .partition import UnallocatedTask


class UnknownIntrinsic(ValueError):
    def __init__(self, task_path: str, op_name: str):
        super().__init__(f"task '{task_path}' deploys unknown intrinsic '{op_name}'")
        self.task_path = task_path
        self.op_name = op_name


class IntrinsicShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class PortSpec:
    name: str
    direction: Direction
    scalar: bool = False       # shape total must be exactly 1
    integer: bool = False      # int32/int64 expected instead of float
    optional: bool = False
    positive: bool = False     # finite and > 0, else the executor's BreakdownDetected


@dataclass(frozen=True)
class IntrinsicSpec:
    name: str
    kind: str  # "device" or "host"
    ports: tuple[PortSpec, ...]
    # device: the OpenCL kernel body, and launch(arrays, lo, hi), a closure
    # running elements lo..hi-1 over the task's arrays by port name.  A
    # launch without a reduction is separable: one over [lo:hi) writes the
    # same bytes as launches over any split of it, so the reference executor
    # runs such a step as one closure over the range its device launches tile
    kernel: tuple[str, ...] = ()
    launch: Callable | None = None
    # host: the C statement over {port} names, and the scalar function of
    # the in ports' one-element arrays, in port order, that gives the out
    # port's value
    host_c: str = ""
    scalar: Callable | None = None
    # a two-stage reduction: the kernel writes one partial per work group
    # and the host sums them, in ascending device order, into this out
    # port; launch is then launch(arrays, ranges), one closure per step
    # keeping one partial per device range, the one place where the device
    # partition changes the numbers
    reduce: str | None = None
    # the kernel body of a task that omits the optional ports
    bare: tuple[str, ...] = ()

    def port_spec(self, name: str) -> PortSpec | None:
        for spec in self.ports:
            if spec.name == name:
                return spec
        return None

    def kernel_body(self, comp: Component) -> tuple[str, ...]:
        if self.bare and any(comp.port(p.name) is None for p in self.ports if p.optional):
            return self.bare
        return self.kernel


# The kernel prologue of an elementwise range: work-item gid handles
# element i, and the guard drops the work-items past the range.
RANGE_PROLOGUE = (
    "const int gid = get_global_id(0);",
    "if (gid >= count) return;",
    "const int i = first + gid;",
)


# Launch closures.  A closure binds views of the storage arrays once; that
# holds because storage arrays are written only in place and never rebound
# while the schedule runs.

def _spmv_launch(a, lo, hi):
    from .refexec import spmv_launch    # refexec imports this module
    return spmv_launch(a, lo, hi)


def _dot_partial(a, ranges):
    """Per-launch partial dots, summed from 0.0 in ascending device order."""
    pairs = [(a["a"][lo:hi], a["b"][lo:hi]) for lo, hi in ranges]
    s = a["s"]

    def run():
        total = 0.0
        for u, v in pairs:
            total += float(u.dot(v))
        s[0] = total
    return run


# The most elements a scaled axpy multiplies into its temporary at a time:
# 2^14 float64 keep it at 128 KiB, so the add re-reads it from cache, not
# from memory.  axpy is separable, so the chunks give the same bytes.
AXPY_CHUNK = 1 << 14


def _axpy(a, lo, hi):
    y, x = a["y"][lo:hi], a["x"][lo:hi]
    if "a" not in a:
        def run():
            np.add(y, x, out=y)
        return run
    scalar, scaled = a["a"], np.empty_like(x[:AXPY_CHUNK])
    chunks = [(y[k:k + AXPY_CHUNK], x[k:k + AXPY_CHUNK], scaled[:min(AXPY_CHUNK, hi - lo - k)])
              for k in range(0, hi - lo, AXPY_CHUNK)]

    def run():
        factor = float(scalar[0])
        for y_chunk, x_chunk, scaled_chunk in chunks:
            np.multiply(factor, x_chunk, out=scaled_chunk)
            np.add(y_chunk, scaled_chunk, out=y_chunk)
    return run


def _scale(a, lo, hi):
    y, scalar = a["y"][lo:hi], a["a"]

    def run():
        np.multiply(y, float(scalar[0]), out=y)
    return run


def _copy(a, lo, hi):
    src, dst = a["src"][lo:hi], a["dst"][lo:hi]

    def run():
        dst[...] = src
    return run


def _sub(a, lo, hi):
    x, y, z = a["x"][lo:hi], a["y"][lo:hi], a["z"][lo:hi]

    def run():
        np.subtract(x, y, out=z)
    return run


_IN, _OUT, _INOUT = Direction.IN, Direction.OUT, Direction.INOUT

INTRINSICS: dict[str, IntrinsicSpec] = {
    spec.name: spec for spec in (
        # sparse y = A x over CSR rows; repetition space = row count
        IntrinsicSpec("spmv_csr", "device", (
            PortSpec("rowptr", _IN, integer=True),
            PortSpec("colidx", _IN, integer=True),
            PortSpec("values", _IN),
            PortSpec("x", _IN),
            PortSpec("y", _OUT),
        ), kernel=RANGE_PROLOGUE + (
            "double acc = 0.0;",
            "for (int k = rowptr[i]; k < rowptr[i + 1]; ++k) {",
            "    acc += values[k] * x[colidx[k]];",
            "}",
            "y[i] = acc;",
        ), launch=_spmv_launch),
        # per-work-group partial dot products, reduced to s on the host.
        # One accumulator work-item per work-group: no barriers, so the
        # range guard may return early without deadlocking the group.
        IntrinsicSpec("dot_partial", "device", (
            PortSpec("a", _IN),
            PortSpec("b", _IN),
            PortSpec("s", _OUT, scalar=True),
        ), kernel=RANGE_PROLOGUE[:2] + (
            "if (get_local_id(0) != 0) return;",
            "int lim = gid + (int)get_local_size(0);",
            "if (lim > count) lim = count;",
            "double acc = 0.0;",
            "for (int k = gid; k < lim; ++k) {",
            "    acc += a[first + k] * b[first + k];",
            "}",
            "partials[get_group_id(0)] = acc;",
        ), launch=_dot_partial, reduce="s"),
        # y += a * x; with the a port omitted the increment is plain y += x
        IntrinsicSpec("axpy", "device", (
            PortSpec("y", _INOUT),
            PortSpec("x", _IN),
            PortSpec("a", _IN, scalar=True, optional=True),
        ), kernel=RANGE_PROLOGUE + ("y[i] += a * x[i];",), launch=_axpy,
            bare=RANGE_PROLOGUE + ("y[i] += x[i];",)),
        IntrinsicSpec("scale", "device", (
            PortSpec("y", _INOUT),
            PortSpec("a", _IN, scalar=True),
        ), kernel=RANGE_PROLOGUE + ("y[i] *= a;",), launch=_scale),
        IntrinsicSpec("copy", "device", (
            PortSpec("src", _IN),
            PortSpec("dst", _OUT),
        ), kernel=RANGE_PROLOGUE + ("dst[i] = src[i];",), launch=_copy),
        IntrinsicSpec("sub", "device", (
            PortSpec("x", _IN),
            PortSpec("y", _IN),
            PortSpec("z", _OUT),
        ), kernel=RANGE_PROLOGUE + ("z[i] = x[i] - y[i];",), launch=_sub),
        # q = num / den, den finite and > 0: CG's p.Ap for alpha, r.r for beta
        IntrinsicSpec("div", "host", (
            PortSpec("num", _IN, scalar=True),
            PortSpec("den", _IN, scalar=True, positive=True),
            PortSpec("q", _OUT, scalar=True),
        ), host_c="{q} = {num} / {den};", scalar=lambda num, den: num[0] / den[0]),
        IntrinsicSpec("neg", "host", (
            PortSpec("a", _IN, scalar=True),
            PortSpec("z", _OUT, scalar=True),
        ), host_c="{z} = -{a};", scalar=lambda a: -a[0]),
        # sqrt(num) / sqrt(den): relative norm from two squared norms
        IntrinsicSpec("rel_residual", "host", (
            PortSpec("num", _IN, scalar=True),
            PortSpec("den", _IN, scalar=True),
            PortSpec("z", _OUT, scalar=True),
        ), host_c="{z} = sqrt({num}) / sqrt({den});",
            scalar=lambda num, den: math.sqrt(float(num[0])) / math.sqrt(float(den[0]))),
    )
}


def check_task_signature(task_path: str, comp: Component) -> IntrinsicSpec:
    """Validate a leaf task's ports against its deployed intrinsic.

    Raises UnknownIntrinsic or IntrinsicShapeMismatch; returns the spec.
    """
    op = comp.elementary_op
    if op is None or op not in INTRINSICS:
        raise UnknownIntrinsic(task_path, op or "<none>")
    spec = INTRINSICS[op]
    declared = {p.name for p in comp.ports}
    expected = {s.name for s in spec.ports}
    required = {s.name for s in spec.ports if not s.optional}
    if not required <= declared or not declared <= expected:
        raise IntrinsicShapeMismatch(
            f"task '{task_path}': intrinsic '{op}' expects ports "
            f"{sorted(expected)} (optional: {sorted(expected - required)}), "
            f"got {sorted(declared)}")
    extents: set[int] = set()
    for port in comp.ports:
        pspec = spec.port_spec(port.name)
        if pspec.direction is not port.direction:
            raise IntrinsicShapeMismatch(
                f"task '{task_path}': port '{port.name}' must be {pspec.direction.value}")
        if pspec.integer != (not port.data_type.is_float):
            kind = "an integer" if pspec.integer else "a floating-point"
            raise IntrinsicShapeMismatch(
                f"task '{task_path}': port '{port.name}' must have {kind} type")
        if pspec.scalar:
            if port.shape.total != 1:
                raise IntrinsicShapeMismatch(
                    f"task '{task_path}': port '{port.name}' must be scalar")
        elif port.name not in ("rowptr", "colidx", "values"):
            extents.add(port.shape.total)
    if spec.kind == "device":
        if len(extents) > 1:
            raise IntrinsicShapeMismatch(
                f"task '{task_path}': vector ports disagree on extent: {sorted(extents)}")
        repeat = comp.repetition_space.total if comp.repetition_space else 1
        if extents and repeat not in (1, next(iter(extents))):
            raise IntrinsicShapeMismatch(
                f"task '{task_path}': repetition space {repeat} does not match "
                f"vector extent {next(iter(extents))}")
        if op == "spmv_csr":
            rowptr = comp.port("rowptr")
            n = comp.port("y").shape.total
            if rowptr.shape.total != n + 1:
                raise IntrinsicShapeMismatch(
                    f"task '{task_path}': rowptr extent must be row count + 1")
            if comp.port("colidx").shape.total != comp.port("values").shape.total:
                raise IntrinsicShapeMismatch(
                    f"task '{task_path}': colidx and values extents differ")
    return spec


def deployed_intrinsic(ctx: CompileContext, task_path: str, on_host: bool) -> IntrinsicSpec:
    """The spec of a leaf task's intrinsic, with its signature checked, its
    kind matched against the processor the task is allocated to, and no
    output port connected to one of its input ports, which would make them
    one array; checked once per context.

    Raises UnknownIntrinsic or IntrinsicShapeMismatch.
    """
    key = (task_path, on_host)
    if key not in ctx.intrinsics:
        comp = ctx.component_at(ComponentKind.APPLICATION, task_path)
        spec = check_task_signature(task_path, comp)
        where = "host" if on_host else "device"
        if spec.kind != where:
            raise IntrinsicShapeMismatch(
                f"task '{task_path}': {spec.kind} intrinsic '{spec.name}' is allocated "
                f"to a {where} processor")
        group = {p.name: ctx.port_groups[f"{task_path}.{p.name}"] for p in comp.ports}
        for out in comp.ports:
            for other in comp.ports:
                if out.direction is Direction.OUT and other.direction is Direction.IN \
                        and group[other.name] is group[out.name]:
                    raise IntrinsicShapeMismatch(
                        f"task '{task_path}': output port '{out.name}' aliases "
                        f"input port '{other.name}'")
        ctx.intrinsics[key] = spec
    return ctx.intrinsics[key]


def deployment_diagnostics(model: Model) -> list[Diagnostic]:
    """One error per leaf task that codegen and `run` would reject, with
    the message of deployed_intrinsic or the schedule: first each allocated
    task in allocation order (an unknown intrinsic, a port signature, a
    processor kind or an output aliasing an input), then each unallocated
    one in pre-order.  Then one error per root port of more
    than one element whose storage is allocated to host memory alone: the
    host program keeps one scalar for it.  Expects a model without
    conformance errors."""
    ctx = model.context
    diags: list[Diagnostic] = []
    for task_path, target in ctx.task_targets.items():
        try:
            deployed_intrinsic(ctx, task_path, ctx.is_host_processor(target))
        except (UnknownIntrinsic, IntrinsicShapeMismatch) as exc:
            diags.append(Diagnostic("error", task_path, str(exc)))
    for task_path, comp in iter_instances(model, ComponentKind.APPLICATION):
        if task_path and comp.is_leaf_task and task_path not in ctx.task_targets:
            diags.append(Diagnostic("error", task_path, str(UnallocatedTask(task_path))))
    on_host: set[str] = set()
    on_device: set[str] = set()
    for link in model.allocations:
        if link.kind is AllocKind.DATA:
            host = ctx.memory_role_of(link.target_path) is MemoryRole.HOST_RAM
            (on_host if host else on_device).add(link.source_path)
    for port in model.root(ComponentKind.APPLICATION).ports:
        group = ctx.port_groups[port.name]
        if port.shape.total > 1 and group & on_host and not group & on_device:
            diags.append(Diagnostic(
                "error", port.name,
                f"root port '{port.name}' has {port.shape.total} elements but is allocated "
                "to host memory alone, where the host program keeps one scalar"))
    return diags
