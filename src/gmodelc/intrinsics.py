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

Adding an intrinsic touches this module alone.  deployed_intrinsic, the
one record of a task's intrinsic, side and port passing, is the one check
and error message shared by codegen, `run` and `check`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .metamodel import (CompileContext, Component, ComponentKind, Diagnostic, Direction, FlowPort,
                        MemoryRole, Model, iter_instances)
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
    # "> 0" or ">= 0": the one value must be finite and so bounded, else the
    # executor raises BreakdownDetected before the host op runs
    bound: str = ""


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
    # the port whose element type the kernel's accumulator, acc_t in its
    # body, takes; a reduction's partials take it too
    acc: str = ""

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
    """Per-launch partial dots, summed from 0.0 in ascending device order.

    Adjacent ranges of equal length are one contiguous slice, so each run
    of them is one stacked vector @ vector np.matmul into the partials
    array; numpy computes each item with the BLAS dot that u.dot(v) calls,
    so every partial has the bits of u.dot(v) over its own range.  A
    single range is a run of one.
    """
    u, v, s = a["a"], a["b"], a["s"]
    runs = []       # [lo, hi, range length, range count]
    for lo, hi in ranges:
        if runs and runs[-1][1] == lo and runs[-1][2] == hi - lo:
            runs[-1][1] = hi
            runs[-1][3] += 1
        else:
            runs.append([lo, hi, hi - lo, 1])
    partials = np.empty(len(ranges))
    stacks, i = [], 0
    for lo, hi, n, m in runs:
        # views: a 1-D slice splits into (m, 1, n) without a copy
        stacks.append((u[lo:hi].reshape(m, 1, n), v[lo:hi].reshape(m, n, 1),
                       partials[i:i + m].reshape(m, 1, 1)))
        i += m

    def run():
        for u_run, v_run, out in stacks:
            np.matmul(u_run, v_run, out=out)
        total = 0.0
        for partial in partials.tolist():
            total += partial
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
            "acc_t acc = 0.0;",
            "for (int k = rowptr[i]; k < rowptr[i + 1]; ++k) {",
            "    acc += values[k] * x[colidx[k]];",
            "}",
            "y[i] = acc;",
        ), launch=_spmv_launch, acc="y"),
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
            "acc_t acc = 0.0;",
            "for (int k = gid; k < lim; ++k) {",
            "    acc += a[first + k] * b[first + k];",
            "}",
            "partials[get_group_id(0)] = acc;",
        ), launch=_dot_partial, reduce="s", acc="a"),
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
            PortSpec("den", _IN, scalar=True, bound="> 0"),
            PortSpec("q", _OUT, scalar=True),
        ), host_c="{q} = {num} / {den};", scalar=lambda num, den: num[0] / den[0]),
        IntrinsicSpec("neg", "host", (
            PortSpec("a", _IN, scalar=True),
            PortSpec("z", _OUT, scalar=True),
        ), host_c="{z} = -{a};", scalar=lambda a: -a[0]),
        # sqrt(num) / sqrt(den): relative norm from two squared norms
        IntrinsicSpec("rel_residual", "host", (
            PortSpec("num", _IN, scalar=True, bound=">= 0"),
            PortSpec("den", _IN, scalar=True, bound="> 0"),
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


class Passing(enum.Enum):
    """How a port reaches the task it belongs to."""
    HOST = "host"           # a host scalar: a host task's port or a reduction's sum
    VALUE = "value"         # a device task's in scalar in host RAM, passed by value
    GLOBAL = "global"       # a buffer in device global memory
    CONSTANT = "constant"   # a buffer in constant memory
    LOCAL = "local"         # work-group local memory of the port's size


class Deployment(NamedTuple):
    """An allocated leaf task's deployment record: its intrinsic, its side and,
    per port in declaration order, its Passing or why its memory cannot serve it."""
    spec: IntrinsicSpec
    on_host: bool
    ports: dict[str, Passing | str]


_MISSING = "{} port of a {} has no {} allocation (directly or via connected ports)"
_DEVICE_PASSING = {MemoryRole.DEVICE_CONSTANT: Passing.CONSTANT,
                   MemoryRole.DEVICE_LOCAL: Passing.LOCAL}


def port_passing(ctx: CompileContext, node: str, port: FlowPort, spec: IntrinsicSpec,
                 on_host: bool) -> Passing | str:
    """The one port-passing rule (README, "Deployment intrinsics"), from the
    role of the memory the port's group lives in; a problem is the message
    of a diagnostic.  Private memory passes as global: the placement rules
    reject it for the whole port group."""
    role = ctx.home(node)
    if on_host or port.name == spec.reduce:
        return Passing.HOST if role is MemoryRole.HOST_RAM else _MISSING.format(
            port.direction.value, "host task" if on_host else "reduction", "host-memory")
    in_scalar = port.direction is Direction.IN and spec.port_spec(port.name).scalar
    if role is MemoryRole.HOST_RAM and port.shape.total > 1:
        return "host-memory allocation for a device task port must be scalar"
    if role is MemoryRole.HOST_RAM and in_scalar:
        return Passing.VALUE
    if role in (None, MemoryRole.HOST_RAM):
        return _MISSING.format(port.direction.value, "device task",
                               "data" if in_scalar else "device-memory")
    return _DEVICE_PASSING.get(role, Passing.GLOBAL)


def deployed_intrinsic(ctx: CompileContext, task_path: str) -> Deployment:
    """An allocated leaf task's Deployment, built once per context: its
    intrinsic with its signature checked, its kind matched against its
    processor's side, as the schedule decides it, and no output port
    connected to an input port, which would make them one array.  Raises
    UnknownIntrinsic or IntrinsicShapeMismatch.

    The signature depends only on the task's component, so it is checked
    once per leaf type: a passing check is kept in ctx.signatures by
    component name, and a failing one runs, and raises with the task's own
    path, for each task of that type."""
    record = ctx.deployments.get(task_path)
    if record is None:
        comp = ctx.component_at(ComponentKind.APPLICATION, task_path)
        spec = ctx.signatures.get(comp.name)
        if spec is None:
            spec = ctx.signatures[comp.name] = check_task_signature(task_path, comp)
        on_host = ctx.is_host_processor(ctx.task_targets[task_path])
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
        record = ctx.deployments[task_path] = Deployment(spec, on_host, {
            port.name: port_passing(ctx, f"{task_path}.{port.name}", port, spec, on_host)
            for port in comp.ports})
    return record


def deployment_diagnostics(model: Model) -> list[Diagnostic]:
    """The errors that codegen and `run` would meet past conformance: per
    group of the placement table, each link to a second memory, each linked
    port in private memory (no kernel argument can be) and each port but
    an `in` one in constant memory; per allocated task, the error of
    deployed_intrinsic or each problem of its Deployment; in pre-order,
    each unallocated leaf task and each loop's until port not in host RAM;
    then each root port that is inout or has more than one element in host
    RAM.  Expects a model without conformance errors."""
    ctx = model.context
    diags: list[Diagnostic] = []

    for group, (memory, role, linked, strays) in ctx.placements.items():
        diags += [Diagnostic("error", port, f"data allocation onto '{other}' names a second "
                                            f"memory: its port group lives in '{memory}'")
                  for port, other in strays]
        if role is MemoryRole.DEVICE_PRIVATE:
            diags += [Diagnostic("error", port, f"port group in private memory '{memory}': a "
                                                "kernel argument must be in global, constant "
                                                "or local memory") for port in linked]
        elif role is MemoryRole.DEVICE_CONSTANT:
            ports = ((node, ctx.element_at(ComponentKind.APPLICATION, node))
                     for node in sorted(group))
            diags += [Diagnostic("error", node, f"{port.direction.value} port in constant memory "
                                                f"'{memory}', which kernels only read")
                      for node, port in ports if port.direction is not Direction.IN]

    for task_path in ctx.task_targets:
        try:
            record = deployed_intrinsic(ctx, task_path)
        except (UnknownIntrinsic, IntrinsicShapeMismatch) as exc:
            diags.append(Diagnostic("error", task_path, str(exc)))
            continue
        diags += [Diagnostic("error", f"{task_path}.{name}", how)
                  for name, how in record.ports.items() if isinstance(how, str)]
    for path, comp in iter_instances(model, ComponentKind.APPLICATION):
        if path and comp.is_leaf_task and path not in ctx.task_targets:
            diags.append(Diagnostic("error", path, str(UnallocatedTask(path))))
        elif path and comp.until is not None:
            node = f"{path}.{comp.until.port}"
            if ctx.home(node) is not MemoryRole.HOST_RAM:
                diags.append(Diagnostic("error", node,
                                        _MISSING.format("until", "loop", "host-memory")))
    for port in model.root(ComponentKind.APPLICATION).ports:
        if port.direction is Direction.INOUT:
            diags.append(Diagnostic("error", port.name, f"root port '{port.name}' is inout, but "
                                    "the host program only loads in ports and stores out ports"))
        elif port.shape.total > 1 and ctx.home(port.name) is MemoryRole.HOST_RAM:
            diags.append(Diagnostic("error", port.name, f"root port '{port.name}' has "
                                    f"{port.shape.total} elements but lives in host memory, "
                                    "where the host program keeps one scalar"))
    return diags
