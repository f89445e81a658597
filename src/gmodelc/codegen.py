"""OpenCL 1.1 source generation: one kernel file and one host file per model.

Code is emitted as data.  The kernel file holds one kernel per signature:
the intrinsic, its kernel body and its parameter declarations, which come
from the task's deployment record and ports alone.  A kernel is named
from its intrinsic and element types, as k_copy_f64 (k_copy_f64_2 for a
second signature of that name), and its comment lists the tasks that use
it.  The host file holds a static const table per device step, one row
per launch, that run_step enqueues row by row; identifiers come from step
indices and the memory maps (buf_*, h_*), and task paths go into
comments.  Each loop of the schedule is a for loop with its own counter,
bounded by its repeat count; iters counts every body run of every loop,
and converged holds when every loop ended below its tolerance.  A
reduction is two-stage: per-work-group partials on the device, summed on
the host in ascending device order.  Element types are kept in loads,
stores, scalars and partials, and output is byte-deterministic.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import NamedTuple

from .intrinsics import IntrinsicSpec, Passing, deployed_intrinsic
from .memmap import MemoryMap
from .metamodel import (CompileContext, ComponentKind, DataType, Direction, FlowPort, MemoryRole,
                        Model)
from .partition import HostOp, LoopStep, Schedule


@dataclass(frozen=True)
class GeneratedUnit:
    file_name: str
    contents: str


_C_TYPES = {DataType.FLOAT32: "float", DataType.FLOAT64: "double",
            DataType.INT32: "int", DataType.INT64: "long"}

# kernel name suffixes
_TYPE_TAGS = {DataType.FLOAT32: "f32", DataType.FLOAT64: "f64",
              DataType.INT32: "i32", DataType.INT64: "i64"}

# The host's text-file routines per element type, in the order they are
# emitted: name suffix, fscanf format, fprintf format.
_C_IO = {DataType.FLOAT64: ("doubles", "%lf", "%.17g"),
         DataType.FLOAT32: ("floats", "%f", "%.9g"),
         DataType.INT32: ("ints", "%d", "%d"),
         DataType.INT64: ("longs", "%ld", "%ld")}


_KEYWORDS = {Passing.GLOBAL: "__global ", Passing.CONSTANT: "__constant ",
             Passing.LOCAL: "__local "}


class _Task(NamedTuple):
    """A device task's intrinsic, kernel arguments (port, Passing) in spec
    order, partials type and signature (intrinsic, body, declarations)."""
    spec: IntrinsicSpec
    args: tuple[tuple[FlowPort, Passing], ...]
    partials: DataType | None
    signature: tuple


def _kernel_task(ctx: CompileContext, task_path: str) -> _Task:
    """A device task's _Task, from its deployment record and its ports."""
    comp = ctx.component_at(ComponentKind.APPLICATION, task_path)
    record = deployed_intrinsic(ctx, task_path)
    spec = record.spec
    args, decls = [], ["const int first", "const int count"]
    for pspec in spec.ports:
        how = record.ports.get(pspec.name)
        if how is None or how is Passing.HOST:      # omitted, or a sum the host makes
            continue
        port = comp.port(pspec.name)
        args.append((port, how))
        ctype = _C_TYPES[port.data_type]
        if how is Passing.VALUE:
            decls.append(f"const {ctype} {port.name}")
        else:
            read_only = how is Passing.GLOBAL and port.direction is Direction.IN
            decls.append(f"{_KEYWORDS[how]}{'const ' if read_only else ''}{ctype}* {port.name}")
    partials = comp.port(spec.acc).data_type if spec.reduce else None
    if partials:
        decls.append(f"__global {_C_TYPES[partials]}* partials")
    acc = _C_TYPES[comp.port(spec.acc).data_type] if spec.acc else ""
    body = tuple(line.replace("acc_t", acc) for line in spec.kernel_body(comp))
    return _Task(spec, tuple(args), partials, (spec.name, body, tuple(decls)))


class _Kernel(NamedTuple):
    name: str
    task: _Task                 # the first task of its signature
    paths: list[str]


def _device_steps(ctx: CompileContext, schedule: Schedule) -> tuple[list, list[_Kernel]]:
    """Each device step with its _Task, kept on ctx, and _Kernel, and the
    kernels in order of first use."""
    kernels: dict[tuple, _Kernel] = {}
    names: set[str] = set()
    steps = []
    for step in schedule.device_steps():
        path = step.task_path
        task = ctx.kernels.get(path)
        if task is None:
            task = ctx.kernels[path] = _kernel_task(ctx, path)
        kernel = kernels.get(task.signature)
        if kernel is None:
            tags = dict.fromkeys(_TYPE_TAGS[dtype] for dtype in (
                *(port.data_type for port, _ in task.args), task.partials) if dtype)
            base = "_".join(("k", task.spec.name, *tags))
            name, n = base, 1
            while name in names:
                n += 1
                name = f"{base}_{n}"
            names.add(name)
            kernel = kernels[task.signature] = _Kernel(name, task, [])
        kernel.paths.append(path)
        steps.append((step, task, kernel))
    return steps, list(kernels.values())


def _comment(text: str) -> list[str]:
    """A C comment of text, wrapped at spaces to lines of at most 94 characters."""
    if len(text) <= 88:
        return [f"/* {text} */"]
    lines = textwrap.wrap(text, 88, break_long_words=False, break_on_hyphens=False)
    lines[-1] += " */"
    return ["/* " + lines[0]] + [" * " + line for line in lines[1:]]


def generate_kernels(model: Model, maps: list[MemoryMap], schedule: Schedule) -> GeneratedUnit:
    """Emit the kernel source file: one entry point per distinct signature.
    Kernels name no allocation, so maps is not read."""
    name = model.application_root
    out = ["/*", f" * OpenCL kernels for model '{name}'.",
           f" * generated by gmodelc; model digest sha256:{model.context.digest}", " */"]
    _, kernels = _device_steps(model.context, schedule)
    if any("double" in text for k in kernels for text in (*k.task.signature[1],
                                                         *k.task.signature[2])):
        out += ["", "#pragma OPENCL EXTENSION cl_khr_fp64 : enable"]
    for kernel in kernels:
        spec_name, body, decls = kernel.task.signature
        head = f"__kernel void {kernel.name}("
        out += ["", *_comment(f"{spec_name}: {', '.join(kernel.paths)}"),
                head + (",\n" + " " * len(head)).join(decls) + ")",
                "{", *("    " + line for line in body), "}"]
    return GeneratedUnit(file_name=f"{name}_kernels.cl", contents="\n".join(out) + "\n")


# -- host program -------------------------------------------------------------


def _float_literal(value: float) -> str:
    text = repr(float(value))
    return text if any(c in text for c in ".einf") else text + ".0"


_HOST_PRELUDE = r"""#include <CL/cl.h>
#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define CHECK(err, what) \
    do { if ((err) != CL_SUCCESS) { \
        fprintf(stderr, "%s failed: %d\n", (what), (int)(err)); \
        exit(2); } } while (0)

static char* read_text_file(const char* path, size_t* size_out)
{
    FILE* f = fopen(path, "rb");
    if (!f) { fprintf(stderr, "cannot open %s\n", path); exit(2); }
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    fseek(f, 0, SEEK_SET);
    char* text = (char*)malloc((size_t)size + 1);
    fread(text, 1, (size_t)size, f);
    text[size] = 0;
    fclose(f);
    if (size_out) *size_out = (size_t)size;
    return text;
}
"""

_LOAD = """
static void load_{suffix}(const char* path, {ctype}* out, long count)
{{
    FILE* f = fopen(path, "r");
    if (!f) {{ fprintf(stderr, "cannot open %s\\n", path); exit(2); }}
    for (long i = 0; i < count; ++i) {{
        if (fscanf(f, "{scan}", &out[i]) != 1) {{ fclose(f); exit(2); }}
    }}
    fclose(f);
}}
"""

_STORE = """
static void store_{suffix}(const char* path, const {ctype}* data, long count)
{{
    FILE* f = fopen(path, "w");
    if (!f) {{ fprintf(stderr, "cannot open %s\\n", path); exit(2); }}
    for (long i = 0; i < count; ++i) fprintf(f, "{show}\\n", data[i]);
    fclose(f);
}}
"""

_LAUNCH_TABLES = """
/* a kernel argument after first and count, as clSetKernelArg takes it */
typedef struct { size_t size; const void* value; } arg_t;

/* one launch: a row of its device step's table */
typedef struct {
    int kernel;
    int queue;
    cl_int first, count;
    size_t global_size, local_size;
    const arg_t* args;          /* ends at the first of size 0 */
    const cl_mem* partials;     /* a reduction's partials buffer, or NULL */
} launch_t;

/* Set each row's arguments and enqueue it, then wait for every row's
 * queue.  Kernel arguments are captured at enqueue (OpenCL 1.1, 5.7.2),
 * so one cl_kernel serves all the rows of its kernel. */
static void run_step(const launch_t* rows, int count)
{
    for (int r = 0; r < count; ++r) {
        const launch_t* row = &rows[r];
        cl_kernel kernel = kernels[row->kernel];
        cl_uint index = 0;
        cl_int err = clSetKernelArg(kernel, index++, sizeof(cl_int), &row->first);
        if (err == CL_SUCCESS) err = clSetKernelArg(kernel, index++, sizeof(cl_int), &row->count);
        for (const arg_t* arg = row->args; err == CL_SUCCESS && arg->size; ++arg)
            err = clSetKernelArg(kernel, index++, arg->size, arg->value);
        if (err == CL_SUCCESS && row->partials)
            err = clSetKernelArg(kernel, index, sizeof(cl_mem), row->partials);
        CHECK(err, "clSetKernelArg");
        err = clEnqueueNDRangeKernel(queues[row->queue], kernel, 1, NULL, &row->global_size,
                                     &row->local_size, 0, NULL, NULL);
        CHECK(err, kernel_names[row->kernel]);
    }
    for (int r = 0; r < count; ++r) clFinish(queues[rows[r].queue]);
}
"""

_SUM = """
/* a reduction step's result: its partials summed row by row, from 0 */
static {ctype} sum_{suffix}(const launch_t* rows, int count)
{{
    static {ctype} staged[{groups}];
    {ctype} sum = 0;
    for (int r = 0; r < count; ++r) {{
        size_t groups = rows[r].global_size / rows[r].local_size;
        cl_int err = clEnqueueReadBuffer(queues[rows[r].queue], *rows[r].partials, CL_TRUE, 0,
                                         groups * sizeof({ctype}), staged, 0, NULL, NULL);
        CHECK(err, "read partials");
        for (size_t g = 0; g < groups; ++g) sum += staged[g];
    }}
    return sum;
}}
"""

_MAIN = """
int main(void)
{{
    cl_int err;
    cl_platform_id cl_platform;
    err = clGetPlatformIDs(1, &cl_platform, NULL);
    CHECK(err, "clGetPlatformIDs");
    cl_device_id devices[DEVICE_COUNT];
    err = clGetDeviceIDs(cl_platform, CL_DEVICE_TYPE_ALL, DEVICE_COUNT, devices, NULL);
    CHECK(err, "clGetDeviceIDs");
    cl_context context = clCreateContext(NULL, DEVICE_COUNT, devices, NULL, NULL, &err);
    CHECK(err, "clCreateContext");
    for (int d = 0; d < DEVICE_COUNT; ++d) {{
        queues[d] = clCreateCommandQueue(context, devices[d], 0, &err);
        CHECK(err, "clCreateCommandQueue");
    }}

    size_t source_size;
    char* source = read_text_file("{name}_kernels.cl", &source_size);
    cl_program program = clCreateProgramWithSource(context, 1, (const char**)&source,
                                                   &source_size, &err);
    CHECK(err, "clCreateProgramWithSource");
    err = clBuildProgram(program, DEVICE_COUNT, devices, NULL, NULL, NULL);
    CHECK(err, "clBuildProgram");
"""


def _arg(name: str, port: FlowPort, how: Passing) -> str:
    """A step's argument entry for a port whose allocation is named name."""
    if how is Passing.VALUE:
        return f"{{sizeof({_C_TYPES[port.data_type]}), &h_{name}}}"
    if how is Passing.LOCAL:
        return f"{{{port.shape.total * port.data_type.size_bytes}, NULL}}"
    return f"{{sizeof(cl_mem), &buf_{name}}}"


def generate_host(model: Model, maps: list[MemoryMap], schedule: Schedule,
                  device_count: int) -> GeneratedUnit:
    """Emit the host orchestration source for device_count logical devices."""
    if device_count < 1:
        raise ValueError("device_count must be positive")
    ctx = model.context
    name = model.application_root
    steps, kernels = _device_steps(ctx, schedule)
    # each port node's allocation name; each allocation, on its memory's side
    names = {node: alloc.name for mm in maps for alloc in mm.data_allocations
             for node in alloc.associated_parts}
    host_allocs, device_allocs = [], []
    for mm in maps:
        on_host = ctx.memory_role_of(mm.owner_path) is MemoryRole.HOST_RAM
        (host_allocs if on_host else device_allocs).extend(mm.data_allocations)

    # the body of main, from the kernels on; the types the root's in ports
    # are loaded as and its out ports stored as, to emit their routines
    body = []
    if kernels:
        body += ["for (int k = 0; k < KERNEL_COUNT; ++k) {",
                 "    kernels[k] = clCreateKernel(program, kernel_names[k], &err);",
                 "    CHECK(err, kernel_names[k]);",
                 "}"]
    body.append("")
    for alloc in device_allocs:
        body += [f"buf_{alloc.name} = clCreateBuffer(context, CL_MEM_READ_WRITE, "
                 f"{alloc.size_bytes}, NULL, &err);",
                 f'CHECK(err, "clCreateBuffer {alloc.name}");']
    # one partials buffer per device, for the largest of the reduction
    # launches; each reduction is read back before the next runs
    reduced = {task.partials for _, task, _ in steps if task.partials}
    groups = max((l.global_size // l.local_size for step, task, _ in steps if task.partials
                  for l in step.launches), default=0)
    if reduced:
        size = groups * max(dtype.size_bytes for dtype in reduced)
        body += ["for (int d = 0; d < DEVICE_COUNT; ++d) {",
                 f"    partials[d] = clCreateBuffer(context, CL_MEM_READ_WRITE, {size}, "
                 "NULL, &err);",
                 '    CHECK(err, "clCreateBuffer partials");',
                 "}"]
    # each root in port's allocation is loaded once, and each out port
    # stored: a device allocation is uploaded and read back, a host one
    # loaded into and stored from h_<name>; check rejects an inout root port
    body += ["", "/* load and upload input data */"]
    stores = ["", "/* read back and store outputs */"]
    loaded, stored = {DataType.FLOAT64, DataType.INT32}, {DataType.FLOAT64}
    uploaded: set[str] = set()
    for port in model.root(ComponentKind.APPLICATION).ports:
        c = names.get(port.name)
        if c is None:
            continue
        n, dtype = port.shape.total, port.data_type
        ctype, suffix, size = _C_TYPES[dtype], _C_IO[dtype][0], n * dtype.size_bytes
        on_host = ctx.home(port.name) is MemoryRole.HOST_RAM
        if port.direction is not Direction.IN:
            stored.add(dtype)
            stores += [f'store_{suffix}("{name}_{port.name}_out.txt", &h_{c}, 1);'] if on_host \
                else [f"{ctype}* out_{c} = ({ctype}*)malloc({size});",
                      f"err = clEnqueueReadBuffer(queues[0], buf_{c}, CL_TRUE, 0, "
                      f"{size}, out_{c}, 0, NULL, NULL);",
                      f'CHECK(err, "read {c}");',
                      f'store_{suffix}("{name}_{port.name}_out.txt", out_{c}, {n});']
        elif c not in uploaded:
            uploaded.add(c)
            loaded.add(dtype)
            body += [f'load_{suffix}("{name}_{port.name}.txt", &h_{c}, 1);'] if on_host \
                else [f"{ctype}* in_{c} = ({ctype}*)malloc({size});",
                      f'load_{suffix}("{name}_{port.name}.txt", in_{c}, {n});',
                      f"err = clEnqueueWriteBuffer(queues[0], buf_{c}, CL_TRUE, 0, "
                      f"{size}, in_{c}, 0, NULL, NULL);",
                      f'CHECK(err, "write {c}");']
    body += ["", "int iters = 0;", "int converged = 1;", ""]

    # device steps are numbered in device_steps() order, which is this walk's
    number = 0
    for top in schedule.steps:
        loop = top if isinstance(top, LoopStep) else None
        pad = "    " if loop else ""
        if loop:
            relres, tol = f"h_{names[loop.relres_port]}", _float_literal(loop.tolerance)
            body += [f"/* loop {loop.task_path}: until {relres} < {tol} */",
                     f"for (int it = 0; it < {loop.max_iterations}; ++it) {{"]
        for step in loop.body if loop else (top,):
            if isinstance(step, HostOp):
                record = deployed_intrinsic(ctx, step.task_path)
                body.append(pad + record.spec.host_c.format_map(
                    {port: f"h_{names[f'{step.task_path}.{port}']}" for port in record.ports}))
                continue
            task = steps[number][1]
            call = f"(step_{number}, {len(step.launches)});"
            body.append(f"{pad}run_step{call}")
            if task.partials:
                s = names[f"{step.task_path}.{task.spec.reduce}"]
                body.append(f"{pad}h_{s} = sum_{_C_IO[task.partials][0]}{call}")
            number += 1
        if loop:
            body += ["    ++iters;", f"    if ({relres} < {tol}) break;", "}",
                     f"converged = converged && {relres} < {tol};"]
    loops = [step for step in schedule.steps if isinstance(step, LoopStep)]
    final_relres = f"h_{names[loops[-1].relres_port]}" if loops else "0.0"
    body += stores
    body += [f'printf("iters=%d relres=%.17g converged=%s\\n", iters, {final_relres}, '
             'converged ? "true" : "false");', ""]
    body += [f"clReleaseMemObject(buf_{alloc.name});" for alloc in device_allocs]
    if reduced:
        body.append("for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseMemObject(partials[d]);")
    if kernels:
        body.append("for (int k = 0; k < KERNEL_COUNT; ++k) clReleaseKernel(kernels[k]);")
    body += ["clReleaseProgram(program);",
             "free(source);",
             "for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseCommandQueue(queues[d]);",
             "clReleaseContext(context);",
             "return converged ? 0 : 3;"]

    out = ["/*",
           f" * OpenCL host program for model '{name}' on {device_count} device(s).",
           f" * generated by gmodelc; model digest sha256:{ctx.digest}",
           " */",
           _HOST_PRELUDE.rstrip("\n")]
    out += [_LOAD.format(suffix=suffix, ctype=_C_TYPES[dtype], scan=scan).rstrip()
            for dtype, (suffix, scan, _) in _C_IO.items() if dtype in loaded]
    out += [_STORE.format(suffix=suffix, ctype=_C_TYPES[dtype], show=show).rstrip()
            for dtype, (suffix, _, show) in _C_IO.items() if dtype in stored]
    out += ["", f"enum {{ DEVICE_COUNT = {device_count} }};",
            "static cl_command_queue queues[DEVICE_COUNT];"]
    if kernels:
        out += ["", f"/* the kernels of {name}_kernels.cl */",
                "enum {", *(f"    {k.name}," for k in kernels), "    KERNEL_COUNT", "};",
                "static const char* const kernel_names[KERNEL_COUNT] = {",
                *(f'    "{k.name}",' for k in kernels), "};",
                "static cl_kernel kernels[KERNEL_COUNT];",
                _LAUNCH_TABLES.rstrip()]
    out += ["", "/* host-resident scalars */",
            *(f"static {_C_TYPES[alloc.type_allocation]} h_{alloc.name};" for alloc in host_allocs),
            "", "/* one buffer per device-side data allocation */",
            *(f"static cl_mem buf_{alloc.name};" for alloc in device_allocs)]
    if reduced:
        out += ["", "/* work-group partials: one buffer per device, reused by every reduction */",
                "static cl_mem partials[DEVICE_COUNT];"]
        out += [_SUM.format(ctype=_C_TYPES[dtype], suffix=_C_IO[dtype][0], groups=groups).rstrip()
                for dtype in _C_IO if dtype in reduced]
    for i, (step, task, kernel) in enumerate(steps):
        out += ["", *_comment(f"step {i}: {step.task_path}"),
                f"static const arg_t args_{i}[] = {{",
                *(f"    {_arg(names[f'{step.task_path}.{port.name}'], port, how)},"
                  for port, how in task.args),
                "    {0, NULL}", "};",
                f"static const launch_t step_{i}[] = {{"]
        for launch in step.launches:
            d = launch.device_index
            partials = f"&partials[{d}]" if task.partials else "NULL"
            out.append(f"    {{{kernel.name}, {d}, {launch.range.offset}, {launch.range.count}, "
                       f"{launch.global_size}, {launch.local_size}, args_{i}, {partials}}},")
        out.append("};")
    out.append(_MAIN.format(name=name).rstrip())
    out += ["    " + line if line else "" for line in body]
    out.append("}")
    return GeneratedUnit(file_name=f"{name}_host.c", contents="\n".join(out) + "\n")
