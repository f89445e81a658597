"""OpenCL 1.1 source generation: one kernel file and one host file per model.

lower decides once everything the two files say, as a Program whose items
keep the task paths they come from.  The model's context keeps the last
Program, so generate_kernels and generate_host, given the same maps and
schedule, lower once between them; each only prints it, as data: one
kernel per signature (intrinsic, body, parameter declarations), and per
device step a static const table of one row per launch, that run_step
enqueues, each shared launch tuple's rows formatted once.  Identifiers
come from intrinsics, step indices and the memory maps (buf_*, h_*).  Each
loop runs to its own repeat bound; iters counts every body run, and
converged holds when every loop ended below its tolerance.  The host
defines only the text-file routines and sums it calls.  Output is
byte-deterministic.
"""

from __future__ import annotations

import operator
import textwrap
from dataclasses import dataclass

from .intrinsics import Passing, deployed_intrinsic
from .memmap import DataAllocate, MemoryMap
from .metamodel import ComponentKind, DataType, Direction, MemoryRole, Model
from .partition import HostOp, KernelLaunch, LoopStep, Schedule


@dataclass(frozen=True)
class GeneratedUnit:
    file_name: str
    contents: str


_C_TYPES = {DataType.FLOAT32: "float", DataType.FLOAT64: "double",
            DataType.INT32: "int", DataType.INT64: "long"}

# The host's text-file routines per element type, in the order they are
# emitted: name suffix, fscanf format, fprintf format.
_C_IO = {DataType.FLOAT64: ("doubles", "%lf", "%.17g"),
         DataType.FLOAT32: ("floats", "%f", "%.9g"),
         DataType.INT32: ("ints", "%d", "%d"),
         DataType.INT64: ("longs", "%ld", "%ld")}

_KEYWORDS = {Passing.GLOBAL: "__global ", Passing.CONSTANT: "__constant ",
             Passing.LOCAL: "__local "}


@dataclass(frozen=True)
class Kernel:
    """An entry point of the kernel file, shared by the tasks of its signature."""
    name: str
    intrinsic: str
    params: tuple[str, ...]     # parameter declarations
    body: tuple[str, ...]
    paths: tuple[str, ...]      # the tasks that use it, in schedule order


@dataclass(frozen=True)
class Step:
    """A device step of the host program: its launch table and run_step call."""
    index: int
    task_path: str
    kernel: str
    args: tuple[str, ...]       # argument entries after first and count
    launches: tuple[KernelLaunch, ...]
    sum_into: str | None        # a reduction's host scalar, summed from partials
    partials: DataType | None   # and the partials' element type


@dataclass(frozen=True)
class HostStatement:
    task_path: str
    code: str                   # its C statement


@dataclass(frozen=True)
class Loop:
    task_path: str
    bound: int
    tolerance: float
    relres: str                 # the host scalar of its until port
    body: tuple                 # Steps and HostStatements


@dataclass(frozen=True)
class RootPort:
    """A root in port loaded from its file, or an out port stored to it."""
    port: str
    file_name: str
    data_type: DataType
    count: int
    allocation: str
    on_host: bool               # a host scalar h_<allocation>, else buf_<allocation>


@dataclass(frozen=True)
class Program:
    name: str
    digest: str
    kernels: tuple[Kernel, ...]
    sequence: tuple             # Steps, HostStatements and Loops, in schedule order
    steps: tuple[Step, ...]     # the Steps of sequence, by index
    host_scalars: tuple[DataAllocate, ...]
    buffers: tuple[DataAllocate, ...]
    partial_groups: int         # each device's partials hold this many groups,
    partial_bytes: int          # in this many bytes; 0 without a reduction
    inputs: tuple[RootPort, ...]
    outputs: tuple[RootPort, ...]


def lower(model: Model, maps: list[MemoryMap], schedule: Schedule) -> Program:
    """The Program of a model, its memory maps and its schedule: kernels from
    each task's deployment record and ports, buffer and scalar names from the
    maps.  The model's context keeps the last one, which is returned again
    while the schedule is the same object and the maps the same records."""
    ctx, maps = model.context, tuple(maps)
    memo = ctx.program
    if not (memo and memo[0] is schedule and len(memo[1]) == len(maps)
            and all(map(operator.is_, memo[1], maps))):
        memo = ctx.program = (schedule, maps, _lower(model, maps, schedule))
    return memo[2]


def _lower(model: Model, maps: tuple[MemoryMap, ...], schedule: Schedule) -> Program:
    ctx, name = model.context, model.application_root
    names = {node: alloc.name for mm in maps for alloc in mm.data_allocations
             for node in alloc.associated_parts}
    sides: dict[bool, list] = {True: [], False: []}     # is their memory host RAM?
    for mm in maps:
        sides[ctx.memory_role_of(mm.owner_path) is MemoryRole.HOST_RAM] += mm.data_allocations
    kernels: dict[tuple, tuple[str, list]] = {}     # (intrinsic, params, body) -> (name, paths)
    forms: dict[tuple, tuple] = {}      # (leaf type, port passing) -> launch_form
    steps: list[Step] = []

    def launch_form(comp, spec, passing):
        """((kernel name, its paths), argument forms, partials type), the same
        for every task of one leaf type and port passing.  An argument form
        is (entry, None), or (head, port) for the entry head + the task's
        allocation of port + '}'."""
        params, args, types = ["const int first", "const int count"], [], []
        for pspec in spec.ports:
            how = passing.get(pspec.name)
            if how is None or how is Passing.HOST:      # omitted, or a sum the host makes
                continue
            port = comp.port(pspec.name)
            ctype = _C_TYPES[port.data_type]
            types.append(port.data_type)
            if how is Passing.VALUE:
                params.append(f"const {ctype} {port.name}")
                args.append((f"{{sizeof({ctype}), &h_", port.name))
                continue
            read_only = how is Passing.GLOBAL and port.direction is Direction.IN
            params.append(f"{_KEYWORDS[how]}{'const ' if read_only else ''}{ctype}* {port.name}")
            args.append((f"{{{port.shape.total * port.data_type.size_bytes}, NULL}}", None)
                        if how is Passing.LOCAL else ("{sizeof(cl_mem), &buf_", port.name))
        partials = comp.port(spec.acc).data_type if spec.reduce else None
        if partials:
            params.append(f"__global {_C_TYPES[partials]}* partials")
            types.append(partials)
        acc = _C_TYPES[comp.port(spec.acc).data_type] if spec.acc else ""
        body = tuple(line.replace("acc_t", acc) for line in spec.kernel_body(comp))
        key = (spec.name, tuple(params), body)
        if key not in kernels:
            # named from the intrinsic and element types, as k_spmv_csr_i32_f64
            tags = dict.fromkeys(dtype.value[0] + dtype.value[-2:] for dtype in types)
            base = kname = "_".join(("k", spec.name, *tags))
            taken, n = {kname for kname, _ in kernels.values()}, 1
            while kname in taken:
                n += 1
                kname = f"{base}_{n}"
            kernels[key] = (kname, [])
        return kernels[key], tuple(args), partials

    def lowered(step):
        path = step.task_path
        spec, _, passing = deployed_intrinsic(ctx, path)
        if isinstance(step, HostOp):
            return HostStatement(path, spec.host_c.format_map(
                {port: f"h_{names[f'{path}.{port}']}" for port in passing}))
        comp = ctx.component_at(ComponentKind.APPLICATION, path)
        form_key = (comp.name, tuple(passing.items()))
        if form_key not in forms:
            forms[form_key] = launch_form(comp, spec, passing)
        (kname, paths), arg_forms, partials = forms[form_key]
        paths.append(path)
        args = tuple(entry if port is None else f"{entry}{names[f'{path}.{port}']}}}"
                     for entry, port in arg_forms)
        steps.append(Step(len(steps), path, kname, args, step.launches,
                          names[f"{path}.{spec.reduce}"] if partials else None, partials))
        return steps[-1]

    sequence = tuple(Loop(top.task_path, top.max_iterations, top.tolerance,
                          names[top.relres_port], tuple(map(lowered, top.body)))
                     if isinstance(top, LoopStep) else lowered(top) for top in schedule.steps)
    # one partials buffer per device, for the largest reduction launch
    reductions = [step for step in steps if step.partials]
    groups = max((l.global_size // l.local_size for step in reductions
                  for l in step.launches), default=0)
    # each root in port's allocation is loaded once; each out port is stored
    inputs, outputs = [], []
    for port in model.root(ComponentKind.APPLICATION).ports:
        alloc = names.get(port.name)
        out = port.direction is not Direction.IN
        if alloc is not None and (out or all(p.allocation != alloc for p in inputs)):
            (outputs if out else inputs).append(RootPort(
                port.name, f"{name}_{port.name}{'_out' if out else ''}.txt", port.data_type,
                port.shape.total, alloc, ctx.home(port.name) is MemoryRole.HOST_RAM))
    return Program(name, ctx.digest, tuple(Kernel(kname, *key, tuple(paths))
                                           for key, (kname, paths) in kernels.items()),
                   sequence, tuple(steps), tuple(sides[True]), tuple(sides[False]), groups,
                   groups * max((step.partials.size_bytes for step in reductions), default=0),
                   tuple(inputs), tuple(outputs))


def _comment(text: str) -> list[str]:
    """A C comment of text, wrapped at spaces to lines of at most 94 characters."""
    if len(text) <= 88:
        return [f"/* {text} */"]
    lines = textwrap.wrap(text, 88, break_long_words=False, break_on_hyphens=False)
    lines[-1] += " */"
    return ["/* " + lines[0]] + [" * " + line for line in lines[1:]]


def generate_kernels(model: Model, maps: list[MemoryMap], schedule: Schedule) -> GeneratedUnit:
    """Print the kernel file of the model's Program: one kernel per signature."""
    program = lower(model, maps, schedule)
    out = ["/*", f" * OpenCL kernels for model '{program.name}'.",
           f" * generated by gmodelc; model digest sha256:{program.digest}", " */"]
    if any("double" in text for k in program.kernels for text in (*k.body, *k.params)):
        out += ["", "#pragma OPENCL EXTENSION cl_khr_fp64 : enable"]
    for kernel in program.kernels:
        head = f"__kernel void {kernel.name}("
        out += ["", *_comment(f"{kernel.intrinsic}: {', '.join(kernel.paths)}"),
                head + (",\n" + " " * len(head)).join(kernel.params) + ")",
                "{", *("    " + line for line in kernel.body), "}"]
    return GeneratedUnit(file_name=f"{program.name}_kernels.cl", contents="\n".join(out) + "\n")


# -- host program -------------------------------------------------------------


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
        if (fscanf(f, "{fmt}", &out[i]) != 1) {{ fclose(f); exit(2); }}
    }}
    fclose(f);
}}
"""

_STORE = """
static void store_{suffix}(const char* path, const {ctype}* data, long count)
{{
    FILE* f = fopen(path, "w");
    if (!f) {{ fprintf(stderr, "cannot open %s\\n", path); exit(2); }}
    for (long i = 0; i < count; ++i) fprintf(f, "{fmt}\\n", data[i]);
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


def generate_host(model: Model, maps: list[MemoryMap], schedule: Schedule,
                  device_count: int) -> GeneratedUnit:
    """Print the host program of the model's Program for device_count
    devices, the count the schedule was built for."""
    if device_count != schedule.device_count:
        raise ValueError(f"the host program is for {device_count} device(s), but the "
                         f"schedule is for {schedule.device_count}")
    program = lower(model, maps, schedule)
    sums = [dtype for dtype in _C_IO if any(step.partials is dtype for step in program.steps)]

    # the body of main, from the kernels on
    body = ["for (int k = 0; k < KERNEL_COUNT; ++k) {",
            "    kernels[k] = clCreateKernel(program, kernel_names[k], &err);",
            "    CHECK(err, kernel_names[k]);",
            "}", ""] if program.kernels else [""]
    for alloc in program.buffers:
        body += [f"buf_{alloc.name} = clCreateBuffer(context, CL_MEM_READ_WRITE, "
                 f"{alloc.size_bytes}, NULL, &err);",
                 f'CHECK(err, "clCreateBuffer {alloc.name}");']
    if sums:
        body += ["for (int d = 0; d < DEVICE_COUNT; ++d) {",
                 "    partials[d] = clCreateBuffer(context, CL_MEM_READ_WRITE, "
                 f"{program.partial_bytes}, NULL, &err);",
                 '    CHECK(err, "clCreateBuffer partials");',
                 "}"]
    # a device allocation is uploaded and read back, a host one is h_<name>
    body += ["", "/* load and upload input data */"]
    for port in program.inputs:
        ctype, suffix, c = _C_TYPES[port.data_type], _C_IO[port.data_type][0], port.allocation
        size = port.count * port.data_type.size_bytes
        body += [f'load_{suffix}("{port.file_name}", &h_{c}, 1);'] if port.on_host \
            else [f"{ctype}* in_{c} = ({ctype}*)malloc({size});",
                  f'load_{suffix}("{port.file_name}", in_{c}, {port.count});',
                  f"err = clEnqueueWriteBuffer(queues[0], buf_{c}, CL_TRUE, 0, "
                  f"{size}, in_{c}, 0, NULL, NULL);",
                  f'CHECK(err, "write {c}");']
    body += ["", "int iters = 0;", "int converged = 1;", ""]
    final_relres = "0.0"        # the last loop's
    for top in program.sequence:
        loop, pad = (top, "    ") if isinstance(top, Loop) else (None, "")
        if loop:
            final_relres = relres = f"h_{loop.relres}"
            tol = repr(float(loop.tolerance))
            body += [f"/* loop {loop.task_path}: until {relres} < {tol} */",
                     f"for (int it = 0; it < {loop.bound}; ++it) {{"]
        for item in loop.body if loop else (top,):
            if isinstance(item, HostStatement):
                body.append(pad + item.code)
                continue
            call = f"(step_{item.index}, {len(item.launches)});"
            body.append(f"{pad}run_step{call}")
            if item.sum_into:
                body.append(f"{pad}h_{item.sum_into} = sum_{_C_IO[item.partials][0]}{call}")
        if loop:
            body += ["    ++iters;", f"    if ({relres} < {tol}) break;", "}",
                     f"converged = converged && {relres} < {tol};"]
    body += ["", "/* read back and store outputs */"]
    for port in program.outputs:
        ctype, suffix, c = _C_TYPES[port.data_type], _C_IO[port.data_type][0], port.allocation
        size = port.count * port.data_type.size_bytes
        body += [f'store_{suffix}("{port.file_name}", &h_{c}, 1);'] if port.on_host \
            else [f"{ctype}* out_{c} = ({ctype}*)malloc({size});",
                  f"err = clEnqueueReadBuffer(queues[0], buf_{c}, CL_TRUE, 0, "
                  f"{size}, out_{c}, 0, NULL, NULL);",
                  f'CHECK(err, "read {c}");',
                  f'store_{suffix}("{port.file_name}", out_{c}, {port.count});']
    body += [f'printf("iters=%d relres=%.17g converged=%s\\n", iters, {final_relres}, '
             'converged ? "true" : "false");', ""]
    body += [f"clReleaseMemObject(buf_{alloc.name});" for alloc in program.buffers]
    if sums:
        body.append("for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseMemObject(partials[d]);")
    if program.kernels:
        body.append("for (int k = 0; k < KERNEL_COUNT; ++k) clReleaseKernel(kernels[k]);")
    body += ["clReleaseProgram(program);", "free(source);",
             "for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseCommandQueue(queues[d]);",
             "clReleaseContext(context);", "return converged ? 0 : 3;"]

    out = ["/*", f" * OpenCL host program for model '{program.name}' on {device_count} device(s).",
           f" * generated by gmodelc; model digest sha256:{program.digest}", " */",
           _HOST_PRELUDE.rstrip("\n")]
    for template, ports, fmt in ((_LOAD, program.inputs, 1), (_STORE, program.outputs, 2)):
        out += [template.format(suffix=io[0], ctype=_C_TYPES[dtype], fmt=io[fmt]).rstrip()
                for dtype, io in _C_IO.items() if any(port.data_type is dtype for port in ports)]
    out += ["", f"enum {{ DEVICE_COUNT = {device_count} }};",
            "static cl_command_queue queues[DEVICE_COUNT];"]
    if program.kernels:
        out += ["", f"/* the kernels of {program.name}_kernels.cl */",
                "enum {", *(f"    {k.name}," for k in program.kernels), "    KERNEL_COUNT", "};",
                "static const char* const kernel_names[KERNEL_COUNT] = {",
                *(f'    "{k.name}",' for k in program.kernels), "};",
                "static cl_kernel kernels[KERNEL_COUNT];",
                _LAUNCH_TABLES.rstrip()]
    out += ["", "/* host-resident scalars */",
            *(f"static {_C_TYPES[alloc.type_allocation]} h_{alloc.name};"
              for alloc in program.host_scalars),
            "", "/* one buffer per device-side data allocation */",
            *(f"static cl_mem buf_{alloc.name};" for alloc in program.buffers)]
    if sums:
        out += ["", "/* work-group partials: one buffer per device, reused by every reduction */",
                "static cl_mem partials[DEVICE_COUNT];"]
        out += [_SUM.format(ctype=_C_TYPES[dtype], suffix=_C_IO[dtype][0],
                            groups=program.partial_groups).rstrip() for dtype in sums]
    # id(launches) -> each row's (queue to local size, partials entry): the
    # schedule shares one launch tuple among every step of a geometry
    geometry: dict[int, tuple[tuple[str, str], ...]] = {}
    for step in program.steps:
        rows = geometry.get(id(step.launches))
        if rows is None:
            rows = geometry[id(step.launches)] = tuple(
                (f"{l.device_index}, {l.range.offset}, {l.range.count}, {l.global_size}, "
                 f"{l.local_size}", f"&partials[{l.device_index}]") for l in step.launches)
        args = f"args_{step.index}"
        out += ["", *_comment(f"step {step.index}: {step.task_path}"),
                f"static const arg_t {args}[] = {{",
                *(f"    {arg}," for arg in step.args), "    {0, NULL}", "};",
                f"static const launch_t step_{step.index}[] = {{",
                *(f"    {{{step.kernel}, {where}, {args}, "
                  f"{partials if step.partials else 'NULL'}}}," for where, partials in rows), "};"]
    out.append(_MAIN.format(name=program.name).rstrip())
    out += ["    " + line if line else "" for line in body]
    out.append("}")
    return GeneratedUnit(file_name=f"{program.name}_host.c", contents="\n".join(out) + "\n")
