"""OpenCL 1.1 source generation: one kernel file and one host file per model.

A device task's kernel body and a host op's statement are looked up in
its intrinsic's entry of intrinsics.INTRINSICS; parameter address-space
keywords come from the port's data allocation.  A reduction intrinsic is
two-stage: per-work-group partials on the device, final sum on the host
in ascending device order.  The host program keeps each port's element
type in its loads, stores, scalars and partials.  Output is
byte-deterministic for identical inputs and is locked by golden files in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intrinsics import IntrinsicSpec, deployed_intrinsic
from .memmap import DataAllocate, MemoryMap
from .metamodel import (AddressSpace, CompileContext, Component, ComponentKind, DataType,
                        Direction, MemoryRole, Model)
from .partition import DeviceStep, HostOp, KernelLaunch, LoopStep, Schedule


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


def _model_name(model: Model) -> str:
    return model.application_root


def kernel_name(task_path: str) -> str:
    return "k_" + task_path.replace(".", "_")


class _AllocIndex:
    """Finds the allocation record backing each application port."""

    def __init__(self, ctx: CompileContext, maps: list[MemoryMap]):
        self.by_node: dict[str, list[tuple[MemoryRole, DataAllocate]]] = {}
        for mm in maps:
            role = ctx.memory_role_of(mm.owner_path)
            for alloc in mm.data_allocations:
                for node in alloc.associated_parts:
                    self.by_node.setdefault(node, []).append((role, alloc))

    def device_alloc(self, node: str) -> tuple[MemoryRole, DataAllocate] | None:
        for role, alloc in self.by_node.get(node, []):
            if role is not MemoryRole.HOST_RAM:
                return role, alloc
        return None

    def host_alloc(self, node: str) -> DataAllocate | None:
        for role, alloc in self.by_node.get(node, []):
            if role is MemoryRole.HOST_RAM:
                return alloc
        return None


@dataclass(frozen=True)
class _Param:
    name: str
    text: str                  # parameter declaration in the kernel signature
    kind: str                  # "buffer" | "scalar" | "local" | "partials"
    alloc: DataAllocate | None
    ctype: str = "int"         # the C element type


def _port_param(index: _AllocIndex, task_path: str, port) -> _Param:
    node = f"{task_path}.{port.name}"
    ctype = _C_TYPES[port.data_type]
    device = index.device_alloc(node)
    if device is None:
        # host-resident scalar, passed by value
        return _Param(port.name, f"const {ctype} {port.name}", "scalar",
                      index.host_alloc(node), ctype)
    role, alloc = device
    space = alloc.space_address
    if space is AddressSpace.GLOBAL:
        const = "const " if port.direction is Direction.IN else ""
        return _Param(port.name, f"__global {const}{ctype}* {port.name}", "buffer", alloc,
                      ctype)
    if space is AddressSpace.CONSTANT:
        return _Param(port.name, f"__constant {ctype}* {port.name}", "buffer", alloc, ctype)
    if space is AddressSpace.LOCAL:
        return _Param(port.name, f"__local {ctype}* {port.name}", "local", alloc, ctype)
    return _Param(port.name, f"{ctype}* {port.name}", "buffer", alloc, ctype)


def _task_params(index: _AllocIndex, task_path: str, comp: Component,
                 spec: IntrinsicSpec) -> list[_Param]:
    params = [_Param("first", "const int first", "range", None),
              _Param("count", "const int count", "range", None)]
    for pspec in spec.ports:
        port = comp.port(pspec.name)
        if port is None:
            continue
        node = f"{task_path}.{port.name}"
        if port.direction is Direction.OUT and index.device_alloc(node) is None:
            # host-resident result (a reduction's scalar): delivered via the
            # partials buffer and the host reduction, not a kernel parameter
            continue
        params.append(_port_param(index, task_path, port))
    if spec.reduce:
        # partials have the type of the reduced operands, the first port
        ctype = _C_TYPES[comp.port(spec.ports[0].name).data_type]
        params.append(_Param("partials", f"__global {ctype}* partials", "partials", None,
                             ctype))
    return params


def _device_tasks(ctx: CompileContext, maps: list[MemoryMap],
                  schedule: Schedule) -> tuple[_AllocIndex, list[tuple]]:
    """The allocation index of maps, and each distinct device task's first
    step, component, IntrinsicSpec and kernel parameters.  The index and the
    parameter lists are kept on ctx while the same maps come in."""
    if ctx.kernel_params is None or ctx.kernel_params[0] is not maps:
        ctx.kernel_params = (maps, _AllocIndex(ctx, maps), {})
    _, index, params = ctx.kernel_params
    seen: set[str] = set()
    tasks = []
    for step in schedule.device_steps():
        path = step.task_path
        if path not in seen:
            seen.add(path)
            comp = ctx.component_at(ComponentKind.APPLICATION, path)
            spec = deployed_intrinsic(ctx, path, on_host=False)
            if path not in params:
                params[path] = _task_params(index, path, comp, spec)
            tasks.append((step, comp, spec, params[path]))
    return index, tasks


def generate_kernels(model: Model, maps: list[MemoryMap], schedule: Schedule) -> GeneratedUnit:
    """Emit the kernel source file: one entry point per distinct device task."""
    name = _model_name(model)
    out = [
        "/*",
        f" * OpenCL kernels for model '{name}'.",
        f" * generated by gmodelc; model digest sha256:{model.context.digest}",
        " */",
    ]
    _, tasks = _device_tasks(model.context, maps, schedule)
    if any(port.data_type is DataType.FLOAT64 for _, comp, _, _ in tasks for port in comp.ports):
        out.append("")
        out.append("#pragma OPENCL EXTENSION cl_khr_fp64 : enable")
    names_seen: dict[str, str] = {}
    for step, comp, spec, params in tasks:
        kname = kernel_name(step.task_path)
        if kname in names_seen:
            raise ValueError(f"kernel name '{kname}' generated for both "
                             f"'{names_seen[kname]}' and '{step.task_path}'")
        names_seen[kname] = step.task_path
        body = spec.kernel_body(comp)
        out.append("")
        head = f"__kernel void {kname}("
        pad = " " * len(head)
        decls = [p.text for p in params]
        out.append(head + decls[0] + ",")
        out.extend(pad + d + "," for d in decls[1:-1])
        out.append(pad + decls[-1] + ")")
        out.append("{")
        out.extend("    " + line for line in body)
        out.append("}")
    return GeneratedUnit(file_name=f"{name}_kernels.cl",
                         contents="\n".join(out) + "\n")


# -- host program -------------------------------------------------------------


def _float_literal(value: float) -> str:
    text = repr(float(value))
    return text if any(c in text for c in ".einf") else text + ".0"


def _group_count(launch: KernelLaunch) -> int:
    return launch.global_size // launch.local_size


class _HostWriter:
    def __init__(self):
        self.lines: list[str] = []
        self.depth = 1

    def put(self, text: str = ""):
        self.lines.append("    " * self.depth + text if text else "")

    def open(self, text: str):
        self.put(text)
        self.depth += 1

    def close(self, text: str = "}"):
        self.depth -= 1
        self.put(text)


def generate_host(model: Model, maps: list[MemoryMap], schedule: Schedule,
                  device_count: int) -> GeneratedUnit:
    """Emit the host orchestration source for device_count logical devices."""
    if device_count < 1:
        raise ValueError("device_count must be positive")
    ctx = model.context
    name = _model_name(model)
    root = model.root(ComponentKind.APPLICATION)
    index, device_tasks = _device_tasks(ctx, maps, schedule)
    task_params = {step.task_path: (params, spec) for step, _, spec, params in device_tasks}

    device_allocs: list[tuple[MemoryRole, DataAllocate]] = []
    host_allocs: list[DataAllocate] = []
    seen_names: set[str] = set()
    for mm in maps:
        role = ctx.memory_role_of(mm.owner_path)
        for alloc in mm.data_allocations:
            if alloc.name in seen_names:
                continue
            seen_names.add(alloc.name)
            if role is MemoryRole.HOST_RAM:
                host_allocs.append(alloc)
            else:
                device_allocs.append((role, alloc))

    # reduction partial buffers: one per (task, device) pair, sized by work
    # groups, of the partials parameter's type (_task_params puts it last)
    partials: list[tuple[str, int, int, str]] = []   # (kernel, device, groups, type)
    for step, _, spec, _ in device_tasks:
        if spec.reduce:
            ctype = task_params[step.task_path][0][-1].ctype
            for launch in step.launches:
                partials.append((kernel_name(step.task_path), launch.device_index,
                                 _group_count(launch), ctype))

    # the root's in ports, each allocation loaded once, and its out ports, as
    # (port, allocation, whether it is a host scalar): a device allocation is
    # uploaded and read back, a host one loaded into and stored from h_<name>
    loads: dict[str, tuple[str, DataAllocate, bool]] = {}
    stores: list[tuple[str, DataAllocate, bool]] = []
    for port in root.ports:
        device = index.device_alloc(port.name)
        alloc = device[1] if device is not None else index.host_alloc(port.name)
        if alloc is None:
            continue
        if port.direction is Direction.IN:
            loads.setdefault(alloc.name, (port.name, alloc, device is None))
        elif port.direction is Direction.OUT:
            stores.append((port.name, alloc, device is None))
    # load and store routines: the float64 and int32 ones always, the others
    # when a port needs them
    loaded = {DataType.FLOAT64, DataType.INT32}.union(
        alloc.type_allocation for _, alloc, _ in loads.values())
    stored = {DataType.FLOAT64}.union(alloc.type_allocation for _, alloc, _ in stores)

    w = _HostWriter()
    w.depth = 0
    w.put("/*")
    w.put(f" * OpenCL host program for model '{name}' on {device_count} device(s).")
    w.put(f" * generated by gmodelc; model digest sha256:{ctx.digest}")
    w.put(" */")
    w.put("#include <CL/cl.h>")
    w.put("#include <math.h>")
    w.put("#include <stdio.h>")
    w.put("#include <stdlib.h>")
    w.put("#include <string.h>")
    w.put("")
    w.put("#define CHECK(err, what) \\")
    w.put("    do { if ((err) != CL_SUCCESS) { \\")
    w.put('        fprintf(stderr, "%s failed: %d\\n", (what), (int)(err)); \\')
    w.put("        exit(2); } } while (0)")
    w.put("")
    w.put("static char* read_text_file(const char* path, size_t* size_out)")
    w.put("{")
    w.put('    FILE* f = fopen(path, "rb");')
    w.put('    if (!f) { fprintf(stderr, "cannot open %s\\n", path); exit(2); }')
    w.put("    fseek(f, 0, SEEK_END);")
    w.put("    long size = ftell(f);")
    w.put("    fseek(f, 0, SEEK_SET);")
    w.put("    char* text = (char*)malloc((size_t)size + 1);")
    w.put("    fread(text, 1, (size_t)size, f);")
    w.put("    text[size] = 0;")
    w.put("    fclose(f);")
    w.put("    if (size_out) *size_out = (size_t)size;")
    w.put("    return text;")
    w.put("}")
    w.put("")
    for dtype, (suffix, scan, _) in _C_IO.items():
        if dtype in loaded:
            ctype = _C_TYPES[dtype]
            w.put(f"static void load_{suffix}(const char* path, {ctype}* out, long count)")
            w.put("{")
            w.put('    FILE* f = fopen(path, "r");')
            w.put('    if (!f) { fprintf(stderr, "cannot open %s\\n", path); exit(2); }')
            w.put("    for (long i = 0; i < count; ++i) {")
            w.put(f'        if (fscanf(f, "{scan}", &out[i]) != 1) {{ fclose(f); exit(2); }}')
            w.put("    }")
            w.put("    fclose(f);")
            w.put("}")
            w.put("")
    for dtype, (suffix, _, show) in _C_IO.items():
        if dtype in stored:
            ctype = _C_TYPES[dtype]
            w.put(f"static void store_{suffix}(const char* path, const {ctype}* data, "
                  "long count)")
            w.put("{")
            w.put('    FILE* f = fopen(path, "w");')
            w.put('    if (!f) { fprintf(stderr, "cannot open %s\\n", path); exit(2); }')
            w.put(f'    for (long i = 0; i < count; ++i) fprintf(f, "{show}\\n", data[i]);')
            w.put("    fclose(f);")
            w.put("}")
            w.put("")
    w.put("int main(void)")
    w.put("{")
    w.depth = 1
    w.put(f"enum {{ DEVICE_COUNT = {device_count} }};")
    w.put("cl_int err;")
    w.put("cl_platform_id cl_platform;")
    w.put("err = clGetPlatformIDs(1, &cl_platform, NULL);")
    w.put('CHECK(err, "clGetPlatformIDs");')
    w.put("cl_device_id devices[DEVICE_COUNT];")
    w.put("err = clGetDeviceIDs(cl_platform, CL_DEVICE_TYPE_ALL, DEVICE_COUNT, devices, NULL);")
    w.put('CHECK(err, "clGetDeviceIDs");')
    w.put("cl_context context = clCreateContext(NULL, DEVICE_COUNT, devices, NULL, NULL, &err);")
    w.put('CHECK(err, "clCreateContext");')
    w.put("cl_command_queue queues[DEVICE_COUNT];")
    w.put("for (int d = 0; d < DEVICE_COUNT; ++d) {")
    w.put("    queues[d] = clCreateCommandQueue(context, devices[d], 0, &err);")
    w.put('    CHECK(err, "clCreateCommandQueue");')
    w.put("}")
    w.put("")
    w.put("size_t source_size;")
    w.put(f'char* source = read_text_file("{name}_kernels.cl", &source_size);')
    w.put("cl_program program = clCreateProgramWithSource(context, 1, "
          "(const char**)&source, &source_size, &err);")
    w.put('CHECK(err, "clCreateProgramWithSource");')
    w.put("err = clBuildProgram(program, DEVICE_COUNT, devices, NULL, NULL, NULL);")
    w.put('CHECK(err, "clBuildProgram");')
    w.put("")
    for step, _, _, _ in device_tasks:
        kname = kernel_name(step.task_path)
        w.put(f'cl_kernel {kname} = clCreateKernel(program, "{kname}", &err);')
        w.put(f'CHECK(err, "clCreateKernel {kname}");')
    w.put("")
    w.put("/* host-resident scalars */")
    for alloc in host_allocs:
        w.put(f"{_C_TYPES[alloc.type_allocation]} h_{alloc.name} = 0.0;")
    w.put("")
    w.put("/* one buffer per device-side data allocation */")
    for role, alloc in device_allocs:
        w.put(f"cl_mem buf_{alloc.name} = clCreateBuffer(context, CL_MEM_READ_WRITE, "
              f"{alloc.size_bytes}, NULL, &err);")
        w.put(f'CHECK(err, "clCreateBuffer {alloc.name}");')
    w.put("")
    w.put("/* work-group partial buffers for dot reductions */")
    for kname, dev, groups, ctype in partials:
        w.put(f"cl_mem part_{kname}_d{dev} = clCreateBuffer(context, CL_MEM_READ_WRITE, "
              f"{groups} * sizeof({ctype}), NULL, &err);")
        w.put('CHECK(err, "clCreateBuffer partials");')
        w.put(f"{ctype}* ph_{kname}_d{dev} = ({ctype}*)malloc({groups} * sizeof({ctype}));")
    w.put("")
    w.put("/* load and upload input data */")
    for port_name, alloc, on_host in loads.values():
        n = alloc.dim_allocation.total
        ctype = _C_TYPES[alloc.type_allocation]
        suffix = _C_IO[alloc.type_allocation][0]
        if on_host:
            w.put(f'load_{suffix}("{name}_{port_name}.txt", &h_{alloc.name}, 1);')
            continue
        w.put(f"{ctype}* in_{alloc.name} = ({ctype}*)malloc({alloc.size_bytes});")
        w.put(f'load_{suffix}("{name}_{port_name}.txt", in_{alloc.name}, {n});')
        w.put(f"err = clEnqueueWriteBuffer(queues[0], buf_{alloc.name}, CL_TRUE, 0, "
              f"{alloc.size_bytes}, in_{alloc.name}, 0, NULL, NULL);")
        w.put(f'CHECK(err, "write {alloc.name}");')
    w.put("")
    w.put("int iters = 0;")
    w.put("int converged = 1;")
    w.put("")

    def emit_device_step(step: DeviceStep):
        kname = kernel_name(step.task_path)
        pad = "    " * w.depth
        inner = pad + "    "
        # The argument lines are built once per step.  Only the partials
        # buffer depends on the device; _task_params puts it last.
        params, spec = task_params[step.task_path]
        args = ""
        partials = None     # its argument index
        for i, param in enumerate(params):
            if param.kind == "range":
                arg = f"sizeof(cl_int), &{param.name}"
            elif param.kind == "scalar":
                arg = f"sizeof({param.ctype}), &h_{param.alloc.name}"
            elif param.kind == "local":
                arg = f"{param.alloc.size_bytes}, NULL"
            elif param.kind == "partials":
                partials = i
                continue
            else:
                arg = f"sizeof(cl_mem), &buf_{param.alloc.name}"
            args += f"{inner}clSetKernelArg({kname}, {i}, {arg});\n"
        for launch in step.launches:
            d = launch.device_index
            if partials is not None:
                device_args = (f"{args}{inner}clSetKernelArg({kname}, {partials}, "
                               f"sizeof(cl_mem), &part_{kname}_d{d});\n")
            else:
                device_args = args
            # one pre-indented block per launch
            w.lines.append(f"{pad}{{\n"
                           f"{inner}const cl_int first = {launch.range.offset};\n"
                           f"{inner}const cl_int count = {launch.range.count};\n"
                           f"{inner}const size_t global_size = {launch.global_size};\n"
                           f"{inner}const size_t local_size = {launch.local_size};\n"
                           f"{device_args}"
                           f"{inner}err = clEnqueueNDRangeKernel(queues[{d}], {kname}, 1, NULL, "
                           f"&global_size, &local_size, 0, NULL, NULL);\n"
                           f'{inner}CHECK(err, "enqueue {kname}");\n'
                           f"{pad}}}")
        w.lines.append("\n".join(f"{pad}clFinish(queues[{launch.device_index}]);"
                                  for launch in step.launches))
        if spec.reduce:
            s_alloc = index.host_alloc(f"{step.task_path}.{spec.reduce}")
            w.put(f"h_{s_alloc.name} = 0.0;")
            for launch in step.launches:
                d = launch.device_index
                groups = _group_count(launch)
                w.put(f"err = clEnqueueReadBuffer(queues[{d}], part_{kname}_d{d}, CL_TRUE, "
                      f"0, {groups} * sizeof({params[partials].ctype}), ph_{kname}_d{d}, "
                      "0, NULL, NULL);")
                w.put(f'CHECK(err, "read partials {kname}");')
                w.put(f"for (int g = 0; g < {groups}; ++g) "
                      f"h_{s_alloc.name} += ph_{kname}_d{d}[g];")

    def emit_host_op(step: HostOp):
        comp = ctx.component_at(ComponentKind.APPLICATION, step.task_path)
        spec = deployed_intrinsic(ctx, step.task_path, on_host=True)
        names = {port.name: f"h_{index.host_alloc(f'{step.task_path}.{port.name}').name}"
                 for port in comp.ports}
        w.put(spec.host_c.format_map(names))

    def emit_steps(steps):
        for step in steps:
            if isinstance(step, DeviceStep):
                emit_device_step(step)
            elif isinstance(step, HostOp):
                emit_host_op(step)
            elif isinstance(step, LoopStep):
                relres = index.host_alloc(step.relres_port)
                w.put(f"/* loop {step.task_path}: until h_{relres.name} <= "
                      f"{_float_literal(step.tolerance)} */")
                w.put("converged = 0;")
                w.open(f"while (iters < {step.max_iterations}) {{")
                emit_steps(step.body)
                w.put("++iters;")
                w.put(f"if (h_{relres.name} <= {_float_literal(step.tolerance)}) "
                      "{ converged = 1; break; }")
                w.close()

    emit_steps(schedule.steps)
    del emit_steps      # a recursive closure is a cycle: it would keep the context for the collector
    w.put("")
    w.put("/* read back and store outputs */")
    final_relres = None
    for step in schedule.steps:
        if isinstance(step, LoopStep):
            final_relres = index.host_alloc(step.relres_port)
    for port_name, alloc, on_host in stores:
        n = alloc.dim_allocation.total
        ctype = _C_TYPES[alloc.type_allocation]
        suffix = _C_IO[alloc.type_allocation][0]
        if on_host:
            w.put(f'store_{suffix}("{name}_{port_name}_out.txt", &h_{alloc.name}, 1);')
            continue
        w.put(f"{ctype}* out_{alloc.name} = ({ctype}*)malloc({alloc.size_bytes});")
        w.put(f"err = clEnqueueReadBuffer(queues[0], buf_{alloc.name}, CL_TRUE, 0, "
              f"{alloc.size_bytes}, out_{alloc.name}, 0, NULL, NULL);")
        w.put(f'CHECK(err, "read {alloc.name}");')
        w.put(f'store_{suffix}("{name}_{port_name}_out.txt", out_{alloc.name}, {n});')
    relres_expr = f"h_{final_relres.name}" if final_relres is not None else "0.0"
    w.put(f'printf("iters=%d relres=%.17g converged=%s\\n", iters, {relres_expr}, '
          'converged ? "true" : "false");')
    w.put("")
    for _, alloc in device_allocs:
        w.put(f"clReleaseMemObject(buf_{alloc.name});")
    for kname, dev, _, _ in partials:
        w.put(f"clReleaseMemObject(part_{kname}_d{dev});")
        w.put(f"free(ph_{kname}_d{dev});")
    for step, _, _, _ in device_tasks:
        w.put(f"clReleaseKernel({kernel_name(step.task_path)});")
    w.put("clReleaseProgram(program);")
    w.put("free(source);")
    w.put("for (int d = 0; d < DEVICE_COUNT; ++d) clReleaseCommandQueue(queues[d]);")
    w.put("clReleaseContext(context);")
    w.put("return converged ? 0 : 3;")
    w.depth = 0
    w.put("}")
    return GeneratedUnit(file_name=f"{name}_host.c", contents="\n".join(w.lines) + "\n")
