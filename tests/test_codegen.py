import dataclasses
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import gmodelc
from gmodelc.codegen import generate_host, generate_kernels, lower
from gmodelc.intrinsics import INTRINSICS, UnknownIntrinsic, deployment_diagnostics
from gmodelc.memmap import build_memory_maps
from gmodelc.metamodel import CompileContext, ComponentKind, MemoryRole
from gmodelc.partition import DeviceStep, Schedule, build_schedule
from gmodelc.refexec import execute_schedule

import emitted
import loopmodels
from conftest import golden_path

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@pytest.fixture(scope="module")
def cg_units(cg_model, cg_maps, cg_schedule_d4):
    kern = generate_kernels(cg_model, cg_maps, cg_schedule_d4)
    host = generate_host(cg_model, cg_maps, cg_schedule_d4, 4)
    return kern, host


@pytest.fixture(scope="module")
def cg_program(cg_model, cg_maps, cg_schedule_d4):
    return lower(cg_model, cg_maps, cg_schedule_d4)


def _param_name(decl: str) -> str:
    """The name a kernel parameter declaration declares."""
    return decl.split()[-1].lstrip("*")


def test_golden_kernels(cg_units):
    kern, _ = cg_units
    assert kern.file_name == "cg_kernels.cl"
    assert kern.contents == golden_path("cg_kernels.cl").read_text()


def test_golden_host_d4(cg_units):
    _, host = cg_units
    assert host.file_name == "cg_host.c"
    assert host.contents == golden_path("cg_host_d4.c").read_text()


def test_golden_host_d1(cg_model, cg_maps, cg_schedule_d1):
    host = generate_host(cg_model, cg_maps, cg_schedule_d1, 1)
    assert host.contents == golden_path("cg_host_d1.c").read_text()


def test_golden_host_d16(cg_model, cg_maps):
    schedule = build_schedule(cg_model, 16)
    host = generate_host(cg_model, cg_maps, schedule, 16)
    assert host.contents == golden_path("cg_host_d16.c").read_text()


def test_lowering_memo_never_serves_a_stale_program(cg_text):
    """The model's context keeps one Program: for the same schedule object
    and the same map records.  Another schedule or another maps list lowers
    again, so interleaved device counts still print their goldens."""
    model = gmodelc.parse_model(cg_text)
    maps = build_memory_maps(model)
    schedules = {devices: build_schedule(model, devices) for devices in (1, 4, 16)}
    kernels = golden_path("cg_kernels.cl").read_text()
    for devices in (16, 1, 4, 16):
        schedule = schedules[devices]
        assert generate_kernels(model, maps, schedule).contents == kernels
        assert generate_host(model, maps, schedule, devices).contents \
            == golden_path(f"cg_host_d{devices}.c").read_text()
    schedule = schedules[16]
    program = lower(model, maps, schedule)
    assert lower(model, maps, schedule) is program
    assert lower(model, tuple(maps), schedule) is program
    first = maps[0].data_allocations[0]
    renamed = list(maps)
    renamed[0] = dataclasses.replace(maps[0], data_allocations=(
        dataclasses.replace(first, name="renamed"), *maps[0].data_allocations[1:]))
    other = lower(model, renamed, schedule)
    names = {alloc.name for alloc in other.buffers + other.host_scalars}
    assert other is not program and "renamed" in names and first.name not in names
    assert lower(model, maps, schedule) is not other
    assert lower(model, maps, schedule) == program


def test_host_rejects_a_schedule_for_more_devices(cg_model, cg_maps):
    """A host program is for the devices its schedule was built for: one
    built for 16 launches on queues 4..15, which a host for 4 does not
    create, and one built for 4 leaves 12 of 16 created devices idle."""
    for built, asked in ((16, 4), (4, 16)):
        with pytest.raises(ValueError) as exc:
            generate_host(cg_model, cg_maps, build_schedule(cg_model, built), asked)
        assert str(exc.value) == \
            f"the host program is for {asked} device(s), but the schedule is for {built}"


@pytest.fixture(scope="module")
def intrinsics_model():
    model = gmodelc.parse_model(golden_path("intrinsics.gmodel").read_text())
    assert gmodelc.validate_conformance(model) == []
    assert deployment_diagnostics(model) == []
    assert {c.elementary_op for c in model.application_components.values()} \
        == set(INTRINSICS) | {None}
    return model, build_memory_maps(model), build_schedule(model, 2)


@pytest.fixture(scope="module")
def intrinsics_units(intrinsics_model):
    model, maps, schedule = intrinsics_model
    return generate_kernels(model, maps, schedule), generate_host(model, maps, schedule, 2)


def test_golden_intrinsics_kernels(intrinsics_units):
    kern, _ = intrinsics_units
    assert kern.file_name == "intrinsics_kernels.cl"
    assert kern.contents == golden_path("intrinsics_kernels.cl").read_text()


def test_golden_intrinsics_host_d2(intrinsics_units):
    _, host = intrinsics_units
    assert host.contents == golden_path("intrinsics_host_d2.c").read_text()


def test_kernels_independent_of_device_count(cg_model, cg_maps, cg_schedule_d1,
                                             cg_schedule_d4):
    k1 = generate_kernels(cg_model, cg_maps, cg_schedule_d1)
    k4 = generate_kernels(cg_model, cg_maps, cg_schedule_d4)
    assert k1.contents == k4.contents


def test_determinism(cg_model, cg_maps, cg_schedule_d4, cg_units):
    kern, host = cg_units
    assert generate_kernels(cg_model, cg_maps, cg_schedule_d4).contents == kern.contents
    assert generate_host(cg_model, cg_maps, cg_schedule_d4, 4).contents == host.contents


def _check_one_kernel_per_signature(model, maps, schedule, count):
    """Each device task is listed by exactly one kernel, all the tasks of a
    kernel share one signature, and there are as many kernels as
    signatures."""
    kernels = lower(model, maps, schedule).kernels
    listed = [path for kernel in kernels for path in kernel.paths]
    paths = [s.task_path for s in schedule.device_steps()]
    assert sorted(listed) == sorted(paths)
    for kernel in kernels:
        assert len({emitted.signature(model, maps, p) for p in kernel.paths}) == 1
        assert {model.context.component_at(ComponentKind.APPLICATION, p).elementary_op
                for p in kernel.paths} == {kernel.intrinsic}
    assert len(kernels) == len({emitted.signature(model, maps, p) for p in paths}) == count
    return {kernel.name for kernel in kernels}


def test_one_kernel_per_signature(cg_model, cg_maps, cg_schedule_d4, intrinsics_model):
    names = _check_one_kernel_per_signature(cg_model, cg_maps, cg_schedule_d4, 6)
    assert {"k_copy_f64", "k_dot_partial_f64", "k_spmv_csr_i32_f64", "k_axpy_f64",
            "k_axpy_f64_2", "k_scale_f64"} == names
    assert "k_sub_f32" in _check_one_kernel_per_signature(*intrinsics_model, 7)


def test_every_kernel_guards_range(cg_program):
    for kernel in cg_program.kernels:
        assert "if (gid >= count) return;" in kernel.body


def test_structural_well_formedness(cg_units):
    for unit in cg_units:
        assert unit.contents
        assert unit.contents.count("{") == unit.contents.count("}")
        assert unit.contents.count("(") == unit.contents.count(")")


def test_emitted_identifiers_are_legal(cg_program):
    for kernel in cg_program.kernels:
        assert _IDENT.match(kernel.name)
        for param in kernel.params:
            assert _IDENT.match(_param_name(param)), param
    declared = [*(f"h_{alloc.name}" for alloc in cg_program.host_scalars),
                *(f"buf_{alloc.name}" for alloc in cg_program.buffers),
                *(f"{table}_{step.index}" for step in cg_program.steps
                  for table in ("args", "step"))]
    assert len(declared) > 30
    for name in declared:
        assert _IDENT.match(name), name


def test_host_references_only_existing_kernels(cg_units, cg_program):
    """The host creates every defined kernel by name, in the order the
    kernel file defines them, and each launch-table row names one of them."""
    kern, host = cg_units
    names = [kernel.name for kernel in cg_program.kernels]
    assert kern.contents.count("__kernel void ") == len(names)
    for name in names:
        assert kern.contents.count(f"__kernel void {name}(") == 1
    assert "static const char* const kernel_names[KERNEL_COUNT] = {\n" \
        + "".join(f'    "{name}",\n' for name in names) + "};" in host.contents
    assert {step.kernel for step in cg_program.steps} == set(names)


def _space_keyword(param: str) -> str:
    for kw in ("__global", "__constant", "__local"):
        if param.startswith(kw):
            return kw
    return ""


def test_qualifier_fidelity(cg_model, cg_maps, cg_program):
    """Every port-derived parameter of each task's kernel carries the
    keyword its allocation implies."""
    kernel_of = {path: kernel for kernel in cg_program.kernels for path in kernel.paths}
    node_space = emitted.device_spaces(cg_model, cg_maps)
    expected_kw = {"global": "__global", "constant": "__constant", "local": "__local",
                   "private": ""}
    checked = 0
    for step in cg_program.steps:
        kernel = kernel_of[step.task_path]
        assert kernel.name == step.kernel
        by_name = {_param_name(p): p for p in kernel.params}
        for pname, param in by_name.items():
            if pname in ("first", "count", "partials"):
                continue
            space = node_space.get(f"{step.task_path}.{pname}")
            if space is None:
                assert _space_keyword(param) == "", param  # by-value scalar
            else:
                assert _space_keyword(param) == expected_kw[space], param
            checked += 1
    assert checked >= 25


def test_buffer_completeness(cg_model, cg_maps, cg_units, cg_program):
    _, host = cg_units
    device_allocs = []
    for mm in cg_maps:
        if CompileContext(cg_model).memory_role_of(mm.owner_path) is not MemoryRole.HOST_RAM:
            device_allocs.extend(a.name for a in mm.data_allocations)
    assert sorted(a.name for a in cg_program.buffers) == sorted(device_allocs)
    for name in device_allocs:
        assert host.contents.count(f"buf_{name} = clCreateBuffer(") == 1


def _check_rows(program, host: str, schedule):
    """One step per device step, its launches the schedule's, in launch
    order, with its task's kernel; in the host program, one table row per
    launch, with the launch's device, range and sizes, its step's kernel
    and, for a reduction, its device's partials buffer, and one run_step
    call per step: the enqueues of the host program.  Returns the
    (step, launch) rows."""
    steps = schedule.device_steps()
    assert [(s.index, s.task_path, s.launches) for s in program.steps] == [
        (i, s.task_path, s.launches) for i, s in enumerate(steps)]
    for step in program.steps:
        (kernel,) = [k for k in program.kernels if step.task_path in k.paths]
        assert step.kernel == kernel.name
        assert host.count(f", args_{step.index}, ") == len(step.launches)
        for l in step.launches:
            partials = f"&partials[{l.device_index}]" if step.partials else "NULL"
            assert host.count(f"    {{{step.kernel}, {l.device_index}, {l.range.offset}, "
                              f"{l.range.count}, {l.global_size}, {l.local_size}, "
                              f"args_{step.index}, {partials}}},\n") == 1
        assert host.count(f"run_step(step_{step.index}, {len(step.launches)});") == 1
    assert host.count("clEnqueueNDRangeKernel(") == 1       # in run_step's loop
    return [(step, launch) for step in program.steps for launch in step.launches]


def test_four_enqueues_per_step_with_paper_offsets(cg_units, cg_program, cg_schedule_d4):
    _, host = cg_units
    rows = _check_rows(cg_program, host.contents, cg_schedule_d4)
    steps = cg_program.steps
    assert len(rows) == 4 * len(steps)
    for step in steps:
        assert [l.range.offset for l in step.launches] == [0, 33163, 66326, 99489]
    # a reduction launch passes its device's partials buffer, other launches none
    ops = [step.op for step in cg_schedule_d4.device_steps()]
    assert sum(ops[s.index] == "dot_partial" for s, _ in rows) == 16
    assert all((s.partials is not None) == (ops[s.index] == "dot_partial") for s, _ in rows)
    assert host.contents.count(", &partials[") == 16


def test_one_enqueue_per_step_single_device(cg_model, cg_maps, cg_schedule_d1):
    host = generate_host(cg_model, cg_maps, cg_schedule_d1, 1).contents
    program = lower(cg_model, cg_maps, cg_schedule_d1)
    assert len(_check_rows(program, host, cg_schedule_d1)) == len(cg_schedule_d1.device_steps())


def test_host_grows_by_one_row_per_launch(cg_model, cg_maps):
    """Past one device, the host program grows by one line, a table row,
    per extra launch, and the 16-device host is less than twice the size
    of the one-device host."""
    lines, launches = {}, {}
    for devices in (1, 2, 4, 16):
        schedule = build_schedule(cg_model, devices)
        host = generate_host(cg_model, cg_maps, schedule, devices).contents
        _check_rows(lower(cg_model, cg_maps, schedule), host, schedule)
        lines[devices] = host.count("\n")
        launches[devices] = sum(len(s.launches) for s in schedule.device_steps())
    for devices in (2, 4, 16):
        assert lines[devices] - lines[1] == launches[devices] - launches[1]
    d1, d16 = (len(golden_path(f"cg_host_d{d}.c").read_bytes()) for d in (1, 16))
    assert d16 < 2 * d1


def test_loop_emits_for_with_cap_and_threshold(cg_units):
    _, host = cg_units
    assert "    for (int it = 0; it < 132651; ++it) {" in host.contents
    assert "        if (h_loop_relres < 1e-10) break;" in host.contents
    assert "    converged = converged && h_loop_relres < 1e-10;" in host.contents
    assert "/* loop loop: until h_loop_relres < 1e-10 */" in host.contents
    assert "<=" not in host.contents


def test_straight_line_host_without_loop():
    model = gmodelc.parse_model(COPY_MODEL)
    assert gmodelc.validate_conformance(model) == []
    maps = build_memory_maps(model)
    schedule = build_schedule(model, 2)
    host = generate_host(model, maps, schedule, 2)
    assert "while" not in host.contents.replace("while (0)", "")  # CHECK macro only
    assert "for (int it" not in host.contents


COPY_MODEL = """\
platform p {
  component Host {
    processor cpu : hwProcessor
    memory ram : hwMemory role=hostRam
  }
  component Cu : hwProcessor {
    processor pe : hwProcessor shaped [8]
  }
  component Dev {
    processor cu : Cu shaped [4]
    memory gmem : hwMemory role=deviceGlobal
    memory cmem : hwMemory role=deviceConstant
  }
  component p {
    part host : Host
    part dev : Dev
  }
}
application cp {
  component T {
    port src in float64 [64]
    port dst out float64 [64]
    repeat [64]
    deploy copy
  }
  component cp {
    port i in float64 [64]
    port o out float64 [64]
    part t : T
    connect i -> t.src
    connect t.dst -> o
  }
}
allocate data i onto dev.gmem
allocate data t.dst onto dev.gmem
allocate task t onto dev.cu
"""


def test_constant_space_parameter():
    text = COPY_MODEL.replace("allocate data i onto dev.gmem",
                              "allocate data i onto dev.cmem")
    model = gmodelc.parse_model(text)
    assert gmodelc.validate_conformance(model) == []
    maps = build_memory_maps(model)
    schedule = build_schedule(model, 1)
    kern = generate_kernels(model, maps, schedule)
    assert "__constant double* src" in kern.contents


def test_empty_schedule_emits_header_only(cg_model, cg_maps):
    kern = generate_kernels(cg_model, cg_maps, Schedule(steps=(), device_count=1))
    assert kern.contents.startswith("/*")
    assert "__kernel" not in kern.contents
    assert kern.contents


def test_unknown_intrinsic():
    text = COPY_MODEL.replace("deploy copy", "deploy transmogrify")
    model = gmodelc.parse_model(text)
    assert gmodelc.validate_conformance(model) == []
    maps = build_memory_maps(model)
    schedule = build_schedule(model, 1)
    with pytest.raises(UnknownIntrinsic):
        generate_kernels(model, maps, schedule)


def test_fp64_pragma_present(cg_units):
    kern, _ = cg_units
    assert "#pragma OPENCL EXTENSION cl_khr_fp64 : enable" in kern.contents


FLOAT32_MODEL = COPY_MODEL.replace("""\
application cp {
  component T {
    port src in float64 [64]
    port dst out float64 [64]
    repeat [64]
    deploy copy
  }
  component cp {
    port i in float64 [64]
    port o out float64 [64]
    part t : T
    connect i -> t.src
    connect t.dst -> o
  }
}
allocate data i onto dev.gmem
allocate data t.dst onto dev.gmem
allocate task t onto dev.cu
""", """\
application sc {
  component Dot {
    port a in float32 [64]
    port b in float32 [64]
    port s out float32 [1]
    repeat [64]
    deploy dot_partial
  }
  component Scale {
    port y inout float32 [64]
    port a in float32 [1]
    repeat [64]
    deploy scale
  }
  component sc {
    port i in float32 [64]
    port f in float32 [1]
    port o out float32 [64]
    port d out float32 [1]
    part dt : Dot
    part t : Scale
    connect i -> dt.a
    connect i -> dt.b
    connect dt.s -> d
    connect i -> t.y
    connect f -> t.a
    connect t.y -> o
  }
}
allocate data i onto dev.gmem
allocate data f onto host.ram
allocate data dt.s onto host.ram
allocate task dt onto dev.cu
allocate task t onto dev.cu
""")


def test_float32_host_data_stays_float32():
    """float32 ports are loaded, stored, passed and reduced as float."""
    model = gmodelc.parse_model(FLOAT32_MODEL)
    assert gmodelc.validate_conformance(model) == []
    maps = build_memory_maps(model)
    host = generate_host(model, maps, build_schedule(model, 2), 2).contents
    assert 'if (fscanf(f, "%f", &out[i]) != 1)' in host
    assert 'load_floats("sc_i.txt", in_i, 64);' in host
    assert 'store_floats("sc_o_out.txt", out_i, 64);' in host
    assert "static float h_f;" in host and "static float h_dt_s;" in host
    # the scale task's scalar argument, passed by value with its type's size
    assert "static const arg_t args_1[] = {\n    {sizeof(cl_mem), &buf_i},\n" \
           "    {sizeof(float), &h_f},\n    {0, NULL}\n};" in host
    # the dot's partials: float buffers, staged and summed as float
    assert "partials[d] = clCreateBuffer(context, CL_MEM_READ_WRITE, 16, NULL, &err);" in host
    assert "static float sum_floats(const launch_t* rows, int count)" in host
    assert "    static float staged[4];\n    float sum = 0;\n" in host
    assert "groups * sizeof(float), staged, 0, NULL, NULL);" in host
    assert "h_dt_s = sum_floats(step_0, 2);" in host
    kern = generate_kernels(model, maps, build_schedule(model, 2)).contents
    assert "__global float* partials" in kern and "const float a" in kern
    # the dot body accumulates in float, as refexec sums a float32 dot, so
    # the kernels need no cl_khr_fp64
    assert "float acc = 0.0;" in kern and "double" not in kern and "cl_khr_fp64" not in kern
    assert "sizeof(double)" not in host
    # only the text-file routines of its ports' types
    assert [routine for routine in ("load_doubles", "load_floats", "load_ints", "load_longs",
                                    "store_doubles", "store_floats", "store_ints", "store_longs")
            if f"static void {routine}(" in host] == ["load_floats", "store_floats"]
    cg_host = golden_path("cg_host_d4.c").read_text()
    assert "load_floats" not in cg_host and "store_floats" not in cg_host


def test_host_resident_root_ports_are_loaded_and_stored():
    """A root in port on host RAM is read from its file into its host
    scalar before the first launch; a root out port on host RAM is written
    from its host scalar.  The Program names each root port's file, type,
    count, allocation and side."""
    model = gmodelc.parse_model(FLOAT32_MODEL)
    maps, schedule = build_memory_maps(model), build_schedule(model, 2)
    program = lower(model, maps, schedule)
    assert [(p.port, p.file_name, p.data_type.value, p.count, p.allocation, p.on_host)
            for p in (*program.inputs, *program.outputs)] == [
        ("i", "sc_i.txt", "float32", 64, "i", False), ("f", "sc_f.txt", "float32", 1, "f", True),
        ("o", "sc_o_out.txt", "float32", 64, "i", False),
        ("d", "sc_d_out.txt", "float32", 1, "dt_s", True)]
    host = generate_host(model, maps, schedule, 2).contents
    load = 'load_floats("sc_f.txt", &h_f, 1);'
    store = 'store_floats("sc_d_out.txt", &h_dt_s, 1);'
    assert host.count(load) == 1 and host.count(store) == 1
    assert host.index(load) < host.index("    run_step(step_")
    assert host.index(store) > host.rindex("    run_step(step_")


def test_int64_csr_ports_load_as_long(cg_text):
    model = gmodelc.parse_model(cg_text.replace("int32", "int64"))
    assert gmodelc.validate_conformance(model) == []
    host = generate_host(model, build_memory_maps(model), build_schedule(model, 1), 1).contents
    assert 'if (fscanf(f, "%ld", &out[i]) != 1)' in host
    assert 'load_longs("cg_rowptr.txt", in_rowptr, 132652);' in host
    assert 'load_longs("cg_colidx.txt", in_colidx, 3442951);' in host
    assert "load_floats" not in host and "store_floats" not in host


CLSTUB = Path(__file__).parent / "clstub"
GCC = shutil.which("gcc")
STRICT = ["-std=c99", "-Wall", "-Werror", "-c"]


@pytest.mark.skipif(GCC is None, reason="gcc is not installed")
@pytest.mark.parametrize("model_file, devices", [
    (None, 1), (None, 4), (None, 16), ("intrinsics.gmodel", 2), ("FLOAT32_MODEL", 2),
    ("TWO_LOOPS", 2)])
def test_emitted_c_compiles(tmp_path, cg_text, model_file, devices):
    """The host program compiles to an object file as C99 against the
    OpenCL 1.1 declarations of tests/clstub/CL/cl.h, and the kernels do
    once tests/clstub/opencl_c.h has defined the OpenCL C qualifiers away,
    with every gcc warning an error: a routine defined but not called, as
    an unused loader, fails the build."""
    text = {None: cg_text, "FLOAT32_MODEL": FLOAT32_MODEL,
            "TWO_LOOPS": loopmodels.TWO_LOOPS}.get(model_file) \
        or golden_path(model_file).read_text()
    model = gmodelc.parse_model(text)
    maps = build_memory_maps(model)
    schedule = build_schedule(model, devices)
    paths = []
    for unit in (generate_kernels(model, maps, schedule),
                 generate_host(model, maps, schedule, devices)):
        paths.append(tmp_path / unit.file_name)
        paths[-1].write_text(unit.contents)
    kernels, host = paths
    for argv in ([GCC, *STRICT, "-I", str(CLSTUB), str(host), "-o", str(tmp_path / "host.o")],
                 [GCC, *STRICT, "-include", str(CLSTUB / "opencl_c.h"), "-x", "c",
                  str(kernels), "-o", str(tmp_path / "kernels.o")]):
        done = subprocess.run(argv, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def _two_loops_units(devices: int):
    model = gmodelc.parse_model(loopmodels.TWO_LOOPS)
    maps, schedule = build_memory_maps(model), build_schedule(model, devices)
    return model, schedule, lower(model, maps, schedule), (
        generate_kernels(model, maps, schedule), generate_host(model, maps, schedule, devices))


def test_host_bounds_each_loop_by_its_own_count():
    """Loop first repeats at most 3 times and loop second at most 2: each
    has its own counter, and iters and converged add up over both."""
    _, _, _, (_, host) = _two_loops_units(2)
    loops = host.contents[host.contents.index("    int iters = 0;"):
                          host.contents.index("    /* read back")]
    assert loops == """\
    int iters = 0;
    int converged = 1;

    /* loop first: until h_y < 0.5 */
    for (int it = 0; it < 3; ++it) {
        h_y = -h_a;
        ++iters;
        if (h_y < 0.5) break;
    }
    converged = converged && h_y < 0.5;
    /* loop second: until h_w < 0.5 */
    for (int it = 0; it < 2; ++it) {
        h_w = -h_c;
        ++iters;
        if (h_w < 0.5) break;
    }
    converged = converged && h_w < 0.5;

"""


# The OpenCL calls of a host program without kernels, each succeeding with
# a dummy handle: enough to run its host ops and loops on no device.
CL_NO_DEVICE = r"""
#include <CL/cl.h>
#define HANDLE(type) ((type)(intptr_t)1)
cl_int clGetPlatformIDs(cl_uint n, cl_platform_id* p, cl_uint* m) { return CL_SUCCESS; }
cl_int clGetDeviceIDs(cl_platform_id p, cl_device_type t, cl_uint n, cl_device_id* d,
                      cl_uint* m) { return CL_SUCCESS; }
cl_context clCreateContext(const cl_context_properties* p, cl_uint n, const cl_device_id* d,
                           void (*f)(const char*, const void*, size_t, void*), void* u,
                           cl_int* e) { *e = CL_SUCCESS; return HANDLE(cl_context); }
cl_command_queue clCreateCommandQueue(cl_context c, cl_device_id d,
                                      cl_command_queue_properties p, cl_int* e)
{ *e = CL_SUCCESS; return HANDLE(cl_command_queue); }
cl_program clCreateProgramWithSource(cl_context c, cl_uint n, const char** s,
                                     const size_t* l, cl_int* e)
{ *e = CL_SUCCESS; return HANDLE(cl_program); }
cl_int clBuildProgram(cl_program p, cl_uint n, const cl_device_id* d, const char* o,
                      void (*f)(cl_program, void*), void* u) { return CL_SUCCESS; }
cl_int clReleaseProgram(cl_program p) { return CL_SUCCESS; }
cl_int clReleaseCommandQueue(cl_command_queue q) { return CL_SUCCESS; }
cl_int clReleaseContext(cl_context c) { return CL_SUCCESS; }
"""


@pytest.mark.skipif(GCC is None, reason="gcc is not installed")
@pytest.mark.parametrize("a, c", [(-1.0, -1.0), (-1.0, -0.25), (-0.25, -1.0), (-0.25, -0.25)])
def test_emitted_host_runs_its_loops_as_execute_schedule_does(tmp_path, a, c):
    """The two-loop model's host program, built against CL_NO_DEVICE and
    run on the input files its Program names, prints the iterations,
    residual and convergence that execute_schedule reports, stores the
    same outputs to the files its Program names and exits 3 unless every
    loop converged."""
    model, schedule, program, units = _two_loops_units(1)
    for unit in units:
        (tmp_path / unit.file_name).write_text(unit.contents)
    (tmp_path / "cl.c").write_text(CL_NO_DEVICE)
    inputs = {"a": np.array([a]), "c": np.array([c])}
    assert sorted(port.port for port in program.inputs) == sorted(inputs)
    for port in program.inputs:
        (tmp_path / port.file_name).write_text(
            "".join(f"{value!r}\n" for value in inputs[port.port].tolist()))
    build = subprocess.run([GCC, "-std=c99", "-I", str(CLSTUB), "two_host.c", "cl.c", "-lm",
                            "-o", "host"], cwd=tmp_path, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    done = subprocess.run([str(tmp_path / "host")], cwd=tmp_path, capture_output=True, text=True)
    result = execute_schedule(model, schedule, inputs)
    iters, relres, converged = (field.split("=")[1] for field in done.stdout.split())
    assert (int(iters), float(relres), converged) == (
        result.iterations, result.final_relres, "true" if result.converged else "false")
    assert done.returncode == (0 if result.converged else 3)
    assert sorted(port.port for port in program.outputs) == sorted(result.outputs) == ["w", "y"]
    for port in program.outputs:
        stored = np.array((tmp_path / port.file_name).read_text().split(), dtype=np.float64)
        assert stored.tolist() == result.outputs[port.port].tolist()


def test_one_element_vector_port_in_host_memory_is_not_a_scalar():
    """Only an `in` port that the intrinsic declares scalar is passed by
    value from host RAM: a device task's vector ports of one element still
    need device memory, whatever their direction."""
    text = COPY_MODEL.replace("[64]", "[1]")
    for port in ("i", "t.dst"):
        text = text.replace(f"allocate data {port} onto dev.gmem",
                            f"allocate data {port} onto host.ram")
    model = gmodelc.parse_model(text)
    assert gmodelc.validate_conformance(model) == []
    assert [str(d) for d in deployment_diagnostics(model)] == [
        f"error: t.{port}: {direction} port of a device task has no device-memory allocation "
        "(directly or via connected ports)" for port, direction in (("src", "in"), ("dst", "out"))]
