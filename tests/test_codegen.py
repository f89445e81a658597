import re
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

import gmodelc
from gmodelc.codegen import generate_host, generate_kernels
from gmodelc.intrinsics import INTRINSICS, UnknownIntrinsic, deployment_diagnostics
from gmodelc.memmap import build_memory_maps
from gmodelc.metamodel import CompileContext, ComponentKind, MemoryRole
from gmodelc.partition import DeviceStep, Schedule, build_schedule
from gmodelc.refexec import execute_schedule

import emitted
import loopmodels
from conftest import golden_path

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_KERNEL_DEF = re.compile(r"__kernel\s+void\s+(\w+)\s*\(([^)]*)\)", re.S)


def _kernel_signatures(text):
    return {m.group(1): [p.strip() for p in m.group(2).split(",")]
            for m in _KERNEL_DEF.finditer(text)}


@pytest.fixture(scope="module")
def cg_units(cg_model, cg_maps, cg_schedule_d4):
    kern = generate_kernels(cg_model, cg_maps, cg_schedule_d4)
    host = generate_host(cg_model, cg_maps, cg_schedule_d4, 4)
    return kern, host


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


def _check_one_kernel_per_signature(model, maps, schedule, text, count):
    """Each device task is listed by exactly one kernel, all the tasks of a
    kernel share one signature, and there are as many kernels as
    signatures."""
    kernels = emitted.kernels(text)
    listed = [path for kernel in kernels.values() for path in kernel.paths]
    paths = [s.task_path for s in schedule.device_steps()]
    assert sorted(listed) == sorted(paths)
    for kernel in kernels.values():
        assert len({emitted.signature(model, maps, p) for p in kernel.paths}) == 1
        assert {model.context.component_at(ComponentKind.APPLICATION, p).elementary_op
                for p in kernel.paths} == {kernel.intrinsic}
    assert len(kernels) == len({emitted.signature(model, maps, p) for p in paths}) == count


def test_one_kernel_per_signature(cg_model, cg_maps, cg_units, cg_schedule_d4,
                                  intrinsics_model, intrinsics_units):
    _check_one_kernel_per_signature(cg_model, cg_maps, cg_schedule_d4, cg_units[0].contents, 6)
    model, maps, schedule = intrinsics_model
    _check_one_kernel_per_signature(model, maps, schedule, intrinsics_units[0].contents, 7)
    names = set(emitted.kernels(cg_units[0].contents))
    assert {"k_copy_f64", "k_dot_partial_f64", "k_spmv_csr_i32_f64", "k_axpy_f64",
            "k_axpy_f64_2", "k_scale_f64"} == names
    assert "k_sub_f32" in emitted.kernels(intrinsics_units[0].contents)


def test_every_kernel_guards_range(cg_units):
    kern, _ = cg_units
    bodies = kern.contents.split("__kernel")[1:]
    for body in bodies:
        assert "if (gid >= count) return;" in body


def test_structural_well_formedness(cg_units):
    for unit in cg_units:
        assert unit.contents
        assert unit.contents.count("{") == unit.contents.count("}")
        assert unit.contents.count("(") == unit.contents.count(")")


def test_emitted_identifiers_are_legal(cg_units):
    kern, host = cg_units
    for name, params in _kernel_signatures(kern.contents).items():
        assert _IDENT.match(name)
        for param in params:
            assert _IDENT.match(param.split()[-1].lstrip("*")), param
    declared = re.findall(r"^(?:static )?(?:const )?(?:cl_mem|double|int|launch_t|arg_t)\*? "
                          r"(\w+)(?:\[\w*\])? *[=;]", host.contents, re.M)
    assert len(declared) > 30
    for name in declared:
        assert _IDENT.match(name), name


def test_host_references_only_existing_kernels(cg_units):
    """The host creates every defined kernel by name, and each launch-table
    row names one of them."""
    kern, host = cg_units
    defined = set(_kernel_signatures(kern.contents))
    names = re.search(r"kernel_names\[KERNEL_COUNT\] = \{([^}]*)\}", host.contents).group(1)
    assert re.findall(r'"(\w+)"', names) == list(emitted.kernels(kern.contents))
    assert set(re.findall(r'"(\w+)"', names)) == defined
    assert {row.kernel for row in emitted.rows(host.contents)} == defined


def _space_keyword(param: str) -> str:
    for kw in ("__global", "__constant", "__local"):
        if param.startswith(kw):
            return kw
    return ""


def test_qualifier_fidelity(cg_model, cg_maps, cg_units, cg_schedule_d4):
    """Every port-derived parameter of each task's kernel carries the
    keyword its allocation implies."""
    kern, _ = cg_units
    signatures = _kernel_signatures(kern.contents)
    kernel_of = emitted.kernel_of_task(kern.contents)
    node_space = emitted.device_spaces(cg_model, cg_maps)
    expected_kw = {"global": "__global", "constant": "__constant", "local": "__local",
                   "private": ""}
    checked = 0
    for step in cg_schedule_d4.device_steps():
        params = signatures[kernel_of[step.task_path]]
        by_name = {p.split()[-1].lstrip("*"): p for p in params}
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


def test_buffer_completeness(cg_model, cg_maps, cg_units):
    _, host = cg_units
    created = re.findall(r"\bbuf_(\w+) = clCreateBuffer", host.contents)
    device_allocs = []
    for mm in cg_maps:
        if CompileContext(cg_model).memory_role_of(mm.owner_path) is not MemoryRole.HOST_RAM:
            device_allocs.extend(a.name for a in mm.data_allocations)
    assert sorted(created) == sorted(device_allocs)
    for name in device_allocs:
        assert created.count(name) == 1


def _check_rows(kern: str, host: str, schedule):
    """One table row per launch, in launch order, with the launch's device,
    range and sizes and its task's kernel, and one run_step call per step:
    the enqueues of the host program."""
    steps = schedule.device_steps()
    kernel_of = emitted.kernel_of_task(kern)
    assert emitted.step_paths(host) == {i: s.task_path for i, s in enumerate(steps)}
    rows = emitted.rows(host)
    assert [(r.step, r.kernel, r.queue, r.first, r.count, r.global_size, r.local_size)
            for r in rows] == [
        (i, kernel_of[s.task_path], l.device_index, l.range.offset, l.range.count,
         l.global_size, l.local_size) for i, s in enumerate(steps) for l in s.launches]
    for i, step in enumerate(steps):
        assert host.count(f"run_step(step_{i}, {len(step.launches)});") == 1
    assert host.count("clEnqueueNDRangeKernel(") == 1       # in run_step's loop
    return rows


def test_four_enqueues_per_step_with_paper_offsets(cg_units, cg_schedule_d4):
    kern, host = cg_units
    rows = _check_rows(kern.contents, host.contents, cg_schedule_d4)
    steps = cg_schedule_d4.device_steps()
    assert len(rows) == 4 * len(steps)
    for i in range(len(steps)):
        assert [r.first for r in rows if r.step == i] == [0, 33163, 66326, 99489]
    # a reduction launch passes its device's partials buffer, other launches none
    reductions = [r for r in rows if steps[r.step].op == "dot_partial"]
    assert len(reductions) == 16
    assert all(r.partials == r.queue for r in reductions)
    assert all(r.partials is None for r in rows if r not in reductions)


def test_one_enqueue_per_step_single_device(cg_model, cg_maps, cg_schedule_d1):
    kern = generate_kernels(cg_model, cg_maps, cg_schedule_d1).contents
    host = generate_host(cg_model, cg_maps, cg_schedule_d1, 1).contents
    assert len(_check_rows(kern, host, cg_schedule_d1)) == len(cg_schedule_d1.device_steps())


def test_host_grows_by_one_row_per_launch(cg_model, cg_maps, cg_units):
    """Past one device, the host program grows by one line, a table row,
    per extra launch, and the 16-device host is less than twice the size
    of the one-device host."""
    kern = cg_units[0].contents
    lines, launches = {}, {}
    for devices in (1, 2, 4, 16):
        schedule = build_schedule(cg_model, devices)
        host = generate_host(cg_model, cg_maps, schedule, devices).contents
        _check_rows(kern, host, schedule)
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
    kern = generate_kernels(cg_model, cg_maps, Schedule(steps=()))
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
    assert "load_longs" not in host and "store_ints" not in host
    cg_host = golden_path("cg_host_d4.c").read_text()
    assert "load_floats" not in cg_host and "store_floats" not in cg_host


def test_host_resident_root_ports_are_loaded_and_stored():
    """A root in port on host RAM is read from its file into its host
    scalar before the first launch; a root out port on host RAM is written
    from its host scalar."""
    model = gmodelc.parse_model(FLOAT32_MODEL)
    host = generate_host(model, build_memory_maps(model), build_schedule(model, 2), 2).contents
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
SYNTAX_ONLY = ["-std=c99", "-Wall", "-Werror", "-fsyntax-only"]


@pytest.mark.skipif(GCC is None, reason="gcc is not installed")
@pytest.mark.parametrize("model_file, devices", [
    (None, 1), (None, 4), (None, 16), ("intrinsics.gmodel", 2), ("FLOAT32_MODEL", 2),
    ("TWO_LOOPS", 2)])
def test_emitted_c_compiles(tmp_path, cg_text, model_file, devices):
    """The host program compiles as C99 against the OpenCL 1.1 declarations
    of tests/clstub/CL/cl.h, and the kernels compile as C99 once
    tests/clstub/opencl_c.h has defined the OpenCL C qualifiers away, with
    every gcc warning an error."""
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
    for argv in ([GCC, *SYNTAX_ONLY, "-I", str(CLSTUB), str(host)],
                 [GCC, *SYNTAX_ONLY, "-include", str(CLSTUB / "opencl_c.h"), "-x", "c",
                  str(kernels)]):
        done = subprocess.run(argv, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


def _two_loops_units(devices: int):
    model = gmodelc.parse_model(loopmodels.TWO_LOOPS)
    maps, schedule = build_memory_maps(model), build_schedule(model, devices)
    return model, schedule, (generate_kernels(model, maps, schedule),
                             generate_host(model, maps, schedule, devices))


def test_host_bounds_each_loop_by_its_own_count():
    """Loop first repeats at most 3 times and loop second at most 2: each
    has its own counter, and iters and converged add up over both."""
    _, _, (_, host) = _two_loops_units(2)
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
    run, prints the iterations, residual and convergence that
    execute_schedule reports, stores the same outputs and exits 3 unless
    every loop converged."""
    model, schedule, units = _two_loops_units(1)
    for unit in units:
        (tmp_path / unit.file_name).write_text(unit.contents)
    (tmp_path / "cl.c").write_text(CL_NO_DEVICE)
    for port, value in (("a", a), ("c", c)):
        (tmp_path / f"two_{port}.txt").write_text(f"{value!r}\n")
    build = subprocess.run([GCC, "-std=c99", "-I", str(CLSTUB), "two_host.c", "cl.c", "-lm",
                            "-o", "host"], cwd=tmp_path, capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    done = subprocess.run([str(tmp_path / "host")], cwd=tmp_path, capture_output=True, text=True)
    result = execute_schedule(model, schedule, {"a": np.array([a]), "c": np.array([c])})
    iters, relres, converged = (field.split("=")[1] for field in done.stdout.split())
    assert (int(iters), float(relres), converged) == (
        result.iterations, result.final_relres, "true" if result.converged else "false")
    assert done.returncode == (0 if result.converged else 3)
    for port in ("y", "w"):
        assert float((tmp_path / f"two_{port}_out.txt").read_text()) == result.outputs[port][0]


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
