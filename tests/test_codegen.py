import re

import pytest

import gmodelc
from gmodelc.codegen import generate_host, generate_kernels, kernel_name
from gmodelc.intrinsics import INTRINSICS, UnknownIntrinsic, deployment_diagnostics
from gmodelc.memmap import build_memory_maps
from gmodelc.metamodel import AddressSpace, CompileContext, MemoryRole
from gmodelc.partition import DeviceStep, Schedule, build_schedule

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
def intrinsics_units():
    model = gmodelc.parse_model(golden_path("intrinsics.gmodel").read_text())
    assert gmodelc.validate_conformance(model) == []
    assert deployment_diagnostics(model) == []
    assert {c.elementary_op for c in model.application_components.values()} \
        == set(INTRINSICS) | {None}
    maps = build_memory_maps(model)
    schedule = build_schedule(model, 2)
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


def test_one_kernel_per_repetitive_task(cg_units, cg_schedule_d4):
    kern, _ = cg_units
    names = set(_kernel_signatures(kern.contents))
    expected = {kernel_name(s.task_path) for s in cg_schedule_d4.device_steps()}
    assert names == expected
    assert len(names) == 11


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
    for m in re.finditer(r"(?:cl_mem|double\*?|cl_kernel)\s+(\w+)\s*=", host.contents):
        assert _IDENT.match(m.group(1))


def test_host_references_only_existing_kernels(cg_units):
    kern, host = cg_units
    defined = set(_kernel_signatures(kern.contents))
    used = set(re.findall(r'clCreateKernel\(program, "(\w+)"', host.contents))
    assert used == defined


def _space_keyword(param: str) -> str:
    for kw in ("__global", "__constant", "__local"):
        if param.startswith(kw):
            return kw
    return ""


def test_qualifier_fidelity(cg_model, cg_maps, cg_units, cg_schedule_d4):
    """Every port-derived kernel parameter carries the keyword its allocation implies."""
    kern, _ = cg_units
    signatures = _kernel_signatures(kern.contents)
    node_space = {}
    for mm in cg_maps:
        role = CompileContext(cg_model).memory_role_of(mm.owner_path)
        for alloc in mm.data_allocations:
            for node in alloc.associated_parts:
                node_space.setdefault(node, []).append((role, alloc.space_address))
    expected_kw = {AddressSpace.GLOBAL: "__global", AddressSpace.CONSTANT: "__constant",
                   AddressSpace.LOCAL: "__local", AddressSpace.PRIVATE: ""}
    checked = 0
    for step in cg_schedule_d4.device_steps():
        params = signatures[kernel_name(step.task_path)]
        by_name = {p.split()[-1].lstrip("*"): p for p in params}
        for pname, param in by_name.items():
            if pname in ("first", "count", "partials"):
                continue
            entries = node_space[f"{step.task_path}.{pname}"]
            device = [(r, s) for r, s in entries if r is not MemoryRole.HOST_RAM]
            if not device:
                assert _space_keyword(param) == "", param  # by-value scalar
            else:
                assert _space_keyword(param) == expected_kw[device[0][1]], param
            checked += 1
    assert checked >= 25


def test_buffer_completeness(cg_model, cg_maps, cg_units):
    _, host = cg_units
    created = re.findall(r"cl_mem buf_(\w+) = clCreateBuffer", host.contents)
    device_allocs = []
    for mm in cg_maps:
        if CompileContext(cg_model).memory_role_of(mm.owner_path) is not MemoryRole.HOST_RAM:
            device_allocs.extend(a.name for a in mm.data_allocations)
    assert sorted(created) == sorted(device_allocs)
    for name in device_allocs:
        assert created.count(name) == 1


def test_four_enqueues_per_step_with_paper_offsets(cg_units, cg_schedule_d4):
    _, host = cg_units
    steps = cg_schedule_d4.device_steps()
    for step in steps:
        kname = kernel_name(step.task_path)
        assert host.contents.count(f"clEnqueueNDRangeKernel(queues[{0}], {kname},") == 1
    total = host.contents.count("clEnqueueNDRangeKernel")
    assert total == 4 * len(steps)
    for offset in (0, 33163, 66326, 99489):
        assert f"const cl_int first = {offset};" in host.contents


def test_one_enqueue_per_step_single_device(cg_model, cg_maps, cg_schedule_d1):
    host = generate_host(cg_model, cg_maps, cg_schedule_d1, 1)
    steps = cg_schedule_d1.device_steps()
    assert host.contents.count("clEnqueueNDRangeKernel") == len(steps)


def test_loop_emits_while_with_cap_and_threshold(cg_units):
    _, host = cg_units
    assert "while (iters < 132651) {" in host.contents
    assert "if (h_loop_relres <= 1e-10) { converged = 1; break; }" in host.contents


def test_straight_line_host_without_loop():
    model = gmodelc.parse_model(COPY_MODEL)
    assert gmodelc.validate_conformance(model) == []
    maps = build_memory_maps(model)
    schedule = build_schedule(model, 2)
    host = generate_host(model, maps, schedule, 2)
    assert "while" not in host.contents.replace("while (0)", "")  # CHECK macro only


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
    assert "float h_f = 0.0;" in host and "float h_dt_s = 0.0;" in host
    assert "clSetKernelArg(k_t, 3, sizeof(float), &h_f);" in host
    assert "float* ph_k_dt_d1 = (float*)malloc(4 * sizeof(float));" in host
    assert ("clEnqueueReadBuffer(queues[1], part_k_dt_d1, CL_TRUE, 0, 4 * sizeof(float), "
            "ph_k_dt_d1, 0, NULL, NULL);") in host
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
    assert host.index(load) < host.index("clEnqueueNDRangeKernel")
    assert host.index(store) > host.rindex("clEnqueueNDRangeKernel")


def test_int64_csr_ports_load_as_long(cg_text):
    model = gmodelc.parse_model(cg_text.replace("int32", "int64"))
    assert gmodelc.validate_conformance(model) == []
    host = generate_host(model, build_memory_maps(model), build_schedule(model, 1), 1).contents
    assert 'if (fscanf(f, "%ld", &out[i]) != 1)' in host
    assert 'load_longs("cg_rowptr.txt", in_rowptr, 132652);' in host
    assert 'load_longs("cg_colidx.txt", in_colidx, 3442951);' in host
    assert "load_floats" not in host and "store_floats" not in host
