import random

import pytest

import gmodelc
from gmodelc.intrinsics import deployment_diagnostics
from gmodelc.memmap import CapacityExceeded, build_memory_maps, emit_memory_map_report
from gmodelc.metamodel import AddressSpace, DataType, Shape, validate_conformance

from conftest import golden_path
from modelgen import random_model
from gmodelc.memmap import DataAllocate


def _alloc(dims, dtype):
    return DataAllocate(name="a", space_address=AddressSpace.GLOBAL, base_address=0,
                        dim_allocation=Shape(tuple(dims)), type_allocation=dtype,
                        associated_parts=("a",))


def test_allocation_size_examples():
    assert _alloc([132651], DataType.FLOAT64).size_bytes == 1061208
    assert _alloc([1], DataType.INT32).size_bytes == 4
    assert _alloc([2, 3], DataType.FLOAT32).size_bytes == 24


def _model_with_ports(port_decls, alloc_lines, capacity="", role="deviceLocal"):
    ports = "\n".join(f"    port {p}" for p in port_decls)
    return gmodelc.parse_model(f"""\
platform p {{
  component Host {{
    processor cpu : hwProcessor
    memory ram : hwMemory role=hostRam
  }}
  component Cu : hwProcessor {{
    processor pe : hwProcessor shaped [8]
    memory local : hwMemory role={role}{capacity}
  }}
  component Dev {{
    processor cu : Cu shaped [4]
    memory gmem : hwMemory role=deviceGlobal
  }}
  component p {{
    part host : Host
    part dev : Dev
  }}
}}
application a {{
  component Kernel {{
{ports}
    repeat [16]
    deploy copy
  }}
  component a {{
    part k : Kernel
  }}
}}
{alloc_lines}
""")


def test_local_allocation_base_and_size():
    model = _model_with_ports(
        ["x in float64 [16]", "z out float64 [16]"],
        "allocate data k.x onto dev.cu.local\n"
        "allocate data k.z onto dev.gmem\n"
        "allocate task k onto dev.cu\n")
    assert validate_conformance(model) == []
    maps = build_memory_maps(model)
    local = next(m for m in maps if m.owner_path == "dev.cu.local")
    alloc = local.data_allocations[0]
    assert alloc.space_address is AddressSpace.LOCAL
    assert alloc.base_address == 0
    assert alloc.dim_allocation == Shape((16,))
    assert alloc.type_allocation is DataType.FLOAT64
    assert alloc.size_bytes == 128


def test_first_fit_packing_aligned_sizes():
    model = _model_with_ports(
        ["x in float64 [16]", "i in int32 [10]", "z out float64 [16]"],
        "allocate data k.x onto dev.gmem\n"
        "allocate data k.i onto dev.gmem\n"
        "allocate data k.z onto dev.gmem\n"
        "allocate task k onto dev.cu\n")
    maps = build_memory_maps(model)
    gmem = next(m for m in maps if m.owner_path == "dev.gmem")
    bases = [a.base_address for a in gmem.data_allocations]
    assert bases[:2] == [0, 128]  # 128 is already 4-aligned


def test_alignment_rounds_up_to_type_size():
    model = _model_with_ports(
        ["i in int32 [3]", "x in float64 [2]", "z out float64 [2]"],
        "allocate data k.i onto dev.gmem\n"
        "allocate data k.x onto dev.gmem\n"
        "allocate data k.z onto dev.gmem\n"
        "allocate task k onto dev.cu\n")
    gmem = build_memory_maps(model)[0]
    assert [a.base_address for a in gmem.data_allocations][:2] == [0, 16]


def test_capacity_exceeded_on_16k_local():
    # three 6824-byte allocations (20472 bytes) cannot fit a 16 KB local memory
    model = _model_with_ports(
        ["x in float64 [853]", "y in float64 [853]", "w in float64 [853]",
         "z out float64 [853]"],
        "allocate data k.x onto dev.cu.local\n"
        "allocate data k.y onto dev.cu.local\n"
        "allocate data k.w onto dev.cu.local\n"
        "allocate data k.z onto dev.gmem\n"
        "allocate task k onto dev.cu\n",
        capacity=" capacity=16K")
    assert validate_conformance(model) == []
    with pytest.raises(CapacityExceeded) as exc:
        build_memory_maps(model)
    assert exc.value.owner_path == "dev.cu.local"
    assert exc.value.capacity_bytes == 16384
    assert exc.value.needed_bytes == 20472


def test_connected_ports_share_allocation(cg_model, cg_maps):
    gmem = next(m for m in cg_maps if m.owner_path == "device.gmem")
    r_alloc = next(a for a in gmem.data_allocations if a.name == "init_r_dst")
    assert "loop.r" in r_alloc.associated_parts
    assert "loop.dot_rr.a" in r_alloc.associated_parts
    assert "init_p.src" in r_alloc.associated_parts
    assert r_alloc.associated_parts[0] == "init_r.dst"


def test_report_empty_and_single():
    assert emit_memory_map_report([]) == ""
    model = _model_with_ports(
        ["x in float64 [16]", "z out float64 [16]"],
        "allocate data k.x onto dev.gmem\n"
        "allocate data k.z onto dev.gmem\n"
        "allocate task k onto dev.cu\n")
    report = emit_memory_map_report(build_memory_maps(model))
    lines = report.splitlines()
    assert lines[0].startswith("map dev.gmem used=")
    assert "base=0" in lines[1]


def test_report_golden(cg_maps):
    assert emit_memory_map_report(cg_maps) == golden_path("cg_memmap.txt").read_text()


def test_report_deterministic(cg_text):
    reports = []
    for _ in range(2):
        model = gmodelc.parse_model(cg_text)
        reports.append(emit_memory_map_report(build_memory_maps(model)))
    assert reports[0] == reports[1]


def check_map_properties(maps):
    for mm in maps:
        intervals = []
        prev_base = -1
        for alloc in mm.data_allocations:
            size = alloc.size_bytes
            assert alloc.base_address % alloc.type_allocation.size_bytes == 0
            assert alloc.base_address > prev_base
            prev_base = alloc.base_address
            assert alloc.associated_parts
            intervals.append((alloc.base_address, alloc.base_address + size))
        for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
            assert a1 <= b0, "allocations overlap"
        if intervals:
            total = sum(hi - lo for lo, hi in intervals)
            span = intervals[-1][1]
            assert span <= total + (len(intervals) - 1) * 7
        if mm.capacity_bytes is not None:
            assert mm.used_bytes <= mm.capacity_bytes


def test_packing_properties_on_random_models():
    for seed in range(60):
        model = random_model(random.Random(1000 + seed))
        assert validate_conformance(model) == []
        check_map_properties(build_memory_maps(model))


def test_cg_map_properties(cg_maps):
    check_map_properties(cg_maps)


def test_port_in_two_memories_is_rejected():
    # a port group lives in one memory: the one its first data link names
    model = _model_with_ports(
        ["x in float64 [1]", "z out float64 [16]"],
        "allocate data k.x onto host.ram\n"
        "allocate data k.x onto dev.gmem\n"
        "allocate data k.z onto dev.gmem\n"
        "allocate task k onto dev.cu\n")
    assert validate_conformance(model) == []
    assert "error: k.x: data allocation onto 'dev.gmem' names a second memory: its port " \
           "group lives in 'host.ram'" in map(str, deployment_diagnostics(model))
    maps = build_memory_maps(model)
    assert [(m.owner_path, [a.associated_parts for a in m.data_allocations]) for m in maps] \
        == [("host.ram", [("k.x",)]), ("dev.gmem", [("k.z",)])]


def test_duplicate_allocation_same_memory_is_diagnosed():
    model = _model_with_ports(
        ["x in float64 [16]", "z out float64 [16]"],
        "allocate data k.x onto dev.gmem\n"
        "allocate data k.x onto dev.gmem\n"
        "allocate data k.z onto dev.gmem\n"
        "allocate task k onto dev.cu\n")
    diags = validate_conformance(model)
    assert any("duplicate data allocation" in d.message for d in diags)
