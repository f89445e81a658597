"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

import gmodelc
from gmodelc import refexec
from gmodelc.cli import main
from gmodelc.codegen import generate_host, generate_kernels, kernel_name
from gmodelc.dsl import parse_model, serialize_model
from gmodelc.memmap import CapacityExceeded, build_memory_maps, emit_memory_map_report
from gmodelc.metamodel import CompileContext, MemoryRole, validate_conformance
from gmodelc.partition import build_schedule, partition_equally

from conftest import golden_path
from matrices import csr_from_dense, csr_to_dense, matrix_to_coordinate_text, poisson_2d
from modelgen import random_model
from oracles import balanced_split, reference_cg
from test_memmap import check_map_properties
from test_metamodel import MUTATIONS

README = Path(__file__).parent.parent / "README.md"


def _report(num: int, text: str):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_timing_not_reproduced():
    """Wall-clock speed-up and gflops figures need physical multi-GPU hardware
    plus the original unpublished input matrix; this artifact states that and
    substitutes property-based checks."""
    readme = README.read_text()
    assert "not reproduced" in readme
    assert "device-count invariance" in readme.lower() or "iteration" in readme.lower()
    _report(1, "timing/speed-up/gflops figures are declared not reproduced; "
               "property-based substitutes are documented")


def test_criterion_2_device_count_invariance(tmp_path):
    A = poisson_2d(100)  # n = 10000
    mtx = tmp_path / "poisson100.mtx"
    mtx.write_text(matrix_to_coordinate_text(A))
    model_path = tmp_path / "cg.gmodel"
    model_path.write_text(gmodelc.bundled_model_text())

    start = time.perf_counter()
    iters = []
    solutions = []
    for d in ("1", "2", "4"):
        out_dir = tmp_path / f"d{d}"
        code = main(["run", str(model_path), "--devices", d,
                     "--matrix", str(mtx), "--out", str(out_dir)])
        assert code == 0
        line = (out_dir / "cg_result.txt").read_text()
        assert "converged=true" in line
        iters.append(int(re.search(r"iters=(\d+)", line).group(1)))
        solutions.append(np.loadtxt(out_dir / "cg_solution.txt"))
    elapsed = time.perf_counter() - start

    assert iters[0] == iters[1] == iters[2]
    for i in range(3):
        for j in range(i + 1, 3):
            rel = np.max(np.abs(solutions[i] - solutions[j])) \
                / np.max(np.abs(solutions[i]))
            assert rel <= 1e-10
    assert elapsed < 5.0
    _report(2, f"n=10000, tol=1e-10: devices 1/2/4 all took {iters[0]} iterations, "
               f"solutions pairwise within 1e-10, total {elapsed:.2f}s < 5s")


def test_criterion_3_cg_correctness():
    start = time.perf_counter()
    A = poisson_2d(20)  # n = 400
    b = np.ones(A.n)
    res = refexec.run_cg(A, b, refexec.SolverConfig(tol=1e-10, max_iter=A.n))
    assert res.converged
    x_direct = np.linalg.solve(csr_to_dense(A), b)
    rel = np.max(np.abs(res.outputs["x"] - x_direct)) / np.max(np.abs(x_direct))
    assert rel <= 1e-8
    _, oracle_iters, oracle_conv = reference_cg(
        A.row_ptr, A.col_idx, A.values, b, 1e-10, A.n)
    assert oracle_conv and res.iterations == oracle_iters
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"n=400: solution within 1e-8 of dense solve (got {rel:.2e}), "
               f"iterations == independent oracle ({res.iterations}), {elapsed:.2f}s < 1s")


def test_criterion_4_partition_exactness():
    ranges = partition_equally(132651, 4)
    assert [r.count for r in ranges] == [33163, 33163, 33163, 33162]
    rng = random.Random(2024)
    for _ in range(1000):
        total = rng.randint(1, 10 ** 6)
        devices = rng.randint(1, 16)
        parts = partition_equally(total, devices)
        assert parts[0].offset == 0
        for a, b in zip(parts, parts[1:]):
            assert b.offset == a.offset + a.count
        assert parts[-1].offset + parts[-1].count == total
        counts = [p.count for p in parts]
        assert max(counts) - min(counts) <= 1
        assert counts == balanced_split(total, devices)
    _report(4, "partition_equally(132651, 4) == [33163, 33163, 33163, 33162]; "
               "coverage/disjointness/balance hold on 1000 random (T, D) pairs")


def test_criterion_5_memory_map_properties():
    for seed in range(500):
        model = random_model(random.Random(seed))
        assert validate_conformance(model) == []
        check_map_properties(build_memory_maps(model))

    overflow = gmodelc.parse_model(OVERFLOW_MODEL)
    assert validate_conformance(overflow) == []
    with pytest.raises(CapacityExceeded) as exc:
        build_memory_maps(overflow)
    assert exc.value.capacity_bytes == 16384

    text = gmodelc.bundled_model_text()
    reports = [emit_memory_map_report(build_memory_maps(parse_model(text)))
               for _ in range(2)]
    assert reports[0] == reports[1]
    _report(5, "non-overlap/alignment/padding bound hold on 500 random models; "
               "16 KB local memory overflows with CapacityExceeded; report bytes "
               "identical across runs")


OVERFLOW_MODEL = """\
platform p {
  component Cu : hwProcessor {
    processor pe : hwProcessor shaped [8]
    memory local : hwMemory role=deviceLocal capacity=16K
  }
  component Dev {
    processor cu : Cu shaped [4]
    memory gmem : hwMemory role=deviceGlobal
  }
  component Host {
    processor cpu : hwProcessor
    memory ram : hwMemory role=hostRam
  }
  component p {
    part host : Host
    part dev : Dev
  }
}
application a {
  component K {
    port x in float64 [853]
    port y in float64 [853]
    port w in float64 [853]
    port z out float64 [853]
    repeat [853]
    deploy copy
  }
  component a {
    part k : K
  }
}
allocate data k.x onto dev.cu.local
allocate data k.y onto dev.cu.local
allocate data k.w onto dev.cu.local
allocate data k.z onto dev.gmem
allocate task k onto dev.cu
"""


def test_criterion_6_codegen_fidelity(cg_model, cg_maps, cg_schedule_d4):
    kern = generate_kernels(cg_model, cg_maps, cg_schedule_d4)
    host = generate_host(cg_model, cg_maps, cg_schedule_d4, 4)
    assert kern.contents == golden_path("cg_kernels.cl").read_text()
    assert host.contents == golden_path("cg_host_d4.c").read_text()

    device_steps = cg_schedule_d4.device_steps()
    assert kern.contents.count("__kernel void") == len(device_steps) == 11

    # one address-space keyword check per port-derived parameter
    node_space = {}
    for mm in cg_maps:
        role = CompileContext(cg_model).memory_role_of(mm.owner_path)
        for alloc in mm.data_allocations:
            for node in alloc.associated_parts:
                if role is not MemoryRole.HOST_RAM:
                    node_space[node] = alloc.space_address.value
    for step in device_steps:
        kname = kernel_name(step.task_path)
        sig = re.search(rf"__kernel\s+void\s+{kname}\s*\(([^)]*)\)", kern.contents,
                        re.S).group(1)
        for param in (p.strip() for p in sig.split(",")):
            pname = param.split()[-1].lstrip("*")
            if pname in ("first", "count", "partials"):
                continue
            space = node_space.get(f"{step.task_path}.{pname}")
            if space is None:
                assert not param.startswith("__"), param  # host scalar, by value
            else:
                assert param.startswith({"global": "__global", "constant": "__constant",
                                         "local": "__local", "private": ""}[space]), param

    assert host.contents.count("clEnqueueNDRangeKernel") == 4 * len(device_steps)
    for offset in (0, 33163, 66326, 99489):
        assert f"const cl_int first = {offset};" in host.contents
    _report(6, "goldens byte-identical; 11 kernels (one per repetitive task); "
               "qualifiers match allocations; 4 enqueues per step at offsets "
               "[0, 33163, 66326, 99489]")


def test_criterion_7_dsl_round_trip(cg_model):
    for seed in range(500):
        model = random_model(random.Random(10_000 + seed))
        assert parse_model(serialize_model(model)) == model, f"seed {seed}"
    failures = []
    for name, mutate, expected_path in MUTATIONS:
        broken = mutate(cg_model)
        diags = [d for d in validate_conformance(broken) if d.severity == "error"]
        if not diags or not any(expected_path in d.path for d in diags):
            failures.append(name)
    assert not failures
    _report(7, "parse(serialize(m)) == m on 500 generated models; every "
               f"mutation in the {len(MUTATIONS)}-case catalog yields a "
               "localized diagnostic")


def test_criterion_8_spmv_oracle_equivalence():
    rng = np.random.default_rng(88)
    for trial in range(200):
        n = int(rng.integers(1, 201))
        density = float(rng.uniform(0.02, 0.4))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
        A = csr_from_dense(dense)
        x = rng.standard_normal(n)
        got = refexec.spmv_csr(A, x)
        want = dense @ x
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
    _report(8, "sparse vs dense mat-vec agree within 1e-13 relative on 200 "
               "random systems up to n=200")
