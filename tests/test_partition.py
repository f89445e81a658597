import random

import pytest
from hypothesis import given, settings, strategies as st

import gmodelc
from gmodelc.intrinsics import deployment_diagnostics
from gmodelc.metamodel import CompileContext, ComponentKind
from gmodelc.partition import (CyclicTaskGraph, DeviceStep, HostOp, LoopStep,
                               MissingGeometry, NestedLoop, UnallocatedTask, WorkRange,
                               _launches, _order_parts, _pe_local_size, build_schedule,
                               partition_equally)

import loopmodels
from oracles import balanced_split


def test_partition_paper_scale():
    ranges = partition_equally(132651, 4)
    assert [r.count for r in ranges] == [33163, 33163, 33163, 33162]
    assert [r.offset for r in ranges] == [0, 33163, 66326, 99489]


def test_partition_single_device_identity():
    assert partition_equally(10, 1) == [WorkRange(0, 10)]


def test_partition_balanced_remainder():
    assert [r.count for r in partition_equally(7, 3)] == [3, 2, 2]


def test_partition_more_devices_than_work():
    ranges = partition_equally(3, 8)
    assert len(ranges) == 3
    assert all(r.count == 1 for r in ranges)


def test_partition_rejects_zero():
    with pytest.raises(ValueError):
        partition_equally(0, 4)
    with pytest.raises(ValueError):
        partition_equally(5, 0)


@settings(max_examples=300)
@given(st.integers(1, 100000), st.integers(1, 16))
def test_partition_coverage_and_balance(total, devices):
    ranges = partition_equally(total, devices)
    assert ranges[0].offset == 0
    for a, b in zip(ranges, ranges[1:]):
        assert b.offset == a.offset + a.count
    assert ranges[-1].offset + ranges[-1].count == total
    counts = [r.count for r in ranges]
    assert max(counts) - min(counts) <= 1
    assert counts == balanced_split(total, devices)


@settings(max_examples=200)
@given(st.integers(1, 5000), st.integers(1, 15))
def test_partition_monotone_in_device_count(total, devices):
    more = partition_equally(total, devices + 1)
    fewer = partition_equally(total, devices)
    assert max(r.count for r in more) <= max(r.count for r in fewer)


def test_launch_rounding_paper_chunk(cg_schedule_d4):
    (step,) = [s for s in cg_schedule_d4.device_steps() if s.task_path == "loop.spmv"]
    launches = step.launches
    assert launches[0].local_size == 8
    assert launches[0].global_size == 33168
    assert launches[3].global_size == 33168
    assert [l.device_index for l in launches] == [0, 1, 2, 3]


def _device_launches(model, ranges):
    """The launches of the spmv task over ranges on the model's device."""
    return _launches(ranges, _pe_local_size(CompileContext(model), "device.c"))


def test_launch_exact_multiple(cg_model):
    launch, = _device_launches(cg_model, [WorkRange(0, 8)])
    assert launch.global_size == 8


def test_launch_minimal_rounding(cg_model):
    launch, = _device_launches(cg_model, [WorkRange(0, 1)])
    assert launch.global_size == 8 and launch.local_size == 8


@settings(max_examples=200)
@given(st.integers(1, 100000), st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_launch_rounding_property(count, local):
    global_size = (count + local - 1) // local * local
    assert global_size >= count
    assert global_size % local == 0
    assert global_size - count < local


def test_missing_geometry():
    model = gmodelc.parse_model("""\
platform p {
  component Dev {
    processor flat : hwProcessor
    memory gmem : hwMemory role=deviceGlobal
  }
  component p {
    part dev : Dev
  }
}
application a {
  component T {
    port a in float64 [4]
    port z out float64 [4]
    repeat [4]
    deploy copy
  }
  component a {
    port i in float64 [4]
    port o out float64 [4]
    part t : T
    connect i -> t.a
    connect t.z -> o
  }
}
allocate data i onto dev.gmem
allocate data t.z onto dev.gmem
allocate task t onto dev.flat
""")
    assert gmodelc.validate_conformance(model) == []
    with pytest.raises(MissingGeometry):
        build_schedule(model, 1)


def test_cg_schedule_structure(cg_model, cg_schedule_d1):
    kinds = [type(s).__name__ for s in cg_schedule_d1.steps]
    assert kinds == ["DeviceStep", "DeviceStep", "DeviceStep", "LoopStep"]
    loop = cg_schedule_d1.steps[-1]
    assert loop.tolerance == 1e-10
    assert loop.max_iterations == 132651
    assert loop.relres_port == "loop.relres"
    body_paths = [s.task_path for s in loop.body]
    assert body_paths == [
        "loop.dot_rr", "loop.spmv", "loop.dot_pap", "loop.alpha", "loop.neg_alpha",
        "loop.axpy_x", "loop.axpy_r", "loop.dot_rrn", "loop.relres_calc", "loop.beta",
        "loop.scale_p", "loop.axpy_p"]
    assert all(len(s.launches) == 1 for s in loop.body if isinstance(s, DeviceStep))
    spmv = next(s for s in loop.body if s.task_path == "loop.spmv")
    assert spmv.launches[0].range == WorkRange(0, 132651)


def test_cg_schedule_host_ops(cg_schedule_d1):
    host = [s.task_path for s in cg_schedule_d1.host_ops()]
    assert host == ["loop.alpha", "loop.neg_alpha", "loop.relres_calc", "loop.beta"]


def test_schedule_partitions_match_device_count(cg_schedule_d4):
    for step in cg_schedule_d4.device_steps():
        assert len(step.launches) == 4
        assert step.total_work == 132651


def test_single_host_task_schedule():
    model = gmodelc.parse_model("""\
platform p {
  component Host {
    processor cpu : hwProcessor
    memory ram : hwMemory role=hostRam
  }
  component p {
    part host : Host
  }
}
application a {
  component S {
    port num in float64 [1]
    port den in float64 [1]
    port q out float64 [1]
    deploy div
  }
  component a {
    port n in float64 [1]
    port d in float64 [1]
    port q out float64 [1]
    part s : S
    connect n -> s.num
    connect d -> s.den
    connect s.q -> q
  }
}
allocate task s onto host.cpu
""")
    assert gmodelc.validate_conformance(model) == []
    schedule = build_schedule(model, 2)
    assert [type(s).__name__ for s in schedule.steps] == ["HostOp"]
    assert schedule.steps[0].op == "div"


def test_cyclic_connectors_detected():
    model = gmodelc.parse_model("""\
platform p {
  component Host {
    processor cpu : hwProcessor
    memory ram : hwMemory role=hostRam
  }
  component p {
    part host : Host
  }
}
application a {
  component T {
    port a in float64 [4]
    port z out float64 [4]
    deploy copy
  }
  component a {
    part t0 : T
    part t1 : T
    part t2 : T
    part t3 : T
    connect t1.z -> t2.a
    connect t2.z -> t1.a
    connect t2.z -> t3.a
  }
}
allocate task t0 onto host.cpu
allocate task t1 onto host.cpu
allocate task t2 onto host.cpu
allocate task t3 onto host.cpu
""")
    assert gmodelc.validate_conformance(model) == []
    # t0 runs; t3 waits on the cycle and is reported with it
    with pytest.raises(CyclicTaskGraph,
                       match=r"^connector cycle among tasks of '<root>': t1, t2, t3$"):
        build_schedule(model, 1)


def test_loops_do_not_nest():
    """A loop's body holds leaves only: a loop inside one is a NestedLoop,
    naming both loop paths, and so is a loop on the application root, which
    runs once; two loops side by side are two LoopSteps."""
    for text, message in (
            (loopmodels.nested_loops(3),
             r"^loop 'k\.k' is nested in loop 'k', but loops do not nest$"),
            (loopmodels.ROOT_LOOP,
             r"^loop 'two' is the application root, but only its parts may loop$")):
        model = gmodelc.parse_model(text)
        assert gmodelc.validate_conformance(model) == []
        assert deployment_diagnostics(model) == []
        with pytest.raises(NestedLoop, match=message):
            build_schedule(model, 1)
    schedule = build_schedule(gmodelc.parse_model(loopmodels.TWO_LOOPS), 1)
    assert [(s.task_path, s.max_iterations, [leaf.task_path for leaf in s.body])
            for s in schedule.steps] == [("first", 3, ["first.k"]), ("second", 2, ["second.k"])]
    assert [op.task_path for op in schedule.host_ops()] == ["first.k", "second.k"]


def test_unallocated_task():
    model = gmodelc.parse_model("""\
platform p {
  component Host {
    processor cpu : hwProcessor
    memory ram : hwMemory role=hostRam
  }
  component p {
    part host : Host
  }
}
application a {
  component T {
    port a in float64 [4]
    port z out float64 [4]
    deploy copy
  }
  component a {
    port i in float64 [4]
    port o out float64 [4]
    part t : T
    connect i -> t.a
    connect t.z -> o
  }
}
""")
    with pytest.raises(UnallocatedTask):
        build_schedule(model, 1)


def test_schedule_deterministic(cg_model):
    assert build_schedule(cg_model, 3) == build_schedule(cg_model, 3)


def test_readers_precede_inplace_writers(cg_schedule_d1):
    # dot_rr reads r before axpy_r updates it; the p readers precede scale_p
    loop = cg_schedule_d1.steps[-1]
    order = [s.task_path for s in loop.body]
    assert order.index("loop.dot_rr") < order.index("loop.axpy_r")
    for reader in ("loop.spmv", "loop.dot_pap", "loop.axpy_x"):
        assert order.index(reader) < order.index("loop.scale_p")


def test_inplace_writers_of_one_value_run_in_declaration_order():
    """first and second both update v in place: second, declared later, runs
    after first, although second is ready before it (first waits on s)."""
    model = gmodelc.parse_model("""\
platform p {
  component p {
  }
}
application a {
  component W {
    port y inout float64 [4]
    port a in float64 [1]
    deploy scale
  }
  component S {
    port num in float64 [1]
    port den in float64 [1]
    port q out float64 [1]
    deploy div
  }
  component a {
    port v inout float64 [4]
    port n in float64 [1]
    part first : W
    part second : W
    part s : S
    connect v -> first.y
    connect v -> second.y
    connect s.q -> first.a
    connect n -> second.a
    connect n -> s.num
    connect n -> s.den
  }
}
""")
    assert gmodelc.validate_conformance(model) == []
    root = model.root(ComponentKind.APPLICATION)
    assert [part.name for part in _order_parts(model, root, "")] == ["s", "first", "second"]


def test_invalid_device_count(cg_model):
    with pytest.raises(ValueError):
        build_schedule(cg_model, 0)


def test_every_leaf_task_scheduled_exactly_once(cg_model, cg_schedule_d1):
    from gmodelc.metamodel import iter_instances

    expected = set()
    for path, comp in iter_instances(cg_model, ComponentKind.APPLICATION):
        if path and comp.is_leaf_task:
            expected.add(path)
    scheduled = [s.task_path for s in cg_schedule_d1.device_steps()] \
        + [s.task_path for s in cg_schedule_d1.host_ops()]
    assert sorted(scheduled) == sorted(expected)
    assert len(scheduled) == len(set(scheduled))
