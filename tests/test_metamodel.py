import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import gmodelc
from gmodelc.metamodel import (AllocKind, AllocationLink, CompileContext, Component,
                               ComponentKind, Connector, DataType, Diagnostic, Direction,
                               FlowPort, HwStereotype, MemoryRole, PartInstance, PathNotFound,
                               Shape, StereotypeKind, UntilCondition, connected_port_groups,
                               iter_instances, resolve_path, validate_conformance)

from modelgen import random_model
from oracles import reference_element_at, reference_instances


def test_shape_total_examples():
    assert Shape((4,)).total == 4
    assert Shape((16,)).total == 16
    assert Shape((2, 3, 4)).total == 24


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=4))
def test_shape_total_is_product(dims):
    total = 1
    for d in dims:
        total *= d
    assert Shape(tuple(dims)).total == total


def test_resolve_compute_unit_instance(cg_model):
    part = resolve_path(cg_model, "device.c")
    assert isinstance(part, PartInstance)
    assert part.shaped == Shape((16,))
    assert part.type_ref == "ComputeUnit"


def test_resolve_empty_path(cg_model):
    with pytest.raises(PathNotFound) as exc:
        resolve_path(cg_model, "")
    assert exc.value.prefix == ""


def test_resolve_reports_longest_prefix(cg_model):
    with pytest.raises(PathNotFound) as exc:
        resolve_path(cg_model, "host.cpu.doesNotExist")
    assert exc.value.prefix == "host.cpu"


def test_resolve_application_port(cg_model):
    port = resolve_path(cg_model, "loop.relres")
    assert isinstance(port, FlowPort)
    assert port.direction is Direction.OUT


def test_bundled_model_conforms(cg_model):
    assert validate_conformance(cg_model) == []


def test_validation_deterministic(cg_model):
    first = validate_conformance(cg_model)
    second = validate_conformance(cg_model)
    assert first == second
    assert [str(d) for d in first] == [str(d) for d in second]


def _with_component(model, comp):
    comps = dict(model.application_components)
    comps[comp.name] = comp
    return dataclasses.replace(model, application_components=comps)


def _with_platform_component(model, comp):
    comps = dict(model.platform_components)
    comps[comp.name] = comp
    return dataclasses.replace(model, platform_components=comps)


def _mutate_port(comp, port_name, **changes):
    ports = tuple(dataclasses.replace(p, **changes) if p.name == port_name else p
                  for p in comp.ports)
    return dataclasses.replace(comp, ports=ports)


def _connector_mismatch(model):
    spmv = model.application_components["SpmvCsr"]
    return _with_component(model, _mutate_port(spmv, "x", data_type=DataType.FLOAT32))


def test_connector_type_mismatch_cites_types():
    small = gmodelc.parse_model(MINI_MODEL)
    broken = _with_component(
        small, _mutate_port(small.application_components["Task"], "a",
                            data_type=DataType.FLOAT32))
    diags = validate_conformance(broken)
    assert any("type mismatch" in d.message and "float32" in d.message for d in diags)


def test_data_alloc_onto_processor_message():
    small = gmodelc.parse_model(MINI_MODEL)
    allocs = list(small.allocations)
    allocs[0] = dataclasses.replace(allocs[0], target_path="dev.cu")
    diags = validate_conformance(dataclasses.replace(small, allocations=tuple(allocs)))
    assert any(d.message == "allocation target not a memory" for d in diags)


MINI_MODEL = """\
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
  }
  component p {
    part host : Host
    part dev : Dev
  }
}
application a {
  component Task {
    port a in float64 [16]
    port z out float64 [16]
    repeat [16]
    deploy copy
  }
  component a {
    port src in float64 [16]
    port dst out float64 [16]
    part t : Task
    connect src -> t.a
    connect t.z -> dst
  }
}
allocate data src onto dev.gmem
allocate data t.z onto dev.gmem
allocate task t onto dev.cu
"""


def _mini():
    model = gmodelc.parse_model(MINI_MODEL)
    assert validate_conformance(model) == []
    return model


# Each mutation breaks one structural rule; the resulting diagnostics
# must point at the mutated element.
MUTATIONS = [
    ("zero_shape_dim", lambda m: _with_component(
        m, _mutate_port(m.application_components["SpmvCsr"], "x", shape=Shape((0,)))),
     "application.SpmvCsr"),
    ("duplicate_port", lambda m: _with_component(
        m, _mutate_port(m.application_components["SpmvCsr"], "colidx", name="rowptr")),
     "application.SpmvCsr.rowptr"),
    ("duplicate_part", lambda m: _with_component(
        m, dataclasses.replace(
            m.application_components["cg"],
            parts=m.application_components["cg"].parts
            + (dataclasses.replace(m.application_components["cg"].parts[0]),))),
     "application.cg.init_r"),
    ("leaf_with_parts", lambda m: _with_component(
        m, dataclasses.replace(m.application_components["VecCopy"],
                               parts=(PartInstance("sub", "Scale"),))),
     "application.VecCopy"),
    ("dangling_type_ref", lambda m: _with_component(
        m, dataclasses.replace(
            m.application_components["cg"],
            parts=(PartInstance("ghost", "NoSuch"),)
            + m.application_components["cg"].parts)),
     "application.cg.ghost"),
    ("connector_type_mismatch", _connector_mismatch, "application.CgLoop.connector"),
    ("connector_direction", lambda m: _with_component(
        m, _mutate_port(m.application_components["VecCopy"], "src",
                        direction=Direction.OUT)),
     "application.cg.connector"),
    ("dangling_alloc_source", lambda m: dataclasses.replace(
        m, allocations=(dataclasses.replace(m.allocations[0], source_path="ghost.port"),)
        + m.allocations[1:]),
     "allocation[0]"),
    ("data_alloc_onto_processor", lambda m: dataclasses.replace(
        m, allocations=(dataclasses.replace(m.allocations[0], target_path="device.c"),)
        + m.allocations[1:]),
     "allocation[0]"),
    ("task_alloc_onto_memory", lambda m: dataclasses.replace(
        m, allocations=m.allocations[:16]
        + (dataclasses.replace(m.allocations[16], target_path="device.gmem"),)
        + m.allocations[17:]),
     "allocation[16]"),
    ("duplicate_data_alloc", lambda m: dataclasses.replace(
        m, allocations=m.allocations + (m.allocations[0],)),
     f"allocation[31]"),
    ("until_tolerance_out_of_range", lambda m: _with_component(
        m, dataclasses.replace(m.application_components["CgLoop"],
                               until=UntilCondition("relres", 1.5))),
     "application.CgLoop"),
    ("until_port_missing", lambda m: _with_component(
        m, dataclasses.replace(m.application_components["CgLoop"],
                               until=UntilCondition("bogus", 1e-10))),
     "application.CgLoop"),
    ("instantiation_cycle", lambda m: _with_component(
        m, dataclasses.replace(m.application_components["CgLoop"],
                               parts=m.application_components["CgLoop"].parts
                               + (PartInstance("inner", "cg"),))),
     "application.CgLoop"),
    ("capacity_on_processor", lambda m: _with_platform_component(
        m, dataclasses.replace(
            m.platform_components["ComputeUnit"],
            stereotype=HwStereotype(StereotypeKind.PROCESSOR, capacity_bytes=64))),
     "platform.ComputeUnit"),
    ("role_on_processor", lambda m: _with_platform_component(
        m, dataclasses.replace(
            m.platform_components["ComputeUnit"],
            stereotype=HwStereotype(StereotypeKind.PROCESSOR,
                                    memory_role=MemoryRole.HOST_RAM))),
     "platform.ComputeUnit"),
    ("missing_root", lambda m: dataclasses.replace(m, application_root="nothing"),
     "application"),
]


@pytest.mark.parametrize("name,mutate,expected_path", MUTATIONS,
                         ids=[m[0] for m in MUTATIONS])
def test_single_mutation_yields_localized_diagnostic(cg_model, name, mutate, expected_path):
    broken = mutate(cg_model)
    diags = validate_conformance(broken)
    errors = [d for d in diags if d.severity == "error"]
    assert errors, f"mutation {name} produced no error diagnostics"
    assert any(expected_path in d.path for d in errors), \
        f"mutation {name}: no diagnostic path mentions {expected_path!r}: " \
        f"{[str(d) for d in errors]}"


def test_resolvable_paths_have_no_dangling_diagnostics(cg_model):
    resolve_path(cg_model, "device.gmem")
    diags = validate_conformance(cg_model)
    assert not any("does not resolve" in d.message for d in diags)


def test_unused_component_is_warning_not_error():
    model = _mini()
    extra = Component("Orphan", ComponentKind.APPLICATION,
                      ports=(FlowPort("p", Direction.IN, Shape((1,)), DataType.FLOAT64),))
    model = _with_component(model, extra)
    diags = validate_conformance(model)
    assert [d.severity for d in diags if "Orphan" in d.path] == ["warning"]


def test_diagnostics_sorted_by_path_then_message(cg_model):
    broken = dataclasses.replace(
        cg_model,
        allocations=(dataclasses.replace(cg_model.allocations[0], source_path="zz.q"),)
        + cg_model.allocations[1:] + (cg_model.allocations[1],))
    diags = validate_conformance(broken)
    keys = [(d.path, d.message) for d in diags]
    assert keys == sorted(keys)


def test_duplicate_names_resolve_to_first_declaration():
    text = MINI_MODEL.replace("""\
    port z out float64 [16]
    repeat [16]""", """\
    port z out float64 [16]
    port a out float64 [4]
    repeat [16]""").replace("""\
    part t : Task
""", """\
    part t : Task
    part t : Other
    part src : Task
""").replace("""\
  component a {""", """\
  component Other {
    port a in float64 [16]
  }
  component a {""")
    model = gmodelc.parse_model(text)
    task = model.application_components["Task"]
    root = model.application_components["a"]
    assert task.port("a") is task.ports[0]
    assert root.part("t") is root.parts[0] and root.part("t").type_ref == "Task"
    # The first 't' and the first 'a' are the ones connected: a later
    # declaration winning would add dangling-endpoint or type-mismatch errors.
    assert validate_conformance(model) == [
        Diagnostic("error", "allocation[0]", "data allocation source must be a port"),
        Diagnostic("error", "application.Task.a", "duplicate port name 'a'"),
        Diagnostic("error", "application.a.src", "name 'src' is used by both a part and a port"),
        Diagnostic("error", "application.a.t", "duplicate part name 't'"),
    ]

    # the lookup index lives outside the dataclass fields
    fresh = dataclasses.replace(root)
    assert root == fresh and hash(root) == hash(fresh) and repr(root) == repr(fresh)
    swapped = dataclasses.replace(root, parts=root.parts[::-1])
    assert swapped.part("t").type_ref == "Other"
    assert root.part("t").type_ref == "Task"


def _probe_paths(model) -> list[str]:
    """Every instance and port path of both sides, and near misses of each."""
    paths = {"", ".", "nosuch"}
    for kind in (ComponentKind.PLATFORM, ComponentKind.APPLICATION):
        for inst, comp in reference_instances(model, kind):
            prefix = f"{inst}." if inst else ""
            for name in [p.name for p in comp.parts] + [p.name for p in comp.ports]:
                path = prefix + name
                paths.update({path, path + ".", "." + path, path + ".nosuch",
                              path.replace(".", "..", 1), path.rpartition(".")[2]})
    return sorted(paths)


@pytest.mark.parametrize("seed", range(12))
def test_context_index_matches_a_segment_walk(cg_model, seed):
    """CompileContext resolves every path as a walk from the root does, and
    iter_instances lists the instances in that walk's pre-order, on
    generated models, the bundled one and one with duplicated names."""
    models = [random_model(random.Random(seed))]
    if seed == 0:
        # a second part 't' of a type that is not declared, and a part
        # 'src' that shadows the port 'src'
        models += [cg_model, gmodelc.parse_model(MINI_MODEL.replace(
            "    part t : Task\n", "    part t : Task\n    part t : Host\n    part src : Task\n"))]
    for model in models:
        ctx = CompileContext(model)
        for kind in (ComponentKind.PLATFORM, ComponentKind.APPLICATION):
            assert list(iter_instances(model, kind)) == reference_instances(model, kind), kind
            for path in _probe_paths(model):
                expected = reference_element_at(model, kind, path)
                assert ctx.element_at(kind, path) is expected, (kind, path)
                comp = model.component(kind, expected.type_ref) \
                    if isinstance(expected, PartInstance) else None
                assert ctx.component_at(kind, path) is comp, (kind, path)


def test_context_index_terminates_on_a_type_cycle(cg_text):
    """The index, and every walk that reads it, ends on a type cycle: with cg
    a part of its own loop, conformance reports the two members of the
    cycle alone, and the instance walk and the port groups return."""
    text = MINI_MODEL.replace("  component a {", "  component Loop {\n    part again : Loop\n"
                              "  }\n  component a {\n    part loop : Loop", 1)
    model = gmodelc.parse_model(text)
    assert any("instantiation cycle" in d.message for d in validate_conformance(model))
    ctx = CompileContext(model)
    assert ctx.component_at(ComponentKind.APPLICATION, "loop.again") is \
        model.application_components["Loop"]

    old = "    part axpy_p : AxpyUnit\n"
    model = gmodelc.parse_model(cg_text.replace(old, old + "    part again : cg\n"))
    cycle = "component participates in an instantiation cycle"
    assert validate_conformance(model) == [
        Diagnostic("error", f"application.{name}", cycle) for name in ("CgLoop", "cg")]
    instances = list(iter_instances(model, ComponentKind.APPLICATION))
    assert instances == reference_instances(model, ComponentKind.APPLICATION)
    assert ("loop.again", model.application_components["cg"]) in instances
    assert "loop.again.loop" not in dict(instances)
    groups = connected_port_groups(model)
    assert groups["b"] is groups["init_r.src"]


def test_allocation_targets_on_a_cyclic_platform_resolve():
    """The index of a side ends on a type cycle, so its allocation paths
    still resolve: the cycle is the only error, not one per allocation."""
    text = MINI_MODEL.replace("    memory gmem : hwMemory role=deviceGlobal\n",
                              "    memory gmem : hwMemory role=deviceGlobal\n"
                              "    part again : Dev\n")
    model = gmodelc.parse_model(text)
    assert validate_conformance(model) == [
        Diagnostic("error", "platform.Dev", "component participates in an instantiation cycle")]
    assert model.context.component_at(ComponentKind.PLATFORM, "dev.again") \
        is model.platform_components["Dev"]


def test_port_groups_join_a_port_fed_from_two_levels():
    """c.p is fed by x from outside and by c.l.z from inside: one group."""
    model = gmodelc.parse_model("""\
platform p {
  component p {
  }
}
application a {
  component L {
    port z out float64 [4]
    deploy copy
  }
  component C {
    port p inout float64 [4]
    part l : L
    connect l.z -> p
  }
  component a {
    port x in float64 [4]
    part c : C
    connect x -> c.p
  }
}
""")
    groups = connected_port_groups(model)
    assert groups["x"] is groups["c.p"] is groups["c.l.z"]
    assert groups["x"] == {"x", "c.p", "c.l.z"}


_ORDER_SCRIPT = """\
import json
import numpy as np
import gmodelc
from gmodelc import refexec
from matrices import poisson_2d
A = poisson_2d(4)
model = refexec.instantiate_for_matrix(gmodelc.parse_model(gmodelc.bundled_model_text()),
                                       A.n, A.nnz)
storage = refexec._Storage(model.context, refexec._matrix_bindings(model, A, np.ones(A.n)))
print(json.dumps([list(model.context.port_groups), [sorted(g) for g in storage.arrays]]))
"""


def test_port_group_order_does_not_depend_on_the_hash_seed():
    """The port groups of cg.gmodel, and the order in which the executor
    allocates their arrays, are the same under two string hash seeds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(gmodelc.__file__).parents[1]), str(Path(__file__).parent)])}
    runs = [subprocess.run([sys.executable, "-c", _ORDER_SCRIPT], check=True, text=True,
                           capture_output=True, env={**env, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    groups, arrays = json.loads(runs[0])
    assert len(groups) > len(arrays) > 1
    assert runs[0] == runs[1]


def test_one_compile_chain_derives_each_table_once(cg_text, monkeypatch):
    """parse -> conformance -> memory maps -> schedule -> kernels -> host,
    called with no context, computes the port groups and the digest once and
    indexes each side's instance paths once: every stage takes the model's
    own context."""
    from gmodelc import codegen, dsl, memmap, metamodel, partition
    calls: dict[str, list] = {"groups": [], "index": [], "digest": []}

    def count(name, module, attr, key):
        fn = getattr(module, attr)

        def counted(*args):
            calls[name].append(key(*args))
            return fn(*args)
        monkeypatch.setattr(module, attr, counted)

    count("groups", metamodel, "connected_port_groups", lambda model: model)
    count("index", metamodel, "_part_index", lambda model, kind: kind)
    count("digest", dsl, "serialize_model", lambda model: model)

    model = gmodelc.parse_model(cg_text)
    assert validate_conformance(model) == []
    maps = memmap.build_memory_maps(model)
    schedule = partition.build_schedule(model, 4)
    codegen.generate_kernels(model, maps, schedule)
    codegen.generate_host(model, maps, schedule, 4)
    assert calls["groups"] == [model]
    assert sorted(calls["index"]) == sorted(ComponentKind)
    assert calls["digest"] == [model]


def test_conformance_and_schedule_resolve_each_connector_end_once(cg_text, monkeypatch):
    """Conformance, the port groups and the schedule's part order read each
    component's connector endpoints from the context, resolved once."""
    from gmodelc import metamodel, partition
    calls = []
    resolve = metamodel._effective_endpoint

    def counted(model, comp, endpoint):
        calls.append((comp.name, endpoint))
        return resolve(model, comp, endpoint)

    monkeypatch.setattr(metamodel, "_effective_endpoint", counted)
    model = gmodelc.parse_model(cg_text)
    assert validate_conformance(model) == []
    partition.build_schedule(model, 4)
    ends = [(comp.name, end)
            for comps in (model.platform_components, model.application_components)
            for comp in comps.values() for conn in comp.connectors
            for end in (conn.source, conn.target)]
    assert len(ends) == 2 * 39
    assert sorted(calls) == sorted(ends)


def test_a_dropped_model_is_freed_by_reference_counting(cg_text):
    """A model and its context form no reference cycle, so dropping a
    compiled model frees both without the cycle collector."""
    from gmodelc import codegen, memmap, partition
    gc.disable()
    try:
        model = gmodelc.parse_model(cg_text)
        assert validate_conformance(model) == []
        maps = memmap.build_memory_maps(model)
        schedule = partition.build_schedule(model, 4)
        codegen.generate_kernels(model, maps, schedule)
        codegen.generate_host(model, maps, schedule, 4)
        dropped, dropped_context = weakref.ref(model), weakref.ref(model.context)
        del model
        assert dropped() is None and dropped_context() is None
    finally:
        gc.enable()


def test_model_tables_are_read_only(cg_model):
    with pytest.raises(TypeError):
        cg_model.application_components["cg"] = cg_model.application_components["CgLoop"]
    with pytest.raises(TypeError):
        del cg_model.platform_components[cg_model.platform_root]


def test_model_copies_the_tables_it_is_built_from(cg_model):
    """Editing the dict a Model was built from does not reach the model."""
    comps = dict(cg_model.application_components)
    model = dataclasses.replace(cg_model, application_components=comps)
    comps.clear()
    assert model.application_components == cg_model.application_components
    assert model == cg_model


def test_a_replaced_model_has_its_own_context(cg_model):
    comps = dict(cg_model.application_components)
    del comps["CgLoop"]
    variant = dataclasses.replace(cg_model, application_components=comps)
    assert cg_model.context is cg_model.context
    assert variant.context is not cg_model.context
    assert variant.context.model is variant
    assert variant.context.component_at(ComponentKind.APPLICATION, "loop") is None
    assert cg_model.context.component_at(ComponentKind.APPLICATION, "loop") is \
        cg_model.application_components["CgLoop"]


@pytest.mark.parametrize("seed", range(4))
def test_models_with_contexts_equal_their_round_trip(cg_model, seed):
    """A computed context is no part of a model's value: a model whose
    context tables are built still equals its serialize/parse round trip."""
    model = cg_model if seed == 0 else random_model(random.Random(seed))
    assert model.context.port_groups and model.context.digest
    model.context.component_at(ComponentKind.APPLICATION, "x")
    again = gmodelc.parse_model(gmodelc.serialize_model(model))
    assert again == model and again.context is not model.context
    assert again.context.digest == model.context.digest
