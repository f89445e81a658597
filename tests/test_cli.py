import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gmodelc
from gmodelc import cli, codegen, dsl, refexec
from gmodelc.cli import main
from gmodelc.codegen import generate_host, generate_kernels, lower
from gmodelc.intrinsics import IntrinsicShapeMismatch
from gmodelc.memmap import build_memory_maps
from gmodelc.metamodel import ComponentKind
from gmodelc.partition import UnallocatedTask, build_schedule

import loopmodels
from conftest import golden_path
from matrices import matrix_to_coordinate_text, poisson_2d
from oracles import partitioned_cg


@pytest.fixture()
def workdir(tmp_path):
    model_path = tmp_path / "cg.gmodel"
    model_path.write_text(gmodelc.bundled_model_text())
    return tmp_path, str(model_path)


def _oracle_cg(A, b):
    """The one-device CG of the oracles: one dot range, tol 1e-10, at most n iterations."""
    return partitioned_cg(A.row_ptr, A.col_idx, A.values, b, 1e-10, A.n, [(0, A.n)])


def _write_poisson(tmp_path, k):
    A = poisson_2d(k)
    path = tmp_path / f"poisson{k}.mtx"
    path.write_text(matrix_to_coordinate_text(A))
    return str(path), A


def test_check_bundled_model(workdir, capsys):
    _, model_path = workdir
    assert main(["check", model_path]) == 0
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ""


def test_each_command_lowers_once(workdir, capsys, monkeypatch):
    """check and codegen lower the model once, shared by the kernel and host
    printers, as do the paired generate_kernels and generate_host calls of
    a compile from the library; map lowers nothing."""
    tmp_path, model_path = workdir
    calls = []
    body = codegen._lower
    monkeypatch.setattr(codegen, "_lower", lambda *args: calls.append(args) or body(*args))
    for argv, count in ((["check", model_path], 1),
                        (["codegen", model_path, "--devices", "4", "--out", str(tmp_path)], 1),
                        (["map", model_path, "--out", str(tmp_path)], 0)):
        calls.clear()
        assert main(argv) == 0
        assert len(calls) == count, argv
    capsys.readouterr()
    calls.clear()
    model = gmodelc.parse_model(gmodelc.bundled_model_text())
    maps, schedule = build_memory_maps(model), build_schedule(model, 4)
    generate_kernels(model, maps, schedule)
    assert generate_host(model, maps, schedule, 4).contents \
        == golden_path("cg_host_d4.c").read_text()
    assert len(calls) == 1


def test_check_reports_type_mismatch(workdir, capsys):
    tmp_path, _ = workdir
    bad = gmodelc.bundled_model_text().replace(
        "port x in float64 [132651]", "port x in float32 [132651]", 1)
    path = tmp_path / "bad.gmodel"
    path.write_text(bad)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "type mismatch" in err


NEG_PORTS = "    port a in float64 [1]\n    port z out float64 [1]\n    deploy neg"
ODD_COPY = (
    ("  component cg {", "  component Odd {\n    port src in float64 [4]\n"
     "    port dst out float64 [5]\n    deploy copy\n  }\n  component cg {"),
    ("    part loop : CgLoop\n", "    part loop : CgLoop\n    part odd : Odd\n"),
    ("allocate task init_r onto device.c\n", "allocate task init_r onto device.c\n"
     "allocate task odd onto device.c\nallocate data odd.src onto device.gmem\n"))
AXPY_UNIT_WIDE_A = (
    ("    port x in float64 [132651]\n    repeat [132651]\n    deploy axpy\n  }\n"
     "  component Scale", "    port x in float64 [132651]\n    port a in float64 [2]\n"
     "    repeat [132651]\n    deploy axpy\n  }\n  component Scale"),
    ("allocate task init_r onto device.c\n", "allocate task init_r onto device.c\n"
     "allocate data loop.axpy_p.a onto device.gmem\n"))


def _error(task, message):
    return f"error: {task}: task '{task}': {message}"


# each edit is a sequence of (old, new) replacements, each of all occurrences
@pytest.mark.parametrize("edit,errors", [
    # one diagnostic per task: four tasks instantiate DotProduct
    ((("deploy dot_partial", "deploy frobnicate"),),
     [f"error: {t}: task '{t}' deploys unknown intrinsic 'frobnicate'"
      for t in ("dot_bb", "loop.dot_rr", "loop.dot_pap", "loop.dot_rrn")]),
    ((("    port z out float64 [1]\n    deploy neg",
       "    port z out float64 [1]\n    port w out float64 [1]\n    deploy neg"),),
     ["error: loop.neg_alpha: task 'loop.neg_alpha': intrinsic 'neg' expects ports "
      "['a', 'z'] (optional: []), got ['a', 'w', 'z']"]),
    ((("loop.neg_alpha onto host.cpu", "loop.neg_alpha onto device.c"),),
     ["error: loop.neg_alpha: task 'loop.neg_alpha': host intrinsic 'neg' is "
      "allocated to a device processor"]),
    ((("loop.scale_p onto device.c", "loop.scale_p onto host.cpu"),),
     ["error: loop.scale_p: task 'loop.scale_p': device intrinsic 'scale' is "
      "allocated to a host processor"]),
    (((NEG_PORTS, NEG_PORTS.replace("a in", "a inout")),),
     [_error("loop.neg_alpha", "port 'a' must be in")]),
    # the CSR ports of cg, CgLoop and SpmvCsr change together
    ((("port rowptr in int32", "port rowptr in float64"),),
     [_error("loop.spmv", "port 'rowptr' must have an integer type")]),
    ((("port values in float64", "port values in int32"),),
     [_error("loop.spmv", "port 'values' must have a floating-point type")]),
    (AXPY_UNIT_WIDE_A, [_error("loop.axpy_p", "port 'a' must be scalar")]),
    (ODD_COPY, [_error("odd", "vector ports disagree on extent: [4, 5]")]),
    # VecCopy: init_r and init_p
    ((("    port dst out float64 [132651]\n    repeat [132651]",
       "    port dst out float64 [132651]\n    repeat [7]"),),
     [_error(t, "repetition space 7 does not match vector extent 132651")
      for t in ("init_r", "init_p")]),
    ((("port rowptr in int32 [132652]", "port rowptr in int32 [132651]"),),
     [_error("loop.spmv", "rowptr extent must be row count + 1")]),
    ((("port colidx in int32 [3442951]", "port colidx in int32 [3442950]"),),
     [_error("loop.spmv", "colidx and values extents differ")]),
    # b's port group, which feeds three device tasks, has no data allocation
    ((("allocate data b onto device.gmem\n", ""),),
     [f"error: {port}: in port of a device task has no device-memory allocation "
      "(directly or via connected ports)" for port in ("init_r.src", "dot_bb.a", "dot_bb.b")]),
    # the loop tests a port that nothing writes and the host does not hold
    ((("    port relres out float64 [1]\n    part dot_rr",
       "    port relres out float64 [1]\n    port stop out float64 [1]\n    part dot_rr"),
      ("until relres < 1e-10", "until stop < 1e-10")),
     ["error: loop.stop: until port of a loop has no host-memory allocation "
      "(directly or via connected ports)"]),
    # a port group in constant memory whose ports kernels write: the root
    # out port x, and the loop's x and axpy_x.y that update it in place
    ((("allocate data x onto device.gmem", "allocate data x onto device.cmem"),),
     [f"error: {port}: {direction} port in constant memory 'device.cmem', which kernels "
      "only read" for port, direction in (("loop.axpy_x.y", "inout"), ("loop.x", "inout"),
                                          ("x", "out"))]),
    ((("deploy neg", "deploy frobnicate"),),
     ["error: loop.neg_alpha: task 'loop.neg_alpha' deploys unknown intrinsic 'frobnicate'"]),
    # a group of host-task ports and a device task's in scalar, and one of a
    # reduction's sum and a host-task port, each without an allocation
    ((("allocate data loop.alpha.q onto host.ram\n", ""),),
     [f"error: {port}: {what} has no {memory} allocation (directly or via connected ports)"
      for port, what, memory in (("loop.alpha.q", "out port of a host task", "host-memory"),
                                 ("loop.neg_alpha.a", "in port of a host task", "host-memory"),
                                 ("loop.axpy_x.a", "in port of a device task", "data"))]),
    ((("allocate data dot_bb.s onto host.ram\n", ""),),
     [f"error: {port}: {what} has no host-memory allocation (directly or via connected ports)"
      for port, what in (("dot_bb.s", "out port of a reduction"),
                         ("loop.relres_calc.den", "in port of a host task"))]),
])
def test_check_reports_deployment_errors(workdir, capsys, edit, errors):
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    for old, new in edit:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "bad.gmodel"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == errors


# the cg ports whose port groups the host program reads or writes
HOST_RAM_PORTS = ("dot_bb.s", "loop.dot_rr.s", "loop.dot_pap.s", "loop.alpha.q",
                  "loop.neg_alpha.z", "loop.dot_rrn.s", "loop.relres", "loop.beta.q")


# edits of cg's allocations that leave each line's port group in memory
# that no generated program could use: (port, its lines' new text)
MISPLACED = {
    "second-memory-host": ("loop.alpha.q", "allocate data loop.alpha.q onto host.ram\n"
                                           "allocate data loop.alpha.q onto device.gmem\n"),
    "second-memory-device": ("values", "allocate data values onto device.gmem\n"
                                       "allocate data values onto device.cmem\n"),
    "constant-written": ("loop.spmv.y", "allocate data loop.dot_pap.b onto device.cmem\n"),
    "private": ("loop.spmv.y", "allocate data loop.spmv.y onto device.c.pe.pmem\n"),
}


@pytest.mark.parametrize("model_file, port, new", [
    *((None, port, "") for port in HOST_RAM_PORTS),
    *((None, port, f"allocate data {port} onto device.gmem\n") for port in HOST_RAM_PORTS),
    ("intrinsics.gmodel", "diff.z", ""),
    *((None, port, new) for port, new in MISPLACED.values()),
], ids=[*(f"delete-{p}" for p in HOST_RAM_PORTS), *(f"move-{p}" for p in HOST_RAM_PORTS),
        "delete-diff.z", *MISPLACED])
def test_placement_errors_same_in_check_codegen_and_run(tmp_path, capsys, model_file, port, new):
    """A port group that loses its allocation, moves from host to device
    memory, names a second memory, is written in constant memory or sits in
    private memory fails check, codegen and run alike: exit 1 and the same
    diagnostics, each naming a port of that group."""
    text = gmodelc.bundled_model_text() if model_file is None \
        else golden_path(model_file).read_text()
    old, = (line + "\n" for line in text.splitlines()
            if line.startswith(f"allocate data {port} onto "))
    model = gmodelc.parse_model(text)
    group = model.context.port_groups[port]
    path = tmp_path / "edited.gmodel"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""
    path.write_text(text.replace(old, new))
    mtx, _ = _write_poisson(tmp_path, 4)
    errs = []
    for argv in (["check"], ["codegen", "--devices", "4"], ["run", "--matrix", mtx]):
        assert main(argv + [str(path), "--out", str(tmp_path / "out")]) == 1
        errs.append(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    err = errs[0]
    assert errs == [err] * 3 and err and "Traceback" not in err
    for line in err.splitlines():
        assert line.startswith("error: ") and line.split(": ")[1] in group, line
    if (port, new) in MISPLACED.values():       # one broken port each
        assert len(err.splitlines()) == 1


def test_check_reports_unallocated_leaf_task(workdir, capsys):
    """check rejects a leaf task without a task allocation with the message
    that the schedule raises for codegen and run."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    line = "allocate task loop.beta onto host.cpu\n"
    assert line in text
    path = tmp_path / "unallocated.gmodel"
    path.write_text(text.replace(line, ""))
    assert main(["check", str(path)]) == 1
    message = "leaf task 'loop.beta' has no task allocation"
    assert capsys.readouterr().err.splitlines() == [f"error: loop.beta: {message}"]
    with pytest.raises(UnallocatedTask, match=message):
        build_schedule(gmodelc.parse_model(text.replace(line, "")), 1)


@pytest.mark.parametrize("edit", [
    ("loop.neg_alpha onto host.cpu", "loop.neg_alpha onto device.c"),
    ("loop.scale_p onto device.c", "loop.scale_p onto host.cpu"),
])
def test_placement_mismatch_same_message_in_check_codegen_and_run(workdir, capsys, edit):
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text().replace(*edit)
    path = tmp_path / "misplaced.gmodel"
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    task, message = capsys.readouterr().err.removeprefix("error: ").rstrip("\n").split(": ", 1)
    model = gmodelc.parse_model(text)
    maps, schedule = build_memory_maps(model), build_schedule(model, 2)
    with pytest.raises(IntrinsicShapeMismatch) as host_error:
        generate_host(model, maps, schedule, 2)
    A = poisson_2d(4)
    sized = refexec.instantiate_for_matrix(model, A.n, A.nnz)
    bindings = {"rowptr": A.row_ptr, "colidx": A.col_idx, "values": A.values,
                "b": np.ones(A.n)}
    with pytest.raises(IntrinsicShapeMismatch) as run_error:
        refexec.execute_schedule(sized, build_schedule(sized, 2), bindings)
    assert str(host_error.value) == str(run_error.value) == message
    assert message.startswith(f"task '{task}': ")
    if "neg_alpha" in task:     # a kernel is generated for device steps only
        with pytest.raises(IntrinsicShapeMismatch) as kernel_error:
            generate_kernels(model, maps, schedule)
        assert str(kernel_error.value) == message


@pytest.mark.parametrize("old, new, error", [
    ("connect b -> init_r.src\n", "connect init_p.dst -> init_r.src\n",
     "error: connector cycle among tasks of '<root>': init_p, init_r, loop"),
    ("    processor pe : ProcessingElement shaped [8]\n", "",
     "error: no processing-element instance found inside the device processor"),
    ("connect init_r.dst -> init_p.src\n", "connect init_p.dst -> init_p.src\n",
     "error: init_p: task 'init_p': output port 'dst' aliases input port 'src'"),
    ("capacity=16K", "capacity=0",
     "error: platform.ComputeUnit_lmem: capacity must be positive"),
    ("role=hostRam", "role=hostRam frequency=5",
     "error: platform.Host_ram: frequency is only valid for hwProcessor"),
    ("frequency=2260", "frequency=0", "error: platform.Host_cpu: frequency must be positive"),
    ("    deploy copy\n", "    deploy copy\n    until dst < 0.5\n",
     "error: application.VecCopy: until condition requires a structured task"),
    ("    repeat [132651]\n    until", "    until",
     "error: application.CgLoop: until condition requires a repetition space (iteration bound)"),
    ("connect init_r.dst -> init_p.src\n",
     "connect init_r.dst -> init_p.src\nconnect b -> init_p.src\n",
     "error: application.cg.init_p.src: port has 2 feeding connectors (at most one allowed)"),
    ("allocate task init_r onto device.c\n",
     "allocate task init_r onto device.c\nallocate task loop onto device.c\n",
     "error: allocation[17]: task allocation source must be a leaf task part"),
    ("    part axpy_p : AxpyUnit\n", "    part axpy_p : AxpyUnit\n    part again : cg\n",
     "error: application.cg: component participates in an instantiation cycle"),
], ids=["connector-cycle", "no-pe-geometry", "output-aliases-input", "zero-capacity",
        "memory-frequency", "zero-frequency", "until-on-a-leaf", "until-without-repeat",
        "port-fed-twice", "structured-task-allocation", "type-cycle"])
def test_every_command_stops_at_the_same_stage(workdir, capsys, old, new, error):
    """A model that fails in conformance, in a deployment or in the schedule
    fails check, map, codegen and run alike, with the same last line and
    exit 1."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    assert text.count(old) == 1
    path = tmp_path / "edited.gmodel"
    path.write_text(text.replace(old, new))
    mtx, _ = _write_poisson(tmp_path, 4)
    out_dir = tmp_path / "out"
    for argv in (["check"], ["map"], ["codegen", "--devices", "4"], ["run", "--matrix", mtx]):
        assert main(argv + [str(path), "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == error
    assert not out_dir.exists()


@pytest.mark.parametrize("old, new, error", [
    ("  component cg {\n", "  component cgx {\n",
     "error: application: root component 'cg' is not declared\n"),
    ("  component machine {\n", "  component machinex {\n",
     "error: platform: root component 'machine' is not declared\n"),
], ids=["application", "platform"])
def test_undeclared_root_gets_one_line(workdir, capsys, old, new, error):
    """No path resolves on a side whose root is not declared, so check
    reports the root alone: no allocation end of that side that does not
    resolve, and no warning on the component left unreferenced."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    assert text.count(old) == 1
    path = tmp_path / "edited.gmodel"
    path.write_text(text.replace(old, new))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", error)


def test_tasks_whose_paths_flatten_alike_get_their_own_rows(workdir, capsys):
    """Root task loop_axpy_p and loop.axpy_p would have one C identifier if
    identifiers came from task paths.  They come from step indices, so check
    and codegen accept the model, and each task has its own launch table
    over the same kernel.  The allocations named after loop_axpy_p.x and
    loop.axpy_p.x get two names, so each task's x has its own buffer."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    for old, new in (("    part loop : CgLoop\n",
                      "    part loop : CgLoop\n    part loop_axpy_p : AxpyUnit\n"),
                     ("allocate task init_r onto device.c\n",
                      "allocate task init_r onto device.c\nallocate task loop_axpy_p onto "
                      "device.c\nallocate data loop_axpy_p.y onto device.gmem\n"
                      "allocate data loop_axpy_p.x onto device.gmem\n"),
                     ("allocate data rowptr onto device.gmem\n",
                      "allocate data loop.axpy_p.x onto device.gmem\n"
                      "allocate data rowptr onto device.gmem\n")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "collide.gmodel"
    path.write_text(text)
    out_dir = tmp_path / "out"
    assert main(["check", str(path)]) == 0
    assert main(["codegen", str(path), "--devices", "2", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    host = (out_dir / "cg_host.c").read_text()
    model = gmodelc.parse_model(text)
    maps, schedule = build_memory_maps(model), build_schedule(model, 2)
    assert generate_host(model, maps, schedule, 2).contents == host
    program = lower(model, maps, schedule)
    steps = {step.task_path: step for step in program.steps}
    assert len(steps) == 12 and {"loop_axpy_p", "loop.axpy_p"} <= set(steps)
    kernel_of = {path: kernel.name for kernel in program.kernels for path in kernel.paths}
    assert kernel_of["loop_axpy_p"] == kernel_of["loop.axpy_p"] == "k_axpy_f64_2"
    for task, x in (("loop_axpy_p", "buf_loop_axpy_p_x_2"), ("loop.axpy_p", "buf_loop_axpy_p_x")):
        step = steps[task]
        assert step.kernel == "k_axpy_f64_2"
        assert [launch.device_index for launch in step.launches] == [0, 1]
        assert step.args[1] == f"{{sizeof(cl_mem), &{x}}}"
        assert f"/* step {step.index}: {task} */\nstatic const arg_t args_{step.index}[] = {{\n" \
            + "".join(f"    {arg},\n" for arg in step.args) in host
    for buffer in ("buf_loop_axpy_p_x", "buf_loop_axpy_p_x_2", "buf_loop_axpy_p_y"):
        assert f"static cl_mem {buffer};" in host


HOST_ONLY_ROOT_PORT = (
    ("    port relres out float64 [1]\n",
     "    port relres out float64 [1]\n    port w in float64 [4]\n"),
    ("allocate data relres onto host.ram\n",
     "allocate data relres onto host.ram\nallocate data w onto host.ram\n"),
)


def _intrinsics_model_with(tmp_path, edits) -> str:
    text = golden_path("intrinsics.gmodel").read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "edited.gmodel"
    path.write_text(text)
    return str(path)


def test_host_only_root_port_rejected_by_check_codegen_and_run(tmp_path, capsys):
    """A root port of more than one element allocated to host memory alone
    would be one scalar in the host program: every command stops on it."""
    path = _intrinsics_model_with(tmp_path, HOST_ONLY_ROOT_PORT)
    mtx, _ = _write_poisson(tmp_path, 4)
    message = ("error: w: root port 'w' has 4 elements but lives in host memory, "
               "where the host program keeps one scalar\n")
    for argv in (["check", path], ["codegen", path, "--devices", "2"],
                 ["run", path, "--matrix", mtx]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_staged_root_port_rejected(tmp_path, capsys):
    """A root port allocated to device memory as well as host memory is
    rejected: a port group lives in one memory, and every device-resident
    root in port is loaded through host memory and uploaded anyway."""
    path = _intrinsics_model_with(tmp_path, (HOST_ONLY_ROOT_PORT[0], (
        "allocate data relres onto host.ram\n",
        "allocate data relres onto host.ram\nallocate data w onto device.gmem\n"
        "allocate data w onto host.ram\n")))
    mtx, _ = _write_poisson(tmp_path, 4)
    message = ("error: w: data allocation onto 'host.ram' names a second memory: its port "
               "group lives in 'device.gmem'\n")
    for argv in (["check", path], ["codegen", path, "--devices", "2"],
                 ["run", path, "--matrix", mtx]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def _nested_model(depth: int, reverse: bool) -> str:
    """A copy task under `depth` wrapper components, W<i> holding W<i - 1>,
    declared from W0 up or, with reverse, from W<depth> down."""
    wrappers = [f"  component W{i} {{\n    part k : W{i - 1}\n  }}\n" for i in range(1, depth + 1)]
    task = ".".join(["k"] * (depth + 1))
    return ("platform p {\n  component Cu : hwProcessor {\n    processor pe : hwProcessor shaped "
            "[8]\n  }\n  component Dev {\n    processor cu : Cu shaped [4]\n    memory gmem : "
            "hwMemory role=deviceGlobal\n  }\n  component p {\n    part dev : Dev\n  }\n}\n"
            "application a {\n  component W0 {\n    port src in float64 [16]\n    port dst out "
            "float64 [16]\n    repeat [16]\n    deploy copy\n  }\n"
            + "".join(wrappers[::-1] if reverse else wrappers)
            + f"  component a {{\n    part k : W{depth}\n  }}\n}}\n"
            f"allocate data {task}.src onto dev.gmem\nallocate data {task}.dst onto dev.gmem\n"
            f"allocate task {task} onto dev.cu\n")


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_deeply_nested_model_passes_check(tmp_path, capsys, reverse):
    """Conformance's type-graph walk and the schedule's walk keep their own
    stacks, so nesting deeper than Python's recursion limit (1000 by
    default) is no error."""
    text = _nested_model(1200, reverse)
    path = tmp_path / "nested.gmodel"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""
    steps = build_schedule(gmodelc.parse_model(text), 1).device_steps()
    assert [step.task_path for step in steps] == [".".join(["k"] * 1201)]


@pytest.mark.parametrize("depth", [2, 1200])
def test_nested_loops_rejected_by_check_and_codegen(tmp_path, capsys, depth):
    """A loop inside a loop stops the schedule at the outermost pair, with
    one error line and exit 1, however deep the loops nest: 1200 is deeper
    than Python's recursion limit (1000 by default)."""
    path = tmp_path / "nested.gmodel"
    path.write_text(loopmodels.nested_loops(depth))
    message = "error: loop 'k.k' is nested in loop 'k', but loops do not nest\n"
    for argv in (["check"], ["codegen", "--devices", "2"]):
        assert main(argv + [str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "out").exists()


def test_loop_on_the_application_root_rejected(workdir, capsys):
    """A repeat and an until on the root, which runs once, fail check,
    codegen and run at the schedule with one error line and exit 1."""
    tmp_path, _ = workdir
    path = tmp_path / "root_loop.gmodel"
    path.write_text(loopmodels.ROOT_LOOP)
    out = ["--out", str(tmp_path / "out")]
    message = "error: loop 'two' is the application root, but only its parts may loop\n"
    for argv in (["check"], ["codegen", "--devices", "2"]):
        assert main(argv + [str(path)] + out) == 1
        assert capsys.readouterr() == ("", message)
    # cg.gmodel's root made a loop, for run
    text = gmodelc.bundled_model_text().replace(
        "    connect loop.x -> x\n  }\n", "    connect loop.x -> x\n    repeat [2]\n"
        "    until x < 1e-10\n  }\n")
    path.write_text(text)
    mtx = tmp_path / "p.mtx"
    mtx.write_text(matrix_to_coordinate_text(poisson_2d(4)))
    assert main(["run", str(path), "--matrix", str(mtx)] + out) == 1
    assert capsys.readouterr() == ("", message.replace("'two'", "'cg'"))
    assert not (tmp_path / "out").exists()


def test_run_rejects_the_cg_loop_wrapped_in_a_loop(workdir, capsys):
    """cg.gmodel with its CgLoop as the one part of a second loop: run
    stops at the schedule with one error line and exit 1."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    ports = text[text.index("  component CgLoop {"):text.index("    part dot_rr")]
    outer = (ports.replace("CgLoop", "Outer") + "    part inner : CgLoop\n"
             + "".join(f"    connect {p} -> inner.{p}\n"
                       for p in ("rowptr", "colidx", "values", "bb", "x", "r", "p"))
             + "    connect inner.relres -> relres\n    repeat [2]\n"
             "    until relres < 1e-10\n  }\n")
    text = text.replace("  component cg {", outer + "  component cg {")
    text = text.replace("part loop : CgLoop", "part loop : Outer")
    head, allocations = text.split("\nallocate ", 1)
    text = head + "\nallocate " + allocations.replace(" loop.", " loop.inner.")
    path = tmp_path / "wrapped.gmodel"
    path.write_text(text)
    mtx, _ = _write_poisson(tmp_path, 4)
    assert main(["run", str(path), "--matrix", mtx, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == (
        "", "error: loop 'loop.inner' is nested in loop 'loop', but loops do not nest\n")
    assert not (tmp_path / "out").exists()


def test_non_ascii_model_exit_two(tmp_path, capsys):
    path = tmp_path / "latin1.gmodel"
    path.write_bytes(gmodelc.bundled_model_text().encode("ascii") + b"# caf\xe9\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'ascii' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


def test_parse_failure_exit_two(workdir, capsys):
    tmp_path, _ = workdir
    path = tmp_path / "broken.gmodel"
    path.write_text("platform ??? {\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("old, new, error", [
    ("  component Device {\n", "  component Host {\n  }\n  component Device {\n",
     "17:13: expected a unique component name, found duplicate component 'Host'"),
    ("  component Host {\n", "  component Host_ram {\n  }\n  component Host {\n",
     "10:12: expected a part name not colliding with component 'Host_ram', found 'ram'"),
    ("port bb in float64 [1]", "port bb in float64 [1.0]",
     "92:25: expected a dimension, found '1.0'"),
    ("until relres < 1e-10", "until relres < 1K", "138:20: expected a tolerance, found '1K'"),
    ("}\n\napplication cg {", "} x\n\napplication cg {",
     "27:3: expected end of line, found 'x'"),
    ("port bb in float64 [1]", "port bb.c in float64 [1]",
     "92:10: expected a port name, found 'bb.c'"),
], ids=["duplicate-component", "inline-part-name-collides", "float-dimension",
        "suffixed-tolerance", "text-after-a-section", "dotted-port-name"])
def test_parse_rejections_give_one_line(workdir, capsys, old, new, error):
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    assert text.count(old) == 1
    path = tmp_path / "edited.gmodel"
    path.write_text(text.replace(old, new))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"{path}:{error}\n")


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.gmodel")]) == 2
    assert capsys.readouterr().err


def test_check_reports_capacity_exceeded_as_map_does(workdir, capsys):
    """A port moved onto the 16K local memory overflows it: check rejects
    the model with the message and the exit status of map."""
    tmp_path, _ = workdir
    line = "allocate data loop.spmv.y onto device.gmem\n"
    text = gmodelc.bundled_model_text()
    assert line in text
    path = tmp_path / "lmem.gmodel"
    path.write_text(text.replace(line, line.replace("device.gmem", "device.c.lmem")))
    message = ("error: memory 'device.c.lmem' needs 1061208 bytes but has "
               "capacity 16384\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", message)
    assert main(["map", str(path), "--out", str(tmp_path / "map")]) == 1
    assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "map").exists()


def test_map_writes_report_and_is_deterministic(workdir, capsys):
    tmp_path, model_path = workdir
    out_dir = tmp_path / "out"
    assert main(["map", model_path, "--out", str(out_dir)]) == 0
    report_path = out_dir / "cg_memmap.txt"
    first = report_path.read_bytes()
    stdout = capsys.readouterr().out
    assert stdout.encode() == first
    assert main(["map", model_path, "--out", str(out_dir)]) == 0
    assert report_path.read_bytes() == first
    assert first.startswith(b"map device.gmem")


def test_codegen_writes_units_deterministically(workdir, capsys):
    tmp_path, model_path = workdir
    out_dir = tmp_path / "gen"
    assert main(["codegen", model_path, "--devices", "4", "--out", str(out_dir)]) == 0
    kern = (out_dir / "cg_kernels.cl").read_bytes()
    host = (out_dir / "cg_host.c").read_bytes()
    capsys.readouterr()
    assert main(["codegen", model_path, "--devices", "4", "--out", str(out_dir)]) == 0
    assert (out_dir / "cg_kernels.cl").read_bytes() == kern
    assert (out_dir / "cg_host.c").read_bytes() == host


def test_run_iteration_invariance_across_devices(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 10)
    lines = []
    for d in ("1", "2", "4"):
        out_dir = tmp_path / f"run{d}"
        assert main(["run", model_path, "--devices", d, "--matrix", mtx,
                     "--out", str(out_dir)]) == 0
        lines.append(capsys.readouterr().out.strip())
    iters = {line.split()[0] for line in lines}
    assert len(iters) == 1
    assert all(line.endswith("converged=true") for line in lines)


def _grid_file(tmp_path, name: str, diagonal, neighbour: float, seed: int | None = None) -> str:
    """The 5-point operator of a 12 x 12 grid as a general Matrix Market
    file: diagonal(row) on the main diagonal, neighbour off it, its rows
    and columns renumbered by a permutation of a fixed seed when given."""
    k = 12
    n = k * k
    perm = random.Random(seed).sample(range(n), n) if seed is not None else range(n)
    entries = [(perm[i * k + j], perm[(i + a) * k + j + b],
                diagonal(i * k + j) if a == b == 0 else neighbour)
               for i in range(k) for j in range(k)
               for a, b in ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))
               if 0 <= i + a < k and 0 <= j + b < k]
    path = tmp_path / f"{name}.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{n} {n} {len(entries)}\n"
                    + "".join(f"{r + 1} {c + 1} {v!r}\n" for r, c, v in entries))
    return str(path)


@pytest.mark.parametrize("name, diagonal, neighbour, seed, devices", [
    ("poisson", lambda row: 4.0, -1.0, None, "16"),
    # no longer banded: its spmv block takes the jagged form, not the diagonal one
    ("permuted", lambda row: 4.0, -1.0, 7, "4"),
    # the only main diagonal here kept as a value array, not as one scalar
    ("varcoef", lambda row: 4.0 + row % 3, -1.0, None, "4"),
    # SPD, as the grid's adjacency eigenvalues lie in (-4, 4): +1.0 diagonals
    # are added to the row sums without a product
    ("plus", lambda row: 5.0, 1.0, None, "16"),
], ids=["poisson", "permuted", "varcoef", "plus"])
def test_run_iterations_same_on_one_and_many_devices(workdir, capsys, name, diagonal,
                                                     neighbour, seed, devices):
    tmp_path, model_path = workdir
    mtx = _grid_file(tmp_path, name, diagonal, neighbour, seed)
    iters = []
    for d in ("1", devices):
        assert main(["run", model_path, "--matrix", mtx, "--devices", d,
                     "--out", str(tmp_path / f"run{d}")]) == 0
        iters.append(capsys.readouterr().out.split()[0])
    assert iters[0] == iters[1] and iters[0] != "iters=0"


def test_run_same_answer_from_shuffled_and_symmetric_crlf_files(workdir, capsys):
    """The same 12 x 12 Poisson matrix three ways: row-ordered; shuffled by a
    fixed seed with one diagonal 4.0 split into 2.0 + 2.0, which takes the
    sorting CSR build that the row-ordered file skips; and its lower
    triangle as a symmetric file with CRLF line ends, which takes the
    mirrors, that sort and CR normalisation.  On 4 devices each gives the
    same result line and a byte-identical solution file."""
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 12)
    header, size, *lines = Path(mtx).read_text().splitlines()
    dims = size.rsplit(" ", 1)[0]
    entries = lines.copy()
    random.Random(3).shuffle(entries)
    k = next(k for k, e in enumerate(entries) if e.split()[0] == e.split()[1])
    row = entries[k].split()[0]
    entries[k] = f"{row} {row} 2.0"
    shuffled = tmp_path / "shuffled.mtx"
    shuffled.write_text("\n".join([header, f"{dims} {len(entries) + 1}", *entries,
                                   entries[k]]) + "\n")
    lower = [e for e in lines if int(e.split()[0]) >= int(e.split()[1])]
    symmetric = tmp_path / "symmetric.mtx"
    symmetric.write_bytes("\r\n".join([header.replace("general", "symmetric"),
                                        f"{dims} {len(lower)}", *lower]).encode() + b"\r\n")
    results = []
    for i, path in enumerate((mtx, str(shuffled), str(symmetric))):
        assert main(["run", model_path, "--matrix", path, "--devices", "4",
                     "--out", str(tmp_path / f"out{i}")]) == 0
        results.append((capsys.readouterr().out,
                        (tmp_path / f"out{i}" / "cg_solution.txt").read_bytes()))
    assert results[0][0].endswith("converged=true\n")
    assert results == [results[0]] * 3


def test_run_matches_oracle_cg(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, A = _write_poisson(tmp_path, 10)
    out_dir = tmp_path / "run"
    assert main(["run", model_path, "--matrix", mtx, "--out", str(out_dir)]) == 0
    x, iters, _ = _oracle_cg(A, np.ones(A.n))
    line = capsys.readouterr().out.strip()
    assert line.startswith(f"iters={iters} ")
    solution = np.loadtxt(out_dir / "cg_solution.txt")
    assert np.array_equal(solution, x)
    result = (out_dir / "cg_result.txt").read_text()
    assert result == line + "\n"


def test_solution_text_in_chunks_is_the_whole_text():
    x = np.random.default_rng(0).standard_normal(2 * cli.SOLUTION_CHUNK_LINES + 3)
    chunks = list(cli._solution_text(x))
    assert len(chunks) == 3
    assert "".join(chunks) == "".join(f"{v!r}\n" for v in x.tolist())


@pytest.mark.parametrize("values", [
    [float("nan"), float("inf"), -float("inf"), 0.0, -0.0],
    [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e+308],
    [0.1, 1 / 3, -2 / 3, 1e16, 1e-7, 123456789.12345679, 1.0000000000000002],
    list(np.random.default_rng(1).standard_normal(cli.SOLUTION_CHUNK_LINES + 1)),
], ids=["special", "extremes", "17-digit", "random"])
def test_solution_text_is_repr_per_line(values):
    """Each value is written as f"{v!r}\n": nan, infinities, signed zeros,
    subnormals and values that need 17 digits read back bit for bit."""
    x = np.array(values, dtype=np.float64)
    text = "".join(cli._solution_text(x))
    assert text == "".join(f"{v!r}\n" for v in x.tolist())
    back = np.array([float(line) for line in text.splitlines()])
    assert back.tobytes() == x.tobytes()


def test_solution_text_of_no_values_is_empty():
    assert list(cli._solution_text(np.zeros(0))) == []


def test_run_sizes_and_binds_the_instantiated_spmv_task(workdir, capsys):
    """An uninstantiated spmv component declared first neither sizes the
    model nor takes the matrix."""
    tmp_path, _ = workdir
    spare = ("  component SpmvSpare {\n"
             "    port rowptr in int32 [11]\n    port colidx in int32 [28]\n"
             "    port values in float64 [28]\n    port x in float64 [10]\n"
             "    port y out float64 [10]\n    repeat [10]\n    deploy spmv_csr\n  }\n"
             "  component SpmvCsr {")
    path = tmp_path / "spare.gmodel"
    path.write_text(gmodelc.bundled_model_text().replace("  component SpmvCsr {", spare, 1))
    mtx, A = _write_poisson(tmp_path, 4)
    out_dir = tmp_path / "spare"
    assert main(["run", str(path), "--matrix", mtx, "--out", str(out_dir)]) == 0
    x, _, _ = _oracle_cg(A, np.ones(A.n))
    assert np.array_equal(np.loadtxt(out_dir / "cg_solution.txt"), x)
    assert capsys.readouterr().err == \
        "warning: application.SpmvSpare: component is never instantiated\n"


def test_run_without_spmv_task_exit_one(tmp_path, capsys):
    from test_codegen import COPY_MODEL
    path = tmp_path / "copy.gmodel"
    path.write_text(COPY_MODEL)
    mtx, _ = _write_poisson(tmp_path, 4)
    assert main(["run", str(path), "--matrix", mtx, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == \
        "error: model has no spmv_csr task; `run` needs a matrix consumer\n"


def test_run_rerun_byte_identical(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 6)
    out_dir = tmp_path / "runs"
    assert main(["run", model_path, "--matrix", mtx, "--out", str(out_dir)]) == 0
    first = ((out_dir / "cg_result.txt").read_bytes(),
             (out_dir / "cg_solution.txt").read_bytes())
    capsys.readouterr()
    assert main(["run", model_path, "--matrix", mtx, "--out", str(out_dir)]) == 0
    assert ((out_dir / "cg_result.txt").read_bytes(),
            (out_dir / "cg_solution.txt").read_bytes()) == first


def test_run_with_explicit_rhs(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, A = _write_poisson(tmp_path, 6)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal(A.n)
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text("".join(f"{float(v)!r}\n" for v in rhs))
    out_dir = tmp_path / "rhsrun"
    assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path),
                 "--out", str(out_dir)]) == 0
    x, _, _ = _oracle_cg(A, rhs)
    solution = np.loadtxt(out_dir / "cg_solution.txt")
    assert np.array_equal(solution, x)


def test_run_nonconvergence_exit_three(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 10)
    out_dir = tmp_path / "short"
    code = main(["run", model_path, "--matrix", mtx, "--max-iter", "2",
                 "--out", str(out_dir)])
    assert code == 3
    assert "converged=false" in capsys.readouterr().out


def test_run_indefinite_matrix_is_a_breakdown_exit_three(workdir, capsys):
    """diag(1, -1, 2, 3) is symmetric but indefinite: its p.Ap goes negative
    in the loop, which the alpha division refuses.  One error line, no
    traceback, nothing on stdout and no output files."""
    tmp_path, model_path = workdir
    mtx = tmp_path / "indefinite.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n4 4 4\n"
                   "1 1 1.0\n2 2 -1.0\n3 3 2.0\n4 4 3.0\n")
    assert main(["run", model_path, "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: task 'loop.alpha': den = -")
    assert err.endswith(", but it must be finite and > 0\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_run_negative_rel_residual_operand_is_a_breakdown_exit_three(tmp_path, capsys):
    """On diag(-1, ..., -1) the intrinsics model's rel task gets b.Ab = -16
    as the squared norm it takes the root of: a breakdown, named with its
    task and operand, on one line."""
    mtx = tmp_path / "minus.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n16 16 16\n"
                   + "".join(f"{i} {i} -1.0\n" for i in range(1, 17)))
    assert main(["run", str(golden_path("intrinsics.gmodel")), "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr() == (
        "", "error: task 'rel': num = -16.0, but it must be finite and >= 0\n")
    assert not (tmp_path / "out").exists()


def test_run_zero_rhs_short_circuits(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, A = _write_poisson(tmp_path, 5)
    rhs_path = tmp_path / "zeros.txt"
    rhs_path.write_text("0.0\n" * A.n)
    out_dir = tmp_path / "zero"
    assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path),
                 "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == "iters=0 relres=0.0 converged=true\n"
    assert np.count_nonzero(np.loadtxt(out_dir / "cg_solution.txt")) == 0
    assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path), "--devices", "4",
                 "--out", str(tmp_path / "zero_d4")]) == 0
    assert capsys.readouterr().out == "iters=0 relres=0.0 converged=true\n"


def test_run_bad_matrix_exit_two(workdir, capsys):
    tmp_path, model_path = workdir
    mtx = tmp_path / "bad.mtx"
    mtx.write_text("%%MatrixMarket matrix array real general\n2 2\n")
    assert main(["run", model_path, "--matrix", str(mtx)]) == 2
    assert capsys.readouterr().err


def test_run_non_symmetric_matrix_exit_two(workdir, capsys):
    """run samples the matrix for symmetry after the load, as solve does:
    this circulant would otherwise converge to a wrong answer."""
    tmp_path, model_path = workdir
    mtx = tmp_path / "circulant.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n4 4 8\n" + "".join(
        f"{i + 1} {i + 1} 2.0\n{i + 1} {(i + 1) % 4 + 1} 1.0\n" for i in range(4)))
    assert main(["run", model_path, "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {mtx}: a[0,1]=1.0 but a[1,0]=0.0\n")
    assert not (tmp_path / "out").exists()


def test_run_empty_matrix_exit_two(workdir, capsys):
    """A matrix with no stored entries would size the CSR ports to 0: run
    rejects the file right after the load, with one line, before the model."""
    tmp_path, model_path = workdir
    mtx = tmp_path / "empty.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
    assert main(["run", model_path, "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {mtx}: 3x3 matrix has no stored entries\n")
    assert not (tmp_path / "out").exists()


def test_run_rejects_the_resized_model(workdir, capsys):
    """A template of N = 1000 whose spmv output lives in the 16K local
    memory passes check, but re-sized to a 2500-row matrix it overflows
    that memory: the re-sized model's front end rejects it."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text().replace("allocate data loop.spmv.y onto device.gmem",
                                                "allocate data loop.spmv.y onto device.c.lmem")
    for old, new in (("132652", "1001"), ("3442951", "4960"), ("132651", "1000")):
        text = text.replace(old, new)
    model = tmp_path / "lmem.gmodel"
    model.write_text(text)
    assert main(["check", str(model)]) == 0
    mtx, _ = _write_poisson(tmp_path, 50)
    assert main(["run", str(model), "--matrix", mtx, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == (
        "", "error: memory 'device.c.lmem' needs 20000 bytes but has capacity 16384\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("nnz, n_plus_1", [("4", "5"), ("5", "5")], ids=["nnz=n", "nnz=n+1"])
def test_run_rejects_a_template_whose_sizes_collide(workdir, capsys, nnz, n_plus_1):
    """Re-sizing maps dimensions by value, so a template whose N, N + 1 and
    NNZ are not all different is rejected with one line naming both sizes."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    for old, new in (("132652", n_plus_1), ("3442951", nnz), ("132651", "4")):
        text = text.replace(old, new)
    model = tmp_path / "collide.gmodel"
    model.write_text(text)
    assert main(["check", str(model)]) == 0
    mtx, _ = _write_poisson(tmp_path, 6)
    assert main(["run", str(model), "--matrix", mtx, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot re-size the model: its spmv task has N = 4 and NNZ = {nnz}, "
            "but N, N + 1 and NNZ must all differ\n")
    assert not (tmp_path / "out").exists()


def test_run_matrix_declaring_more_entries_than_it_can_hold_exit_two(workdir, capsys):
    """A size line declaring 10^12 entries over a two-entry body is a
    one-line count error, not a MemoryError: the loader sizes its entry
    columns by the declared count only when the body can hold that many."""
    tmp_path, model_path = workdir
    mtx = tmp_path / "huge.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 1000000000000\n1 1 1.0\n2 2 1.0\n")
    assert main(["run", model_path, "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == (
        "", f"error: {mtx}: declared 1000000000000 entries, found 2\n")
    assert not (tmp_path / "out").exists()


def test_a_non_ascii_digit_is_rejected_by_the_library_as_by_the_cli(workdir, capsys):
    """`repeat [132651]` written in Arabic-Indic digits: the CLI, reading
    the model as ASCII, exits 2 with one line, and parse_model rejects the
    same text rather than reading it as 132651."""
    tmp_path, _ = workdir
    digits = "\u0661\u0663\u0662\u0666\u0665\u0661"
    text = gmodelc.bundled_model_text().replace("repeat [132651]", f"repeat [{digits}]", 1)
    path = tmp_path / "digits.gmodel"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'ascii' codec can't decode") and err.count("\n") == 1
    with pytest.raises(dsl.ParseFailure) as exc:
        dsl.parse_model(text)
    assert str(exc.value.errors[0]) == f"33:13: expected a token, found '{digits[0]}'"


def test_run_non_ascii_matrix_exit_two(workdir, capsys):
    tmp_path, model_path = workdir
    mtx = tmp_path / "latin1.mtx"
    mtx.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                    b"% caf\xe9\n2 2 2\n1 1 1.0\n2 2 1.0\n")
    assert main(["run", model_path, "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mtx}: 'ascii' codec can't decode byte 0xe9")
    assert err.count("\n") == 1


def test_run_non_finite_matrix_exit_two(workdir, capsys):
    tmp_path, model_path = workdir
    mtx = tmp_path / "nan.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n1 1 1.0\n2 2 nan\n")
    assert main(["run", model_path, "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 2
    assert "line 4: value 'nan' is not finite" in capsys.readouterr().err


def test_run_duplicate_sum_overflow_exit_two(workdir, capsys):
    tmp_path, model_path = workdir
    mtx = tmp_path / "overflow.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 3\n1 1 1e308\n2 2 1.0\n1 1 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", model_path, "--matrix", str(mtx),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {mtx}: entry (1,1): summed value inf is not finite\n")
    assert not (tmp_path / "out").exists()


def test_run_rhs_near_overflow_names_its_scale_exit_three(workdir, capsys):
    """A right-hand side whose squared norm is finite, but whose curvature
    p.Ap overflows, stops the run with one line that puts the breakdown
    down to the scale of b, and no numpy warning, with exit 3."""
    tmp_path, model_path = workdir
    mtx, A = _write_poisson(tmp_path, 4)
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text("3e153\n" * A.n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path),
                     "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr() == ("", (
        "error: task 'loop.alpha': den = inf, but it must be finite and > 0: the solve "
        "overflowed at the scale of the right-hand side (max |b| = 3e+153); scale b down\n"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
def test_run_non_finite_rhs_exit_two(workdir, capsys, token):
    tmp_path, model_path = workdir
    mtx, A = _write_poisson(tmp_path, 5)
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text(f"{token}\n" + "1.0\n" * (A.n - 1))
    assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {rhs_path}: ")
    assert not (tmp_path / "out").exists()


def test_run_missing_matrix_or_rhs_file_exit_two(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 4)
    missing = tmp_path / "missing"
    for argv, line in ((["--matrix", str(missing)],
                        f"error: [Errno 2] No such file or directory: '{missing}'"),
                       (["--matrix", mtx, "--rhs", str(missing)],
                        f"error: {missing} not found.")):
        assert main(["run", model_path, *argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", line + "\n")
    assert not (tmp_path / "out").exists()


def test_run_rejects_an_input_it_cannot_bind(workdir, capsys):
    """run binds the CSR ports and then the right-hand side to every other
    float input; an int32 root input in host RAM passes check, but run has
    nothing to bind it to.  Today's contract, until root ports name their
    roles in the model."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    for old, new in (("    port x out float64 [132651]\n    part init_r",
                      "    port x out float64 [132651]\n    port k in int32 [1]\n    part init_r"),
                     ("allocate data b onto",
                      "allocate data k onto host.ram\nallocate data b onto")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "k.gmodel"
    path.write_text(text)
    assert main(["check", str(path)]) == 0
    mtx, _ = _write_poisson(tmp_path, 4)
    assert main(["run", str(path), "--matrix", mtx, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", "error: cannot infer a binding for input port 'k'\n")
    assert not (tmp_path / "out").exists()


def test_run_rhs_size_mismatch_exit_two(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 5)
    rhs_path = tmp_path / "short.txt"
    rhs_path.write_text("1.0\n1.0\n")
    assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path)]) == 2


@pytest.mark.parametrize("text, reason", [
    ("1.0 2.0\n" * 16, "2 values per line, expected one"),
    (" ".join(["1.0"] * 16) + "\n", "16 values per line, expected one"),
    ("", "no values"),
    ("# no values\n", "no values")], ids=["two-per-line", "one-line", "empty", "comment-only"])
def test_run_rhs_not_one_value_per_line_exit_two(workdir, capsys, text, reason):
    """A 4x4 grid has 16 rows: 16 lines of two values would pass a line
    count, one line of 16 values an element count."""
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 4)
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path),
                     "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {rhs_path}: {reason}\n"
    assert not (tmp_path / "out").exists()


def test_devices_out_of_range(workdir, capsys):
    _, model_path = workdir
    assert main(["codegen", model_path, "--devices", "17"]) == 2
    assert "--devices" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--tol", "0"), ("--tol", "1"), ("--tol", "2"), ("--tol", "-0.5"), ("--tol", "nan"),
    ("--tol", "inf"), ("--tol", "-1e-8"), ("--tol", "-inf"), ("--max-iter", "0"),
    ("--max-iter", "-3")])
def test_run_solver_option_out_of_range_exit_two(workdir, capsys, option, value):
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 5)
    out_dir = tmp_path / "out"
    assert main(["run", model_path, "--matrix", mtx, option, value,
                 "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be ")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("text, reason", [
    ("", "no values"), ("1.0 2.0\n", "2 values per line, expected one"),
    ("1.0\nnan\n", "value 2 (nan) is not finite"),
    ("1e-170\n" * 16, "nonzero, but its squared norm underflows to 0.0"),
    ("1e200\n" * 16, "nonzero, but its squared norm overflows to inf")])
def test_run_rhs_errors_come_before_the_matrix_load(workdir, capsys, text, reason):
    """Every check of --rhs but its length runs before the matrix is read:
    a bad --rhs is reported even when the matrix file does not exist."""
    tmp_path, model_path = workdir
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text(text)
    missing = tmp_path / "missing.mtx"
    assert main(["run", model_path, "--matrix", str(missing), "--rhs", str(rhs_path),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: {rhs_path}: {reason}\n")
    assert not (tmp_path / "out").exists()


def test_tol_override(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, A = _write_poisson(tmp_path, 8)
    rng = np.random.default_rng(7)
    rhs_path = tmp_path / "rhs.txt"
    rhs_path.write_text("".join(f"{float(v)!r}\n" for v in rng.standard_normal(A.n)))
    out_dir = tmp_path / "tol"
    assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path),
                 "--tol", "1e-4", "--out", str(out_dir)]) == 0
    loose = capsys.readouterr().out
    loose_iters = int(loose.split()[0].split("=")[1])
    assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path),
                 "--out", str(out_dir)]) == 0
    tight = capsys.readouterr().out
    tight_iters = int(tight.split()[0].split("=")[1])
    assert loose_iters < tight_iters


def test_stop_is_strict(workdir, capsys):
    """The loop runs `until relres < tol`: with --tol equal to iteration
    k's relres, the run does not stop at k but at k + 1."""
    tmp_path, model_path = workdir
    mtx, A = _write_poisson(tmp_path, 8)
    history = refexec.run_cg(A, np.ones(A.n), refexec.SolverConfig(1e-10, A.n)).residual_history
    # an iteration whose relres is below every earlier one and above the next
    k = next(k for k in range(len(history) // 2, len(history))
             if history[k - 1] < min(history[:k - 1]) and history[k] < history[k - 1])

    def run(*options):
        main(["run", model_path, "--matrix", mtx, *options, "--out", str(tmp_path / "out")])
        iters, relres, _ = (field.split("=")[1] for field in capsys.readouterr().out.split())
        return int(iters), float(relres)

    assert run("--max-iter", str(k)) == (k, history[k - 1])
    assert run("--tol", repr(history[k - 1])) == (k + 1, history[k])


def test_one_computation_per_model_in_codegen_and_run(workdir, monkeypatch, capsys):
    """One `codegen` and one `run` compute the port groups, the digest and
    each allocated task's deployment record at most once per Model
    instance, and check each leaf component type's intrinsic signature
    once, however many tasks share it: every stage of a command shares one
    compile context.  `codegen` lowers the model once per file it prints,
    and `run` not at all."""
    from gmodelc import codegen, dsl, intrinsics, metamodel
    calls: dict[str, list] = {"groups": [], "digest": [], "signatures": [], "records": [],
                              "lower": []}

    def count(name, module, attr, key):
        """Count calls to module.attr, through every gmodelc module that
        imported it by name too."""
        fn = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[name].append(key(*args))
            return fn(*args, **kwargs)
        for holder in [m for k, m in sys.modules.items() if k.startswith("gmodelc")]:
            if getattr(holder, attr, None) is fn:
                monkeypatch.setattr(holder, attr, counted)

    count("groups", metamodel, "connected_port_groups", lambda model: model)
    count("digest", dsl, "serialize_model", lambda model: model)
    count("signatures", intrinsics, "check_task_signature", lambda task_path, comp: comp.name)
    count("records", intrinsics, "Deployment", lambda spec, on_host, ports: spec.name)
    count("lower", codegen, "lower", lambda model, maps, schedule: model)

    tmp_path, model_path = workdir
    assert main(["codegen", model_path, "--devices", "4", "--out", str(tmp_path / "cg")]) == 0
    (model,) = calls["groups"]
    assert calls["digest"] == [model]
    tasks = sorted(model.context.task_targets)
    types = sorted({model.context.component_at(ComponentKind.APPLICATION, task).name
                    for task in tasks})
    assert len(tasks) == 15 and len(types) == 9
    assert sorted(calls["signatures"]) == types
    assert len(calls["records"]) == len(tasks) and sorted(model.context.deployments) == tasks
    assert calls["lower"] == [model, model]

    for name in calls:
        calls[name].clear()
    mtx, _ = _write_poisson(tmp_path, 6)
    assert main(["run", model_path, "--matrix", mtx, "--out", str(tmp_path / "run")]) == 0
    parsed, instantiated = calls["groups"]
    assert parsed is not instantiated
    assert calls["digest"] == [] and calls["lower"] == []
    # the parsed and the re-sized model
    assert sorted(calls["signatures"]) == sorted(types * 2)
    assert len(calls["records"]) == len(tasks) * 2
    capsys.readouterr()


def test_root_inout_port_rejected_by_check_and_run(workdir, capsys):
    """The host program loads a root in port and stores a root out port, so
    an inout one would be neither: check, codegen and run stop on it with
    one unquoted error line and exit 1."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    old = "    port x out float64 [132651]\n"
    assert old in text
    path = tmp_path / "inout.gmodel"
    path.write_text(text.replace(old, old.replace("out", "inout")))
    mtx, _ = _write_poisson(tmp_path, 4)
    message = ("error: x: root port 'x' is inout, but the host program only loads in ports "
               "and stores out ports\n")
    for argv in (["check"], ["codegen", "--devices", "4"], ["run", "--matrix", mtx]):
        assert main(argv + [str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "out").exists()


CG_MEMORIES = ("host.ram", "device.gmem", "device.cmem", "device.c.lmem")


def test_placement_sweep_check_passes_iff_codegen_does(tmp_path, capsys):
    """Each of cg.gmodel's data allocations moved, one at a time, onto each
    memory that can hold data: check and codegen pass or fail together, and
    a failure prints only error lines, never a traceback.  Some moves pass
    (the read-only CSR ports and b in constant memory), most fail."""
    text = gmodelc.bundled_model_text()
    lines = [line for line in text.splitlines() if line.startswith("allocate data ")]
    assert len(lines) == 16
    path, passed = tmp_path / "moved.gmodel", []
    for line in lines:
        port = line.split()[2]
        for memory in CG_MEMORIES:
            moved = f"allocate data {port} onto {memory}"
            if moved == line:
                continue
            path.write_text(text.replace(line + "\n", moved + "\n"))
            status = main(["check", str(path)])
            check_err = capsys.readouterr().err
            assert main(["codegen", str(path), "--out", str(tmp_path / "out")]) == status, moved
            codegen_err = capsys.readouterr().err
            assert codegen_err == check_err, moved
            assert (status == 0) == (check_err == ""), moved
            assert all(err.startswith("error: ") for err in check_err.splitlines()), moved
            if status == 0:
                passed.append(moved)
    assert passed == [f"allocate data {port} onto device.cmem"
                      for port in ("rowptr", "colidx", "values", "b")]
