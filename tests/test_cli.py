import sys
import warnings

import numpy as np
import pytest

import gmodelc
from gmodelc import cli, refexec
from gmodelc.cli import main
from gmodelc.codegen import generate_host, generate_kernels
from gmodelc.intrinsics import IntrinsicShapeMismatch
from gmodelc.memmap import build_memory_maps
from gmodelc.partition import UnallocatedTask, build_schedule

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
], ids=["connector-cycle", "no-pe-geometry", "output-aliases-input"])
def test_every_command_stops_at_the_same_stage(workdir, capsys, old, new, error):
    """A model that fails in the schedule or in a deployment fails check,
    map, codegen and run alike, with the same last line and exit 1."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    assert old in text
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


def test_check_generates_the_code_to_reject_what_codegen_rejects(workdir, capsys):
    """Root task loop_axpy_p and loop.axpy_p get one kernel name, which only
    code generation finds: check generates the code and discards it."""
    tmp_path, _ = workdir
    text = gmodelc.bundled_model_text()
    for old, new in (("    part loop : CgLoop\n",
                      "    part loop : CgLoop\n    part loop_axpy_p : AxpyUnit\n"),
                     ("allocate task init_r onto device.c\n",
                      "allocate task init_r onto device.c\nallocate task loop_axpy_p onto "
                      "device.c\nallocate data loop_axpy_p.y onto device.gmem\n"
                      "allocate data loop_axpy_p.x onto device.gmem\n")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "collide.gmodel"
    path.write_text(text)
    message = ("error: kernel name 'k_loop_axpy_p' generated for both 'loop.axpy_p' "
               "and 'loop_axpy_p'\n")
    for argv in (["check"], ["codegen"]):
        assert main(argv + [str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "out").exists()


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
    message = ("error: w: root port 'w' has 4 elements but is allocated to host "
               "memory alone, where the host program keeps one scalar\n")
    for argv in (["check", path], ["codegen", path, "--devices", "2"],
                 ["run", path, "--matrix", mtx]):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


def test_staged_root_port_accepted(tmp_path, capsys):
    """A root port that resides in host and device memory is uploaded from
    its device allocation."""
    path = _intrinsics_model_with(tmp_path, HOST_ONLY_ROOT_PORT + (
        ("allocate data w onto host.ram\n",
         "allocate data w onto host.ram\nallocate data w onto device.gmem\n"),))
    assert main(["check", path]) == 0
    assert capsys.readouterr().err == ""


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


def test_run_rejects_the_resized_model(workdir, capsys):
    """A matrix without entries sizes the CSR ports to 0: conformance of the
    re-sized model rejects it, printing its diagnostics."""
    tmp_path, model_path = workdir
    mtx = tmp_path / "empty.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n2 2 0\n")
    assert main(["run", model_path, "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: application.{c}.{p}: port shape dimension must be >= 1, got 0"
        for c in ("CgLoop", "SpmvCsr", "cg") for p in ("colidx", "values")]
    assert not (tmp_path / "out").exists()


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


def test_one_computation_per_model_in_codegen_and_run(workdir, monkeypatch, capsys):
    """One `codegen` and one `run` compute the port groups and the digest at
    most once per Model instance, and each device task's kernel parameter
    list once: every stage of a command shares one compile context."""
    from gmodelc import codegen, dsl, metamodel
    calls: dict[str, list] = {"groups": [], "digest": [], "params": []}

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
    count("params", codegen, "_task_params", lambda index, task_path, comp, spec: task_path)

    tmp_path, model_path = workdir
    assert main(["codegen", model_path, "--devices", "4", "--out", str(tmp_path / "cg")]) == 0
    (model,) = calls["groups"]
    assert calls["digest"] == [model]
    device_tasks = {s.task_path for s in build_schedule(model, 4).device_steps()}
    assert sorted(calls["params"]) == sorted(device_tasks) and len(device_tasks) == 11

    for name in calls:
        calls[name].clear()
    mtx, _ = _write_poisson(tmp_path, 6)
    assert main(["run", model_path, "--matrix", mtx, "--out", str(tmp_path / "run")]) == 0
    parsed, instantiated = calls["groups"]
    assert parsed is not instantiated
    assert calls["digest"] == [] and calls["params"] == []
    capsys.readouterr()
