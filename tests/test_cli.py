import numpy as np
import pytest

import gmodelc
from gmodelc import refexec
from gmodelc.cli import main


@pytest.fixture()
def workdir(tmp_path):
    model_path = tmp_path / "cg.gmodel"
    model_path.write_text(gmodelc.bundled_model_text())
    return tmp_path, str(model_path)


def _write_poisson(tmp_path, k):
    A = refexec.poisson_2d(k)
    path = tmp_path / f"poisson{k}.mtx"
    path.write_text(refexec.matrix_to_coordinate_text(A))
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


def test_parse_failure_exit_two(workdir, capsys):
    tmp_path, _ = workdir
    path = tmp_path / "broken.gmodel"
    path.write_text("platform ??? {\n")
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err


def test_missing_file_exit_two(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.gmodel")]) == 2
    assert capsys.readouterr().err


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


def test_run_matches_run_cg(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, A = _write_poisson(tmp_path, 10)
    out_dir = tmp_path / "run"
    assert main(["run", model_path, "--matrix", mtx, "--out", str(out_dir)]) == 0
    ref = refexec.run_cg(A, np.ones(A.n), refexec.SolverConfig(tol=1e-10, max_iter=A.n))
    line = capsys.readouterr().out.strip()
    assert line.startswith(f"iters={ref.iterations} ")
    solution = np.loadtxt(out_dir / "cg_solution.txt")
    assert np.array_equal(solution, ref.x)
    result = (out_dir / "cg_result.txt").read_text()
    assert result == line + "\n"


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
    ref = refexec.run_cg(A, rhs, refexec.SolverConfig(tol=1e-10, max_iter=A.n))
    solution = np.loadtxt(out_dir / "cg_solution.txt")
    assert np.array_equal(solution, ref.x)


def test_run_nonconvergence_exit_three(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 10)
    out_dir = tmp_path / "short"
    code = main(["run", model_path, "--matrix", mtx, "--max-iter", "2",
                 "--out", str(out_dir)])
    assert code == 3
    assert "converged=false" in capsys.readouterr().out


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


def test_run_non_finite_matrix_exit_two(workdir, capsys):
    tmp_path, model_path = workdir
    mtx = tmp_path / "nan.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                   "2 2 2\n1 1 1.0\n2 2 nan\n")
    assert main(["run", model_path, "--matrix", str(mtx),
                 "--out", str(tmp_path / "out")]) == 2
    assert "line 4: value 'nan' is not finite" in capsys.readouterr().err


def test_run_rhs_size_mismatch_exit_two(workdir, capsys):
    tmp_path, model_path = workdir
    mtx, _ = _write_poisson(tmp_path, 5)
    rhs_path = tmp_path / "short.txt"
    rhs_path.write_text("1.0\n1.0\n")
    assert main(["run", model_path, "--matrix", mtx, "--rhs", str(rhs_path)]) == 2


def test_devices_out_of_range(workdir, capsys):
    _, model_path = workdir
    assert main(["codegen", model_path, "--devices", "17"]) == 2
    assert "--devices" in capsys.readouterr().err


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
