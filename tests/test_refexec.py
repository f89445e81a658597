import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gmodelc
from gmodelc import refexec
from gmodelc.intrinsics import IntrinsicShapeMismatch
from gmodelc.partition import build_schedule
from gmodelc.refexec import (BreakdownDetected, CsrMatrix, DimensionMismatch,
                             IndexOutOfRange, MalformedHeader, MissingBinding,
                             NonFiniteValue, NonSquare, NonSymmetricMatrix, SolverConfig,
                             build_sweep_plan, csr_from_dense, csr_to_dense,
                             execute_schedule, instantiate_for_matrix, load_matrix_market,
                             matrix_to_coordinate_text, poisson_1d, poisson_2d, random_spd,
                             run_cg, spmv_csr, spmv_range)

from oracles import reference_cg, spmv_loop


# -- matrix market -------------------------------------------------------------

def test_load_identity():
    A = load_matrix_market("""\
%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
2 2 1.0
""")
    assert A.n == 2 and A.nnz == 2
    assert list(A.row_ptr) == [0, 1, 2]


def test_symmetric_expansion():
    A = load_matrix_market("""\
%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 2.0
2 1 5.0
""")
    dense = csr_to_dense(A)
    assert dense[0, 1] == 5.0 and dense[1, 0] == 5.0


def test_array_format_rejected():
    with pytest.raises(MalformedHeader):
        load_matrix_market("%%MatrixMarket matrix array real general\n2 2 4\n")


def test_non_square_rejected():
    with pytest.raises(NonSquare):
        load_matrix_market("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n")


def test_index_out_of_range_carries_line():
    with pytest.raises(IndexOutOfRange) as exc:
        load_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "5 1 1.0\n")
    assert exc.value.line == 4


def test_duplicates_summed():
    A = load_matrix_market(
        "%%MatrixMarket matrix coordinate real general\n"
        "1 1 2\n"
        "1 1 2.0\n"
        "1 1 3.0\n")
    assert A.nnz == 1 and A.values[0] == 5.0
    # a symmetric file sums like the general file with each mirror written
    # right after its entry; the order matters at these magnitudes
    lines = ["2 1 1.0", "1 2 1e-16", "1 2 1e-16"]
    mirrored = [f"{i} {j} {v}\n{j} {i} {v}" for i, j, v in (l.split() for l in lines)]
    A = load_matrix_market("%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n"
                           + "\n".join(lines))
    B = load_matrix_market("%%MatrixMarket matrix coordinate real general\n2 2 6\n"
                           + "\n".join(mirrored))
    assert A.nnz == B.nnz == 2 and A.values.tobytes() == B.values.tobytes()


def test_rows_sorted_by_column():
    A = load_matrix_market(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 3\n"
        "1 3 1.0\n"
        "1 1 2.0\n"
        "1 2 3.0\n")
    assert list(A.col_idx) == [0, 1, 2]
    assert list(A.values) == [2.0, 3.0, 1.0]


def test_loader_round_trip():
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(1, 30))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        A = csr_from_dense(dense)
        B = load_matrix_market(matrix_to_coordinate_text(A))
        assert B.n == A.n
        assert np.array_equal(B.row_ptr, A.row_ptr)
        assert np.array_equal(B.col_idx, A.col_idx)
        assert np.array_equal(B.values, A.values)


@pytest.mark.parametrize("token", ["nan", "-inf", "inf", "1e400"])
def test_non_finite_value_rejected_with_line(token):
    with pytest.raises(NonFiniteValue, match="line 5:"):
        load_matrix_market(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "2 2 2\n"
            "1 1 1.0\n"
            f"2 2 {token}\n")


FLOAT_FORMATS = (repr, "{:.17g}".format, "{:.4e}".format, "{:.6f}".format)
BAD_LINES = (
    lambda i, j, v, n: f"{i} {j}",
    lambda i, j, v, n: f"{i} {j} {v} 1",
    lambda i, j, v, n: f"{i}.0 {j} {v}",
    lambda i, j, v, n: f"1_0 {j} {v}",
    lambda i, j, v, n: f"{i} {n + 1} {v}",
    lambda i, j, v, n: f"0 {j} {v}",
    lambda i, j, v, n: f"{i} {j} nan",
    lambda i, j, v, n: f"{i} {j} -inf",
    lambda i, j, v, n: f"{i} {j} 1e400",
)


@st.composite
def matrix_market_texts(draw):
    """(text, clean): small coordinate files in varied layouts; clean when the
    body has entries, no comment line and no bad line or count."""
    n = draw(st.integers(1, 5))
    sym = draw(st.sampled_from(["general", "symmetric"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    entries = draw(st.lists(st.tuples(
        st.integers(1, n), st.integers(1, n),
        # values of mixed magnitude make duplicate sums depend on their order
        st.sampled_from([1.0, -1.0, 0.1, 3.0, 1e-16, -0.0, 5e-324])
        | st.floats(allow_nan=False, allow_infinity=False)),
        max_size=12))
    lines = []
    clean = bool(entries)
    for i, j, v in entries:
        filler = draw(st.sampled_from(["", "", "", "  ", "\t", "% comment"]))
        if filler:
            lines.append(filler)
            clean = clean and not filler.startswith("%")
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        tail = draw(st.sampled_from(["", " ", "\t"]))
        value = draw(st.sampled_from(FLOAT_FORMATS))(v)
        clean = clean and math.isfinite(float(value))   # "{:.4e}" can round up to 1.8e+308
        lines.append(f"{i}{sep}{j}{sep}{value}{tail}")
    declared = len(entries)
    if lines and draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        i, j, v = draw(st.sampled_from(entries))
        lines[at] = draw(st.sampled_from(BAD_LINES))(i, j, v, n)
        clean = False
    if draw(st.integers(0, 5)) == 0:
        declared += draw(st.sampled_from([-1, 1]))
        clean = False
    head = [f"%%MatrixMarket matrix coordinate real {sym}"]
    if draw(st.booleans()):
        head.append("% header comment")
    head.append(f"{n} {n} {declared}")
    return newline.join(head + lines) + newline * draw(st.integers(0, 2)), clean


def _load_outcome(text):
    try:
        A = load_matrix_market(text)
    except (MalformedHeader, IndexOutOfRange) as exc:
        return type(exc), str(exc)
    return A.row_ptr.tobytes(), A.col_idx.tobytes(), A.values.tobytes()


@settings(max_examples=400, deadline=None)
@given(matrix_market_texts())
def test_vectorised_loader_matches_line_loop(case):
    text, clean = case
    original = refexec._entries_vectorised
    parsed = []

    def spy(*args):
        entries = original(*args)
        parsed.append(entries is not None)
        return entries

    with mock.patch.object(refexec, "_entries_vectorised", spy):
        got = _load_outcome(text)
    with mock.patch.object(refexec, "_entries_vectorised", return_value=None):
        want = _load_outcome(text)
    assert got == want
    if clean and parsed:
        assert parsed == [True], "a clean body fell back to the line loop"


@pytest.mark.parametrize("n,row_ptr,col_idx,nnz,error", [
    (0, [0], [], 0, "row_ptr length must be n \\+ 1"),
    (2, [0, 1], [0], 1, "row_ptr length must be n \\+ 1"),
    (2, [1, 1, 2], [0, 1], 2, "must start at 0 and end at nnz"),
    (2, [0, 1, 3], [0, 1], 2, "must start at 0 and end at nnz"),
    (3, [0, 2, 1, 3], [0, 1, 2], 3, "non-decreasing"),
    (2, [0, 1, 2], [0, 1, 1], 2, "lengths differ"),
    (2, [0, 1, 2], [0, 2], 2, "column index out of range"),
    (2, [0, 1, 2], [-1, 1], 2, "column index out of range"),
    (3, [0, 3, 3, 3], [0, 2, 1], 3, "^row 0: column indices not strictly increasing"),
    (4, [0, 0, 2, 2, 4], [3, 1, 0, 2], 4, "^row 1: column indices not strictly increasing"),
    (4, [0, 1, 1, 2, 4], [2, 0, 3, 3], 4, "^row 3: column indices not strictly increasing"),
    (3, [0, 0, 1, 3], [0, 2, 1], 3, "^row 2: column indices not strictly increasing"),
    # a row may start left of where the previous row ends
    (3, [0, 2, 4, 5], [1, 2, 0, 1, 0], 5, None),
    # empty rows: the first, the last, and all of them
    (4, [0, 0, 2, 2, 2], [1, 3], 2, None),
    (3, [0, 0, 0, 0], [], 0, None),
])
def test_csr_validate(n, row_ptr, col_idx, nnz, error):
    A = CsrMatrix(n=n, row_ptr=np.array(row_ptr, dtype=np.int32),
                  col_idx=np.array(col_idx, dtype=np.int32), values=np.ones(nnz))
    if error is None:
        A.validate()
    else:
        with pytest.raises(ValueError, match=error):
            A.validate()


# -- spmv ----------------------------------------------------------------------

def test_spmv_identity():
    A = csr_from_dense(np.eye(3))
    assert np.array_equal(spmv_csr(A, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_spmv_small_dense():
    A = csr_from_dense(np.array([[2.0, 0.0], [1.0, 3.0]]))
    assert np.array_equal(spmv_csr(A, np.array([1.0, 2.0])), [2.0, 7.0])


def test_spmv_dimension_mismatch():
    A = csr_from_dense(np.eye(3))
    with pytest.raises(DimensionMismatch):
        spmv_csr(A, np.ones(4))


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 51))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.25)
        A = csr_from_dense(dense)
        x = rng.standard_normal(n)
        got = spmv_csr(A, x)
        want = dense @ x
        scale = max(1e-300, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, scale)


def _accumulation_cases():
    """Random matrices, then shapes that stress the level-by-level sweep."""
    rng = np.random.default_rng(12)
    for trial in range(25):
        n = int(rng.integers(1, 40))
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
        yield csr_from_dense(dense), rng.standard_normal(n)
    rng = np.random.default_rng(13)
    empty_rows = rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.6)
    empty_rows[[0, 3, 6]] = 0.0     # the first, a middle and the last row
    yield csr_from_dense(empty_rows), rng.standard_normal(7)
    long_row = np.eye(30)
    long_row[12] = rng.standard_normal(30)
    yield csr_from_dense(long_row), rng.standard_normal(30)
    # three entries in every row, so every level covers every row
    circulant = sum(np.roll(np.eye(9), k, axis=1) * rng.uniform(1.0, 2.0, 9)
                    for k in (0, 1, 4))
    yield csr_from_dense(circulant), rng.standard_normal(9)
    # every product is a signed zero, some of them -0.0: summed left to right
    # from +0.0 each row gives +0.0, where a sum that starts from the row's
    # first product would keep a -0.0
    signed = np.array([[-1.0, 2.0, 0.0, 0.0],
                       [0.0, -3.0, 0.0, 0.0],
                       [4.0, 0.0, 0.0, -1.0],
                       [0.0, 0.0, 5.0, 0.0]])
    yield csr_from_dense(signed), np.array([0.0, -0.0, -0.0, 0.0])


def test_spmv_left_to_right_accumulation():
    rng = np.random.default_rng(14)
    for A, x in _accumulation_cases():
        want = spmv_loop(A.row_ptr, A.col_idx, A.values, x)
        got = spmv_csr(A, x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for _ in range(4):
            lo, hi = sorted(int(v) for v in rng.integers(0, A.n + 1, 2))
            for plan in (A.plan(lo, hi), build_sweep_plan(A.row_ptr, lo, hi)):
                part = spmv_range(A.row_ptr, A.col_idx, A.values, x, lo, hi,
                                  plan=plan, out=np.full(hi - lo, np.nan))
                assert np.array_equal(part, want[lo:hi])
                assert np.array_equal(np.signbit(part), np.signbit(want[lo:hi]))


# -- run_cg --------------------------------------------------------------------

def test_cg_identity_system():
    A = csr_from_dense(np.eye(3))
    b = np.array([3.0, -1.0, 4.0])
    res = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=10))
    assert res.converged
    assert res.iterations == 1
    assert np.allclose(res.x, b, rtol=0, atol=1e-14)


def test_cg_diagonal_finite_termination():
    A = csr_from_dense(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    b = np.ones(5)
    res = run_cg(A, b, SolverConfig(tol=1e-12, max_iter=20))
    assert res.converged
    assert res.iterations <= 6  # 5 distinct eigenvalues, +1 float slack
    assert np.allclose(res.x, np.linalg.solve(csr_to_dense(A), b), rtol=1e-12)


def test_cg_poisson_matches_dense_and_oracle_iterations():
    A = poisson_2d(20)  # n = 400
    b = np.ones(A.n)
    res = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=A.n))
    assert res.converged
    x_direct = np.linalg.solve(csr_to_dense(A), b)
    rel = np.max(np.abs(res.x - x_direct)) / np.max(np.abs(x_direct))
    assert rel <= 1e-8
    _, oracle_iters, oracle_conv = reference_cg(A.row_ptr, A.col_idx, A.values, b,
                                                1e-10, A.n)
    assert oracle_conv
    assert res.iterations == oracle_iters


def test_cg_breakdown_on_indefinite():
    A = csr_from_dense(np.diag([1.0, -1.0]))
    with pytest.raises(BreakdownDetected):
        run_cg(A, np.array([0.0, 1.0]), SolverConfig(tol=1e-10, max_iter=5))


def test_cg_zero_rhs_is_result():
    A = poisson_1d(10)
    res = run_cg(A, np.zeros(10), SolverConfig(tol=1e-10, max_iter=5))
    assert res.converged and res.iterations == 0
    assert not res.residual_history
    assert np.array_equal(res.x, np.zeros(10))


def test_cg_rejects_nonsymmetric():
    A = csr_from_dense(np.array([[2.0, 1.0], [0.5, 2.0]]))
    with pytest.raises(NonSymmetricMatrix):
        run_cg(A, np.ones(2), SolverConfig(tol=1e-10, max_iter=5))


def test_cg_residual_contract():
    eps = np.finfo(np.float64).eps
    for A, seed in ((poisson_1d(50), 0), (poisson_2d(8), 1), (random_spd(30, 5), 2)):
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(A.n)
        res = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=10 * A.n))
        assert res.converged
        true_res = float(np.linalg.norm(csr_to_dense(A) @ res.x - b))
        bound = 1e-10 * float(np.linalg.norm(b)) * (1 + 10 * A.n * eps)
        assert true_res <= bound
        assert res.iterations == len(res.residual_history)
        assert res.residual_history[-1] <= 1e-10


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=1.5, max_iter=10)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-10, max_iter=0)


# -- schedule execution --------------------------------------------------------

def _cg_setup(k: int):
    model = gmodelc.parse_model(gmodelc.bundled_model_text())
    A = poisson_2d(k)
    sized = instantiate_for_matrix(model, A.n, A.nnz)
    assert gmodelc.validate_conformance(sized) == []
    b = np.ones(A.n)
    bindings = {"rowptr": A.row_ptr, "colidx": A.col_idx, "values": A.values, "b": b}
    return sized, A, b, bindings


def test_schedule_matches_run_cg_bitwise_single_device():
    sized, A, b, bindings = _cg_setup(20)
    schedule = build_schedule(sized, 1)
    res = execute_schedule(sized, schedule, bindings, 1)
    ref = run_cg(A, b, SolverConfig(tol=1e-10, max_iter=A.n))
    assert res.iterations == ref.iterations
    assert np.array_equal(res.outputs["x"], ref.x)
    assert res.converged
    assert res.final_relres == ref.residual_history[-1]


def test_device_count_invariance_desk_scale():
    sized, A, b, bindings = _cg_setup(20)
    results = [execute_schedule(sized, build_schedule(sized, d), bindings, d)
               for d in (1, 2, 4)]
    iters = {r.iterations for r in results}
    assert len(iters) == 1
    for i in range(3):
        for j in range(i + 1, 3):
            xi, xj = results[i].outputs["x"], results[j].outputs["x"]
            rel = np.max(np.abs(xi - xj)) / np.max(np.abs(xi))
            assert rel <= 1e-10


SINGLE_TASK = """\
platform p {{
  component Host {{
    processor cpu : hwProcessor
    memory ram : hwMemory role=hostRam
  }}
  component Cu : hwProcessor {{
    processor pe : hwProcessor shaped [8]
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
application m {{
  component T {{
{ports}
    repeat [{n}]
    deploy {op}
  }}
  component m {{
{root_ports}
    part t : T
{conns}
  }}
}}
{allocs}
"""


def _single_task_model(op, ports, root_ports, conns, allocs, n=64):
    text = SINGLE_TASK.format(
        op=op, n=n,
        ports="\n".join(f"    port {p}" for p in ports),
        root_ports="\n".join(f"    port {p}" for p in root_ports),
        conns="\n".join(f"    connect {c}" for c in conns),
        allocs="\n".join(allocs))
    model = gmodelc.parse_model(text)
    assert gmodelc.validate_conformance(model) == [], text
    return model


def test_copy_schedule_is_bitwise_identity():
    model = _single_task_model(
        "copy",
        ["src in float64 [64]", "dst out float64 [64]"],
        ["i in float64 [64]", "o out float64 [64]"],
        ["i -> t.src", "t.dst -> o"],
        ["allocate data i onto dev.gmem", "allocate data t.dst onto dev.gmem",
         "allocate task t onto dev.cu"])
    rng = np.random.default_rng(0)
    data = rng.standard_normal(64)
    res = execute_schedule(model, build_schedule(model, 3), {"i": data}, 3)
    assert np.array_equal(res.outputs["o"], data)
    assert res.iterations == 0 and res.converged


@pytest.mark.parametrize("op,ports,root_ports,conns,allocs,bind_names", [
    ("copy", ["src in float64 [64]", "dst out float64 [64]"],
     ["i in float64 [64]", "o out float64 [64]"],
     ["i -> t.src", "t.dst -> o"],
     ["allocate data i onto dev.gmem", "allocate data t.dst onto dev.gmem",
      "allocate task t onto dev.cu"], ["i"]),
    ("sub", ["x in float64 [64]", "y in float64 [64]", "z out float64 [64]"],
     ["i1 in float64 [64]", "i2 in float64 [64]", "o out float64 [64]"],
     ["i1 -> t.x", "i2 -> t.y", "t.z -> o"],
     ["allocate data i1 onto dev.gmem", "allocate data i2 onto dev.gmem",
      "allocate data t.z onto dev.gmem", "allocate task t onto dev.cu"], ["i1", "i2"]),
    ("scale", ["y inout float64 [64]", "a in float64 [1]"],
     ["i in float64 [64]", "s in float64 [1]", "o out float64 [64]"],
     ["i -> t.y", "s -> t.a", "t.y -> o"],
     ["allocate data i onto dev.gmem", "allocate data s onto host.ram",
      "allocate task t onto dev.cu"], ["i", "s"]),
    ("axpy", ["y inout float64 [64]", "x in float64 [64]", "a in float64 [1]"],
     ["i in float64 [64]", "v in float64 [64]", "s in float64 [1]",
      "o out float64 [64]"],
     ["i -> t.y", "v -> t.x", "s -> t.a", "t.y -> o"],
     ["allocate data i onto dev.gmem", "allocate data v onto dev.gmem",
      "allocate data s onto host.ram", "allocate task t onto dev.cu"],
     ["i", "v", "s"]),
])
def test_partition_transparency_elementwise(op, ports, root_ports, conns, allocs,
                                            bind_names):
    model = _single_task_model(op, ports, root_ports, conns, allocs)
    rng = np.random.default_rng(42)
    bindings = {}
    for name in bind_names:
        bindings[name] = rng.standard_normal(1 if name == "s" else 64)
    outs = []
    for d in (1, 3, 5):
        res = execute_schedule(model, build_schedule(model, d), dict(bindings), d)
        outs.append(res.outputs["o"])
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_partition_transparency_spmv_bitwise():
    A = poisson_2d(8)
    model = _single_task_model(
        "spmv_csr",
        [f"rowptr in int32 [{A.n + 1}]", f"colidx in int32 [{A.nnz}]",
         f"values in float64 [{A.nnz}]", f"x in float64 [{A.n}]",
         f"y out float64 [{A.n}]"],
        [f"rp in int32 [{A.n + 1}]", f"ci in int32 [{A.nnz}]",
         f"va in float64 [{A.nnz}]", f"vx in float64 [{A.n}]",
         f"o out float64 [{A.n}]"],
        ["rp -> t.rowptr", "ci -> t.colidx", "va -> t.values", "vx -> t.x", "t.y -> o"],
        ["allocate data rp onto dev.gmem", "allocate data ci onto dev.gmem",
         "allocate data va onto dev.gmem", "allocate data vx onto dev.gmem",
         "allocate data t.y onto dev.gmem", "allocate task t onto dev.cu"],
        n=A.n)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(A.n)
    bindings = {"rp": A.row_ptr, "ci": A.col_idx, "va": A.values, "vx": x}
    outs = [execute_schedule(model, build_schedule(model, d), dict(bindings), d)
            .outputs["o"] for d in (1, 3)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], spmv_csr(A, x))


def test_partition_transparency_dot_tolerance():
    model = _single_task_model(
        "dot_partial",
        ["a in float64 [4096]", "b in float64 [4096]", "s out float64 [1]"],
        ["i1 in float64 [4096]", "i2 in float64 [4096]", "o out float64 [1]"],
        ["i1 -> t.a", "i2 -> t.b", "t.s -> o"],
        ["allocate data i1 onto dev.gmem", "allocate data i2 onto dev.gmem",
         "allocate data t.s onto host.ram", "allocate task t onto dev.cu"],
        n=4096)
    rng = np.random.default_rng(9)
    bindings = {"i1": rng.standard_normal(4096), "i2": rng.standard_normal(4096)}
    values = [float(execute_schedule(model, build_schedule(model, d), dict(bindings), d)
                    .outputs["o"][0]) for d in (1, 2, 4, 7)]
    exact = values[0]
    for v in values[1:]:
        assert abs(v - exact) <= 1e-12 * max(1.0, abs(exact))


def test_missing_binding():
    sized, A, b, bindings = _cg_setup(4)
    del bindings["b"]
    with pytest.raises(MissingBinding):
        execute_schedule(sized, build_schedule(sized, 1), bindings, 1)


def test_binding_shape_mismatch_reported():
    sized, A, b, bindings = _cg_setup(4)
    bindings["b"] = np.ones(3)
    with pytest.raises(MissingBinding):
        execute_schedule(sized, build_schedule(sized, 1), bindings, 1)


def test_intrinsic_signature_mismatch():
    model = _single_task_model(
        "scale", ["y inout float64 [64]", "b in float64 [1]"],
        ["i in float64 [64]", "s in float64 [1]", "o out float64 [64]"],
        ["i -> t.y", "s -> t.b", "t.y -> o"],
        ["allocate data i onto dev.gmem", "allocate data s onto host.ram",
         "allocate task t onto dev.cu"])
    with pytest.raises(IntrinsicShapeMismatch):
        execute_schedule(model, build_schedule(model, 1),
                         {"i": np.ones(64), "s": np.ones(1)}, 1)


def test_max_iter_override_stops_early():
    sized, A, b, bindings = _cg_setup(10)
    res = execute_schedule(sized, build_schedule(sized, 1), bindings, 1, max_iter=3)
    assert res.iterations == 3
    assert not res.converged


def test_instantiate_for_matrix_rescales_all_dims(cg_model):
    sized = instantiate_for_matrix(cg_model, 400, 1920)
    spmv = sized.application_components["SpmvCsr"]
    assert spmv.port("x").shape == gmodelc.Shape((400,))
    assert spmv.port("rowptr").shape == gmodelc.Shape((401,))
    assert spmv.port("values").shape == gmodelc.Shape((1920,))
    loop = sized.application_components["CgLoop"]
    assert loop.repetition_space == gmodelc.Shape((400,))
    root = sized.application_components["cg"]
    assert root.port("b").shape == gmodelc.Shape((400,))
    assert gmodelc.validate_conformance(sized) == []
