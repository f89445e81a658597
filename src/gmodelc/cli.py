"""Command-line driver: check, map, codegen and run over .gmodel files.

Exit codes: 0 success, 1 validation/model errors, 2 I/O or parse
failures, 3 when run's loop ends unconverged or with a residual that is
not finite (a CG breakdown is not detected yet).  Reports go to stdout,
diagnostics to stderr; all file outputs are deterministic.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from . import codegen, dsl, memmap, refexec
from .intrinsics import deployment_diagnostics
from .metamodel import ComponentKind, Direction, Model, validate_conformance
from .partition import build_schedule

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmodelc",
        description="Model-driven OpenCL code generation and reference execution.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, devices=False):
        p.add_argument("model", help="path to the .gmodel file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if devices:
            p.add_argument("--devices", type=int, default=1,
                           help="logical device count, 1..16 (default: 1)")
        else:
            p.set_defaults(devices=1)

    common(sub.add_parser("check", help="validate a model"))
    common(sub.add_parser("map", help="write the memory-map report"))
    common(sub.add_parser("codegen", help="emit OpenCL kernel and host sources"),
           devices=True)
    run = sub.add_parser("run", help="execute the schedule on the reference executor")
    common(run, devices=True)
    run.add_argument("--matrix", required=True, help="Matrix Market coordinate file")
    run.add_argument("--rhs", help="right-hand side, one value per line (default: ones)")
    run.add_argument("--tol", type=float, help="override the loop tolerance")
    run.add_argument("--max-iter", type=int, help="override the iteration cap")
    # argparse takes a negative number written with an exponent, such as
    # -1e-8 before Python 3.13, or -inf for an option flag; read every
    # negative number as a value, so that it reaches the range check in _cmd_run
    run._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _load_model(path: str) -> Model:
    with open(path, "r", encoding="ascii") as f:
        text = f.read()
    return dsl.parse_model(text)


def _validated_model(args: argparse.Namespace) -> tuple[Model | None, int]:
    """The parsed model when it has no error; later stages share its context."""
    try:
        model = _load_model(args.model)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: {args.model}: {exc}", file=sys.stderr)
        return None, EXIT_IO
    except dsl.ParseFailure as exc:
        for err in exc.errors:
            print(f"{args.model}:{err}", file=sys.stderr)
        return None, EXIT_IO
    diags = validate_conformance(model)
    if not any(d.severity == "error" for d in diags):
        diags += deployment_diagnostics(model)
    for diag in diags:
        print(str(diag), file=sys.stderr)
    if any(d.severity == "error" for d in diags):
        return None, EXIT_VALIDATION
    return model, EXIT_OK


def _memory_maps(model: Model) -> list[memmap.MemoryMap] | None:
    """The packed memory maps, or None with the capacity error reported."""
    try:
        return memmap.build_memory_maps(model)
    except memmap.CapacityExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


# lines of the solution file formatted and written at a time
SOLUTION_CHUNK_LINES = 256


def _write(out_dir: str, file_name: str, contents: str | Iterable[str]) -> str:
    """Write contents, a string or the strings that make it up in order."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, file_name)
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.writelines([contents] if isinstance(contents, str) else contents)
    return path


def _solution_text(solution: np.ndarray) -> Iterator[str]:
    """One value per line, as repr of the float64 value, so that it reads
    back exactly; made SOLUTION_CHUNK_LINES lines at a time."""
    values = np.asarray(solution, dtype=np.float64)
    for start in range(0, len(values), SOLUTION_CHUNK_LINES):
        yield "\n".join(map(repr, values[start:start + SOLUTION_CHUNK_LINES].tolist())) + "\n"


def _matrix_bindings(model: Model, A: refexec.CsrMatrix,
                     rhs: np.ndarray) -> dict[str, np.ndarray]:
    """Bind root input ports structurally: CSR ports via their connection to
    the spmv task, the remaining float input as the right-hand side."""
    groups = model.context.port_groups
    root = model.root(ComponentKind.APPLICATION)
    spmv_path, _ = refexec.spmv_task(model)
    csr_arrays = {f"{spmv_path}.rowptr": A.row_ptr,
                  f"{spmv_path}.colidx": A.col_idx,
                  f"{spmv_path}.values": A.values}
    bindings: dict[str, np.ndarray] = {}
    for port in root.ports:
        if port.direction is not Direction.IN:
            continue
        group = groups[port.name]
        bound = None
        for node, arr in csr_arrays.items():
            if node in group:
                bound = arr
                break
        if bound is None:
            if not port.data_type.is_float:
                raise ValueError(f"cannot infer a binding for input port '{port.name}'")
            bound = rhs
        bindings[port.name] = bound
    return bindings


def _cmd_check(args: argparse.Namespace) -> int:
    model, status = _validated_model(args)
    if model is None:
        return status
    return EXIT_OK if _memory_maps(model) is not None else EXIT_VALIDATION


def _cmd_map(args: argparse.Namespace) -> int:
    model, status = _validated_model(args)
    if model is None:
        return status
    maps = _memory_maps(model)
    if maps is None:
        return EXIT_VALIDATION
    report = memmap.emit_memory_map_report(maps)
    _write(args.out, f"{model.application_root}_memmap.txt", report)
    sys.stdout.write(report)
    return EXIT_OK


def _cmd_codegen(args: argparse.Namespace) -> int:
    model, status = _validated_model(args)
    if model is None:
        return status
    try:
        maps = memmap.build_memory_maps(model)
        schedule = build_schedule(model, args.devices)
        units = [codegen.generate_kernels(model, maps, schedule),
                 codegen.generate_host(model, maps, schedule, args.devices)]
    except ValueError as exc:       # CapacityExceeded included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for unit in units:
        path = _write(args.out, unit.file_name, unit.contents)
        print(path)
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    if args.tol is not None and not (0.0 < args.tol < 1.0):    # nan included
        print("error: --tol must be in (0, 1)", file=sys.stderr)
        return EXIT_IO
    if args.max_iter is not None and args.max_iter < 1:
        print("error: --max-iter must be at least 1", file=sys.stderr)
        return EXIT_IO
    rhs = None
    if args.rhs is not None:     # every check but the length precedes the load
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                lines = np.loadtxt(args.rhs, dtype=np.float64, ndmin=2)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        if lines.size == 0:
            print(f"error: {args.rhs}: no values", file=sys.stderr)
            return EXIT_IO
        if lines.shape[1] != 1:
            print(f"error: {args.rhs}: {lines.shape[1]} values per line, "
                  "expected one", file=sys.stderr)
            return EXIT_IO
        rhs = lines[:, 0]
        bad = np.flatnonzero(~np.isfinite(rhs))
        if len(bad):
            print(f"error: {args.rhs}: value {bad[0] + 1} ({float(rhs[bad[0]])!r}) "
                  "is not finite", file=sys.stderr)
            return EXIT_IO
    try:
        A = refexec.read_matrix_market(args.matrix)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (refexec.MalformedHeader, refexec.NonSquare, refexec.IndexOutOfRange,
            UnicodeDecodeError) as exc:
        print(f"error: {args.matrix}: {exc}", file=sys.stderr)
        return EXIT_IO
    if rhs is None:
        rhs = np.ones(A.n)
    if len(rhs) != A.n:
        print(f"error: rhs has {len(rhs)} entries, matrix has {A.n} rows",
              file=sys.stderr)
        return EXIT_IO

    model, status = _validated_model(args)
    if model is None:
        return status
    try:
        model = refexec.instantiate_for_matrix(model, A.n, A.nnz)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    diags = validate_conformance(model)
    if any(d.severity == "error" for d in diags):
        for diag in diags:
            print(str(diag), file=sys.stderr)
        return EXIT_VALIDATION

    name = model.application_root
    if float(np.linalg.norm(rhs)) == 0.0:
        # zero right-hand side: the exact solution is zero, no iterations
        result_line = "iters=0 relres=0.0 converged=true\n"
        _write(args.out, f"{name}_result.txt", result_line)
        _write(args.out, f"{name}_solution.txt", _solution_text(np.zeros(A.n)))
        sys.stdout.write(result_line)
        return EXIT_OK

    try:
        schedule = build_schedule(model, args.devices)
        bindings = _matrix_bindings(model, A, rhs)
        result = refexec.execute_schedule(model, schedule, bindings, tol=args.tol,
                                          max_iter=args.max_iter)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    relres = result.final_relres if result.final_relres is not None else 0.0
    converged = "true" if result.converged else "false"
    result_line = f"iters={result.iterations} relres={relres!r} converged={converged}\n"
    _write(args.out, f"{name}_result.txt", result_line)
    outputs = sorted(result.outputs.items())
    if outputs:
        _, solution = outputs[0]
        _write(args.out, f"{name}_solution.txt", _solution_text(solution))
    sys.stdout.write(result_line)
    if not result.converged or not np.isfinite(relres):
        return EXIT_NUMERIC
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    if not (1 <= args.devices <= 16):
        print("error: --devices must be between 1 and 16", file=sys.stderr)
        return EXIT_IO
    handler = {"check": _cmd_check, "map": _cmd_map,
               "codegen": _cmd_codegen, "run": _cmd_run}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
