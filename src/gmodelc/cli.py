"""Command-line driver: check, map, codegen and run over .gmodel files.

Every command runs one front end over the parsed model: conformance,
deployment diagnostics, memory maps and the schedule, in that order,
stopping at the first stage that fails.  `check` then generates the code
and discards it, `map` writes the report and `codegen` writes the code.
`run` validates the model it is given, re-sizes it to the matrix, runs
the front end on the re-sized model and solves by refexec.solve; it
generates no code.  So `check` rejects whatever `map`, `codegen` and
`run` would reject, with the same message.

Exit codes: 0 success, 1 validation/model errors, 2 I/O or parse
failures, a matrix that is non-symmetric or has no stored entries and a
--rhs that is not finite or is nonzero with a squared norm of 0.0 or
inf, 3 on a breakdown (a host op's bounded operand out of its bound,
such as a CG curvature p.Ap that is not finite and > 0) and when one of
run's loops ends unconverged or with a residual that is not finite.  Reports go to stdout, diagnostics to stderr; all file outputs
are deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from . import codegen, dsl, memmap, refexec
from .intrinsics import deployment_diagnostics
from .metamodel import Model, validate_conformance
from .partition import Schedule, build_schedule

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class Failure(Exception):
    """Ends a command: main prints the lines to stderr and returns the status."""

    def __init__(self, status: int, *lines: str):
        super().__init__(*lines)
        self.status, self.lines = status, lines


@contextlib.contextmanager
def _rejecting():
    """A ValueError raised inside fails the command with exit 1."""
    try:
        yield
    except ValueError as exc:
        raise Failure(EXIT_VALIDATION, f"error: {exc}") from None


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
    try:
        with open(path, "r", encoding="ascii") as f:
            return dsl.parse_model(f.read())
    except OSError as exc:
        raise Failure(EXIT_IO, f"error: {exc}") from None
    except UnicodeDecodeError as exc:
        raise Failure(EXIT_IO, f"error: {path}: {exc}") from None
    except dsl.ParseFailure as exc:
        raise Failure(EXIT_IO, *(f"{path}:{err}" for err in exc.errors)) from None


def _validate(model: Model, quiet: bool = False):
    """The first two stages: conformance, then, without a conformance error,
    the deployment diagnostics.  An error fails the command with every
    diagnostic; otherwise they are printed, unless quiet."""
    diags = validate_conformance(model)
    if not any(d.severity == "error" for d in diags):
        diags += deployment_diagnostics(model)
    if any(d.severity == "error" for d in diags):
        raise Failure(EXIT_VALIDATION, *map(str, diags))
    if not quiet:
        for diag in diags:
            print(str(diag), file=sys.stderr)


def _front_end(model: Model, devices: int,
               quiet: bool = False) -> tuple[list[memmap.MemoryMap], Schedule]:
    """Every command's stages, in order: conformance, deployment
    diagnostics, memory maps and the schedule over `devices`.  The first
    stage that fails fails the command with its message and exit 1."""
    _validate(model, quiet)
    with _rejecting():
        return memmap.build_memory_maps(model), build_schedule(model, devices)


def _generate(model: Model, devices: int) -> list[codegen.GeneratedUnit]:
    maps, schedule = _front_end(model, devices)
    with _rejecting():
        return [codegen.generate_kernels(model, maps, schedule),
                codegen.generate_host(model, maps, schedule, schedule.device_count)]


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


def _cmd_check(args: argparse.Namespace) -> int:
    _generate(_load_model(args.model), args.devices)
    return EXIT_OK


def _cmd_map(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    maps, _ = _front_end(model, args.devices)
    report = memmap.emit_memory_map_report(maps)
    _write(args.out, f"{model.application_root}_memmap.txt", report)
    sys.stdout.write(report)
    return EXIT_OK


def _cmd_codegen(args: argparse.Namespace) -> int:
    for unit in _generate(_load_model(args.model), args.devices):
        print(_write(args.out, unit.file_name, unit.contents))
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    if args.tol is not None and not (0.0 < args.tol < 1.0):    # nan included
        raise Failure(EXIT_IO, "error: --tol must be in (0, 1)")
    if args.max_iter is not None and args.max_iter < 1:
        raise Failure(EXIT_IO, "error: --max-iter must be at least 1")
    rhs = None
    if args.rhs is not None:     # every check but the length precedes the load
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                lines = np.loadtxt(args.rhs, dtype=np.float64, ndmin=2)
        except (OSError, ValueError) as exc:
            raise Failure(EXIT_IO, f"error: {exc}") from None
        if lines.size == 0:
            raise Failure(EXIT_IO, f"error: {args.rhs}: no values")
        if lines.shape[1] != 1:
            raise Failure(EXIT_IO, f"error: {args.rhs}: {lines.shape[1]} values per line, "
                                   "expected one")
        rhs = lines[:, 0]
        bad = np.flatnonzero(~np.isfinite(rhs))
        if len(bad):
            raise Failure(EXIT_IO, f"error: {args.rhs}: value {bad[0] + 1} "
                                   f"({float(rhs[bad[0]])!r}) is not finite")
        try:
            refexec._check_rhs_norm(args.rhs, rhs)     # solve's check, before the load
        except refexec.RhsNormOutOfRange as exc:
            raise Failure(EXIT_IO, f"error: {exc}") from None
    try:
        A = refexec.read_matrix_market(args.matrix)
        refexec._sample_symmetry(A)     # solve's check, before the model
    except OSError as exc:
        raise Failure(EXIT_IO, f"error: {exc}") from None
    except (refexec.MalformedHeader, refexec.NonSquare, refexec.IndexOutOfRange,
            refexec.NonSymmetricMatrix, UnicodeDecodeError) as exc:
        raise Failure(EXIT_IO, f"error: {args.matrix}: {exc}") from None
    if A.nnz == 0:      # it would size the model's CSR ports to 0
        raise Failure(EXIT_IO, f"error: {args.matrix}: {A.n}x{A.n} matrix has no stored entries")
    if rhs is None:
        rhs = np.ones(A.n)
    if len(rhs) != A.n:
        raise Failure(EXIT_IO, f"error: rhs has {len(rhs)} entries, matrix has {A.n} rows")

    template = _load_model(args.model)
    _validate(template)
    with _rejecting():
        model = refexec.instantiate_for_matrix(template, A.n, A.nnz)
    # re-sizing changes only sizes: its diagnostics show only with an error
    _, schedule = _front_end(model, args.devices, quiet=True)

    try:
        result = refexec.solve(model, schedule, A, rhs, tol=args.tol, max_iter=args.max_iter)
    except refexec.BreakdownDetected as exc:
        raise Failure(EXIT_NUMERIC, f"error: {exc}") from None
    except ValueError as exc:
        raise Failure(EXIT_VALIDATION, f"error: {exc}") from None
    iterations, converged = result.iterations, result.converged
    relres = result.final_relres if result.final_relres is not None else 0.0
    outputs = sorted(result.outputs.items())
    solution = outputs[0][1] if outputs else None
    name = model.application_root
    result_line = (f"iters={iterations} relres={relres!r} "
                   f"converged={'true' if converged else 'false'}\n")
    _write(args.out, f"{name}_result.txt", result_line)
    if solution is not None:
        _write(args.out, f"{name}_solution.txt", _solution_text(solution))
    sys.stdout.write(result_line)
    return EXIT_OK if converged and np.isfinite(relres) else EXIT_NUMERIC


def main(argv: list[str] | None = None) -> int:
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    handler = {"check": _cmd_check, "map": _cmd_map,
               "codegen": _cmd_codegen, "run": _cmd_run}[args.command]
    try:
        if not (1 <= args.devices <= 16):
            raise Failure(EXIT_IO, "error: --devices must be between 1 and 16")
        return handler(args)
    except Failure as failure:
        for line in failure.lines:
            print(line, file=sys.stderr)
        return failure.status


if __name__ == "__main__":
    sys.exit(main())
