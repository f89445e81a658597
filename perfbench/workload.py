"""One benchmark workload in its own process: timed operations, checks, metrics.

    python3 perfbench/workload.py INPUT_DIR SECONDS TRACE RESULT_JSON

run.py writes INPUT_DIR (spec.json, the generated inputs and the
reference arrays) and starts this script from the root of a checkout,
with BLAS threading pinned to one thread.  The program is imported from
./src.  An operation is one `gmodelc run` (through `gmodelc.cli.main`) or
one model compile; it fails on a non-zero exit, an exception, no
convergence or a failed output check.

TRACE 0 times operations for the end-to-end metrics.  Its first `run`
is untimed; the process's peak resident memory (VmHWM) is read as that
run returns, before the benchmark loads its reference arrays or solves
anything itself, so it is the program's own.  Times are CPU seconds;
calibration samples (see calibrate.py) taken between operations let run.py
scale them by the speed of the machine during the run.  TRACE 1 records spans
around each public call (see tracer.py) and derives the per-layer
metrics; its counts come from the Schedule and the sweep plans, and every
one of them must repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import glob
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

sys.path.insert(0, os.path.abspath("src"))

import gmodelc  # noqa: E402
from gmodelc import cli, codegen, dsl, memmap, metamodel, partition, refexec  # noqa: E402
from gmodelc.partition import DeviceStep, LoopStep  # noqa: E402

from calibrate import CLOCK, Calibration  # noqa: E402
from tracer import Tracer  # noqa: E402

TOLERANCE = 1e-10          # the CG model's own `until relres < 1e-10`
RESIDUAL_LIMIT = 1e-9      # true ||b - Ax|| / ||b||; 10x the tolerance for recurrence drift
MIN_REPETITIONS = 2
GOLDEN_DIR = os.path.join("tests", "golden")
STREAM_BYTES = 4 * 105 * 2**20      # 4x the 105 MiB L3 cache of the reference machine

# Every timing is CPU seconds of this single-threaded process (BLAS is pinned
# to one thread).  On an idle machine that equals wall time; on a shared host
# it leaves out the time the process waited for a CPU, whether behind other
# processes or while the hypervisor ran another guest (steal time).
CALIBRATION_SHARE = 0.1     # of the measured CPU time, spent on calibration samples

# computed (not measured) bytes moved per element by each float64 device op
BYTES_PER_ELEMENT = {"dot_partial": 16, "axpy": 24, "scale": 16}
LOOP_OPS = ("spmv_csr", "dot_partial", "axpy", "scale")

# public functions whose calls are recorded in a traced run
TRACED = {
    "refexec.load_matrix_market": (refexec, "load_matrix_market"),
    "refexec.validate": (refexec.CsrMatrix, "validate"),
    "refexec.instantiate_for_matrix": (refexec, "instantiate_for_matrix"),
    "refexec.execute_schedule": (refexec, "execute_schedule"),
    "dsl.parse_model": (dsl, "parse_model"),
    "metamodel.validate_conformance": (metamodel, "validate_conformance"),
    "memmap.build_memory_maps": (memmap, "build_memory_maps"),
    "partition.build_schedule": (partition, "build_schedule"),
    "codegen.generate_kernels": (codegen, "generate_kernels"),
    "codegen.generate_host": (codegen, "generate_host"),
}
COMPILE_LAYERS = ("dsl.parse_model", "metamodel.validate_conformance",
                  "memmap.build_memory_maps", "partition.build_schedule",
                  "codegen.generate_kernels", "codegen.generate_host")


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _no_errors(model, what: str):
    errors = [d for d in metamodel.validate_conformance(model) if d.severity == "error"]
    check(not errors, f"{what}: {len(errors)} conformance errors, first: {errors[:1]}")


def vm_hwm_mb() -> float:
    """Peak resident memory of this process's address space since its exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


@contextlib.contextmanager
def solve_probe(calls: list):
    """While active, each `refexec.execute_schedule` call appends
    (start, end, model, schedule) to `calls`: the solve of a `run`."""
    original = refexec.execute_schedule

    @functools.wraps(original)
    def probe(model, schedule, *args, **kwargs):
        start = CLOCK()
        result = original(model, schedule, *args, **kwargs)
        calls.append((start, CLOCK(), model, schedule))
        return result

    refexec.execute_schedule = probe
    try:
        yield
    finally:
        refexec.execute_schedule = original


def loop_device_steps(schedule) -> list[DeviceStep]:
    """Device steps inside loop bodies: the work of one CG iteration."""
    found: list[DeviceStep] = []

    def walk(steps, in_loop):
        for step in steps:
            if isinstance(step, LoopStep):
                walk(step.body, True)
            elif isinstance(step, DeviceStep) and in_loop:
                found.append(step)

    walk(schedule.steps, False)
    return found


def repetition_space(model, task_path: str) -> int:
    comp = model.application_components[model.application_root]
    for seg in task_path.split("."):
        part = next(p for p in comp.parts if p.name == seg)
        comp = model.application_components[part.type_ref]
    return comp.repetition_space.total if comp.repetition_space else 1


def check_launch_ranges(model, schedule):
    """Each device step's launch ranges tile its repetition space exactly."""
    for step in schedule.device_steps():
        offset = 0
        for launch in step.launches:
            check(launch.range.offset == offset, f"{step.task_path}: gap before a launch")
            offset += launch.range.count
        check(offset == repetition_space(model, step.task_path),
              f"{step.task_path}: launches cover {offset} items, "
              f"repetition space is {repetition_space(model, step.task_path)}")


def spmv_bytes(row_ptr: np.ndarray, lo: int, hi: int) -> int:
    """Computed bytes of CSR rows lo..hi-1: row pointers, index+value+x per entry, y."""
    nnz = int(row_ptr[hi]) - int(row_ptr[lo])
    return 4 * (hi - lo + 1) + 20 * nnz + 8 * (hi - lo)


def schedule_counts(schedule, row_ptr: np.ndarray) -> dict[str, int]:
    steps = loop_device_steps(schedule)
    counts = {"partition.launches_per_iter": sum(len(s.launches) for s in steps)}
    for op in LOOP_OPS:
        elements = 0
        moved = 0
        for step in steps:
            if step.op != op:
                continue
            for launch in step.launches:
                lo, count = launch.range.offset, launch.range.count
                elements += count
                moved += spmv_bytes(row_ptr, lo, lo + count) if op == "spmv_csr" \
                    else BYTES_PER_ELEMENT[op] * count
        counts[f"partition.elements_per_iter.{op}"] = elements
        counts[f"partition.bytes_per_iter.{op}"] = moved
    return counts


class Workload:
    def __init__(self, input_dir: str):
        self.dir = input_dir
        with open(os.path.join(input_dir, "spec.json"), encoding="utf-8") as f:
            self.spec = json.load(f)
        self.tracer: Tracer | None = None
        self.devices = self.spec["devices"]
        self.n = self.spec["n"]
        self.matrix_path = os.path.join(input_dir, "matrix.mtx")
        self.matrix_bytes = os.path.getsize(self.matrix_path)
        self.model_path = os.path.join(input_dir, "cg.gmodel")
        cg_text = gmodelc.bundled_model_text()
        with open(self.model_path, "w", encoding="ascii") as f:
            f.write(cg_text)
        self.compile_models = [("cg", cg_text)]
        for name in self.spec["models"]:
            with open(os.path.join(input_dir, name + ".gmodel"), encoding="ascii") as f:
                self.compile_models.append((name, f.read()))
        self.samples: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self.digests: dict[tuple[str, int], str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference_iterations: int | None = None
        self.A: refexec.CsrMatrix | None = None     # the reference solve's own copy
        self.last_schedule = None
        self.read_peak_rss = False      # read VmHWM right after cli.main returns
        self.calibration = Calibration(CALIBRATION_SHARE)
        self.peak_rss_mb: float | None = None

    @functools.cached_property
    def reference(self):
        """The generator's triplets (full storage) and right-hand side.

        Loaded on first use, after the first run's peak memory is read."""
        ref = np.load(os.path.join(self.dir, "reference.npz"))
        return ref["rows"], ref["cols"], ref["vals"], ref["b"]

    # -- bookkeeping ---------------------------------------------------------

    def record(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def same_count(self, name: str, value: int):
        """Counts are deterministic: every repetition must give the same value."""
        previous = self.counts.setdefault(name, value)
        check(previous == value, f"count {name} changed: {previous} then {value}")

    def attempt(self, operation, *args):
        """Run one operation; a raise of any kind counts it as failed.

        A full garbage collection first, so that no operation pays for
        garbage that the benchmark or the operation before it left behind."""
        self.attempted += 1
        gc.collect()
        try:
            return operation(*args)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"{operation.__name__}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return None

    # -- output checks -------------------------------------------------------

    def product(self, x: np.ndarray) -> np.ndarray:
        """Ax as a COO product of the generator's own triplets, without refexec."""
        rows, cols, vals, _ = self.reference
        return np.bincount(rows, vals * x[cols], minlength=self.n)

    def check_solution(self, iterations: int, x: np.ndarray, converged: bool):
        check(converged, "did not converge")
        check(len(x) == self.n, f"solution has {len(x)} entries, expected {self.n}")
        b = self.reference[3]
        relres = float(np.linalg.norm(b - self.product(x)) / np.linalg.norm(b))
        check(relres <= RESIDUAL_LIMIT, f"true relative residual {relres:.3e} > {RESIDUAL_LIMIT}")
        if self.reference_iterations is not None:
            check(iterations == self.reference_iterations,
                  f"{iterations} iterations, run_cg took {self.reference_iterations}")
        self.same_count("iterations", iterations)

    def check_compiled(self, name: str, devices: int, kernels: str, host: str):
        digest = hashlib.sha256(kernels.encode() + b"\0" + host.encode()).hexdigest()
        first = self.digests.setdefault((name, devices), digest)
        check(first == digest, f"{name} on {devices} devices: output changed between passes")
        if name == "cg":
            with open(os.path.join(GOLDEN_DIR, "cg_kernels.cl"), encoding="ascii") as f:
                check(kernels == f.read(), "cg kernels differ from tests/golden/cg_kernels.cl")
            golden = os.path.join(GOLDEN_DIR, f"cg_host_d{devices}.c")
            if os.path.exists(golden):
                with open(golden, encoding="ascii") as f:
                    check(host == f.read(), f"cg host differs from {golden}")

    # -- operations ----------------------------------------------------------

    def reference_solve(self):
        """run_cg on its own copy of the matrix: the iteration count to match."""
        with open(self.matrix_path, encoding="ascii") as f:
            A = self.A = refexec.load_matrix_market(f.read())
        check(A.n == self.spec["n"] and A.nnz == self.spec["nnz"],
              f"loaded n={A.n} nnz={A.nnz}, generated n={self.spec['n']} "
              f"nnz={self.spec['nnz']}")
        b = self.reference[3]
        span = self.tracer.span("refexec.run_cg") if self.tracer else contextlib.nullcontext()
        with span:
            start = CLOCK()
            result = refexec.run_cg(A, b, refexec.SolverConfig(TOLERANCE, self.n))
            elapsed = CLOCK() - start
        check(result.converged, "run_cg did not converge")
        self.reference_iterations = result.iterations
        return elapsed

    def cli_run(self):
        """`gmodelc run` in process, from argument parsing to the result files.

        Returns (run, setup, solve, iterations, wall): the CPU time of
        cli.main, the part of it before its execute_schedule call, that
        call, the iteration count and the wall time of cli.main."""
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", self.model_path, "--devices", str(self.devices),
                "--matrix", self.matrix_path, "--out", out]
        calls: list = []
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        with solve_probe(calls), span:
            wall_start, start = time.perf_counter(), CLOCK()
            code = cli.main(argv)
            end, wall_end = CLOCK(), time.perf_counter()
        if self.read_peak_rss:
            self.peak_rss_mb = vm_hwm_mb()
        check(code == 0, f"gmodelc run exited with {code}")
        check(len(calls) == 1, f"gmodelc run made {len(calls)} execute_schedule calls")
        ((solve_start, solve_end, model, schedule),) = calls
        (result_file,) = glob.glob(os.path.join(out, "*_result.txt"))
        (solution_file,) = glob.glob(os.path.join(out, "*_solution.txt"))
        with open(result_file, encoding="ascii") as f:
            fields = dict(item.split("=") for item in f.read().split())
        with open(solution_file, encoding="ascii") as f:
            x = np.array(f.read().split(), dtype=np.float64)
        iterations = int(fields["iters"])
        self.check_solution(iterations, x, fields["converged"] == "true")
        check_launch_ranges(model, schedule)
        if self.A is not None:
            for name, value in schedule_counts(schedule, self.A.row_ptr).items():
                self.same_count(name, value)
        self.last_schedule = schedule
        return (end - start, solve_start - start, solve_end - solve_start, iterations,
                wall_end - wall_start)

    def compile_one(self, name: str, text: str, devices: int):
        """parse -> conformance -> memory map -> schedule -> kernels and host."""
        start = CLOCK()
        model = dsl.parse_model(text)
        _no_errors(model, name)
        maps = memmap.build_memory_maps(model)
        schedule = partition.build_schedule(model, devices)
        kernels = codegen.generate_kernels(model, maps, schedule).contents
        host = codegen.generate_host(model, maps, schedule, devices).contents
        return kernels, host, CLOCK() - start

    def compile_pass(self):
        """One pass over the model set; returns its compile time if every compile passed."""
        outputs = []
        for name, text in self.compile_models:
            for devices in self.spec["compile_devices"]:
                compiled = self.attempt(self.compile_one, name, text, devices)
                outputs.append((name, devices, compiled))
        if any(compiled is None for _, _, compiled in outputs):
            return None
        try:
            for name, devices, (kernels, host, _) in outputs:
                self.check_compiled(name, devices, kernels, host)
            self.same_count("codegen.kernel_bytes",
                            sum(len(out[2][0].encode()) for out in outputs))
            self.same_count("codegen.host_bytes",
                            sum(len(out[2][1].encode()) for out in outputs))
        except CheckFailed as exc:
            self.failed += 1
            self.failures.append(f"compile_pass: {exc}")
            return None
        return sum(out[2][2] for out in outputs)

    # -- runs ------------------------------------------------------------------

    def repetition(self):
        """runs_per_repetition runs with the compile passes spread evenly
        between them, so compile samples span the repetition."""
        runs = self.spec["runs_per_repetition"]
        passes = self.spec["compile_passes"]
        after = [0] * runs
        for j in range(passes):
            after[(j + 1) * runs // passes - 1] += 1
        for count in after:
            timed = self.attempt(self.cli_run)
            if timed is not None:
                run, setup, solve, iterations, wall = timed
                self.record("run_s", run)
                self.record("wall.run_s", wall)
                self.record("setup_s", setup)
                self.record("solve_s", solve)
                self.record("iter_ms", 1000.0 * solve / iterations)
                self.record("iterations", iterations)
            self.calibration.keep_up()
            for _ in range(count):
                elapsed = self.compile_pass()
                if elapsed is not None:
                    self.record("compile_s", elapsed)
                self.calibration.keep_up()

    def run_untraced(self, seconds: float):
        self.read_peak_rss = True
        self.attempt(self.cli_run)
        self.read_peak_rss = False
        self.attempt(self.reference_solve)
        deadline = time.perf_counter() + seconds
        self.calibration.start()
        index = 0
        while index < MIN_REPETITIONS or time.perf_counter() < deadline:
            self.repetition()
            index += 1
        self.samples["calibration.interpreter_ms"] = self.calibration.interpreter_ms
        self.samples["calibration.numpy_ms"] = self.calibration.numpy_ms

    def run_traced(self, seconds: float) -> dict:
        """Per-layer metrics from spans and counts; returns name -> value."""
        tracer = self.tracer = Tracer(self.spec["workload"])
        start = time.perf_counter()
        layers: dict[str, list[float]] = {}

        def add(name, value):
            layers.setdefault(name, []).append(value)

        def rounds(share: float, cap: int):
            """0, 1, ... while under share * seconds and cap rounds; at least one."""
            i = 0
            while i < 1 or (i < cap and time.perf_counter() - start < share * seconds):
                yield i
                i += 1

        with tracer.intercept(TRACED):
            tracer.repetition = "run_cg"
            run_cg_s = self.attempt(self.reference_solve)
        self.calibration.start()

        # each round: one untraced run (its run_s, for the overhead and cli.other_s),
        # then one traced run (its layer self times)
        plain, traced = [], []
        for i in rounds(2 / 3, 5):
            self.tracer = None
            timed = self.attempt(self.cli_run)
            if timed is not None:
                run, setup, solve, _, _ = timed
                plain.append(run)
                add("cli.other_s", run - setup - solve)
            self.tracer = tracer
            tracer.repetition = f"cli{i}"
            with tracer.intercept(TRACED):
                timed = self.attempt(self.cli_run)
            if timed is not None:
                traced.append(timed[0])
                spans = tracer.self_times(tracer.repetition)
                load = spans["refexec.load_matrix_market"]
                add("refexec.load_matrix_market.s", load)
                add("refexec.load_matrix_market.mb_per_s", self.matrix_bytes / 1e6 / load)
                add("refexec.validate.s", spans.get("refexec.validate", 0.0))
                add("refexec.instantiate_for_matrix.s", spans["refexec.instantiate_for_matrix"])
                add("refexec.execute_schedule.s", spans["refexec.execute_schedule"])
            self.calibration.keep_up()

        self.attempt(self.spmv_layer, add)

        lines = sum(text.count("\n") for _, text in self.compile_models)
        for i in rounds(1, 20):
            tracer.repetition = f"compile{i}"
            with tracer.intercept(TRACED):
                with tracer.span("compile_pass"):
                    done = self.compile_pass()
            if done is not None:
                spans = tracer.self_times(tracer.repetition)
                for name in COMPILE_LAYERS:
                    add(name + ".s", spans.get(name, 0.0))
                add("dsl.lines_per_s",
                    lines * len(self.spec["compile_devices"]) / spans["dsl.parse_model"])
            self.calibration.keep_up()

        metrics = {name: statistics.median(values) for name, values in layers.items()}
        if run_cg_s is not None and "refexec.execute_schedule.s" in metrics:
            metrics["refexec.run_cg.s"] = run_cg_s
            metrics["refexec.dispatch_ratio"] = metrics["refexec.execute_schedule.s"] / run_cg_s
        if plain and traced:
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics.update(self.counts)
        metrics.pop("iterations", None)
        metrics["machine.stream_gbs"] = stream_gbs()
        metrics["machine.calibration_ms"] = sum(self.calibration.medians())
        return metrics

    def spmv_layer(self, add):
        """Sweep-plan build and one matvec replayed over the last run's spmv launch ranges."""
        A = self.A
        (step,) = [s for s in loop_device_steps(self.last_schedule) if s.op == "spmv_csr"]
        ranges = [(l.range.offset, l.range.offset + l.range.count) for l in step.launches]
        self.tracer.repetition = "plans"
        plans = []
        for lo, hi in ranges:
            with self.tracer.span("refexec.build_sweep_plan"):
                plans.append(refexec.build_sweep_plan(A.row_ptr, lo, hi))
        add("refexec.build_sweep_plan.s",
            self.tracer.self_times("plans")["refexec.build_sweep_plan"])
        self.same_count("refexec.spmv.levels", sum(len(p) for p in plans))

        x = np.random.default_rng(0).uniform(-1.0, 1.0, A.n)
        y = np.empty(A.n)
        times = []
        replay_start = time.perf_counter()
        while len(times) < 10 or time.perf_counter() - replay_start < 1.0:
            start = CLOCK()
            for (lo, hi), plan in zip(ranges, plans):
                refexec.spmv_range(A.row_ptr, A.col_idx, A.values, x, lo, hi,
                                   plan=plan, out=y[lo:hi])
            times.append(CLOCK() - start)
        check(np.allclose(y, self.product(x), rtol=1e-12, atol=1e-12), "spmv replay is wrong")
        ms = 1000.0 * statistics.median(times)
        add("refexec.spmv.ms", ms)
        moved = sum(spmv_bytes(A.row_ptr, lo, hi) for lo, hi in ranges)
        add("refexec.spmv.gbs", moved / (ms / 1000.0) / 1e9)


def stream_gbs() -> float:
    """In-place scale over one array 4x the L3 size: 2 x size bytes per pass (computed)."""
    a = np.full(STREAM_BYTES // 8, 1.0)
    times = []
    for _ in range(5):
        start = CLOCK()
        np.multiply(a, 1.0000001, out=a)
        times.append(CLOCK() - start)
    return 2 * a.nbytes / statistics.median(times) / 1e9


def main(argv: list[str]) -> int:
    input_dir, seconds, trace, result_path = argv
    workload = Workload(input_dir)
    per_layer = {}
    if trace == "1":
        per_layer = workload.run_traced(float(seconds))
        workload.tracer.write_jsonl(os.path.join(input_dir, "trace.jsonl"))
    else:
        workload.run_untraced(float(seconds))
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"samples": workload.samples, "per_layer": per_layer,
                   "peak_rss_mb": workload.peak_rss_mb, "attempted": workload.attempted,
                   "failed": workload.failed, "failures": workload.failures}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
