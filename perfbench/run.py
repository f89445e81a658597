"""gmodelc benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload paper3d --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  This process generates the seeded
inputs under perfbench/_work/, then measures the workload in a child
process (perfbench/workload.py) with OPENBLAS/OMP/MKL threading pinned to
one thread; the child also reports its own peak resident memory.
Human-readable lines go first; the last line of standard output is
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer
ones.  Exits non-zero without a result when the program source (src/gmodelc)
or BENCHMARK.json is missing, or when the child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT_S = 170         # for the whole run, inputs and children included

# devices: the run's logical device count; models: task counts of the generated
# compile models; compile_devices: device counts each model is compiled for.
# A repetition is runs_per_repetition `gmodelc run`s with compile_passes passes
# over the model set (cg.gmodel plus the models) spread evenly between them.
WORKLOADS = {
    "paper3d": dict(devices=4, matrix="poisson3d", size=51, models=(),
                    compile_devices=(4,), compile_passes=6, runs_per_repetition=1),
    "launch_bound": dict(devices=16, matrix="poisson2d", size=100, models=(),
                         compile_devices=(16,), compile_passes=6, runs_per_repetition=1),
    "compile": dict(devices=4, matrix="poisson2d", size=32, models=(400, 600, 800),
                    compile_devices=(1, 4, 16), compile_passes=1, runs_per_repetition=5),
}
PAPER_N, PAPER_NNZ = 132651, 912951
# A calibration sample (calibrate.py) took 3.6 ms of interpreter work plus
# 5.2 ms of numpy passes, as medians, on the machine the benchmark was
# written on in its fastest phases.  Timed metrics are scaled by this
# reference over the run's own medians, so they read as CPU seconds on that
# machine at that speed.
REFERENCE_CALIBRATION_MS = 3.6 + 5.2
TIMED_UNITS = ("s", "ms")


def generate(name: str, seed: int, work: str) -> dict:
    """Write the workload's inputs into `work`; return its spec."""
    w = WORKLOADS[name]
    if w["matrix"] == "poisson3d":
        n, rows, cols, vals = inputs.poisson3d_triplets(w["size"])
        if (n, len(rows)) != (PAPER_N, PAPER_NNZ):
            raise AssertionError(f"poisson3d: n={n} nnz={len(rows)}")
    else:
        n, rows, cols, vals = inputs.poisson2d_triplets(w["size"])
    inputs.write_matrix(os.path.join(work, "matrix.mtx"), n, rows, cols, vals)
    np.savez(os.path.join(work, "reference.npz"), rows=rows, cols=cols, vals=vals,
             b=np.ones(n))
    models = []
    for i, tasks in enumerate(w["models"]):
        models.append(f"gen{i}")
        with open(os.path.join(work, f"gen{i}.gmodel"), "w", encoding="ascii") as f:
            f.write(inputs.generate_model(seed * 1000 + i, f"gen{i}", tasks))
    return {"workload": name, "devices": w["devices"], "n": n, "nnz": len(rows),
            "models": models, "compile_devices": list(w["compile_devices"]),
            "compile_passes": w["compile_passes"],
            "runs_per_repetition": w["runs_per_repetition"]}


def summary_line(name: str, values: list[float], unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    values = sorted(values)
    n = len(values)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        tail = f"p{pct}={np.percentile(values, pct):.6g}"
    else:
        tail = f"max={values[-1]:.6g}"
    return f"{name:<14} median={statistics.median(values):.6g} {unit:<6} {tail} n={n}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "gmodelc", "__init__.py")):
        print("error: run from the root of a gmodelc checkout (no src/gmodelc here)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        started = time.perf_counter()
        deadline = time.monotonic() + TIME_LIMIT_S
        spec = generate(args.workload, args.seed % 2**32, work)
        with open(os.path.join(work, "spec.json"), "w", encoding="utf-8") as f:
            json.dump(spec, f)
        print(f"{args.workload}: seed {args.seed}, n={spec['n']} nnz={spec['nnz']}, "
              f"{spec['devices']} devices, inputs in {time.perf_counter() - started:.1f} s",
              file=sys.stderr)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        result_path = os.path.join(work, "result.json")
        child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "workload.py"), work, str(args.seconds),
             str(args.trace), result_path], env=env, stdout=sys.stderr)
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"error: workload ran past the {TIME_LIMIT_S} s limit", file=sys.stderr)
            return 1
        if code != 0:
            print(f"error: workload process exited with {code}", file=sys.stderr)
            return 1
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
        if args.trace:
            shutil.copy(os.path.join(work, "trace.jsonl"), os.path.join(
                HERE, "_work", f"trace-{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = result["per_layer"]
    else:
        samples = result["samples"]
        interpreter_ms = statistics.median(samples.pop("calibration.interpreter_ms"))
        numpy_ms = statistics.median(samples.pop("calibration.numpy_ms"))
        scale = REFERENCE_CALIBRATION_MS / (interpreter_ms + numpy_ms)
        print(f"calibration: interpreter {interpreter_ms:.4g} ms, numpy {numpy_ms:.4g} ms, "
              f"timings scaled by {scale:.4g}")
        values = {}
        for m in wanted:
            name = m["name"]
            if name in samples:
                factor = scale if m["unit"] in TIMED_UNITS else 1.0
                scaled = [factor * v for v in samples[name]]
                print(summary_line(name, scaled, m["unit"]))
                values[name] = statistics.median(scaled)
        # the unscaled CPU and wall times of the same runs, for reference; not metrics
        print(summary_line("cpu.run_s", samples["run_s"], "s"))
        print(summary_line("cpu.compile_s", samples["compile_s"], "s"))
        print(summary_line("wall.run_s", samples["wall.run_s"], "s"))
        if result["peak_rss_mb"] is not None:
            values["peak_rss_mb"] = result["peak_rss_mb"]
        values["ok_frac"] = (attempted - failed) / attempted if attempted else 0.0
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing or attempted < 1:
        print(f"error: no value for {', '.join(missing) or 'any operation'}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
