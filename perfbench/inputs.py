"""Seeded input generators for the benchmark workloads.

Everything here builds files from numpy arrays or plain text and never
imports gmodelc, so a change to the program cannot change the inputs.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import random

import numpy as np

# -- Matrix Market writers ----------------------------------------------------


def _coordinate_text(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> str:
    """General Matrix Market coordinate text from 0-based triplets, in the given order.

    The index columns are formatted from whole arrays; values use repr so
    that they read back bit-exactly.
    """
    head = f"%%MatrixMarket matrix coordinate real general\n{n} {n} {len(rows)}\n"
    body = "".join(map("{} {} {!r}\n".format,
                       (rows + 1).tolist(), (cols + 1).tolist(), vals.tolist()))
    return head + body


def _sorted_triplets(rows, cols, vals):
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def poisson3d_triplets(k: int):
    """Seven-point Laplacian on a k*k*k grid: n = k**3, diagonal 6, neighbours -1."""
    n = k ** 3
    idx = np.arange(n, dtype=np.int64)
    gi, gj, gl = idx // (k * k), (idx // k) % k, idx % k
    rows, cols, vals = [idx], [idx], [np.full(n, 6.0)]
    for di, dj, dl in ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1)):
        a, b, c = gi + di, gj + dj, gl + dl
        ok = (a >= 0) & (a < k) & (b >= 0) & (b < k) & (c >= 0) & (c < k)
        rows.append(idx[ok])
        cols.append((a[ok] * k + b[ok]) * k + c[ok])
        vals.append(np.full(int(ok.sum()), -1.0))
    return n, *_sorted_triplets(np.concatenate(rows), np.concatenate(cols),
                                np.concatenate(vals))


def poisson2d_triplets(k: int):
    """Five-point Laplacian on a k*k grid: n = k**2, diagonal 4, neighbours -1."""
    n = k * k
    idx = np.arange(n, dtype=np.int64)
    gi, gj = idx // k, idx % k
    rows, cols, vals = [idx], [idx], [np.full(n, 4.0)]
    for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        a, b = gi + di, gj + dj
        ok = (a >= 0) & (a < k) & (b >= 0) & (b < k)
        rows.append(idx[ok])
        cols.append(a[ok] * k + b[ok])
        vals.append(np.full(int(ok.sum()), -1.0))
    return n, *_sorted_triplets(np.concatenate(rows), np.concatenate(cols),
                                np.concatenate(vals))


def write_matrix(path: str, n: int, rows, cols, vals):
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write(_coordinate_text(n, rows, cols, vals))


# -- generated models for the compile workload ------------------------------------

PLATFORM = """\
platform machine {
  component Host {
    processor cpu : hwProcessor shaped [4] frequency=2260
    memory ram : hwMemory role=hostRam
  }
  component ProcessingElement : hwProcessor {
    memory pmem : hwMemory role=devicePrivate
  }
  component ComputeUnit : hwProcessor {
    processor pe : ProcessingElement shaped [8]
    memory lmem : hwMemory role=deviceLocal capacity=16K
  }
  component Device {
    processor c : ComputeUnit shaped [16]
    memory gmem : hwMemory role=deviceGlobal
    memory cmem : hwMemory role=deviceConstant
  }
  component machine {
    part host : Host
    part device : Device
    bus pci : hwBus
  }
}
"""

# leaf task types: (ports, deploy, on host); "V" is the model's vector extent
_LEAVES = {
    "Copy": ((("src", "in", "V"), ("dst", "out", "V")), "copy", False),
    "Sub": ((("x", "in", "V"), ("y", "in", "V"), ("z", "out", "V")), "sub", False),
    "Axpy": ((("y", "inout", "V"), ("x", "in", "V"), ("a", "in", "1")), "axpy", False),
    "AxpyUnit": ((("y", "inout", "V"), ("x", "in", "V")), "axpy", False),
    "Scale": ((("y", "inout", "V"), ("a", "in", "1")), "scale", False),
    "Dot": ((("a", "in", "V"), ("b", "in", "V"), ("s", "out", "1")), "dot_partial", False),
    "Div": ((("num", "in", "1"), ("den", "in", "1"), ("q", "out", "1")), "div", True),
    "Neg": ((("a", "in", "1"), ("z", "out", "1")), "neg", True),
    "RelRes": ((("num", "in", "1"), ("den", "in", "1"), ("z", "out", "1")),
               "rel_residual", True),
}
# relative frequency of each step kind; axpy and scale also spend a copy
_MIX = (("Copy", 3), ("Sub", 3), ("Axpy", 2), ("AxpyUnit", 1), ("Scale", 2),
        ("Dot", 3), ("Div", 2), ("Neg", 1), ("RelRes", 1))


class _ModelWriter:
    """Builds one model's application section and allocation links as text."""

    def __init__(self, rng: random.Random, extent: int):
        self.rng = rng
        self.extent = extent
        self.stages: list[str] = []
        self.allocations: list[str] = []
        self.used: set[str] = set()
        self.tasks = 0
        self.next_stage = 1

    def stage(self, name: str, path: str, budget: int, depth: int, in_loop: bool,
              root: bool = False):
        """Emit component `name` holding exactly `budget` leaf tasks (budget >= 2).

        Vectors flow through `x` -> ... -> `y` (root: `src` -> ... -> `dst`),
        scalars from `k` and the tasks' own results; `r` exports one scalar.
        In-place updates (axpy, scale) only ever hit a fresh copy, so no
        endpoint is both read and updated in place and the dataflow stays
        acyclic.  Loops are never nested inside loops.
        """
        rng = self.rng
        x, k, y, r = ("src", "k", "dst", "res") if root else ("x", "k", "y", "r")
        loop = not root and not in_loop and rng.random() < 0.25
        lines: list[str] = []
        parts = 0

        def prefix(part: str) -> str:
            return f"{path}.{part}" if path else part

        def leaf(kind: str) -> str:
            nonlocal parts
            part = f"t{parts}"
            parts += 1
            self.tasks += 1
            self.used.add(kind)
            lines.append(f"    part {part} : {kind}")
            target = "host.cpu" if _LEAVES[kind][2] else "device.c"
            self.allocations.append(f"allocate task {prefix(part)} onto {target}")
            return part

        def produce(part: str, port: str, memory: str) -> str:
            self.allocations.append(f"allocate data {prefix(part)}.{port} onto {memory}")
            return f"{part}.{port}"

        def connect(src: str, dst: str):
            lines.append(f"    connect {src} -> {dst}")

        # every stage opens with a copy and a dot so that it owns a vector
        # and a scalar of its own
        t = leaf("Copy")
        connect(x, f"{t}.src")
        cur = produce(t, "dst", "device.gmem")
        vectors = [x, cur]
        t = leaf("Dot")
        connect(cur, f"{t}.a")
        connect(x, f"{t}.b")
        scalars = [k, produce(t, "s", "host.ram")]
        budget -= 2

        kinds = [kind for kind, _ in _MIX]
        weights = [w for _, w in _MIX]
        while budget > 0:
            if depth < 3 and budget >= 6 and rng.random() < 0.12:
                sub_budget = rng.randint(4, min(budget, 48))
                part = f"s{parts}"
                parts += 1
                sub_name = f"S{self.next_stage}"
                self.next_stage += 1
                self.stage(sub_name, prefix(part), sub_budget, depth + 1, in_loop or loop)
                lines.append(f"    part {part} : {sub_name}")
                connect(cur, f"{part}.x")
                connect(rng.choice(scalars), f"{part}.k")
                cur = f"{part}.y"
                vectors.append(cur)
                scalars.append(f"{part}.r")
                budget -= sub_budget
                continue
            kind = rng.choices(kinds, weights)[0]
            if kind in ("Axpy", "AxpyUnit", "Scale") and budget < 2:
                kind = "Copy"
            if kind == "Copy":
                t = leaf(kind)
                connect(cur, f"{t}.src")
                cur = produce(t, "dst", "device.gmem")
                vectors.append(cur)
            elif kind == "Sub":
                t = leaf(kind)
                connect(cur, f"{t}.x")
                connect(rng.choice(vectors), f"{t}.y")
                cur = produce(t, "z", "device.gmem")
                vectors.append(cur)
            elif kind in ("Axpy", "AxpyUnit", "Scale"):
                c = leaf("Copy")
                connect(cur, f"{c}.src")
                fresh = produce(c, "dst", "device.gmem")
                t = leaf(kind)
                connect(fresh, f"{t}.y")
                if kind != "Scale":
                    connect(rng.choice(vectors), f"{t}.x")
                if kind != "AxpyUnit":
                    connect(rng.choice(scalars), f"{t}.a")
                cur = f"{t}.y"
                vectors.append(cur)
                budget -= 1
            elif kind == "Dot":
                t = leaf(kind)
                connect(cur, f"{t}.a")
                connect(rng.choice(vectors), f"{t}.b")
                scalars.append(produce(t, "s", "host.ram"))
            elif kind == "Neg":
                t = leaf(kind)
                connect(rng.choice(scalars), f"{t}.a")
                scalars.append(produce(t, "z", "host.ram"))
            else:       # Div, RelRes: num / den
                t = leaf(kind)
                connect(rng.choice(scalars), f"{t}.num")
                connect(rng.choice(scalars), f"{t}.den")
                scalars.append(produce(t, "q" if kind == "Div" else "z", "host.ram"))
            budget -= 1

        connect(cur, y)
        connect(scalars[-1], r)
        v = self.extent
        head = [f"  component {name} {{",
                f"    port {x} in float64 [{v}]",
                f"    port {k} in float64 [1]",
                f"    port {y} out float64 [{v}]",
                f"    port {r} out float64 [1]"]
        tail = [f"    repeat [{rng.randint(8, 64)}]", f"    until {r} < 1e-6"] if loop else []
        # children are complete before their parent, so the root comes last
        self.stages.append("\n".join(head + lines + tail + ["  }"]))


def generate_model(seed: int, name: str, tasks: int) -> str:
    """DSL text of a conformant model with exactly `tasks` leaf tasks.

    Tasks mix copy/sub/axpy/scale/dot_partial on the device with
    div/neg/rel_residual on the host, inside components nested up to three
    levels deep; about a quarter of the nested components are loops.
    """
    rng = random.Random(seed)
    extent = rng.choice((4096, 65536, 132651))
    writer = _ModelWriter(rng, extent)
    writer.stage(name, "", tasks, 0, False, root=True)
    assert writer.tasks == tasks, (writer.tasks, tasks)
    leaves = []
    for kind in sorted(writer.used):
        ports, op, on_host = _LEAVES[kind]
        body = [f"  component {kind} {{"]
        for pname, direction, dim in ports:
            body.append(f"    port {pname} {direction} float64 "
                        f"[{extent if dim == 'V' else 1}]")
        if not on_host:
            body.append(f"    repeat [{extent}]")
        body.append(f"    deploy {op}")
        body.append("  }")
        leaves.append("\n".join(body))
    allocations = ["allocate data src onto device.gmem",
                   "allocate data k onto host.ram"] + writer.allocations
    return (f"# generated benchmark model {name} (seed {seed}, {tasks} tasks)\n\n"
            + PLATFORM + f"\napplication {name} {{\n"
            + "\n".join(leaves + writer.stages) + "\n}\n\n"
            + "\n".join(allocations) + "\n")
