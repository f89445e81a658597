"""Host-only models made of loops around one `neg` task each.

A loop component holds an `a` in port and an `r` out port, r = -a for the
innermost one, repeats up to its count and stops once r < 0.5: bound to
a = -1.0 it never converges, bound to a = -0.25 it converges at once.
"""

from __future__ import annotations

_PLATFORM = ("platform p {\n  component Host {\n    processor cpu : hwProcessor\n"
             "    memory ram : hwMemory role=hostRam\n  }\n"
             "  component p {\n    part host : Host\n  }\n}\n")

_NEG = ("  component Neg {\n    port a in float64 [1]\n    port z out float64 [1]\n"
        "    deploy neg\n  }\n")


def _loop(name: str, part_type: str, out: str, repeat: int) -> str:
    return (f"  component {name} {{\n    port a in float64 [1]\n    port r out float64 [1]\n"
            f"    part k : {part_type}\n    connect a -> k.a\n    connect k.{out} -> r\n"
            f"    repeat [{repeat}]\n    until r < 0.5\n  }}\n")


def nested_loops(depth: int) -> str:
    """Loops L1 .. L<depth>, each L<i> holding L<i - 1> as its part k and
    L1 holding the `neg` task: loops nested `depth` deep."""
    loops = [_loop("L1", "Neg", "z", 2)]
    loops += [_loop(f"L{i}", f"L{i - 1}", "r", 2) for i in range(2, depth + 1)]
    task = ".".join(["k"] * (depth + 1))
    return (_PLATFORM + "application nest {\n" + _NEG + "".join(loops)
            + f"  component nest {{\n    port a in float64 [1]\n    port r out float64 [1]\n"
            f"    part k : L{depth}\n    connect a -> k.a\n    connect k.r -> r\n  }}\n}}\n"
            "allocate data a onto host.ram\nallocate data r onto host.ram\n"
            f"allocate task {task} onto host.cpu\n")


# loop `first`, repeat [3], over input a, then loop `second`, repeat [2],
# over input c
TWO_LOOPS = (_PLATFORM + "application two {\n" + _NEG + _loop("First", "Neg", "z", 3)
             + _loop("Second", "Neg", "z", 2)
             + "  component two {\n    port a in float64 [1]\n    port c in float64 [1]\n"
             "    port y out float64 [1]\n    port w out float64 [1]\n"
             "    part first : First\n    part second : Second\n"
             "    connect a -> first.a\n    connect c -> second.a\n"
             "    connect first.r -> y\n    connect second.r -> w\n  }\n}\n"
             + "".join(f"allocate data {port} onto host.ram\n" for port in "acyw")
             + "allocate task first.k onto host.cpu\nallocate task second.k onto host.cpu\n")

# TWO_LOOPS with a repeat and an until on its root, which runs once
ROOT_LOOP = TWO_LOOPS.replace(
    "    connect second.r -> w\n  }\n",
    "    connect second.r -> w\n    repeat [4]\n    until y < 0.5\n  }\n")
