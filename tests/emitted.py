"""Reads generated OpenCL back for the structure tests: each kernel with the
task paths its comment lists, and the rows of the host's launch tables."""

import re
from dataclasses import dataclass

from gmodelc.metamodel import ComponentKind, MemoryRole

_KERNEL = re.compile(r"^/\* (\w+): (.*?) \*/\n__kernel void (\w+)\(([^)]*)\)", re.S | re.M)
_ROW = re.compile(r"^    \{(\w+), (\d+), (\d+), (\d+), (\d+), (\d+), args_(\d+), "
                  r"(?:NULL|&partials\[(\d+)\])\},$", re.M)
_STEP = re.compile(r"^/\* step (\d+): (\S+) \*/$", re.M)


@dataclass(frozen=True)
class Kernel:
    intrinsic: str
    paths: tuple[str, ...]      # the tasks that use it
    params: tuple[str, ...]     # parameter declarations


@dataclass(frozen=True)
class Row:
    kernel: str
    queue: int
    first: int
    count: int
    global_size: int
    local_size: int
    step: int
    partials: int | None        # index into partials[], for a reduction


def kernels(text: str) -> dict[str, Kernel]:
    found = {}
    for m in _KERNEL.finditer(text):
        paths = tuple(p for p in re.split(r"[\s,*]+", m.group(2)) if p)
        params = tuple(p.strip() for p in m.group(4).split(","))
        found[m.group(3)] = Kernel(m.group(1), paths, params)
    return found


def kernel_of_task(text: str) -> dict[str, str]:
    return {path: name for name, kernel in kernels(text).items() for path in kernel.paths}


def rows(host: str) -> list[Row]:
    return [Row(m.group(1), *map(int, m.group(2, 3, 4, 5, 6, 7)),
                None if m.group(8) is None else int(m.group(8)))
            for m in _ROW.finditer(host)]


def step_paths(host: str) -> dict[int, str]:
    return {int(m.group(1)): m.group(2) for m in _STEP.finditer(host)}


def device_spaces(model, maps) -> dict[str, str]:
    """The address space of each port node allocated to device memory."""
    ctx = model.context
    spaces = {}
    for mm in maps:
        if ctx.memory_role_of(mm.owner_path) is not MemoryRole.HOST_RAM:
            for alloc in mm.data_allocations:
                for node in alloc.associated_parts:
                    spaces.setdefault(node, alloc.space_address.value)
    return spaces


def signature(model, maps, task_path: str) -> tuple:
    """What a task's kernel depends on: its intrinsic and each port's name,
    element type and device address space (None for host memory)."""
    comp = model.context.component_at(ComponentKind.APPLICATION, task_path)
    spaces = device_spaces(model, maps)
    return comp.elementary_op, tuple((p.name, p.data_type, spaces.get(f"{task_path}.{p.name}"))
                                     for p in comp.ports)
