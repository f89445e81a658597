"""Work partitioning across devices and schedule construction.

Repetition spaces are linearized row-major and split into contiguous,
near-equal chunks, one per logical device; earlier devices take the
remainder.  The schedule orders tasks by connector dataflow with a
deterministic declaration-order tie-break; tasks reading a value precede
the task that updates it in place.  A structured task with an `until`
condition is a loop: one LoopStep whose body holds the device steps and
host ops of every leaf task beneath it.  Loops do not nest: a loop inside
a loop, or on the application root, which runs once, raises NestedLoop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .metamodel import (CompileContext, Component, ComponentKind, Direction, Model,
                        StereotypeKind)


class MissingGeometry(ValueError):
    pass


class CyclicTaskGraph(ValueError):
    pass


class NestedLoop(ValueError):
    pass


class UnallocatedTask(ValueError):
    def __init__(self, task_path: str):
        super().__init__(f"leaf task '{task_path}' has no task allocation")
        self.task_path = task_path


@dataclass(frozen=True)
class WorkRange:
    offset: int
    count: int


@dataclass(frozen=True)
class KernelLaunch:
    device_index: int
    range: WorkRange
    global_size: int
    local_size: int


@dataclass(frozen=True)
class HostOp:
    task_path: str
    op: str


@dataclass(frozen=True)
class DeviceStep:
    task_path: str
    op: str
    launches: tuple[KernelLaunch, ...]

    @property
    def total_work(self) -> int:
        return sum(launch.range.count for launch in self.launches)


@dataclass(frozen=True)
class LoopStep:
    task_path: str
    body: tuple
    tolerance: float
    max_iterations: int
    relres_port: str


@dataclass(frozen=True)
class Schedule:
    steps: tuple
    device_count: int       # the devices its launches were partitioned over

    def device_steps(self) -> list[DeviceStep]:
        """All DeviceSteps in schedule order, descending into loops."""
        return self._leaves(DeviceStep)

    def host_ops(self) -> list[HostOp]:
        """All HostOps in schedule order, descending into loops."""
        return self._leaves(HostOp)

    def _leaves(self, kind: type) -> list:
        return [leaf for step in self.steps
                for leaf in (step.body if isinstance(step, LoopStep) else (step,))
                if isinstance(leaf, kind)]


def partition_equally(total_work: int, device_count: int) -> list[WorkRange]:
    """Split [0, total_work) into contiguous chunks whose sizes differ by at most one.

    The first total_work % device_count chunks take the extra item; with
    more devices than work only the first total_work devices get a range.
    """
    if total_work < 1 or device_count < 1:
        raise ValueError("total_work and device_count must be positive")
    used = min(device_count, total_work)
    base, extra = divmod(total_work, used)
    ranges: list[WorkRange] = []
    offset = 0
    for i in range(used):
        count = base + (1 if i < extra else 0)
        ranges.append(WorkRange(offset, count))
        offset += count
    return ranges


def _pe_local_size(ctx: CompileContext, device_path: str) -> int:
    """Work-group size: the processing-element multiplicity inside one compute unit."""
    comp = ctx.component_at(ComponentKind.PLATFORM, device_path)
    for sub_part in comp.parts if comp is not None else ():
        sub = ctx.model.component(ComponentKind.PLATFORM, sub_part.type_ref)
        if sub is not None and sub.stereotype is not None \
                and sub.stereotype.kind is StereotypeKind.PROCESSOR:
            return sub_part.shaped.total if sub_part.shaped is not None else 1
    raise MissingGeometry(
        "no processing-element instance found inside the device processor")


def _launches(ranges: list[WorkRange], local: int) -> tuple[KernelLaunch, ...]:
    return tuple(KernelLaunch(device_index=i, range=rng, local_size=local,
                              global_size=(rng.count + local - 1) // local * local)
                 for i, rng in enumerate(ranges))


def _order_parts(model: Model, comp: Component, path_prefix: str) -> list:
    """Topologically order a component's parts by connector dataflow.

    Adds write-after-read edges: parts reading a value through in ports
    run before the part consuming the same value through an inout port.
    """
    index = {part.name: i for i, part in enumerate(comp.parts)}
    edges: dict[int, set[int]] = {i: set() for i in index.values()}

    def part_of(endpoint: str, own: bool) -> str | None:
        return None if own else endpoint.partition(".")[0]

    # source endpoint -> (part, port) of each connector's part-side target
    by_source: dict[str, list[tuple[str, object]]] = {}
    for conn, src, dst in model.context.endpoints(comp):
        if src is None or dst is None:
            continue
        src_part = part_of(conn.source, src[1])
        dst_part = part_of(conn.target, dst[1])
        if src_part is not None and dst_part is not None and src_part != dst_part:
            edges[index[dst_part]].add(index[src_part])
        if dst_part is not None:
            by_source.setdefault(conn.source, []).append((dst_part, dst[0]))

    for targets in by_source.values():
        readers = [p for p, port in targets if port.direction is Direction.IN]
        writers = sorted((p for p, port in targets if port.direction is Direction.INOUT),
                         key=lambda p: index[p])
        if writers:
            for reader in readers:
                if reader != writers[0]:
                    edges[index[writers[0]]].add(index[reader])
            for earlier, later in zip(writers, writers[1:]):
                edges[index[later]].add(index[earlier])

    # Kahn's algorithm; the heap pops the lowest ready index first, which is
    # the declaration-order tie-break
    waiting = {i: len(deps) for i, deps in edges.items()}
    dependents: dict[int, list[int]] = {i: [] for i in edges}
    for i, deps in edges.items():
        for dep in deps:
            dependents[dep].append(i)
    ready = [i for i, count in waiting.items() if count == 0]
    heapq.heapify(ready)
    order: list = []
    while ready:
        i = heapq.heappop(ready)
        order.append(comp.parts[i])
        del waiting[i]
        for later in dependents[i]:
            waiting[later] -= 1
            if waiting[later] == 0:
                heapq.heappush(ready, later)
    if waiting:
        stuck = sorted(comp.parts[i].name for i in waiting)
        where = path_prefix or "<root>"
        raise CyclicTaskGraph(
            f"connector cycle among tasks of '{where}': {', '.join(stuck)}")
    return order


def build_schedule(model: Model, device_count: int) -> Schedule:
    """Derive the execution schedule for a conformant model on device_count devices."""
    if device_count < 1:
        raise ValueError("device_count must be positive")
    ctx = model.context
    # allocation target -> work-group size of its processor, None on the host
    local_sizes: dict[str, int | None] = {}
    # (repetition total, work-group size) -> its launches, shared by every
    # task of that geometry: they are frozen
    launches_of: dict[tuple[int, int], tuple[KernelLaunch, ...]] = {}

    def local_size(target: str) -> int | None:
        if target not in local_sizes:
            local_sizes[target] = (None if ctx.is_host_processor(target)
                                   else _pe_local_size(ctx, target))
        return local_sizes[target]

    # the structured tasks being scheduled, as (parts left, path, component,
    # the list its steps go to, the path of the loop it is in or None): no
    # depth of nesting meets the recursion limit
    steps: list = []
    root = model.root(ComponentKind.APPLICATION)
    if root.until is not None:
        raise NestedLoop(f"loop '{model.application_root}' is the application root, "
                         "but only its parts may loop")
    frames = [(iter(_order_parts(model, root, "")), "", root, steps, None)]
    while frames:
        parts, prefix, comp, out, loop = frames[-1]
        part = next(parts, None)
        if part is None:
            frames.pop()
            if comp.until is not None:      # the root has none: rejected above
                frames[-1][3].append(LoopStep(task_path=prefix, body=tuple(out),
                                              tolerance=comp.until.tolerance,
                                              max_iterations=comp.repetition_space.total,
                                              relres_port=f"{prefix}.{comp.until.port}"))
            continue
        sub = model.component(ComponentKind.APPLICATION, part.type_ref)
        path = f"{prefix}.{part.name}" if prefix else part.name
        if not sub.is_leaf_task:
            if sub.until is None:
                frames.append((iter(_order_parts(model, sub, path)), path, sub, out, loop))
                continue
            if loop is not None:
                raise NestedLoop(f"loop '{path}' is nested in loop '{loop}', "
                                 "but loops do not nest")
            frames.append((iter(_order_parts(model, sub, path)), path, sub, [], path))
            continue
        target = ctx.task_targets.get(path)
        if target is None:
            raise UnallocatedTask(path)
        local = local_size(target)
        if local is None:
            out.append(HostOp(task_path=path, op=sub.elementary_op))
        else:
            total = sub.repetition_space.total if sub.repetition_space else 1
            key = (total, local)
            if key not in launches_of:
                launches_of[key] = _launches(partition_equally(total, device_count), local)
            out.append(DeviceStep(task_path=path, op=sub.elementary_op,
                                  launches=launches_of[key]))
    return Schedule(steps=tuple(steps), device_count=device_count)
