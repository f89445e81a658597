"""Domain types for platform/application/allocation models and conformance checking.

A model describes a hardware platform (processors, memories, buses), an
application (a hierarchy of tasks with typed data ports), and allocation
links binding application data to memories and tasks to processors.  All
values are immutable after construction and safe to share between threads.
``Component.part`` and ``Component.port`` are name-indexed lookups (a dict
built once per component), so walking a dotted path costs one lookup per
segment whatever the number of siblings.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field


class Direction(str, enum.Enum):
    IN = "in"
    OUT = "out"
    INOUT = "inout"


class DataType(str, enum.Enum):
    FLOAT32 = "float32"
    FLOAT64 = "float64"
    INT32 = "int32"
    INT64 = "int64"

    @property
    def size_bytes(self) -> int:
        return 4 if self in (DataType.FLOAT32, DataType.INT32) else 8

    @property
    def is_float(self) -> bool:
        return self in (DataType.FLOAT32, DataType.FLOAT64)


class AddressSpace(str, enum.Enum):
    GLOBAL = "global"
    CONSTANT = "constant"
    LOCAL = "local"
    PRIVATE = "private"


class StereotypeKind(str, enum.Enum):
    PROCESSOR = "hwProcessor"
    MEMORY = "hwMemory"
    BUS = "hwBus"


class MemoryRole(str, enum.Enum):
    HOST_RAM = "hostRam"
    DEVICE_GLOBAL = "deviceGlobal"
    DEVICE_CONSTANT = "deviceConstant"
    DEVICE_LOCAL = "deviceLocal"
    DEVICE_PRIVATE = "devicePrivate"


# Each memory role admits exactly one address-space qualifier; hostRam
# allocations are host-side staging and are tagged as global space.
QUALIFIER_FOR_ROLE = {
    MemoryRole.HOST_RAM: AddressSpace.GLOBAL,
    MemoryRole.DEVICE_GLOBAL: AddressSpace.GLOBAL,
    MemoryRole.DEVICE_CONSTANT: AddressSpace.CONSTANT,
    MemoryRole.DEVICE_LOCAL: AddressSpace.LOCAL,
    MemoryRole.DEVICE_PRIVATE: AddressSpace.PRIVATE,
}


class ComponentKind(str, enum.Enum):
    PLATFORM = "platform"
    APPLICATION = "application"


class AllocKind(str, enum.Enum):
    DATA = "data"
    TASK = "task"


@dataclass(frozen=True)
class Shape:
    """Multidimensional multiplicity; dims are positive integers."""

    dims: tuple[int, ...]

    @property
    def total(self) -> int:
        t = 1
        for d in self.dims:
            t *= d
        return t

    def __str__(self) -> str:
        return "[" + ",".join(str(d) for d in self.dims) + "]"


@dataclass(frozen=True)
class FlowPort:
    name: str
    direction: Direction
    shape: Shape
    data_type: DataType


@dataclass(frozen=True)
class HwStereotype:
    kind: StereotypeKind
    memory_role: MemoryRole | None = None
    capacity_bytes: int | None = None
    frequency_mhz: int | None = None


@dataclass(frozen=True)
class PartInstance:
    name: str
    type_ref: str
    shaped: Shape | None = None


@dataclass(frozen=True)
class Connector:
    """Directed data link between two port endpoints within one component.

    Endpoints are either a port of the owning component (bare name) or a
    port of a direct part (``part.port``).
    """

    source: str
    target: str


@dataclass(frozen=True)
class UntilCondition:
    """Loop continue-condition: iterate while the named out-port exceeds the bound."""

    port: str
    tolerance: float


def _first_by_name(elements) -> dict:
    """Name -> element; a duplicated name keeps its first declaration."""
    index: dict = {}
    for element in elements:
        index.setdefault(element.name, element)
    return index


@dataclass(frozen=True)
class Component:
    name: str
    kind: ComponentKind
    ports: tuple[FlowPort, ...] = ()
    parts: tuple[PartInstance, ...] = ()
    connectors: tuple[Connector, ...] = ()
    stereotype: HwStereotype | None = None
    repetition_space: Shape | None = None
    elementary_op: str | None = None
    until: UntilCondition | None = None

    def port(self, name: str) -> FlowPort | None:
        return self._ports_by_name.get(name)

    def part(self, name: str) -> PartInstance | None:
        return self._parts_by_name.get(name)

    # Built on first lookup and kept in the instance __dict__, outside the
    # dataclass fields, so equality, hash, repr and replace() never see it.
    @functools.cached_property
    def _ports_by_name(self) -> dict[str, FlowPort]:
        return _first_by_name(self.ports)

    @functools.cached_property
    def _parts_by_name(self) -> dict[str, PartInstance]:
        return _first_by_name(self.parts)

    @property
    def is_leaf_task(self) -> bool:
        return self.elementary_op is not None


@dataclass(frozen=True)
class AllocationLink:
    kind: AllocKind
    source_path: str
    target_path: str


@dataclass(frozen=True)
class Model:
    platform_components: dict[str, Component]
    application_components: dict[str, Component]
    platform_root: str
    application_root: str
    allocations: tuple[AllocationLink, ...] = ()

    def component(self, kind: ComponentKind, name: str) -> Component | None:
        comps = (self.platform_components if kind is ComponentKind.PLATFORM
                 else self.application_components)
        return comps.get(name)

    def root(self, kind: ComponentKind) -> Component | None:
        name = self.platform_root if kind is ComponentKind.PLATFORM else self.application_root
        return self.component(kind, name)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.path}: {self.message}"


class PathNotFound(LookupError):
    """A dotted path did not resolve; carries the longest resolvable prefix."""

    def __init__(self, path: str, prefix: str):
        super().__init__(f"path {path!r} not found (resolved prefix: {prefix!r})")
        self.path = path
        self.prefix = prefix


def _walk_path(model: Model, kind: ComponentKind, segments: list[str]):
    """Resolve segments against the root of one side.

    Returns (element, resolved_count).  element is a PartInstance or
    FlowPort when resolved_count == len(segments), else None.
    """
    comp = model.root(kind)
    if comp is None or not segments:
        return None, 0
    resolved = 0
    for i, seg in enumerate(segments):
        last = i == len(segments) - 1
        part = comp.part(seg)
        if part is not None:
            resolved += 1
            if last:
                return part, resolved
            comp = model.component(kind, part.type_ref)
            if comp is None:
                return None, resolved
            continue
        if last:
            port = comp.port(seg)
            if port is not None:
                return port, resolved + 1
        return None, resolved
    return None, resolved


def resolve_path(model: Model, path: str):
    """Resolve a dotted part/port path, trying the platform root then the application root.

    Returns the PartInstance or FlowPort at the path; raises PathNotFound
    (with the longest resolvable prefix) otherwise.
    """
    segments = [s for s in path.split(".") if s] if path else []
    if not segments or any(s != seg for s, seg in zip(path.split("."), segments)):
        raise PathNotFound(path, "")
    best_prefix = 0
    for kind in (ComponentKind.PLATFORM, ComponentKind.APPLICATION):
        element, n = _walk_path(model, kind, segments)
        if element is not None:
            return element
        best_prefix = max(best_prefix, n)
    raise PathNotFound(path, ".".join(segments[:best_prefix]))


def resolve_side_path(model: Model, kind: ComponentKind, path: str):
    """Resolve a path against one side only; returns element or None."""
    segments = path.split(".") if path else []
    if not segments or any(not s for s in segments):
        return None
    element, n = _walk_path(model, kind, segments)
    return element if n == len(segments) else None


def component_at(model: Model, kind: ComponentKind, path: str) -> Component | None:
    """The component instantiated by the part at a dotted path of one side,
    or None when the path does not name a part of a declared type."""
    element = resolve_side_path(model, kind, path)
    return model.component(kind, element.type_ref) if isinstance(element, PartInstance) else None


def iter_instances(model: Model, kind: ComponentKind):
    """Yield (instance_path, component) for the root ("" path) and every nested part.

    Stops descending on dangling type refs; assumes an acyclic type graph.
    """
    root = model.root(kind)
    if root is None:
        return
    stack = [("", root)]
    while stack:
        path, comp = stack.pop()
        yield path, comp
        for part in reversed(comp.parts):
            sub = model.component(kind, part.type_ref)
            if sub is not None:
                child = f"{path}.{part.name}" if path else part.name
                stack.append((child, sub))


def _port_node(instance_path: str, port_name: str) -> str:
    return f"{instance_path}.{port_name}" if instance_path else port_name


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def add(self, x: str):
        self.parent.setdefault(x, x)

    def find(self, x: str) -> str:
        self.add(x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def connected_port_groups(model: Model) -> dict[str, frozenset[str]]:
    """Group application port nodes (instance-path-qualified) by connector reachability.

    Two ports in one group share storage.  Requires a resolvable, acyclic
    application model; dangling connector endpoints are ignored.
    """
    uf = _UnionFind()
    nodes: list[str] = []
    for inst_path, comp in iter_instances(model, ComponentKind.APPLICATION):
        for port in comp.ports:
            node = _port_node(inst_path, port.name)
            uf.add(node)
            nodes.append(node)
        for conn in comp.connectors:
            if _effective_endpoint(model, comp, conn.source) is not None \
                    and _effective_endpoint(model, comp, conn.target) is not None:
                uf.union(_port_node(inst_path, conn.source), _port_node(inst_path, conn.target))
    groups: dict[str, set[str]] = {}
    for node in nodes:
        groups.setdefault(uf.find(node), set()).add(node)
    result: dict[str, frozenset[str]] = {}
    for members in groups.values():
        frozen = frozenset(members)
        for node in members:
            result[node] = frozen
    return result


def port_at(model: Model, kind: ComponentKind, node: str) -> FlowPort | None:
    """The FlowPort at an instance-path-qualified node, or None."""
    element = resolve_side_path(model, kind, node)
    return element if isinstance(element, FlowPort) else None


def is_host_processor(model: Model, target_path: str) -> bool:
    """A processor part is host-side when a sibling memory has the hostRam role.

    Device processors (compute units) sit next to device-global/constant
    memories instead.
    """
    owner_path = target_path.rpartition(".")[0]
    owner = component_at(model, ComponentKind.PLATFORM, owner_path) if owner_path \
        else model.root(ComponentKind.PLATFORM)
    if owner is None:
        return False
    for sibling in owner.parts:
        sub = model.component(ComponentKind.PLATFORM, sibling.type_ref)
        st = sub.stereotype if sub else None
        if st and st.kind is StereotypeKind.MEMORY and st.memory_role is MemoryRole.HOST_RAM:
            return True
    return False


def memory_role_of(model: Model, target_path: str) -> MemoryRole | None:
    comp = component_at(model, ComponentKind.PLATFORM, target_path)
    if comp is None or comp.stereotype is None:
        return None
    return comp.stereotype.memory_role


def _check_shape(diags: list[Diagnostic], path: str, shape: Shape, what: str):
    if not shape.dims:
        diags.append(Diagnostic("error", path, f"{what} must have at least one dimension"))
    for d in shape.dims:
        if d < 1:
            diags.append(Diagnostic("error", path, f"{what} dimension must be >= 1, got {d}"))


def _effective_endpoint(model: Model, comp: Component, endpoint: str):
    """Resolve a connector endpoint to (port, is_own_port) or None."""
    segs = endpoint.split(".")
    if len(segs) == 1:
        port = comp.port(segs[0])
        return (port, True) if port is not None else None
    if len(segs) == 2:
        part = comp.part(segs[0])
        if part is None:
            return None
        sub = model.component(comp.kind, part.type_ref)
        if sub is None:
            return None
        port = sub.port(segs[1])
        return (port, False) if port is not None else None
    return None


def _type_graph_cycles(comps: dict[str, Component]) -> set[str]:
    """Names of components that participate in a part-instantiation cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in comps}
    in_cycle: set[str] = set()

    def visit(name: str, stack: list[str]):
        color[name] = GRAY
        stack.append(name)
        for part in comps[name].parts:
            ref = part.type_ref
            if ref not in comps:
                continue
            if color[ref] == GRAY:
                idx = stack.index(ref)
                in_cycle.update(stack[idx:])
            elif color[ref] == WHITE:
                visit(ref, stack)
        stack.pop()
        color[name] = BLACK

    for name in comps:
        if color[name] == WHITE:
            visit(name, [])
    return in_cycle


def validate_conformance(model: Model) -> list[Diagnostic]:
    """Check every structural rule of the metamodel over a parsed model.

    Returns a deterministic, (path, message)-sorted list of diagnostics;
    an empty list means the model conforms.  Never raises on any
    structurally parsed model, however broken its paths are.
    """
    diags: list[Diagnostic] = []
    sides = ((ComponentKind.PLATFORM, model.platform_components, model.platform_root),
             (ComponentKind.APPLICATION, model.application_components, model.application_root))

    for kind, comps, root_name in sides:
        side = kind.value
        if root_name not in comps:
            diags.append(Diagnostic("error", side, f"root component '{root_name}' is not declared"))
        for comp in comps.values():
            base = f"{side}.{comp.name}"
            if comp.kind is not kind:
                diags.append(Diagnostic("error", base, "component kind does not match its section"))
            st = comp.stereotype
            if st is not None:
                if (st.memory_role is not None) != (st.kind is StereotypeKind.MEMORY):
                    diags.append(Diagnostic("error", base,
                                            "memory role is required exactly for hwMemory stereotypes"))
                if st.capacity_bytes is not None:
                    if st.kind is not StereotypeKind.MEMORY:
                        diags.append(Diagnostic("error", base, "capacity is only valid for hwMemory"))
                    elif st.capacity_bytes < 1:
                        diags.append(Diagnostic("error", base, "capacity must be positive"))
                if st.frequency_mhz is not None:
                    if st.kind is not StereotypeKind.PROCESSOR:
                        diags.append(Diagnostic("error", base, "frequency is only valid for hwProcessor"))
                    elif st.frequency_mhz < 1:
                        diags.append(Diagnostic("error", base, "frequency must be positive"))

            seen_ports: set[str] = set()
            for port in comp.ports:
                ppath = f"{base}.{port.name}"
                if port.name in seen_ports:
                    diags.append(Diagnostic("error", ppath, f"duplicate port name '{port.name}'"))
                seen_ports.add(port.name)
                _check_shape(diags, ppath, port.shape, "port shape")

            seen_parts: set[str] = set()
            for part in comp.parts:
                ppath = f"{base}.{part.name}"
                if part.name in seen_parts:
                    diags.append(Diagnostic("error", ppath, f"duplicate part name '{part.name}'"))
                seen_parts.add(part.name)
                if part.name in seen_ports:
                    diags.append(Diagnostic("error", ppath,
                                            f"name '{part.name}' is used by both a part and a port"))
                if part.shaped is not None:
                    _check_shape(diags, ppath, part.shaped, "part shape")
                target = comps.get(part.type_ref)
                if target is None:
                    diags.append(Diagnostic("error", ppath,
                                            f"part type '{part.type_ref}' is not a declared {side} component"))

            if comp.elementary_op is not None and comp.parts:
                diags.append(Diagnostic("error", base, "leaf task with a deployed operation cannot contain parts"))

            if comp.repetition_space is not None:
                _check_shape(diags, f"{base}", comp.repetition_space, "repetition space")
                if comp.parts and comp.until is None:
                    diags.append(Diagnostic("error", base,
                                            "repetition on a structured task requires an until condition"))

            if comp.until is not None:
                if not comp.parts:
                    diags.append(Diagnostic("error", base, "until condition requires a structured task"))
                if comp.repetition_space is None:
                    diags.append(Diagnostic("error", base,
                                            "until condition requires a repetition space (iteration bound)"))
                if not (0.0 < comp.until.tolerance < 1.0):
                    diags.append(Diagnostic("error", base, "until tolerance must be in (0, 1)"))
                until_port = comp.port(comp.until.port)
                if until_port is None or until_port.direction is not Direction.OUT:
                    diags.append(Diagnostic("error", base,
                                            f"until port '{comp.until.port}' is not an out port of the task"))

            incoming: dict[str, int] = {}
            for idx, conn in enumerate(comp.connectors):
                cpath = f"{base}.connector[{idx}]"
                src = _effective_endpoint(model, comp, conn.source)
                dst = _effective_endpoint(model, comp, conn.target)
                if src is None or dst is None:
                    which = conn.source if src is None else conn.target
                    diags.append(Diagnostic("error", cpath,
                                            f"connector endpoint '{which}' does not resolve"))
                    continue
                sport, s_own = src
                dport, d_own = dst
                src_is_source = (sport.direction in (Direction.IN, Direction.INOUT)) if s_own \
                    else (sport.direction in (Direction.OUT, Direction.INOUT))
                dst_is_sink = (dport.direction in (Direction.OUT, Direction.INOUT)) if d_own \
                    else (dport.direction in (Direction.IN, Direction.INOUT))
                if not src_is_source or not dst_is_sink:
                    diags.append(Diagnostic("error", cpath,
                                            f"connector direction mismatch: '{conn.source}' -> '{conn.target}'"))
                if sport.shape != dport.shape or sport.data_type != dport.data_type:
                    diags.append(Diagnostic(
                        "error", cpath,
                        f"connector type mismatch: {sport.data_type.value}{sport.shape} vs "
                        f"{dport.data_type.value}{dport.shape}"))
                incoming[conn.target] = incoming.get(conn.target, 0) + 1
            for target, count in incoming.items():
                if count > 1:
                    diags.append(Diagnostic("error", f"{base}.{target}",
                                            f"port has {count} feeding connectors (at most one allowed)"))

        cyclic = _type_graph_cycles(comps)
        for name in sorted(cyclic):
            diags.append(Diagnostic("error", f"{side}.{name}", "component participates in an instantiation cycle"))

        referenced = {root_name}
        for comp in comps.values():
            for part in comp.parts:
                referenced.add(part.type_ref)
        for name in comps:
            if name not in referenced:
                diags.append(Diagnostic("warning", f"{side}.{name}", "component is never instantiated"))

    plat_ok = (model.platform_root in model.platform_components
               and not _type_graph_cycles(model.platform_components))
    app_ok = (model.application_root in model.application_components
              and not _type_graph_cycles(model.application_components))

    seen_data_allocs: set[tuple[str, str]] = set()
    device_tasks: list[str] = []
    for idx, link in enumerate(model.allocations):
        apath = f"allocation[{idx}]"
        source = resolve_side_path(model, ComponentKind.APPLICATION, link.source_path) if app_ok else None
        target = resolve_side_path(model, ComponentKind.PLATFORM, link.target_path) if plat_ok else None
        if source is None:
            diags.append(Diagnostic("error", apath,
                                    f"allocation source '{link.source_path}' does not resolve"))
        if target is None:
            diags.append(Diagnostic("error", apath,
                                    f"allocation target '{link.target_path}' does not resolve"))
        target_st = None
        if isinstance(target, PartInstance):
            target_comp = model.component(ComponentKind.PLATFORM, target.type_ref)
            target_st = target_comp.stereotype if target_comp else None
        elif target is not None:
            diags.append(Diagnostic("error", apath, "allocation target must be a part instance"))

        if link.kind is AllocKind.DATA:
            if source is not None and not isinstance(source, FlowPort):
                diags.append(Diagnostic("error", apath, "data allocation source must be a port"))
                source = None
            if target is not None and (target_st is None or target_st.kind is not StereotypeKind.MEMORY):
                diags.append(Diagnostic("error", apath, "allocation target not a memory"))
            key = (link.source_path, link.target_path)
            if key in seen_data_allocs:
                diags.append(Diagnostic("error", apath,
                                        f"duplicate data allocation of '{link.source_path}' onto '{link.target_path}'"))
            seen_data_allocs.add(key)
            role = target_st.memory_role if target_st else None
            if isinstance(source, FlowPort) and role is MemoryRole.DEVICE_CONSTANT \
                    and source.direction is not Direction.IN:
                diags.append(Diagnostic("error", apath,
                                        "constant-space allocation requires an input (read-only) port"))
        else:
            if source is not None:
                comp = None
                if isinstance(source, PartInstance):
                    comp = model.component(ComponentKind.APPLICATION, source.type_ref)
                if comp is None or not comp.is_leaf_task:
                    diags.append(Diagnostic("error", apath, "task allocation source must be a leaf task part"))
                elif target_st is not None:
                    device_tasks.append(link.source_path)
            if target is not None and (target_st is None or target_st.kind is not StereotypeKind.PROCESSOR):
                diags.append(Diagnostic("error", apath, "allocation target not a processor"))

    if plat_ok and app_ok:
        groups = connected_port_groups(model)
        allocated_nodes = {link.source_path for link in model.allocations if link.kind is AllocKind.DATA}
        host_alloc_nodes = {
            link.source_path for link in model.allocations
            if link.kind is AllocKind.DATA and memory_role_of(model, link.target_path) is MemoryRole.HOST_RAM
        }
        task_targets = {link.source_path: link.target_path
                        for link in model.allocations if link.kind is AllocKind.TASK}
        for task_path in device_tasks:
            target = task_targets[task_path]
            if is_host_processor(model, target):
                continue
            comp = component_at(model, ComponentKind.APPLICATION, task_path)
            if comp is None:
                continue
            for port in comp.ports:
                node = _port_node(task_path, port.name)
                group = groups.get(node, frozenset({node}))
                if port.direction in (Direction.IN, Direction.INOUT) \
                        and not (group & allocated_nodes):
                    diags.append(Diagnostic("error", node,
                                            "input port of a device task has no data allocation "
                                            "(directly or via connected ports)"))
                if port.shape.total > 1 and group & host_alloc_nodes:
                    diags.append(Diagnostic("error", node,
                                            "host-memory allocation for a device task port must be scalar"))

    diags.sort(key=lambda d: (d.path, d.message))
    return diags
