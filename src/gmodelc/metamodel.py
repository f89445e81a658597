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
import hashlib
import types
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple


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
# allocations, which the host program holds, are tagged as global space.
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


class Placement(NamedTuple):
    """A port group's row of the placement table: the memory its first data link
    names, its role, the ports linked to it and each other (port, memory) link."""
    memory: str
    role: MemoryRole | None
    linked: tuple[str, ...]
    strays: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Model:
    platform_components: Mapping[str, Component]
    application_components: Mapping[str, Component]
    platform_root: str
    application_root: str
    allocations: tuple[AllocationLink, ...] = ()

    def __post_init__(self):
        # read-only copies, so that no edit can outdate the cached context
        for name in ("platform_components", "application_components"):
            object.__setattr__(self, name, types.MappingProxyType(dict(getattr(self, name))))

    # Like Component's name indexes, kept outside the dataclass fields.
    @functools.cached_property
    def context(self) -> CompileContext:
        """What the compile stages derive from this model, shared by all of them."""
        return CompileContext(self)

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


def _part_index(model: Model, kind: ComponentKind) -> dict[str, tuple]:
    """Every dotted part path below the root of one side, in pre-order, by
    one walk: path -> (part, its component or None).  component_at,
    element_at and iter_instances all read it.

    A path resolves as a walk segment by segment would: each segment names
    a part, and a duplicated name keeps its first declaration.  The walk
    does not enter a component already on the path, so it ends on a type
    cycle, which conformance rejects.
    """
    index: dict[str, tuple] = {}
    root_name = model.platform_root if kind is ComponentKind.PLATFORM else model.application_root
    root = model.root(kind)
    # the open path: (its dotted prefix, its components, its parts left)
    stack = [("", frozenset({root_name}), iter(root.parts))] if root is not None else []
    while stack:
        prefix, above, parts = stack[-1]
        part = next(parts, None)
        if part is None:
            stack.pop()
        elif (path := prefix + part.name) not in index:
            sub = model.component(kind, part.type_ref)
            index[path] = (part, sub)
            if sub is not None and sub.parts and part.type_ref not in above:
                stack.append((path + ".", above | {part.type_ref}, iter(sub.parts)))
    return index


class CompileContext:
    """What a compile derives from one Model, each part computed on first
    use: per side, the _part_index of instance paths; each component's
    resolved connector endpoints; the port groups and their placement
    table; each allocated leaf task's Deployment (intrinsic, side and
    port passing), and each leaf type's checked intrinsic signature; the
    digest; and codegen.lower's last Program, with the memory maps and
    schedule it was lowered from.

    Each Model owns one, as `Model.context`, which every stage takes.  It
    stays valid because a Model cannot be edited: its component tables are
    read-only, and dataclasses.replace makes a new Model with its own.  It
    refers back to its model weakly, so that a model and its context are
    freed by reference counting once the model is dropped.
    """

    def __init__(self, model: Model):
        self._model = weakref.ref(model)
        self._parts: dict[ComponentKind, dict[str, tuple]] = {}
        # id(component) -> (component, its endpoints(), kept to pin the id)
        self._endpoints: dict[int, tuple] = {}
        self._host_side: dict[str, bool] = {}       # processor path -> is_host_processor
        # by task path: intrinsics.deployed_intrinsic's records
        self.deployments: dict[str, object] = {}
        # by component name: the IntrinsicSpec of each leaf type whose
        # signature intrinsics.check_task_signature accepted
        self.signatures: dict[str, object] = {}
        # codegen.lower's last (schedule, maps, Program)
        self.program: tuple | None = None

    @property
    def model(self) -> Model:
        return self._model()

    def _index(self, kind: ComponentKind) -> dict[str, tuple]:
        index = self._parts.get(kind)
        if index is None:
            index = self._parts[kind] = _part_index(self.model, kind)
        return index

    def component_at(self, kind: ComponentKind, path: str) -> Component | None:
        """The component instantiated by the part at a dotted path of one side,
        or None when the path does not name a part of a declared type."""
        entry = self._index(kind).get(path)
        return entry[1] if entry is not None else None

    def element_at(self, kind: ComponentKind, path: str):
        """The PartInstance or FlowPort at a dotted path of one side, or None.
        A part shadows a port of the same name."""
        entry = self._index(kind).get(path)
        if entry is not None:
            return entry[0]
        owner, dot, name = path.rpartition(".")
        comp = self.component_at(kind, owner) if dot else self.model.root(kind)
        return comp.port(name) if comp is not None else None

    def is_host_processor(self, target_path: str) -> bool:
        """A processor part is host-side when a sibling memory has the hostRam
        role, as no compute unit's has; decided once per path."""
        if target_path not in self._host_side:
            owner_path = target_path.rpartition(".")[0]
            owner = self.component_at(ComponentKind.PLATFORM, owner_path) if owner_path \
                else self.model.root(ComponentKind.PLATFORM)
            self._host_side[target_path] = any(
                self.memory_role_of(f"{owner_path}.{part.name}" if owner_path else part.name)
                is MemoryRole.HOST_RAM for part in (owner.parts if owner is not None else ()))
        return self._host_side[target_path]

    def memory_role_of(self, target_path: str) -> MemoryRole | None:
        comp = self.component_at(ComponentKind.PLATFORM, target_path)
        return comp.stereotype.memory_role if comp and comp.stereotype else None

    def endpoints(self, comp: Component) -> tuple:
        """(connector, source, target) for each connector of a component of
        the model, each end resolved once per component by
        _effective_endpoint: (port, is the component's own port) or None."""
        entry = self._endpoints.get(id(comp))
        if entry is None:
            model = self.model
            entry = self._endpoints[id(comp)] = (comp, tuple(
                (conn, _effective_endpoint(model, comp, conn.source),
                 _effective_endpoint(model, comp, conn.target))
                for conn in comp.connectors))
        return entry[1]

    @functools.cached_property
    def port_groups(self) -> dict[str, frozenset[str]]:
        return connected_port_groups(self.model)

    @functools.cached_property
    def placements(self) -> dict[frozenset[str], Placement]:
        """The placement table, which the placement rules, the memory maps
        and codegen read: each port group with a data allocation -> its
        Placement, in order of the group's first data link."""
        rows: dict[frozenset[str], tuple[str, list, list]] = {}
        for link in self.model.allocations:
            if link.kind is AllocKind.DATA:
                memory, linked, strays = rows.setdefault(
                    self.port_groups[link.source_path], (link.target_path, [], []))
                if link.target_path == memory:
                    linked.append(link.source_path)
                else:
                    strays.append((link.source_path, link.target_path))
        return {group: Placement(memory, self.memory_role_of(memory), tuple(linked), tuple(strays))
                for group, (memory, linked, strays) in rows.items()}

    def home(self, node: str) -> MemoryRole | None:
        """The role of the memory a port node's group lives in, if it has one."""
        placement = self.placements.get(self.port_groups[node])
        return None if placement is None else placement.role

    @functools.cached_property
    def task_targets(self) -> dict[str, str]:
        """Leaf task path -> the processor it is allocated to; a later link wins."""
        return {link.source_path: link.target_path
                for link in self.model.allocations if link.kind is AllocKind.TASK}

    @functools.cached_property
    def digest(self) -> str:
        """The first 12 hex digits of the sha256 of the model's canonical text."""
        from .dsl import serialize_model        # dsl imports this module
        return hashlib.sha256(serialize_model(self.model).encode()).hexdigest()[:12]


def resolve_path(model: Model, path: str):
    """Resolve a dotted part/port path, trying the platform root then the application root.

    Returns the PartInstance or FlowPort at the path; raises PathNotFound
    (with the longest resolvable prefix) otherwise.
    """
    segments = [s for s in path.split(".") if s] if path else []
    if not segments or any(s != seg for s, seg in zip(path.split("."), segments)):
        raise PathNotFound(path, "")
    ctx = model.context
    best_prefix = 0
    for kind in (ComponentKind.PLATFORM, ComponentKind.APPLICATION):
        element = ctx.element_at(kind, ".".join(segments))
        if element is not None:
            return element
        # the longest proper prefix that names a part: a walk stops there
        n = len(segments) - 1
        while n > best_prefix and not isinstance(
                ctx.element_at(kind, ".".join(segments[:n])), PartInstance):
            n -= 1
        best_prefix = max(best_prefix, n)
    raise PathNotFound(path, ".".join(segments[:best_prefix]))


def iter_instances(model: Model, kind: ComponentKind):
    """Yield (instance_path, component) for the root ("" path) and then, in
    the pre-order of the context's index, every part of a declared type.
    It ends on a type cycle, as the index does."""
    root = model.root(kind)
    if root is None:
        return
    yield "", root
    for path, (_, comp) in model.context._index(kind).items():
        if comp is not None:
            yield path, comp


def _port_node(instance_path: str, port_name: str) -> str:
    return f"{instance_path}.{port_name}" if instance_path else port_name


def connected_port_groups(model: Model) -> dict[str, frozenset[str]]:
    """Group application port nodes (instance-path-qualified) by connector reachability.

    Two ports in one group share storage, and each group is one frozenset
    object.  The result's order is the order of discovery: nodes in
    iter_instances order, each group's members in breadth-first order from
    its first node, so it does not depend on the string hash seed.  It
    walks iter_instances, so it ends on a type cycle; dangling connector
    endpoints are ignored.
    """
    ctx = model.context
    adjacent: dict[str, list[str]] = {}
    for inst_path, comp in iter_instances(model, ComponentKind.APPLICATION):
        for port in comp.ports:
            adjacent.setdefault(_port_node(inst_path, port.name), [])
        for conn, src, dst in ctx.endpoints(comp):
            if src is not None and dst is not None:
                source = _port_node(inst_path, conn.source)
                target = _port_node(inst_path, conn.target)
                adjacent.setdefault(source, []).append(target)
                adjacent.setdefault(target, []).append(source)
    groups: dict[str, frozenset[str]] = {}
    for node in adjacent:
        if node not in groups:
            found, members = {node}, [node]     # members grows as the search finds them
            for member in members:
                for other in adjacent[member]:
                    if other not in found:
                        found.add(other)
                        members.append(other)
            group = frozenset(found)
            for member in members:
                groups[member] = group
    return groups


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


def _type_graph_cycles(comps: Mapping[str, Component]) -> set[str]:
    """Names of components that participate in a part-instantiation cycle,
    by a depth-first walk that keeps its own stack: no depth of nesting
    meets Python's recursion limit."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in comps}
    in_cycle: set[str] = set()
    for name in comps:
        if color[name] != WHITE:
            continue
        color[name] = GRAY
        stack, todo = [name], [iter(comps[name].parts)]     # the gray path; its parts left
        while todo:
            part = next(todo[-1], None)
            if part is None:
                todo.pop()
                color[stack.pop()] = BLACK
            elif color.get(part.type_ref) == GRAY:
                in_cycle.update(stack[stack.index(part.type_ref):])
            elif color.get(part.type_ref) == WHITE:
                color[part.type_ref] = GRAY
                stack.append(part.type_ref)
                todo.append(iter(comps[part.type_ref].parts))
    return in_cycle


def validate_conformance(model: Model) -> list[Diagnostic]:
    """Check every structural rule of the metamodel over a parsed model.

    Returns a deterministic, (path, message)-sorted list of diagnostics;
    an empty list means the model conforms.  Never raises on any
    structurally parsed model, however broken its paths are.  Allocation
    paths resolve through the model's context on both sides, whose index
    ends on a type cycle: a cycle is reported once per member, and the
    paths through it still resolve.  A side whose root is not declared
    gets that one error: no path resolves on it, so its allocation ends
    and its never-instantiated components go unreported.
    """
    ctx = model.context
    diags: list[Diagnostic] = []
    sides = ((ComponentKind.PLATFORM, model.platform_components, model.platform_root),
             (ComponentKind.APPLICATION, model.application_components, model.application_root))

    rooted = {kind: root_name in comps for kind, comps, root_name in sides}
    for kind, comps, root_name in sides:
        side = kind.value
        if not rooted[kind]:
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
            for idx, (conn, src, dst) in enumerate(ctx.endpoints(comp)):
                cpath = f"{base}.connector[{idx}]"
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

        for name in sorted(_type_graph_cycles(comps)):
            diags.append(Diagnostic("error", f"{side}.{name}", "component participates in an instantiation cycle"))

        if rooted[kind]:
            referenced = {root_name}
            for comp in comps.values():
                for part in comp.parts:
                    referenced.add(part.type_ref)
            for name in comps:
                if name not in referenced:
                    diags.append(Diagnostic("warning", f"{side}.{name}",
                                            "component is never instantiated"))

    seen_data_allocs: set[tuple[str, str]] = set()
    for idx, link in enumerate(model.allocations):
        apath = f"allocation[{idx}]"
        source = ctx.element_at(ComponentKind.APPLICATION, link.source_path)
        target = ctx.element_at(ComponentKind.PLATFORM, link.target_path)
        target_comp = ctx.component_at(ComponentKind.PLATFORM, link.target_path)
        target_st = target_comp.stereotype if target_comp else None
        if source is None and rooted[ComponentKind.APPLICATION]:
            diags.append(Diagnostic("error", apath,
                                    f"allocation source '{link.source_path}' does not resolve"))
        if target is None and rooted[ComponentKind.PLATFORM]:
            diags.append(Diagnostic("error", apath,
                                    f"allocation target '{link.target_path}' does not resolve"))
        if target is not None and not isinstance(target, PartInstance):
            diags.append(Diagnostic("error", apath, "allocation target must be a part instance"))

        if link.kind is AllocKind.DATA:
            if source is not None and not isinstance(source, FlowPort):
                diags.append(Diagnostic("error", apath, "data allocation source must be a port"))
            if target is not None and (target_st is None or target_st.kind is not StereotypeKind.MEMORY):
                diags.append(Diagnostic("error", apath, "allocation target not a memory"))
            key = (link.source_path, link.target_path)
            if key in seen_data_allocs:
                diags.append(Diagnostic("error", apath,
                                        f"duplicate data allocation of '{link.source_path}' onto '{link.target_path}'"))
            seen_data_allocs.add(key)
        else:
            if source is not None:
                comp = ctx.component_at(ComponentKind.APPLICATION, link.source_path)
                if comp is None or not comp.is_leaf_task:
                    diags.append(Diagnostic("error", apath, "task allocation source must be a leaf task part"))
            if target is not None and (target_st is None or target_st.kind is not StereotypeKind.PROCESSOR):
                diags.append(Diagnostic("error", apath, "allocation target not a processor"))

    diags.sort(key=lambda d: (d.path, d.message))
    return diags
