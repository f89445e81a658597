"""Memory-mapping transformation: packs data allocations into per-memory maps.

For every memory instance targeted by data-allocation links, builds an
ordered map of packed allocation records.  Connector-connected ports
share one record; bases are byte offsets from the start of the memory
region, assigned first-fit in link declaration order and rounded up to
the element type size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metamodel import (AddressSpace, AllocKind, ComponentKind, DataType, Model,
                        QUALIFIER_FOR_ROLE, Shape, connected_port_groups,
                        memory_role_of, port_at, resolve_side_path)


class CapacityExceeded(ValueError):
    def __init__(self, owner_path: str, needed_bytes: int, capacity_bytes: int):
        super().__init__(f"memory '{owner_path}' needs {needed_bytes} bytes "
                         f"but has capacity {capacity_bytes}")
        self.owner_path = owner_path
        self.needed_bytes = needed_bytes
        self.capacity_bytes = capacity_bytes


@dataclass(frozen=True)
class DataAllocate:
    name: str
    space_address: AddressSpace
    base_address: int
    dim_allocation: Shape
    type_allocation: DataType
    associated_parts: tuple[str, ...]

    @property
    def size_bytes(self) -> int:
        return self.dim_allocation.total * self.type_allocation.size_bytes


@dataclass(frozen=True)
class MemoryMap:
    owner_path: str
    capacity_bytes: int | None
    data_allocations: tuple[DataAllocate, ...]

    @property
    def used_bytes(self) -> int:
        if not self.data_allocations:
            return 0
        last = self.data_allocations[-1]
        return last.base_address + last.size_bytes


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def build_memory_maps(model: Model) -> list[MemoryMap]:
    """Run the memory-mapping transformation over a conformant model.

    One MemoryMap per memory with data allocations, ordered by first
    link appearance.  Within a map, each connector-connected port group
    gets a single DataAllocate named after its first linked port; bases
    pack upward from zero.  Raises CapacityExceeded when a memory with a
    declared capacity overflows.
    """
    groups = connected_port_groups(model)

    memories: list[str] = []
    per_memory: dict[str, list[str]] = {}
    for link in model.allocations:
        if link.kind is not AllocKind.DATA:
            continue
        if link.target_path not in per_memory:
            per_memory[link.target_path] = []
            memories.append(link.target_path)
        per_memory[link.target_path].append(link.source_path)

    maps: list[MemoryMap] = []
    for owner in memories:
        role = memory_role_of(model, owner)
        space = QUALIFIER_FOR_ROLE[role]
        owner_part = resolve_side_path(model, ComponentKind.PLATFORM, owner)
        owner_comp = model.component(ComponentKind.PLATFORM, owner_part.type_ref)
        capacity = owner_comp.stereotype.capacity_bytes

        cursor = 0
        allocs: list[DataAllocate] = []
        group_index: dict[frozenset[str], int] = {}
        linked: dict[frozenset[str], list[str]] = {}
        for port_path in per_memory[owner]:
            group = groups.get(port_path, frozenset({port_path}))
            if group in group_index:
                linked[group].append(port_path)
                continue
            port = port_at(model, ComponentKind.APPLICATION, port_path)
            align = port.data_type.size_bytes
            base = _round_up(cursor, align)
            cursor = base + port.shape.total * align
            group_index[group] = len(allocs)
            linked[group] = [port_path]
            allocs.append(DataAllocate(
                name=port_path.replace(".", "_"),
                space_address=space,
                base_address=base,
                dim_allocation=port.shape,
                type_allocation=port.data_type,
                associated_parts=(),
            ))
        if capacity is not None and cursor > capacity:
            raise CapacityExceeded(owner, cursor, capacity)

        finished = []
        for group, idx in group_index.items():
            explicit = linked[group]
            rest = sorted(set(group) - set(explicit))
            alloc = allocs[idx]
            finished.append((idx, DataAllocate(
                name=alloc.name, space_address=alloc.space_address,
                base_address=alloc.base_address, dim_allocation=alloc.dim_allocation,
                type_allocation=alloc.type_allocation,
                associated_parts=tuple(explicit + rest))))
        finished.sort(key=lambda pair: pair[0])
        maps.append(MemoryMap(owner_path=owner, capacity_bytes=capacity,
                              data_allocations=tuple(a for _, a in finished)))
    return maps


def emit_memory_map_report(maps: list[MemoryMap]) -> str:
    """Deterministic line-oriented report of the packed memory maps."""
    lines: list[str] = []
    for mm in maps:
        cap = str(mm.capacity_bytes) if mm.capacity_bytes is not None else "-"
        lines.append(f"map {mm.owner_path} used={mm.used_bytes} capacity={cap}")
        for alloc in mm.data_allocations:
            parts = ",".join(alloc.associated_parts)
            lines.append(f"  {alloc.name} space={alloc.space_address.value} "
                         f"base={alloc.base_address} dim={alloc.dim_allocation} "
                         f"type={alloc.type_allocation.value} size={alloc.size_bytes} "
                         f"parts={parts}")
    return "".join(line + "\n" for line in lines)
