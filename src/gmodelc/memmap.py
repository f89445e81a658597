"""Memory-mapping transformation: packs data allocations into per-memory maps.

For every memory of the model's placement table, builds an ordered map
of packed allocation records.  Connector-connected ports share one
record; bases are byte offsets from the start of the memory region,
assigned first-fit in link declaration order and rounded up to the
element type size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .metamodel import AddressSpace, ComponentKind, DataType, Model, QUALIFIER_FOR_ROLE, Shape


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

    One MemoryMap per memory of the placement table, ordered by first
    link appearance.  Within a map, each port group placed there gets a
    single DataAllocate named after its first linked port, its dots made
    underscores; bases pack upward from zero.  A name is an identifier of
    the generated code, so where two port groups would get one name, as
    `a_b.c` and `a.b_c` do, the later group's gets a suffix `_2` (`_3`,
    ...).  Raises CapacityExceeded when a memory with a declared capacity
    overflows.
    """
    ctx = model.context
    per_memory: dict[str, list] = {}       # memory -> its (group, linked ports) in link order
    for group, placement in ctx.placements.items():
        per_memory.setdefault(placement.memory, []).append((group, placement.linked))

    names: dict[str, frozenset[str]] = {}       # allocation name -> its port group

    def unique_name(port_path: str, group: frozenset[str]) -> str:
        base = name = port_path.replace(".", "_")
        n = 1
        while names.setdefault(name, group) != group:
            n += 1
            name = f"{base}_{n}"
        return name

    maps: list[MemoryMap] = []
    for owner, placed in per_memory.items():
        space = QUALIFIER_FOR_ROLE[ctx.memory_role_of(owner)]
        capacity = ctx.component_at(ComponentKind.PLATFORM, owner).stereotype.capacity_bytes
        cursor = 0
        allocs = []
        for group, linked in placed:
            port = ctx.element_at(ComponentKind.APPLICATION, linked[0])
            align = port.data_type.size_bytes
            base = _round_up(cursor, align)
            cursor = base + port.shape.total * align
            allocs.append(DataAllocate(
                name=unique_name(linked[0], group), space_address=space, base_address=base,
                dim_allocation=port.shape, type_allocation=port.data_type,
                associated_parts=linked + tuple(sorted(group - set(linked)))))
        if capacity is not None and cursor > capacity:
            raise CapacityExceeded(owner, cursor, capacity)
        maps.append(MemoryMap(owner_path=owner, capacity_bytes=capacity,
                              data_allocations=tuple(allocs)))
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
