"""What the structure tests expect of generated OpenCL, computed from the
model and its memory maps, not from the emitted text: a task's kernel
signature and each device-allocated port node's address space.  What was
generated is read from codegen.lower's Program."""

from gmodelc.metamodel import ComponentKind, MemoryRole


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

