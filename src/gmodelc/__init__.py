"""gmodelc: model-driven OpenCL code generation with a numeric reference executor.

Pipeline: parse a .gmodel platform/application description, validate it
against the metamodel, pack memory maps, partition repetitive tasks over
devices, emit OpenCL kernel/host sources, and validate the numeric
behaviour with a CPU schedule interpreter running conjugate gradient.
"""

from importlib import resources

from .codegen import GeneratedUnit, generate_host, generate_kernels
from .dsl import ParseError, ParseFailure, SourceSpan, parse_model, serialize_model
from .memmap import (CapacityExceeded, DataAllocate, MemoryMap, build_memory_maps,
                     emit_memory_map_report)
from .metamodel import (AddressSpace, AllocKind, AllocationLink, CompileContext, Component,
                        ComponentKind, Connector, DataType, Diagnostic, Direction, FlowPort,
                        HwStereotype, MemoryRole, Model, PartInstance, PathNotFound, Shape,
                        StereotypeKind, UntilCondition, resolve_path, validate_conformance)
from .partition import (CyclicTaskGraph, DeviceStep, HostOp, KernelLaunch, LoopStep,
                        MissingGeometry, Schedule, UnallocatedTask, WorkRange,
                        build_schedule, partition_equally)
from .refexec import (BreakdownDetected, CsrMatrix, DimensionMismatch, ExecutionResult,
                      IndexOutOfRange, MalformedHeader, MissingBinding, NonFiniteInput,
                      NonSquare, SolverConfig, execute_schedule, instantiate_for_matrix,
                      load_matrix_market, read_matrix_market, run_cg, solve, spmv_csr)

__version__ = "0.1.0"


def bundled_model_text(name: str = "cg") -> str:
    """Source text of a model shipped with the package (default: the CG study)."""
    return resources.files(__package__).joinpath(f"data/{name}.gmodel").read_text()
