"""StarPU substrate: sequential-task-flow runtime with simulated multicore.

The paper relies on StarPU to (a) infer the task DAG from data-access modes
declared at submission (the *sequential task flow* model) and (b) execute it
on a multicore machine under a scheduling policy (``ws``, ``lws``, ``prio``).

Real wall-clock task parallelism is unobservable here (single-core host,
Python GIL for small kernels), so this substrate splits the two concerns the
way DESIGN.md documents: task numerics run *for real* (sequentially, at
submission), each task's cost is measured (or modelled from flops), and a
discrete-event :mod:`simulator <repro.runtime.simulator>` then replays the
exact DAG on ``p`` virtual workers under the chosen scheduler and runtime
overheads.  A real thread-pool executor is provided for BLAS-heavy workloads
on genuinely multicore hosts.
"""

from .task import AccessMode, DataHandle, Task
from .dag import TaskGraph
from .expand import ExpansionRecord, NestedPolicy, NestedStats
from .stf import StfEngine
from .schedulers import (
    Scheduler,
    EagerScheduler,
    PrioScheduler,
    WorkStealingScheduler,
    LocalityWorkStealingScheduler,
    make_scheduler,
    SCHEDULER_NAMES,
)
from .simulator import RuntimeOverheadModel, SimulationResult, simulate
from .racecheck import (
    RaceCheckError,
    RaceChecker,
    RaceViolation,
    payload_fingerprint,
    validate_trace,
)
from .threaded import ThreadedExecutor
from .process import ProcessExecutor, TaskSpec
from .shmem import SharedTileArena, orphaned_segments
from .trace import ExecutionTrace, TraceEvent, render_gantt, export_chrome_trace
from .kinds import KindStyle, KIND_STYLES, kind_letter, kind_color, register_kind
from .bulksync import simulate_bulk_synchronous, depth_stages
from .distributed import (
    DistributedMachine,
    DistributedResult,
    block_cyclic_1d,
    block_cyclic_2d,
    greedy_balanced,
    simulate_distributed,
    tile_h_distribution,
)

__all__ = [
    "AccessMode",
    "DataHandle",
    "Task",
    "TaskGraph",
    "StfEngine",
    "NestedPolicy",
    "NestedStats",
    "ExpansionRecord",
    "Scheduler",
    "EagerScheduler",
    "PrioScheduler",
    "WorkStealingScheduler",
    "LocalityWorkStealingScheduler",
    "make_scheduler",
    "SCHEDULER_NAMES",
    "RuntimeOverheadModel",
    "SimulationResult",
    "simulate",
    "RaceCheckError",
    "RaceChecker",
    "RaceViolation",
    "payload_fingerprint",
    "validate_trace",
    "simulate_bulk_synchronous",
    "depth_stages",
    "ThreadedExecutor",
    "ProcessExecutor",
    "TaskSpec",
    "SharedTileArena",
    "orphaned_segments",
    "ExecutionTrace",
    "TraceEvent",
    "render_gantt",
    "export_chrome_trace",
    "KindStyle",
    "KIND_STYLES",
    "kind_letter",
    "kind_color",
    "register_kind",
    "DistributedMachine",
    "DistributedResult",
    "block_cyclic_1d",
    "block_cyclic_2d",
    "greedy_balanced",
    "simulate_distributed",
    "tile_h_distribution",
]
