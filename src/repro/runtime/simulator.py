"""Discrete-event multicore simulator (the paper's 36-core bora node, virtual).

Given a :class:`~repro.runtime.dag.TaskGraph` whose tasks carry costs
(measured seconds or modelled flops), :func:`simulate` replays it on ``p``
virtual workers under a :class:`~repro.runtime.schedulers.Scheduler` policy
and a :class:`RuntimeOverheadModel`.

The overhead model is the lever behind the paper's HMAT-vs-H-Chameleon
story: the pure H-matrix DAG has orders of magnitude more tasks and
dependencies, and "the cost of handling all fine grain dependencies becomes
too important with respect to the computational tasks" in the real-double
case.  ``per_task`` and ``per_dependency`` put numbers on exactly that
handling cost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .dag import TaskGraph
from .ready import ReadyFront, drive
from .schedulers import Scheduler, make_scheduler
from .trace import ExecutionTrace

__all__ = ["RuntimeOverheadModel", "SimulationResult", "simulate"]


@dataclass(frozen=True)
class RuntimeOverheadModel:
    """Per-task runtime costs added on top of kernel execution time.

    Attributes
    ----------
    per_task:
        Fixed scheduling/queueing cost per task (seconds).  StarPU measures
        around 1-2 microseconds per task in practice.
    per_dependency:
        Cost per inbound dependency the runtime must track and release.
    submission:
        Serial task-submission cost on the dedicated submission core: task
        ``i`` cannot start before ``i * submission`` (the paper keeps one of
        the 36 cores submitting, running 35 workers).
    serialized:
        When true, per-task/per-dependency handling consumes a *shared*
        serial runtime core (dependency tracking contends on shared runtime
        state) instead of each worker's own time.  This is the mechanism the
        paper blames for the fine-grained HMAT DAG losing the cheap-kernel
        cases: "the cost of handling all fine grain dependencies becomes too
        important with respect to the computational tasks" — with hundreds
        of thousands of edges the runtime core itself becomes the
        bottleneck, however many workers are present.
    """

    per_task: float = 2e-6
    per_dependency: float = 5e-7
    submission: float = 0.0
    serialized: bool = False

    def __post_init__(self) -> None:
        if self.per_task < 0 or self.per_dependency < 0 or self.submission < 0:
            raise ValueError("overheads must be non-negative")

    def task_overhead(self, n_deps: int) -> float:
        return self.per_task + self.per_dependency * n_deps

    @classmethod
    def zero(cls) -> "RuntimeOverheadModel":
        return cls(per_task=0.0, per_dependency=0.0, submission=0.0)


@dataclass
class SimulationResult:
    """Outcome of one virtual execution."""

    makespan: float
    nworkers: int
    scheduler: str
    total_work: float
    critical_path: float
    trace: ExecutionTrace = field(repr=False, default=None)

    @property
    def speedup_vs_serial(self) -> float:
        return self.total_work / self.makespan if self.makespan > 0 else 0.0

    @property
    def efficiency(self) -> float:
        return self.speedup_vs_serial / self.nworkers if self.nworkers else 0.0


def simulate(
    graph: TaskGraph,
    nworkers: int,
    scheduler: Scheduler | str = "prio",
    *,
    overheads: RuntimeOverheadModel | None = None,
    cost_attr: str = "seconds",
    cost_scale: float = 1.0,
    keep_trace: bool = True,
    worker_speeds: list | None = None,
    instrument=None,
) -> SimulationResult:
    """Replay ``graph`` on ``nworkers`` virtual workers.

    Parameters
    ----------
    scheduler:
        Policy object or name ("ws", "lws", "prio", "eager").
    overheads:
        Runtime overhead model; defaults to StarPU-like microsecond costs.
    cost_attr:
        "seconds" (measured) or "flops" (deterministic model).
    cost_scale:
        Multiplier applied to raw costs — with ``cost_attr="flops"`` use
        ``1/flops_per_second`` to land in seconds.
    worker_speeds:
        Optional per-worker speed factors (length ``nworkers``): a worker
        with speed 2.0 runs kernels twice as fast.  Models heterogeneous
        machines (StarPU's CPU+accelerator setups); default homogeneous.
    instrument:
        Optional :class:`~repro.obs.Instrumentation` probe; defaults to the
        ambient active probe.  Records virtual-time task spans, scheduler
        counters and the queue-depth series.
    """
    if nworkers < 1:
        raise ValueError(f"nworkers must be >= 1, got {nworkers}")
    if worker_speeds is not None:
        if len(worker_speeds) != nworkers:
            raise ValueError(
                f"worker_speeds has {len(worker_speeds)} entries for {nworkers} workers"
            )
        if any(s <= 0 for s in worker_speeds):
            raise ValueError("worker speeds must be positive")
    sched = make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    ovh = overheads if overheads is not None else RuntimeOverheadModel()
    trace = ExecutionTrace(nworkers=nworkers) if keep_trace else None

    def duration(task, worker: int) -> float:
        base = task.cost(cost_attr) * cost_scale
        if worker_speeds is not None:
            base /= worker_speeds[worker]
        if ovh.serialized:
            return base  # overhead was paid on the shared runtime core
        return base + ovh.task_overhead(task.n_deps)

    # Event heap holds (finish_time, seq, worker, task). `waiting` holds tasks
    # whose dependencies are met but whose submission release is in the future.
    running: list[tuple[float, int, int, object]] = []
    waiting: list[tuple[float, int, object, int | None]] = []
    seq = 0
    now = 0.0
    makespan = 0.0
    runtime_clock = 0.0  # shared runtime-core time (serialized overheads)

    def make_ready(task, worker_hint) -> None:
        nonlocal seq, runtime_clock
        rel = task.id * ovh.submission  # earliest start by submission
        if ovh.serialized:
            # The shared runtime core processes releases one at a time.
            rel = max(rel, now, runtime_clock) + ovh.task_overhead(task.n_deps)
            runtime_clock = rel
        if rel > now:
            heapq.heappush(waiting, (rel, seq, task, worker_hint))
            seq += 1
        else:
            sched.push(task, worker_hint)

    def dispatch(w: int) -> bool:
        nonlocal seq
        task = front.pop(w)
        if task is None:
            return False
        finish = now + duration(task, w)
        heapq.heappush(running, (finish, seq, w, task))
        seq += 1
        # Recorded at assignment: trace.events is in pull order.
        front.record(task, w, now, finish, now)
        return True

    def wait() -> list[int] | None:
        nonlocal now, makespan
        if not running and not waiting:
            return None
        # Advance virtual time to the next event (task finish or release).
        next_finish = running[0][0] if running else float("inf")
        next_release = waiting[0][0] if waiting else float("inf")
        now = min(next_finish, next_release)
        while waiting and waiting[0][0] <= now:
            _, _, task, hint = heapq.heappop(waiting)
            sched.push(task, hint)
        freed = []
        while running and running[0][0] <= now:
            _, _, w, task = heapq.heappop(running)
            makespan = max(makespan, now)
            freed.append(w)
            front.retire(task, w)
        return freed

    # The front seeds the sources on construction, through make_ready.
    with ReadyFront(graph, sched, nworkers, instrument, trace, push=make_ready) as front:
        drive(front, nworkers, dispatch, wait)

    total_work = graph.total_work(cost_attr) * cost_scale
    critical = graph.critical_path(cost_attr) * cost_scale
    return SimulationResult(
        makespan=makespan,
        nworkers=nworkers,
        scheduler=sched.name,
        total_work=total_work,
        critical_path=critical,
        trace=trace,
    )
