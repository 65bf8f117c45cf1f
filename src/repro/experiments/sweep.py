"""Parallel multi-workload sweep runner with shared-memory CSR graphs.

Fig. 7-style sweeps run many (dataset, kernel, partition-count) workloads.
Each workload is independent, so the sweep fans out over worker processes —
but the edge arrays dominate the working set, and pickling them into every
worker would multiply memory by the worker count and serialize the very
arrays the paper's disaggregated pool is supposed to share.  Instead the
parent loads each dataset once, publishes its CSR arrays through
:mod:`multiprocessing.shared_memory`, and ships only tiny ``(name, shape,
dtype)`` descriptors to the workers, which attach zero-copy views.

Each task itself follows the execute-once discipline: the kernel is
recorded into one :class:`~repro.arch.trace.ExecutionTrace` and replayed
through both disaggregated simulators (fetch vs NDP offload), so a sweep
over W workloads runs exactly W numeric executions regardless of how many
architectures are accounted.

``run_sweep(tasks, jobs=1)`` with ``jobs <= 1`` executes the identical task
function in-process; the parallel path must produce bit-identical outcomes
(the tests assert it).  With ``jobs > 1`` the sweep runs on the one sweep
coordinator (:mod:`repro.experiments.remote`) bound to loopback, with
``jobs`` workers forked from this process — the same code, retries,
supervision and journal records as a sweep spread over many hosts.
"""

from __future__ import annotations

import hashlib
import json
import secrets
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from multiprocessing import shared_memory
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover — annotation only, avoids an import cycle
    from repro.api import PolicySpec

import numpy as np

from repro.arch.disaggregated import DisaggregatedSimulator
from repro.arch.disaggregated_ndp import DisaggregatedNDPSimulator
from repro.arch.trace import record_trace
from repro.errors import ExperimentError
from repro.experiments.common import DEFAULT_SEED, DEFAULT_TIER, ExperimentResult
from repro.experiments.fig7 import PANELS
from repro.experiments.journal import (
    SweepJournal,
    outcome_from_json,
    sweep_digest,
    task_digest,
)
from repro.experiments.scheduler import (
    LocalScheduler,
    SweepOptions,
    SweepScheduler,
)
from repro.faults.schedule import FaultSchedule, FaultSpec
from repro.graph.csr import CSRGraph
from repro.chaos import ChaosPlan, ChaosSpec
from repro.kernels.registry import get_kernel
from repro.obs.metrics import METRICS, M
from repro.obs.span import (
    CATEGORY_RUN,
    CATEGORY_TASK,
    Tracer,
    get_tracer,
    use_tracer,
)
from repro.runtime.config import SystemConfig
from repro.utils.backoff import BackoffPolicy
from repro.utils.tables import TextTable


# --------------------------------------------------------------------------- #
# Shared-memory CSR publication
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class _ArraySpec:
    """Descriptor for one array living in a shared-memory segment."""

    name: str
    shape: Tuple[int, ...]
    dtype: str

    def attach(self, shm: shared_memory.SharedMemory) -> np.ndarray:
        arr = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class SharedGraphSpec:
    """Everything a worker needs to reconstruct a CSR graph zero-copy.

    The spec is a few hundred bytes regardless of graph size — this is the
    only graph-shaped thing that crosses the process boundary.
    """

    indptr: _ArraySpec
    indices: _ArraySpec
    weights: Optional[_ArraySpec] = None

    @property
    def segment_names(self) -> Tuple[str, ...]:
        names = [self.indptr.name, self.indices.name]
        if self.weights is not None:
            names.append(self.weights.name)
        return tuple(names)

    def to_json(self) -> Dict[str, Any]:
        """The descriptor as a JSON object (it travels in task messages)."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "SharedGraphSpec":
        def array(field: Optional[Mapping[str, Any]]) -> Optional[_ArraySpec]:
            if field is None:
                return None
            return _ArraySpec(
                str(field["name"]), tuple(field["shape"]), str(field["dtype"])
            )

        return cls(
            array(data["indptr"]), array(data["indices"]), array(data.get("weights"))
        )


def _publish_array(arr: np.ndarray, name: str) -> Tuple[_ArraySpec, shared_memory.SharedMemory]:
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(name=name, create=True, size=max(arr.nbytes, 1))
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return _ArraySpec(shm.name, tuple(arr.shape), arr.dtype.str), shm


def share_graph(
    graph: CSRGraph, *, tag: Optional[str] = None
) -> Tuple[SharedGraphSpec, List[shared_memory.SharedMemory]]:
    """Copy a graph's CSR arrays into shared memory.

    Returns the descriptor plus the parent-side handles; the caller owns the
    handles and must ``close()`` and ``unlink()`` them once the sweep is done
    (:func:`run_sweep` does this in a ``finally``).  ``tag`` names the
    segments; the default random tag keeps concurrent sweeps (and sweeps
    after a crashed predecessor) from colliding on segment names, which the
    OS requires to be unique system-wide.  Names are kept short for macOS's
    31-character shm name limit.
    """
    base = f"rsw-{tag if tag is not None else secrets.token_hex(4)}"
    indptr_spec, indptr_shm = _publish_array(graph.indptr, f"{base}-p")
    indices_spec, indices_shm = _publish_array(graph.indices, f"{base}-e")
    segments = [indptr_shm, indices_shm]
    weights_spec = None
    if graph.weights is not None:
        weights_spec, weights_shm = _publish_array(graph.weights, f"{base}-w")
        segments.append(weights_shm)
    spec = SharedGraphSpec(indptr_spec, indices_spec, weights_spec)
    return spec, segments


def attach_shared_graph(
    spec: SharedGraphSpec,
) -> Tuple[CSRGraph, List[shared_memory.SharedMemory]]:
    """Attach to a published graph without copying the arrays.

    The returned segments must outlive the graph (the arrays are views into
    their buffers); callers keep both together.  The attach is unregistered
    from the resource tracker so a worker exiting does not unlink segments
    the parent still owns.
    """
    segments: List[shared_memory.SharedMemory] = []
    arrays = []
    for aspec in (spec.indptr, spec.indices, spec.weights):
        if aspec is None:
            arrays.append(None)
            continue
        shm = _attach_untracked(aspec.name)
        segments.append(shm)
        arrays.append(aspec.attach(shm))
    indptr, indices, weights = arrays
    # Pin the published index dtype so the attach stays zero-copy even when
    # it differs from what the constructor would auto-select.
    graph = CSRGraph(
        indptr, indices, weights, validate=False, index_dtype=indices.dtype
    )
    return graph, segments


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    ``SharedMemory(name=...)`` registers every attach with the resource
    tracker, which either unlinks the segment when the attaching worker
    exits (spawn: worker-private tracker) or races the parent's own
    unregister at unlink time (fork: shared tracker).  Workers only borrow
    the parent's segments, so the attach must not be tracked at all.
    Python 3.13 adds ``track=False`` for exactly this; earlier versions
    need the register call suppressed for the duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pre-3.13: no track parameter
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda _name, _rtype: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


# --------------------------------------------------------------------------- #
# Sweep tasks
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SweepTask:
    """One workload in a sweep: a Fig. 7 panel generalized."""

    dataset: str
    kernel: str
    partitions: int
    tier: str = DEFAULT_TIER
    seed: int = DEFAULT_SEED
    max_iterations: int = 30
    #: optional deterministic fault schedule injected into both replays
    #: (accounting only — the recorded numerics are untouched)
    fault_spec: Optional[FaultSpec] = None
    #: optional engine memory budget; over it, edge transients stream in
    #: blocks (bit-identical profiles/numerics, see the engine docs)
    memory_budget_bytes: Optional[int] = None
    #: optional offload policy for the disaggregated-NDP replay
    #: (:class:`repro.api.PolicySpec`; default keeps AlwaysOffload)
    policy: Optional["PolicySpec"] = None

    @property
    def label(self) -> str:
        base = f"{self.kernel}/{self.dataset}/p{self.partitions}"
        if self.policy is not None:
            base += f"/{self.policy.spell()}"
        return base

    @property
    def graph_key(self) -> Tuple[str, str, int]:
        """Tasks sharing this key can share one loaded (and shared) graph."""
        return (self.dataset, self.tier, self.seed)


@dataclass(frozen=True)
class SweepOutcome:
    """Per-task results; fields are plain so outcomes pickle cheaply."""

    task: SweepTask
    graph_name: str
    num_iterations: int
    fetch_bytes: Tuple[int, ...]
    offload_bytes: Tuple[int, ...]
    frontier: Tuple[int, ...]
    result_sha256: str
    cache_hits: int
    cache_misses: int
    #: recovery + checkpoint movement per deployment (0 when fault-free)
    fetch_recovery_bytes: int = 0
    offload_recovery_bytes: int = 0
    #: digest of both deployments' full movement breakdowns — lets the
    #: determinism tests compare entire ledgers across processes cheaply
    ledger_sha256: str = ""
    #: how many attempts the task took (>1 after worker-crash retries)
    attempts: int = 1
    #: failure description when the task exhausted its retries under
    #: ``keep_going`` (every measurement field is then zero/empty)
    error: Optional[str] = None
    #: the task was quarantined as a poison task: it killed a worker
    #: ``poison_threshold`` times, so the sweep set it aside (with
    #: this diagnostic outcome) instead of burning retries on it
    quarantined: bool = False
    #: serialized span batch (``Tracer.to_batch()``) recorded inside the
    #: task when span collection is on — plain dicts, so it survives the
    #: process boundary and the parent can ``adopt_batch`` it
    spans: Tuple = ()

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def total_fetch_bytes(self) -> int:
        return int(sum(self.fetch_bytes))

    @property
    def total_offload_bytes(self) -> int:
        return int(sum(self.offload_bytes))


def _execute_task(
    task: SweepTask,
    graph: CSRGraph,
    graph_name: str,
    *,
    collect_spans: bool = False,
) -> SweepOutcome:
    """Run one workload: record the trace once, replay both deployments.

    This exact function serves both the serial path and the workers, so
    ``jobs=1`` and ``jobs=N`` outcomes can only differ if the inputs do.
    With ``collect_spans`` the task runs under its own local tracer and the
    outcome carries the serialized span batch — the driver adopts it into
    the parent timeline, so serial and parallel sweeps produce the same
    span *structure* (the tests assert exactly that).
    """
    if collect_spans:
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span(
                "task",
                category=CATEGORY_TASK,
                label=task.label,
                dataset=task.dataset,
                kernel=task.kernel,
                partitions=task.partitions,
            ):
                outcome = _task_body(task, graph, graph_name)
        return replace(outcome, spans=tracer.to_batch())
    return _task_body(task, graph, graph_name)


def _task_body(task: SweepTask, graph: CSRGraph, graph_name: str) -> SweepOutcome:
    kernel = get_kernel(task.kernel)
    source = int(graph.out_degrees.argmax()) if kernel.needs_source else None
    config = SystemConfig(
        num_memory_nodes=task.partitions,
        memory_budget_bytes=task.memory_budget_bytes,
    )
    trace = record_trace(
        graph,
        kernel,
        num_parts=task.partitions,
        source=source,
        max_iterations=task.max_iterations,
        graph_name=graph_name,
        seed=task.seed,
        with_mirrors=False,
        memory_budget_bytes=task.memory_budget_bytes,
    )
    # One schedule built up front serves both replays — identical events.
    faults = (
        FaultSchedule.from_spec(task.fault_spec)
        if task.fault_spec is not None
        else None
    )
    fetch = DisaggregatedSimulator(config).replay(trace, faults=faults)
    ndp_cfg = config if config.enable_inc else config.with_options(enable_inc=True)
    ndp_kwargs = (
        {} if task.policy is None else {"policy": task.policy.instantiate()}
    )
    offload = DisaggregatedNDPSimulator(ndp_cfg, **ndp_kwargs).replay(
        trace, faults=faults
    )
    digest = hashlib.sha256(
        np.ascontiguousarray(fetch.result_property()).tobytes()
    ).hexdigest()
    ledger_digest = hashlib.sha256(
        json.dumps(
            {"fetch": fetch.ledger.breakdown(), "offload": offload.ledger.breakdown()},
            sort_keys=True,
        ).encode()
    ).hexdigest()
    return SweepOutcome(
        task=task,
        graph_name=graph_name,
        num_iterations=trace.num_iterations,
        fetch_bytes=tuple(int(b) for b in fetch.per_iteration_bytes()),
        offload_bytes=tuple(int(b) for b in offload.per_iteration_bytes()),
        frontier=tuple(int(f) for f in fetch.per_iteration_frontier()),
        result_sha256=digest,
        cache_hits=trace.cache_hits,
        cache_misses=trace.cache_misses,
        fetch_recovery_bytes=fetch.total_recovery_bytes,
        offload_recovery_bytes=offload.total_recovery_bytes,
        ledger_sha256=ledger_digest,
    )


def _failed_outcome(
    task: SweepTask,
    graph_name: str,
    error: str,
    attempts: int,
    *,
    quarantined: bool = False,
) -> SweepOutcome:
    """Placeholder outcome for a task that exhausted its retries."""
    return SweepOutcome(
        task=task,
        graph_name=graph_name,
        num_iterations=0,
        fetch_bytes=(),
        offload_bytes=(),
        frontier=(),
        result_sha256="",
        cache_hits=0,
        cache_misses=0,
        attempts=attempts,
        error=error,
        quarantined=quarantined,
    )


# Worker-side cache: spec -> (graph, segments).  One attach per (worker,
# graph) no matter how many tasks land on the worker.
_ATTACHED: Dict[Tuple[str, ...], Tuple[CSRGraph, List[shared_memory.SharedMemory]]] = {}


def _worker_execute(
    task: SweepTask,
    spec: SharedGraphSpec,
    graph_name: str,
    *,
    collect_spans: bool = False,
) -> SweepOutcome:
    """One task in a forked sweep worker, on a shared-memory graph."""
    key = spec.segment_names
    if key not in _ATTACHED:
        _ATTACHED[key] = attach_shared_graph(spec)
    graph, _segments = _ATTACHED[key]
    return _execute_task(task, graph, graph_name, collect_spans=collect_spans)


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #


def fig7_sweep_tasks(
    *, tier: str = DEFAULT_TIER, seed: int = DEFAULT_SEED
) -> List[SweepTask]:
    """The Fig. 7 panels, plus the remaining kernels on LiveJournal —
    enough workloads that the fan-out is worth its worker processes."""
    tasks = [
        SweepTask(p.dataset, p.kernel, p.partitions, tier, seed, p.max_iterations)
        for p in PANELS
    ]
    for kernel in ("pagerank", "bfs"):
        tasks.append(SweepTask("livejournal-sim", kernel, 32, tier, seed))
    return tasks


@contextmanager
def published_graphs(
    graphs: Mapping[Tuple[str, str, int], Tuple[CSRGraph, str]],
) -> Iterator[Dict[Tuple[str, str, int], Tuple[SharedGraphSpec, str]]]:
    """Publish every graph to shared memory for the body's duration.

    The segments are closed *and unlinked* on every exit path — normal
    return, task failure, worker crashes, KeyboardInterrupt — so a crashed
    sweep never leaves orphaned ``/dev/shm`` residue behind (the regression
    test kills a worker mid-sweep and asserts exactly this).
    """
    specs: Dict[Tuple[str, str, int], Tuple[SharedGraphSpec, str]] = {}
    segments: List[shared_memory.SharedMemory] = []
    try:
        for key, (graph, name) in graphs.items():
            spec, segs = share_graph(graph)
            specs[key] = (spec, name)
            segments.extend(segs)
        yield specs
    finally:
        for shm in segments:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _merged_chaos(
    crash_plan: Optional[Mapping[str, int]],
    chaos_plan: Optional[ChaosPlan],
) -> ChaosPlan:
    """Fold the legacy ``crash_plan`` counts into one consumable plan."""
    merged = ChaosPlan()
    for label, count in (crash_plan or {}).items():
        merged.actions.setdefault(label, []).extend(["crash"] * int(count))
    if chaos_plan is not None:
        for label, kinds in chaos_plan.actions.items():
            merged.actions.setdefault(label, []).extend(kinds)
    return merged


class _JournalSession:
    """Journal plumbing for one ``run_sweep`` call (no-op without a path).

    Owns open/resume/record/close so the runner body stays readable; every
    method is safe to call when journaling is off.
    """

    def __init__(
        self,
        journal_path: Optional[str],
        resume: bool,
        tasks: Sequence[SweepTask],
        *,
        jobs: int,
    ) -> None:
        self.journal: Optional[SweepJournal] = None
        self.resumed: Dict[int, SweepOutcome] = {}
        self.torn_records = 0
        if journal_path is None:
            if resume:
                raise ExperimentError(
                    "resume requires a journal path (pass journal_path=...)"
                )
            self._digests: List[str] = []
            return
        self._digests = [task_digest(task) for task in tasks]
        if resume:
            self.journal, recovery = SweepJournal.resume(journal_path, tasks)
            self.torn_records = recovery.torn_records
            for idx, record in recovery.completed.items():
                if 0 <= idx < len(tasks):
                    self.resumed[idx] = outcome_from_json(
                        record["outcome"], tasks[idx]
                    )
            if self.resumed:
                METRICS.counter(M.SWEEP_TASKS_RESUMED).inc(len(self.resumed))
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "journal-resume",
                    path=str(journal_path),
                    resumed=len(self.resumed),
                    in_flight=len(recovery.in_flight()),
                    torn_records=recovery.torn_records,
                )
        else:
            self.journal = SweepJournal.create(
                journal_path, tasks, meta={"jobs": jobs}
            )

    def start(self, idx: int, attempt: int) -> None:
        if self.journal is not None:
            self.journal.start(idx, self._digests[idx], attempt)

    def outcome(self, idx: int, status: str, outcome: SweepOutcome) -> None:
        if self.journal is not None:
            self.journal.outcome(idx, status, outcome)

    def interrupt(self, reason: str) -> None:
        if self.journal is not None:
            self.journal.interrupt(reason)

    def end(self, results: Mapping[int, SweepOutcome]) -> None:
        if self.journal is not None:
            ok = sum(1 for out in results.values() if out.ok)
            self.journal.end(ok=ok, failed=len(results) - ok)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    jobs: int = 1,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff_s: float = 0.25,
    backoff_cap_s: float = 8.0,
    keep_going: bool = False,
    crash_plan: Optional[Mapping[str, int]] = None,
    chaos_plan: Optional[ChaosPlan] = None,
    collect_spans: bool = False,
    journal_path: Optional[str] = None,
    resume: bool = False,
    poison_threshold: Optional[int] = None,
    heartbeat_timeout_s: float = 30.0,
    scheduler: Optional[SweepScheduler] = None,
) -> List[SweepOutcome]:
    """Run every task and return outcomes in task order.

    Execution placement is delegated to a :class:`SweepScheduler`; the
    default :class:`LocalScheduler` runs on this host as described below,
    and :class:`repro.experiments.remote.RemoteScheduler` fans the same
    tasks out to ``repro-worker`` processes over TCP through the same
    coordinator, with identical journal, retry, and quarantine semantics.

    ``jobs <= 1`` runs in-process.  Otherwise each distinct ``(dataset,
    tier, seed)`` graph is loaded once and published to shared memory, and
    the sweep coordinator serves the tasks over loopback to ``jobs``
    workers forked from this process; each task message carries the
    graph's shared-memory descriptor.  Workers send keepalives, and the
    coordinator watches them and the per-task wall clocks, so a *hung*
    worker (frozen, not crashed) is detected within
    ``heartbeat_timeout_s``, SIGKILLed, replaced, and its task
    rescheduled.

    Crashed workers (lost connections), stale keepalives, and per-task
    ``timeout`` expiries are retried up to ``retries`` times with
    exponential backoff (``backoff_s * 2**attempt``, capped at
    ``backoff_cap_s``); SIGINT/SIGTERM stop the sweep promptly.
    Deterministic in-task exceptions are not retried.  With
    ``keep_going`` a task that exhausts its retries becomes a placeholder
    outcome carrying ``error`` (the rest of the sweep completes); the
    default fail-fast mode raises ``ExperimentError``.  With
    ``poison_threshold=K`` a task that kills a worker K times is
    *quarantined* — recorded as a diagnostic outcome
    (``quarantined=True``) and set aside — instead of burning the whole
    retry budget or taking down the sweep.

    ``journal_path`` arms the write-ahead journal (see
    :mod:`repro.experiments.journal`); with ``resume=True`` tasks whose
    ``ok`` outcome is already journaled are skipped and their outcomes
    returned verbatim, so a killed sweep continues instead of restarting
    and the merged results are bit-identical to an uninterrupted run.

    ``crash_plan`` maps task labels to a number of injected worker crashes
    (legacy test hook); ``chaos_plan`` is its superset from
    :mod:`repro.chaos` (kill/hang/crash).  In serial mode any injected
    action raises instead, as there is no process to lose.

    With ``collect_spans`` each task records its own span batch (see
    :class:`SweepOutcome.spans`) regardless of the execution mode.
    """
    if not tasks:
        return []
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ExperimentError(f"timeout must be positive, got {timeout}")
    if poison_threshold is not None and poison_threshold < 1:
        raise ExperimentError(
            f"poison_threshold must be >= 1, got {poison_threshold}"
        )
    if heartbeat_timeout_s <= 0:
        raise ExperimentError(
            f"heartbeat_timeout_s must be positive, got {heartbeat_timeout_s}"
        )

    chaos = _merged_chaos(crash_plan, chaos_plan)
    session = _JournalSession(journal_path, resume, tasks, jobs=jobs)
    results: Dict[int, SweepOutcome] = dict(session.resumed)
    todo = [(idx, task) for idx, task in enumerate(tasks) if idx not in results]

    opts = SweepOptions(
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        backoff=BackoffPolicy(base_s=backoff_s, cap_s=backoff_cap_s),
        keep_going=keep_going,
        collect_spans=collect_spans,
        poison_threshold=poison_threshold,
        heartbeat_timeout_s=heartbeat_timeout_s,
    )
    try:
        if todo:
            active = scheduler if scheduler is not None else LocalScheduler()
            active.execute(todo, results, session, chaos, opts)
        session.end(results)
    finally:
        session.close()
    return [results[idx] for idx in range(len(tasks))]


def _run_serial(
    todo: Sequence[Tuple[int, SweepTask]],
    graphs: Mapping[Tuple[str, str, int], Tuple[CSRGraph, str]],
    results: Dict[int, SweepOutcome],
    session: _JournalSession,
    chaos: ChaosPlan,
    *,
    keep_going: bool,
    collect_spans: bool,
) -> None:
    """The in-process path; journal records bracket every task."""
    for idx, task in todo:
        graph, name = graphs[task.graph_key]
        session.start(idx, 1)
        try:
            action = chaos.take(task.label)
            if action is not None:
                raise ExperimentError(
                    f"injected {action} for {task.label} (serial mode)"
                )
            outcome = _execute_task(task, graph, name, collect_spans=collect_spans)
            results[idx] = outcome
            session.outcome(idx, "ok", outcome)
        except Exception as exc:
            failed = _failed_outcome(task, name, str(exc), 1)
            session.outcome(idx, "failed", failed)
            if not keep_going:
                raise
            results[idx] = failed


def _dry_run_result(tasks: Sequence[SweepTask], *, jobs: int) -> ExperimentResult:
    """Resolved task list plus content digests; nothing executes.

    The per-task digests are exactly what journal ``start`` records pin
    and ``sweep_digest`` is what :meth:`SweepJournal.resume` validates, so
    two dry runs diff cleanly when a resume refuses a changed task list.
    """
    digest = sweep_digest(tasks)
    table = TextTable(
        ["#", "workload", "tier", "seed", "task digest"],
        title=f"Sweep dry run — {len(tasks)} workloads, jobs={max(jobs, 1)}",
    )
    tasks_data: Dict[str, object] = {}
    for idx, task in enumerate(tasks):
        tdig = task_digest(task)
        table.add_row(idx, task.label, task.tier, task.seed, tdig[:12])
        tasks_data[task.label] = {
            "index": idx,
            "dataset": task.dataset,
            "kernel": task.kernel,
            "partitions": task.partitions,
            "tier": task.tier,
            "seed": task.seed,
            "task_digest": tdig,
        }
    result = ExperimentResult(
        experiment_id="sweep",
        title="Sweep dry run (no tasks executed)",
        tables=[table],
        data={"dry_run": True, "sweep_digest": digest, "tasks": tasks_data},
    )
    result.notes.append(
        f"sweep_digest {digest} — the content-addressed identity a "
        "--journal pins and a --resume validates.  No task was executed."
    )
    return result


def run(
    *,
    tier: str = DEFAULT_TIER,
    seed: int = DEFAULT_SEED,
    jobs: int = 1,
    tasks: Optional[Sequence[SweepTask]] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    keep_going: bool = False,
    memory_budget_bytes: Optional[int] = None,
    fault_seed: Optional[int] = None,
    journal_path: Optional[str] = None,
    resume: bool = False,
    poison_threshold: Optional[int] = None,
    heartbeat_timeout_s: float = 30.0,
    chaos_spec: Optional[ChaosSpec] = None,
    scheduler: Optional[SweepScheduler] = None,
    dry_run: bool = False,
    policy: Optional["PolicySpec"] = None,
) -> ExperimentResult:
    """Sweep experiment entry point (``repro-experiments sweep``).

    ``fault_seed`` injects the standard mixed-fault schedule (see
    :meth:`FaultSpec.standard`) into every workload.  When a tracer is
    active (``repro-experiments --trace-out``), each task records its own
    span batch — in-process or on a worker — and the batches are adopted
    into one parent ``sweep`` span, so the timeline is coherent across
    process boundaries.

    ``journal_path``/``resume`` arm the write-ahead journal
    (``--journal``/``--resume``; see :mod:`repro.experiments.journal`),
    ``poison_threshold`` the quarantine (``--quarantine-after``), and
    ``chaos_spec`` the process-level fault harness (``--chaos-seed`` et
    al.; see :mod:`repro.chaos`) — chaos victims are chosen over the
    final task labels, after every per-task override is applied.

    ``scheduler`` overrides execution placement (``--scheduler remote``
    builds a :class:`~repro.experiments.remote.RemoteScheduler`); the
    default is single-host.  ``dry_run`` prints the resolved task list
    plus the content-addressed ``sweep_digest`` and executes nothing —
    the digest is what a journal pins and what a resume validates, so
    diffing two dry runs explains any "different sweep" refusal.
    """
    chosen = list(tasks) if tasks is not None else fig7_sweep_tasks(tier=tier, seed=seed)
    if policy is not None:
        # --policy overrides the disaggregated-NDP offload policy per task.
        chosen = [replace(task, policy=policy) for task in chosen]
    if memory_budget_bytes is not None:
        chosen = [
            replace(task, memory_budget_bytes=memory_budget_bytes)
            for task in chosen
        ]
    if fault_seed is not None:
        chosen = [
            replace(
                task,
                fault_spec=FaultSpec.standard(
                    seed=fault_seed, num_parts=task.partitions
                ),
            )
            for task in chosen
        ]
    if dry_run:
        return _dry_run_result(chosen, jobs=jobs)
    chaos_plan = (
        chaos_spec.plan([task.label for task in chosen])
        if chaos_spec is not None and chaos_spec.total_victims
        else None
    )
    sweep_kwargs = dict(
        jobs=jobs,
        timeout=timeout,
        retries=retries,
        keep_going=keep_going,
        journal_path=journal_path,
        resume=resume,
        poison_threshold=poison_threshold,
        heartbeat_timeout_s=heartbeat_timeout_s,
        chaos_plan=chaos_plan,
        scheduler=scheduler,
    )
    tracer = get_tracer()
    if tracer.enabled:
        with tracer.span(
            "sweep",
            category=CATEGORY_RUN,
            workloads=len(chosen),
            jobs=max(jobs, 1),
            mode="sweep",
            journaled=journal_path is not None,
            resumed=bool(resume),
        ):
            outcomes = run_sweep(chosen, collect_spans=True, **sweep_kwargs)
            for out in outcomes:
                if out.spans:
                    tracer.adopt_batch(out.spans)
    else:
        outcomes = run_sweep(chosen, **sweep_kwargs)
    table = TextTable(
        [
            "workload",
            "iterations",
            "no NDP (KB)",
            "NDP (KB)",
            "cache hits",
            "result sha256",
        ],
        title=f"Fig. 7 sweep — {len(outcomes)} workloads, jobs={max(jobs, 1)}",
    )
    data: Dict[str, Dict[str, object]] = {}
    for out in outcomes:
        if not out.ok:
            status = "QUARANTINED" if out.quarantined else "FAILED"
            table.add_row(out.task.label, status, "-", "-", "-", out.error)
            data[out.task.label] = {
                "dataset": out.graph_name,
                "kernel": out.task.kernel,
                "partitions": out.task.partitions,
                "error": out.error,
                "attempts": out.attempts,
                "quarantined": out.quarantined,
            }
            continue
        table.add_row(
            out.task.label,
            out.num_iterations,
            out.total_fetch_bytes / 1e3,
            out.total_offload_bytes / 1e3,
            f"{out.cache_hits}/{out.cache_hits + out.cache_misses}",
            out.result_sha256[:12],
        )
        data[out.task.label] = {
            "dataset": out.graph_name,
            "kernel": out.task.kernel,
            "partitions": out.task.partitions,
            "fetch_bytes": list(out.fetch_bytes),
            "offload_bytes": list(out.offload_bytes),
            "frontier": list(out.frontier),
            "result_sha256": out.result_sha256,
            "ledger_sha256": out.ledger_sha256,
        }
        if out.fetch_recovery_bytes or out.offload_recovery_bytes:
            data[out.task.label]["fetch_recovery_bytes"] = out.fetch_recovery_bytes
            data[out.task.label]["offload_recovery_bytes"] = out.offload_recovery_bytes
    result = ExperimentResult(
        experiment_id="sweep",
        title="Parallel Fig. 7-style sweep (shared-memory CSR)",
        tables=[table],
        data=data,
    )
    result.notes.append(
        "Each workload executes its kernel numerics once and replays the "
        "trace through both disaggregated deployments; with --jobs N the "
        "workloads fan out over processes sharing the CSR arrays."
    )
    if journal_path is not None:
        result.notes.append(
            f"Write-ahead journal: {journal_path}"
            + (" (resumed)" if resume else "")
            + " — a killed sweep continues with --resume instead of "
            "restarting."
        )
    quarantined = [out.task.label for out in outcomes if out.quarantined]
    if quarantined:
        result.notes.append(
            "Quarantined poison tasks: " + ", ".join(quarantined)
        )
    return result
