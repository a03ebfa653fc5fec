"""The campaign engine: the one place the injection-run loop lives.

:class:`CampaignEngine` owns the golden → profile → select → inject →
classify pipeline exactly once.  Every way of running injections —
fixed-N and adaptive transient campaigns, permanent and intermittent
runs, and the service scheduler's per-shard :meth:`CampaignEngine.run_batch`
— builds its tasks with ``_tasks`` and drains the executor's results
through ``_inject``, so serial, parallel, resumed and sharded campaigns
resume, classify, checkpoint and account identically.

Orthogonal knobs plug into the engine:

* an **executor** — :class:`SerialExecutor` runs injections in-process;
  :class:`ParallelExecutor` fans frozen, picklable work items out over
  forked worker processes, one task per worker at a time, carrying the
  *full* :class:`~repro.runner.sandbox.SandboxSpec` to every worker;
* an optional **store** — a :class:`~repro.core.store.CampaignStore`; each
  injection is persisted the moment it completes (not at campaign end), so
  a killed campaign — serial or parallel — resumes where it stopped;
* **hooks** — :class:`EngineHooks` receives per-phase timings and a
  per-injection progress callback carrying the running
  :class:`~repro.core.report.OutcomeTally`;
* a **tracer** — a :class:`repro.obs.Tracer`; every pipeline phase becomes
  a span, every sandboxed run a nested ``run`` span (parallel workers
  buffer theirs and ship them back with results, so the parent trace stays
  complete), and every classified injection a point event carrying its
  parameters, outcome and instruction count;
* a **metrics registry** — a :class:`repro.obs.MetricsRegistry` collecting
  phase seconds, outcome counters, per-run instruction histograms and the
  GPU simulator's cheap counters (instructions retired, warps launched,
  divergence-stack high-water).  :class:`EngineMetrics` remains as a thin
  compatibility view over the registry;
* a **retry policy** — a :class:`~repro.core.resilience.RetryPolicy`
  (``CampaignConfig.retry``); a task whose worker raises, dies or hangs is
  retried with deterministic backoff and, once attempts are exhausted,
  *quarantined* as a synthesized Table V DUE ("Monitor detection") instead
  of aborting the campaign — K misbehaving tasks out of N still produce N
  results, in every executor.

Prefer the stable facade in :mod:`repro.api` for programmatic use.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
import weakref
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Callable, Iterable, Iterator, Sequence

from repro.arch.families import arch_by_name
from repro.core.adaptive import (
    AdaptiveCheckpoint,
    AdaptiveState,
    SamplingPlan,
)
from repro.core.campaign import (
    CampaignConfig,
    PermanentCampaignResult,
    PermanentResult,
    TransientCampaignResult,
    TransientResult,
    _median,
)
from repro.core.injector import InjectionRecord, TransientInjectorTool
from repro.core.kinds import CampaignKind
from repro.core.outcomes import classify
from repro.core.params import IntermittentParams, PermanentParams, TransientParams
from repro.core.pf_injector import IntermittentInjectorTool, PermanentInjectorTool
from repro.core.profile_data import ProgramProfile
from repro.core.profiler import ProfilerTool, ProfilingMode
from repro.core.report import OutcomeTally
from repro.core.resilience import (
    CampaignInterrupted,
    RetryPolicy,
    TaskFailure,
    format_error,
    quarantine_outcome,
)
from repro.core.result_store import ResultStore
from repro.core.site_selection import (
    select_permanent_sites,
    select_stratified_sites,
    select_transient_sites,
    stratum_weights,
)
from repro.errors import ReproError
from repro.gpusim.replay import (
    ReplayCursor,
    ReplayRecorder,
    ReplayRef,
    save_replay_log,
)
from repro.obs import (
    INSTRUCTION_BUCKETS,
    LAUNCH_BUCKETS,
    NULL_TRACER,
    MemorySink,
    MetricsRegistry,
    Tracer,
)
from repro.runner.app import Application
from repro.runner.artifacts import RunArtifacts
from repro.runner.golden import capture_golden, hang_budget
from repro.runner.sandbox import SandboxConfig, SandboxSpec, run_app
from repro.sass.isa import opcode_by_id
from repro.utils.rng import SeedSequenceStream
from repro.workloads import WORKLOADS, get_workload

# -- work items (what crosses the process boundary) ---------------------------


from dataclasses import dataclass, field


@dataclass(frozen=True)
class InjectionTask:
    """One injection run, frozen and picklable.

    ``workload`` is a registry name so workers rebuild the application
    without pickling live device state; ``sandbox`` is the *complete*
    sandbox snapshot.  ``replay`` (when fast-forward is on) points at the
    campaign's golden replay log and the task's target launch; workers thaw
    it into a live cursor through a shared per-process cache.
    """

    index: int
    workload: str
    kind: str  # "transient" | "permanent" | "intermittent"
    params: TransientParams | PermanentParams | IntermittentParams
    sandbox: SandboxSpec
    replay: ReplayRef | None = None


@dataclass
class InjectionOutput:
    """What a worker hands back: raw artifacts, classified by the parent.

    ``events`` carries the worker's buffered trace events (run spans);
    the parent tracer adopts them via :meth:`repro.obs.Tracer.ingest`, so
    the campaign trace is complete even when runs execute in other
    processes.
    """

    index: int
    record: InjectionRecord | None
    activations: int
    artifacts: RunArtifacts
    events: list[dict] = field(default_factory=list)


def execute_task(
    task: InjectionTask, app: Application | None = None, tracer: Tracer | None = None
) -> InjectionOutput:
    """Run one injection (the worker body).

    Classification happens in the parent, which holds the golden run; the
    worker only reruns the app with the right injector attached, on a
    sandbox rebuilt from the task's full :class:`SandboxSpec`.  With no
    ``tracer`` (the cross-process case), run spans are buffered into the
    output's ``events`` for the parent to ingest; with a parent tracer
    (serial execution), spans go straight into the live trace.
    """
    buffer = None
    if tracer is None:
        buffer = MemorySink()
        tracer = Tracer(sink=buffer)
    if app is None:
        app = get_workload(task.workload)
    if task.kind == "transient":
        injector: TransientInjectorTool | PermanentInjectorTool = (
            TransientInjectorTool(task.params)
        )
    elif task.kind == "permanent":
        injector = PermanentInjectorTool(task.params)
    elif task.kind == "intermittent":
        injector = IntermittentInjectorTool(task.params)
    else:  # pragma: no cover
        raise ReproError(f"unknown injection kind {task.kind!r}")
    # Thaw the fast-forward reference (if any) into a live cursor.  The
    # underlying log is loaded once per process and shared read-only; an
    # unreadable log degrades to full simulation rather than failing the run.
    cursor = task.replay.cursor() if task.replay is not None else None
    artifacts = run_app(
        app,
        preload=[injector],
        config=task.sandbox.config(),
        tracer=tracer,
        replay=cursor,
    )
    return InjectionOutput(
        index=task.index,
        record=getattr(injector, "record", None),
        activations=getattr(injector, "activations", 0),
        artifacts=artifacts,
        events=buffer.events if buffer is not None else [],
    )


# -- executors ----------------------------------------------------------------

# What executors yield: a completed injection, or a task that exhausted its
# retry budget (the engine quarantines or raises, per the policy).
ExecutorItem = "InjectionOutput | TaskFailure"

# A retry notification: (failure so far, backoff seconds before the re-run).
OnRetry = Callable[[TaskFailure, float], None]


def _noop_retry(failure: TaskFailure, delay: float) -> None:
    return None


class SerialExecutor:
    """Runs injections one after another in the calling process.

    Failures follow the same retry/quarantine path as the parallel
    executor: a task that raises is re-attempted under the
    :class:`~repro.core.resilience.RetryPolicy` and yielded as a
    :class:`~repro.core.resilience.TaskFailure` once attempts are
    exhausted.  (``task_timeout`` cannot preempt an in-process run; the
    in-sim instruction budget is the hang detector here.)
    """

    def run(
        self,
        tasks: Sequence[InjectionTask],
        app: Application | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        on_retry: OnRetry | None = None,
    ) -> Iterator[InjectionOutput | TaskFailure]:
        policy = retry or RetryPolicy()
        notify = on_retry or _noop_retry
        for task in tasks:
            attempt = 0
            while True:
                attempt += 1
                try:
                    output = execute_task(task, app, tracer=tracer)
                except Exception as exc:
                    failure = TaskFailure(task.index, attempt, format_error(exc))
                    if policy.should_retry(attempt):
                        delay = policy.delay(attempt, key=task.index)
                        notify(failure, delay)
                        if delay:
                            time.sleep(delay)
                        continue
                    yield failure
                    break
                else:
                    yield output
                    break


# Workers are always forked, whatever the platform's default start method:
# they inherit the registered workloads (test-registered ones included) and
# the parent's warm module and replay-log caches.
_FORK = multiprocessing.get_context("fork")


def _worker_main(conn: Connection) -> None:
    """A worker's loop: run each task the parent sends, until it sends None.

    Replies ``(True, output)``, or ``(False, "Type: message")`` when the
    task raised.  SIGINT is ignored so that only the parent handles Ctrl-C;
    the parent then kills its workers.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    while True:
        try:
            task = conn.recv()
        except EOFError:  # the parent exited without stopping this worker
            return
        if task is None:
            return
        try:
            conn.send((True, execute_task(task)))
        except Exception as exc:  # raised, or the output does not pickle
            conn.send((False, format_error(exc)))


class _Worker:
    """One forked worker process, and the task it holds (``tid``), if any."""

    def __init__(self) -> None:
        self.conn, child = _FORK.Pipe()
        self.process = _FORK.Process(target=_worker_main, args=(child,), daemon=True)
        # Block SIGINT across the fork so a Ctrl-C cannot reach the child
        # before it starts ignoring the signal.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        child.close()
        self.tid: int | None = None
        self.deadline: float | None = None

    def stop(self) -> None:
        """Ask an idle worker to exit; kill a busy one.

        An idle worker must be told: closing the pipe is not enough,
        because workers forked later hold copies of its parent end.
        """
        if self.tid is None:
            try:
                self.conn.send(None)
            except OSError:  # it has already exited
                pass
        else:
            self.process.kill()
        self.process.join()
        self.conn.close()


class ParallelExecutor:
    """Fans injections out over up to ``max_workers`` forked processes.

    Each worker holds at most one task, sent over its own pipe, so results
    are yielded (and therefore persisted) injection by injection and every
    failure is charged to exactly the task that caused it.  Workers buffer
    their trace events and ship them back inside each
    :class:`InjectionOutput` (the ``tracer`` argument is parent-side only).

    Failure handling (the campaign-monitor role of the paper's scripts): a
    task that **raises** in its worker is charged an ``"exception"``; a
    worker that **dies** while holding a task charges it a
    ``"worker-death"``; a task still running past the policy's wall-clock
    deadline (``task_timeout`` seconds, counted from when its worker
    received it) is charged a ``"timeout"``.  A dead or overdue worker is
    killed and replaced; the others keep running.  A charged task is
    retried with deterministic backoff and yielded as a
    :class:`~repro.core.resilience.TaskFailure` once the
    :class:`~repro.core.resilience.RetryPolicy` is exhausted.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be greater than 0")
        self.max_workers = max_workers

    def run(
        self,
        tasks: Sequence[InjectionTask],
        app: Application | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        on_retry: OnRetry | None = None,
    ) -> Iterator[InjectionOutput | TaskFailure]:
        policy = retry or RetryPolicy()
        notify = on_retry or _noop_retry
        tasks = list(tasks)
        if not tasks:
            return
        unregistered = {t.workload for t in tasks if t.workload not in WORKLOADS}
        if unregistered:
            raise ReproError(
                "parallel execution needs registry workloads (workers rebuild "
                f"the app by name); unknown: {sorted(unregistered)}"
            )

        limit = self.max_workers or os.cpu_count() or 1
        queue: deque[int] = deque(range(len(tasks)))
        delayed: list[tuple[float, int]] = []  # (ready time, task) backoff retries
        failures = [0] * len(tasks)
        workers: list[_Worker] = []

        def dispatch(worker: _Worker) -> None:
            worker.tid = queue.popleft()
            worker.conn.send(tasks[worker.tid])
            if policy.task_timeout:
                worker.deadline = time.monotonic() + policy.task_timeout

        def charge(tid: int, reason: str, error: str) -> Iterator[TaskFailure]:
            """Count one failed attempt; schedule a retry or yield the failure."""
            failures[tid] += 1
            attempt = failures[tid]
            failure = TaskFailure(tasks[tid].index, attempt, error, reason)
            if policy.should_retry(attempt):
                delay = policy.delay(attempt, key=tasks[tid].index)
                notify(failure, delay)
                delayed.append((time.monotonic() + delay, tid))
            else:
                yield failure

        try:
            while queue or delayed or any(w.tid is not None for w in workers):
                now = time.monotonic()
                for entry in [entry for entry in delayed if entry[0] <= now]:
                    delayed.remove(entry)
                    queue.append(entry[1])
                for worker in workers:
                    if queue and worker.tid is None:
                        dispatch(worker)
                while queue and len(workers) < limit:
                    workers.append(_Worker())
                    dispatch(workers[-1])
                busy = [w for w in workers if w.tid is not None]
                wakeups = [w.deadline for w in busy if w.deadline is not None]
                wakeups += [ready for ready, _ in delayed]
                timeout = None
                if wakeups:
                    timeout = max(0.0, min(wakeups) - time.monotonic())
                # With nothing in flight this just sleeps out the backoff.
                ready = wait(
                    [w.conn for w in busy] + [w.process.sentinel for w in busy],
                    timeout,
                )
                now = time.monotonic()
                for worker in busy:
                    tid = worker.tid
                    died = worker.process.sentinel in ready
                    if worker.conn.poll():
                        try:
                            ok, payload = worker.conn.recv()
                        except EOFError:
                            died = True
                        else:
                            worker.tid = worker.deadline = None
                            if ok:
                                yield payload
                            else:
                                yield from charge(tid, "exception", payload)
                            continue
                    overdue = worker.deadline is not None and worker.deadline <= now
                    if not (died or overdue):
                        continue  # still running
                    worker.stop()
                    workers.remove(worker)
                    if died:
                        yield from charge(
                            tid,
                            "worker-death",
                            "worker process died before finishing "
                            f"(exit code {worker.process.exitcode})",
                        )
                    else:
                        yield from charge(
                            tid,
                            "timeout",
                            "worker exceeded the wall-clock deadline "
                            f"({policy.task_timeout}s per task)",
                        )
        finally:
            # Idle workers exit on request; busy ones (Ctrl-C, a closed
            # generator, an aborting campaign) are killed, never waited for.
            for worker in workers:
                worker.stop()


Executor = SerialExecutor | ParallelExecutor


# -- progress hooks and metrics -----------------------------------------------


class EngineHooks:
    """Progress callbacks; override any subset. Default methods do nothing."""

    def on_phase(self, phase: str, seconds: float) -> None:
        """A pipeline phase ("golden", "profile", "select", "inject") ended."""

    def on_injection(
        self,
        index: int,
        outcome,
        completed: int,
        total: int,
        tally: OutcomeTally,
    ) -> None:
        """One injection was classified (``tally`` = outcome counts so far)."""


class EngineMetrics:
    """Compatibility view over the engine's :class:`~repro.obs.MetricsRegistry`.

    Historically a standalone dataclass the engine mutated; the numbers now
    live in the shared metrics registry (``engine.*`` / ``campaign.*``
    names), and this shim keeps the old field API — reads and writes both —
    so existing callers and the observability layer see a single source of
    truth.
    """

    _DONE = "engine.injections.done"
    _LOADED = "engine.injections.loaded"
    _TOTAL = "engine.injections.total"
    _RETRIES = "engine.retries"
    _QUARANTINED = "engine.quarantined"
    _INJECT_SECONDS = "engine.inject.seconds"
    _PHASE_PREFIX = "engine.phase."
    _PHASE_SUFFIX = ".seconds"

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tally: OutcomeTally | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tally = tally if tally is not None else OutcomeTally()

    # -- field compatibility (reads and writes hit the registry) --------------

    @property
    def phase_seconds(self) -> dict[str, float]:
        values = self.registry.counter_values(self._PHASE_PREFIX)
        return {
            name[: -len(self._PHASE_SUFFIX)]: seconds
            for name, seconds in values.items()
            if name.endswith(self._PHASE_SUFFIX)
        }

    def add_phase_seconds(self, name: str, seconds: float) -> None:
        self.registry.counter(
            f"{self._PHASE_PREFIX}{name}{self._PHASE_SUFFIX}"
        ).inc(seconds)

    @property
    def injections_done(self) -> int:
        return int(self.registry.counter(self._DONE).value)

    @injections_done.setter
    def injections_done(self, value: int) -> None:
        self.registry.counter(self._DONE).value = float(value)

    @property
    def injections_loaded(self) -> int:
        return int(self.registry.counter(self._LOADED).value)

    @injections_loaded.setter
    def injections_loaded(self, value: int) -> None:
        self.registry.counter(self._LOADED).value = float(value)

    @property
    def injections_total(self) -> int:
        return int(self.registry.gauge(self._TOTAL).value)

    @injections_total.setter
    def injections_total(self, value: int) -> None:
        self.registry.gauge(self._TOTAL).set(value)

    @property
    def retries(self) -> int:
        """Failed attempts that were re-run under the retry policy."""
        return int(self.registry.counter(self._RETRIES).value)

    @property
    def quarantined(self) -> int:
        """Tasks that exhausted every attempt and became harness DUEs."""
        return int(self.registry.counter(self._QUARANTINED).value)

    @property
    def inject_seconds(self) -> float:
        return self.registry.gauge(self._INJECT_SECONDS).value

    @inject_seconds.setter
    def inject_seconds(self, value: float) -> None:
        self.registry.gauge(self._INJECT_SECONDS).set(value)

    # -- derived ---------------------------------------------------------------

    @property
    def injections_per_second(self) -> float:
        if self.inject_seconds <= 0:
            return 0.0
        return self.injections_done / self.inject_seconds

    def summary(self) -> str:
        phases = "  ".join(
            f"{name}={seconds:.2f}s" for name, seconds in self.phase_seconds.items()
        )
        resilience = ""
        if self.retries or self.quarantined:
            resilience = (
                f"  retries={self.retries} quarantined={self.quarantined}"
            )
        return (
            f"{phases}  "
            f"ran={self.injections_done}/{self.injections_total} "
            f"(resumed {self.injections_loaded})  "
            f"{self.injections_per_second:.1f} inj/s"
            f"{resilience}"
        )


def _stop_when(
    results: Iterable, stop: threading.Event
) -> Iterator:
    """Pass executor results through until ``stop`` is set.

    Checked before the first item and after each yielded one: a completed
    result is never dropped (it is already checkpointed downstream), but
    no further task starts once the signal fires.
    """
    if stop.is_set():
        return
    for item in results:
        yield item
        if stop.is_set():
            return


# -- the engine ---------------------------------------------------------------


class CampaignEngine:
    """Owns the golden → profile → select → inject → classify pipeline."""

    def __init__(
        self,
        app: Application | str,
        config: CampaignConfig | None = None,
        executor: Executor | None = None,
        store: ResultStore | None = None,
        hooks: EngineHooks | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.app = get_workload(app) if isinstance(app, str) else app
        self.config = config or CampaignConfig()
        self.executor = executor or SerialExecutor()
        self.store = store
        self.hooks = hooks or EngineHooks()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = EngineMetrics(registry=self.registry)
        self._stream = SeedSequenceStream(self.config.seed, path=self.app.name)
        self.golden: RunArtifacts | None = None
        self.profile: ProgramProfile | None = None
        # The cached fixed-N transient site plan (run_batch runs shards of
        # it; selection is deterministic, so caching it cannot perturb the
        # RNG stream).
        self._plan: list[TransientParams] | None = None
        self.golden_time = 0.0
        self.profile_time = 0.0
        # Golden-replay fast-forward state (config.fast_forward): the golden
        # run's replay log, held in-process for stop-launch lookups, and the
        # on-disk copy every worker loads lazily (once per process).
        self._replay_log = None  # repro.gpusim.replay.ReplayLog | None
        self._replay_path: str | None = None

    def _replay_cache(self):
        """The persistent cross-campaign replay cache, if configured.

        Only meaningful with fast-forward on: the cache stores replay
        tapes, and without a recorder there is nothing to cache.
        """
        if not self.config.fast_forward:
            return None
        from repro.core.snapshot import ReplayCache

        return ReplayCache.resolve(getattr(self.config, "replay_cache", None))

    # -- pipeline phases --------------------------------------------------------

    def run_golden(self) -> RunArtifacts:
        cache = self._replay_cache()
        if cache is not None and self._run_golden_cached(cache):
            return self.golden
        recorder = ReplayRecorder() if self.config.fast_forward else None
        with self.tracer.span("golden", workload=self.app.name) as span:
            if span is not None and cache is not None:
                span.attrs["replay_cache"] = "miss"
            self.golden = capture_golden(
                self.app, self._sandbox_config(), tracer=self.tracer,
                recorder=recorder,
            )
        self.golden_time = self.golden.wall_time
        self._record_run_metrics(self.golden)
        if self.store is not None:
            self.store.save_golden(self.golden)
        self._phase("golden", self.golden_time)
        if recorder is not None:
            self._save_replay_log(recorder, cache=cache)
        return self.golden

    def _run_golden_cached(self, cache) -> bool:
        """Service the golden run from the persistent replay cache.

        On a hit the host program still runs, but every launch replays
        from the cached tape — reference artifacts (reads come from
        restored memory) and device counters (recorded deltas) are
        identical to a simulated golden run at a fraction of the cost.  A
        missing, invalid (content hash) or stale (launch mismatch — the
        cursor disarms and the run simulates) entry counts a miss and
        falls back to the recording path.
        """
        log = cache.lookup(self.app.name, self._sandbox_config())
        if log is None:
            self.registry.counter("engine.cache.misses").inc()
            return False
        cursor = ReplayCursor(log, stop_launch=len(log), pre=True, tail=False)
        with self.tracer.span("golden", workload=self.app.name) as span:
            if span is not None:
                span.attrs["replay_cache"] = "hit"
            golden = capture_golden(
                self.app, self._sandbox_config(), tracer=self.tracer,
                replay=cursor,
            )
        if cursor.skipped != len(log):
            # The tape no longer describes this run (e.g. an edited
            # workload under an unchanged cache key); the artifacts are
            # still correct — the cursor degraded to simulation — but the
            # tape must be re-recorded, so treat the lookup as a miss.
            self.registry.counter("engine.cache.misses").inc()
            return False
        self.registry.counter("engine.cache.hits").inc()
        self.golden = golden
        self.golden_time = golden.wall_time
        self._record_run_metrics(golden)
        if self.store is not None:
            self.store.save_golden(golden)
        self._phase("golden", self.golden_time)
        self._replay_log = log
        self._replay_path = str(cache.path_for(self.app.name, self._sandbox_config()))
        return True

    def _save_replay_log(self, recorder: ReplayRecorder, cache=None) -> None:
        """Serialize the golden run's replay log where every worker can read it.

        With a persistent :class:`~repro.core.snapshot.ReplayCache`
        configured, the log lands in the cache (shared across campaigns —
        and across ``repro serve`` tenants when the cache dir is
        DB-adjacent).  Otherwise stored campaigns put it under the study
        directory (next to the golden artifacts) and store-less campaigns
        use a private temp directory cleaned up when the engine is
        collected.  A recorder that aborted (or taped nothing) simply
        leaves fast-forward off.
        """
        log = recorder.log()
        if log is None or not log.launches:
            return
        started = time.perf_counter()
        if self.store is not None:
            path = str(self.store.replay_path())
        else:
            tmpdir = tempfile.mkdtemp(prefix="repro-replay-")
            weakref.finalize(self, shutil.rmtree, tmpdir, ignore_errors=True)
            path = os.path.join(tmpdir, "replay.bin")
        with self.tracer.span(
            "replay",
            workload=self.app.name,
            launches=len(log.launches),
            pages=log.total_pages,
        ) as span:
            if cache is not None:
                path = str(
                    cache.store(self.app.name, self._sandbox_config(), log)
                )
                if span is not None:
                    span.attrs["replay_cache"] = "store"
            else:
                save_replay_log(log, path)
        self._replay_log = log
        self._replay_path = path
        self._phase("replay", time.perf_counter() - started)

    def _replay_ref_for(self, site) -> ReplayRef | None:
        """The fast-forward reference for one transient site (or None).

        ``stop_launch`` is the golden sequence number of the targeted
        launch: everything strictly before it replays (``pre``), the target
        simulates, and — with ``tail_fast_forward`` — the launches after it
        replay again once the run's memory re-converges with golden.  A
        site targeting the very first launch has no pre window but still
        carries a tail-only reference; sites absent from the log carry
        none.
        """
        if self._replay_log is None or self._replay_path is None:
            return None
        stop = self._replay_log.stop_launch_for(
            site.kernel_name, site.kernel_count
        )
        if stop is None:
            return None
        pre = stop > 0
        tail = self.config.tail_fast_forward
        if not pre and not tail:
            return None
        return ReplayRef(
            path=self._replay_path, stop_launch=stop, pre=pre, tail=tail
        )

    def run_profile(self, mode: ProfilingMode | None = None) -> ProgramProfile:
        if self.golden is None:
            self.run_golden()
        mode = mode or self.config.profiling
        cache = self._replay_cache()
        if cache is not None and self._cached_profile(cache, mode):
            return self.profile
        profiler = ProfilerTool(mode)
        with self.tracer.span(
            "profile", workload=self.app.name, mode=mode.value
        ) as span:
            if span is not None and cache is not None:
                span.attrs["replay_cache"] = "miss"
            artifacts = run_app(
                self.app,
                preload=[profiler],
                config=self._injection_config(),
                tracer=self.tracer,
            )
        if artifacts.crashed or artifacts.timed_out:
            raise RuntimeError(
                f"profiling run failed unexpectedly: {artifacts.summary()}"
            )
        self.profile = profiler.profile
        self.profile.workload = self.app.name
        self.profile_time = artifacts.wall_time
        self._record_run_metrics(artifacts)
        if self.store is not None:
            self.store.save_profile(self.profile)
        self._phase("profile", self.profile_time)
        if cache is not None and self._replay_log is not None:
            cache.store_profile(
                self.app.name,
                self._sandbox_config(),
                mode.value,
                self._replay_log.content_hash,
                self.profile,
                counters={
                    "gpusim.instructions_retired": artifacts.instructions_executed,
                    "gpusim.cycles": artifacts.cycles,
                    "gpusim.warps_launched": artifacts.warps_launched,
                },
            )
        return self.profile

    def _cached_profile(self, cache, mode: ProfilingMode) -> bool:
        """Service the profiling pass from the persistent replay cache.

        Profiling is the one plan phase a cached tape cannot speed up
        (instruction counting must simulate under instrumentation), so
        its output is cached alongside the tape and validated against the
        tape's content hash — a profile counted over a different golden
        run never matches.  The restored profile round-trips through the
        same text codec the store artifact uses, so site selection (and
        therefore ``results.csv``) is byte-identical to a freshly
        profiled run.
        """
        if self._replay_log is None:
            return False
        started = time.perf_counter()
        cached = cache.lookup_profile(
            self.app.name,
            self._sandbox_config(),
            mode.value,
            self._replay_log.content_hash,
        )
        if cached is None:
            return False
        profile, counters = cached
        with self.tracer.span(
            "profile", workload=self.app.name, mode=mode.value
        ) as span:
            if span is not None:
                span.attrs["replay_cache"] = "hit"
        self.registry.counter("engine.cache.profile_hits").inc()
        # Re-report the profiling run's recorded device totals, exactly as
        # replayed launches fold their recorded cycle deltas back in: the
        # simulated-cycle trajectory stays identical whether the profile
        # was counted or restored.
        for name, value in counters.items():
            self.registry.counter(name).inc(value)
        self.profile = profile
        self.profile.workload = self.app.name
        self.profile_time = time.perf_counter() - started
        if self.store is not None:
            self.store.save_profile(self.profile)
        self._phase("profile", self.profile_time)
        return True

    def select_sites(self, count: int | None = None) -> list[TransientParams]:
        if self.profile is None:
            self.run_profile()
        count = count if count is not None else self.config.num_transient
        started = time.perf_counter()
        with self.tracer.span(
            "select",
            kind="transient",
            count=count,
            group=self.config.group.name,
            model=self.config.model.name,
        ):
            rng = self._stream.child("sites").generator()
            sites = select_transient_sites(
                self.profile,
                self.config.group,
                self.config.model,
                count,
                rng,
            )
        self._phase("select", time.perf_counter() - started)
        return sites

    def select_permanent(self) -> list[PermanentParams]:
        if self.profile is None:
            self.run_profile()
        with self.tracer.span("select", kind="permanent"):
            rng = self._stream.child("permanent").generator()
            return select_permanent_sites(
                self.profile,
                rng,
                sm_ids=self._active_sm_ids(),
                num_sms=self.device_num_sms(),
            )

    # -- campaigns --------------------------------------------------------------

    def run_transient(
        self, sites: list[TransientParams] | None = None
    ) -> TransientCampaignResult:
        """The full transient campaign (Figure 1 for N faults)."""
        if sites is None:
            if self._adaptive_enabled():
                return self._run_transient_adaptive()
            sites = self.plan_transient()
        if self.golden is None:
            self.run_golden()
        try:
            by_index = self._inject_transient(sites, range(len(sites)))
        except CampaignInterrupted as interrupt:
            if self.store is not None:
                self.store.save_partial_results_csv(interrupt.completed)
            raise KeyboardInterrupt from None
        results = [by_index[index] for index in range(len(sites))]
        tally = OutcomeTally()
        for item in results:
            tally.add(item.outcome)
        result = TransientCampaignResult(
            results=results,
            tally=tally,
            golden_time=self.golden_time,
            profile_time=self.profile_time,
            median_injection_time=_median(r.wall_time for r in results),
        )
        if self.store is not None:
            self.store.save_results_csv(result)
        return result

    def plan_transient(self) -> list[TransientParams]:
        """The fixed-N transient site plan (golden + profile + select), cached.

        Site selection is a pure function of the campaign seed and the
        workload, so every process that plans the same config derives the
        same plan — the property the service scheduler's sharded workers
        rest on: N workers each call :meth:`plan_transient` independently
        and then execute disjoint index ranges of the *same* plan.
        """
        if self._plan is None:
            self._plan = self.select_sites()
            if self.golden is None:
                self.run_golden()
        return self._plan

    def run_batch(
        self,
        indices: Iterable[int] | None = None,
        stop: "threading.Event | None" = None,
    ) -> dict[int, TransientResult]:
        """Run the given indices of the fixed-N plan; what a scheduler worker
        runs per leased shard.

        Indices already in the store are resumed under the same parameter
        check as :meth:`run_transient` (a store holding another campaign's
        results raises); everything else flows through the engine's one
        injection loop.  ``indices`` defaults to the whole plan.  Returns
        the requested indices' results, keyed by index.

        ``stop`` is a cooperative abandon signal (a ``threading.Event``):
        once set, the completed result in flight is still kept (it is
        already checkpointed) but no further task starts.  The scheduler
        sets it when a worker's unit lease is lost, so the worker stops
        burning duplicate work the moment it is presumed dead.
        """
        sites = self.plan_transient()
        wanted = range(len(sites)) if indices is None else list(indices)
        for index in wanted:
            if not 0 <= index < len(sites):
                raise ReproError(
                    f"site index {index} outside the plan "
                    f"(0..{len(sites) - 1})"
                )
        try:
            return self._inject_transient(sites, wanted, stop=stop)
        except CampaignInterrupted:
            # Per-injection checkpoints are already stored; exit cleanly.
            raise KeyboardInterrupt from None

    def _inject_transient(
        self,
        sites: Sequence[TransientParams],
        indices: Sequence[int],
        stop: "threading.Event | None" = None,
        done_before: int = 0,
    ) -> dict[int, TransientResult]:
        """Resume, then inject, the given indices of a transient site plan.

        Quarantined runs carry only deterministic fields, so campaigns
        containing failures still produce byte-identical results.csv files
        across serial, parallel and resumed execution.
        """
        store = self.store
        loaded = {}
        if store is not None:
            wanted = set(indices)
            loaded = self._load_completed(
                sites,
                completed=[
                    i for i in store.completed_injections() if i in wanted
                ],
                load=store.load_injection,
            )

        def build(output: InjectionOutput) -> TransientResult:
            outcome = classify(self.app, self.golden, output.artifacts)
            return TransientResult(
                params=sites[output.index],
                record=output.record,
                outcome=outcome,
                wall_time=output.artifacts.wall_time,
                instructions=output.artifacts.instructions_executed,
            )

        def build_failure(failure: TaskFailure) -> TransientResult:
            return TransientResult(
                params=sites[failure.index],
                record=InjectionRecord(injected=False),
                outcome=quarantine_outcome(failure),
                wall_time=0.0,
                instructions=0,
            )

        return self._inject(
            sites,
            indices,
            kind=CampaignKind.TRANSIENT.value,
            loaded=loaded,
            build=build,
            build_failure=build_failure,
            save=store.save_injection if store is not None else None,
            stop=stop,
            done_before=done_before,
        )

    def _adaptive_enabled(self) -> bool:
        """Any adaptive knob set? Both ``None`` keeps the fixed-N fast path."""
        return (
            self.config.stopping is not None or self.config.sampling is not None
        )

    def _run_transient_adaptive(self) -> TransientCampaignResult:
        """The adaptive transient campaign: draw a batch, inject it, re-evaluate.

        ``config.num_transient`` becomes the budget *ceiling*: each batch is
        drawn per the :class:`~repro.core.adaptive.SamplingPlan`, injected
        through the normal executor path (checkpoint/resume included), and
        the :class:`~repro.core.adaptive.StoppingRule` is re-evaluated at
        the batch boundary.  Every decision is a pure function of the seed
        and the outcomes so far; the per-batch decision tape is persisted
        (``adaptive.json``) so a resumed campaign verifies it is walking the
        same sequence instead of silently re-sizing the campaign.

        Uniform adaptive draws consume the same ``sites`` RNG stream as the
        fixed-N path, so the sites injected are a prefix of the fixed-N
        plan's — an adaptive campaign that exhausts its budget runs exactly
        the fixed-N campaign.
        """
        config = self.config
        plan = config.sampling or SamplingPlan()
        rule = config.stopping
        budget = config.num_transient
        if self.profile is None:
            self.run_profile()  # golden runs first, as in the fixed path
        strata = (
            stratum_weights(self.profile, config.group)
            if plan.mode != "uniform"
            else None
        )
        state = AdaptiveState(plan, rule, strata)
        fingerprint = state.fingerprint(
            budget, config.seed, config.group.name, config.model.name
        )
        checkpoint = AdaptiveCheckpoint(fingerprint)
        checkpoint.batches = state.batches  # shared: grows with the tape
        tape: AdaptiveCheckpoint | None = None
        if self.store is not None:
            stored = self.store.load_adaptive_state()
            if stored is not None:
                tape = AdaptiveCheckpoint.from_dict(stored)
                if tape.fingerprint != fingerprint:
                    raise ReproError(
                        "stored adaptive campaign used different parameters "
                        "(plan, rule, budget or seed); use a fresh study "
                        "directory"
                    )

        rng = self._stream.child("sites").generator()
        sites: list[TransientParams] = []
        results: list[TransientResult] = []
        stopped_early_at: int | None = None

        with self.tracer.span(
            "campaign",
            kind="transient",
            adaptive=True,
            mode=plan.mode,
            budget=budget,
        ) as run_span:
            while len(sites) < budget:
                batch_no = len(state.batches)
                size = min(plan.batch_size, budget - len(sites))
                allocation = state.allocate(size)
                start = len(sites)
                started = time.perf_counter()
                with self.tracer.span(
                    "select",
                    kind="transient",
                    count=size,
                    batch=batch_no,
                    mode=plan.mode,
                ):
                    if allocation is None:
                        batch = select_transient_sites(
                            self.profile, config.group, config.model, size, rng
                        )
                    else:
                        batch = select_stratified_sites(
                            self.profile, config.group, config.model,
                            allocation, rng,
                        )
                self._phase("select", time.perf_counter() - started)
                sites.extend(batch)
                entry = state.record_batch(start, len(batch), allocation)
                if tape is not None and batch_no < len(tape.batches):
                    if tape.batches[batch_no] != entry:
                        raise ReproError(
                            f"stored adaptive batch {batch_no} diverges from "
                            "the re-derived decision sequence; use a fresh "
                            "study directory"
                        )
                try:
                    by_index = self._inject_transient(
                        sites, range(start, len(sites)), done_before=start
                    )
                except CampaignInterrupted as interrupt:
                    if self.store is not None:
                        by_index = dict(enumerate(results))
                        by_index.update(interrupt.completed)
                        self.store.save_partial_results_csv(by_index)
                        self.store.save_adaptive_state(checkpoint.to_dict())
                    raise KeyboardInterrupt from None
                batch_results = [
                    by_index[index] for index in range(start, len(sites))
                ]
                results.extend(batch_results)
                for site, item in zip(batch, batch_results):
                    state.record(site.kernel_name, item.outcome)
                self.registry.counter("engine.adaptive.batches").inc()
                estimate = (
                    state.estimate(rule.target_outcome, rule.confidence)
                    if rule is not None
                    else None
                )
                if self.tracer.enabled:
                    attrs = {
                        "batch": batch_no,
                        "start": start,
                        "size": len(batch),
                        "injections": state.drawn,
                    }
                    if allocation is not None:
                        attrs["allocation"] = allocation
                    if estimate is not None and estimate.half_width is not None:
                        attrs["p_hat"] = estimate.p_hat
                        attrs["half_width"] = estimate.half_width
                    self.tracer.event("adaptive_batch", **attrs)
                should_stop = state.should_stop()
                if should_stop and len(sites) < budget:
                    stopped_early_at = len(sites)
                checkpoint.stopped_early_at = stopped_early_at
                if self.store is not None:
                    self.store.save_adaptive_state(checkpoint.to_dict())
                if should_stop:
                    break
            saved = budget - len(sites)
            if saved:
                self.registry.counter(
                    "engine.adaptive.injections_saved"
                ).inc(saved)
            summary = state.summary(budget, stopped_early_at)
            if run_span is not None:
                run_span.attrs.update(
                    batches=summary.batches,
                    injections=summary.injections,
                    stopped_early_at=stopped_early_at,
                    injections_saved=saved,
                )
                if summary.strata:
                    run_span.attrs["strata"] = {
                        s.name: s.injections for s in summary.strata
                    }
                if summary.estimate is not None:
                    run_span.attrs["estimate_p_hat"] = summary.estimate.p_hat
                    run_span.attrs["estimate_half_width"] = (
                        summary.estimate.half_width
                    )

        tally = OutcomeTally()
        for item in results:
            tally.add(item.outcome)
        result = TransientCampaignResult(
            results=results,
            tally=tally,
            golden_time=self.golden_time,
            profile_time=self.profile_time,
            median_injection_time=_median(r.wall_time for r in results),
            adaptive=summary,
        )
        if self.store is not None:
            self.store.save_results_csv(result)
        return result

    def run_permanent(
        self, sites: list[PermanentParams] | None = None
    ) -> PermanentCampaignResult:
        """One injection per executed opcode, outcomes weighted by dynamic count."""
        if self.profile is None:
            self.run_profile()
        if sites is None:
            sites = self.select_permanent()
        total_dynamic = max(self.profile.total_count(), 1)
        store = self.store
        loaded = (
            self._load_completed(
                sites,
                completed=store.completed_permanent_injections(),
                load=store.load_permanent_injection,
            )
            if store is not None
            else {}
        )

        def build(output: InjectionOutput) -> PermanentResult:
            params = sites[output.index]
            opcode = opcode_by_id(params.opcode_id).name
            outcome = classify(self.app, self.golden, output.artifacts)
            return PermanentResult(
                params=params,
                opcode=opcode,
                weight=self.profile.opcode_count(opcode) / total_dynamic,
                activations=output.activations,
                outcome=outcome,
                wall_time=output.artifacts.wall_time,
            )

        def build_failure(failure: TaskFailure) -> PermanentResult:
            params = sites[failure.index]
            opcode = opcode_by_id(params.opcode_id).name
            return PermanentResult(
                params=params,
                opcode=opcode,
                weight=self.profile.opcode_count(opcode) / total_dynamic,
                activations=0,
                outcome=quarantine_outcome(failure),
                wall_time=0.0,
            )

        try:
            by_index = self._inject(
                sites,
                range(len(sites)),
                kind=CampaignKind.PERMANENT.value,
                loaded=loaded,
                build=build,
                build_failure=build_failure,
                save=store.save_permanent_injection if store is not None else None,
            )
        except CampaignInterrupted:
            # Per-injection checkpoints are already on disk; exit cleanly.
            raise KeyboardInterrupt from None
        results = [by_index[index] for index in range(len(sites))]
        tally = OutcomeTally()
        for item in results:
            tally.add(item.outcome, weight=item.weight)
        return PermanentCampaignResult(
            results=results,
            tally=tally,
            golden_time=self.golden_time,
            median_injection_time=_median(r.wall_time for r in results),
        )

    def run_intermittent(
        self, sites: list[IntermittentParams]
    ) -> list[PermanentResult]:
        """Intermittent-fault runs (§V extension), through the same executor."""
        if self.golden is None:
            self.run_golden()

        def build(output: InjectionOutput) -> PermanentResult:
            params = sites[output.index]
            outcome = classify(self.app, self.golden, output.artifacts)
            return PermanentResult(
                params=params.permanent,
                opcode=opcode_by_id(params.permanent.opcode_id).name,
                weight=1.0,
                activations=output.activations,
                outcome=outcome,
                wall_time=output.artifacts.wall_time,
            )

        def build_failure(failure: TaskFailure) -> PermanentResult:
            params = sites[failure.index]
            return PermanentResult(
                params=params.permanent,
                opcode=opcode_by_id(params.permanent.opcode_id).name,
                weight=1.0,
                activations=0,
                outcome=quarantine_outcome(failure),
                wall_time=0.0,
            )

        by_index = self._inject(
            sites,
            range(len(sites)),
            kind=CampaignKind.INTERMITTENT.value,
            loaded={},
            build=build,
            build_failure=build_failure,
            save=None,
        )
        return [by_index[index] for index in range(len(sites))]

    # -- the one injection loop -------------------------------------------------

    def _tasks(
        self, kind: str, sites: Sequence, indices: Iterable[int]
    ) -> list[InjectionTask]:
        """Frozen, executor-ready tasks for the given site indices.

        Transient tasks carry their fast-forward reference and are grouped
        by target launch, so neighbours share the replay log's page cache.
        Results are keyed by index, so the ordering cannot change
        ``results.csv``.
        """
        spec = self._injection_spec()
        fast_forward = kind == "transient" and self._replay_path is not None
        tasks = [
            InjectionTask(
                index,
                self.app.name,
                kind,
                sites[index],
                spec,
                replay=self._replay_ref_for(sites[index]) if fast_forward else None,
            )
            for index in indices
        ]
        tasks.sort(
            key=lambda t: (
                t.replay.stop_launch if t.replay is not None else -1,
                t.index,
            )
        )
        return tasks

    def _inject(
        self,
        sites: Sequence,
        indices: Iterable[int],
        kind: str,
        loaded: dict[int, object],
        build: Callable[[InjectionOutput], object],
        build_failure: Callable[[TaskFailure], object],
        save: Callable[[int, object], None] | None,
        stop: "threading.Event | None" = None,
        done_before: int = 0,
    ) -> dict:
        """Run the given site indices not already in ``loaded``.

        Returns the results keyed by index: ``loaded`` plus every injection
        classified here.  ``done_before`` counts completed sites outside
        ``indices`` (the adaptive loop's earlier batches) for the progress
        hook.  ``stop`` (see :meth:`run_batch`) ends the run early.

        Completed injections are handed to ``save`` the moment they finish,
        so an interrupted campaign loses at most the runs in flight.  Every
        injection — resumed and quarantined ones included — emits one
        ``injection`` trace event, so the events in a trace sum to the
        campaign's final tally exactly; ``hooks.on_injection`` fires for
        fresh ones only.

        Tasks the harness could not complete (worker raised, died or hung
        past every retry) arrive as :class:`TaskFailure` records; per
        ``config.retry.on_failure`` they either abort the campaign or are
        *quarantined* — turned into synthesized DUE results by
        ``build_failure``, persisted like any other result (so a resume
        skips them) and surfaced via ``injection_quarantined`` events and
        the ``engine.quarantined`` counter.  ``KeyboardInterrupt`` raises
        :class:`CampaignInterrupted` carrying everything completed so far.
        """
        policy = self.config.retry
        tasks = self._tasks(
            kind, sites, [index for index in indices if index not in loaded]
        )
        by_index: dict[int, object] = dict(loaded)
        metrics = self.metrics
        metrics.injections_total = len(sites)
        metrics.injections_loaded += len(loaded)
        started = time.perf_counter()
        seconds_before = metrics.inject_seconds

        with self.tracer.span(
            "inject",
            kind=kind,
            total=len(sites),
            fresh=len(tasks),
        ):
            for index in sorted(loaded):
                item = loaded[index]
                metrics.tally.add(item.outcome, weight=getattr(item, "weight", 1.0))
                self._count_outcome(item)
                self._emit_injection_event(index, item, kind, resumed=True)
            runs = self.executor.run(
                tasks,
                app=self.app,
                tracer=self.tracer,
                retry=policy,
                on_retry=self._make_on_retry(kind),
            )
            if stop is not None:
                runs = _stop_when(runs, stop)
            try:
                for output in runs:
                    if isinstance(output, TaskFailure):
                        if policy.on_failure == "raise":
                            raise ReproError(
                                f"injection task {output.index} failed after "
                                f"{output.attempts} attempt(s) "
                                f"[{output.reason}]: {output.error}"
                            )
                        item = self._quarantine(output, build_failure, kind)
                    else:
                        item = build(output)
                        self.tracer.ingest(output.events)
                        self._record_run_metrics(output.artifacts, injection=True)
                    index = output.index
                    by_index[index] = item
                    if save is not None:
                        save(index, item)
                    self._emit_injection_event(
                        index,
                        item,
                        kind,
                        output=output if isinstance(output, InjectionOutput) else None,
                    )
                    self._count_outcome(item)
                    metrics.injections_done += 1
                    metrics.inject_seconds = (
                        seconds_before + time.perf_counter() - started
                    )
                    metrics.tally.add(
                        item.outcome, weight=getattr(item, "weight", 1.0)
                    )
                    self.hooks.on_injection(
                        index,
                        item.outcome,
                        done_before + len(by_index),
                        len(sites),
                        metrics.tally,
                    )
            except KeyboardInterrupt:
                # Everything in ``by_index`` is already checkpointed (``save``
                # runs per completion); hand the partial state to the caller
                # so it can write a clean partial results.csv and re-raise.
                raise CampaignInterrupted(by_index, len(sites)) from None
        self._phase("inject", time.perf_counter() - started)
        return by_index

    def _make_on_retry(self, kind: str) -> OnRetry:
        """The retry-accounting callback handed to the executor."""

        def on_retry(failure: TaskFailure, delay: float) -> None:
            self.registry.counter("engine.retries").inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "injection_retry",
                    index=failure.index,
                    kind=kind,
                    attempt=failure.attempts,
                    reason=failure.reason,
                    error=failure.error,
                    delay=delay,
                )

        return on_retry

    def _quarantine(
        self,
        failure: TaskFailure,
        build_failure: Callable[[TaskFailure], object],
        kind: str,
    ) -> object:
        """Synthesize the quarantined (harness-DUE) result for a failed task."""
        self.registry.counter("engine.quarantined").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "injection_quarantined",
                index=failure.index,
                kind=kind,
                attempts=failure.attempts,
                reason=failure.reason,
                error=failure.error,
            )
        return build_failure(failure)

    def _load_completed(
        self,
        sites: Sequence,
        completed: Iterable[int],
        load: Callable[[int], object],
    ) -> dict[int, object]:
        """Resume support: pull stored results whose params match the plan."""
        loaded: dict[int, object] = {}
        for index in completed:
            if index >= len(sites):
                continue
            stored = load(index)
            if stored.params != sites[index]:
                raise ReproError(
                    f"stored injection {index} was produced by different "
                    "campaign parameters; use a fresh study directory"
                )
            loaded[index] = stored
        return loaded

    # -- observability plumbing --------------------------------------------------

    def _emit_injection_event(
        self,
        index: int,
        item,
        kind: str,
        output: InjectionOutput | None = None,
        resumed: bool = False,
    ) -> None:
        """One point event per classified injection (params + outcome + count)."""
        if not self.tracer.enabled:
            return
        instructions = getattr(item, "instructions", None)
        if instructions is None:
            instructions = (
                output.artifacts.instructions_executed if output is not None else 0
            )
        attrs = {
            "index": index,
            "kind": kind,
            "resumed": resumed,
            "outcome": item.outcome.outcome.value,
            "symptom": item.outcome.symptom,
            "potential_due": item.outcome.potential_due,
            "weight": getattr(item, "weight", 1.0),
            "instructions": instructions,
        }
        attrs.update(_params_attrs(getattr(item, "params", None)))
        record = getattr(item, "record", None)
        if record is not None:
            attrs["injected"] = record.injected
            if record.injected:
                attrs["opcode"] = record.opcode
                attrs["sm_id"] = record.sm_id
                attrs["pc"] = record.pc
        self.tracer.event("injection", **attrs)

    def _count_outcome(self, item) -> None:
        weight = getattr(item, "weight", 1.0)
        self.registry.counter(
            f"campaign.outcome.{item.outcome.outcome.value}"
        ).inc(weight)
        if item.outcome.potential_due:
            self.registry.counter("campaign.outcome.potential_due").inc(weight)

    def _record_run_metrics(
        self, artifacts: RunArtifacts, injection: bool = False
    ) -> None:
        """Fold one sandboxed run's device counters into the registry."""
        reg = self.registry
        reg.counter("sandbox.runs").inc()
        reg.counter("gpusim.instructions_retired").inc(
            artifacts.instructions_executed
        )
        reg.counter("gpusim.cycles").inc(artifacts.cycles)
        reg.counter("gpusim.warps_launched").inc(artifacts.warps_launched)
        reg.gauge("gpusim.divergence_depth_high_water").set_max(
            artifacts.divergence_depth_high_water
        )
        if artifacts.replay_launches_skipped:
            reg.counter("engine.replay.hits").inc()
            reg.counter("engine.replay.launches_skipped").inc(
                artifacts.replay_launches_skipped
            )
        if artifacts.replay_tail_skipped:
            # Tail fast-forward: this run's fault went architecturally dead
            # and the remaining launches replayed from the golden tape.
            reg.counter("engine.replay.tail_hits").inc()
            reg.counter("engine.replay.tail_launches_skipped").inc(
                artifacts.replay_tail_skipped
            )
        if artifacts.replay_converged_at >= 0:
            reg.histogram(
                "engine.replay.converged_at_launch", LAUNCH_BUCKETS
            ).observe(artifacts.replay_converged_at)
        if getattr(artifacts, "blockc_blocks_compiled", 0):
            reg.counter("engine.blockc.blocks_compiled").inc(
                artifacts.blockc_blocks_compiled
            )
            reg.counter("engine.blockc.compile_seconds").inc(
                artifacts.blockc_compile_seconds
            )
        if getattr(artifacts, "blockc_block_hits", 0):
            reg.counter("engine.blockc.block_hits").inc(
                artifacts.blockc_block_hits
            )
        if injection:
            reg.histogram(
                "campaign.injection.instructions", INSTRUCTION_BUCKETS
            ).observe(artifacts.instructions_executed)
            reg.histogram("campaign.injection.seconds").observe(artifacts.wall_time)

    # -- configuration helpers --------------------------------------------------

    def device_num_sms(self) -> int:
        """SM count of the configured device (explicit or the family's)."""
        sandbox = self.config.sandbox
        if sandbox.num_sms is not None:
            return sandbox.num_sms
        return arch_by_name(sandbox.family).num_sms

    def _sandbox_config(self) -> SandboxConfig:
        sandbox = self.config.sandbox.clone()
        # Either knob disables the block-compiled interpreter; getattr
        # tolerates configs pickled before the field existed.
        if not getattr(self.config, "block_compile", True):
            sandbox.block_compile = False
        return sandbox

    def _injection_config(self) -> SandboxConfig:
        config = self._sandbox_config()
        if self.golden is not None:
            config.instruction_budget = hang_budget(
                self.golden, factor=self.config.hang_budget_factor
            )
        return config

    def _injection_spec(self) -> SandboxSpec:
        return self._injection_config().spec()

    def _active_sm_ids(self) -> list[int]:
        """SMs that actually ran blocks in the golden run.

        A permanent fault pinned to an idle SM can never activate; real
        campaigns target populated SMs, so site selection draws from the
        golden run's active set, falling back to every SM of the configured
        device.
        """
        if self.golden is not None and self.golden.active_sms:
            return list(self.golden.active_sms)
        return list(range(self.device_num_sms()))

    def _phase(self, name: str, seconds: float) -> None:
        self.metrics.add_phase_seconds(name, seconds)
        self.hooks.on_phase(name, seconds)


def _params_attrs(params) -> dict:
    """Flatten an injection-parameter record into JSON-friendly event attrs."""
    if isinstance(params, TransientParams):
        return {
            "group": params.group.name,
            "model": params.model.name,
            "kernel": params.kernel_name,
            "kernel_count": params.kernel_count,
            "instruction_count": params.instruction_count,
        }
    if isinstance(params, PermanentParams):
        return {
            "sm_id_target": params.sm_id,
            "lane_id": params.lane_id,
            "bit_mask": params.bit_mask,
            "opcode_id": params.opcode_id,
        }
    if isinstance(params, IntermittentParams):
        attrs = _params_attrs(params.permanent)
        attrs.update(process=params.process,
                     activation_probability=params.activation_probability)
        return attrs
    return {}
