"""Per-layer tracing for the benchmark's traced runs.

The program is not edited: :func:`install` replaces the public entry
points of each layer (a module function, or a method on its class) with a
wrapper that records a span around the call.  Spans are aggregated in
memory by ``(layer, parent layer)`` — calls, inclusive seconds and self
seconds (the span minus the time its child spans cover) — so the tree
shape survives without storing one object per call.  Layer counters that
the program only keeps per process (simulated instructions, block hits,
tail re-convergence, cache hits) are read at the same boundaries, which
is how the service workload gets counts out of its worker processes.

Every measured run uses the program untraced; a traced run is a separate
run, and the difference between the two is the reported tracing overhead.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

#: Layers whose durations are reported as pipeline phases (inclusive of the
#: layers below them, exclusive of nested phases) rather than as self time.
PHASES = ("core.golden", "core.profile", "core.select")


class Recorder:
    """In-memory span aggregates and layer counters for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()

    def reset(self) -> None:
        """Forget everything, including spans open in the calling thread.

        A forked worker inherits its parent's aggregates, open spans and
        lock state; it calls this first so it reports only its own work.
        """
        self._lock = threading.Lock()
        self.spans = {}
        self.counts = Counter()
        self._local.stack = []

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, fn, layer: str, before=None, after=None):
        """``fn`` wrapped in a ``layer`` span.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        handed to ``after(recorder, state, args, kwargs, result, ok)``,
        which runs once the span is closed, also when ``fn`` raised.
        """
        local = self._local
        clock = time.perf_counter
        recorder = self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else ""
            frame = [layer, 0.0]
            stack.append(frame)
            state = before(args, kwargs) if before is not None else None
            result = None
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                key = (layer, parent)
                with recorder._lock:
                    entry = recorder.spans.get(key)
                    if entry is None:
                        entry = recorder.spans[key] = [0, 0.0, 0.0]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                if after is not None:
                    after(recorder, state, args, kwargs, result, ok)

        traced.__wrapped__ = fn
        return traced

    def export(self) -> dict:
        return {
            "spans": [
                [layer, parent, *entry]
                for (layer, parent), entry in sorted(self.spans.items())
            ],
            "counts": dict(self.counts),
        }


def patch_function(module_name: str, name: str, wrapper_for) -> None:
    """Replace a module-level function everywhere it was imported by name.

    ``from x import f`` binds ``f`` into the importing module, so patching
    only the defining module would miss most callers.
    """
    original = getattr(sys.modules[module_name], name)
    wrapped = wrapper_for(original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, name, None) is original
        ):
            setattr(module, name, wrapped)


def patch_method(cls, name: str, wrapper_for) -> None:
    setattr(cls, name, wrapper_for(getattr(cls, name)))


# -- counter probes --------------------------------------------------------------


def _device_counters(args, kwargs):
    device = args[0]
    return device.instructions_executed, device.blockc_block_hits


def _device_deltas(recorder, state, args, kwargs, result, ok):
    device = args[0]
    recorder.count("gpusim.winstr", device.instructions_executed - state[0])
    recorder.count("gpusim.block_hits", device.blockc_block_hits - state[1])


def _injection_run(recorder, state, args, kwargs, result, ok):
    if ok:
        recorder.count("core.injection_runs")
        if result.artifacts.replay_converged_at >= 0:
            recorder.count("replay.tail_hits")


def _cache_lookup(recorder, state, args, kwargs, result, ok):
    recorder.count("core.cache_lookups")
    if ok and result is not None:
        recorder.count("core.cache_hits")


def _counter(name):
    def after(recorder, state, args, kwargs, result, ok):
        recorder.count(name)

    return after


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.core import engine, outcomes, resilience, snapshot, store
    from repro.cuda.driver import CudaDriver
    from repro.gpusim import blockc
    from repro.gpusim.device import Device
    from repro.gpusim.replay import ReplayCursor
    from repro.mem.memory import GlobalMemory
    from repro.nvbit.jit import JitCache
    from repro.service import faultdb, scheduler

    def span(layer, before=None, after=None):
        return lambda fn: recorder.wrap(fn, layer, before, after)

    patch_function("repro.runner.sandbox", "run_app", span("runner.run"))
    patch_method(CudaDriver, "cuModuleLoadData", span("cuda.module_load"))
    patch_method(CudaDriver, "cuLaunchKernel", span("cuda.launch"))
    patch_function("repro.sass.assembler", "assemble", span("sass.assemble"))
    patch_method(
        Device, "launch", span("gpusim.launch", _device_counters, _device_deltas)
    )
    patch_function(blockc.__name__, "compiled_for", span("gpusim.blockc_compile"))
    patch_method(ReplayCursor, "apply", span("replay.apply"))
    patch_method(ReplayCursor, "end_simulated_launch", span("replay.tail_track"))
    patch_method(GlobalMemory, "validate", span("mem.validate"))
    for name in ("load32", "store32", "load64", "store64"):
        patch_method(GlobalMemory, name, span("mem.access"))
    patch_method(JitCache, "compile", span("nvbit.instrument"))
    patch_method(engine.CampaignEngine, "run_golden", span("core.golden"))
    patch_method(engine.CampaignEngine, "run_profile", span("core.profile"))
    patch_method(engine.CampaignEngine, "select_sites", span("core.select"))
    patch_method(engine.CampaignEngine, "select_permanent", span("core.select"))
    patch_method(engine.CampaignEngine, "plan_transient", span("core.plan"))
    patch_method(engine.CampaignEngine, "run_batch", span("core.run_batch"))
    patch_function(
        engine.__name__, "execute_task", span("core.execute", after=_injection_run)
    )
    patch_function(outcomes.__name__, "classify", span("core.classify"))
    for name in dir(store.CampaignStore):
        if name.startswith("save_"):
            patch_method(store.CampaignStore, name, span("core.store"))
    for name in ("lookup", "lookup_profile"):
        patch_method(
            snapshot.ReplayCache, name, span("core.cache", after=_cache_lookup)
        )
    for name in ("store", "store_profile"):
        patch_method(snapshot.ReplayCache, name, span("core.cache"))
    patch_function(
        resilience.__name__,
        "quarantine_outcome",
        span("core.quarantine", after=_counter("core.quarantined")),
    )
    patch_method(
        resilience.RetryPolicy,
        "delay",
        span("core.retry", after=_counter("core.retries")),
    )
    for name in (
        "lease_unit",
        "heartbeat_unit",
        "complete_unit",
        "save_transient_outcome",
        "save_permanent_outcome",
        "save_artifact",
    ):
        patch_method(faultdb.FaultDB, name, span("service.db"))
    patch_method(scheduler.CampaignScheduler, "run", span("service.coordinator"))
    patch_method(
        scheduler.CampaignScheduler, "_drive_workers", span("service.fanout")
    )


# -- per-layer metrics -------------------------------------------------------------


class Totals:
    """Span aggregates merged across processes, queried by layer."""

    def __init__(self, exports: list[dict]) -> None:
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        for export in exports:
            for layer, parent, calls, total, self_s in export["spans"]:
                entry = self.spans.setdefault((layer, parent), [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            self.counts.update(export["counts"])

    def _sum(self, layer: str, column: int, parent: str | None = None) -> float:
        return sum(
            entry[column]
            for (name, under), entry in self.spans.items()
            if name == layer and (parent is None or under == parent)
        )

    def calls(self, layer: str) -> int:
        return int(self._sum(layer, 0))

    def total(self, layer: str, parent: str | None = None) -> float:
        return self._sum(layer, 1, parent)

    def self_s(self, layer: str) -> float:
        return self._sum(layer, 2)

    def phase(self, layer: str) -> float:
        """Inclusive seconds of a pipeline phase minus its nested phases."""
        return self.total(layer) - sum(
            self.total(inner, parent=layer) for inner in PHASES
        )

    def layers(self) -> set[str]:
        return {layer for layer, _ in self.spans}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: Totals, workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced run, keyed by metric name.

    ``workers`` is the service's worker count (0 on the serial workloads).
    Seconds are self times unless the name is a pipeline phase.
    """
    t = totals
    skipped = t.calls("replay.apply")
    simulated = t.calls("gpusim.launch")
    counts = t.counts
    return {
        "runner.runs": t.calls("runner.run"),
        "runner.host_self_s": t.self_s("runner.run"),
        "cuda.module_loads": t.calls("cuda.module_load"),
        "cuda.module_load_s": t.self_s("cuda.module_load"),
        "sass.assemble_s": t.self_s("sass.assemble"),
        "cuda.launches": t.calls("cuda.launch"),
        "gpusim.launches_simulated": simulated,
        "gpusim.launch_self_s": t.self_s("gpusim.launch"),
        "gpusim.winstr_simulated": counts["gpusim.winstr"],
        "gpusim.winstr_per_s": _ratio(
            counts["gpusim.winstr"], t.total("gpusim.launch")
        ),
        "gpusim.blockc_compile_s": t.self_s("gpusim.blockc_compile"),
        "gpusim.block_hits": counts["gpusim.block_hits"],
        "replay.launches_skipped": skipped,
        "replay.skip_ratio": _ratio(skipped, skipped + simulated),
        "replay.tail_hit_ratio": _ratio(
            counts["replay.tail_hits"], counts["core.injection_runs"]
        ),
        "replay.apply_s": t.self_s("replay.apply"),
        "replay.tail_track_s": t.self_s("replay.tail_track"),
        "mem.validate_calls": t.calls("mem.validate"),
        "mem.validate_s": t.self_s("mem.validate"),
        "mem.access_s": t.self_s("mem.access"),
        "nvbit.instrument_s": t.self_s("nvbit.instrument"),
        "core.golden_s": t.phase("core.golden"),
        "core.profile_s": t.phase("core.profile"),
        "core.select_s": t.phase("core.select"),
        "core.classify_s": t.self_s("core.classify"),
        "core.store_s": t.self_s("core.store"),
        "core.cache_hit_ratio": _ratio(
            counts["core.cache_hits"], counts["core.cache_lookups"]
        ),
        "core.cache_s": t.self_s("core.cache"),
        "core.retries": counts["core.retries"],
        "core.quarantined": counts["core.quarantined"],
        "service.db_calls": t.calls("service.db"),
        "service.db_s": t.self_s("service.db"),
        "service.plan_s": t.total("core.plan", parent="service.coordinator"),
        "service.worker_busy_share": _ratio(
            t.total("core.run_batch", parent="service.worker"),
            workers * t.total("service.fanout"),
        ),
        "service.requeues": counts["service.requeues"],
    }


def coverage(totals: Totals, serve: bool) -> float:
    """Share of the traced processes' busy wall inside a named layer.

    Serial runs have one root, the benchmark's span around the campaign.
    In the service workload the roots are the coordinator and each
    worker, and the coordinator's fan-out span is time spent waiting for
    the workers, so it is not counted as busy.
    """
    roots = ("service.coordinator", "service.worker") if serve else (
        "bench.campaign",
    )
    waits = ("service.fanout", "bench.campaign") if serve else ()
    busy = sum(totals.total(root) for root in roots) - totals.total(
        "service.fanout"
    )
    inside = sum(
        entry[2]
        for (layer, _), entry in totals.spans.items()
        if layer not in roots and layer not in waits
    )
    return _ratio(inside, busy)
