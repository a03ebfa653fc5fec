"""Engine instrumentation tests: phase spans, injection events, metrics.

The acceptance property for the observability layer: a campaign trace's
phase spans cover golden/profile/select/inject, and its per-injection
events sum exactly to the campaign's OutcomeTally — serial and parallel.
"""

import pytest

from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine, ParallelExecutor
from repro.core.report import phase_breakdown, tally_from_trace
from repro.core.store import CampaignStore
from repro.obs import (
    PHASE_SPANS,
    MemorySink,
    MetricsRegistry,
    Tracer,
    injection_events,
    spans,
)

WORKLOAD = "360.ilbdc"


def _traced_engine(tmp_path=None, executor=None, store=None, injections=4):
    sink = MemorySink()
    engine = CampaignEngine(
        WORKLOAD,
        CampaignConfig(num_transient=injections, seed=7),
        executor=executor,
        store=store,
        tracer=Tracer(sink=sink),
        metrics=MetricsRegistry(),
    )
    return engine, sink


class TestPhaseSpans:
    def test_campaign_trace_covers_all_phases(self):
        engine, sink = _traced_engine()
        engine.run_transient()
        durations = phase_breakdown(sink.events)
        assert set(PHASE_SPANS) <= set(durations)
        assert all(seconds > 0 for seconds in durations.values())

    def test_run_spans_nest_under_phases(self):
        engine, sink = _traced_engine(injections=2)
        engine.run_transient()
        by_id = {s["span_id"]: s for s in spans(sink.events)}
        runs = spans(sink.events, "run")
        # golden + profile + 2 injections
        assert len(runs) == 4
        parents = {by_id[r["parent_id"]]["name"] for r in runs}
        assert parents == {"golden", "profile", "inject"}

    def test_phase_spans_match_engine_metrics(self):
        engine, sink = _traced_engine(injections=2)
        engine.run_transient()
        durations = phase_breakdown(sink.events)
        for phase, seconds in engine.metrics.phase_seconds.items():
            # the span covers the phase (the metric is timed inside it)
            assert durations[phase] >= seconds * 0.5


class TestInjectionEvents:
    def test_events_sum_to_tally_serial(self):
        engine, sink = _traced_engine(injections=5)
        result = engine.run_transient()
        rebuilt = tally_from_trace(sink.events)
        assert rebuilt.total == result.tally.total == 5
        assert rebuilt.counts == result.tally.counts
        assert rebuilt.potential_due == result.tally.potential_due

    def test_event_attrs_carry_params_and_outcome(self):
        engine, sink = _traced_engine(injections=2)
        result = engine.run_transient()
        events = injection_events(sink.events)
        assert len(events) == 2
        for event, item in zip(
            sorted(events, key=lambda e: e["attrs"]["index"]), result.results
        ):
            attrs = event["attrs"]
            assert attrs["kind"] == "transient"
            assert attrs["resumed"] is False
            assert attrs["outcome"] == item.outcome.outcome.value
            assert attrs["symptom"] == item.outcome.symptom
            assert attrs["instructions"] == item.instructions
            assert attrs["kernel"] == item.params.kernel_name
            assert attrs["instruction_count"] == item.params.instruction_count
            assert attrs["injected"] == item.record.injected

    def test_resumed_injections_still_emit_events(self, tmp_path):
        first, _ = _traced_engine(store=CampaignStore(tmp_path), injections=3)
        expected = first.run_transient()

        resumed, sink = _traced_engine(store=CampaignStore(tmp_path), injections=3)
        result = resumed.run_transient()
        events = injection_events(sink.events)
        assert len(events) == 3
        assert all(e["attrs"]["resumed"] for e in events)
        rebuilt = tally_from_trace(sink.events)
        assert rebuilt.counts == expected.tally.counts == result.tally.counts

    @pytest.mark.slow
    def test_events_sum_to_tally_parallel(self):
        engine, sink = _traced_engine(
            executor=ParallelExecutor(max_workers=2), injections=4
        )
        result = engine.run_transient()
        rebuilt = tally_from_trace(sink.events)
        assert rebuilt.total == result.tally.total == 4
        assert rebuilt.counts == result.tally.counts

    @pytest.mark.slow
    def test_worker_run_spans_are_forwarded(self):
        engine, sink = _traced_engine(
            executor=ParallelExecutor(max_workers=2), injections=3
        )
        engine.run_transient()
        runs = spans(sink.events, "run")
        assert len(runs) == 5  # golden + profile + 3 worker runs
        by_id = {s["span_id"]: s for s in spans(sink.events)}
        inject_span = spans(sink.events, "inject")[0]
        worker_runs = [
            r for r in runs if by_id[r["parent_id"]]["name"] == "inject"
        ]
        assert len(worker_runs) == 3
        assert all(r["end"] <= inject_span["end"] for r in worker_runs)


class TestEngineMetrics:
    def test_registry_collects_engine_and_gpusim_metrics(self):
        engine, _ = _traced_engine(injections=3)
        engine.run_transient()
        snap = engine.registry.snapshot()
        assert snap["counters"]["sandbox.runs"] == 5  # golden+profile+3
        assert snap["counters"]["gpusim.instructions_retired"] > 0
        assert snap["counters"]["gpusim.warps_launched"] > 0
        assert snap["gauges"]["gpusim.divergence_depth_high_water"] >= 1
        assert snap["counters"]["engine.injections.done"] == 3
        assert snap["histograms"]["campaign.injection.instructions"]["count"] == 3
        outcome_total = sum(
            value
            for name, value in snap["counters"].items()
            if name.startswith("campaign.outcome.")
            and name != "campaign.outcome.potential_due"
        )
        assert outcome_total == 3

    def test_metrics_shim_reads_registry(self):
        engine, _ = _traced_engine(injections=2)
        engine.run_transient()
        metrics = engine.metrics
        assert metrics.injections_done == 2
        assert metrics.injections_total == 2
        assert metrics.injections_loaded == 0
        assert set(metrics.phase_seconds) == {
            "golden", "replay", "profile", "select", "inject",
        }
        assert metrics.injections_per_second > 0
        assert "inj/s" in metrics.summary()

    def test_tracing_disabled_emits_nothing(self):
        engine = CampaignEngine(
            WORKLOAD, CampaignConfig(num_transient=2, seed=7)
        )
        result = engine.run_transient()
        assert len(result.results) == 2
        # the default tracer is the shared NullTracer
        from repro.obs import NULL_TRACER

        assert engine.tracer is NULL_TRACER
