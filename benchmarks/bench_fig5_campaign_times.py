"""Figure 5 — total campaign times (100 transient faults vs permanent).

The paper's campaign-time model: a transient campaign profiles once and
runs 100 injection experiments; a permanent campaign runs one experiment
per *executed* opcode (16..41 of the 171 in their suite — unused opcodes
are skipped thanks to the profile).  The paper observes transient campaigns
typically take about twice as long as permanent ones, ranging from ~5x
longer to slightly faster.
"""

from __future__ import annotations

import statistics

from benchmarks.harness import campaign_seed, emit
from benchmarks.overheads import measure_all
from repro.utils.text import format_table

_TRANSIENT_FAULTS = 100  # the paper's campaign size


def _render(measurements) -> str:
    rows = []
    ratios = []
    for item in measurements:
        transient = item.transient_campaign_cycles(_TRANSIENT_FAULTS)
        permanent = item.permanent_campaign_cycles()
        ratio = transient / permanent
        ratios.append(ratio)
        rows.append([
            item.name,
            f"{transient / 1e6:.1f} Mcyc",
            f"{permanent / 1e6:.1f} Mcyc",
            item.executed_opcodes,
            f"{ratio:.2f}x",
        ])
    rows.append([
        "typical (median)", "-", "-", "-",
        f"{statistics.median(ratios):.2f}x",
    ])
    return format_table(
        ["Program", f"Transient campaign ({_TRANSIENT_FAULTS} faults)",
         "Permanent campaign", "Executed opcodes (of 171)",
         "Transient / permanent"],
        rows,
        title="Figure 5: total campaign times "
              "(paper: transient typically ~2x permanent, 5x to <1x range)",
    )


def test_fig5_parallel_engine_campaign(benchmark):
    """The campaign-speed claim, exercised end-to-end: a real (small)
    transient campaign through :class:`CampaignEngine` with injection runs
    fanned out over a process pool — the paper's ``run_injections.py -p``
    path — checking the engine's throughput metrics and result integrity."""
    from repro.core.campaign import CampaignConfig
    from repro.core.engine import CampaignEngine, ParallelExecutor

    engines = []

    def run():
        engine = CampaignEngine(
            "314.omriq",
            CampaignConfig(num_transient=8, seed=campaign_seed()),
            executor=ParallelExecutor(max_workers=2),
        )
        engines.append(engine)
        return engine.run_transient()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    engine = engines[-1]
    emit(
        "fig5_parallel_engine",
        f"parallel engine campaign (8 faults, 2 workers): "
        f"{engine.metrics.summary()}",
    )
    assert len(result.results) == 8
    assert result.tally.total == 8
    assert engine.metrics.injections_per_second > 0
    assert engine.metrics.phase_seconds.keys() >= {"golden", "profile", "inject"}


def test_fig5_campaign_times(benchmark):
    measurements = benchmark.pedantic(measure_all, rounds=1, iterations=1)
    emit("fig5_campaign_times", _render(measurements))

    # Unused-opcode pruning is real: every program exercises far fewer than
    # the 171 table opcodes (the paper saw 16..41).
    for item in measurements:
        assert item.executed_opcodes < 60

    # Transient campaigns dominate permanent ones for most programs (the
    # paper: 'typically about twice the time ... as much as 5x or slightly
    # faster').
    ratios = [
        m.transient_campaign_cycles(_TRANSIENT_FAULTS) / m.permanent_campaign_cycles()
        for m in measurements
    ]
    median_ratio = statistics.median(ratios)
    assert 1.0 < median_ratio < 15.0  # scaled suite inflates vs the paper's ~2x
