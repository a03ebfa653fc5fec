"""Shared infrastructure for the paper-reproduction benchmarks.

Environment knobs:

* ``REPRO_INJECTIONS`` — transient injections per program (default 30; the
  paper used 100, which the harness fully supports — see EXPERIMENTS.md for
  the confidence-interval implications of the default).
* ``REPRO_QUICK=1``   — restrict to four representative programs with 6
  injections each (smoke mode).
* ``REPRO_SEED``      — campaign seed (default 2021, the paper's year).

Every benchmark writes its rendered table/figure to
``benchmarks/results/<name>.txt`` in addition to printing it.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.profiler import ProfilingMode
from repro.workloads import WORKLOAD_CLASSES, get_workload

RESULTS_DIR = Path(__file__).parent / "results"

_QUICK_SUBSET = ("303.ostencil", "314.omriq", "352.ep", "360.ilbdc")


def quick_mode() -> bool:
    return os.environ.get("REPRO_QUICK", "") == "1"


def num_injections() -> int:
    if quick_mode():
        return 6
    return int(os.environ.get("REPRO_INJECTIONS", "30"))


def campaign_seed() -> int:
    return int(os.environ.get("REPRO_SEED", "2021"))


def workload_names() -> list[str]:
    if quick_mode():
        return list(_QUICK_SUBSET)
    return [cls.name for cls in WORKLOAD_CLASSES]


def make_campaign(name: str, profiling: ProfilingMode = ProfilingMode.EXACT,
                  injections: int | None = None) -> CampaignEngine:
    config = CampaignConfig(
        num_transient=injections if injections is not None else num_injections(),
        seed=campaign_seed(),
        profiling=profiling,
    )
    return CampaignEngine(get_workload(name), config)


def emit(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
