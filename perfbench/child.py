"""One campaign run of a benchmark workload, in a fresh process.

``run.py`` starts this script once per run and reaps it with ``wait4``,
so the CPU time and peak memory it reports include every worker process
the run started.  Usage::

    python3 perfbench/child.py SPEC.json

SPEC names the workload, seed, size, whether the run is traced or
probes the host's speed, the program's source directory and a scratch
directory; the result (timings, injection timestamps, output digests,
and spans when traced) is written as JSON to ``spec["result_path"]``.

An untraced run takes a ``hostspeed`` probe after every classified
injection (in every process that classifies one) and before set-up.
Every timing is reported twice: in host seconds with the probing taken
out, and in quiet-host seconds (``quiet``), each interval scaled by the
probes taken around it.

Every run uses the default ``CampaignConfig`` apart from the workload,
the seed and the fault count: fast-forward, tail replay and block
compilation on, no executor chosen.  Imports happen before the clock
starts; block compilation happens inside the timed window, as it does on
every CLI run.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import resource
import sqlite3
import sys
import time
import urllib.request
from collections import Counter

import hostspeed

WORKLOAD = "370.bt"
#: Probes taken before each set-up, and after it on the serial workloads:
#: set-up has no injections to probe between.
SETUP_PROBES = 5

def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _column(text: str, column: str) -> list[str]:
    return [row[column] for row in csv.DictReader(io.StringIO(text))]


def _segments(bounds: list[float], events, processes: int = 1):
    """Each interval between successive ``bounds``, without the probing
    done in it: in host seconds and in quiet-host seconds.

    ``processes`` is how many processes worked side by side in the
    intervals; their probing delayed the interval by its share.
    """
    host, quiet = [], []
    for start, end in zip(bounds, bounds[1:]):
        seconds = end - start - hostspeed.spent(events, start, end) / processes
        host.append(seconds)
        quiet.append(seconds * hostspeed.scale(events, start, end))
    return host, quiet


def _probe_totals(events) -> dict:
    """Seconds spent probing (to take out of the CPU time) and the factor
    that turns the run's CPU seconds into quiet-host CPU seconds."""
    return {
        "probe_s": sum(seconds for _, seconds in events),
        "cpu_scale": hostspeed.scale(events, float("-inf"), float("inf")),
    }


class _Span:
    """A root span around the timed region of a traced run."""

    def __init__(self, recorder, layer: str) -> None:
        self._call = (
            recorder.wrap(lambda fn: fn(), layer) if recorder is not None else None
        )

    def run(self, fn):
        return self._call(fn) if self._call is not None else fn()


# -- the serial library workloads ----------------------------------------------------


def _serial(spec: dict, recorder, plan, inject, render) -> dict:
    """Time ``plan(engine)`` (set-up) and ``inject(engine)`` on one engine.

    The engine checkpoints into a directory store.  After the clock stops,
    ``render(result)`` turns what ``inject`` returned into the run's
    results.csv text (or an equivalent rendering).
    """
    from repro.core.campaign import CampaignConfig
    from repro.core.engine import CampaignEngine, EngineHooks
    from repro.core.resilience import HARNESS_FAILURE_SYMPTOM
    from repro.core.store import CampaignStore
    from repro.obs import MetricsRegistry

    stamps: list[float] = []
    probes = hostspeed.Probes(spec["probe"])

    class Clock(EngineHooks):
        def on_injection(self, index, outcome, completed, total, tally):
            stamps.append(time.perf_counter())
            probes.take()

    config = CampaignConfig(
        workload=WORKLOAD, num_transient=spec["faults"], seed=spec["seed"]
    )
    registry = MetricsRegistry()
    marks = {}

    def campaign():
        probes.take(SETUP_PROBES)
        marks["start"] = time.perf_counter()
        engine = CampaignEngine(
            WORKLOAD,
            config,
            store=CampaignStore(os.path.join(spec["workdir"], "store")),
            hooks=Clock(),
            metrics=registry,
        )
        plan(engine)
        marks["setup"] = time.perf_counter()
        probes.take(SETUP_PROBES)
        marks["result"] = inject(engine)
        marks["end"] = time.perf_counter()

    _Span(recorder, "bench.campaign").run(campaign)
    text = render(marks["result"])
    symptoms = _column(text, "symptom")
    bounds = [marks["start"], marks["setup"], *sorted(stamps), marks["end"]]
    host, quiet = _segments(bounds, probes.events)
    return {
        "campaign_s": sum(host),
        "setup_s": host[0],
        "gaps_s": host[1:-1],
        "quiet": {
            "campaign_s": sum(quiet), "setup_s": quiet[0], "gaps_s": quiet[1:-1]
        },
        **_probe_totals(probes.events),
        "injections": len(symptoms),
        "results_sha256": _sha256(text.encode()),
        "cycles": int(registry.counter("gpusim.cycles").value),
        "tally": dict(Counter(_column(text, "outcome"))),
        "quarantined": symptoms.count(HARNESS_FAILURE_SYMPTOM),
    }


def _transient(spec: dict, recorder) -> dict:
    def render(result) -> str:
        path = os.path.join(spec["workdir"], "store", "results.csv")
        with open(path, newline="") as handle:
            return handle.read()

    return _serial(
        spec,
        recorder,
        lambda engine: engine.plan_transient(),
        lambda engine: engine.run_transient(),
        render,
    )


def _permanent_csv(results) -> str:
    """A results.csv-style rendering of a permanent campaign (deterministic
    fields only; the program writes no results.csv for permanent runs)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["index", "params", "opcode", "weight", "activations", "outcome",
         "symptom", "potential_due"]
    )
    for index, item in enumerate(results):
        writer.writerow([
            index,
            item.params.to_text().replace("\n", "; "),
            item.opcode,
            repr(item.weight),
            item.activations,
            item.outcome.outcome.value,
            item.outcome.symptom,
            item.outcome.potential_due,
        ])
    return buffer.getvalue()


def _permanent(spec: dict, recorder) -> dict:
    sites = []

    def plan(engine) -> None:
        engine.run_profile()
        sites.extend(engine.select_permanent()[: spec["faults"]])

    return _serial(
        spec,
        recorder,
        plan,
        lambda engine: engine.run_permanent(sites),
        lambda result: _permanent_csv(result.results),
    )


# -- the service workload -------------------------------------------------------------

#: One worker: with two, the fan-out waits on both vCPUs of the host, and
#: its time moved with other tenants' load half as much again as the
#: host-speed probe did, which a single worker does not.
SERVE_WORKERS = 1


def _serve_configs(spec: dict) -> list[dict]:
    """The two consecutive campaigns: seeds s and s + 1 (``run.SERVE_PAIR``)."""
    return [
        {"num_transient": spec["faults"], "seed": spec["seed"] + n} for n in (0, 1)
    ]


def _install_worker_marks(marks_dir: str, recorder, probe: bool) -> None:
    """Make every service worker write its timestamps (and spans) on exit.

    Workers are forked from this process and exit without running
    ``atexit`` handlers, so the scheduler's ``worker_main`` is wrapped to
    dump, when it returns, the time of the worker's first unit lease, the
    time of each classified injection (``EngineHooks.on_injection``), the
    probes it took after each and, in a traced run, its span aggregates.
    ``perf_counter`` reads the system-wide monotonic clock, so the stamps
    compare across processes.
    """
    from repro.core.engine import EngineHooks
    from repro.service import faultdb, scheduler

    state = {}

    def on_injection(self, index, outcome, completed, total, tally):
        state["injections"].append(time.perf_counter())
        state["probes"].take()

    EngineHooks.on_injection = on_injection

    lease_unit = faultdb.FaultDB.lease_unit

    def leased(self, *args, **kwargs):
        lease = lease_unit(self, *args, **kwargs)
        if lease is not None and state["first_lease"] is None:
            state["first_lease"] = time.perf_counter()
        return lease

    faultdb.FaultDB.lease_unit = leased

    worker_main = scheduler.worker_main
    if recorder is not None:
        worker_main = recorder.wrap(worker_main, "service.worker")

    def marked_worker_main(db_path, campaign_id, worker_id, *args, **kwargs):
        state.update(
            first_lease=None, injections=[], probes=hostspeed.Probes(probe)
        )
        if recorder is not None:
            recorder.reset()
        try:
            worker_main(db_path, campaign_id, worker_id, *args, **kwargs)
        finally:
            payload = {
                "campaign_id": campaign_id,
                "first_lease": state["first_lease"],
                "injections": state["injections"],
                "probes": state["probes"].events,
                "trace": recorder.export() if recorder is not None else None,
            }
            path = os.path.join(marks_dir, f"worker-{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(payload, handle)

    scheduler.worker_main = marked_worker_main


def _http(url: str, payload: dict | None = None) -> bytes:
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.read()


def _requeues(db_path: str) -> int:
    """Units leased more than once: each extra lease is a requeue."""
    conn = sqlite3.connect(db_path)
    try:
        (value,) = conn.execute(
            "SELECT COALESCE(SUM(attempts - 1), 0) FROM units WHERE attempts > 1"
        ).fetchone()
    finally:
        conn.close()
    return int(value)


def _serve(spec: dict, recorder) -> dict:
    from repro.core.resilience import HARNESS_FAILURE_SYMPTOM
    from repro.service import FaultService

    marks_dir = os.path.join(spec["workdir"], "marks")
    os.makedirs(marks_dir)
    _install_worker_marks(marks_dir, recorder, spec["probe"])
    probes = hostspeed.Probes(spec["probe"])
    db_path = os.path.join(spec["workdir"], "faults.sqlite")
    service = FaultService(db_path, default_workers=SERVE_WORKERS)
    service.start()
    host, port = service.address
    base = f"http://{host}:{port}"
    campaigns = []

    def campaigns_run():
        for config in _serve_configs(spec):
            probes.take(SETUP_PROBES)
            submitted = time.perf_counter()
            reply = _http(
                f"{base}/campaigns",
                {"workload": WORKLOAD, "config": config, "workers": SERVE_WORKERS},
            )
            campaign_id = json.loads(reply)["campaign_id"]
            service.join_campaign(campaign_id)
            results = _http(f"{base}/campaigns/{campaign_id}/results")
            campaigns.append({
                "campaign_id": campaign_id,
                "submitted": submitted,
                "done": time.perf_counter(),
                "results": results,
            })

    try:
        _Span(recorder, "bench.campaign").run(campaigns_run)
    finally:
        service.shutdown()
    workers = []
    for name in sorted(os.listdir(marks_dir)):
        with open(os.path.join(marks_dir, name)) as handle:
            workers.append(json.load(handle))
    events = sorted(
        [tuple(e) for w in workers for e in w["probes"]] + probes.events
    )
    host = {"campaign_s": 0.0, "setup_s": 0.0, "gaps_s": []}
    quiet = {"campaign_s": 0.0, "setup_s": 0.0, "gaps_s": []}
    for campaign in campaigns:
        mine = [w for w in workers if w["campaign_id"] == campaign["campaign_id"]]
        leases = [w["first_lease"] for w in mine if w["first_lease"] is not None]
        first_lease = min(leases) if leases else campaign["done"]
        setup = _segments([campaign["submitted"], first_lease], events)
        fan_out = _segments([first_lease, campaign["done"]], events, SERVE_WORKERS)
        for n, figures in enumerate((host, quiet)):
            figures["campaign_s"] += setup[n][0] + fan_out[n][0]
            figures["setup_s"] += setup[n][0]
        # Gaps are taken per worker: merged, they would depend on how
        # several workers' injections happen to interleave.
        for worker in mine:
            if worker["first_lease"] is not None:
                gaps = _segments(
                    [worker["first_lease"], *worker["injections"]],
                    [tuple(e) for e in worker["probes"]],
                )
                host["gaps_s"] += gaps[0]
                quiet["gaps_s"] += gaps[1]
    texts = [c["results"].decode() for c in campaigns]
    symptoms = [s for t in texts for s in _column(t, "symptom")]
    return {
        **host,
        "quiet": quiet,
        **_probe_totals(events),
        "injections": len(symptoms),
        "results_sha256": _sha256("".join(texts).encode()),
        "cycles": None,
        "tally": dict(Counter(o for t in texts for o in _column(t, "outcome"))),
        "quarantined": symptoms.count(HARNESS_FAILURE_SYMPTOM),
        "requeues": _requeues(db_path),
        "worker_traces": [w["trace"] for w in workers if w["trace"] is not None],
    }


def _serve_reference(spec: dict, recorder) -> dict:
    """One of the service's campaigns as a single-process
    ``repro.run_campaign`` with a directory store (the parity reference)."""
    import repro
    from repro.core.store import CampaignStore
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    store_dir = os.path.join(spec["workdir"], "store")
    repro.run_campaign(
        repro.CampaignConfig(
            workload=WORKLOAD, num_transient=spec["faults"], seed=spec["seed"]
        ),
        store=CampaignStore(store_dir),
        metrics=registry,
    )
    with open(os.path.join(store_dir, "results.csv"), newline="") as handle:
        text = handle.read()
    return {
        "results_text": text,
        "cycles": int(registry.counter("gpusim.cycles").value),
        "tally": dict(Counter(_column(text, "outcome"))),
    }


MODES = {
    "bt-transient": _transient,
    "bt-permanent": _permanent,
    "bt-serve": _serve,
    "bt-serve-reference": _serve_reference,
}


def main(spec_path: str) -> None:
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    import repro  # noqa: F401  (imports stay outside the timed window)
    import repro.service  # noqa: F401

    recorder = None
    if spec["traced"]:
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    cpu_before = _cpu_self()
    result = MODES[spec["mode"]](spec, recorder)
    result["cpu_before_s"] = cpu_before
    result["cpu_self_s"] = _cpu_self()
    result["cpu_children_s"] = _cpu_children()
    if recorder is not None:
        result["trace"] = recorder.export()
    with open(spec["result_path"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1])
