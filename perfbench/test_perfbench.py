"""The benchmark's own tests: shrunken runs of every workload.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PLAN = json.loads((HERE / "plan.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SERIAL = [w for w in WORKLOADS if w != "bt-serve"]


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """One shrunken benchmark invocation: (detail line, result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(PLAN["seeds"]["default"]), "--seconds", "0",
         "--trace", str(trace), "--shrink", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail), json.loads(result)


@pytest.fixture(scope="module")
def outputs() -> dict:
    return {
        (workload, trace): bench(workload, trace)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(outputs, workload, trace, section):
    _, result = outputs[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert emitted == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_detail_line_carries_all_eight_end_to_end_metrics(outputs, workload):
    detail, _ = outputs[(workload, 0)]
    assert {
        "campaign_s": "s", "setup_s": "s", "inj_per_s": "1/s",
        "inj_p50_ms": "ms", "inj_p90_ms": "ms", "cpu_s_per_inj": "s",
        "peak_rss_mb": "MB", "failed_share": "share",
    }.items() <= {
        name: entry["unit"] for name, entry in detail["end_to_end"].items()
    }.items()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_of_one_campaign_seed_agree(outputs, workload):
    end_to_end = outputs[(workload, 0)][0]["end_to_end"]
    assert end_to_end["failed_share"]["value"] == 0.0
    by_seed: dict[int, set] = {}
    for trace in (0, 1):
        detail, _ = outputs[(workload, trace)]
        assert detail["problems"] == []
        for output in detail["outputs"]:
            by_seed.setdefault(output["seed"], set()).add(
                json.dumps(output, sort_keys=True)
            )
    assert all(len(variants) == 1 for variants in by_seed.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_times_are_non_negative(outputs, workload):
    _, result = outputs[(workload, 1)]
    for name, entry in result["metrics"].items():
        if name != "trace.overhead":
            assert entry["value"] >= 0, name


def test_layers_that_do_not_run_report_nothing(outputs):
    for workload in SERIAL:
        detail, result = outputs[(workload, 1)]
        assert not [x for x in detail["layers_run"] if x.startswith("service.")]
        service = {n: e["value"] for n, e in result["metrics"].items()
                   if n.startswith("service.")}
        assert set(service.values()) == {0}
    _, permanent = outputs[("bt-permanent", 1)]
    for name, entry in permanent["metrics"].items():
        if name.startswith("replay."):
            assert entry["value"] == 0, name
    detail, _ = outputs[("bt-serve", 1)]
    assert "service.db" in detail["layers_run"]
    assert "service.worker" in detail["layers_run"]


def test_serve_cpu_includes_worker_processes(outputs):
    detail, _ = outputs[("bt-serve", 0)]
    for run in detail["cpu_accounting"]:
        assert run["workers_s"] > 0.1 * run["total_s"]
        # wait4's figure covers the run process and every worker it reaped
        # (rusage ticks are coarse, hence the tolerance).
        assert run["total_s"] >= run["process_s"] + run["workers_s"] - 0.05


def test_tampered_reference_digest_counts_as_failed(tmp_path):
    reference = tmp_path / "reference.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "bt-transient",
         "--seed", str(PLAN["seeds"]["default"]), "--seconds", "0",
         "--shrink", "--write-reference", "--reference", str(reference)],
        cwd=ROOT, check=True, capture_output=True, timeout=600,
    )
    detail, result = bench("bt-transient", 0, "--reference", str(reference))
    assert all(
        source.startswith("reference.json")
        for source in detail["references"].values()
    )
    assert result["failed"] == 0

    table = json.loads(reference.read_text())
    for entry in table["bt-transient"].values():
        entry["results_sha256"] = "0" * 64
    reference.write_text(json.dumps(table))
    detail, result = bench("bt-transient", 0, "--reference", str(reference))
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert detail["end_to_end"]["failed_share"]["value"] == 1.0
    assert result["metrics"]["ok_share"]["value"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timings_are_reported_in_quiet_and_host_seconds(outputs, workload):
    detail, result = outputs[(workload, 0)]
    for name in ("campaign_s", "setup_s", "inj_per_s", "cpu_s_per_inj"):
        assert detail[name]["median"] == result["metrics"][name]["value"]
        assert detail["host"][name]["median"] > 0
    assert all(speed > 0 for speed in detail["host_speed"]["samples"])


def test_intervals_are_scaled_by_the_probes_around_them():
    quiet = hostspeed.QUIET_PROBE_S
    # Twice as slow as quiet inside [10, 20], as fast as quiet far outside.
    events = [(10.0 + n, 2 * quiet) for n in range(hostspeed.NEAREST)]
    events += [(100.0 + n, quiet) for n in range(hostspeed.NEAREST)]
    assert hostspeed.scale(events, 10.0, 20.0) == pytest.approx(0.5)
    assert hostspeed.scale(events, 100.0, 200.0) == pytest.approx(1.0)
    # Too few probes inside: the nearest ones decide.
    assert hostspeed.scale(events, 9.0, 9.5) == pytest.approx(0.5)
    assert hostspeed.scale([], 0.0, 1.0) == 1.0
    assert hostspeed.spent(events, 10.0, 12.0) == pytest.approx(4 * quiet)


def test_self_time_is_span_minus_children():
    recorder = layers.Recorder()
    inner = recorder.wrap(lambda: sum(range(20000)), "inner")
    outer = recorder.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    totals = layers.Totals([recorder.export()])
    assert totals.calls("inner") == 3 and totals.calls("outer") == 1
    assert totals.self_s("outer") == pytest.approx(
        totals.total("outer") - totals.total("inner", parent="outer")
    )
    assert totals.self_s("inner") == pytest.approx(totals.total("inner"))
    assert min(totals.self_s("outer"), totals.self_s("inner")) >= 0


def test_plan_records_a_prediction_for_every_layer_metric():
    assert set(PLAN["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {None}
    for prediction in PLAN["per_layer"].values():
        assert prediction["moves"] in end_to_end
        assert set(prediction["on"]) <= set(WORKLOADS)
    assert set(PLAN["workloads"]) == set(WORKLOADS)
