"""Campaign benchmark: end-to-end and per-layer metrics of NVBitFI campaigns.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bt-transient --seed 2021 --seconds 40 --trace 0

Each run of a workload is one campaign with the default ``CampaignConfig``
in a fresh child process (``child.py``), reaped with ``wait4`` so its CPU
time and peak memory include the worker processes it started.  Runs repeat
until the next one would end past ``--seconds`` (but at least
``min_runs``), and every metric is reported as the median over the runs,
with its quartiles and every raw sample on the detail line.  Runs step
through campaign seeds derived from ``--seed``.

The host's speed drifts by up to 1.8x over seconds, with other tenants'
load, so the timed metrics are reported in quiet-host seconds: each run
probes the host's speed between injections (``hostspeed.py``) and scales
each timed interval by the probes around it.  The detail line carries
the same metrics in host seconds under ``host`` and each run's speed
relative to a quiet host under ``host_speed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced run with a traced one (``layers.py`` wraps each layer's entry
points) and prints the per-layer metrics, the tracing overhead and the
share of the traced wall the layers account for.

Outputs are checked on every run: the results.csv sha256, the simulated
cycle total and the outcome tally must equal the reference for the
workload and campaign seed: ``reference.json`` for the seeds recorded
there, else the first run of the seed.  The service workload's reference
is a single-process ``repro.run_campaign`` of the same configs, run ahead
of each measured run whose campaign seed is not recorded.
Injections of a run that is off the reference, quarantined or missing
count as failed.

The second-to-last line of stdout is the detail JSON; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  ``--write-reference``
records the references of ``--seed``'s campaigns in ``reference.json``
instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import child  # noqa: E402
import layers  # noqa: E402

#: Campaign shape per workload: ``faults`` per campaign (for
#: bt-permanent, the first that many permanent sites, which is all of
#: them), ``campaigns`` per run, and ``shrunk``, the fault count the
#: benchmark's own tests use.  ``min_runs`` keeps enough injection gaps
#: for a p90 with ten samples beyond it.
WORKLOADS = {
    "bt-transient": {"faults": 100, "campaigns": 1, "shrunk": 4, "min_runs": 2},
    "bt-permanent": {"faults": 25, "campaigns": 1, "shrunk": 3, "min_runs": 4},
    "bt-serve": {"faults": 50, "campaigns": 2, "shrunk": 3, "min_runs": 2},
}

#: Every metric the benchmark computes, with its unit.  The result line
#: carries the ones ``BENCHMARK.json`` lists; the detail line carries all.
#: ``failed_share`` is always 0 on a correct program, so the result line
#: carries ``ok_share`` = 1 - ``failed_share`` (its ``failed`` count is
#: the same figure unnormalised).  ``inj_p50_ms`` sits in a sparse stretch
#: between fast (crashed or re-converged) and fully simulated injections,
#: so it moves with the seed more than any bound allows: detail line only.
END_TO_END_UNITS = {
    "campaign_s": "s",
    "setup_s": "s",
    "inj_per_s": "1/s",
    "inj_p50_ms": "ms",
    "inj_p90_ms": "ms",
    "cpu_s_per_inj": "s",
    "peak_rss_mb": "MB",
    "failed_share": "share",
    "ok_share": "share",
}


PER_LAYER_UNITS = {
    "runner.runs": "count",
    "runner.host_self_s": "s",
    "cuda.module_loads": "count",
    "cuda.module_load_s": "s",
    "sass.assemble_s": "s",
    "cuda.launches": "count",
    "gpusim.launches_simulated": "count",
    "gpusim.launch_self_s": "s",
    "gpusim.winstr_simulated": "count",
    "gpusim.winstr_per_s": "1/s",
    "gpusim.blockc_compile_s": "s",
    "gpusim.block_hits": "count",
    "replay.launches_skipped": "count",
    "replay.skip_ratio": "share",
    "replay.tail_hit_ratio": "share",
    "replay.apply_s": "s",
    "replay.tail_track_s": "s",
    "mem.validate_calls": "count",
    "mem.validate_s": "s",
    "mem.access_s": "s",
    "nvbit.instrument_s": "s",
    "core.golden_s": "s",
    "core.profile_s": "s",
    "core.select_s": "s",
    "core.classify_s": "s",
    "core.store_s": "s",
    "core.cache_hit_ratio": "share",
    "core.cache_s": "s",
    "core.retries": "count",
    "core.quarantined": "count",
    "service.db_calls": "count",
    "service.db_s": "s",
    "service.plan_s": "s",
    "service.worker_busy_share": "share",
    "service.requeues": "count",
    "trace.overhead": "share",
    "trace.coverage": "share",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit code 1, no result line)."""


# -- statistics ------------------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Median, quartiles and every raw sample; never a best or worst round."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def tail_percentile(samples: list[float]) -> dict:
    """p50 and p90, and how many samples lie beyond each.

    A percentile is trustworthy when at least ten samples lie beyond it;
    the detail line records the count so a reader can tell.
    """
    values = sorted(samples)
    if len(values) >= 2:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
    else:
        cuts = values * 99
    out = {"n": len(values)}
    for name, percent in (("p50", 50), ("p90", 90)):
        out[name] = cuts[percent - 1]
        out[f"{name}_beyond"] = sum(v > out[name] for v in values)
    return out


# -- child runs ------------------------------------------------------------------------


def _kill_group(pgid: int) -> None:
    """Kill what is left of a child's process group (its service workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


#: Every child must have exited this long after the benchmark started; a
#: hung program is killed with its workers and the benchmark fails.
DEADLINE_S = 170.0


class Runner:
    """Starts one child per run and reaps it with ``wait4``."""

    def __init__(
        self, workload: str, shrink: bool, deadline_s: float = DEADLINE_S
    ) -> None:
        self.deadline = time.perf_counter() + deadline_s
        self.workload = workload
        self.shape = WORKLOADS[workload]
        self.faults = self.shape["shrunk"] if shrink else self.shape["faults"]
        self.scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.env = {
            key: value for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(self.scratch)
        self.count = 0

    def __enter__(self) -> "Runner":
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.live: dict[int, subprocess.Popen] = {}
        return self

    def __exit__(self, *exc) -> None:
        # Only an error leaves children behind: kill them with their
        # workers (each child leads its own process group) and reap them.
        for pid in list(self.live):
            _kill_group(pid)
            os.wait4(pid, 0)
            self.live.pop(pid).returncode = -signal.SIGKILL
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass

    def start(self, seed: int, mode: str | None = None, traced: bool = False) -> dict:
        """Start one child run; :meth:`finish` reaps it."""
        self.count += 1
        workdir = self.scratch / f"{self.count}"
        workdir.mkdir()
        spec = {
            "mode": mode or self.workload,
            "seed": seed,
            "faults": self.faults,
            "traced": traced,
            "probe": not traced,
            "src": str(SRC),
            "workdir": str(workdir),
            "result_path": str(workdir / "result.json"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            env=self.env,
            cwd=str(workdir),
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.live[proc.pid] = proc
        spec["pid"] = proc.pid
        return spec

    def finish(self, spec: dict) -> dict:
        pid = spec["pid"]
        while True:
            reaped, status, usage = os.wait4(pid, os.WNOHANG)
            if reaped:
                break
            if time.perf_counter() > self.deadline:
                raise BenchError("a run was still going at the deadline")
            time.sleep(0.05)
        code = os.waitstatus_to_exitcode(status)
        self.live.pop(pid).returncode = code
        if code != 0:
            _kill_group(pid)
            raise BenchError(f"{spec['mode']} run exited with code {code}")
        workdir = Path(spec["workdir"])
        result = json.loads((workdir / "result.json").read_text())
        shutil.rmtree(workdir, ignore_errors=True)
        # wait4 reports the child plus every descendant it reaped, so this
        # covers service and executor workers; CPU spent importing before
        # the clock started, and probing the host's speed, is taken out.
        result["cpu_s"] = (
            usage.ru_utime + usage.ru_stime - result["cpu_before_s"]
            - result.get("probe_s", 0.0)
        )
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        result["seed"] = spec["seed"]
        return result

    def run(self, seed: int, mode: str | None = None, traced: bool = False) -> dict:
        return self.finish(self.start(seed, mode, traced))

    def serve_reference(self, seed: int) -> dict:
        """bt-serve's parity reference: each of its two campaigns run by
        ``repro.run_campaign`` in its own single process, side by side."""
        parts = [
            self.finish(spec)
            for spec in [
                self.start(seed + n, "bt-serve-reference") for n in SERVE_PAIR
            ]
        ]
        text = "".join(part["results_text"] for part in parts)
        tally: Counter = Counter()
        for part in parts:
            tally.update(part["tally"])
        return {
            "results_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "cycles": sum(part["cycles"] for part in parts),
            "tally": dict(tally),
        }


# -- reference checks -----------------------------------------------------------------

#: Runs step through campaign seeds derived from ``--seed`` (the first run
#: uses ``--seed`` itself), so one invocation measures several fault
#: samples: the sites drawn for one 100-fault campaign move its time by
#: about 10%, far more than runs of one campaign differ.  Each bt-serve
#: run submits the pair (seed, seed + 1) of its own campaign seed.
SEED_STRIDE = 1_000_003
#: bt-serve submits campaigns with seeds seed + n for n in SERVE_PAIR.
SERVE_PAIR = (0, 1)
#: Campaign seeds per ``--seed`` recorded by ``--write-reference``.
REFERENCE_RUNS = 8


def campaign_seed(seed: int, run: int) -> int:
    return seed + run * SEED_STRIDE


def reference_key(seed: int, shrink: bool) -> str:
    return f"{seed}/shrunk" if shrink else str(seed)


def reference_of(run: dict) -> dict:
    return {key: run[key] for key in ("results_sha256", "cycles", "tally")}


def mismatches(run: dict, reference: dict) -> list[str]:
    """The reference fields a run's outputs differ on."""
    wrong = []
    for key in ("results_sha256", "tally"):
        if run[key] != reference[key]:
            wrong.append(key)
    # The service's cycle total stays in its worker processes; its served
    # results are checked against the single-process reference instead.
    if run["cycles"] is not None and run["cycles"] != reference["cycles"]:
        wrong.append("cycles")
    return wrong


class Checker:
    """Counts failed injections against each campaign seed's reference.

    A reference comes from the reference file when it records the seed,
    else (bt-serve) from a single-process run given to :meth:`add`, else
    from the first run of that seed in this invocation.
    """

    def __init__(self, path: Path, workload: str, shrink: bool, expected: int) -> None:
        table = json.loads(path.read_text()) if path.exists() else {}
        self.stored = table.get(workload, {})
        self.label = f"{path.name} [{workload}]"
        self.shrink = shrink
        self.expected = expected
        self.references: dict[str, dict] = {}
        self.sources: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def has_stored(self, seed: int) -> bool:
        return reference_key(seed, self.shrink) in self.stored

    def add(self, seed: int, reference: dict, source: str) -> None:
        key = reference_key(seed, self.shrink)
        self.references[key] = reference
        self.sources[key] = source

    def check(self, run: dict) -> None:
        key = reference_key(run["seed"], self.shrink)
        if key not in self.references:
            if key in self.stored:
                self.add(run["seed"], self.stored[key], f"{self.label}[{key}]")
            else:
                self.add(run["seed"], reference_of(run), "first run")
        self.attempted += self.expected
        missing = max(self.expected - run["injections"], 0)
        wrong = mismatches(run, self.references[key])
        failed = self.expected if wrong else run["quarantined"] + missing
        if wrong:
            self.problems.append(
                f"seed {run['seed']}: outputs differ from the reference: {wrong}"
            )
        if run["quarantined"] or missing:
            self.problems.append(
                f"seed {run['seed']}: {run['quarantined']} quarantined, "
                f"{missing} missing"
            )
        self.failed += min(failed, self.expected)


# -- metrics ---------------------------------------------------------------------------


#: The timed end-to-end metrics: the ones ``hostspeed`` rescales.
TIMED = ("campaign_s", "setup_s", "inj_per_s", "cpu_s_per_inj")


def timings(runs: list[dict], quiet: bool) -> dict:
    """Summaries of the timed metrics, in quiet-host or in host seconds."""
    per_run: dict[str, list[float]] = {name: [] for name in TIMED}
    gaps: list[float] = []
    for run in runs:
        timed = run["quiet"] if quiet else run
        cpu_s = run["cpu_s"] * (run["cpu_scale"] if quiet else 1.0)
        per_run["campaign_s"].append(timed["campaign_s"])
        per_run["setup_s"].append(timed["setup_s"])
        per_run["inj_per_s"].append(
            run["injections"] / (timed["campaign_s"] - timed["setup_s"])
        )
        per_run["cpu_s_per_inj"].append(cpu_s / run["injections"])
        gaps += [g * 1000.0 for g in timed["gaps_s"]]
    detail = {name: summary(values) for name, values in per_run.items()}
    detail["injection_gaps_ms"] = tail_percentile(gaps)
    return detail


def end_to_end(runs: list[dict], checker: Checker) -> tuple[dict, dict]:
    """Medians of the end-to-end metrics, and the detail behind them.

    Timings are in quiet-host seconds (``hostspeed``); the detail line
    carries them in host seconds too, under ``host``.
    """
    detail = timings(runs, quiet=True)
    detail["host"] = timings(runs, quiet=False)
    detail["peak_rss_mb"] = summary([r["peak_rss_mb"] for r in runs])
    # Each run's speed relative to a quiet host (1.0 = quiet).
    detail["host_speed"] = summary([r["cpu_scale"] for r in runs])
    gaps = detail["injection_gaps_ms"]
    detail["cpu_accounting"] = [
        {
            "total_s": r["cpu_s"],
            "process_s": r["cpu_self_s"] - r["cpu_before_s"],
            "workers_s": r["cpu_children_s"],
        }
        for r in runs
    ]
    metrics = {name: detail[name]["median"] for name in (*TIMED, "peak_rss_mb")}
    metrics["inj_p50_ms"] = gaps["p50"]
    metrics["inj_p90_ms"] = gaps["p90"]
    metrics["failed_share"] = checker.failed / checker.attempted
    metrics["ok_share"] = 1.0 - metrics["failed_share"]
    return metrics, detail


def per_layer(pairs: list[tuple[dict, dict]], workload: str) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced runs of each pair."""
    serve = workload == "bt-serve"
    samples: dict[str, list[float]] = {}
    layers_run: set[str] = set()
    for untraced, traced in pairs:
        exports = [traced["trace"], *traced.get("worker_traces", [])]
        totals = layers.Totals(exports)
        totals.counts["service.requeues"] += traced.get("requeues", 0)
        layers_run |= totals.layers()
        values = layers.layer_metrics(
            totals, workers=child.SERVE_WORKERS if serve else 0
        )
        values["trace.overhead"] = traced["campaign_s"] / untraced["campaign_s"] - 1
        values["trace.coverage"] = layers.coverage(totals, serve)
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    detail = {name: summary(values) for name, values in samples.items()}
    detail["layers_run"] = sorted(layers_run)
    metrics = {name: detail[name]["median"] for name in samples}
    return metrics, detail


# -- main ------------------------------------------------------------------------------


def measure(args) -> tuple[dict, dict, Checker]:
    shape = WORKLOADS[args.workload]
    started = time.perf_counter()
    with Runner(args.workload, args.shrink) as runner:
        checker = Checker(
            Path(args.reference), args.workload, args.shrink,
            runner.faults * shape["campaigns"],
        )
        runs: list = []
        while True:
            seed = campaign_seed(args.seed, len(runs))
            before = time.perf_counter()
            if args.workload == "bt-serve" and not checker.has_stored(seed):
                checker.add(
                    seed,
                    runner.serve_reference(seed),
                    "single-process repro.run_campaign",
                )
            if args.trace:
                run = (runner.run(seed), runner.run(seed, traced=True))
                checker.check(run[0])
                checker.check(run[1])
            else:
                run = runner.run(seed)
                checker.check(run)
            runs.append(run)
            elapsed = time.perf_counter() - started
            cost = time.perf_counter() - before
            enough = args.trace or len(runs) >= shape["min_runs"]
            if enough and elapsed + cost > args.seconds:
                break
    if args.trace:
        metrics, detail = per_layer(runs, args.workload)
        section, units = "per_layer", PER_LAYER_UNITS
        plain = [untraced for untraced, _ in runs]
        detail["untraced_campaign_s"] = summary([r["campaign_s"] for r in plain])
        detail["traced_campaign_s"] = summary([t["campaign_s"] for _, t in runs])
    else:
        metrics, detail = end_to_end(runs, checker)
        section, units = "end_to_end", END_TO_END_UNITS
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    for entry in listed:
        if units.get(entry["name"]) != entry["unit"]:
            raise BenchError(f"BENCHMARK.json metric {entry} is not measured")
    flat = runs if not args.trace else [r for pair in runs for r in pair]
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "runs": len(flat),
        "references": checker.sources,
        "problems": checker.problems,
        "outputs": [
            {key: r[key] for key in ("seed", "results_sha256", "cycles", "tally")}
            for r in flat
        ],
    })
    detail[section] = {
        name: {"value": metrics[name], "unit": units[name]} for name in units
    }
    result = {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in listed
    }
    return result, detail, checker


def write_reference(args) -> None:
    """Record the outputs of this seed's campaigns in the reference file."""
    path = Path(args.reference)
    table = json.loads(path.read_text()) if path.exists() else {}
    entries = table.setdefault(args.workload, {})
    deadline_s = REFERENCE_RUNS * DEADLINE_S
    with Runner(args.workload, args.shrink, deadline_s=deadline_s) as runner:
        for n in range(REFERENCE_RUNS):
            seed = campaign_seed(args.seed, n)
            if args.workload == "bt-serve":
                entry = runner.serve_reference(seed)
            else:
                entry = reference_of(runner.run(seed))
            entries[reference_key(seed, args.shrink)] = entry
            path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shrink", action="store_true",
        help="tiny campaigns, for the benchmark's own tests",
    )
    parser.add_argument(
        "--reference", default=str(REFERENCE),
        help="reference digests (default: perfbench/reference.json)",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record this workload and seed's outputs as the reference",
    )
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # Unwind through Runner.__exit__, which kills and reaps live children.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference(args)
            return 0
        metrics, detail, checker = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
