"""The campaign scheduler: shardable work units leased to worker processes.

Turns one submitted :class:`~repro.core.campaign.CampaignConfig` into a
fleet of cooperating processes over one :class:`~repro.service.faultdb.FaultDB`:

1. the coordinator plans the campaign once (golden → profile → select,
   checkpointed into the database), records every site's fault
   fingerprint, and *dedups*: sites whose fingerprint already executed —
   in any campaign — get their outcome copied instead of re-run;
2. the remaining indices are sharded into ``units`` rows;
3. N worker processes each rebuild the identical engine (site selection
   is deterministic from the config seed, so every worker derives the
   same plan via ``plan_transient``), then loop: lease a unit
   (``BEGIN IMMEDIATE`` — atomic under concurrent workers), heartbeat it
   from a background thread, pump it through
   :meth:`~repro.core.engine.CampaignEngine.run_batch` (the engine's own
   executor/retry/fast-forward machinery, checkpointing every injection
   into the database), and mark it done;
4. a worker that dies mid-unit simply stops heartbeating: the lease
   expires and the next ``lease_unit`` call requeues the unit.  Completed
   injections inside the dead worker's unit were already checkpointed, so
   only unfinished indices re-run;
5. when every unit is done the coordinator exports ``results.csv``
   (byte-identical to a single-process run) and marks the campaign done.

``worker_main`` is module-level so ``multiprocessing`` can import it under
any start method.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time

from repro.core.engine import CampaignEngine
from repro.core.kinds import CampaignKind
from repro.errors import ReproError
from repro.service.faultdb import FaultDB

#: Lease duration; a worker heartbeats every LEASE_SECONDS / 3, so three
#: consecutive missed beats hand the unit to another worker.
LEASE_SECONDS = 30.0


def shard_units(
    num_sites: int, workers: int, unit_size: int | None = None
) -> list[list[int]]:
    """Contiguous index shards sized so each worker gets several units.

    Several small units per worker (rather than one big one) bound the
    re-run cost of a worker death to one unit and let faster workers steal
    the stragglers' share.
    """
    if num_sites <= 0:
        return []
    if unit_size is None:
        unit_size = max(1, math.ceil(num_sites / max(1, workers * 4)))
    return [
        list(range(start, min(start + unit_size, num_sites)))
        for start in range(0, num_sites, unit_size)
    ]


def _service_config(db: FaultDB, campaign_id: str):
    """The stored config with service defaults applied.

    Campaigns that did not choose a ``replay_cache`` get the DB-adjacent
    shared cache dir: the first worker (usually the coordinator, during
    planning) records the workload's golden tape and every other
    worker/tenant on this database replays it instead of re-recording.
    """
    config = db.campaign_config(campaign_id)
    if config.replay_cache is None and config.fast_forward:
        config = config.with_overrides(
            replay_cache=str(db.replay_cache_dir())
        )
    return config


def worker_main(
    db_path: str,
    campaign_id: str,
    worker_id: str,
    lease_seconds: float = LEASE_SECONDS,
) -> None:
    """One scheduler worker: lease units until none are runnable.

    Runs in its own process.  The engine is rebuilt from the campaign's
    stored config with a FaultDB-backed store, so ``run_batch`` skips
    indices other workers (or the dedup pass) already completed and
    checkpoints each injection the moment it finishes.  When the
    heartbeat thread discovers the lease was lost (this worker was
    presumed dead and the unit requeued), it signals ``run_batch`` to
    abandon the unit after the in-flight injection — the new lease holder
    owns the rest, so finishing it here would be wasted duplicate work.
    """
    db = FaultDB(db_path)
    config = _service_config(db, campaign_id)
    store = db.campaign_store(campaign_id)
    engine = CampaignEngine(config.workload, config, store=store)
    engine.plan_transient()  # deterministic: same plan in every worker
    while True:
        lease = db.lease_unit(campaign_id, worker_id, lease_seconds)
        if lease is None:
            break
        unit_id, indices = lease
        stop_heartbeat = threading.Event()
        lease_lost = threading.Event()
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(
                db,
                campaign_id,
                unit_id,
                worker_id,
                lease_seconds,
                stop_heartbeat,
                lease_lost,
            ),
            daemon=True,
        )
        beat.start()
        try:
            engine.run_batch(indices, stop=lease_lost)
        finally:
            stop_heartbeat.set()
            beat.join()
        if lease_lost.is_set():
            # Completed injections were checkpointed; the unit itself now
            # belongs to whoever re-leased it.  Move on to the next lease.
            continue
        db.complete_unit(campaign_id, unit_id, worker_id)
    db.close()


def _heartbeat_loop(
    db: FaultDB,
    campaign_id: str,
    unit_id: int,
    worker_id: str,
    lease_seconds: float,
    stop: threading.Event,
    lost: threading.Event | None = None,
) -> None:
    while not stop.wait(lease_seconds / 3.0):
        if not db.heartbeat_unit(campaign_id, unit_id, worker_id, lease_seconds):
            # Lease lost (we were presumed dead): stop renewing and tell
            # the worker to abandon the unit instead of finishing it as
            # duplicate work.
            if lost is not None:
                lost.set()
            return


class CampaignScheduler:
    """Coordinates one campaign end-to-end against a FaultDB.

    Lives in the submitting process (the ``repro serve`` coordinator
    thread, or a test).  ``workers=0`` runs the whole campaign inline
    through :meth:`~repro.core.engine.CampaignEngine.run_transient` — the
    path adaptive campaigns always take, since their batch draws are a
    sequential decision process that cannot shard.
    """

    def __init__(
        self,
        db: FaultDB,
        campaign_id: str,
        workers: int = 2,
        lease_seconds: float = LEASE_SECONDS,
        poll_seconds: float = 0.2,
    ) -> None:
        self.db = db
        self.campaign_id = campaign_id
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds

    def run(self) -> None:
        """Plan, dedup, shard, drive workers to completion, export."""
        campaign = self.db.campaign_row(self.campaign_id)
        config = _service_config(self.db, self.campaign_id)
        store = self.db.campaign_store(self.campaign_id)
        self.db.set_campaign_state(self.campaign_id, "running")
        try:
            if campaign["kind"] != CampaignKind.TRANSIENT.value:
                raise ReproError(
                    "the scheduler shards transient campaigns only; "
                    f"got kind {campaign['kind']!r}"
                )
            adaptive = config.stopping is not None or config.sampling is not None
            if self.workers <= 0 or adaptive:
                engine = CampaignEngine(config.workload, config, store=store)
                engine.run_transient()
                self.db.save_artifact(
                    self.campaign_id,
                    "results.csv",
                    self.db.export_results_csv(self.campaign_id).encode(),
                )
                self.db.set_campaign_state(self.campaign_id, "done")
                return
            engine = CampaignEngine(config.workload, config, store=store)
            sites = engine.plan_transient()
            self.db.insert_sites(self.campaign_id, sites)
            self.db.dedupe_campaign(self.campaign_id)
            remaining = sorted(
                set(range(len(sites)))
                - set(self.db.completed_injections(self.campaign_id))
            )
            shards = shard_units(len(remaining), self.workers)
            units = [[remaining[i] for i in shard] for shard in shards]
            self.db.insert_units(self.campaign_id, units)
            if units:
                self._drive_workers()
            self.db.save_artifact(
                self.campaign_id,
                "results.csv",
                self.db.export_results_csv(self.campaign_id).encode(),
            )
            self.db.set_campaign_state(self.campaign_id, "done")
        except BaseException as exc:
            self.db.set_campaign_state(self.campaign_id, "failed", error=str(exc))
            raise

    def _drive_workers(self) -> None:
        """Spawn workers and poll until every unit is done.

        Workers exit when no unit is runnable, which can happen while a
        slow peer still holds live leases — so the pool is respawned as
        long as undone units exist and no worker is alive (covering both
        the everyone-finished-early race and genuine worker deaths after
        lease expiry)."""
        procs = self._spawn()
        while not self.db.all_units_done(self.campaign_id):
            if not any(p.is_alive() for p in procs):
                # All workers gone but units remain: leases must expire
                # before the replacements can claim them.
                self._await_expiry()
                procs = self._spawn()
            time.sleep(self.poll_seconds)
        for proc in procs:
            proc.join()

    def _spawn(self) -> list[multiprocessing.Process]:
        procs = []
        for n in range(self.workers):
            proc = multiprocessing.Process(
                target=worker_main,
                args=(
                    str(self.db.path),
                    self.campaign_id,
                    f"{self.campaign_id}-w{n}",
                    self.lease_seconds,
                ),
            )
            proc.start()
            procs.append(proc)
        return procs

    def _await_expiry(self) -> None:
        while not self.db.all_units_done(self.campaign_id):
            if self.db.has_runnable_unit(self.campaign_id):
                return
            time.sleep(self.poll_seconds)
