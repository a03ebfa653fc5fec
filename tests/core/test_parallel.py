"""Parallel campaign-runner tests."""

import pytest

import repro
from repro.core.campaign import CampaignConfig
from repro.core.engine import ParallelExecutor

_CONFIG = dict(workload="314.omriq", num_transient=6, seed=13)


@pytest.mark.slow
class TestParallelCampaign:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        serial = repro.run_campaign(CampaignConfig(**_CONFIG))
        parallel = repro.run_campaign(
            CampaignConfig(**_CONFIG), executor=ParallelExecutor(max_workers=2)
        )
        return serial, parallel

    def test_same_number_of_results(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert len(parallel.results) == len(serial.results) == 6

    def test_same_sites_selected(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert [r.params for r in parallel.results] == [
            r.params for r in serial.results
        ]

    def test_same_outcomes(self, serial_and_parallel):
        """Determinism across process boundaries: the simulator is seeded,
        so parallel execution must not change a single classification."""
        serial, parallel = serial_and_parallel
        assert [r.outcome.outcome for r in parallel.results] == [
            r.outcome.outcome for r in serial.results
        ]

    def test_tally_matches(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert parallel.tally.fractions() == serial.tally.fractions()

    def test_records_transferred(self, serial_and_parallel):
        _, parallel = serial_and_parallel
        assert all(r.record.injected for r in parallel.results)


@pytest.mark.slow
class TestNonDefaultSandboxPropagation:
    """Regression: workers used to rebuild ``SandboxConfig`` from ``seed``
    and ``instruction_budget`` only, silently dropping ``family``,
    ``num_sms``, ``global_mem_bytes`` and ``extra_env`` — a campaign with a
    non-default sandbox produced different outcomes in parallel than
    sequentially."""

    @pytest.fixture(scope="class")
    def runs(self):
        from repro.runner.sandbox import SandboxConfig

        def config():
            return CampaignConfig(
                workload="314.omriq",
                num_transient=4,
                seed=13,
                sandbox=SandboxConfig(
                    num_sms=4, family="turing", extra_env={"MODE": "strict"}
                ),
            )

        serial = repro.run_campaign(config())
        parallel = repro.run_campaign(
            config(), executor=ParallelExecutor(max_workers=2)
        )
        return serial, parallel

    def test_same_sites(self, runs):
        serial, parallel = runs
        assert [r.params for r in parallel.results] == [
            r.params for r in serial.results
        ]

    def test_same_records(self, runs):
        """Records carry SM ids; with ``num_sms=4`` dropped, the worker's
        default Volta device (80 SMs) scheduled blocks differently."""
        serial, parallel = runs
        assert [r.record for r in parallel.results] == [
            r.record for r in serial.results
        ]
        injected = [r.record for r in serial.results if r.record.injected]
        assert injected and all(r.sm_id < 4 for r in injected)

    def test_same_tally(self, runs):
        serial, parallel = runs
        assert parallel.tally.fractions() == serial.tally.fractions()
