"""Unit tests for transactions, load generators and the pull-based ingest."""

import math
from collections import deque

import pytest

from repro.errors import WorkloadError
from repro.workload.generator import MAX_RATE_PER_CLIENT, LoadGenerator, spawn_load
from repro.workload.ingest import TransactionIngest
from repro.workload.transactions import counter_increment


class FakeValidator:
    """Minimal stand-in for a ValidatorNode as a load target (the pool slice)."""

    def __init__(self, validator_id):
        self.id = validator_id
        self.crashed = False
        self.transaction_pool = deque()
        self.transactions_submitted = 0

    @property
    def received(self):
        return list(self.transaction_pool)


def deliver_all(*generators, on_submit=None):
    """Add ``generators`` to a fresh ingest and drain it to the end."""
    ingest = TransactionIngest(on_submit=on_submit)
    for generator in generators:
        ingest.add(generator)
    ingest.drain(math.inf)
    return ingest


class TestTransactions:
    def test_counter_increment_fields(self):
        transaction = counter_increment(7, client_id=2, submitted_at=1.5, target_validator=3)
        assert transaction.tx_id == 7
        assert transaction.client_id == 2
        assert transaction.submitted_at == 1.5
        assert transaction.target_validator == 3
        assert transaction.kind == "counter_increment"

    def test_transactions_are_hashable_and_frozen(self):
        transaction = counter_increment(1, 0, 0.0, 0)
        assert hash(transaction) is not None
        with pytest.raises(Exception):
            transaction.tx_id = 9

    def test_canonical_fields_exclude_timing(self):
        first = counter_increment(1, 0, 0.0, 0)
        second = counter_increment(1, 0, 5.0, 0)
        assert first.canonical_fields() == second.canonical_fields()


class TestLoadGenerator:
    def test_submits_at_requested_rate(self):
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            targets=[target],
            rate=100.0,
            duration=2.0,
            submission_delay=0.0,
        )
        deliver_all(generator)
        assert generator.submitted == 200
        assert len(target.received) == 200

    def test_round_robin_over_targets(self):
        targets = [FakeValidator(index) for index in range(4)]
        generator = LoadGenerator(
            client_id=0,
            targets=targets,
            rate=40.0,
            duration=1.0,
            submission_delay=0.0,
        )
        deliver_all(generator)
        counts = [len(target.received) for target in targets]
        assert sum(counts) == 40
        assert max(counts) - min(counts) <= 1

    def test_submission_delay_is_applied(self):
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            targets=[target],
            rate=10.0,
            duration=0.5,
            submission_delay=0.2,
        )
        ingest = TransactionIngest()
        ingest.add(generator)
        ingest.drain(0.2)
        assert target.received == []
        ingest.drain(0.2 + 1e-9)
        assert len(target.received) == 1
        ingest.drain(math.inf)
        assert len(target.received) == 5

    def test_on_submit_callback(self):
        seen = []
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0,
            targets=[target],
            rate=10.0,
            duration=1.0,
        )
        deliver_all(generator, on_submit=seen.extend)
        assert len(seen) == 10
        assert all(transaction.client_id == 0 for transaction in seen)

    def test_rate_above_per_client_cap_rejected(self):
        with pytest.raises(WorkloadError):
            LoadGenerator(0, [FakeValidator(0)], rate=500.0, duration=1.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(WorkloadError):
            LoadGenerator(0, [FakeValidator(0)], rate=0.0, duration=1.0)

    def test_empty_targets_rejected(self):
        with pytest.raises(WorkloadError):
            LoadGenerator(0, [], rate=10.0, duration=1.0)

    def test_transaction_ids_are_unique(self):
        seen = []
        targets = [FakeValidator(0)]
        generators = [
            LoadGenerator(client_id=client, targets=targets, rate=50.0, duration=1.0)
            for client in range(2)
        ]
        deliver_all(*generators, on_submit=seen.extend)
        ids = [transaction.tx_id for transaction in seen]
        assert len(ids) == len(set(ids)) == 100


class TestSpawnLoad:
    def test_spawns_enough_clients_for_total_rate(self):
        generators = spawn_load(
            TransactionIngest(), [FakeValidator(0)], total_rate=1000.0, duration=1.0
        )
        assert len(generators) == 3  # 350 + 350 + 300
        assert sum(generator.rate for generator in generators) == pytest.approx(1000.0)
        assert all(generator.rate <= MAX_RATE_PER_CLIENT for generator in generators)

    def test_single_client_for_small_rate(self):
        generators = spawn_load(
            TransactionIngest(), [FakeValidator(0)], total_rate=100.0, duration=1.0
        )
        assert len(generators) == 1

    def test_total_submissions_match_rate(self):
        target = FakeValidator(0)
        ingest = TransactionIngest()
        spawn_load(ingest, [target], total_rate=700.0, duration=2.0, submission_delay=0.0)
        ingest.drain(math.inf)
        assert len(target.received) == pytest.approx(1400, abs=5)

    def test_zero_rate_rejected(self):
        with pytest.raises(WorkloadError):
            spawn_load(TransactionIngest(), [FakeValidator(0)], total_rate=0.0, duration=1.0)


class TestPullBasedIngest:
    """Arrivals are pulled in bulk at drain points, never scheduled as events."""

    def test_workload_schedules_no_simulator_events(self, simulator):
        target = FakeValidator(0)
        ingest = TransactionIngest()
        ingest.add(
            LoadGenerator(
                client_id=0,
                targets=[target],
                rate=100.0,
                duration=1.0,
                submission_delay=0.040,
            )
        )
        simulator.run(until=2.0)
        assert simulator.events_fired == 0
        assert target.received == []
        ingest.drain(simulator.now)
        assert len(target.received) == 100

    def test_submitted_at_precedes_arrival_by_delay(self):
        seen = []
        target = FakeValidator(0)
        ingest = TransactionIngest(on_submit=seen.extend)
        ingest.add(
            LoadGenerator(
                client_id=0,
                targets=[target],
                rate=50.0,
                duration=1.0,
                submission_delay=0.25,
            )
        )
        arrivals = []
        previous = 0.0
        for step in range(1, 1501):
            now = step * 0.001
            already = len(seen)
            ingest.drain(now)
            for transaction in seen[already:]:
                # Delivered by the first drain after its arrival.
                assert previous <= transaction.submitted_at + 0.25 < now
                arrivals.append((transaction, now))
            previous = now
        assert len(arrivals) == 50
        for transaction, arrived_at in arrivals:
            assert arrived_at == pytest.approx(transaction.submitted_at + 0.25, abs=0.002)

    def test_submission_timestamps_follow_the_rate(self):
        seen = []
        generator = LoadGenerator(
            client_id=0,
            targets=[FakeValidator(0)],
            rate=10.0,
            duration=1.0,
        )
        deliver_all(generator, on_submit=seen.extend)
        gaps = [b.submitted_at - a.submitted_at for a, b in zip(seen, seen[1:])]
        assert all(gap == pytest.approx(0.1) for gap in gaps)

    def test_arrival_at_the_draining_instant_waits_for_the_next_drain(self):
        target = FakeValidator(0)
        generator = LoadGenerator(
            client_id=0, targets=[target], rate=10.0, duration=1.0, submission_delay=0.0
        )
        ingest = TransactionIngest()
        ingest.add(generator)
        third_arrival = generator.submission_time(2)
        ingest.drain(third_arrival)
        assert [t.submitted_at for t in target.received] == [
            generator.submission_time(index) for index in range(2)
        ]
        ingest.finish(third_arrival)
        assert len(target.received) == 3

    def test_drains_merge_clients_in_arrival_order(self):
        target = FakeValidator(0)
        generators = [
            LoadGenerator(client_id=client, targets=[target], rate=rate, duration=1.0)
            for client, rate in enumerate((30.0, 70.0, 110.0))
        ]
        ingest = TransactionIngest()
        for generator in generators:
            ingest.add(generator)
        for step in range(1, 12):
            ingest.drain(step * 0.1)
        arrivals = [t.submitted_at for t in target.received]
        assert arrivals == sorted(arrivals)
        assert [t.tx_id for t in target.received] == list(range(210))

    def test_retarget_keeps_earlier_arrivals_on_old_targets(self):
        old, new = FakeValidator(0), FakeValidator(1)
        generator = LoadGenerator(
            client_id=0, targets=[old], rate=10.0, duration=1.0, submission_delay=0.0
        )
        ingest = TransactionIngest()
        ingest.add(generator)
        ingest.retarget([new], 0.45)
        ingest.drain(math.inf)
        assert len(old.received) == 5
        assert len(new.received) == 5
        assert all(t.submitted_at > 0.45 for t in new.received)

    def test_crashed_target_counts_but_never_pools(self):
        """An arrival at a crashed validator is submitted, not pooled."""
        from repro.faults.crash import CrashRecoveryFault
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.runner import SimulationRunner

        config = ExperimentConfig(
            committee_size=4,
            input_load_tps=200.0,
            duration=8.0,
            warmup=1.0,
            seed=3,
            extra_faults=(CrashRecoveryFault(validators=(3,), crash_at=2.0, recover_at=4.0),),
        )
        runner = SimulationRunner(config)
        submitted = []
        record = runner.metrics.on_transactions_submitted

        def spy(transactions):
            submitted.extend(transactions)
            record(transactions)

        runner.metrics.on_transactions_submitted = spy
        runner.run()
        node = runner.nodes[3]
        for_node = [t for t in submitted if t.target_validator == 3]
        while_down = {t for t in for_node if 2.0 <= t.submitted_at + 0.040 < 4.0}
        after_recovery = {t for t in for_node if t.submitted_at + 0.040 >= 4.0}
        proposed = {
            transaction
            for _, vertex in node.store.family("own_proposals").items()
            for transaction in vertex.block
        }
        reached_node = proposed | set(node.transaction_pool)
        assert while_down and after_recovery
        assert not while_down & reached_node
        assert after_recovery <= reached_node
        assert reached_node == set(for_node) - while_down
        assert node.transactions_submitted == len(reached_node)
        assert runner.metrics.submitted == len(submitted)

    def test_runs_are_deterministic_end_to_end(self):
        """Same config, same bytes."""
        from repro.sim.experiment import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            committee_size=4, input_load_tps=300.0, duration=8.0, warmup=2.0, seed=6
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.ordering_digests == second.ordering_digests
        assert first.report.as_dict() == second.report.as_dict()

    def test_transaction_ids_are_per_run(self):
        """Back-to-back identical runs in one process number their transactions alike."""
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.runner import SimulationRunner

        config = ExperimentConfig(
            committee_size=4, input_load_tps=300.0, duration=6.0, warmup=1.0, seed=6
        )

        def committed_ids():
            runner = SimulationRunner(config)
            ids = []
            runner.nodes[config.observer].on_ordered(
                lambda record: ids.extend(t.tx_id for t in record.vertex.block)
            )
            runner.run()
            return ids

        first = committed_ids()
        second = committed_ids()
        assert first
        assert first == second


class TestLoadPhases:
    def test_phase_validation(self):
        from repro.workload.phases import LoadPhase, validate_phases

        with pytest.raises(WorkloadError):
            LoadPhase(2.0, 1.0, 100.0)
        with pytest.raises(WorkloadError):
            LoadPhase(-1.0, 1.0, 100.0)
        with pytest.raises(WorkloadError):
            validate_phases([LoadPhase(0.0, 2.0, 10.0), LoadPhase(1.0, 3.0, 10.0)])

    def test_burst_shape(self):
        from repro.workload.phases import burst_phases

        phases = burst_phases(100.0, 400.0, burst_start=5.0, burst_end=10.0, start=0.0, end=20.0)
        assert [(p.start, p.end, p.tps) for p in phases] == [
            (0.0, 5.0, 100.0),
            (5.0, 10.0, 400.0),
            (10.0, 20.0, 100.0),
        ]

    def test_ramp_shape(self):
        from repro.workload.phases import ramp_phases

        phases = ramp_phases(100.0, 400.0, steps=4, start=0.0, end=8.0)
        assert [p.tps for p in phases] == [100.0, 200.0, 300.0, 400.0]
        assert phases[-1].end == 8.0

    def test_diurnal_shape_clamps_at_zero(self):
        from repro.workload.phases import diurnal_phases

        phases = diurnal_phases(
            base_tps=100.0, amplitude=300.0, period=10.0, steps=10, start=0.0, end=10.0
        )
        assert all(p.tps >= 0.0 for p in phases)
        assert any(p.tps == 0.0 for p in phases)
        assert any(p.tps > 100.0 for p in phases)

    def test_average_tps_is_time_weighted(self):
        from repro.workload.phases import LoadPhase, average_tps

        phases = [LoadPhase(0.0, 1.0, 100.0), LoadPhase(1.0, 4.0, 500.0)]
        assert average_tps(phases) == pytest.approx((100.0 + 3 * 500.0) / 4.0)

    def test_spawn_phased_load_skips_quiet_windows(self):
        from repro.workload.phases import LoadPhase, spawn_phased_load

        target = FakeValidator(0)
        ingest = TransactionIngest()
        generators = spawn_phased_load(
            ingest,
            [target],
            [LoadPhase(0.0, 1.0, 100.0), LoadPhase(1.0, 2.0, 0.0), LoadPhase(2.0, 3.0, 50.0)],
            submission_delay=0.0,
        )
        ingest.drain(math.inf)
        assert len(generators) == 2
        assert len(target.received) == 150
        # No transaction was submitted during the quiet window.
        quiet = [t for t in target.received if 1.0 < t.submitted_at < 2.0]
        assert quiet == []
