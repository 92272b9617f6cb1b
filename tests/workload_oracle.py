"""Reference client load for differential tests: one simulator event per arrival.

``OracleLoadGenerator`` is the event-chain client that the pull-based
:class:`~repro.workload.ingest.TransactionIngest` replaced.  Each arrival
is a simulator event that fires at the arrival instant, schedules the
client's next arrival, reports the transaction to ``on_submit`` and calls
its target's ``submit_transaction`` (which drops it when the target is
crashed).  The schedule arithmetic is the production one, so an oracle
client and a production client with the same parameters deliver the same
transactions; any divergence in what reaches which pool, in which order,
is a divergence of the ingest.

``OracleLoadRunner`` deploys such clients in a full
:class:`~repro.sim.runner.SimulationRunner` in place of the ingest.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Sequence

from repro.network.simulator import Simulator
from repro.sim.runner import SimulationRunner
from repro.types import SimTime
from repro.workload.generator import MAX_RATE_PER_CLIENT
from repro.workload.transactions import Transaction

SubmitCallback = Callable[[Transaction], None]


class OracleLoadGenerator:
    """One benchmark client whose every arrival is a simulator event."""

    def __init__(
        self,
        client_id: int,
        simulator: Simulator,
        targets: Sequence,
        rate: float,
        duration: SimTime,
        start_time: SimTime,
        submission_delay: SimTime,
        on_submit: SubmitCallback,
        tx_ids: Callable[[], int],
    ) -> None:
        self.client_id = client_id
        self.simulator = simulator
        self.rate = rate
        self.duration = duration
        self.start_time = start_time
        self.submission_delay = submission_delay
        self.on_submit = on_submit
        self.tx_ids = tx_ids
        self.submitted = 0
        self.set_targets(targets)
        self._interval: SimTime = 0.0
        self._first_time: SimTime = start_time
        self._count = 0
        self._next_index = 0

    def start(self) -> None:
        """Schedule the first arrival; each arrival schedules its successor."""
        interval = 1.0 / self.rate
        offset = (self.client_id % 17) * interval / 17.0
        self._interval = interval
        self._first_time = self.start_time + offset
        self._count = int(round(self.rate * self.duration))
        self._next_index = 0
        if self._count > 0:
            self.simulator.schedule_at(
                self._first_time + self.submission_delay, self._deliver_next
            )

    def set_targets(self, targets: Sequence) -> None:
        self.targets = list(targets)
        self._target_cycle = itertools.cycle(self.targets)

    def _deliver_next(self) -> None:
        index = self._next_index
        next_index = index + 1
        self._next_index = next_index
        if next_index < self._count:
            self.simulator.schedule_at(
                self._first_time + next_index * self._interval + self.submission_delay,
                self._deliver_next,
            )
        target = next(self._target_cycle)
        transaction = Transaction(
            self.tx_ids(), self.client_id, self._first_time + index * self._interval, target.id
        )
        self.submitted += 1
        self.on_submit(transaction)
        target.submit_transaction(transaction)


def spawn_oracle_load(
    simulator: Simulator,
    targets: Sequence,
    total_rate: float,
    duration: SimTime,
    start_time: SimTime,
    on_submit: SubmitCallback,
    tx_ids: Callable[[], int],
    first_client_id: int = 0,
) -> List[OracleLoadGenerator]:
    """The oracle counterpart of :func:`repro.workload.generator.spawn_load`."""
    generators: List[OracleLoadGenerator] = []
    remaining = total_rate
    client_index = first_client_id
    while remaining > 1e-9:
        rate = min(MAX_RATE_PER_CLIENT, remaining)
        generator = OracleLoadGenerator(
            client_index, simulator, targets, rate, duration, start_time, 0.040,
            on_submit, tx_ids,
        )
        generator.start()
        generators.append(generator)
        remaining -= rate
        client_index += 1
    return generators


class OracleLoadRunner(SimulationRunner):
    """A :class:`SimulationRunner` whose clients are event chains, not an ingest."""

    def _start_load(self) -> None:
        self.oracle_generators: List[OracleLoadGenerator] = []
        tx_ids = itertools.count().__next__
        on_submit = self.metrics.on_transaction_submitted
        targets = self._load_targets()
        if self.config.load_phases:
            for start, end, tps in self.config.load_phases:
                if tps <= 0:
                    continue
                self.oracle_generators.extend(
                    spawn_oracle_load(
                        self.simulator, targets, tps, end - start, start, on_submit, tx_ids,
                        first_client_id=len(self.oracle_generators),
                    )
                )
        elif self.config.input_load_tps > 0:
            self.oracle_generators = spawn_oracle_load(
                self.simulator, targets, self.config.input_load_tps, self.config.duration, 0.5,
                on_submit, tx_ids,
            )

    def _retarget_clients(self, targets) -> None:
        for generator in self.oracle_generators:
            generator.set_targets(targets)
