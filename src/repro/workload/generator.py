"""Fixed-rate load generators.

Each :class:`LoadGenerator` models one geo-distributed benchmark client:
it submits transactions at a constant rate to a set of target validators
(round-robin), adding the client-to-validator network delay before the
transaction enters the validator's pool.  Mirroring the paper, a single
client never submits more than ``MAX_RATE_PER_CLIENT`` transactions per
second; :func:`spawn_load` creates as many clients as needed for a target
system load.

A generator is pure arithmetic: its schedule is a closed form in the
transaction index, and it never touches the simulator's event queue.
The run's :class:`~repro.workload.ingest.TransactionIngest` delivers the
due arrivals in bulk at four drain points: when a validator cuts a
batch, just before a validator crashes or recovers, just before clients
are retargeted, and at the end of the run.  An arrival due exactly at a
draining instant comes after the batch cut, state flip or retarget at
that instant; the end-of-run drain includes arrivals at the horizon.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.types import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.node.validator import ValidatorNode
    from repro.workload.ingest import TransactionIngest

# The paper: "each benchmark client submits at most 350 tx/s".
MAX_RATE_PER_CLIENT = 350.0


class LoadGenerator:
    """One benchmark client submitting at a fixed rate.

    Transaction ``index`` (counting from 0) is submitted at
    ``first_time + index * interval`` and arrives at its target at that
    instant plus ``submission_delay``.  Both are computed by index rather
    than by accumulation, so floating-point drift never adds or drops a
    transaction.
    """

    def __init__(
        self,
        client_id: int,
        targets: Sequence["ValidatorNode"],
        rate: float,
        duration: SimTime,
        start_time: SimTime = 0.0,
        submission_delay: SimTime = 0.040,
    ) -> None:
        if rate <= 0:
            raise WorkloadError("the submission rate must be positive")
        if rate > MAX_RATE_PER_CLIENT + 1e-9:
            raise WorkloadError(
                f"a single client submits at most {MAX_RATE_PER_CLIENT} tx/s; "
                "use spawn_load() to create several clients"
            )
        if not targets:
            raise WorkloadError("a load generator needs at least one target validator")
        if duration <= 0:
            raise WorkloadError("the load duration must be positive")
        self.client_id = client_id
        self.targets = list(targets)
        self.rate = rate
        self.duration = duration
        self.start_time = start_time
        self.submission_delay = submission_delay
        self._target_cycle = itertools.cycle(self.targets)
        # Schedule, fixed by start().
        self._interval: SimTime = 0.0
        self._first_time: SimTime = start_time
        self._count = 0
        # Index of the next transaction to deliver.
        self._next_index = 0

    @property
    def submitted(self) -> int:
        """Transactions delivered so far (pooled or dropped at a crashed target)."""
        return self._next_index

    @property
    def count(self) -> int:
        """Transactions this client submits over its whole window."""
        return self._count

    def start(self) -> None:
        """Fix the submission schedule for the configured duration."""
        interval = 1.0 / self.rate
        # Stagger clients slightly so submissions do not all land on the
        # same instant when many clients are created.
        offset = (self.client_id % 17) * interval / 17.0
        self._interval = interval
        self._first_time = self.start_time + offset
        self._count = int(round(self.rate * self.duration))
        self._next_index = 0

    def submission_time(self, index: int) -> SimTime:
        """When the client submits transaction ``index``."""
        return self._first_time + index * self._interval

    def set_targets(self, targets: Sequence["ValidatorNode"]) -> None:
        """Fail the client over to a new target set (partition failover).

        The round-robin cycle restarts at the head of the new set; no RNG
        is involved, so retargeting keeps runs deterministic.  A running
        deployment retargets through
        :meth:`~repro.workload.ingest.TransactionIngest.retarget`, which
        first delivers every arrival due under the old targets.
        """
        if not targets:
            raise WorkloadError("a load generator needs at least one target validator")
        self.targets = list(targets)
        self._target_cycle = itertools.cycle(self.targets)

    def _deliver_next(self) -> Tuple["ValidatorNode", Optional[SimTime]]:
        """Advance past the next transaction (one step of the schedule).

        Returns the transaction's round-robin target and the submission
        instant of the transaction after it, or ``None`` once the
        schedule is exhausted.  The ingest calls this once per arrival.
        """
        index = self._next_index + 1
        self._next_index = index
        target = next(self._target_cycle)
        if index < self._count:
            return target, self._first_time + index * self._interval
        return target, None


def spawn_load(
    ingest: "TransactionIngest",
    targets: Sequence["ValidatorNode"],
    total_rate: float,
    duration: SimTime,
    start_time: SimTime = 0.0,
    submission_delay: SimTime = 0.040,
    first_client_id: int = 0,
) -> List[LoadGenerator]:
    """Create enough clients to reach ``total_rate`` tx/s and add them to ``ingest``.

    Clients are added in units of at most 350 tx/s, exactly like the
    paper's deployment selects the number of load generators.
    ``first_client_id`` offsets the client ids, so phased workloads (see
    :mod:`repro.workload.phases`) give every phase's clients distinct
    submission stagger offsets.
    """
    if total_rate <= 0:
        raise WorkloadError("the total load must be positive")
    generators: List[LoadGenerator] = []
    remaining = total_rate
    client_index = first_client_id
    while remaining > 1e-9:
        rate = min(MAX_RATE_PER_CLIENT, remaining)
        generator = LoadGenerator(
            client_id=client_index,
            targets=targets,
            rate=rate,
            duration=duration,
            start_time=start_time,
            submission_delay=submission_delay,
        )
        ingest.add(generator)
        generators.append(generator)
        remaining -= rate
        client_index += 1
    return generators
