"""Pull-based client load: every arrival of a run, delivered in bulk.

A validator's transaction pool is read only when it cuts a batch for a
proposal, so client transactions do not need a simulator event each.
The :class:`TransactionIngest` of a run holds every client's arithmetic
schedule (see :class:`~repro.workload.generator.LoadGenerator`) and, when
asked to :meth:`~TransactionIngest.drain` up to an instant, delivers all
arrivals due before it at once: it merges them across clients in arrival
order, numbers them, appends each to its round-robin target's pool
unless that target is crashed, and reports the drained transactions to
the submission callback in one call.

A deployment drains at exactly four points:

* when a validator cuts a batch (``ValidatorNode._next_batch``, the
  pool's only consumer);
* just before ``ValidatorNode.crash()`` or ``recover()`` flips a
  validator's state, so each arrival sees the state its target had at
  its arrival instant;
* just before clients are retargeted (:meth:`TransactionIngest.retarget`,
  partition failover), so earlier arrivals keep their old targets;
* once at the end of the run (:meth:`TransactionIngest.finish`), so every
  arrival up to the horizon counts as submitted.

**Same-instant rule.** An arrival due exactly at a draining instant is
left for the next drain: the batch cut, state flip or retarget at that
instant happens first.  The one-event-per-arrival chain this replaces
resolved such ties by scheduling order and queued each arrival one
interval ahead, so fault events, retargets and everything else queued
earlier for that instant ran before the arrival, as here.  Only a batch
cut by an event queued within that last interval (a zero-delay follow-up
at the same instant) saw the arrival first under the chain.  The
end-of-run drain includes arrivals due exactly at the horizon, which the
event loop ran.

**Arrival order.** Arrivals that fall on the same instant are ordered
exactly as the event chain's queue ordered them: each client's next
arrival carries a sequence number issued when the previous one was
delivered (first arrivals are numbered in the order the clients were
added), and ties go to the lower number.  Transaction ids follow this
order, so they do not depend on where the drains fall.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heapreplace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.types import SimTime
from repro.workload.generator import LoadGenerator
from repro.workload.transactions import Transaction

# Receives each drain's transactions (every arrival, pooled or dropped at
# a crashed target), in arrival order.
SubmitCallback = Callable[[Sequence[Transaction]], None]

# ``Transaction(...)`` runs the generated NamedTuple constructor, which
# was measurable once per transaction; the tuple constructor is not.
_new_tuple = tuple.__new__
_KIND = Transaction._field_defaults["kind"]
_PAYLOAD_BYTES = Transaction._field_defaults["payload_bytes"]


class TransactionIngest:
    """Delivers every client's due arrivals of one run on demand."""

    def __init__(self, on_submit: Optional[SubmitCallback] = None) -> None:
        self.on_submit = on_submit
        self.generators: List[LoadGenerator] = []
        # One entry per client with arrivals left: (arrival instant,
        # sequence, submission instant, generator).  Sequences are unique,
        # so comparisons never reach the generator.
        self._pending: List[Tuple[SimTime, int, SimTime, LoadGenerator]] = []
        self._sequence = 0
        # Per-run transaction ids: identical runs give identical ids,
        # whatever ran earlier in the process.
        self._next_tx_id = 0

    def add(self, generator: LoadGenerator) -> None:
        """Start ``generator``'s schedule and take over its deliveries."""
        generator.start()
        self.generators.append(generator)
        if generator.count > 0:
            submitted_at = generator.submission_time(0)
            heappush(
                self._pending,
                (submitted_at + generator.submission_delay, self._sequence, submitted_at, generator),
            )
            self._sequence += 1

    def drain(self, now: SimTime) -> None:
        """Deliver every arrival due before ``now``."""
        pending = self._pending
        if not pending or pending[0][0] >= now:
            return
        tx_id = self._next_tx_id
        sequence = self._sequence
        drained: List[Transaction] = []
        append = drained.append
        while True:
            _, _, submitted_at, generator = pending[0]
            target, next_submission = generator._deliver_next()
            transaction = _new_tuple(
                Transaction,
                (tx_id, generator.client_id, submitted_at, target.id, _KIND, _PAYLOAD_BYTES),
            )
            tx_id += 1
            append(transaction)
            if not target.crashed:
                target.transaction_pool.append(transaction)
                target.transactions_submitted += 1
            if next_submission is not None:
                arrival = next_submission + generator.submission_delay
                heapreplace(pending, (arrival, sequence, next_submission, generator))
                sequence += 1
            else:
                heappop(pending)
                if not pending:
                    break
            if pending[0][0] >= now:
                break
        self._next_tx_id = tx_id
        self._sequence = sequence
        if self.on_submit is not None:
            self.on_submit(drained)

    def finish(self, horizon: SimTime) -> None:
        """Deliver every arrival due at or before ``horizon`` (the end of a run)."""
        self.drain(math.nextafter(horizon, math.inf))

    def retarget(self, targets: Sequence, now: SimTime) -> None:
        """Fail every client over to ``targets`` at ``now``."""
        self.drain(now)
        for generator in self.generators:
            generator.set_targets(targets)
