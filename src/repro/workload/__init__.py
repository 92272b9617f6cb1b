"""Workload generation: clients submitting transactions at a fixed rate.

The paper's benchmark clients each submit at most 350 tx/s of simple
shared-counter increments for ten minutes; the number of clients depends
on the target load.  :class:`LoadGenerator` reproduces that behaviour in
virtual time as a closed-form schedule, and a run's
:class:`TransactionIngest` delivers the due arrivals into the validators'
pools (and reports them to the metrics collector) whenever a pool is read.
"""

from repro.workload.transactions import Transaction, counter_increment
from repro.workload.generator import LoadGenerator, spawn_load
from repro.workload.ingest import TransactionIngest
from repro.workload.phases import (
    LoadPhase,
    average_tps,
    burst_phases,
    diurnal_phases,
    ramp_phases,
    spawn_phased_load,
)

__all__ = [
    "Transaction",
    "counter_increment",
    "LoadGenerator",
    "TransactionIngest",
    "spawn_load",
    "LoadPhase",
    "average_tps",
    "burst_phases",
    "ramp_phases",
    "diurnal_phases",
    "spawn_phased_load",
]
