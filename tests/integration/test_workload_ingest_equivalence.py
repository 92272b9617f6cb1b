"""Deployments with the pull-based ingest match the one-event-per-arrival chain.

Each registry scenario below runs twice at smoke scale: once as shipped
(client load pulled by the :class:`~repro.workload.ingest.TransactionIngest`)
and once with the event-chain clients of ``tests/workload_oracle.py``.
The scenarios cover constant load (``faultless``) and the ingest's other
branches: phased load (``load-spike``), client retargeting
(``partition-failover``) and arrivals at crashed and recovered
validators (``rolling-crash-churn``).  The report, the
ordering digests and the number of transactions each validator received
must agree; only the event count drops, by exactly one event per arrival.

Batch composition is not compared: when a batch is cut by an event the
protocol scheduled at that very instant (a zero-delay follow-up of a
timer), the event chain ran an arrival due at the same instant first,
while the ingest leaves it for the next batch (the same-instant rule).
"""

import pytest

from repro.scenarios import compile_spec, get_scenario
from repro.sim.runner import SimulationRunner
from tests.workload_oracle import OracleLoadRunner

SCENARIOS = ["load-spike", "partition-failover", "rolling-crash-churn", "faultless"]


def observe(runner):
    result = runner.run()
    report = result.report.as_dict()
    events = report.pop("events_fired")
    report["extra"] = {k: v for k, v in report.get("extra", {}).items() if k != "events_fired"}
    return events, {
        "report": report,
        "ordering_digests": result.ordering_digests,
        "pooled": {v: node.transactions_submitted for v, node in runner.nodes.items()},
    }


@pytest.mark.parametrize("name", SCENARIOS)
def test_ingest_deployment_matches_event_chain(name):
    point = compile_spec(get_scenario(name).smoke())[0]
    oracle = OracleLoadRunner(point.config)
    oracle_events, expected = observe(oracle)
    pulled_events, observed = observe(SimulationRunner(point.config))
    assert expected["report"]["submitted_transactions"] > 0
    assert observed == expected
    # The workload schedules no simulator events: the chain fired one per
    # arrival within the run, the ingest none.
    assert pulled_events == oracle_events - oracle.metrics.submitted
