"""Differential property of the pull-based client-load ingest.

The :class:`~repro.workload.ingest.TransactionIngest` must deliver exactly
what the one-event-per-arrival chain (``tests/workload_oracle.py``)
delivered: the same transactions, in the same order, into the same pools,
with crashed targets dropping the same arrivals and retargeting splitting
the stream at the same point.  Both worlds run real (never-started)
validators driven by the same timeline of crashes, recoveries, retargets
and batch cuts; the ingest world drains only at its documented points.

Timeline events are scheduled before the clients start, as a runner
schedules its fault plans, and are often placed exactly on an arrival
instant: the event chain then ran the timeline event first, which the
ingest's same-instant rule must reproduce.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committee import Committee
from repro.core.manager import StaticScheduleManager
from repro.metrics.collector import MetricsCollector
from repro.network.latency import UniformLatencyModel
from repro.network.simulator import Simulator
from repro.network.transport import Network
from repro.node.config import NodeConfig
from repro.node.validator import ValidatorNode
from repro.schedule.round_robin import initial_schedule
from repro.workload.generator import LoadGenerator
from repro.workload.ingest import TransactionIngest
from tests.workload_oracle import OracleLoadGenerator

COMMITTEE = 4

clients = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([350.0, 175.0, 100.0, 50.0, 10.0]), st.floats(1.0, 350.0)),
        st.one_of(st.just(0.5), st.floats(0.0, 2.0)),  # start time
        st.floats(0.05, 3.0),  # duration
    ),
    min_size=1,
    max_size=5,
)
# An instant: either any time, or (as an index into the sorted arrival
# instants) exactly on an arrival.
instants = st.one_of(st.floats(0.0, 6.0), st.integers(0, 10**6))
timeline = st.lists(
    st.tuples(
        instants,
        st.sampled_from(["crash", "recover", "cut", "retarget"]),
        st.integers(0, COMMITTEE - 1),  # validator (crash/recover/cut)
        st.integers(1, (1 << COMMITTEE) - 1),  # target mask (retarget)
    ),
    max_size=12,
)
# Crash windows: (validator, crash instant, downtime).
windows = st.lists(
    st.tuples(st.integers(0, COMMITTEE - 1), instants, st.floats(0.01, 2.0)),
    max_size=3,
)


def build_nodes(simulator):
    committee = Committee.build(COMMITTEE)
    network = Network(simulator, latency_model=UniformLatencyModel(base_delay=0.01, jitter=0.0))
    schedule = initial_schedule(committee, seed=1)
    # Never started, so nothing but the timeline touches the pools.
    config = NodeConfig(max_batch_size=40)
    return [
        ValidatorNode(v, committee, network, StaticScheduleManager(committee, schedule), config)
        for v in committee.validators
    ]


def arrival_instants(client_specs, client_ids, delay):
    instants = set()
    for client_id, (rate, start, duration) in zip(client_ids, client_specs):
        generator = LoadGenerator(client_id, [None], rate, duration, start, delay)
        generator.start()
        instants.update(generator.submission_time(k) + delay for k in range(generator.count))
    return sorted(instants)


def resolve(instant, arrivals):
    if isinstance(instant, int):
        return arrivals[instant % len(arrivals)] if arrivals else 0.0
    return instant


def run_world(scenario, use_ingest):
    client_specs, client_ids, delay, target_count, events, horizon = scenario
    simulator = Simulator(seed=1)
    nodes = build_nodes(simulator)
    targets = nodes[:target_count]
    metrics = MetricsCollector()
    batches = {node.id: [] for node in nodes}
    generators = []

    def retarget(mask):
        chosen = [node for node in nodes if mask >> node.id & 1]
        if use_ingest:
            ingest.retarget(chosen, simulator.now)
        else:
            for generator in generators:
                generator.set_targets(chosen)

    for time, kind, validator, mask in events:
        node = nodes[validator]
        if kind == "crash":
            action = node.crash
        elif kind == "recover":
            action = node.recover
        elif kind == "cut":
            action = lambda node=node: batches[node.id].append(list(node._next_batch()))
        else:
            action = lambda mask=mask: retarget(mask)
        simulator.schedule_at(time, action)
    if use_ingest:
        ingest = TransactionIngest(on_submit=metrics.on_transactions_submitted)
        generators.extend(
            LoadGenerator(client_id, targets, rate, duration, start, delay)
            for client_id, (rate, start, duration) in zip(client_ids, client_specs)
        )
        for generator in generators:
            ingest.add(generator)
        for node in nodes:
            node.ingest = ingest
    else:
        tx_ids = itertools.count().__next__
        generators.extend(
            OracleLoadGenerator(
                client_id, simulator, targets, rate, duration, start, delay,
                metrics.on_transaction_submitted, tx_ids,
            )
            for client_id, (rate, start, duration) in zip(client_ids, client_specs)
        )
        for generator in generators:
            generator.start()
    simulator.run(until=horizon)
    if use_ingest:
        ingest.finish(horizon)

    def view(transactions):
        return [(t.tx_id, t.client_id, t.submitted_at, t.target_validator) for t in transactions]

    return {
        "batches": {v: [view(batch) for batch in cut] for v, cut in batches.items()},
        # A recovery re-enters round 1 and proposes, cutting a batch too.
        "proposals": {
            node.id: [view(vertex.block) for _, vertex in node.store.family("own_proposals").items()]
            for node in nodes
        },
        "pools": {node.id: view(node.transaction_pool) for node in nodes},
        "pooled": {node.id: node.transactions_submitted for node in nodes},
        "generators": [generator.submitted for generator in generators],
        "submitted": metrics.submitted,
        "submit_times": metrics._submit_times,
    }


@settings(max_examples=200, deadline=None)
@given(
    client_specs=clients,
    first_client_id=st.integers(0, 40),
    # Client ids 17 apart share a stagger offset: equal rates and start
    # times then put two clients' arrivals on the very same instants.
    id_stride=st.sampled_from([1, 17]),
    delay=st.sampled_from([0.0, 0.040, 0.1, 0.25]),
    target_count=st.integers(1, COMMITTEE),
    events=timeline,
    down=windows,
    horizon=instants,
)
def test_ingest_delivers_what_the_event_chain_delivered(
    client_specs, first_client_id, id_stride, delay, target_count, events, down, horizon
):
    client_ids = [first_client_id + index * id_stride for index in range(len(client_specs))]
    arrivals = arrival_instants(client_specs, client_ids, delay)
    events = [(resolve(time, arrivals), *rest) for time, *rest in events]
    for validator, time, downtime in down:
        crash_at = resolve(time, arrivals)
        events.append((crash_at, "crash", validator, 1))
        events.append((crash_at + downtime, "recover", validator, 1))
    scenario = (
        client_specs, client_ids, delay, target_count, events, resolve(horizon, arrivals)
    )
    oracle = run_world(scenario, use_ingest=False)
    pulled = run_world(scenario, use_ingest=True)
    assert pulled == oracle
