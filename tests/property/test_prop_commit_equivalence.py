"""Differential properties: incremental commit scan vs the seed rescan.

The incremental commit path (dirty anchor-round tracking, see
``BullsharkConsensus._find_committable_incremental``) and the bitmask
reachability walk (``DagStore._walk``) are pure optimizations:
for any insertion sequence, any fault pattern, any GC horizon movement, and
any schedule-manager dynamics they must order exactly the vertices the
original implementation ordered, in the same order.  These tests run both
implementations side by side over randomized scenarios and demand
byte-identical ordering digests after every single step.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.committee import Committee
from repro.consensus.bullshark import BullsharkConsensus
from repro.core.manager import HammerHeadScheduleManager, StaticScheduleManager
from repro.core.schedule_change import CommitCountPolicy
from repro.dag.store import DagStore
from repro.dag.vertex import genesis_vertices, make_vertex
from repro.schedule.round_robin import initial_schedule
from repro.types import VertexId
from tests.dag_oracle import OracleDagStore


@st.composite
def equivalence_scenario(draw):
    """A randomized run: DAG shape, insertion order, GC and state sync."""
    size = draw(st.integers(min_value=4, max_value=7))
    committee = Committee.build(size)
    rounds = draw(st.integers(min_value=6, max_value=16))
    quorum = committee.quorum_threshold
    rng_seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(rng_seed)
    participation = []
    for _ in range(rounds):
        participants = draw(
            st.lists(
                st.integers(min_value=0, max_value=size - 1),
                min_size=quorum,
                max_size=size,
                unique=True,
            )
        )
        participation.append(sorted(participants))
    dynamic = draw(st.booleans())
    commits_per_schedule = draw(st.integers(min_value=2, max_value=5))
    # Sprinkle GC calls (with varying keep windows) over the stream, and
    # possibly one state-sync fast-forward.
    gc_probability = draw(st.floats(min_value=0.0, max_value=0.3))
    keep_rounds = draw(st.integers(min_value=2, max_value=8))
    fast_forward_round = draw(st.one_of(st.none(), st.integers(min_value=2, max_value=rounds)))
    return (
        committee,
        participation,
        rng,
        dynamic,
        commits_per_schedule,
        gc_probability,
        keep_rounds,
        fast_forward_round,
    )


def build_vertices(committee, participation, rng):
    """A global DAG where each vertex links to a random parent quorum.

    Random sub-quorum edge selection produces skipped anchors and varying
    vote patterns, which is what exercises the commit rule.
    """
    vertices = list(genesis_vertices(committee))
    previous = [vertex.id for vertex in vertices]
    quorum = committee.quorum_threshold
    for round_number, participants in enumerate(participation, start=1):
        current = []
        for source in participants:
            if len(previous) > quorum and rng.random() < 0.5:
                edge_count = rng.randint(quorum, len(previous))
                edges = rng.sample(previous, edge_count)
            else:
                edges = list(previous)
            current.append(make_vertex(round_number, source, edges=edges))
        vertices.extend(current)
        previous = [vertex.id for vertex in current]
    return vertices


def make_engine(committee, dynamic, commits_per_schedule, incremental):
    dag = DagStore(committee) if incremental else OracleDagStore(committee)
    schedule = initial_schedule(committee, seed=0, permute=False)
    if dynamic:
        manager = HammerHeadScheduleManager(
            committee, schedule, policy=CommitCountPolicy(commits_per_schedule)
        )
    else:
        manager = StaticScheduleManager(committee, schedule)
    return BullsharkConsensus(
        owner=0,
        committee=committee,
        dag=dag,
        schedule_manager=manager,
        record_sequence=True,
        incremental=incremental,
    )


@given(equivalence_scenario())
@settings(max_examples=40, deadline=None)
def test_incremental_path_orders_identically(scenario):
    (
        committee,
        participation,
        rng,
        dynamic,
        commits_per_schedule,
        gc_probability,
        keep_rounds,
        fast_forward_round,
    ) = scenario
    vertices = build_vertices(committee, participation, rng)
    stream = list(vertices)
    rng.shuffle(stream)
    # Drop a small suffix of the stream entirely: those vertices stay
    # parked on missing parents until GC purges or promotes them.
    withheld = set()
    if len(stream) > 8 and rng.random() < 0.5:
        for vertex in rng.sample(stream, rng.randint(1, 3)):
            withheld.add(vertex.id)
    new_engine = make_engine(committee, dynamic, commits_per_schedule, incremental=True)
    old_engine = make_engine(committee, dynamic, commits_per_schedule, incremental=False)
    fast_forward_at = rng.randint(0, len(stream) - 1) if fast_forward_round else -1
    for position, vertex in enumerate(stream):
        if vertex.id in withheld:
            continue
        # Draw every random decision once per step so both engines see the
        # exact same schedule of insertions, GCs, and state syncs.
        do_gc = gc_probability > 0.0 and rng.random() < gc_probability
        for engine in (new_engine, old_engine):
            engine.dag.add(vertex)
            engine.try_commit()
            if do_gc:
                engine.garbage_collect(keep_rounds=keep_rounds)
        if position == fast_forward_at:
            for engine in (new_engine, old_engine):
                engine.fast_forward(fast_forward_round)
                engine.try_commit()
        assert new_engine.ordering_digest == old_engine.ordering_digest, (
            f"divergence at step {position}"
        )
        assert new_engine.ordered_count == old_engine.ordered_count
        assert new_engine.last_ordered_anchor_round == old_engine.last_ordered_anchor_round
    new_engine.try_commit()
    old_engine.try_commit()
    assert new_engine.ordering_digest == old_engine.ordering_digest
    assert new_engine.ordered_ids() == old_engine.ordered_ids()
    assert new_engine.commit_count == old_engine.commit_count
    assert [s.epoch for s in new_engine.schedule_manager.history] == [
        s.epoch for s in old_engine.schedule_manager.history
    ]


@given(equivalence_scenario())
@settings(max_examples=25, deadline=None)
def test_reachability_walk_matches_bfs(scenario):
    """Walk-backed ``path()`` answers equal the reference BFS on random DAGs."""
    committee, participation, rng, _, _, _, keep_rounds, _ = scenario
    vertices = build_vertices(committee, participation, rng)
    stream = list(vertices)
    rng.shuffle(stream)
    walk = DagStore(committee)
    reference = OracleDagStore(committee)
    inserted = []
    for position, vertex in enumerate(stream):
        walk.add(vertex)
        reference.add(vertex)
        if vertex.id in walk:
            inserted.append(vertex)
        # Interleave queries with insertions so the walk is exercised
        # against a growing DAG, not just the final one.
        if inserted and position % 3 == 0:
            for _ in range(4):
                descendant = rng.choice(inserted)
                ancestor = rng.choice(inserted)
                if ancestor.round > descendant.round:
                    descendant, ancestor = ancestor, descendant
                assert walk.path(descendant.id, ancestor.id) == reference.path(
                    descendant.id, ancestor.id
                ), f"path({descendant.id}, {ancestor.id}) diverged"
        if position % 7 == 0 and walk.highest_round() > keep_rounds:
            horizon = walk.highest_round() - keep_rounds
            walk.garbage_collect(horizon)
            reference.garbage_collect(horizon)
            inserted = [v for v in inserted if v.id in walk]
    # Exhaustive sweep at the end.
    for descendant in inserted:
        for ancestor in inserted:
            if ancestor.round >= descendant.round:
                continue
            assert walk.path(descendant.id, ancestor.id) == reference.path(
                descendant.id, ancestor.id
            )
    # The public reachable_sources() entry point must agree with the BFS.
    for descendant in inserted[:8]:
        for target_round in range(max(0, descendant.round - 4), descendant.round):
            assert walk.reachable_sources(
                descendant.id, target_round
            ) == reference.reachable_sources(descendant.id, target_round)


def ids(history):
    return [vertex.id for vertex in history]


def assert_queries_agree(walk, oracle, committee, rng):
    assert sorted(vertex.id for vertex in walk) == sorted(vertex.id for vertex in oracle)
    stored = sorted(vertex.id for vertex in walk)
    rounds = walk.all_rounds()
    full_mask = (1 << len(committee.validators)) - 1
    for root in stored:
        for include_root in (True, False):
            assert ids(walk.causal_history(root, include_root=include_root)) == ids(
                oracle.causal_history(root, include_root=include_root)
            ), f"causal_history({root}) diverged"
        # Exclusion sets that are not causally closed downwards, sometimes
        # containing the root itself or ids that are not stored.
        for _ in range(2):
            exclude = set(rng.sample(stored, rng.randint(0, len(stored) // 2)))
            exclude.add(VertexId(root.round - 1, rng.randrange(len(committee.validators))))
            assert ids(walk.causal_history(root, exclude=exclude)) == ids(
                oracle.causal_history(root, exclude=exclude)
            ), f"causal_history({root}, exclude=...) diverged"
        for target_round in range(root.round):
            assert walk.reachable_sources(root, target_round) == oracle.reachable_sources(
                root, target_round
            )
            for source in committee.validators:
                target = VertexId(target_round, source)
                assert walk.path(root, target) == oracle.path(root, target), (
                    f"path({root}, {target}) diverged"
                )
    for round_number in rounds:
        for target_round in range(round_number + 1):
            mask = rng.randint(0, full_mask)
            assert walk.reach_mask(mask, round_number, target_round) == oracle.reach_mask(
                mask, round_number, target_round
            )


@given(equivalence_scenario())
@settings(max_examples=40, deadline=None)
def test_walk_matches_bfs_under_gc_and_stragglers(scenario):
    """Every reachability query (history order included) equals the BFS,
    with GC over the stream and stragglers replayed below the horizon."""
    committee, participation, rng, _, _, gc_probability, keep_rounds, _ = scenario
    vertices = build_vertices(committee, participation, rng)
    later = [vertex for vertex in vertices if vertex.round > 0]
    stragglers = rng.sample(later, min(rng.randint(0, 3), len(later)))
    withheld = {vertex.id for vertex in stragglers}
    stream = [vertex for vertex in vertices if vertex.id not in withheld]
    rng.shuffle(stream)
    walk = DagStore(committee)
    oracle = OracleDagStore(committee)
    stores = (walk, oracle)
    for vertex in stream:
        for store in stores:
            store.add(vertex)
        if rng.random() < gc_probability and walk.highest_round() > keep_rounds:
            horizon = walk.highest_round() - keep_rounds
            for store in stores:
                store.garbage_collect(horizon)
    assert_queries_agree(walk, oracle, committee, rng)
    # State-sync replay: move the horizon past the withheld vertices, then
    # deliver them below it, where they are stored and reconnect walks.
    if stragglers:
        horizon = max(vertex.round for vertex in stragglers) + 1
        for store in stores:
            store.garbage_collect(horizon)
        for vertex in stragglers:
            for store in stores:
                store.add(vertex)
        assert all(vertex.id in walk for vertex in stragglers)
        assert_queries_agree(walk, oracle, committee, rng)
