"""A validator's local view of the DAG (``DAGi[]`` in Algorithm 1).

The store enforces two invariants the correctness proofs rely on:

* **Causal completeness** (Claim 1): a vertex only becomes part of the DAG
  once its entire causal history is present.  Vertices whose parents are
  still missing are parked in a pending buffer and promoted automatically.
* **Non-equivocation**: at most one vertex per (round, source) pair is
  ever accepted; conflicting vertices raise :class:`EquivocationError`.

Reachability walk
-----------------

``path``, ``reachable_sources`` and ``causal_history`` are all answered by
one downward level walk over the per-round slabs.  A vertex's identity is
its ``(round, source)`` pair and all of its edges point to the previous
round, so the set of vertices reached at round ``r`` is a source bitmask:
the walk starts from the root's ``edge_mask`` and, at each round, takes
the stored vertex at every set bit and ORs its ``edge_mask`` into the
next round's mask.  The rules match the reference breadth-first search
the differential tests compare against (``tests/dag_oracle.py``):

* An edge *names* its target: a round-``r`` source bit counts as reached
  whether or not that vertex is still stored (it may have been pruned),
  so ``path`` to a pruned ancestor holds when an edge names it.
* An absent vertex (never received, pruned, or below the GC horizon)
  *blocks* the walk: it contributes no edges, and a round with no slab
  ends the walk outright.
* A straggler stored below the GC horizon (state-sync replay) sits in its
  round's slab like any other vertex, so walks that reach it continue
  through it; nothing is memoized, so there is nothing to invalidate.
* With an ``exclude`` set (the commit rule's already-ordered vertices),
  excluded vertices block the walk exactly like absent ones.

Levels are visited in descending round order and bits in ascending
source order, so the collected history comes out in (round, source)
order without a sort, and no per-query state outlives the call.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.committee import Committee
from repro.dag.vertex import Vertex, check_edge_quorum
from repro.errors import DagError, EquivocationError
from repro.obs.trace import NULL_TRACER, Tracer
from repro.types import Round, ValidatorId, VertexId


class DagStore:
    """In-memory DAG with pending-parent buffering and reachability queries."""

    # Observability (repro.obs): shared null tracer by default, replaced
    # per instance by install_tracer.  Hot sites test the bare boolean.
    _tracer: Tracer = NULL_TRACER
    _tracing = False
    trace_owner: ValidatorId = -1

    # Recycled round slabs kept after GC (see ``garbage_collect``).
    _SLAB_POOL_LIMIT = 64

    def __init__(self, committee: Committee, require_edge_quorum: bool = True) -> None:
        self.committee = committee
        # Flat per-validator stake lookup for the insertion hot path.
        self._stakes = committee.stake_vector.stakes
        self.require_edge_quorum = require_edge_quorum
        # Arena-style per-round storage: ``_round_slots[r][source]`` is the
        # round-``r`` vertex from ``source`` (``None`` when absent) in a
        # flat slab indexed by validator id, and ``_round_order[r]`` keeps
        # the arrival sequence the old insertion-ordered dicts exposed
        # (digest-relevant: parent selection reads it).  Slabs are
        # recycled through ``_slab_pool`` at GC so a long run allocates a
        # bounded number of per-round containers instead of one dict per
        # round.
        self._size = len(committee.stake_vector.stakes)
        self._round_slots: Dict[Round, List[Optional[Vertex]]] = {}
        self._round_order: Dict[Round, List[Vertex]] = {}
        self._slab_pool: List[List[Optional[Vertex]]] = []
        # Total stake present per round, maintained on insert/GC so the
        # per-insertion quorum checks are O(1) instead of summing stakes.
        self._round_stake: Dict[Round, int] = {}
        # Bitmask of the sources stored per round, maintained on insert/GC
        # so ``missing_parents`` is one AND-NOT against the parent round.
        self._present: Dict[Round, int] = {}
        self._by_id: Dict[VertexId, Vertex] = {}
        # Vertices waiting for missing parents, keyed by the missing parent.
        self._pending: Dict[VertexId, Vertex] = {}
        self._waiting_on: Dict[VertexId, Set[VertexId]] = {}
        # Callbacks invoked whenever a vertex is actually inserted.
        self._on_insert: List[Callable[[Vertex], None]] = []
        self._lowest_round = 0
        # Cached ``max(self._round_slots)``; queried on every round advance.
        self._highest_round = 0
        # Anchor rounds whose commit-rule status may have changed since the
        # consensus engine last drained this set: an insertion at an even
        # round r is a (potential) anchor for r, an insertion at an odd
        # round r is a (potential) vote for the anchor of r - 1.  Tracking
        # this at the store keeps the incremental commit scan correct no
        # matter how vertices enter the DAG (broadcast, promotion of parked
        # vertices, GC-triggered promotion, recovery replay).
        self._dirty_anchor_rounds: Set[Round] = set()
        # Set when a vertex is inserted below the GC horizon; tells the
        # next garbage_collect that a sweep is needed even if the horizon
        # did not move.
        self._stale_below_horizon = False
        # Always-on cheap counters (snapshotted into ExperimentResult):
        # high-water mark of the pending buffer and total GC reclaim.
        self.pending_peak = 0
        self.gc_reclaimed_total = 0

    # -- observers ------------------------------------------------------------

    def install_tracer(self, tracer: Tracer, owner: ValidatorId) -> None:
        """Attach a tracer; events carry ``owner`` as their node id."""
        self._tracer = tracer
        self._tracing = tracer.enabled
        self.trace_owner = owner

    def on_insert(self, callback: Callable[[Vertex], None]) -> None:
        """Register a callback fired after each successful insertion."""
        self._on_insert.append(callback)

    def replace_insert_callbacks(self, callbacks: Iterable[Callable[[Vertex], None]]) -> None:
        """Replace all insertion callbacks (used when a node recovers)."""
        self._on_insert = list(callbacks)

    # -- insertion --------------------------------------------------------------

    def add(self, vertex: Vertex) -> bool:
        """Add ``vertex`` to the DAG.

        Returns ``True`` when the vertex (and possibly vertices that were
        waiting on it) became part of the DAG, ``False`` when it was parked
        in the pending buffer because parents are missing.
        """
        if self._check_known(vertex):
            return False
        if self.require_edge_quorum and not check_edge_quorum(vertex, self.committee):
            raise DagError(
                f"vertex {vertex.id} does not reference a 2f+1 quorum of parents"
            )
        missing = self.missing_parents(vertex)
        if missing:
            self._park(vertex, missing)
            return False
        self._insert(vertex)
        if self._waiting_on:
            self._promote_pending(vertex.id)
        return True

    def _check_known(self, vertex: Vertex) -> bool:
        """Detect duplicates and equivocation for ``vertex``."""
        existing = self._by_id.get(vertex.id)
        if existing is not None:
            if existing.digest != vertex.digest:
                raise EquivocationError(
                    f"validator {vertex.source} equivocated at round {vertex.round}"
                )
            return True
        pending = self._pending.get(vertex.id)
        if pending is not None:
            if pending.digest != vertex.digest:
                raise EquivocationError(
                    f"validator {vertex.source} equivocated at round {vertex.round}"
                )
            return True
        return False

    # Shared empty result for the common all-parents-present case, so the
    # per-insertion check does not allocate.
    _NO_MISSING: FrozenSet[VertexId] = frozenset()

    def missing_parents(self, vertex: Vertex) -> Set[VertexId]:
        """Parents of ``vertex`` not yet part of the DAG.

        Parents below the garbage-collection horizon are treated as
        present: their sub-DAG has already been ordered and pruned.  All
        edges point to the previous round, so the test is one AND-NOT of
        the edge mask against that round's present-source mask; the set
        is built only when something is missing.
        """
        parent_round = vertex.round - 1
        if parent_round < self._lowest_round:
            return self._NO_MISSING
        absent = vertex.edge_mask & ~self._present.get(parent_round, 0)
        if not absent:
            return self._NO_MISSING
        return {parent for parent in vertex.edges if absent >> parent.source & 1}

    def _park(self, vertex: Vertex, missing: Set[VertexId]) -> None:
        self._pending[vertex.id] = vertex
        for parent in missing:
            self._waiting_on.setdefault(parent, set()).add(vertex.id)
        depth = len(self._pending)
        if depth > self.pending_peak:
            self.pending_peak = depth
        if self._tracing:
            self._tracer.emit(
                "vertex_parked",
                node=self.trace_owner,
                round=vertex.round,
                source=vertex.source,
                missing=len(missing),
            )

    def _insert(self, vertex: Vertex) -> None:
        if vertex.round < self._lowest_round:
            self._stale_below_horizon = True
        round_number = vertex.round
        source = vertex.source
        self._by_id[vertex.id] = vertex
        slots = self._round_slots.get(round_number)
        if slots is None:
            pool = self._slab_pool
            slots = pool.pop() if pool else [None] * self._size
            self._round_slots[round_number] = slots
            order = self._round_order[round_number] = []
        else:
            order = self._round_order[round_number]
        slots[source] = vertex
        order.append(vertex)
        self._round_stake[round_number] = (
            self._round_stake.get(round_number, 0) + self._stakes[source]
        )
        self._present[round_number] = self._present.get(round_number, 0) | 1 << source
        if round_number > self._highest_round:
            self._highest_round = round_number
        anchor_round = round_number if round_number % 2 == 0 else round_number - 1
        if anchor_round >= 2:
            self._dirty_anchor_rounds.add(anchor_round)
        if self._tracing:
            self._tracer.emit(
                "vertex_inserted",
                node=self.trace_owner,
                round=round_number,
                source=source,
            )
        for callback in self._on_insert:
            callback(vertex)

    def _promote_pending(self, arrived: VertexId) -> None:
        """Promote pending vertices whose last missing parent just arrived."""
        queue = deque([arrived])
        while queue:
            parent = queue.popleft()
            waiters = self._waiting_on.pop(parent, set())
            # Promotion order decides insertion order into the round
            # tables, which downstream lookups expose; sort so it is a
            # function of the vertex ids, not of set iteration order.
            for waiter_id in sorted(waiters):
                waiter = self._pending.get(waiter_id)
                if waiter is None:
                    continue
                if not self.missing_parents(waiter):
                    del self._pending[waiter_id]
                    self._insert(waiter)
                    if self._tracing:
                        self._tracer.emit(
                            "vertex_promoted",
                            node=self.trace_owner,
                            round=waiter.round,
                            source=waiter.source,
                        )
                    queue.append(waiter_id)

    # -- lookups --------------------------------------------------------------------

    def __contains__(self, vertex_id: VertexId) -> bool:
        return vertex_id in self._by_id

    def get(self, vertex_id: VertexId) -> Optional[Vertex]:
        return self._by_id.get(vertex_id)

    def vertex_of(self, round_number: Round, source: ValidatorId) -> Optional[Vertex]:
        slots = self._round_slots.get(round_number)
        if slots is None or not 0 <= source < len(slots):
            return None
        return slots[source]

    def vertices_at(self, round_number: Round) -> Tuple[Vertex, ...]:
        # det: ordered -- arrival order under the single-threaded simulator;
        # the per-round arrival list makes it deterministic, and the
        # differential suite pins the digests that depend on it.
        return tuple(self._round_order.get(round_number, ()))

    def sources_at(self, round_number: Round) -> Set[ValidatorId]:
        return {vertex.source for vertex in self._round_order.get(round_number, ())}

    def stake_at(self, round_number: Round) -> int:
        """Total stake of the sources with a vertex in ``round_number``."""
        return self._round_stake.get(round_number, 0)

    def has_quorum_at(self, round_number: Round) -> bool:
        return self._round_stake.get(round_number, 0) >= self.committee.quorum_threshold

    def highest_round(self) -> Round:
        if not self._round_slots:
            return 0
        return self._highest_round

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Vertex]:
        # det: ordered -- arrival order (insertion-ordered dict); consumers
        # are introspection and tests, never the digest fold.
        return iter(list(self._by_id.values()))

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending_missing(self) -> Set[VertexId]:
        """All parents currently blocking pending vertices."""
        missing: Set[VertexId] = set()
        for vertex in self._pending.values():
            missing.update(self.missing_parents(vertex))
        return missing

    def pending_vertices(self) -> Tuple[Vertex, ...]:
        """Vertices parked while waiting for missing parents."""
        # det: ordered -- arrival order (insertion-ordered dict), exposed
        # for introspection and fetch bookkeeping only.
        return tuple(self._pending.values())

    def drain_dirty_anchor_rounds(self) -> Set[Round]:
        """Anchor rounds touched by insertions since the last drain.

        The consensus engine uses this to re-evaluate only the anchor
        rounds whose direct-vote quorum can actually have changed, instead
        of rescanning every candidate round on every insertion.  When the
        set is empty it is returned as-is (the caller consumes it
        immediately), avoiding a set allocation per insertion.
        """
        dirty = self._dirty_anchor_rounds
        if not dirty:
            return dirty
        self._dirty_anchor_rounds = set()
        return dirty

    def round_map(self, round_number: Round) -> Sequence[Optional[Vertex]]:
        """Read-only slab of the vertices at ``round_number`` by source.

        The result is indexable by validator id (``None`` where the source
        has no vertex yet) and iterates in id order.  Unlike
        :meth:`vertices_at` this does not copy; callers must not mutate
        the returned sequence.  Used by the per-insertion commit probes,
        where a per-call copy was measurable at committee 25+.
        """
        return self._round_slots.get(round_number, self._EMPTY_ROUND)

    _EMPTY_ROUND: Tuple[Optional[Vertex], ...] = ()

    # -- reachability (``path`` in Algorithm 1) ---------------------------------------

    def path(self, descendant: VertexId, ancestor: VertexId) -> bool:
        """``True`` when a directed path exists from ``descendant`` to ``ancestor``.

        Edges point from a round-``r`` vertex to round-``r-1`` vertices, so
        the walk always moves downwards in rounds.  An ancestor counts as
        reached when an edge names its id, whether or not the ancestor
        vertex itself is still stored (it may have been pruned).
        """
        if descendant == ancestor:
            return descendant in self._by_id
        start = self._by_id.get(descendant)
        if start is None or ancestor.round >= start.round:
            return False
        reached = self._walk(start.edge_mask, start.round - 1, ancestor.round)
        return bool(reached >> ancestor.source & 1)

    def reachable_sources(self, vertex_id: VertexId, target_round: Round) -> FrozenSet[ValidatorId]:
        """Sources whose ``target_round`` vertex is reachable from ``vertex_id``.

        A source ``s`` is included exactly when :meth:`path` from
        ``vertex_id`` to ``VertexId(target_round, s)`` holds.
        """
        vertex = self._by_id.get(vertex_id)
        if vertex is None or vertex.round <= target_round:
            return frozenset()
        reached = self._walk(vertex.edge_mask, vertex.round - 1, target_round)
        return frozenset(source for source in range(reached.bit_length()) if reached >> source & 1)

    def reach_mask(self, sources: int, round_number: Round, target_round: Round) -> int:
        """Source mask at ``target_round`` reachable from round ``round_number``.

        ``sources`` is a bitmask of round-``round_number`` sources (such as
        a vertex's ``edge_mask`` with ``round_number`` one below it).  The
        result can be fed back in to continue the same walk further down,
        which lets the commit rule probe a chain of anchor rounds with one
        walk per chain link instead of one :meth:`path` per probe.
        """
        return self._walk(sources, round_number, target_round)

    def causal_history(
        self,
        root: VertexId,
        exclude: Optional[Set[VertexId]] = None,
        include_root: bool = True,
    ) -> List[Vertex]:
        """All vertices reachable from ``root`` that are not in ``exclude``.

        The result is returned in a deterministic order (ascending round,
        then source) so that every validator linearizes a committed
        sub-DAG identically (Algorithm 2, line 35).  Excluded vertices
        block the walk (pruning during traversal, not filtering after
        it), which differs whenever ``exclude`` is not causally closed
        downwards.
        """
        root_vertex = self._by_id.get(root)
        if root_vertex is None:
            raise DagError(f"vertex {root} is not in the DAG")
        if exclude and root in exclude:
            # The walk stops immediately at an excluded root.
            return []
        levels: List[List[Vertex]] = []
        self._walk(root_vertex.edge_mask, root_vertex.round - 1, -1, exclude or None, levels)
        collected = [vertex for level in reversed(levels) for vertex in level]
        if include_root:
            collected.append(root_vertex)
        return collected

    def _walk(
        self,
        sources: int,
        round_number: Round,
        floor: Round,
        exclude: Optional[Set[VertexId]] = None,
        levels: Optional[List[List[Vertex]]] = None,
    ) -> int:
        """The downward level walk behind every reachability query.

        ``sources`` is the mask reached at ``round_number``.  Each level
        above ``floor`` takes the stored, non-excluded vertex at every set
        bit (absent and excluded ones block) and ORs its ``edge_mask``
        into the mask of the round below.  Returns the mask reached at
        ``floor``, or 0 once the walk dies out.  With ``levels``, each
        visited level's vertices are appended in ascending source order,
        top level first.
        """
        rounds = self._round_slots
        while sources and round_number > floor:
            slots = rounds.get(round_number)
            if slots is None:
                return 0
            below = 0
            level: List[Vertex] = []
            while sources:
                lowest = sources & -sources
                sources ^= lowest
                vertex = slots[lowest.bit_length() - 1]
                if vertex is None or (exclude is not None and vertex.id in exclude):
                    continue
                below |= vertex.edge_mask
                level.append(vertex)
            if levels is not None:
                levels.append(level)
            sources = below
            round_number -= 1
        return sources

    # -- garbage collection ----------------------------------------------------------------

    def reconsider_pending(self) -> int:
        """Re-evaluate parked vertices after the GC horizon moved.

        Raising the horizon (state sync) makes parents below it count as
        present, so vertices that were waiting only on pruned history can
        now be inserted.  Returns the number of vertices promoted.
        """
        promoted = 0
        progress = True
        while progress:
            progress = False
            # Promotion fires insertion callbacks that may re-enter this
            # method (a node's callback runs consensus, whose GC calls back
            # into the store), so entries from this snapshot may already
            # have been handled by a nested pass: remove with pop(), never
            # an unguarded del.
            for vertex_id, vertex in list(self._pending.items()):
                if vertex_id in self._by_id:
                    self._pending.pop(vertex_id, None)
                    continue
                if not self.missing_parents(vertex):
                    if self._pending.pop(vertex_id, None) is None:
                        continue
                    self._insert(vertex)
                    promoted += 1
                    progress = True
        if promoted:
            # Drop stale wait registrations for parents that will never come.
            self._waiting_on = {
                parent: {waiter for waiter in waiters if waiter in self._pending}
                for parent, waiters in self._waiting_on.items()
            }
            self._waiting_on = {
                parent: waiters for parent, waiters in self._waiting_on.items() if waiters
            }
        return promoted

    def garbage_collect(self, before_round: Round) -> int:
        """Drop vertices strictly below ``before_round``.

        Committed and ordered history no longer needs to be kept for
        reachability queries; the production system similarly prunes old
        rounds from RocksDB.  Returns the number of vertices removed.

        Raising the horizon also re-evaluates the pending buffer: parked
        vertices whose missing parents all fell below the horizon are
        promoted into the DAG, parked vertices *below* the horizon (their
        sub-DAG is already ordered history) are dropped, and wait
        registrations keyed by pruned parents are purged.  Without this the
        buffer leaks on long runs and vertices parked on pruned parents
        stay stranded forever.
        """
        if before_round <= self._lowest_round and not self._stale_below_horizon:
            # The horizon did not move and no straggler arrived below it:
            # nothing to prune.  The consensus engine calls this on every
            # insertion, so the early-out matters.
            return 0
        removed = 0
        for round_number in [r for r in self._round_slots if r < before_round]:
            for vertex in self._round_order.pop(round_number):
                del self._by_id[vertex.id]
                removed += 1
            slots = self._round_slots.pop(round_number)
            # Recycle the slab: wipe in place and park it for the next
            # round allocation.  The pool is bounded so a burst GC cannot
            # retain arbitrarily many empty slabs.
            if len(self._slab_pool) < self._SLAB_POOL_LIMIT and len(slots) == self._size:
                for index in range(self._size):
                    slots[index] = None
                self._slab_pool.append(slots)
            self._round_stake.pop(round_number, None)
            self._present.pop(round_number, None)
        if not self._round_slots:
            # GC swallowed every round (the horizon overtook the frontier);
            # match ``max(rounds) or 0`` semantics.
            self._highest_round = 0
        self._lowest_round = max(self._lowest_round, before_round)
        self._stale_below_horizon = False
        self._prune_pending(before_round)
        self.reconsider_pending()
        self.gc_reclaimed_total += removed
        if self._tracing and removed:
            self._tracer.emit(
                "dag_gc",
                node=self.trace_owner,
                before_round=before_round,
                removed=removed,
            )
        return removed

    def _prune_pending(self, before_round: Round) -> None:
        """Drop parked vertices and wait registrations below the horizon."""
        for vertex_id in [v for v in self._pending if v.round < before_round]:
            del self._pending[vertex_id]
        for parent in [p for p in self._waiting_on if p.round < before_round]:
            del self._waiting_on[parent]
        # Registrations whose waiter was just dropped (or promoted by an
        # earlier pass) are stale as well.
        # det: ordered -- list() only guards mutation during iteration;
        # the per-key rebuild/delete is order-insensitive.
        for parent in list(self._waiting_on):
            waiters = {w for w in self._waiting_on[parent] if w in self._pending}
            if waiters:
                self._waiting_on[parent] = waiters
            else:
                del self._waiting_on[parent]

    @property
    def lowest_round(self) -> Round:
        return self._lowest_round

    def all_rounds(self) -> List[Round]:
        return sorted(self._round_slots)
