"""Reference reachability for differential tests: the seed breadth-first search.

``OracleDagStore`` is a :class:`DagStore` whose reachability queries
(``path``, ``reachable_sources``, ``reach_mask`` and ``causal_history``)
ignore the store's bitmask walk and answer from id-set searches over the
vertex table instead.  Insertion, parking and garbage collection are
inherited unchanged, so an oracle store fed the same operations as a
production store holds the same vertices, and any divergence in the
answers is a divergence of the walk.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set

from repro.dag.store import DagStore
from repro.dag.vertex import Vertex
from repro.errors import DagError
from repro.types import Round, ValidatorId, VertexId


class OracleDagStore(DagStore):
    """A :class:`DagStore` answering reachability with the seed BFS."""

    def path(self, descendant: VertexId, ancestor: VertexId) -> bool:
        if descendant == ancestor:
            return descendant in self._by_id
        start = self._by_id.get(descendant)
        if start is None or ancestor.round >= start.round:
            return False
        frontier: Set[VertexId] = {descendant}
        current_round = start.round
        while frontier and current_round > ancestor.round:
            next_frontier: Set[VertexId] = set()
            for vertex_id in frontier:
                vertex = self._by_id.get(vertex_id)
                if vertex is None:
                    continue
                for parent in vertex.edges:
                    if parent == ancestor:
                        return True
                    if parent.round > ancestor.round:
                        next_frontier.add(parent)
            frontier = next_frontier
            current_round -= 1
        return False

    def reachable_sources(self, vertex_id: VertexId, target_round: Round) -> FrozenSet[ValidatorId]:
        vertex = self._by_id.get(vertex_id)
        if vertex is None or vertex.round <= target_round:
            return frozenset()
        return frozenset(
            source
            for source in self.committee.validators
            if self.path(vertex_id, VertexId(target_round, source))
        )

    def reach_mask(self, sources: int, round_number: Round, target_round: Round) -> int:
        frontier: Set[VertexId] = {
            VertexId(round_number, source)
            for source in self.committee.validators
            if sources >> source & 1
        }
        current_round = round_number
        while frontier and current_round > target_round:
            next_frontier: Set[VertexId] = set()
            for vertex_id in frontier:
                vertex = self._by_id.get(vertex_id)
                if vertex is not None:
                    next_frontier |= vertex.edges
            frontier = next_frontier
            current_round -= 1
        reached = 0
        for vertex_id in frontier:
            reached |= 1 << vertex_id.source
        return reached

    def causal_history(
        self,
        root: VertexId,
        exclude: Optional[Set[VertexId]] = None,
        include_root: bool = True,
    ) -> List[Vertex]:
        excluded = exclude if exclude is not None else set()
        root_vertex = self._by_id.get(root)
        if root_vertex is None:
            raise DagError(f"vertex {root} is not in the DAG")
        if root in excluded:
            return []
        collected: List[Vertex] = [root_vertex] if include_root else []
        seen: Set[VertexId] = {root}
        frontier = set(root_vertex.edges) - excluded
        while frontier:
            seen |= frontier
            following: Set[VertexId] = set()
            for vertex_id in frontier:
                vertex = self._by_id.get(vertex_id)
                if vertex is None:
                    continue
                collected.append(vertex)
                following |= vertex.edges
            frontier = following - seen - excluded
        collected.sort(key=lambda vertex: (vertex.round, vertex.source))
        return collected
