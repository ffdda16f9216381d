"""Clusters and partitions over the application graph (§IV-C1).

Phase one of the scheduler groups nodes into *clusters* — connected
subgraphs executed contiguously.  A set of clusters is a *valid
partition* iff the quotient graph (clusters as vertices, inter-cluster
dependencies as edges) is acyclic, so a total cluster order ≺C exists
that respects every dependency.

:class:`Partition` keeps the quotient adjacency incrementally: merge
validity then reduces to "no quotient path Ca → X → … → Cb other than
the direct edge", a local BFS instead of a full acyclicity check —
Algorithm 1 probes thousands of candidate merges on the
thousand-kernel HSOpticalFlow graph, so this is on the hot path.

Partitions are immutable-by-convention: :meth:`merged` returns a new
partition, so Algorithm 1 can tentatively merge, evaluate the tiling
cost, and discard cheaply.

This module is the **reference planner backend** (the oracle).  The
fast backend (:mod:`repro.core.fast_cluster`) answers the same
questions with an incrementally repaired bitset reachability index and
in-place quotient updates, bit-identical by contract, and is the one
production runs; reach this oracle with
``KTiler(planner_backend="reference")``.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Set

from repro.errors import GraphError
from repro.graph.kernel_graph import KernelGraph


class Partition:
    """A partition of the graph's nodes into clusters.

    Cluster ids are the minimum node id of their members, which keeps
    ids stable and deterministic across merges.
    """

    backend_name = "reference"

    def __init__(
        self,
        clusters: Dict[int, FrozenSet[int]],
        of: Dict[int, int],
        qadj: Dict[int, Set[int]],
        qradj: Dict[int, Set[int]],
    ):
        self._clusters = clusters
        self._of = of
        self._qadj = qadj
        self._qradj = qradj

    @classmethod
    def singletons(cls, graph: KernelGraph) -> "Partition":
        """The initial partition: every node in its own cluster."""
        clusters = {n.node_id: frozenset((n.node_id,)) for n in graph}
        of = {n.node_id: n.node_id for n in graph}
        qadj: Dict[int, Set[int]] = {n.node_id: set() for n in graph}
        qradj: Dict[int, Set[int]] = {n.node_id: set() for n in graph}
        for edge in graph.edges:
            qadj[edge.src].add(edge.dst)
            qradj[edge.dst].add(edge.src)
        return cls(clusters, of, qadj, qradj)

    # ------------------------------------------------------------------
    def cluster_of(self, node_id: int) -> int:
        try:
            return self._of[node_id]
        except KeyError:
            raise GraphError(f"node {node_id} not in partition") from None

    def members(self, cluster_id: int) -> FrozenSet[int]:
        try:
            return self._clusters[cluster_id]
        except KeyError:
            raise GraphError(f"unknown cluster {cluster_id}") from None

    def cluster_ids(self) -> List[int]:
        return sorted(self._clusters)

    def successors(self, cluster_id: int) -> Set[int]:
        return set(self._qadj[cluster_id])

    def __len__(self) -> int:
        return len(self._clusters)

    def __contains__(self, cluster_id: int) -> bool:
        return cluster_id in self._clusters

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def can_merge(self, cluster_a: int, cluster_b: int, work=None) -> bool:
        """Would merging keep the partition valid (quotient acyclic)?

        Requires an existing dependency direction a → b or independence.
        Merging creates a cycle exactly when a quotient path connects
        the two clusters through a third one, in either direction.

        ``work`` (a :class:`~repro.core.work.PlannerWork`) counts the
        quotient nodes the validity BFS dequeues as ``merge_probes`` —
        the per-probe cost Algorithm 1 pays on every candidate edge.
        """
        if cluster_a == cluster_b:
            raise GraphError("cannot merge a cluster with itself")
        return not (
            self._path_through_third(cluster_a, cluster_b, work)
            or self._path_through_third(cluster_b, cluster_a, work)
        )

    def _path_through_third(self, src: int, dst: int, work=None) -> bool:
        """Is there a path src → X → ... → dst with X not in {src, dst}?"""
        qadj = self._qadj
        seeds = qadj[src] - {dst}
        if not seeds:
            return False
        seen = set(seeds)
        frontier = list(seeds)
        probes = 0
        found = False
        while frontier:
            current = frontier.pop()
            probes += 1
            if current == dst:
                found = True
                break
            for nxt in qadj[current]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if work is not None:
            work.merge_probes += probes
        return found

    def merge_preview(self, cluster_a: int, cluster_b: int) -> Dict[str, int]:
        """Structured description of a prospective merge.

        The payload Algorithm 1 attaches to its merge-decision trace
        events: member counts and quotient degrees of both clusters, so
        a trace viewer can see *what* was being merged without
        replaying the partition state.
        """
        return {
            "cluster_a": cluster_a,
            "cluster_b": cluster_b,
            "size_a": len(self.members(cluster_a)),
            "size_b": len(self.members(cluster_b)),
            "out_degree_a": len(self._qadj[cluster_a]),
            "out_degree_b": len(self._qadj[cluster_b]),
        }

    def merged(self, cluster_a: int, cluster_b: int, work=None) -> "Partition":
        """A new partition with the two clusters merged.

        The caller is responsible for checking :meth:`can_merge`; the
        quotient is updated mechanically either way.  ``work`` is
        accepted for planner-backend call-site parity; the reference
        copy keeps no reachability index, so nothing is charged.
        """
        del work
        if cluster_a == cluster_b:
            raise GraphError("cannot merge a cluster with itself")
        new_id = min(cluster_a, cluster_b)
        dead_id = max(cluster_a, cluster_b)
        merged_nodes = self._clusters[cluster_a] | self._clusters[cluster_b]

        clusters = dict(self._clusters)
        del clusters[dead_id]
        clusters[new_id] = merged_nodes

        of = dict(self._of)
        for node_id in merged_nodes:
            of[node_id] = new_id

        qadj = {cid: set(nbrs) for cid, nbrs in self._qadj.items()}
        qradj = {cid: set(nbrs) for cid, nbrs in self._qradj.items()}
        out = (qadj.pop(dead_id) | qadj[new_id]) - {new_id, dead_id}
        inn = (qradj.pop(dead_id) | qradj[new_id]) - {new_id, dead_id}
        qadj[new_id] = out
        qradj[new_id] = inn
        for cid in out:
            qradj[cid].discard(dead_id)
            qradj[cid].add(new_id)
        for cid in inn:
            qadj[cid].discard(dead_id)
            qadj[cid].add(new_id)
        return Partition(clusters, of, qadj, qradj)

    def snapshot(self) -> "Partition":
        """An independent view (planner-backend API parity).

        The reference partition is immutable-by-convention — ``merged``
        allocates a fresh object — so the snapshot is ``self``.
        """
        return self

    # ------------------------------------------------------------------
    # Ordering & validation
    # ------------------------------------------------------------------
    def topo_order(self, graph: Optional[KernelGraph] = None) -> List[int]:
        """Cluster ids in a deterministic topological order (≺C).

        Kahn's algorithm with a min-id tie-break, so independent
        clusters keep program order.  Raises :class:`GraphError` when
        the quotient has a cycle (invalid partition).
        """
        del graph  # kept for API symmetry; quotient is self-contained
        indeg = {cid: len(self._qradj[cid]) for cid in self._clusters}
        ready = [cid for cid, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            cid = heapq.heappop(ready)
            order.append(cid)
            for dst in self._qadj[cid]:
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    heapq.heappush(ready, dst)
        if len(order) != len(self._clusters):
            raise GraphError("partition quotient graph has a cycle")
        return order

    def is_valid(self, graph: Optional[KernelGraph] = None) -> bool:
        """True iff the quotient graph is acyclic."""
        try:
            self.topo_order(graph)
        except GraphError:
            return False
        return True

    def validate_against(self, graph: KernelGraph) -> None:
        """Structural cross-check of the incremental quotient state.

        Rebuilds the quotient from the graph and compares; intended for
        tests and debugging, not the hot path.
        """
        nodes_seen: Set[int] = set()
        for cid, members in self._clusters.items():
            if cid != min(members):
                raise GraphError(f"cluster {cid} is not named by its min node")
            for node_id in members:
                if self._of[node_id] != cid:
                    raise GraphError(f"node {node_id} maps to the wrong cluster")
            if nodes_seen & members:
                raise GraphError("clusters overlap")
            nodes_seen |= members
        if nodes_seen != {n.node_id for n in graph}:
            raise GraphError("clusters do not cover the graph")
        expected: Dict[int, Set[int]] = {cid: set() for cid in self._clusters}
        for edge in graph.edges:
            ca, cb = self._of[edge.src], self._of[edge.dst]
            if ca != cb:
                expected[ca].add(cb)
        if expected != self._qadj:
            raise GraphError("incremental quotient adjacency is stale")

    def summary(self) -> str:
        sizes = sorted((len(m) for m in self._clusters.values()), reverse=True)
        return (
            f"Partition: {len(self._clusters)} clusters, "
            f"largest {sizes[0] if sizes else 0} nodes"
        )
