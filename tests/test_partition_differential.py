"""Differential tests: FastPartition vs the reference Partition.

The fast planner backend's contract is *bit-identical* behaviour, not
approximate agreement: for any graph and any merge script both engines
must return the same ``can_merge`` verdicts, maintain the same clusters
and quotient adjacency, produce the same deterministic ``topo_order``,
and pass the same ``validate_against`` structural checks — so Algorithm
1 adopts the same merges in the same order and emits the same schedule
under either backend.  Only the *validity-family* work counters
(``merge_probes`` / ``reach_repairs``) are planner-backend-local; every
other counter must match too.

Structure:

* hypothesis-generated DAGs driven through identical merge scripts,
  comparing the full observable state after every step;
* adversarial hand-built shapes (diamond skip-merges, deep chains);
* end-to-end: ``KTiler.plan`` on probe graphs and a real app under both
  backends — byte-identical schedule documents, identical adopted-merge
  trace sequences, identical non-validity work counters;
* the backend selector's precedence and failure modes.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cluster import Partition
from repro.core.fast_cluster import (
    PLANNER_BACKENDS,
    FastPartition,
    make_partition,
)
from repro.core.work import VALIDITY_COUNTERS, PlannerWork
from repro.errors import ConfigurationError, GraphError


# ----------------------------------------------------------------------
# Minimal structural graph stub (both backends only read node_id/src/dst)
# ----------------------------------------------------------------------
class _Node:
    __slots__ = ("node_id",)

    def __init__(self, node_id: int):
        self.node_id = node_id


class _Edge:
    __slots__ = ("src", "dst")

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst


class _StubGraph:
    """Just enough of KernelGraph for partition construction/validation."""

    def __init__(self, n: int, edges):
        self._nodes = [_Node(i) for i in range(n)]
        self.edges = [_Edge(s, d) for s, d in edges]

    def __iter__(self):
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


def make_pair(graph, work_ref=None, work_fast=None):
    ref = Partition.singletons(graph)
    fast = FastPartition.singletons(graph, work=work_fast)
    return ref, fast


def assert_same_state(ref: Partition, fast: FastPartition, graph) -> None:
    """Every observable the planner reads must agree."""
    assert ref.cluster_ids() == fast.cluster_ids()
    assert len(ref) == len(fast)
    for cid in ref.cluster_ids():
        assert ref.members(cid) == fast.members(cid)
        assert ref.successors(cid) == fast.successors(cid)
        assert cid in ref and cid in fast
    for node in graph:
        assert ref.cluster_of(node.node_id) == fast.cluster_of(node.node_id)
    assert ref.topo_order() == fast.topo_order()
    assert ref.is_valid() == fast.is_valid()
    ref.validate_against(graph)
    fast.validate_against(graph)


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def dags(draw, max_nodes: int = 16):
    """A random DAG over dense node ids (edges always low -> high)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(pairs),
            unique=True,
            max_size=min(len(pairs), 3 * n),
        )
    )
    return _StubGraph(n, edges)


class TestDifferentialMergeScripts:
    @settings(max_examples=120, deadline=None)
    @given(graph=dags(), data=st.data())
    def test_identical_verdicts_and_state(self, graph, data):
        """Same merge script => same verdicts, clusters, order, closure."""
        ref, fast = make_pair(graph)
        assert_same_state(ref, fast, graph)
        steps = data.draw(st.integers(min_value=1, max_value=len(graph)))
        for _ in range(steps):
            ids = ref.cluster_ids()
            if len(ids) < 2:
                break
            a = data.draw(st.sampled_from(ids))
            b = data.draw(st.sampled_from([c for c in ids if c != a]))
            verdict = ref.can_merge(a, b)
            assert fast.can_merge(a, b) == verdict
            if verdict:
                ref = ref.merged(a, b)
                fast = fast.merged(a, b)
                assert_same_state(ref, fast, graph)

    @settings(max_examples=60, deadline=None)
    @given(graph=dags(max_nodes=12), data=st.data())
    def test_every_pair_agrees_after_random_merges(self, graph, data):
        """After a random valid-merge prefix, probe *all* remaining pairs."""
        ref, fast = make_pair(graph)
        for _ in range(data.draw(st.integers(min_value=0, max_value=6))):
            ids = ref.cluster_ids()
            if len(ids) < 2:
                break
            a = data.draw(st.sampled_from(ids))
            b = data.draw(st.sampled_from([c for c in ids if c != a]))
            if ref.can_merge(a, b) and fast.can_merge(a, b):
                ref = ref.merged(a, b)
                fast = fast.merged(a, b)
        ids = ref.cluster_ids()
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                assert ref.can_merge(a, b) == fast.can_merge(a, b), (a, b)


class TestAdversarialShapes:
    def test_diamond_skip_merge_invalid_in_both(self):
        # 0 -> {1, 2} -> 3: merging 0 with 3 around the middle is a cycle.
        graph = _StubGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        ref, fast = make_pair(graph)
        for a, b in ((0, 3), (3, 0)):
            assert not ref.can_merge(a, b)
            assert not fast.can_merge(a, b)
        # The sides are mergeable; afterwards 0-3 stays invalid (path
        # through the remaining side), and merging the remaining side in
        # makes everything one cluster's neighbour.
        ref, fast = ref.merged(0, 1), fast.merged(0, 1)
        assert_same_state(ref, fast, graph)
        assert ref.can_merge(0, 3) == fast.can_merge(0, 3) is False
        assert ref.can_merge(0, 2) == fast.can_merge(0, 2)

    def test_chain_collapses_front_to_back(self):
        n = 24
        graph = _StubGraph(n, [(i, i + 1) for i in range(n - 1)])
        ref, fast = make_pair(graph)
        for i in range(1, n):
            # The next chain node is always directly mergeable; skipping
            # ahead is not (path through the intermediate cluster).
            assert ref.can_merge(0, i) is fast.can_merge(0, i) is True
            if i + 1 < n:
                assert ref.can_merge(0, i + 1) is fast.can_merge(0, i + 1) is False
            ref = ref.merged(0, i)
            fast = fast.merged(0, i)
            assert_same_state(ref, fast, graph)
        assert len(fast) == 1

    def test_wide_fan_everything_mergeable_with_root(self):
        n = 9
        graph = _StubGraph(n, [(0, i) for i in range(1, n)])
        ref, fast = make_pair(graph)
        for i in range(1, n):
            assert ref.can_merge(0, i) is fast.can_merge(0, i) is True
        # Two leaves are independent — mergeable in both.
        assert ref.can_merge(1, 2) is fast.can_merge(1, 2) is True

    def test_word_boundary_sizes(self):
        """Exercise bitset rows at 1/2/3-word widths (n near 64 and 128)."""
        for n in (63, 64, 65, 127, 129):
            graph = _StubGraph(n, [(i, i + 1) for i in range(n - 1)])
            ref, fast = make_pair(graph)
            assert not fast.can_merge(0, n - 1)
            assert ref.can_merge(0, n - 1) is False
            ref, fast = ref.merged(0, 1), fast.merged(0, 1)
            assert ref.can_merge(0, 2) is fast.can_merge(0, 2) is True
            fast.validate_against(graph)


class TestFastPartitionContract:
    def test_snapshot_is_isolated(self):
        graph = _StubGraph(4, [(0, 1), (1, 2), (2, 3)])
        fast = FastPartition.singletons(graph)
        snap = fast.snapshot()
        fast.merged(0, 1)
        assert len(fast) == 3
        assert len(snap) == 4
        assert snap.cluster_ids() == [0, 1, 2, 3]
        snap.validate_against(graph)
        # The snapshot's reachability index is its own storage.
        assert snap.can_merge(0, 1) is True

    def test_reference_snapshot_is_self(self):
        graph = _StubGraph(3, [(0, 1), (1, 2)])
        ref = Partition.singletons(graph)
        assert ref.snapshot() is ref

    def test_merged_is_in_place_and_returns_self(self):
        graph = _StubGraph(3, [(0, 1), (1, 2)])
        fast = FastPartition.singletons(graph)
        assert fast.merged(0, 1) is fast
        assert len(fast) == 2

    def test_error_parity(self):
        graph = _StubGraph(3, [(0, 1), (1, 2)])
        ref, fast = make_pair(graph)
        for part in (ref, fast):
            with pytest.raises(GraphError):
                part.can_merge(0, 0)
            with pytest.raises(GraphError):
                part.cluster_of(99)
            with pytest.raises(GraphError):
                part.members(99)
        # The fast backend guards unknown clusters explicitly (the
        # reference's BFS would KeyError on its own dict lookup).
        with pytest.raises(GraphError):
            fast.can_merge(0, 99)

    def test_dense_ids_required(self):
        class _SparseGraph(_StubGraph):
            def __init__(self):
                self._nodes = [_Node(0), _Node(2)]
                self.edges = []

        with pytest.raises(GraphError):
            FastPartition.singletons(_SparseGraph())

    def test_merge_preview_parity(self):
        graph = _StubGraph(4, [(0, 1), (0, 2), (1, 3)])
        ref, fast = make_pair(graph)
        assert ref.merge_preview(0, 1) == fast.merge_preview(0, 1)
        ref, fast = ref.merged(0, 1), fast.merged(0, 1)
        assert ref.merge_preview(0, 2) == fast.merge_preview(0, 2)

    def test_summary_parity(self):
        graph = _StubGraph(4, [(0, 1), (1, 2), (2, 3)])
        ref, fast = make_pair(graph)
        assert ref.summary() == fast.summary()
        ref, fast = ref.merged(0, 1), fast.merged(0, 1)
        assert ref.summary() == fast.summary()


class TestWorkCharging:
    def test_singletons_charges_index_construction(self):
        n = 70  # two words
        graph = _StubGraph(n, [(i, i + 1) for i in range(n - 1)])
        work = PlannerWork()
        FastPartition.singletons(graph, work=work)
        assert work.reach_repairs == 2 * n * 2
        assert work.merge_probes == 0

    def test_can_merge_charges_words_with_short_circuit(self):
        graph = _StubGraph(3, [(0, 1), (1, 2)])
        fast = FastPartition.singletons(graph)
        work = PlannerWork()
        # 0 -> 1 -> 2: first direction finds the path, second skipped.
        assert not fast.can_merge(0, 2, work=work)
        assert work.merge_probes == 1
        # Independent direction check runs both ANDs.
        work2 = PlannerWork()
        assert fast.can_merge(0, 1, work=work2)
        assert work2.merge_probes == 2

    def test_merged_charges_repair_rows(self):
        graph = _StubGraph(4, [(0, 1), (1, 2), (2, 3)])
        fast = FastPartition.singletons(graph)
        work = PlannerWork()
        # Merge 1 and 2: ancestors {0}, descendants {3} => (1+1+2)*words.
        fast.merged(1, 2, work=work)
        assert work.reach_repairs == 4

    def test_reference_merged_charges_nothing(self):
        graph = _StubGraph(3, [(0, 1), (1, 2)])
        ref = Partition.singletons(graph)
        work = PlannerWork()
        ref.merged(0, 1, work=work)
        assert work.as_dict() == PlannerWork().as_dict()


class TestBackendSelector:
    def test_unknown_backend_rejected(self):
        from repro.apps import build_pipeline
        from repro.core import KTiler

        graph = _StubGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ConfigurationError):
            make_partition(graph, "turbo")
        with pytest.raises(ConfigurationError):
            KTiler(build_pipeline(size=64).graph, planner_backend="warp")

    def test_make_partition_picks_the_backend(self, monkeypatch):
        # The environment is never consulted: fast is the default.
        monkeypatch.setenv("KTILER_PLANNER_BACKEND", "reference")
        graph = _StubGraph(3, [(0, 1), (1, 2)])
        assert isinstance(make_partition(graph), FastPartition)
        assert isinstance(make_partition(graph, "fast"), FastPartition)
        assert isinstance(make_partition(graph, "reference"), Partition)

    def test_backend_names(self):
        assert Partition.backend_name == "reference"
        assert FastPartition.backend_name == "fast"
        assert set(PLANNER_BACKENDS) == {"reference", "fast"}


# ----------------------------------------------------------------------
# End to end: the whole planner pipeline under both backends
# ----------------------------------------------------------------------
def _plan(app, planner_backend: str, tracer=None):
    from repro.core import KTiler, KTilerConfig
    from repro.obs import NULL_TRACER

    ktiler = KTiler(
        app.graph,
        config=KTilerConfig(launch_overhead_us=2.0),
        tracer=tracer if tracer is not None else NULL_TRACER,
        planner_backend=planner_backend,
    )
    return ktiler.plan()


def _merge_trace(tracer):
    """The adopted/rejected/invalid decision sequence, timestamps dropped."""
    out = []
    for event in tracer.events:
        if event.get("name") != "sched.merge":
            continue
        args = dict(event["args"])
        out.append(tuple(sorted(args.items())))
    return out


@pytest.mark.parametrize(
    "shape,kernels", [("chain", 24), ("fan", 24), ("grid", 25)]
)
def test_end_to_end_probe_graphs_bit_identical(shape, kernels):
    from repro.apps.synthetic import build_probe_graph
    from repro.core.serialize import schedule_to_dict
    from repro.obs import Tracer

    docs, works, traces = {}, {}, {}
    for backend in PLANNER_BACKENDS:
        app = build_probe_graph(shape=shape, kernels=kernels, size=32, seed=0)
        tracer = Tracer()
        plan = _plan(app, backend, tracer)
        docs[backend] = json.dumps(
            schedule_to_dict(plan.schedule), sort_keys=True
        )
        works[backend] = plan.stats.work.as_dict()
        traces[backend] = _merge_trace(tracer)
        assert plan.stats.adopted_merges + plan.stats.rejected_merges > 0
    assert docs["reference"] == docs["fast"]
    assert traces["reference"] == traces["fast"]
    assert traces["reference"], "expected merge decisions in the trace"
    for counter, value in works["reference"].items():
        if counter in VALIDITY_COUNTERS:
            continue
        assert works["fast"][counter] == value, counter


def test_end_to_end_real_app_bit_identical():
    from repro.apps import build_jacobi_pingpong
    from repro.core.serialize import schedule_to_dict

    docs = {}
    stats = {}
    for backend in PLANNER_BACKENDS:
        app = build_jacobi_pingpong(iters=4, size=64)
        plan = _plan(app, backend)
        docs[backend] = json.dumps(
            schedule_to_dict(plan.schedule), sort_keys=True
        )
        stats[backend] = (
            plan.stats.adopted_merges,
            plan.stats.rejected_merges,
            plan.stats.invalid_partitions,
            plan.stats.merge_attempts,
        )
    assert docs["reference"] == docs["fast"]
    assert stats["reference"] == stats["fast"]


def test_validity_counters_are_backend_local():
    """The two backends charge the validity family differently (by
    design); both are deterministic run-to-run."""
    from repro.apps.synthetic import build_probe_graph

    def run(backend):
        app = build_probe_graph(shape="chain", kernels=24, size=32, seed=0)
        return _plan(app, backend).stats.work.as_dict()

    ref1, ref2 = run("reference"), run("reference")
    fast1, fast2 = run("fast"), run("fast")
    assert ref1 == ref2
    assert fast1 == fast2
    assert ref1["reach_repairs"] == 0
    assert fast1["reach_repairs"] > 0
    assert fast1["merge_probes"] < ref1["merge_probes"]
