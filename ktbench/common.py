"""Shared pieces: run outcome, sample statistics, metric names and units."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ktbench.spans import LAYERS, SpanRecorder

#: End-to-end metrics, printed by every untraced run (name -> unit).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_plan_s": "s",
    "fig5_s": "s",
    "sim_gain_ig_pct": "%",
    "sim_gain_noig_pct": "%",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_share": "ratio",
}

#: End-to-end metrics timed inside the measured phase; the traced run
#: reports ``overhead.<name>`` = traced value - untraced value for each.
TIMED = ("cold_plan_s", "fig5_s", "req_per_s", "latency_p50_ms", "latency_tail_ms")

#: Per-layer metrics, printed by every traced run (name -> unit).  A
#: layer that does no work on a workload reads 0 there.
PER_LAYER: Dict[str, str] = {
    "apps.build_s": "s",
    "gpusim.trace_s": "s",
    "gpusim.trace_blocks": "count",
    "gpusim.trace_l2_accesses": "count",
    "analyzer.block_graph_s": "s",
    "analyzer.block_graph_edges": "count",
    "analyzer.mem_lines_s": "s",
    "core.profile_s": "s",
    "core.profile_launches": "count",
    "core.weights_s": "s",
    "core.plan_s": "s",
    "core.merge_attempts": "count",
    "core.adopted_merges": "count",
    "core.invalid_partitions": "count",
    "core.merge_probes": "count",
    "core.reach_repairs": "count",
    "core.blocks_visited": "count",
    "core.footprint_lines": "count",
    "core.frontier_updates": "count",
    "core.perftable_queries": "count",
    "core.merge_adopt_ratio": "ratio",
    "core.model_error_pct": "%",
    "runtime.replay_s": "s",
    "runtime.default_launches": "count",
    "runtime.tiled_launches": "count",
    "runtime.default_hit_rate": "ratio",
    "runtime.tiled_hit_rate": "ratio",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hits": "count",
    "store.writes": "count",
    "serve.parse_ms": "ms",
    "serve.fingerprint_ms": "ms",
    "serve.server_ms": "ms",
    "serve.http_ms": "ms",
    "serve.response_bytes": "bytes",
    "serve.daemon_cpu_ms_per_req": "ms",
    "serve.planned_ratio": "ratio",
}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update(
    {f"overhead.{name}": END_TO_END[name] for name in TIMED}
)

#: ``TilingResult.stats`` fields reported as ``core.<name>`` counts.
STATS_COUNTS = ("merge_attempts", "adopted_merges", "invalid_partitions")
#: ``TilingResult.stats.work`` fields reported as ``core.<name>`` counts.
WORK_COUNTS = (
    "merge_probes", "reach_repairs", "blocks_visited", "footprint_lines",
    "frontier_updates", "perftable_queries",
)


def staged_plan(ktiler, freq, rec: SpanRecorder):
    """Plan ``freq`` on a fresh ``KTiler``, each lazy stage under its own span.

    Returns the plan and the exact counts of the stages before it.
    """
    with rec.span("gpusim.trace"):
        launches = ktiler.instrumented_run.launches
    with rec.span("analyzer.block_graph"):
        block_graph = ktiler.block_graph
    with rec.span("analyzer.mem_lines"):
        ktiler.mem_lines
    with rec.span("core.profile"):
        profiles = ktiler.profiler.profile_graph(ktiler.graph)
    with rec.span("core.weights"):
        ktiler.edge_weights(freq)
    with rec.span("core.plan", freq=freq.label):
        plan = ktiler.plan(freq)
    counts = {
        "gpusim.trace_blocks": sum(l.tally.num_blocks for l in launches),
        "gpusim.trace_l2_accesses": sum(l.tally.accesses for l in launches),
        "analyzer.block_graph_edges": block_graph.num_dependencies(),
        # The standard profiling ladder; planning may add combos later.
        "core.profile_launches": sum(len(p.tallies) for p in profiles.values()),
    }
    return plan, counts


def planner_counts(plans) -> Dict[str, float]:
    """Exact planner work of ``plans``, summed, and its adopt ratio."""
    counts: Dict[str, float] = {}
    for name in STATS_COUNTS:
        counts[f"core.{name}"] = sum(getattr(p.stats, name) for p in plans)
    for name in WORK_COUNTS:
        counts[f"core.{name}"] = sum(getattr(p.stats.work, name) for p in plans)
    attempts = counts["core.merge_attempts"]
    counts["core.merge_adopt_ratio"] = (
        counts["core.adopted_merges"] / attempts if attempts else 0.0
    )
    return counts


@dataclass
class Outcome:
    """What one run of a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked output; a failure is kept with its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def set_ok_share(self) -> None:
        self.metrics["ok_share"] = (
            (self.attempted - self.failed) / self.attempted
            if self.attempted else 0.0
        )


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples).  With fewer than 100 samples
    that percentile lies below p90, which is no tail: the maximum is
    returned and labelled p100.  (With 22 samples it would be the
    median; keeping the switch far above the 5-25 samples a run takes
    keeps the metric from jumping between the two from run to run.)
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 100:
        return ordered[-1], 100.0, n
    rank = n - 11
    return ordered[rank], 100.0 * (rank + 1) / n, n


def rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0

