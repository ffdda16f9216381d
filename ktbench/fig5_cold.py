"""The ``fig5-cold`` workload: the paper's Figure 5 run from cold, in process.

One op builds the scaled HSOpticalFlow app, a fresh ``KTiler`` with no
artifact store, plans the nominal operating point and then runs
``compare_default_vs_ktiler`` over the four Figure-5 points, as
``run_fig5`` does.  No module-level cache survives between ops, so each
op pays the whole simulator front half (trace, block graph, profiles).
The workload seed does not apply: the inputs are the paper's.
"""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import time
from typing import Callable, Dict, List

from ktbench.common import (
    TIMED,
    Outcome,
    median,
    planner_counts,
    rate,
    staged_plan,
    tail,
)
from ktbench.hostspeed import HostSpeed
from ktbench.spans import LAYERS, SpanRecorder

from repro.apps.hsopticalflow import build_hsopticalflow
from repro.core.ktiler import KTiler, KTilerConfig
from repro.experiments.presets import SCALED_SPEC
from repro.gpusim.freq import FIG5_CONFIGS, NOMINAL
from repro.runtime.functional import schedules_equivalent
from repro.runtime.report import compare_default_vs_ktiler
from repro.serve.wire import plan_digest

#: What a fresh process does before its first op: import the pipeline
#: and build the app.  Run in new interpreters so that every repeat
#: pays the imports again.
_SETUP_CODE = """
import time
t0 = time.perf_counter()
from repro.apps.hsopticalflow import build_hsopticalflow
from repro.core.ktiler import KTiler, KTilerConfig
from repro.experiments.presets import SCALED_SPEC
from repro.runtime.report import compare_default_vs_ktiler
app = build_hsopticalflow(frame_size={frame_size}, levels={levels},
                          jacobi_iters={jacobi_iters})
KTiler(app.graph, spec=SCALED_SPEC,
       config=KTilerConfig(launch_overhead_us=SCALED_SPEC.launch_gap_us))
print(time.perf_counter() - t0)
"""

SETUP_REPEATS = 5


class Op:
    """What one Figure-5 run produced.

    Only the app, the nominal schedule and numbers are kept, and
    :meth:`release` drops the app too: each retained app kept about
    37 MB alive, so keeping them made the peak RSS grow with the op
    count.  ``ktiler`` is kept only when asked for, to plan more
    points on the warm pipeline.
    """

    def __init__(self, app, ktiler: KTiler, report, cold_plan_s: float,
                 fig5_s: float, keep_ktiler: bool = False):
        self.cold_plan_s = cold_plan_s
        self.fig5_s = fig5_s
        plans = [ktiler.plan(freq) for freq in FIG5_CONFIGS]
        self.app = app
        self.ktiler = ktiler if keep_ktiler else None
        self.schedule = ktiler.plan(NOMINAL).schedule
        self.digests = tuple(plan_digest(p.schedule, app.graph) for p in plans)
        self.gains = (report.mean_gain_with_ig, report.mean_gain_without_ig)
        self.layer_counts = _layer_counts(plans, report.rows)

    def release(self) -> None:
        self.app = self.schedule = self.ktiler = None


def _layer_counts(plans, rows) -> Dict[str, float]:
    """Exact per-layer counts of one op (the work of its four plans)."""
    counts = planner_counts(plans)
    counts.update({
        "runtime.default_launches": rows[0].default_launches,
        "runtime.tiled_launches": median([r.ktiler_launches for r in rows]),
        "runtime.default_hit_rate": median([r.default_hit_rate for r in rows]),
        "runtime.tiled_hit_rate": median([r.ktiler_hit_rate for r in rows]),
    })
    # The planner's cost model against the simulator it stands in for.
    errors = [
        (p.estimated_cost_us - row.ktiler_total_us) / row.ktiler_total_us
        for p, row in zip(plans, rows)
    ]
    counts["core.model_error_pct"] = 100.0 * sum(errors) / len(errors)
    return counts


def _fresh_ktiler(app) -> KTiler:
    return KTiler(
        app.graph,
        spec=SCALED_SPEC,
        config=KTilerConfig(launch_overhead_us=SCALED_SPEC.launch_gap_us),
    )


def run_op(app_params: Dict[str, int], keep_ktiler: bool = False) -> Op:
    t0 = time.perf_counter()
    app = build_hsopticalflow(**app_params)
    ktiler = _fresh_ktiler(app)
    ktiler.plan(NOMINAL)
    t1 = time.perf_counter()
    report = compare_default_vs_ktiler(ktiler, FIG5_CONFIGS)
    t2 = time.perf_counter()
    return Op(app, ktiler, report, t1 - t0, t2 - t0, keep_ktiler)


def run_traced_op(app_params: Dict[str, int], rec: SpanRecorder,
                  op_id: str) -> Op:
    """The same op, each lazy pipeline stage forced under its own span."""
    with rec.op(op_id), rec.span("op.fig5"):
        t0 = time.perf_counter()
        with rec.span("apps.build"):
            app = build_hsopticalflow(**app_params)
        ktiler = _fresh_ktiler(app)
        _, front_half = staged_plan(ktiler, NOMINAL, rec)
        t1 = time.perf_counter()
        for freq in FIG5_CONFIGS:
            if freq != NOMINAL:
                with rec.span("core.plan", freq=freq.label):
                    ktiler.plan(freq)
        with rec.span("runtime.replay"):
            report = compare_default_vs_ktiler(ktiler, FIG5_CONFIGS)
        t2 = time.perf_counter()
    op = Op(app, ktiler, report, t1 - t0, t2 - t0)
    op.layer_counts.update(front_half)
    return op


def closed_loop(seconds: float, op_fn: Callable[[int], Op],
                speed: HostSpeed) -> List[Op]:
    """Run ops back to back until ``seconds`` have passed (at least one),
    sampling the host's speed after each."""
    ops: List[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        op = op_fn(len(ops))
        if ops:
            op.release()  # the first op is the reference the checks use
        ops.append(op)
        # Free the finished op's pipeline state (it holds reference
        # cycles) so every op starts from the same heap.
        gc.collect()
        speed.sample()
    return ops


def timed_metrics(ops: List[Op]) -> Dict[str, float]:
    """One caller, so the throughput is ops over the time spent in them."""
    latencies_ms = [op.fig5_s * 1000.0 for op in ops]
    return {
        "cold_plan_s": median([op.cold_plan_s for op in ops]),
        "fig5_s": median([op.fig5_s for op in ops]),
        "req_per_s": rate(len(ops), sum(op.fig5_s for op in ops)),
        "latency_p50_ms": median(latencies_ms),
        "latency_tail_ms": tail(latencies_ms)[0],
    }


def check_ops(out: Outcome, ops: List[Op], reference: Op) -> None:
    """Every op's plan digests and simulated gains equal the reference's."""
    for i, op in enumerate(ops):
        out.check(
            op.digests == reference.digests,
            f"op {i}: plan digests {op.digests} != {reference.digests}",
        )
        out.check(
            op.gains == reference.gains,
            f"op {i}: simulated gains {op.gains} != {reference.gains}",
        )


def layer_metrics(rec: SpanRecorder, ops: List[Op]) -> Dict[str, float]:
    """Per-layer metrics of the traced ops: span medians and exact counts."""
    def per_op(name: str) -> float:
        return median(list(rec.per_op_total(name).values()))

    metrics = dict(ops[-1].layer_counts)
    metrics.update({
        "apps.build_s": per_op("apps.build"),
        "gpusim.trace_s": per_op("gpusim.trace"),
        "analyzer.block_graph_s": per_op("analyzer.block_graph"),
        "analyzer.mem_lines_s": per_op("analyzer.mem_lines"),
        "core.profile_s": per_op("core.profile"),
        "core.weights_s": per_op("core.weights"),
        # Mean planning time per operating point, front half warm.
        "core.plan_s": per_op("core.plan") / len(FIG5_CONFIGS),
        "runtime.replay_s": per_op("runtime.replay"),
    })
    selfs = rec.self_seconds()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs[layer] / len(ops)
    return metrics


def run(seconds: float, trace: bool, env: Dict[str, str],
        app_params: Dict[str, int], rec: SpanRecorder,
        speed: HostSpeed) -> Outcome:
    out = Outcome()
    speed.sample(3)
    setups = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE.format(**app_params)],
            env=env, check=True, capture_output=True, text=True, timeout=120,
        )
        setups.append(float(done.stdout.split()[-1]))

    ops = closed_loop(seconds, lambda i: run_op(app_params), speed)
    reference = ops[0]
    check_ops(out, ops, reference)
    out.metrics.update(timed_metrics(ops))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        traced = closed_loop(
            seconds, lambda i: run_traced_op(app_params, rec, f"fig5-{i}"),
            speed,
        )
        check_ops(out, traced, reference)
        traced_metrics = timed_metrics(traced)
        for name in TIMED:
            out.metrics[f"overhead.{name}"] = (
                traced_metrics[name] - out.metrics[name]
            )
        out.metrics.update(layer_metrics(rec, traced))

    # Untimed: the tiled schedule computes what the default one does.
    app = reference.app
    ok, mismatched = schedules_equivalent(
        app.graph, reference.schedule, app.host_inputs()
    )
    out.check(ok, f"tiled schedule not equivalent to default: {mismatched}")

    out.metrics.update({
        "setup_s": median(setups),
        "peak_rss_mb": rss_mb,
        "sim_gain_ig_pct": 100.0 * reference.gains[0],
        "sim_gain_noig_pct": 100.0 * reference.gains[1],
    })
    _, pct, n = tail([op.fig5_s for op in ops])
    out.notes.append(
        f"fig5-cold: {len(ops)} ops; latency_tail_ms is p{pct:.2f} of n={n}"
    )
    out.notes.append("fig5-cold cold plan / op, s: " + ", ".join(
        f"{op.cold_plan_s:.3f}/{op.fig5_s:.3f}" for op in ops
    ))
    return out
