"""The ``serve-replan`` workload: a ``ktiler serve`` daemon re-planning.

Set-up starts the daemon in its own process with a fresh artifact store
and request log, then plans the four Figure-5 operating points through
it.  The timed phase is closed loop: each of ``CLIENTS`` threads, on
one persistent HTTP/1.1 keep-alive connection, sends its next
``/v1/plan`` body only when the previous response has arrived.  The bodies ask for
distinct operating points drawn by the seed from a DVFS grid, so every
request misses the memo and plans on a warm artifact store.

The daemon receives only the generated bodies.  Three in-process
Figure-5 ops, run while the daemon is absent or idle, check the served
plans and give ``cold_plan_s``, ``fig5_s`` and the simulated gains.
Checks and the traced replica of the request path run outside the
timed phase.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ktbench import fig5_cold
from ktbench.common import (
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
from repro.core.ktiler import KTiler
from repro.core.serialize import schedule_to_dict
from repro.gpusim.freq import FIG5_CONFIGS
from repro.serve.wire import parse_plan_request, plan_digest, plan_fingerprint
from repro.store.store import ArtifactStore

#: Concurrent closed-loop clients.  One: two concurrent misses contend
#: for the daemon's interpreter lock, and with two clients the spread of
#: the median latency over five runs of the same code reached 0.31 on a
#: 2-core VM, against 0.20 with one client.
CLIENTS = 1

#: Daemon starts per run; ``setup_s`` uses the median start-to-ready.
SETUP_REPEATS = 3

#: The re-plan grid: (gpu_mhz 400-1324 step 25) x (mem_mhz 800-5010
#: step 100), minus the warm-up points.
GPU_MHZ = range(400, 1325, 25)
MEM_MHZ = range(800, 5011, 100)

#: The ``served`` tag every timed reply must carry: each one is a miss.
EXPECTED_SERVED = "planned"

#: Replica ops the traced run pushes through the request path in process.
REPLICA_OPS = 2

_DIGEST = re.compile(r"^[0-9a-f]{64}$")
_LISTENING = re.compile(r"listening on http://[^:/]+:(\d+)")


# --------------------------------------------------------------------
# Request streams
# --------------------------------------------------------------------

def plan_body(app: Dict[str, int], gpu_mhz: float, mem_mhz: float) -> bytes:
    """A sparse ``/v1/plan`` body: the fig5 preset at one operating point."""
    body = {
        "app": {"preset": "fig5", **app},
        "freq": {"gpu_mhz": gpu_mhz, "mem_mhz": mem_mhz},
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def request_app(app_params: Dict[str, int]) -> Dict[str, int]:
    """The wire form of the ``build_hsopticalflow`` parameters."""
    return {"size": app_params["frame_size"], "levels": app_params["levels"],
            "iters": app_params["jacobi_iters"]}


def warm_points() -> List[Tuple[float, float]]:
    return [(f.gpu_mhz, f.mem_mhz) for f in FIG5_CONFIGS]


def replan_grid() -> List[Tuple[float, float]]:
    warm = set(warm_points())
    return [
        (float(g), float(m)) for g in GPU_MHZ for m in MEM_MHZ
        if (g, m) not in warm
    ]


def request_streams(seed: int, app: Dict[str, int]) -> List[Iterator[bytes]]:
    """One body stream per client, a pure function of the seed."""
    grid = replan_grid()
    order = random.Random(f"serve-replan:{seed}").sample(grid, len(grid))
    return [
        (plan_body(app, *point) for point in order[c::CLIENTS])
        for c in range(CLIENTS)
    ]


# --------------------------------------------------------------------
# Daemon and connections
# --------------------------------------------------------------------

class Daemon:
    """A ``ktiler serve`` process on an ephemeral port."""

    def __init__(self, workdir: str, env: Dict[str, str]):
        os.makedirs(workdir, exist_ok=True)
        self.workdir = workdir
        self.store_dir = os.path.join(workdir, "store")
        self._err_path = os.path.join(workdir, "daemon.err")
        self._err = open(self._err_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--cache-dir", self.store_dir,
             "--request-log", os.path.join(workdir, "requests.log")],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._err,
        )
        self.port = 0

    def wait_ready(self, timeout_s: float = 60.0) -> float:
        """Seconds from spawn until ``/healthz`` answers 200."""
        deadline = self.started + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited: {self._tail_err()}")
            if not self.port:
                with open(self._err_path) as fh:
                    match = _LISTENING.search(fh.read())
                if match:
                    self.port = int(match.group(1))
            if self.port:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
                finally:
                    conn.close()
            time.sleep(0.01)
        raise RuntimeError(f"daemon not ready in {timeout_s} s: {self._tail_err()}")

    def _tail_err(self) -> str:
        with open(self._err_path) as fh:
            return fh.read()[-2000:]

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as fh:
            return fh.read()

    def peak_rss_mb(self) -> float:
        match = re.search(r"VmHWM:\s+(\d+) kB", self._proc_file("status"))
        return int(match.group(1)) / 1024.0

    def cpu_s(self) -> float:
        """User + system CPU seconds the daemon has used so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._err.close()


@dataclass
class Reply:
    body: bytes
    status: int
    payload: Optional[dict]
    round_trip_s: float
    nbytes: int


def post_plan(conn: http.client.HTTPConnection, body: bytes) -> Reply:
    t0 = time.perf_counter()
    conn.request("POST", "/v1/plan", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    data = response.read()
    round_trip_s = time.perf_counter() - t0
    try:
        payload = json.loads(data)
    except ValueError:
        payload = None
    return Reply(body, response.status, payload, round_trip_s, len(data))


def check_reply(reply: Reply, expected_served: str) -> Optional[str]:
    """Why a ``/v1/plan`` reply is wrong, or None when it is right.

    Digests are only checked for their form here; whether they are the
    right ones is checked against in-process plans after the run.
    """
    if reply.status != 200 or not isinstance(reply.payload, dict):
        return f"HTTP {reply.status}: {reply.payload!r:.200}"
    payload = reply.payload
    if payload.get("served") != expected_served:
        return f"served {payload.get('served')!r}, expected {expected_served!r}"
    digest = payload.get("plan_digest")
    if not isinstance(digest, str) or not _DIGEST.match(digest):
        return f"malformed plan digest {digest!r}"
    freq = json.loads(reply.body)["freq"]
    point = (float(freq["gpu_mhz"]), float(freq["mem_mhz"]))
    echoed = payload.get("request", {}).get("freq", {})
    if (echoed.get("gpu_mhz"), echoed.get("mem_mhz")) != point:
        return f"reply is for {echoed}, request was for {point}"
    return None


def drive(port: int, streams: List[Iterator[bytes]], seconds: float,
          check, rec: Optional[SpanRecorder] = None
          ) -> Tuple[List[Reply], List[Optional[str]], float]:
    """Closed loop: each client sends its next body once its reply is in.

    Returns the replies, the check verdict of each, and the wall time
    from the start until the last reply arrived.
    """
    results: List[List[Tuple[Reply, Optional[str]]]] = [[] for _ in streams]
    crashes: List[Exception] = []
    start = time.perf_counter()
    deadline = start + seconds
    ends = [start] * len(streams)

    def client(index: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=170)
        try:
            n = 0
            while time.perf_counter() < deadline:
                body = next(streams[index], None)
                if body is None:
                    break
                if rec is None:
                    reply = post_plan(conn, body)
                else:
                    with rec.op(f"c{index}-{n}"), rec.span("client.request"):
                        reply = post_plan(conn, body)
                results[index].append((reply, check(reply)))
                ends[index] = time.perf_counter()
                n += 1
        except Exception as exc:  # re-raised by the calling thread
            crashes.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashes:
        raise RuntimeError(f"client failed: {crashes[0]!r}") from crashes[0]
    flat = [item for per_client in results for item in per_client]
    return [r for r, _ in flat], [v for _, v in flat], max(ends) - start


def _served_digests(replies: List[Reply], verdicts: List[Optional[str]]
                    ) -> Dict[bytes, str]:
    return {
        r.body: r.payload["plan_digest"]
        for r, verdict in zip(replies, verdicts) if verdict is None
    }


def timed_metrics(replies: List[Reply], wall_s: float) -> Dict[str, float]:
    latencies_ms = [r.round_trip_s * 1000.0 for r in replies]
    return {
        "req_per_s": rate(len(replies), wall_s),
        "latency_p50_ms": median(latencies_ms),
        "latency_tail_ms": tail(latencies_ms)[0],
    }


# --------------------------------------------------------------------
# Traced replica of the request path
# --------------------------------------------------------------------

class TimingStore(ArtifactStore):
    """An artifact store whose reads and writes are spans."""

    def __init__(self, root: str, rec: SpanRecorder):
        super().__init__(root)
        self.rec = rec

    def get(self, kind, key):
        with self.rec.span("store.get", kind=kind):
            return super().get(kind, key)

    def put(self, kind, key, payload):
        with self.rec.span("store.put", kind=kind):
            super().put(kind, key, payload)


def replica_op(body: bytes, store: TimingStore,
               rec: SpanRecorder) -> Tuple[str, Dict[str, float]]:
    """The daemon's miss path in process, one span per layer call.

    Returns the plan digest and the op's exact per-layer counts.
    """
    with rec.span("serve.parse"):
        request = parse_plan_request(json.loads(body))
    with rec.span("serve.fingerprint"):
        fingerprint = plan_fingerprint(request, store.key_for)
    params = request.params
    with rec.span("apps.build"):
        build_hsopticalflow(frame_size=params["size"], levels=params["levels"],
                            jacobi_iters=params["iters"])
    hits, writes = store.hits, store.writes
    ktiler = KTiler(
        request.graph, spec=request.spec, config=request.config,
        backend=request.sim_backend, workers=request.workers,
        store=store, planner_backend=request.planner_backend,
    )
    plan, counts = staged_plan(ktiler, request.freq, rec)
    counts.update(planner_counts([plan]))
    counts["store.hits"] = store.hits - hits
    counts["store.writes"] = store.writes - writes
    # The shape of the daemon's plan result, for the encode span.
    result = {
        "kind": "plan",
        "fingerprint": fingerprint,
        "plan_digest": plan_digest(plan.schedule, request.graph),
        "schedule": schedule_to_dict(plan.schedule, request.graph),
        "estimated_cost_us": plan.estimated_cost_us,
        "stats": asdict(plan.stats),
        "request": request.echo,
    }
    with rec.span("serve.encode"):
        json.dumps(result).encode()
    return result["plan_digest"], counts


def replica_metrics(rec: SpanRecorder, counts: List[Dict[str, float]],
                    ops: int) -> Dict[str, float]:
    def per_op(name: str, scale: float = 1.0) -> float:
        totals = rec.per_op_total(name)
        return scale * median([totals.get(f"replica-{i}", 0.0) for i in range(ops)])

    metrics = {
        "serve.parse_ms": per_op("serve.parse", 1000.0),
        "serve.fingerprint_ms": per_op("serve.fingerprint", 1000.0),
        "apps.build_s": per_op("apps.build"),
        "gpusim.trace_s": per_op("gpusim.trace"),
        "analyzer.block_graph_s": per_op("analyzer.block_graph"),
        "analyzer.mem_lines_s": per_op("analyzer.mem_lines"),
        "core.profile_s": per_op("core.profile"),
        "core.weights_s": per_op("core.weights"),
        "core.plan_s": per_op("core.plan"),
        "store.get_s": per_op("store.get"),
        "store.put_s": per_op("store.put"),
    }
    for name in counts[0]:
        metrics[name] = median([c[name] for c in counts])
    selfs = rec.self_seconds()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs[layer] / ops
    return metrics


def _replica(seed: int, app: Dict[str, int], store_root: str,
             served: Dict[bytes, str], rec: SpanRecorder,
             out: Outcome) -> Dict[str, float]:
    """Push the first bodies of client 0's stream through the miss path
    in process, on a copy of the store as it was after warm-up."""
    store = TimingStore(store_root, rec)
    bodies = request_streams(seed, app)[0]
    counts = []
    for i in range(REPLICA_OPS):
        body = next(bodies)
        with rec.op(f"replica-{i}"), rec.span("op.replica"):
            digest, op_counts = replica_op(body, store, rec)
        counts.append(op_counts)
        if body in served:
            out.check(digest == served[body],
                      f"replica plan of {body!r} differs from the served one")
    return replica_metrics(rec, counts, REPLICA_OPS)


# --------------------------------------------------------------------
# The workload
# --------------------------------------------------------------------

def _warm_up(daemon: Daemon, app: Dict[str, int], points,
             out: Outcome) -> List[Reply]:
    """Plan ``points`` on the daemon, one after another; all must plan."""
    replies = []
    conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=170)
    try:
        for point in points:
            reply = post_plan(conn, plan_body(app, *point))
            verdict = check_reply(reply, "planned")
            if not out.check(verdict is None, f"warm-up {point}: {verdict}"):
                raise RuntimeError(f"warm-up failed: {verdict}")
            replies.append(reply)
    finally:
        conn.close()
    return replies


def _set_up(workdir: str, env: Dict[str, str], app: Dict[str, int],
            out: Outcome) -> Tuple[Daemon, float, List[Reply]]:
    """Start ``SETUP_REPEATS`` fresh daemons; the last one plans the four
    Figure-5 points and serves the timed phase.

    The others only time the start and stop.  Returns the serving
    daemon, ``setup_s`` and its warm-up replies (in ``FIG5_CONFIGS``
    order).
    """
    ready_s = []
    for i in range(SETUP_REPEATS - 1):
        probe = Daemon(os.path.join(workdir, f"probe-{i}"), env)
        try:
            ready_s.append(probe.wait_ready())
        finally:
            probe.stop()
    daemon = Daemon(os.path.join(workdir, "daemon"), env)
    try:
        ready_s.append(daemon.wait_ready())
        warm_start = time.perf_counter()
        warm_replies = _warm_up(daemon, app, warm_points(), out)
        warm_s = time.perf_counter() - warm_start
    except BaseException:
        daemon.stop()
        raise
    return daemon, median(ready_s) + warm_s, warm_replies


def _traced_phase(daemon: Daemon, streams: List[Iterator[bytes]],
                  seconds: float, check, rec: SpanRecorder, out: Outcome,
                  untraced: Dict[str, float]) -> Tuple[Dict[str, float], Dict[bytes, str]]:
    """A second timed phase with a client span per request.

    Returns the serve-layer metrics it measured, the tracing overhead of
    each timed metric, and the digests it was served.
    """
    cpu0 = daemon.cpu_s()
    replies, verdicts, wall_s = drive(daemon.port, streams, seconds, check, rec)
    cpu_s = daemon.cpu_s() - cpu0
    for verdict in verdicts:
        out.check(verdict is None, verdict or "")
    traced = timed_metrics(replies, wall_s)
    metrics = {
        f"overhead.{name}": traced[name] - untraced[name] for name in traced
    }
    good = [r for r, v in zip(replies, verdicts) if v is None]
    tags = [r.payload["served"] for r in good]
    metrics.update({
        "serve.server_ms": median([r.payload["elapsed_ms"] for r in good]),
        "serve.http_ms": median(
            [r.round_trip_s * 1000.0 - r.payload["elapsed_ms"] for r in good]
        ),
        "serve.response_bytes": median([r.nbytes for r in replies]),
        "serve.daemon_cpu_ms_per_req": 1000.0 * cpu_s / len(replies),
        "serve.planned_ratio": tags.count("planned") / max(len(tags), 1),
    })
    return metrics, _served_digests(replies, verdicts)


def _check_served_plans(out: Outcome, ops: List[fig5_cold.Op], body: bytes,
                        served: Dict[bytes, str],
                        warm_replies: List[Reply]) -> Dict[str, float]:
    """Untimed checks of what the daemon served, and the metrics they give.

    Each in-process op's four plan digests must equal the daemon's
    warm-up digests, so the simulated gains of the ops are those of the
    served schedules.  The last op's warm ``KTiler`` then plans
    ``body``'s point, which must give the digest served for it.
    """
    warm = tuple(reply.payload["plan_digest"] for reply in warm_replies)
    for i, op in enumerate(ops):
        out.check(op.digests == warm,
                  f"in-process op {i}: plan digests {op.digests} differ "
                  f"from the served {warm}")
    fig5_cold.check_ops(out, ops[1:], ops[0])
    last = ops[-1]
    freq = parse_plan_request(json.loads(body)).freq
    out.check(
        plan_digest(last.ktiler.plan(freq).schedule, last.app.graph)
        == served.get(body),
        f"in-process plan of {body!r} differs from the served one",
    )
    last.release()
    return {
        "cold_plan_s": median([op.cold_plan_s for op in ops]),
        "fig5_s": median([op.fig5_s for op in ops]),
        "sim_gain_ig_pct": 100.0 * ops[0].gains[0],
        "sim_gain_noig_pct": 100.0 * ops[0].gains[1],
    }


def _in_process_op(app_params: Dict[str, int], speed: HostSpeed,
                   keep_ktiler: bool = False) -> fig5_cold.Op:
    op = fig5_cold.run_op(app_params, keep_ktiler)
    if not keep_ktiler:
        op.release()
    gc.collect()
    speed.sample()
    return op


def run(seed: int, seconds: float, trace: bool, env: Dict[str, str],
        app_params: Dict[str, int], out_dir: str, rec: SpanRecorder,
        speed: HostSpeed) -> Outcome:
    out = Outcome()
    app = request_app(app_params)
    # The in-process ops run before the daemon starts, while it idles
    # after its warm-up, and after it has stopped: none competes with
    # it for the cores, and their median spans the whole run.
    speed.sample(3)
    ops = [_in_process_op(app_params, speed)]
    workdir = tempfile.mkdtemp(prefix="serve-replan-", dir=out_dir)
    try:
        daemon, setup_s, warm_replies = _set_up(workdir, env, app, out)
        try:
            out.metrics["setup_s"] = setup_s
            ops.append(_in_process_op(app_params, speed))
            if trace:
                replica_root = os.path.join(workdir, "replica-store")
                shutil.copytree(daemon.store_dir, replica_root)

            streams = request_streams(seed, app)
            check = lambda reply: check_reply(reply, EXPECTED_SERVED)
            replies, verdicts, wall_s = drive(daemon.port, streams, seconds, check)
            for verdict in verdicts:
                out.check(verdict is None, verdict or "")
            out.metrics.update(timed_metrics(replies, wall_s))
            served = _served_digests(replies, verdicts)
            speed.sample(3)  # the daemon idles between phases

            if trace:
                layer, traced_served = _traced_phase(
                    daemon, streams, seconds, check, rec, out, out.metrics
                )
                out.metrics.update(layer)
                served.update(traced_served)
                out.metrics.update(
                    _replica(seed, app, replica_root, served, rec, out)
                )
            out.metrics["peak_rss_mb"] = daemon.peak_rss_mb()
        finally:
            daemon.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops.append(_in_process_op(app_params, speed, keep_ktiler=True))
    out.metrics.update(
        _check_served_plans(out, ops, replies[0].body, served, warm_replies)
    )
    _, pct, n = tail([r.round_trip_s for r in replies])
    out.notes.append(
        f"serve-replan: {len(replies)} requests from {CLIENTS} client(s) in "
        f"{wall_s:.3f} s; latency_tail_ms is p{pct:.2f} of n={n}"
    )
    out.notes.append("serve-replan round trips, s: " + ", ".join(
        f"{r.round_trip_s:.3f}" for r in replies
    ))
    out.notes.append("in-process cold plan / op, s: " + ", ".join(
        f"{op.cold_plan_s:.3f}/{op.fig5_s:.3f}" for op in ops
    ))
    return out
