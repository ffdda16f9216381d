"""The repository's benchmark: one command, two workloads.

    python3 ktbench/run.py --workload fig5-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` also runs
a traced phase and prints the per-layer metrics, the self time of each
layer and the tracing overhead of each timed metric.  Every output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is non-zero when any check failed.  See ``ktbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".ktbench_out")

WORKLOADS = ("fig5-cold", "serve-replan")

#: The app the workloads plan: the scaled HSOpticalFlow of Figure 5
#: (92 kernels), or a tiny one for the benchmark's own tests.
SCALES = {
    "full": {"frame_size": 256, "levels": 3, "jacobi_iters": 20},
    "tiny": {"frame_size": 64, "levels": 2, "jacobi_iters": 2},
}

#: Per-layer metrics of layers a workload does not exercise; they read
#: 0 there.  Every other per-layer metric must be measured.
UNEXERCISED = {
    "fig5-cold": ("store.", "serve."),
    "serve-replan": (
        "runtime.", "core.model_error_pct",
        "overhead.cold_plan_s", "overhead.fig5_s",
    ),
}


def _engine_env() -> dict:
    """The bit-identical fast engines, one worker, no ambient store.

    Set through the environment, which the daemon inherits, rather
    than CLI flags that a later change may delete.
    """
    env = dict(os.environ)
    env["KTILER_SIM_BACKEND"] = "fast"
    env["KTILER_PLANNER_BACKEND"] = "fast"
    env.pop("KTILER_WORKERS", None)
    env.pop("KTILER_CACHE_DIR", None)
    env["PYTHONPATH"] = SRC
    return env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="app size ('tiny' is for the benchmark's tests)")
    return parser.parse_args(argv)


def _fill_unexercised(workload: str, metrics: dict, names) -> None:
    for name in names:
        if name not in metrics and name.startswith(UNEXERCISED[workload]):
            metrics[name] = 0.0
    missing = [name for name in names if name not in metrics]
    if missing:
        raise RuntimeError(f"{workload}: metrics not measured: {missing}")


def _exit_on_sigterm(signum, frame) -> None:
    # Raise SystemExit, so that the ``finally`` blocks stop the daemon.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"ktbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    env = _engine_env()
    os.environ.clear()
    os.environ.update(env)
    sys.path[:0] = [SRC, ROOT]
    os.makedirs(OUT_DIR, exist_ok=True)

    from ktbench.common import END_TO_END, PER_LAYER
    from ktbench.hostspeed import HostSpeed
    from ktbench.spans import SpanRecorder

    rec = SpanRecorder()
    speed = HostSpeed()
    app = SCALES[args.scale]
    started = time.perf_counter()
    if args.workload == "fig5-cold":
        from ktbench import fig5_cold

        out = fig5_cold.run(args.seconds, bool(args.trace), env, app, rec,
                            speed)
    else:
        from ktbench import serving

        out = serving.run(args.seed, args.seconds, bool(args.trace), env,
                          app, OUT_DIR, rec, speed)
    out.set_ok_share()

    units = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        _fill_unexercised(args.workload, out.metrics, units)
        path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"
        )
        rec.dump(path)
        out.notes.append(f"{len(rec.spans)} spans written to {path}")
    out.notes.append(
        f"host speed factor {speed.factor():.4f}: median of "
        f"{len(speed.samples)} reference loops; columns: value at the "
        f"reference speed, value measured"
    )
    for note in out.notes:
        print(note)
    shown = {**END_TO_END, **PER_LAYER} if args.trace else END_TO_END
    scaled = {}
    for name, unit in shown.items():
        if name in out.metrics:
            scaled[name] = speed.scale(out.metrics[name], unit)
            print(f"  {name:<32} {scaled[name]:>14.6g} "
                  f"{out.metrics[name]:>14.6g} {unit}")
    for error in out.errors:
        print(f"FAILED: {error}")
    print(f"run took {time.perf_counter() - started:.1f} s")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": scaled[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if out.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
