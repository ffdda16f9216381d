"""The benchmark's own tests: every workload at a tiny size, and its checks.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest ktbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from ktbench import run, serving  # noqa: E402
from ktbench.common import Outcome, tail  # noqa: E402
from ktbench.fig5_cold import check_ops  # noqa: E402
from ktbench.hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from ktbench.spans import SpanRecorder  # noqa: E402


with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def _run(tmp_cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("ktbench", "run.py"), *args],
        cwd=tmp_cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} " in done.stdout, f"{name} not printed"


def test_contract_lists_the_metrics_the_benchmark_prints():
    from ktbench.common import END_TO_END, PER_LAYER

    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)


def _tiny_serve(tmp_path):
    return serving.run(1, 0.5, False, run._engine_env(), run.SCALES["tiny"],
                       str(tmp_path), SpanRecorder(), HostSpeed())


def test_wrong_served_tag_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(serving, "EXPECTED_SERVED", "memo")
    out = _tiny_serve(tmp_path)
    assert out.failed >= 1
    assert any("served 'planned', expected 'memo'" in e for e in out.errors)


@pytest.mark.parametrize("tampered", ["warm-up", "timed"])
def test_tampered_digest_counts_as_failure(tmp_path, monkeypatch, tampered):
    honest = serving.post_plan
    warm = {serving.plan_body(serving.request_app(run.SCALES["tiny"]), *p)
            for p in serving.warm_points()}

    def tampering(conn, body):
        reply = honest(conn, body)
        if (body in warm) == (tampered == "warm-up"):
            reply.payload["plan_digest"] = "0" * 64
        return reply

    monkeypatch.setattr(serving, "post_plan", tampering)
    out = _tiny_serve(tmp_path)
    assert out.failed >= 1
    assert any("differ" in e for e in out.errors), out.errors


def test_untampered_serve_run_has_no_failures(tmp_path):
    out = _tiny_serve(tmp_path)
    assert out.failed == 0, out.errors
    assert out.attempted > 4


def test_fig5_ops_with_another_digest_or_gain_fail():
    reference = SimpleNamespace(digests=("a", "b"), gains=(0.2, 0.3))
    ops = [
        reference,
        SimpleNamespace(digests=("a", "x"), gains=(0.2, 0.3)),
        SimpleNamespace(digests=("a", "b"), gains=(0.2, 0.31)),
    ]
    out = Outcome()
    check_ops(out, ops, reference)
    assert (out.attempted, out.failed) == (6, 2)


def _first(stream, n):
    return [next(stream) for _ in range(n)]


def test_request_streams_are_a_function_of_the_seed():
    same = [
        [_first(s, 30) for s in serving.request_streams(7, {})]
        for _ in range(2)
    ]
    other = [_first(s, 30) for s in serving.request_streams(8, {})]
    assert same[0] == same[1]
    assert same[0] != other


def test_replan_points_are_distinct_and_never_warm():
    warm = {serving.plan_body({}, *p) for p in serving.warm_points()}
    bodies = [b for s in serving.request_streams(1, {})
              for b in _first(s, 200)]
    assert len(set(bodies)) == len(bodies)
    assert not warm & set(bodies)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(100))) == (89, 90.0, 100)
    assert tail(list(range(99))) == (98, 100.0, 99)
    assert tail([5.0, 1.0, 3.0]) == (5.0, 100.0, 3)


def test_times_and_rates_are_scaled_to_the_reference_speed():
    speed = HostSpeed()
    speed.samples = [2 * REFERENCE_S, 3 * REFERENCE_S, 2 * REFERENCE_S]
    assert speed.factor() == 0.5
    assert speed.scale(4.0, "s") == speed.scale(4000.0, "ms") / 1000 == 2.0
    assert speed.scale(1.0, "1/s") == 2.0
    assert speed.scale(150.0, "MB") == 150.0
    assert speed.scale(7, "count") == 7


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "fig5-cold", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
