"""Golden-file regression tests for the fig2/fig3 summary metrics.

``tests/golden/fig2_reference.json`` and ``fig3_reference.json`` were
generated by the **reference** backend (regenerate with
``PYTHONPATH=src python tests/test_golden_figures.py``).  Both replay
engines must reproduce them verbatim: the golden files pin the
experiment outputs against accidental behavioral drift, and the
parametrized tests below re-prove the fast engine's bit-identical
contract at whole-experiment granularity, not just per-stream.

``run_fig2``/``run_fig3`` run the production (fast) engine and take no
engine argument; the reference leg swaps the simulator class they
construct for one bound to the reference engine.  That leg runs
serially, because a forked pool worker would not see the swap.

Floats are rounded to 10 decimal places on both sides of the
comparison; integers (block counts, grid sizes) must match exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
from pathlib import Path
from unittest import mock

import pytest

from repro.gpusim import GpuSimulator

GOLDEN_DIR = Path(__file__).parent / "golden"
ROUND = 10


def _round(value):
    if isinstance(value, float):
        return round(value, ROUND)
    if isinstance(value, dict):
        return {k: _round(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v) for v in value]
    return value


@contextlib.contextmanager
def engine(backend: str):
    """Run ``run_fig2``/``run_fig3`` on ``backend``'s simulator engine."""
    if backend == "fast":
        yield {}
        return
    reference = functools.partial(GpuSimulator, backend="reference")
    with mock.patch("repro.experiments.fig2.GpuSimulator", reference), \
            mock.patch("repro.experiments.fig3.GpuSimulator", reference):
        yield {"workers": 1}


def fig2_summary(backend: str) -> dict:
    from repro.experiments.fig2 import run_fig2

    with engine(backend):
        result = run_fig2()
    return _round(
        {
            "default": result.default.summary_dict(ROUND),
            "tiled": result.tiled.summary_dict(ROUND),
            "hit_rate_gap": result.hit_rate_gap,
            "issue_efficiency_ratio": result.issue_efficiency_ratio,
        }
    )


def fig3_summary(backend: str) -> dict:
    from repro.experiments.fig3 import run_fig3

    with engine(backend) as kwargs:
        result = run_fig3(**kwargs)
    return _round(
        {
            "grid_sizes": list(result.grid_sizes),
            "throughput": {
                f"{cfg.gpu_mhz:g}/{cfg.mem_mhz:g}": series
                for cfg, series in result.throughput.items()
            },
            "split_comparison": dict(result.split_comparison),
            "peaks": {
                f"{cfg.gpu_mhz:g}/{cfg.mem_mhz:g}": list(result.peak(cfg))
                for cfg in result.configs
            },
        }
    )


SUMMARIES = {"fig2": fig2_summary, "fig3": fig3_summary}


def load_golden(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}_reference.json"
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_figures.py`"
        )
    return json.loads(path.read_text())


@pytest.mark.parametrize("figure", sorted(SUMMARIES))
@pytest.mark.parametrize("backend", ["reference", "fast"])
def test_backend_reproduces_golden(figure, backend):
    golden = load_golden(figure)
    assert golden["backend"] == "reference"
    produced = SUMMARIES[figure](backend)
    assert produced == golden["summary"], (
        f"{figure} under backend={backend} diverged from the golden "
        "reference fixture"
    )


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in sorted(SUMMARIES.items()):
        path = GOLDEN_DIR / f"{name}_reference.json"
        payload = {"backend": "reference", "summary": build("reference")}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
