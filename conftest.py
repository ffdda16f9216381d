"""Repository-root pytest configuration.

Adds ``--workers`` so the suite can be exercised with the parallel
pipeline stages fanned out over processes (see :mod:`repro.parallel`).
The selection is exported through the same environment hook the CLI
honours (``KTILER_WORKERS``) before any test runs, so no individual
test needs to thread it explicitly.

Production code runs one simulator engine and one planner engine, the
fast ones.  The reference engines are test oracles: the golden and
differential suites reach them through the ``backend=`` /
``planner_backend=`` keywords of ``GpuSimulator`` and ``KTiler`` on
every run, so no option selects them.  CI runs the tier-1 suite serially
and with ``--workers=2``; both legs must pass with identical results
because the parallel stages are bit-identical to the serial oracle by
construction.
"""

from __future__ import annotations

import os

from repro.parallel import WORKERS_ENV_VAR


def pytest_addoption(parser):
    parser.addoption(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the parallel pipeline stages "
        f"(sets {WORKERS_ENV_VAR}; default: leave the environment as-is)",
    )


def pytest_configure(config):
    workers = config.getoption("--workers")
    if workers is not None:
        os.environ[WORKERS_ENV_VAR] = str(workers)


def pytest_report_header(config):
    parts = [
        "engines: fast sim + fast planner "
        "(reference oracles run inside the golden/differential suites)"
    ]
    workers = os.environ.get(WORKERS_ENV_VAR)
    if workers:
        parts.append(f"workers: {workers} ({WORKERS_ENV_VAR})")
    return parts
