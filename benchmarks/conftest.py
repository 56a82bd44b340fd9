"""Shared benchmark helpers.

These microbenches time things no orchestrator study runs (batch vs
scalar scoring, chunked streaming, the dataset plane, single kernels,
adaptive policies).  One-shot measurements run exactly once via
``benchmark.pedantic``; rendered tables are printed and also written to
``benchmarks/results/<name>.txt`` so the output survives pytest's
capture.  The paper tables, ablations and serving studies are
regenerated and checked by ``repro orchestrate``, the only writer of
the ``BENCH_*.json`` perf trajectory.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="shrink benchmark workloads for CI smoke runs "
        "(shorter streams, looser-but-still-meaningful assertions)",
    )


@pytest.fixture(scope="session")
def quick(request) -> bool:
    """True when the run is a CI smoke pass (``--quick``)."""
    return bool(request.config.getoption("--quick"))


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered table under benchmarks/results/."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        # Also echo for -s runs / the captured log.
        print(f"\n{text}\n[saved to {path}]")

    return _save


def run_once(benchmark, fn):
    """Run a one-shot measurement under pytest-benchmark's timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
