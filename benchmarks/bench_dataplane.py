"""The zero-copy dataset plane: fan-out cost with and without it.

Two measurements, both honest about what the plane buys:

* **Acquisition stage** -- how long a process takes to obtain the cohort
  record working set.  Attaching shared-memory views is orders of
  magnitude faster than synthesizing (and re-detecting peaks on) the
  recordings, and this is exactly the work every worker used to repeat.
* **End-to-end fan-out** -- wall-clock of a multi-version cohort run
  with ``share_dataset`` on vs off, parent cache cleared first so the
  off mode cannot coast on fork-inherited records.  At benchmark scale
  evaluation dominates, so the end-to-end assertion is equivalence plus
  "the plane never makes fan-out meaningfully slower"; the acquisition
  ratio is where the zero-copy design shows.

Both modes must produce identical outcomes, and neither may leak a
``/dev/shm`` segment (the CI leak-check step re-asserts this after the
whole suite).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.experiments.dataplane import (
    _ATTACHED,
    DatasetPlane,
    attach_records,
    leaked_segments,
    realize_cohort_records,
)
from repro.experiments.runner import CohortRunner

from conftest import run_once

VERSIONS = ("reduced", "simplified")


@pytest.fixture(scope="module")
def config(request) -> ExperimentConfig:
    if request.config.getoption("--quick"):
        return ExperimentConfig.quick()
    return ExperimentConfig(
        n_subjects=6,
        train_duration_s=600.0,
        test_duration_s=120.0,
        n_train_donors=3,
        n_test_donors=2,
    )


def _fanout(config: ExperimentConfig, share: bool):
    """One timed multi-version cohort fan-out from a cold parent cache."""
    EXPERIMENT_CACHE.clear()
    start = time.perf_counter()
    with CohortRunner(
        config=config, jobs=2, with_device=False, share_dataset=share
    ) as runner:
        outcomes = [runner.run_version(v) for v in VERSIONS]
    return time.perf_counter() - start, outcomes


def test_attach_vs_synthesis_acquisition(benchmark, config, save_result):
    """The stage the plane removes from every worker, measured directly."""
    EXPERIMENT_CACHE.clear()
    start = time.perf_counter()
    records = realize_cohort_records(config)
    synthesis_s = time.perf_counter() - start

    with DatasetPlane.publish(records, backend="shm") as plane:
        start = time.perf_counter()
        _ATTACHED.clear()
        EXPERIMENT_CACHE.clear()
        attached = run_once(benchmark, lambda: attach_records(plane.manifest))
        attach_s = time.perf_counter() - start
        assert set(attached) == set(records)
        EXPERIMENT_CACHE.clear()
        for stale in _ATTACHED.values():
            stale.records.clear()
        _ATTACHED.clear()

    ratio = synthesis_s / attach_s
    save_result(
        "dataplane_acquisition",
        f"cohort working set: {len(records)} records, "
        f"{sum(r.nbytes for r in records.values()) / 2**20:.1f} MiB\n"
        f"synthesize (per worker, without plane): {synthesis_s * 1e3:.1f} ms\n"
        f"attach shared views (with plane):       {attach_s * 1e3:.3f} ms\n"
        f"acquisition speedup: {ratio:.0f}x",
    )
    # Attaching must beat re-synthesis by a wide margin -- this is the
    # per-worker rebuild the plane exists to remove.
    assert ratio >= 20.0
    assert leaked_segments() == []


def test_cohort_fanout_with_and_without_plane(config, save_result):
    """End-to-end fan-out: identical outcomes, no leaked segments, and
    no meaningful wall-clock regression from publishing the plane."""
    _fanout(config, share=True)  # warm code paths and the fork machinery
    without_s, without = _fanout(config, share=False)
    with_s, with_plane = _fanout(config, share=True)

    for off_version, on_version in zip(without, with_plane):
        for a, b in zip(off_version, on_version):
            assert a.ok and b.ok
            assert a.result.reference_report == b.result.reference_report

    save_result(
        "dataplane_fanout",
        f"cohort fan-out, jobs=2, versions={list(VERSIONS)}\n"
        f"without plane (per-worker synthesis): {without_s:.2f} s\n"
        f"with plane (shared-memory attach):    {with_s:.2f} s\n"
        f"speedup: {without_s / with_s:.2f}x",
    )
    # Evaluation dominates at this scale, so the plane's win here is
    # bounded -- but it must never cost meaningful wall-clock either.
    assert with_s <= without_s * 1.5
    assert leaked_segments() == []
