"""The ``paper_tables`` workload: Tables II/III and Fig. 3, quick protocol.

One reproduction clears the experiment cache, runs Table II, Table III
and Fig. 3 at ``jobs=1`` and renders them.  At ``jobs=1`` all CPU stays
in this process, so no two pool workers compete for the host's cores.

A reproduction is timed in pieces, in the same order every time: each
``run_subject`` task of Table II (subjects x tiers, 0.08-0.3 s each),
the rest of each tier's ``run_table2`` call, then Table III with Fig. 3.
The host probe runs between the pieces, outside their clocks.  Each
piece is scaled to the reference host speed by the probe readings
beside it, and a run's value is each piece's median over the run's
reproductions, summed over the pieces: a short piece mostly falls in one
of the host's fast or slow spells, which the probes beside it read, where
a whole 2 s reproduction straddles several.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from common import (
    REFERENCE_PROBE_MS,
    BenchError,
    Tracer,
    at_reference,
    cpu_now,
    halves,
    mean,
    median,
    probe_host,
)

import repro.experiments.runner as runner_module
from repro.core.detector import SIFTDetector
from repro.core.versions import DetectorVersion
from repro.experiments import (
    EXPERIMENT_CACHE,
    ExperimentConfig,
    Table2Result,
    clear_experiment_cache,
    format_fig3,
    format_table2,
    format_table3,
    leaked_segments,
    make_dataset,
    run_fig3,
    run_table2,
    run_table3,
)
from repro.ml.svm import SVC
from repro.signals.dataset import Record, SyntheticFantasia
from repro.sift_app.harness import AmuletSIFTRunner

#: The rendered-output digest recorded when the benchmark was created.
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def setup() -> ExperimentConfig:
    config = ExperimentConfig.quick()
    make_dataset(config)
    return config


def setup_only(ctx) -> None:
    """Only the set-up (one ``setup_s`` sample)."""
    setup()
    ctx.setup_done(time.perf_counter())


def reproduce(config: ExperimentConfig, tracer: Tracer | None, probe):
    """One reproduction; returns (rendered text, Table II result, cache
    stats, ``(wall_s, cpu_s, scale)`` of each timed piece).

    ``probe()`` probes the host and returns its reading; it runs before
    the first piece and after every subject task and piece, outside their
    clocks, and ``scale`` is what turns the piece's times into times at
    the reference host speed.
    """
    clear_experiment_cache()
    original = runner_module.run_subject
    readings = [probe()]
    tasks: list = []
    probing = [0.0, 0.0]  # wall and CPU the probes took inside a tier's call

    def timed_subject(*args, **kwargs):
        began, cpu0 = time.perf_counter(), cpu_now()
        try:
            return original(*args, **kwargs)
        finally:
            wall, cpu = time.perf_counter() - began, cpu_now() - cpu0
            probed, probed_cpu = time.perf_counter(), cpu_now()
            readings.append(probe())
            probing[0] += time.perf_counter() - probed
            probing[1] += cpu_now() - probed_cpu
            tasks.append((wall, cpu, at_reference(readings[-2], readings[-1])))

    pieces = []
    tiers = []
    runner_module.run_subject = timed_subject
    try:
        for version in DetectorVersion:
            first, before = len(tasks), len(readings) - 1
            probing[:] = [0.0, 0.0]
            began, cpu0 = time.perf_counter(), cpu_now()
            tiers.append(run_table2(config, versions=(version,), jobs=1))
            wall, cpu = time.perf_counter() - began, cpu_now() - cpu0
            readings.append(probe())
            pieces.extend(tasks[first:])
            # What the tier's call did outside its subject tasks and probes,
            # scaled by every reading taken around and within it.
            around = readings[before:]
            pieces.append(
                (
                    wall - probing[0] - sum(t[0] for t in tasks[first:]),
                    cpu - probing[1] - sum(t[1] for t in tasks[first:]),
                    REFERENCE_PROBE_MS / median(around),
                )
            )
    finally:
        runner_module.run_subject = original
    table2 = Table2Result(
        rows=tuple(row for tier in tiers for row in tier.rows),
        per_subject=tuple(result for tier in tiers for result in tier.per_subject),
        config=config,
        failures=tuple(outcome for tier in tiers for outcome in tier.failures),
    )
    began, cpu0 = time.perf_counter(), cpu_now()
    table3 = run_table3(config, jobs=1)
    fig3 = run_fig3(config, jobs=1)
    ended = time.perf_counter()
    cpu = cpu_now() - cpu0
    readings.append(probe())
    pieces.append((ended - began, cpu, at_reference(readings[-2], readings[-1])))
    if tracer is not None:
        tracer.record("tables.table3_fig3", began, ended)
    text = "\n".join([format_table2(table2), format_table3(table3), format_fig3(fig3)])
    return text, table2, EXPERIMENT_CACHE.stats(), pieces


def trace_tables(tracer: Tracer, windows_run: list) -> None:
    """Wrap the public calls a reproduction makes, layer by layer."""
    tracer.wrap(runner_module, "run_subject", "runner.subject")
    tracer.wrap(SyntheticFantasia, "record", "signals.record")
    tracer.wrap(Record, "redetect_peaks", "signals.redetect_peaks")
    tracer.wrap(SIFTDetector, "fit", "detector.fit")
    tracer.wrap(SVC, "fit", "ml.svm_fit")
    tracer.wrap(SIFTDetector, "evaluate", "detector.evaluate")
    tracer.wrap(
        AmuletSIFTRunner,
        "run_stream",
        "sift_app.run_stream",
        after=lambda args, result, start, end: windows_run.append(len(args[1])),
    )


def rendered_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_tables(ctx) -> dict:
    config = setup()
    expected = json.loads(EXPECTED.read_text())["paper_tables_sha256"]
    phases, seconds = halves(ctx)
    attempted = failed = 0
    items: dict[str, list] = {}
    hits = lookups = 0
    windows_run: list = []
    for name, tracer in phases:
        items[name] = []
        deadline = time.perf_counter() + seconds
        while not items[name] or (
            time.perf_counter() < deadline and len(items[name]) < ctx.size("items", 10**6)
        ):
            if tracer is not None:
                trace_tables(tracer, windows_run)
            try:
                text, table2, cache, pieces = reproduce(
                    config, tracer, lambda: probe_host(ctx.probe_ms)
                )
            finally:
                if tracer is not None:
                    tracer.unwrap()
            if ctx.plant == "digest":
                text += "\n(planted change)"
            if rendered_digest(text) != expected:
                raise BenchError("paper_tables rendered digest differs from the recorded one")
            if leaked_segments():
                raise BenchError(f"leaked shared-memory segments: {leaked_segments()}")
            windows = sum(r.n_test_windows for r in table2.per_subject)
            attempted += len(table2.per_subject) + len(table2.failures)
            failed += sum(1 for outcome in table2.failures if outcome.fault is not None)
            items[name].append((pieces, windows))
            if tracer is not None:
                hits += cache["hits"]
                lookups += cache["hits"] + cache["misses"]
    out = {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": _item_metrics(items["untraced"]),
    }
    if ctx.trace:
        tracer = phases[1][1]

        def mean_ms(name: str) -> float:
            return mean(tracer.durations(name)) * 1e3

        traced_cpu = _item_metrics(items["traced"])["cpu_ms_per_item"]
        untraced_cpu = out["end_to_end"]["cpu_ms_per_item"]
        out["per_layer"] = {
            "runner.subject_ms": mean_ms("runner.subject"),
            "signals.record_ms": mean_ms("signals.record"),
            "signals.redetect_peaks_ms": mean_ms("signals.redetect_peaks"),
            "detector.fit_ms": mean_ms("detector.fit"),
            "ml.svm_fit_ms": mean_ms("ml.svm_fit"),
            "detector.evaluate_ms": mean_ms("detector.evaluate"),
            "sift_app.run_stream_us_per_window": (
                sum(tracer.durations("sift_app.run_stream")) / max(sum(windows_run), 1) * 1e6
            ),
            "cache.hit_ratio": hits / max(lookups, 1),
            "tables.table3_fig3_ms": mean_ms("tables.table3_fig3"),
            "trace.overhead_pct": (traced_cpu / untraced_cpu - 1.0) * 100.0,
        }
        out["tracer"] = tracer
    return out


def _item_metrics(items: list) -> dict:
    """One reproduction's wall and CPU at the reference host speed: each
    piece scaled by the probes beside it, at its median over the
    reproductions, summed over the pieces; every reproduction judges the
    same windows."""
    n_pieces = len(items[0][0])
    if any(len(pieces) != n_pieces for pieces, _ in items):
        raise BenchError("reproductions were timed in different pieces")
    wall = sum(
        median(pieces[i][0] * pieces[i][2] for pieces, _ in items) for i in range(n_pieces)
    )
    cpu = sum(
        median(pieces[i][1] * pieces[i][2] for pieces, _ in items) for i in range(n_pieces)
    )
    return {
        "p50_ms": wall * 1e3,
        "cpu_ms_per_item": cpu * 1e3,
        "windows_per_s": items[0][1] / wall,
    }
