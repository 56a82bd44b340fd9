"""Checkpointed experiment orchestrator with a persisted perf trajectory.

The paper's evaluation is a matrix of one-shot studies (Table II/III,
Fig. 3, the ablations, the fault matrix, the universal-model question).
Before this module each study had its own entry point and no memory: a
crashed sweep restarted from zero, a tweaked report needed a full
recompute, and five PRs of speed work (batching, chunking, the
shared-memory dataplane) left no run-over-run record of what they bought.

The orchestrator fixes all three with one driver:

* **Checkpointed units.**  Every study is decomposed into *units* -- one
  detector version of Table II, one ablation sweep, one fault of the
  fault matrix.  Each completed unit appends one JSONL line (its config
  hash, JSON payload, wall-clock, cache and dataplane counter deltas) to
  ``benchmarks/results/checkpoints/<study>.jsonl``, flushed and fsynced
  before the next unit starts.  Re-running skips every unit whose
  checkpoint carries the current config hash, so an interrupted sweep
  resumes mid-matrix, recomputing only the unit it died in.
* **Reports and checks from payloads.**  Report files are rendered from
  the JSON payloads (round-tripped through ``json`` even on the first
  run), so a resumed run's reports are bit-identical to an uninterrupted
  run's, and ``reeval=True`` regenerates every report with zero
  recomputation.  Each study's *check* then runs over the same payloads
  and returns its violations: the paper-shape thresholds on full-size
  runs, the serving and parity invariants at every size.
* **Perf trajectory.**  A completed run emits ``BENCH_<stamp>.json``:
  per-study wall-clock, windows/second, experiment-cache hit/miss/
  eviction deltas and dataset-plane publish/attach time, plus a machine
  calibration constant so trajectories from different hosts compare.
  :func:`compare_trajectories` is the CI regression gate over two such
  records.

Checkpoint *invalidation* is content-keyed, like the experiment cache:
a unit's hash covers every protocol knob that influences its numbers
(the full :class:`~repro.experiments.pipeline.ExperimentConfig` plus the
unit's own sweep values) and excludes the knobs that provably do not
(``jobs`` -- cohort results are bit-identical at any worker count).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.versions import DetectorVersion
from repro.experiments import dataplane
from repro.experiments.cache import EXPERIMENT_CACHE
from repro.experiments.pipeline import ExperimentConfig, SubjectRunResult
from repro.experiments.reporting import format_bar_chart, format_table
from repro.ml.metrics import DetectionReport

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "MissingCheckpointError",
    "Orchestrator",
    "OrchestratorRun",
    "StudyContext",
    "StudyDefinition",
    "StudyRun",
    "UnitOutcome",
    "UnitSpec",
    "build_registry",
    "compare_trajectories",
    "config_hash",
    "load_trajectory",
    "study_names",
    "write_trajectory",
]

#: Schema version stamped into every checkpoint line and trajectory file.
SCHEMA = 1

#: Default on-disk locations, relative to the repository root (the CLI
#: runs from there; tests pass explicit directories).
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"
DEFAULT_CHECKPOINT_DIR = DEFAULT_RESULTS_DIR / "checkpoints"


class CheckpointError(RuntimeError):
    """Base class for checkpoint-layer failures."""


class MissingCheckpointError(CheckpointError):
    """``reeval`` asked for a unit that was never computed (or whose
    config hash no longer matches the requested configuration)."""


# ----------------------------------------------------------------------
# Config hashing
# ----------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    """``value`` reduced to JSON-stable primitives for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_jsonable(v) for v in items]
    if isinstance(value, DetectorVersion):
        return value.value
    if isinstance(value, (np.integer, np.floating)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"unhashable unit parameter: {value!r}")


def config_hash(params: Any) -> str:
    """A stable content hash of a unit's parameters.

    Canonical JSON (sorted keys, no whitespace) through SHA-256: the
    same parameters hash identically across processes and Python
    versions, and any change to any protocol knob changes the hash --
    which is what invalidates a stale checkpoint.
    """
    canonical = json.dumps(
        _jsonable(params), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Checkpoint store
# ----------------------------------------------------------------------


class CheckpointStore:
    """One JSONL checkpoint file per study, append-only, crash-tolerant.

    Each line is one completed unit: ``{"schema", "unit", "config_hash",
    "payload", "wall_s", "cache", "dataplane", "completed_at"}``.
    Appends are flushed *and* fsynced so a unit that completed before a
    kill is never lost; a line truncated by the kill itself is skipped
    (with the units it would have described simply recomputed).  The
    latest line per unit wins, so recomputing a unit under a new config
    hash supersedes its stale checkpoint without rewriting the file.
    """

    def __init__(self, directory: Path | str = DEFAULT_CHECKPOINT_DIR):
        self.directory = Path(directory)

    def path(self, study: str) -> Path:
        """The study's JSONL checkpoint file."""
        return self.directory / f"{study.replace('/', '_')}.jsonl"

    def load(self, study: str) -> dict[str, dict[str, Any]]:
        """The latest checkpoint record per unit name (empty if none)."""
        path = self.path(study)
        if not path.exists():
            return {}
        records: dict[str, dict[str, Any]] = {}
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A kill mid-append truncates at most the last line;
                    # the unit it described simply recomputes.
                    continue
                if isinstance(record, dict) and "unit" in record:
                    records[str(record["unit"])] = record
        return records

    def append(self, study: str, record: Mapping[str, Any]) -> None:
        """Durably append one completed unit's record."""
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True) + "\n"
        with self.path(study).open("a+b") as handle:
            # A kill mid-append leaves a torn last line without its
            # newline: start on a fresh line, or this record would be
            # glued onto the fragment and skipped with it on load.
            if handle.seek(0, os.SEEK_END) > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    line = "\n" + line
            handle.write(line.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())

    def remove(self, study: str) -> None:
        """Drop a study's checkpoints (``fresh`` runs recompute)."""
        try:
            self.path(study).unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Study model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StudyContext:
    """Everything a study needs to enumerate and run its units."""

    config: ExperimentConfig
    quick: bool = False
    jobs: int = 1


@dataclass(frozen=True)
class UnitSpec:
    """One checkpointable unit of a study.

    ``params`` must cover every knob that influences ``run``'s payload
    (it is what gets hashed); ``run`` returns a JSON-serializable
    payload, with an optional ``"n_windows"`` key counting the windows
    the unit scored (feeds the trajectory's windows/sec).
    """

    name: str
    params: Mapping[str, Any]
    run: Callable[[StudyContext], Mapping[str, Any]]


def _no_violations(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    return []


@dataclass(frozen=True)
class StudyDefinition:
    """A named study: how to split it into units, render and check them.

    ``render`` receives the unit payloads (in unit order, every value
    JSON-round-tripped) and returns ``{report_name: text}``; report
    files land in the results directory as ``<report_name>.txt``.
    ``check`` receives the same payloads and returns one message per
    violated expectation (empty = the study holds).
    """

    name: str
    build_units: Callable[[StudyContext], Sequence[UnitSpec]]
    render: Callable[[StudyContext, dict[str, Any]], dict[str, str]]
    check: Callable[[StudyContext, dict[str, Any]], list[str]] = _no_violations


@dataclass(frozen=True)
class UnitOutcome:
    """One unit's disposition within a study run."""

    name: str
    config_hash: str
    payload: Any
    wall_s: float
    cached: bool
    cache: dict[str, int] = field(default_factory=dict)
    dataplane: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class StudyRun:
    """One study's units, the report files it produced and the
    violations its check found."""

    name: str
    units: tuple[UnitOutcome, ...]
    reports: dict[str, Path]
    violations: tuple[str, ...] = ()

    @property
    def wall_s(self) -> float:
        """Wall-clock actually spent computing (cached units cost ~0)."""
        return sum(u.wall_s for u in self.units if not u.cached)

    @property
    def recomputed_units(self) -> int:
        return sum(1 for u in self.units if not u.cached)

    @property
    def n_windows(self) -> int:
        """Windows scored by recomputed units (0 when unreported)."""
        return sum(
            int(u.payload.get("n_windows", 0))
            for u in self.units
            if not u.cached and isinstance(u.payload, Mapping)
        )


@dataclass(frozen=True)
class OrchestratorRun:
    """Everything one ``Orchestrator.run`` produced."""

    studies: tuple[StudyRun, ...]
    trajectory: dict[str, Any] | None
    trajectory_path: Path | None

    @property
    def violations(self) -> list[str]:
        """Every study's check violations, prefixed with the study."""
        return [
            f"{study.name}: {violation}"
            for study in self.studies
            for violation in study.violations
        ]


# ----------------------------------------------------------------------
# Payload <-> report helpers
# ----------------------------------------------------------------------


def _report_dict(report: DetectionReport) -> dict[str, float]:
    return {
        "false_positive_rate": report.false_positive_rate,
        "false_negative_rate": report.false_negative_rate,
        "accuracy": report.accuracy,
        "f1": report.f1,
    }


def _report_from(payload: Mapping[str, Any]) -> DetectionReport:
    return DetectionReport(
        false_positive_rate=float(payload["false_positive_rate"]),
        false_negative_rate=float(payload["false_negative_rate"]),
        accuracy=float(payload["accuracy"]),
        f1=float(payload["f1"]),
    )


def _float_table(rows: Iterable[Mapping[str, Any]], columns: Sequence[str]) -> str:
    """The report table layout: ``%.4g`` floats, verbatim strings."""
    return format_table(
        list(columns),
        [
            [
                f"{row[c]:.4g}" if isinstance(row[c], float) else str(row[c])
                for c in columns
            ]
            for row in rows
        ],
    )


def _config_params(config: ExperimentConfig) -> dict[str, Any]:
    return dataclasses.asdict(config)


def _failed(checks: Iterable[tuple[bool, str]]) -> list[str]:
    """The messages of the ``(holds, message)`` checks that do not hold."""
    return [message for holds, message in checks if not holds]


#: Full-size protocols of the studies that do not need the paper's
#: 12-subject cohort: mid-size cohorts give stable cohort means at a
#: fraction of the cost (quick runs keep ``ExperimentConfig.quick()``).
_MIDSIZE_PROTOCOL = dict(
    n_subjects=7,
    train_duration_s=360.0,
    test_duration_s=120.0,
    n_train_donors=3,
    n_test_donors=3,
)
_ROBUSTNESS_PROTOCOL = dict(
    n_subjects=6,
    train_duration_s=300.0,
    test_duration_s=120.0,
    n_train_donors=3,
    n_test_donors=2,
)


def _study_config(ctx: StudyContext, protocol: Mapping[str, Any]) -> ExperimentConfig:
    """``ctx.config``, with ``protocol`` applied on full-size runs."""
    return ctx.config if ctx.quick else dataclasses.replace(ctx.config, **protocol)


# ----------------------------------------------------------------------
# Study definitions
# ----------------------------------------------------------------------


def _table2_units(ctx: StudyContext) -> list[UnitSpec]:
    def run_version(version: DetectorVersion):
        def run(ctx: StudyContext) -> dict[str, Any]:
            from repro.experiments.table2 import run_table2

            result = run_table2(
                ctx.config, versions=(version,), jobs=ctx.jobs
            )
            return {
                "version": version.value,
                "rows": [
                    {
                        "platform": row.platform,
                        "report": _report_dict(row.report),
                    }
                    for row in result.rows
                ],
                "per_subject": [
                    {
                        "subject_id": r.subject_id,
                        "reference": _report_dict(r.reference_report),
                        "device": (
                            _report_dict(r.device_report)
                            if r.device_report is not None
                            else None
                        ),
                        "n_test_windows": r.n_test_windows,
                    }
                    for r in result.per_subject
                ],
                "failures": [
                    {"subject_id": f.subject_id, "error": f.error}
                    for f in result.failures
                ],
                # Each stream is scored on both platforms.
                "n_windows": 2 * sum(
                    r.n_test_windows for r in result.per_subject
                ),
            }

        return run

    return [
        UnitSpec(
            name=version.value,
            params={
                "study": "table2",
                "config": _config_params(ctx.config),
                "version": version.value,
            },
            run=run_version(version),
        )
        for version in DetectorVersion
    ]


def _table2_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    from repro.experiments.table2 import (
        Table2Result,
        Table2Row,
        format_table2,
        format_table2_by_subject,
    )

    rows: list[Table2Row] = []
    per_subject: list[SubjectRunResult] = []
    for payload in payloads.values():
        version = DetectorVersion.from_name(payload["version"])
        for row in payload["rows"]:
            rows.append(
                Table2Row(
                    version=version,
                    platform=row["platform"],
                    report=_report_from(row["report"]),
                )
            )
        for subject in payload["per_subject"]:
            per_subject.append(
                SubjectRunResult(
                    subject_id=subject["subject_id"],
                    version=version,
                    reference_report=_report_from(subject["reference"]),
                    device_report=(
                        _report_from(subject["device"])
                        if subject["device"] is not None
                        else None
                    ),
                    n_test_windows=int(subject["n_test_windows"]),
                )
            )
    result = Table2Result(
        rows=tuple(rows),
        per_subject=tuple(per_subject),
        config=ctx.config,
    )
    return {
        "table2": format_table2(result),
        "table2_by_subject": format_table2_by_subject(result),
    }


def _table2_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    # Table II: Original ~ Simplified, both strong; Reduced several points
    # worse; the device tracks the reference.  Needs the full cohort.
    if ctx.quick:
        return []
    acc = {
        (p["version"], row["platform"]): row["report"]["accuracy"]
        for p in payloads.values()
        for row in p["rows"]
    }
    checks = []
    for platform in ("amulet", "reference"):
        o, s, r = (acc[(v, platform)] for v in ("original", "simplified", "reduced"))
        checks += [
            (o > 0.85, f"{platform}: original accuracy {o:.4f} <= 0.85"),
            (s > 0.85, f"{platform}: simplified accuracy {s:.4f} <= 0.85"),
            (abs(o - s) < 0.05, f"{platform}: original/simplified gap {abs(o - s):.4f} >= 0.05"),
            (r < s - 0.01, f"{platform}: reduced {r:.4f} not 0.01 below simplified {s:.4f}"),
            (r > 0.75, f"{platform}: reduced accuracy {r:.4f} <= 0.75"),
        ]
    for v in ("original", "simplified", "reduced"):
        gap = abs(acc[(v, "amulet")] - acc[(v, "reference")])
        checks.append((gap < 0.05, f"{v}: amulet/reference gap {gap:.4f} >= 0.05"))
    return _failed(checks)


def _table3_units(ctx: StudyContext) -> list[UnitSpec]:
    def run_version(version: DetectorVersion):
        def run(ctx: StudyContext) -> dict[str, Any]:
            from repro.experiments.table3 import run_table3

            profile = run_table3(ctx.config, versions=(version,)).profiles[
                version
            ]
            return {
                "version": version.value,
                "system_fram_kb": profile.system_fram_kb,
                "app_fram_kb": profile.app_fram_kb,
                "system_sram_bytes": profile.system_sram_bytes,
                "app_sram_bytes": profile.app_sram_bytes,
                "lifetime_days": profile.lifetime_days,
            }

        return run

    return [
        UnitSpec(
            name=version.value,
            params={
                "study": "table3",
                "config": _config_params(ctx.config),
                "version": version.value,
            },
            run=run_version(version),
        )
        for version in DetectorVersion
    ]


def _table3_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    from repro.experiments.table3 import PAPER_TABLE3

    headers = ["Version", "Resource Type", "Measurements", "(paper)"]
    body = []
    for payload in payloads.values():
        paper = PAPER_TABLE3.get(payload["version"])
        rows = [
            (
                "Memory Use (FRAM)",
                f"{payload['system_fram_kb']:.2f} KB_sys + "
                f"{payload['app_fram_kb']:.2f} KB_det",
                f"{paper[0]:.2f} + {paper[1]:.2f} KB" if paper else "-",
            ),
            (
                "Max Ram Use (SRAM)",
                f"{payload['system_sram_bytes']} B_sys + "
                f"{payload['app_sram_bytes']} B_det",
                f"{paper[2]} + {paper[3]} B" if paper else "-",
            ),
            (
                "Expected Lifetime",
                f"{payload['lifetime_days']:.0f} days",
                f"{paper[4]} days" if paper else "-",
            ),
        ]
        for i, (resource, measured, paper_text) in enumerate(rows):
            body.append(
                [
                    payload["version"].capitalize() if i == 0 else "",
                    resource,
                    measured,
                    paper_text,
                ]
            )
    return {
        "table3": format_table(
            headers,
            body,
            title="TABLE III: Resource Usage of Three Versions of Detector",
        )
    }


def _table3_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    # Table III (paper: detector SRAM 259/259/69 B, lifetime 23/26/55 days).
    if ctx.quick:
        return []
    o, s, r = (payloads[v] for v in ("original", "simplified", "reduced"))
    sram = (o["app_sram_bytes"], s["app_sram_bytes"], r["app_sram_bytes"])
    fram = [p["app_fram_kb"] for p in (o, s, r)]
    system = [p["system_fram_kb"] for p in (o, s, r)]
    days = [p["lifetime_days"] for p in (o, s, r)]
    ratio = days[2] / days[0]
    return _failed([
        (sram == (259, 259, 69), f"detector SRAM {sram} B != (259, 259, 69)"),
        (fram[0] > fram[1] > fram[2], f"detector FRAM {fram} KB not decreasing"),
        (fram[2] < 0.6 * fram[0], f"reduced detector FRAM {fram[2]:.2f} KB >= 0.6 x original"),
        (system[0] > system[1] > system[2], f"system FRAM {system} KB not decreasing"),
        (days[2] > days[1] > days[0], f"lifetimes {days} days not increasing"),
        (15 <= days[0] <= 35, f"original lifetime {days[0]:.1f} days outside [15, 35]"),
        (35 <= days[2] <= 75, f"reduced lifetime {days[2]:.1f} days outside [35, 75]"),
        (1.8 <= ratio <= 3.0, f"reduced/original lifetime {ratio:.2f}x outside [1.8, 3.0]"),
    ])


def _fig3_units(ctx: StudyContext) -> list[UnitSpec]:
    from repro.experiments.fig3 import DEFAULT_PERIOD_SWEEP

    grids = (10, 50) if ctx.quick else (10, 25, 50, 100)

    def run_profile(version: DetectorVersion):
        def run(ctx: StudyContext) -> dict[str, Any]:
            from repro.experiments.fig3 import run_fig3

            result = run_fig3(ctx.config, version=version)
            profile = result.profile
            breakdown = profile.current_breakdown
            static_ma = sum(
                v for k, v in breakdown.items() if k.startswith("static.")
            )
            return {
                "version": result.version.value,
                "top_consumers": [
                    [name, current] for name, current in result.top_consumers()
                ],
                "period_sweep": [
                    [period, days]
                    for period, days in sorted(result.period_sweep.items())
                ],
                "average_current_ma": profile.average_current_ma,
                "period_s": profile.period_s,
                "lifetime_days": profile.lifetime_days,
                "current_breakdown": dict(breakdown),
                # Static draws bound the slider's asymptote.
                "static_asymptote_days": profile.battery.lifetime_days(static_ma),
            }

        return run

    def run_grid_sweep(ctx: StudyContext) -> dict[str, Any]:
        from repro.experiments.fig3 import run_grid_resource_sweep

        rows = run_grid_resource_sweep(ctx.config, grids=grids, jobs=ctx.jobs)
        return {"rows": rows}

    profiles = [
        UnitSpec(
            name=name,
            params={
                "study": "fig3",
                "config": _config_params(ctx.config),
                "version": version.value,
                "periods": list(DEFAULT_PERIOD_SWEEP),
            },
            run=run_profile(version),
        )
        for name, version in (
            ("profile", DetectorVersion.ORIGINAL),
            ("profile_simplified", DetectorVersion.SIMPLIFIED),
        )
    ]
    return profiles + [
        UnitSpec(
            name="grid_sweep",
            params={
                "study": "fig3",
                "config": _config_params(ctx.config),
                "grids": list(grids),
                "version": DetectorVersion.SIMPLIFIED.value,
            },
            run=run_grid_sweep,
        ),
    ]


def _fig3_text(profile: Mapping[str, Any]) -> str:
    chart = format_bar_chart(
        [(name, current) for name, current in profile["top_consumers"]],
        unit=" mA",
        title=(
            f"Fig. 3: Resource Consumption of SIFT app "
            f"({profile['version']} version)"
        ),
    )
    slider = format_table(
        ["Detection period (s)", "Expected lifetime (days)"],
        [
            [f"{period:g}", f"{days:.1f}"]
            for period, days in profile["period_sweep"]
        ],
        title="ARP-view slider: battery life vs detection period",
    )
    summary = (
        f"average current: {profile['average_current_ma']:.4f} mA | "
        f"lifetime at {profile['period_s']:g} s period: "
        f"{profile['lifetime_days']:.1f} days"
    )
    return "\n\n".join([chart, slider, summary])


def _fig3_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    sweep_table = format_table(
        ["grid_n", "deployable", "det FRAM KB", "Mcyc/win", "days"],
        [
            [
                f"{row['grid_n']:g}",
                "yes" if row["deployable"] else "NO (array limit)",
                f"{row['detector_fram_kb']:.2f}",
                f"{row['mcycles_per_window']:.2f}",
                f"{row['lifetime_days']:.1f}",
            ]
            for row in payloads["grid_sweep"]["rows"]
        ],
    )
    return {
        "fig3": _fig3_text(payloads["profile"]),
        "fig3_simplified": _fig3_text(payloads["profile_simplified"]),
        "fig3_grid_resource_sweep": sweep_table,
    }


def _fig3_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    profile = payloads["profile"]
    total = sum(profile["current_breakdown"].values())
    average = profile["average_current_ma"]
    libm = [
        name for name in payloads["profile_simplified"]["current_breakdown"]
        if "libm" in name or "double" in name
    ]
    checks = [
        (abs(total - average) < 1e-12, f"components sum to {total!r} mA, not {average!r}"),
        (not libm, f"simplified build bills libm/double components {libm}"),
    ]
    if not ctx.quick:
        # Fig. 3: double-precision CPU work and BLE dominate; lifetime
        # grows with the period below the static-draw asymptote; n = 100
        # cannot deploy under the array-size limit (Insight #1).
        top_two = [name for name, _ in profile["top_consumers"][:2]]
        days = [d for _, d in profile["period_sweep"]]
        asymptote = profile["static_asymptote_days"]
        grid = {row["grid_n"]: row for row in payloads["grid_sweep"]["rows"]}
        checks += [
            (any(n.startswith("cpu.double") for n in top_two), f"no cpu.double* in {top_two}"),
            ("peripheral.ble_radio" in top_two, f"no peripheral.ble_radio in {top_two}"),
            (days == sorted(days), f"slider lifetimes {days} not increasing"),
            (days[-1] > 1.5 * days[0], f"slider range {days[0]:.1f}-{days[-1]:.1f} days < 1.5x"),
            (max(days) < asymptote, f"slider reaches the {asymptote:.1f}-day static asymptote"),
            (grid[50]["deployable"] == 1.0, "grid n = 50 cannot deploy"),
            (grid[100]["deployable"] == 0.0, "grid n = 100 deploys"),
            (math.isnan(grid[100]["lifetime_days"]), "grid n = 100 has a lifetime"),
            (
                grid[50]["detector_fram_kb"] > grid[10]["detector_fram_kb"],
                "detector FRAM does not grow from n = 10 to 50",
            ),
            (
                grid[50]["lifetime_days"] <= grid[10]["lifetime_days"],
                "lifetime grows from n = 10 to 50",
            ),
        ]
    return _failed(checks)


#: (ablation name, callable path, sweep kwarg, quick sweep, full sweep,
#: takes jobs, report columns).  Sweeps are trimmed in quick mode so the
#: orchestrator smoke stays a smoke.
_ABLATIONS: tuple[tuple[str, str, str | None, tuple, tuple, bool, tuple[str, ...]], ...] = (
    (
        "window_size", "window_size_ablation", "window_values",
        (1.5, 3.0), (1.5, 3.0, 6.0, 12.0), True,
        ("window_s", "accuracy", "fp_rate", "fn_rate", "f1"),
    ),
    (
        "grid_size", "grid_size_ablation", "grid_values",
        (10, 50), (10, 25, 50, 100), True,
        ("grid_n", "accuracy", "fp_rate", "fn_rate", "f1"),
    ),
    (
        "training_duration", "training_duration_ablation", "durations_s",
        (60.0, 180.0), (120.0, 300.0, 600.0, 1200.0), True,
        ("train_duration_s", "accuracy", "fp_rate", "fn_rate", "f1"),
    ),
    (
        "feature_classes", "feature_class_ablation", None,
        (), (), True,
        ("features", "n_features", "accuracy", "f1"),
    ),
    (
        "classifier", "classifier_ablation", None,
        (), (), False,
        ("classifier", "accuracy", "f1"),
    ),
    (
        "fixed_point", "fixed_point_ablation", "frac_bits_values",
        (4, 14), (4, 6, 8, 10, 14, 20), False,
        ("frac_bits", "accuracy", "agreement_with_float"),
    ),
    (
        "attack_types", "attack_type_ablation", None,
        (), (), False,
        ("attack", "accuracy", "fn_rate", "fp_rate"),
    ),
    (
        "mixed_attack_training", "mixed_attack_training_ablation", None,
        (), (), False,
        ("training", "eval_attack", "accuracy", "fn_rate", "fp_rate"),
    ),
)


def _ablation_units(ctx: StudyContext) -> list[UnitSpec]:
    import repro.experiments.ablations as ablations_module

    config = _study_config(ctx, _MIDSIZE_PROTOCOL)
    units = []
    for name, func_name, sweep_kwarg, quick_sweep, full_sweep, takes_jobs, _ in _ABLATIONS:
        sweep = quick_sweep if ctx.quick else full_sweep

        def make_run(func_name=func_name, sweep_kwarg=sweep_kwarg,
                     sweep=sweep, takes_jobs=takes_jobs):
            def run(ctx: StudyContext) -> dict[str, Any]:
                func = getattr(ablations_module, func_name)
                kwargs: dict[str, Any] = {}
                if sweep_kwarg is not None:
                    kwargs[sweep_kwarg] = sweep
                if takes_jobs:
                    kwargs["jobs"] = ctx.jobs
                return {"rows": func(config, **kwargs)}

            return run

        params: dict[str, Any] = {
            "study": "ablations",
            "ablation": name,
            "config": _config_params(config),
        }
        if sweep_kwarg is not None:
            params["sweep"] = list(sweep)
        units.append(UnitSpec(name=name, params=params, run=make_run()))
    return units


def _ablation_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    columns = {name: cols for name, _, _, _, _, _, cols in _ABLATIONS}
    return {
        f"ablation_{name}": _float_table(payload["rows"], columns[name])
        for name, payload in payloads.items()
    }


def _ablation_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    # Each sweep's qualitative finding, on the mid-size cohort.
    if ctx.quick:
        return []

    def by(unit: str, key: str, value: str = "accuracy") -> dict[Any, Any]:
        return {row[key]: row[value] for row in payloads[unit]["rows"]}

    window = by("window_size", "window_s")
    grid = by("grid_size", "grid_n")
    duration = [row["accuracy"] for row in payloads["training_duration"]["rows"]]
    features = by("feature_classes", "features")
    both, matrix = features["both (simplified)"], features["matrix_only"]
    geometric = features["geometric_only (reduced)"]
    classifier = by("classifier", "classifier")
    svm, centroid = classifier["svm_linear"], classifier["centroid"]
    agreement = by("fixed_point", "frac_bits", "agreement_with_float")
    attack = by("attack_types", "attack")
    attack_fn = by("attack_types", "attack", "fn_rate")
    mixed = {
        (row["training"], row["eval_attack"]): row
        for row in payloads["mixed_attack_training"]["rows"]
    }
    mixed_fn = mixed[("mixed", "interference")]["fn_rate"]
    solo_fn = mixed[("replacement_only", "interference")]["fn_rate"]
    mixed_acc = mixed[("mixed", "replacement")]["accuracy"]
    solo_acc = mixed[("replacement_only", "replacement")]["accuracy"]
    best = max(window.values())
    return _failed([
        # The paper's w = 3 s and n = 50 are competitive; all beat chance.
        (window[3.0] >= best - 0.08, f"window_size: 3 s {window[3.0]:.4f} < {best:.4f} - 0.08"),
        (min(window.values()) > 0.6, f"window_size: worst {min(window.values()):.4f} <= 0.6"),
        (
            grid[50] >= max(grid.values()) - 0.05,
            f"grid_size: n = 50 {grid[50]:.4f} < best {max(grid.values()):.4f} - 0.05",
        ),
        # More training data never hurts much.
        (
            duration[-1] >= max(duration) - 0.03,
            f"training_duration: longest {duration[-1]:.4f} < best {max(duration):.4f} - 0.03",
        ),
        (
            duration[-1] >= duration[0] - 0.02,
            f"training_duration: longest {duration[-1]:.4f} < shortest {duration[0]:.4f} - 0.02",
        ),
        # Both feature classes beat either alone (why Reduced loses).
        (both >= matrix, f"feature_classes: both {both:.4f} < matrix_only {matrix:.4f}"),
        (
            both >= geometric - 0.01,
            f"feature_classes: both {both:.4f} < geometric_only {geometric:.4f} - 0.01",
        ),
        # "SVM performed the best among the algorithms we tried".
        (
            svm >= max(classifier.values()) - 0.03,
            f"classifier: svm_linear {svm:.4f} < best {max(classifier.values()):.4f} - 0.03",
        ),
        (svm >= centroid - 0.02, f"classifier: svm_linear {svm:.4f} < centroid - 0.02"),
        # The deployed Q17.14 format is effectively lossless.
        (agreement[14] >= 0.98, f"fixed_point: Q.14 agreement {agreement[14]:.4f} < 0.98"),
        (agreement[14] >= agreement[4], "fixed_point: Q.14 agreement below Q.4's"),
        # The trained-for attack is caught best, replay and morphology
        # transfer, low-amplitude interference is a blind spot...
        *(
            (attack[name] > floor, f"attack_types: {name} {attack[name]:.4f} <= {floor}")
            for name, floor in (("replacement", 0.8), ("replay", 0.6), ("morphology", 0.6))
        ),
        (
            attack_fn["interference"] > attack_fn["replacement"],
            f"attack_types: interference FN {attack_fn['interference']:.4f} <= replacement's",
        ),
        # ...which mixed training closes, at a bounded cost.
        (
            mixed_fn < 0.5 * solo_fn,
            f"mixed_attack_training: interference FN {mixed_fn:.4f} >= half of {solo_fn:.4f}",
        ),
        (
            mixed_acc > solo_acc - 0.15,
            f"mixed_attack_training: replacement {mixed_acc:.4f} <= {solo_acc:.4f} - 0.15",
        ),
        (mixed_acc > 0.7, f"mixed_attack_training: replacement {mixed_acc:.4f} <= 0.7"),
    ])


def _fault_matrix_units(ctx: StudyContext) -> list[UnitSpec]:
    from repro.faults import fault_names

    severities = (0.0, 0.5, 1.0) if ctx.quick else (0.0, 0.25, 0.5, 1.0)

    def make_run(fault: str):
        def run(ctx: StudyContext) -> dict[str, Any]:
            from repro.experiments.robustness import fault_matrix_study

            rows = fault_matrix_study(
                ctx.config, faults=(fault,), severities=severities
            )
            return {"rows": rows}

        return run

    return [
        UnitSpec(
            name=fault,
            params={
                "study": "fault-matrix",
                "fault": fault,
                "severities": list(severities),
                "config": _config_params(ctx.config),
            },
            run=make_run(fault),
        )
        for fault in fault_names()
    ]


def _fault_matrix_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    from repro.experiments.robustness import format_fault_matrix

    rows = [row for payload in payloads.values() for row in payload["rows"]]
    return {"fault_matrix": format_fault_matrix(rows)}


def _universal_units(ctx: StudyContext) -> list[UnitSpec]:
    config = _study_config(ctx, _MIDSIZE_PROTOCOL)

    def run(ctx: StudyContext) -> dict[str, Any]:
        from repro.experiments.universal import run_universal_study

        study = run_universal_study(config)
        return {
            "per_user": _report_dict(study.per_user),
            "universal": _report_dict(study.universal),
            "per_subject_universal": [
                [subject_id, _report_dict(report)]
                for subject_id, report in study.per_subject_universal.items()
            ],
        }

    return [
        UnitSpec(
            name="loso",
            params={
                "study": "universal",
                "config": _config_params(config),
            },
            run=run,
        )
    ]


def _universal_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    payload = payloads["loso"]
    rows = [
        [
            label,
            f"{100 * report['false_positive_rate']:.2f}",
            f"{100 * report['false_negative_rate']:.2f}",
            f"{100 * report['accuracy']:.2f}",
        ]
        for label, report in (
            ("per-user (paper)", payload["per_user"]),
            ("universal (LOSO)", payload["universal"]),
        )
    ]
    per_subject = "\n".join(
        f"  {subject_id}: {100 * report['accuracy']:.1f}%"
        for subject_id, report in payload["per_subject_universal"]
    )
    return {
        "universal_model": (
            format_table(["training", "FP %", "FN %", "Acc %"], rows)
            + "\n\nper-held-out-subject universal accuracy:\n"
            + per_subject
        )
    }


def _universal_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    # The universal model transfers, but never meaningfully beats
    # per-user enrollment (the paper's protocol).
    if ctx.quick:
        return []
    universal = payloads["loso"]["universal"]["accuracy"]
    per_user = payloads["loso"]["per_user"]["accuracy"]
    return _failed([
        (universal > 0.7, f"universal accuracy {universal:.4f} <= 0.7"),
        (per_user >= universal - 0.02, f"per-user {per_user:.4f} < universal - 0.02"),
    ])


#: (robustness study, callable name, report name, report columns).
_ROBUSTNESS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    (
        "channel_loss", "channel_loss_study", "robustness_channel_loss",
        ("loss_probability", "window_coverage", "accuracy_on_classified"),
    ),
    (
        "artifact_load", "artifact_load_study", "robustness_artifact_load",
        ("artifact_rate_per_min", "accuracy", "fp_rate", "fn_rate"),
    ),
    (
        "debounce", "debounce_study", "robustness_debounce",
        (
            "votes_needed", "vote_window", "window_accuracy",
            "false_episodes_per_run", "attack_catch_rate",
        ),
    ),
)


def _robustness_units(ctx: StudyContext) -> list[UnitSpec]:
    import repro.experiments.robustness as robustness_module

    config = _study_config(ctx, _ROBUSTNESS_PROTOCOL)

    def make_run(func_name: str):
        def run(ctx: StudyContext) -> dict[str, Any]:
            func = getattr(robustness_module, func_name)
            return {"rows": func(config)}

        return run

    return [
        UnitSpec(
            name=name,
            params={
                "study": "robustness",
                "sweep": name,
                "config": _config_params(config),
            },
            run=make_run(func_name),
        )
        for name, func_name, _, _ in _ROBUSTNESS
    ]


def _robustness_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    layout = {name: (report, cols) for name, _, report, cols in _ROBUSTNESS}
    return {
        layout[name][0]: _float_table(payload["rows"], layout[name][1])
        for name, payload in payloads.items()
    }


def _robustness_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    if ctx.quick:
        return []

    def by(unit: str, key: str) -> dict[Any, Any]:
        return {row[key]: row for row in payloads[unit]["rows"]}

    loss = by("channel_loss", "loss_probability")
    coverage = {p: row["window_coverage"] for p, row in loss.items()}
    classified = {p: row["accuracy_on_classified"] for p, row in loss.items()}
    rate = by("artifact_load", "artifact_rate_per_min")
    votes = by("debounce", "votes_needed")
    false_3, false_1 = (votes[k]["false_episodes_per_run"] for k in (3, 1))
    return _failed([
        # Coverage falls roughly like (1-p)^2 (both halves must arrive),
        # but accuracy on the windows that do assemble barely moves.
        (abs(coverage[0.0] - 1.0) <= 1e-6, f"channel_loss: coverage {coverage[0.0]:.4f} at p = 0"),
        (coverage[0.4] < 0.6, f"channel_loss: coverage {coverage[0.4]:.4f} >= 0.6 at p = 0.4"),
        (
            classified[0.4] > classified[0.0] - 0.1,
            f"channel_loss: accuracy on classified {classified[0.0]:.4f} -> {classified[0.4]:.4f}",
        ),
        # Heavy artifact load costs accuracy, mostly through false
        # positives, yet the detector stays useful.
        (
            rate[0.0]["accuracy"] >= rate[12.0]["accuracy"],
            "artifact_load: clean accuracy below 12/min accuracy",
        ),
        (rate[12.0]["fp_rate"] >= rate[0.0]["fp_rate"], "artifact_load: 12/min FP rate < clean"),
        (rate[12.0]["accuracy"] > 0.6, f"artifact_load: {rate[12.0]['accuracy']:.4f} at 12/min"),
        # Stricter voting cannot raise false episodes; attacks still caught.
        (false_3 <= false_1, f"debounce: false episodes {false_1:.4f} -> {false_3:.4f} at 3 votes"),
        *(
            (votes[k]["attack_catch_rate"] >= 0.8, f"debounce: {k}-vote catch rate < 0.8")
            for k in (2, 3)
        ),
    ])


def _gateway_wearers(ctx: StudyContext) -> int:
    # Serving scale: quick keeps the orchestrator smoke a smoke; the
    # full run holds >= 1k concurrent wearers.
    return 64 if ctx.quick else 1024


def _gateway_units(ctx: StudyContext) -> list[UnitSpec]:
    n_wearers = _gateway_wearers(ctx)
    stream_s = 12.0 if ctx.quick else 30.0
    batch_size = 256
    loss_probability = 0.02

    def run(ctx: StudyContext) -> dict[str, Any]:
        from repro.gateway import run_gateway_load

        report = run_gateway_load(
            n_wearers=n_wearers,
            stream_s=stream_s,
            batch_size=batch_size,
            loss_probability=loss_probability,
            seed=ctx.config.seed,
            sanitize_loop=True,
        )
        stats = report.stats
        return {
            "n_wearers": report.n_wearers,
            "sessions_started": stats.sessions_started,
            "sessions_active": stats.sessions_active,
            "packets_dropped": report.packets_dropped,
            "loop_stalls": report.loop_stalls,
            "wall_s": round(report.wall_s, 6),
            "windows_sent": report.windows_sent,
            "verdicts": stats.verdicts,
            "windows_scored": stats.windows_scored,
            "windows_abstained": stats.windows_abstained,
            "windows_shed": stats.windows_shed,
            "incomplete_windows": stats.incomplete_windows,
            "windows_vanished": report.windows_vanished,
            "episodes_closed": stats.episodes_closed,
            "mean_batch_size": round(stats.mean_batch_size, 3),
            "windows_per_s": round(report.windows_per_s, 3),
            "p50_ms": round(report.p50_latency_s * 1e3, 4),
            "p99_ms": round(report.p99_latency_s * 1e3, 4),
            "leaked_sessions": report.leaked_sessions,
            "n_windows": stats.verdicts,
        }

    return [
        UnitSpec(
            name="serving",
            params={
                "study": "gateway",
                "n_wearers": n_wearers,
                "stream_s": stream_s,
                "batch_size": batch_size,
                "loss_probability": loss_probability,
                "seed": ctx.config.seed,
                "sanitize_loop": True,
            },
            run=run,
        )
    ]


def _gateway_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    payload = payloads["serving"]
    rows = [
        ["concurrent wearers", f"{payload['n_wearers']}"],
        ["windows sent", f"{payload['windows_sent']}"],
        [
            "verdicts",
            f"{payload['verdicts']} ({payload['windows_scored']} scored, "
            f"{payload['windows_abstained']} abstained)",
        ],
        ["windows shed", f"{payload['windows_shed']}"],
        [
            "incomplete windows",
            f"{payload['incomplete_windows']} "
            f"(+{payload.get('windows_vanished', 0)} vanished in channel)",
        ],
        ["episodes closed", f"{payload['episodes_closed']}"],
        ["mean batch size", f"{payload['mean_batch_size']:.1f}"],
        ["throughput", f"{payload['windows_per_s']:.0f} windows/s"],
        [
            "verdict latency",
            f"p50 {payload['p50_ms']:.2f} ms, p99 {payload['p99_ms']:.2f} ms",
        ],
        ["leaked sessions", f"{payload['leaked_sessions']}"],
    ]
    return {
        "gateway_serving": format_table(
            ["metric", "value"],
            rows,
            title="Ingestion gateway: multi-wearer serving load",
        )
    }


def _gateway_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    p = payloads["serving"]
    wearers = _gateway_wearers(ctx)
    accounted = p["verdicts"] + p["windows_shed"] + p["incomplete_windows"] + p["windows_vanished"]
    return _failed([
        (
            p["n_wearers"] == p["sessions_started"] == wearers,
            f"{p['sessions_started']} of {wearers} sessions started",
        ),
        # Clean shutdown, conservation, loss surfacing as incomplete
        # windows, cross-session batching and a loop free of blocking work.
        (p["leaked_sessions"] == 0, f"{p['leaked_sessions']} sessions leaked"),
        (p["sessions_active"] == 0, f"{p['sessions_active']} sessions still active"),
        (accounted == p["windows_sent"], f"{accounted} accounted, {p['windows_sent']} sent"),
        (p["verdicts"] > 0, "no verdicts"),
        (p["packets_dropped"] > 0, "the lossy channel dropped no packets"),
        (p["incomplete_windows"] > 0, "no incomplete windows under loss"),
        (0.0 < p["p50_ms"] <= p["p99_ms"], f"latency p50 {p['p50_ms']} ms, p99 {p['p99_ms']} ms"),
        (p["mean_batch_size"] > 1.0, f"mean batch size {p['mean_batch_size']} <= 1"),
        (p["loop_stalls"] == 0, f"event loop stalled {p['loop_stalls']} time(s)"),
    ])


def _chaos_units(ctx: StudyContext) -> list[UnitSpec]:
    # Chaos scale: the schedules are invariant checks, not load tests --
    # quick and full differ only in fleet size / stream length so the
    # full run exercises more batches per fault.
    n_wearers = 8 if ctx.quick else 16
    stream_s = 12.0 if ctx.quick else 24.0

    from repro.faults.runtime import schedule_names

    def schedule_runner(schedule: str) -> Callable[[StudyContext], dict[str, Any]]:
        def run(ctx: StudyContext) -> dict[str, Any]:
            from repro.faults.runtime import run_chaos_schedule

            report = run_chaos_schedule(
                schedule,
                seed=ctx.config.seed,
                n_wearers=n_wearers,
                stream_s=stream_s,
                strict=False,
            )
            payload = report.to_payload()
            payload["n_windows"] = payload["verdicts"]
            return payload

        return run

    def run_restart(ctx: StudyContext) -> dict[str, Any]:
        import tempfile

        from repro.faults.runtime import run_restart_chaos

        with tempfile.TemporaryDirectory(prefix="chaos-restart-") as tmp:
            report = run_restart_chaos(
                Path(tmp) / "sessions.jsonl",
                seed=ctx.config.seed,
                strict=False,
            )
        payload = report.to_payload()
        payload["n_windows"] = report.n_wearers * report.n_windows_per_wearer
        return payload

    def run_truncation(ctx: StudyContext) -> dict[str, Any]:
        import tempfile

        from repro.faults.runtime import run_truncation_chaos

        with tempfile.TemporaryDirectory(prefix="chaos-trunc-") as tmp:
            report = run_truncation_chaos(tmp, seed=ctx.config.seed, strict=False)
        return report.to_payload()

    units = [
        UnitSpec(
            name=f"schedule-{schedule}",
            params={
                "study": "chaos",
                "schedule": schedule,
                "n_wearers": n_wearers,
                "stream_s": stream_s,
                "seed": ctx.config.seed,
            },
            run=schedule_runner(schedule),
        )
        for schedule in schedule_names()
    ]
    units.append(
        UnitSpec(
            name="restart",
            params={"study": "chaos", "unit": "restart", "seed": ctx.config.seed},
            run=run_restart,
        )
    )
    units.append(
        UnitSpec(
            name="truncation",
            params={"study": "chaos", "unit": "truncation", "seed": ctx.config.seed},
            run=run_truncation,
        )
    )
    return units


def _chaos_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    rows = []
    for name, payload in payloads.items():
        if not name.startswith("schedule-"):
            continue
        rows.append(
            [
                payload["schedule"],
                f"{payload['planned_faults']}",
                f"{payload['faults_detected']}",
                f"{payload['restarts']}",
                f"{payload['windows_degraded']}",
                f"{payload['windows_unscorable']}",
                "yes" if payload["conservation_ok"] else "NO",
                "ok" if payload["ok"] else "; ".join(payload["violations"]),
            ]
        )
    restart = payloads["restart"]
    truncation = payloads["truncation"]
    rows.append(
        [
            "restart",
            "1",
            "-",
            "1",
            "-",
            "-",
            "yes" if restart["bit_identical_outside_restart"] else "NO",
            "ok" if restart["ok"] else "; ".join(restart["violations"]),
        ]
    )
    rows.append(
        [
            "truncation",
            f"{truncation['points_checked']}",
            "-",
            "-",
            "-",
            "-",
            "yes",
            "ok" if truncation["ok"] else "; ".join(truncation["violations"]),
        ]
    )
    return {
        "chaos_matrix": format_table(
            [
                "schedule",
                "planned",
                "detected",
                "restarts",
                "degraded",
                "unscorable",
                "conserved",
                "verdict",
            ],
            rows,
            title="Runtime chaos: supervised gateway under seeded fault schedules",
        )
    }


def _chaos_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    # Every unit audits its own invariants (conservation, per-kind
    # detection, bit identity, leaks) into ``ok``; the mixed schedule's
    # headline is pinned so a silently weakened schedule fails loudly.
    mixed = payloads["schedule-mixed"]
    planned, detected = mixed["planned_faults"], mixed["faults_detected"]
    return _failed([
        *((p["ok"], f"{name}: {'; '.join(p['violations'])}") for name, p in payloads.items()),
        (planned >= 4, f"schedule-mixed: {planned} planned faults < 4"),
        (detected >= planned, f"schedule-mixed: {detected} of {planned} faults detected"),
        (mixed["restarts"] >= 1, "schedule-mixed: the scorer never restarted"),
        (mixed["conservation_ok"], "schedule-mixed: conservation broken"),
    ])


def _native_units(ctx: StudyContext) -> list[UnitSpec]:
    # Native scale: throughput comparison needs a stream long enough to
    # swamp dispatch overhead; quick keeps it to a CI-smoke minute.
    stream_s = 60.0 if ctx.quick else 300.0
    train_s = 120.0

    def tier_runner(version_name: str) -> Callable[[StudyContext], dict[str, Any]]:
        def run(ctx: StudyContext) -> dict[str, Any]:
            from repro.core.detector import SIFTDetector
            from repro.native import native_status
            from repro.signals import SyntheticFantasia, iter_windows

            data = SyntheticFantasia(n_subjects=4, seed=ctx.config.seed)
            victim = data.subjects[0]
            others = data.subjects[1:]
            detector = SIFTDetector(version=version_name)
            detector.fit(
                data.record(victim, train_s, purpose="train"),
                [data.record(s, train_s / 2, purpose="train") for s in others],
            )
            record = data.record(victim, stream_s, purpose="test")
            windows = list(iter_windows(record, window_s=3.0))

            def best_of(fn: Callable[[], Any], rounds: int = 3) -> float:
                best = float("inf")
                for _ in range(rounds):
                    started = time.perf_counter()
                    fn()
                    best = min(best, time.perf_counter() - started)
                return best

            numpy_values = detector.decision_values(windows)
            numpy_wall = best_of(lambda: detector.decision_values(windows))
            payload: dict[str, Any] = {
                "n_windows": len(windows),
                "numpy_windows_per_s": round(len(windows) / numpy_wall, 3),
            }
            available, reason = native_status(version_name)
            payload["available"] = available
            if not available:
                # No toolchain (or no SVML for Original): still a valid
                # unit -- the payload records why there is no native lane.
                payload.update(reason=reason, speedup=None, bit_identical=None)
                return payload
            detector.platform = "native"
            if not detector.native_active:  # build failed: a violation
                payload.update(
                    reason=f"build failed: {detector.native_error}",
                    speedup=None,
                    bit_identical=None,
                )
                return payload
            native_values = detector.decision_values(windows)
            native_wall = best_of(lambda: detector.decision_values(windows))
            payload.update(
                reason="ok",
                bit_identical=bool(np.array_equal(numpy_values, native_values)),
                native_windows_per_s=round(len(windows) / native_wall, 3),
                speedup=round(numpy_wall / native_wall, 3),
            )
            return payload

        return run

    return [
        UnitSpec(
            name=version.value,
            params={
                "study": "native",
                "version": version.value,
                "stream_s": stream_s,
                "seed": ctx.config.seed,
            },
            run=tier_runner(version.value),
        )
        for version in DetectorVersion
    ]


def _native_render(ctx: StudyContext, payloads: dict[str, Any]) -> dict[str, str]:
    rows = []
    for name, payload in payloads.items():
        if payload.get("speedup") is not None:
            rows.append(
                [
                    name,
                    f"{payload['numpy_windows_per_s']:.0f}",
                    f"{payload['native_windows_per_s']:.0f}",
                    f"{payload['speedup']:.2f}x",
                    "yes" if payload["bit_identical"] else "NO",
                ]
            )
        else:
            rows.append(
                [name, f"{payload['numpy_windows_per_s']:.0f}", "-", "-",
                 payload.get("reason", "unavailable")]
            )
    return {
        "native_speedup": format_table(
            ["tier", "numpy w/s", "native w/s", "speedup", "bit-identical"],
            rows,
            title="Native scoring core: generated-C hot path vs NumPy",
        )
    }


#: The native win's acceptance floor.  Dispatch overhead shrinks the
#: margin on the short quick stream, so quick runs only require a win.
_MIN_SPEEDUP = 2.0
_MIN_SPEEDUP_QUICK = 1.0


def _native_check(ctx: StudyContext, payloads: dict[str, Any]) -> list[str]:
    # Parity before speed -- a fast wrong answer is no speedup.  Tiers
    # without a toolchain (or SVML) are skipped, as the parity suite does.
    floor = _MIN_SPEEDUP_QUICK if ctx.quick else _MIN_SPEEDUP
    checks = []
    for name, p in payloads.items():
        if p["available"]:
            reason = "" if p["reason"] == "ok" else f" ({p['reason']})"
            checks += [
                (p["bit_identical"] is True, f"{name}: not bit-identical to numpy{reason}"),
                ((p["speedup"] or 0.0) >= floor, f"{name}: speedup {p['speedup']}x < {floor}x"),
            ]
    return _failed(checks)


def build_registry() -> dict[str, StudyDefinition]:
    """The default study registry, in canonical run order."""
    return {
        "table2": StudyDefinition(
            "table2", _table2_units, _table2_render, _table2_check
        ),
        "table3": StudyDefinition(
            "table3", _table3_units, _table3_render, _table3_check
        ),
        "fig3": StudyDefinition("fig3", _fig3_units, _fig3_render, _fig3_check),
        "ablations": StudyDefinition(
            "ablations", _ablation_units, _ablation_render, _ablation_check
        ),
        "fault-matrix": StudyDefinition(
            "fault-matrix", _fault_matrix_units, _fault_matrix_render
        ),
        "universal": StudyDefinition(
            "universal", _universal_units, _universal_render, _universal_check
        ),
        "robustness": StudyDefinition(
            "robustness", _robustness_units, _robustness_render, _robustness_check
        ),
        "gateway": StudyDefinition(
            "gateway", _gateway_units, _gateway_render, _gateway_check
        ),
        "chaos": StudyDefinition(
            "chaos", _chaos_units, _chaos_render, _chaos_check
        ),
        "native": StudyDefinition(
            "native", _native_units, _native_render, _native_check
        ),
    }


def study_names() -> tuple[str, ...]:
    """The registered study names, in canonical run order."""
    return tuple(build_registry())


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------


def _calibration_s() -> float:
    """Seconds this machine takes for a fixed numpy workload.

    Stamped into every trajectory so two records from different hosts
    (or a CI runner on a noisy neighbour) compare on *calibrated*
    wall-clock: the regression gate divides each study's wall-clock by
    its trajectory's calibration constant.  Best-of-five of a seeded
    matmul chain sized to tens of milliseconds -- long enough that
    scheduler jitter doesn't swing the constant (a noisy calibration
    would inject the very noise it exists to remove), dominated by the
    same BLAS/cache machinery as the hot paths it normalizes.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384))
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(16):
            a @ a
        best = min(best, time.perf_counter() - started)
    return best


class Orchestrator:
    """The single checkpointed driver behind every study entry point.

    Parameters
    ----------
    config:
        Protocol configuration shared by every study (default: the
        paper's; ``quick=True`` without an explicit config uses
        :meth:`ExperimentConfig.quick`).
    quick:
        Trim the sweeps (ablation values, fault severities, grid sizes)
        to smoke size.  Affects unit *params*, so quick and full
        checkpoints never collide.
    jobs:
        Worker processes for the cohort-fanning units.  Not part of any
        config hash: results are bit-identical at any worker count.
    checkpoint_dir / results_dir:
        Where unit checkpoints and rendered reports live.
    registry:
        Study registry override (tests inject synthetic studies).
    echo:
        Per-unit progress sink (e.g. ``print``); ``None`` = silent.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        quick: bool = False,
        jobs: int = 1,
        checkpoint_dir: Path | str = DEFAULT_CHECKPOINT_DIR,
        results_dir: Path | str = DEFAULT_RESULTS_DIR,
        registry: Mapping[str, StudyDefinition] | None = None,
        echo: Callable[[str], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if config is None:
            config = ExperimentConfig.quick() if quick else ExperimentConfig()
        self.context = StudyContext(config=config, quick=bool(quick), jobs=int(jobs))
        self.store = CheckpointStore(checkpoint_dir)
        self.results_dir = Path(results_dir)
        self.registry = dict(registry) if registry is not None else build_registry()
        self._echo = echo

    def echo(self, message: str) -> None:
        """Forward a progress line to the configured sink (if any)."""
        if self._echo is not None:
            self._echo(message)

    # -- single-study execution ----------------------------------------

    def run_study(
        self, name: str, reeval: bool = False, write_reports: bool = True
    ) -> StudyRun:
        """Run (or resume, or re-render) one study, then check it.

        Units whose checkpoint carries the current config hash are
        *skipped* -- their payloads come off disk.  ``reeval`` forbids
        computation entirely: a unit without a valid checkpoint raises
        :class:`MissingCheckpointError`.  The study's check runs over the
        payloads either way; its violations land on the returned run.
        """
        try:
            definition = self.registry[name]
        except KeyError:
            known = ", ".join(self.registry)
            raise CheckpointError(f"unknown study {name!r} (known: {known})")
        specs = definition.build_units(self.context)
        existing = self.store.load(name)
        outcomes: list[UnitOutcome] = []
        for spec in specs:
            unit_hash = config_hash(spec.params)
            record = existing.get(spec.name)
            if record is not None and record.get("config_hash") == unit_hash:
                self.echo(f"[{name}] {spec.name}: checkpoint hit ({unit_hash})")
                outcomes.append(
                    UnitOutcome(
                        name=spec.name,
                        config_hash=unit_hash,
                        payload=record.get("payload"),
                        wall_s=float(record.get("wall_s", 0.0)),
                        cached=True,
                        cache=dict(record.get("cache", {})),
                        dataplane=dict(record.get("dataplane", {})),
                    )
                )
                continue
            if reeval:
                raise MissingCheckpointError(
                    f"study {name!r} unit {spec.name!r} has no checkpoint "
                    f"for hash {unit_hash} -- run without reeval first"
                )
            outcomes.append(self._run_unit(name, spec, unit_hash))
        payloads = {o.name: o.payload for o in outcomes}
        reports: dict[str, Path] = {}
        if write_reports:
            for report_name, text in definition.render(
                self.context, payloads
            ).items():
                self.results_dir.mkdir(parents=True, exist_ok=True)
                path = self.results_dir / f"{report_name}.txt"
                path.write_text(text + "\n")
                reports[report_name] = path
        return StudyRun(
            name=name,
            units=tuple(outcomes),
            reports=reports,
            violations=tuple(definition.check(self.context, payloads)),
        )

    def _run_unit(self, study: str, spec: UnitSpec, unit_hash: str) -> UnitOutcome:
        cache_before = EXPERIMENT_CACHE.stats()
        plane_before = dataplane.perf_stats()
        started = time.perf_counter()
        payload = spec.run(self.context)
        wall_s = time.perf_counter() - started
        # Round-trip through JSON *now* so the first run renders from
        # exactly what a resumed run will load (tuples become lists,
        # keys become strings): reports stay bit-identical either way.
        payload = json.loads(json.dumps(payload))
        cache_after = EXPERIMENT_CACHE.stats()
        plane_after = dataplane.perf_stats()
        cache_delta = {
            key: int(cache_after[key]) - int(cache_before[key])
            for key in ("hits", "misses", "evictions")
        }
        plane_delta = {
            key: round(plane_after[key] - plane_before[key], 6)
            for key in ("publishes", "publish_s", "attaches", "attach_s")
        }
        record = {
            "schema": SCHEMA,
            "unit": spec.name,
            "config_hash": unit_hash,
            "payload": payload,
            "wall_s": round(wall_s, 6),
            "cache": cache_delta,
            "dataplane": plane_delta,
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        self.store.append(study, record)
        self.echo(f"[{study}] {spec.name}: computed in {wall_s:.2f}s")
        return UnitOutcome(
            name=spec.name,
            config_hash=unit_hash,
            payload=payload,
            wall_s=wall_s,
            cached=False,
            cache=cache_delta,
            dataplane=plane_delta,
        )

    # -- full runs ------------------------------------------------------

    def run(
        self,
        studies: Sequence[str] | None = None,
        reeval: bool = False,
        fresh: bool = False,
        write_reports: bool = True,
        trajectory: bool = True,
    ) -> OrchestratorRun:
        """Run the study matrix (default: every registered study).

        ``fresh`` drops the selected studies' checkpoints first;
        ``reeval`` renders and checks reports from checkpoints alone
        (zero recomputation, no trajectory).  On completion a ``BENCH_<stamp>
        .json`` perf trajectory lands in the results directory (also
        copied to ``BENCH_latest.json`` for the CI gate).
        """
        names = list(studies) if studies is not None else list(self.registry)
        if fresh:
            if reeval:
                raise CheckpointError("fresh and reeval are contradictory")
            for name in names:
                self.store.remove(name)
        runs = tuple(
            self.run_study(name, reeval=reeval, write_reports=write_reports)
            for name in names
        )
        record: dict[str, Any] | None = None
        path: Path | None = None
        recomputed = sum(run.recomputed_units for run in runs)
        if trajectory and not reeval and recomputed > 0:
            # A fully-cached run measured nothing; writing its ~0s
            # trajectory would clobber BENCH_latest.json with a record
            # the regression gate can only skip.
            record = self._build_trajectory(runs)
            path = write_trajectory(record, self.results_dir)
            self.echo(f"perf trajectory: {path}")
        return OrchestratorRun(studies=runs, trajectory=record, trajectory_path=path)

    def _build_trajectory(self, runs: Sequence[StudyRun]) -> dict[str, Any]:
        studies: dict[str, Any] = {}
        for run in runs:
            wall_s = run.wall_s
            n_windows = run.n_windows
            cache = {"hits": 0, "misses": 0, "evictions": 0}
            plane = {"publishes": 0, "publish_s": 0.0, "attaches": 0, "attach_s": 0.0}
            # Serving studies report a tail latency; the worst recomputed
            # unit's p99 is the study's (a sum would be meaningless).
            p99_ms = 0.0
            for unit in run.units:
                if unit.cached:
                    continue
                for key in cache:
                    cache[key] += int(unit.cache.get(key, 0))
                for key in plane:
                    plane[key] += unit.dataplane.get(key, 0)
                if isinstance(unit.payload, Mapping):
                    p99_ms = max(p99_ms, float(unit.payload.get("p99_ms", 0.0)))
            studies[run.name] = {
                "p99_ms": round(p99_ms, 4),
                "wall_s": round(wall_s, 6),
                "units": len(run.units),
                "recomputed_units": run.recomputed_units,
                "cached_units": len(run.units) - run.recomputed_units,
                "n_windows": n_windows,
                "windows_per_s": (
                    round(n_windows / wall_s, 3) if wall_s > 0 and n_windows else 0.0
                ),
                "cache": cache,
                "dataplane": {
                    "publishes": int(plane["publishes"]),
                    "publish_s": round(plane["publish_s"], 6),
                    "attaches": int(plane["attaches"]),
                    "attach_s": round(plane["attach_s"], 6),
                },
                "units_detail": [
                    {
                        "unit": unit.name,
                        "wall_s": round(unit.wall_s, 6),
                        "cached": unit.cached,
                    }
                    for unit in run.units
                ],
            }
        return {
            "schema": SCHEMA,
            "label": "orchestrate",
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "quick": self.context.quick,
            "jobs": self.context.jobs,
            "python": sys.version.split()[0],
            "calibration_s": round(_calibration_s(), 6),
            "studies": studies,
        }


# ----------------------------------------------------------------------
# Trajectory files and the regression gate
# ----------------------------------------------------------------------


def write_trajectory(
    record: Mapping[str, Any],
    directory: Path | str = DEFAULT_RESULTS_DIR,
    stamp: str | None = None,
) -> Path:
    """Write ``BENCH_<stamp>.json`` (and the ``BENCH_latest.json`` copy).

    ``stamp`` defaults to the current local time, second resolution;
    the dated file is the per-run artifact, ``BENCH_latest.json`` is the
    stable name CI feeds to the regression gate.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = stamp or time.strftime("%Y%m%d-%H%M%S")
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    path = directory / f"BENCH_{stamp}.json"
    path.write_text(text)
    (directory / "BENCH_latest.json").write_text(text)
    return path


def load_trajectory(path: Path | str) -> dict[str, Any]:
    """Load one trajectory record (schema-checked)."""
    record = json.loads(Path(path).read_text())
    if not isinstance(record, dict) or "studies" not in record:
        raise CheckpointError(f"{path}: not a trajectory record")
    return record


def compare_trajectories(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    threshold: float = 0.2,
    min_wall_s: float = 1.0,
    min_p99_ms: float = 1.0,
) -> tuple[list[str], list[str]]:
    """The CI regression gate over two trajectory records.

    Returns ``(regressions, lines)``: human-readable regression messages
    (empty = gate passes) plus a per-study comparison table.  A study
    regresses when its wall-clock grows by more than ``threshold``
    (default 20 %) under *both* the raw and the calibration-normalized
    ratio -- the favorable one wins, so neither a slower CI runner (raw
    inflated, calibrated ~1) nor a noisy calibration constant (calibrated
    inflated, raw ~1) can fail the gate by itself; a genuine same-code
    slowdown inflates both.  Throughput (windows/sec) gates symmetrically
    on a drop past ``threshold``, and serving tail latency (``p99_ms``,
    recorded by the gateway study) gates like wall-clock, with its own
    ``min_p99_ms`` noise floor.  Studies missing from either side, fully
    checkpoint-cached on either side, or faster than ``min_wall_s`` on
    both sides (noise floor) are reported but never gate.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    base_cal = float(baseline.get("calibration_s", 0.0)) or None
    cur_cal = float(current.get("calibration_s", 0.0)) or None
    regressions: list[str] = []
    lines: list[str] = []
    base_studies = baseline.get("studies", {})
    cur_studies = current.get("studies", {})
    for name in sorted(set(base_studies) | set(cur_studies)):
        base = base_studies.get(name)
        cur = cur_studies.get(name)
        if base is None or cur is None:
            lines.append(
                f"{name}: only in "
                f"{'current' if base is None else 'baseline'} -- skipped"
            )
            continue
        base_wall = float(base.get("wall_s", 0.0))
        cur_wall = float(cur.get("wall_s", 0.0))
        if not base.get("recomputed_units") or not cur.get("recomputed_units"):
            lines.append(f"{name}: checkpoint-cached run -- skipped")
            continue
        if base_wall < min_wall_s and cur_wall < min_wall_s:
            # Sub-second studies never wall-clock-gate, but their tail
            # latency (below) still does: a serving study can be cheap
            # in wall-clock yet regress badly in p99.
            lines.append(
                f"{name}: {base_wall:.2f}s -> {cur_wall:.2f}s "
                f"(below {min_wall_s:g}s noise floor -- skipped)"
            )
        else:
            raw_ratio = cur_wall / base_wall if base_wall > 0 else float("inf")
            if base_cal and cur_cal:
                cal_ratio = (cur_wall / cur_cal) / (base_wall / base_cal)
                ratio = min(raw_ratio, cal_ratio)
                note = f" raw x{raw_ratio:.2f}, calibrated x{cal_ratio:.2f}"
            else:
                ratio = raw_ratio
                note = f" raw x{raw_ratio:.2f}"
            lines.append(
                f"{name}: {base_wall:.2f}s -> {cur_wall:.2f}s [{note.strip()}]"
            )
            if ratio > 1.0 + threshold:
                regressions.append(
                    f"{name}: wall-clock regressed x{ratio:.2f} "
                    f"(limit x{1.0 + threshold:.2f};{note})"
                )
            base_wps = float(base.get("windows_per_s", 0.0))
            cur_wps = float(cur.get("windows_per_s", 0.0))
            if base_wps > 0 and cur_wps > 0:
                raw_wps = cur_wps / base_wps
                if base_cal and cur_cal:
                    cal_wps = (cur_wps * cur_cal) / (base_wps * base_cal)
                    wps_ratio = max(raw_wps, cal_wps)
                else:
                    wps_ratio = raw_wps
                if wps_ratio < 1.0 - threshold:
                    regressions.append(
                        f"{name}: throughput regressed x{wps_ratio:.2f} "
                        f"({base_wps:.1f} -> {cur_wps:.1f} windows/s)"
                    )
        base_p99 = float(base.get("p99_ms", 0.0))
        cur_p99 = float(cur.get("p99_ms", 0.0))
        if base_p99 > 0 and cur_p99 > 0:
            if base_p99 < min_p99_ms and cur_p99 < min_p99_ms:
                lines.append(
                    f"{name}: p99 {base_p99:.2f}ms -> {cur_p99:.2f}ms "
                    f"(below {min_p99_ms:g}ms noise floor -- skipped)"
                )
            else:
                raw_p99 = cur_p99 / base_p99
                if base_cal and cur_cal:
                    cal_p99 = (cur_p99 / cur_cal) / (base_p99 / base_cal)
                    p99_ratio = min(raw_p99, cal_p99)
                else:
                    p99_ratio = raw_p99
                lines.append(
                    f"{name}: p99 {base_p99:.2f}ms -> {cur_p99:.2f}ms "
                    f"[raw x{raw_p99:.2f}]"
                )
                if p99_ratio > 1.0 + threshold:
                    regressions.append(
                        f"{name}: p99 latency regressed x{p99_ratio:.2f} "
                        f"({base_p99:.2f} -> {cur_p99:.2f} ms)"
                    )
    return regressions, lines
