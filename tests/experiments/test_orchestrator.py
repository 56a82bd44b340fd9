"""Checkpoint semantics of the experiment orchestrator.

The contract under test: every completed (study, config) unit survives a
kill; a re-run recomputes only units without a valid checkpoint; a
resumed run's reports are bit-identical to an uninterrupted run's; and
``reeval`` renders every report with zero recomputation; every study's
check runs over its payloads on every run, ``reeval`` included.
Most tests drive a synthetic registry (instant units, observable side
effects); the kill/resume test interrupts ``repro orchestrate`` in a
real subprocess with SIGINT mid-matrix.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.orchestrator import (
    CheckpointError,
    CheckpointStore,
    MissingCheckpointError,
    Orchestrator,
    StudyDefinition,
    UnitSpec,
    build_registry,
    compare_trajectories,
    config_hash,
    write_trajectory,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _counting_registry(calls: list[str], payload_of=None, check=None):
    """One synthetic study, three units, each run appended to ``calls``."""
    payload_of = payload_of or (lambda name: {"value": name.upper(), "n_windows": 10})

    def build_units(ctx):
        def make(name):
            def run(ctx):
                calls.append(name)
                return payload_of(name)

            return UnitSpec(
                name=name,
                params={"study": "synthetic", "unit": name, "quick": ctx.quick},
                run=run,
            )

        return [make("alpha"), make("beta"), make("gamma")]

    def render(ctx, payloads):
        lines = [f"{name}: {p['value']}" for name, p in payloads.items()]
        return {"synthetic": "\n".join(lines)}

    extra = () if check is None else (check,)
    return {"synthetic": StudyDefinition("synthetic", build_units, render, *extra)}


def _orchestrator(tmp_path, registry, **kwargs):
    return Orchestrator(
        quick=True,
        checkpoint_dir=tmp_path / "checkpoints",
        results_dir=tmp_path / "results",
        registry=registry,
        **kwargs,
    )


class TestConfigHash:
    def test_stable_across_orderings(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})

    def test_any_knob_change_invalidates(self):
        base = {"seed": 2017, "window_s": 3.0}
        assert config_hash(base) != config_hash({**base, "seed": 2018})
        assert config_hash(base) != config_hash({**base, "window_s": 1.5})

    def test_tuples_and_lists_hash_identically(self):
        # JSON round-trips turn tuples into lists; hashing must agree.
        assert config_hash({"sweep": (1, 2)}) == config_hash({"sweep": [1, 2]})

    def test_rejects_unserializable_params(self):
        with pytest.raises(TypeError, match="unhashable unit parameter"):
            config_hash({"fn": lambda: None})


class TestCheckpointStore:
    def test_roundtrip_latest_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append("s", {"unit": "u", "config_hash": "old", "payload": 1})
        store.append("s", {"unit": "u", "config_hash": "new", "payload": 2})
        records = store.load("s")
        assert records["u"]["config_hash"] == "new"
        assert records["u"]["payload"] == 2

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append("s", {"unit": "done", "config_hash": "h", "payload": 1})
        # Simulate a kill mid-append: a half-written final line.
        with store.path("s").open("a") as handle:
            handle.write('{"unit": "torn", "config_hash": "h", "pay')
        records = store.load("s")
        assert set(records) == {"done"}

    def test_append_after_torn_tail_keeps_the_new_unit(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append("s", {"unit": "a", "config_hash": "h", "payload": 1})
        with store.path("s").open("a") as handle:
            handle.write('{"unit": "b", "config_ha')
        store.append("s", {"unit": "c", "config_hash": "h", "payload": 3})
        assert set(store.load("s")) == {"a", "c"}

    def test_resume_after_torn_tail_does_not_recompute(self, tmp_path):
        calls: list[str] = []
        orch = _orchestrator(tmp_path, _counting_registry(calls))
        orch.run(trajectory=False)
        path = orch.store.path("synthetic")
        # Killed while appending beta: alpha durable, beta's line torn.
        alpha = path.read_text().splitlines()[0]
        path.write_text(alpha + '\n{"unit": "beta", "config_ha')
        calls.clear()
        orch.run(trajectory=False)
        assert calls == ["beta", "gamma"]
        calls.clear()
        orch.run(trajectory=False)
        assert calls == []  # beta's recomputed checkpoint survived

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path).load("never-ran") == {}

    def test_remove_is_idempotent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.append("s", {"unit": "u", "config_hash": "h", "payload": 1})
        store.remove("s")
        store.remove("s")
        assert store.load("s") == {}


class TestResume:
    def test_second_run_recomputes_nothing(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        orch = _orchestrator(tmp_path, registry)
        orch.run(trajectory=False)
        assert calls == ["alpha", "beta", "gamma"]
        run2 = orch.run(trajectory=False)
        assert calls == ["alpha", "beta", "gamma"]  # nothing recomputed
        assert all(u.cached for s in run2.studies for u in s.units)

    def test_partial_checkpoints_resume_mid_matrix(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        orch = _orchestrator(tmp_path, registry)
        run1 = orch.run(trajectory=False)
        report1 = run1.studies[0].reports["synthetic"].read_text()
        # Drop beta's checkpoint: simulate dying before it was written.
        store = orch.store
        records = [
            r for r in store.load("synthetic").values() if r["unit"] != "beta"
        ]
        store.path("synthetic").write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        calls.clear()
        run2 = orch.run(trajectory=False)
        assert calls == ["beta"]  # only the missing unit recomputed
        cached = {u.name: u.cached for u in run2.studies[0].units}
        assert cached == {"alpha": True, "beta": False, "gamma": True}
        report2 = run2.studies[0].reports["synthetic"].read_text()
        assert report2 == report1  # resumed report is bit-identical

    def test_config_change_invalidates_units(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        _orchestrator(tmp_path, registry).run(trajectory=False)
        calls.clear()
        # quick=False changes every unit's params, hence every hash.
        other = Orchestrator(
            quick=False,
            checkpoint_dir=tmp_path / "checkpoints",
            results_dir=tmp_path / "results",
            registry=_counting_registry(calls),
        )
        other.run(trajectory=False)
        assert calls == ["alpha", "beta", "gamma"]

    def test_fresh_drops_checkpoints(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        orch = _orchestrator(tmp_path, registry)
        orch.run(trajectory=False)
        calls.clear()
        orch.run(fresh=True, trajectory=False)
        assert calls == ["alpha", "beta", "gamma"]

    def test_payloads_render_from_json_on_first_run(self, tmp_path):
        """First-run reports must come from JSON-round-tripped payloads
        (tuples already lists), or resumed reports could differ."""
        seen: list = []

        def build_units(ctx):
            return [
                UnitSpec(
                    name="u",
                    params={"study": "tuples"},
                    run=lambda ctx: {"pair": (1, 2)},
                )
            ]

        def render(ctx, payloads):
            seen.append(payloads["u"]["pair"])
            return {}

        registry = {"tuples": StudyDefinition("tuples", build_units, render)}
        orch = _orchestrator(tmp_path, registry)
        orch.run(trajectory=False)
        orch.run(trajectory=False)
        assert seen[0] == seen[1] == [1, 2]

    def test_unknown_study_rejected(self, tmp_path):
        orch = _orchestrator(tmp_path, _counting_registry([]))
        with pytest.raises(CheckpointError, match="unknown study"):
            orch.run(studies=["nonesuch"], trajectory=False)


class TestReeval:
    def test_reeval_recomputes_nothing(self, tmp_path):
        calls: list[str] = []
        registry = _counting_registry(calls)
        orch = _orchestrator(tmp_path, registry)
        run1 = orch.run(trajectory=False)
        report1 = run1.studies[0].reports["synthetic"].read_text()
        calls.clear()
        run2 = orch.run(reeval=True)
        assert calls == []  # zero recomputation
        assert run2.trajectory is None  # no perf record for cached runs
        report2 = run2.studies[0].reports["synthetic"].read_text()
        assert report2 == report1

    def test_reeval_without_checkpoints_fails(self, tmp_path):
        orch = _orchestrator(tmp_path, _counting_registry([]))
        with pytest.raises(MissingCheckpointError, match="no checkpoint"):
            orch.run(reeval=True)

    def test_reeval_and_fresh_contradict(self, tmp_path):
        orch = _orchestrator(tmp_path, _counting_registry([]))
        with pytest.raises(CheckpointError, match="contradictory"):
            orch.run(reeval=True, fresh=True)


class TestChecks:
    def test_failing_check_is_returned(self, tmp_path):
        registry = _counting_registry([], check=lambda ctx, payloads: ["planted"])
        run = _orchestrator(tmp_path, registry).run(trajectory=False)
        assert run.studies[0].violations == ("planted",)
        assert run.violations == ["synthetic: planted"]

    def test_cli_exits_1_and_prints_violation(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.orchestrator as orchestrator
        from repro.cli import main

        registry = _counting_registry([], check=lambda ctx, payloads: ["planted"])
        monkeypatch.setattr(orchestrator, "build_registry", lambda: registry)
        rc = main(
            [
                "orchestrate", "--quick", "--no-trajectory",
                "--checkpoint-dir", str(tmp_path / "checkpoints"),
                "--results-dir", str(tmp_path / "results"),
            ]
        )
        assert rc == 1
        assert "check failed: synthetic: planted" in capsys.readouterr().err

    def test_reeval_rechecks_without_recompute(self, tmp_path):
        calls: list[str] = []
        checked: list[dict] = []

        def check(ctx, payloads):
            checked.append(payloads)
            return [f"{name} seen" for name in payloads]

        orch = _orchestrator(tmp_path, _counting_registry(calls, check=check))
        first = orch.run(trajectory=False)
        calls.clear()
        again = orch.run(reeval=True)
        assert calls == []  # zero recomputation
        assert len(checked) == 2 and checked[0] == checked[1]
        assert again.violations == first.violations != []

    @staticmethod
    def _planted(tmp_path, study, payloads, quick):
        """Run the real ``study`` check over planted unit payloads."""

        def build_units(ctx):
            return [
                UnitSpec(name=name, params={"planted": name}, run=lambda ctx, p=p: p)
                for name, p in payloads.items()
            ]

        real = build_registry()[study]
        registry = {study: StudyDefinition(study, build_units, lambda c, p: {}, real.check)}
        return Orchestrator(
            quick=quick,
            checkpoint_dir=tmp_path / f"checkpoints-{quick}",
            results_dir=tmp_path / "results",
            registry=registry,
        ).run(trajectory=False).violations

    @pytest.mark.parametrize("quick", [True, False])
    def test_invariants_hold_at_both_sizes(self, tmp_path, quick):
        tier = {"available": True, "bit_identical": True, "speedup": 3.0, "reason": "ok"}
        payloads = {
            "original": tier,
            "simplified": {**tier, "bit_identical": False},
            "reduced": {"available": False, "bit_identical": None, "speedup": None},
        }
        violations = self._planted(tmp_path, "native", payloads, quick)
        assert len(violations) == 1
        assert violations[0].startswith("native: simplified: not bit-identical")

    def test_speedup_floor_depends_on_size(self, tmp_path):
        tier = {"available": True, "bit_identical": True, "speedup": 1.5, "reason": "ok"}
        payloads = {"original": tier}
        assert self._planted(tmp_path, "native", payloads, quick=True) == []
        assert self._planted(tmp_path, "native", payloads, quick=False) == [
            "native: original: speedup 1.5x < 2.0x"
        ]

    def test_paper_thresholds_only_at_full_size(self, tmp_path):
        weak = {"false_positive_rate": 0.5, "false_negative_rate": 0.5, "accuracy": 0.5, "f1": 0.5}
        payloads = {
            version: {
                "version": version,
                "rows": [{"platform": p, "report": weak} for p in ("amulet", "reference")],
            }
            for version in ("original", "simplified", "reduced")
        }
        assert self._planted(tmp_path, "table2", payloads, quick=True) == []
        full = self._planted(tmp_path, "table2", payloads, quick=False)
        assert "table2: amulet: original accuracy 0.5000 <= 0.85" in full


_KILLABLE_SCRIPT = """
import sys, time
from pathlib import Path

import repro.experiments.orchestrator as orchestrator
from repro.cli import main
from repro.experiments.orchestrator import StudyDefinition, UnitSpec

base = Path(sys.argv[1])
slow_unit = sys.argv[2] if len(sys.argv) > 2 else None

def build_units(ctx):
    def make(name):
        def run(ctx):
            if name == slow_unit:
                print(f"UNIT-STARTED {name}", flush=True)
                time.sleep(60.0)
            return {"value": name.upper(), "n_windows": 5}
        return UnitSpec(name=name, params={"study": "killable", "unit": name}, run=run)
    return [make(n) for n in ("alpha", "beta", "gamma")]

def render(ctx, payloads):
    lines = [f"{name}: {p['value']}" for name, p in payloads.items()]
    return {"killable": chr(10).join(lines)}

registry = {"killable": StudyDefinition("killable", build_units, render)}
orchestrator.build_registry = lambda: registry
rc = main([
    "orchestrate", "--quick", "--no-trajectory",
    "--checkpoint-dir", str(base / "checkpoints"),
    "--results-dir", str(base / "results"),
])
if rc == 0:
    print("RUN-COMPLETE", flush=True)
sys.exit(rc)
"""


class TestKillAndResume:
    def test_sigint_mid_matrix_then_resume_bit_identical(self, tmp_path):
        """The acceptance scenario: interrupt ``repro orchestrate`` inside
        unit two, re-run, and require (a) a clean exit 130 with no
        traceback, (b) unit one is never recomputed, (c) the resumed
        reports match an uninterrupted run's byte for byte."""
        script = tmp_path / "driver.py"
        script.write_text(_KILLABLE_SCRIPT)
        interrupted = tmp_path / "interrupted"
        env_dir = str(REPO_ROOT / "src")

        proc = subprocess.Popen(
            [sys.executable, str(script), str(interrupted), "beta"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=str(tmp_path),
            env={"PYTHONPATH": env_dir, "PATH": "/usr/bin:/bin"},
        )
        try:
            # Wait for the slow unit to start, then interrupt it.
            deadline = time.monotonic() + 60.0
            for line in proc.stdout:
                if "UNIT-STARTED beta" in line:
                    break
                assert time.monotonic() < deadline, "driver never reached beta"
            proc.send_signal(signal.SIGINT)
            output = proc.communicate(timeout=30.0)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 130, output
        assert "Traceback" not in output
        assert "repro orchestrate: interrupted; rerun to resume" in output
        assert "RUN-COMPLETE" not in output

        # Alpha completed before the kill and must have a durable checkpoint.
        store = CheckpointStore(interrupted / "checkpoints")
        survived = store.load("killable")
        assert "alpha" in survived
        assert "beta" not in survived

        # Resume: no slow unit this time; must reuse alpha's checkpoint.
        resumed = subprocess.run(
            [sys.executable, str(script), str(interrupted)],
            capture_output=True,
            text=True,
            timeout=120.0,
            cwd=str(tmp_path),
            env={"PYTHONPATH": env_dir, "PATH": "/usr/bin:/bin"},
        )
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr
        assert "RUN-COMPLETE" in resumed.stdout

        records = store.load("killable")
        assert set(records) == {"alpha", "beta", "gamma"}
        # Alpha's checkpoint is the original, not a recompute: its file
        # line order proves it (alpha precedes the kill, beta/gamma follow).
        order = [
            json.loads(line)["unit"]
            for line in store.path("killable").read_text().splitlines()
            if line.strip()
        ]
        assert order[0] == "alpha" and order.count("alpha") == 1

        # Bit-identical against a never-interrupted control run.
        control = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "control")],
            capture_output=True,
            text=True,
            timeout=120.0,
            cwd=str(tmp_path),
            env={"PYTHONPATH": env_dir, "PATH": "/usr/bin:/bin"},
        )
        assert control.returncode == 0, control.stdout + control.stderr
        resumed_report = (interrupted / "results" / "killable.txt").read_bytes()
        control_report = (
            tmp_path / "control" / "results" / "killable.txt"
        ).read_bytes()
        assert resumed_report == control_report


class TestTrajectory:
    def test_run_emits_trajectory(self, tmp_path):
        registry = _counting_registry([])
        orch = _orchestrator(tmp_path, registry)
        run = orch.run()
        assert run.trajectory_path is not None and run.trajectory_path.exists()
        latest = tmp_path / "results" / "BENCH_latest.json"
        assert latest.exists()
        record = json.loads(latest.read_text())
        study = record["studies"]["synthetic"]
        assert study["recomputed_units"] == 3
        assert study["n_windows"] == 30
        assert record["calibration_s"] > 0
        assert {"hits", "misses", "evictions"} <= set(study["cache"])
        assert {"publishes", "attaches"} <= set(study["dataplane"])

    def test_fully_cached_run_writes_no_trajectory(self, tmp_path):
        """A resume that recomputed nothing measured nothing: it must not
        clobber BENCH_latest.json (the gate's input) with a ~0s record."""
        registry = _counting_registry([])
        orch = _orchestrator(tmp_path, registry)
        first = orch.run()
        stamp = first.trajectory_path.read_bytes()
        second = orch.run()
        assert second.trajectory is None
        latest = tmp_path / "results" / "BENCH_latest.json"
        assert latest.read_bytes() == stamp

    def test_write_trajectory_files(self, tmp_path):
        record = {
            "schema": 1,
            "calibration_s": 0.01,
            "studies": {"s": {"wall_s": 1.0, "recomputed_units": 1}},
        }
        path = write_trajectory(record, tmp_path, stamp="test")
        assert path == tmp_path / "BENCH_test.json"
        assert json.loads(path.read_text()) == json.loads(
            (tmp_path / "BENCH_latest.json").read_text()
        )


def _study(wall_s, wps=0.0, recomputed=1):
    return {
        "wall_s": wall_s,
        "recomputed_units": recomputed,
        "windows_per_s": wps,
    }


def _trajectory(calibration_s=1.0, **studies):
    return {"schema": 1, "calibration_s": calibration_s, "studies": studies}


class TestRegressionGate:
    def test_within_threshold_passes(self):
        regressions, lines = compare_trajectories(
            _trajectory(s=_study(10.0)), _trajectory(s=_study(11.0))
        )
        assert regressions == []
        assert any("s:" in line for line in lines)

    def test_slowdown_past_threshold_fails(self):
        regressions, _ = compare_trajectories(
            _trajectory(s=_study(10.0)), _trajectory(s=_study(13.0))
        )
        assert len(regressions) == 1
        assert "wall-clock regressed" in regressions[0]

    def test_calibration_normalizes_machine_speed(self):
        # Twice the wall-clock on a machine measured twice as slow: even.
        regressions, _ = compare_trajectories(
            _trajectory(calibration_s=1.0, s=_study(10.0)),
            _trajectory(calibration_s=2.0, s=_study(20.0)),
        )
        assert regressions == []

    def test_noisy_calibration_alone_cannot_fail_the_gate(self):
        # Same machine, same wall-clock, but the calibration constant
        # came out 40% low on the second run: raw ratio ~1 must win.
        regressions, _ = compare_trajectories(
            _trajectory(calibration_s=1.0, s=_study(10.0)),
            _trajectory(calibration_s=0.6, s=_study(10.2)),
        )
        assert regressions == []

    def test_genuine_slowdown_inflates_both_ratios(self):
        regressions, _ = compare_trajectories(
            _trajectory(calibration_s=1.0, s=_study(10.0)),
            _trajectory(calibration_s=1.0, s=_study(15.0)),
        )
        assert len(regressions) == 1
        assert "raw x1.50" in regressions[0]
        assert "calibrated x1.50" in regressions[0]

    def test_throughput_drop_fails(self):
        regressions, _ = compare_trajectories(
            _trajectory(s=_study(10.0, wps=100.0)),
            _trajectory(s=_study(10.0, wps=50.0)),
        )
        assert len(regressions) == 1
        assert "throughput regressed" in regressions[0]

    def test_noise_floor_skips_fast_studies(self):
        regressions, lines = compare_trajectories(
            _trajectory(s=_study(0.1)), _trajectory(s=_study(0.9))
        )
        assert regressions == []
        assert any("noise floor" in line for line in lines)

    def test_cached_runs_never_gate(self):
        regressions, lines = compare_trajectories(
            _trajectory(s=_study(10.0)),
            _trajectory(s=_study(90.0, recomputed=0)),
        )
        assert regressions == []
        assert any("checkpoint-cached" in line for line in lines)

    def test_missing_study_reported_not_gated(self):
        regressions, lines = compare_trajectories(
            _trajectory(s=_study(10.0)), _trajectory()
        )
        assert regressions == []
        assert any("only in baseline" in line for line in lines)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_trajectories(_trajectory(), _trajectory(), threshold=0.0)
