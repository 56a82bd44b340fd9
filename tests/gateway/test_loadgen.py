"""Tests for the wearer fleet simulator and the gateway-bench CLI."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.versions import DetectorVersion
from repro.gateway import (
    IngestionGateway,
    run_gateway_load,
    train_serving_detectors,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRunGatewayLoad:
    def test_small_fleet_accounting(self):
        report = run_gateway_load(
            n_wearers=6, stream_s=12.0, batch_size=8, loss_probability=0.1,
            seed=11,
        )
        stats = report.stats
        assert stats.sessions_started == 6
        assert report.leaked_sessions == 0
        assert stats.sessions_active == 0
        assert report.windows_sent == 6 * 4  # 12 s = 4 windows each
        # Conservation: every sent window got a disposition (windows
        # whose both halves the channel dropped are counted sender-side).
        assert (
            stats.verdicts
            + stats.windows_shed
            + stats.incomplete_windows
            + report.windows_vanished
            == report.windows_sent
        )
        assert stats.verdicts > 0
        # 10% packet loss must surface as incompletes, never vanish.
        assert report.packets_dropped > 0
        assert stats.incomplete_windows > 0
        assert not report.interrupted
        # perf_counter latencies are positive and ordered.
        assert 0.0 < report.p50_latency_s <= report.p99_latency_s
        assert report.windows_per_s > 0

    def test_degradation_fleet_runs(self):
        report = run_gateway_load(
            n_wearers=4, stream_s=9.0, batch_size=8, loss_probability=0.0,
            with_degradation=True, seed=5,
        )
        assert report.leaked_sessions == 0
        assert report.stats.verdicts == report.windows_sent

    def test_stop_event_interrupts_cleanly(self):
        import asyncio

        from repro.gateway import run_fleet

        data, fitted = train_serving_detectors(versions=("simplified",), seed=9)
        detector = fitted[DetectorVersion.SIMPLIFIED]
        records = [data.record(data.subjects[0], 60.0, purpose="test")]

        async def run():
            gateway = IngestionGateway(detector, batch_size=8, linger_s=0.001)
            stop = asyncio.Event()

            async def tripwire():
                await asyncio.sleep(0.01)
                stop.set()

            task = asyncio.get_running_loop().create_task(tripwire())
            report = await run_fleet(
                gateway, records, n_wearers=8, stop=stop
            )
            await task
            return report

        report = asyncio.run(run())
        assert report.interrupted
        assert report.leaked_sessions == 0
        # Whatever was sent before the stop is still fully accounted.
        stats = report.stats
        assert (
            stats.verdicts
            + stats.windows_shed
            + stats.incomplete_windows
            + report.windows_vanished
            == report.windows_sent
        )

    def test_validation(self):
        import asyncio

        from repro.gateway import run_fleet

        data, fitted = train_serving_detectors(versions=("simplified",), seed=9)
        detector = fitted[DetectorVersion.SIMPLIFIED]
        gateway = IngestionGateway(detector)
        with pytest.raises(ValueError):
            asyncio.run(run_fleet(gateway, [], n_wearers=1))


@pytest.mark.skipif(
    not hasattr(signal, "SIGINT") or os.name == "nt",
    reason="POSIX signal delivery required",
)
class TestGatewayBenchCLI:
    @staticmethod
    def _start(*extra):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "gateway-bench",
                "--wearers", "16", "--seed", "3", *extra,
            ],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    @staticmethod
    def _interrupt_at(proc, marker):
        """Send SIGINT as soon as ``marker`` shows on stderr; returns
        ``(stdout, stderr)`` with the lines read so far included."""
        seen = []
        try:
            deadline = time.monotonic() + 60.0
            for line in proc.stderr:
                seen.append(line)
                if marker in line:
                    break
                assert time.monotonic() < deadline, f"never printed {marker!r}"
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        return stdout, "".join(seen) + stderr

    def test_sigint_shuts_down_cleanly(self):
        """SIGINT mid-run must drain, finalize every session, print the
        report, and exit 0 -- the CI smoke contract."""
        from repro.cli import GATEWAY_READY_LINE

        proc = self._start("--stream-s", "600")
        # Handshake, not a sleep: interrupt once streaming has started.
        stdout, stderr = self._interrupt_at(proc, GATEWAY_READY_LINE)
        assert proc.returncode == 0, stderr
        assert "leaked sessions    0" in stdout
        assert "verdict latency" in stdout
        assert "(interrupted)" in stdout

    def test_sigint_during_training_exits_130_without_traceback(self):
        """Before serving starts there is nothing to drain: exit 130 with
        one line, not a KeyboardInterrupt traceback."""
        # Three tiers to train and an hour of recording to synthesize
        # keep the process well before serving when the signal lands.
        proc = self._start("--stream-s", "3600", "--degradation")
        stdout, stderr = self._interrupt_at(proc, "training detectors")
        assert proc.returncode == 130, stderr
        assert "Traceback" not in stderr
        assert "KeyboardInterrupt" not in stderr
        assert "interrupted before serving started" in stderr
        assert stdout == ""
