"""Tests for the async ingestion gateway.

The load-bearing property is *bit-identity*: micro-batching windows
across wearer sessions must produce, for every wearer, exactly the
verdict sequence a per-wearer sequential
:class:`~repro.core.streaming.StreamingDetector` run would have -- same
decision values (bitwise), same abstains, same episodes.  Everything
else here is the backpressure and lifecycle accounting contract.
"""

import asyncio
import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.adaptive.degradation import DegradationController
from repro.core.streaming import StreamingDetector
from repro.core.versions import DetectorVersion
from repro.gateway import (
    InProcessBackend,
    IngestionGateway,
    SessionSnapshotStore,
    window_from_slot,
)
from repro.signals.quality import SignalQualityIndex
from repro.wiot.channel import DeliveredPacket
from repro.wiot.sensor import BodySensor


def _deliveries(record, flatline=()):
    """One wearer's in-order deliveries (ECG+ABP per sequence); sequences
    in ``flatline`` get zeroed ECG samples so the SQI gate abstains."""
    out = []
    ecg = BodySensor("s-ecg", "ecg", record)
    abp = BodySensor("s-abp", "abp", record)
    for e, a in zip(ecg.packets(), abp.packets()):
        if e.sequence in flatline:
            e = dataclasses.replace(e, samples=np.zeros_like(e.samples))
        out.append(DeliveredPacket(packet=e, arrival_time_s=e.start_time_s))
        out.append(DeliveredPacket(packet=a, arrival_time_s=a.start_time_s))
    return out


def _windows_of(deliveries):
    """The float32 windows those deliveries assemble into, in order."""
    windows = []
    for e, a in zip(deliveries[0::2], deliveries[1::2]):
        windows.append(window_from_slot({"ecg": e, "abp": a}))
    return windows


async def _drive(gateway, streams):
    """Submit every wearer's stream, round-robin, through a started
    gateway; returns the per-wearer session objects."""
    sessions = {}
    async with gateway:
        iters = {w: iter(d) for w, d in streams.items()}
        alive = set(iters)
        while alive:
            for wearer_id in sorted(alive):
                try:
                    gateway.submit(wearer_id, next(iters[wearer_id]))
                except StopIteration:
                    alive.discard(wearer_id)
                sessions.setdefault(wearer_id, gateway.session(wearer_id))
            await asyncio.sleep(0)
    return sessions


class TestBitIdentity:
    def test_cross_session_batches_match_sequential(
        self, trained_detectors, test_record, test_donor_records
    ):
        """Three wearers, interleaved, scored in shared micro-batches
        (batch_size forces mixing) == three independent sequential runs."""
        detector = trained_detectors[DetectorVersion.ORIGINAL]
        gate = SignalQualityIndex()
        records = [test_record, *test_donor_records]
        # Wearer 0 gets two flatlined windows so abstains interleave with
        # scores inside shared batches.
        streams = {
            f"w{i}": _deliveries(record, flatline=(3, 4) if i == 0 else ())
            for i, record in enumerate(records)
        }
        gateway = IngestionGateway(
            detector,
            quality_gate=gate,
            votes_needed=2,
            vote_window=3,
            batch_size=5,  # not a multiple of anything: batches straddle wearers
            linger_s=0.001,
        )
        sessions = asyncio.run(_drive(gateway, streams))
        # Micro-batching actually crossed sessions.
        assert gateway.stats().mean_batch_size > 1.0

        for wearer_id, deliveries in streams.items():
            session = sessions[wearer_id]
            reference = StreamingDetector(
                detector, votes_needed=2, vote_window=3, quality_gate=gate
            )
            expected = []
            for window in _windows_of(deliveries):
                report = gate.assess(window)
                if not report.usable:
                    expected.append(("abstain", None))
                else:
                    expected.append(("score", detector.decision_value(window)))
                reference.process_window(window)
            reference.finish()

            got = [
                ("abstain", None) if v.abstained else ("score", v.decision_value)
                for v in session.recent_verdicts
            ]
            # Bitwise-equal decision values, same abstain placement.
            assert got == expected
            # Identical episode structure and debouncer state.
            assert session.episodes == reference.episodes
            assert (
                session.debouncer.abstained_indexes
                == reference.abstained_indexes
            )

    def test_degraded_tiers_match_sequential(
        self, trained_detectors, dataset, victim
    ):
        """Per-session tier controllers: a noisy wearer steps down to the
        fallback tier exactly where its own sequential run would."""
        primary = trained_detectors[DetectorVersion.ORIGINAL]
        fallbacks = {
            v: d for v, d in trained_detectors.items() if v is not primary.version
        }
        gate = SignalQualityIndex()
        record = dataset.record(victim, 90.0, purpose="extra")
        # A run of flatlined windows long enough to trip the controller.
        streams = {
            "noisy": _deliveries(record, flatline=(2, 3, 4, 5, 6)),
            "clean": _deliveries(record),
        }
        template = DegradationController(degrade_after=2, recover_after=30)
        gateway = IngestionGateway(
            primary,
            quality_gate=gate,
            fallbacks=fallbacks,
            degradation=template,
            batch_size=4,
            linger_s=0.001,
        )
        sessions = asyncio.run(_drive(gateway, streams))

        for wearer_id, deliveries in streams.items():
            session = sessions[wearer_id]
            reference = StreamingDetector(
                primary,
                quality_gate=gate,
                fallbacks=fallbacks,
                degradation=template.clone(),
            )
            for window in _windows_of(deliveries):
                reference.process_window(window)
            got = [
                v.decision_value
                for v in session.recent_verdicts
                if not v.abstained
            ]
            # Recompute the reference values sequentially with a second
            # independent controller to pin the tier schedule.
            control = template.clone()
            expected = []
            for window in _windows_of(deliveries):
                report = gate.assess(window)
                control.observe(report)
                if not report.usable:
                    continue
                version = control.active
                active = primary if version is primary.version else fallbacks[version]
                expected.append(active.decision_value(window))
            assert got == expected
            assert session.episodes == reference.episodes
        # The noisy wearer actually switched tiers; the clean one never did.
        assert sessions["noisy"].degradation.switches
        assert not sessions["clean"].degradation.switches


class TestBackpressure:
    def test_per_session_inflight_cap_sheds_only_the_slow_wearer(
        self, trained_detectors, test_record
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)  # 20 windows

        async def run():
            gateway = IngestionGateway(
                detector,
                batch_size=64,
                linger_s=0.0,
                queue_windows=1024,
                max_inflight_per_session=3,
            )
            async with gateway:
                shed = 0
                # Submit every window with no yield: the batcher cannot
                # drain, so the 4th assembled window onward must shed.
                for delivered in deliveries:
                    if not gateway.submit("slow", delivered):
                        shed += 1
                session = gateway.session("slow")
                assert session.inflight == 3
                assert shed == 17
                assert session.windows_shed == 17
                assert gateway.windows_shed_session == 17
                assert gateway.windows_shed_queue == 0
                return gateway, session

        gateway, session = asyncio.run(run())
        # Shutdown scored the 3 queued windows; accounting conserves.
        stats = gateway.stats()
        assert stats.windows_scored == 3
        assert stats.windows_assembled == 20
        assert (
            stats.verdicts + stats.windows_shed == stats.windows_assembled
        )
        assert session.closed

    def test_full_queue_sheds_with_global_accounting(
        self, trained_detectors, test_record
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)

        async def run():
            gateway = IngestionGateway(
                detector,
                batch_size=64,
                linger_s=0.0,
                queue_windows=2,
                max_inflight_per_session=100,
            )
            async with gateway:
                results = [
                    gateway.submit("w", delivered) for delivered in deliveries
                ]
                # 20 assembled windows into a 2-slot queue: 18 shed.
                assert results.count(False) == 18
                assert gateway.windows_shed_queue == 18
                assert gateway.windows_shed_session == 0
                return gateway

        gateway = asyncio.run(run())
        stats = gateway.stats()
        assert stats.windows_scored == 2
        assert stats.verdicts + stats.windows_shed == stats.windows_assembled

    def test_shed_windows_never_reach_the_debouncer(
        self, trained_detectors, test_record
    ):
        """A shed window is a loss, not a verdict: the debouncer's clock
        only advances for scored/abstained windows."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)

        async def run():
            gateway = IngestionGateway(
                detector, batch_size=8, linger_s=0.0, max_inflight_per_session=5
            )
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                session = gateway.session("w")
                return gateway, session

        _, session = asyncio.run(run())
        assert session.windows_shed > 0
        assert (
            session.debouncer.state.window_index
            == session.windows_scored + session.windows_abstained
        )


    def test_shed_windows_never_reach_the_tier_controller(
        self, trained_detectors, dataset, victim
    ):
        """Windows are shed before the gate, so a shed window is never
        assessed: the tier controller observes exactly the scored plus
        abstained windows, and tiers follow a sequential run over the
        windows that were not shed."""
        primary = trained_detectors[DetectorVersion.ORIGINAL]
        fallbacks = {
            v: d for v, d in trained_detectors.items() if v is not primary.version
        }
        gate = SignalQualityIndex()
        template = DegradationController(degrade_after=2, recover_after=3)
        record = dataset.record(victim, 90.0, purpose="extra")
        deliveries = _deliveries(record, flatline=(2, 3, 4, 5, 6, 7, 8))
        windows = _windows_of(deliveries)
        verdicts = []

        async def run():
            gateway = IngestionGateway(
                primary,
                quality_gate=gate,
                fallbacks=fallbacks,
                degradation=template,
                batch_size=8,
                linger_s=0.0,
                max_inflight_per_session=2,
                on_verdict=verdicts.append,
            )
            kept = []
            async with gateway:
                # Bursts of three windows with no yield: the third of
                # each burst finds two in flight and is shed.
                for start in range(0, len(windows), 3):
                    for j in range(start, min(start + 3, len(windows))):
                        gateway.submit("w", deliveries[2 * j])
                        if gateway.submit("w", deliveries[2 * j + 1]):
                            kept.append(j)
                    await gateway.drain()
                session = gateway.session("w")
            return session, kept

        session, kept = asyncio.run(run())
        controller = session.degradation
        assert session.windows_shed == len(windows) - len(kept) > 0
        assert controller.n_observed == (
            session.windows_scored + session.windows_abstained
        ) == len(kept)
        # The same controller fed only the kept windows, sequentially.
        control = template.clone()
        expected = []
        for j in kept:
            report = gate.assess(windows[j])
            control.observe(report)
            if not report.usable:
                expected.append((j, None))
                continue
            version = control.active
            active = primary if version is primary.version else fallbacks[version]
            expected.append((j, active.decision_value(windows[j])))
        assert controller.export_state() == control.export_state()
        assert controller.switches  # the flatlined run degraded the tier
        assert [
            (v.sequence, None if v.abstained else v.decision_value)
            for v in verdicts
        ] == [(deliveries[2 * j].packet.sequence, value) for j, value in expected]


class _BlockingBackend(InProcessBackend):
    """Scores only once ``release`` is set (off-loop, so the loop stays live)."""

    def __init__(self, detectors):
        super().__init__(detectors)
        self.release = threading.Event()

    def score(self, key, windows):
        self.release.wait(timeout=30.0)
        return super().score(key, windows)


class TestLifecycle:
    def test_shutdown_leaves_zero_sessions(self, trained_detectors, test_record):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        streams = {
            f"w{i}": _deliveries(test_record) for i in range(3)
        }
        gateway = IngestionGateway(detector, batch_size=16, linger_s=0.001)
        sessions = asyncio.run(_drive(gateway, streams))
        assert gateway.active_sessions == 0
        assert all(s.closed for s in sessions.values())
        stats = gateway.stats()
        assert stats.sessions_started == 3
        assert stats.sessions_active == 0
        assert stats.windows_assembled == 60
        assert stats.verdicts + stats.windows_shed == 60

    def test_submit_after_shutdown_raises(self, trained_detectors, test_record):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        delivered = _deliveries(test_record)[0]

        async def run():
            gateway = IngestionGateway(detector)
            async with gateway:
                pass
            with pytest.raises(RuntimeError, match="shutting down"):
                gateway.submit("w", delivered)

        asyncio.run(run())

    def test_end_session_with_inflight_finalizes_after_scoring(
        self, trained_detectors, test_record
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)[:8]  # 4 windows

        async def run():
            gateway = IngestionGateway(detector, batch_size=64, linger_s=0.0)
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                session = gateway.end_session("w")
                # Still awaiting scoring: detached but not yet finalized.
                assert session.ending and not session.closed
                assert gateway.active_sessions == 0
                await gateway.drain()
                assert session.closed
                assert session.windows_scored == 4
                return session

        session = asyncio.run(run())
        assert session.episodes is not None  # debouncer was finished

    def test_drain_returns_at_once_when_idle(self, trained_detectors):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]

        async def run():
            async with IngestionGateway(detector) as gateway:
                # Completes on its first step: no suspension, no loop turn.
                with pytest.raises(StopIteration):
                    gateway.drain().send(None)

        asyncio.run(run())

    def test_drain_returns_only_after_queued_windows_are_applied(
        self, trained_detectors, test_record
    ):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)[:8]  # 4 windows
        backend = _BlockingBackend({detector.version.value: detector})
        verdicts = []

        async def run():
            gateway = IngestionGateway(
                detector,
                batch_size=64,
                linger_s=0.0,
                backend=backend,
                on_verdict=verdicts.append,
            )
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                drain = asyncio.get_running_loop().create_task(gateway.drain())
                cpu_before = time.process_time()
                await asyncio.sleep(0.2)
                # The batch is stuck in scoring: drain must still wait --
                # asleep on an event, not spinning the loop.
                assert not drain.done()
                assert time.process_time() - cpu_before < 0.1
                assert verdicts == []
                backend.release.set()
                await drain
                assert len(verdicts) == 4
                assert gateway.session("w").inflight == 0
                # Idle again: a second drain returns at once.
                with pytest.raises(StopIteration):
                    gateway.drain().send(None)

        asyncio.run(run())

    def test_snapshot_sees_a_quiescent_gateway(
        self, tmp_path, trained_detectors, test_record
    ):
        """``snapshot`` drains first: windows submitted just before it are
        applied, so the exported debouncer state covers their verdicts."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)[:12]  # 6 windows
        store = SessionSnapshotStore(tmp_path / "s.jsonl")

        async def run():
            gateway = IngestionGateway(detector, batch_size=4, linger_s=0.0)
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                await gateway.snapshot(store)
                return gateway.session("w").windows_scored

        scored_at_snapshot = asyncio.run(run())
        assert scored_at_snapshot == 6
        _, _, sessions = store.load()
        assert sessions[0]["windows_scored"] == 6

    def test_lost_halves_count_per_session(self, trained_detectors, test_record):
        """Dropping one half of a window surfaces as an incomplete window
        in the gateway stats, never a verdict."""
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        deliveries = _deliveries(test_record)
        del deliveries[6 * 2 + 1]  # drop window 6's ABP half

        async def run():
            gateway = IngestionGateway(detector, batch_size=8, linger_s=0.0,
                                       max_inflight_per_session=100)
            async with gateway:
                for delivered in deliveries:
                    gateway.submit("w", delivered)
                    await asyncio.sleep(0)
                return gateway

        gateway = asyncio.run(run())
        stats = gateway.stats()
        assert stats.windows_assembled == 19
        assert stats.incomplete_windows == 1
        assert stats.verdicts == 19

    def test_validation(self, trained_detectors):
        detector = trained_detectors[DetectorVersion.SIMPLIFIED]
        with pytest.raises(ValueError):
            IngestionGateway(detector, batch_size=0)
        with pytest.raises(ValueError):
            IngestionGateway(detector, linger_s=-1.0)
        with pytest.raises(ValueError):
            IngestionGateway(detector, queue_windows=0)
        with pytest.raises(ValueError):
            IngestionGateway(detector, max_inflight_per_session=0)
        with pytest.raises(ValueError, match="quality_gate"):
            IngestionGateway(detector, degradation=DegradationController())
        with pytest.raises(ValueError, match="without a fitted fallback"):
            IngestionGateway(
                trained_detectors[DetectorVersion.ORIGINAL],
                quality_gate=SignalQualityIndex(),
                fallbacks={
                    DetectorVersion.SIMPLIFIED: detector,
                },
                degradation=DegradationController(),
            )
