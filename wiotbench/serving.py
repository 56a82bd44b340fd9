"""The two serving workloads, driven from outside the gateway.

``realtime_native_supervised`` is an open loop: every wearer sends one
window every 3 s from a seeded phase, whatever the gateway does, and a
window's latency runs from its *scheduled* send.  ``catchup_gated`` is a
closed loop: reconnecting wearers drain a backlog with one window in
flight each, so micro-batches fill and the SQI gate and numpy scoring
dominate.  All channel work is pre-rendered before timing starts; the
program only ever sees the resulting deliveries.
"""

from __future__ import annotations

import asyncio
import gc
import math
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    BenchError,
    Tracer,
    at_reference,
    best_decile,
    halves,
    mean,
    median,
    percentile,
    probe_host,
    process_cpu_s,
)

from repro.core.streaming import StreamingDetector
from repro.core.versions import DetectorVersion
from repro.experiments.dataplane import leaked_segments
from repro.gateway import (
    InProcessBackend,
    IngestionGateway,
    SupervisedScoringBackend,
    WearerSession,
    train_serving_detectors,
    window_from_slot,
)
from repro.signals.quality import SignalQualityIndex
from repro.wiot.assembly import DEFAULT_MAX_PENDING_LAG, WindowAssembler
from repro.wiot.channel import DeliveredPacket, WirelessChannel
from repro.wiot.sensor import BodySensor

WINDOW_S = 3.0
LOSS_PROBABILITY = 0.02
#: Wearers whose verdicts and episodes are replayed sequentially after
#: the timed phase (the bit-identity gate).
SAMPLE_WEARERS = 16
#: Distinct recordings cycled across the fleet (as the repo's own load
#: generator does): synthesizing one per wearer would time the signal
#: generator, not the gateway.
N_RECORDS = 4
#: Each wearer starts at a seeded window offset into its recording.
MAX_START_OFFSET = 8
#: Windows each catch-up wearer drains per episode: short episodes
#: (0.3-0.5 s) mostly fall in one host state, which the probes beside
#: them read (see ``reference_speed`` in ``design.json``).
CATCHUP_BACKLOG = 3


@dataclass(frozen=True)
class Window:
    """One wearer window as the channel left it (``None`` = dropped half)."""

    wearer: str
    sequence: int
    ecg: DeliveredPacket | None
    abp: DeliveredPacket | None

    @property
    def complete(self) -> bool:
        return self.ecg is not None and self.abp is not None

    @property
    def vanished(self) -> bool:
        return self.ecg is None and self.abp is None


def _wearer_id(index: int) -> str:
    return f"w{index:05d}"


def _sample(wearers) -> dict:
    """Verdict lists of the sampled wearers, filled by ``on_verdict``."""
    return {_wearer_id(i): [] for i in range(min(SAMPLE_WEARERS, len(wearers)))}


def _channel_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


class ServingEnv:
    """The set-up both serving workloads share: fitted detectors and a
    warm-up batch (import and training happen in the caller's clock)."""

    def __init__(self, native: bool, gated: bool) -> None:
        self.data, fitted = train_serving_detectors(
            platform="native" if native else "numpy"
        )
        self.detector = fitted[DetectorVersion.ORIGINAL]
        self.key = self.detector.version.value
        # Loads (or builds) the native library in this process, before any
        # scorer child is forked from it.
        self.native_active = self.detector.native_active if native else False
        self.gate = SignalQualityIndex() if gated else None
        warm_record = self.data.record(self.data.subjects[1], 30.0, purpose="extra")
        self.warm_windows = [
            window_from_slot(
                {"ecg": DeliveredPacket(e, 0.0), "abp": DeliveredPacket(a, 0.0)}
            )
            for e, a in _packet_pairs(warm_record)
        ]
        if not native:
            # The first numpy calls of the in-process path.
            self.detector.decision_values(self.warm_windows)
            if self.gate is not None:
                for window in self.warm_windows:
                    self.gate.assess(window)

    def numpy_detector(self):
        """An independent numpy-platform copy (pickling drops the library)."""
        copy = pickle.loads(pickle.dumps(self.detector))
        copy.platform = "numpy"
        return copy


def _packet_pairs(record):
    ecg = BodySensor("ecg", "ecg", record).packets()
    abp = BodySensor("abp", "abp", record).packets()
    return list(zip(ecg, abp))


def _render(env: ServingEnv, seed: int, n_wearers: int, n_windows: int):
    """Per-wearer window lists, channel outcome included, from ``seed``."""
    duration = (n_windows + MAX_START_OFFSET + 1) * WINDOW_S
    pairs = [
        _packet_pairs(env.data.record(subject, duration, purpose="test"))
        for subject in env.data.subjects[:N_RECORDS]
    ]
    offsets = np.random.default_rng([seed, 2]).integers(0, MAX_START_OFFSET, n_wearers)
    wearers = []
    for i in range(n_wearers):
        channel = WirelessChannel(
            loss_probability=LOSS_PROBABILITY, seed=_channel_seed(seed, i)
        )
        source = pairs[i % N_RECORDS]
        windows = []
        for k in range(int(offsets[i]), int(offsets[i]) + n_windows):
            ecg, abp = source[k]
            windows.append(
                Window(_wearer_id(i), k, channel.transmit(ecg), channel.transmit(abp))
            )
        wearers.append(windows)
    return wearers


# -- correctness ----------------------------------------------------------


def _sequential_reference(detector, gate, windows: list[Window]):
    """What a per-wearer sequential numpy run makes of the same deliveries."""
    assembler = WindowAssembler(max_pending_lag=DEFAULT_MAX_PENDING_LAG)
    reference = StreamingDetector(detector, quality_gate=gate)
    expected = []
    for w in windows:
        for delivered in (w.ecg, w.abp):
            if delivered is None:
                continue
            completed = assembler.offer(delivered)
            if completed is None:
                continue
            sequence, slot = completed
            window = window_from_slot(slot, subject_id=w.wearer)
            if gate is not None and not gate.assess(window).usable:
                expected.append((sequence, True, None))
            else:
                expected.append((sequence, False, detector.decision_value(window)))
            reference.process_window(window)
    reference.finish()
    return expected, reference.episodes


def check_sample_parity(env: ServingEnv, wearers, observed) -> None:
    """``observed`` maps wearer -> (verdict list, session) from the gateway."""
    detector = env.numpy_detector()
    for i, windows in enumerate(wearers[:SAMPLE_WEARERS]):
        wearer = _wearer_id(i)
        expected, episodes = _sequential_reference(detector, env.gate, windows)
        verdicts, session = observed[wearer]
        if list(map(_verdict_tuple, verdicts)) != expected:
            raise BenchError(f"{wearer}: gateway verdicts differ from the sequential run")
        if session.episodes != episodes:
            raise BenchError(f"{wearer}: gateway episodes differ from the sequential run")


def check_quiescent(gateway: IngestionGateway) -> None:
    if gateway.active_sessions:
        raise BenchError(f"{gateway.active_sessions} sessions still live after shutdown")
    children = multiprocessing.active_children()
    if children:
        raise BenchError(f"{len(children)} child processes still alive")
    if leaked_segments():
        raise BenchError(f"leaked shared-memory segments: {leaked_segments()}")


# -- per-window marks and trace hooks --------------------------------------


@dataclass
class Marks:
    """Per-window timestamps the traced run collects at layer boundaries."""

    window_key: dict = field(default_factory=dict)  # id(window) -> key
    submit_return: dict = field(default_factory=dict)
    score_start: dict = field(default_factory=dict)
    score_end: dict = field(default_factory=dict)
    assembled: tuple | None = None
    queue_wait_s: list = field(default_factory=list)
    apply_s: list = field(default_factory=list)

    def on_verdict(self, key, now: float) -> None:
        end = self.score_end.pop(key, None)
        if end is not None:
            self.apply_s.append(now - end)
            self.queue_wait_s.append(
                self.score_start.pop(key) - self.submit_return.pop(key)
            )


def trace_serving(tracer: Tracer, backend, marks: Marks) -> None:
    """Wrap the public calls on a window's path through the gateway."""

    def assembled(args, result, start, end):
        if result is not None:
            key = (args[0].wearer_id, result[0])
            marks.window_key[id(result[2])] = key
            marks.assembled = key

    def submitted(args, result, start, end):
        if marks.assembled is not None:
            marks.submit_return[marks.assembled] = end
            marks.assembled = None

    def scored(args, result, start, end):
        for window in args[1]:
            key = marks.window_key.pop(id(window), None)
            if key is not None:
                marks.score_start[key] = start
                marks.score_end[key] = end

    def packet_key(args, result):
        return None if args[2] is None else (args[1], args[2].packet.sequence)

    tracer.wrap(
        WearerSession, "assemble", "wiot.assemble",
        key_of=lambda args, result: (args[0].wearer_id, args[1].packet.sequence),
        after=assembled,
    )
    def window_key(args, result):
        return marks.window_key.get(id(args[1]))

    def batch_keys(args, result):
        return tuple(marks.window_key.get(id(window)) for window in args[1])

    tracer.wrap(SignalQualityIndex, "assess", "sqi.assess", key_of=window_key)
    tracer.wrap(IngestionGateway, "submit", "gateway.submit", key_of=packet_key, after=submitted)
    # A batch span carries the keys of every window it scored.
    tracer.wrap(backend, "score", "score", key_of=batch_keys, after=scored)


# -- timed phases -------------------------------------------------------------


def _verdict_tuple(verdict):
    return (
        verdict.sequence,
        verdict.abstained,
        None if verdict.abstained else verdict.decision_value,
    )


@dataclass
class Phase:
    """What one timed phase measured; ``items`` are its timed items as
    ``(verdicts, wall_s, cpu_s, p50_s)`` -- one per 3 s cycle of the open
    loop, or one per closed-loop episode.  ``host_ms`` are the closed
    loop's host probe readings, one before each episode and one after the
    last."""

    items: list = field(default_factory=list)
    host_ms: list = field(default_factory=list)
    sent: int = 0
    verdicts: int = 0
    failed: int = 0
    incomplete: int = 0
    abstained: int = 0
    shed: int = 0
    batches: int = 0
    batched_windows: int = 0
    restarts: int = 0
    child_cpu_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    generator_late_s: list = field(default_factory=list)
    loop_lag_s: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    def add(self, stats, sent: int, failed: int, latencies) -> None:
        """Account one gateway's run; ``latencies`` are its timed verdicts'."""
        self.sent += sent
        self.verdicts += stats.verdicts
        self.failed += failed
        self.incomplete += stats.incomplete_windows
        self.abstained += stats.windows_abstained
        self.shed += stats.windows_shed
        self.batches += stats.batches
        self.batched_windows += stats.batched_windows
        self.latencies_s.extend(latencies)


def _conservation(stats, sent: int, vanished: int, plant: bool) -> None:
    """``verdicts+shed+incomplete+vanished==sent``; ``plant`` breaks it on
    purpose (the self-check's proof that the gate refuses)."""
    sent += 1 if plant else 0
    total = stats.verdicts + stats.windows_shed + stats.incomplete_windows + vanished
    if total != sent:
        raise BenchError(
            f"conservation broken: verdicts+shed+incomplete+vanished={total} != sent={sent}"
        )


async def _lag_probe(samples: list, stop: asyncio.Event) -> None:
    """The overshoot of a 1 ms sleeper on the gateway's loop."""
    while not stop.is_set():
        began = time.perf_counter()
        await asyncio.sleep(0.001)
        samples.append(time.perf_counter() - began - 0.001)


async def start_supervised(env, on_verdict):
    """Set-up's last steps: start the gateway and its scorer child, then
    score one warm-up batch through the child."""
    backend = SupervisedScoringBackend({env.key: env.detector})
    gateway = IngestionGateway(env.detector, backend=backend, on_verdict=on_verdict)
    gateway.start()
    warm = await asyncio.to_thread(backend.score, env.key, env.warm_windows)
    return gateway, backend, warm, time.perf_counter()


async def _setup_realtime(ctx) -> None:
    env = ServingEnv(native=True, gated=False)
    gateway, _, _, ready_at = await start_supervised(env, None)
    ctx.setup_done(ready_at)
    await gateway.shutdown()


def setup_only(ctx, workload: str) -> None:
    """Only the set-up of a serving workload (one ``setup_s`` sample)."""
    if workload == "realtime_native_supervised":
        asyncio.run(_setup_realtime(ctx))
    else:
        ServingEnv(native=False, gated=True)
        ctx.setup_done(time.perf_counter())


async def realtime_phase(env, wearers, offsets, warmup_s, tracer, marks, plant):
    """One open-loop stream through a freshly started supervised gateway.

    Windows due in the first ``warmup_s`` -- every wearer's first
    contact, which creates its session -- are served and checked but not
    timed.  Returns the phase and the warm-up batch's scores.
    """
    phase = Phase()
    events = sorted(
        (
            (offsets[i] + WINDOW_S * n, w)
            for i, windows in enumerate(wearers)
            for n, w in enumerate(windows)
        ),
        key=lambda event: event[0],
    )
    index = {(w.wearer, w.sequence): j for j, (_, w) in enumerate(events)}
    decided: list = [None] * len(events)
    sample = _sample(wearers)

    def on_verdict(verdict) -> None:
        now = time.perf_counter()
        k = (verdict.wearer_id, verdict.sequence)
        decided[index[k]] = now
        if verdict.wearer_id in sample:
            sample[verdict.wearer_id].append(verdict)
        if marks is not None:
            marks.on_verdict(k, now)

    gateway, backend, warm, _ = await start_supervised(env, on_verdict)
    sessions = {wearer: gateway.session(wearer) for wearer in sample}
    stop_lag = asyncio.Event()
    lag_task = None
    if tracer is not None:
        trace_serving(tracer, backend, marks)
        lag_task = asyncio.get_running_loop().create_task(
            _lag_probe(phase.loop_lag_s, stop_lag)
        )
    start = time.perf_counter() + 0.05
    # Timed items are the 3 s cycles after the warm-up cycle: the clocks
    # are read as the generator reaches each cycle's first due window, and
    # once more when the queue has drained.
    clocks = []

    def read_clocks() -> None:
        clocks.append(
            (time.perf_counter(), time.process_time(), process_cpu_s(backend.child_pid))
        )

    next_cycle = warmup_s
    try:
        for due, w in events:
            target = start + due
            await asyncio.sleep(max(0.0, target - time.perf_counter()))
            while due >= next_cycle:
                read_clocks()
                next_cycle += WINDOW_S
            phase.generator_late_s.append(time.perf_counter() - target)
            gateway.submit(w.wearer, w.ecg)
            gateway.submit(w.wearer, w.abp)
        await gateway.drain()
        read_clocks()
    finally:
        if tracer is not None:
            tracer.unwrap()
        stop_lag.set()
        if lag_task is not None:
            await lag_task
        await gateway.shutdown()
    stats = gateway.stats()
    sup = backend.stats()
    _conservation(stats, len(events), sum(w.vanished for _, w in events), plant)
    if sup.faults or sup.restarts or sup.windows_degraded or sup.windows_unscorable:
        raise BenchError(f"supervisor was not clean: {sup}")
    if backend.child_pid is not None:
        raise BenchError("scorer child not reaped")
    check_quiescent(gateway)
    no_verdict = sum(
        1 for j, (_, w) in enumerate(events) if w.complete and decided[j] is None
    )
    cycles = [[] for _ in clocks[1:]]
    for j, (due, _) in enumerate(events):
        if decided[j] is not None and due >= warmup_s:
            cycle = min(int((due - warmup_s) // WINDOW_S), len(cycles) - 1)
            cycles[cycle].append(decided[j] - (start + due))
    for latencies, began, ended in zip(cycles, clocks, clocks[1:]):
        cpu = ended[1] - began[1] + ended[2] - began[2]
        phase.items.append((len(latencies), ended[0] - began[0], cpu, median(latencies)))
    phase.child_cpu_s = clocks[-1][2] - clocks[0][2]
    phase.add(
        stats, len(events), no_verdict + stats.windows_unscorable, [x for c in cycles for x in c]
    )
    phase.restarts = sup.restarts
    phase.observed = {w: (sample[w], sessions[w]) for w in sample}
    return phase, warm


async def catchup_episode(env, wearers, tracer, marks, plant):
    """Drain every wearer's backlog, one window in flight each, through a
    fresh gateway; returns ``(stats, sent, failed, latencies, wall, cpu,
    observed)``."""
    sent_at: dict = {}
    waiters: dict = {}
    latencies: list = []
    sample = _sample(wearers)
    loop = asyncio.get_running_loop()
    no_verdict = 0

    def on_verdict(verdict) -> None:
        now = time.perf_counter()
        k = (verdict.wearer_id, verdict.sequence)
        latencies.append(now - sent_at.pop(k))
        if verdict.wearer_id in sample:
            sample[verdict.wearer_id].append(verdict)
        if marks is not None:
            marks.on_verdict(k, now)
        waiters.pop(k).set_result(None)

    async def drain_backlog(windows: list[Window]) -> None:
        nonlocal no_verdict
        for w in windows:
            k = (w.wearer, w.sequence)
            if w.complete:
                waiters[k] = loop.create_future()
                sent_at[k] = time.perf_counter()
            accepted = gateway.submit(w.wearer, w.ecg)
            accepted = gateway.submit(w.wearer, w.abp) and accepted
            if not w.complete:
                continue  # the channel left it incomplete: send the next at once
            if accepted:
                await waiters[k]
            else:
                del waiters[k], sent_at[k]
                no_verdict += 1

    began = time.perf_counter()
    cpu0 = time.process_time()
    backend = InProcessBackend({env.key: env.detector})
    gateway = IngestionGateway(
        env.detector, quality_gate=env.gate, backend=backend, on_verdict=on_verdict
    )
    sessions = {wearer: gateway.session(wearer) for wearer in sample}
    if tracer is not None:
        trace_serving(tracer, backend, marks)
    gateway.start()
    try:
        await asyncio.wait_for(
            asyncio.gather(*(drain_backlog(windows) for windows in wearers)),
            timeout=120.0,
        )
    finally:
        await gateway.shutdown()
        if tracer is not None:
            tracer.unwrap()
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - began
    stats = gateway.stats()
    sent = sum(len(windows) for windows in wearers)
    vanished = sum(w.vanished for windows in wearers for w in windows)
    _conservation(stats, sent, vanished, plant)
    check_quiescent(gateway)
    observed = {w: (sample[w], sessions[w]) for w in sample}
    failed = no_verdict + stats.windows_unscorable
    return stats, sent, failed, latencies, wall, cpu, observed


# -- the two workloads -------------------------------------------------------


def _render_frozen(env, seed, n_wearers, n_windows):
    """Pre-render the load."""
    wearers = _render(env, seed, n_wearers, n_windows)
    # The inputs live for the whole run: keep them out of the collector's
    # generations so they add no GC work to the program's measured time.
    gc.collect()
    gc.freeze()
    return wearers


def run_realtime(ctx) -> dict:
    n_wearers = ctx.size("wearers", 2048)
    env = ServingEnv(native=True, gated=False)
    if not env.native_active:
        raise BenchError(f"native scoring is not active: {env.detector.native_error}")
    phases, seconds = halves(ctx)
    # One untimed warm-up cycle precedes the timed seconds of each half.
    seconds += WINDOW_S
    n_windows = int(seconds // WINDOW_S) + 1
    offsets = np.random.default_rng([ctx.seed, 1]).uniform(0.0, WINDOW_S, n_wearers)
    wearers = _render_frozen(env, ctx.seed, n_wearers, n_windows)
    # Keep only the windows due before the phase ends: wearer i sends at
    # offsets[i] + 3 s * n.
    wearers = [
        windows[: max(0, math.ceil((seconds - offsets[i]) / WINDOW_S))]
        for i, windows in enumerate(wearers)
    ]
    results = {}
    for name, tracer in phases:
        marks = Marks() if tracer is not None else None
        probe_host(ctx.probe_ms)
        phase, warm = asyncio.run(
            realtime_phase(
                env, wearers, offsets, WINDOW_S, tracer, marks, ctx.plant == "conservation"
            )
        )
        probe_host(ctx.probe_ms)
        check_sample_parity(env, wearers, phase.observed)
        if not np.array_equal(warm, env.numpy_detector().decision_values(env.warm_windows)):
            raise BenchError("native batch is not bit-equal to numpy")
        results[name] = (phase, tracer, marks)
    return serving_metrics(results, supervised=True)


def run_catchup(ctx) -> dict:
    n_wearers = ctx.size("wearers", 256)
    backlog = ctx.size("backlog", CATCHUP_BACKLOG)
    max_episodes = ctx.size("items", 1_000_000)
    env = ServingEnv(native=False, gated=True)
    wearers = _render_frozen(env, ctx.seed, n_wearers, backlog)
    phases, seconds = halves(ctx)
    plant = ctx.plant == "conservation"
    results = {}
    for name, tracer in phases:
        marks = Marks() if tracer is not None else None
        phase = Phase()
        deadline = time.perf_counter() + seconds
        first = None
        phase.host_ms.append(probe_host(ctx.probe_ms))
        while not phase.items or (
            time.perf_counter() < deadline and len(phase.items) < max_episodes
        ):
            stats, sent, failed, latencies, wall, cpu, observed = asyncio.run(
                catchup_episode(env, wearers, tracer, marks, plant)
            )
            phase.host_ms.append(probe_host(ctx.probe_ms))
            phase.add(stats, sent, failed, latencies)
            phase.items.append((len(latencies), wall, cpu, median(latencies)))
            # Every episode replays the same inputs, so its sample wearers
            # must match the first episode's (checked against the
            # sequential run below).
            first = first or observed
            for wearer, (verdicts, session) in observed.items():
                ref_verdicts, ref_session = first[wearer]
                if list(map(_verdict_tuple, verdicts)) != list(
                    map(_verdict_tuple, ref_verdicts)
                ) or session.episodes != ref_session.episodes:
                    raise BenchError(f"{wearer}: two episodes of one run disagree")
        check_sample_parity(env, wearers, first)
        results[name] = (phase, tracer, marks)
    return serving_metrics(results, supervised=False)


def _item_metrics(phase: Phase) -> dict:
    """A phase's end-to-end timings from its timed items (windows/s only
    means something per item, so it comes from the same items).

    Closed-loop episodes are compute-bound: each is scaled to the
    reference host speed by the probes beside it, and the value is the
    median over episodes.  The open loop's cycles are set by the offered
    load and the batcher's linger deadline, not the host's speed: the
    value is their best decile, as measured.
    """
    if phase.host_ms:
        scales = [at_reference(a, b) for a, b in zip(phase.host_ms, phase.host_ms[1:])]
        pairs = list(zip(phase.items, scales))
        return {
            "p50_ms": median(item[3] * k for item, k in pairs) * 1e3,
            "cpu_ms_per_item": median(item[2] / item[0] * k for item, k in pairs) * 1e3,
            "windows_per_s": median(item[0] / item[1] / k for item, k in pairs),
        }
    return {
        "p50_ms": best_decile(item[3] for item in phase.items) * 1e3,
        "cpu_ms_per_item": best_decile(item[2] / item[0] for item in phase.items) * 1e3,
        "windows_per_s": best_decile(
            (item[0] / item[1] for item in phase.items), higher=True
        ),
    }


def serving_metrics(results, supervised: bool) -> dict:
    untraced = results["untraced"][0]
    out = {
        "attempted": sum(r[0].sent for r in results.values()),
        "failed": sum(r[0].failed for r in results.values()),
        "end_to_end": _item_metrics(untraced),
    }
    if "traced" not in results:
        return out
    traced, tracer, marks = results["traced"]
    assess = tracer.durations("sqi.assess")
    score = tracer.durations("score")
    scored = max(traced.batched_windows, 1)
    untraced_cpu = out["end_to_end"]["cpu_ms_per_item"]
    out["per_layer"] = {
        "wiot.assemble_us": mean(tracer.durations("wiot.assemble")) * 1e6,
        "wiot.incomplete_ratio": traced.incomplete / traced.sent,
        "sqi.assess_us": mean(assess) * 1e6,
        "sqi.assess_calls": len(assess),
        "sqi.abstain_ratio": traced.abstained / max(traced.verdicts, 1),
        "gateway.submit_us": mean(tracer.self_times("gateway.submit")) * 1e6,
        "gateway.queue_wait_ms": median(marks.queue_wait_s) * 1e3,
        "gateway.batch_windows": traced.batched_windows / max(traced.batches, 1),
        "gateway.loop_lag_p99_ms": percentile(traced.loop_lag_s, 99) * 1e3,
        "gateway.apply_us": median(marks.apply_s) * 1e6,
        "gateway.verdict_p99_ms": percentile(traced.latencies_s, 99) * 1e3,
        "gateway.verdict_count": len(traced.latencies_s),
        "gateway.shed": traced.shed,
        "score.us_per_window": sum(score) / scored * 1e6,
        "supervisor.score_call_ms": mean(score) * 1e3 if supervised else 0.0,
        "supervisor.child_cpu_us_per_window": (
            traced.child_cpu_s / scored * 1e6 if supervised else 0.0
        ),
        "supervisor.restarts": traced.restarts,
        "bench.gen_late_p99_ms": percentile(traced.generator_late_s, 99) * 1e3,
        "trace.overhead_pct": (
            _item_metrics(traced)["cpu_ms_per_item"] / untraced_cpu - 1.0
        ) * 100.0,
    }
    out["tracer"] = tracer
    return out
