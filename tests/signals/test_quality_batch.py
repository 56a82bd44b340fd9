"""Parity of the batched SQI gate with the scalar one.

``SignalQualityIndex.assess_batch`` must return, window for window, the
report ``assess`` returns -- every field bit for bit -- because the
gateway assesses whole micro-batches while the sequential reference
(``StreamingDetector``) assesses one window at a time.  The windows
below are built to reach every branch of the three checks: flatlines
(``high <= low``), rows pinned at their extremes, constant stretches
(zero median difference energy), impulsive bursts above
``burst_ratio_limit``, and beat counts below and above the bpm bounds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signals.dataset import SignalWindow
from repro.signals.quality import QualityReport, SignalQualityIndex

#: Window lengths; every window lasts 3 s, so the bpm bounds allow
#: 1.25 to 11 beats whatever the length.
LENGTHS = (60, 61, 240, 1080)
DURATION_S = 3.0
FIELDS = ("sqi", "clipping_score", "burst_score", "beat_score")
KINDS = ("noise", "sine", "flatline", "pinned", "stretches", "burst", "edges", "raw")


def _channel(kind: str, n: int, rng: np.random.Generator, raw) -> np.ndarray:
    t = np.arange(n)
    if kind == "noise":
        x = rng.standard_normal(n) * rng.uniform(0.01, 100.0)
    elif kind == "sine":
        x = np.sin(2 * np.pi * t * rng.uniform(1.0, 8.0) / n) + 0.01 * rng.standard_normal(n)
    elif kind == "flatline":
        x = np.full(n, rng.uniform(-200.0, 200.0))
    elif kind == "pinned":
        # Square wave: almost every sample sits at one extreme or the other.
        x = np.where((t // rng.integers(1, 20)) % 2 == 0, 1.0, -1.0)
        x[rng.integers(0, n)] = 0.0
    elif kind == "stretches":
        # Mostly constant runs: most first differences are exactly zero.
        runs = rng.integers(n // 4, n)
        x = np.repeat(rng.standard_normal(-(-n // runs)), runs)[:n]
    elif kind == "burst":
        # A rhythmic baseline plus one impulsive motion burst.
        x = np.sin(2 * np.pi * t * 3 / n)
        start = rng.integers(0, n - 4)
        x[start : start + 4] += rng.uniform(1e2, 1e4) * rng.standard_normal(4)
    elif kind == "edges":
        # Samples on and next to the pinned thresholds as float32 rounds
        # them: the comparison must happen in the row's dtype.
        x = rng.standard_normal(n).astype(np.float32)
        low, high = float(x.min()), float(x.max())
        span = high - low
        marks = []
        for threshold in (low + 0.01 * span, high - 0.01 * span):
            t = np.float32(threshold)
            marks += [t, np.nextafter(t, np.float32(np.inf)), np.nextafter(t, np.float32(-np.inf))]
        x[rng.choice(np.arange(1, n - 1), size=6, replace=False)] = marks
        x[0], x[-1] = low, high  # keep the extremes (and so the thresholds)
    else:  # "raw": arbitrary finite float32 samples from Hypothesis
        x = np.resize(np.asarray(raw, dtype=np.float32), n)
    return np.asarray(x, dtype=np.float32)


@st.composite
def windows(draw, length=None):
    n = draw(st.sampled_from(LENGTHS)) if length is None else length
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = draw(
        st.lists(
            st.floats(-1e4, 1e4, width=32, allow_subnormal=True),
            min_size=1,
            max_size=16,
        )
    )
    ecg = _channel(draw(st.sampled_from(KINDS)), n, rng, raw)
    abp = _channel(draw(st.sampled_from(KINDS)), n, rng, raw)
    # 0..14 peaks straddles both bounds (1.25 and 11 beats per 3 s).
    r_count = draw(st.integers(0, 14))
    s_count = draw(st.integers(0, 14))
    return SignalWindow(
        ecg=ecg,
        abp=abp,
        r_peaks=np.sort(rng.choice(n, size=r_count, replace=False)).astype(np.intp),
        systolic_peaks=np.sort(rng.choice(n, size=s_count, replace=False)).astype(
            np.intp
        ),
        sample_rate=n / DURATION_S,
    )


gates = st.builds(
    SignalQualityIndex,
    threshold=st.sampled_from([0.6, 0.3, 1.0]),
    clipping_tolerance=st.sampled_from([0.02, 0.0, 0.5]),
    burst_ratio_limit=st.sampled_from([400.0, 1.5, 50.0]),
)


def _bits(report: QualityReport) -> tuple:
    return (report.usable, *(getattr(report, f).hex() for f in FIELDS))


def _assert_parity(gate: SignalQualityIndex, batch: list[SignalWindow]) -> None:
    got = gate.assess_batch(batch)
    expected = [gate.assess(w) for w in batch]
    assert len(got) == len(expected)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert _bits(g) == _bits(e), f"window {i}: {g} != {e}"


class TestAssessBatchParity:
    @settings(max_examples=150, deadline=None)
    @given(gate=gates, data=st.data())
    def test_same_length_batch_matches_scalar(self, gate, data):
        n = data.draw(st.sampled_from(LENGTHS))
        batch = data.draw(st.lists(windows(length=n), min_size=1, max_size=32))
        _assert_parity(gate, batch)

    @settings(max_examples=60, deadline=None)
    @given(gate=gates, batch=st.lists(windows(), min_size=1, max_size=32))
    def test_mixed_length_batch_matches_scalar(self, gate, batch):
        _assert_parity(gate, batch)

    def test_thresholds_compare_in_the_row_dtype(self):
        """float32(0.07) rounds *up*: the sample at it is pinned when the
        threshold is compared as float32 (what ``assess`` does) and not
        when compared as float64."""
        ecg = np.linspace(1.0, 6.0, 100, dtype=np.float32)
        ecg[0], ecg[1] = 0.0, 7.0  # low=0, high=7: threshold 0.07
        ecg[2:6] = np.float32(0.07)
        assert float(np.float32(0.07)) > 0.07
        window = SignalWindow(
            ecg=ecg,
            abp=ecg.copy(),
            r_peaks=np.array([10, 60], dtype=np.intp),
            systolic_peaks=np.array([20, 70], dtype=np.intp),
            sample_rate=100 / DURATION_S,
        )
        _assert_parity(SignalQualityIndex(clipping_tolerance=0.0), [window, window])

    def test_empty_batch(self):
        assert SignalQualityIndex().assess_batch([]) == []

    def test_mixed_dtypes_match_scalar(self):
        """Rows of different sample types are stacked separately, so a
        float64 window is not rounded through a float32 neighbour."""
        rng = np.random.default_rng(4)
        batch = [
            SignalWindow(
                ecg=rng.standard_normal(240).astype(dtype),
                abp=rng.standard_normal(240).astype(dtype),
                r_peaks=np.array([30, 110, 190], dtype=np.intp),
                systolic_peaks=np.array([50, 130, 210], dtype=np.intp),
                sample_rate=80.0,
            )
            for dtype in (np.float32, np.float64, np.float32)
        ]
        _assert_parity(SignalQualityIndex(), batch)

    def test_every_branch_is_reached(self):
        """The strategies are only worth their examples if they hit each
        branch: flatline, pinned, zero-median, burst, and both bpm bounds."""
        gate = SignalQualityIndex()
        rng = np.random.default_rng(0)
        n = 240

        def window(ecg_kind, r_count=4):
            return SignalWindow(
                ecg=_channel(ecg_kind, n, rng, [0.0]),
                abp=_channel("sine", n, rng, [0.0]),
                r_peaks=np.arange(r_count, dtype=np.intp) * 10,
                systolic_peaks=np.arange(4, dtype=np.intp) * 10 + 5,
                sample_rate=n / DURATION_S,
            )

        flat, pinned, stretches, burst, few, many = gate.assess_batch(
            [
                window("flatline"),
                window("pinned"),
                window("stretches"),
                window("burst"),
                window("sine", r_count=0),
                window("sine", r_count=14),
            ]
        )
        assert flat.clipping_score == 0.0  # high <= low
        assert 0.0 <= pinned.clipping_score < 1.0
        assert stretches.burst_score == 0.0  # median energy is zero
        assert burst.burst_score < 1.0
        assert few.beat_score == 0.0
        assert 0.0 <= many.beat_score < 1.0
        assert not math.isnan(many.sqi)
