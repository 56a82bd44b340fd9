"""Signal-quality assessment (SQI) for detection gating.

Wearable practice: classify signal *quality* before classifying signal
*content*, and withhold clinical decisions on garbage windows.  The
robustness study shows motion artifacts inflate SIFT's false-positive
rate; a quality gate converts those would-be false alarms into explicit
"window unusable" outcomes, which a safety UI treats differently from
"attack detected".

The index combines three cheap, libm-free checks per channel:

* **clipping/flatline** -- the fraction of samples pinned at the window
  extremes (saturated front end or disconnected lead);
* **burst energy** -- the ratio of the 98th-percentile to the median of
  the first-difference energy (motion bursts are impulsive; cardiac
  activity is rhythmic);
* **beat plausibility** -- the implied beat count against physiological
  bounds for the window length.

:meth:`SignalQualityIndex.assess` scores one window;
:meth:`SignalQualityIndex.assess_batch` scores many at once, stacking
same-length channel rows into ``(n, L)`` arrays so the clipping and
burst checks run as a handful of ``axis=1`` reductions.  Its reports
are bit-identical to ``assess`` window by window (a Hypothesis suite
pins this), and ``assess`` stays the single-window path and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.signals.dataset import SignalWindow

__all__ = ["QualityReport", "SignalQualityIndex", "assess_window"]

#: Physiological heart-rate bounds used by the beat-plausibility check.
_MIN_BPM, _MAX_BPM = 25.0, 220.0

#: Symmetric tolerance for float rounding on the [0, 1] score contract.
#: Scores within the epsilon of either boundary are clamped onto it;
#: only a genuinely out-of-range score raises.  (The old check tolerated
#: ``1.0 + 1e-9`` but crashed on ``-1e-12`` -- a numerically noisy SQI
#: component must never take down a live session.)
_SCORE_EPS = 1e-9


@dataclass(frozen=True)
class QualityReport:
    """Per-window quality verdict.

    ``sqi`` is in [0, 1]; 1.0 means all checks passed cleanly.  ``usable``
    applies the configured threshold.  Component scores are retained so a
    UI (or a test) can say *why* a window was rejected.
    """

    sqi: float
    usable: bool
    clipping_score: float
    burst_score: float
    beat_score: float

    def __post_init__(self) -> None:
        for name in ("sqi", "clipping_score", "burst_score", "beat_score"):
            value = float(getattr(self, name))
            if not -_SCORE_EPS <= value <= 1.0 + _SCORE_EPS:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
            object.__setattr__(self, name, min(1.0, max(0.0, value)))


class SignalQualityIndex:
    """Configurable quality assessor for ECG+ABP windows.

    Parameters
    ----------
    threshold:
        Minimum SQI for a window to count as usable.
    clipping_tolerance:
        Fraction of samples allowed at the window extremes before the
        clipping score starts dropping.
    burst_ratio_limit:
        First-difference energy 98th-percentile-to-median ratio above
        which the burst score reaches zero.
    """

    def __init__(
        self,
        threshold: float = 0.6,
        clipping_tolerance: float = 0.02,
        burst_ratio_limit: float = 400.0,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if clipping_tolerance < 0:
            raise ValueError("clipping_tolerance must be non-negative")
        if burst_ratio_limit <= 1.0:
            raise ValueError("burst_ratio_limit must exceed 1")
        self.threshold = float(threshold)
        self.clipping_tolerance = float(clipping_tolerance)
        self.burst_ratio_limit = float(burst_ratio_limit)

    # -- component checks ---------------------------------------------------

    def _clipping_score(self, signal: np.ndarray) -> float:
        low, high = float(np.min(signal)), float(np.max(signal))
        if high <= low:
            return 0.0  # flatline
        span = high - low
        pinned = np.mean(
            (signal <= low + 0.01 * span) | (signal >= high - 0.01 * span)
        )
        # A healthy oscillating signal touches its extremes rarely.
        excess = max(0.0, float(pinned) - self.clipping_tolerance)
        return float(np.clip(1.0 - excess / 0.25, 0.0, 1.0))

    def _burst_score(self, signal: np.ndarray) -> float:
        diff = np.diff(signal)
        energy = diff * diff
        median = float(np.median(energy))
        if median <= 0:
            return 0.0
        ratio = float(np.percentile(energy, 98)) / median
        if ratio <= self.burst_ratio_limit:
            return 1.0
        return float(
            np.clip(
                1.0
                - (ratio - self.burst_ratio_limit) / (4 * self.burst_ratio_limit),
                0.0,
                1.0,
            )
        )

    def _beat_score(self, window: SignalWindow) -> float:
        duration_min = window.duration / 60.0
        lower = _MIN_BPM * duration_min
        upper = _MAX_BPM * duration_min
        score = 1.0
        for peaks in (window.r_peaks, window.systolic_peaks):
            count = float(len(peaks))
            if count < lower:
                score = min(score, count / max(lower, 1e-9))
            elif count > upper:
                score = min(score, float(np.clip(2.0 - count / upper, 0.0, 1.0)))
        return float(score)

    # -- batched component checks ------------------------------------------
    #
    # Row-wise twins of the scalar checks above, over an (n, L) stack of
    # one channel's rows.  Every step mirrors its scalar counterpart
    # operation for operation -- the extremes widened exactly to float64,
    # the pinned thresholds rounded back to the row dtype (as NumPy does
    # when it compares a float32 array with a Python float), the same
    # median/percentile along ``axis=1`` -- so each row's score is the
    # scalar score bit for bit.

    def _clipping_scores(self, rows: np.ndarray) -> np.ndarray:
        low = rows.min(axis=1).astype(np.float64)
        high = rows.max(axis=1).astype(np.float64)
        span = high - low
        lower = (low + 0.01 * span).astype(rows.dtype)[:, None]
        upper = (high - 0.01 * span).astype(rows.dtype)[:, None]
        pinned = np.mean((rows <= lower) | (rows >= upper), axis=1)
        excess = np.maximum(0.0, pinned - self.clipping_tolerance)
        scores = np.clip(1.0 - excess / 0.25, 0.0, 1.0)
        return np.where(high <= low, 0.0, scores)  # flatline rows score 0

    def _burst_scores(self, rows: np.ndarray) -> np.ndarray:
        diff = np.diff(rows, axis=1)
        energy = diff * diff
        median = np.median(energy, axis=1).astype(np.float64)
        p98 = np.percentile(energy, 98, axis=1).astype(np.float64)
        limit = self.burst_ratio_limit
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = p98 / median
        scores = np.where(
            ratio <= limit,
            1.0,
            np.clip(1.0 - (ratio - limit) / (4 * limit), 0.0, 1.0),
        )
        return np.where(median <= 0, 0.0, scores)

    def _channel_scores(
        self, rows: list[np.ndarray]
    ) -> tuple[list[float], list[float]]:
        """Clipping and burst scores of one channel's rows, in order.

        Rows are stacked per (length, dtype) group, so a batch that mixes
        window lengths or sample types is scored exactly, group by group.
        """
        clipping = [0.0] * len(rows)
        burst = [0.0] * len(rows)
        groups: dict[tuple, list[int]] = {}
        for i, row in enumerate(rows):
            groups.setdefault((row.shape, row.dtype), []).append(i)
        for indexes in groups.values():
            stacked = np.stack([rows[i] for i in indexes])
            for i, c, b in zip(
                indexes,
                self._clipping_scores(stacked).tolist(),
                self._burst_scores(stacked).tolist(),
            ):
                clipping[i], burst[i] = c, b
        return clipping, burst

    # -- public API -----------------------------------------------------------

    def _report(self, clipping: float, burst: float, beats: float) -> QualityReport:
        sqi = min(clipping, burst, beats)
        return QualityReport(
            sqi=sqi,
            usable=sqi >= self.threshold,
            clipping_score=clipping,
            burst_score=burst,
            beat_score=beats,
        )

    def assess(self, window: SignalWindow) -> QualityReport:
        """Score one window; the SQI is the minimum of the channel checks.

        Using the minimum (not the mean) makes the gate conservative: one
        failed check is enough to withhold a clinical decision.
        """
        clipping = min(
            self._clipping_score(window.ecg), self._clipping_score(window.abp)
        )
        burst = min(self._burst_score(window.ecg), self._burst_score(window.abp))
        return self._report(clipping, burst, self._beat_score(window))

    def assess_batch(self, windows: Sequence[SignalWindow]) -> list[QualityReport]:
        """Score many windows at once; report ``i`` equals ``assess(windows[i])``.

        The clipping and burst checks run vectorised over each channel's
        stacked rows; the beat check stays per window (it only counts
        peaks).  The reports are bit-identical to the scalar path, so a
        caller may batch or not without changing a single verdict.  An
        empty batch returns ``[]``.
        """
        windows = list(windows)
        if not windows:
            return []
        ecg_clipping, ecg_burst = self._channel_scores([w.ecg for w in windows])
        abp_clipping, abp_burst = self._channel_scores([w.abp for w in windows])
        return [
            self._report(
                min(ecg_clipping[i], abp_clipping[i]),
                min(ecg_burst[i], abp_burst[i]),
                self._beat_score(window),
            )
            for i, window in enumerate(windows)
        ]


def assess_window(window: SignalWindow, threshold: float = 0.6) -> QualityReport:
    """One-shot convenience around :class:`SignalQualityIndex`."""
    return SignalQualityIndex(threshold=threshold).assess(window)
