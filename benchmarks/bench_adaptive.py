"""Adaptive-security bench (paper Insight #4).

Profiles the three builds, then plays a full battery discharge under each
switching policy and compares lifetime against time-weighted detection
accuracy -- the trade-off curve the paper's envisioned decision engine
navigates.
"""

import numpy as np
import pytest

from repro.adaptive import (
    AccuracyFirstPolicy,
    DecisionEngine,
    LifetimeTargetPolicy,
    SocThresholdPolicy,
)
from repro.adaptive.policy import VersionProfile
from repro.attacks import AttackScenario, ReplacementAttack
from repro.core import SIFTDetector
from repro.core.versions import DetectorVersion
from repro.experiments.reporting import format_table
from repro.signals import SyntheticFantasia
from repro.sift_app import AmuletSIFTRunner

from conftest import run_once


@pytest.fixture(scope="module")
def candidates():
    data = SyntheticFantasia()
    victim = data.subjects[0]
    others = [s for s in data.subjects if s is not victim]
    train = data.training_record(victim, duration=360.0)
    donors = [data.record(s, 120.0, "train") for s in others[:3]]
    test = data.test_record(victim)
    stream = AttackScenario(
        ReplacementAttack([data.record(s, 120.0, "test") for s in others[3:6]])
    ).build(test, np.random.default_rng(42))

    out = {}
    for version in DetectorVersion:
        detector = SIFTDetector(version=version).fit(train, donors)
        runner = AmuletSIFTRunner(detector)
        result = runner.run_stream(stream)
        out[version] = VersionProfile(
            version=version,
            accuracy=result.report.accuracy,
            profile=runner.profile(period_s=3.0),
        )
    return out


def test_adaptive_policies(benchmark, candidates, save_result):
    policies = {
        "accuracy_first": AccuracyFirstPolicy(),
        "soc_threshold": SocThresholdPolicy(),
        "lifetime_target_30d": LifetimeTargetPolicy(),
    }

    def simulate_all():
        timelines = {}
        for name, policy in policies.items():
            engine = DecisionEngine(candidates, policy)
            timelines[name] = engine.simulate_deployment(
                step_h=6.0,
                hours_needed=30 * 24.0 if name.startswith("lifetime") else 0.0,
            )
        return timelines

    timelines = run_once(benchmark, simulate_all)

    rows = [
        [
            name,
            f"{t.lifetime_days:.1f}",
            f"{100 * t.time_weighted_accuracy:.2f}",
            str(t.n_switches),
            " -> ".join(v.value for v in t.versions_used()),
        ]
        for name, t in timelines.items()
    ]
    save_result(
        "adaptive_policies",
        format_table(
            ["policy", "lifetime_days", "avg_accuracy_%", "switches", "versions"],
            rows,
        ),
    )

    fixed = timelines["accuracy_first"]
    soc = timelines["soc_threshold"]
    target = timelines["lifetime_target_30d"]

    # Adaptive switching buys lifetime over the static best version...
    assert soc.lifetime_days > fixed.lifetime_days
    # ...at a bounded accuracy cost.
    assert soc.time_weighted_accuracy > fixed.time_weighted_accuracy - 0.06
    # The lifetime-target policy meets its 30-day mission.
    assert target.lifetime_days >= 29.0
    # Every policy keeps detection running until the battery dies.
    for timeline in timelines.values():
        assert timeline.points[-1].battery_soc > 0.0
        assert timeline.n_switches <= 4
