"""Run workloads repeatedly and show how steady each metric is.

    python3 wiotbench/steadiness.py [--runs 10] [--seconds 30] [--trace 0|1]
                                    [--first-seed 1] [WORKLOAD ...]

Each run is a fresh ``run.py`` process with its own seed.  For every
metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
between them as a share of the median, and the range -- next to the
same figures for the host-speed probe, so that host drift (the probe
moves too) can be told apart from program noise (only the metric
moves).  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("realtime_native_supervised", "catchup_gated", "paper_tables")


def one_run(workload: str, seed: int, seconds: float, trace: int):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    probe = next(
        line.split() for line in done.stderr.splitlines() if line.startswith("host.probe_ms")
    )
    return result, float(probe[2])


def describe(values: list[float]) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("nan")
    return (
        f"median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
        f"spread {spread:7.2%}  range {min(values):.5g}..{max(values):.5g}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    for workload in args.workloads:
        series: dict[str, list[float]] = {}
        probes = []
        for run in range(args.runs):
            result, probe = one_run(
                workload, args.first_seed + run, args.seconds, args.trace
            )
            probes.append(probe)
            for name, metric in result["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {args.first_seed + run}: "
                + " ".join(
                    f"{name}={metric['value']:.5g}"
                    for name, metric in result["metrics"].items()
                )
                + f" host.probe_ms={probe:.4g}",
                flush=True,
            )
        print(f"== {workload} ({args.runs} runs)")
        for name, values in series.items():
            print(f"  {name:36s} {describe(values)}")
        print(f"  {'host.probe_ms (per-run median)':36s} {describe(probes)}", flush=True)


if __name__ == "__main__":
    main()
