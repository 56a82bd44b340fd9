"""Toy-size self-check of the benchmark itself.

    python3 wiotbench/selfcheck.py

Run from the root of a checkout.  It checks that:

* every workload runs at toy size, traced and untraced, passes its
  gates and reports exactly the metrics ``BENCHMARK.json`` names;
* the traced runs reach the layers they should (the SQI gate has zero
  calls on the real-time workload, ...) and report ``trace.overhead_pct``;
* a planted conservation break and a planted digest mismatch are both
  refused: exit 1, ``correct`` false, no metrics;
* a directory holding only ``BENCHMARK.json`` and ``wiotbench/`` fails
  cleanly, without printing a result;
* ``wiotbench/design.json`` documents every workload and per-layer metric.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
TOY_SECONDS = {"realtime_native_supervised": 6, "catchup_gated": 2, "paper_tables": 1}


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    seconds = TOY_SECONDS[workload] * (2 if trace else 1)
    done = subprocess.run(
        [
            sys.executable, str(cwd / "wiotbench" / "run.py"),
            "--workload", workload, "--seed", "7",
            "--seconds", str(seconds), "--trace", str(trace), "--toy", *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done.stderr


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok   {message}", flush=True)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    design = json.loads((HERE / "design.json").read_text())
    check(sorted(design["workloads"]) == sorted(workloads), "design.json covers every workload")
    check(
        sorted(design["per_layer"]) == sorted(m["name"] for m in spec["per_layer"]),
        "design.json covers every per-layer metric",
    )

    per_layer = {}
    for workload in workloads:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, stderr = bench(workload, trace)
            check(
                rc == 0 and result is not None and result["correct"],
                f"{workload} trace={trace} passes its gates" + ("" if rc == 0 else f"\n{stderr}"),
            )
            check(
                sorted(result["metrics"]) == sorted(m["name"] for m in spec[kind]),
                f"{workload} trace={trace} reports every {kind} metric",
            )
            check(
                result["attempted"] >= 1 and result["failed"] == 0,
                f"{workload} trace={trace} attempted {result['attempted']}, none failed",
            )
            if trace:
                per_layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            else:
                check(
                    all(v["value"] > 0 for v in result["metrics"].values()),
                    f"{workload} end-to-end metrics are all non-zero",
                )

    realtime = per_layer["realtime_native_supervised"]
    catchup = per_layer["catchup_gated"]
    tables = per_layer["paper_tables"]
    check(realtime["sqi.assess_calls"] == 0, "the SQI gate does no work on the real-time workload")
    check(catchup["sqi.assess_calls"] > 0, "the SQI gate runs on the catch-up workload")
    check(
        realtime["supervisor.child_cpu_us_per_window"] > 0
        and realtime["score.us_per_window"] > 0
        and realtime["gateway.queue_wait_ms"] > 0,
        "the real-time trace reaches scoring, the supervisor and the queue",
    )
    check(
        tables["runner.subject_ms"] > 0 and tables["ml.svm_fit_ms"] > 0
        and tables["cache.hit_ratio"] > 0,
        "the tables trace reaches the runner, the SVM and the cache",
    )

    for workload in ("realtime_native_supervised", "catchup_gated"):
        rc, result, _ = bench(workload, 0, "--plant", "conservation")
        check(
            rc == 1 and result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}},
            f"{workload}: a planted conservation break is refused",
        )
    rc, result, _ = bench("paper_tables", 0, "--plant", "digest")
    check(
        rc == 1 and result is not None and not result["correct"] and not result["metrics"],
        "paper_tables: a planted digest mismatch is refused",
    )

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "wiotbench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, result, stderr = bench("catchup_gated", 0, cwd=bare)
        check(
            rc not in (0, None) and result is None and stderr.strip() != "",
            "a checkout without sources fails cleanly without printing a result",
        )
    print("self-check passed")


if __name__ == "__main__":
    main()
