"""Benchmark entry point; run it from the root of a checkout:

    python3 wiotbench/run.py --workload W --seed N --seconds S --trace 0|1

Prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  A run a correctness gate refuses reports no metrics and
exits 1; a directory without the program's sources exits 2 and prints
no result.  ``setup_s``, and every timing of the compute-bound
workloads, is reported at a reference host speed (``common.at_reference``).
``wiotbench/README.md`` describes the workloads.
"""

import time

#: Set-up is timed from here: before the interpreter has imported anything
#: of the program.
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import BenchError, at_reference, median, probe_host  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("realtime_native_supervised", "catchup_gated", "paper_tables")
#: Fresh-process set-ups per run; ``setup_s`` is the median of them, each
#: scaled to the reference host speed by the probes beside it.
SETUP_SAMPLES = 11
#: Sizes of the ``--toy`` self-check runs.
TOY_SIZES = {"wearers": 48, "backlog": 2, "items": 2}


class Context:
    """What a workload needs from the command line, and what it reports
    back about set-up and the host probe."""

    def __init__(self, args) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.plant = args.plant
        self.toy = args.toy
        self.probe_ms: list[float] = []
        self.setup_s: float | None = None

    def size(self, name: str, full: int) -> int:
        return TOY_SIZES[name] if self.toy else full

    def setup_done(self, ready_at: float) -> None:
        """Set-up ended at ``ready_at`` (a ``time.perf_counter()`` value)."""
        self.setup_s = ready_at - T0


def pin_to_one_core() -> None:
    """Run the program, its threads and its children on one core.

    Every workload is pinned.  The ROADMAP states serving capacity per
    core, and on a shared VM whose vCPUs slow down independently the pin
    keeps migrations and hypervisor delays in waking an idle second vCPU
    out of the timings: unpinned open-loop runs were bimodal, and
    interleaved pinned and unpinned runs of the other two workloads were
    faster and steadier pinned (see ``one_core`` in ``design.json``).
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-check hooks: toy sizes, and planted breaks the gates must refuse.
    parser.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--plant", choices=("conservation", "digest"), help=argparse.SUPPRESS
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_samples(workload: str, count: int) -> list[float]:
    """``count`` set-ups, each in a fresh interpreter, run one at a time,
    with the host probe run in this process between them; each is scaled
    to the reference host speed by the readings before and after it."""
    probe_ms: list[float] = []
    readings = [probe_host(probe_ms)]
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        readings.append(probe_host(probe_ms))
        setup_s = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        samples.append(setup_s * at_reference(readings[-2], readings[-1]))
    return samples


def run_workload(ctx: Context, workload: str) -> dict:
    if workload == "paper_tables":
        from tables import run_tables

        return run_tables(ctx)
    from serving import run_catchup, run_realtime

    return (run_realtime if workload == "realtime_native_supervised" else run_catchup)(ctx)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no program sources at {ROOT / 'src' / 'repro'}: "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    pin_to_one_core()
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    # The native scorer's compiled artifacts stay inside the checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(build_dir / "native")
    # So do byte-compiled modules, written even where the environment
    # turns that off, so that a set-up subprocess times the program's
    # imports rather than Python compiling them (a fresh checkout has no
    # bytecode, and the subprocesses inherit this).
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(build_dir / "pycache")
    sys.dont_write_bytecode = False
    sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    ctx = Context(args)
    if args.setup_only:
        if args.workload == "paper_tables":
            from tables import setup_only

            setup_only(ctx)
        else:
            from serving import setup_only

            setup_only(ctx, args.workload)
        print(json.dumps({"setup_s": ctx.setup_s}))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        raw = run_workload(ctx, args.workload)
    except BenchError as exc:
        print(f"correctness gate refused the run: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    probe = sorted(ctx.probe_ms)
    print(
        f"host.probe_ms median {median(probe):.4f} min {probe[0]:.4f} "
        f"max {probe[-1]:.4f} n {len(probe)}",
        file=sys.stderr,
    )
    if ctx.trace:
        tracer = raw["tracer"]
        tracer.dump(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json")
        # A layer the workload does not reach reads 0.
        values = {spec["name"]: 0.0 for spec in bench["per_layer"]}
        values.update(raw["per_layer"])
        values["host.probe_ms"] = median(probe)
        specs = bench["per_layer"]
    else:
        values = dict(
            raw["end_to_end"], setup_s=median(setup_samples(args.workload, SETUP_SAMPLES))
        )
        specs = bench["end_to_end"]
    unknown = set(values) - {spec["name"] for spec in specs}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {
        spec["name"]: {"value": float(values[spec["name"]]), "unit": spec["unit"]}
        for spec in specs
    }
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
