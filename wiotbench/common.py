"""Shared pieces of the benchmark: host probe, statistics, CPU clocks, tracer.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has checked that the sources are present.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import statistics
import threading
import time
from pathlib import Path

import numpy as np

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- host-speed probe ---------------------------------------------------


_PROBE_A = np.random.default_rng(0).standard_normal((64, 256))
_PROBE_B = np.random.default_rng(1).standard_normal((256, 64))


def _probe_kernel() -> float:
    """Small-array numpy work like the workloads' feature and SVM code:
    the host's fast and slow states slow it about as much as they slow
    the workloads, which a pure-Python loop underrates (see
    ``reference_speed`` in ``design.json``)."""
    total = 0.0
    for _ in range(10):
        product = np.einsum("ij,jk->ik", _PROBE_A, _PROBE_B)
        total += float(np.diff(np.sort(_PROBE_A, axis=1)).sum() + product.sum())
    return total


#: The probe's reading (ms) on the host the benchmark was built on, a
#: 2-vCPU Intel Xeon VM, in a fast spell: compute-bound timings are
#: reported as they would read on a host whose probe reads this.
REFERENCE_PROBE_MS = 4.0


def probe_host(samples: list[float], repeats: int = 3) -> float:
    """Time a fixed kernel ``repeats`` times (ms each), add the times to
    ``samples`` and return their median: the host's speed now.

    Call it only while the program under test is quiescent -- no gateway
    task, no scorer child alive -- so the probe measures the host, not
    contention with the program.
    """
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        _probe_kernel()
        times.append((time.perf_counter() - began) * 1e3)
    samples.extend(times)
    return float(statistics.median(times))


def at_reference(before_ms: float, after_ms: float) -> float:
    """What turns a compute-bound time taken between two probe readings
    into the time on a host whose probe reads ``REFERENCE_PROBE_MS``
    (multiply by it).

    The shared host switches between a fast and a slow state every second
    or so, for minutes at a time (see ``reference_speed`` in
    ``design.json``); a short item mostly falls in one state, and the
    probes beside it read that state.  The probe is the benchmark's own
    code, so a change to the program moves the scaled time, not the probe.
    """
    return REFERENCE_PROBE_MS / ((before_ms + after_ms) / 2)


# -- CPU clocks -----------------------------------------------------------


def cpu_now() -> float:
    """CPU seconds of this process (all threads) plus reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live child has used so far (from ``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


# -- statistics -------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def best_decile(values, higher: bool = False) -> float:
    """The value a tenth of the way in from the best end (nearest rank):
    the best of up to ten items, the second best of 11 to 20, and so on.

    The open-loop workload's end-to-end value is this over its 3 s
    cycles: every cycle does the same work, so cycles differ only by what
    the host did meanwhile, and the ones it left alone are the steadiest
    measure of the program.
    """
    ordered = sorted(values, reverse=higher)
    return float(ordered[-(-len(ordered) // 10) - 1]) if ordered else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# -- tracing ----------------------------------------------------------------


_MISSING = object()


class Tracer:
    """Timed regions around public calls, kept in memory until the end.

    :meth:`wrap` replaces an attribute (a class method, a module
    function, or an instance's bound method) with a wrapper that records
    a span ``(name, start, end, parent, key)``; :meth:`unwrap` restores
    every original.  ``parent`` is the id of the enclosing span on the
    same thread (-1 at top level); ``key`` identifies the window a span
    belongs to, ``(wearer, sequence)``, when the call has one (a batch
    span holds the keys of all its windows).
    """

    def __init__(self) -> None:
        self.spans: dict[int, tuple] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, key_of=None, after=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``key_of(args, result)`` names the span's window; ``after(args,
        result, start, end)`` runs once the span is recorded.
        """
        original = getattr(owner, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            key = key_of(args, result) if key_of is not None else None
            spans[span_id] = (name, start, end, parent, key)
            if after is not None:
                after(args, result, start, end)
            return result

        vars_of = getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, vars_of.get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def record(self, name: str, start: float, end: float, key=None) -> None:
        """Add a span the benchmark timed itself."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans[next(self._ids)] = (name, start, end, parent, key)

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every span called ``name``."""
        return [s[2] - s[1] for s in self.spans.values() if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        """Span duration minus the time its child spans cover.

        Children of one span run on its thread, one after another, so
        the covered time is the sum of their durations.
        """
        covered: dict[int, float] = {}
        for span in self.spans.values():
            if span[3] >= 0:
                covered[span[3]] = covered.get(span[3], 0.0) + span[2] - span[1]
        return [
            s[2] - s[1] - covered.get(span_id, 0.0)
            for span_id, s in self.spans.items()
            if s[0] == name
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [span_id, name, start, end, parent, list(key) if key else None]
            for span_id, (name, start, end, parent, key) in sorted(
                self.spans.items()
            )
        ]
        path.write_text(
            json.dumps(
                {"columns": ["id", "name", "start", "end", "parent", "key"], "spans": rows}
            )
        )


def halves(ctx) -> tuple[list, float]:
    """The phases of a run and the seconds each gets: untraced always, and
    a traced one after it when tracing, splitting the run's seconds."""
    phases = [("untraced", None)] + ([("traced", Tracer())] if ctx.trace else [])
    return phases, ctx.seconds / len(phases)


class BenchError(RuntimeError):
    """A correctness gate refused the run."""
