"""Shared plumbing of the benchmark: source discovery, environment record,
memory, statistics, spans, and the result object every workload returns.

Nothing here imports :mod:`repro`, so ``run.py`` can report a
missing source tree cleanly before any workload module is imported.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for corpora, stores, sweep outputs and traces. Listed in
#: the repository's ``.gitignore``; each run removes its own subdirectory.
WORK_ROOT = ROOT / ".perfbench_work"

#: Thread-count variables recorded (never set) with every result: the
#: sharded workload measures what the host's defaults do to BLAS workers.
_THREAD_ENV_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_")


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def add_source_to_path() -> Path:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises:
        SourceMissing: when ``src/repro/__init__.py`` does not exist.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return src


def nproc() -> int:
    """CPUs this process may run on; the cap on workers and connections."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def environment() -> dict:
    """Host facts recorded with every result."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # pragma: no cover - old numpy layouts
        pass
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(
            str(blas.get(key, "")) for key in ("name", "version")
        ).strip()
        or "unknown",
        "thread_env": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.startswith(_THREAD_ENV_PREFIXES)
        },
    }


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests since boot, summed over
    this host's CPUs (``steal`` in ``/proc/stat``); 0 where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):  # pragma: no cover - non-Linux
        return 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    if position == low or ordered[high] == ordered[low]:
        return ordered[low]
    if math.isinf(ordered[high]):  # failed requests count as infinitely slow
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


#: Seconds one :func:`reference_pass` took on the host the baseline was
#: measured on (README.md). Scaled times read as taken at that speed.
NOMINAL_REFERENCE_S = 0.0025


def reference_pass() -> float:
    """Seconds of one fixed pass of small-batch float32 SGD-like work.

    It does what the training kernels spend their time on, at the paper's
    batch shape (32 pairs, 16 negatives, 50 dimensions plus a bias): row
    gathers, small dot products, ``exp``, a sort and a scatter, driven from
    an interpreter loop. It lives here, not in the package, so no change to
    the package can speed it up. One pass takes about 2.5 ms.
    """
    rng = np.random.default_rng(0)
    table = rng.standard_normal((1000, 51)).astype(np.float32)
    started = time.perf_counter()
    for _ in range(60):
        rows = rng.integers(0, 1000, size=48)
        block = table.take(rows, 0)
        hidden, negatives = block[:32], block[32:]
        logits = negatives @ hidden.T
        np.exp(logits - logits.max(0), out=logits)
        logits /= logits.sum(0)
        update = logits.T @ negatives
        order = np.argsort(rows[:32], kind="stable")
        table[rows[:32][order]] += np.float32(1e-6) * update[order]
    return time.perf_counter() - started


class HostSpeed:
    """The host's speed, from :func:`reference_pass` run between units of work.

    On a shared host the same training run took from 47 to 68 ms per step
    within a few minutes, and its medians moved by up to 28 % between sets
    of runs an hour apart. A reference pass run right after each step slows
    down with it, so times of CPU-bound work are scaled by
    ``NOMINAL_REFERENCE_S / pass``: they read as taken at the baseline
    host's speed. :meth:`paired` scales each unit by the pass right after
    it; :meth:`seconds` uses the median pass. The passes'
    own time is kept apart, in ``spent``, for the caller to take out of its
    wall times.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, passes: int = 1) -> None:
        started = time.perf_counter()
        self.samples.extend(reference_pass() for _ in range(passes))
        self.spent += time.perf_counter() - started

    @property
    def factor(self) -> float:
        """Below 1 when the host runs slower than the baseline host."""
        ordered = sorted(self.samples)
        return NOMINAL_REFERENCE_S / ordered[len(ordered) // 2]

    def seconds(self, raw: float) -> float:
        return raw * self.factor

    def paired(self, raw: list[float]) -> list[float]:
        """Each of ``raw`` scaled by the pass sampled right after it; there
        must be exactly one pass per value."""
        if len(raw) != len(self.samples):
            raise ValueError(f"{len(raw)} values for {len(self.samples)} passes")
        return [
            value * NOMINAL_REFERENCE_S / sample
            for value, sample in zip(raw, self.samples)
        ]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)


class SpanRecorder:
    """In-memory spans (name, start, end, parent, run id), written at the end.

    Spans are recorded from the benchmark's own wrappers around calls into
    the package; nothing inside ``src/`` is instrumented.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id, attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record an already-timed interval under the current span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, parent, self.run_id, attrs))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "run_id": span.run_id,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )


@dataclass
class Result:
    """What one workload run returns to ``run.py``.

    ``attempted``/``failed`` count units of work (train calls, sweep runs,
    requests at the reference rate) plus output checks; a failed check
    counts as a failure.
    """

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)
    recorder: SpanRecorder | None = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, passed: bool) -> bool:
        self.checks[name] = bool(passed)
        return bool(passed)

    def zero_layers(self, *prefixes: str) -> None:
        """Report 0 for the declared per-layer metrics of layers this
        workload does not exercise (names starting with ``prefixes``)."""
        from perfbench.metrics import PER_LAYER

        for name, unit in PER_LAYER:
            if name.startswith(prefixes) and name not in self.metrics:
                self.metrics[name] = (0.0, unit)

    def work(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())
