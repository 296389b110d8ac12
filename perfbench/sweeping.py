"""The sweep leg of ``train``'s traced run: the six paper-figure grids.

Each pass runs every grid of ``repro.experiments.figures.figure_specs``
at smoke scale through ``run_sweep(workers=nproc)`` (what
``run_figures(scale="smoke", workers=nproc)`` does), with the benchmark
seed as the grids' root seed and the workload's data and split seeds. The
second pass, into a fresh directory, is a repeat whose ``aggregate.json``
files must match the first pass byte for byte.

Per run, the RDP accountant dominates: each run computes one
sampled-Gaussian curve at its (q, sigma). The leg times those curves
directly and reads ``train_seconds`` from the outcome files.

The sweep is not an end-to-end workload of its own. Its runs are
single-threaded, interpreter-bound accountant work on every core, and its
runs/s followed the shared host's speed. Over four sets of ten seeds the
set medians ranged from 1.11 to 1.41 runs/s, and the spread within one
set reached 0.19.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from statistics import median

from repro import PLPConfig
from repro.experiments.figures import figure_specs
from repro.experiments.sweep import expand_spec, run_sweep, validate_aggregate
from repro.privacy.accountant.rdp import compute_rdp_sampled_gaussian

from perfbench.common import Result, SpanRecorder, nproc

PASSES = 2
#: Grids per pass; the tiny scale runs a two-grid subset.
FIGURES = {"full": None, "tiny": 2}


def seeded_specs(seed: int, scale: str):
    """The smoke-scale figure grids with every seed taken from ``seed``."""
    specs = []
    for spec in figure_specs("smoke"):
        workload = dataclasses.replace(
            spec.workload, data_seed=seed, split_seed=seed
        )
        specs.append(dataclasses.replace(spec, seed=seed, workload=workload))
    return specs[: FIGURES[scale]]


def _read_outcomes(out_dir: Path) -> list[dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))["outcome"]
        for path in sorted((out_dir / "runs").glob("*.json"))
    ]


def _run_q_sigma(spec, parameters: dict) -> tuple[float, float]:
    config = PLPConfig(**{**dict(spec.base), **parameters})
    return config.sampling_probability, config.noise_multiplier


def sweep_leg(
    result: Result, recorder: SpanRecorder, seed: int, scale: str, work: Path
) -> dict[tuple[float, float], float]:
    """Run the grids ``PASSES`` times, check them, and report the sweep
    layer. Returns the seconds of one accountant curve at each distinct
    (q, sigma) the runs used."""
    workers = nproc()
    specs = seeded_specs(seed, scale)
    expanded = {spec.name: expand_spec(spec) for spec in specs}
    passes = []
    for index in range(PASSES):
        figures = []
        for spec in specs:
            with recorder.span("sweep.figure", figure=spec.name, repeat=index) as span:
                report = run_sweep(spec, work / f"pass{index}" / spec.name, workers=workers)
            figures.append((report, span.end - span.start))
        passes.append(figures)

    reports = [report for figures in passes for report, _ in figures]
    failed = sum(report.failed for report in reports)
    result.work(sum(report.total for report in reports), failed)
    result.check("sweep: zero failed runs", failed == 0)
    result.check(
        "sweep: every expanded run executed",
        all(report.executed == len(expanded[report.name]) for report in reports),
    )
    aggregates = [
        [Path(report.aggregate_path).read_bytes() for report, _ in figures]
        for figures in passes
    ]
    valid = True
    for payload in aggregates[0]:
        try:
            validate_aggregate(json.loads(payload))
        except Exception:  # noqa: BLE001 - any rejection fails the check
            valid = False
    result.check("sweep: validate_aggregate passes", valid)
    result.check(
        "sweep: aggregate.json identical across passes",
        all(other == aggregates[0] for other in aggregates[1:]),
    )

    train_seconds, hit_rates, pairs = [], [], []
    for spec in specs:
        for outcome in _read_outcomes(work / "pass0" / spec.name):
            train_seconds.append(outcome["train_seconds"])
            hit_rates.append(outcome["hit_rate"]["10"])
            pairs.append(_run_q_sigma(spec, outcome["parameters"]))
    curve_s = {}
    for q, sigma in sorted(set(pairs)):
        with recorder.span("accountant.curve", q=q, sigma=sigma) as span:
            compute_rdp_sampled_gaussian(q, sigma)
        curve_s[q, sigma] = span.end - span.start

    first_wall = sum(wall for _, wall in passes[0])
    result.metric("sweep.run_train_s", median(train_seconds), "s")
    result.metric(
        "sweep.orchestration_s", workers * first_wall - sum(train_seconds), "s"
    )
    result.metric(
        "sweep.accountant_share",
        sum(curve_s[pair] for pair in pairs) / sum(train_seconds),
        "ratio",
    )
    result.notes["sweep.runs_per_pass"] = len(train_seconds)
    result.notes["sweep.runs_per_s"] = len(train_seconds) / first_wall
    result.notes["sweep.mean_hr_at_10"] = sum(hit_rates) / len(hit_rates)
    return curve_s
