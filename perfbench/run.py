"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the checkout root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` adds a traced run and prints the per-layer metrics, writing
its spans to ``.perfbench_work/traces/``. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it are the human report: environment, every metric with its
unit, and a pass/fail verdict for each output check.

``--scale tiny`` shrinks every workload to seconds (the benchmark's own
tests use it); results at that scale are not comparable.

Exit codes: 0 with a result (even one with failed checks), 1 when a
workload raised, 2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench import metrics as declared  # noqa: E402


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*declared.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def _run_workload(args: argparse.Namespace, work) -> common.Result:
    if args.workload == "train":
        from perfbench import training

        run = training.run_train
    else:
        from perfbench import serving

        run = serving.run_serve
    return run(args.seed, args.seconds, bool(args.trace), args.scale, work)


def _report(args, result: common.Result, env: dict) -> dict:
    """Print the human report; return the final JSON object."""
    names = declared.PER_LAYER if args.trace else declared.END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  scale {args.scale}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, value in sorted(result.notes.items()):
        if isinstance(value, (int, float, str)):
            print(f"  note {key} = {value}")
    out = {}
    for name, unit in names:
        if name not in result.metrics:
            raise KeyError(f"workload {args.workload} did not report {name}")
        value, reported_unit = result.metrics[name]
        if reported_unit != unit:
            raise ValueError(f"{name}: unit {reported_unit!r} != declared {unit!r}")
        print(f"  {name:32s} {value:16.6f} {unit}")
        out[name] = {"value": value, "unit": unit}
    for name, passed in result.checks.items():
        print(f"  check {'PASS' if passed else 'FAIL'}  {name}")
    failed = result.failed + sum(not passed for passed in result.checks.values())
    attempted = result.attempted + len(result.checks)
    print(f"  fail_frac {failed}/{attempted} = {failed / max(attempted, 1):.4f}")
    print(f"  verdict {'PASS' if result.correct and not failed else 'FAIL'}")
    return {
        "correct": result.correct and result.failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so memory peaks stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in declared.WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            return completed.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str]) -> int:
    args = _parse(argv)
    try:
        common.add_source_to_path()
    except common.SourceMissing as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    work = common.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Keep every temporary file (ours and the package's) inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    try:
        env = common.environment()
        steal_before = common.steal_seconds()
        result = _run_workload(args, work)
        # Time other guests took from this host's CPUs during the run: a
        # run that reads slow with a high value met a busy host.
        result.notes["host.steal_s"] = common.steal_seconds() - steal_before
        if not args.trace:
            result.metric("peak_rss_mb", common.peak_rss_mb(), "MB")
        if result.recorder is not None:
            result.recorder.write(
                common.WORK_ROOT / "traces" / f"{args.workload}-{args.seed}.jsonl"
            )
        final = _report(args, result, env)
    except Exception:  # noqa: BLE001 - the boundary: report and fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
