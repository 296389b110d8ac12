"""The benchmark's own tests: the declaration, tiny runs of every workload,
the traced-versus-untraced identity of training, and the checks' teeth.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics
from perfbench.common import NOMINAL_REFERENCE_S, HostSpeed, quantile

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_declared_names_units_and_bounds_are_valid():
    document = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["command"][1] == "perfbench/run.py"
    assert len(json.dumps(document)) <= 64 * 1024
    assert 1 <= document["run_seconds"] <= 60
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in document[section]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    for entry in document["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in document["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in document["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_tiny_run_reports_every_metric_and_passes_its_checks(workload, trace):
    completed = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "4",
        "--trace", str(trace), "--scale", "tiny",
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [name for name, _ in declared]
    for name, unit in declared:
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(value)
        if not trace:
            assert value > 0, name  # end-to-end metrics are never 0
    assert "check PASS" in completed.stdout
    assert "check FAIL" not in completed.stdout


def test_traced_training_is_bit_identical_and_fully_attributed():
    from repro.core.engine.executors import SerialExecutor

    from perfbench import training

    train, _, _ = training.build_corpus(5, "tiny")
    config = training.train_config("tiny")
    plain_clock = training.StepClock()
    plain, _ = training.train_once(config, train, 5, SerialExecutor(), plain_clock)
    clock = training.StepClock()
    timed = training.TimedExecutor(SerialExecutor(), clock)
    traced, _ = training.train_once(config, train, 5, timed, clock)
    assert np.array_equal(plain.embeddings.matrix, traced.embeddings.matrix)
    assert training.ledger_records(plain, plain_clock) == training.ledger_records(
        traced, clock
    )
    entries, steps = training.ledger_records(traced, clock)
    assert len(entries) == len(steps) == config.max_steps
    pre, local, post = clock.breakdown()
    assert local > 0 and len(timed.calls) == len(clock.steps) == config.max_steps
    assert pre + local + post == pytest.approx(sum(clock.step_seconds()), rel=1e-9)


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = run_bench(
        "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())


def test_quantile_counts_failures_as_infinitely_slow():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert quantile([1.0, 2.0, math.inf, math.inf], 0.99) == math.inf
    assert quantile([1.0] * 99 + [math.inf], 0.5) == 1.0


def test_host_speed_scales_each_value_by_its_own_pass():
    speed = HostSpeed()
    speed.sample(3)
    assert len(speed.samples) == 3 and speed.spent >= sum(speed.samples)
    assert speed.seconds(2.0) == pytest.approx(2.0 * speed.factor)
    speed.samples = [NOMINAL_REFERENCE_S, 2 * NOMINAL_REFERENCE_S, NOMINAL_REFERENCE_S / 2]
    assert speed.paired([1.0, 1.0, 1.0]) == pytest.approx([1.0, 0.5, 2.0])
    assert speed.factor == pytest.approx(1.0)
    with pytest.raises(ValueError):
        speed.paired([1.0])


class _SilentService:
    """Admits every request and never answers one."""

    def submit_future(self, request):
        return concurrent.futures.Future()

    def record_request(self, status, latency_seconds):
        pass


def test_a_request_never_answered_stays_pending_and_fails_its_phase(monkeypatch):
    from perfbench import serving

    monkeypatch.setattr(serving, "ANSWER_TIMEOUT_S", 0.05)
    body = json.dumps({"v": 1, "recent": [1], "top_k": 10}).encode()
    phase = serving.run_phase(_SilentService(), [body], rate=100.0, seconds=0.05)
    assert phase.enqueued == len(phase.due) == phase.count("pending")
    assert phase.count("ok") + phase.count("shed") + phase.count("failed") == 0
    assert not phase.passed
