"""The ``train`` workload and its traced layers.

It trains Algorithm 1 through the public ``repro.train`` facade on
EXPERIMENTS.md's default synthetic scale with the paper's ``PLPConfig``
defaults and the ``fast`` kernel backend, serially and in memory, until the
privacy ledger stops it at epsilon = 2. The kernels (``local_train``) do
the work.

The traced run repeats that training with its layers timed. Then it runs
two legs that are not end-to-end workloads of their own:

- The sharded leg writes the same corpus with ``write_sharded_store``. It
  trains from disk through ``ShardedExecutor(max_workers=nproc)`` for
  ``SHARDED_STEPS`` steps and checks the result bit for bit against the
  serial executor. Its step time is bimodal on a 2-core host, because the
  OpenBLAS threads of both workers and the coordinator oversubscribe the
  cores. Across seeds its steps/s spread by about 25 %, beyond any bound
  the benchmark may set.
- The sweep leg (:mod:`perfbench.sweeping`) runs the paper-figure grids.

Per-layer numbers come from two wrappers passed in through the facade's
public arguments: :class:`TimedExecutor` (``executor=``) times every
``BucketExecutor.run_step`` call, and :class:`StepClock` (``observers=``)
marks each step's start and end.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import shutil
import time
from pathlib import Path
from statistics import median

import numpy as np

import repro
from repro import (
    CheckinDataset,
    PLPConfig,
    SyntheticConfig,
    compute_epsilon,
    generate_checkins,
    holdout_users_split,
    max_steps_for_budget,
    paper_preprocessing,
)
from repro.core.engine.executors import BucketExecutor, SerialExecutor, ShardedExecutor
from repro.data.store import write_sharded_store
from repro.observability import Observer
from repro.privacy.accountant.ledger import PrivacyLedger
from repro.privacy.accountant.rdp import compute_rdp_sampled_gaussian

from perfbench.common import HostSpeed, Result, SpanRecorder, nproc, quantile, timed
from perfbench.sweeping import sweep_leg

#: EXPERIMENTS.md's default synthetic scale (benchmarks/conftest.py "default").
FULL_SCALE = dict(
    num_users=4000,
    num_locations=500,
    num_clusters=20,
    mean_checkins_per_user=30.0,
    checkins_sigma=0.8,
)
#: A seconds-long scale for the benchmark's own tests.
TINY_SCALE = dict(
    num_users=300,
    num_locations=80,
    num_clusters=6,
    mean_checkins_per_user=20.0,
    checkins_sigma=0.8,
)
HOLDOUT_USERS = {"full": 100, "tiny": 30}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Steps of the traced run's sharded leg (a serial reference repeats them).
SHARDED_STEPS = {"full": 30, "tiny": 4}
#: Steps whose pickled spec/delta sizes the traced run measures.
BYTES_SAMPLE_STEPS = 8


def train_config(scale: str, max_steps: int | None = None) -> PLPConfig:
    """Paper defaults with the fast kernels; tiny runs cap their steps."""
    if scale == "tiny" and max_steps is None:
        max_steps = 6
    return PLPConfig(backend="fast", max_steps=max_steps)


# -- layer wrappers --------------------------------------------------------


class StepClock(Observer):
    """Marks each engine step's start and end, and the run_step inside it.

    It also keeps the run's privacy ledger, which the engine context
    exposes to observers.
    """

    def __init__(self) -> None:
        # Per step: [start, local_start, local_end, end, excluded], where
        # ``excluded`` is benchmark-side work done inside the step.
        self.steps: list[list[float]] = []
        self.engine_walls: list[float] = []
        self.ledger: PrivacyLedger | None = None

    def on_step_start(self, context, step: int) -> None:
        self.ledger = context.ledger
        self.steps.append([time.perf_counter(), math.nan, math.nan, math.nan, 0.0])

    def local(self, start: float, end: float) -> None:
        self.steps[-1][1:3] = [start, end]

    def exclude(self, seconds: float) -> None:
        self.steps[-1][4] += seconds

    def on_step_end(self, context, result) -> None:
        self.steps[-1][3] = time.perf_counter()
        self.engine_walls.append(result.wall_time_seconds)

    def engine_seconds(self) -> float:
        """The engine's own summed step wall time, less benchmark-side work."""
        return sum(self.engine_walls) - sum(step[4] for step in self.steps)

    def step_seconds(self) -> list[float]:
        return [end - start - excluded for start, _, _, end, excluded in self.steps]

    def breakdown(self) -> tuple[float, float, float]:
        """Summed (pre-local, local, post-local) seconds over all steps."""
        pre = local = post = 0.0
        for start, local_start, local_end, end, excluded in self.steps:
            if math.isnan(local_start):  # no run_step this step
                pre += end - start - excluded
                continue
            pre += local_start - start
            local += local_end - local_start
            post += end - local_end - excluded
        return pre, local, post


class SpeedProbe(Observer):
    """Runs one host-speed reference pass after each step, outside the
    step's timed window, so the host's speed is sampled while it trains."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed

    def on_step_end(self, context, result) -> None:
        self.speed.sample()


class TimedExecutor(BucketExecutor):
    """Delegates to a real executor and times each ``run_step``.

    For process executors it also pickles a sample of steps' specs, jobs
    and returned deltas, outside the timed window, to report the bytes
    each step ships.
    """

    def __init__(
        self, inner: BucketExecutor, clock: StepClock, shards: int = 0
    ) -> None:
        self.inner = inner
        self.clock = clock
        self.shards = shards  # 0 = in-process, nothing is shipped
        self.needs_materialized_pairs = inner.needs_materialized_pairs
        self.calls: list[float] = []
        self.bucket_seconds: list[float] = []
        self.spec_bytes: list[int] = []
        self.delta_bytes: list[int] = []

    def configure(self, source_spec) -> None:
        self.inner.configure(source_spec)

    def bind_observability(self, observability) -> None:
        self.inner.bind_observability(observability)

    def close(self) -> None:
        self.inner.close()

    def run_step(self, spec, jobs):
        start = time.perf_counter()
        updates = self.inner.run_step(spec, jobs)
        end = time.perf_counter()
        self.clock.local(start, end)
        self.calls.append(end - start)
        self.bucket_seconds.extend(u.wall_time_seconds for u in updates)
        if self.shards and jobs and len(self.spec_bytes) < BYTES_SAMPLE_STEPS:
            sized = time.perf_counter()
            shards = min(self.shards, len(jobs))
            self.spec_bytes.append(
                len(pickle.dumps(spec)) * shards + len(pickle.dumps(jobs))
            )
            self.delta_bytes.append(len(pickle.dumps(updates)))
            self.clock.exclude(time.perf_counter() - sized)
        return updates


# -- set-up ------------------------------------------------------------------


def build_corpus(seed: int, scale: str):
    """Generate, preprocess and split the synthetic corpus.

    Returns ``(train, holdout, generate_seconds)``; the last covers
    generation and preprocessing.
    """
    started = time.perf_counter()
    params = FULL_SCALE if scale == "full" else TINY_SCALE
    checkins = paper_preprocessing(
        generate_checkins(SyntheticConfig(**params), rng=seed)
    )
    generate_s = time.perf_counter() - started
    train, holdout = holdout_users_split(
        CheckinDataset(checkins), HOLDOUT_USERS[scale], rng=seed
    )
    return train, holdout, generate_s


def set_up(seed: int, scale: str):
    """Build the corpus ``SETUP_REPEATS`` times; keep the last one.

    Returns ``(train, holdout, total_seconds, generate_seconds)`` with one
    entry per repeat in each list.
    """
    totals, generates = [], []
    for _ in range(SETUP_REPEATS):
        (train, holdout, generate_s), total_s = timed(build_corpus, seed, scale)
        totals.append(total_s)
        generates.append(generate_s)
    return train, holdout, totals, generates


# -- measured phase ----------------------------------------------------------


def ledger_records(model, clock: StepClock) -> tuple[list, list]:
    """The run's ledger entries (step, C, sigma, q) and its per-step
    history records (loss, epsilon spent, users, buckets, norm), with the
    wall times left out."""
    entries = [dataclasses.astuple(entry) for entry in clock.ledger.entries]
    steps = [
        dataclasses.astuple(dataclasses.replace(record, wall_time_seconds=0.0))
        for record in model.history
    ]
    return entries, steps


def train_once(
    config, corpus, seed: int, executor: BucketExecutor, clock: StepClock, *observers
):
    """One ``repro.train`` call; returns ``(model, wall_seconds)``."""
    try:
        return timed(
            repro.train,
            config,
            corpus,
            rng=seed,
            executor=executor,
            observers=[clock, *observers],
        )
    finally:
        executor.close()


def _record_steps(recorder: SpanRecorder, clock: StepClock, leg: str) -> None:
    for step, (start, local_start, local_end, end, _) in enumerate(clock.steps, 1):
        recorder.add("engine.step", start, end, step=step, leg=leg)
        if not math.isnan(local_start):
            recorder.add("executor.run_step", local_start, local_end, step=step, leg=leg)


def _engine_metrics(result, recorder, clock, timed_executor, wall, untraced_wall) -> None:
    """Per-layer numbers of the traced serial leg."""
    pre, local, post = clock.breakdown()
    step_wall = sum(clock.step_seconds())
    result.metric("engine.local_train_s", local, "s")
    result.metric("engine.bucket_ms", median(timed_executor.bucket_seconds) * 1e3, "ms")
    result.metric("engine.pre_local_s", pre, "s")
    result.metric("engine.post_local_s", post, "s")
    result.metric("engine.steps", len(clock.steps), "count")
    result.metric("engine.buckets", len(timed_executor.bucket_seconds), "count")
    # Against the engine's own step clock: how much of it the three parts cover.
    result.metric("engine.coverage", (pre + local + post) / clock.engine_seconds(), "ratio")
    result.metric("train.pre_engine_s", wall - step_wall, "s")
    result.metric("trace.overhead_s", wall - untraced_wall, "s")
    _record_steps(recorder, clock, "serial")


def _sharded_leg(result, recorder, train, seed: int, scale: str, work: Path) -> None:
    """Write the store, train from it through ShardedExecutor, and check
    the result against the serial executor on the same corpus and steps."""
    workers = nproc()
    store = work / "store"
    with recorder.span("data.write_sharded_store") as span:
        write_sharded_store(store, train)
    result.metric("data.store_write_s", span.end - span.start, "s")
    config = train_config(scale, max_steps=SHARDED_STEPS[scale])
    clock = StepClock()
    timed_executor = TimedExecutor(
        ShardedExecutor(max_workers=workers), clock, shards=workers
    )
    with recorder.span("repro.train", executor="sharded", workers=workers):
        sharded, wall = train_once(config, str(store), seed, timed_executor, clock)
    # The reference reads the corpus from memory: the store round trip is
    # bit-exact, so any difference is the executor's.
    reference_clock = StepClock()
    reference, _ = train_once(config, train, seed, SerialExecutor(), reference_clock)
    shutil.rmtree(store, ignore_errors=True)
    result.work(2)
    sharded_records = ledger_records(sharded, clock)
    result.check(
        "sharded ledger and step records bit-identical to serial",
        len(sharded_records[0]) == config.max_steps
        and sharded_records == ledger_records(reference, reference_clock),
    )
    result.check(
        "sharded embeddings bit-identical to serial",
        np.array_equal(sharded.embeddings.matrix, reference.embeddings.matrix),
    )
    calls = timed_executor.calls
    result.metric("executor.first_step_s", calls[0], "s")
    result.metric("executor.step_ms", median(calls[1:]) * 1e3, "ms")
    result.metric(
        "executor.spec_bytes_per_step", median(timed_executor.spec_bytes), "bytes"
    )
    result.metric(
        "executor.delta_bytes_per_step", median(timed_executor.delta_bytes), "bytes"
    )
    result.notes["sharded.workers"] = workers
    result.notes["sharded.steps_per_s"] = len(clock.steps) / wall
    result.notes["sharded.pre_engine_s"] = wall - sum(clock.step_seconds())
    result.notes["sharded.engine.coverage"] = sum(clock.breakdown()) / clock.engine_seconds()
    _record_steps(recorder, clock, "sharded")


def _accountant_metrics(
    result: Result, config: PLPConfig, recorder: SpanRecorder, curves: dict
) -> None:
    """One curve at every distinct (q, sigma) of the traced run, summed;
    ``curves`` holds those the sweep leg already timed."""
    q, sigma = config.sampling_probability, config.noise_multiplier
    with recorder.span("accountant.curve", q=q, sigma=sigma) as span:
        compute_rdp_sampled_gaussian(q, sigma)
    curves = {**curves, (q, sigma): span.end - span.start}
    result.metric("accountant.curve_s", sum(curves.values()), "s")
    result.metric("accountant.curves", len(curves), "count")
    ledger = PrivacyLedger(delta=config.delta, sampling_probability=q)
    with recorder.span("accountant.preview") as span:
        ledger.preview_budget_spent(sigma)
    result.metric("accountant.preview_s", span.end - span.start, "s")


def run_train(seed: int, seconds: float, trace: bool, scale: str, work: Path) -> Result:
    """The ``train`` workload: serial, in memory, to the epsilon budget."""
    result = Result()
    train, holdout, totals, generates = set_up(seed, scale)
    config = train_config(scale)

    clock = StepClock()
    speed = HostSpeed()
    model, wall = train_once(
        config, train, seed, SerialExecutor(), clock, SpeedProbe(speed)
    )
    wall -= speed.spent
    result.work(1)
    steps = len(model.history)
    step_seconds = clock.step_seconds()
    # Reported at the baseline host's speed (HostSpeed); raw values are
    # notes. Each step is scaled by the pass right after it, the rest of
    # the call (before the engine, between steps) by the median pass, and
    # so is the set-up that ran just before: the host's speed holds for
    # minutes, and passes between set-ups tracked it worse.
    scaled_steps = speed.paired(step_seconds)
    scaled_wall = sum(scaled_steps) + speed.seconds(wall - sum(step_seconds))
    result.metric("setup_s", speed.seconds(median(totals)), "s")
    result.metric("rate_per_s", steps / scaled_wall, "1/s")
    result.metric("p50_ms", quantile(scaled_steps, 0.5) * 1e3, "ms")
    result.notes["p90_ms"] = quantile(scaled_steps, 0.9) * 1e3
    result.notes["raw.setup_s"] = median(totals)
    result.notes["raw.rate_per_s"] = steps / wall
    result.notes["raw.p50_ms"] = quantile(step_seconds, 0.5) * 1e3
    result.notes["raw.p90_ms"] = quantile(step_seconds, 0.9) * 1e3
    result.notes["host.train_speed_factor"] = speed.factor
    result.notes["steps"] = steps
    result.notes["train.time_to_budget_s"] = wall

    if config.max_steps is None:
        expected_steps = 1 + max_steps_for_budget(
            config.epsilon,
            config.delta,
            config.sampling_probability,
            config.noise_multiplier,
        )
        result.check("steps == max_steps_for_budget + 1", steps == expected_steps)
    else:
        result.check("steps == max_steps", steps == config.max_steps)
    expected_epsilon = compute_epsilon(
        config.sampling_probability, config.noise_multiplier, steps, config.delta
    )
    result.check(
        "ledger epsilon == compute_epsilon(steps)",
        math.isclose(model.privacy["epsilon"], expected_epsilon, rel_tol=1e-9),
    )

    evaluation, eval_s = timed(repro.evaluate, model, holdout)
    result.notes["train.hr_at_10"] = evaluation.hit_rate[10]

    if trace:
        recorder = SpanRecorder(f"train-{seed}")
        traced_clock = StepClock()
        timed_executor = TimedExecutor(SerialExecutor(), traced_clock)
        with recorder.span("repro.train", executor="serial"):
            traced_model, traced_wall = train_once(
                config, train, seed, timed_executor, traced_clock
            )
        result.work(1)
        result.check(
            "traced embeddings bit-identical to untraced",
            np.array_equal(traced_model.embeddings.matrix, model.embeddings.matrix),
        )
        _engine_metrics(result, recorder, traced_clock, timed_executor, traced_wall, wall)
        _sharded_leg(result, recorder, train, seed, scale, work)
        curves = sweep_leg(result, recorder, seed, scale, work / "sweep")
        _accountant_metrics(result, config, recorder, curves)
        result.metric("data.generate_s", median(generates), "s")
        result.metric("eval.s", eval_s, "s")
        result.metric("eval.hr_at_10", evaluation.hit_rate[10], "ratio")
        result.zero_layers("serving.")
        result.recorder = recorder
    return result
