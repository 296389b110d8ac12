"""The ``serve`` workload: an open loop of wire-v1 requests at fixed rates.

Before set-up, the run builds its inputs from the seed the way
``repro.bench.measure_serving`` does: a synthetic corpus with the paper's
5,069 POIs, a short private training run through ``repro.train`` for the
artifact, and one request body per held-out session
(``repro.sessionize_dataset``), whose ``recent`` list is the session's
visits but the last. The artifact is saved with the inputs. Set-up
starts ``RecommendService.from_config(ServingConfig(...))`` over it with
its defaults (exact top-k, ``fast`` float32 kernel) and warms it with one
request.

One asyncio thread plays independent users: at each request's due time it
decodes the JSON body with ``RecommendRequest.from_dict`` and enqueues it
with ``submit_future`` -- the calls the asyncio front end makes -- without
waiting for earlier answers. Latency runs from the due time to the
future's completion, so a stalled generator or a growing queue shows.

- Warm-up: one discarded phase at the reference rate.
- Reference phases: ``REFERENCE_PHASES`` phases at ``REFERENCE_RPS``, well
  under capacity, one before the capacity search and one after each of its
  probes; p50, p90 and p99 are the medians of the phases' values.
- Capacity search: a geometric ladder of fixed rates up to the first
  failing one, then an up/down staircase around it. The staircase's step
  starts at the ladder's and shrinks by a square root at each reversal,
  down to ``STAIRCASE_FACTOR``. A rate passes when
  p99 <= ``LATENCY_LIMIT_S`` with shed and failed requests counted as
  missing it, the last quarter of requests is not slower than the first by
  more than ``BACKLOG_GROWTH_S`` (no growing backlog), and the generator's
  p99 lateness stays under ``GENERATOR_LATE_LIMIT_S`` (it kept to
  schedule). The capacity is the geometric mean, over the staircase's
  passing probes from its first reversal on, of the rate each one served
  (answers over the span from its first due time to its last answer): on a
  shared host a single rate passes or fails by chance near the knee, and
  the staircase averages that out.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import repro
from repro import (
    CheckinDataset,
    PLPConfig,
    SyntheticConfig,
    generate_checkins,
    holdout_users_split,
    paper_preprocessing,
    sessionize_dataset,
)
from repro.exceptions import OverloadedError, ReproError
from repro.serving.api import RecommendRequest, ServingConfig
from repro.serving.asgi import BackgroundServer
from repro.serving.service import RecommendService

from perfbench.common import HostSpeed, Result, SpanRecorder, nproc, quantile, timed

#: EXPERIMENTS.md's default user count and activity with the paper's 5,069
#: POIs; about 5,000 survive preprocessing into the artifact's vocabulary.
CORPUS = {
    "full": dict(
        num_users=4000,
        num_locations=5069,
        num_clusters=40,
        mean_checkins_per_user=30.0,
        checkins_sigma=0.8,
    ),
    "tiny": dict(
        num_users=300,
        num_locations=300,
        num_clusters=6,
        mean_checkins_per_user=20.0,
        checkins_sigma=0.8,
    ),
}
#: Held-out users whose sessions become the request bodies (about 2,700
#: bodies of 1 to about 15 recent POIs, median 3, at full scale).
HOLDOUT_USERS = {"full": 400, "tiny": 60}
#: Algorithm 1 steps behind the artifact. Exact top-k scans every POI, so
#: serving cost does not depend on how far the model was trained.
ARTIFACT_STEPS = 2
SETUP_REPEATS = 15
#: Host-speed reference passes after each measured phase; ``setup_s`` is
#: scaled by their median (HostSpeed).
PHASE_PASSES = 4

LATENCY_LIMIT_S = 0.050
BACKLOG_GROWTH_S = 0.010
GENERATOR_LATE_LIMIT_S = 0.020
REFERENCE_RPS = 1000.0
#: Traffic before measuring: the host is busy for about a second after set-up.
WARMUP_S = 1.5
#: Reference phases of 1,000 requests each, so each p99 has 10 beyond it.
REFERENCE_PHASES = 11
REFERENCE_PHASE_S = 1.0
LADDER_START_RPS = 1000.0
LADDER_FACTOR = 1.5
#: The staircase starts with ladder-sized steps and takes the square root
#: of its step at each reversal, down to this one.
STAIRCASE_FACTOR = 1.05
STAIRCASE_PROBES = 10
#: Probes a capacity search is sized for (ladder, retries and staircase);
#: they share the part of ``--seconds`` left after warm-up and reference.
EXPECTED_PROBES = 17
#: Served answers compared against a direct ``recommend_batch``.
SAMPLED_ANSWERS = 200
#: Closed-loop HTTP requests per connection in the traced run.
HTTP_REQUESTS = 200
#: Longest wait for any one answer after a phase's last request was sent.
ANSWER_TIMEOUT_S = 10.0


# -- set-up --------------------------------------------------------------------


def build_inputs(seed: int, scale: str, path: Path):
    """The seeded corpus, a briefly trained model saved to ``path``, and the
    request bodies.

    Returns ``(model, bodies)``; the bodies are wire-v1 JSON, one per
    held-out session of two or more visits, in a seeded order.
    """
    checkins = paper_preprocessing(
        generate_checkins(SyntheticConfig(**CORPUS[scale]), rng=seed)
    )
    train, holdout = holdout_users_split(
        CheckinDataset(checkins), HOLDOUT_USERS[scale], rng=seed
    )
    model = repro.train(
        PLPConfig(backend="fast", max_steps=ARTIFACT_STEPS), train, rng=seed
    ).save(path)
    queries = [
        [int(poi) for poi in trajectory.locations[:-1]]
        for trajectory in sessionize_dataset(holdout)
        if len(trajectory) >= 2
    ]
    order = np.random.default_rng(seed).permutation(len(queries))
    bodies = [
        json.dumps({"v": 1, "recent": queries[i], "top_k": 10}).encode()
        for i in order
    ]
    return model, bodies


def set_up(path: Path, warm_query: list):
    """Start a service over the artifact and warm it, ``SETUP_REPEATS`` times.

    Returns ``(service, setup_seconds_list)``; earlier services are closed.
    """
    service = None
    seconds = []
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.close()
        started = time.perf_counter()
        service = RecommendService.from_config(
            ServingConfig(artifacts=(("default", str(path)),))
        )
        service.recommend(warm_query)
        seconds.append(time.perf_counter() - started)
    return service, seconds


# -- open loop -------------------------------------------------------------------


@dataclass
class Phase:
    """One fixed-rate phase: per-request timestamps and outcomes."""

    rate: float
    due: np.ndarray
    sent: np.ndarray = field(init=False)
    done: np.ndarray = field(init=False)
    status: list = field(init=False)
    responses: dict = field(default_factory=dict)
    #: Requests handed to ``submit_future`` (not shed at the door).
    enqueued: int = 0
    passed: bool = False

    def __post_init__(self) -> None:
        self.sent = np.full(len(self.due), np.nan)
        self.done = np.full(len(self.due), np.nan)
        self.status = ["pending"] * len(self.due)

    def count(self, status: str) -> int:
        return self.status.count(status)

    def latencies(self) -> np.ndarray:
        """Seconds from due time to answer; requests not answered "ok"
        (shed, failed, or still pending) count as infinite."""
        latency = self.done - self.due
        ok = np.array([s == "ok" for s in self.status])
        return np.where(ok, latency, np.inf)

    def served_rate(self) -> float:
        """Answers per second, from the first due time to the last answer."""
        return self.count("ok") / (np.nanmax(self.done) - self.due[0])

    def lateness(self) -> np.ndarray:
        return self.sent - self.due

    def service_times(self) -> np.ndarray:
        ok = np.array([s == "ok" for s in self.status])
        return (self.done - self.sent)[ok]

    def meets_limits(self) -> bool:
        latency = self.latencies()
        if quantile(latency, 0.99) > LATENCY_LIMIT_S:
            return False
        quarter = max(len(latency) // 4, 1)
        growth = np.mean(latency[-quarter:]) - np.mean(latency[:quarter])
        if not growth <= BACKLOG_GROWTH_S:
            return False
        return quantile(self.lateness(), 0.99) <= GENERATOR_LATE_LIMIT_S


def _decode(body: bytes) -> RecommendRequest:
    return RecommendRequest.from_dict(json.loads(body))


async def _send(service, bodies, phase: Phase, finish) -> int:
    """Send every request of ``phase`` at its due time; returns how many
    were enqueued (their answers arrive through ``finish``)."""
    due = phase.due
    enqueued = 0
    index = 0
    while index < len(due):
        now = time.perf_counter()
        if due[index] > now:
            await asyncio.sleep(due[index] - now)
            continue
        while index < len(due) and due[index] <= time.perf_counter():
            phase.sent[index] = time.perf_counter()
            try:
                future = service.submit_future(_decode(bodies[index % len(bodies)]))
            except OverloadedError:
                phase.status[index] = "shed"
                service.record_request("shed", 0.0)
            except ReproError:
                phase.status[index] = "failed"
                service.record_request("error", 0.0)
            else:
                enqueued += 1
                future.add_done_callback(lambda f, i=index: finish(i, f))
            index += 1
    return enqueued


def run_phase(service, bodies, rate: float, seconds: float, keep=(), recorder=None) -> Phase:
    """One open-loop phase at a fixed ``rate`` for ``seconds``."""
    count = max(int(rate * seconds), 1)
    phase = Phase(rate=rate, due=np.arange(count) / rate)
    keep = set(keep)
    answered = threading.Semaphore(0)

    def finish(i: int, future) -> None:  # runs on the batcher thread
        now = time.perf_counter()
        try:
            response = future.result()
        except ReproError:
            phase.status[i] = "failed"
        else:
            phase.status[i] = "ok"
            if i in keep:
                phase.responses[i] = response
        phase.done[i] = now
        service.record_request(phase.status[i], now - phase.sent[i])
        if recorder is not None:
            recorder.add("serving.request", phase.sent[i], now, status=phase.status[i])
        answered.release()

    phase.due += time.perf_counter() + 0.005
    phase.enqueued = asyncio.run(_send(service, bodies, phase, finish))
    for _ in range(phase.enqueued):
        if not answered.acquire(timeout=ANSWER_TIMEOUT_S):
            break  # a future never completed: it stays "pending"
    phase.passed = phase.meets_limits()
    return phase


def scored_queries(service, at_least: int, timeout: float = 2.0) -> int:
    """The service's own ``queries_scored`` counter, once it reaches
    ``at_least`` or ``timeout`` passes. The batcher counts a batch just
    after resolving its futures, so the counter can lag the last answer."""
    deadline = time.perf_counter() + timeout
    while True:
        scored = service.metrics()["batches"]["queries_scored"]
        if scored >= at_least or time.perf_counter() > deadline:
            return scored
        time.sleep(0.001)


def find_capacity(service, bodies, seconds_per_probe: float, after_probe=None):
    """Highest rate meeting the limits: a ladder, then a staircase.

    ``after_probe(phase)`` runs after each probe. Returns
    ``(capacity, probes)``.
    """
    probes = []

    def probe(rate: float) -> bool:
        probes.append(run_phase(service, bodies, rate, seconds_per_probe))
        if after_probe is not None:
            after_probe(probes[-1])
        return probes[-1].passed

    rate = LADDER_START_RPS
    while probe(rate) or probe(rate):  # a rung fails only when a retry fails
        rate *= LADDER_FACTOR
    rate /= LADDER_FACTOR
    # Steps as large as the ladder's let the staircase climb back when a
    # stall on the shared host failed a rung far below capacity.
    step, settled, last = LADDER_FACTOR, STAIRCASE_PROBES, None
    for index in range(STAIRCASE_PROBES):
        passed = probe(rate)
        if last is not None and passed != last:
            step = max(step**0.5, STAIRCASE_FACTOR)
            settled = min(settled, index)
        last = passed
        rate = rate * step if passed else rate / step
    staircase = probes[-STAIRCASE_PROBES:]
    # The probes from the first reversal on bracket the capacity.
    passing = [p.served_rate() for p in staircase[settled:] if p.passed]
    passing = passing or [p.served_rate() for p in staircase if p.passed]
    if not passing:
        return min(p.rate for p in probes) / LADDER_FACTOR, probes
    return float(np.exp(np.mean(np.log(passing)))), probes


# -- checks and layers -------------------------------------------------------------


def _same_answer(served, direct) -> bool:
    """Equal top-k lists; float32 near-ties may swap places."""
    if len(served) != len(direct):
        return False
    scores = np.array([score for _, score in direct])
    if not np.allclose([score for _, score in served], scores, rtol=0, atol=1e-5):
        return False
    for rank, ((served_loc, _), (direct_loc, score)) in enumerate(zip(served, direct)):
        tied = rank == len(direct) - 1 or np.sum(np.abs(scores - score) < 2e-5) > 1
        if served_loc != direct_loc and not tied:
            return False
    return True


def run_serve(seed: int, seconds: float, trace: bool, scale: str, work: Path) -> Result:
    result = Result()
    path = work / "model.npz"
    (trained, bodies), prepare_s = timed(build_inputs, seed, scale, path)
    result.notes["inputs_s"] = prepare_s
    result.notes["request_bodies"] = len(bodies)
    result.notes["artifact_pois"] = len(trained.vocabulary)
    service, setup_seconds = set_up(path, [trained.vocabulary.location(0)])
    speed = HostSpeed()
    try:
        # Set up as the service sets up its own: a popularity prior answers
        # queries with no POI in the vocabulary (some held-out sessions).
        recommender = repro.load(path).recommender(with_fallback=True)
        _measure(result, service, recommender, bodies, seed, seconds, trace, speed)
    finally:
        service.close()
    # At the baseline host's speed (HostSpeed), from passes run between the
    # phases: set-up is CPU-bound and moved with the host by up to 25 %
    # between sets of runs. The raw value is a note.
    result.metric("setup_s", speed.seconds(median(setup_seconds)), "s")
    result.notes["raw.setup_s"] = median(setup_seconds)
    result.notes["host.speed_factor"] = speed.factor
    return result


def _measure(
    result, service, recommender, bodies, seed, seconds, trace, speed
) -> None:
    warmup = run_phase(service, bodies, REFERENCE_RPS, WARMUP_S)
    reference_s = REFERENCE_PHASE_S
    sample = np.random.default_rng(seed + 2).choice(
        int(REFERENCE_RPS * reference_s), size=SAMPLED_ANSWERS, replace=False
    )
    # Counted so far: the set-up's warming request and the warm-up phase.
    scored_before = scored_queries(service, 1 + warmup.enqueued)
    phases: list[Phase] = []  # every measured phase, in order
    references: list[Phase] = []
    batches = {"count": 0, "queries_scored": 0}  # during reference phases

    def settled_batches() -> dict:
        scored_queries(service, scored_before + sum(p.enqueued for p in phases))
        return service.metrics()["batches"]

    def reference_phase() -> None:
        """One reference phase, until there are ``REFERENCE_PHASES``.

        They alternate with the capacity probes, so a stretch of minutes
        in which the shared host runs slow touches only some of them.
        """
        if len(references) == REFERENCE_PHASES:
            return
        start = settled_batches()
        phase = run_phase(
            service, bodies, REFERENCE_RPS, reference_s,
            keep=() if references else sample,
        )
        phases.append(phase)
        references.append(phase)
        speed.sample(PHASE_PASSES)
        end = settled_batches()
        for key in batches:
            batches[key] += end[key] - start[key]

    def after_probe(phase: Phase) -> None:
        phases.append(phase)
        speed.sample(PHASE_PASSES)
        reference_phase()

    reference_phase()
    left = seconds - WARMUP_S - REFERENCE_PHASES * REFERENCE_PHASE_S
    probe_seconds = max(left / EXPECTED_PROBES, 0.25)
    capacity, probes = find_capacity(service, bodies, probe_seconds, after_probe)
    while len(references) < REFERENCE_PHASES:
        reference_phase()

    reference = references[0]
    result.metric(
        "p50_ms", median(quantile(p.latencies(), 0.5) for p in references) * 1e3, "ms"
    )
    # The tail at the reference rate is per-layer: with seconds of steal on
    # the shared host it moves far beyond any bound (README.md).
    result.notes["p90_ms"] = median(quantile(p.latencies(), 0.9) for p in references) * 1e3
    result.notes["p99_ms"] = median(quantile(p.latencies(), 0.99) for p in references) * 1e3
    for phase in references:
        result.work(len(phase.due), len(phase.due) - phase.count("ok"))
    result.metric("rate_per_s", capacity, "1/s")
    result.notes["reference_rps"] = REFERENCE_RPS
    result.notes["probes"] = " ".join(
        f"{p.rate:.0f}{'+' if p.passed else '-'}" for p in probes
    )

    result.check(
        "sent == ok + shed + failed in every phase, none left pending",
        all(
            p.count("ok") + p.count("shed") + p.count("failed") == len(p.due)
            for p in phases
        ),
    )
    admitted = sum(p.enqueued for p in phases)
    scored = scored_queries(service, scored_before + admitted)
    result.check(
        "service scored every admitted request once",
        scored - scored_before == admitted,
    )
    result.notes["admitted"] = admitted
    kept = sorted(reference.responses)
    direct = recommender.recommend_batch(
        [_decode(bodies[i % len(bodies)]).recent for i in kept], top_k=10, mode="fast"
    )
    result.check(
        f"{len(kept)} sampled answers equal recommend_batch",
        len(kept) > 0
        and all(
            _same_answer(list(map(tuple, reference.responses[i].recommendations)), answer)
            for i, answer in zip(kept, direct)
        ),
    )

    if trace:
        recorder = SpanRecorder(f"serve-{seed}")
        with recorder.span("serving.reference_phase", rate=REFERENCE_RPS):
            traced = run_phase(
                service, bodies, REFERENCE_RPS, reference_s, recorder=recorder
            )
        result.work(len(traced.due), len(traced.due) - traced.count("ok"))
        _layer_metrics(
            result, recorder, service, recommender, bodies, references, traced,
            probes, batches,
        )
        result.recorder = recorder


def _layer_metrics(
    result, recorder, service, recommender, bodies, references, traced, probes, batches
) -> None:
    decode_s = []
    for body in bodies[:2000]:
        _, seconds = timed(_decode, body)
        decode_s.append(seconds)
    result.metric("serving.decode_us", median(decode_s) * 1e6, "us")
    result.metric("serving.p90_ms", result.notes["p90_ms"], "ms")
    result.metric("serving.p99_ms", result.notes["p99_ms"], "ms")
    service_s = np.concatenate([p.service_times() for p in references])
    result.metric("serving.service_p50_ms", quantile(service_s, 0.5) * 1e3, "ms")
    result.metric("serving.service_p99_ms", quantile(service_s, 0.99) * 1e3, "ms")
    # Lateness at the fastest rate that met the limits.
    passing = [p for p in probes if p.passed] or references
    fastest = max(passing, key=lambda p: p.rate)
    result.metric(
        "serving.gen_late_p99_ms", quantile(fastest.lateness(), 0.99) * 1e3, "ms"
    )
    batch_size = batches["queries_scored"] / max(batches["count"], 1)
    result.metric("serving.batch_size_mean", batch_size, "count")
    queries = [_decode(body).recent for body in bodies[: max(int(round(batch_size)), 1)]]
    score_s = []
    for _ in range(200):
        with recorder.span("serving.score", batch=len(queries)) as span:
            recommender.recommend_batch(queries, top_k=10, mode="fast")
        score_s.append(span.end - span.start)
    result.metric("serving.score_ms", median(score_s) * 1e3, "ms")
    result.metric("serving.http_rtt_ms", _http_rtt(service, bodies, recorder) * 1e3, "ms")
    untraced_p50 = median(quantile(p.latencies(), 0.5) for p in references)
    result.metric(
        "trace.overhead_s", quantile(traced.latencies(), 0.5) - untraced_p50, "s"
    )
    result.zero_layers("engine.", "executor.", "data.", "train.", "sweep.", "accountant.", "eval.")


def _http_rtt(service, bodies, recorder) -> float:
    """Median round trip of a closed loop over ``nproc`` keep-alive connections."""
    rtts: list[float] = []
    lock = threading.Lock()

    def client(port: int, offset: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for i in range(HTTP_REQUESTS):
                body = bodies[(offset + i) % len(bodies)]
                started = time.perf_counter()
                connection.request(
                    "POST", "/recommend", body, {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                response.read()
                ended = time.perf_counter()
                if response.status == 200:
                    with lock:
                        rtts.append(ended - started)
                        recorder.add("serving.http", started, ended)
        finally:
            connection.close()

    with BackgroundServer(service, port=0) as server:
        threads = [
            threading.Thread(target=client, args=(server.port, n * 1000))
            for n in range(nproc())
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    return median(rtts) if rtts else float("nan")
