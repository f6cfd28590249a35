"""``serve-churn``: reads beside writes on one streaming graph.

A closed loop of 8 in-process coroutine clients and 1 writer coroutine on
one event-loop thread, plus the engine's executor thread: 2 OS threads, no
sockets.  Each round the clients issue requests drawn Zipf(1.1) from a
query pool while the writer awaits ``delete`` then ``insert``; every fifth
round it also awaits ``consolidate``.  The mutation lock, version-keyed
cache invalidation, tombstone masks in the kernel, live-insert linking and
consolidation's re-prune all share code with ``build`` and ``ram-search``,
so a search gain bought with slower mutations (or the reverse) shows here.
Micro-batching and queueing in ``eval.serving`` do most of the per-request
time here and none elsewhere.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from statistics import median
from types import SimpleNamespace

import numpy as np

from repro.core.streaming import StreamingIndex
from repro.eval.metrics import recall
from repro.eval.serving import ServingEngine

from common import (
    INDEX_SEED,
    K,
    check_answers,
    draw,
    graph_digest,
    percentiles_ms,
    run_setups,
    timed,
)
from trace import TimedProxy, Tracer

DATASET = "sift"
N_POINTS = 1500
POOL_QUERIES = 1000
FINAL_QUERIES = 300
WIDTH = 64
STREAMING_PARAMS = {"max_degree": 16, "build_beam_width": 64, "default_beam_width": WIDTH}
ENGINE_PARAMS = {"k": K, "beam_width": WIDTH, "max_batch": 32, "cache_size": 1024}
CLIENTS = 8
REQUESTS_PER_CLIENT = 50
#: rounds in a 10 s run
ROUNDS = 18
#: points deleted, then inserted, each round
CHURN = 40
CONSOLIDATE_EVERY = 5
ZIPF_EXPONENT = 1.1
#: rounds the traced run serves through the bare index before the proxy
PLAIN_ROUNDS = 2


@dataclass
class Schedule:
    """Everything ``--seed`` decides: requests, who dies, what replaces them."""

    data: np.ndarray
    pool: np.ndarray
    draws: np.ndarray  # (rounds, clients, requests) indices into pool
    doomed: np.ndarray  # (rounds, churn) original ids
    fresh: np.ndarray  # (rounds, churn, dim) replacement vectors
    final: np.ndarray

    @property
    def rounds(self) -> int:
        return self.draws.shape[0]

    def consolidates(self, r: int) -> bool:
        """Every fifth round, and the last one of a run too short to have a fifth."""
        short = self.rounds < CONSOLIDATE_EVERY and r == self.rounds - 1
        return (r + 1) % CONSOLIDATE_EVERY == 0 or short


def make_schedule(seed: int, budget) -> Schedule:
    n = budget.n(N_POINTS, floor=300)
    rounds = max(budget.reps(ROUNDS), 2 if budget.smoke else CONSOLIDATE_EVERY)
    churn = min(CHURN, n // (2 * rounds))
    per_client = budget.n(REQUESTS_PER_CLIENT, floor=8)
    rng = np.random.default_rng((seed, 0xC4))
    n_pool = budget.n(POOL_QUERIES)
    points = draw(DATASET, n + rounds * churn, seed)
    queries = draw(DATASET, n_pool + budget.n(FINAL_QUERIES), seed, queries=True)
    return Schedule(
        data=points[:n],
        pool=queries[:n_pool],
        draws=(rng.zipf(ZIPF_EXPONENT, size=(rounds, CLIENTS, per_client)) - 1) % n_pool,
        doomed=rng.permutation(n)[: rounds * churn].reshape(rounds, churn),
        fresh=points[n:].reshape(rounds, churn, -1),
        final=queries[n_pool:],
    )


def build_index(data) -> StreamingIndex:
    return StreamingIndex(seed=INDEX_SEED, **STREAMING_PARAMS).build(data)


def setup(seed: int, budget, times: dict):
    schedule, times["generate_s"] = timed(make_schedule, seed, budget)
    index = build_index(schedule.data)
    return schedule, index


class Drive:
    """Runs rounds of the schedule through an engine and keeps what clients saw."""

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        capacity = schedule.data.shape[0] + schedule.fresh.shape[0] * schedule.fresh.shape[1]
        #: when the writer's ``await delete`` returned, per id (inf = alive)
        self.deleted_at = np.full(capacity, np.inf)
        self.requests: list[tuple] = []  # (issued, done, ids)
        self.round_walls: list[float] = []
        self.mutations: list[tuple] = []  # (kind, awaited seconds)
        self.mutated_points = 0

    async def _client(self, engine, draws) -> None:
        pool = self.schedule.pool
        for q in draws:
            issued = time.perf_counter()
            ids, _ = await engine.search(pool[q])
            self.requests.append((issued, time.perf_counter(), ids))

    async def _writer(self, engine, r: int) -> None:
        doomed, fresh = self.schedule.doomed[r], self.schedule.fresh[r]
        start = time.perf_counter()
        await engine.delete(doomed)
        done = time.perf_counter()
        self.deleted_at[doomed] = done
        self.mutations.append(("delete", done - start))
        start = time.perf_counter()
        await engine.insert(fresh)
        self.mutations.append(("insert", time.perf_counter() - start))
        self.mutated_points += doomed.size + fresh.shape[0]
        if self.schedule.consolidates(r):
            start = time.perf_counter()
            await engine.consolidate()
            self.mutations.append(("consolidate", time.perf_counter() - start))

    async def rounds(self, engine, first: int, stop: int) -> None:
        for r in range(first, stop):
            start = time.perf_counter()
            await asyncio.gather(
                self._writer(engine, r),
                *[self._client(engine, draws) for draws in self.schedule.draws[r]],
            )
            self.round_walls.append(time.perf_counter() - start)

    def stale_answer(self) -> str:
        """No id returned was deleted before its request was issued."""
        for pos, (issued, _, ids) in enumerate(self.requests):
            real = ids[ids >= 0]
            if np.any(self.deleted_at[real] < issued):
                return f"request {pos} returned an id deleted before it was issued"
        return ""

    @property
    def writer_s(self) -> float:
        return sum(seconds for _, seconds in self.mutations)


async def final_pass(engine, index, queries):
    """Quiescent queries against the live ground truth."""
    truth, _ = index.alive_ground_truth(queries, K)
    before = engine.report.total_distance_calls
    answers = await asyncio.gather(*[engine.search(q) for q in queries])
    calls = (engine.report.total_distance_calls - before) / queries.shape[0]
    found = float(np.mean([recall(ids, t) for (ids, _), t in zip(answers, truth)]))
    alive = np.zeros(index.n_total, dtype=bool)
    alive[index.alive_ids] = True
    dead = any(not np.all(alive[ids[ids >= 0]]) for ids, _ in answers)
    return answers, found, calls, "an answer lies outside the live set" if dead else ""


def live_digest(index) -> str:
    return graph_digest(index.graph, extra=np.asarray(index.alive_ids).tobytes())


def untraced(led) -> None:
    (schedule, index), _ = run_setups(led, setup)
    drive = Drive(schedule)

    async def serve():
        engine = ServingEngine(index, **ENGINE_PARAMS)
        try:
            await drive.rounds(engine, 0, schedule.rounds)
            return await final_pass(engine, index, schedule.final)
        finally:
            await engine.close()

    answers, found, calls, outside = asyncio.run(serve())
    latencies = [done - issued for issued, done, _ in drive.requests]
    led.ops("serve", len(latencies))
    led.ops("mutate", drive.mutated_points)
    led.ops("final", len(answers))
    # rounds differ by design (every fifth consolidates), so they are not
    # repetitions of one measurement and file no spread
    led.metric("batch_qps", len(latencies) / sum(drive.round_walls))
    p50, p99 = percentiles_ms(latencies)
    led.metric("query_p50_ms", p50, n=len(latencies))
    led.metric("query_p99_ms", p99, n=len(latencies))
    led.metric("build_points_per_s", drive.mutated_points / drive.writer_s)
    led.metric("recall_at_10", found)
    led.metric("dist_calls_per_query", calls)
    led.exact.update(
        recall_at_10=found,
        dist_calls_per_query=calls,
        graph_fingerprint=live_digest(index),
        build_dist_calls=index.build_report.distance_calls,
    )
    led.check("serve", "no_answer_deleted_before_issue", drive.stale_answer())
    led.check("final", "answers_within_live_set", outside)
    results = [SimpleNamespace(ids=ids, dists=dists) for ids, dists in answers]
    led.check("final", "answers_unique_in_range", check_answers(results, K, index.n_total))


def traced(led) -> None:
    budget = led.budget
    tracer = Tracer()
    times: dict = {}
    schedule, index = setup(led.seed, budget, times)
    led.metric("datasets.generate_s", times["generate_s"])
    rounds = schedule.rounds

    # core.streaming: the same schedule on a second index, no engine
    replay, build_s = timed(build_index, schedule.data)
    led.metric("streaming.build_s", build_s)
    insert_s = delete_s = search_s = 0.0
    consolidations = []
    tombstones = 0.0
    probes = schedule.pool[:8]
    for r in range(rounds):
        delete_s += timed(replay.delete, schedule.doomed[r])[1]
        insert_s += timed(replay.insert, schedule.fresh[r])[1]
        tombstones = max(tombstones, 1.0 - replay.n_alive / replay.n_total)
        search_s += timed(replay.search_batch, probes, k=K, beam_width=WIDTH)[1]
        if schedule.consolidates(r):
            consolidations.append(timed(replay.consolidate))
    churned = schedule.doomed.size
    led.metric("streaming.insert_points_per_s", churned / insert_s)
    led.metric("streaming.delete_us_per_point", delete_s / churned * 1e6)
    led.metric("streaming.consolidate_s", median([s for _, s in consolidations]))
    led.metric("streaming.consolidate_repaired", sum(c.n_repaired for c, _ in consolidations))
    led.metric("streaming.consolidate_dist_calls", sum(c.distance_calls for c, _ in consolidations))
    led.metric("streaming.search_us_per_query", search_s / (rounds * probes.shape[0]) * 1e6)
    led.metric("streaming.tombstone_share_peak", tombstones)
    led.ops("replay", 2 * churned)

    # eval.serving: the engine over the bare index, then over a timed proxy
    proxy = TimedProxy(
        index, tracer, "streaming", ("search_batch", "insert", "delete", "consolidate")
    )
    drive = Drive(schedule)
    split = min(PLAIN_ROUNDS, rounds - 1)
    plain = {}

    async def serve():
        engine = ServingEngine(index, **ENGINE_PARAMS)
        try:
            await drive.rounds(engine, 0, split)
        finally:
            await engine.close()
        plain.update(requests=len(drive.requests), mutations=len(drive.mutations))
        engine = ServingEngine(proxy, **ENGINE_PARAMS)
        tracer.phase = "serve"
        try:
            await drive.rounds(engine, split, rounds)
            return engine.report
        finally:
            await engine.close()

    report = asyncio.run(serve())
    led.metric("metrics.ground_truth_s", timed(index.alive_ground_truth, schedule.final, K)[1])
    totals = tracer.totals()
    led.metric("serving.mean_batch_size", report.mean_batch_size)
    led.metric("serving.cache_hit_rate", report.cache_hit_rate)
    batches = totals["streaming.search_batch"]
    led.metric("serving.exec_ms_per_batch", batches["total_s"] / batches["count"] * 1000.0)

    rows = tracer.rows()
    spans = {
        name: np.array([(s, e) for n, s, e, *_ in rows if n == f"streaming.{name}"])
        for name in ("search_batch", "insert", "delete", "consolidate")
    }
    # a request's batch is the last one that ended before its answer arrived;
    # a request no batch started for was a cache hit and has no queueing to report
    starts, ends = spans["search_batch"][:, 0], spans["search_batch"][:, 1]
    overheads = []
    for issued, done, _ in drive.requests[plain["requests"]:]:
        pos = int(np.searchsorted(ends, done, side="right")) - 1
        if pos >= 0 and starts[pos] >= issued:
            overheads.append((done - issued) - (ends[pos] - starts[pos]))
    led.metric("serving.overhead_ms_p50", median(overheads) * 1000.0, n=len(overheads))
    direct = {kind: list(se[:, 1] - se[:, 0]) for kind, se in spans.items() if se.size}
    waits = [
        awaited - direct[kind].pop(0)
        for kind, awaited in drive.mutations[plain["mutations"]:]
    ]
    led.metric("serving.mutation_wait_ms_p50", median(waits) * 1000.0, n=len(waits))

    per_round = schedule.draws.shape[1] * schedule.draws.shape[2]
    plain_qps = per_round * split / sum(drive.round_walls[:split])
    proxied_qps = per_round * (rounds - split) / sum(drive.round_walls[split:])
    led.metric("trace.overhead_share", 1.0 - proxied_qps / plain_qps)
    led.ops("serve", len(drive.requests))
    led.check("serve", "no_answer_deleted_before_issue", drive.stale_answer())
    same = live_digest(index) == live_digest(replay)
    led.check("replay", "engine_and_direct_schedules_build_one_graph",
              "" if same else "graph digests differ")
    led.tracer = tracer
