"""``ram-search``: one HNSW graph in memory, searched batched and one by one.

Easy data and a narrow beam: per-query Python overhead in ``core.kernels``
and ``core.beam_search`` dominates and ``core.distances`` is small.  The
``batch`` and ``single`` phases run the *same* Algorithm 1 two ways
(lockstep kernel against scalar loop), so a gain for one that costs the
other shows.  The build is set-up, not measured work.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from repro import create_index, ground_truth, run_workload
from repro.core.beam_search import beam_search
from repro.core.graph import CSRGraph
from repro.core.kernels import batch_search

from common import (
    INDEX_SEED,
    K,
    PARITY_QUERIES,
    batch_phase,
    check_answers,
    check_kernel_parity,
    draw,
    run_setups,
    single_phase,
    timed,
)
from trace import Tracer, exact_proxy

DATASET = "sift"
N_POINTS = 1500
N_BATCH_QUERIES = 1500
N_SINGLE_QUERIES = 1000
WIDTH = 64
HNSW_PARAMS = {"max_degree": 24, "ef_construction": 64}
#: timed passes in a 10 s run (one untimed warm-up pass comes first)
BATCH_REPS = 4
SINGLE_REPS = 3
#: traced passes of the bare kernel that the per-query layer times average over
KERNEL_PASSES = 3


def setup(seed: int, budget, times: dict):
    """Data, queries, ground truth and the built index."""
    n = budget.n(N_POINTS, floor=256)
    n_queries = budget.n(N_BATCH_QUERIES, floor=PARITY_QUERIES)
    data, times["generate_s"] = timed(draw, DATASET, n, seed)
    queries = draw(DATASET, n_queries, seed, queries=True)
    (truth, _), times["ground_truth_s"] = timed(ground_truth, data, queries, K)
    index, times["build_s"] = timed(
        create_index("HNSW", seed=INDEX_SEED, **HNSW_PARAMS).build, data
    )
    return data, queries, truth, index


def untraced(led) -> None:
    (data, queries, truth, index), phases = run_setups(led, setup)
    n = data.shape[0]
    builds = [n / times["build_s"] for times in phases]
    led.metric("build_points_per_s", median(builds), builds)

    batch_phase(led, index, queries, truth, WIDTH, BATCH_REPS)
    singles = queries[: led.budget.n(N_SINGLE_QUERIES, floor=PARITY_QUERIES)]
    answers = single_phase(led, index, singles, WIDTH, SINGLE_REPS)

    led.check("single", "answers_unique_in_range", check_answers(answers, K, n))
    parity = check_kernel_parity(index, queries[:PARITY_QUERIES], K, WIDTH)
    led.check("batch", "batched_equals_scalar", parity)
    led.check("single", "batched_equals_scalar", parity)


def traced(led) -> None:
    budget = led.budget
    tracer = Tracer()
    times: dict = {}
    data, queries, truth, index = setup(led.seed, budget, times)
    led.metric("datasets.generate_s", times["generate_s"])
    led.metric("metrics.ground_truth_s", times["ground_truth_s"])
    n_queries = queries.shape[0]
    computer = index.computer
    proxy = exact_proxy(computer, tracer)

    flatten = [timed(CSRGraph.from_graph, index.graph)[1] for _ in range(3)]
    led.metric("graph.csr_flatten_ms", median(flatten) * 1000.0, flatten)
    csr = index._kernel_graph()

    # seed selection, reseeded per query as search_batch does
    seeds, seed_s = [], 0.0
    mark = computer.checkpoint()
    for j in range(n_queries):
        index.seed_query_rng(j)
        start = time.perf_counter()
        seeds.append(index._query_seeds(queries[j]))
        seed_s += time.perf_counter() - start
    led.metric("seeds.us_per_query", seed_s / n_queries * 1e6)
    led.metric("seeds.dist_calls_per_query", computer.since(mark) / n_queries)

    # the lockstep kernel, its distance children timed by the proxy
    batch_search(csr, computer, queries, seeds, K, WIDTH)
    tracer.phase = "kernels.batch"
    since = tracer.mark()
    mark = computer.checkpoint()
    for _ in range(KERNEL_PASSES):
        with tracer.span("kernels.batch_search"):
            results = batch_search(csr, proxy, queries, seeds, K, WIDTH)
    rows = computer.since(mark)
    totals = tracer.totals(since)
    kernel = totals["kernels.batch_search"]
    segmented = totals["distances.to_queries_segmented"]
    per_query = 1e6 / (KERNEL_PASSES * n_queries)
    led.metric("kernels.batch_us_per_query", kernel["total_s"] * per_query)
    led.metric("kernels.self_us_per_query", kernel["self_s"] * per_query)
    led.metric("kernels.hops_per_query", float(np.mean([r.hops for r in results])))
    led.metric("kernels.steps_per_batch", segmented["count"] / KERNEL_PASSES)
    led.metric("distances.segmented_us_per_query", segmented["total_s"] * per_query)
    led.metric("distances.rows_per_segmented_call", rows / segmented["count"])

    # batch of one: what the kernel costs when it replaces the scalar loop
    ones = queries[: budget.n(200)]
    start = time.perf_counter()
    for j in range(ones.shape[0]):
        index.search_batch(ones[j : j + 1], k=K, beam_width=WIDTH, query_indices=[j])
    led.metric(
        "kernels.batch1_us_per_query",
        (time.perf_counter() - start) / ones.shape[0] * 1e6,
    )

    # the scalar loop, same seeds
    scratch = np.zeros(index.graph.n, dtype=bool)
    tracer.phase = "beam_search"
    since = tracer.mark()
    for j in range(n_queries):
        with tracer.span("beam_search"):
            beam_search(index.graph, proxy, queries[j], seeds[j], K, WIDTH, visited_mask=scratch)
    totals = tracer.totals(since)
    scalar = totals.pop("beam_search")
    distance_s = sum(row["total_s"] for row in totals.values())
    distance_calls = sum(row["count"] for row in totals.values())
    led.metric("beam_search.us_per_query", scalar["total_s"] / n_queries * 1e6)
    led.metric("beam_search.distance_us_per_query", distance_s / n_queries * 1e6)
    led.metric("distances.scalar_us_per_query", distance_s / n_queries * 1e6)
    led.metric("distances.calls_per_query", distance_calls / n_queries)

    # bookkeeping run_workload adds around search_batch; two workers
    indices = np.arange(n_queries)
    index.search_batch(queries, k=K, beam_width=WIDTH, query_indices=indices)
    plain, batch = [], []
    for _ in range(3):
        plain.append(timed(run_workload, index, queries, truth, K, WIDTH)[1])
        batch.append(
            timed(index.search_batch, queries, k=K, beam_width=WIDTH, query_indices=indices)[1]
        )
    led.metric(
        "parallel.overhead_us_per_query",
        (median(plain) - median(batch)) / n_queries * 1e6,
    )
    two = run_workload(index, queries, truth, K, WIDTH, n_workers=2)
    led.metric("parallel.qps_2w", n_queries / two.wall_time_s)

    # what the proxy itself costs, on the end-to-end path
    index.computer = proxy
    try:
        tracer.phase = "overhead"
        proxied = [timed(run_workload, index, queries, truth, K, WIDTH)[1] for _ in range(3)]
    finally:
        index.computer = computer
    led.metric("trace.overhead_share", 1.0 - median(plain) / median(proxied))
    led.ops("traced", n_queries)
    led.tracer = tracer
