"""``disk-search``: an NSW graph persisted and searched from the disk tier.

Hard data (d=256, high LID) and a wide beam: traversal is PQ-resident and
the raw vectors are touched once per query for an exact re-rank over mmap.
``PQDistanceComputer`` table gathers, ``batch_search_pq``, ``rerank`` and
``core.serialization`` do the work; exact ``DistanceComputer`` GEMVs, the
hot spot of ``ram-search``, do almost none.  NSW stands in for Vamana only
because it builds about three times faster for an identical search path;
Vamana's build is measured in ``build``.
"""

from __future__ import annotations

import os
import time
from statistics import median

import numpy as np

from repro import create_index, ground_truth, run_workload
from repro.core.kernels import batch_search_pq
from repro.core.serialization import open_disk_tier, save_disk_tier
from repro.eval.disk import probe_disk_search
from repro.indexes.base import load_disk_index
from repro.summarization.quantization import ProductQuantizer, largest_subspace_count

from common import (
    INDEX_SEED,
    K,
    PARITY_QUERIES,
    WORK_DIR,
    batch_phase,
    check_answers,
    check_kernel_parity,
    draw,
    run_setups,
    single_phase,
    timed,
)
from trace import Tracer, pq_proxy

DATASET = "seismic"
N_POINTS = 1500
N_QUERIES = 1000
WIDTH = 128
NSW_PARAMS = {"m_connections": 12, "ef_construction": 64}
PERSIST_REPS = 3
#: one pass takes a second and moves by 7 % between runs; the median of five by 3 %
BATCH_REPS = 5
#: 1000 samples leave p99 to the ten slowest calls; the quieter of two passes is filed
SINGLE_REPS = 2
OPEN_REPEATS = 20


def setup(seed: int, budget, times: dict):
    n = budget.n(N_POINTS, floor=300)
    n_queries = budget.n(N_QUERIES, floor=PARITY_QUERIES)
    data, times["generate_s"] = timed(draw, DATASET, n, seed)
    queries = draw(DATASET, n_queries, seed, queries=True)
    (truth, _), times["ground_truth_s"] = timed(ground_truth, data, queries, K)
    index = create_index("NSW", seed=INDEX_SEED, **NSW_PARAMS).build(data)
    return data, queries, truth, index


def tier_dir(label) -> str:
    """A fresh directory for one disk tier, removed by ``run.py`` on exit."""
    path = WORK_DIR / str(os.getpid()) / f"tier-{label}"
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


def untraced(led) -> None:
    (data, queries, truth, index), _ = run_setups(led, setup)
    n = data.shape[0]

    # persist + open: the disk tier's own construction cost
    rates = []
    for rep in range(led.budget.reps(PERSIST_REPS)):
        start = time.perf_counter()
        directory = index.to_disk_tier(tier_dir(rep))
        disk = load_disk_index(directory)
        rates.append(n / (time.perf_counter() - start))
        led.ops("persist", n)
    led.metric("build_points_per_s", median(rates), rates)

    batch_phase(led, disk, queries, truth, WIDTH, BATCH_REPS)
    answers = single_phase(led, disk, queries, WIDTH, SINGLE_REPS)

    led.check("persist", "tier_reopens", "" if disk.graph.n == n else "node count changed")
    led.check("single", "answers_unique_in_range", check_answers(answers, K, n))
    parity = check_kernel_parity(disk, queries[:PARITY_QUERIES], K, WIDTH)
    led.check("batch", "batched_equals_scalar", parity)
    led.check("single", "batched_equals_scalar", parity)


def traced(led) -> None:
    budget = led.budget
    tracer = Tracer()
    times: dict = {}
    data, queries, truth, index = setup(led.seed, budget, times)
    led.metric("datasets.generate_s", times["generate_s"])
    led.metric("metrics.ground_truth_s", times["ground_truth_s"])
    n, n_queries = data.shape[0], queries.shape[0]
    ram = run_workload(index, queries, truth, K, WIDTH)

    # summarization.quantization + core.serialization, the steps of to_disk_tier
    tracer.phase = "persist"
    with tracer.span("quantization.fit"):
        pq, fit_s = timed(
            ProductQuantizer.fit, data,
            n_subspaces=largest_subspace_count(data.shape[1], 16),
            n_centroids=min(256, n),
            rng=np.random.default_rng(INDEX_SEED ^ 0xD15C),
        )
    with tracer.span("quantization.encode"):
        codes, encode_s = timed(pq.encode, data)
    directory = tier_dir("traced")
    with tracer.span("serialization.save_disk_tier"):
        _, save_s = timed(
            save_disk_tier, directory, index._kernel_graph(), data, pq, codes, index=index
        )
    opens = [timed(open_disk_tier, directory)[1] for _ in range(OPEN_REPEATS)]
    tier = open_disk_tier(directory)
    led.metric("quantization.fit_s", fit_s)
    led.metric("quantization.encode_s", encode_s)
    led.metric("serialization.save_s", save_s)
    led.metric("serialization.open_ms", median(opens) * 1000.0, opens)
    led.metric("serialization.file_mb", tier.file_bytes() / 2**20)
    led.metric("serialization.resident_mb", tier.resident_bytes() / 2**20)
    led.ops("persist", n)

    # the disk query path, its PQ children timed by the proxy
    disk = load_disk_index(directory)
    measured, plain_s = timed(run_workload, disk, queries, truth, K, WIDTH)
    led.metric("disk.approx_calls_per_query", measured.mean_approx_calls)
    led.metric("disk.page_reads_per_query", measured.mean_page_reads)
    led.metric("disk.recall_gap", ram.recall - measured.recall)
    seeds = []
    for j in range(n_queries):
        disk.seed_query_rng(j)
        seeds.append(disk._query_seeds(queries[j]))
    computer = disk.computer
    proxy = pq_proxy(computer, tracer)
    batch_search_pq(disk.graph, computer, queries, seeds, K, WIDTH)
    tracer.phase = "kernels.pq_batch"
    since = tracer.mark()
    with tracer.span("kernels.batch_search_pq"):
        batch_search_pq(disk.graph, proxy, queries, seeds, K, WIDTH)
    totals = tracer.totals(since)
    per_query = 1e6 / n_queries
    led.metric("kernels.pq_batch_us_per_query", totals["kernels.batch_search_pq"]["total_s"] * per_query)
    led.metric("distances.lut_build_us_per_query", totals["distances.build_lut"]["total_s"] * per_query)
    led.metric("distances.lut_segmented_us_per_query", totals["distances.lut_segmented"]["total_s"] * per_query)
    led.metric("distances.rerank_us_per_query", totals["distances.rerank"]["total_s"] * per_query)

    disk.computer = proxy
    try:
        tracer.phase = "overhead"
        _, proxied_s = timed(run_workload, disk, queries, truth, K, WIDTH)
    finally:
        disk.computer = computer
    led.metric("trace.overhead_share", 1.0 - plain_s / proxied_s)

    # resident growth of a search in a process that never saw the dataset
    probe = probe_disk_search(directory, queries, K, WIDTH)
    growth = probe["peak_rss_bytes"] - probe["baseline_rss_bytes"]
    led.metric("disk.search_rss_share", growth / probe["file_bytes"])
    led.ops("traced", 4 * n_queries)
    led.tracer = tracer
