"""Worker-count, kernel-backend, and round-size scaling of the II builder.

Not a paper figure: this benchmark characterizes the construction-side twin
of the batch-query engine.  A 20k-point synthetic dataset is built with the
ParlayANN-style prefix-doubling builder at worker counts 1, 2, and 4, and
the builder's guarantee is asserted unconditionally: the graph's edges and
the aggregate distance-calculation count are bit-identical at every worker
count AND at every construction-kernel backend (``python``, ``scalar``).
The throughput expectation (>1.5x build throughput at 4 workers) is
asserted only when the machine actually has 4+ cores to scale onto; on
smaller runners the table is still recorded.

A second table breaks the single-worker build into its phases — candidate
search, diversification/overflow prune, merge bookkeeping — for each kernel
backend, at the fixed ISSUE reference point n=1000/R=12/L=32.  The batched
kernels (vectorized beam searches + lockstep diversification) must deliver
at least 2x single-worker build throughput over the scalar reference path
at that point; this is asserted.

A third table sweeps ``max_round_size``: smaller rounds search a fresher
prefix graph (more synchronization, better candidates), larger rounds
parallelize more coarsely — the knob trades build quality against speed.

Environment knobs: ``REPRO_SCALE`` multiplies the 20k point count (the
kernel-phase table always runs at n=1000).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.batch_build import build_ii_graph_batched
from repro.core.distances import DistanceComputer
from repro.core.incremental import build_ii_graph
from repro.core.kernels import resolve_backend
from repro.datasets.synthetic import generate
from repro.eval.reporting import Report

SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))
N_POINTS = max(int(20_000 * SCALE), 64)
MAX_DEGREE = 12
WIDTH = 32
WORKER_COUNTS = (1, 2, 4)
ROUND_CAPS = (256, 1024, None)
KERNELS = ("scalar", "python")
# the ISSUE reference point for the kernel speedup claim
PHASE_N = 1000


def _build(data, workers, max_round_size=None, kernel=None):
    computer = DistanceComputer(data)
    start = time.perf_counter()
    result = build_ii_graph(
        computer,
        max_degree=MAX_DEGREE,
        beam_width=WIDTH,
        diversify="rnd",
        rng=np.random.default_rng(11),
        track_pruning=False,
        n_workers=workers,
        max_round_size=max_round_size,
        kernel=kernel,
    )
    elapsed = time.perf_counter() - start
    return result, elapsed


def _phase_build(data, kernel, repeats=3):
    """Best-of-N single-worker build with per-phase timings."""
    best = None
    for _ in range(repeats):
        computer = DistanceComputer(data)
        phases: dict[str, float] = {}
        start = time.perf_counter()
        result = build_ii_graph_batched(
            computer,
            max_degree=MAX_DEGREE,
            beam_width=WIDTH,
            diversify="rnd",
            rng=np.random.default_rng(11),
            track_pruning=False,
            n_workers=1,
            kernel=kernel,
            phase_times=phases,
        )
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[1]:
            best = (result, elapsed, phases)
    return best


def _edge_fingerprint(graph):
    """Order-sensitive digest of every adjacency list."""
    parts = [graph.neighbors(node) for node in range(graph.n)]
    flat = np.concatenate([p for p in parts if p.size] or [np.empty(0, np.int64)])
    degrees = graph.degrees()
    return hash((flat.tobytes(), degrees.tobytes()))


def test_parallel_build_scaling():
    data = generate("deep", N_POINTS, seed=7)

    builds = {workers: _build(data, workers) for workers in WORKER_COUNTS}
    base_result, base_elapsed = builds[1]

    report = Report("parallel_build")
    report.add_metadata(
        n_points=N_POINTS,
        max_degree=MAX_DEGREE,
        beam_width=WIDTH,
        kernel=resolve_backend(None),
        worker_counts=list(WORKER_COUNTS),
        cores=os.cpu_count(),
    )
    report.add_table(
        ["workers", "build s", "points/s", "speedup", "dist calls", "edges"],
        [
            [
                workers,
                round(elapsed, 2),
                round(N_POINTS / elapsed, 1),
                round(base_elapsed / elapsed, 2),
                result.distance_calls,
                result.graph.num_edges(),
            ]
            for workers, (result, elapsed) in builds.items()
        ],
        title=f"Batched build scaling, n={N_POINTS}, R={MAX_DEGREE}, "
        f"L={WIDTH} ({os.cpu_count()} cores)",
    )

    # --- kernel-backend phase breakdown at the fixed reference point -----
    phase_data = generate("deep", PHASE_N, seed=7)
    phase_runs = {kern: _phase_build(phase_data, kern) for kern in KERNELS}
    scalar_elapsed = phase_runs["scalar"][1]
    phase_rows = []
    for kern, (result, elapsed, phases) in phase_runs.items():
        phase_rows.append(
            [
                kern,
                round(elapsed, 3),
                round(phases.get("search", 0.0), 3),
                round(phases.get("prune", 0.0), 3),
                round(phases.get("merge", 0.0), 3),
                round(scalar_elapsed / elapsed, 2),
                result.distance_calls,
            ]
        )
    report.add_table(
        ["kernel", "build s", "search s", "prune s", "merge s",
         "speedup vs scalar", "dist calls"],
        phase_rows,
        title=f"Construction-kernel phase breakdown, n={PHASE_N}, "
        f"R={MAX_DEGREE}, L={WIDTH}, 1 worker (best of 3)",
    )
    report.add_metadata(
        phase_breakdown={
            kern: {
                "build_s": round(elapsed, 4),
                "phases_s": {k: round(v, 4) for k, v in phases.items()},
                "speedup_vs_scalar": round(scalar_elapsed / elapsed, 3),
            }
            for kern, (result, elapsed, phases) in phase_runs.items()
        },
    )

    sweep_workers = min(4, os.cpu_count() or 1)
    cap_rows = []
    for cap in ROUND_CAPS:
        result, elapsed = _build(data, sweep_workers, max_round_size=cap)
        cap_rows.append(
            [
                cap if cap is not None else "uncapped",
                round(elapsed, 2),
                round(N_POINTS / elapsed, 1),
                result.distance_calls,
                result.graph.num_edges(),
            ]
        )
    report.add_table(
        ["round cap", "build s", "points/s", "dist calls", "edges"],
        cap_rows,
        title=f"Round-size sweep at {sweep_workers} workers",
    )
    report.save()

    # the determinism guarantee holds on any machine
    base_fingerprint = _edge_fingerprint(base_result.graph)
    for workers, (result, _) in builds.items():
        assert result.distance_calls == base_result.distance_calls, (
            f"{workers}-worker build performed {result.distance_calls} "
            f"distance calls, sequential round loop {base_result.distance_calls}"
        )
        assert _edge_fingerprint(result.graph) == base_fingerprint, (
            f"{workers}-worker build produced different edges"
        )

    # every construction-kernel backend is bit-identical to the scalar
    # reference — graph edges and distance charges alike (unconditional)
    for kern in KERNELS:
        kern_result, _ = _build(data, 1, kernel=kern)
        assert kern_result.distance_calls == base_result.distance_calls, (
            f"kernel={kern} build charged {kern_result.distance_calls} "
            f"distance calls, default kernel {base_result.distance_calls}"
        )
        assert _edge_fingerprint(kern_result.graph) == base_fingerprint, (
            f"kernel={kern} build produced different edges"
        )
    phase_fps = {
        kern: (
            _edge_fingerprint(result.graph),
            result.distance_calls,
        )
        for kern, (result, _, _) in phase_runs.items()
    }
    assert phase_fps["python"] == phase_fps["scalar"], (
        "python kernel diverged from scalar at the phase-breakdown point"
    )

    # the batched construction kernels must at least double single-worker
    # build throughput over the scalar reference at n=1000/R=12/L=32
    python_elapsed = phase_runs["python"][1]
    assert scalar_elapsed >= 2.0 * python_elapsed, (
        f"python-kernel build took {python_elapsed:.2f}s, not >=2x faster "
        f"than the scalar reference's {scalar_elapsed:.2f}s"
    )

    # the throughput claim needs cores to scale onto
    if (os.cpu_count() or 1) >= 4:
        _, elapsed_4 = builds[4]
        assert base_elapsed > 1.5 * elapsed_4, (
            f"4-worker build took {elapsed_4:.1f}s, not >1.5x faster than "
            f"the sequential round loop's {base_elapsed:.1f}s"
        )
