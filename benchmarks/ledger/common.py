"""Shared pieces of the perf ledger: sizing, timing, statistics, checks.

Every workload module builds its inputs from ``--seed``, runs its phases
through the helpers here, and files what it measured in a :class:`Ledger`.
``run.py`` turns the ledger into the printed table and the JSON result.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

from repro.datasets.synthetic import generate
from repro.eval.disk import peak_rss_bytes
from repro.eval.parallel import run_batch
from repro.eval.runner import run_workload

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
#: scratch space for disk tiers; inside the checkout, named in .gitignore
WORK_DIR = LEDGER_DIR / ".work"

K = 10
#: index construction keeps the program's own seed; ``--seed`` moves the inputs
INDEX_SEED = 11
QUERY_SEED_OFFSET = 7_777_770
#: the mixture (cluster centres, basis) every run samples; see :func:`draw`
LAYOUT_SEED = 7
POOL_ROWS = 10_000
#: p99 needs ten samples beyond it
MIN_P99_SAMPLES = 1000
#: how many times the set-up runs; ``setup_s`` is the median
SETUP_REPEATS = 3
#: queries on which the batched and scalar kernels must agree bit for bit
PARITY_QUERIES = 64
#: workload -> (phase that reports recall, floor): the first committed
#: baseline's ``recall_at_10`` (seed 7) minus 0.02.  ``disk-search`` gets
#: minus 0.05: PQ-resident search moves with the sample, 0.935 to 0.961 over
#: ten seeds, where no other workload moved by more than 0.013.
RECALL_FLOORS = {
    "build": ("search", 0.9539),
    "ram-search": ("batch", 0.9796),
    "filtered-search": ("batch", 0.9519),
    "disk-search": ("batch", 0.9101),
    "serve-churn": ("final", 0.9773),
}


def load_spec() -> dict:
    """The committed ``BENCHMARK.json``: the only list of metric names."""
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Budget:
    """Turns ``--seconds`` and ``--smoke`` into sizes and repetition counts.

    Work is a fixed function of ``(seconds, smoke)`` and never of the clock,
    so two runs with the same seed do the same operations and their exact
    counters can be compared for equality.
    """

    seconds: float
    smoke: bool = False

    def n(self, full: int, floor: int = 64) -> int:
        """A point or query count; smoke mode divides it by 8."""
        return max(full // 8, floor) if self.smoke else full

    def reps(self, per_10s: float) -> int:
        """Timed passes of a phase that gets ``per_10s`` passes in a 10 s run."""
        if self.smoke:
            return 1
        return max(1, round(per_10s * self.seconds / 10.0))

    @property
    def setup_repeats(self) -> int:
        return 1 if self.smoke else SETUP_REPEATS


def draw(name: str, rows: int, seed: int, queries: bool = False) -> np.ndarray:
    """``rows`` vectors that ``seed`` picks from a fixed pool of dataset ``name``.

    ``generate`` draws its cluster centres from its seed, so two seeds give
    two datasets of different difficulty and every counter moves by several
    per cent between them.  The benchmark fixes the mixture instead, as it
    fixes the dataset name, and lets ``--seed`` choose which points and
    which queries are sampled from it.  Queries come from a second pool
    generated under another seed, the repository's convention for query
    sets, so they are near but not inside the data's clusters.
    """
    pool_seed = LAYOUT_SEED + (QUERY_SEED_OFFSET if queries else 0)
    pool = generate(name, POOL_ROWS, seed=pool_seed)
    picks = np.random.default_rng((seed, int(queries))).choice(
        POOL_ROWS, size=rows, replace=False
    )
    return np.ascontiguousarray(pool[picks])


def percentiles_ms(latencies_s) -> tuple[float, float | None]:
    """``(p50, p99)`` in milliseconds; p99 is ``None`` below 1000 samples.

    A p99 over fewer samples has fewer than ten observations beyond it and
    is mostly the single worst call, so it is refused, not estimated.
    """
    lat = np.asarray(latencies_s, dtype=np.float64)
    if lat.size == 0:
        raise ValueError("no latency samples")
    p50 = float(np.percentile(lat, 50)) * 1000.0
    if lat.size < MIN_P99_SAMPLES:
        return p50, None
    return p50, float(np.percentile(lat, 99)) * 1000.0


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def time_single_queries(index, queries, k, width) -> tuple[list[float], list]:
    """Per-call latency of ``index.search`` one query at a time, and the answers.

    The per-query RNG is reseeded outside the timed region, exactly as the
    batch engine's scalar path does, so seeds match the batched run.
    """
    latencies, answers = [], []
    for j in range(queries.shape[0]):
        index.seed_query_rng(j)
        start = time.perf_counter()
        answers.append(index.search(queries[j], k, width))
        latencies.append(time.perf_counter() - start)
    return latencies, answers


def run_setups(led, setup):
    """Set up ``setup_repeats`` times and file the median wall as ``setup_s``.

    ``setup(seed, budget, times)`` returns the workload's inputs and records
    its own phase times in ``times``.  Returns the last repeat's inputs and
    every repeat's ``times``.
    """
    walls, phases = [], []
    parts = None
    for _ in range(led.budget.setup_repeats):
        parts = None  # the repeat before this one is not part of the workload
        release_freed_memory()
        times: dict = {}
        parts, wall = timed(setup, led.seed, led.budget, times)
        walls.append(wall)
        phases.append(times)
    release_freed_memory()
    led.metric("setup_s", median(walls), walls)
    return parts, phases


def release_freed_memory() -> None:
    """Collect garbage and hand the allocator's free pages back to the kernel.

    ``peak_rss_mb`` is a high-water mark.  Left alone, each set-up repeat
    stacks on what the one before it freed, and whether a later phase's
    large array fits a hole in the heap or is mapped on top of it is the
    allocator's luck: the same run reads 137 MB or 171 MB.  Trimmed, the
    mark is the larger of one set-up's peak and the measured phases' peak.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: the mark keeps its luck


def batch_phase(led, index, queries, truth, width: int, reps: float):
    """The ``batch`` phase: ``run_workload`` on the default kernel, one caller.

    One untimed warm-up pass (CSR cache, scratch buffers), then the timed
    passes; files ``batch_qps`` as their median, and the recall and counters
    of the last pass, which repeat exactly for a fixed seed.
    """
    run_workload(index, queries, truth, K, width)
    qps = []
    for _ in range(led.budget.reps(reps)):
        measured, wall = timed(run_workload, index, queries, truth, K, width)
        qps.append(queries.shape[0] / wall)
        led.ops("batch", queries.shape[0])
    led.metric("batch_qps", median(qps), qps)
    led.metric("recall_at_10", measured.recall)
    led.metric("dist_calls_per_query", measured.mean_distance_calls)
    led.exact.update(
        recall_at_10=measured.recall,
        dist_calls_per_query=measured.mean_distance_calls,
        hops_per_query=measured.mean_hops,
        approx_calls_per_query=measured.mean_approx_calls,
        page_reads_per_query=measured.mean_page_reads,
    )
    return measured


def single_phase(led, index, queries, width: int, reps: float) -> list:
    """The ``single`` phase: ``index.search`` one query at a time.

    Files ``query_p50_ms`` and ``query_p99_ms`` from each pass's own
    percentiles (see :func:`file_latency`) and returns the last pass's
    answers for the checks.
    """
    time_single_queries(index, queries[:100], K, width)
    p50s, p99s = [], []
    for _ in range(led.budget.reps(reps)):
        rep, answers = time_single_queries(index, queries, K, width)
        p50, p99 = percentiles_ms(rep)
        p50s.append(p50)
        p99s.append(p99)
        led.ops("single", len(rep))
    file_latency(led, p50s, p99s, queries.shape[0])
    return answers


def file_latency(led, p50s, p99s, per_pass: int) -> None:
    """File the median over passes of each pass's p50, and the lowest p99.

    A pass's p99 is its ten slowest calls in a thousand, and a shared host
    only ever adds to them: one seed's passes read 1.51 to 2.00 ms, and when
    the host is busy for a while most passes of a run read high, so that the
    median of five still moved by 20 % between runs.  The quietest pass is
    the one that measured the program; a tail the program itself makes is in
    every pass, that one too.  Pooling the passes would let one burst set
    the p99.
    """
    samples = len(p50s) * per_pass
    led.metric("query_p50_ms", median(p50s), p50s, n=samples)
    # a pass short of 1000 samples has no p99 (smoke mode); then none is filed
    if any(p is None for p in p99s):
        led.metric("query_p99_ms", None, n=samples)
    else:
        led.metric("query_p99_ms", min(p99s), p99s, n=samples)


def graph_digest(graph, extra: bytes = b"") -> str:
    """Content hash of a graph's adjacency, stable across processes.

    ``StreamingIndex.graph_fingerprint()`` uses ``hash()`` of bytes, which
    Python salts per process, so it cannot be compared between two runs.
    """
    digest = hashlib.sha1()
    digest.update(np.asarray(graph.degrees(), dtype=np.int64).tobytes())
    for node in range(graph.n):
        digest.update(np.asarray(graph.neighbors(node), dtype=np.int64).tobytes())
    digest.update(extra)
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# correctness checks (each returns a failure description or "")
# ----------------------------------------------------------------------
def check_answers(outcomes, k: int, n: int) -> str:
    """Answers hold ``k`` unique in-range ids, or ``(-1, inf)`` padding."""
    for pos, outcome in enumerate(outcomes):
        ids = np.asarray(outcome.ids)
        dists = np.asarray(outcome.dists)
        if ids.shape != (k,):
            return f"answer {pos} has {ids.shape} ids, expected ({k},)"
        real = ids[ids >= 0]
        if real.size != np.unique(real).size:
            return f"answer {pos} repeats an id"
        if real.size and real.max() >= n:
            return f"answer {pos} holds id {int(real.max())} >= n={n}"
        pad = ids < 0
        if pad.any() and not (np.all(ids[pad] == -1) and np.all(np.isinf(dists[pad]))):
            return f"answer {pos} pads with something other than (-1, inf)"
    return ""


def check_graph(graph, max_degree: int) -> str:
    """Ids in range, no self-loops, out-degree within the cap."""
    degrees = np.asarray(graph.degrees())
    if degrees.size and int(degrees.max()) > max_degree:
        return f"out-degree {int(degrees.max())} exceeds {max_degree}"
    for node in range(graph.n):
        nbrs = np.asarray(graph.neighbors(node))
        if nbrs.size == 0:
            continue
        if int(nbrs.min()) < 0 or int(nbrs.max()) >= graph.n:
            return f"node {node} points outside [0, {graph.n})"
        if np.any(nbrs == node):
            return f"node {node} has a self-loop"
    return ""


def check_kernel_parity(index, queries, k: int, width: int) -> str:
    """Default and ``scalar`` kernels agree bit for bit on every field."""
    batched = run_batch(index, queries, k=k, beam_width=width).outcomes
    scalar = run_batch(index, queries, k=k, beam_width=width, kernel="scalar").outcomes
    for pos, (a, b) in enumerate(zip(batched, scalar)):
        same = (
            np.array_equal(a.ids, b.ids)
            and np.asarray(a.dists).tobytes() == np.asarray(b.dists).tobytes()
            and a.hops == b.hops
            and a.distance_calls == b.distance_calls
            and a.approx_calls == b.approx_calls
            and a.page_reads == b.page_reads
        )
        if not same:
            return f"query {pos}: batched and scalar kernels disagree"
    return ""


# ----------------------------------------------------------------------
# the result under construction
# ----------------------------------------------------------------------
class Ledger:
    """What one run of one workload measured.

    ``metric`` files a named value with the per-repetition samples behind
    it (``compare.py`` reads their spread); ``exact`` files a counter that
    must repeat exactly for a fixed seed; ``ops``/``check`` keep the
    attempted/failed account: a failed check fails every operation of its
    phase.
    """

    def __init__(self, workload: str, seed: int, budget: Budget, trace: bool):
        self.workload = workload
        self.seed = seed
        self.budget = budget
        self.trace = trace
        self.metrics: dict[str, dict] = {}
        self.exact: dict[str, object] = {}
        self.checks: list[dict] = []
        self._ops: dict[str, int] = {}
        #: set by a traced run; ``run.py`` summarises its spans
        self.tracer = None
        self.started = time.perf_counter()

    def metric(self, name: str, value, samples=(), n: int | None = None) -> None:
        entry = {"value": None if value is None else float(value)}
        samples = [float(s) for s in samples]
        if samples:
            entry["samples"] = samples
        if n is not None:
            entry["n"] = int(n)
        self.metrics[name] = entry

    def ops(self, phase: str, count: int) -> None:
        self._ops[phase] = self._ops.get(phase, 0) + int(count)

    def check(self, phase: str, name: str, failure: str) -> None:
        self.checks.append(
            {"phase": phase, "name": name, "ok": not failure, "detail": failure}
        )

    @property
    def attempted(self) -> int:
        return sum(self._ops.values())

    @property
    def failed(self) -> int:
        bad = {c["phase"] for c in self.checks if not c["ok"]}
        return sum(count for phase, count in self._ops.items() if phase in bad)

    def finish(self, declared: list[dict]) -> dict:
        """Close the run: units from ``BENCHMARK.json``, names must match it.

        A traced run reports every per-layer metric; layers this workload
        never enters read 0 and are listed under ``not_applicable``.
        """
        if not self.trace:
            self.metric("peak_rss_mb", peak_rss_bytes() / 2**20)
            phase, floor = RECALL_FLOORS[self.workload]
            found = self.metrics["recall_at_10"]["value"]
            low = f"recall {found:.4f} is below the floor {floor}" if found < floor else ""
            self.check(phase, "recall_at_floor", low)
        names = [m["name"] for m in declared]
        missing = [n for n in names if n not in self.metrics]
        unknown = sorted(set(self.metrics) - set(names))
        if unknown or (missing and not self.trace):
            raise RuntimeError(
                f"{self.workload}: metrics disagree with BENCHMARK.json "
                f"(missing {missing}, undeclared {unknown})"
            )
        for name in missing:
            self.metric(name, 0.0)
        units = {m["name"]: m["unit"] for m in declared}
        for name, entry in self.metrics.items():
            entry["unit"] = units[name]
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.budget.seconds,
            "smoke": self.budget.smoke,
            "trace": self.trace,
            "correct": all(c["ok"] for c in self.checks),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: self.metrics[name] for name in names},
            "not_applicable": missing,
            "exact": self.exact,
            "checks": self.checks,
            "wall_s": time.perf_counter() - self.started,
        }
