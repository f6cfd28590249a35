"""The perf ledger: five traced end-to-end workloads, one command.

    python3 benchmarks/ledger/run.py                       # every workload, untraced then traced
    python3 benchmarks/ledger/run.py --workload ram-search --seed 7 --seconds 10 --trace 0

With ``--workload`` one workload runs in this process and the last line of
standard output is the JSON object the benchmark driver reads.  Without it
every workload runs in a fresh subprocess of its own, untraced for the
end-to-end metrics and traced for the per-layer ones, and ``--out`` receives
the whole set with a provenance block.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# Before numpy is imported: the wheel's OpenBLAS starts one thread per core
# (up to 64) and the container has 2, so BLAS threads would contend with the
# serving engine's executor thread.  The REPRO_* knobs are dropped so the
# product's default kernel backend is what gets measured.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_PINS:
    os.environ[_name] = "1"
for _name in ("REPRO_KERNEL", "REPRO_SCALE", "REPRO_QUERIES"):
    os.environ.pop(_name, None)

import ctypes

# One malloc arena.  glibc gives the serving engine's executor thread an arena
# of its own when it first finds the main one locked, which is a race: the
# same `serve-churn` run then peaks at 122 MB or at 143 MB.
M_ARENA_MAX = -8
try:
    ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1)
except (OSError, AttributeError):
    pass  # not glibc: `peak_rss_mb` keeps that luck

import argparse
import importlib
import json
import platform
import shutil
import signal
import subprocess
import tempfile
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR.parents[1] / "src"))

WORKLOAD_MODULES = {
    "build": "workload_build",
    "ram-search": "workload_ram",
    "filtered-search": "workload_filtered",
    "disk-search": "workload_disk",
    "serve-churn": "workload_serve",
}


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The two-worker layers (`batch_build`, `eval.parallel`) and the disk RSS
    probe close and join their own workers, but the shared memory they use
    starts ``multiprocessing``'s resource tracker, which nobody waits for:
    it outlives this process and, where pid 1 reaps nothing, stays behind
    as a zombie.  Closing its pipe ends it; anything else still a child is
    killed, and every child is reaped.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # closes the pipe, then waitpid
    me = str(os.getpid())
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # pid (comm) state ppid ...: comm may hold spaces and brackets
                parent = handle.read().rpartition(")")[2].split()[1]
            if parent == me:
                os.kill(int(entry), signal.SIGKILL)
        except OSError:
            continue  # ended while we looked
    while True:
        try:
            os.wait()
        except ChildProcessError:
            return


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            spans_path: str | None = None) -> dict:
    """Run one workload in this process and return its result."""
    from common import WORK_DIR, Budget, Ledger, load_spec

    spec = load_spec()
    module = importlib.import_module(WORKLOAD_MODULES[name])
    led = Ledger(name, seed, Budget(seconds, smoke), trace)
    try:
        (module.traced if trace else module.untraced)(led)
    finally:
        shutil.rmtree(WORK_DIR / str(os.getpid()), ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # never made, or another run's tiers are still in it
    result = led.finish(spec["per_layer"] if trace else spec["end_to_end"])
    if led.tracer is not None:
        result["spans"] = led.tracer.totals()
        if spans_path:
            led.tracer.dump(spans_path)
    return result


def print_result(result: dict) -> None:
    mode = "traced" if result["trace"] else "untraced"
    flag = "  [SMOKE: not comparable]" if result["smoke"] else ""
    print(f"== {result['workload']} ({mode}, seed {result['seed']}, "
          f"{result['wall_s']:.1f} s){flag}")
    skipped = set(result["not_applicable"])
    for name, entry in result["metrics"].items():
        if name in skipped:
            continue
        value = "n/a (too few samples)" if entry["value"] is None else f"{entry['value']:.6g}"
        count = f"  (n={entry['n']})" if "n" in entry else ""
        print(f"  {name:40s} {value:>14s} {entry['unit']}{count}")
    for check in result["checks"]:
        verdict = "ok" if check["ok"] else f"FAILED: {check['detail']}"
        print(f"  check {check['phase']}/{check['name']}: {verdict}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")


def driver_line(result: dict) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    })


def provenance(seed: int, seconds: float) -> dict:
    import numpy as np
    from repro.core.kernels import resolve_backend

    def git(*command) -> str:
        return subprocess.run(
            ["git", *command], cwd=LEDGER_DIR, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        # uncommitted work is measured as the commit it will become
        sha = git("rev-parse", "HEAD") + ("+uncommitted" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "kernel_backend": resolve_backend(None),
        "seed": seed,
        "seconds": seconds,
        "thread_pins": {name: os.environ[name] for name in THREAD_PINS},
    }


def run_all(args) -> int:
    """Every workload in its own subprocess: untraced, then traced."""
    names = [args.workload] if args.workload else list(WORKLOAD_MODULES)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    out = {
        "schema": 1,
        "smoke": args.smoke,
        "provenance": provenance(args.seed, args.seconds),
        "workloads": {},
    }
    ok = True
    with tempfile.TemporaryDirectory(dir=LEDGER_DIR, prefix=".work-") as tmp:
        for name in names:
            entry = out["workloads"].setdefault(name, {})
            for trace in modes:
                path = Path(tmp) / "result.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(int(trace)),
                    "--out", str(path),
                ] + (["--smoke"] if args.smoke else [])
                start = time.perf_counter()
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    print(f"{name}: exited with {done.returncode}", file=sys.stderr)
                    ok = False
                    continue
                with open(path) as handle:
                    result = json.load(handle)
                result["process_wall_s"] = time.perf_counter() - start
                entry["traced" if trace else "untraced"] = result
                # the child's last line is the driver's JSON object: drop it
                print("\n".join(done.stdout.splitlines()[:-1]))
                ok = ok and result["correct"]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(out, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one run's measured phases (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="1: the traced run (per-layer metrics); 0: untraced")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 8, one repetition; every metric name, no comparable number")
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument("--spans", help="with --workload and --trace 1: dump raw spans here")
    args = parser.parse_args(argv)
    if not (LEDGER_DIR.parents[1] / "src" / "repro").is_dir():
        sys.exit("run.py measures the program in src/repro, which is not in this checkout")
    if args.seconds is None:
        from common import load_spec

        args.seconds = float(load_spec()["run_seconds"])
    # the driver's form names a workload and a trace mode: run it right here
    if args.workload and args.trace is not None:
        try:
            result = run_one(
                args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.spans
            )
        finally:
            stop_children()
        if args.out:
            with open(args.out, "w") as handle:
                json.dump(result, handle)
        print_result(result)
        print(driver_line(result))
        return 0
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
