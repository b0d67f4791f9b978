#!/usr/bin/env python3
"""comret's benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload interactive-100k --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src``.
Steps: set up the seeded inputs three times (``setup_s`` is the median),
run the timed phase in a fresh worker process, check every operation's
output against the oracle, and print the metrics. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the worker wraps the
package's layer functions and the metrics are per layer.

The last line of stdout is the result object; the lines before it are
informational (environment, the workload's named figures, the acceptance-10
budget, output hashes, any failed checks). A copy of everything goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
SETUPS = 3
#: Every run must end within this many seconds, set-up included.
DEADLINE_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def flush(work: Path) -> None:
    """Write the set-up's files to disk, so their writeback does not run
    during the timed phase."""
    for path in work.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def environment(comret, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CMRAG_THREADS")
    return {
        "kernel_backend": getattr(comret, "KERNEL_BACKEND", "absent"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "comret" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'comret'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import comret
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Seeds feed NumPy's SeedSequence, which takes non-negative integers.
    wl = workloads.make(args.workload, args.seed % 2**64)
    env = environment(comret, workloads.nproc())

    work = HERE / "work" / f"{args.workload}-{args.seed}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s = []
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            t0 = time.perf_counter()
            wl.setup(work)
            setup_s.append(time.perf_counter() - t0)
        flush(work)

        raw_path = work / "worker.json"
        worker_env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        budget = DEADLINE_S - (time.perf_counter() - started)
        try:
            subprocess.run(
                [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds),
                 str(args.trace), str(work), str(raw_path)],
                env=worker_env, stdout=sys.stderr, check=True, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            print(f"error: timed phase still running after {budget:.0f}s", file=sys.stderr)
            return 1
        except subprocess.CalledProcessError as exc:
            print(f"error: worker exited with code {exc.returncode}", file=sys.stderr)
            return 1
        raw = json.loads(raw_path.read_text(encoding="utf-8"))
        attempted, failed, problems, hashes = wl.check(work, raw)
        if args.trace:
            shutil.copy(work / "worker.spans.jsonl", stem.with_suffix(".spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = wl.end_to_end(raw)
    detail = e2e.pop("detail")
    e2e["setup_s"] = statistics.median(setup_s)
    e2e["peak_rss_mb"] = raw["peak_rss_mb"]
    units = dict(END_TO_END)
    if args.trace:
        units = dict(tracing.LAYER_METRICS)
        values = raw["layers"]
    else:
        values = e2e
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_s": setup_s, "detail": detail, "error_rate": f"{failed}/{attempted}",
        "problems": problems[:20], "outputs_sha256": hashes,
    }
    if args.trace:
        info["wrappers"] = raw["trace"]
    if "ucmr_ms_p50" in detail:
        dual, single = detail["ucmr_ms_p50"], detail["image_only_ms_p50"]
        ok = dual < 250 and dual < 2.5 * single
        info["acceptance_10"] = (f"dual p50 {dual:.1f} ms (< 250), image-only p50 {single:.1f} ms, "
                                 f"ratio {dual / single:.2f} (< 2.5): {'PASS' if ok else 'FAIL'}")
    for key, value in info.items():
        print(f"{key}: {json.dumps(value)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    stem.with_suffix(".json").write_text(json.dumps({**info, "result": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


#: End-to-end metrics: (name, unit). See README.md for what each one
#: measures on each workload.
END_TO_END = (
    ("setup_s", "s"),
    ("ready_s", "s"),
    ("latency_ms_p50", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
