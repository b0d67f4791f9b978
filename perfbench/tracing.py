"""Span tracing around the package's public layer functions.

The tracer patches module attributes from outside the package: every
module under ``comret`` that holds a target function (by identity, so a
``from .fusion import x`` copy is patched too) gets a wrapper that records
a span. Spans live in memory as tuples and are written out at the end.

A target that does not exist (a later refactor removed or renamed it) is
reported as absent; nothing fails. Worker threads started by the package
(``run_queries`` and the diagnostics pool) have no span of their own on
entry, so their spans take the innermost open span of the thread that set
the current operation as parent.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import sys
import threading
import time

# (span name, module, attribute). Several attributes may share a span name
# when they are alternative implementations of one layer step.
TARGETS = (
    ("kernels.inner_products", "comret._kernels", "inner_products"),
    ("kernels.logistic", "comret._kernels", "logistic"),
    ("fusion.zscore_normalize", "comret.fusion", "zscore_normalize"),
    ("fusion.fuse", "comret.fusion", "fuse_ucmr"),
    ("fusion.fuse", "comret.fusion", "fuse_linear"),
    ("fusion.fuse", "comret.fusion", "blend"),
    ("fusion.retrieve", "comret.fusion", "retrieve"),
    ("fusion.run_queries", "comret.fusion", "run_queries"),
    ("fusion.write_run", "comret.fusion", "write_run"),
    ("fusion.read_run", "comret.fusion", "read_run"),
    ("store.parse_embedding_jsonl", "comret.store", "parse_embedding_jsonl"),
    ("store.parse_query_jsonl", "comret.store", "parse_query_jsonl"),
    ("store.build_index", "comret.store", "build_index"),
    ("store.save_index", "comret.store", "save_index"),
    ("store.load_index", "comret.store", "load_index"),
    ("store.read_matrix", "comret.store", "read_matrix"),
    ("metrics.read_qrels", "comret.metrics", "read_qrels"),
    ("metrics.evaluate_run", "comret.metrics", "evaluate_run"),
    ("metrics.write_report", "comret.metrics", "write_report"),
    ("diagnostics.modality_divergence_report", "comret.diagnostics", "modality_divergence_report"),
    ("cli.cmd_ingest", "comret.cli", "cmd_ingest"),
    ("cli.cmd_retrieve", "comret.cli", "cmd_retrieve"),
    ("cli.cmd_eval", "comret.cli", "cmd_eval"),
    ("cli.cmd_ablate", "comret.cli", "cmd_ablate"),
    ("cli.cmd_diagnose", "comret.cli", "cmd_diagnose"),
)

#: Spans whose resident-memory growth is sampled while they run.
MEMORY_SPANS = ("store.parse_embedding_jsonl", "diagnostics.modality_divergence_report")
SAMPLE_INTERVAL_S = 0.002

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _sweep_info(args, kwargs, result):
    """Bytes swept and a key for the (query vector, matrix) pair."""
    matrix, query = args[0], args[1]
    key = (
        hashlib.blake2b(query.tobytes(), digest_size=16).digest(),
        matrix.__array_interface__["data"][0],
        matrix.shape,
    )
    return {"bytes": int(matrix.shape[0]) * int(matrix.shape[1]) * 4, "pair": key}


def _matrix_bytes(args, kwargs, result):
    return {"bytes": int(result.data.nbytes)}


def _rows(args, kwargs, result):
    return {"rows": len(result)}


def _threads(args, kwargs, result):
    threads = kwargs.get("threads", args[3] if len(args) > 3 else 1)
    return {"threads": min(int(threads), len(args[1]))}


#: Extra facts recorded per span, computed after the call. A failure here
#: (the function's signature changed) drops the facts, never the call.
ANNOTATE = {
    "kernels.inner_products": _sweep_info,
    "store.read_matrix": _matrix_bytes,
    "fusion.run_queries": _threads,
    "store.parse_embedding_jsonl": _rows,
}


class _MemorySampler:
    """Polls this process's RSS in a thread; ``peak`` is the growth seen."""

    def __init__(self):
        self.base = rss_bytes()
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.peak = max(self.peak, rss_bytes() - self.base)

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return max(self.peak, rss_bytes() - self.base)


class Tracer:
    """In-memory span recorder. Create one, ``attach()``, run, ``detach()``."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, thread, facts)
        self.op = 0
        self.attached: dict[str, list[str]] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields a dict for extra facts.

        A thread with no open span of its own (a pool worker) takes the
        innermost open span of the main thread as parent.
        """
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span_id = self._new_id()
        stack.append(span_id)
        facts: dict = {}
        start = time.perf_counter()
        try:
            yield facts
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op, threading.get_ident(), facts))

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        sampled = name in MEMORY_SPANS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as facts:
                sampler = _MemorySampler() if sampled else None
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    if sampler is not None:
                        facts["peak_alloc"] = sampler.stop()
                    if annotate is not None:
                        try:
                            facts.update(annotate(args, kwargs, result))
                        except Exception:  # signature changed; keep the span, drop the facts
                            pass

        return traced

    # -- patching ----------------------------------------------------------

    def attach(self) -> None:
        import importlib

        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None or not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            holders = []
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "comret" or mod_name.startswith("comret.")) or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        holders.append(f"{mod_name}.{key}")
            self.attached.setdefault(name, []).extend(holders)

    def detach(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"attached": self.attached, "absent": self.absent}) + "\n")
            for span_id, name, start, end, parent, op, thread, facts in self.spans:
                facts = {k: v for k, v in facts.items() if k != "pair"}
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end, "parent": parent,
                         "op": op, "thread": thread, **facts}
                    )
                    + "\n"
                )


def per_span_overhead_s(repeats: int = 20000) -> float:
    """Median extra cost of one traced call over a plain call, in seconds."""
    tracer = Tracer()

    def noop(x):
        return x

    wrapped = tracer.wrap("calibrate", noop)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(repeats):
            noop(i)
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in range(repeats):
            wrapped(i)
        traced = time.perf_counter() - t0
        costs.append((traced - plain) / repeats)
        tracer.spans.clear()
    costs.sort()
    return costs[len(costs) // 2]


# --- per-layer metrics from spans -----------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, _, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, *_ in spans:
        covered = [(max(lo, start), min(hi, end)) for lo, hi in children.get(span_id, ()) if hi > start and lo < end]
        out[span_id] = (end - start) - _union_length(covered)
    return out


#: Per-layer metrics of a traced run: (name, unit). A layer a workload
#: never calls, or a wrapper that did not attach, reports 0.
LAYER_METRICS = (
    ("kernels.inner_products.ms_per_call", "ms"),
    ("kernels.inner_products.gbytes_per_s", "GB/s"),
    ("kernels.inner_products.calls_per_query", "count"),
    ("kernels.inner_products.redundant_share", "share"),
    ("kernels.logistic.ms", "ms"),
    ("fusion.zscore_normalize.ms", "ms"),
    ("fusion.fuse.ms", "ms"),
    ("fusion.retrieve.self_ms", "ms"),
    ("fusion.run_queries.parallel_efficiency", "share"),
    ("fusion.write_run.ms", "ms"),
    ("fusion.read_run.ms", "ms"),
    ("metrics.read_qrels.ms", "ms"),
    ("metrics.evaluate_run.ms", "ms"),
    ("store.load_index.ms", "ms"),
    ("store.read_matrix.mb_per_s", "MB/s"),
    ("store.parse_query_jsonl.ms", "ms"),
    ("store.parse_embedding_jsonl.rows_per_s", "1/s"),
    ("store.parse_embedding_jsonl.peak_alloc_mb", "MB"),
    ("store.build_index.ms", "ms"),
    ("store.save_index.ms", "ms"),
    ("diagnostics.modality_divergence_report.self_ms", "ms"),
    ("diagnostics.modality_divergence_report.peak_alloc_mb", "MB"),
    ("cli.cmd_ingest.self_ms", "ms"),
    ("cli.cmd_retrieve.self_ms", "ms"),
    ("cli.cmd_eval.self_ms", "ms"),
    ("cli.cmd_ablate.self_ms", "ms"),
    ("cli.cmd_diagnose.self_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.spans_per_op", "count"),
    ("trace.wrappers_attached", "count"),
)


def layer_metrics(tracer: Tracer, op_queries: dict[int, int], count_from_op: int, span_cost_s: float) -> dict:
    """Per-layer numbers from the recorded spans.

    Times are means per call. Counts (``calls_per_query``,
    ``redundant_share``) cover operations from ``count_from_op`` on, so a
    warm-up operation does not make them depend on the run length.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def mean_ms(name):
        xs = by_name.get(name, ())
        return 1e3 * total(name) / len(xs) if xs else 0.0

    def self_ms(name):
        xs = by_name.get(name, ())
        return 1e3 * sum(selfs[s[0]] for s in xs) / len(xs) if xs else 0.0

    def fact_sum(name, key):
        return sum(s[7].get(key, 0) for s in by_name.get(name, ()))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    out = {}
    sweeps = by_name.get("kernels.inner_products", [])
    counted = [s for s in sweeps if s[5] >= count_from_op]
    queries = sum(q for op, q in op_queries.items() if op >= count_from_op)
    distinct = {(s[5], s[7]["pair"]) for s in counted if "pair" in s[7]}
    out["kernels.inner_products.ms_per_call"] = mean_ms("kernels.inner_products")
    out["kernels.inner_products.gbytes_per_s"] = rate(fact_sum("kernels.inner_products", "bytes"), total("kernels.inner_products")) / 1e9
    out["kernels.inner_products.calls_per_query"] = len(counted) / queries if queries else 0.0
    out["kernels.inner_products.redundant_share"] = 1 - len(distinct) / len(counted) if counted else 0.0
    out["kernels.logistic.ms"] = mean_ms("kernels.logistic")
    out["fusion.zscore_normalize.ms"] = mean_ms("fusion.zscore_normalize")
    out["fusion.fuse.ms"] = mean_ms("fusion.fuse")
    out["fusion.retrieve.self_ms"] = self_ms("fusion.retrieve")

    busy = capacity = 0.0
    retrieve_by_parent: dict[int, float] = {}
    for s in by_name.get("fusion.retrieve", ()):
        retrieve_by_parent[s[4]] = retrieve_by_parent.get(s[4], 0.0) + (s[3] - s[2])
    for s in by_name.get("fusion.run_queries", ()):
        busy += retrieve_by_parent.get(s[0], 0.0)
        capacity += (s[3] - s[2]) * s[7].get("threads", 1)
    out["fusion.run_queries.parallel_efficiency"] = busy / capacity if capacity else 0.0

    for name in ("fusion.write_run", "fusion.read_run", "metrics.read_qrels", "metrics.evaluate_run",
                 "store.load_index", "store.parse_query_jsonl", "store.build_index", "store.save_index"):
        out[f"{name}.ms"] = mean_ms(name)
    out["store.read_matrix.mb_per_s"] = rate(fact_sum("store.read_matrix", "bytes"), total("store.read_matrix")) / 1e6
    out["store.parse_embedding_jsonl.rows_per_s"] = rate(fact_sum("store.parse_embedding_jsonl", "rows"),
                                                         total("store.parse_embedding_jsonl"))
    for name in ("store.parse_embedding_jsonl", "diagnostics.modality_divergence_report"):
        out[f"{name}.peak_alloc_mb"] = max((s[7].get("peak_alloc", 0) for s in by_name.get(name, ())), default=0) / 1e6
    out["diagnostics.modality_divergence_report.self_ms"] = self_ms("diagnostics.modality_divergence_report")
    for cmd in ("ingest", "retrieve", "eval", "ablate", "diagnose"):
        out[f"cli.cmd_{cmd}.self_ms"] = self_ms(f"cli.cmd_{cmd}")

    ops = [s for s in spans if s[1].startswith("bench.")]
    layer_spans = len(spans) - len(ops)
    op_time = sum(s[3] - s[2] for s in ops)
    out["trace.overhead_share"] = layer_spans * span_cost_s / op_time if op_time else 0.0
    out["trace.spans_per_op"] = layer_spans / len(ops) if ops else 0.0
    out["trace.wrappers_attached"] = float(len(TARGETS) - len(tracer.absent))
    return out
