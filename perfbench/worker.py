"""Timed phase of one workload, run in a process of its own.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR OUT_JSON

The benchmark process starts this after set-up, with ``src`` on
PYTHONPATH. It writes raw timings and outputs to OUT_JSON, plus the span
file next to it when TRACE is 1.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import tracing
import workloads


def main(argv: list[str]) -> int:
    name, seed, seconds, traced, work, out = argv
    wl = workloads.make(name, int(seed))
    tracer = None
    if traced == "1":
        tracer = tracing.Tracer()
        tracer.attach()
    ctx = workloads.Context(Path(work), float(seconds), tracer)
    raw = wl.run(ctx)
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer is not None:
        tracer.detach()
        cost = tracing.per_span_overhead_s()
        raw["layers"] = tracing.layer_metrics(tracer, ctx.op_queries, raw["count_from_op"], cost)
        raw["trace"] = {"attached": tracer.attached, "absent": tracer.absent, "span_cost_us": cost * 1e6}
        tracer.write(Path(out).with_suffix(".spans.jsonl"))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
