"""Command-line pipeline: ingest -> retrieve -> eval -> ablate -> diagnose
-> train-toy.

Exit code 0 on success, 1 on any domain error or when memory runs out
(one ``error:`` line on stderr).
Data goes to stdout or the --out target. Query scoring (retrieve, ablate,
diagnose) shares each sweep's row blocks among --threads N threads,
every core the process may run on by default; no output byte depends on
their number. With more than one usable core, ingest parses its two
embedding files at once, the texts file in a forked worker process; the
process that ran it keeps NumPy's OpenBLAS at one thread afterwards.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable, TypeVar

from . import __version__, _kernels, diagnostics, fusion, metrics, store, training
from .core import MODE_SPECS, MODES, FusionConfig
from .errors import ComretError

DEFAULT_METRICS = "recall@5,ndcg@5,mrr@10"
THREADS_HELP = "threads per sweep (default: the usable cores); no output depends on it"

T = TypeVar("T")


def _parse(path: str, parser: Callable[[Iterable[str]], T]) -> T:
    """Run ``parser`` over the lines of a UTF-8 file as they are read; its
    errors are raised with ``path`` in front."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parser(fh)
    except UnicodeDecodeError:
        raise ComretError(f"cannot read {path}: not valid UTF-8")
    except ComretError as exc:
        raise ComretError(f"{path}: {exc}")


def _parse_pages(images: str, texts: str) -> tuple[list[store.Record], list[store.Record]]:
    """Both embedding files' records: the texts file parsed in a forked
    worker process while this one parses the images file.

    Parsing holds the GIL, so only a second process overlaps the two. On
    a pair of 1k x 1152 files and 2 vCPUs (medians of 10 fresh processes),
    one file after the other took 0.36 s and the forked worker 0.26 s.
    With one usable core, or no ``fork``, both are parsed here, one after
    the other. Either way the same function parses each file; if both are
    bad, the images file's error is raised, and no worker outlives the call.
    """
    if _kernels.default_threads() == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return _parse(images, store.parse_embedding_jsonl), _parse(texts, store.parse_embedding_jsonl)
    # fork, not spawn: the worker starts without a fresh import of NumPy.
    # No thread of comret's runs here. OpenBLAS shuts its pool down at the
    # fork, and any later change of its thread count would start a pool
    # that spins beside every sweep; so it is pinned at one thread from
    # here on, as the first multi-threaded sweep would pin it anyway.
    _kernels.pin_blas()
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("fork")) as pool:
        text_records = pool.submit(_parse, texts, store.parse_embedding_jsonl)
        image_records = _parse(images, store.parse_embedding_jsonl)
        try:
            return image_records, text_records.result()
        except BrokenProcessPool:
            raise ComretError(f"cannot parse {texts}: the worker process parsing it died")


def cmd_ingest(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    images, texts = _parse_pages(args.images, args.texts)
    index = store.build_index(images, texts, normalize=args.normalize)
    store.save_index(index, args.out)
    elapsed = time.perf_counter() - started
    print(f"pages={index.page_count} dim={index.dim} normalize={args.normalize} elapsed={elapsed:.2f}s")
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    cfg = FusionConfig(mode=args.mode, alpha=args.alpha, beta=args.beta, top_k=args.k)
    index = store.load_index(args.index)
    queries = _parse(args.queries, store.parse_query_jsonl)
    rankings = [ranking for (ranking,) in fusion.rank_queries(index, queries, [cfg], threads=args.threads)]
    rankings.sort(key=lambda r: r.query_id)
    with open(args.out, "w", encoding="utf-8") as fh:
        fusion.write_run(rankings, index.ids, cfg.mode, fh)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    run = _parse(args.run, fusion.read_run)
    qrels = _parse(args.qrels, metrics.read_qrels)
    report = metrics.evaluate_run(run, qrels, args.metrics.split(","))
    metrics.write_report(report, sys.stdout, as_json=args.json)
    if report.missing:
        print(f"warning: {len(report.missing)} qrels queries missing from run, scored 0", file=sys.stderr)
    return 0


#: Most values one --beta-sweep may expand to (a 0.001 step over [0, 1]);
#: each is one blend-and-rank pass per mode and query.
MAX_SWEEP_VALUES = 1001


def _parse_sweep(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise ComretError(f"--beta-sweep expects LO:HI:STEP, got {spec!r}")
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ComretError(f"bad sweep {spec!r}: LO, HI and STEP must be finite")
    if step <= 0 or hi < lo:
        raise ComretError(f"bad sweep {spec!r}: need step > 0 and HI >= LO")
    # Count the values before building them (int(steps) + 1, and one more
    # the rounding below may admit); the division may overflow to inf.
    steps = (hi - lo + 1e-12) / step
    if steps >= MAX_SWEEP_VALUES:
        raise ComretError(f"bad sweep {spec!r}: more than {MAX_SWEEP_VALUES} values")
    values = []
    for i in range(int(steps) + 2):
        v = round(lo + i * step, 12)
        if v > hi + 1e-12:
            break
        values.append(min(v, hi))
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ComretError(f"sweep value {v} outside [0,1]")
    return values


def cmd_ablate(args: argparse.Namespace) -> int:
    index = store.load_index(args.index)
    queries = _parse(args.queries, store.parse_query_jsonl)
    qrels = _parse(args.qrels, metrics.read_qrels)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        raise ComretError("--modes needs at least one fusion mode")
    for mode in modes:
        if mode not in MODES:
            raise ComretError(f"unknown mode {mode!r}; expected one of {MODES}")
    betas = _parse_sweep(args.beta_sweep) if args.beta_sweep else [args.beta]
    specs = [s.strip() for s in args.metrics.split(",")]

    # Every (mode, beta) is ranked from the same sweeps: each modality is
    # swept once per block of queries, not once per row of the table. A
    # mode that no beta weights ranks the same for every beta, and a
    # repeated mode as its first, so each distinct ranking runs once.
    cfgs = [FusionConfig(mode=mode, alpha=args.alpha, beta=beta, top_k=args.k) for mode in modes for beta in betas]
    rankings = [cfg if MODE_SPECS[cfg.mode].weight == "beta" else replace(cfg, beta=betas[0]) for cfg in cfgs]
    distinct = list(dict.fromkeys(rankings))
    runs: list[dict[str, list[str]]] = [{} for _ in distinct]
    for ranked in fusion.rank_queries(index, queries, distinct, threads=args.threads):
        for run, ranking in zip(runs, ranked):
            run[ranking.query_id] = [index.ids[row] for row in ranking.rows.tolist()]
    reports = {cfg: metrics.evaluate_run(run, qrels, specs) for cfg, run in zip(distinct, runs)}

    print("\t".join(["mode", "beta", *reports[distinct[0]].specs]))
    for cfg, ranking in zip(cfgs, rankings):
        report = reports[ranking]
        print("\t".join([cfg.mode, f"{cfg.beta:g}", *(f"{report.macro[s]:.6f}" for s in report.specs)]))
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    index = store.load_index(args.index)
    queries = _parse(args.queries, store.parse_query_jsonl)
    report = diagnostics.modality_divergence_report(index, queries, num_bins=args.bins, threads=args.threads)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "histogram.csv", "w", encoding="utf-8") as fh:
        report.write_csv(fh)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        report.write_summary(fh)
    print(f"kl_nats={report.kl_nats:.6g} samples={report.samples_per_modality} sigma_zero={len(report.sigma_zero)}")
    return 0


def cmd_train_toy(args: argparse.Namespace) -> int:
    cfg = training.TrainConfig(
        lam=args.lam,
        learning_rate=args.lr,
        steps=args.steps,
        batch_size=args.batch_size,
        momentum=args.momentum,
        seed=args.seed,
    )
    batch = _parse(args.triplets, training.load_triplets)
    result = training.train_toy(batch, cfg)
    report = result.report()
    initial, final = report["initial_loss"], report["final_loss"]
    if report["steps"] and final >= initial:
        print(f"warning: loss did not decrease: {initial:.6g} -> {final:.6g}", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "training_log.csv", "w", encoding="utf-8") as fh:
        training.write_log_csv(result.log, fh)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"steps={report['steps']} initial_loss={initial:.6g} final_loss={final:.6g} mrr@1={result.mrr_at_1:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="comret", description=__doc__)
    parser.add_argument("--version", action="version", version=f"comret {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build and persist an index from embedding JSONL files")
    p.add_argument("--images", required=True, help="image-embedding JSONL")
    p.add_argument("--texts", required=True, help="text-embedding JSONL")
    p.add_argument("--normalize", action="store_true", help="L2-normalize rows on ingest")
    p.add_argument("--out", required=True, help="output index directory")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("retrieve", help="score queries against an index, write a run file")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="query JSONL")
    p.add_argument("--mode", default="ucmr", choices=MODES)
    p.add_argument("--alpha", type=float, default=0.5, help="text weight for raw-linear")
    p.add_argument("--beta", type=float, default=0.1, help="text weight for normalized fusion")
    p.add_argument("--k", type=int, default=3, help="ranking depth")
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p.add_argument("--out", required=True, help="run TSV output path")
    p.set_defaults(fn=cmd_retrieve)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--metrics", default=DEFAULT_METRICS, help="comma-separated name@k specs")
    p.add_argument("--json", action="store_true", help="emit JSON instead of TSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="compare fusion modes (optionally sweeping beta) on one index")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--modes", required=True, help="comma-separated fusion modes")
    p.add_argument("--beta-sweep", default=None, help="LO:HI:STEP inclusive sweep of beta")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--metrics", default="mrr@10")
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("diagnose", help="pooled score-distribution report for both modalities")
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--bins", type=int, default=diagnostics.DEFAULT_BINS)
    p.add_argument("--threads", type=int, default=None, help=THREADS_HELP)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("train-toy", help="train the toy alignment objective on a triplet file")
    p.add_argument("--triplets", required=True, help="triplet JSONL")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5, help="text-loss weight")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--momentum", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_train_toy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ComretError, OSError) as exc:  # OSError: a missing, unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the last resort for a command whose memory grows with its inputs
        print(f"error: {args.command}: out of memory ({exc})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
