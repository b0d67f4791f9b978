"""The two workloads: inputs, timed phase and output checks.

Each workload has three steps:

* ``setup(work)`` writes the seeded inputs, using the package's own writer
  where the workload reads an index (runs in the benchmark process);
* ``run(ctx)`` is the timed phase (runs in a fresh worker process, so its
  peak RSS is the workload's alone) and returns raw timings and outputs;
* ``check(work, raw)`` compares every operation's output with the oracle
  and returns (attempted, failed, output hashes).

An operation is one call a user would make: one ``retrieve`` in the
interactive loop, one CLI command in the batch round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import traceback
from pathlib import Path

import numpy as np

import gen
import oracle


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_index(plan: gen.Plan, out: Path) -> np.ndarray:
    """Save the plan's index with the package's writer; return the query vectors."""
    import comret

    image, text = plan.matrices()
    queries = plan.query_vectors(image, text)
    ids = plan.ids
    index = comret.build_index(list(zip(ids, image)), list(zip(ids, text)))
    del image, text
    comret.save_index(index, out)
    return queries


class Context:
    """What the timed phase gets: its directory, run length and tracer."""

    def __init__(self, work: Path, seconds: float, tracer):
        self.work, self.seconds, self.tracer = work, seconds, tracer
        self.op_queries: dict[int, int] = {}  # op id -> queries handed to the program

    def op(self, op_id: int, queries: int, name: str):
        """Start operation ``op_id``; a span from the benchmark when tracing."""
        self.op_queries[op_id] = queries
        if self.tracer is None:
            return contextlib.nullcontext()
        self.tracer.op = op_id
        return self.tracer.span(f"bench.{name}")


# --- interactive-100k ------------------------------------------------------

#: Times ``ready_s`` is measured per run, spread evenly over the timed
#: phase; the median is reported.
READY_SAMPLES = 8


class Interactive:
    """One client in a closed loop calling ``retrieve`` (k=3) on a 100k-page
    index (both channels, 1152 dims, 920 MB): the acceptance-10 shape and
    the serving use. Queries cycle ucmr, ucmr, image-only (2:1)."""

    name = "interactive-100k"
    shape = gen.Shape(tag=1, pages=100_000, dim=1152, queries=16)
    k = 3
    modes = ("ucmr", "image-only")
    cycle = ("ucmr", "ucmr", "image-only")

    def __init__(self, seed: int):
        self.plan = gen.make_plan(self.shape, seed)

    def setup(self, work: Path) -> None:
        vectors = _write_index(self.plan, work / "index")
        gen.write_queries(self.plan, vectors, work / "queries.jsonl")

    def run(self, ctx: Context) -> dict:
        import comret
        from comret import store

        with open(ctx.work / "queries.jsonl", encoding="utf-8") as fh:
            queries = store.parse_query_jsonl(fh)
        cfgs = {m: comret.FusionConfig(mode=m, beta=0.1, top_k=self.k) for m in self.modes}
        ops = []

        def call(op_id, j, mode, index, phase):
            with ctx.op(op_id, 1, "retrieve"):
                t0 = time.perf_counter()
                try:
                    res = comret.retrieve(queries[j], index, cfgs[mode])
                    out = [[e.page_id, e.fused_score, e.image_score, e.text_score] for e in res.entries]
                except Exception as exc:  # ComretError or an escaped error: a failed operation
                    out = f"{type(exc).__name__}: {exc}"
                ops.append({"query": j, "mode": mode, "s": time.perf_counter() - t0, "result": out, "phase": phase})

        # Warm-up before the clock starts: the first load and queries in a
        # fresh process pay one-off costs. Op 0 is kept out of the counts.
        with ctx.op(0, 1, "load"):
            index = comret.load_index(ctx.work / "index")
        for mode in self.modes:
            call(0, 0, mode, index, "warmup")

        # Ready (op 0): drop the index, load it, first ucmr result. Taken
        # READY_SAMPLES times at even intervals of the timed phase, the
        # first before any loop query, so host slowdowns hit both figures
        # alike. Ready queries are kept out of the loop's figures.
        ready_every = ctx.seconds / READY_SAMPLES
        ready_s, load_s = [], []
        start, loop_s, n, op_id = time.perf_counter(), 0.0, 0, 0
        while True:
            if time.perf_counter() - start >= len(ready_s) * ready_every:
                index = None
                t0 = time.perf_counter()
                with ctx.op(0, 1, "load"):
                    index = comret.load_index(ctx.work / "index")
                load_s.append(time.perf_counter() - t0)
                call(0, 0, "ucmr", index, "ready")
                ready_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for mode in self.cycle:
                op_id += 1
                call(op_id, n % len(queries), mode, index, "loop")
            n += 1
            loop_s += time.perf_counter() - t0
            if time.perf_counter() - start >= ctx.seconds:
                break
        return {"ready_s": ready_s, "load_s": load_s, "loop_s": loop_s, "ops": ops, "count_from_op": 1}

    def check(self, work: Path, raw: dict):
        raw_i, raw_t = oracle.raw_scores(self.plan, self.plan.query_vectors())
        ids = self.plan.ids
        expected = {}
        failed, problems = 0, []
        for op in raw["ops"]:
            key = (op["query"], op["mode"])
            if key not in expected:
                expected[key] = oracle.ranking(op["mode"], raw_i[key[0]], raw_t[key[0]], self.k)
            ok = isinstance(op["result"], list) and _same_ranking(op["result"], expected[key], ids)
            if not ok:
                failed += 1
                problems.append(f"{op['mode']} query {op['query']}: {op['result']!r:.200}")
        return len(raw["ops"]), failed, problems, {}

    def end_to_end(self, raw: dict) -> dict:
        loop = [op for op in raw["ops"] if op["phase"] == "loop"]
        ucmr = [op["s"] for op in loop if op["mode"] == "ucmr"]
        single = [op["s"] for op in loop if op["mode"] == "image-only"]
        return {
            "ready_s": _quantile(raw["ready_s"], 0.5),
            "latency_ms_p50": 1e3 * _quantile(ucmr, 0.5),
            "items_per_s": len(loop) / raw["loop_s"],
            "detail": {
                "ucmr_ms_p50": 1e3 * _quantile(ucmr, 0.5),
                "ucmr_ms_p90": 1e3 * _quantile(ucmr, 0.9),
                "image_only_ms_p50": 1e3 * _quantile(single, 0.5),
                "ready_s": raw["ready_s"],
                "load_index_s": raw["load_s"],
                "samples": {"ucmr": len(ucmr), "image-only": len(single)},
            },
        }


def _same_ranking(got, want, ids) -> bool:
    if len(got) != len(want):
        return False
    for (pid, f, i, t), (p, wf, wi, wt) in zip(got, want):
        if pid != ids[p] or not (oracle.close(f, wf) and oracle.close(i, wi) and oracle.close(t, wt)):
            return False
    return True


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --- batch-20k ---------------------------------------------------------------


def _cli(argv: list[str], stdout_path: Path) -> tuple[int, float]:
    """Run one in-process ``comret`` command; stdout goes to a file."""
    from comret import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # an escaped non-domain error: a failed operation, not a crashed benchmark
        traceback.print_exc()
        code = -1
    elapsed = time.perf_counter() - t0
    stdout_path.write_text(buf.getvalue(), encoding="utf-8")
    return code, elapsed


class Batch:
    """The offline-evaluation round: ``ingest --normalize`` of a 1k-page
    shard (two JSONL files, 1152 dims, ~23 MB each, texts in shuffled
    order), then, on a 20k-page index (184 MB) with qrels and 2%
    exact-duplicate pages, ``retrieve`` (k=10, all cores), ``eval``,
    ``ablate`` (3 modes x 5 betas on 1 query) and ``diagnose``, each a fresh
    CLI command that reloads the index. Rounds are kept short (8 queries)
    so a run holds enough of them for a steady median."""

    name = "batch-20k"
    shape = gen.Shape(tag=2, pages=20_000, dim=1152, queries=8, dup_share=0.02)
    shard = gen.Shape(tag=3, pages=1000, dim=1152, queries=0)
    ablate_queries = 1
    k = 10
    eval_metrics = "recall@5,ndcg@5,mrr@10"
    ablate_modes = ("image-only", "raw-linear", "ucmr")
    ablate_sweep = "0:1:0.25"
    betas = (0.0, 0.25, 0.5, 0.75, 1.0)  # the values ablate_sweep expands to
    bins = 50

    def __init__(self, seed: int, threads: int):
        self.seed = seed
        self.plan = gen.make_plan(self.shape, seed)
        self.threads = threads

    def setup(self, work: Path) -> None:
        gen.write_ingest_files(self.shard, self.seed, work / "shard_images.jsonl", work / "shard_texts.jsonl")
        vectors = _write_index(self.plan, work / "index")
        gen.write_queries(self.plan, vectors, work / "queries.jsonl")
        gen.write_qrels(self.plan, work / "qrels.tsv")
        sub = range(self.ablate_queries)
        gen.write_queries(self.plan, vectors, work / "queries_sub.jsonl", sub)
        gen.write_qrels(self.plan, work / "qrels_sub.tsv", sub)

    def commands(self, work: Path, r: int) -> list[tuple[str, list[str], int]]:
        """(name, argv, queries handed over) of round ``r``."""
        w, threads = str(work), str(self.threads)
        q, sub = self.shape.queries, self.ablate_queries
        return [
            ("ingest", ["ingest", "--images", f"{w}/shard_images.jsonl", "--texts", f"{w}/shard_texts.jsonl",
                        "--normalize", "--out", f"{w}/shard-{r}"], 0),
            ("retrieve", ["retrieve", "--index", f"{w}/index", "--queries", f"{w}/queries.jsonl", "--mode", "ucmr",
                          "--k", str(self.k), "--threads", threads, "--out", f"{w}/run-{r}.tsv"], q),
            ("eval", ["eval", "--run", f"{w}/run-{r}.tsv", "--qrels", f"{w}/qrels.tsv",
                      "--metrics", self.eval_metrics, "--json"], 0),
            ("ablate", ["ablate", "--index", f"{w}/index", "--queries", f"{w}/queries_sub.jsonl",
                        "--qrels", f"{w}/qrels_sub.tsv", "--modes", ",".join(self.ablate_modes),
                        "--beta-sweep", self.ablate_sweep, "--k", str(self.k), "--metrics", "mrr@10",
                        "--threads", threads], sub),
            ("diagnose", ["diagnose", "--index", f"{w}/index", "--queries", f"{w}/queries.jsonl",
                          "--bins", str(self.bins), "--threads", threads, "--out", f"{w}/diag-{r}"], q),
        ]

    def run(self, ctx: Context) -> dict:
        # Round 0 warms up (first imports, first loads) before the clock
        # starts; it is checked like the others but kept out of the figures.
        rounds, op_id, start = [], 0, None
        while True:
            r = len(rounds)
            times, codes = {}, {}
            for name, argv, queries in self.commands(ctx.work, r):
                with ctx.op(op_id, queries, name):
                    codes[name], times[name] = _cli(argv, ctx.work / f"{name}-{r}.out")
                op_id += 1
            rounds.append({"s": times, "code": codes})
            if start is None:
                start = time.perf_counter()
            elif time.perf_counter() - start >= ctx.seconds:
                break
        return {"rounds": rounds, "count_from_op": 0}

    def query_configs(self) -> dict[str, int]:
        q, sub = self.shape.queries, self.ablate_queries
        ablate = sub * len(self.ablate_modes) * len(self.betas)
        return {"ingest": 0, "retrieve": q, "eval": 0, "ablate": ablate, "diagnose": q}

    def expected(self) -> dict:
        """Oracle run, qrels, ablation table, KL and shard rows for this seed."""
        plan, ids = self.plan, self.plan.ids
        raw_i, raw_t = oracle.raw_scores(plan, plan.query_vectors())
        qids = [gen.query_id(j) for j in range(len(plan.gold))]
        qrels = {q: {ids[g]} for q, g in zip(qids, plan.gold)}
        sub = range(self.ablate_queries)
        sub_qrels = {qids[j]: qrels[qids[j]] for j in sub}
        ablate = {}
        for mode in self.ablate_modes:
            for beta in self.betas:
                run = {qids[j]: [ids[p] for p, *_ in oracle.ranking(mode, raw_i[j], raw_t[j], self.k, beta)] for j in sub}
                ablate[(mode, beta)] = oracle.macro(run, sub_qrels, "mrr@10")
        z_i = np.concatenate([oracle.zscored(r) for r in raw_i])
        z_t = np.concatenate([oracle.zscored(r) for r in raw_t])
        return {
            "run": {q: oracle.ranking("ucmr", raw_i[j], raw_t[j], self.k) for j, q in enumerate(qids)},
            "qrels": qrels,
            "ablate": ablate,
            "kl": oracle.kl_nats(z_i, z_t, self.bins),
            "shard": [oracle.normalized(gen.ingest_matrix(self.shard, self.seed, c)) for c in (gen.IMAGE, gen.TEXT)],
        }

    def check(self, work: Path, raw: dict):
        from comret import ComretError

        want = self.expected()
        attempted, failed, problems, hashes = 0, 0, [], {}
        for r, rnd in enumerate(raw["rounds"]):
            outputs = {
                "ingest": [work / f"shard-{r}" / "images.cmeb", work / f"shard-{r}" / "texts.cmeb"],
                "retrieve": [work / f"run-{r}.tsv"],
                "eval": [work / f"eval-{r}.out"],
                "ablate": [work / f"ablate-{r}.out"],
                "diagnose": [work / f"diag-{r}" / "histogram.csv", work / f"diag-{r}" / "summary.json",
                             work / f"diagnose-{r}.out"],
            }
            for name, code in rnd["code"].items():
                attempted += 1
                try:
                    if code != 0:
                        raise AssertionError(f"exit code {code}")
                    getattr(self, f"_check_{name}")(work, r, want)
                    digest = {p.name.replace(f"-{r}", ""): sha256(p) for p in outputs[name]}
                    if name in hashes and hashes[name] != digest:
                        raise AssertionError("output bytes differ from round 0")
                    hashes.setdefault(name, digest)
                except (AssertionError, OSError, ValueError, KeyError, IndexError, ComretError) as exc:
                    failed += 1
                    problems.append(f"round {r} {name}: {type(exc).__name__}: {exc}")
        return attempted, failed, problems, hashes

    def _read_run(self, path: Path) -> dict[str, list[tuple]]:
        """query id -> [(rank, page id, fused, image, text, mode)] in rank order."""
        got: dict[str, list[tuple]] = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            qid, pid, rank, f, i, t, mode = line.split("\t")
            got.setdefault(qid, []).append((int(rank), pid, float(f), float(i), float(t), mode))
        return {q: sorted(rows) for q, rows in got.items()}

    def _check_ingest(self, work, r, want):
        from comret import store

        line = (work / f"ingest-{r}.out").read_text(encoding="utf-8")
        if not line.startswith(f"pages={self.shard.pages} dim={self.shard.dim} normalize=True "):
            raise AssertionError(f"unexpected summary {line!r}")
        index = store.load_index(work / f"shard-{r}")
        if tuple(index.ids) != tuple(gen.page_id(i) for i in range(self.shard.pages)):
            raise AssertionError("row order differs from the images file")
        for got, expected in zip((index.images.data, index.texts.data), want["shard"]):
            if got.shape != expected.shape or float(np.max(np.abs(got - expected))) > 1e-7:
                raise AssertionError("stored rows differ from the normalized input")

    def _check_retrieve(self, work, r, want):
        got = self._read_run(work / f"run-{r}.tsv")
        if set(got) != set(want["run"]):
            raise AssertionError("run covers other queries than the query file")
        ids = self.plan.ids
        for qid, expected in want["run"].items():
            rows = got[qid]
            if [x[0] for x in rows] != list(range(1, len(expected) + 1)) or any(x[5] != "ucmr" for x in rows):
                raise AssertionError(f"{qid}: bad ranks or mode column")
            for (_, pid, f, i, t, _), (p, wf, wi, wt) in zip(rows, expected):
                if pid != ids[p]:
                    raise AssertionError(f"{qid}: got {pid}, oracle {ids[p]}")
                for a, b in ((f, wf), (i, wi), (t, wt)):
                    if not oracle.close(a, b, oracle.PRINTED_ATOL, oracle.PRINTED_RTOL):
                        raise AssertionError(f"{qid} {pid}: score {a!r}, oracle {b!r}")

    def _check_eval(self, work, r, want):
        run = {q: [row[1] for row in rows] for q, rows in self._read_run(work / f"run-{r}.tsv").items()}
        report = json.loads((work / f"eval-{r}.out").read_text(encoding="utf-8"))
        for spec in self.eval_metrics.split(","):
            expected = oracle.macro(run, want["qrels"], spec)
            if not oracle.close(report["macro"][spec], expected, 1e-12, 0.0):
                raise AssertionError(f"{spec}: {report['macro'][spec]!r}, recomputed {expected!r}")

    def _check_ablate(self, work, r, want):
        lines = (work / f"ablate-{r}.out").read_text(encoding="utf-8").splitlines()
        if lines[0].split("\t") != ["mode", "beta", "mrr@10"] or len(lines) != 1 + len(want["ablate"]):
            raise AssertionError(f"unexpected table layout {lines[0]!r}, {len(lines)} lines")
        for line in lines[1:]:
            mode, beta, value = line.split("\t")
            expected = want["ablate"][(mode, float(beta))]
            if abs(float(value) - expected) > 5e-7 + 1e-12:  # printed with 6 decimals
                raise AssertionError(f"{mode} beta={beta}: {value}, oracle {expected:.9f}")

    def _check_diagnose(self, work, r, want):
        summary = json.loads((work / f"diag-{r}" / "summary.json").read_text(encoding="utf-8"))
        expected_samples = self.shape.queries * self.shape.pages
        if summary["samples_per_modality"] != expected_samples or summary["sigma_zero"]:
            raise AssertionError(f"samples {summary['samples_per_modality']}, sigma_zero {summary['sigma_zero']}")
        if not oracle.close(summary["kl_nats"], want["kl"], 1e-12, 1e-6):
            raise AssertionError(f"kl_nats {summary['kl_nats']!r}, oracle {want['kl']!r}")

    def end_to_end(self, raw: dict) -> dict:
        rounds = raw["rounds"][1:]
        round_s = [sum(r["s"].values()) for r in rounds]
        configs = self.query_configs()
        total = {name: sum(r["s"][name] for r in rounds) for name in configs}
        n = len(rounds)
        return {
            "ready_s": _quantile([r["s"]["retrieve"] for r in rounds], 0.5),
            "latency_ms_p50": 1e3 * _quantile(round_s, 0.5),
            "items_per_s": n * sum(configs.values()) / sum(round_s),
            "detail": {
                "ingest_pages_per_s": n * self.shard.pages / total["ingest"],
                "retrieve_qps": n * configs["retrieve"] / total["retrieve"],
                "ablate_query_configs_per_s": n * configs["ablate"] / total["ablate"],
                "diagnose_qps": n * configs["diagnose"] / total["diagnose"],
                "round_s": round_s,
            },
        }


WORKLOADS = {"interactive-100k": Interactive, "batch-20k": Batch}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make(name: str, seed: int):
    cls = WORKLOADS[name]
    return cls(seed, nproc()) if cls is Batch else cls(seed)
