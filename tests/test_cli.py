import contextlib
import io
import json
import multiprocessing
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from comret import _kernels, cli, diagnostics, fusion, metrics, store
from comret.cli import main
from comret.core import FusionConfig

from conftest import write_jsonl

SRC = Path(__file__).resolve().parents[1] / "src"


def embedding_obj(pid, vec):
    return {"id": pid, "embedding": vec}


def query_obj(qid, vec, gold=None, text_vec=None):
    embeddings = {"image-query": vec, "text-query": text_vec if text_vec is not None else vec}
    obj = {"query_id": qid, "text": f"query {qid}", "embeddings": embeddings}
    if gold:
        obj["gold"] = gold
    return obj


@pytest.fixture
def workspace(tmp_path, rng):
    """Small end-to-end fixture: 6 pages, 3 queries, qrels."""
    dim = 4
    pages = [f"p{i}" for i in range(1, 7)]
    image_rows = {pid: rng.standard_normal(dim).tolist() for pid in pages}
    text_rows = {pid: rng.standard_normal(dim).tolist() for pid in pages}
    # Make each query point at its gold page in both modalities.
    gold_map = {"q1": "p2", "q2": "p5", "q3": "p1"}
    queries = []
    for qid, gold in gold_map.items():
        vec = (np.asarray(image_rows[gold]) + np.asarray(text_rows[gold])).tolist()
        queries.append(query_obj(qid, vec, gold=[gold]))

    images = write_jsonl(tmp_path / "images.jsonl", [embedding_obj(p, image_rows[p]) for p in pages])
    texts = write_jsonl(tmp_path / "texts.jsonl", [embedding_obj(p, text_rows[p]) for p in pages])
    query_file = write_jsonl(tmp_path / "queries.jsonl", queries)
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("".join(f"{qid}\t{gold}\t1\n" for qid, gold in gold_map.items()))
    return tmp_path, images, texts, query_file, qrels


def run_cli(*argv):
    return main([str(a) for a in argv])


class TimeLimitExceeded(Exception):
    """Not an OSError, so ``main`` cannot turn it into exit code 1."""


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestIngest:
    def test_builds_index(self, workspace, capsys):
        root, images, texts, _, _ = workspace
        assert run_cli("ingest", "--images", images, "--texts", texts, "--out", root / "idx") == 0
        out = capsys.readouterr().out
        assert "pages=6" in out and "dim=4" in out
        assert sorted(p.name for p in (root / "idx").iterdir()) == ["images.cmeb", "texts.cmeb"]
        index = store.load_index(root / "idx")
        assert (index.page_count, index.dim) == (6, 4)

    def test_id_mismatch_exits_one(self, workspace, capsys):
        root, images, texts, _, _ = workspace
        extra = root / "extra.jsonl"
        extra.write_text(images.read_text() + '{"id":"p99","embedding":[0.1,0.2,0.3,0.4]}\n')
        assert run_cli("ingest", "--images", extra, "--texts", texts, "--out", root / "idx2") == 1
        assert "p99" in capsys.readouterr().err

    def test_peak_memory_below_input_size(self, tmp_path, rng):
        """Lines are parsed as they are read: the whole file is never held."""
        ids = [f"page-{i}" for i in range(200)]
        rows = rng.standard_normal((2, len(ids), 1152))
        images = write_jsonl(tmp_path / "i.jsonl", [embedding_obj(p, r.tolist()) for p, r in zip(ids, rows[0])])
        texts = write_jsonl(tmp_path / "t.jsonl", [embedding_obj(p, r.tolist()) for p, r in zip(ids, rows[1])])
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert run_cli("ingest", "--images", images, "--texts", texts, "--out", tmp_path / "idx") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < max(images.stat().st_size, texts.stat().st_size)

    def test_texts_parse_peak_memory_below_input_size(self, tmp_path, rng):
        """What an ingest worker runs on the texts file holds only its lines."""
        ids = [f"page-{i}" for i in range(200)]
        rows = rng.standard_normal((len(ids), 1152))
        texts = write_jsonl(tmp_path / "t.jsonl", [embedding_obj(p, r.tolist()) for p, r in zip(ids, rows)])
        tracemalloc.start()
        try:
            records = cli._parse(str(texts), store.parse_embedding_jsonl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == len(ids)
        assert peak < texts.stat().st_size

    def test_normalize_zero_vector_exits_one(self, tmp_path, capsys):
        images = write_jsonl(tmp_path / "i.jsonl", [embedding_obj("p1", [0.0, 0.0])])
        texts = write_jsonl(tmp_path / "t.jsonl", [embedding_obj("p1", [1.0, 0.0])])
        assert run_cli("ingest", "--images", images, "--texts", texts, "--normalize", "--out", tmp_path / "o") == 1
        assert "p1" in capsys.readouterr().err


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)`` makes n cores usable; lists the worker count of every
    process pool started from then on."""
    sizes = []

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, mp_context=mp_context)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SpyPool)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        sizes.clear()
        return sizes

    return use


_parse_embedding_jsonl = store.parse_embedding_jsonl


def _dies_on_texts(fh):
    """parse_embedding_jsonl, except that the process reading a texts
    file is killed after its first line. At module level, so that the
    process pool can pickle it by name."""
    if Path(fh.name).name.startswith("texts"):
        fh.readline()
        os.kill(os.getpid(), signal.SIGKILL)
    return _parse_embedding_jsonl(fh)


class TestTwoProcessIngest:
    """With two usable cores the texts file is parsed in a worker process;
    nothing a user sees depends on it, and no worker outlives the command."""

    @staticmethod
    def ingest(capsys, images, texts, out):
        code = run_cli("ingest", "--images", images, "--texts", texts, "--out", out)
        assert multiprocessing.active_children() == []
        return code, capsys.readouterr()

    def test_index_bytes_do_not_depend_on_cores(self, tmp_path, rng, cores, capsys):
        ids = [f"p{i:03d}" for i in range(300)]
        rows = rng.standard_normal((2, len(ids), 16))
        images = write_jsonl(tmp_path / "i.jsonl", [embedding_obj(p, r.tolist()) for p, r in zip(ids, rows[0])])
        pairs = list(zip(ids, rows[1]))[::-1]
        texts = write_jsonl(tmp_path / "t.jsonl", [embedding_obj(p, r.tolist()) for p, r in pairs])
        outputs = []
        for n, pools in ((1, []), (2, [1])):
            sizes = cores(n)
            code, out = self.ingest(capsys, images, texts, tmp_path / f"idx{n}")
            assert (code, sizes) == (0, pools)
            outputs.append(out.out.split(" elapsed=")[0])
        for name in ("images.cmeb", "texts.cmeb"):
            assert (tmp_path / "idx1" / name).read_bytes() == (tmp_path / "idx2" / name).read_bytes()
        assert outputs[0] == outputs[1] == "pages=300 dim=16 normalize=False"

    @staticmethod
    def spoil(path, line, text):
        """Replace line ``line`` (1-based) of a JSONL file with ``text``."""
        lines = path.read_text().splitlines(keepends=True)
        lines[line - 1] = text + "\n"
        path.write_text("".join(lines))

    @pytest.mark.parametrize(
        ("case", "message"),
        [
            ("bad-line", "{texts}: line 2: expected a JSON object"),
            ("non-finite", "{texts}: non-finite value in line 2"),
            ("dim-change", "{texts}: line 2: expected dim 4, got 3"),
            ("not-utf8", "cannot read {texts}: not valid UTF-8"),
            ("missing", "[Errno 2] No such file or directory: '{texts}'"),
        ],
        ids=["bad-line", "non-finite", "dim-change", "not-utf8", "missing"],
    )
    def test_texts_error_reported_as_in_one_process(self, workspace, cores, capsys, case, message):
        root, images, texts, _, _ = workspace
        if case == "bad-line":
            self.spoil(texts, 2, "true")
        elif case == "non-finite":
            self.spoil(texts, 2, '{"id": "p2", "embedding": [NaN, 0.0, 0.0, 0.0]}')
        elif case == "dim-change":
            self.spoil(texts, 2, '{"id": "p2", "embedding": [0.0, 0.0, 0.0]}')
        elif case == "not-utf8":
            texts.write_bytes(texts.read_bytes().replace(b'"p3"', b'"\xff"'))
        else:
            texts = root / "no-such-texts.jsonl"
        want = f"error: {message.format(texts=texts)}\n"
        for n, pools in ((1, []), (2, [1])):
            sizes = cores(n)
            code, out = self.ingest(capsys, images, texts, root / f"idx{n}")
            assert (code, out.out, out.err, sizes) == (1, "", want, pools)

    def test_images_error_wins_when_both_files_are_bad(self, workspace, cores, capsys):
        root, images, texts, _, _ = workspace
        self.spoil(images, 3, "[]")
        self.spoil(texts, 2, "true")
        for n, pools in ((1, []), (2, [1])):
            sizes = cores(n)
            code, out = self.ingest(capsys, images, texts, root / f"idx{n}")
            assert (code, out.out, out.err, sizes) == (1, "", f"error: {images}: line 3: expected a JSON object\n", pools)

    def test_dead_worker_is_one_error_line(self, workspace, cores, capsys, monkeypatch):
        root, images, texts, _, _ = workspace
        monkeypatch.setattr(store, "parse_embedding_jsonl", _dies_on_texts)
        sizes = cores(2)
        with time_limit(60):
            code, out = self.ingest(capsys, images, texts, root / "idx")
        want = f"error: cannot parse {texts}: the worker process parsing it died\n"
        assert (code, out.out, out.err, sizes) == (1, "", want, [1])


def settled_task_count(timeout=5.0):
    """This process's kernel tasks, once every thread Python has joined is
    gone: a joined thread may stay listed for a moment after its join."""
    deadline = time.monotonic() + timeout
    while len(os.listdir("/proc/self/task")) > threading.active_count() and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux's /proc/self/task")
def test_retrieve_after_a_forking_ingest_starts_no_blas_thread(tmp_path, rng):
    """OpenBLAS shuts its pool down at ingest's fork; a later sweep must not
    start it again, or its thread spins beside the sweep's own threads."""
    cap = _kernels.blas_cap()
    if cap is None or _kernels.default_threads() < 2 or "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs NumPy's OpenBLAS, two usable cores and fork")
    ids = [f"p{i:03d}" for i in range(300)]
    rows = rng.standard_normal((2, len(ids), 8))
    images = write_jsonl(tmp_path / "i.jsonl", [embedding_obj(p, r.tolist()) for p, r in zip(ids, rows[0])])
    texts = write_jsonl(tmp_path / "t.jsonl", [embedding_obj(p, r.tolist()) for p, r in zip(ids, rows[1])])
    queries = write_jsonl(tmp_path / "q.jsonl", [query_obj(f"q{i}", v.tolist()) for i, v in enumerate(rows[0][:5])])

    def retrieve(threads):
        out = tmp_path / f"run{threads}"
        assert run_cli("retrieve", "--index", tmp_path / "idx", "--queries", queries, "--threads", threads, "--out", out) == 0
        return out.read_bytes()

    before = cap.get_threads()
    try:
        assert run_cli("ingest", "--images", images, "--texts", texts, "--out", tmp_path / "idx") == 0
        threads = settled_task_count()
        run = retrieve(2)
        assert (settled_task_count(), cap.get_threads()) == (threads, 1)
    finally:
        cap.set_threads(before)
    assert run == retrieve(1)


#: The environment of a fresh interpreter whose OpenBLAS runs its Haswell
#: kernel, which packs every multi-query block, and which can import this
#: module.
HASWELL_ENV = dict(
    os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)])
)


def haswell_probe(root, case):
    """Run in a fresh interpreter by ``TestHaswellKernel``; prints its BLAS
    facts as one JSON line. "after-fork": a forking ``ingest``, then
    two-thread sweeps of 8 and of 32 queries over 4,000 x 1152 rows, each
    against the one-thread sweep's bits. "unforked": OpenBLAS set to two
    threads, then one two-thread sweep."""
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((4000, 1152)).astype(np.float32)
    if case == "unforked":
        cap = _kernels.blas_cap()
        cap.set_threads(2)
        before = cap.get_threads()
        _kernels.inner_products([(matrix, rng.standard_normal((1152, 8)))], 2)
        print(json.dumps({"before": before, "after": cap.get_threads()}))
        return
    root = Path(root)
    ids = [f"p{i:03d}" for i in range(50)]
    rows = rng.standard_normal((2, len(ids), 8))
    images = write_jsonl(root / "i.jsonl", [embedding_obj(p, r.tolist()) for p, r in zip(ids, rows[0])])
    texts = write_jsonl(root / "t.jsonl", [embedding_obj(p, r.tolist()) for p, r in zip(ids, rows[1])])
    assert main(["ingest", "--images", str(images), "--texts", str(texts), "--out", str(root / "idx")]) == 0
    facts = {"tasks": settled_task_count()}
    for q in (8, 32):
        query = rng.standard_normal((1152, q))
        (two,) = _kernels.inner_products([(matrix, query)], 2)
        tasks = settled_task_count()
        (one,) = _kernels.inner_products([(matrix, query)], 1)
        facts[q] = {"tasks": tasks, "same_bits": two.tobytes() == one.tobytes()}
    print(json.dumps(facts))


@pytest.fixture(scope="module")
def haswell():
    """Skips unless this OpenBLAS runs its Haswell kernel when asked to,
    and a forking ingest can run; returns a runner of ``haswell_probe``."""
    if _kernels.blas_cap() is None or _kernels.default_threads() < 2 or "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs NumPy's OpenBLAS, two usable cores and fork")
    if not Path("/proc/self/task").is_dir():
        pytest.skip("needs Linux's /proc/self/task")
    env = dict(HASWELL_ENV, OPENBLAS_VERBOSE="2")
    proc = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True, timeout=60)
    if "Core: Haswell" not in proc.stdout + proc.stderr:
        pytest.skip("this OpenBLAS does not run its Haswell kernel")

    def probe(root, case):
        argv = [sys.executable, "-c", "import sys, test_cli; test_cli.haswell_probe(*sys.argv[1:])", str(root), case]
        proc = subprocess.run(argv, env=HASWELL_ENV, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])  # after ingest's summary line

    return probe


class TestHaswellKernel:
    """OpenBLAS's SkylakeX kernel runs each sweep block on the calling
    thread, so on an AVX-512 CPU an unpinned sweep starts no pool either;
    its Haswell kernel packs multi-query blocks, on a pool when it may."""

    def test_sweeps_after_a_forking_ingest_start_no_blas_thread(self, tmp_path, haswell):
        facts = haswell(tmp_path, "after-fork")
        for q in ("8", "32"):
            assert facts[q] == {"tasks": facts["tasks"], "same_bits": True}

    def test_first_two_thread_sweep_pins_blas(self, tmp_path, haswell):
        assert haswell(tmp_path, "unforked") == {"before": 2, "after": 1}


@pytest.fixture
def built_index(workspace):
    root, images, texts, queries, qrels = workspace
    assert run_cli("ingest", "--images", images, "--texts", texts, "--out", root / "idx") == 0
    return root, root / "idx", queries, qrels


class TestRetrieve:
    def test_writes_run_file(self, built_index):
        root, idx, queries, _ = built_index
        out = root / "run.tsv"
        assert run_cli("retrieve", "--index", idx, "--queries", queries, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 9  # 3 queries x k=3 default
        first = lines[0].split("\t")
        assert first[0] == "q1" and first[2] == "1" and first[6] == "ucmr"

    def test_repeated_runs_byte_identical(self, built_index):
        root, idx, queries, _ = built_index
        a, b = root / "a.tsv", root / "b.tsv"
        run_cli("retrieve", "--index", idx, "--queries", queries, "--out", a)
        run_cli("retrieve", "--index", idx, "--queries", queries, "--threads", "4", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_beta_out_of_range_exits_one(self, built_index, capsys):
        root, idx, queries, _ = built_index
        code = run_cli("retrieve", "--index", idx, "--queries", queries, "--beta", "1.5", "--out", root / "r.tsv")
        assert code == 1
        assert "beta" in capsys.readouterr().err

    def test_ensemble_requires_both_channels(self, built_index, tmp_path, capsys):
        root, idx, _, _ = built_index
        single = write_jsonl(
            tmp_path / "single.jsonl",
            [{"query_id": "q1", "embeddings": {"image-query": [1.0, 0.0, 0.0, 0.0]}}],
        )
        code = run_cli(
            "retrieve", "--index", idx, "--queries", single, "--mode", "ensemble-ucmr", "--out", root / "r.tsv"
        )
        assert code == 1
        assert "text-query" in capsys.readouterr().err

    def test_default_threads_write_the_bytes_of_one(self, tmp_path, rng, pool_sizes):
        # 400 pages: four sweep blocks, so the default's three threads each get some.
        pages = [f"p{i}" for i in range(400)]
        images = write_jsonl(tmp_path / "i.jsonl", [embedding_obj(p, rng.standard_normal(4).tolist()) for p in pages])
        texts = write_jsonl(tmp_path / "t.jsonl", [embedding_obj(p, rng.standard_normal(4).tolist()) for p in pages])
        queries = write_jsonl(tmp_path / "q.jsonl", [query_obj(f"q{i}", rng.standard_normal(4).tolist()) for i in range(5)])
        assert run_cli("ingest", "--images", images, "--texts", texts, "--out", tmp_path / "idx") == 0
        default, one = tmp_path / "default.tsv", tmp_path / "one.tsv"
        assert run_cli("retrieve", "--index", tmp_path / "idx", "--queries", queries, "--out", default) == 0
        assert pool_sizes == [3]  # one queue holds both channels' blocks
        assert run_cli("retrieve", "--index", tmp_path / "idx", "--queries", queries, "--threads", "1", "--out", one) == 0
        assert pool_sizes == [3, 1]
        assert default.read_bytes() == one.read_bytes()

    def test_threads_zero_writes_the_bytes_of_one(self, built_index):
        root, idx, queries, _ = built_index
        zero, one = root / "zero.tsv", root / "one.tsv"
        assert run_cli("retrieve", "--index", idx, "--queries", queries, "--threads", "0", "--out", zero) == 0
        assert run_cli("retrieve", "--index", idx, "--queries", queries, "--threads", "1", "--out", one) == 0
        assert zero.read_bytes() == one.read_bytes()

    def test_unswept_channel_of_another_dim_exits_one(self, built_index, capsys):
        root, idx, _, _ = built_index
        # image-only never sweeps the text channel, which is checked all the same.
        lines = [query_obj("q1", [1.0, 0.0, 0.0, 0.0]), query_obj("q2", [1.0, 0.0, 0.0, 0.0], text_vec=[1.0])]
        queries = write_jsonl(root / "dim-queries.jsonl", lines)
        run = root / "run.tsv"
        assert run_cli("retrieve", "--index", idx, "--queries", queries, "--mode", "image-only", "--out", run) == 1
        assert capsys.readouterr().err == "error: query 'q2' channel 'text-query': expected dim 4, got 1\n"

    def test_run_sorted_by_query_id(self, built_index):
        # The run is in query-id order whatever the order of the query file.
        root, idx, queries, _ = built_index
        backward = root / "reversed.jsonl"
        backward.write_text("".join(reversed(queries.read_text().splitlines(keepends=True))))
        runs = []
        for path in (queries, backward):
            out = root / f"{path.stem}.tsv"
            argv = ["--index", idx, "--queries", path, "--k", "4", "--threads", "3", "--out", out]
            assert run_cli("retrieve", *argv) == 0
            runs.append([line.split("\t")[:3] for line in out.read_text().splitlines()])
        forward, reversed_run = runs
        assert [row[0] for row in reversed_run] == ["q1"] * 4 + ["q2"] * 4 + ["q3"] * 4
        assert reversed_run == forward

    def test_four_page_fixture_top_page(self, tmp_path):
        # Image scores [0, 1, 0.5, 0], constant text channel: p2 must rank
        # first under normalized fusion (sigma=0 text contributes nothing).
        images = write_jsonl(
            tmp_path / "i.jsonl",
            [embedding_obj(pid, vec) for pid, vec in
             [("p1", [0.0, 1.0]), ("p2", [1.0, 0.0]), ("p3", [0.5, 0.0]), ("p4", [0.0, 0.0])]],
        )
        texts = write_jsonl(tmp_path / "t.jsonl", [embedding_obj(f"p{i}", [0.0, 0.0]) for i in range(1, 5)])
        queries = write_jsonl(tmp_path / "q.jsonl", [query_obj("q1", [1.0, 0.0])])
        run_cli("ingest", "--images", images, "--texts", texts, "--out", tmp_path / "idx")
        out = tmp_path / "run.tsv"
        assert run_cli(
            "retrieve", "--index", tmp_path / "idx", "--queries", queries,
            "--mode", "ucmr", "--beta", "0.1", "--k", "3", "--out", out,
        ) == 0
        rows = [line.split("\t") for line in out.read_text().strip().splitlines()]
        assert [(r[1], r[2]) for r in rows] == [("p2", "1"), ("p3", "2"), ("p1", "3")]


class TestEval:
    def test_pipe_composition(self, built_index, capsys):
        root, idx, queries, qrels = built_index
        run = root / "run.tsv"
        run_cli("retrieve", "--index", idx, "--queries", queries, "--k", "5", "--out", run)
        assert run_cli("eval", "--run", run, "--qrels", qrels, "--metrics", "recall@5,mrr@10") == 0
        out = capsys.readouterr().out
        assert out.startswith("query_id\trecall@5\tmrr@10")
        assert "ALL" in out

    def test_json_output(self, built_index, capsys):
        root, idx, queries, qrels = built_index
        run = root / "run.tsv"
        run_cli("retrieve", "--index", idx, "--queries", queries, "--out", run)
        assert run_cli("eval", "--run", run, "--qrels", qrels, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert "macro" in payload

    def test_unknown_metric_exits_one(self, built_index, capsys):
        root, idx, queries, qrels = built_index
        run = root / "run.tsv"
        run_cli("retrieve", "--index", idx, "--queries", queries, "--out", run)
        assert run_cli("eval", "--run", run, "--qrels", qrels, "--metrics", "map@5") == 1
        assert "map@5" in capsys.readouterr().err

    def test_empty_run_exits_one(self, built_index, capsys):
        root, _, _, qrels = built_index
        empty = root / "empty.tsv"
        empty.write_text("")
        assert run_cli("eval", "--run", empty, "--qrels", qrels) == 1
        assert capsys.readouterr().err == f"error: {empty}: run file is empty\n"

    def test_rank_zero_exits_one(self, workspace, capsys):
        root, _, _, _, qrels = workspace
        run = root / "run.tsv"
        run.write_text("q1\tp2\t1\t1.0\t1.0\t0\tucmr\nq1\tp1\t0\t0.9\t0.9\t0\tucmr\n")
        assert run_cli("eval", "--run", run, "--qrels", qrels) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {run}: run line 2: rank must be >= 1, got 0\n")

    def test_missing_queries_warned(self, workspace, capsys):
        # The qrels hold q1-q3 and the run q1 only: q2 and q3 score 0.
        root, _, _, _, qrels = workspace
        run = root / "run.tsv"
        run.write_text("q1\tp2\t1\t1.0\t1.0\t0\tucmr\n")
        assert run_cli("eval", "--run", run, "--qrels", qrels, "--metrics", "mrr@10", "--json") == 0
        out = capsys.readouterr()
        assert out.err == "warning: 2 qrels queries missing from run, scored 0\n"
        assert json.loads(out.out)["macro"]["mrr@10"] == pytest.approx(1 / 3)

    def test_hand_computed_macro(self, tmp_path, capsys):
        # q1 hits at rank 1, q2 at rank 2: macro MRR@10 = 0.75.
        run = tmp_path / "run.tsv"
        run.write_text(
            "q1\tg1\t1\t1.0\t1.0\t0\tucmr\n"
            "q2\tx\t1\t0.9\t0.9\t0\tucmr\n"
            "q2\tg2\t2\t0.8\t0.8\t0\tucmr\n"
        )
        qrels = tmp_path / "qrels.tsv"
        qrels.write_text("q1\tg1\t1\nq2\tg2\t1\n")
        assert run_cli("eval", "--run", run, "--qrels", qrels, "--metrics", "mrr@10", "--json") == 0
        assert json.loads(capsys.readouterr().out)["macro"]["mrr@10"] == 0.75


class TestIOFailures:
    @pytest.mark.parametrize(
        "case",
        ["missing-index", "out-dir-missing", "footer-not-utf8", "header-row-count", "queries-not-utf8"],
    )
    def test_exits_one_with_error(self, built_index, capsys, case):
        root, idx, queries, _ = built_index
        out = root / "run.tsv"
        if case == "missing-index":
            idx = root / "no-such-index"
        elif case == "out-dir-missing":
            out = root / "no-such-dir" / "run.tsv"
        elif case == "footer-not-utf8":
            path = idx / "images.cmeb"
            path.write_bytes(path.read_bytes()[:-1] + b"\xff")  # last byte of the last id
        elif case == "header-row-count":
            (idx / "images.cmeb").write_bytes(b"CMEB" + struct.pack("<IIQ", 2, 0, 2**64 - 1) + struct.pack("<Q", 0))
        else:
            queries.write_bytes(b"\xff\xfe")
        assert run_cli("retrieve", "--index", idx, "--queries", queries, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["retrieve", "ablate", "diagnose"])
    def test_empty_query_file_names_its_path(self, built_index, capsys, command):
        root, idx, _, qrels = built_index
        empty = root / "empty.jsonl"
        empty.write_text("\n")
        extra = {"retrieve": ["--out", root / "run.tsv"], "ablate": ["--qrels", qrels, "--modes", "ucmr"],
                 "diagnose": ["--out", root / "diag"]}[command]
        assert run_cli(command, "--index", idx, "--queries", empty, *extra) == 1
        assert capsys.readouterr().err == f"error: {empty}: query file contains no queries\n"

    @pytest.mark.parametrize("command", ["retrieve", "diagnose"])
    def test_zero_page_index_is_one_error_line(self, built_index, command):
        root, idx, queries, _ = built_index
        # save_index refuses an index of no pages, so its files are written by hand.
        for name in ("images.cmeb", "texts.cmeb"):
            (idx / name).write_bytes(b"CMEB" + struct.pack("<IIQ", 2, 4, 0) + struct.pack("<Q", 0))
        # A fresh interpreter, so stderr is all a user sees, warnings included.
        result = run_process(command, "--index", idx, "--queries", queries, "--out", root / "out")
        assert result == (1, "", f"error: {idx}: the index holds no pages\n")

    def test_version_1_index_is_one_error_line(self, built_index):
        root, idx, queries, _ = built_index
        images = idx / "images.cmeb"
        raw = images.read_bytes()
        dim, count = struct.unpack_from("<IQ", raw, 8)
        ids = raw[28 + count * dim * 4 :].split(b"\n")
        footer = b"".join(struct.pack("<I", len(rid)) + rid for rid in ids)
        images.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8 : 20 + count * dim * 4] + footer)
        result = run_process("retrieve", "--index", idx, "--queries", queries, "--out", root / "run.tsv")
        assert result == (1, "", f"error: {images}: unsupported format version 1\n")

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "minus-inf"])
    @pytest.mark.parametrize(
        "command", [["retrieve", "--mode", "ucmr"], ["retrieve", "--mode", "image-only"], ["diagnose"]],
        ids=["retrieve-ucmr", "retrieve-image-only", "diagnose"],
    )
    def test_non_finite_index_value_is_one_error_line(self, built_index, value, command):
        # One payload float of page p2's image row; the index loads, and the
        # first query to meet it is refused.
        root, idx, queries, _ = built_index
        images = idx / "images.cmeb"
        raw = bytearray(images.read_bytes())
        (dim,) = struct.unpack_from("<I", raw, 8)
        struct.pack_into("<f", raw, 20 + 4 * dim, value)
        images.write_bytes(raw)
        result = run_process(*command, "--index", idx, "--queries", queries, "--out", root / "out")
        assert result == (1, "", "error: query 'q1': image score of page 'p2' is not finite\n")

    @pytest.mark.parametrize("which", ["images", "texts"])
    def test_ingest_non_utf8_mid_file(self, workspace, capsys, which):
        root, images, texts, _, _ = workspace
        bad = images if which == "images" else texts
        lines = bad.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"id"', b'"\xff"', 1)  # line 3
        bad.write_bytes(b"".join(lines))
        assert run_cli("ingest", "--images", images, "--texts", texts, "--out", root / "idx") == 1
        assert capsys.readouterr().err == f"error: cannot read {bad}: not valid UTF-8\n"

#: Numbers beyond float32 or float64, as JSON text.
BIG_INT = pytest.param("1" + "0" * 400, id="int-beyond-float64")
OUT_OF_RANGE = [BIG_INT, pytest.param("1e39", id="beyond-float32"), pytest.param("1e400", id="beyond-float64")]


def run_process(*argv):
    """The CLI in a fresh interpreter, so stderr is what a user sees:
    (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "comret.cli", *map(str, argv)], env=env, capture_output=True, text=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestOutOfRangeNumbers:
    """A number no embedding can hold, or a query entry that is not a
    number, is a one-line error, with no traceback or NumPy warning ahead
    of it."""

    @pytest.mark.parametrize("number", OUT_OF_RANGE)
    def test_ingest(self, workspace, number):
        root, images, texts, _, _ = workspace
        lines = images.read_text().splitlines(keepends=True)
        lines[1] = f'{{"id": "p2", "embedding": [{number}, 0.0, 0.0, 0.0]}}\n'
        images.write_text("".join(lines))
        code, out, err = run_process("ingest", "--images", images, "--texts", texts, "--out", root / "idx")
        assert (code, out) == (1, "")
        assert err == f"error: {images}: non-finite value in line 2\n"

    NON_NUMERIC = "line 1: channel 'image-query' contains a non-numeric entry"

    @pytest.mark.parametrize(
        ("embedding", "reason"),
        [
            pytest.param(f"[{p.values[0]}, 1.0, 0.0, 0.0]", "non-finite value in line 1 channel 'image-query'", id=p.id)
            for p in OUT_OF_RANGE
        ]
        + [
            pytest.param("[{}]", NON_NUMERIC, id="object"),
            pytest.param("[1.0, [2.0]]", NON_NUMERIC, id="nested-array"),
            pytest.param('["1.0"]', NON_NUMERIC, id="string"),
            pytest.param("[true]", NON_NUMERIC, id="bool"),
        ],
    )
    def test_retrieve_query(self, built_index, embedding, reason):
        root, idx, _, _ = built_index
        queries = root / "bad-queries.jsonl"
        queries.write_text(f'{{"query_id": "q1", "embeddings": {{"image-query": {embedding}}}}}\n')
        code, out, err = run_process("retrieve", "--index", idx, "--queries", queries, "--out", root / "run.tsv")
        assert (code, out) == (1, "")
        assert err == f"error: {queries}: {reason}\n"

    @pytest.mark.parametrize("number", [BIG_INT, pytest.param("1e400", id="beyond-float64")])
    def test_train_toy_triplets(self, tmp_path, number):
        triplets = tmp_path / "triplets.jsonl"
        triplets.write_text('{"q": [1.0], "i": [1.0], "t": [1.0]}\n' f'{{"q": [1.0], "i": [{number}], "t": [1.0]}}\n')
        code, out, err = run_process("train-toy", "--triplets", triplets, "--out", tmp_path / "train")
        assert (code, out) == (1, "")
        assert err == f'error: {triplets}: non-finite value in line 2 "i"\n'


#: JSON that json.loads refuses with an error other than JSONDecodeError.
#: The last is an array both parsers read, then an ignored key nested
#: 2,000 deep, which json refuses and orjson would read.
JSON_LIMITS = [
    pytest.param("[" + "1" * 5000 + "]", "an integer of more than 4300 digits", id="int-5000-digits"),
    pytest.param("[" * 100_000 + "]" * 100_000, "nested too deeply", id="array-100k-deep"),
    pytest.param('[1.0, 0.0, 0.0, 0.0], "extra": ' + "[" * 2000 + "]" * 2000, "nested too deeply", id="extra-field"),
]


@pytest.mark.parametrize(("array", "reason"), JSON_LIMITS)
@pytest.mark.parametrize("target", ["images", "texts", "queries", "triplets"])
def test_json_limits_are_one_error_line(workspace, cores, capsys, target, array, reason):
    """Each reader refuses such a line by its number, the texts file from
    ingest's worker process too, instead of ending in a traceback."""
    root, images, texts, queries, _ = workspace
    sizes = cores(2)
    if target in ("images", "texts"):
        bad = images if target == "images" else texts
        TestTwoProcessIngest.spoil(bad, 2, f'{{"id": "p2", "embedding": {array}}}')
        argv = ["ingest", "--images", images, "--texts", texts, "--out", root / "idx"]
    elif target == "queries":
        bad = queries
        TestTwoProcessIngest.spoil(bad, 2, f'{{"query_id": "q9", "embeddings": {{"image-query": {array}}}}}')
        run_cli("ingest", "--images", images, "--texts", texts, "--out", root / "idx")
        argv = ["retrieve", "--index", root / "idx", "--queries", queries, "--out", root / "run.tsv"]
    else:
        bad = write_jsonl(root / "triplets.jsonl", [{"q": [1.0], "i": [1.0], "t": [1.0]}] * 2)
        TestTwoProcessIngest.spoil(bad, 2, f'{{"q": [1.0], "i": {array}, "t": [1.0]}}')
        argv = ["train-toy", "--triplets", bad, "--out", root / "train"]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    assert capsys.readouterr() == ("", f"error: {bad}: line 2: invalid JSON ({reason})\n")
    if target in ("images", "texts"):
        assert sizes == [1]  # the texts file was parsed in the worker process


def run_quiet(*argv):
    """run_cli with stdout captured and stderr dropped: (exit code, stdout)."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(*argv)
    return code, out.getvalue()


# Every code point, unpaired surrogates included: JSON can escape them.
id_text = st.text(st.characters(exclude_categories=()), min_size=1, max_size=6)
page_ids = st.lists(id_text, min_size=2, max_size=2, unique=True)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ids=page_ids, query_id=id_text)
def test_accepted_ids_survive_ingest_retrieve_eval(ids, query_id):
    """Any page and query id that ingest and retrieve accept comes back
    intact from eval; any other id is refused with exit code 1."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        rows = [[1.0, 0.0], [0.0, 1.0]]
        images = write_jsonl(root / "i.jsonl", [embedding_obj(p, r) for p, r in zip(ids, rows)])
        texts = write_jsonl(root / "t.jsonl", [embedding_obj(p, r) for p, r in zip(ids, rows)])
        queries = write_jsonl(root / "q.jsonl", [query_obj(query_id, rows[0])])
        code, _ = run_quiet("ingest", "--images", images, "--texts", texts, "--out", root / "idx")
        if code == 0:
            code, _ = run_quiet(
                "retrieve", "--index", root / "idx", "--queries", queries, "--k", "2", "--out", root / "run.tsv"
            )
        if code != 0:
            assert code == 1
            return
        (root / "qrels.tsv").write_text(f"{query_id}\t{ids[0]}\t1\n", encoding="utf-8")
        code, out = run_quiet("eval", "--run", root / "run.tsv", "--qrels", root / "qrels.tsv", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["missing_queries"] == []
    assert report["per_query"][query_id]["mrr@10"] == 1.0


class TestAblate:
    def test_mode_comparison_table(self, built_index, capsys):
        root, idx, queries, qrels = built_index
        code = run_cli(
            "ablate", "--index", idx, "--queries", queries, "--qrels", qrels,
            "--modes", "image-only,ucmr", "--beta", "0",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mode\tbeta\tmrr@10"
        assert len(lines) == 3
        # beta=0 degeneracy: identical metric values for both rows
        assert lines[1].split("\t")[2] == lines[2].split("\t")[2]

    def test_beta_sweep_rows(self, built_index, capsys):
        root, idx, queries, qrels = built_index
        code = run_cli(
            "ablate", "--index", idx, "--queries", queries, "--qrels", qrels,
            "--modes", "ucmr", "--beta-sweep", "0:1:0.5",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [row.split("\t")[1] for row in lines[1:]] == ["0", "0.5", "1"]

    def test_unknown_mode_exits_one(self, built_index, capsys):
        root, idx, queries, qrels = built_index
        assert run_cli("ablate", "--index", idx, "--queries", queries, "--qrels", qrels, "--modes", "bm25") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["--modes", ","],
            ["--modes", "ucmr", "--beta-sweep", "nan:1:0.1"],
            ["--modes", "ucmr", "--beta-sweep", "0:inf:0.1"],
            ["--modes", "ucmr", "--beta-sweep", "0:1:inf"],
        ],
    )
    def test_no_mode_or_non_finite_sweep_exits_one(self, built_index, capsys, args):
        root, idx, queries, qrels = built_index
        assert run_cli("ablate", "--index", idx, "--queries", queries, "--qrels", qrels, *args) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ("0:1", "--beta-sweep expects LO:HI:STEP, got '0:1'"),
            ("1:0:0.1", "bad sweep '1:0:0.1': need step > 0 and HI >= LO"),
            ("0:1:0", "bad sweep '0:1:0': need step > 0 and HI >= LO"),
            ("0:2:1", "sweep value 2.0 outside [0,1]"),
        ],
    )
    def test_bad_sweep_is_one_error_line(self, built_index, capsys, sweep, message):
        root, idx, queries, qrels = built_index
        code = run_cli("ablate", "--index", idx, "--queries", queries, "--qrels", qrels,
                       "--modes", "ucmr", "--beta-sweep", sweep)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("sweep", ["0:1:1e-6", "0:1:1e-9", "0:0:1e-300", "0:1:5e-324"])
    def test_oversized_sweep_exits_one(self, built_index, capsys, sweep):
        # Counted before any value is built: at 1e-9 a list of 10**9 betas
        # would not finish.
        root, idx, queries, qrels = built_index
        with time_limit(10):
            code = run_cli("ablate", "--index", idx, "--queries", queries, "--qrels", qrels,
                           "--modes", "ucmr", "--beta-sweep", sweep)
        assert code == 1
        assert "more than 1001 values" in capsys.readouterr().err


@pytest.fixture
def ablate_workspace(tmp_path, rng):
    """300 pages x 1152 dims (a 44-row tail block), 37 queries with
    distinct channels (two query blocks) and qrels."""
    pages, dim = 300, 1152
    ids = [f"p{i:03d}" for i in range(pages)]
    image = rng.standard_normal((pages, dim)).astype(np.float32)
    text = rng.standard_normal((pages, dim)).astype(np.float32)
    store.save_index(store.build_index(list(zip(ids, image)), list(zip(ids, text))), tmp_path / "idx")
    queries, qrels = [], []
    for j in range(37):
        gold = int(rng.integers(pages))
        q_image = (image[gold] + rng.standard_normal(dim)).tolist()
        q_text = (text[gold] + rng.standard_normal(dim)).tolist()
        queries.append(query_obj(f"q{j:02d}", q_image, text_vec=q_text))
        qrels.append(f"q{j:02d}\t{ids[gold]}\t1\n")
    (tmp_path / "qrels.tsv").write_text("".join(qrels))
    return tmp_path / "idx", write_jsonl(tmp_path / "q.jsonl", queries), tmp_path / "qrels.tsv"


class TestAblateEngine:
    MODES = "image-only,text-only,raw-linear,ucmr,ensemble-ucmr"

    def ablate(self, idx, queries, qrels, *extra):
        code, out = run_quiet("ablate", "--index", idx, "--queries", queries, "--qrels", qrels, "--modes", self.MODES,
                              "--beta-sweep", "0:1:0.25", "--alpha", "0.3", "--k", "10", "--metrics", "mrr@10,ndcg@5",
                              *extra)
        assert code == 0
        return out

    def test_table_equals_one_run_per_mode_and_beta(self, ablate_workspace):
        # The oracle ranks every (mode, beta) with its own rank_queries call.
        idx, queries, qrels = ablate_workspace
        index = store.load_index(idx)
        records = store.parse_query_jsonl(queries.read_text().splitlines())
        qrel_map = metrics.read_qrels(qrels.read_text().splitlines())
        specs = ["mrr@10", "ndcg@5"]
        lines = ["\t".join(["mode", "beta", *specs])]
        for mode in self.MODES.split(","):
            for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
                cfg = FusionConfig(mode=mode, alpha=0.3, beta=beta, top_k=10)
                ranked = fusion.rank_queries(index, records, [cfg])
                run = {r.query_id: [index.ids[i] for i in r.rows] for (r,) in ranked}
                report = metrics.evaluate_run(run, qrel_map, specs)
                lines.append("\t".join([mode, f"{beta:g}", *(f"{report.macro[s]:.6f}" for s in specs)]))
        assert self.ablate(idx, queries, qrels) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "modes, rankings",
        [
            ("image-only,text-only,raw-linear,ucmr,ensemble-ucmr", 3 + 2 * 5),
            ("ucmr,image-only,ucmr,raw-linear,image-only", 5 + 2),
        ],
    )
    def test_each_distinct_ranking_runs_once(self, ablate_workspace, monkeypatch, modes, rankings):
        # A mode no beta weights ranks once for the whole sweep, and a
        # repeated mode not again; its rows repeat the first one's.
        idx, queries, qrels = ablate_workspace
        cfgs = []
        rank = fusion._rank

        def spy(scores, cfg, spec):
            cfgs.append(cfg)
            return rank(scores, cfg, spec)

        monkeypatch.setattr(fusion, "_rank", spy)
        code, out = run_quiet("ablate", "--index", idx, "--queries", queries, "--qrels", qrels, "--modes", modes,
                              "--beta-sweep", "0:1:0.25", "--metrics", "mrr@10")
        assert code == 0
        assert (len(cfgs), len(set(cfgs))) == (37 * rankings, rankings)
        rows = out.splitlines()[1:]
        assert len(rows) == 5 * len(modes.split(","))
        for mode in set(modes.split(",")):
            mine = [row for row in rows if row.startswith(f"{mode}\t")]
            assert mine == mine[:5] * (len(mine) // 5)

    def test_thread_count_changes_no_byte(self, ablate_workspace):
        idx, queries, qrels = ablate_workspace
        serial = self.ablate(idx, queries, qrels, "--threads", "1")
        assert self.ablate(idx, queries, qrels, "--threads", "2") == serial
        assert self.ablate(idx, queries, qrels, "--threads", "3") == serial


class TestDiagnose:
    def test_writes_histogram_and_summary(self, built_index):
        root, idx, queries, _ = built_index
        out = root / "diag"
        assert run_cli("diagnose", "--index", idx, "--queries", queries, "--out", out) == 0
        csv_lines = (out / "histogram.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "bin_left,bin_right,density_sim_i,density_sim_t"
        assert len(csv_lines) == 51
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kl_nats"] >= 0.0
        assert summary["samples_per_modality"] == 18

    def test_zero_bins_exits_one(self, built_index, capsys):
        root, idx, queries, _ = built_index
        assert run_cli("diagnose", "--index", idx, "--queries", queries, "--bins", "0", "--out", root / "d") == 1

    def test_too_many_bins_is_one_error_line(self, built_index, capsys):
        # Refused before any sweep: a 10**13-bin count array is never asked for.
        root, idx, queries, _ = built_index
        args = ("--index", idx, "--queries", queries, "--bins", "10000000000000", "--out", root / "d")
        assert run_cli("diagnose", *args) == 1
        assert capsys.readouterr().err == "error: num_bins must be <= 1000000, got 10000000000000\n"
        assert not (root / "d").exists()

    def test_memory_error_is_one_error_line(self, built_index, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 763. MiB")

        monkeypatch.setattr(diagnostics, "modality_divergence_report", out_of_memory)
        root, idx, queries, _ = built_index
        assert run_cli("diagnose", "--index", idx, "--queries", queries, "--out", root / "d") == 1
        assert capsys.readouterr().err == "error: diagnose: out of memory (Unable to allocate 763. MiB)\n"

    #: The child caps its own address space before it imports comret.
    CAPPED = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1_200_000_000, 1_200_000_000))\n"
        "from comret.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def test_out_of_memory_is_one_error_line(self, tmp_path, rng):
        # diagnose pools a queries x pages float64 array per channel:
        # 763 MiB each for 5,000 queries on 20k pages, beyond a 1.2 GB cap.
        ids = [f"p{i}" for i in range(20_000)]
        rows = rng.standard_normal((2, len(ids), 2))
        store.save_index(store.build_index(list(zip(ids, rows[0])), list(zip(ids, rows[1]))), tmp_path / "idx")
        vectors = rng.standard_normal((5_000, 2, 2)).tolist()
        queries = [{"query_id": f"q{j}", "embeddings": {"image-query": v[0], "text-query": v[1]}}
                   for j, v in enumerate(vectors)]
        # One BLAS thread and one sweep thread, so the cap does not depend on the core count.
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        for count, code in ((500, 0), (5_000, 1)):
            path = write_jsonl(tmp_path / f"queries-{count}.jsonl", queries[:count])
            argv = ["diagnose", "--index", tmp_path / "idx", "--queries", path, "--threads", "1", "--out", tmp_path / "d"]
            proc = subprocess.run([sys.executable, "-c", self.CAPPED, *map(str, argv)], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == code, proc.stderr
            if code:
                (line,) = proc.stderr.splitlines()
                assert line.startswith("error: diagnose: out of memory (") and "Traceback" not in proc.stderr


class TestTrainToy:
    @pytest.fixture
    def triplets(self, tmp_path):
        n = 8
        rows = []
        for i in range(n):
            one_hot = [0.0] * n
            one_hot[i] = 1.0
            aligned = [-3.0] * n
            aligned[i] = 3.0
            rows.append({"q": one_hot, "i": aligned, "t": one_hot})
        return write_jsonl(tmp_path / "triplets.jsonl", rows)

    def test_separable_run_converges(self, triplets, tmp_path, capsys):
        out = tmp_path / "train"
        assert run_cli("train-toy", "--triplets", triplets, "--steps", "200", "--lr", "0.05", "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_loss"] <= 0.5 * report["initial_loss"]
        assert report["self_retrieval_mrr_at_1"] == 1.0
        log_lines = (out / "training_log.csv").read_text().strip().splitlines()
        assert log_lines[0] == "step,loss,loss_text,loss_image,tau,eta"
        assert len(log_lines) == 202  # header + step 0 + 200 steps

    def test_lambda_out_of_range_exits_one(self, triplets, tmp_path, capsys):
        assert run_cli("train-toy", "--triplets", triplets, "--lambda", "2", "--out", tmp_path / "t") == 1
        assert "lambda" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_one_error_line(self, triplets, tmp_path, capsys, lr):
        out = tmp_path / "t"
        assert run_cli("train-toy", "--triplets", triplets, "--lr", lr, "--out", out) == 1
        assert capsys.readouterr().err == f"error: learning rate must be positive and finite, got {lr}\n"
        assert not out.exists()

    def test_rising_loss_is_one_warning_line(self, rng, tmp_path):
        # A step size far too large makes the loss rise. A fresh
        # interpreter, so stderr is all a user sees: no path, no source line.
        rows = [{key: rng.standard_normal(4).tolist() for key in "qit"} for _ in range(6)]
        triplets = write_jsonl(tmp_path / "six.jsonl", rows)
        out = tmp_path / "train"
        code, stdout, err = run_process("train-toy", "--triplets", triplets, "--lr", "50", "--steps", "20", "--out", out)
        report = json.loads((out / "report.json").read_text())
        assert report["final_loss"] > report["initial_loss"]
        assert (code, stdout.count("\n")) == (0, 1)
        assert err == f"warning: loss did not decrease: {report['initial_loss']:.6g} -> {report['final_loss']:.6g}\n"

    @pytest.mark.parametrize("case", ["tau-overflows", "loss-turns-nan"])
    def test_diverging_run_is_one_error_line(self, rng, tmp_path, case):
        # tau-overflows: a huge step drives log(tau) past exp's range.
        # loss-turns-nan: entries near 1e100 at the default step overflow
        # the score grid. A fresh interpreter, so NumPy warnings would show.
        if case == "tau-overflows":
            query = rng.standard_normal((6, 4)) * 1e-2
            rows = [{"q": q, "i": q + rng.standard_normal(4), "t": q + rng.standard_normal(4)} for q in query]
            args = ["--lr", "1e5", "--steps", "20"]
        else:
            rows = [{key: rng.standard_normal(4) * 1e100 for key in "qit"} for _ in range(6)]
            args = []
        triplets = write_jsonl(tmp_path / "six.jsonl", [{k: v.tolist() for k, v in row.items()} for row in rows])
        out = tmp_path / "train"
        code, stdout, err = run_process("train-toy", "--triplets", triplets, *args, "--out", out)
        assert (code, stdout) == (1, "")
        assert re.fullmatch(r"error: training diverged at step [1-9][0-9]*: loss \S+, tau \S+, eta \S+\n", err)
        assert not out.exists()

    def test_zero_initial_loss_writes_a_null_ratio(self, tmp_path, capsys):
        # Image features at +-1000 push every softplus term below float64's
        # smallest value, so with --lambda 0 the loss is exactly 0 throughout.
        n = 4
        rows = [{"q": one_hot, "i": [1000.0 if k == j else -1000.0 for k in range(n)], "t": one_hot}
                for j, one_hot in enumerate(np.eye(n).tolist())]
        triplets = write_jsonl(tmp_path / "zero.jsonl", rows)
        out = tmp_path / "train"
        assert run_cli("train-toy", "--triplets", triplets, "--lambda", "0", "--steps", "2", "--out", out) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        assert report["initial_loss"] == report["final_loss"] == 0.0
        assert report["loss_ratio"] is None
        assert capsys.readouterr().err == "warning: loss did not decrease: 0 -> 0\n"

    def test_unchanged_loss_is_one_warning_line(self, triplets, tmp_path, capsys):
        # A step far below float64 resolution leaves the loss where it was,
        # and a loss that did not fall is warned of as one that rose.
        out = tmp_path / "train"
        assert run_cli("train-toy", "--triplets", triplets, "--lr", "1e-300", "--steps", 1, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_loss"] == report["initial_loss"]
        loss = f"{report['initial_loss']:.6g}"
        assert capsys.readouterr().err == f"warning: loss did not decrease: {loss} -> {loss}\n"

    def test_same_seed_byte_identical_logs(self, triplets, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_cli(
                "train-toy", "--triplets", triplets, "--steps", "50", "--lr", "0.05",
                "--batch-size", "4", "--seed", "11", "--out", out,
            )
        assert (out_a / "training_log.csv").read_bytes() == (out_b / "training_log.csv").read_bytes()
