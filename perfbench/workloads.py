"""The four workloads. Each makes its inputs from the workload seed, and hands
the harness one step at a time: a timed call into qembed plus an untimed check
of that call's output.

Every qembed function is called through its module attribute, never bound at
import, so the tracer's patches see the same calls an untraced run makes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qembed import (binary, config, evaluation, heads, pipeline, providers,
                    question_gen, synthetic, workspace)

import reference

HELDOUT_GATE = 0.95   # acceptance criterion 4
SPEARMAN_GATE = 0.8


@dataclass
class Step:
    """One operation: `call` is timed; `check` returns a problem or None plus notes."""
    kind: str
    items: int
    call: Callable[[], object]
    check: Callable[[object], tuple[str | None, dict]]


def _rng(seed: int, purpose: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{purpose}".encode("utf-8")).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Base: subclasses define setup, next_step, trace_steps and the two metric sets."""
    name = ""
    min_ops = 1  # steps a timed run makes even when they outlast the run length

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.seed = seed
        self.work = work
        self.tiny = tiny

    def setup(self) -> float:
        raise NotImplementedError

    def next_step(self) -> Step:
        raise NotImplementedError

    def trace_steps(self):
        """The fixed work of one traced pass: one step unless a workload says otherwise."""
        yield self.next_step()

    def summary(self, samples: list) -> tuple[dict, dict]:
        """End-to-end values by BENCHMARK.json name, and named detail metrics as
        (value, unit), from the run's samples (kind, items, seconds, ok, notes)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# build_demo and build_scale: one cold run_all per step

class Build(Workload):
    min_ops = 4  # repeated builds of the same inputs vary by about 15% on a shared VM

    def _inputs(self, root: Path) -> tuple[config.PipelineConfig, Path]:
        raise NotImplementedError

    def setup(self) -> float:
        """Write the inputs, then warm up with a small demo build: the first
        build in a process is often the slowest."""
        root, warm = self.work / "inputs", self.work / "warm"
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(warm, ignore_errors=True)
        start = time.perf_counter()
        self.cfg, self.cfg_dir = self._inputs(root)
        path = pipeline.write_demo_workspace(warm / "inputs", n_per_topic=10, steps=200)
        pipeline.run_all(config.load_config(path), workspace.Workspace(warm / "ws"),
                         path.parent)
        return time.perf_counter() - start

    def next_step(self) -> Step:
        ws_root = self.work / "ws"
        shutil.rmtree(ws_root, ignore_errors=True)
        ws = workspace.Workspace(ws_root)
        return Step(kind="build", items=0,
                    call=lambda: pipeline.run_all(self.cfg, ws, self.cfg_dir),
                    check=lambda _: self._check(ws_root))

    def _check(self, root: Path) -> tuple[str | None, dict]:
        log = [json.loads(line) for line in
               (root / "run_log.jsonl").read_text(encoding="utf-8").splitlines()]
        ran = {r["stage"]: r for r in log if r.get("status") == "ran"}
        accuracy = json.loads((root / "reports/heldout.json").read_text())["accuracy"]
        rho = json.loads((root / "reports/sts.json").read_text())["spearman"]
        notes = {
            "documents": ran["ingest"]["documents"],
            "stage_s": {s: r["seconds"] for s, r in ran.items()},
            "heldout_accuracy": accuracy,
            "sts_spearman": rho,
            "digests": {"bank_fingerprint": ran["select"]["bank_fingerprint"],
                        "heads_sha256": _sha256(root / "heads.bin"),
                        "matrix_sha256": _sha256(root / "embeddings.bin")},
        }
        shutil.rmtree(root)
        problems = []
        if len(ran) != len(pipeline.STAGE_ORDER):
            problems.append(f"only {len(ran)} stages ran")
        if accuracy is None or accuracy < HELDOUT_GATE:
            problems.append(f"held-out accuracy {accuracy} < {HELDOUT_GATE}")
        if rho < SPEARMAN_GATE:
            problems.append(f"sts spearman {rho} < {SPEARMAN_GATE}")
        return ("; ".join(problems) or None), notes

    def summary(self, samples):
        builds = [s for s in samples if s.ok]
        build_s = statistics.median(s.seconds for s in builds)
        docs = builds[0].notes["documents"]
        detail = {
            "build_s": (build_s, "s"),
            "heldout_accuracy": (statistics.median(s.notes["heldout_accuracy"]
                                                   for s in builds), "share"),
            "sts_spearman": (statistics.median(s.notes["sts_spearman"] for s in builds),
                             "rho"),
        }
        return {"op_ms_p50": 1e3 * build_s, "items_per_s": docs / build_s}, detail


class BuildDemo(Build):
    """The bundled demo as `qembed demo` and acceptance criterion 4 run it, at
    root seed 0 whatever the workload seed: at some other root seeds the demo
    stops in generate with a SamplingError (seeds 4 and 40 of 0-59), a defect
    recorded in catalog.json rather than measured here."""
    name = "build_demo"
    DEMO_SEED = 0

    def _inputs(self, root):
        kwargs = {"n_per_topic": 12, "steps": 2000} if self.tiny else {}
        path = pipeline.write_demo_workspace(root, seed=self.DEMO_SEED, **kwargs)
        return config.load_config(path), path.parent


class BuildScale(Build):
    """Demo generator at d=256 with the paper's sampling and collection pools."""
    name = "build_scale"
    N_PER_TOPIC, K, STEPS = 300, 30, 500

    def _inputs(self, root):
        n, k = (20, 4) if self.tiny else (self.N_PER_TOPIC, self.K)
        path = pipeline.write_demo_workspace(root, seed=self.seed, n_per_topic=n,
                                             steps=self.STEPS, dim=256)
        cfg = config.load_config(path)
        cfg = dataclasses.replace(cfg, cluster=dataclasses.replace(cfg.cluster, k=k))
        if not self.tiny:  # paper sampling and collection pools need a real corpus
            cfg = dataclasses.replace(cfg, generation=config.GenerationSection(),
                                      probe=config.ProbeSection(),
                                      collection=config.CollectionSection())
        return cfg, path.parent


# ---------------------------------------------------------------------------
# embed_serve: phase A embeds fresh batches, phase B answers search requests;
# a timed run alternates them

class EmbedServe(Workload):
    name = "embed_serve"
    min_ops = 40
    M, H, D = 512, 128, 256
    BATCH = 4
    CORPUS_ROWS = 3000
    TAU = 0.5
    TRACE_BATCHES = TRACE_SEARCHES = 10

    def __init__(self, seed, work, tiny):
        super().__init__(seed, work, tiny)
        if tiny:
            self.M, self.H, self.D, self.CORPUS_ROWS = 16, 8, 32, 60
        self.encoder = providers.MockEncoder(dim=self.D, seed=0)
        rng = _rng(seed, "bank")
        vecs = rng.standard_normal((self.M, self.D))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        self.bank = question_gen.QuestionBank(
            questions=[question_gen.BankQuestion(
                id=i, text=f"Does the text match trait {i}?", origin_cluster=i // 4,
                quality=float(rng.uniform(0.2, 1.0)), embedding=vecs[i])
                for i in range(self.M)],
            theta=0.8, t=4, encoder_fingerprint=self.encoder.fingerprint())
        self._docs = self._doc_stream(_rng(seed, "stream"))
        corpus_texts = [next(self._docs) for _ in range(self.CORPUS_ROWS)]
        self.doc_ids = [f"d{i:06d}" for i in range(self.CORPUS_ROWS)]
        self.corpus_texts = dict(zip(self.doc_ids, corpus_texts))
        self.corpus_bits = None
        self.heads_seed = int(_rng(seed, "heads").integers(2**31))
        self.done = {"embed": 0, "search": 0}

    @staticmethod
    def _doc_stream(rng: np.random.Generator):
        """Endless fresh synthetic documents, topics interleaved."""
        while True:
            chunk_seed = int(rng.integers(2**63))
            for text, _ in synthetic.synthetic_documents(n_per_topic=8, seed=chunk_seed):
                yield text

    def setup(self) -> float:
        heads_path = self.work / "heads.bin"
        matrix_path = self.work / "corpus.bin"
        self.heads = None
        start = time.perf_counter()
        fresh = heads.init_heads(self.M, self.D, self.H, seed=self.heads_seed, tau=self.TAU,
                                 bank_fingerprint=self.bank.fingerprint())
        heads.save_heads(fresh, heads_path)
        del fresh
        self.heads = heads.load_heads(heads_path)
        elapsed = time.perf_counter() - start
        if self.corpus_bits is None:  # the benchmark's own input, computed once
            probs = reference.head_probabilities(
                self.heads, self.encoder.encode(list(self.corpus_texts.values())))
            self.corpus_bits = (probs > self.TAU).astype(np.uint8)
            self.corpus_dense = self.corpus_bits.astype(np.float64)
            self.corpus_norms = np.sqrt(self.corpus_dense.sum(axis=1))
        start = time.perf_counter()
        matrix = binary.BinaryMatrix.from_dense(self.corpus_bits, self.doc_ids)
        binary.save_binary_matrix(matrix, matrix_path)
        self.corpus = binary.load_binary_matrix(matrix_path)
        return elapsed + time.perf_counter() - start

    def next_step(self):
        # alternate the phases so both see the same machine state over the run
        if self.done["embed"] <= self.done["search"]:
            return self._embed_step()
        return self._search_step()

    def trace_steps(self):
        for _ in range(self.TRACE_BATCHES):
            yield self._embed_step()
        for _ in range(self.TRACE_SEARCHES):
            yield self._search_step()

    def _reference_probs(self, texts):
        return reference.head_probabilities(self.heads, self.encoder.encode(texts))

    def _embed_step(self) -> Step:
        self.done["embed"] += 1
        texts = [next(self._docs) for _ in range(self.BATCH)]
        ids = [f"n{i}" for i in range(self.BATCH)]

        def check(matrix):
            if (matrix.n, matrix.m) != (len(texts), self.M):
                return f"embedded shape {(matrix.n, matrix.m)}", {}
            bad = reference.bits_mismatch(matrix.to_dense(), self._reference_probs(texts),
                                          self.TAU)
            return (f"{bad} bits differ from the reference" if bad else None), {}

        return Step(kind="embed", items=len(texts),
                    call=lambda: heads.embed_documents(texts, self.encoder, self.heads,
                                                       tau=self.TAU, row_ids=ids),
                    check=check)

    def _search_step(self) -> Step:
        self.done["search"] += 1
        text = next(self._docs)
        qprobs = self._reference_probs([text])
        top = reference.top_k(qprobs[0] > self.TAU, self.corpus_dense, self.corpus_norms)
        graded = {self.doc_ids[i]: float(len(top) - r) for r, i in enumerate(top)}
        task = evaluation.RetrievalTask(queries={"q": text}, corpus=self.corpus_texts,
                                        qrels={"q": graded})
        hit = self.doc_ids[top[0]]

        def call():
            qmat = heads.embed_documents([text], self.encoder, self.heads, tau=self.TAU,
                                         row_ids=["q"])
            ranked = evaluation.retrieval_evaluate(task, qmat, self.corpus)
            explained = evaluation.explain_pair(
                qmat.row(0), self.corpus.row(self.corpus.row_index(hit)), self.bank,
                bank_fingerprint=self.heads.bank_fingerprint)
            return qmat, ranked, explained

        def check(result):
            qmat, ranked, explained = result
            problems = []
            bad = reference.bits_mismatch(qmat.to_dense(), qprobs, self.TAU)
            if bad:
                problems.append(f"{bad} query bits differ from the reference")
            # graded relevance 10..1 on the reference top-10: nDCG@10 is 1 only
            # for exactly that top-10 in that order
            if abs(ranked.per_query["q"] - 1.0) > 1e-12:
                problems.append(f"top-10 differs from the reference "
                                f"(nDCG {ranked.per_query['q']})")
            shared = int(np.count_nonzero(qmat.to_dense()[0] & self.corpus_bits[top[0]]))
            if explained.cognitive_load != shared:
                problems.append(f"explain load {explained.cognitive_load} != popcount {shared}")
            return ("; ".join(problems) or None), {}

        return Step(kind="search", items=1, call=call, check=check)

    def summary(self, samples):
        embeds = [s for s in samples if s.ok and s.kind == "embed"]
        searches = [s for s in samples if s.ok and s.kind == "search"]
        batch_ms = [1e3 * s.seconds for s in embeds]
        search_ms = [1e3 * s.seconds for s in searches]
        docs_per_s = self.BATCH / statistics.median(s.seconds for s in embeds)
        detail = {
            "embed_docs_per_s": (docs_per_s, "1/s"),
            "embed_batch_ms_p50": (_pct(batch_ms, 50), "ms"),
            "embed_batch_ms_p90": (_pct(batch_ms, 90), "ms"),
            "embed_batches": (len(batch_ms), "count"),
            "search_ms_p50": (_pct(search_ms, 50), "ms"),
            "search_ms_p90": (_pct(search_ms, 90), "ms"),
            "search_requests": (len(search_ms), "count"),
        }
        return {"op_ms_p50": _pct(search_ms, 50), "items_per_s": docs_per_s}, detail


# ---------------------------------------------------------------------------
# select_bank: greedy dedup over thousands of distinct candidates

# two verbs: about one checked candidate in five is rejected as a duplicate
_VERBS = ["mention", "describe"]


class SelectBank(Workload):
    name = "select_bank"
    min_ops = 3
    CLUSTERS, PER_CLUSTER, WORDS_PER_CLUSTER, VOCAB = 150, 10, 4, 600
    THETA, T = 0.8, 4

    def __init__(self, seed, work, tiny):
        super().__init__(seed, work, tiny)
        if tiny:
            self.CLUSTERS, self.PER_CLUSTER = 12, 6
        self.encoder = providers.MockEncoder(dim=256, seed=0)
        rng = _rng(seed, "candidates")
        vocab = [f"term{i}" for i in range(self.VOCAB)]
        texts: set[str] = set()
        rows = []
        for c in range(self.CLUSTERS):
            own = [vocab[int(i)] for i in rng.choice(self.VOCAB, self.WORDS_PER_CLUSTER,
                                                     replace=False)]
            ordinal = 0
            while ordinal < self.PER_CLUSTER:
                a, b = rng.choice(own, 2, replace=False)
                other = vocab[int(rng.integers(self.VOCAB))]
                verb = _VERBS[int(rng.integers(len(_VERBS)))]
                text = f"Does the text {verb} {a} {b} or {other}?"
                if text in texts:
                    continue
                texts.add(text)
                pos, neg = int(rng.integers(0, 6)), int(rng.integers(0, 6))
                rows.append((text, c, ordinal, pos, neg))
                ordinal += 1
        self.rows = rows
        self.expected = None

    def setup(self) -> float:
        """Build the candidates, then warm up with a select over a fifth of them."""
        start = time.perf_counter()
        self.candidates = [
            question_gen.ScoredQuestion(
                question=question_gen.CandidateQuestion(text=t, origin_cluster=c, ordinal=o),
                probe=question_gen.ProbeOutcome(pos_yes=p, neg_yes=n, p_p=5, p_neg=5,
                                                quality=question_gen.quality_score(p, 5, n, 5)))
            for t, c, o, p, n in self.rows]
        question_gen.select_question_bank(self.candidates[:len(self.candidates) // 5],
                                          self.encoder, theta=self.THETA, t=self.T)
        return time.perf_counter() - start

    def next_step(self) -> Step:
        if self.expected is None:
            self.expected = reference.greedy_bank(
                [r[0] for r in self.rows], [r[1] for r in self.rows],
                [s.quality for s in self.candidates], [r[2] for r in self.rows],
                self.encoder.encode, self.THETA, self.T)

        def check(bank):
            problems = []
            violations = reference.bank_invariant_violations(bank, self.THETA, self.T)
            if violations:
                problems.append(f"{violations} bank invariant violations")
            if bank.texts() != self.expected:
                problems.append(f"bank of {bank.m} differs from the reference greedy "
                                f"({len(self.expected)})")
            return ("; ".join(problems) or None), {"bank_size": bank.m}

        return Step(kind="select", items=len(self.candidates),
                    call=lambda: question_gen.select_question_bank(
                        self.candidates, self.encoder, theta=self.THETA, t=self.T),
                    check=check)

    def summary(self, samples):
        selects = [s for s in samples if s.ok]
        select_s = statistics.median(s.seconds for s in selects)
        detail = {"select_s": (select_s, "s"),
                  "select_candidates": (len(self.rows), "count"),
                  "bank_size": (selects[0].notes["bank_size"], "count")}
        return {"op_ms_p50": 1e3 * select_s, "items_per_s": len(self.rows) / select_s}, detail


WORKLOADS = {w.name: w for w in (BuildDemo, BuildScale, EmbedServe, SelectBank)}
