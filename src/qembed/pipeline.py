"""Stage orchestration: each stage reads upstream artifacts from the workspace,
does its piece of the pipeline, and writes its own artifacts plus a summary.

All stage randomness derives from one root seed expanded per stage name, so a
single seed reproduces the whole run.
"""

import hashlib
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .answering import collect_answers, split_examples
from .binary import BinaryMatrix, save_binary_matrix
from .cluster import ClusterModel, effective_k, kmeans_fit, load_cluster_model, save_cluster_model
from .config import (ConfigError, PipelineConfig, config_hash, dump_config,
                     parse_float_list, parse_int_list)
from .corpus import (Corpus, Split, content_id, exact_dedup, ingest, load_corpus, save_corpus,
                     split_heldout)
from .cost import comparison_rows, cost_rows_jsonl, render_cost_table
from .evaluation import (clustering_evaluate, explain_pair, load_clustering_task,
                         load_retrieval_task, load_sts_task, mean_cognitive_load,
                         retrieval_evaluate, sts_evaluate)
from .heads import (TrainingExample, embed_documents, embed_vectors,
                    embedding_bits, evaluate_heldout, load_heads, save_heads, train_heads)
from . import jsonl
from .metrics import MetricError
from .providers import (AnswerCache, CachedLLM, MockEncoder, PromptCacheStore, RemoteLLM,
                        read_transcript)
from .question_gen import (CandidateQuestion, ProbeOutcome, QuestionBank, ScoredQuestion,
                           generate_cluster_questions, load_question_bank,
                           probe_question, sample_contrastive,
                           save_question_bank, select_question_bank)
from .synthetic import (TopicOracleLLM, synthetic_clustering_task, synthetic_corpus,
                        synthetic_retrieval_task, synthetic_sts_task)
from .workspace import ARTIFACTS, DependencyError, Workspace, file_fingerprint

logger = logging.getLogger(__name__)


def stage_seed(root_seed: int, stage: str) -> int:
    """Expand the root seed into an independent per-stage seed."""
    digest = hashlib.sha256(f"{root_seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _rng(root_seed: int, stage: str) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stage_seed(root_seed, stage)))


@dataclass
class StageContext:
    cfg: PipelineConfig
    ws: Workspace
    config_dir: Path
    input_fps: dict[str, str] = field(default_factory=dict)
    transcript: dict[str, str] | None = None  # a scripted run's, read by run_stage
    _encoder: object = None
    _llm: object = None

    @property
    def seed(self) -> int:
        return self.cfg.pipeline.seed

    def resolve(self, path: str) -> Path:
        return self.config_dir / path  # an absolute path replaces config_dir

    @property
    def encoder(self):
        if self._encoder is None:
            self._encoder = MockEncoder(dim=self.cfg.encoder.dim,
                                        seed=self.cfg.encoder.seed)
        return self._encoder

    @property
    def llm(self):
        if self._llm is None:
            self._llm = self._build_llm()
        return self._llm

    def _build_llm(self):
        kind = self.cfg.llm.kind
        if kind == "oracle":
            return TopicOracleLLM()
        if kind == "scripted":
            return CachedLLM(None, self.transcript)
        remote = RemoteLLM(endpoint=self.cfg.llm.endpoint, model=self.cfg.llm.model,
                           max_parallel=self.cfg.llm.max_parallel,
                           timeout=self.cfg.llm.timeout)
        store = PromptCacheStore(self.ws.root / "prompt_cache.jsonl")
        return CachedLLM(remote, store)

    def close(self) -> None:
        """Close the prompt cache that a remote LLM holds open."""
        if isinstance(self._llm, CachedLLM) and isinstance(self._llm.store, PromptCacheStore):
            self._llm.store.close()

    def llm_counts(self) -> dict:
        """The prompt-cache hits and misses of the cached LLM this stage built, if any."""
        if not isinstance(self._llm, CachedLLM):
            return {}
        return {"prompt_cache_hits": self._llm.hits, "prompt_cache_misses": self._llm.misses}

    def provenance(self) -> dict:
        return {"config_hash": config_hash(self.cfg), "inputs": dict(self.input_fps)}


# --------------------------------------------------------------------------
# stage implementations

def _stage_ingest(ctx: StageContext) -> dict:
    if not ctx.cfg.corpus.input:
        raise ConfigError("[corpus] input is not configured")
    source = ctx.resolve(ctx.cfg.corpus.input)
    if not source.exists():
        raise ConfigError(f"[corpus] input file not found: {source}")
    corpus = exact_dedup(ingest(source, format=ctx.cfg.corpus.format))
    save_corpus(corpus, ctx.ws.path("corpus"))
    split = split_heldout(corpus, ctx.cfg.corpus.heldout_fraction,
                          seed=stage_seed(ctx.seed, "split"))
    jsonl.write_json(ctx.ws.path("split"), {
        "seed": split.seed,
        "train_ids": sorted(split.train_ids),
        "heldout_ids": sorted(split.heldout_ids),
    })
    return {"documents": len(corpus), "heldout": len(split.heldout_ids),
            "skipped_records": corpus.skipped_records}


def _stage_encode(ctx: StageContext, corpus) -> dict:
    embeddings = ctx.encoder.encode(corpus.texts())
    with jsonl.replacing(ctx.ws.path("doc_embeddings"), "wb") as fh:
        np.save(fh, embeddings)
    return {"documents": len(corpus), "dim": int(embeddings.shape[1])}


def _stage_cluster(ctx: StageContext, corpus, doc_embeddings) -> dict:
    k = effective_k(ctx.cfg.cluster.k, len(corpus))
    model = kmeans_fit(doc_embeddings, k=k, seed=stage_seed(ctx.seed, "cluster"),
                       max_iters=ctx.cfg.cluster.max_iters, tol=ctx.cfg.cluster.tol,
                       doc_ids=corpus.ids())
    save_cluster_model(model, ctx.ws.path("cluster_model"))
    return {"k": model.k, "iterations": model.iterations,
            "inertia": round(model.inertia, 6)}


def _stage_generate(ctx: StageContext, corpus, cluster_model) -> dict:
    texts = corpus.text_by_id()
    rng = _rng(ctx.seed, "generate")
    candidates = []
    for c in range(cluster_model.k):
        sample = sample_contrastive(cluster_model, c, ctx.cfg.generation, rng)
        candidates.extend(generate_cluster_questions(sample, texts, ctx.llm))
    jsonl.write(ctx.ws.path("candidates"), map(asdict, candidates), sort_keys=True)
    return {"clusters": cluster_model.k, "candidates": len(candidates)}


def _stage_probe(ctx: StageContext, corpus, cluster_model, candidates) -> dict:
    texts = corpus.text_by_id()
    rng = _rng(ctx.seed, "probe")
    probes = []
    for cand in candidates:
        outcome = probe_question(cand, cluster_model, texts, ctx.llm, ctx.cfg.probe, rng)
        if outcome is not None:
            probes.append({**asdict(cand), **asdict(outcome)})
    jsonl.write(ctx.ws.path("probes"), probes, sort_keys=True)
    return {"probed": len(probes), "dropped": len(candidates) - len(probes)}


def _stage_select(ctx: StageContext, probes) -> dict:
    bank = select_question_bank(probes, ctx.encoder,
                                theta=ctx.cfg.selection.dedup_threshold,
                                t=ctx.cfg.selection.per_cluster_cap)
    save_question_bank(bank, ctx.ws.path("bank"))
    return {"candidates": len(probes), "bank_size": bank.m,
            "bank_fingerprint": bank.fingerprint()}


def _write_examples(path: Path, examples: list[TrainingExample]) -> None:
    jsonl.write(path, ({"document_id": ex.document_id,
                        "answers": {str(q): int(a) for q, a in sorted(ex.answers.items())}}
                       for ex in examples), sort_keys=True)


def _stage_collect(ctx: StageContext, corpus, split, cluster_model, bank) -> dict:
    if not bank.m:  # select writes such a bank when no candidate survives probing
        raise DependencyError(f"stage 'collect' needs questions; {ctx.ws.path('bank').name} "
                              f"holds none, as stage 'select' admitted no candidate")
    with AnswerCache(ctx.ws.path("answers")) as cache:
        result = collect_answers(bank, cluster_model, corpus.text_by_id(), ctx.llm, cache,
                                 _rng(ctx.seed, "collect"), ctx.cfg.collection)
    train, heldout = split_examples(result.examples, split.heldout_ids)
    _write_examples(ctx.ws.path("train_examples"), train)
    _write_examples(ctx.ws.path("heldout_examples"), heldout)
    return {"pairs": result.requested_pairs, "llm_calls": result.llm_calls,
            "cache_hits": result.cache_hits, "unparsed": result.unparsed,
            "train_docs": len(train), "heldout_docs": len(heldout)}


def _stage_train(ctx: StageContext, corpus, doc_embeddings, bank, train_examples,
                 heldout_examples) -> dict:
    tcfg = ctx.cfg.training
    row = {doc_id: i for i, doc_id in enumerate(corpus.ids())}  # doc_embeddings row by id
    # the call holds doc_embeddings until the stage returns, so the examples'
    # rows are gathered to its front in place rather than copied beside it
    order = [row[ex.document_id] for ex in (*train_examples, *heldout_examples)]
    doc_embeddings[:len(order)] = doc_embeddings[order]
    train_vectors = doc_embeddings[:len(train_examples)]
    heldout_vectors = doc_embeddings[len(train_examples):len(order)]
    save_heads(train_heads(train_examples, train_vectors, bank, cfg=tcfg,
                           seed=stage_seed(ctx.seed, "train")), ctx.ws.path("heads"))
    payload = {"provenance": ctx.provenance(), "train_docs": len(train_examples),
               "heldout_docs": len(heldout_examples), "accuracy": None, "report": None}
    if heldout_examples:  # scored on the heads as saved, which every later stage loads
        report = evaluate_heldout(load_heads(ctx.ws.path("heads")), heldout_vectors,
                                  heldout_examples, tau=tcfg.tau)
        payload["accuracy"] = report.accuracy
        payload["report"] = asdict(report)
    jsonl.write_json(ctx.ws.path("heldout_report"), payload)
    return {"heads": bank.m, "steps": tcfg.steps,
            "heldout_accuracy": payload["accuracy"]}


def _stage_embed(ctx: StageContext, corpus, doc_embeddings, heads) -> dict:
    matrix = embed_vectors(doc_embeddings, heads, tau=ctx.cfg.training.tau, row_ids=corpus.ids())
    save_binary_matrix(matrix, ctx.ws.path("matrix"))
    meta = {"provenance": ctx.provenance(), "bank_fingerprint": heads.bank_fingerprint,
            "tau": ctx.cfg.training.tau, "documents": matrix.n, "questions": matrix.m,
            "mean_bits_per_document":
                float(matrix.row_popcounts.mean()) if matrix.n else 0.0}
    jsonl.write_json(ctx.ws.path("embed_meta"), meta)
    return {"documents": matrix.n, "questions": matrix.m,
            "mean_bits": meta["mean_bits_per_document"]}


def _embed_texts(ctx: StageContext, heads, texts: list[str], tau: float | None = None
                 ) -> BinaryMatrix:
    """Embed task texts keyed by content id (texts must be distinct)."""
    return embed_documents(texts, ctx.encoder, heads, tau=tau,
                           row_ids=[content_id(t) for t in texts])


def _stage_eval_sts(ctx: StageContext, heads) -> dict:
    task = load_sts_task(ctx.resolve(ctx.cfg.eval.sts))
    rho, load = _sts_numbers(task, _embed_texts(ctx, heads, task.texts(),
                                                tau=ctx.cfg.training.tau))
    rho_x100 = None if rho is None else 100.0 * rho
    payload = {"provenance": ctx.provenance(), "pairs": len(task.pairs),
               "spearman": rho, "spearman_x100": rho_x100,
               "mean_cognitive_load": load.exact,
               "mean_cognitive_load_rounded": load.rounded,
               "tau": ctx.cfg.training.tau}
    jsonl.write_json(ctx.ws.path("sts_report"), payload)
    rho_text = "n/a" if rho is None else f"{rho:.4f}  (x100: {rho_x100:.2f})"
    jsonl.write_text(ctx.ws.path("sts_text"),
                f"semantic similarity over {len(task.pairs)} pairs\n"
                f"spearman        {rho_text}\n"
                f"cognitive load  {load.exact:.2f}  (rounded: {load.rounded})")
    return {"spearman": rho, "mean_load": load.exact}


def _stage_eval_retrieval(ctx: StageContext, heads) -> dict:
    ev = ctx.cfg.eval
    task = load_retrieval_task(ctx.resolve(ev.queries), ctx.resolve(ev.corpus),
                               ctx.resolve(ev.qrels))
    qids = sorted(task.queries)
    dids = sorted(task.corpus)
    qmat = embed_documents([task.queries[q] for q in qids], ctx.encoder, heads,
                           tau=ctx.cfg.training.tau, row_ids=qids)
    dmat = embed_documents([task.corpus[d] for d in dids], ctx.encoder, heads,
                           tau=ctx.cfg.training.tau, row_ids=dids)
    result = retrieval_evaluate(task, qmat, dmat)
    payload = {"provenance": ctx.provenance(), "k": result.k,
               "mean_ndcg": result.mean_ndcg, "per_query": result.per_query,
               "queries": len(qids), "documents": len(dids)}
    jsonl.write_json(ctx.ws.path("retrieval_report"), payload)
    jsonl.write_text(ctx.ws.path("retrieval_text"),
                f"retrieval over {len(qids)} queries, {len(dids)} documents\n"
                f"mean nDCG@{result.k}  {result.mean_ndcg:.4f}")
    return {"mean_ndcg": result.mean_ndcg}


def _stage_eval_clustering(ctx: StageContext, heads) -> dict:
    task = load_clustering_task(ctx.resolve(ctx.cfg.eval.clustering))
    matrix = embed_documents(list(task.texts), ctx.encoder, heads,
                             tau=ctx.cfg.training.tau,
                             row_ids=[f"r{i}" for i in range(len(task.texts))])
    score = clustering_evaluate(matrix, list(task.labels),
                                seed=stage_seed(ctx.seed, "eval-clustering"))
    payload = {"provenance": ctx.provenance(), "v_measure": score,
               "texts": len(task.texts), "k": len(set(task.labels))}
    jsonl.write_json(ctx.ws.path("clustering_report"), payload)
    jsonl.write_text(ctx.ws.path("clustering_text"),
                f"clustering over {len(task.texts)} texts into "
                f"{len(set(task.labels))} groups\nv-measure  {score:.4f}")
    return {"v_measure": score}


def _stage_explain(ctx: StageContext, heads, bank) -> dict:
    task = load_sts_task(ctx.resolve(ctx.cfg.eval.sts))
    pairs = task.pairs[:ctx.cfg.eval.explain_pairs]
    texts = list(dict.fromkeys(t for pair in pairs for t in (pair.text_a, pair.text_b)))
    matrix = _embed_texts(ctx, heads, texts, tau=ctx.cfg.training.tau)
    reports = []
    for pair in pairs:
        a = matrix.row(matrix.row_index(content_id(pair.text_a)))
        b = matrix.row(matrix.row_index(content_id(pair.text_b)))
        reports.append(explain_pair(a, b, bank, text_a=pair.text_a,
                                    text_b=pair.text_b,
                                    bank_fingerprint=heads.bank_fingerprint))
    jsonl.write(ctx.ws.path("explanations"),
                [{"provenance": ctx.provenance()}, *map(asdict, reports)],
                sort_keys=True)
    jsonl.write_text(ctx.ws.path("explanations_text"),
                "\n\n".join(r.render_text() for r in reports) or "(no pairs)")
    jsonl.write_text(ctx.ws.path("explanations_md"),
                "\n\n".join(r.render_markdown() for r in reports) or "_no pairs_")
    return {"pairs_explained": len(reports)}


def _sts_numbers(task, matrix: BinaryMatrix):
    try:
        rho = sts_evaluate(task, matrix).spearman
    except MetricError:
        rho = None  # constant similarities (e.g. all-zero rows at extreme tau)
    return rho, mean_cognitive_load(task, matrix)


def _stage_ablate(ctx: StageContext, heads) -> dict:
    task = load_sts_task(ctx.resolve(ctx.cfg.eval.sts))
    taus = parse_float_list(ctx.cfg.eval.ablate_taus)
    dims = parse_int_list(ctx.cfg.eval.ablate_dims)
    texts = task.texts()
    row_ids = [content_id(t) for t in texts]
    # every tau's bits, and the training tau's last, from one certified forward
    bits = embedding_bits(heads, ctx.encoder.encode(texts), [*taus, ctx.cfg.training.tau])
    rows = []
    for tau, dense in zip(taus, bits):
        rho, load = _sts_numbers(task, BinaryMatrix.from_dense(dense, row_ids))
        rows.append({"parameter": "tau", "value": tau, "spearman": rho,
                     "mean_load": load.exact})
    for m_prime in dims:
        if not 1 <= m_prime <= heads.m:
            logger.warning("skipping ablation width %d outside [1, %d]", m_prime, heads.m)
            continue
        rho, load = _sts_numbers(task, BinaryMatrix.from_dense(bits[-1][:, :m_prime], row_ids))
        rows.append({"parameter": "dims", "value": m_prime, "spearman": rho,
                     "mean_load": load.exact})
    jsonl.write(ctx.ws.path("ablation_report"), [{"provenance": ctx.provenance()}, *rows],
                sort_keys=True)
    lines = [f"{'parameter':>10}  {'value':>8}  {'spearman':>9}  {'mean load':>10}"]
    for r in rows:
        rho = "n/a" if r["spearman"] is None else f"{r['spearman']:.4f}"
        lines.append(f"{r['parameter']:>10}  {r['value']:>8}  {rho:>9}  "
                     f"{r['mean_load']:>10.2f}")
    jsonl.write_text(ctx.ws.path("ablation_text"), "\n".join(lines))
    return {"settings": len(rows)}


def _stage_cost(ctx: StageContext) -> dict:
    cc = ctx.cfg.cost
    rows = comparison_rows(cc)
    jsonl.write_text(ctx.ws.path("cost_report"), jsonl.dumps(
        {"provenance": ctx.provenance()}, sort_keys=True) + cost_rows_jsonl(rows, cc.num_docs))
    jsonl.write_text(ctx.ws.path("cost_text"),
                render_cost_table(rows, cc.num_docs))
    return {"rows": len(rows)}


# --------------------------------------------------------------------------
# registry and runner

@dataclass(frozen=True)
class Stage:
    name: str
    inputs: tuple[str, ...]
    func: object
    tasks: tuple[tuple[str, str], ...] = ()  # (state key, [eval] key) per task file read

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(a for a, (_, producer) in ARTIFACTS.items() if producer == self.name)


# One reader per artifact that a stage reads, run in Stage.inputs order with
# the inputs read so far (got), so that it may check its file against them. A
# failure raises CorruptFileError naming the file, and the other file of a
# mismatch between two. A reader calls its module's load function by name as it
# runs, so that a wrapper patched over the name sees the call.

def _corrupt(path: Path, problem) -> jsonl.CorruptFileError:
    return jsonl.CorruptFileError(f"corrupt file {path}: {problem}")


def _check_keys(path: Path, keys: list, what: str, corpus: Corpus | None = None) -> None:
    """keys are distinct and, given a corpus, ids of its documents."""
    known, seen = set(corpus.ids()) if corpus else None, set()
    for key in keys:
        if key in seen or (known is not None and key not in known):
            raise _corrupt(path, f"{what} {key!r} " + ("repeats" if key in seen else
                           f"is not in the corpus ({ARTIFACTS['corpus'][0]})"))
        seen.add(key)


def _read_corpus(path: Path, got: dict) -> Corpus:
    corpus = load_corpus(path)
    if not corpus.documents:
        raise _corrupt(path, "no documents")
    _check_keys(path, corpus.ids(), "document id")
    return corpus


def _read_doc_embeddings(path: Path, got: dict) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = np.lib.format.MAGIC_PREFIX
        if fh.read(len(magic)) != magic:
            raise _corrupt(path, "not a .npy array: it does not start with the .npy magic")
        fh.seek(0)
        try:
            rows = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise _corrupt(path, exc) from exc
    if rows.ndim != 2 or len(rows) != len(got["corpus"]):
        raise _corrupt(path, f"shape {rows.shape} for {ARTIFACTS['corpus'][0]}'s "
                             f"{len(got['corpus'])} documents")
    with np.errstate(all="ignore"):  # so a row that is not finite, or overflows, fails
        off = np.flatnonzero(~(np.abs(np.einsum("ij,ij->i", rows, rows) - 1.0) <= 2e-6))
    if off.size:
        raise _corrupt(path, f"row {off[0]} is not a finite unit vector")
    return rows


def _read_split(path: Path, got: dict) -> Split:
    split = jsonl.parse(path.read_bytes(), path, convert=lambda rec: Split(
        frozenset(rec["train_ids"]), frozenset(rec["heldout_ids"]), int(rec["seed"])))
    _check_keys(path, [*split.train_ids, *split.heldout_ids], "document", got["corpus"])
    return split


def _read_cluster_model(path: Path, got: dict) -> ClusterModel:
    model = load_cluster_model(path)
    _check_keys(path, model.doc_ids, "document", got["corpus"])
    return model


def _check_origins(path: Path, questions, got: dict) -> None:
    """Given a cluster model, each question's origin_cluster is one of its clusters."""
    k = got["cluster_model"].k if "cluster_model" in got else None
    for q in questions:
        if k is not None and q.origin_cluster not in range(k):
            raise _corrupt(path, f"origin_cluster {q.origin_cluster!r} is not a cluster of "
                                 f"{ARTIFACTS['cluster_model'][0]} (k={k})")


def _read_questions(path: Path, got: dict, make) -> list:
    """candidates.jsonl or probes.jsonl, make(**record) per record: one record
    per (origin_cluster, ordinal)."""
    items = list(jsonl.read(path, lambda rec: make(**rec)))
    questions = [getattr(item, "question", item) for item in items]
    _check_keys(path, [(q.origin_cluster, q.ordinal) for q in questions], "question")
    _check_origins(path, questions, got)
    return items


def _read_bank(path: Path, got: dict) -> QuestionBank:
    bank = load_question_bank(path)
    if [q.id for q in bank.questions] != list(range(bank.m)):
        raise _corrupt(path, f"question ids are not 0..{bank.m - 1} in order")
    _check_origins(path, bank.questions, got)
    return bank


def _read_examples(path: Path, got: dict, required: bool = False) -> list[TrainingExample]:
    examples = list(jsonl.read(path, lambda rec: TrainingExample(
        rec["document_id"], {int(q): int(a) for q, a in rec["answers"].items()})))
    if required and not examples:
        raise _corrupt(path, "no training examples")
    _check_keys(path, [ex.document_id for ex in examples], "document", got["corpus"])
    if any(not 0 <= q < got["bank"].m for ex in examples for q in ex.answers):
        raise _corrupt(path, f"a question id is not one of {ARTIFACTS['bank'][0]}'s")
    return examples


READERS = {  # artifact -> reader(path, got)
    "corpus": _read_corpus,
    "split": _read_split,
    "doc_embeddings": _read_doc_embeddings,
    "cluster_model": _read_cluster_model,
    "candidates": lambda path, got: _read_questions(path, got, CandidateQuestion),
    "probes": lambda path, got: _read_questions(
        path, got, lambda text, origin_cluster, ordinal, **outcome: ScoredQuestion(
            CandidateQuestion(text, origin_cluster, ordinal), ProbeOutcome(**outcome))),
    "bank": _read_bank,
    "train_examples": lambda path, got: _read_examples(path, got, required=True),
    "heldout_examples": _read_examples,
    "heads": lambda path, got: load_heads(path),
}


_STS = (("sts_task", "sts"),)

STAGES: dict[str, Stage] = {s.name: s for s in [
    Stage("ingest", (), _stage_ingest),
    Stage("encode", ("corpus",), _stage_encode),
    Stage("cluster", ("corpus", "doc_embeddings"), _stage_cluster),
    Stage("generate", ("corpus", "cluster_model"), _stage_generate),
    Stage("probe", ("corpus", "cluster_model", "candidates"), _stage_probe),
    Stage("select", ("probes",), _stage_select),
    Stage("collect", ("corpus", "split", "cluster_model", "bank"), _stage_collect),
    Stage("train", ("corpus", "doc_embeddings", "bank", "train_examples", "heldout_examples"),
          _stage_train),
    Stage("embed", ("corpus", "doc_embeddings", "heads"), _stage_embed),
    Stage("eval-sts", ("heads",), _stage_eval_sts, _STS),
    Stage("eval-retrieval", ("heads",), _stage_eval_retrieval,
          (("queries", "queries"), ("corpus", "corpus"), ("qrels", "qrels"))),
    Stage("eval-clustering", ("heads",), _stage_eval_clustering,
          (("clustering_task", "clustering"),)),
    Stage("explain", ("heads", "bank"), _stage_explain, _STS),
    Stage("ablate", ("heads",), _stage_ablate, _STS),
    Stage("cost", (), _stage_cost),
]}
STAGE_ORDER = list(STAGES)


@dataclass(frozen=True)
class StageResult:
    stage: str
    skipped: bool
    summary: dict


def _unset_task(stage: Stage, cfg: PipelineConfig) -> str | None:
    """The [eval] key of the first task file the stage reads that is not configured."""
    return next((key for _, key in stage.tasks if not getattr(cfg.eval, key)), None)


LLM_STAGES = ("generate", "probe", "collect")


def _read_transcript(cfg: PipelineConfig, config_dir: Path) -> dict[str, str]:
    """A scripted run's transcript; an unset key, a missing file or a bad line
    raises ConfigError. Not at load: a config without [llm] may still run the
    other stages."""
    if not cfg.llm.transcript:
        raise ConfigError("[llm] transcript is required when kind = scripted")
    try:
        return read_transcript(config_dir / cfg.llm.transcript)
    except (jsonl.CorruptFileError, OSError) as exc:
        raise ConfigError(f"[llm] transcript: {exc}") from exc


def _config_files(stage: Stage, cfg: PipelineConfig, config_dir: Path) -> dict[str, Path]:
    """Configured files a stage reads, by state key, for change detection: its
    task files, ingest's [corpus] input and, in a scripted run, the transcript
    of the stages that call the LLM."""
    files = {f"file:{key}": getattr(cfg.eval, attr) for key, attr in stage.tasks}
    if stage.name == "ingest":
        files["file:corpus_input"] = cfg.corpus.input
    if cfg.llm.kind == "scripted" and stage.name in LLM_STAGES:
        files["file:transcript"] = cfg.llm.transcript
    return {key: config_dir / path for key, path in files.items() if path}


def run_stage(name: str, cfg: PipelineConfig, ws: Workspace, config_dir: Path,
              force: bool = False) -> StageResult:
    if name not in STAGES:
        raise ConfigError(f"unknown stage {name!r}; "
                          f"known: {', '.join(STAGE_ORDER)}")
    stage = STAGES[name]
    unset = _unset_task(stage, cfg)
    if unset:
        raise ConfigError(f"[eval] {unset} is not configured; stage '{name}' reads it")
    scripted = cfg.llm.kind == "scripted" and name in LLM_STAGES
    transcript = _read_transcript(cfg, config_dir) if scripted else None
    ch = config_hash(cfg)
    input_fps, up_to_date = ws.check(name, stage.inputs, _config_files(stage, cfg, config_dir),
                                     ch, force=force)
    if up_to_date:
        ws.log({"stage": name, "status": "skipped"})
        return StageResult(stage=name, skipped=True, summary={})
    ctx = StageContext(cfg=cfg, ws=ws, config_dir=config_dir, input_fps=input_fps,
                       transcript=transcript)
    started = time.perf_counter()
    try:
        inputs: dict = {}
        for artifact in stage.inputs:
            inputs[artifact] = READERS[artifact](ws.path(artifact), inputs)
        summary = stage.func(ctx, **inputs)
    finally:
        ctx.close()
    elapsed = round(time.perf_counter() - started, 3)
    ws.record_stage(name, ch, input_fps, {a: file_fingerprint(ws.path(a)) for a in stage.outputs})
    ws.log({"stage": name, "status": "ran", "seconds": elapsed, **summary, **ctx.llm_counts()})
    return StageResult(stage=name, skipped=False, summary=summary)


def run_all(cfg: PipelineConfig, ws: Workspace, config_dir: Path,
            force: bool = False) -> list[StageResult]:
    """Run every applicable stage in order; snapshot the config for provenance."""
    if cfg.llm.kind == "scripted":
        _read_transcript(cfg, config_dir)  # before anything is written
    jsonl.write_text(ws.root / "config.ini", dump_config(cfg))
    results = []
    for stage in STAGES.values():
        if _unset_task(stage, cfg) or (stage.name == "explain" and not cfg.eval.explain_pairs):
            ws.log({"stage": stage.name, "status": "not-configured"})
            continue
        results.append(run_stage(stage.name, cfg, ws, config_dir, force=force))
    return results


# --------------------------------------------------------------------------
# bundled demo

_DEMO_CONFIG = """\
[pipeline]
seed = {seed}

[corpus]
input = demo_corpus.jsonl
format = json-lines
heldout_fraction = 0.1

[encoder]
kind = mock
dim = {dim}
seed = 0

[llm]
kind = oracle

[cluster]
k = 4

[generation]
positives = {gen_pos}
hard_negatives = {gen_neg}
easy_negatives = {gen_neg}
hard_neighbor_clusters = 2

[probe]
neighbor_clusters = 2

[collection]
in_cluster = {in_cluster}
neighbor = {neighbor}
neighbor_clusters = 2
random = {random}

[training]
learning_rate = {learning_rate}
steps = {steps}
hidden = {hidden}

[eval]
sts = sts.jsonl
queries = queries.jsonl
corpus = retrieval_corpus.jsonl
qrels = qrels.jsonl
clustering = clustering.jsonl
explain_pairs = 2
ablate_taus = 0.1,0.3,0.5,0.7,0.9
ablate_dims = 4,8,16
"""


def write_demo_workspace(root: Path, seed: int = 0, *, n_per_topic: int = 50,
                         steps: int = 20_000, learning_rate: float = 3e-3,
                         hidden: int = 16, dim: int = 64,
                         sts_pairs: int = 150) -> Path:
    """Write the synthetic corpus, task files, and desk-scale config; return
    the config path. Four latent topics, deterministic rule-based provider."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    corpus = synthetic_corpus(n_per_topic=n_per_topic, seed=seed)
    sts = synthetic_sts_task(corpus, n_pairs=sts_pairs,
                             seed=stage_seed(seed, "demo-sts"))
    retrieval = synthetic_retrieval_task(corpus, queries_per_topic=2,
                                         seed=stage_seed(seed, "demo-retrieval"))
    clustering = synthetic_clustering_task(corpus)
    for name, records in [
        ("demo_corpus.jsonl", map(asdict, corpus)),
        ("sts.jsonl", map(asdict, sts.pairs)),
        ("queries.jsonl", ({"id": q, "text": retrieval.queries[q]}
                           for q in sorted(retrieval.queries))),
        ("retrieval_corpus.jsonl", ({"id": d, "text": retrieval.corpus[d]}
                                    for d in sorted(retrieval.corpus))),
        ("qrels.jsonl", ({"query_id": q, "doc_id": d, "rel": retrieval.qrels[q][d]}
                         for q in sorted(retrieval.qrels) for d in sorted(retrieval.qrels[q]))),
        ("clustering.jsonl", ({"text": t, "label": label}
                              for t, label in zip(clustering.texts, clustering.labels))),
    ]:
        jsonl.write(root / name, records, sort_keys=True)
    config_path = root / "demo.ini"
    config_path.write_text(
        _DEMO_CONFIG.format(seed=seed, dim=dim, steps=steps, hidden=hidden,
                            learning_rate=learning_rate,
                            gen_pos=min(6, n_per_topic // 2),
                            gen_neg=min(18, (3 * n_per_topic) // 4),
                            in_cluster=n_per_topic,
                            neighbor=(3 * n_per_topic) // 5,
                            random=(2 * n_per_topic) // 5),
        encoding="utf-8")
    return config_path
