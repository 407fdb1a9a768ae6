"""Span tracer that wraps qembed's public functions from the outside.

Each target is patched at every name its callers look up: the home module,
every qembed module that imported it by name, or the class that owns it. A
span records (name, start, end, parent) and is kept in memory; counters are
taken from the call's arguments and result. Self time is a span's duration
minus the time its child spans cover, so a function that calls the encoder
inside is not charged for the encoder.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

from qembed import (answering, binary, cluster, corpus, evaluation, heads,
                    pipeline, prompts, providers, question_gen, synthetic,
                    workspace)

STAGES = list(pipeline.STAGE_ORDER)


def _note_train(c, args, kwargs, result):
    cfg = kwargs.get("cfg", args[4] if len(args) > 4 else None)
    c["heads.train_steps"] += cfg.steps


def _note_embed(c, args, kwargs, result):
    c["heads.embed_docs"] += len(args[0])


def _note_encode(c, args, kwargs, result):
    c["providers.encode_docs"] += len(args[1])


def _note_kmeans(c, args, kwargs, result):
    c["cluster.kmeans_iterations"] += result.iterations


def _note_select(c, args, kwargs, result):
    c["question_gen.select_candidates"] += len(args[0])
    c["question_gen.bank_size"] += result.m


def _note_collect(c, args, kwargs, result):
    c["answering.pairs"] += result.requested_pairs
    c["answering.llm_calls"] += result.llm_calls
    c["answering.cache_hits"] += result.cache_hits
    c["answering.unparsed"] += result.unparsed


def _note_retrieval(c, args, kwargs, result):
    c["evaluation.retrieval_queries"] += len(args[0].queries)


def _note_fingerprint(c, args, kwargs, result):
    c["workspace.fingerprint_bytes"] += os.path.getsize(args[0])


# (span name, home object, attribute, counter hook). Functions are patched in
# every qembed module that holds them; methods are patched on their class.
FUNCTION_TARGETS = [
    ("heads.train", heads, "train_heads", _note_train),
    ("heads.embed", heads, "embed_documents", _note_embed),
    ("heads.load", heads, "load_heads", None),
    ("heads.evaluate_heldout", heads, "evaluate_heldout", None),
    ("cluster.kmeans_fit", cluster, "kmeans_fit", _note_kmeans),
    ("cluster.nearest_clusters", cluster, "nearest_clusters", None),
    ("question_gen.generate", question_gen, "generate_cluster_questions", None),
    ("question_gen.probe", question_gen, "probe_question", None),
    ("question_gen.select", question_gen, "select_question_bank", _note_select),
    ("answering.collect", answering, "collect_answers", _note_collect),
    ("prompts.render", prompts, "render_contrastive_prompt", None),
    ("prompts.render", prompts, "render_answer_prompt", None),
    ("prompts.render", prompts, "render_example_based_prompt", None),
    ("evaluation.retrieval", evaluation, "retrieval_evaluate", _note_retrieval),
    ("evaluation.sts", evaluation, "sts_evaluate", None),
    ("evaluation.clustering", evaluation, "clustering_evaluate", None),
    ("evaluation.explain", evaluation, "explain_pair", None),
    ("binary.save", binary, "save_binary_matrix", None),
    ("binary.load", binary, "load_binary_matrix", None),
    ("corpus.load", corpus, "load_corpus", None),
    ("workspace.fingerprint", workspace, "file_fingerprint", _note_fingerprint),
]

METHOD_TARGETS = [
    ("providers.encode", providers.MockEncoder, "encode", _note_encode),
    ("providers.answer_cache_put", providers.AnswerCache, "put", None),
    ("providers.answer_cache_load", providers.AnswerCache, "__init__", None),
    ("synthetic.oracle", synthetic.TopicOracleLLM, "complete", None),
    ("binary.from_dense", binary.BinaryMatrix, "from_dense", None),
    ("binary.pair_load", binary.BinaryMatrix, "pair_load", None),
]


class Tracer:
    """Collects spans and counters while installed; restores every patch on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = _zero_counts()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if note is not None:
                note(self.counts, args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qembed" or n.startswith("qembed.")]
        for name, home, attr, note in FUNCTION_TARGETS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, note)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        for name, cls, attr, note in METHOD_TARGETS:
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__, note))
            else:
                wrapper = self._wrap(name, original, note)
            self._patch(cls, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, float]:
        """Per span name: call count and summed self time, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict(self.counts)
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - children)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _zero_counts() -> dict[str, float]:
    return {k: 0 for k in ("heads.train_steps", "heads.embed_docs", "providers.encode_docs",
                           "cluster.kmeans_iterations", "question_gen.select_candidates",
                           "question_gen.bank_size", "answering.pairs", "answering.llm_calls",
                           "answering.cache_hits", "answering.unparsed",
                           "evaluation.retrieval_queries", "workspace.fingerprint_bytes")}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict[str, float], stage_seconds: dict[str, float],
                  passes: int, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics per traced pass, named as in BENCHMARK.json."""
    t = {k: v / passes for k, v in totals.items()}

    def self_s(span):
        return t.get(f"{span}.self_s", 0.0)

    def calls(span):
        return t.get(f"{span}.calls", 0)

    out = {f"pipeline.{s}_s": stage_seconds.get(s, 0.0) / passes for s in STAGES}
    out.update({
        "heads.train_s": self_s("heads.train"),
        "heads.train_steps": t["heads.train_steps"],
        "heads.train_us_per_step": 1e6 * _ratio(self_s("heads.train"), t["heads.train_steps"]),
        "heads.embed_s": self_s("heads.embed"),
        "heads.embed_docs": t["heads.embed_docs"],
        "heads.forward_docs_per_s": _ratio(t["heads.embed_docs"], self_s("heads.embed")),
        "heads.load_s": self_s("heads.load"),
        "heads.evaluate_heldout_s": self_s("heads.evaluate_heldout"),
        "providers.encode_calls": calls("providers.encode"),
        "providers.encode_docs": t["providers.encode_docs"],
        "providers.encode_s": self_s("providers.encode"),
        "providers.encode_docs_per_s": _ratio(t["providers.encode_docs"],
                                              self_s("providers.encode")),
        "providers.answer_cache_puts": calls("providers.answer_cache_put"),
        "providers.answer_cache_put_s": self_s("providers.answer_cache_put"),
        "providers.answer_cache_load_s": self_s("providers.answer_cache_load"),
        "cluster.kmeans_fit_calls": calls("cluster.kmeans_fit"),
        "cluster.kmeans_fit_s": self_s("cluster.kmeans_fit"),
        "cluster.kmeans_iterations": t["cluster.kmeans_iterations"],
        "cluster.nearest_clusters_calls": calls("cluster.nearest_clusters"),
        "cluster.nearest_clusters_s": self_s("cluster.nearest_clusters"),
        "question_gen.generate_s": self_s("question_gen.generate"),
        "question_gen.probe_calls": calls("question_gen.probe"),
        "question_gen.probe_s": self_s("question_gen.probe"),
        "question_gen.select_s": self_s("question_gen.select"),
        "question_gen.select_candidates": t["question_gen.select_candidates"],
        "question_gen.bank_size": t["question_gen.bank_size"],
        "question_gen.admit_share": _ratio(t["question_gen.bank_size"],
                                           t["question_gen.select_candidates"]),
        "answering.collect_s": self_s("answering.collect"),
        "answering.pairs": t["answering.pairs"],
        "answering.llm_calls": t["answering.llm_calls"],
        "answering.cache_hits": t["answering.cache_hits"],
        "answering.unparsed": t["answering.unparsed"],
        "answering.pairs_per_call": _ratio(t["answering.pairs"] - t["answering.cache_hits"],
                                           t["answering.llm_calls"]),
        "prompts.render_calls": calls("prompts.render"),
        "prompts.render_s": self_s("prompts.render"),
        "synthetic.oracle_calls": calls("synthetic.oracle"),
        "synthetic.oracle_s": self_s("synthetic.oracle"),
        "evaluation.retrieval_s": self_s("evaluation.retrieval"),
        "evaluation.retrieval_queries": t["evaluation.retrieval_queries"],
        "evaluation.sts_s": self_s("evaluation.sts"),
        "evaluation.clustering_s": self_s("evaluation.clustering"),
        "evaluation.explain_calls": calls("evaluation.explain"),
        "evaluation.explain_s": self_s("evaluation.explain"),
        "binary.from_dense_s": self_s("binary.from_dense"),
        "binary.save_s": self_s("binary.save"),
        "binary.load_s": self_s("binary.load"),
        "binary.pair_load_calls": calls("binary.pair_load"),
        "corpus.load_calls": calls("corpus.load"),
        "corpus.load_s": self_s("corpus.load"),
        "workspace.fingerprint_calls": calls("workspace.fingerprint"),
        "workspace.fingerprint_s": self_s("workspace.fingerprint"),
        "workspace.fingerprint_bytes": t["workspace.fingerprint_bytes"],
        "trace.overhead_share": overhead_share,
    })
    return {k: float(v) for k, v in out.items()}


def self_time_shares(totals: dict[str, float]) -> dict[str, float]:
    """Each span name's share of all traced self time, largest first."""
    selfs = {k[:-len(".self_s")]: v for k, v in totals.items() if k.endswith(".self_s")}
    whole = sum(selfs.values())
    return {k: round(v / whole, 4) for k, v in
            sorted(selfs.items(), key=lambda kv: -kv[1]) if whole}

