"""Byte format of every file the program writes as json-lines, pinned by sha256.

The records hold non-ASCII strings on purpose: the bundled demo corpus is pure
ASCII, so it cannot tell an ``ensure_ascii`` or key-order change apart. Only
long-standing public writers are used, so the digests can be checked against
older revisions of the program as well.
"""

import hashlib

import numpy as np

from qembed.cluster import ClusterModel, save_cluster_model
from qembed.config import CostSection
from qembed.corpus import Corpus, Document, save_corpus
from qembed.cost import comparison_rows, cost_rows_jsonl
from qembed.heads import TrainingExample
from qembed.pipeline import _write_examples, write_demo_workspace
from qembed.providers import AnswerCache, PromptCacheStore
from qembed.question_gen import BankQuestion, QuestionBank, save_question_bank
from qembed.workspace import Workspace

PINNED = {
    "corpus.jsonl": "f365f09c8396cc2dea79e0750f5ae634993778c6248f8010bfabb0fc23cc01a8",
    "bank.jsonl": "8d62958cf015d2c083044e13277b6da224fbafdbe02aabc7d6728b975d26aab4",
    "cluster.model": "9b3bb2e8c6201b721e92c0a7a121ce52ad0e02bac0d98279ff42177a5129535b",
    "answers.jsonl": "d9ba8404a63cff8eef41c8cec84a82dafb0996916dc6c781a0f9ac40966b2db2",
    "prompt_cache.jsonl": "947c25c69ee2e854dc0a3a5bbf64dd16af8c2e482de2a504a453e9a9f501e2c2",
    "train_examples.jsonl": "81e3b88b03042f2cc97ffa9d4b9f2154118c0aae10f3ee075d9ffdfaf19b264a",
    "run_log.jsonl": "eaca1a63620956a0bd40fb1d65241bfa4b3b21d38958f1b53f788f052ccf5710",
    "state.json": "33ecc98bc332ec4d3667e87b509526e5265ac4d07c60959c77d271eacf6a9108",
    "cost.jsonl": "24886327fded0d28aec4589e44851c76430c13ce00b0dfcefc4113af84332f57",
    "demo/demo_corpus.jsonl": "029b2ab7551d42433f8dbb297f3dcc6ed6ea1d725c3be0870f1942d678630eb3",
    "demo/sts.jsonl": "8cf7bcad5fe4742d520034be74e8e6f33529f23cf0ad91bd75a827eb2091a4a0",
    "demo/queries.jsonl": "5f08b9e16d94918ac05cca68265b0667ffa1eb236e688e60b30c3aaac512cc37",
    "demo/retrieval_corpus.jsonl": "2d2a92998b72c572adbc51475807bda4bd9774b16620fd9fcbe90a82b0488ac5",
    "demo/qrels.jsonl": "16333161c3e0a3f7bd890e5dd7daeed39be8ab628e527b43de084b2c7a1ae192",
    "demo/clustering.jsonl": "f080e43e89ae3ee8e80b2fc53a24d4b57cc9208d4c1e44b0ba5e51e18fbdb8eb",
}


def write_every_format(root):
    save_corpus(Corpus(documents=[Document(id="café-1", text="un café noir", source="bistró"),
                                  Document(id="d2", text="plain text")]),
                root / "corpus.jsonl")
    save_question_bank(QuestionBank(
        questions=[BankQuestion(id=0, text="Is it about café?", origin_cluster=1,
                                quality=0.5, embedding=np.array([0.6, 0.8])),
                   BankQuestion(id=1, text="Naïve?", origin_cluster=0, quality=None)],
        theta=0.8, t=4, encoder_fingerprint="encodé:1"), root / "bank.jsonl")
    save_cluster_model(ClusterModel(centroids=np.array([[1.0, 0.0], [0.0, 1.0]]),
                                    doc_ids=["café-1", "d2"], labels=np.array([0, 1]),
                                    seed=3, inertia=0.25, iterations=2),
                       root / "cluster.model")
    with AnswerCache(root / "answers.jsonl") as answers:
        answers.put("café-1", [("Is it about café?", 1), ("Naïve?", 0)])
        answers.put("d2", [("Naïve?", 0)])
    with PromptCacheStore(root / "prompt_cache.jsonl") as prompts:
        prompts.put("fp-é", "1. oui, café")
    _write_examples(root / "train_examples.jsonl",
                    [TrainingExample("café-1", {10: 0, 2: 1}), TrainingExample("d2", {2: 0})])
    ws = Workspace(root)
    ws.log({"stage": "café", "seconds": 0.5})
    ws.record_stage("café", "cfg-é", {"corpus": "ab"}, {"bank": "cd"})
    rows = comparison_rows(CostSection(num_docs=1000, question_counts="2000,4000"))
    (root / "cost.jsonl").write_text(cost_rows_jsonl(rows, 1000), encoding="utf-8")
    write_demo_workspace(root / "demo", seed=0, n_per_topic=4, sts_pairs=6)


def test_json_lines_byte_format_is_pinned(tmp_path):
    write_every_format(tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED}
    assert digests == PINNED
