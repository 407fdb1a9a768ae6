"""Stage orchestration: ordering, skip logic, fingerprints, determinism."""

import dataclasses
import gc
import hashlib
import inspect
import json
import os
import shutil
import signal
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qembed
from qembed import config, jsonl
from qembed.binary import BinaryMatrix, save_binary_matrix
from qembed.config import ConfigError, config_hash, load_config, with_seed
from qembed.cluster import kmeans_fit
from qembed.corpus import Corpus, Document, content_id, load_corpus
from qembed.evaluation import load_sts_task, mean_cognitive_load, sts_evaluate
from qembed.heads import TrainingExample, embed_documents, load_heads, save_heads, train_heads
from qembed.metrics import MetricError
from qembed.pipeline import (READERS, STAGE_ORDER, STAGES, StageContext, run_all, run_stage,
                             stage_seed, write_demo_workspace)
from qembed.providers import AnswerCache, CachedLLM, MockEncoder, PromptCacheStore
from qembed.synthetic import TopicOracleLLM
from qembed.question_gen import load_question_bank
from qembed.workspace import (ARTIFACTS, DependencyError, FingerprintError,
                              Workspace)

MINI = dict(n_per_topic=16, steps=2500, hidden=8, dim=64, sts_pairs=60)


def build_mini(root: Path, seed: int = 0):
    cfg_path = write_demo_workspace(root, seed=seed, **MINI)
    cfg = load_config(cfg_path)
    ws = Workspace(root)
    results = run_all(cfg, ws, config_dir=cfg_path.parent)
    return cfg_path, cfg, ws, results


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    return build_mini(root)


@pytest.fixture()
def mini_copy(mini, tmp_path):
    """Private mutable copy of the finished mini workspace."""
    cfg_path, cfg, ws, _ = mini
    root = tmp_path / "copy"
    shutil.copytree(ws.root, root)
    return root / cfg_path.name, cfg, Workspace(root)


# -- stage seeds -------------------------------------------------------------

def test_stage_seed_deterministic():
    assert stage_seed(7, "train") == stage_seed(7, "train")


def test_stage_seed_varies_by_stage_and_root():
    seeds = {stage_seed(0, name) for name in STAGE_ORDER}
    assert len(seeds) == len(STAGE_ORDER)
    assert stage_seed(0, "train") != stage_seed(1, "train")


def test_stage_seed_fits_generator_range():
    s = stage_seed(123, "cluster")
    assert 0 <= s < 2 ** 64


# -- a full mini run ---------------------------------------------------------

def test_run_all_covers_every_stage_in_order(mini):
    _, _, _, results = mini
    assert [r.stage for r in results] == STAGE_ORDER
    assert not any(r.skipped for r in results)


def test_all_artifacts_exist(mini):
    _, _, ws, _ = mini
    for name in ARTIFACTS:
        assert ws.path(name).exists(), name


def test_state_records_every_stage(mini):
    _, _, ws, _ = mini
    state = json.loads((ws.root / "state.json").read_text())
    assert set(state["stages"]) == set(STAGE_ORDER)


def test_config_snapshot_matches_hash(mini):
    _, cfg, ws, _ = mini
    from qembed.config import dump_config
    assert (ws.root / "config.ini").read_text() == dump_config(cfg)


def test_config_snapshot_write_failing_partway_keeps_the_previous_one(mini_copy, monkeypatch):
    """A snapshot whose text cannot be encoded fails after the file is opened;
    the previous snapshot stays, byte for byte, and no temporary is left."""
    cfg_path, cfg, ws = mini_copy
    snapshot = ws.root / "config.ini"
    before = snapshot.read_bytes()
    import qembed.pipeline as pipeline_module
    monkeypatch.setattr(pipeline_module, "dump_config",
                        lambda cfg: "[pipeline]\nseed = 1\n\ud800\n")
    with pytest.raises(UnicodeEncodeError):
        run_all(cfg, ws, config_dir=cfg_path.parent)
    assert snapshot.read_bytes() == before
    assert sorted(p.name for p in ws.root.glob("config.ini*")) == ["config.ini"]


def test_heldout_report_has_provenance_and_accuracy(mini):
    _, cfg, ws, _ = mini
    report = json.loads(ws.path("heldout_report").read_text())
    assert report["provenance"]["config_hash"] == config_hash(cfg)
    assert report["accuracy"] >= 0.9


def test_sts_report_numbers(mini):
    _, _, ws, _ = mini
    report = json.loads(ws.path("sts_report").read_text())
    assert report["spearman"] >= 0.6
    assert report["spearman_x100"] == pytest.approx(report["spearman"] * 100)
    assert report["mean_cognitive_load_rounded"] == int(report["mean_cognitive_load"] + 0.5)
    assert "provenance" in report


def test_retrieval_report_numbers(mini):
    _, _, ws, _ = mini
    report = json.loads(ws.path("retrieval_report").read_text())
    assert 0.0 <= report["mean_ndcg"] <= 1.0
    assert len(report["per_query"]) == 8  # 2 queries x 4 topics


def test_clustering_report_numbers(mini):
    _, _, ws, _ = mini
    report = json.loads(ws.path("clustering_report").read_text())
    assert 0.0 <= report["v_measure"] <= 1.0


def test_embed_meta_carries_bank_fingerprint(mini):
    _, _, ws, results = mini
    select = next(r for r in results if r.stage == "select")
    meta = json.loads(ws.path("embed_meta").read_text())
    assert meta["bank_fingerprint"] == select.summary["bank_fingerprint"]
    assert meta["tau"] == 0.5


def test_explanations_rows(mini):
    _, cfg, ws, _ = mini
    lines = ws.path("explanations").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["provenance"]["config_hash"] == config_hash(cfg)
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row["cognitive_load"] == len(row["shared_yes"])
        assert set(row) >= {"text_a", "text_b", "only_a", "only_b"}


def test_ablate_tau_load_non_increasing(mini):
    _, _, ws, _ = mini
    rows = [json.loads(line)
            for line in ws.path("ablation_report").read_text().splitlines()[1:]]
    taus = [r for r in rows if r["parameter"] == "tau"]
    dims = [r for r in rows if r["parameter"] == "dims"]
    assert [r["value"] for r in taus] == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert [r["value"] for r in dims] == [4, 8, 16]
    loads = [r["mean_load"] for r in taus]
    assert all(a >= b for a, b in zip(loads, loads[1:]))


def test_cost_report_rows(mini):
    _, _, ws, _ = mini
    lines = ws.path("cost_report").read_text().splitlines()
    assert "provenance" in json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    assert [r["num_questions"] for r in rows] == [2000, 4000, 6000, 8000, 10000]


def test_run_log_appended(mini):
    _, _, ws, _ = mini
    entries = [json.loads(line)
               for line in (ws.root / "run_log.jsonl").read_text().splitlines()]
    assert sum(1 for e in entries if e.get("status") == "ran") == len(STAGE_ORDER)


# -- each corpus text encoded once -------------------------------------------

def _fresh_encoder(cfg):
    return MockEncoder(dim=cfg.encoder.dim, seed=cfg.encoder.seed)


def _examples(path):
    return list(jsonl.read(path, lambda rec: TrainingExample(
        rec["document_id"], {int(q): a for q, a in rec["answers"].items()})))


def test_embed_stage_matches_a_fresh_encode(mini, tmp_path):
    """embeddings.bin, built from doc_embeddings.npy, equals embedding the
    corpus texts with a fresh encoder."""
    _, cfg, ws, _ = mini
    corpus = load_corpus(ws.path("corpus"))
    matrix = embed_documents(corpus.texts(), _fresh_encoder(cfg), load_heads(ws.path("heads")),
                             tau=cfg.training.tau, row_ids=corpus.ids())
    save_binary_matrix(matrix, tmp_path / "fresh.bin")
    assert (tmp_path / "fresh.bin").read_bytes() == ws.path("matrix").read_bytes()


def test_training_on_stored_rows_matches_a_fresh_encode(mini, tmp_path):
    _, cfg, ws, _ = mini
    corpus = load_corpus(ws.path("corpus"))
    texts = corpus.text_by_id()
    train = _examples(ws.path("train_examples"))
    row = {doc_id: i for i, doc_id in enumerate(corpus.ids())}
    stored = np.load(ws.path("doc_embeddings"))[[row[ex.document_id] for ex in train]]
    fresh = _fresh_encoder(cfg).encode([texts[ex.document_id] for ex in train])
    assert cfg.training.pos_weight == "auto"
    seed = stage_seed(cfg.pipeline.seed, "train")
    bank = load_question_bank(ws.path("bank"))
    from_stored = train_heads(train, stored, bank, cfg=cfg.training, seed=seed)
    from_fresh = train_heads(train, fresh, bank, cfg=cfg.training, seed=seed)
    assert from_stored.params.tobytes() == from_fresh.params.tobytes()
    save_heads(from_stored, tmp_path / "heads.bin")
    assert (tmp_path / "heads.bin").read_bytes() == ws.path("heads").read_bytes()


def test_heldout_report_scores_the_heads_as_saved(mini_copy, monkeypatch):
    """train scores held-out answers on heads.bin as load_heads gives it back,
    float32 and read-only: the heads every later stage embeds with."""
    cfg_path, cfg, ws = mini_copy
    seen = []
    real = qembed.pipeline.evaluate_heldout

    def spy(heads, *args, **kwargs):
        seen.append(heads)
        return real(heads, *args, **kwargs)

    monkeypatch.setattr(qembed.pipeline, "evaluate_heldout", spy)
    report = ws.path("heldout_report").read_bytes()
    run_stage("train", cfg, ws, cfg_path.parent, force=True)
    [heads] = seen
    assert heads.params.dtype == np.float32 and not heads.params.flags.writeable
    assert heads.params.tobytes() == load_heads(ws.path("heads")).params.tobytes()
    assert ws.path("heldout_report").read_bytes() == report


def test_ablate_rows_match_re_embedding_at_each_tau(mini):
    cfg_path, cfg, ws, _ = mini
    task = load_sts_task(cfg_path.parent / cfg.eval.sts)
    heads = load_heads(ws.path("heads"))
    texts = task.texts()

    def embed(tau):
        return embed_documents(texts, _fresh_encoder(cfg), heads, tau=tau,
                               row_ids=[content_id(t) for t in texts])

    def numbers(matrix):
        try:
            rho = sts_evaluate(task, matrix).spearman
        except MetricError:
            rho = None
        return rho, mean_cognitive_load(task, matrix).exact

    rows = [json.loads(line)
            for line in ws.path("ablation_report").read_text().splitlines()[1:]]
    assert {r["parameter"] for r in rows} == {"tau", "dims"}
    base = embed(cfg.training.tau).to_dense()
    for r in rows:
        matrix = (embed(r["value"]) if r["parameter"] == "tau"
                  else BinaryMatrix.from_dense(base[:, :r["value"]], [content_id(t) for t in texts]))
        assert (r["spearman"], r["mean_load"]) == numbers(matrix), r


def test_ablate_takes_every_tau_from_one_bits_call(mini_copy, monkeypatch):
    """The sweep's taus and the training tau, which the width rows cut, come
    from one embedding_bits call on the heads as saved."""
    cfg_path, cfg, ws = mini_copy
    calls = []
    real = qembed.pipeline.embedding_bits

    def spy(heads, embeddings, taus):
        calls.append(list(taus))
        return real(heads, embeddings, taus)

    monkeypatch.setattr(qembed.pipeline, "embedding_bits", spy)
    report = ws.path("ablation_report").read_bytes()
    run_stage("ablate", cfg, ws, cfg_path.parent, force=True)
    assert calls == [[*config.parse_float_list(cfg.eval.ablate_taus), cfg.training.tau]]
    assert ws.path("ablation_report").read_bytes() == report


def test_ablate_widths_alone_skip_those_past_the_bank(mini_copy, caplog):
    """With no tau sweep, ablate still cuts the training tau's bits; a width
    past the bank's m is skipped with a warning."""
    cfg_path, cfg, ws = mini_copy
    cfg = dataclasses.replace(cfg, eval=dataclasses.replace(cfg.eval, ablate_taus="",
                                                           ablate_dims="3,999"))
    run_stage("ablate", cfg, ws, cfg_path.parent, force=True)
    rows = [json.loads(line)
            for line in ws.path("ablation_report").read_text().splitlines()[1:]]
    assert [(r["parameter"], r["value"]) for r in rows] == [("dims", 3)]
    assert "skipping ablation width 999" in caplog.text
    task = load_sts_task(cfg_path.parent / cfg.eval.sts)
    texts = task.texts()
    full = embed_documents(texts, _fresh_encoder(cfg), load_heads(ws.path("heads")),
                           tau=cfg.training.tau, row_ids=[content_id(t) for t in texts])
    cut = BinaryMatrix.from_dense(full.to_dense()[:, :3], full.row_ids)
    assert rows[0]["mean_load"] == mean_cognitive_load(task, cut).exact


def test_no_corpus_text_is_encoded_after_the_encode_stage(tmp_path, monkeypatch):
    """Only the encode stage encodes the corpus; train and embed reuse its rows,
    and ablate encodes the STS texts once for all its settings."""
    calls = []  # (stage, texts)
    running = []
    encode = MockEncoder.encode

    def counted(self, texts):
        calls.append((running[-1], list(texts)))
        return encode(self, texts)

    monkeypatch.setattr(MockEncoder, "encode", counted)
    for name, stage in STAGES.items():
        def func(ctx, name=name, inner=stage.func, **inputs):
            running.append(name)
            return inner(ctx, **inputs)
        monkeypatch.setitem(STAGES, name, dataclasses.replace(stage, func=func))
    cfg_path = write_demo_workspace(tmp_path, seed=0, **{**MINI, "steps": 100})
    cfg = load_config(cfg_path)
    run_all(cfg, Workspace(tmp_path), config_dir=cfg_path.parent)

    corpus_texts = load_corpus(Workspace(tmp_path).path("corpus")).texts()
    sts_texts = load_sts_task(cfg_path.parent / cfg.eval.sts).texts()
    by_stage = Counter(stage for stage, _ in calls)
    assert [texts for stage, texts in calls if stage == "encode"] == [corpus_texts]
    assert [texts for stage, texts in calls if stage == "ablate"] == [sts_texts]
    # the rest encode question texts (select) or their task file's texts
    assert set(by_stage) == {"encode", "select", "eval-sts", "eval-retrieval",
                             "eval-clustering", "explain", "ablate"}
    assert not {t for stage, texts in calls if stage == "select" for t in texts} \
        & set(corpus_texts)


@pytest.fixture(scope="module")
def collected(tmp_path_factory):
    """A small workspace run through collect, three questions per answer prompt."""
    root = tmp_path_factory.mktemp("collected")
    cfg_path = write_demo_workspace(root, seed=0, **{**MINI, "n_per_topic": 8})
    cfg_path.write_text(cfg_path.read_text().replace("[collection]\n",
                                                     "[collection]\ngroup = 3\n"))
    cfg = load_config(cfg_path)
    assert cfg.collection.group == 3
    ws = Workspace(root)
    for name in STAGE_ORDER[:STAGE_ORDER.index("collect") + 1]:
        run_stage(name, cfg, ws, config_dir=cfg_path.parent)
    return cfg_path, cfg, ws


def test_resume_after_a_kill_inside_a_batched_append(collected, tmp_path, opened):
    """Each LLM call's answers are one line, written in one append. answers.jsonl
    cut at every byte of its last line resumes to the uninterrupted examples and cache."""
    cfg_path, cfg, ws = collected
    blob = ws.path("answers").read_bytes()
    start = blob.rindex(b"\n", 0, len(blob) - 1) + 1
    assert len(json.loads(blob[start:])["answers"]) == 3
    expected = {name: ws.path(name).read_bytes()
                for name in ("train_examples", "heldout_examples")}
    cache = opened(AnswerCache(ws.path("answers"))).entries
    copy = Workspace(shutil.copytree(ws.root, tmp_path / "ws"))
    for cut in range(start, len(blob)):
        copy.path("answers").write_bytes(blob[:cut])
        run_stage("collect", cfg, copy, config_dir=cfg_path.parent, force=True)
        for name, want in expected.items():
            assert copy.path(name).read_bytes() == want, (name, cut)
        with AnswerCache(copy.path("answers")) as resumed:
            assert resumed.entries == cache, cut


_DIE_MID_COLLECT = """
import os, signal, sys
from pathlib import Path
from qembed.config import load_config
from qembed.pipeline import run_stage
from qembed.synthetic import TopicOracleLLM
from qembed.workspace import Workspace

config_path, root, last_call = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
complete, calls = TopicOracleLLM.complete, []

def dying(self, prompt):
    calls.append(prompt)
    if len(calls) > last_call:
        os.kill(os.getpid(), signal.SIGKILL)
    return complete(self, prompt)

TopicOracleLLM.complete = dying
run_stage("collect", load_config(config_path), Workspace(root), config_path.parent, force=True)
"""


def test_a_process_killed_mid_collect_resumes_to_the_same_answers(collected, tmp_path):
    """A child killed after some of collect's LLM calls leaves every answer it
    was given on disk; resuming asks for the rest and writes the same bytes."""
    cfg_path, cfg, ws = collected
    want = {name: ws.path(name).read_bytes()
            for name in ("answers", "train_examples", "heldout_examples")}
    calls = sum(json.loads(line).get("llm_calls", 0)
                for line in (ws.root / "run_log.jsonl").read_text().splitlines())
    assert calls > 4
    copy = Workspace(shutil.copytree(ws.root, tmp_path / "ws"))
    for name in want:
        copy.path(name).unlink()
    env = {**os.environ, "PYTHONPATH": str(Path(qembed.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", _DIE_MID_COLLECT,
                            str(copy.root / cfg_path.name), str(copy.root), str(calls // 2)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == -signal.SIGKILL, child.stderr
    partial = copy.path("answers").read_bytes()
    assert len(partial.splitlines()) == calls // 2  # one line per call, whole lines only
    assert want["answers"].startswith(partial)
    run_stage("collect", cfg, copy, config_dir=cfg_path.parent, force=True)
    for name, blob in want.items():
        assert copy.path(name).read_bytes() == blob, name


def test_answer_cache_holds_one_line_per_llm_call(mini):
    """A fresh workspace's answers.jsonl holds one record per LLM call that
    collect made, and every answer of the call in it."""
    cfg_path, cfg, ws, results = mini
    collect = next(r.summary for r in results if r.stage == "collect")
    lines = ws.path("answers").read_text(encoding="utf-8").splitlines()
    assert collect["llm_calls"] > 1 and len(lines) == collect["llm_calls"]
    assert sum(len(json.loads(line)["answers"]) for line in lines) == collect["pairs"]


def test_stages_close_the_caches_they_open(mini_copy, monkeypatch):
    """collect's answer cache and a cached LLM's prompt cache are closed when
    their stage returns: nothing is left for the collector to warn about."""
    cfg_path, cfg, ws = mini_copy
    stores = []

    def cached_llm(ctx):
        stores.append(PromptCacheStore(ctx.ws.root / "prompt_cache.jsonl"))
        return CachedLLM(TopicOracleLLM(), stores[-1])

    monkeypatch.setattr(StageContext, "_build_llm", cached_llm)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for name in ("generate", "collect"):
            run_stage(name, cfg, ws, config_dir=cfg_path.parent, force=True)
        gc.collect()
    assert len(stores) == 2 and all(store._fh.closed for store in stores)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("demo", ["02_train_answering_heads.py", "04_explain_similarity.py"])
def test_demos_opening_an_answer_cache_leave_no_resource_warning(demo):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(Path(qembed.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-X", "dev", "-W", "error:unclosed:ResourceWarning",
                          str(root / "demos" / demo)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "ResourceWarning" not in run.stderr


# sha256 of a build_scale-shaped build's artifacts (seed 1, 1,200 documents,
# d=256, k=30, the default generation, probe and collection pools), taken
# from the np.add.at k-means and the per-token encoder; answers.jsonl since it
# holds one record per LLM call, and bank.jsonl since it stores no embeddings;
# reports/ablate.jsonl from the float64 probabilities thresholded at each tau
BUILD_SCALE_DIGESTS = {
    "cluster.model": "61c388445d957871be61b77cc0cc73012561c083edee9b0810f13642f21fce02",
    "bank.jsonl": "14e26d967b3fdc3a0de32b8cf480e66f97cf32b54d0a8018c6a11069b953b428",
    "answers.jsonl": "44fda7c7b0bd6de891d89c1e48f67bcc5fd3a647eb7312b1d517ad81bd1c3fc8",
    "heads.bin": "874b27feea3a85f3d3025e67e2bc18fcdcf82b2d3c9f39766b499be71c8b0fa6",
    "embeddings.bin": "3ff4b0957485846bd43e971bac292bccfdbd395ae51373c65d63fb012e52bfb2",
    "reports/clustering.json":
        "8fb70e5bdb5f868fbd1b524bebae660484193a4240c2b4ad364cc5be82e28261",
    "reports/ablate.jsonl":
        "a8ff53ed25135c66e8911ab78483e4f349e23f02ccfb51755c9b97dc78979282",
}


def test_build_scale_shaped_run_keeps_its_pinned_bytes(tmp_path):
    cfg_path = write_demo_workspace(tmp_path / "inputs", seed=1, n_per_topic=300, steps=500,
                                    dim=256)
    cfg = dataclasses.replace(load_config(cfg_path),
                              cluster=config.ClusterSection(k=30),
                              generation=config.GenerationSection(),
                              probe=config.ProbeSection(),
                              collection=config.CollectionSection())
    ws = Workspace(tmp_path / "ws")
    run_all(cfg, ws, config_dir=cfg_path.parent)
    digests = {name: hashlib.sha256((ws.root / name).read_bytes()).hexdigest()
               for name in BUILD_SCALE_DIGESTS}
    assert digests == BUILD_SCALE_DIGESTS


@pytest.mark.parametrize("seed", range(60))
def test_demo_generator_seeds_pass_through_select(tmp_path, seed):
    """k-means can split the four topics unevenly (seeds 4 and 40 leave the
    easy-negative pool short); every seed still reaches a bank."""
    cfg_path = write_demo_workspace(tmp_path, seed=seed)
    cfg = load_config(cfg_path)
    ws = Workspace(tmp_path)
    for name in STAGE_ORDER[:STAGE_ORDER.index("select") + 1]:
        result = run_stage(name, cfg, ws, config_dir=cfg_path.parent)
    assert result.summary["bank_size"] > 0
    if seed == 0:
        assert result.summary["bank_fingerprint"] == "5c27954e0b7d205a"


# -- skip and re-run logic ---------------------------------------------------

def test_second_run_all_skips_everything(mini_copy):
    cfg_path, cfg, ws = mini_copy
    results = run_all(cfg, ws, config_dir=cfg_path.parent)
    assert all(r.skipped for r in results)


def test_seed_change_reruns_everything(mini_copy):
    cfg_path, cfg, ws = mini_copy
    results = run_all(with_seed(cfg, 99), ws, config_dir=cfg_path.parent)
    assert not any(r.skipped for r in results)


def test_external_task_edit_reruns_only_consumers(mini_copy):
    cfg_path, cfg, ws = mini_copy
    sts = cfg_path.parent / "sts.jsonl"
    lines = sts.read_text().splitlines()
    sts.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    results = run_all(cfg, ws, config_dir=cfg_path.parent)
    reran = {r.stage for r in results if not r.skipped}
    assert reran == {"eval-sts", "explain", "ablate"}


@pytest.mark.parametrize("artifact", ["sts_text", "retrieval_text", "clustering_text",
                                      "explanations_text", "explanations_md",
                                      "ablation_text", "cost_text"])
def test_deleted_rendering_reruns_only_its_stage(mini_copy, artifact):
    """The text and markdown renderings are tracked outputs: a deleted one is
    written again, byte for byte, by its stage alone."""
    cfg_path, cfg, ws = mini_copy
    before = ws.path(artifact).read_bytes()
    ws.path(artifact).unlink()
    results = run_all(cfg, ws, config_dir=cfg_path.parent)
    assert [r.stage for r in results if not r.skipped] == [ARTIFACTS[artifact][1]]
    assert ws.path(artifact).read_bytes() == before


def test_force_reruns_despite_clean_state(mini_copy):
    cfg_path, cfg, ws = mini_copy
    result = run_stage("cost", cfg, ws, config_dir=cfg_path.parent, force=True)
    assert not result.skipped


def test_unknown_stage_rejected(mini_copy):
    cfg_path, cfg, ws = mini_copy
    with pytest.raises(ConfigError, match="unknown stage"):
        run_stage("polish", cfg, ws, config_dir=cfg_path.parent)


# -- dependency and tamper errors --------------------------------------------

def test_missing_upstream_names_producer(tmp_path):
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    cfg = load_config(cfg_path)
    ws = Workspace(tmp_path)
    with pytest.raises(DependencyError, match="run stage 'probe' first"):
        run_stage("select", cfg, ws, config_dir=cfg_path.parent)


def test_tampered_artifact_detected_and_forceable(mini_copy):
    cfg_path, cfg, ws = mini_copy
    candidates = ws.path("candidates")
    lines = candidates.read_text().splitlines()
    candidates.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(FingerprintError, match="generate"):
        run_stage("probe", cfg, ws, config_dir=cfg_path.parent)
    result = run_stage("probe", cfg, ws, config_dir=cfg_path.parent, force=True)
    assert result.summary["probed"] == len(lines) - 1


# -- applicability gating ----------------------------------------------------

def test_unconfigured_eval_stages_are_omitted(tmp_path):
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    raw = cfg_path.read_text().splitlines()
    kept = [line for line in raw
            if not line.startswith(("sts =", "queries =", "corpus =",
                                    "qrels =", "clustering ="))]
    cfg_path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    cfg = load_config(cfg_path)
    results = run_all(cfg, Workspace(tmp_path), config_dir=cfg_path.parent)
    ran = {r.stage for r in results}
    assert ran == set(STAGE_ORDER) - {"eval-sts", "eval-retrieval",
                                      "eval-clustering", "explain", "ablate"}


# -- determinism -------------------------------------------------------------

COMPARED = ("bank", "heads", "matrix", "sts_report", "retrieval_report",
            "clustering_report", "explanations", "ablation_report",
            "cost_report", "embed_meta", "heldout_report")


def test_twin_runs_byte_identical(mini, tmp_path):
    _, _, ws_a, _ = mini
    _, _, ws_b, _ = build_mini(tmp_path / "twin")
    for name in COMPARED:
        assert ws_a.path(name).read_bytes() == ws_b.path(name).read_bytes(), name
    state_a = (ws_a.root / "state.json").read_bytes()
    assert state_a == (tmp_path / "twin" / "state.json").read_bytes()


def test_demo_workspace_files_written(tmp_path):
    cfg_path = write_demo_workspace(tmp_path / "demo", seed=3, **MINI)
    for fname in ("demo_corpus.jsonl", "sts.jsonl", "queries.jsonl",
                  "retrieval_corpus.jsonl", "qrels.jsonl", "clustering.jsonl"):
        assert (tmp_path / "demo" / fname).exists(), fname
    assert cfg_path.name == "demo.ini"
    load_config(cfg_path)  # parses cleanly


def test_every_input_has_one_reader_and_each_stage_takes_its_inputs():
    """READERS reads exactly the artifacts some stage declares as inputs, and a
    stage function takes them, after ctx, as parameters of the same names in
    Stage.inputs order."""
    assert set(READERS) == {a for s in STAGES.values() for a in s.inputs}
    for stage in STAGES.values():
        assert list(inspect.signature(stage.func).parameters) == ["ctx", *stage.inputs], \
            stage.name


def test_doc_embeddings_reader_rejects_rows_that_are_not_unit(tmp_path):
    """cluster, train and embed need unit rows; the doc_embeddings reader checks
    them for all three, and kmeans_fit itself takes any finite rows."""
    x = np.asarray([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0], [0.5, 0.5]])
    got = {"corpus": Corpus([Document(id=f"d{i}", text=f"text {i}") for i in range(len(x))])}
    path = tmp_path / "doc_embeddings.npy"
    np.save(path, x)
    with pytest.raises(jsonl.CorruptFileError, match="doc_embeddings.npy: row 0 is not a finite"):
        READERS["doc_embeddings"](path, got)
    np.save(path, x / np.linalg.norm(x, axis=1, keepdims=True))
    assert READERS["doc_embeddings"](path, got).shape == (4, 2)
    assert kmeans_fit(x, k=2, seed=0).k == 2


def test_stage_registry_is_consistent():
    for name, stage in STAGES.items():
        assert stage.name == name
        for artifact in stage.inputs + stage.outputs:
            assert artifact in ARTIFACTS, artifact
    producers = {a for s in STAGES.values() for a in s.outputs}
    assert producers == set(ARTIFACTS)
