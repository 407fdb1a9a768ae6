"""Stage orchestration: ordering, skip logic, fingerprints, determinism."""

import dataclasses
import itertools
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qembed import jsonl
from qembed.binary import save_binary_matrix
from qembed.config import ConfigError, config_hash, load_config, with_seed
from qembed.corpus import content_id, load_corpus
from qembed.evaluation import load_sts_task, mean_cognitive_load, sts_evaluate
from qembed.heads import TrainingExample, embed_documents, load_heads, save_heads, train_heads
from qembed.metrics import MetricError
from qembed.pipeline import (STAGE_ORDER, STAGES, run_all, run_stage,
                             stage_seed, write_demo_workspace)
from qembed.providers import AnswerCache, MockEncoder
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
    base = embed(cfg.training.tau)
    for r in rows:
        matrix = embed(r["value"]) if r["parameter"] == "tau" else base.truncate(r["value"])
        assert (r["spearman"], r["mean_load"]) == numbers(matrix), r


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
        def func(ctx, name=name, inner=stage.func):
            running.append(name)
            return inner(ctx)
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


def test_resume_after_a_kill_inside_a_batched_append(collected, tmp_path):
    """Each LLM call's answers are one append. answers.jsonl cut at every byte
    of its last multi-record batch resumes to the uninterrupted examples and cache."""
    cfg_path, cfg, ws = collected
    blob = ws.path("answers").read_bytes()
    lines = blob.splitlines(keepends=True)
    starts = [0, *itertools.accumulate(map(len, lines))]
    call = [json.loads(line)["prompt_fingerprint"] for line in lines]
    last = max(i for i in range(1, len(lines)) if call[i] == call[i - 1])
    first = last
    while call[first - 1] == call[last]:
        first -= 1
    assert last - first + 1 == 3
    expected = {name: ws.path(name).read_bytes()
                for name in ("train_examples", "heldout_examples")}
    cache = AnswerCache(ws.path("answers")).entries
    copy = Workspace(shutil.copytree(ws.root, tmp_path / "ws"))
    for cut in range(starts[first], starts[last + 1]):
        copy.path("answers").write_bytes(blob[:cut])
        copy.clear_stage("collect")
        run_stage("collect", cfg, copy, config_dir=cfg_path.parent)
        for name, want in expected.items():
            assert copy.path(name).read_bytes() == want, (name, cut)
        assert AnswerCache(copy.path("answers")).entries == cache, cut


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


def test_stage_registry_is_consistent():
    for name, stage in STAGES.items():
        assert stage.name == name
        for artifact in stage.inputs + stage.outputs:
            assert artifact in ARTIFACTS, artifact
    producers = {a for s in STAGES.values() for a in s.outputs}
    assert producers == set(ARTIFACTS)
