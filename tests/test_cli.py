"""End-to-end command-line behavior, exercised through main(argv)."""

import configparser
import json
import shutil

import numpy as np
import pytest

from qembed.cli import (EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_OK, EXIT_PROVIDER, _print_demo_summary,
                        main)
from qembed.pipeline import LLM_STAGES, STAGES, StageContext, write_demo_workspace
from qembed.providers import AnswerCache, CachedLLM, PromptCacheStore
from qembed.synthetic import TopicOracleLLM
from qembed.workspace import ARTIFACTS, Workspace

MINI = dict(n_per_topic=16, steps=2500, hidden=8, dim=64, sts_pairs=60)


@pytest.fixture(scope="module")
def mini_ws(tmp_path_factory):
    """A mini workspace fully run once through the CLI."""
    root = tmp_path_factory.mktemp("cli_mini")
    cfg_path = write_demo_workspace(root, seed=0, **MINI)
    code = main(["run", "--config", str(cfg_path), "--workspace", str(root)])
    assert code == EXIT_OK
    return root, cfg_path


def test_run_prints_stage_lines(mini_ws, capsys):
    root, cfg_path = mini_ws
    code = main(["run", "--config", str(cfg_path), "--workspace", str(root)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "skipped (up to date)" in out
    assert "reports in" in out


def test_single_stage_flag(mini_ws, capsys):
    root, cfg_path = mini_ws
    code = main(["run", "--config", str(cfg_path), "--workspace", str(root),
                 "--stage", "cost", "--force"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "cost" in out and "ran" in out


def test_seed_override_forces_rerun(mini_ws, capsys):
    root, cfg_path = mini_ws
    code = main(["run", "--config", str(cfg_path), "--workspace", str(root),
                 "--stage", "cost", "--seed", "123"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "ran" in out
    # restore the recorded state for later tests
    main(["run", "--config", str(cfg_path), "--workspace", str(root),
          "--stage", "cost"])
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--workspace", str(tmp_path / "ws")])
    assert code == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[training]\nlearning_rae = 0.1\n", encoding="utf-8")
    code = main(["run", "--config", str(cfg), "--workspace", str(tmp_path / "ws")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "learning_rae" in err


@pytest.mark.parametrize("bad_line", ['{"prompt_fingerprint": "ab", "resp',
                                      '{"prompt_fingerprint": "ab"}'])
def test_malformed_transcript_is_config_error(tmp_path, capsys, bad_line):
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    good = json.dumps({"prompt_fingerprint": "00", "response": "1. Is it?"})
    (tmp_path / "transcript.jsonl").write_text(good + "\n" + bad_line + "\n", encoding="utf-8")
    raw = cfg_path.read_text().replace("kind = oracle",
                                       "kind = scripted\ntranscript = transcript.jsonl")
    cfg_path.write_text(raw, encoding="utf-8")
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "transcript.jsonl:2" in err and "Traceback" not in err


def test_stage_before_dependency(tmp_path, capsys):
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path),
                 "--stage", "select"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert "run stage 'probe' first" in err


def test_locked_workspace_refused(mini_ws, capsys, hold_lock):
    root, cfg_path = mini_ws
    holder = hold_lock(root)
    assert holder.stdout.readline() == "entered\n"
    code = main(["run", "--config", str(cfg_path), "--workspace", str(root)])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and f"locked by running pid {holder.pid} " in err
    assert len(err.strip().splitlines()) == 1


def test_corrupt_heads_file_is_dependency_error(mini_ws, tmp_path, capsys):
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)  # never damage the shared fixture
    heads = copy / "heads.bin"
    heads.write_bytes(heads.read_bytes()[:-1])
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", "embed", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and "heads.bin" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("stage", ["eval-sts", "ablate"])
def test_encoder_of_another_width_than_the_heads_is_dependency_error(mini_ws, tmp_path, capsys,
                                                                     stage):
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)  # never damage the shared fixture
    _edit_config(copy / cfg_path.name, "encoder", dim="32")
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", stage])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and ", 32) for heads of width 64" in err
    assert len(err.strip().splitlines()) == 1


def _cut_last_20_bytes(path):
    path.write_bytes(path.read_bytes()[:-20])


def _drop_last_line(path):
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))


def _tear_first_line(path):
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first[:-20] + b"\n" + rest)


@pytest.mark.parametrize("name, damage, stage", [
    ("candidates.jsonl", _cut_last_20_bytes, "probe"),
    ("probes.jsonl", _cut_last_20_bytes, "select"),
    ("bank.jsonl", _cut_last_20_bytes, "collect"),
    ("bank.jsonl", _drop_last_line, "collect"),  # header's m no longer matches
    ("train_examples.jsonl", _cut_last_20_bytes, "train"),
    ("heldout_examples.jsonl", _cut_last_20_bytes, "train"),
    ("answers.jsonl", _tear_first_line, "collect"),  # only a torn final line is dropped
    ("cluster.model", _cut_last_20_bytes, "generate"),
    ("state.json", _cut_last_20_bytes, "cost"),
])
def test_corrupt_workspace_file_is_dependency_error(mini_ws, tmp_path, capsys, name,
                                                    damage, stage):
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)  # never damage the shared fixture
    damage(copy / name)
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", stage, "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and name in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def _at_middle(raw, new_byte):
    """raw with new_byte(old byte) in place of its middle byte."""
    mid = len(raw) // 2
    return raw[:mid] + new_byte(raw[mid]) + raw[mid + 1:]


DAMAGES = {
    "empty": lambda raw: b"",
    "cut-20": lambda raw: raw[:-20],
    "cut-half": lambda raw: raw[:len(raw) // 2],
    "xor-mid": lambda raw: _at_middle(raw, lambda b: bytes([b ^ 1])),
    "garbage": lambda raw: b"garbage\n",
    "object": lambda raw: b"{}\n",
    "array": lambda raw: b"[1, 2, 3]\n",
    "insert-mid": lambda raw: _at_middle(raw, lambda b: bytes([b]) + b"x"),
    "first-line-twice": lambda raw: raw[:raw.index(b"\n") + 1] + raw,
    "bad-utf8": lambda raw: b"\xff\xfe" + raw,
}

# Every stage that declares a file as an input reads it; collect also replays
# its answer cache, and every stage run records itself in state.json.
CONSUMERS = [(ARTIFACTS[a][0], s.name) for s in STAGES.values() for a in s.inputs] + [
    ("answers.jsonl", "collect"), ("state.json", "embed"), ("state.json", "cost")]

_ID_CHANGED = "one document id changes, and these stages read no other file naming documents"
_TEXT_CHANGED = "one character of a question's text changes: still a valid question"
_FLOAT_FLIPPED = "a low bit of one float changes; only a stored checksum would show it"
_TORN_ANSWER = "the answer cache drops its torn final record with a warning and asks again"
_ANSWER_KEY_CHANGED = ("one character of a cached answer's question text changes: the entry "
                       "matches no pair collect asks about, so it asks again")
# (file, damage) -> what its error line says, where the damage has one clear cause
MESSAGES = {("doc_embeddings.npy", damage): "not a .npy array"
            for damage in ("empty", "garbage", "object", "array", "bad-utf8")}
# (file, damage) -> (stages where exit 0 is right, why)
ACCEPTED = {
    ("corpus.jsonl", "xor-mid"): (("encode", "cluster", "embed"), _ID_CHANGED),
    ("corpus.jsonl", "insert-mid"): (("encode", "cluster", "embed"), _ID_CHANGED),
    ("doc_embeddings.npy", "xor-mid"): (("cluster", "train", "embed"), _FLOAT_FLIPPED),
    ("heads.bin", "xor-mid"): (("embed", "eval-sts", "eval-retrieval", "eval-clustering",
                                "explain", "ablate"), _FLOAT_FLIPPED),
    ("candidates.jsonl", "empty"): (("probe",), "generate writes none when no questions parse"),
    ("candidates.jsonl", "xor-mid"): (("probe",), _TEXT_CHANGED),
    ("candidates.jsonl", "insert-mid"): (("probe",), _TEXT_CHANGED),
    ("probes.jsonl", "empty"): (("select",), "probe writes none when every probe fails"),
    ("probes.jsonl", "xor-mid"): (("select",), _TEXT_CHANGED),
    ("probes.jsonl", "insert-mid"): (("select",), _TEXT_CHANGED),
    ("bank.jsonl", "xor-mid"): (("collect", "train", "explain"), "one digit of a question's "
                                "stored embedding changes; no stage and no fingerprint reads it"),
    ("heldout_examples.jsonl", "empty"): (("train",), "a run may hold no held-out document; "
                                          "train then reports no accuracy"),
    ("answers.jsonl", "empty"): (("collect",), "an empty answer cache is a valid cache"),
    ("answers.jsonl", "cut-20"): (("collect",), _TORN_ANSWER),
    ("answers.jsonl", "cut-half"): (("collect",), _TORN_ANSWER),
    ("answers.jsonl", "first-line-twice"): (("collect",), "a repeated answer: the last wins"),
    ("answers.jsonl", "xor-mid"): (("collect",), _ANSWER_KEY_CHANGED),
    ("answers.jsonl", "insert-mid"): (("collect",), _ANSWER_KEY_CHANGED),
}


@pytest.mark.parametrize("name, stage, damage",
                         [(name, stage, d) for name, stage in CONSUMERS for d in DAMAGES],
                         ids=lambda value: value)
def test_damaged_input_stops_its_stage_naming_the_file(mini_ws, tmp_path, capsys, name,
                                                       stage, damage):
    """Each damage of each file a stage reads: exit 2 or 3 and one error line
    naming the file, except where ACCEPTED says why the damage is valid."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy, copy_function=shutil.copyfile)  # never damage the fixture
    path = copy / name
    path.write_bytes(DAMAGES[damage](path.read_bytes()))
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", stage, "--force"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if stage in ACCEPTED.get((name, damage), ((), ""))[0]:
        assert code == EXIT_OK
    else:
        assert code in (EXIT_CONFIG, EXIT_DEPENDENCY)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and name in errors[0]
        assert MESSAGES.get((name, damage), "") in errors[0]


def test_collect_on_a_bank_without_questions_is_dependency_error(mini_ws, tmp_path, capsys):
    """select writes a header-only bank when no candidate survives probing;
    collect then has nothing to ask and says so, naming bank.jsonl."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    bank = copy / "bank.jsonl"
    header = json.loads(bank.read_text().splitlines()[0])
    bank.write_text(json.dumps({**header, "m": 0}) + "\n")
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", "collect", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and "bank.jsonl holds none" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name, field, value, stage", [
    ("bank.jsonl", "origin_cluster", 99, "collect"),
    ("bank.jsonl", "origin_cluster", -1, "collect"),
    ("bank.jsonl", "id", 7, "collect"),
    ("candidates.jsonl", "origin_cluster", 99, "probe"),
])
def test_question_that_names_no_cluster_or_bank_slot_is_dependency_error(
        mini_ws, tmp_path, capsys, name, field, value, stage):
    """A bank's ids are its positions 0..m-1, and a question's origin_cluster
    is a cluster of cluster.model, where the stage reads both."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    lines = (copy / name).read_text(encoding="utf-8").splitlines(keepends=True)
    first = 1 if name == "bank.jsonl" else 0  # past the bank's header
    lines[first] = json.dumps({**json.loads(lines[first]), field: value}) + "\n"
    (copy / name).write_text("".join(lines), encoding="utf-8")
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", stage, "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and name in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("state", ['{}', '{"stages": []}', '{"stages": {"ingest": 1}}',
                                   '{"stages": {"ingest": {"config": "c", "inputs": {}}}}',
                                   '{"stages": {"cost": {"config": "c", "inputs": {}, '
                                   '"outputs": {"cost_reporx": "0"}}}}'])
def test_state_json_of_another_shape_is_dependency_error(mini_ws, tmp_path, capsys, state):
    """A plain run, with no --stage, reads state.json before its first stage."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    (copy / "state.json").write_text(state)
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy)])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error: corrupt file") and "state.json" in err
    assert len(err.strip().splitlines()) == 1


def test_corrupt_state_json_stops_a_forced_stage_before_it_runs(mini_ws, tmp_path, capsys):
    """--force skips the upstream check, not the reading of state.json: a
    corrupt one stops the stage before it writes anything."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    report = copy / "reports" / "cost.jsonl"
    before = report.stat()
    (copy / "state.json").write_text("{}")
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", "cost", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error: corrupt file") and "state.json" in err
    after = report.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize("keep", [0, 5, 60, "header", -20, -1])
def test_torn_doc_embeddings_is_dependency_error(mini_ws, tmp_path, capsys, keep):
    """doc_embeddings.npy cut inside the magic, the header, at the header's end
    or inside the data fails the cluster stage naming the file."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    path = copy / "doc_embeddings.npy"
    raw = path.read_bytes()
    if keep == "header":
        keep = raw.index(b"\n") + 1  # the header's newline ends it
    path.write_bytes(raw[:keep])
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", "cluster", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and "doc_embeddings.npy" in err
    assert len(err.strip().splitlines()) == 1


def test_doc_embeddings_row_count_must_match_corpus(mini_ws, tmp_path, capsys):
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    path = copy / "doc_embeddings.npy"
    np.save(path, np.load(path)[:-1])
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", "cluster", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and "doc_embeddings.npy" in err
    assert len(err.strip().splitlines()) == 1


def test_example_outside_the_corpus_is_dependency_error(mini_ws, tmp_path, capsys):
    """train looks each example's vector up in doc_embeddings.npy by document id."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    path = copy / "train_examples.jsonl"
    path.write_text(path.read_text().replace('"document_id": "', '"document_id": "gone-', 1))
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", "train", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error:") and "gone-" in err and "not in the corpus" in err
    assert len(err.strip().splitlines()) == 1


def test_invalid_utf8_plain_lines_corpus_is_config_error(tmp_path, capsys):
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    (tmp_path / "docs.txt").write_bytes(b"a fine first line\nbad \xff\xfe bytes\n")
    raw = cfg_path.read_text().replace("input = demo_corpus.jsonl\nformat = json-lines",
                                       "input = docs.txt\nformat = plain-lines")
    cfg_path.write_text(raw, encoding="utf-8")
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path),
                 "--stage", "ingest"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "docs.txt" in err and "UTF-8" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("setting", ["steps = -5", "hidden = 0", "hidden = -3"])
def test_bad_training_size_is_config_error(tmp_path, capsys, setting):
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    key = setting.split()[0]
    raw = cfg_path.read_text().replace(f"{key} = {MINI[key]}\n", f"{setting}\n")
    cfg_path.write_text(raw, encoding="utf-8")
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and f"[training] {key} must be >= 1" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "heads.bin").exists()


def _edit_config(cfg_path, section, **settings):
    """Set each key of section (added if absent) to its value, or remove it
    where the value is None."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(cfg_path, encoding="utf-8")
    if not parser.has_section(section):
        parser.add_section(section)
    for key, value in settings.items():
        if value is None:
            parser.remove_option(section, key)
        else:
            parser.set(section, key, value)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        parser.write(fh)


@pytest.mark.parametrize("setting", [
    "[collection] group = 0", "[collection] group = 25", "[collection] in_cluster = -1",
    "[probe] positives = 0", "[probe] hard_negatives = 0, easy_negatives = 0",
    "[probe] neighbor_clusters = -1", "[generation] hard_neighbor_clusters = -1",
    "[collection] neighbor_clusters = -1",
    "[corpus] heldout_fraction = 0", "[collection] in_cluster = 0, neighbor = 0, random = 0",
    "[eval] ablate_taus = 0.5,1.5", "[eval] ablate_taus = , ablate_dims = ",
    "[cost] question_counts = ", "[cost] question_counts = 3000",
    "[llm] endpoint = , kind = remote", "[llm] transcript = , kind = scripted",
    "[llm] max_parallel = 0, kind = remote, endpoint = http://localhost:1/v1",
    "[llm] timeout = -1", "[llm] timeout = 0", "[training] pos_weight = nan",
    "[training] pos_weight = inf", "[training] pos_weight = -1", "[training] pos_weight = 0",
])
def test_out_of_range_setting_is_config_error(tmp_path, capsys, setting):
    section, assignments = setting[1:].split("] ")
    settings = dict(a.split(" = ") for a in assignments.split(", "))
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    _edit_config(cfg_path, section, **settings)
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: [{section}] {next(iter(settings))} ")
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "corpus.jsonl").exists()
    assert not (tmp_path / "run_log.jsonl").exists()  # no stage ran
    assert not (tmp_path / "state.json").exists()


@pytest.mark.parametrize("stage, key", [
    ("eval-sts", "sts"), ("eval-retrieval", "queries"), ("eval-retrieval", "corpus"),
    ("eval-retrieval", "qrels"), ("eval-clustering", "clustering"), ("explain", "sts"),
    ("ablate", "sts"),
])
def test_stage_without_its_task_file_is_config_error(tmp_path, capsys, stage, key):
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    _edit_config(cfg_path, "eval", **{key: None})
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path),
                 "--stage", stage])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: [eval] {key} is not configured")
    assert len(err.strip().splitlines()) == 1


def _lose_final_record_and_newline(path):
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1])[:-1])


def _forget_stage(root, stage):
    """Drop a stage's record from state.json, as a kill before it finished leaves it."""
    state = json.loads((root / "state.json").read_text())
    del state["stages"][stage]
    (root / "state.json").write_text(json.dumps(state))


@pytest.mark.parametrize("damage", [_cut_last_20_bytes, _lose_final_record_and_newline])
def test_resume_after_torn_answer_cache(mini_ws, tmp_path, capsys, opened, damage):
    """A kill mid-collect leaves answers.jsonl cut inside its last line and no
    record of the stage; a plain rerun resumes to the same examples."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    damage(copy / "answers.jsonl")
    _forget_stage(copy, "collect")
    examples = ["train_examples.jsonl", "heldout_examples.jsonl"]
    for name in examples:
        (copy / name).unlink()
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy)])
    capsys.readouterr()
    assert code == EXIT_OK
    for name in examples:
        assert (copy / name).read_bytes() == (root / name).read_bytes()
    resumed, uninterrupted = (opened(AnswerCache(ws / "answers.jsonl")) for ws in (copy, root))
    assert resumed.entries == uninterrupted.entries


def test_answer_cache_keyed_by_bank_id_is_dependency_error(mini_ws, tmp_path, capsys):
    """An answers.jsonl written when answers were keyed by bank id cannot be
    read: an id names another question once the bank changes."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    path = copy / "answers.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({"question_id": i, **{k: v for k, v in r.items()
                                                             if k != "question"}}) + "\n"
                            for i, r in enumerate(records)))
    code = main(["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy),
                 "--stage", "collect", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_DEPENDENCY
    assert err.startswith("error: corrupt file") and "answers.jsonl:1" in err
    assert len(err.strip().splitlines()) == 1


def test_rerun_under_a_new_seed_equals_a_fresh_workspace(mini_ws, tmp_path, capsys):
    """A new bank reuses cached answers only for its own questions, so a
    workspace built at seed 0 and re-run at seed 3 holds what a fresh seed-3
    build does, except for the answers the seed-0 bank got."""
    root, cfg_path = mini_ws
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    shutil.copytree(root, rerun)
    write_demo_workspace(fresh, seed=0, **MINI)
    for ws in (rerun, fresh):
        code = main(["run", "--config", str(ws / cfg_path.name), "--workspace", str(ws),
                     "--seed", "3"])
        assert code == EXIT_OK
    capsys.readouterr()
    names = sorted(p.relative_to(fresh).as_posix() for p in fresh.rglob("*")
                   if p.is_file() and p.name != "lock")
    differ = [n for n in names if (rerun / n).read_bytes() != (fresh / n).read_bytes()]
    assert differ == ["answers.jsonl", "run_log.jsonl", "state.json"]


@pytest.mark.parametrize("stage", LLM_STAGES)
def test_scripted_run_without_a_transcript_stops_before_its_llm_stages(tmp_path, capsys, stage):
    """The transcript is checked before a stage that calls the LLM, not at
    load: the stages that do not call it still run."""
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    _edit_config(cfg_path, "llm", kind="scripted")
    args = ["run", "--config", str(cfg_path), "--workspace", str(tmp_path), "--stage"]
    assert main([*args, "ingest"]) == EXIT_OK
    capsys.readouterr()
    state = (tmp_path / "state.json").read_bytes()
    code = main([*args, stage])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err == "error: [llm] transcript is required when kind = scripted\n"
    assert (tmp_path / "state.json").read_bytes() == state


def test_a_prompt_cache_replays_as_a_scripted_run(mini_ws, tmp_path, capsys, monkeypatch):
    """A prompt cache recorded over the oracle, as a remote run records one,
    replays as a transcript to the same artifacts; a prompt it lacks stops the
    stage that asks it, naming the prompt's fingerprint."""
    root, cfg_path = mini_ws
    recorded = tmp_path / "recorded"
    shutil.copytree(root, recorded)
    (recorded / "answers.jsonl").unlink()  # so that collect asks every prompt again
    with monkeypatch.context() as patch:
        patch.setattr(StageContext, "_build_llm", lambda ctx: CachedLLM(
            TopicOracleLLM(), PromptCacheStore(ctx.ws.root / "prompt_cache.jsonl")))
        for stage in LLM_STAGES:
            assert main(["run", "--config", str(recorded / cfg_path.name),
                         "--workspace", str(recorded), "--stage", stage, "--force"]) == EXIT_OK
    transcript = recorded / "prompt_cache.jsonl"
    replay = tmp_path / "replay"
    replay_cfg = write_demo_workspace(replay, seed=0, **MINI)
    _edit_config(replay_cfg, "llm", kind="scripted", transcript=str(transcript))
    assert main(["run", "--config", str(replay_cfg), "--workspace", str(replay)]) == EXIT_OK
    capsys.readouterr()
    for name in ("candidates.jsonl", "probes.jsonl", "bank.jsonl", "answers.jsonl",
                 "train_examples.jsonl", "heldout_examples.jsonl", "heads.bin",
                 "embeddings.bin"):
        assert (replay / name).read_bytes() == (root / name).read_bytes(), name

    answers = (replay / "answers.jsonl").read_text().splitlines()
    missing = json.loads(answers[len(answers) // 2])["prompt_fingerprint"]
    short = tmp_path / "short.jsonl"
    short.write_text("".join(line for line in transcript.read_text().splitlines(keepends=True)
                             if json.loads(line)["prompt_fingerprint"] != missing))
    _edit_config(replay_cfg, "llm", transcript=str(short))
    (replay / "answers.jsonl").unlink()
    code = main(["run", "--config", str(replay_cfg), "--workspace", str(replay),
                 "--stage", "collect", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_PROVIDER
    assert err == f"error: no scripted response for prompt fingerprint {missing}\n"


def test_missing_api_key_is_provider_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QEMBED_API_KEY", raising=False)
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    raw = cfg_path.read_text().replace(
        "kind = oracle", "kind = remote\nendpoint = http://localhost:1/v1\nmodel = m")
    cfg_path.write_text(raw, encoding="utf-8")
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_PROVIDER
    assert "QEMBED_API_KEY" in err


def test_invalid_stage_name_rejected_by_parser(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["run", "--config", "x.ini", "--workspace", str(tmp_path),
              "--stage", "polish"])
    assert "invalid choice" in capsys.readouterr().err


def test_demo_command_end_to_end(tmp_path, capsys):
    root = tmp_path / "demo"
    code = main(["demo", "--workspace", str(root), "--seed", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "demo summary:" in out
    assert "held-out answer accuracy" in out
    assert "semantic similarity rho" in out
    sts = json.loads((root / "reports" / "sts.json").read_text())
    assert sts["spearman"] >= 0.8
    heldout = json.loads((root / "reports" / "heldout.json").read_text())
    assert heldout["accuracy"] >= 0.95


def test_constant_sts_similarities_report_no_spearman(tmp_path, capsys):
    # at this tau every head answers "no", so every pair has the same similarity
    cfg_path = write_demo_workspace(tmp_path, seed=0, n_per_topic=12, steps=2000)
    raw = cfg_path.read_text().replace("[training]\n", "[training]\ntau = 0.9999999\n")
    cfg_path.write_text(raw, encoding="utf-8")
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path)])
    assert code == EXIT_OK
    sts = json.loads((tmp_path / "reports" / "sts.json").read_text())
    assert sts["spearman"] is None and sts["spearman_x100"] is None
    assert "spearman        n/a\n" in (tmp_path / "reports" / "sts.txt").read_text()
    capsys.readouterr()
    _print_demo_summary(Workspace(tmp_path))
    assert "semantic similarity rho   n/a\n" in capsys.readouterr().out
