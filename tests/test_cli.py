"""End-to-end command-line behavior, exercised through main(argv)."""

import collections
import configparser
import json
import shutil

import numpy as np
import pytest

from qembed.cli import (EXIT_CONFIG, EXIT_DEPENDENCY, EXIT_OK, EXIT_PROVIDER, _print_demo_summary,
                        main)
from qembed import pipeline
from qembed.corpus import load_corpus
from qembed.pipeline import LLM_STAGES, STAGES, StageContext, write_demo_workspace
from qembed.prompts import render_answer_prompt
from qembed.providers import AnswerCache, CachedLLM, PromptCacheStore, prompt_fingerprint
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
                                      '{"prompt_fingerprint": "ab"}',
                                      pytest.param(None, id="missing-file")])
def test_malformed_transcript_is_config_error(tmp_path, capsys, bad_line):
    """A torn transcript, or one that names no file, stops a plain run before
    it writes config.ini or runs any stage."""
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    good = json.dumps({"prompt_fingerprint": "00", "response": "1. Is it?"})
    if bad_line is not None:
        (tmp_path / "transcript.jsonl").write_text(good + "\n" + bad_line + "\n",
                                                   encoding="utf-8")
    raw = cfg_path.read_text().replace("kind = oracle",
                                       "kind = scripted\ntranscript = transcript.jsonl")
    cfg_path.write_text(raw, encoding="utf-8")
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: [llm] transcript: ") and len(err.splitlines()) == 1
    assert ("transcript.jsonl:2" if bad_line else "No such file") in err
    assert "transcript.jsonl" in err and "Traceback" not in err
    assert not (tmp_path / "config.ini").exists()
    assert not (tmp_path / "state.json").exists()
    assert not (tmp_path / "corpus.jsonl").exists()


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
_TORN_ANSWER = ("the answer cache drops its torn final record, one call's answers, with a "
                "warning, and collect asks for them again")
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


# The files the config names: the demo's task files, and a scripted run's
# transcript.jsonl, a copy of the recorded prompt cache.
CONFIGURED_FILES = ["sts.jsonl", "queries.jsonl", "retrieval_corpus.jsonl", "qrels.jsonl",
                    "clustering.jsonl", "transcript.jsonl"]

_TASK_TEXT_CHANGED = "one character of a text changes: still a valid task"
# (file, damage) -> (a stage that reads the file and still runs, why the file is valid)
ACCEPTED_CONFIGURED = {
    ("sts.jsonl", "first-line-twice"): ("eval-sts", "a repeated pair is a valid pair"),
    ("queries.jsonl", "xor-mid"): ("eval-retrieval", _TASK_TEXT_CHANGED),
    ("queries.jsonl", "insert-mid"): ("eval-retrieval", _TASK_TEXT_CHANGED),
    ("retrieval_corpus.jsonl", "xor-mid"): ("eval-retrieval", _TASK_TEXT_CHANGED),
    ("retrieval_corpus.jsonl", "insert-mid"): ("eval-retrieval", _TASK_TEXT_CHANGED),
    ("qrels.jsonl", "first-line-twice"): ("eval-retrieval", "a repeated judgment: the last wins"),
    ("clustering.jsonl", "first-line-twice"): ("eval-clustering",
                                               "a repeated text is a valid member of its group"),
    ("transcript.jsonl", "first-line-twice"): ("generate", "a repeated response: the last wins"),
}
# (file, damage) that changes one character of a probe prompt's fingerprint: the
# transcript parses, and the run stops at that prompt, which it no longer answers
REPLAY_MISSES = {("transcript.jsonl", "xor-mid"), ("transcript.jsonl", "insert-mid")}


@pytest.mark.parametrize("name, damage", [(name, d) for name in CONFIGURED_FILES for d in DAMAGES],
                         ids=lambda value: value)
def test_damaged_configured_file_stops_a_plain_run_before_it_writes(
        mini_ws, recorded, tmp_path, capsys, name, damage):
    """Each damage of each file the config names: a plain run on a fresh
    workspace exits 2 with one error line naming the file, and writes neither
    config.ini nor state.json. A damage that leaves a valid file is ACCEPTED;
    a stage that reads it then runs on a copy of the built workspace. A
    transcript that parses but lacks a prompt the run asks (REPLAY_MISSES)
    stops the plain run there with exit 4, naming the prompt's fingerprint."""
    root, cfg_path = mini_ws
    stage = ACCEPTED_CONFIGURED.get((name, damage), (None,))[0]
    ws = tmp_path / "ws"
    if stage:
        shutil.copytree(root, ws, copy_function=shutil.copyfile)  # never damage the fixture
    else:
        write_demo_workspace(ws, seed=0, **MINI)
    if name == "transcript.jsonl":
        _script(ws / cfg_path.name, recorded)
    path = ws / name
    raw = path.read_bytes()
    path.write_bytes(DAMAGES[damage](raw))
    args = ["--stage", stage, "--force"] if stage else []
    code = main(["run", "--config", str(ws / cfg_path.name), "--workspace", str(ws), *args])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if stage:
        assert code == EXIT_OK
        return
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    if (name, damage) in REPLAY_MISSES:
        mid = len(raw) // 2  # the damaged line's prompt has no response now
        line = raw[raw.rfind(b"\n", 0, mid) + 1:raw.index(b"\n", mid)]
        missing = json.loads(line)["prompt_fingerprint"]
        assert code == EXIT_PROVIDER
        assert errors == [f"error: no scripted response for prompt fingerprint {missing}"]
        return
    assert code == EXIT_CONFIG
    assert len(errors) == 1 and name in errors[0]
    assert not (ws / "config.ini").exists() and not (ws / "state.json").exists()


@pytest.mark.parametrize("section, key", [("corpus", "input"), ("llm", "transcript"),
                                          ("eval", "sts"), ("eval", "queries"), ("eval", "corpus"),
                                          ("eval", "qrels"), ("eval", "clustering")])
def test_configured_path_that_names_no_file_stops_a_plain_run_before_it_writes(
        tmp_path, capsys, section, key):
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    extra = {"kind": "scripted"} if section == "llm" else {}
    _edit_config(cfg_path, section, **{key: "missing.jsonl"}, **extra)
    code = main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: [{section}] {key}: ") and len(err.splitlines()) == 1
    assert "missing.jsonl" in err
    for name in ("config.ini", "state.json", "run_log.jsonl"):
        assert not (tmp_path / name).exists(), name


def _counting(monkeypatch, module, names):
    """Patch each named function of module to count its calls, by name, in the returned Counter."""
    calls = collections.Counter()
    for name in names:
        def counted(*args, _name=name, _call=getattr(module, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_plain_run_reads_each_configured_file_once(recorded, tmp_path, capsys, monkeypatch):
    """A scripted run parses its transcript, and each task file, once per run,
    though three stages read the transcript and three sts.jsonl; an all-skipped
    rerun does the same, and each configured file is fingerprinted once."""
    cfg_path = write_demo_workspace(tmp_path, seed=0, **MINI)
    _script(cfg_path, recorded)
    loaders = ("read_transcript", "load_sts_task", "load_retrieval_task", "load_clustering_task")
    loads = _counting(monkeypatch, pipeline, loaders)
    hashed = collections.Counter()

    def fingerprint(path, _fingerprint=pipeline.file_fingerprint):
        hashed[path.name] += 1
        return _fingerprint(path)

    monkeypatch.setattr(pipeline, "file_fingerprint", fingerprint)
    configured = ["demo_corpus.jsonl", "transcript.jsonl", "sts.jsonl", "queries.jsonl",
                  "retrieval_corpus.jsonl", "qrels.jsonl", "clustering.jsonl"]
    for status in ("ran", "skipped"):
        loads.clear()
        hashed.clear()
        assert main(["run", "--config", str(cfg_path), "--workspace", str(tmp_path)]) == EXIT_OK
        assert loads == dict.fromkeys(loaders, 1)
        assert {name: hashed[name] for name in configured} == dict.fromkeys(configured, 1)
        log = [json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()]
        assert {record["status"] for record in log[-len(STAGES):]} == {status}
    capsys.readouterr()


def test_a_stage_reads_only_its_own_configured_files(mini_ws, tmp_path, capsys):
    """--stage eval-sts neither reads nor checks clustering.jsonl."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    (copy / "clustering.jsonl").write_bytes(b"garbage\n")
    args = ["run", "--config", str(copy / cfg_path.name), "--workspace", str(copy)]
    assert main([*args, "--stage", "eval-sts", "--force"]) == EXIT_OK
    capsys.readouterr()
    assert main(args) == EXIT_CONFIG
    assert "clustering.jsonl:1" in capsys.readouterr().err


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


@pytest.mark.parametrize("key", ["question_id", "question"])
def test_answer_cache_of_an_older_format_is_dependency_error(mini_ws, tmp_path, capsys, key):
    """An answers.jsonl of one line per answer cannot be read: neither one
    keyed by bank id, which names another question once the bank changes,
    nor one keyed by question text, written before one line held one call."""
    root, cfg_path = mini_ws
    copy = tmp_path / "ws"
    shutil.copytree(root, copy)
    path = copy / "answers.jsonl"
    calls = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(  # one line per answer, as the older formats held them
        json.dumps({key: i if key == "question_id" else question,
                    "document_id": call["document_id"], "answer": answer,
                    "prompt_fingerprint": "0" * 64}) + "\n"
        for call in calls for i, (question, answer) in enumerate(call["answers"])))
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


def _llm_counts(root):
    """Each stage's (prompt-cache hits, misses) in its last run-log record."""
    counts = {}
    for line in (root / "run_log.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["status"] == "ran":
            counts[record["stage"]] = (record.get("prompt_cache_hits"),
                                       record.get("prompt_cache_misses"))
    return counts


@pytest.fixture(scope="module")
def recorded(mini_ws, tmp_path_factory):
    """A copy of the mini workspace whose LLM stages ran again over the oracle
    through a prompt cache, as a remote run records one, asking every prompt."""
    root, cfg_path = mini_ws
    recorded = tmp_path_factory.mktemp("recorded") / "ws"
    shutil.copytree(root, recorded)
    (recorded / "answers.jsonl").unlink()  # so that collect asks every prompt again
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StageContext, "_build_llm", lambda ctx: CachedLLM(
            TopicOracleLLM(), PromptCacheStore(ctx.ws.root / "prompt_cache.jsonl")))
        for stage in LLM_STAGES:
            assert main(["run", "--config", str(recorded / cfg_path.name),
                         "--workspace", str(recorded), "--stage", stage, "--force"]) == EXIT_OK
    return recorded


def _script(cfg_path, recorded):
    """Make the config's run a scripted one, replaying a copy of the recorded
    prompt cache as transcript.jsonl beside the config."""
    shutil.copyfile(recorded / "prompt_cache.jsonl", cfg_path.parent / "transcript.jsonl")
    _edit_config(cfg_path, "llm", kind="scripted", transcript="transcript.jsonl")


def test_a_prompt_cache_replays_as_a_scripted_run(mini_ws, recorded, tmp_path, capsys):
    """A prompt cache recorded over the oracle, as a remote run records one,
    replays as a transcript to the same artifacts; a prompt it lacks stops the
    stage that asks it, collect, probe or generate, naming the prompt's
    fingerprint. The run log counts each LLM stage's prompt-cache hits and
    misses."""
    root, cfg_path = mini_ws
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

    asked, replayed = _llm_counts(recorded), _llm_counts(replay)
    assert sum(asked[stage][1] for stage in LLM_STAGES) == len(transcript.read_bytes().splitlines())
    for stage in STAGES:
        if stage in LLM_STAGES:
            assert replayed[stage] == (sum(asked[stage]), 0), stage
        else:  # no cached LLM: the record has no counts
            assert replayed[stage] == (None, None), stage
    assert _llm_counts(root)["collect"] == (None, None)  # nor has an oracle run's

    # a call's fingerprint rebuilds from its answers.jsonl record
    answers = (replay / "answers.jsonl").read_text().splitlines()
    call = json.loads(answers[len(answers) // 2])
    text = load_corpus(replay / "corpus.jsonl").text_by_id()[call["document_id"]]
    missing = prompt_fingerprint(render_answer_prompt(text, [q for q, _ in call["answers"]]))
    short = tmp_path / "short.jsonl"
    lines = transcript.read_text().splitlines(keepends=True)
    short.write_text("".join(line for line in lines
                             if json.loads(line)["prompt_fingerprint"] != missing))
    assert len(short.read_text().splitlines()) == len(lines) - 1
    _edit_config(replay_cfg, "llm", transcript=str(short))
    (replay / "answers.jsonl").unlink()
    code = main(["run", "--config", str(replay_cfg), "--workspace", str(replay),
                 "--stage", "collect", "--force"])
    err = capsys.readouterr().err
    assert code == EXIT_PROVIDER
    assert err == f"error: no scripted response for prompt fingerprint {missing}\n"

    # the transcript holds generate's prompts, then probe's, then collect's, as
    # the recording run asked them; one from the middle of probe's, then of generate's
    starts = {"generate": 0, "probe": asked["generate"][1]}
    for stage in ("probe", "generate"):
        line = lines[starts[stage] + asked[stage][1] // 2]
        missing = json.loads(line)["prompt_fingerprint"]
        short.write_text("".join(other for other in lines if other != line))
        code = main(["run", "--config", str(replay_cfg), "--workspace", str(replay),
                     "--stage", stage, "--force"])
        err = capsys.readouterr().err
        assert code == EXIT_PROVIDER, stage
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
