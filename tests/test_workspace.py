import fcntl
import json
import logging
import os
import subprocess
import sys

import pytest

from qembed.workspace import (
    ARTIFACTS,
    DependencyError,
    FingerprintError,
    Workspace,
    WorkspaceLockedError,
    file_fingerprint,
)


@pytest.fixture
def ws(tmp_path):
    return Workspace(tmp_path / "ws")


def _dead_pid() -> int:
    done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    return int(done.stdout)  # run() has reaped it, so no process has this pid


class TestLayout:
    def test_every_artifact_has_a_producer(self):
        stages = {producer for _, producer in ARTIFACTS.values()}
        assert "ingest" in stages and "train" in stages
        for name, (rel, producer) in ARTIFACTS.items():
            assert rel and producer

    def test_paths_under_root(self, ws):
        for name in ARTIFACTS:
            assert ws.path(name).is_relative_to(ws.root)

    def test_reports_dir_created(self, ws):
        assert (ws.root / "reports").is_dir()


class TestFingerprints:
    def test_file_fingerprint_stable_and_sensitive(self, tmp_path):
        f = tmp_path / "x"
        f.write_text("hello")
        a = file_fingerprint(f)
        assert a == file_fingerprint(f)
        f.write_text("hello!")
        assert file_fingerprint(f) != a


class TestCheck:
    def test_missing_input_names_its_producer(self, ws):
        with pytest.raises(DependencyError, match="run stage 'probe' first"):
            ws.check("select", ("probes",), {}, "cfg")

    def test_check_returns_the_fingerprints(self, ws):
        ws.path("probes").write_text("{}\n")
        fps, _ = ws.check("select", ("probes",), {}, "cfg")
        assert fps == {"probes": file_fingerprint(ws.path("probes"))}

    def test_changed_input_is_fingerprint_error_unless_forced(self, ws):
        ws.path("bank").write_text("original\n")
        fp = file_fingerprint(ws.path("bank"))
        ws.record_stage("select", "cfg", {}, {"bank": fp})
        ws.path("bank").write_text("tampered\n")
        with pytest.raises(FingerprintError, match="bank.jsonl changed since stage 'select'"):
            ws.check("collect", ("bank",), {}, "cfg")
        fps, _ = ws.check("collect", ("bank",), {}, "cfg", force=True)  # force bypasses
        assert fps == {"bank": file_fingerprint(ws.path("bank"))}

    def test_input_of_an_unrecorded_producer_is_not_checked(self, ws):
        ws.path("bank").write_text("out of band\n")
        ws.check("collect", ("bank",), {}, "cfg")

    def test_configured_file_that_does_not_exist_is_left_out(self, ws, tmp_path):
        task = tmp_path / "sts.jsonl"
        task.write_text("{}\n")
        files = {"file:sts_task": task, "file:queries": tmp_path / "missing.jsonl"}
        fps, _ = ws.check("eval-sts", (), files, "cfg")
        assert fps == {"file:sts_task": file_fingerprint(task)}


class TestUpToDate:
    def test_fresh_stage_not_up_to_date(self, ws):
        assert ws.check("cluster", (), {}, "cfg") == ({}, False)

    def test_recorded_stage_up_to_date(self, ws):
        """A change of config hash or input, or --force, makes the stage stale."""
        ws.path("corpus").write_text("abc\n")
        ws.path("cluster_model").write_text("model\n")
        fps = {"corpus": file_fingerprint(ws.path("corpus"))}
        ws.record_stage("cluster", "cfg", fps,
                        {"cluster_model": file_fingerprint(ws.path("cluster_model"))})
        assert ws.check("cluster", ("corpus",), {}, "cfg") == (fps, True)
        assert not ws.check("cluster", ("corpus",), {}, "cfg2")[1]
        assert not ws.check("cluster", ("corpus",), {}, "cfg", force=True)[1]
        ws.path("corpus").write_text("def\n")
        assert not ws.check("cluster", ("corpus",), {}, "cfg")[1]

    def test_missing_output_not_up_to_date(self, ws):
        ws.path("cluster_model").write_text("model\n")
        out = {"cluster_model": file_fingerprint(ws.path("cluster_model"))}
        ws.record_stage("cluster", "cfg", {}, out)
        assert ws.check("cluster", (), {}, "cfg")[1]
        ws.path("cluster_model").unlink()
        assert not ws.check("cluster", (), {}, "cfg")[1]


class TestLockAndLog:
    def test_lock_exclusive(self, ws):
        with ws.locked():
            with pytest.raises(WorkspaceLockedError, match=f"locked by running pid {os.getpid()} "):
                with ws.locked():
                    pass
        assert (ws.root / "lock").read_text() == str(os.getpid())  # kept, not unlinked
        # released after the context exits
        with ws.locked():
            pass

    def test_lock_of_a_live_pid_is_kept(self, ws, hold_lock):
        holder = hold_lock(ws.root)
        assert holder.stdout.readline() == "entered\n"
        with pytest.raises(WorkspaceLockedError, match=f"locked by running pid {holder.pid} "):
            with ws.locked():
                pass
        assert (ws.root / "lock").read_text() == str(holder.pid)

    def test_lock_held_before_its_pid_is_written(self, ws):
        fd = os.open(ws.root / "lock", os.O_RDWR | os.O_CREAT)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            with pytest.raises(WorkspaceLockedError, match="has not recorded its pid yet"):
                with ws.locked():
                    pass
        finally:
            os.close(fd)

    @pytest.mark.parametrize("content", ["", "not a pid", "-1", "0", str(1 << 40), "dead pid"])
    def test_leftover_lock_does_not_block(self, ws, caplog, content):
        if content == "dead pid":
            content = str(_dead_pid())
        lock = ws.root / "lock"
        lock.write_text(content)
        with caplog.at_level(logging.DEBUG):
            with ws.locked():
                assert lock.read_text() == str(os.getpid())
        assert not caplog.records

    def test_lock_of_a_killed_holder_is_taken_at_once(self, ws, caplog, hold_lock):
        holder = hold_lock(ws.root)
        assert holder.stdout.readline() == "entered\n"
        holder.kill()  # SIGKILL: no cleanup runs in the holder
        holder.wait(timeout=60)
        assert (ws.root / "lock").read_text() == str(holder.pid)
        with caplog.at_level(logging.DEBUG):
            with ws.locked():
                pass
        assert not caplog.records

    def test_two_runs_on_a_leftover_lock_one_enters(self, ws, hold_lock):
        (ws.root / "lock").write_text(str(_dead_pid()))
        runs = [hold_lock(ws.root) for _ in range(2)]
        outcomes = sorted(run.stdout.readline() for run in runs)  # before either lets go
        assert outcomes == ["entered\n", "refused\n"]

    def test_log_appends_jsonl(self, ws):
        ws.log({"stage": "cluster", "status": "ran"})
        ws.log({"stage": "generate", "status": "skipped"})
        lines = (ws.root / "run_log.jsonl").read_text().strip().split("\n")
        assert [json.loads(l)["stage"] for l in lines] == ["cluster", "generate"]
