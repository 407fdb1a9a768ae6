"""Workspace directory: stage artifacts, fingerprint tracking, and the run lock.

Every artifact has one producing stage. Completed stages record the SHA-256
of each input and output file in state.json; re-running with identical
fingerprints and config is a no-op, and an artifact that no longer matches
what its producer recorded stops the run unless forced.
"""

import fcntl
import hashlib
import os
from contextlib import contextmanager
from pathlib import Path

from .jsonl import dumps, parse, write_json


class DependencyError(RuntimeError):
    """An upstream artifact is missing; the message names the stage to run."""


class FingerprintError(RuntimeError):
    """An artifact on disk no longer matches what its producing stage recorded."""


class WorkspaceLockedError(RuntimeError):
    """Another run holds the workspace lock."""


# artifact name -> (relative path, producing stage)
ARTIFACTS: dict[str, tuple[str, str]] = {
    "corpus": ("corpus.jsonl", "ingest"),
    "split": ("split.json", "ingest"),
    "doc_embeddings": ("doc_embeddings.npy", "encode"),
    "cluster_model": ("cluster.model", "cluster"),
    "candidates": ("candidates.jsonl", "generate"),
    "probes": ("probes.jsonl", "probe"),
    "bank": ("bank.jsonl", "select"),
    "answers": ("answers.jsonl", "collect"),
    "train_examples": ("train_examples.jsonl", "collect"),
    "heldout_examples": ("heldout_examples.jsonl", "collect"),
    "heads": ("heads.bin", "train"),
    "heldout_report": ("reports/heldout.json", "train"),
    "matrix": ("embeddings.bin", "embed"),
    "embed_meta": ("embed_meta.json", "embed"),
    "sts_report": ("reports/sts.json", "eval-sts"),
    "sts_text": ("reports/sts.txt", "eval-sts"),
    "retrieval_report": ("reports/retrieval.json", "eval-retrieval"),
    "retrieval_text": ("reports/retrieval.txt", "eval-retrieval"),
    "clustering_report": ("reports/clustering.json", "eval-clustering"),
    "clustering_text": ("reports/clustering.txt", "eval-clustering"),
    "explanations": ("reports/explanations.jsonl", "explain"),
    "explanations_text": ("reports/explanations.txt", "explain"),
    "explanations_md": ("reports/explanations.md", "explain"),
    "ablation_report": ("reports/ablate.jsonl", "ablate"),
    "ablation_text": ("reports/ablate.txt", "ablate"),
    "cost_report": ("reports/cost.jsonl", "cost"),
    "cost_text": ("reports/cost.txt", "cost"),
}

_STATE_FILE = "state.json"
_LOCK_FILE = "lock"
_RUN_LOG = "run_log.jsonl"


def file_fingerprint(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def _checked_state(state: dict) -> dict:
    if not all(isinstance(rec["config"], str) and isinstance(rec["inputs"], dict)
               and isinstance(rec["outputs"], dict) and rec["outputs"].keys() <= ARTIFACTS.keys()
               for rec in state["stages"].values()):
        raise TypeError("a stage record needs a config hash, an inputs map and an outputs "
                        "map of known artifacts")
    return state


class Workspace:
    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "reports").mkdir(exist_ok=True)

    def path(self, artifact: str) -> Path:
        return self.root / ARTIFACTS[artifact][0]

    # -- stage state ---------------------------------------------------------

    def _load_state(self) -> dict:
        state_path = self.root / _STATE_FILE
        if not state_path.exists():
            return {"stages": {}}
        return parse(state_path.read_bytes(), state_path, convert=_checked_state)

    def record_stage(self, stage: str, config_hash: str,
                     inputs: dict[str, str], outputs: dict[str, str]) -> None:
        state = self._load_state()
        state["stages"][stage] = {"config": config_hash, "inputs": inputs,
                                  "outputs": outputs}
        write_json(self.root / _STATE_FILE, state)

    def check(self, stage: str, inputs: tuple[str, ...], files: dict[str, Path],
              config_hash: str, force: bool = False) -> tuple[dict[str, str], bool]:
        """Fingerprint what a stage reads, and say whether its record is current.

        Each input artifact must exist (else DependencyError naming the stage
        that writes it) and, unless forced, match what that stage recorded
        (else FingerprintError). Each configured file that exists is added
        under its key; a missing one fails inside the stage, with context.
        The stage is up to date only if not forced and its record holds this
        config hash, these fingerprints and every recorded output as on disk.
        """
        fps = {}
        for artifact in inputs:
            path = self.path(artifact)
            if not path.exists():
                raise DependencyError(f"stage '{stage}' needs {path.name}; "
                                      f"run stage '{ARTIFACTS[artifact][1]}' first")
            fps[artifact] = file_fingerprint(path)
        records = self._load_state()["stages"]
        for artifact, current in fps.items():
            producer = ARTIFACTS[artifact][1]
            rec = records.get(producer)  # None: produced out of band, nothing to check
            recorded = None if rec is None else rec["outputs"].get(artifact)
            if not force and recorded not in (None, current):
                raise FingerprintError(
                    f"stage '{stage}': {self.path(artifact).name} changed since "
                    f"stage '{producer}' produced it (recorded {recorded}, "
                    f"found {current}); re-run '{producer}' or pass --force")
        fps.update({key: file_fingerprint(path) for key, path in files.items() if path.exists()})
        rec = records.get(stage)
        up_to_date = (not force and rec is not None and rec["config"] == config_hash
                      and rec["inputs"] == fps
                      and all(self.path(a).exists() and file_fingerprint(self.path(a)) == fp
                              for a, fp in rec["outputs"].items()))
        return fps, up_to_date

    # -- run log and lock -----------------------------------------------------

    def log(self, record: dict) -> None:
        with open(self.root / _RUN_LOG, "a", encoding="utf-8") as fh:
            fh.write(dumps(record, sort_keys=True))

    @contextmanager
    def locked(self):
        """Hold the workspace lock: an exclusive flock on <workspace>/lock.

        The kernel drops the lock however its holder exits, so no lock is ever
        stale. The file records the holder's pid for the refusal message and
        is never unlinked: a run that locked a new file while another still
        held the unlinked one would share the workspace with it. A forked
        child would share the lock through its copy of the descriptor, so
        train_heads' training children close every inherited descriptor
        first: the lock is free the moment the run that took it exits.
        """
        lock_path = self.root / _LOCK_FILE
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                pid = os.pread(fd, 32, 0).decode("ascii", "replace")
                holder = (f"running pid {pid}" if pid.isdigit()
                          else "a run that has not recorded its pid yet")
                raise WorkspaceLockedError(f"workspace {self.root} is locked by {holder} "
                                           f"({lock_path})") from None
            os.ftruncate(fd, 0)
            os.pwrite(fd, str(os.getpid()).encode("ascii"), 0)
            yield self
        finally:
            os.close(fd)  # releases the flock
