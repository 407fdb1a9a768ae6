import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qembed


class FixedEncoder:
    """Test double: returns pre-assigned unit rows for known texts."""

    def __init__(self, table: dict[str, np.ndarray]):
        first = next(iter(table.values()))
        self.dim = int(first.shape[0])
        self.table = {}
        for text, vec in table.items():
            vec = np.asarray(vec, dtype=np.float64)
            norm = np.linalg.norm(vec)
            self.table[text] = vec / norm if norm else vec

    def encode(self, texts):
        return np.stack([self.table[t] for t in texts])

    def fingerprint(self):
        return f"fixed-encoder:n={len(self.table)}"


@pytest.fixture
def fixed_encoder_factory():
    return FixedEncoder


@pytest.fixture
def opened():
    """opened(store) enters a context manager, such as an answer cache, and
    returns what it gives; every one entered is closed at teardown."""
    with contextlib.ExitStack() as stack:
        yield stack.enter_context


_HOLDER = """
import sys
from qembed.workspace import Workspace, WorkspaceLockedError
try:
    with Workspace(sys.argv[1]).locked():
        print("entered", flush=True)
        sys.stdin.read()  # hold the lock until stdin closes
except WorkspaceLockedError:
    print("refused", flush=True)
"""


@pytest.fixture
def hold_lock():
    """Start a process that takes a workspace's lock, prints "entered" and holds
    the lock until its stdin closes, or prints "refused" and exits. Every
    process started is closed and reaped at teardown."""
    started = []
    env = {**os.environ, "PYTHONPATH": str(Path(qembed.__file__).parents[1])}

    def start(root) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable, "-c", _HOLDER, str(root)], env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        started.append(proc)
        return proc

    yield start
    for proc in started:
        proc.communicate("", timeout=60)
