"""File formats: json-lines (UTF-8, one JSON object per line) and whole JSON files.

Whole files are written beside their target and renamed into place, so a kill
leaves the old file or the new one. Readers name the file and line of a bad
line; each caller decides whether that line is skipped or fatal.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

logger = logging.getLogger(__name__)


class CorruptFileError(ValueError):
    """A torn or malformed file; the message names it, and the line in json-lines."""

    line: bytes = b""  # the bad line, when the file is json-lines


def dumps(record: dict, *, sort_keys: bool = False, ensure_ascii: bool = True) -> str:
    """One record as one line, newline included."""
    return json.dumps(record, sort_keys=sort_keys, ensure_ascii=ensure_ascii) + "\n"


@contextmanager
def replacing(path: str | Path, mode: str = "w"):
    """Open a temporary file beside path and rename it over path on success;
    on an exception delete it, leaving path as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(path: str | Path, rows: Iterable[dict], **settings) -> None:
    """Whole json-lines file; settings are json.dumps' sort_keys and ensure_ascii."""
    with replacing(path) as fh:
        for row in rows:
            fh.write(dumps(row, **settings))


def write_text(path: str | Path, text: str) -> None:
    """Whole text file, ending in a newline."""
    with replacing(path) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def write_json(path: str | Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True))


def parse(line: bytes, where, lineno: int | None = None, convert: Callable | None = None):
    """Decode one line (or a whole JSON file) as a JSON object and pass it
    through convert. A line that is not one, or that convert rejects with a
    KeyError, TypeError, AttributeError or ValueError, raises CorruptFileError
    naming where:lineno."""
    try:
        record = json.loads(line.decode("utf-8"))
        if not isinstance(record, dict):
            raise TypeError(f"expected a JSON object, found {type(record).__name__}")
        return record if convert is None else convert(record)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        at = where if lineno is None else f"{where}:{lineno}"
        error = CorruptFileError(f"corrupt file {at}: {type(exc).__name__}: {exc}")
        error.line = line
        raise error from exc


def records(lines: Iterable[bytes], where, convert: Callable | None = None,
            first_line: int = 1) -> Iterator:
    """Parsed records of the non-blank lines of a binary stream, in order."""
    for lineno, line in enumerate(lines, first_line):
        if line.strip():
            yield parse(line, where, lineno, convert)


def read(path: str | Path, convert: Callable | None = None) -> Iterator:
    with open(path, "rb") as fh:
        yield from records(fh, path, convert)


class AppendStore:
    """Append-only json-lines map: replayed on open, last write wins, each
    write one locked append of one whole line. A final line cut short
    by a kill is dropped with a warning, so a kill mid-write keeps every
    complete line before it; one that lost only its newline is kept. Either
    way the next append starts a line of its own. Any other bad line raises.

    The store holds the file open from replay to close(); use it as a context
    manager. Each append is one write and one flush, so a reader of the file
    sees whole lines only, and a kill between appends loses none of them.
    convert gives a record's entries, as a dict or (key, value) pairs.
    """

    def __init__(self, path: str | Path, convert: Callable[[dict], dict | Iterable[tuple]]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self.entries: dict = {}
        self._fh = fh = open(self.path, "a+b")
        try:
            fh.seek(0)
            try:
                for entries in records(fh, self.path, convert):
                    self.entries.update(entries)
            except CorruptFileError as exc:
                if exc.line.endswith(b"\n"):  # only the final line can lack it
                    raise
                logger.warning("%s: dropped 1 torn final record", self.path)
                fh.truncate(fh.seek(0, os.SEEK_END) - len(exc.line))
            if fh.seek(0, os.SEEK_END):
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
                    fh.flush()
        except BaseException:
            fh.close()
            raise

    def __len__(self) -> int:
        return len(self.entries)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def append(self, entries: dict, record: dict) -> None:
        """Record entries, written as one line holding record, in one append."""
        line = dumps(record, ensure_ascii=False).encode("utf-8")
        with self._lock:
            self.entries.update(entries)
            self._fh.write(line)
            self._fh.flush()
