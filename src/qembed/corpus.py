"""Corpus ingestion, exact deduplication and held-out splits."""

from __future__ import annotations

import hashlib
import logging
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from .jsonl import CorruptFileError, parse, read, write

logger = logging.getLogger(__name__)


class CorpusError(ValueError):
    """Raised on malformed corpus inputs (bad format, duplicate ids, bad fractions)."""


@dataclass(frozen=True)
class Document:
    id: str
    text: str
    source: str | None = None


@dataclass
class Corpus:
    documents: list[Document]
    skipped_records: int = 0  # malformed input lines dropped during ingestion

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def ids(self) -> list[str]:
        return [d.id for d in self.documents]

    def texts(self) -> list[str]:
        return [d.text for d in self.documents]

    def text_by_id(self) -> dict[str, str]:
        return {d.id: d.text for d in self.documents}


@dataclass(frozen=True)
class Split:
    train_ids: frozenset[str]
    heldout_ids: frozenset[str]
    seed: int


def content_id(text: str) -> str:
    """Stable id for a document: truncated SHA-256 of its text bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _assign_id(text: str, taken: set[str]) -> str:
    # Identical texts may coexist before dedup; suffix repeats to keep ids unique.
    base = content_id(text)
    candidate = base
    k = 1
    while candidate in taken:
        candidate = f"{base}-{k}"
        k += 1
    return candidate


def ingest(path: str | Path, format: str) -> Corpus:
    """Read a corpus file, one document per non-empty line (or json-lines record).

    Blank and whitespace-only lines are dropped. Ids default to a content hash;
    json-lines records may carry explicit ``id`` and ``source`` fields. Explicit
    duplicate ids are an error, malformed records are skipped with a warning.
    """
    path = Path(path)
    if format not in ("plain-lines", "json-lines"):
        raise CorpusError(f"unknown corpus format: {format!r}")
    try:
        with open(path, "rb") as fh:
            raw = fh.read().decode("utf-8").splitlines() if format == "plain-lines" else list(fh)
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusError(f"corpus file {path} is not valid UTF-8: {exc}") from exc

    documents: list[Document] = []
    taken: set[str] = set()
    skipped = 0
    for lineno, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        if format == "plain-lines":
            text, explicit_id, source = line, None, None
        else:
            try:
                text, explicit_id, source = parse(line, path, lineno, lambda r: (
                    str(r["text"]), r.get("id"), r.get("source")))
            except CorruptFileError as exc:
                logger.warning("%s; skipping the record", exc)
                skipped += 1
                continue
        if not text.strip():
            continue
        if explicit_id is not None:
            explicit_id = str(explicit_id)
            if explicit_id in taken:
                raise CorpusError(f"duplicate document id {explicit_id!r} at {path}:{lineno}")
            doc_id = explicit_id
        else:
            doc_id = _assign_id(text, taken)
        taken.add(doc_id)
        documents.append(Document(id=doc_id, text=text, source=source))
    return Corpus(documents=documents, skipped_records=skipped)


def exact_dedup(corpus: Corpus) -> Corpus:
    """Drop later byte-identical texts, keeping first occurrences in order."""
    seen: set[str] = set()
    kept = []
    for doc in corpus.documents:
        if doc.text in seen:
            continue
        seen.add(doc.text)
        kept.append(doc)
    return replace(corpus, documents=kept)


def split_heldout(corpus: Corpus, fraction: float, seed: int) -> Split:
    """Partition document ids into train/held-out sets by seeded hash order.

    Deterministic for a fixed seed; the held-out count is round(n * fraction),
    always within one document of the requested ratio.
    """
    if not 0.0 < fraction < 1.0:
        raise CorpusError(f"held-out fraction must be in (0, 1), got {fraction}")
    if len(corpus) == 0:
        raise CorpusError("cannot split an empty corpus")

    def rank(doc_id: str) -> str:
        return hashlib.sha256(f"{seed}:{doc_id}".encode("utf-8")).hexdigest()

    ordered = sorted(corpus.ids(), key=lambda i: (rank(i), i))
    n_heldout = round(len(ordered) * fraction)
    heldout = frozenset(ordered[:n_heldout])
    train = frozenset(ordered[n_heldout:])
    return Split(train_ids=train, heldout_ids=heldout, seed=seed)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as json-lines {id, text, source} records."""
    write(path, ({k: v for k, v in asdict(doc).items() if v is not None}
                 for doc in corpus.documents), ensure_ascii=False)


def load_corpus(path: str | Path) -> Corpus:
    """Inverse of save_corpus; a torn or malformed file raises CorruptFileError."""
    return Corpus(documents=list(read(path, lambda rec: Document(**rec))))
