"""Encoder and LLM providers: deterministic mocks, prompt/answer caches, remote client.

Every LLM call is addressed by a prompt fingerprint (SHA-256 of the prompt text)
so transcripts can be replayed and caches survive provider swaps.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import sys
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .config import LlmSection
from .jsonl import AppendStore, dumps, read

logger = logging.getLogger(__name__)

API_KEY_ENV = "QEMBED_API_KEY"


class ProviderError(RuntimeError):
    """Raised when a provider cannot produce a completion or embedding."""


def prompt_fingerprint(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class Encoder(Protocol):
    dim: int

    def encode(self, texts: list[str]) -> np.ndarray: ...

    def fingerprint(self) -> str: ...


class LLMProvider(Protocol):
    def complete(self, prompt: str) -> str: ...


ENCODE_BLOCK = 64  # texts per block of MockEncoder's padded token sums

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# multiplier of PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h)
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_MIX_MULT_L, _MIX_MULT_MINUS_R = 0xCA01F9DD, (1 << 32) - 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, mul) of SeedSequence's count successive word hashes: each xors its
    word with a running constant, steps the constant by mult, multiplies."""
    steps, const = [], init
    for _ in range(count):
        steps.append((const, const * mult & _MASK32))
        const = steps[-1][1]
    return steps


# (src, dst, xor, mul): 4 pool fills (src == dst), then 12 mixes of pool word
# src's hash into word dst
_POOL_STEPS = tuple((src, dst, *consts) for (src, dst), consts in zip(
    [(i, i) for i in range(4)] + [(i, j) for i in range(4) for j in range(4) if i != j],
    _hash_constants(0x43B0D7E5, 0x931E8875, 16)))
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _pcg64_states(seeds: bytes) -> list[tuple[int, int]]:
    """The (state, inc) of np.random.PCG64(s).state for each 8-byte
    little-endian seed s in seeds, all seeds hashed at once.

    PCG64(s) runs SeedSequence(s): s's 32-bit words fill a four-word pool
    (words past the entropy hash 0, so one-word seeds below 2**32 need no case
    of their own), twelve hash-and-mix steps spread every word over the pool,
    and eight hashes of the pool give the 128-bit LCG seed and increment, which
    PCG64 then steps twice. Here each seed's uint32 word sits in its own 64-bit
    lane of one Python int: a word times a 32-bit constant stays inside its
    lane, so each step is a few whole-int operations, masked back to 32 bits
    per lane, whatever the number of seeds.
    """
    n = len(seeds) // 8
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")  # 1 in every lane
    low = ones * _MASK32
    packed = int.from_bytes(seeds, "little")
    pool = [packed & low, packed >> 32 & low, 0, 0]
    for src, dst, xor, mul in _POOL_STEPS:
        word = (pool[src] ^ xor * ones) * mul & low
        word = (word ^ word >> 16) & low
        if src != dst:  # L * pool[dst] - R * word, mod 2**32
            word = (_MIX_MULT_L * pool[dst] & low) + _MIX_MULT_MINUS_R * word & low
            word = (word ^ word >> 16) & low
        pool[dst] = word
    words = []
    for i, (xor, mul) in enumerate(_STATE_HASHES):
        word = (pool[i % 4] ^ xor * ones) * mul & low
        words.append((word ^ word >> 16) & low)
    seed_hi, seed_lo, inc_hi, inc_lo = (  # uint64 k is uint32 words 2k and 2k + 1
        array("Q", (words[k] | words[k + 1] << 32).to_bytes(8 * n, sys.byteorder))
        for k in range(0, 8, 2))
    states = []
    for a, b, c, d in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = (c << 65 | d << 1 | 1) & _MASK128
        states.append((((a << 64 | b) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


class MockEncoder:
    """Deterministic stand-in for a sentence encoder.

    Each whitespace token maps to a fixed Gaussian vector drawn from a stream
    seeded by the token's hash; a text embeds as the normalized token sum, so
    texts sharing vocabulary land near each other. Cheap, stable across
    processes, good enough for clustering and probing at desk scale.
    """

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ValueError("encoder dim must be positive")
        self.dim = dim
        self.seed = seed
        self._bits = np.random.PCG64(0)
        self._draws = np.random.Generator(self._bits)
        self._lock = threading.Lock()  # one generator, re-seeded per token

    def _draw_tokens(self, tokens: list[str], out: np.ndarray) -> None:
        """out[i] = the standard normal draw of np.random.PCG64(s) for the seed s
        hashed from tokens[i]: each token's PCG64 state is computed in one pass
        and set on one reused generator, so no PCG64 is built per token."""
        seeds = b"".join(hashlib.blake2b(f"{self.seed}:{token}".encode("utf-8"),
                                         digest_size=8).digest() for token in tokens)
        with self._lock:
            for row, (state, inc) in zip(out, _pcg64_states(seeds)):
                self._bits.state = {"bit_generator": "PCG64",
                                    "state": {"state": state, "inc": inc},
                                    "has_uint32": 0, "uinteger": 0}
                self._draws.standard_normal(out=row)

    def _token_vector(self, token: str) -> np.ndarray:
        out = np.empty((1, self.dim))
        self._draw_tokens([token], out)
        return out[0]

    def encode(self, texts: list[str]) -> np.ndarray:
        # Each distinct token is drawn once per call, all in one _draw_tokens
        # pass, into one table whose last row is zero. Blocks of texts become
        # (texts, longest) tables of token rows, padded with the zero row,
        # summed one token position at a time from 0.0: each text's sum adds
        # its tokens in text order, as a per-token loop would, and adding +0.0
        # to it changes no bit.
        index: defaultdict[str, int] = defaultdict()
        index.default_factory = index.__len__  # a new token gets the next row
        token_rows = array("q")  # every text's token rows, in text order
        ends = array("q", [0])  # text i's rows are token_rows[ends[i]:ends[i + 1]]
        empty = {}  # an empty text is its own token's vector, unsummed
        for i, text in enumerate(texts):
            token_rows.extend(map(index.__getitem__, text.lower().split()))
            if len(token_rows) == ends[-1]:
                empty[i] = index[f"<empty:{text!r}>"]
            ends.append(len(token_rows))
        out = np.zeros((len(texts), self.dim))
        table = np.zeros((len(index) + 1, self.dim))
        self._draw_tokens(list(index), table[:-1])
        token_rows, ends = np.frombuffer(token_rows, np.int64), np.frombuffer(ends, np.int64)
        for lo in range(0, len(texts), ENCODE_BLOCK):
            bounds = ends[lo:lo + ENCODE_BLOCK + 1]
            lengths = np.diff(bounds)
            rows = np.full((len(lengths), lengths.max()), len(index))
            rows[np.arange(rows.shape[1]) < lengths[:, None]] = token_rows[bounds[0]:bounds[-1]]
            sums = out[lo:lo + len(lengths)]
            for column in rows.T:
                sums += table[column]
        for i, row in empty.items():
            out[i] = table[row]
        norms = np.sqrt([row.dot(row) for row in out])  # np.linalg.norm's dot, row by row
        zero = norms == 0.0
        if zero.any():
            out[zero] = self._token_vector("<zero>")
            norms[zero] = np.linalg.norm(out[np.argmax(zero)])
        out /= norms[:, None]
        return out

    def fingerprint(self) -> str:
        return f"mock-encoder:dim={self.dim}:seed={self.seed}"


def _prompt_response(record: dict) -> tuple[str, str]:
    return record["prompt_fingerprint"], record["response"]


def read_transcript(path: str | Path) -> dict[str, str]:
    """A file of {prompt_fingerprint, response} records, such as a remote run's
    prompt cache, as a fingerprint -> response map; later records win. Any bad
    line raises CorruptFileError."""
    return dict(read(path, _prompt_response))


class PromptCacheStore(AppendStore):
    """Append-only json-lines store of {prompt_fingerprint, response} records.

    Later records win on fingerprint collision (a re-run with a corrected
    response overrides silently). Appends take a lock so concurrent answer
    collection threads never interleave partial lines.
    """

    def __init__(self, path: str | Path):
        super().__init__(path, _prompt_response)

    def get(self, fingerprint: str) -> str | None:
        return self.entries.get(fingerprint)

    def put(self, fingerprint: str, response: str) -> None:
        self.append({fingerprint: response}, dumps(
            {"prompt_fingerprint": fingerprint, "response": response}, ensure_ascii=False))


class CachedLLM:
    """Wraps a provider with a persistent prompt cache; hits never reach the inner provider.
    With none, the store is a transcript (read_transcript), and a miss raises."""

    def __init__(self, inner: LLMProvider | None, store: PromptCacheStore | dict[str, str]):
        self.inner = inner
        self.store = store
        self.hits = 0
        self.misses = 0

    def complete(self, prompt: str) -> str:
        fp = prompt_fingerprint(prompt)
        cached = self.store.get(fp)
        if cached is not None:
            self.hits += 1
            return cached
        if self.inner is None:
            raise ProviderError(f"no scripted response for prompt fingerprint {fp}")
        self.misses += 1
        response = self.inner.complete(prompt)
        self.store.put(fp, response)
        return response


@dataclass(frozen=True)
class AnswerRecord:
    question: str  # the question's text
    document_id: str
    answer: int  # 1 yes, 0 no
    prompt_fingerprint: str


class AnswerCache(AppendStore):
    """Persistent (question text, document_id) -> yes/no answer store.

    Json-lines on disk, last write wins, append is locked for thread safety.
    Keyed by text, as a new bank gives a question's bank id to another. Distinct
    from the prompt cache: answers survive re-batching, where prompt
    fingerprints change whenever a question lands in a different chunk.
    """

    def __init__(self, path: str | Path):
        super().__init__(path, lambda r: ((r["question"], r["document_id"]), int(r["answer"])))

    def get(self, question: str, document_id: str) -> int | None:
        return self.entries.get((question, document_id))

    def put(self, *records: AnswerRecord) -> None:
        """Store the answers of one LLM call with one locked append.

        Each line has the bytes of jsonl.dumps(vars(record)); the call's
        document id and prompt fingerprint, shared by its records, are
        JSON-encoded once each."""
        quote = functools.cache(json.dumps)
        self.append({(r.question, r.document_id): r.answer for r in records}, "".join(
            f'{{"question": {json.dumps(r.question)}, "document_id": {quote(r.document_id)}, '
            f'"answer": {r.answer:d}, "prompt_fingerprint": {quote(r.prompt_fingerprint)}}}\n'
            for r in records))


def _delta_seconds(value: str | None) -> float | None:
    """A Retry-After header as seconds to wait; None unless a non-negative number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):  # absent, or an HTTP date
        return None
    return seconds if 0.0 <= seconds < math.inf else None


class RemoteLLM:
    """Minimal JSON-over-HTTP completion client.

    POSTs {"model", "prompt"} and expects {"completion": "..."} back. Retries
    429 and 5xx responses with exponential backoff, or after the seconds a
    429 or 503 names in Retry-After, fails fast on auth errors, and bounds
    concurrent requests with a semaphore. The API key comes from the
    QEMBED_API_KEY environment variable.
    """

    def __init__(self, endpoint: str, model: str, max_parallel: int = LlmSection.max_parallel,
                 max_retries: int = 5, backoff_base: float = 0.5,
                 timeout: float = LlmSection.timeout, sleep=time.sleep):
        if max_parallel < 1:
            raise ValueError("max_parallel must be at least 1")
        self.endpoint = endpoint
        self.model = model
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._sleep = sleep
        self._semaphore = threading.Semaphore(max_parallel)
        key = os.environ.get(API_KEY_ENV)
        if not key:
            raise ProviderError(f"missing API key: set {API_KEY_ENV}")
        self._key = key

    def complete(self, prompt: str) -> str:
        import urllib.error  # here, so that only a remote run loads http, email and ssl
        import urllib.request

        body = json.dumps({"model": self.model, "prompt": prompt}).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=body, method="POST",
            headers={"Content-Type": "application/json",
                     "Authorization": f"Bearer {self._key}"})
        last_error: Exception | None = None
        retry_after: float | None = None  # the server's requested wait before the next try
        with self._semaphore:
            for attempt in range(self.max_retries + 1):
                if attempt:
                    self._sleep(self.backoff_base * 2 ** (attempt - 1)
                                if retry_after is None else retry_after)
                retry_after = None
                try:
                    with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                        payload = json.loads(resp.read().decode("utf-8"))
                except urllib.error.HTTPError as exc:
                    exc.close()  # the error carries the open response
                    if exc.code in (401, 403):
                        raise ProviderError(f"authentication rejected ({exc.code})") from exc
                    if exc.code == 429 or exc.code >= 500:
                        last_error = exc
                        if exc.code in (429, 503):
                            retry_after = _delta_seconds(exc.headers.get("Retry-After"))
                        logger.warning("remote LLM returned %d, retrying", exc.code)
                        continue
                    raise ProviderError(f"remote LLM error {exc.code}") from exc
                except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
                    last_error = exc
                    logger.warning("remote LLM request failed (%s), retrying", exc)
                    continue
                if "completion" not in payload:
                    raise ProviderError("remote LLM response missing completion field")
                return str(payload["completion"])
        raise ProviderError(f"remote LLM failed after {self.max_retries + 1} attempts: "
                            f"{last_error}")
