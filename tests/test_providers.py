import hashlib
import http.server
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import qembed
from oracle import per_token_encode
from qembed.jsonl import CorruptFileError
from qembed.providers import (
    ENCODE_BLOCK,
    API_KEY_ENV,
    AnswerCache,
    CachedLLM,
    MockEncoder,
    PromptCacheStore,
    ProviderError,
    RemoteLLM,
    _pcg64_states,
    prompt_fingerprint,
    read_transcript,
)


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def token_draw(seed, dim, token):
    digest = hashlib.blake2b(f"{seed}:{token}".encode("utf-8"), digest_size=8).digest()
    return np.random.Generator(
        np.random.PCG64(int.from_bytes(digest, "little"))).standard_normal(dim)


class TestMockEncoder:
    def test_rows_are_unit_norm_and_repeatable(self):
        enc = MockEncoder(dim=32, seed=7)
        texts = ["the cat sat on the mat", "a completely different sentence", ""]
        a = enc.encode(texts)
        b = enc.encode(texts)
        assert a.shape == (3, 32)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_shared_vocabulary_scores_higher_than_disjoint(self):
        enc = MockEncoder(dim=64, seed=7)
        rows = enc.encode([
            "stars and planets orbit in space",
            "planets and stars shine in space",
            "recipes use flour butter and sugar",
        ])
        assert cosine(rows[0], rows[1]) > cosine(rows[0], rows[2])

    def test_seed_changes_vectors(self):
        a = MockEncoder(dim=16, seed=1).encode(["same text"])
        b = MockEncoder(dim=16, seed=2).encode(["same text"])
        assert not np.allclose(a, b)

    def test_fingerprint_mentions_dim_and_seed(self):
        assert MockEncoder(dim=8, seed=3).fingerprint() == "mock-encoder:dim=8:seed=3"

    def test_matches_per_occurrence_draws_bit_for_bit(self):
        enc = MockEncoder(dim=24, seed=5)
        texts = [
            "the cat and the hat and the bat",    # repeats within one text
            "The CAT sat",                        # case folds onto earlier tokens
            "",                                   # empty text
            "   ",                                # whitespace only
            "hat bat the the the",                # repeats across texts
            "<zero> <empty:''>",                  # tokens spelling the fallback names
            "gamma",
        ]
        expected = per_token_encode(texts, 24, lambda tok: token_draw(5, 24, tok))
        assert np.array_equal(enc.encode(texts), expected)

    def test_rows_summing_to_zero_match_the_oracle(self, monkeypatch):
        def opposed(token):  # "down" is exactly minus "up", so "up down" sums to 0
            return -token_draw(0, 6, "up") if token == "down" else token_draw(0, 6, token)

        drawn = []

        def draw_opposed(tokens, out):  # the bulk draw hook, one opposed draw per token
            drawn.extend(tokens)
            out[:] = [opposed(token) for token in tokens]

        enc = MockEncoder(dim=6, seed=0)
        monkeypatch.setattr(enc, "_draw_tokens", draw_opposed)
        texts = ["up down", "up", "down up up", "down down up up"]
        rows = enc.encode(texts)
        assert np.array_equal(rows, per_token_encode(texts, 6, opposed))
        assert drawn[-1] == "<zero>"
        assert np.array_equal(rows[0], rows[3])  # both fell back to the "<zero>" draw

    @pytest.mark.parametrize("dim", [7, 256])
    def test_matches_the_per_token_loop_bit_for_bit(self, dim):
        rng = np.random.Generator(np.random.PCG64(dim))
        vocab = ["star", "orbit", "café", "naïve", "日本語", "Ünïcode", "a", "A", "zero"]
        texts = ["", "   ", "\t\n", "a a a a a", "CAFÉ café Café", "日本語 text 日本語"]
        texts += [" ".join(rng.choice(vocab, size=int(rng.integers(0, 40))))
                  for _ in range(2 * ENCODE_BLOCK + 37)]  # three row blocks, ragged
        enc = MockEncoder(dim=dim, seed=4)
        expected = per_token_encode(texts, dim, lambda tok: token_draw(4, dim, tok))
        assert enc.encode(texts).tobytes() == expected.tobytes()
        assert enc.encode([]).shape == (0, dim)
        assert enc.encode(texts[:3]).tobytes() == expected[:3].tobytes()  # no token at all

    def test_token_vector_is_the_token_draw(self):
        enc = MockEncoder(dim=256, seed=9)
        for token in ["star", "<zero>", "日本語", ""]:
            assert enc._token_vector(token).tobytes() == token_draw(9, 256, token).tobytes()

    def test_batch_equals_stacked_single_calls(self):
        enc = MockEncoder(dim=32, seed=2)
        a, b = "red fish blue fish", "one fish two fish red"
        assert np.array_equal(enc.encode([a, b]), np.vstack([enc.encode([a]), enc.encode([b])]))


def pcg64_state(seed):
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


class TestBulkSeeding:
    """_pcg64_states reproduces np.random.PCG64(seed).state for many seeds at once."""

    def test_edge_seeds(self):
        # one entropy word below 2**32, two from there on
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        states = _pcg64_states(b"".join(s.to_bytes(8, "little") for s in seeds))
        assert states == [pcg64_state(s) for s in seeds]

    def test_blake2b_derived_seeds(self):
        digests = [hashlib.blake2b(f"3:token{i}".encode(), digest_size=8).digest()
                   for i in range(10_000)]
        states = _pcg64_states(b"".join(digests))
        assert states == [pcg64_state(int.from_bytes(d, "little")) for d in digests]


def test_importing_the_pipeline_leaves_the_network_stack_unloaded():
    code = ("import sys, qembed.cli, qembed.pipeline; "
            "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(qembed.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestScriptedLLM:
    """A scripted run is a CachedLLM over a transcript, with no provider behind it."""

    def test_replays_transcript(self):
        prompt = "Is water wet?"
        llm = CachedLLM(None, {prompt_fingerprint(prompt): "1. yes"})
        assert llm.complete(prompt) == "1. yes"
        assert (llm.hits, llm.misses) == (1, 0)

    def test_unknown_prompt_names_its_fingerprint(self):
        llm = CachedLLM(None, {prompt_fingerprint("known prompt"): "ok"})
        with pytest.raises(ProviderError) as err:
            llm.complete("never scripted")
        assert str(err.value) == ("no scripted response for prompt fingerprint "
                                  + prompt_fingerprint("never scripted"))

    def test_from_file_roundtrip(self, tmp_path):
        path = tmp_path / "transcript.jsonl"
        fp = prompt_fingerprint("p")
        path.write_text(json.dumps({"prompt_fingerprint": fp, "response": "r"}) + "\n")
        assert CachedLLM(None, read_transcript(path)).complete("p") == "r"

    @pytest.mark.parametrize("last", [b'{"prompt_fingerprint": "ab", "resp',
                                      b'{"prompt_fingerprint": "ab"}'])
    def test_bad_final_line_is_corrupt(self, tmp_path, last):
        """Unlike the prompt cache, which drops a torn final record, a transcript
        is read as written: any bad line is an error naming it."""
        path = tmp_path / "transcript.jsonl"
        path.write_bytes(b'{"prompt_fingerprint": "00", "response": "r"}\n' + last)
        with pytest.raises(CorruptFileError, match=r"transcript\.jsonl:2"):
            read_transcript(path)


class CountingLLM:
    def __init__(self, response="yes"):
        self.calls = 0
        self.response = response

    def complete(self, prompt):
        self.calls += 1
        return self.response


class TestCachedLLM:
    def test_second_identical_prompt_hits_cache(self, tmp_path, opened):
        store = opened(PromptCacheStore(tmp_path / "cache.jsonl"))
        inner = CountingLLM()
        llm = CachedLLM(inner, store)
        assert llm.complete("p") == "yes"
        assert llm.complete("p") == "yes"
        assert inner.calls == 1
        assert (llm.hits, llm.misses) == (1, 1)

    def test_cache_persists_across_instances(self, tmp_path, opened):
        path = tmp_path / "cache.jsonl"
        with PromptCacheStore(path) as store:
            CachedLLM(CountingLLM("first"), store).complete("p")
        inner = CountingLLM("second")
        llm = CachedLLM(inner, opened(PromptCacheStore(path)))
        assert llm.complete("p") == "first"
        assert inner.calls == 0

    def test_last_write_wins_on_reload(self, tmp_path, opened):
        path = tmp_path / "cache.jsonl"
        fp = prompt_fingerprint("p")
        with open(path, "w") as fh:
            fh.write(json.dumps({"prompt_fingerprint": fp, "response": "old"}) + "\n")
            fh.write(json.dumps({"prompt_fingerprint": fp, "response": "new"}) + "\n")
        assert opened(PromptCacheStore(path)).get(fp) == "new"


class TestAnswerCache:
    def test_roundtrip_and_overwrite(self, tmp_path, opened):
        path = tmp_path / "answers.jsonl"
        with AnswerCache(path) as cache:
            cache.put("doc-a", [("Is it red?", 1)])
            cache.put("doc-a", [("Is it red?", 0)])
            cache.put("doc-b", [("Is it blue?", 1)])
        reloaded = opened(AnswerCache(path))
        assert reloaded.get("Is it red?", "doc-a") == 0
        assert reloaded.get("Is it blue?", "doc-b") == 1
        assert reloaded.get("Is it blue?", "doc-a") is None
        assert len(reloaded) == 2

    def test_lines_match_one_dumps_per_record(self, tmp_path, opened):
        """Each put is one record {document_id, answers}, its answers in the
        order given, written by jsonl.dumps with ensure_ascii=False."""
        ids = ['say "yes"', "back\\slash\\", "tab\tnew\nline\x00\x1f\x7f", "café-日本",
               "\u2028sep\x85", "", "plain"]
        calls = [(doc, [(q, len(q) % 2) for q in ("Naïve «q»?", doc, "Is it?")]) for doc in ids]
        calls.append(("a", [("2", 0), ("1", 1)]))
        path = tmp_path / "answers.jsonl"
        cache = opened(AnswerCache(path))
        for doc, answers in calls:
            cache.put(doc, answers)
        assert path.read_bytes().decode("utf-8") == "".join(
            json.dumps({"document_id": doc, "answers": [list(pair) for pair in answers]},
                       ensure_ascii=False) + "\n" for doc, answers in calls)
        with AnswerCache(path) as reloaded:
            assert reloaded.entries == cache.entries
            assert len(reloaded) == len(ids) * 3 + 2

    def test_a_second_reader_sees_whole_lines_after_every_put(self, tmp_path, opened):
        path = tmp_path / "answers.jsonl"
        cache = opened(AnswerCache(path))
        for call in range(30):
            cache.put(f"doc-é{call}", [(f"Is it {q}?", (q + call) % 2)
                                       for q in range(call % 4 + 1)])
            with open(path, "rb") as reader:
                blob = reader.read()
            assert blob.endswith(b"\n") and blob.count(b"\n") == call + 1
            with AnswerCache(path) as second:
                assert second.entries == cache.entries, call

    def test_concurrent_puts_keep_file_parseable(self, tmp_path, opened):
        path = tmp_path / "answers.jsonl"
        cache = opened(AnswerCache(path))

        def work(base):
            for i in range(50):
                cache.put(f"d{i}", [(f"Is it {base * 100 + i}?", i % 2)])

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(opened(AnswerCache(path))) == 200


class _Handler(http.server.BaseHTTPRequestHandler):
    script: list  # [(status, payload_dict_or_None[, extra_headers_dict])]
    seen: list

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append({"auth": self.headers.get("Authorization"), "body": body})
        status, payload, *extra = (self.script.pop(0) if self.script
                                   else (200, {"completion": "ok"}))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        if payload is not None:
            self.wfile.write(json.dumps(payload).encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_server():
    handlers = _Handler
    handlers.script = []
    handlers.seen = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handlers)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, handlers
    server.shutdown()
    server.server_close()
    thread.join()


class TestRemoteLLM:
    def url(self, server):
        return f"http://127.0.0.1:{server.server_address[1]}/v1/complete"

    def test_requires_api_key(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with pytest.raises(ProviderError, match=API_KEY_ENV):
            RemoteLLM("http://localhost:1/x", model="m")

    def test_sends_bearer_auth_and_parses_completion(self, fake_server, monkeypatch):
        server, handler = fake_server
        monkeypatch.setenv(API_KEY_ENV, "sekrit")
        handler.script.append((200, {"completion": "1. yes"}))
        llm = RemoteLLM(self.url(server), model="small", sleep=lambda s: None)
        assert llm.complete("Is this a test?") == "1. yes"
        assert handler.seen[0]["auth"] == "Bearer sekrit"
        assert handler.seen[0]["body"] == {"model": "small", "prompt": "Is this a test?"}

    def test_retries_429_and_500_then_succeeds(self, fake_server, monkeypatch):
        server, handler = fake_server
        monkeypatch.setenv(API_KEY_ENV, "k")
        handler.script.extend([(429, None), (500, None), (200, {"completion": "done"})])
        sleeps = []
        llm = RemoteLLM(self.url(server), model="m", sleep=sleeps.append)
        assert llm.complete("p") == "done"
        assert len(handler.seen) == 3
        assert sleeps == [0.5, 1.0]  # exponential backoff

    def test_waits_the_retry_after_seconds_of_429_and_503(self, fake_server, monkeypatch):
        server, handler = fake_server
        monkeypatch.setenv(API_KEY_ENV, "k")
        handler.script.extend([(429, None, {"Retry-After": "7"}),
                               (503, None, {"Retry-After": "0"}),
                               (500, None, {"Retry-After": "9"}),  # only 429 and 503 ask
                               (200, {"completion": "done"})])
        sleeps = []
        llm = RemoteLLM(self.url(server), model="m", sleep=sleeps.append)
        assert llm.complete("p") == "done"
        assert sleeps == [7.0, 0.0, 2.0]

    def test_unparseable_retry_after_falls_back_to_backoff(self, fake_server, monkeypatch):
        server, handler = fake_server
        monkeypatch.setenv(API_KEY_ENV, "k")
        handler.script.extend([(503, None, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                               (429, None, {"Retry-After": "-3"}),
                               (429, None, {"Retry-After": "nan"}),
                               (200, {"completion": "done"})])
        sleeps = []
        llm = RemoteLLM(self.url(server), model="m", sleep=sleeps.append)
        assert llm.complete("p") == "done"
        assert sleeps == [0.5, 1.0, 2.0]

    def test_auth_error_is_fatal_not_retried(self, fake_server, monkeypatch):
        server, handler = fake_server
        monkeypatch.setenv(API_KEY_ENV, "k")
        handler.script.append((401, None))
        llm = RemoteLLM(self.url(server), model="m", sleep=lambda s: None)
        with pytest.raises(ProviderError, match="authentication"):
            llm.complete("p")
        assert len(handler.seen) == 1

    def test_gives_up_after_max_retries(self, fake_server, monkeypatch):
        server, handler = fake_server
        monkeypatch.setenv(API_KEY_ENV, "k")
        handler.script.extend([(503, None)] * 3)
        llm = RemoteLLM(self.url(server), model="m", max_retries=2, sleep=lambda s: None)
        with pytest.raises(ProviderError, match="after 3 attempts"):
            llm.complete("p")
        assert len(handler.seen) == 3
