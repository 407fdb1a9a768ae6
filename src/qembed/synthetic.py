"""Bundled synthetic corpus: four disjoint-vocabulary topics plus a rule-based
LLM stand-in that generates and answers topic questions deterministically.

Everything here exists so the full pipeline can run offline at desk scale;
the oracle answers by keyword rules, so trained heads have a clean signal
to recover and accuracy/correlation checks have a known ceiling.
"""

import re
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document, content_id
from .evaluation import ClusteringTask, RetrievalTask, StsPair, StsTask

TOPIC_VOCAB = {
    "astronomy": [
        "telescope", "galaxy", "nebula", "orbit", "comet", "asteroid",
        "supernova", "planet", "lunar", "stellar", "cosmic", "observatory",
        "eclipse", "meteor", "quasar", "constellation", "astronomer", "crater",
        "satellite", "gravity", "spectrum", "celestial",
    ],
    "cooking": [
        "recipe", "simmer", "saute", "oven", "flour", "garlic", "butter",
        "seasoning", "broth", "whisk", "marinade", "skillet", "roast",
        "dough", "chopped", "cuisine", "flavor", "ingredient", "basil",
        "vinegar", "caramelize", "tablespoon",
    ],
    "football": [
        "goalkeeper", "midfielder", "penalty", "offside", "striker", "defender",
        "stadium", "referee", "tackle", "corner", "league", "fixture",
        "crossbar", "dribble", "formation", "substitute", "winger", "kickoff",
        "scoreline", "trophy", "manager", "touchline",
    ],
    "programming": [
        "compiler", "function", "variable", "debugger", "syntax", "algorithm",
        "recursion", "array", "pointer", "runtime", "refactor", "interface",
        "iterator", "exception", "bytecode", "repository", "framework",
        "boolean", "callback", "parser", "module", "keyword",
    ],
}

TOPICS = tuple(sorted(TOPIC_VOCAB))

_FILLER = ["the", "a", "with", "about", "from", "into", "over", "near"]

TOPIC_QUESTIONS = {
    "astronomy": [
        "Is this text about astronomy?",
        "Does the text describe objects in outer space?",
        "Is the text concerned with stars or planets?",
        "Does the passage relate to observing the night sky?",
        "Is the subject matter astronomical?",
        "Does the text involve celestial phenomena?",
        "Is this passage about space science?",
        "Does the text discuss things found beyond Earth?",
        "Would an astronomer find this text on topic?",
        "Is the text focused on the cosmos?",
    ],
    "cooking": [
        "Is this text about cooking?",
        "Does the text describe preparing food?",
        "Is the text concerned with recipes or kitchens?",
        "Does the passage relate to culinary work?",
        "Is the subject matter gastronomic?",
        "Does the text involve ingredients or seasoning?",
        "Is this passage about making meals?",
        "Does the text discuss kitchen techniques?",
        "Would a chef find this text on topic?",
        "Is the text focused on cuisine?",
    ],
    "football": [
        "Is this text about football?",
        "Does the text describe a ball game?",
        "Is the text concerned with matches or players?",
        "Does the passage relate to a team sport?",
        "Is the subject matter athletic?",
        "Does the text involve goals or scoring?",
        "Is this passage about playing on a pitch?",
        "Does the text discuss competitive sport?",
        "Would a football fan find this text on topic?",
        "Is the text focused on the beautiful game?",
    ],
    "programming": [
        "Is this text about programming?",
        "Does the text describe writing software?",
        "Is the text concerned with code or computers?",
        "Does the passage relate to software development?",
        "Is the subject matter computational?",
        "Does the text involve source code concepts?",
        "Is this passage about building programs?",
        "Does the text discuss developer tools?",
        "Would a software engineer find this text on topic?",
        "Is the text focused on computer code?",
    ],
}

_QUESTION_TOPIC = {q: topic for topic, qs in TOPIC_QUESTIONS.items() for q in qs}

_WORD_TOPIC = {w: topic for topic, words in TOPIC_VOCAB.items() for w in words}


def text_topic(text: str) -> str | None:
    """Majority topic by distinctive-word hits; None when nothing matches."""
    counts = {t: 0 for t in TOPICS}
    for token in re.findall(r"[a-z]+", text.lower()):
        topic = _WORD_TOPIC.get(token)
        if topic is not None:
            counts[topic] += 1
    best = max(TOPICS, key=lambda t: counts[t])
    return best if counts[best] > 0 else None


def _topic_sentence(topic: str, rng: np.random.Generator) -> str:
    vocab = TOPIC_VOCAB[topic]
    n_topic = int(rng.integers(10, 16))
    picks = [vocab[int(i)] for i in rng.choice(len(vocab), size=n_topic, replace=False)]
    n_fill = int(rng.integers(2, 5))
    words = list(picks)
    for _ in range(n_fill):
        pos = int(rng.integers(0, len(words) + 1))
        words.insert(pos, _FILLER[int(rng.integers(0, len(_FILLER)))])
    sentence = " ".join(words)
    return sentence[0].upper() + sentence[1:] + "."


def synthetic_documents(n_per_topic: int = 50, seed: int = 0) -> list[tuple[str, str]]:
    """(text, topic) pairs, topics interleaved so ingestion order mixes them."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for i in range(n_per_topic):
        for topic in TOPICS:
            out.append((_topic_sentence(topic, rng), topic))
    return out


def synthetic_corpus(n_per_topic: int = 50, seed: int = 0) -> Corpus:
    docs = []
    taken = set()
    for text, topic in synthetic_documents(n_per_topic, seed):
        doc_id = content_id(text)
        if doc_id in taken:
            continue
        taken.add(doc_id)
        docs.append(Document(id=doc_id, text=text, source=topic))
    return Corpus(documents=docs)


def synthetic_sts_task(corpus: Corpus, n_pairs: int = 150, seed: int = 1) -> StsTask:
    """Gold similarity = topic overlap (1 same topic, 0 different)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    docs = corpus.documents
    pairs = []
    seen = set()
    while len(pairs) < n_pairs:
        i, j = (int(x) for x in rng.choice(len(docs), size=2, replace=False))
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        a, b = docs[key[0]], docs[key[1]]
        gold = 1.0 if a.source == b.source else 0.0
        pairs.append(StsPair(text_a=a.text, text_b=b.text, score=gold))
    return StsTask(pairs=tuple(pairs))


def synthetic_retrieval_task(corpus: Corpus, queries_per_topic: int = 2,
                             seed: int = 2) -> RetrievalTask:
    """Fresh same-vocabulary queries; every same-topic document is relevant."""
    rng = np.random.Generator(np.random.PCG64(seed))
    queries, qrels = {}, {}
    for topic in TOPICS:
        for i in range(queries_per_topic):
            qid = f"q-{topic}-{i}"
            queries[qid] = _topic_sentence(topic, rng)
            qrels[qid] = {d.id: 1.0 for d in corpus.documents if d.source == topic}
    corpus_map = {d.id: d.text for d in corpus.documents}
    return RetrievalTask(queries=queries, corpus=corpus_map, qrels=qrels)


def synthetic_clustering_task(corpus: Corpus) -> ClusteringTask:
    return ClusteringTask(texts=tuple(d.text for d in corpus.documents),
                          labels=tuple(d.source for d in corpus.documents))


@dataclass
class TopicOracleLLM:
    """Deterministic provider: recognizes the answer and contrastive generation
    prompts and responds by topic keyword rules. Yes iff the question's topic
    matches the chunk's."""

    calls: int = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if prompt.startswith("Evaluate the following text chunk"):
            return self._answer(prompt)
        if prompt.startswith("Generate 10 simple yet insightful"):
            return self._generate_contrastive(prompt)
        raise ValueError(f"oracle got an unrecognized prompt: {prompt[:80]!r}")

    def _answer(self, prompt: str) -> str:
        chunk_start = prompt.index("Text Chunk:\n") + len("Text Chunk:\n")
        chunk_end = prompt.index("\n\nQuestions:\n")
        chunk = prompt[chunk_start:chunk_end]
        q_start = chunk_end + len("\n\nQuestions:\n")
        q_end = prompt.index("\n\nInstruction for the model:")
        questions = [m.group(1) for m in
                     re.finditer(r"^\d+\.\s*(.+)$", prompt[q_start:q_end], re.M)]
        doc_topic = text_topic(chunk)
        lines = []
        for i, q in enumerate(questions, start=1):
            q_topic = _QUESTION_TOPIC.get(q)
            yes = q_topic is not None and q_topic == doc_topic
            lines.append(f"{i}. {'yes' if yes else 'no'}")
        return "\n".join(lines)

    def _generate_contrastive(self, prompt: str) -> str:
        pos_start = prompt.index("Positive Articles:\n") + len("Positive Articles:\n")
        pos_end = prompt.index("\n\nNegative Articles:")
        block = prompt[pos_start:pos_end]
        positives = [m.group(1) for m in
                     re.finditer(r"^Positive \d+\.\s*(.+)$", block, re.M)]
        votes = [text_topic(p) for p in positives]
        votes = [v for v in votes if v is not None]
        if not votes:
            topic = TOPICS[0]
        else:
            topic = max(TOPICS, key=votes.count)
        return "\n".join(f"{i}. {q}"
                         for i, q in enumerate(TOPIC_QUESTIONS[topic], start=1))
