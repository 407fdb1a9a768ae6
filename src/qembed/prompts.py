"""Prompt rendering from versioned text templates, plus LLM output parsing.

Templates live under qembed/templates/ and are instantiated by exact
placeholder substitution, so braces inside article text never break rendering.
Rendered prompts carry no trailing newline.
"""

from __future__ import annotations

import functools
import logging
import re
from dataclasses import dataclass
from importlib import resources

logger = logging.getLogger(__name__)

QUESTIONS_PER_GENERATION = 10   # the templates ask for exactly 10
QUESTIONS_PER_ANSWER_PROMPT = 20


class QuestionParseError(ValueError):
    """LLM generation output contained no parseable questions."""

    def __init__(self, raw_output: str):
        preview = raw_output if len(raw_output) <= 200 else raw_output[:200] + "..."
        super().__init__(f"no questions parsed from LLM output: {preview!r}")
        self.raw_output = raw_output


@dataclass(frozen=True)
class CandidateQuestion:
    text: str  # single question sentence ending in "?"
    origin_cluster: int
    ordinal: int  # position within the LLM's numbered list


@functools.cache  # templates ship with the package and do not change at run time
def load_template(name: str) -> str:
    text = resources.files("qembed.templates").joinpath(f"{name}.txt").read_text("utf-8")
    return text.rstrip("\n")


_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


def _fill(template: str, values: dict[str, str]) -> str:
    def sub(match: re.Match) -> str:
        key = match.group(1)
        if key not in values:
            raise KeyError(f"template placeholder {key!r} has no value")
        return values[key]

    return _PLACEHOLDER.sub(sub, template)


def _numbered(texts: list[str], prefix: str = "") -> str:
    return "\n".join(f"{prefix}{i}. {t}" for i, t in enumerate(texts, start=1))


def render_contrastive_prompt(positives: list[str], negatives: list[str]) -> str:
    """Question-generation prompt contrasting positive articles against negatives."""
    if not positives or not negatives:
        raise ValueError("need at least one positive and one negative article")
    if any(not t.strip() for t in positives + negatives):
        raise ValueError("articles must be non-empty")
    return _fill(load_template("contrastive"), {
        "positive_articles": _numbered(positives, "Positive "),
        "negative_articles": _numbered(negatives, "Negative "),
    })


def render_example_based_prompt(references: list[str], example_questions: list[str]) -> str:
    """Generation prompt in the example-guided style: reference articles + sample questions."""
    if not references or not example_questions:
        raise ValueError("need reference articles and example questions")
    return _fill(load_template("example_based"), {
        "reference_articles": _numbered(references),
        "example_questions": _numbered(example_questions),
    })


def render_answer_prompt(text_chunk: str, questions: list[str]) -> str:
    """Batched yes/no answering prompt; at most 20 questions per call."""
    if not questions:
        raise ValueError("need at least one question")
    if len(questions) > QUESTIONS_PER_ANSWER_PROMPT:
        raise ValueError(f"at most {QUESTIONS_PER_ANSWER_PROMPT} questions per prompt, "
                         f"got {len(questions)}")
    if not text_chunk.strip():
        raise ValueError("text chunk must be non-empty")
    return _fill(load_template("answering"), {
        "text_chunk": text_chunk,
        "questions": _numbered(questions),
    })


_QUESTION_LINE = re.compile(r"^\s*(\d+)\.\s*(\S.*?)\s*$")


def parse_questions(llm_output: str, origin_cluster: int = -1) -> list[CandidateQuestion]:
    """Extract numbered question lines, ignoring surrounding prose.

    Numbered lines that do not end in "?" are dropped with a warning; zero
    parseable questions raises carrying the raw output.
    """
    parsed: list[CandidateQuestion] = []
    for line in llm_output.splitlines():
        match = _QUESTION_LINE.match(line)
        if not match:
            continue
        text = match.group(2)
        if not text.endswith("?"):
            logger.warning("dropping numbered non-question line: %r", line.strip())
            continue
        parsed.append(CandidateQuestion(text=text, origin_cluster=origin_cluster,
                                        ordinal=len(parsed)))
    if not parsed:
        raise QuestionParseError(llm_output)
    return parsed


_ANSWER_LINE = re.compile(r"^\s*(\d+)\s*[.):]?\s*\**\s*(yes|no)\b", re.IGNORECASE)


def parse_answers(llm_output: str, expected: int) -> tuple[list[int], int]:
    """Extract yes/no answers for a numbered question batch.

    Returns (answers, unparsed_count) where answers[i] is 1 for yes, 0 for no.
    Missing or malformed lines default to "no" and are counted, never dropped.
    """
    found: dict[int, int] = {}
    for line in llm_output.splitlines():
        match = _ANSWER_LINE.match(line)
        if not match:
            continue
        index = int(match.group(1))
        if 1 <= index <= expected and index not in found:
            found[index] = 1 if match.group(2).lower() == "yes" else 0
    answers = []
    unparsed = 0
    for i in range(1, expected + 1):
        if i in found:
            answers.append(found[i])
        else:
            logger.warning("answer %d missing from LLM output, recording 'no'", i)
            answers.append(0)
            unparsed += 1
    return answers, unparsed
