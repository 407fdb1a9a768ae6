"""Parametric cost model: per-document LLM question answering vs trained heads.

Token counts and prices come from a [cost] section. Its defaults form a
calibrated preset for the mini-tier prices (0.075 / 0.30 USD per 1M tokens):
input and output token averages chosen so that answering 10,000 questions over
8.8M documents consumes 1.5e12 tokens across 4.4e9 prompts, and the per-pair
answer rate chosen so that ten million training pairs cost 31 USD.
"""

import math
from dataclasses import asdict, dataclass

from .config import CostSection, parse_hours_map, parse_int_list
from .jsonl import dumps


class CostError(ValueError):
    """A question count with no inference-hours entry."""


@dataclass(frozen=True)
class MbqaCost:
    api_usd: float
    gpu_usd: float
    total: float


def llm_prompt_count(p: CostSection, questions: int) -> int:
    """Prompts needed to answer every question for every document."""
    return p.num_docs * math.ceil(questions / p.questions_per_prompt)


def _per_prompt_usd(p: CostSection) -> float:
    return (p.avg_input_tokens_per_prompt * p.price_in
            + p.avg_output_tokens_per_prompt * p.price_out) / 1e6


def llm_qa_cost(p: CostSection, questions: int) -> float:
    """USD to embed the corpus by asking an LLM every question per document."""
    return llm_prompt_count(p, questions) * _per_prompt_usd(p)


def training_pair_count(p: CostSection, questions: int) -> int:
    return questions * p.training_texts_per_question


def mbqa_cost(p: CostSection, questions: int) -> MbqaCost:
    """One-off API spend for training answers plus GPU time to train and embed."""
    infer_hours = parse_hours_map(p.infer_hours)
    if questions not in infer_hours:
        raise CostError(
            f"no inference-hours entry for {questions} questions; "
            f"known sizes: {sorted(infer_hours)}")
    api = training_pair_count(p, questions) * p.api_cost_per_pair
    gpu = (p.train_hours + infer_hours[questions]) * p.gpu_rate
    return MbqaCost(api_usd=api, gpu_usd=gpu, total=api + gpu)


@dataclass(frozen=True)
class CostRow:
    num_questions: int
    llm_usd: float
    mbqa_api_usd: float
    mbqa_gpu_usd: float
    mbqa_total_usd: float


def comparison_rows(p: CostSection) -> list[CostRow]:
    """Cost both approaches at each of the section's question-bank sizes."""
    rows = []
    for q in parse_int_list(p.question_counts):
        m = mbqa_cost(p, q)
        rows.append(CostRow(num_questions=q, llm_usd=llm_qa_cost(p, q),
                            mbqa_api_usd=m.api_usd, mbqa_gpu_usd=m.gpu_usd,
                            mbqa_total_usd=m.total))
    return rows


def render_cost_table(rows: list[CostRow], num_docs: int) -> str:
    header = f"Embedding cost comparison for {num_docs:,} documents (USD)"
    cols = f"{'questions':>10}  {'llm':>14}  {'mbqa api':>10}  {'mbqa gpu':>10}  {'mbqa total':>11}"
    lines = [header, cols, "-" * len(cols)]
    for r in rows:
        lines.append(f"{r.num_questions:>10,}  {r.llm_usd:>14,.2f}  "
                     f"{r.mbqa_api_usd:>10,.2f}  {r.mbqa_gpu_usd:>10,.2f}  "
                     f"{r.mbqa_total_usd:>11,.2f}")
    return "\n".join(lines)


def cost_rows_jsonl(rows: list[CostRow], num_docs: int) -> str:
    return "".join(dumps({"num_docs": num_docs, **asdict(r)}, sort_keys=True) for r in rows)
