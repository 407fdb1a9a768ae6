"""Parametric cost model: per-document LLM question answering vs trained heads.

Token counts and prices are inputs.  The defaults form a calibrated preset
for the mini-tier prices (0.075 / 0.30 USD per 1M tokens): input and output
token averages chosen so that answering 10,000 questions over 8.8M documents
consumes 1.5e12 tokens across 4.4e9 prompts, and the per-pair answer rate
chosen so that ten million training pairs cost 31 USD.
"""

import math
from dataclasses import dataclass, field

from .jsonl import dumps


DEFAULT_INFER_HOURS = {2000: 48.0, 4000: 63.0, 6000: 73.0, 8000: 79.0, 10000: 90.0}


class CostError(ValueError):
    """Invalid cost parameters."""


@dataclass(frozen=True)
class CostParams:
    num_docs: int
    num_questions: int
    questions_per_prompt: int = 20
    avg_input_tokens_per_prompt: float = 207.5
    avg_output_tokens_per_prompt: float = 133.4
    price_in: float = 0.075    # USD per 1M input tokens
    price_out: float = 0.30    # USD per 1M output tokens
    training_texts_per_question: int = 1000
    api_cost_per_pair: float = 3.1e-6
    gpu_rate: float = 0.08     # USD per hour
    train_hours: float = 36.0
    infer_hours: dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_INFER_HOURS))

    def __post_init__(self):
        if self.questions_per_prompt < 1:
            raise CostError(
                f"questions_per_prompt must be >= 1, got {self.questions_per_prompt}")
        for name in ("num_docs", "num_questions", "avg_input_tokens_per_prompt",
                     "avg_output_tokens_per_prompt", "price_in", "price_out",
                     "training_texts_per_question", "api_cost_per_pair",
                     "gpu_rate", "train_hours"):
            value = getattr(self, name)
            if value < 0:
                raise CostError(f"{name} must be nonnegative, got {value}")
        if any(h < 0 for h in self.infer_hours.values()):
            raise CostError("inference hours must be nonnegative")


@dataclass(frozen=True)
class MbqaCost:
    api_usd: float
    gpu_usd: float
    total: float


def llm_prompt_count(p: CostParams) -> int:
    """Prompts needed to answer every question for every document."""
    return p.num_docs * math.ceil(p.num_questions / p.questions_per_prompt)


def _per_prompt_usd(p: CostParams) -> float:
    return (p.avg_input_tokens_per_prompt * p.price_in
            + p.avg_output_tokens_per_prompt * p.price_out) / 1e6


def llm_qa_cost(p: CostParams) -> float:
    """USD to embed the corpus by asking an LLM every question per document."""
    return llm_prompt_count(p) * _per_prompt_usd(p)


def training_pair_count(p: CostParams) -> int:
    return p.num_questions * p.training_texts_per_question


def mbqa_cost(p: CostParams) -> MbqaCost:
    """One-off API spend for training answers plus GPU time to train and embed."""
    if p.num_questions not in p.infer_hours:
        raise CostError(
            f"no inference-hours entry for {p.num_questions} questions; "
            f"known sizes: {sorted(p.infer_hours)}")
    api = training_pair_count(p) * p.api_cost_per_pair
    gpu = (p.train_hours + p.infer_hours[p.num_questions]) * p.gpu_rate
    return MbqaCost(api_usd=api, gpu_usd=gpu, total=api + gpu)


@dataclass(frozen=True)
class CostRow:
    num_questions: int
    llm_usd: float
    mbqa_api_usd: float
    mbqa_gpu_usd: float
    mbqa_total_usd: float

    def as_dict(self) -> dict:
        return {
            "num_questions": self.num_questions,
            "llm_usd": self.llm_usd,
            "mbqa_api_usd": self.mbqa_api_usd,
            "mbqa_gpu_usd": self.mbqa_gpu_usd,
            "mbqa_total_usd": self.mbqa_total_usd,
        }


def comparison_rows(num_docs: int, question_counts=None, **overrides) -> list[CostRow]:
    """Cost both approaches across question-bank sizes for one corpus size."""
    if question_counts is None:
        question_counts = sorted(DEFAULT_INFER_HOURS)
    rows = []
    for q in question_counts:
        p = CostParams(num_docs=num_docs, num_questions=q, **overrides)
        m = mbqa_cost(p)
        rows.append(CostRow(num_questions=q, llm_usd=llm_qa_cost(p),
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
    return "".join(dumps({"num_docs": num_docs, **r.as_dict()}, sort_keys=True) for r in rows)
