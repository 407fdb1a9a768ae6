import json

import pytest

from qembed.config import CostSection
from qembed.cost import (
    CostError,
    comparison_rows,
    cost_rows_jsonl,
    llm_prompt_count,
    llm_qa_cost,
    mbqa_cost,
    render_cost_table,
    training_pair_count,
)


MSMARCO_DOCS = 8_800_000


class TestPromptCount:
    def test_msmarco_scale(self):
        assert llm_prompt_count(CostSection(num_docs=MSMARCO_DOCS), 10_000) == 4_400_000_000

    def test_single_doc_single_question(self):
        assert llm_prompt_count(CostSection(num_docs=1), 1) == 1

    def test_ceiling_arithmetic(self):
        assert llm_prompt_count(CostSection(num_docs=10), 25) == 20


class TestLlmQaCost:
    def test_zero_prices(self):
        p = CostSection(num_docs=100, price_in=0.0, price_out=0.0)
        assert llm_qa_cost(p, 100) == 0.0

    def test_calibrated_preset_hits_reference_total(self):
        cost = llm_qa_cost(CostSection(num_docs=MSMARCO_DOCS), 10_000)
        assert abs(cost - 244_551) / 244_551 < 0.10

    def test_calibrated_token_total(self):
        # the preset's per-prompt tokens must add up to 1.5e12 over 4.4e9 prompts
        p = CostSection(num_docs=MSMARCO_DOCS)
        per_prompt = p.avg_input_tokens_per_prompt + p.avg_output_tokens_per_prompt
        total = llm_prompt_count(p, 10_000) * per_prompt
        assert abs(total - 1.5e12) / 1.5e12 < 0.01

    def test_doubling_docs_doubles_cost(self):
        a = CostSection(num_docs=1000)
        b = CostSection(num_docs=2000)
        assert llm_qa_cost(b, 500) == 2 * llm_qa_cost(a, 500)

    def test_per_prompt_cost_independent_of_docs(self):
        for docs in (1, 17, 1000, 8_800_000):
            p = CostSection(num_docs=docs)
            ratio = llm_qa_cost(p, 10_000) / llm_prompt_count(p, 10_000)
            base = llm_qa_cost(CostSection(num_docs=1), 10_000)
            assert ratio == pytest.approx(base / 500, rel=1e-12)


class TestTrainingCounts:
    def test_ten_million_pairs(self):
        assert training_pair_count(CostSection(num_docs=MSMARCO_DOCS), 10_000) == 10_000_000


class TestMbqaCost:
    PAPER_TOTALS = {2000: 13, 4000: 20, 6000: 27, 8000: 34, 10000: 41}

    def test_headline_forty_one(self):
        result = mbqa_cost(CostSection(num_docs=MSMARCO_DOCS), 10_000)
        assert result.api_usd == pytest.approx(31.0)
        assert result.gpu_usd == pytest.approx((36 + 90) * 0.08)
        assert result.total == pytest.approx(41.08)

    @pytest.mark.parametrize("q,expected", sorted(PAPER_TOTALS.items()))
    def test_table_row_within_two_dollars(self, q, expected):
        assert abs(mbqa_cost(CostSection(num_docs=MSMARCO_DOCS), q).total - expected) <= 2.0

    def test_zero_questions_zero_api(self):
        result = mbqa_cost(CostSection(num_docs=10, question_counts="0",
                                        infer_hours="0:0"), 0)
        assert result.api_usd == 0.0
        assert result.total == pytest.approx(36 * 0.08)

    def test_missing_infer_hours_entry(self):
        with pytest.raises(CostError, match="3000"):
            mbqa_cost(CostSection(num_docs=10), 3000)

    def test_mbqa_cheaper_than_llm_at_all_sizes(self):
        for q in sorted(self.PAPER_TOTALS):
            p = CostSection(num_docs=MSMARCO_DOCS)
            assert mbqa_cost(p, q).total <= llm_qa_cost(p, q)

    def test_headline_ratio_direction(self):
        p = CostSection(num_docs=MSMARCO_DOCS)
        ratio = mbqa_cost(p, 10_000).total / llm_qa_cost(p, 10_000)
        assert ratio < 0.001


class TestTable:
    def test_rows_cover_default_sizes(self):
        rows = comparison_rows(CostSection(num_docs=MSMARCO_DOCS))
        assert [r.num_questions for r in rows] == [2000, 4000, 6000, 8000, 10000]
        assert rows[-1].mbqa_total_usd == pytest.approx(41.08)

    def test_render_contains_columns(self):
        rows = comparison_rows(CostSection(num_docs=MSMARCO_DOCS))
        text = render_cost_table(rows, MSMARCO_DOCS)
        assert "questions" in text and "mbqa total" in text
        assert "41.08" in text

    def test_jsonl_parses_back(self):
        rows = comparison_rows(CostSection(num_docs=MSMARCO_DOCS, question_counts="10000"))
        lines = cost_rows_jsonl(rows, MSMARCO_DOCS).strip().split("\n")
        rec = json.loads(lines[0])
        assert rec["num_docs"] == MSMARCO_DOCS
        assert rec["num_questions"] == 10_000
        assert rec["mbqa_total_usd"] == pytest.approx(41.08)
