"""Why train heads at all? Compare embedding costs at corpus scale.

Prices two ways of answering a question bank over a large corpus: calling
an LLM for every question/document pair versus a one-off answer collection
plus cheap trained heads. Defaults are calibrated to a public price sheet
for an 8.8M-document corpus.
"""

from qembed.config import CostSection
from qembed.cost import (comparison_rows, llm_prompt_count, llm_qa_cost, mbqa_cost,
                         render_cost_table)


def main() -> None:
    params = CostSection(num_docs=8_800_000)
    questions = 10_000
    prompts = llm_prompt_count(params, questions)
    print(f"corpus: {params.num_docs:,} documents, "
          f"{questions:,} questions, "
          f"{params.questions_per_prompt} questions per prompt")
    print(f"direct LLM answering needs {prompts:,} prompts "
          f"-> ${llm_qa_cost(params, questions):,.0f}")
    trained = mbqa_cost(params, questions)
    print(f"trained heads instead: ${trained.api_usd:,.2f} one-off answers "
          f"+ ${trained.gpu_usd:,.2f} GPU = ${trained.total:,.2f}")
    ratio = trained.total / llm_qa_cost(params, questions)
    print(f"cost ratio: {ratio:.6f} (under a thousandth of direct answering)\n")

    print(render_cost_table(comparison_rows(params), num_docs=params.num_docs))


if __name__ == "__main__":
    main()
