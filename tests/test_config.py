import math
from dataclasses import fields

import pytest

from qembed.config import (
    ClusterSection,
    CollectionSection,
    ConfigError,
    CorpusSection,
    CostSection,
    EncoderSection,
    EvalSection,
    GenerationSection,
    LlmSection,
    PipelineConfig,
    ProbeSection,
    SelectionSection,
    TrainingSection,
    config_hash,
    dump_config,
    load_config,
    parse_float_list,
    parse_hours_map,
    parse_int_list,
    with_seed,
)
from qembed.pipeline import write_demo_workspace


def write(tmp_path, text):
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    return path


class TestDefaults:
    def test_full_scale_defaults(self):
        cfg = PipelineConfig()
        assert cfg.cluster.k == 5000
        assert cfg.generation.positives == 6
        assert cfg.generation.hard_negatives == 18
        assert cfg.generation.easy_negatives == 18
        assert cfg.probe.positives == 5
        assert cfg.probe.hard_negatives == 3
        assert cfg.probe.easy_negatives == 2
        assert cfg.selection.dedup_threshold == 0.8
        assert cfg.selection.per_cluster_cap == 4
        assert cfg.training.learning_rate == 1e-4
        assert cfg.training.tau == 0.5

    def test_sampling_neighborhood_defaults(self):
        cfg = PipelineConfig()
        assert cfg.generation.hard_neighbor_clusters == 3
        assert cfg.probe.neighbor_clusters == 3
        assert cfg.collection.neighbor_clusters == 5
        assert cfg.collection.in_cluster == 500
        assert cfg.collection.neighbor == 300
        assert cfg.collection.random == 200
        assert cfg.collection.group == 20

    def test_heldout_default(self):
        assert PipelineConfig().corpus.heldout_fraction == 0.1


class TestParsing:
    def test_partial_file_overrides_only_named_keys(self, tmp_path):
        cfg = load_config(write(tmp_path, "[cluster]\nk = 7\n"))
        assert cfg.cluster.k == 7
        assert cfg.cluster.max_iters == 300
        assert cfg.training.learning_rate == 1e-4

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write(tmp_path, "[clusterz]\nk = 7\n"))

    def test_unknown_key_lists_known(self, tmp_path):
        with pytest.raises(ConfigError, match="max_iters"):
            load_config(write(tmp_path, "[cluster]\nkk = 7\n"))

    def test_type_error_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="expected int"):
            load_config(write(tmp_path, "[cluster]\nk = many\n"))

    def test_float_coercion(self, tmp_path):
        cfg = load_config(write(tmp_path, "[training]\nlearning_rate = 3e-3\n"))
        assert cfg.training.learning_rate == pytest.approx(3e-3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.ini")

    def test_every_key_is_an_int_float_or_str(self):
        """The loader coerces a raw value by its field's type: int and float
        parse it, and any other type keeps the raw string, so a bool or list
        field would load as text."""
        types = {f"[{section.name}] {key.name}": key.type for section in fields(PipelineConfig)
                 for key in fields(section.type)}
        assert {name: t for name, t in types.items() if t not in (int, float, str)} == {}


# (section, values, expected start of the error message)
OUT_OF_RANGE = [
    (CorpusSection, {"heldout_fraction": 0.0}, "[corpus] heldout_fraction"),
    (CorpusSection, {"heldout_fraction": 1.0}, "[corpus] heldout_fraction"),
    (CorpusSection, {"format": "xml"}, "[corpus] format"),
    (EncoderSection, {"kind": "remote"}, "[encoder] kind"),
    (EncoderSection, {"dim": 0}, "[encoder] dim"),
    (LlmSection, {"kind": "psychic"}, "[llm] kind"),
    (LlmSection, {"kind": "remote"}, "[llm] endpoint is required when kind = remote"),
    (LlmSection, {"max_parallel": 0}, "[llm] max_parallel must be >= 1, got 0"),
    (LlmSection, {"timeout": 0.0}, "[llm] timeout"),
    (LlmSection, {"timeout": -1.0}, "[llm] timeout"),
    (LlmSection, {"timeout": math.inf}, "[llm] timeout"),
    (LlmSection, {"timeout": math.nan}, "[llm] timeout"),
    (ClusterSection, {"k": 0}, "[cluster] k"),
    (GenerationSection, {"positives": 0}, "[generation] positives"),
    (GenerationSection, {"hard_negatives": 0}, "[generation] hard_negatives"),
    (GenerationSection, {"easy_negatives": 0}, "[generation] easy_negatives"),
    (GenerationSection, {"hard_neighbor_clusters": -1}, "[generation] hard_neighbor_clusters"),
    (ProbeSection, {"positives": 0}, "[probe] positives"),
    (ProbeSection, {"hard_negatives": -1}, "[probe] hard_negatives"),
    (ProbeSection, {"easy_negatives": -1}, "[probe] easy_negatives"),
    (ProbeSection, {"hard_negatives": 0, "easy_negatives": 0}, "[probe] hard_negatives"),
    (ProbeSection, {"neighbor_clusters": -1}, "[probe] neighbor_clusters"),
    (SelectionSection, {"dedup_threshold": -0.1}, "[selection] dedup_threshold"),
    (SelectionSection, {"dedup_threshold": 1.5}, "[selection] dedup_threshold"),
    (SelectionSection, {"per_cluster_cap": 0}, "[selection] per_cluster_cap"),
    (CollectionSection, {"in_cluster": -1}, "[collection] in_cluster"),
    (CollectionSection, {"neighbor": -1}, "[collection] neighbor"),
    (CollectionSection, {"neighbor_clusters": -1}, "[collection] neighbor_clusters"),
    (CollectionSection, {"random": -1}, "[collection] random"),
    (CollectionSection, {"in_cluster": 0, "neighbor": 0, "random": 0}, "[collection] in_cluster"),
    (CollectionSection, {"group": 0}, "[collection] group"),
    (CollectionSection, {"group": 21}, "[collection] group"),
    (TrainingSection, {"learning_rate": 0.0}, "[training] learning_rate"),
    (TrainingSection, {"steps": 0}, "[training] steps must be >= 1, got 0"),
    (TrainingSection, {"steps": -5}, "[training] steps must be >= 1, got -5"),
    (TrainingSection, {"hidden": 0}, "[training] hidden must be >= 1, got 0"),
    (TrainingSection, {"hidden": -3}, "[training] hidden must be >= 1, got -3"),
    (TrainingSection, {"tau": 1.0}, "[training] tau"),
    (TrainingSection, {"pos_weight": "heavy"}, "[training] pos_weight"),
    (TrainingSection, {"pos_weight": "nan"}, "[training] pos_weight"),
    (TrainingSection, {"pos_weight": "inf"}, "[training] pos_weight"),
    (TrainingSection, {"pos_weight": "0"}, "[training] pos_weight"),
    (TrainingSection, {"pos_weight": "-1"}, "[training] pos_weight"),
    (EvalSection, {"explain_pairs": -1}, "[eval] explain_pairs"),
    (EvalSection, {"ablate_taus": "a,b"}, "[eval] ablate_taus"),
    (EvalSection, {"ablate_taus": "0.5,1.5"}, "[eval] ablate_taus entries must be in (0, 1)"),
    (EvalSection, {"ablate_dims": "4,x"}, "[eval] ablate_dims"),
    (EvalSection, {"sts": "sts.jsonl", "ablate_taus": "", "ablate_dims": ""},
     "[eval] ablate_taus and ablate_dims are both empty"),
    (CostSection, {"num_docs": -1}, "[cost] num_docs"),
    (CostSection, {"questions_per_prompt": 0}, "[cost] questions_per_prompt"),
    (CostSection, {"price_in": -0.5}, "[cost] price_in"),
    (CostSection, {"train_hours": -1.0}, "[cost] train_hours"),
    (CostSection, {"question_counts": "2000,-1"}, "[cost] question_counts"),
    (CostSection, {"question_counts": "2000,many"}, "[cost] question_counts"),
    (CostSection, {"question_counts": ""}, "[cost] question_counts is empty"),
    (CostSection, {"question_counts": "2000,3000"},
     "[cost] question_counts entry 3000 has no infer_hours entry"),
    (CostSection, {"infer_hours": "1:-2"}, "[cost] infer_hours"),
    (CostSection, {"infer_hours": "2000=48"}, "[cost] infer_hours"),
]


class TestValidation:
    @pytest.mark.parametrize("text,needle", [
        ("[corpus]\nheldout_fraction = 1.0\n", "heldout_fraction"),
        ("[corpus]\nformat = xml\n", "format"),
        ("[training]\ntau = 0\n", "tau"),
        ("[training]\nlearning_rate = 0\n", "learning_rate"),
        ("[training]\nsteps = -5\n", "steps must be >= 1"),
        ("[training]\nsteps = 0\n", "steps must be >= 1"),
        ("[training]\nhidden = 0\n", "hidden must be >= 1"),
        ("[training]\nhidden = -3\n", "hidden must be >= 1"),
        ("[training]\npos_weight = heavy\n", "pos_weight"),
        ("[selection]\ndedup_threshold = 1.5\n", "dedup_threshold"),
        ("[llm]\nkind = psychic\n", "kind"),
        ("[cluster]\nk = 0\n", "k"),
        ("[eval]\nablate_taus = a,b\n", "comma-separated"),
        ("[cost]\ninfer_hours = 2000=48\n", "count:hours"),
    ])
    def test_rejects(self, tmp_path, text, needle):
        with pytest.raises(ConfigError, match=needle):
            load_config(write(tmp_path, text))


    @pytest.mark.parametrize("section_type,values,prefix", OUT_OF_RANGE, ids=[
        section.__name__ + "-" + "-".join(f"{k}={v}" for k, v in values.items())
        for section, values, _ in OUT_OF_RANGE])
    def test_section_rejects_out_of_range_value(self, section_type, values, prefix):
        """Each section checks its own values when built in code, as from a file."""
        with pytest.raises(ConfigError) as exc:
            section_type(**values)
        assert str(exc.value).startswith(prefix)

    def test_empty_ablation_sweep_allowed_without_sts(self):
        """No sts task means no ablate stage, so it needs no sweep."""
        assert EvalSection(ablate_taus="", ablate_dims="").sts == ""


class TestListParsers:
    def test_float_list(self):
        assert parse_float_list("0.1, 0.5,0.9") == [0.1, 0.5, 0.9]
        assert parse_float_list("") == []

    def test_int_list(self):
        assert parse_int_list("4,8,16") == [4, 8, 16]
        assert parse_int_list(" ") == []

    def test_hours_map(self):
        assert parse_hours_map("2000:48,4000:63") == {2000: 48.0, 4000: 63.0}
        assert parse_hours_map("") == {}


class TestSerialization:
    def test_dump_is_parseable_fixed_point(self, tmp_path):
        cfg = load_config(write(tmp_path, "[cluster]\nk = 9\n[training]\ntau = 0.4\n"))
        dumped = tmp_path / "dumped.ini"
        dumped.write_text(dump_config(cfg))
        again = load_config(dumped)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_hash_sensitive_to_values(self):
        a = PipelineConfig()
        b = with_seed(a, 1)
        assert config_hash(a) != config_hash(b)
        assert b.pipeline.seed == 1

    def test_hash_stable(self):
        assert config_hash(PipelineConfig()) == config_hash(PipelineConfig())

    def test_hashes_are_pinned(self, tmp_path):
        """Adding, removing or renaming a section field changes these hashes,
        and with them every recorded stage's provenance."""
        assert config_hash(PipelineConfig()) == "2f8b0e617ec132d8"
        demo = load_config(write_demo_workspace(tmp_path, seed=0))
        assert config_hash(demo) == "ee460cf2848be990"
