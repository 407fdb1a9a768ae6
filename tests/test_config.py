import pytest

from qembed.config import (
    ConfigError,
    PipelineConfig,
    config_hash,
    dump_config,
    load_config,
    parse_float_list,
    parse_hours_map,
    parse_int_list,
    with_seed,
)


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
