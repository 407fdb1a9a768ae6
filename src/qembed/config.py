"""Pipeline configuration: INI file with one section per stage family.

Defaults are the full-scale settings (cluster count 5000, 6/18/18 generation
sampling, 5/3/2 probing, dedup threshold 0.8, 4 questions per cluster,
learning rate 1e-4, decision threshold 0.5). Unknown sections or keys are
errors so typos cannot silently fall back to defaults.
"""

import configparser
import dataclasses
import hashlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .prompts import QUESTIONS_PER_ANSWER_PROMPT


class ConfigError(ValueError):
    """Unknown keys, bad types, or out-of-range values in a config file."""


@dataclass(frozen=True)
class PipelineSection:
    seed: int = 0


@dataclass(frozen=True)
class CorpusSection:
    input: str = ""
    format: str = "json-lines"
    heldout_fraction: float = 0.1


@dataclass(frozen=True)
class EncoderSection:
    kind: str = "mock"
    dim: int = 256
    seed: int = 0


@dataclass(frozen=True)
class LlmSection:
    kind: str = "scripted"   # scripted | oracle | remote
    transcript: str = ""
    endpoint: str = ""
    model: str = ""
    max_parallel: int = 4
    timeout: float = 60.0


@dataclass(frozen=True)
class ClusterSection:
    k: int = 5000
    max_iters: int = 300
    tol: float = 1e-4


@dataclass(frozen=True)
class GenerationSection:
    positives: int = 6
    hard_negatives: int = 18
    easy_negatives: int = 18
    hard_neighbor_clusters: int = 3


@dataclass(frozen=True)
class ProbeSection:
    positives: int = 5
    hard_negatives: int = 3
    easy_negatives: int = 2
    neighbor_clusters: int = 3


@dataclass(frozen=True)
class SelectionSection:
    dedup_threshold: float = 0.8
    per_cluster_cap: int = 4


@dataclass(frozen=True)
class CollectionSection:
    in_cluster: int = 500
    neighbor: int = 300
    neighbor_clusters: int = 5
    random: int = 200
    group: int = 20


@dataclass(frozen=True)
class TrainingSection:
    learning_rate: float = 1e-4
    steps: int = 100_000
    hidden: int = 128
    pos_weight: str = "auto"   # "auto", "none", or a float literal
    tau: float = 0.5


@dataclass(frozen=True)
class EvalSection:
    sts: str = ""
    queries: str = ""
    corpus: str = ""
    qrels: str = ""
    clustering: str = ""
    explain_pairs: int = 2
    ablate_taus: str = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
    ablate_dims: str = ""


@dataclass(frozen=True)
class CostSection:
    num_docs: int = 8_800_000
    question_counts: str = "2000,4000,6000,8000,10000"
    questions_per_prompt: int = 20
    avg_input_tokens_per_prompt: float = 207.5
    avg_output_tokens_per_prompt: float = 133.4
    price_in: float = 0.075
    price_out: float = 0.30
    training_texts_per_question: int = 1000
    api_cost_per_pair: float = 3.1e-6
    gpu_rate: float = 0.08
    train_hours: float = 36.0
    infer_hours: str = "2000:48,4000:63,6000:73,8000:79,10000:90"


@dataclass(frozen=True)
class PipelineConfig:
    pipeline: PipelineSection = field(default_factory=PipelineSection)
    corpus: CorpusSection = field(default_factory=CorpusSection)
    encoder: EncoderSection = field(default_factory=EncoderSection)
    llm: LlmSection = field(default_factory=LlmSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    generation: GenerationSection = field(default_factory=GenerationSection)
    probe: ProbeSection = field(default_factory=ProbeSection)
    selection: SelectionSection = field(default_factory=SelectionSection)
    collection: CollectionSection = field(default_factory=CollectionSection)
    training: TrainingSection = field(default_factory=TrainingSection)
    eval: EvalSection = field(default_factory=EvalSection)
    cost: CostSection = field(default_factory=CostSection)


_SECTION_TYPES = {
    "pipeline": PipelineSection, "corpus": CorpusSection, "encoder": EncoderSection,
    "llm": LlmSection, "cluster": ClusterSection, "generation": GenerationSection,
    "probe": ProbeSection, "selection": SelectionSection,
    "collection": CollectionSection, "training": TrainingSection,
    "eval": EvalSection, "cost": CostSection,
}


def _coerce(section: str, key: str, raw: str, target_type):
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {raw!r}: expected {target_type.__name__}") from None


def _validate(cfg: PipelineConfig) -> None:
    def bad(msg):
        raise ConfigError(msg)

    if not 0 < cfg.corpus.heldout_fraction < 1:
        bad(f"[corpus] heldout_fraction must be in (0, 1), got {cfg.corpus.heldout_fraction}")
    if cfg.corpus.format not in ("plain-lines", "json-lines"):
        bad(f"[corpus] format must be plain-lines or json-lines, got {cfg.corpus.format!r}")
    if cfg.encoder.kind not in ("mock",):
        bad(f"[encoder] kind must be mock, got {cfg.encoder.kind!r}")
    if cfg.encoder.dim < 1:
        bad(f"[encoder] dim must be >= 1, got {cfg.encoder.dim}")
    if cfg.llm.kind not in ("scripted", "oracle", "remote"):
        bad(f"[llm] kind must be scripted, oracle, or remote, got {cfg.llm.kind!r}")
    if cfg.cluster.k < 1:
        bad(f"[cluster] k must be >= 1, got {cfg.cluster.k}")
    for name, value in (("positives", cfg.generation.positives),
                        ("hard_negatives", cfg.generation.hard_negatives),
                        ("easy_negatives", cfg.generation.easy_negatives)):
        if value < 1:
            bad(f"[generation] {name} must be >= 1, got {value}")
    probe, col = cfg.probe, cfg.collection
    if probe.positives < 1:
        bad(f"[probe] positives must be >= 1, got {probe.positives}")
    for section, name, value in (("generation", "hard_neighbor_clusters",
                                  cfg.generation.hard_neighbor_clusters),
                                 ("probe", "hard_negatives", probe.hard_negatives),
                                 ("probe", "easy_negatives", probe.easy_negatives),
                                 ("probe", "neighbor_clusters", probe.neighbor_clusters),
                                 ("collection", "in_cluster", col.in_cluster),
                                 ("collection", "neighbor", col.neighbor),
                                 ("collection", "random", col.random)):
        if value < 0:
            bad(f"[{section}] {name} must be >= 0, got {value}")
    if probe.hard_negatives + probe.easy_negatives < 1:
        bad("[probe] hard_negatives and easy_negatives must not both be 0")
    if not 1 <= col.group <= QUESTIONS_PER_ANSWER_PROMPT:
        bad(f"[collection] group must be in [1, {QUESTIONS_PER_ANSWER_PROMPT}], got {col.group}")
    if not 0 <= cfg.selection.dedup_threshold <= 1:
        bad(f"[selection] dedup_threshold must be in [0, 1], got {cfg.selection.dedup_threshold}")
    if cfg.selection.per_cluster_cap < 1:
        bad(f"[selection] per_cluster_cap must be >= 1, got {cfg.selection.per_cluster_cap}")
    if cfg.training.learning_rate <= 0:
        bad(f"[training] learning_rate must be > 0, got {cfg.training.learning_rate}")
    for name, value in (("steps", cfg.training.steps), ("hidden", cfg.training.hidden)):
        if value < 1:
            bad(f"[training] {name} must be >= 1, got {value}")
    if not 0 < cfg.training.tau < 1:
        bad(f"[training] tau must be in (0, 1), got {cfg.training.tau}")
    if cfg.training.pos_weight not in ("auto", "none"):
        try:
            float(cfg.training.pos_weight)
        except ValueError:
            bad(f"[training] pos_weight must be auto, none, or a number, "
                f"got {cfg.training.pos_weight!r}")
    if cfg.eval.explain_pairs < 0:
        bad(f"[eval] explain_pairs must be >= 0, got {cfg.eval.explain_pairs}")
    try:
        parse_float_list(cfg.eval.ablate_taus)
        parse_int_list(cfg.eval.ablate_dims)
        parse_hours_map(cfg.cost.infer_hours)
        parse_int_list(cfg.cost.question_counts)
    except ValueError as exc:
        bad(str(exc))


def parse_float_list(raw: str) -> list[float]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [float(x) for x in raw.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {raw!r}") from None


def parse_int_list(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw:
        return []
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {raw!r}") from None


def parse_hours_map(raw: str) -> dict[int, float]:
    out: dict[int, float] = {}
    raw = raw.strip()
    if not raw:
        return out
    for item in raw.split(","):
        if ":" not in item:
            raise ValueError(f"expected count:hours pairs, got {item!r}")
        count, hours = item.split(":", 1)
        try:
            out[int(count)] = float(hours)
        except ValueError:
            raise ValueError(f"expected count:hours pairs, got {item!r}") from None
    return out


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return config_from_parser(parser, origin=str(path))


def config_from_parser(parser: configparser.ConfigParser,
                       origin: str = "<config>") -> PipelineConfig:
    kwargs = {}
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            raise ConfigError(
                f"{origin}: unknown section [{section}]; "
                f"known: {', '.join(sorted(_SECTION_TYPES))}")
        section_type = _SECTION_TYPES[section]
        known = {f.name: f.type for f in fields(section_type)}
        values = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(
                    f"{origin}: unknown key {key!r} in [{section}]; "
                    f"known: {', '.join(sorted(known))}")
            # dataclass field types arrive as strings under future annotations
            target = {"int": int, "float": float, "str": str}[
                known[key] if isinstance(known[key], str) else known[key].__name__]
            values[key] = _coerce(section, key, raw, target)
        kwargs[section] = section_type(**values)
    cfg = PipelineConfig(**kwargs)
    _validate(cfg)
    return cfg


def dump_config(cfg: PipelineConfig) -> str:
    """Canonical INI rendering: every section, every key, sorted, resolved."""
    lines = []
    for section_field in fields(PipelineConfig):
        section = getattr(cfg, section_field.name)
        lines.append(f"[{section_field.name}]")
        for f in sorted(fields(section), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(section, f.name)}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: PipelineConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()[:16]


def with_seed(cfg: PipelineConfig, seed: int) -> PipelineConfig:
    return dataclasses.replace(cfg, pipeline=PipelineSection(seed=seed))
