"""Pipeline configuration: INI file with one section per stage family.

Defaults are the full-scale settings (cluster count 5000, 6/18/18 generation
sampling, 5/3/2 probing, dedup threshold 0.8, 4 questions per cluster,
learning rate 1e-4, decision threshold 0.5). Unknown sections or keys are
errors so typos cannot silently fall back to defaults. Each section checks its
values when it is built, from a file or in code, and the library functions
take the sections themselves as their parameters.
"""

import configparser
import dataclasses
import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .prompts import QUESTIONS_PER_ANSWER_PROMPT


class ConfigError(ValueError):
    """Unknown keys, bad types, or out-of-range values in a config file or section."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _at_least(section: str, low: int, obj, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        _require(value >= low, f"[{section}] {name} must be >= {low}, got {value}")


def _parsed(section: str, key: str, parse, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


@dataclass(frozen=True)
class PipelineSection:
    seed: int = 0


@dataclass(frozen=True)
class CorpusSection:
    input: str = ""
    format: str = "json-lines"
    heldout_fraction: float = 0.1

    def __post_init__(self):
        _require(0 < self.heldout_fraction < 1,
                 f"[corpus] heldout_fraction must be in (0, 1), got {self.heldout_fraction}")
        _require(self.format in ("plain-lines", "json-lines"),
                 f"[corpus] format must be plain-lines or json-lines, got {self.format!r}")


@dataclass(frozen=True)
class EncoderSection:
    kind: str = "mock"
    dim: int = 256
    seed: int = 0

    def __post_init__(self):
        _require(self.kind == "mock", f"[encoder] kind must be mock, got {self.kind!r}")
        _at_least("encoder", 1, self, "dim")


@dataclass(frozen=True)
class LlmSection:
    kind: str = "scripted"   # scripted | oracle | remote
    transcript: str = ""
    endpoint: str = ""
    model: str = ""
    max_parallel: int = 4    # callers inside one RemoteLLM at once; stages call it serially
    timeout: float = 60.0

    def __post_init__(self):
        _require(self.kind in ("scripted", "oracle", "remote"),
                 f"[llm] kind must be scripted, oracle, or remote, got {self.kind!r}")
        _require(self.kind != "remote" or bool(self.endpoint),
                 "[llm] endpoint is required when kind = remote")
        _at_least("llm", 1, self, "max_parallel")
        _require(0 < self.timeout < math.inf,
                 f"[llm] timeout must be a finite number > 0, got {self.timeout}")


@dataclass(frozen=True)
class ClusterSection:
    k: int = 5000
    max_iters: int = 300
    tol: float = 1e-4

    def __post_init__(self):
        _at_least("cluster", 1, self, "k")


@dataclass(frozen=True)
class GenerationSection:
    positives: int = 6
    hard_negatives: int = 18
    easy_negatives: int = 18
    hard_neighbor_clusters: int = 3

    def __post_init__(self):
        _at_least("generation", 1, self, "positives", "hard_negatives", "easy_negatives")
        _at_least("generation", 0, self, "hard_neighbor_clusters")


@dataclass(frozen=True)
class ProbeSection:
    positives: int = 5
    hard_negatives: int = 3
    easy_negatives: int = 2
    neighbor_clusters: int = 3

    def __post_init__(self):
        _at_least("probe", 1, self, "positives")
        _at_least("probe", 0, self, "hard_negatives", "easy_negatives", "neighbor_clusters")
        _require(self.hard_negatives + self.easy_negatives >= 1,
                 "[probe] hard_negatives and easy_negatives must not both be 0")


@dataclass(frozen=True)
class SelectionSection:
    dedup_threshold: float = 0.8
    per_cluster_cap: int = 4

    def __post_init__(self):
        _require(0 <= self.dedup_threshold <= 1,
                 f"[selection] dedup_threshold must be in [0, 1], got {self.dedup_threshold}")
        _at_least("selection", 1, self, "per_cluster_cap")


@dataclass(frozen=True)
class CollectionSection:
    in_cluster: int = 500
    neighbor: int = 300
    neighbor_clusters: int = 5
    random: int = 200
    group: int = 20

    def __post_init__(self):
        _at_least("collection", 0, self, "in_cluster", "neighbor", "neighbor_clusters", "random")
        _require(self.in_cluster + self.neighbor + self.random >= 1,
                 "[collection] in_cluster + neighbor + random must be >= 1, got 0")
        _require(1 <= self.group <= QUESTIONS_PER_ANSWER_PROMPT,
                 f"[collection] group must be in [1, {QUESTIONS_PER_ANSWER_PROMPT}], "
                 f"got {self.group}")


@dataclass(frozen=True)
class TrainingSection:
    learning_rate: float = 1e-4
    steps: int = 100_000
    hidden: int = 128
    pos_weight: str = "auto"   # "auto", "none", or a float literal
    tau: float = 0.5

    def __post_init__(self):
        _require(self.learning_rate > 0,
                 f"[training] learning_rate must be > 0, got {self.learning_rate}")
        _at_least("training", 1, self, "steps", "hidden")
        _require(0 < self.tau < 1, f"[training] tau must be in (0, 1), got {self.tau}")
        try:
            weight = self.fixed_pos_weight()
        except ValueError:
            weight = math.nan
        _require(weight is None or 0 < weight < math.inf,
                 f"[training] pos_weight must be auto, none, or a finite number > 0, "
                 f"got {self.pos_weight!r}")

    def fixed_pos_weight(self) -> float | None:
        """The loss weight of yes answers; None for auto, computed from the answers."""
        if self.pos_weight == "auto":
            return None
        return 1.0 if self.pos_weight == "none" else float(self.pos_weight)


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

    def __post_init__(self):
        _at_least("eval", 0, self, "explain_pairs")
        taus = _parsed("eval", "ablate_taus", parse_float_list, self.ablate_taus)
        bad = next((tau for tau in taus if not 0 < tau < 1), None)
        _require(bad is None, f"[eval] ablate_taus entries must be in (0, 1), got {bad}")
        dims = _parsed("eval", "ablate_dims", parse_int_list, self.ablate_dims)
        _require(not self.sts or taus or dims,
                 "[eval] ablate_taus and ablate_dims are both empty: the ablate stage "
                 "needs a sweep when sts is set")


@dataclass(frozen=True)
class CostSection:
    num_docs: int = 8_800_000
    question_counts: str = "2000,4000,6000,8000,10000"
    questions_per_prompt: int = 20
    avg_input_tokens_per_prompt: float = 207.5
    avg_output_tokens_per_prompt: float = 133.4
    price_in: float = 0.075    # USD per 1M input tokens
    price_out: float = 0.30    # USD per 1M output tokens
    training_texts_per_question: int = 1000
    api_cost_per_pair: float = 3.1e-6
    gpu_rate: float = 0.08     # USD per hour
    train_hours: float = 36.0
    infer_hours: str = "2000:48,4000:63,6000:73,8000:79,10000:90"

    def __post_init__(self):
        _at_least("cost", 1, self, "questions_per_prompt")
        _at_least("cost", 0, self, "num_docs", "avg_input_tokens_per_prompt",
                  "avg_output_tokens_per_prompt", "price_in", "price_out",
                  "training_texts_per_question", "api_cost_per_pair", "gpu_rate",
                  "train_hours")
        counts = _parsed("cost", "question_counts", parse_int_list, self.question_counts)
        _require(bool(counts), "[cost] question_counts is empty")
        _require(min(counts) >= 0,
                 f"[cost] question_counts must be >= 0, got {self.question_counts!r}")
        hours = _parsed("cost", "infer_hours", parse_hours_map, self.infer_hours)
        _require(min(hours.values(), default=0) >= 0,
                 f"[cost] infer_hours must be >= 0, got {self.infer_hours!r}")
        missing = next((q for q in counts if q not in hours), None)
        _require(missing is None, f"[cost] question_counts entry {missing} has no "
                                  f"infer_hours entry; known sizes: {sorted(hours)}")


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


_SECTION_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


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
            values[key] = _coerce(section, key, raw, known[key])
        kwargs[section] = section_type(**values)
    return PipelineConfig(**kwargs)


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
