"""Engine configuration: one JSON file, dotted-key overrides, strict validation.

The configuration is a tree of frozen dataclasses. Every run resolves its
full configuration (defaults, the --config file if one is given, then --set
overrides) and writes it next to its outputs, so runs are self-describing.
Each value must fit the type its dataclass field declares, and a float must
be finite. A --set value is read as that type, so a str field keeps the text
as given: "retrieval.tie_rule=2024" names the tie rule "2024", which then fails
as unknown.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .errors import ConfigError, DomainError
from .frustum import FrustumParams, SamplerConfig
from .memory import check_retrieval
from .records import check_fields, read_json, write_json
from .scene import check_scene
from .scheduler import SchedulerConfig


@dataclass(frozen=True)
class RetrievalConfig:
    """Retrieval behavior: how many entries to fetch and how to scope the pool.

    k here is the retrieval count l, which may exceed the model context size
    (scheduler.k); the planner then reduces the surplus by merging.
    """

    k: int = 4
    tie_rule: str = "recent_first"
    cross_chunk: bool = False
    include_source: bool = True

    def __post_init__(self) -> None:
        check_retrieval(self.k, self.tie_rule)


@dataclass(frozen=True)
class SceneConfig:
    seed: int = 0
    point_count: int = 1000
    extent: float = 10.0
    moving_fraction: float = 0.0

    def __post_init__(self) -> None:
        check_scene(**vars(self))


@dataclass(frozen=True)
class EngineConfig:
    frustum: FrustumParams = field(default_factory=FrustumParams)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    scene: SceneConfig = field(default_factory=SceneConfig)


_SECTIONS = get_type_hints(EngineConfig)

# Per section, each field's declared type, read from the dataclass annotations.
_FIELD_TYPES = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}


def config_from_dict(doc: dict[str, Any]) -> EngineConfig:
    """Build a config from a (possibly partial) nested dict; unknown keys and wrong types fail."""
    check_fields("config root", doc, {}, ConfigError)
    sections: dict[str, Any] = {}
    for name, value in doc.items():
        types = _FIELD_TYPES.get(name)
        if types is None:
            raise ConfigError(f"unknown config section {name!r}")
        check_fields(f"config section {name!r}", value, types, ConfigError, partial=True)
        unknown = set(value) - set(types)
        if unknown:
            raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
        try:
            # an int given for a float field is stored as a float, as --set stores it
            fields = {k: float(v) if types[k] is float else v for k, v in value.items()}
            for k, v in fields.items():
                if types[k] is float and not math.isfinite(v):
                    raise ConfigError(f"config section {name!r}: {k!r} must be finite, got {v!r}")
            sections[name] = _SECTIONS[name](**fields)
        except (DomainError, OverflowError) as e:
            raise ConfigError(f"invalid config section {name!r}: {e}") from e
    return EngineConfig(**sections)


def load_config(path: str | Path) -> EngineConfig:
    path = Path(path)
    doc = read_json(path, "config JSON", ConfigError)
    try:
        return config_from_dict(doc)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def save_config(config: EngineConfig, path: str | Path) -> None:
    write_json(path, dataclasses.asdict(config))


def _parse_value(text: str, kind: Any) -> Any:
    """text read as the declared type kind, or text itself if it reads as none of it."""
    word = text.strip().lower()
    for k in get_args(kind) or (kind,):
        if k is bool and word in ("true", "false"):
            return word == "true"
        if k is type(None) and word in ("none", "null"):
            return None
        if k in (int, float):
            try:
                return k(text)
            except ValueError:
                pass
    return text  # a str, or a mismatch that config_from_dict reports


def apply_overrides(config: EngineConfig, overrides: list[str]) -> EngineConfig:
    """Apply --set style overrides like "retrieval.k=2" to a config."""
    doc = dataclasses.asdict(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        key, _, raw = item.partition("=")
        parts = key.strip().split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key {key!r} must be section.key")
        section, name = parts
        if section not in _FIELD_TYPES:
            raise ConfigError(f"unknown config section {section!r}")
        if name not in _FIELD_TYPES[section]:
            raise ConfigError(f"unknown key {name!r} in section {section!r}")
        doc[section][name] = _parse_value(raw, _FIELD_TYPES[section][name])
    return config_from_dict(doc)
