"""Configuration tree: defaults, dict round trips, file I/O, dotted overrides."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis import ConfigError, DomainError, EngineConfig, load_config, save_config
from covis.config import (
    _FIELD_TYPES,
    RetrievalConfig,
    apply_overrides,
    config_from_dict,
)
from covis.records import check_fields


def test_default_values():
    cfg = EngineConfig()
    assert cfg.retrieval.k == 4
    assert cfg.retrieval.tie_rule == "recent_first"
    assert cfg.retrieval.cross_chunk is False
    assert cfg.retrieval.include_source is True
    assert cfg.scene.seed == 0
    assert cfg.scene.point_count == 1000
    assert cfg.scene.extent == 10.0
    assert cfg.scene.moving_fraction == 0.0
    assert cfg.output.directory == "runs/run"
    assert cfg.frustum.far == 10.0
    assert cfg.sampler.grid_w == 8
    assert cfg.scheduler.chunk_frames == 93


def test_dict_round_trip():
    cfg = EngineConfig()
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg
    partial = config_from_dict({"retrieval": {"k": 7}})
    assert partial.retrieval.k == 7
    assert partial.scene == cfg.scene
    assert config_from_dict({}) == cfg


def test_config_from_dict_rejects_unknowns():
    with pytest.raises(ConfigError):
        config_from_dict({"nosuch": {}})
    with pytest.raises(ConfigError):
        config_from_dict({"retrieval": {"bogus": 1}})
    with pytest.raises(ConfigError):
        config_from_dict({"retrieval": 3})
    with pytest.raises(ConfigError):
        config_from_dict([])
    with pytest.raises(ConfigError):
        config_from_dict({"retrieval": {"k": 0}})  # DomainError surfaces as config error


def test_file_round_trip(tmp_path):
    cfg = apply_overrides(EngineConfig(), ["scene.seed=9", "retrieval.k=11"])
    path = tmp_path / "engine.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_apply_overrides_scalar_parsing():
    cfg = apply_overrides(EngineConfig(), [
        "retrieval.k=2",
        "retrieval.cross_chunk=true",
        "frustum.far=12.5",
        "retrieval.tie_rule=oldest_first",
        "sampler.jitter_seed=null",
        "output.directory=runs/elsewhere",
    ])
    assert cfg.retrieval.k == 2
    assert cfg.retrieval.cross_chunk is True
    assert cfg.frustum.far == 12.5
    assert cfg.retrieval.tie_rule == "oldest_first"
    assert cfg.sampler.jitter_seed is None
    assert cfg.output.directory == "runs/elsewhere"
    # the input config is not mutated
    assert EngineConfig().retrieval.k == 4


def test_apply_overrides_rejects_bad_keys():
    cfg = EngineConfig()
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["retrieval.k"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["k=2"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nosuch.k=2"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["retrieval.nosuch=2"])


def test_retrieval_config_validation():
    with pytest.raises(DomainError):
        RetrievalConfig(k=0)
    with pytest.raises(DomainError):
        RetrievalConfig(tie_rule="fifo")


def test_apply_overrides_reads_each_value_as_its_declared_type():
    cfg = apply_overrides(EngineConfig(), [
        "scene.extent=1",
        "output.directory=2024",
        "retrieval.cross_chunk=True",
        "sampler.jitter_seed=7",
    ])
    assert cfg.scene.extent == 1.0 and type(cfg.scene.extent) is float
    assert cfg.output.directory == "2024"
    assert cfg.retrieval.cross_chunk is True
    assert cfg.sampler.jitter_seed == 7
    assert apply_overrides(cfg, ["sampler.jitter_seed=None"]).sampler.jitter_seed is None
    assert apply_overrides(cfg, ["output.directory=null"]).output.directory == "null"


_MISTYPED = [
    ("scene.point_count=abc", "must be"),
    ("scheduler.k=1.5", "must be"),
    ("retrieval.include_source=maybe", "must be"),
    ("retrieval.cross_chunk=1", "must be"),
    ("sampler.jitter_seed=x", "must be"),
    ("frustum.near=far", "must be"),
    ("frustum.far=inf", "must be"),
    # velocity_scale is now the constant covis.scene.MOVING_SPEED
    ("scene.velocity_scale=nan", "unknown key 'velocity_scale' in section 'scene'"),
]


@pytest.mark.parametrize("override, says", _MISTYPED, ids=[o for o, _ in _MISTYPED])
def test_apply_overrides_rejects_values_of_another_type(override, says):
    with pytest.raises(ConfigError, match=re.escape(says)):
        apply_overrides(EngineConfig(), [override])


@pytest.mark.parametrize("doc", [
    {"scene": {"seed": "x"}},
    {"scene": {"seed": True}},
    {"scene": {"seed": 1.0}},
    {"frustum": {"far": "10"}},
    {"retrieval": {"include_source": 1}},
    {"sampler": {"jitter_seed": 1.5}},
    {"scheduler": {"conditioning_ratio": 0.45}},
    {"frustum": {"far": math.inf}},
    {"scene": {"extent": math.nan}},
])
def test_config_file_values_are_checked_against_declared_types(tmp_path, doc):
    path = tmp_path / "engine.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{path}: "):
        load_config(path)


def test_config_accepts_an_int_for_a_float_and_null_for_an_optional():
    cfg = config_from_dict({"frustum": {"far": 12}, "sampler": {"jitter_seed": None}})
    assert cfg.frustum.far == 12
    assert cfg.sampler.jitter_seed is None


def test_an_int_for_a_float_is_stored_as_the_float_set_would_store(tmp_path):
    path = tmp_path / "engine.json"
    path.write_text(json.dumps({"scene": {"extent": 1}}), encoding="utf-8")
    from_file = load_config(path)
    assert type(from_file.scene.extent) is float
    save_config(from_file, tmp_path / "a.json")
    save_config(apply_overrides(EngineConfig(), ["scene.extent=1"]), tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    with pytest.raises(ConfigError, match="too large"):
        config_from_dict({"frustum": {"far": 10 ** 400}})


_KEYS = [(section, name) for section, fields in _FIELD_TYPES.items() for name in fields]
_TEXTS = (
    st.text() | st.integers().map(str) | st.floats().map(repr)
    | st.sampled_from(["true", "False", "null", "None", " 3 ", "1e3", "-0", "nan", "inf"])
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_KEYS), _TEXTS)
def test_apply_overrides_gives_a_typed_config_or_config_error(key, text):
    section, name = key
    try:
        cfg = apply_overrides(EngineConfig(), [f"{section}.{name}={text}"])
    except ConfigError:
        return
    doc = dataclasses.asdict(cfg)
    for section, fields in _FIELD_TYPES.items():
        check_fields(section, doc[section], fields, ConfigError)
        assert all(math.isfinite(doc[section][k]) for k, kind in fields.items() if kind is float)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_KEYS), _TEXTS), max_size=4))
def test_a_saved_config_loads_back_to_the_same_bytes(tmp_path_factory, overrides):
    try:
        cfg = apply_overrides(EngineConfig(), [f"{s}.{n}={text}" for (s, n), text in overrides])
    except ConfigError:
        return
    d = tmp_path_factory.mktemp("cfg")
    save_config(cfg, d / "a.json")
    save_config(load_config(d / "a.json"), d / "b.json")
    assert (d / "a.json").read_bytes() == (d / "b.json").read_bytes()


def test_readme_config_table_names_exactly_the_config_sections_and_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| section | keys (defaults) |\n| --- | --- |\n")[1].split("\n\n")[0]
    documented = {
        section: re.findall(r"`(\w+)` \(", keys)
        for section, keys in re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M)
    }
    config = EngineConfig()
    assert documented == {
        f.name: [g.name for g in dataclasses.fields(getattr(config, f.name))]
        for f in dataclasses.fields(config)
    }
