"""Configuration tree: defaults, dict round trips, file I/O, dotted overrides."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis import ConfigError, DomainError, EngineConfig, load_config, save_config
from covis.config import (
    _FIELD_TYPES,
    RetrievalConfig,
    ShotsConfig,
    apply_overrides,
    config_from_dict,
)
from covis.records import check_fields
from covis.trajectory_ops import SHOT_FAMILIES, ShotKind


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
    assert cfg.scene.velocity_scale == 0.02
    assert cfg.shots.frame_count == 93
    assert cfg.shots.rotate_angle == math.pi / 4
    assert cfg.shots.tilt_angle == math.pi / 6
    assert cfg.shots.translate_distance == 0.5
    assert cfg.shots.zoom_distance == 2.0
    assert cfg.shots.lookat_depth == 5.0
    assert cfg.output.directory == "runs/run"
    assert cfg.output.emit_svg is True
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
    cfg = apply_overrides(EngineConfig(), ["scene.seed=9", "shots.frame_count=11"])
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
        "output.emit_svg=false",
        "shots.rotate_angle=0.5",
        "retrieval.tie_rule=oldest_first",
        "sampler.jitter_seed=null",
        "output.directory=runs/elsewhere",
    ])
    assert cfg.retrieval.k == 2
    assert cfg.output.emit_svg is False
    assert cfg.shots.rotate_angle == 0.5
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


def test_shots_config_magnitudes():
    shots = ShotsConfig(rotate_angle=1.0, tilt_angle=2.0, translate_distance=3.0,
                        zoom_distance=4.0)
    mags = shots.magnitudes()
    assert set(mags) == set(ShotKind)
    assert mags[ShotKind.ROTATION_LEFT] == 1.0
    assert mags[ShotKind.ARC_LEFT_WITH_ROT] == 1.0
    assert mags[ShotKind.AZIMUTH_RIGHT] == 1.0
    assert mags[ShotKind.TILT_DOWN] == 2.0
    assert mags[ShotKind.ELEVATION_UP] == 2.0
    assert mags[ShotKind.TRANSLATE_UP_WITH_ROT] == 3.0
    assert mags[ShotKind.ZOOM_OUT] == 4.0
    with pytest.raises(DomainError):
        ShotsConfig(frame_count=1)


def test_apply_overrides_reads_each_value_as_its_declared_type():
    cfg = apply_overrides(EngineConfig(), [
        "shots.rotate_angle=1",
        "output.directory=2024",
        "output.emit_svg=True",
        "sampler.jitter_seed=7",
    ])
    assert cfg.shots.rotate_angle == 1.0 and type(cfg.shots.rotate_angle) is float
    assert cfg.output.directory == "2024"
    assert cfg.output.emit_svg is True
    assert cfg.sampler.jitter_seed == 7
    assert apply_overrides(cfg, ["sampler.jitter_seed=None"]).sampler.jitter_seed is None
    assert apply_overrides(cfg, ["output.directory=null"]).output.directory == "null"


@pytest.mark.parametrize("override", [
    "scene.point_count=abc",
    "scheduler.k=1.5",
    "output.emit_svg=maybe",
    "retrieval.cross_chunk=1",
    "sampler.jitter_seed=x",
    "shots.zoom_distance=far",
    "frustum.far=inf",
    "scene.velocity_scale=nan",
    "shots.zoom_distance=nan",
])
def test_apply_overrides_rejects_values_of_another_type(override):
    with pytest.raises(ConfigError, match="must be"):
        apply_overrides(EngineConfig(), [override])


@pytest.mark.parametrize("doc", [
    {"scene": {"seed": "x"}},
    {"scene": {"seed": True}},
    {"scene": {"seed": 1.0}},
    {"frustum": {"far": "10"}},
    {"output": {"emit_svg": 1}},
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
    path.write_text(json.dumps({"shots": {"rotate_angle": 1}}), encoding="utf-8")
    from_file = load_config(path)
    assert type(from_file.shots.rotate_angle) is float
    save_config(from_file, tmp_path / "a.json")
    save_config(apply_overrides(EngineConfig(), ["shots.rotate_angle=1"]), tmp_path / "b.json")
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


def test_shot_families_derive_the_magnitude_tables():
    assert sorted(k for _, kinds in SHOT_FAMILIES.values() for k in kinds) == list(ShotKind)
    shots = ShotsConfig()
    for family, (default, kinds) in SHOT_FAMILIES.items():
        assert getattr(shots, family) == default
    assert shots.magnitudes() == {
        kind: default for default, kinds in SHOT_FAMILIES.values() for kind in kinds
    }
