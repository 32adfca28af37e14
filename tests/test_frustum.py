"""Frustum construction, containment, deterministic sampling, and co-visibility."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis import (
    CameraPose,
    DomainError,
    Frustum,
    FrustumParams,
    SamplerConfig,
    build_frustum,
    contains,
    contains_points,
    frame_covisibility,
    sample_points,
)
from covis.frustum import _local_lattice, _view_local, _world_samples

from helpers import random_pose, random_rotation

seeds = st.integers(min_value=0, max_value=2**32 - 1)

# looks down +x: forward column (0,0,-1)x ... (1,0,0); exact entries on purpose
YAW_90 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


def default_frustum(pose: CameraPose | None = None, **kw) -> Frustum:
    params = FrustumParams(**kw)
    return params.build(pose or CameraPose.identity())


def test_default_params():
    p = FrustumParams()
    assert p.fov_h == math.pi / 2
    assert p.fov_v == math.pi / 3
    assert p.near == 0.0
    assert p.far == 10.0


def test_param_validation():
    with pytest.raises(DomainError):
        FrustumParams(near=5.0, far=5.0)
    with pytest.raises(DomainError):
        FrustumParams(near=-1.0)
    with pytest.raises(DomainError):
        FrustumParams(fov_h=0.0)
    with pytest.raises(DomainError):
        FrustumParams(fov_v=math.pi)
    with pytest.raises(DomainError):
        build_frustum(CameraPose.identity(), near=3.0, far=2.0)


def test_axis_follows_pose():
    assert np.array_equal(default_frustum().axis, [0.0, 0.0, 1.0])
    flipped = CameraPose(rotation=np.diag([-1.0, 1.0, -1.0]), translation=np.zeros(3))
    assert np.array_equal(default_frustum(flipped).axis, [0.0, 0.0, -1.0])
    pose = CameraPose(rotation=YAW_90, translation=np.array([1.0, 2.0, 3.0]))
    fr = default_frustum(pose)
    assert np.array_equal(fr.axis, [1.0, 0.0, 0.0])
    assert np.array_equal(fr.apex, [1.0, 2.0, 3.0])


def test_contains_examples():
    fr = default_frustum()
    assert contains(fr, np.array([0.0, 0.0, 5.0]))
    assert not contains(fr, np.array([0.0, 0.0, 11.0]))
    # tan(45 deg) * 5 = 5 lateral boundary, probed from both sides
    assert contains(fr, np.array([5.0 - 1e-6, 0.0, 5.0]))
    assert not contains(fr, np.array([5.0 + 1e-6, 0.0, 5.0]))
    y_edge = 5.0 * math.tan(math.pi / 6)
    assert contains(fr, np.array([0.0, y_edge, 5.0]))
    assert not contains(fr, np.array([0.0, y_edge + 1e-6, 5.0]))
    # near = 0: the apex itself is inside, anything behind is not
    assert contains(fr, np.zeros(3))
    assert not contains(fr, np.array([0.0, 0.0, -1e-9]))
    assert contains(fr, np.array([0.0, 0.0, 10.0]))


def test_contains_points_matches_scalar():
    rng = np.random.default_rng(23)
    fr = default_frustum(random_pose(rng))
    pts = rng.uniform(-12.0, 12.0, size=(200, 3))
    mask = contains_points(fr, pts)
    assert mask.shape == (200,)
    assert mask.dtype == np.bool_
    for p, flag in zip(pts, mask):
        assert contains(fr, p) == flag


def test_sampler_config_validation():
    with pytest.raises(DomainError):
        SamplerConfig(grid_w=0)
    with pytest.raises(DomainError):
        SamplerConfig(depth_slices=-1)
    assert SamplerConfig().point_count == 8 * 6 * 8
    assert SamplerConfig(grid_w=2, grid_h=3, depth_slices=4).point_count == 24


def test_sample_points_counts_and_containment():
    fr = default_frustum(random_pose(np.random.default_rng(29)))
    pts = sample_points(fr)
    assert pts.shape == (384, 3)
    assert contains_points(fr, pts).all()
    pts48 = sample_points(fr, SamplerConfig(grid_w=8, grid_h=6, depth_slices=1))
    assert pts48.shape == (48, 3)
    assert contains_points(fr, pts48).all()


def test_single_sample_sits_on_axis():
    fr = default_frustum(random_pose(np.random.default_rng(31)))
    pts = sample_points(fr, SamplerConfig(grid_w=1, grid_h=1, depth_slices=1))
    # one slice: depth = near + 0.5 * (far - near) = 5
    assert np.allclose(pts[0], fr.apex + 5.0 * fr.axis, atol=1e-12)


def test_sampling_is_deterministic():
    fr = default_frustum(random_pose(np.random.default_rng(37)))
    assert np.array_equal(sample_points(fr), sample_points(fr))
    jit = SamplerConfig(jitter_seed=5)
    assert np.array_equal(sample_points(fr, jit), sample_points(fr, jit))
    other = sample_points(fr, SamplerConfig(jitter_seed=6))
    assert not np.array_equal(sample_points(fr, jit), other)
    assert contains_points(fr, sample_points(fr, jit)).all()
    assert contains_points(fr, other).all()


def test_covisibility_identical_is_one():
    fr = default_frustum(random_pose(np.random.default_rng(41)))
    assert frame_covisibility(fr, fr) == 1.0


def test_covisibility_disjoint_is_zero():
    a = default_frustum()
    # opposed, separated by more than 2 * far along the shared axis
    away = CameraPose(rotation=np.diag([-1.0, 1.0, -1.0]), translation=np.array([0.0, 0.0, -25.0]))
    b = default_frustum(away)
    assert frame_covisibility(a, b) == 0.0


def test_covisibility_nested_far_lattice_count():
    # Same apex and axis, inner far = 5. All 384 inner samples lie in the
    # outer frustum; outer depth slices sit at (i + 0.5) * 10 / 8, of which
    # exactly 4 (0.625 .. 4.375) are within depth 5, so 192 of 384 outer
    # samples lie in the inner frustum: (192 + 384) / 768 = 0.75.
    outer = default_frustum()
    inner = default_frustum(far=5.0)
    assert frame_covisibility(outer, inner) == 0.75


def test_covisibility_yaw90_matches_volume_oracle():
    # Oracle: 1e6-point rejection sampling of both frustum volumes with
    # analytic containment. For fov_h = 90 deg the yawed-90 overlap is the
    # measure-zero wedge x = z, so both estimates sit at 0.
    a = default_frustum()
    b = default_frustum(CameraPose(rotation=YAW_90, translation=np.zeros(3)))
    got = frame_covisibility(a, b)

    tan_v = math.tan(math.pi / 6)
    rng = np.random.default_rng(2024)
    n = 1_000_000

    def in_a(p):
        return (p[:, 2] >= 0) & (p[:, 2] <= 10) & (np.abs(p[:, 0]) <= p[:, 2]) & (
            np.abs(p[:, 1]) <= p[:, 2] * tan_v
        )

    def in_b(p):
        return (p[:, 0] >= 0) & (p[:, 0] <= 10) & (np.abs(p[:, 2]) <= p[:, 0]) & (
            np.abs(p[:, 1]) <= p[:, 0] * tan_v
        )

    box_a = rng.uniform([-10.0, -10.0 * tan_v, 0.0], [10.0, 10.0 * tan_v, 10.0], size=(n, 3))
    box_b = rng.uniform([0.0, -10.0 * tan_v, -10.0], [10.0, 10.0 * tan_v, 10.0], size=(n, 3))
    vol_a = box_a[in_a(box_a)]
    vol_b = box_b[in_b(box_b)]
    oracle = 0.5 * (in_b(vol_a).mean() + in_a(vol_b).mean())
    assert abs(got - oracle) <= 0.05


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_covisibility_symmetric_and_in_range(seed):
    rng = np.random.default_rng(seed)
    a = default_frustum(random_pose(rng, span=6.0))
    b = default_frustum(random_pose(rng, span=6.0))
    cfg = SamplerConfig(grid_w=4, grid_h=3, depth_slices=4)
    ab = frame_covisibility(a, b, cfg)
    ba = frame_covisibility(b, a, cfg)
    assert ab == ba
    assert 0.0 <= ab <= 1.0


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_covisibility_rigid_invariance(seed):
    rng = np.random.default_rng(seed)
    pa, pb = random_pose(rng, span=4.0), random_pose(rng, span=4.0)
    q = random_rotation(rng)
    t = rng.uniform(-8.0, 8.0, size=3)
    cfg = SamplerConfig(grid_w=4, grid_h=3, depth_slices=4)

    def moved(p: CameraPose) -> CameraPose:
        return CameraPose(rotation=q @ p.rotation, translation=q @ p.translation + t)

    before = frame_covisibility(default_frustum(pa), default_frustum(pb), cfg)
    after = frame_covisibility(default_frustum(moved(pa)), default_frustum(moved(pb)), cfg)
    assert before == after


def test_covisibility_monotone_under_far_shrink():
    # axis-aligned spot check: b sits 8 units ahead on a's axis
    apex_b = CameraPose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 8.0]))
    scores = []
    for far in (10.0, 9.0, 8.2, 7.9):
        a = default_frustum(far=far)
        b = default_frustum(apex_b, far=far)
        scores.append(frame_covisibility(a, b))
    assert scores[0] > 0.0
    assert all(s0 >= s1 for s0, s1 in zip(scores, scores[1:]))
    assert scores[-1] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    seeds, st.integers(1, 40), st.none() | st.integers(0, 2**32 - 1), st.booleans(),
    st.sampled_from([(3, 2, 5), (1, 1, 1)]),
)
def test_stacked_samples_match_per_frame_bits(seed, frames, jitter, default_params, grid):
    # counts hide last-bit differences, so compare the local coordinates
    # themselves; a 1x1x1 grid (P = 1) checks numpy's matrix-vector path too
    rng = np.random.default_rng(seed)
    params = FrustumParams() if default_params else FrustumParams(1.1, 0.7, 0.5, 6.0)
    cfg = SamplerConfig(*grid, jitter_seed=jitter)
    poses_s = [random_pose(rng) for _ in range(frames)]
    poses_v = [random_pose(rng) for _ in range(frames)]

    def stack(poses):
        return np.stack([p.rotation for p in poses]), np.stack([p.translation for p in poses])

    lattice = _local_lattice(
        cfg.grid_w, cfg.grid_h, cfg.depth_slices, cfg.jitter_seed,
        params.fov_h, params.fov_v, params.near, params.far,
    )
    world = np.empty((frames, 3, cfg.point_count))
    _world_samples(lattice.T, *stack(poses_s), world)
    local = _view_local(world, *stack(poses_v), np.empty_like(world), np.empty_like(world))
    for f, (ps, pv) in enumerate(zip(poses_s, poses_v)):
        fs, fv = params.build(ps), params.build(pv)
        assert np.array_equal(local[f], (sample_points(fs, cfg) - fv.apex) @ fv.orientation)
