"""Benchmark shot generation, sync pair table, and trajectory merging."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from covis import (
    CameraIntrinsics,
    CameraPose,
    DomainError,
    SamplerConfig,
    ShotKind,
    Trajectory,
    benchmark_suite,
    generate_shot,
    merge_trajectories,
    sync_pairs,
    trajectory_similarity,
)

from helpers import random_pose, random_rotation, random_trajectory

seeds = st.integers(min_value=0, max_value=2**32 - 1)

INTR = CameraIntrinsics(fx=96.0, fy=93.5, cx=96.0, cy=54.0, width=192, height=108)

SUITE_ORDER = [
    "rotation_left",
    "arc_right_with_rot",
    "azimuth_right",
    "rotation_right",
    "arc_left_with_rot",
    "azimuth_left",
    "tilt_up",
    "translate_down_with_rot",
    "tilt_down",
    "translate_up_with_rot",
    "elevation_up",
    "zoom_out",
]


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def base_trajectory(pose: CameraPose | None = None) -> Trajectory:
    return Trajectory.from_poses([pose or CameraPose.identity()], INTR, label="base")


def shot(kind: ShotKind, magnitude: float, frames: int = 2,
         base: Trajectory | None = None) -> Trajectory:
    return generate_shot(kind, magnitude, frames, base or base_trajectory())


def test_shot_kind_order_and_slugs():
    assert [k.slug for k in ShotKind] == SUITE_ORDER
    assert [int(k) for k in ShotKind] == list(range(1, 13))
    for k in ShotKind:
        assert ShotKind.from_slug(k.slug) is k
    with pytest.raises(DomainError):
        ShotKind.from_slug("dolly_zoom")


def test_generate_shot_validation():
    base = base_trajectory()
    with pytest.raises(DomainError):
        generate_shot(ShotKind.ZOOM_OUT, 0.0, 2, base)
    with pytest.raises(DomainError):
        generate_shot(ShotKind.ZOOM_OUT, 1.0, 1, base)


def test_every_shot_starts_at_base_pose():
    base_pose = random_pose(np.random.default_rng(3))
    base = base_trajectory(base_pose)
    for kind in ShotKind:
        traj = generate_shot(kind, 0.4, 4, base)
        p0 = traj.frames[0][0]
        assert np.array_equal(p0.rotation, base_pose.rotation), kind
        assert np.array_equal(p0.translation, base_pose.translation), kind
        assert traj.label == kind.slug
        assert len(traj) == 4


def test_rotation_shots_turn_in_place():
    a = math.pi / 4
    base_pose = random_pose(np.random.default_rng(5))
    base = base_trajectory(base_pose)
    for kind, expect in [
        (ShotKind.ROTATION_LEFT, base_pose.rotation @ rot_y(-a)),
        (ShotKind.ROTATION_RIGHT, base_pose.rotation @ rot_y(a)),
        (ShotKind.TILT_UP, base_pose.rotation @ rot_x(a)),
        (ShotKind.TILT_DOWN, base_pose.rotation @ rot_x(-a)),
    ]:
        end = shot(kind, a, base=base).frames[-1][0]
        assert np.allclose(end.rotation, expect, atol=1e-12), kind
        assert np.array_equal(end.translation, base_pose.translation), kind


def test_zoom_out_moves_back_along_axis():
    base_pose = random_pose(np.random.default_rng(7))
    end = shot(ShotKind.ZOOM_OUT, 2.0, frames=3, base=base_trajectory(base_pose)).frames[-1][0]
    assert np.allclose(end.translation, base_pose.translation - 2.0 * base_pose.rotation[:, 2],
                       atol=1e-12)
    assert np.array_equal(end.rotation, base_pose.rotation)


def test_azimuth_orbits_without_reaiming():
    traj = shot(ShotKind.AZIMUTH_RIGHT, math.pi / 4, frames=5)
    lookat = np.array([0.0, 0.0, 5.0])
    for pose, _ in traj.frames:
        assert np.array_equal(pose.rotation, np.eye(3))
        assert abs(np.linalg.norm(pose.translation - lookat) - 5.0) <= 1e-9
    end = traj.frames[-1][0].translation
    # orbiting right from (0,0,0) about the look-at point moves the camera +x
    assert end[0] > 0.5
    left = shot(ShotKind.AZIMUTH_LEFT, math.pi / 4, frames=5).frames[-1][0].translation
    assert np.allclose(left * [-1.0, 1.0, 1.0], end, atol=1e-12)


def test_arc_shots_reaim_at_lookat():
    lookat = np.array([0.0, 0.0, 5.0])
    for kind in (ShotKind.ARC_RIGHT_WITH_ROT, ShotKind.ARC_LEFT_WITH_ROT):
        traj = shot(kind, math.pi / 4, frames=5)
        for pose, _ in traj.frames[1:]:
            to_target = lookat - pose.translation
            to_target /= np.linalg.norm(to_target)
            assert np.allclose(pose.rotation[:, 2], to_target, atol=1e-9), kind
            assert abs(np.linalg.norm(pose.translation - lookat) - 5.0) <= 1e-9


def test_translate_shots_move_and_reaim():
    lookat = np.array([0.0, 0.0, 5.0])
    down = shot(ShotKind.TRANSLATE_DOWN_WITH_ROT, 0.5, frames=3)
    end = down.frames[-1][0]
    # identity base: camera down is +y
    assert np.allclose(end.translation, [0.0, 0.5, 0.0], atol=1e-12)
    to_target = lookat - end.translation
    assert np.allclose(end.rotation[:, 2], to_target / np.linalg.norm(to_target), atol=1e-9)
    up = shot(ShotKind.TRANSLATE_UP_WITH_ROT, 0.5, frames=3).frames[-1][0]
    assert np.allclose(up.translation, [0.0, -0.5, 0.0], atol=1e-12)


def test_elevation_orbits_vertically_keeping_orientation():
    traj = shot(ShotKind.ELEVATION_UP, math.pi / 6, frames=4)
    lookat = np.array([0.0, 0.0, 5.0])
    for pose, _ in traj.frames:
        assert np.array_equal(pose.rotation, np.eye(3))
        assert abs(np.linalg.norm(pose.translation - lookat) - 5.0) <= 1e-9
    # up in world is -y for the identity camera
    assert traj.frames[-1][0].translation[1] < -0.5


def test_benchmark_suite_order_and_magnitudes():
    suite = benchmark_suite(base_trajectory(), 3)
    assert [t.label for t in suite] == SUITE_ORDER
    assert all(len(t) == 3 for t in suite)
    # default magnitudes: pi/4 turns, pi/6 tilts, 0.5 translate, 2.0 zoom
    rot_left_end = suite[0].frames[-1][0]
    assert np.allclose(rot_left_end.rotation, rot_y(-math.pi / 4), atol=1e-12)
    tilt_up_end = suite[6].frames[-1][0]
    assert np.allclose(tilt_up_end.rotation, rot_x(math.pi / 6), atol=1e-12)
    zoom_end = suite[11].frames[-1][0]
    assert np.allclose(zoom_end.translation, [0.0, 0.0, -2.0], atol=1e-12)
    trans_end = suite[7].frames[-1][0]
    assert np.allclose(trans_end.translation, [0.0, 0.5, 0.0], atol=1e-12)


# every shot's benchmark magnitude, written out
BENCHMARK_MAGNITUDES = {
    ShotKind.ROTATION_LEFT: math.pi / 4,
    ShotKind.ARC_RIGHT_WITH_ROT: math.pi / 4,
    ShotKind.AZIMUTH_RIGHT: math.pi / 4,
    ShotKind.ROTATION_RIGHT: math.pi / 4,
    ShotKind.ARC_LEFT_WITH_ROT: math.pi / 4,
    ShotKind.AZIMUTH_LEFT: math.pi / 4,
    ShotKind.TILT_UP: math.pi / 6,
    ShotKind.TRANSLATE_DOWN_WITH_ROT: 0.5,
    ShotKind.TILT_DOWN: math.pi / 6,
    ShotKind.TRANSLATE_UP_WITH_ROT: 0.5,
    ShotKind.ELEVATION_UP: math.pi / 6,
    ShotKind.ZOOM_OUT: 2.0,
}


@pytest.mark.parametrize("kind", list(ShotKind), ids=lambda kind: kind.slug)
def test_benchmark_suite_is_each_shot_at_its_fixed_magnitude(kind):
    base = Trajectory.from_poses([random_pose(np.random.default_rng(5))], INTR, label="base")
    got = benchmark_suite(base, 7)[int(kind) - 1]
    want = generate_shot(kind, BENCHMARK_MAGNITUDES[kind], 7, base)
    assert (got.label, got.image_size) == (want.label, want.image_size)
    for a, b in zip((*got.pose_stack, got.intrinsics_stack),
                    (*want.pose_stack, want.intrinsics_stack)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sync_pairs_table():
    rl, ar, az = ShotKind.ROTATION_LEFT, ShotKind.ARC_RIGHT_WITH_ROT, ShotKind.AZIMUTH_RIGHT
    rr, al, azl = ShotKind.ROTATION_RIGHT, ShotKind.ARC_LEFT_WITH_ROT, ShotKind.AZIMUTH_LEFT
    tu, td = ShotKind.TILT_UP, ShotKind.TILT_DOWN
    trd, tru = ShotKind.TRANSLATE_DOWN_WITH_ROT, ShotKind.TRANSLATE_UP_WITH_ROT
    el, zo = ShotKind.ELEVATION_UP, ShotKind.ZOOM_OUT

    assert sync_pairs(3) == [(rl, ar), (rl, az)]
    assert sync_pairs(6) == [(rl, ar), (rl, az), (rr, al), (rr, azl)]
    assert sync_pairs(9) == [
        (rl, ar), (rl, az), (rr, al), (rr, azl), (tu, trd), (td, tru)
    ]
    assert sync_pairs(12) == [
        (rl, ar), (rl, az), (rr, al), (rr, azl), (tu, trd), (td, tru),
        (tru, el), (tru, zo)
    ]
    for bad in (0, 1, 2, 4, 5, 7, 8, 10, 11, 13):
        with pytest.raises(DomainError):
            sync_pairs(bad)


def test_merge_single_input_unchanged():
    traj = random_trajectory(np.random.default_rng(11), frame_count=3)
    assert merge_trajectories([traj]) is traj


def test_merge_validation():
    rng = np.random.default_rng(13)
    with pytest.raises(DomainError):
        merge_trajectories([])
    with pytest.raises(DomainError):
        merge_trajectories([random_trajectory(rng, 2), random_trajectory(rng, 3)])
    a = Trajectory.from_poses([CameraPose.identity()], INTR)
    small = CameraIntrinsics(fx=10.0, fy=10.0, cx=5.0, cy=5.0, width=10, height=10)
    b = Trajectory.from_poses([CameraPose.identity()], small)
    with pytest.raises(DomainError):
        merge_trajectories([a, b])


def test_merge_identical_inputs_idempotent():
    traj = random_trajectory(np.random.default_rng(17), frame_count=2)
    merged = merge_trajectories([traj, traj])
    for (p, i), (q, j) in zip(merged.frames, traj.frames):
        assert np.allclose(p.rotation, q.rotation, atol=1e-12)
        assert np.array_equal(p.translation, q.translation)
        assert i == j
    assert merged.label == "merge(t+t)"


def test_merge_mirrored_centers():
    a = Trajectory.from_poses([CameraPose(np.eye(3), np.array([1.0, 0.0, 0.0]))], INTR, "a")
    b = Trajectory.from_poses([CameraPose(np.eye(3), np.array([-1.0, 0.0, 0.0]))], INTR, "b")
    merged = merge_trajectories([a, b])
    pose = merged.frames[0][0]
    assert np.array_equal(pose.translation, [0.0, 0.0, 0.0])
    assert np.array_equal(pose.rotation, np.eye(3))
    assert merged.label == "merge(a+b)"


def test_merge_yaw_pair_bisects():
    a = Trajectory.from_poses([CameraPose(np.eye(3), np.zeros(3))], INTR)
    b = Trajectory.from_poses([CameraPose(rot_y(math.pi / 2), np.zeros(3))], INTR)
    merged = merge_trajectories([a, b])
    assert np.allclose(merged.frames[0][0].rotation, rot_y(math.pi / 4), atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_merge_rotation_matches_scipy_mean(seed):
    # Oracle: scipy's Rotation.mean minimizes the same chordal L2 objective.
    # Clustered inputs keep that minimizer unique and well-conditioned.
    rng = np.random.default_rng(seed)
    base = random_rotation(rng)
    mats = [
        base @ Rotation.from_rotvec(rng.uniform(-0.4, 0.4, size=3)).as_matrix()
        for _ in range(3)
    ]
    trajs = [
        Trajectory.from_poses([CameraPose(m, np.zeros(3))], INTR, label=str(i))
        for i, m in enumerate(mats)
    ]
    merged = merge_trajectories(trajs)
    want = Rotation.from_matrix(mats).mean().as_matrix()
    assert np.allclose(merged.frames[0][0].rotation, want, atol=1e-8)


def test_merge_permutation_invariant():
    rng = np.random.default_rng(19)
    trajs = [random_trajectory(rng, frame_count=2, label=str(i)) for i in range(3)]
    for i in range(3):
        # all trajectories must share one image size to merge
        trajs[i] = Trajectory.from_poses([p for p, _ in trajs[i].frames], INTR, label=str(i))
    m1 = merge_trajectories(trajs)
    m2 = merge_trajectories([trajs[2], trajs[0], trajs[1]])
    for (p, _), (q, _) in zip(m1.frames, m2.frames):
        assert np.allclose(p.rotation, q.rotation, atol=1e-12)
        assert np.allclose(p.translation, q.translation, atol=1e-12)


def test_merge_widest_fov_intrinsics():
    ia = CameraIntrinsics(fx=100.0, fy=90.0, cx=10.0, cy=20.0, width=64, height=48)
    ib = CameraIntrinsics(fx=80.0, fy=95.0, cx=20.0, cy=10.0, width=64, height=48)
    a = Trajectory.from_poses([CameraPose.identity()], ia)
    b = Trajectory.from_poses([CameraPose.identity()], ib)
    merged_intr = merge_trajectories([a, b]).frames[0][1]
    assert merged_intr.fx == 80.0
    assert merged_intr.fy == 90.0
    assert merged_intr.cx == pytest.approx(15.0)
    assert merged_intr.cy == pytest.approx(15.0)
    assert (merged_intr.width, merged_intr.height) == (64, 48)


def test_merge_antipodal_falls_back_with_warning():
    a = Trajectory.from_poses([CameraPose.identity()], INTR)
    b = Trajectory.from_poses(
        [CameraPose(np.diag([-1.0, 1.0, -1.0]), np.zeros(3))], INTR
    )
    with pytest.warns(UserWarning, match="degenerate rotation mean"):
        merged = merge_trajectories([a, b])
    assert np.array_equal(merged.frames[0][0].rotation, np.eye(3))


def test_merged_suite_covers_inputs():
    # sanity on the co-located 12-shot suite: the merged trajectory is at
    # least as co-visible with each input as the worst input pair
    suite = benchmark_suite(base_trajectory(), 5)
    merged = merge_trajectories(suite)
    cfg = SamplerConfig(grid_w=4, grid_h=3, depth_slices=4)
    pairwise = [
        trajectory_similarity(suite[i], suite[j], cfg)
        for i in range(len(suite))
        for j in range(i + 1, len(suite))
    ]
    floor = min(pairwise)
    for traj in suite:
        assert trajectory_similarity(merged, traj, cfg) >= floor
