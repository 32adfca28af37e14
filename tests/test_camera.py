"""Camera types, Plücker ray maps, and trajectory file round trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis import (
    CameraIntrinsics,
    CameraPose,
    DomainError,
    Trajectory,
    load_trajectory,
    plucker_raymap,
    save_trajectory,
)
from covis import camera
from covis.camera import PluckerRayMap

from helpers import (
    random_intrinsics,
    random_pose,
    random_rotation,
    random_trajectory,
    transform_trajectory,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_intrinsics_validation():
    with pytest.raises(DomainError):
        CameraIntrinsics(fx=0.0, fy=1.0, cx=0.0, cy=0.0, width=4, height=4)
    with pytest.raises(DomainError):
        CameraIntrinsics(fx=1.0, fy=-2.0, cx=0.0, cy=0.0, width=4, height=4)
    with pytest.raises(DomainError):
        CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=0, height=4)


def test_intrinsics_from_fov():
    intr = CameraIntrinsics.from_fov(math.pi / 2, math.pi / 3, 192, 108)
    # fx = (W/2) / tan(fov_h/2); 90 degrees makes the tangent 1.
    assert intr.fx == pytest.approx(96.0)
    assert intr.fy == pytest.approx(54.0 / math.tan(math.pi / 6))
    assert (intr.cx, intr.cy) == (96.0, 54.0)
    assert (intr.width, intr.height) == (192, 108)


def test_pose_rejects_non_rotation():
    with pytest.raises(DomainError):
        CameraPose(rotation=np.eye(3) * 2.0, translation=np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(DomainError):
        CameraPose(rotation=reflection, translation=np.zeros(3))


def test_raymap_45_degree_pixel():
    # the center of pixel (149, 49) lies fx = 100 px right of the principal point
    intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=49.5, cy=49.5, width=200, height=100)
    rm = plucker_raymap(Trajectory.from_poses([CameraPose.identity()], intr))
    assert np.allclose(rm.rays[0, 49, 149, :3], [1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0)],
                       atol=1e-15)


@settings(max_examples=50)
@given(seeds)
def test_principal_ray_is_forward_axis(seed):
    rng = np.random.default_rng(seed)
    k = random_intrinsics(rng)
    u, v = int(k.cx), int(k.cy)
    # the principal point on the center of pixel (u, v)
    intr = CameraIntrinsics(fx=k.fx, fy=k.fy, cx=u + 0.5, cy=v + 0.5, width=k.width, height=k.height)
    pose = random_pose(rng)
    rm = plucker_raymap(Trajectory.from_poses([pose], intr))
    assert np.allclose(rm.rays[0, v, u, :3], pose.rotation[:, 2], atol=1e-12)


def test_raymap_zero_moment_at_origin():
    intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=2.0, cy=1.5, width=4, height=3)
    traj = Trajectory.from_poses([CameraPose(random_rotation(np.random.default_rng(3)), np.zeros(3))], intr)
    rm = plucker_raymap(traj)
    assert rm.rays.shape == (1, 3, 4, 6)
    assert np.all(rm.rays[..., 3:] == 0.0)


def test_raymap_translated_camera_moment():
    # cx/cy on a pixel center so one ray is exactly the optical axis.
    intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=2.5, cy=1.5, width=5, height=3)
    pose = CameraPose(rotation=np.eye(3), translation=np.array([1.0, 0.0, 0.0]))
    rm = plucker_raymap(Trajectory.from_poses([pose], intr))
    d = rm.rays[0, 1, 2, :3]
    m = rm.rays[0, 1, 2, 3:]
    assert np.array_equal(d, [0.0, 0.0, 1.0])
    assert np.array_equal(m, [0.0, -1.0, 0.0])
    # every moment is origin x direction
    all_d = rm.rays[..., :3]
    assert np.allclose(rm.rays[..., 3:], np.cross([1.0, 0.0, 0.0], all_d), atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_raymap_invariants_random(seed):
    rng = np.random.default_rng(seed)
    rm = plucker_raymap(random_trajectory(rng, frame_count=2))
    d, m = rm.rays[..., :3], rm.rays[..., 3:]
    assert np.abs(np.linalg.norm(d, axis=-1) - 1.0).max() <= 1e-9
    assert np.abs((d * m).sum(axis=-1)).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_raymap_rigid_equivariance(seed):
    rng = np.random.default_rng(seed)
    intr = CameraIntrinsics(fx=10.0, fy=9.0, cx=4.0, cy=3.0, width=8, height=6)
    traj = Trajectory.from_poses([random_pose(rng) for _ in range(2)], intr)
    q = random_rotation(rng)
    t = rng.uniform(-2.0, 2.0, size=3)
    moved = transform_trajectory(traj, q, t)

    base = plucker_raymap(traj).rays
    got = plucker_raymap(moved).rays
    want_d = base[..., :3] @ q.T
    origins = np.stack([q @ p.translation + t for p, _ in traj.frames])
    want_m = np.cross(origins[:, None, None, :], want_d)
    assert np.allclose(got[..., :3], want_d, atol=1e-12)
    assert np.allclose(got[..., 3:], want_m, atol=1e-12)


def test_raymap_type_rejects_bad_rays():
    bad = np.zeros((1, 2, 2, 6))
    bad[..., 2] = 2.0  # |d| = 2
    with pytest.raises(DomainError):
        PluckerRayMap(rays=bad)
    skew = np.zeros((1, 2, 2, 6))
    skew[..., 2] = 1.0
    skew[..., 5] = 1.0  # m parallel to d
    with pytest.raises(DomainError):
        PluckerRayMap(rays=skew)


def test_trajectory_validation():
    intr_a = CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=4, height=4)
    intr_b = CameraIntrinsics(fx=1.0, fy=1.0, cx=1.0, cy=1.0, width=8, height=4)
    with pytest.raises(DomainError):
        Trajectory(frames=())
    with pytest.raises(DomainError):
        Trajectory(frames=(
            (CameraPose.identity(), intr_a),
            (CameraPose.identity(), intr_b),
        ))


def test_trajectory_slice_and_label():
    rng = np.random.default_rng(17)
    traj = random_trajectory(rng, frame_count=5, label="walk")
    part = traj.slice_frames(1, 4)
    assert len(part) == 3
    assert part.label == "walk"
    assert np.array_equal(part.pose_stack[1], traj.pose_stack[1][1:4])
    with pytest.raises(DomainError):
        traj.slice_frames(3, 3)
    with pytest.raises(DomainError):
        traj.slice_frames(0, 6)


def test_trajectory_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    intr = random_intrinsics(rng)
    # awkward decimals on purpose: the writer must survive 17-digit values
    poses = [
        CameraPose(random_rotation(rng), np.array([math.pi, 1.0 / 3.0, -math.sqrt(2.0)])),
        CameraPose(random_rotation(rng), np.array([1e-17, -1e17, 0.1])),
    ]
    traj = Trajectory.from_poses(poses, intr, label="precise")
    path = tmp_path / "t.json"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert back.label == "precise"
    assert len(back) == len(traj)
    for (p0, i0), (p1, i1) in zip(traj.frames, back.frames):
        assert np.array_equal(p0.rotation, p1.rotation)
        assert np.array_equal(p0.translation, p1.translation)
        assert i0 == i1
    # second write of the loaded trajectory is byte-identical
    path2 = tmp_path / "t2.json"
    save_trajectory(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_trajectory_reads_a_missing_label_as_empty_and_rejects_one_that_is_not_text(tmp_path):
    path = tmp_path / "t.json"
    save_trajectory(random_trajectory(np.random.default_rng(23), frame_count=2, label="x"), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["label"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_trajectory(path).label == ""
    for label in (None, 5, ["a"], {"x": 1}, True):
        doc["label"] = label
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DomainError, match="'label' must be a str"):
            load_trajectory(path)


def _stacks(t: Trajectory) -> tuple:
    return (*t.pose_stack, t.intrinsics_stack)


def test_files_of_equal_bytes_share_one_decode(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "sub" / "b.json"
    save_trajectory(random_trajectory(np.random.default_rng(29), frame_count=4, label="x"), a)
    b.parent.mkdir()
    b.write_bytes(a.read_bytes())
    camera._decode.cache_clear()
    first, second = load_trajectory(a), load_trajectory(b)
    assert camera._decode.cache_info()[:2] == (1, 1)  # one hit, one miss
    assert second is first
    assert all(map(np.array_equal, _stacks(second), _stacks(first)))
    assert (second.label, second.image_size) == ("x", first.image_size)
    for s in _stacks(second):
        with pytest.raises(ValueError):
            s[0] = 0.0
    with pytest.raises(AttributeError, match="read-only"):
        second.label = "y"
    # the content that keys a decode keeps its digest, not the file's bytes
    content = camera._Content(b"{not json")
    with pytest.raises(DomainError):
        camera._decode(content)
    assert content.data == b"" and len(content.digest) == 32


def test_a_corrupt_file_is_never_cached_and_each_error_names_its_own_path(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_trajectory(random_trajectory(np.random.default_rng(31), frame_count=3), a)
    doc = json.loads(a.read_text(encoding="utf-8"))
    doc["frames"][1]["rotation"][0] = 2.0
    for p in (a, b):
        p.write_text(json.dumps(doc), encoding="utf-8")
    camera._decode.cache_clear()
    for p in (a, b, a):
        with pytest.raises(DomainError) as err:
            load_trajectory(p)
        assert str(err.value).startswith(f"{p}: frame 1: rotation is not orthonormal")
    assert camera._decode.cache_info()[:2] == (0, 3)


def test_a_file_rewritten_in_place_is_decoded_again(tmp_path):
    path = tmp_path / "t.json"
    rng = np.random.default_rng(37)
    old, new = (random_trajectory(rng, frame_count=3, label=label) for label in ("old", "new"))
    save_trajectory(old, path)
    assert load_trajectory(path).label == "old"
    save_trajectory(new, path)
    back = load_trajectory(path)
    assert back.label == "new"
    assert all(map(np.array_equal, _stacks(back), _stacks(new)))


def test_load_trajectory_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(DomainError):
        load_trajectory(p)
    p.write_text('{"convention": "world_to_camera", "frames": []}', encoding="utf-8")
    with pytest.raises(DomainError):
        load_trajectory(p)
    p.write_text('{"convention": "camera_to_world", "frames": [{"rotation": [1]}]}',
                 encoding="utf-8")
    with pytest.raises(DomainError):
        load_trajectory(p)
