"""Synthetic point scenes, the splat renderer, and the visibility oracle."""

from __future__ import annotations

import errno
import json
import math
import os
import re
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from covis import (
    CameraIntrinsics,
    CameraPose,
    DomainError,
    FrameSequence,
    MatchMap,
    SceneModel,
    SchedulerConfig,
    Trajectory,
    build_frustum,
    chunk_schedule,
    covisible_fraction,
    load_frames,
    make_scene,
    plucker_raymap,
    render,
    save_frames,
)
from covis.scene import BACKGROUND_ID, BACKGROUND_RGB
from covis.scheduler import TEMPORAL_COMPRESSION
from helpers import aimed_trajectory, random_rotation, read_rgb, transform_trajectory

INTR = CameraIntrinsics.from_fov(math.pi / 2, math.pi / 3, 16, 12)
IDENTITY_TRAJ = Trajectory.from_poses([CameraPose.identity()], INTR, label="cam")


def manual_scene(positions, ids=None, velocities=None) -> SceneModel:
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    ids = np.arange(1, n + 1, dtype=np.int32) if ids is None else np.asarray(ids, np.int32)
    vel = np.zeros((n, 3)) if velocities is None else np.asarray(velocities, np.float64)
    colors = np.stack([ids % 256, (ids * 7) % 256, (ids * 13) % 256], axis=1).astype(np.uint8)
    return SceneModel(ids=ids, positions=pos, colors=colors, velocities=vel, seed=0)


def test_make_scene_deterministic():
    a = make_scene(7, point_count=50)
    b = make_scene(7, point_count=50)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.colors, b.colors)
    assert np.array_equal(a.ids, b.ids)
    assert a.scene_key == b.scene_key
    c = make_scene(8, point_count=50)
    assert not np.array_equal(a.positions, c.positions)
    assert a.scene_key != c.scene_key


def test_make_scene_geometry_and_ids():
    scene = make_scene(0, point_count=1000, extent=10.0)
    assert len(scene.ids) == 1000
    assert np.array_equal(scene.ids, np.arange(1, 1001, dtype=np.int32))
    center = np.array([0.0, 0.0, 5.0])
    assert (np.abs(scene.positions - center) <= 5.0).all()
    assert not scene.velocities.any()


def test_make_scene_moving_fraction():
    scene = make_scene(3, point_count=100, moving_fraction=0.25)
    moving = np.any(scene.velocities != 0.0, axis=1)
    assert int(moving.sum()) == 25
    assert (np.abs(scene.velocities) <= 0.02).all()
    assert np.array_equal(scene.positions_at(0), scene.positions)
    shifted = scene.positions_at(3)
    assert np.allclose(shifted, scene.positions + 3.0 * scene.velocities)


def test_make_scene_validation():
    with pytest.raises(DomainError):
        make_scene(0, point_count=0)
    with pytest.raises(DomainError):
        make_scene(0, extent=0.0)
    with pytest.raises(DomainError):
        make_scene(0, moving_fraction=1.5)
    # a value numpy's generator cannot take: a negative seed
    with pytest.raises(DomainError, match=re.escape("seed must be >= 0, got -1")):
        make_scene(-1)


def test_scene_model_validation():
    with pytest.raises(DomainError):
        manual_scene(np.zeros((0, 3)))
    with pytest.raises(DomainError):
        manual_scene([[0.0, 0.0, 5.0]], ids=[0])  # background id reserved
    with pytest.raises(DomainError):
        manual_scene([[0.0, 0.0, 5.0]] * 2, ids=[3, 3])
    with pytest.raises(DomainError):
        manual_scene([[0.0, 0.0, np.inf]])
    with pytest.raises(DomainError):
        SceneModel(
            ids=np.array([1], np.int32), positions=np.zeros((2, 3)),
            colors=np.zeros((1, 3), np.uint8), velocities=np.zeros((1, 3)), seed=0,
        )
    scene = manual_scene([[0.0, 0.0, 5.0]])
    with pytest.raises(ValueError):
        scene.positions[0, 0] = 1.0  # arrays are frozen


def test_scene_key_tracks_content():
    base = manual_scene([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]])
    same = manual_scene([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]])
    moved = manual_scene([[0.0, 0.0, 5.0], [1.0, 0.0, 5.01]])
    assert base.scene_key.startswith("scene-")
    assert base.scene_key == same.scene_key
    assert base.scene_key != moved.scene_key


def test_render_on_axis_point():
    scene = manual_scene([[0.0, 0.0, 5.0]])
    seq = render(scene, IDENTITY_TRAJ)
    assert seq.scene_key == scene.scene_key
    u = int(INTR.cx)  # on-axis projection lands at the principal point
    v = int(INTR.cy)
    assert seq.id_map[0, v, u] == 1
    assert np.array_equal(seq.frames[0, v, u], scene.colors[0])
    hit = seq.id_map[0] != BACKGROUND_ID
    assert int(hit.sum()) == 1
    assert (seq.frames[0][~hit] == BACKGROUND_RGB[0]).all()


def test_render_depth_buffer_prefers_near():
    # both points sit on the optical axis; depths 7 and 3
    scene = manual_scene([[0.0, 0.0, 7.0], [0.0, 0.0, 3.0]])
    seq = render(scene, IDENTITY_TRAJ)
    assert seq.id_map[0, int(INTR.cy), int(INTR.cx)] == 2


def test_render_depth_tie_prefers_smallest_id():
    scene = manual_scene([[0.0, 0.0, 5.0]] * 2, ids=[9, 4])
    seq = render(scene, IDENTITY_TRAJ)
    assert seq.id_map[0, int(INTR.cy), int(INTR.cx)] == 4


def test_render_skips_behind_and_outside():
    scene = manual_scene([[0.0, 0.0, -5.0], [0.0, 0.0, 0.0], [100.0, 0.0, 5.0]])
    seq = render(scene, IDENTITY_TRAJ)
    assert not seq.id_map.any()
    assert (seq.frames == BACKGROUND_RGB[0]).all()


def test_render_is_bit_identical():
    scene = make_scene(11, point_count=200)
    traj = aimed_trajectory(np.random.default_rng(2), frame_count=3, width=24, height=18)
    a = render(scene, traj)
    b = render(scene, traj)
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.id_map, b.id_map)


def test_render_scratch_does_not_grow_with_the_video():
    # frames are rendered in blocks of a fixed point budget, so a longer video
    # adds only to the two output arrays; identical frames make every block equal
    scene = make_scene(3, point_count=1000)
    intr = CameraIntrinsics.from_fov(math.pi / 2, math.pi / 3, 192, 108)
    scratch = []
    for n in (31, 93):
        traj = Trajectory.from_poses([CameraPose.identity()] * n, intr)
        render(scene, traj)  # first calls fill numpy's and the interpreter's caches
        tracemalloc.start()
        try:
            seq = render(scene, traj)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scratch.append(peak - seq.frames.nbytes - seq.id_map.nbytes)
    # numpy's cache of small shape buffers moves the peak by a few hundred bytes
    # per call; one more frame of scratch would add at least one float64 per point
    assert abs(scratch[1] - scratch[0]) < 8 * 1000


def test_render_moving_point_advances():
    # 1 world unit per frame at depth 5 is fx / 5 = 1.6 pixels per frame
    scene = manual_scene([[0.0, 0.0, 5.0]], velocities=[[1.0, 0.0, 0.0]])
    traj = Trajectory.from_poses([CameraPose.identity()] * 3, INTR)
    seq = render(scene, traj)
    cols = [int(np.argwhere(seq.id_map[f])[0][1]) for f in range(3)]
    assert cols[0] == int(INTR.cx)
    assert cols[0] < cols[1] < cols[2]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.integers(2, 40),
    st.integers(2, 16), st.integers(1, 3),
)
def test_a_chunk_rendered_from_its_start_equals_those_frames_of_one_render(
        seed, moving_fraction, total, chunk_frames, overlap_latent):
    assume(1 + (overlap_latent - 1) * TEMPORAL_COMPRESSION < chunk_frames)
    cfg = SchedulerConfig(chunk_frames=chunk_frames, overlap_latent=overlap_latent)
    rng = np.random.default_rng(seed)
    scene = make_scene(seed, point_count=300, moving_fraction=moving_fraction)
    traj = aimed_trajectory(rng, frame_count=total, width=24, height=18)
    whole = render(scene, traj)
    for c in chunk_schedule(total, cfg).chunks:
        part = render(scene, traj.slice_frames(c.start, c.end), c.start)
        assert np.array_equal(part.frames, whole.frames[c.start:c.end])
        assert np.array_equal(part.id_map, whole.id_map[c.start:c.end])


def test_render_matches_bruteforce_depth_oracle():
    scene = make_scene(5, point_count=120, extent=8.0)
    pose = CameraPose.identity()
    intr = CameraIntrinsics(fx=3.0, fy=3.0, cx=3.0, cy=2.5, width=6, height=5)
    seq = render(scene, Trajectory.from_poses([pose], intr))

    best: dict[tuple[int, int], tuple[float, int]] = {}
    for pid, p in zip(scene.ids, scene.positions):
        x, y, z = p
        if z <= 0.0:
            continue
        u = intr.fx * x / z + intr.cx
        v = intr.fy * y / z + intr.cy
        px, py = math.floor(u), math.floor(v)
        if 0 <= px < intr.width and 0 <= py < intr.height:
            key = (py, px)
            if key not in best or (z, int(pid)) < best[key]:
                best[key] = (z, int(pid))
    expect = np.zeros((intr.height, intr.width), dtype=np.int32)
    for (py, px), (_, pid) in best.items():
        expect[py, px] = pid
    assert np.array_equal(seq.id_map[0], expect)


def test_render_id_color_consistency():
    scene = make_scene(21, point_count=400)
    traj = aimed_trajectory(np.random.default_rng(4), frame_count=2, width=32, height=24)
    seq = render(scene, traj)
    for pid in np.unique(seq.id_map):
        if pid == BACKGROUND_ID:
            continue
        pix = seq.frames[seq.id_map == pid]
        assert (pix == scene.colors[int(pid) - 1]).all()


def test_frame_sequence_validation():
    with pytest.raises(DomainError):
        FrameSequence(
            frames=np.zeros((2, 12, 16, 3), np.uint8),
            id_map=np.zeros((2, 12, 16), np.int32),
            trajectory=IDENTITY_TRAJ,  # only 1 frame
        )
    with pytest.raises(DomainError):
        FrameSequence(
            frames=np.zeros((1, 12, 16, 3), np.uint8),
            id_map=np.zeros((1, 16, 12), np.int32),
            trajectory=IDENTITY_TRAJ,
        )


_DTYPES = [np.dtype(t) for t in ("i1", "i2", "i4", ">i4", "i8", "u1", "u2", "u4", "u8",
                                 "f4", "f8", "bool")]


@st.composite
def _typed_values(draw, shape: tuple[int, ...], target: type) -> np.ndarray:
    """An array of a drawn dtype; integers anywhere in its range or within one of target's."""
    dtype = draw(st.sampled_from(_DTYPES))
    if dtype.kind not in "iu":
        return draw(arrays(dtype, shape))
    info, want = np.iinfo(dtype), np.iinfo(target)
    lo, hi = max(info.min, want.min - 1), min(info.max, want.max + 1)
    if draw(st.booleans()):
        lo, hi = info.min, info.max
    return draw(arrays(dtype, shape, elements=st.integers(lo, hi)))


_TINY_TRAJ = Trajectory.from_poses([CameraPose.identity()] * 2, CameraIntrinsics.from_fov(1.0, 1.0, 3, 2))


@settings(max_examples=150, deadline=None)
@given(frames=_typed_values((2, 2, 3, 3), np.uint8), ids=_typed_values((2, 2, 3), np.int32))
def test_frame_sequence_keeps_every_value_or_raises(frames, ids):
    """Each array's values are kept exactly in the stored dtype; none is wrapped or truncated."""
    def fits(a, dtype):
        info = np.iinfo(dtype)
        return a.dtype.kind in "iu" and info.min <= a.min() and a.max() <= info.max

    if not (fits(frames, np.uint8) and fits(ids, np.int32)):
        with pytest.raises(DomainError, match="integer dtype|outside"):
            FrameSequence(frames=frames, id_map=ids, trajectory=_TINY_TRAJ)
        return
    seq = FrameSequence(frames=frames, id_map=ids, trajectory=_TINY_TRAJ)
    assert (seq.frames.dtype, seq.id_map.dtype) == (np.uint8, np.int32)
    assert np.array_equal(seq.frames, frames) and np.array_equal(seq.id_map, ids)


def test_frame_sequence_rejects_values_its_dtypes_would_wrap():
    zeros = {"frames": np.zeros((1, 12, 16, 3), np.uint8), "id_map": np.zeros((1, 12, 16), np.int32)}
    for name, bad, message in (
        ("frames", np.full((1, 12, 16, 3), 300), "frames holds values in [300, 300], outside uint8"),
        ("id_map", np.full((1, 12, 16), 2**33 + 5), "id map holds values in"),
        ("id_map", np.full((1, 12, 16), 3.9), "id map must have an integer dtype, got float64"),
    ):
        with pytest.raises(DomainError, match=re.escape(message)):
            FrameSequence(**{**zeros, name: bad}, trajectory=IDENTITY_TRAJ)


def test_covisible_fraction_identity_and_disjoint():
    scene = make_scene(0, point_count=300)
    a = Trajectory.from_poses([CameraPose.identity()] * 2, INTR)
    assert covisible_fraction(scene, a, a) == 1.0
    opposed = CameraPose(rotation=np.diag([-1.0, 1.0, -1.0]),
                         translation=np.array([0.0, 0.0, -25.0]))
    b = Trajectory.from_poses([opposed] * 2, INTR)
    assert covisible_fraction(scene, a, b) == 0.0
    with pytest.raises(DomainError):
        covisible_fraction(scene, a, Trajectory.from_poses([CameraPose.identity()], INTR))


def test_covisible_fraction_far_limit():
    # single point at depth 5: visible at far 10, gone below far 5
    scene = manual_scene([[0.0, 0.0, 5.0]])
    a = IDENTITY_TRAJ
    assert covisible_fraction(scene, a, a, far=10.0) == 1.0
    assert covisible_fraction(scene, a, a, far=4.9) == 0.0


def test_covisible_fraction_symmetric():
    rng = np.random.default_rng(17)
    scene = make_scene(17, point_count=250)
    a = aimed_trajectory(rng, frame_count=3)
    b = aimed_trajectory(rng, frame_count=3)
    ab = covisible_fraction(scene, a, b)
    assert ab == covisible_fraction(scene, b, a)
    assert 0.0 <= ab <= 1.0


def test_covisible_fraction_rigid_invariant():
    # moving scene and both trajectories by one rigid transform preserves it
    rng = np.random.default_rng(29)
    scene = make_scene(29, point_count=250)
    a = aimed_trajectory(rng, frame_count=2)
    b = aimed_trajectory(rng, frame_count=2)
    q = random_rotation(rng)
    t = rng.uniform(-4.0, 4.0, size=3)
    moved = SceneModel(
        ids=scene.ids,
        positions=scene.positions @ q.T + t,
        colors=scene.colors,
        velocities=scene.velocities @ q.T,
        seed=scene.seed,
    )
    before = covisible_fraction(scene, a, b)
    after = covisible_fraction(moved, transform_trajectory(a, q, t), transform_trajectory(b, q, t))
    assert before == after
    assert before > 0.0


def test_save_load_frames_round_trip(tmp_path):
    scene = make_scene(9, point_count=150)
    traj = aimed_trajectory(np.random.default_rng(9), frame_count=2, width=20, height=14)
    seq = render(scene, traj)
    save_frames(seq, tmp_path / "seq")
    back = load_frames(tmp_path / "seq")
    assert back.frames is None
    assert np.array_equal(read_rgb(tmp_path / "seq", traj), seq.frames)
    assert np.array_equal(back.id_map, seq.id_map)
    assert back.scene_key == seq.scene_key
    assert len(back.trajectory) == len(seq.trajectory)
    for (pa, ia), (pb, ib) in zip(back.trajectory.frames, seq.trajectory.frames):
        assert np.array_equal(pa.rotation, pb.rotation)
        assert np.array_equal(pa.translation, pb.translation)
        assert ia == ib

    save_frames(seq, tmp_path / "again")
    for name in ("manifest.json", "trajectory.json", "frame_0000.rgb", "frame_0000.ids"):
        assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


def test_load_frames_rejects_corrupt_data(tmp_path):
    scene = manual_scene([[0.0, 0.0, 5.0]])
    seq = render(scene, IDENTITY_TRAJ)
    save_frames(seq, tmp_path / "seq")
    (tmp_path / "seq" / "frame_0000.ids").write_bytes(b"\x00" * 7)
    with pytest.raises(DomainError):
        load_frames(tmp_path / "seq")
    (tmp_path / "seq" / "manifest.json").write_text("{broken", encoding="utf-8")
    with pytest.raises(DomainError):
        load_frames(tmp_path / "seq")


def test_frame_sequence_copies_writable_input():
    frames = np.zeros((1, 12, 16, 3), np.uint8)
    ids = np.zeros((1, 12, 16), np.int32)
    seq = FrameSequence(frames=frames, id_map=ids, trajectory=IDENTITY_TRAJ)
    frames[0, 0, 0] = 7
    ids[0, 0, 0] = 7
    assert not seq.frames.any() and not seq.id_map.any()
    for arr in (seq.frames, seq.id_map):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1


def test_frame_sequence_copies_a_read_only_view():
    frames = np.zeros((2, 12, 16, 3), np.uint8)
    ids = np.zeros((2, 12, 16), np.int32)
    view_f, view_i = frames[1:], ids[1:]
    view_f.setflags(write=False)
    view_i.setflags(write=False)
    seq = FrameSequence(frames=view_f, id_map=view_i, trajectory=IDENTITY_TRAJ)
    frames[1] = 7
    ids[1] = 7
    assert not seq.frames.any() and not seq.id_map.any()


def test_frame_sequence_adopts_read_only_owned_arrays():
    frames = np.zeros((1, 12, 16, 3), np.uint8)
    ids = np.zeros((1, 12, 16), np.int32)
    frames.setflags(write=False)
    ids.setflags(write=False)
    seq = FrameSequence(frames=frames, id_map=ids, trajectory=IDENTITY_TRAJ)
    assert seq.frames is frames and seq.id_map is ids


def test_frame_sequence_without_rgb_counts_id_maps_and_cannot_be_saved(tmp_path):
    ids = np.zeros((1, 12, 16), np.int32)
    seq = FrameSequence(frames=None, id_map=ids, trajectory=IDENTITY_TRAJ)
    assert seq.frames is None and seq.frame_count == 1
    with pytest.raises(DomainError, match=r"id map shape \(1, 12, 15\) != \(1, 12, 16\)"):
        FrameSequence(frames=None, id_map=ids[..., 1:], trajectory=IDENTITY_TRAJ)
    with pytest.raises(DomainError, match="without RGB frames"):
        save_frames(seq, tmp_path / "seq")
    assert not (tmp_path / "seq").exists()


def test_frame_sequence_without_a_scene_key_cannot_be_saved(tmp_path):
    seq = render(manual_scene([[0.0, 0.0, 5.0]]), IDENTITY_TRAJ)
    keyless = FrameSequence(frames=seq.frames, id_map=seq.id_map, trajectory=IDENTITY_TRAJ)
    with pytest.raises(DomainError, match="without a scene key"):
        save_frames(keyless, tmp_path / "seq")
    assert not (tmp_path / "seq").exists()


def test_render_and_load_frames_are_read_only(tmp_path):
    seq = render(make_scene(9, point_count=150), IDENTITY_TRAJ)
    save_frames(seq, tmp_path / "seq")
    back = load_frames(tmp_path / "seq")
    assert back.frames is None
    for arr in (seq.frames, seq.id_map, back.id_map):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1


@pytest.mark.parametrize("damage", [
    lambda m: {k: v for k, v in m.items() if k != "width"},
    lambda m: {**m, "height": "12"},
    lambda m: {**m, "frame_count": True},
    lambda m: {**m, "frame_count": 0},
    lambda m: {**m, "trajectory": None},
    lambda m: {**m, "scene_key": 3},
    lambda m: {**m, "scene_key": None},
    lambda m: [m],
], ids=["no_width", "height_str", "count_bool", "count_0", "traj_null", "key_int", "key_null",
        "list"])
def test_load_frames_rejects_malformed_manifest(tmp_path, damage):
    save_frames(render(manual_scene([[0.0, 0.0, 5.0]]), IDENTITY_TRAJ), tmp_path / "seq")
    path = tmp_path / "seq" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(damage(manifest)), encoding="utf-8")
    with pytest.raises(DomainError, match="manifest.json: "):
        load_frames(tmp_path / "seq")


def test_load_frames_rejects_trajectory_outside_directory(tmp_path):
    save_frames(render(manual_scene([[0.0, 0.0, 5.0]]), IDENTITY_TRAJ), tmp_path / "a" / "seq")
    (tmp_path / "a" / "seq" / "trajectory.json").rename(tmp_path / "outside_traj.json")
    path = tmp_path / "a" / "seq" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for ref in ("../../outside_traj.json", str(tmp_path / "outside_traj.json")):
        manifest["trajectory"] = ref
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DomainError) as e:
            load_frames(tmp_path / "a" / "seq")
        assert str(e.value) == f"{path}: 'trajectory' must be 'trajectory.json', got {ref!r}"


def _edited(traj: Trajectory, part: str) -> Trajectory:
    """traj with one part changed: a pose, an intrinsic, its length or its image size."""
    rotations, centers, intrinsics = (a.copy() for a in (*traj.pose_stack, traj.intrinsics_stack))
    size = traj.image_size
    if part == "rotation":
        rotations[[0, 1]] = rotations[[1, 0]]
    elif part == "center":
        centers[0, 1] += 1e-9
    elif part == "intrinsic":
        intrinsics[0, 2] += 0.5
    elif part == "image_size":
        size = (size[0] + 1, size[1])
    stacks = [rotations, centers, intrinsics]
    if part == "shorter":
        stacks = [a[:-1] for a in stacks]
    elif part == "longer":
        stacks = [np.concatenate([a, a[-1:]]) for a in stacks]
    return Trajectory.from_stacks(*stacks, size, traj.label)


@pytest.mark.parametrize("part", ["rotation", "center", "intrinsic", "shorter", "longer",
                                  "image_size"])
def test_load_frames_checks_expect_before_reading_a_frame(tmp_path, part):
    traj = aimed_trajectory(np.random.default_rng(3), frame_count=3, width=20, height=14)
    save_frames(render(make_scene(3, point_count=50), traj), tmp_path / "seq")
    kept = load_frames(tmp_path / "seq", skip=2, expect=traj)
    assert kept.frame_count == 1 and np.array_equal(kept.trajectory.pose_stack[1],
                                                    traj.pose_stack[1][2:])
    for f in (tmp_path / "seq").glob("frame_*"):
        f.unlink()
    # with no frame file left, only the trajectory check can name the fault; the
    # edited part lies in the skipped frames, or in none, yet it is still seen
    with pytest.raises(DomainError, match="; the two must be identical$"):
        load_frames(tmp_path / "seq", skip=2, expect=_edited(traj, part))

def test_save_frames_writes_its_manifest_last(tmp_path, monkeypatch):
    # frames of distinct poses, so the last .ids file is created, not linked to a twin
    traj = aimed_trajectory(np.random.default_rng(3), frame_count=3, width=20, height=14)
    seq = render(make_scene(3, point_count=50), traj)
    open_ = os.open

    def failing_open(path, flags, *args, **kwargs):
        if Path(path).name == f"frame_{seq.frame_count - 1:04d}.ids" and flags & os.O_CREAT:
            raise OSError(errno.ENOSPC, "no space left on device")
        return open_(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", failing_open)
    with pytest.raises(OSError):
        save_frames(seq, tmp_path / "seq")
    assert not (tmp_path / "seq" / "manifest.json").exists()
    monkeypatch.setattr(os, "open", open_)
    save_frames(seq, tmp_path / "seq")
    assert sorted(p.name for p in (tmp_path / "seq").iterdir()) == sorted(
        ["manifest.json", "trajectory.json"]
        + [f"frame_{i:04d}.{ext}" for i in range(seq.frame_count) for ext in ("rgb", "ids")]
    )


def test_save_frames_shares_one_written_record_across_more_writers_than_cores(tmp_path):
    # 24 videos, each a different slice of one 12-frame path, so most frames have a twin
    # in another video under another frame number
    traj = aimed_trajectory(np.random.default_rng(5), frame_count=12, width=20, height=14)
    scene = make_scene(5, point_count=60)
    videos = {tmp_path / f"v{n:02d}": render(scene, traj.slice_frames(n % 5, 7 + n % 6))
              for n in range(24)}
    written: dict = {}
    errors = []

    def writer(items):
        try:
            for directory, seq in items:
                save_frames(seq, directory, written=written)
        except Exception as e:  # collected, so the test fails with it
            errors.append(e)

    items = list(videos.items())
    threads = [threading.Thread(target=writer, args=(items[t::8],)) for t in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    names = sorted(tmp_path.rglob("frame_*"))
    inodes: dict[int, set[bytes]] = {}
    for p in names:
        inodes.setdefault(p.stat().st_ino, set()).add(p.read_bytes())
    assert all(len(contents) == 1 for contents in inodes.values())
    assert len(inodes) < len(names)
    for directory, seq in videos.items():
        back = load_frames(directory)
        assert back.frames is None
        assert np.array_equal(read_rgb(directory, seq.trajectory), seq.frames)
        assert np.array_equal(back.id_map, seq.id_map)


_ARRAY_HOLDERS = {
    "CameraPose": CameraPose.identity,
    "SceneModel": lambda: make_scene(0, point_count=5),
    "FrameSequence": lambda: render(make_scene(0, point_count=5), IDENTITY_TRAJ),
    "Frustum": lambda: build_frustum(CameraPose.identity()),
    "MatchMap": lambda: MatchMap(np.zeros((2, 2))),
    "PluckerRayMap": lambda: plucker_raymap(IDENTITY_TRAJ),
}


@pytest.mark.parametrize("make", _ARRAY_HOLDERS.values(), ids=_ARRAY_HOLDERS)
def test_array_holding_dataclasses_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b  # equal but distinct arrays: compared by identity, no ValueError
    assert hash(a) != hash(b)
    assert a in weakref.WeakSet([a])
