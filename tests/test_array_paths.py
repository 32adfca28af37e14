"""The array-backed trajectory paths equal the per-pose reference code bit for bit.

The reference functions below are the per-frame implementations covis used
before trajectories were stored as pose stacks: one validated CameraPose and
CameraIntrinsics per frame, one `_fmt` call per number, one SVD per merged
frame. Every property compares the stacked path with them exactly, with
np.array_equal and byte equality, never with a tolerance.
"""

from __future__ import annotations

import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covis.scene
from covis import (
    CameraIntrinsics,
    CameraPose,
    DomainError,
    SceneModel,
    ShotKind,
    Trajectory,
    generate_shot,
    load_trajectory,
    make_scene,
    merge_trajectories,
    pose_error_report,
    render,
    save_trajectory,
)
from covis.cli import main
from covis.config import EngineConfig
from covis.scene import BACKGROUND_ID, BACKGROUND_RGB, load_frames

from helpers import aimed_trajectory, random_intrinsics, random_pose, random_rotation

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# --- reference: the per-pose implementations -------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def ref_save_text(traj: Trajectory) -> str:
    lines = [
        "{",
        '  "convention": "camera_to_world",',
        f'  "label": {json.dumps(traj.label)},',
        '  "frames": [',
    ]
    last = len(traj.frames) - 1
    for idx, (pose, intr) in enumerate(traj.frames):
        rot = ", ".join(_fmt(x) for x in pose.rotation.reshape(-1))
        tr = ", ".join(_fmt(x) for x in pose.translation)
        k = (
            f'"fx": {_fmt(intr.fx)}, "fy": {_fmt(intr.fy)}, '
            f'"cx": {_fmt(intr.cx)}, "cy": {_fmt(intr.cy)}, '
            f'"width": {intr.width}, "height": {intr.height}'
        )
        tail = "," if idx < last else ""
        lines.append(
            f'    {{"rotation": [{rot}], "translation": [{tr}], "intrinsics": {{{k}}}}}{tail}'
        )
    lines += ["  ]", "}"]
    return "\n".join(lines) + "\n"


def ref_load(path) -> list[tuple[CameraPose, CameraIntrinsics]]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    frames = []
    for rec in doc["frames"]:
        ki = rec["intrinsics"]
        frames.append((
            CameraPose(rotation=np.array(rec["rotation"], dtype=np.float64).reshape(3, 3),
                       translation=np.array(rec["translation"], dtype=np.float64)),
            CameraIntrinsics(fx=float(ki["fx"]), fy=float(ki["fy"]),
                             cx=float(ki["cx"]), cy=float(ki["cy"]),
                             width=int(ki["width"]), height=int(ki["height"])),
        ))
    return frames


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _axis_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _look_rotation(center: np.ndarray, target: np.ndarray, up: np.ndarray) -> np.ndarray:
    fwd = target - center
    n = np.linalg.norm(fwd)
    if n < 1e-12:
        raise DomainError("camera center coincides with look-at target")
    fwd = fwd / n
    right = np.cross(fwd, up)
    n = np.linalg.norm(right)
    if n < 1e-12:
        raise DomainError("look direction is parallel to the up axis")
    right = right / n
    down = np.cross(fwd, right)
    return np.stack([right, down, fwd], axis=1)


def _shot_pose(kind: ShotKind, base: CameraPose, lookat: np.ndarray, amount: float) -> CameraPose:
    r0, c0 = base.rotation, base.translation
    up = -base.rotation[:, 1]
    if kind == ShotKind.ROTATION_LEFT:
        return CameraPose(rotation=r0 @ _rot_y(-amount), translation=c0)
    if kind == ShotKind.ROTATION_RIGHT:
        return CameraPose(rotation=r0 @ _rot_y(amount), translation=c0)
    if kind == ShotKind.TILT_UP:
        return CameraPose(rotation=r0 @ _rot_x(amount), translation=c0)
    if kind == ShotKind.TILT_DOWN:
        return CameraPose(rotation=r0 @ _rot_x(-amount), translation=c0)
    if kind in (ShotKind.ARC_RIGHT_WITH_ROT, ShotKind.ARC_LEFT_WITH_ROT,
                ShotKind.AZIMUTH_RIGHT, ShotKind.AZIMUTH_LEFT):
        sign = 1.0 if kind in (ShotKind.ARC_RIGHT_WITH_ROT, ShotKind.AZIMUTH_RIGHT) else -1.0
        center = lookat + _axis_rotation(up, sign * amount) @ (c0 - lookat)
        if kind in (ShotKind.ARC_RIGHT_WITH_ROT, ShotKind.ARC_LEFT_WITH_ROT):
            return CameraPose(rotation=_look_rotation(center, lookat, up), translation=center)
        return CameraPose(rotation=r0, translation=center)
    if kind == ShotKind.ELEVATION_UP:
        center = lookat + _axis_rotation(base.rotation[:, 0], -amount) @ (c0 - lookat)
        return CameraPose(rotation=r0, translation=center)
    if kind in (ShotKind.TRANSLATE_DOWN_WITH_ROT, ShotKind.TRANSLATE_UP_WITH_ROT):
        sign = 1.0 if kind == ShotKind.TRANSLATE_DOWN_WITH_ROT else -1.0
        center = c0 + sign * amount * base.rotation[:, 1]
        return CameraPose(rotation=_look_rotation(center, lookat, up), translation=center)
    assert kind == ShotKind.ZOOM_OUT
    return CameraPose(rotation=r0, translation=c0 - amount * base.rotation[:, 2])


def ref_generate_shot(
    kind: ShotKind, magnitude: float, frame_count: int, base: Trajectory, lookat_depth: float = 5.0
) -> list[CameraPose]:
    base_pose = base.frames[0][0]
    lookat = base_pose.translation + lookat_depth * base_pose.rotation[:, 2]
    poses = [base_pose]
    for i in range(1, frame_count):
        amount = magnitude * i / (frame_count - 1)
        poses.append(_shot_pose(kind, base_pose, lookat, amount))
    return poses


def _mean_rotation(rotations, fallback: np.ndarray) -> np.ndarray:
    m = np.mean(np.stack(rotations), axis=0)
    u, s, vt = np.linalg.svd(m)
    if s[-1] < 1e-8:
        warnings.warn("degenerate rotation mean (antipodal inputs); keeping first rotation")
        return np.array(fallback)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def ref_merge(trajs: list[Trajectory]) -> list[tuple[CameraPose, CameraIntrinsics]]:
    w, h = trajs[0].image_size
    frames = []
    for f in range(len(trajs[0])):
        poses = [t.frames[f][0] for t in trajs]
        intrs = [t.frames[f][1] for t in trajs]
        center = np.mean(np.stack([p.translation for p in poses]), axis=0)
        rot = _mean_rotation([p.rotation for p in poses], poses[0].rotation)
        intr = CameraIntrinsics(
            fx=min(i.fx for i in intrs), fy=min(i.fy for i in intrs),
            cx=float(np.mean([i.cx for i in intrs])), cy=float(np.mean([i.cy for i in intrs])),
            width=w, height=h,
        )
        frames.append((CameraPose(rotation=rot, translation=center), intr))
    return frames


def ref_render(scene, traj: Trajectory, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    w, h = traj.image_size
    n_frames = len(traj)
    frames = np.full((n_frames, h, w, 3), BACKGROUND_RGB[0], dtype=np.uint8)
    id_map = np.full((n_frames, h, w), BACKGROUND_ID, dtype=np.int32)
    for f, (pose, intr) in enumerate(traj.frames):
        local = (scene.positions_at(start + f) - pose.translation) @ pose.rotation
        z = local[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = intr.fx * local[:, 0] / z + intr.cx
            v = intr.fy * local[:, 1] / z + intr.cy
        valid = z > 0.0
        ui = np.floor(u[valid]).astype(np.int64)
        vi = np.floor(v[valid]).astype(np.int64)
        inside = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
        if not inside.any():
            continue
        cand = np.flatnonzero(valid)[inside]
        pix = vi[inside] * w + ui[inside]
        order = np.lexsort((scene.ids[cand], z[cand], pix))
        pix_sorted = pix[order]
        first = np.unique(pix_sorted, return_index=True)[1]
        winners = cand[order[first]]
        id_map[f].reshape(-1)[pix_sorted[first]] = scene.ids[winners]
        frames[f].reshape(-1, 3)[pix_sorted[first]] = scene.colors[winners]
    return frames, id_map


def ref_pose_errors(gt: Trajectory, pred: Trajectory, align: bool):
    g, p = gt.pose_stack[1], pred.pose_stack[1]
    denom = float((p * p).sum())
    scale = (float((p * g).sum()) / denom if denom else 1.0) if align else 1.0
    diffs = ((g - scale * p) ** 2).sum(axis=1)
    angles = []
    for (pg, _), (pp, _) in zip(gt.frames, pred.frames):
        m = pg.rotation @ pp.rotation.T
        x, y, z = (m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1])
        cos = (float(np.trace(m)) - 1.0) / 2.0
        angles.append(math.atan2(math.sqrt(x * x + y * y + z * z) / 2.0, cos))
    return float(diffs.sum()), float(sum(angles)), scale, [(float(d), a) for d, a in zip(diffs, angles)]


# --- helpers ----------------------------------------------------------------------------


def assert_frames_equal(traj: Trajectory, frames, bits: bool = True) -> None:
    """traj's stacks hold exactly the per-pose frames: bit for bit, or only equal with bits=False."""
    same = (lambda a, b: a.tobytes() == b.tobytes()) if bits else np.array_equal
    rotations, centers = traj.pose_stack
    assert len(traj) == len(frames)
    assert same(rotations, np.stack([p.rotation for p, _ in frames]))
    assert same(centers, np.stack([p.translation for p, _ in frames]))
    assert same(traj.intrinsics_stack, np.array([[i.fx, i.fy, i.cx, i.cy] for _, i in frames]))
    assert traj.image_size == (frames[0][1].width, frames[0][1].height)
    assert [i for _, i in traj.frames] == [i for _, i in frames]


def awkward_trajectory(rng: np.random.Generator, frame_count: int, label: str) -> Trajectory:
    """Random poses whose numbers need all 17 digits, some of them negative zeros or tiny."""
    intr = random_intrinsics(rng)
    poses = []
    for _ in range(frame_count):
        center = rng.normal(size=3) * 10.0 ** rng.integers(-20, 20, size=3)
        center[rng.random(3) < 0.2] = -0.0
        poses.append(CameraPose(random_rotation(rng), center))
    return Trajectory.from_poses(poses, intr, label=label)


# --- properties -------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=30))
def test_save_load_round_trip_matches_per_pose_bytes(tmp_path_factory, seed, frame_count):
    rng = np.random.default_rng(seed)
    traj = awkward_trajectory(rng, frame_count, label=f"t{seed % 7}\"é")
    path = tmp_path_factory.mktemp("traj") / "t.json"
    save_trajectory(traj, path)
    text = path.read_text(encoding="utf-8")
    assert text == ref_save_text(traj)
    back = load_trajectory(path)
    assert back.label == traj.label
    # the per-pose loader read "-0" as 0.0, so it agrees only in value
    assert_frames_equal(back, ref_load(path), bits=False)
    assert_frames_equal(back, traj.frames)
    save_trajectory(back, path)
    assert path.read_text(encoding="utf-8") == text


@settings(max_examples=30, deadline=None)
@given(seeds, st.sampled_from(list(ShotKind)), st.integers(min_value=2, max_value=40))
def test_generate_shot_matches_per_pose_reference(seed, kind, frame_count):
    rng = np.random.default_rng(seed)
    base = Trajectory.from_poses([random_pose(rng)], random_intrinsics(rng), label="base")
    args = (kind, float(rng.uniform(0.01, 3.0)), frame_count, base, float(rng.uniform(0.1, 10.0)))
    intr = base.frames[0][1]
    want = [(p, intr) for p in ref_generate_shot(*args)]
    got = generate_shot(*args)
    assert got.label == kind.slug
    assert_frames_equal(got, want)


def test_every_shot_matches_reference_on_a_long_suite():
    rng = np.random.default_rng(3)
    base = Trajectory.from_poses([random_pose(rng)], random_intrinsics(rng))
    for kind in ShotKind:
        args = (kind, 0.7, 465, base)
        intr = base.frames[0][1]
        assert_frames_equal(generate_shot(*args), [(p, intr) for p in ref_generate_shot(*args)])


def _merge_inputs(rng: np.random.Generator, n: int, frame_count: int, antipodal: bool):
    w, h = int(rng.integers(8, 65)), int(rng.integers(8, 65))
    trajs = []
    for t in range(n):
        intr = CameraIntrinsics(fx=float(rng.uniform(0.4, 2.0)) * w, fy=float(rng.uniform(0.4, 2.0)) * h,
                                cx=float(rng.uniform(0.3, 0.7)) * w, cy=float(rng.uniform(0.3, 0.7)) * h,
                                width=w, height=h)
        trajs.append(Trajectory.from_poses(
            [random_pose(rng) for _ in range(frame_count)], intr, label=str(t)))
    if antipodal:
        # an exactly opposed pair on every frame: its chordal mean is singular
        flip = np.diag([-1.0, 1.0, -1.0])
        first = trajs[0]
        trajs[1] = Trajectory.from_poses(
            [CameraPose(p.rotation @ flip, p.translation) for p, _ in first.frames],
            first.frames[0][1], label="flip",
        )
        trajs = trajs[:2]
    return trajs


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.booleans())
def test_merge_matches_per_frame_reference(seed, n, frame_count, antipodal):
    rng = np.random.default_rng(seed)
    trajs = _merge_inputs(rng, max(n, 2) if antipodal else n, frame_count, antipodal)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = merge_trajectories(trajs)
    if len(trajs) == 1:
        assert got is trajs[0]
        return
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = ref_merge(trajs)
    assert_frames_equal(got, want)
    assert bool(got_warnings) == bool(want_warnings) == antipodal
    assert got.label == "merge(" + "+".join(t.label for t in trajs) + ")"


@pytest.mark.parametrize("n", [8, 9, 12])
def test_merge_of_eight_or_more_keeps_the_per_frame_add_order(n):
    # a contiguous mean of 8 or more values sums pairwise; the principal point must too
    rng = np.random.default_rng(n)
    trajs = _merge_inputs(rng, n, 5, antipodal=False)
    assert_frames_equal(merge_trajectories(trajs), ref_merge(trajs))


def _assert_renders_match(scene: SceneModel, traj: Trajectory, start: int) -> None:
    seq = render(scene, traj, start)
    frames, ids = ref_render(scene, traj, start)
    assert seq.frames.tobytes() == frames.tobytes()
    assert seq.id_map.tobytes() == ids.tobytes()


@settings(max_examples=15, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=9))
def test_render_matches_per_pose_reference(seed, frame_count, start):
    rng = np.random.default_rng(seed)
    scene = make_scene(seed % 1000, point_count=300, moving_fraction=0.3)
    traj = aimed_trajectory(rng, frame_count, width=int(rng.integers(4, 40)),
                            height=int(rng.integers(4, 30)))
    _assert_renders_match(scene, traj, start)


@st.composite
def collision_renders(draw) -> tuple[SceneModel, Trajectory, int, int]:
    """A scene, trajectory, start frame and block budget that crowd render's collision path.

    Points lie on a half-unit lattice, many of them duplicated, and the
    camera is often the identity with fx = fy = 1 and the principal point at
    the image center: then points land exactly on the image borders and on
    the camera plane, and duplicates tie in depth exactly. Ids are unsorted.
    The frame count lies on either side of a multiple of the block's frames.
    """
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.sampled_from([1, 2]) | st.integers(min_value=3, max_value=60))
    w, h = draw(st.just((4, 3)) | st.tuples(st.integers(1, 8), st.integers(1, 6)))
    budget = draw(st.integers(min_value=1, max_value=3 * n))  # below n: one frame per block
    step = max(1, budget // n)
    frame_count = max(1, step * draw(st.integers(1, 3)) + draw(st.integers(-1, 1)))
    positions = 0.5 * np.stack([rng.integers(-w, w + 1, n), rng.integers(-h, h + 1, n),
                                rng.integers(-1, 5, n)], axis=1)
    dup = rng.random(n) < 0.4
    positions[dup] = positions[rng.integers(0, n, n)[dup]]
    velocities = 0.5 * rng.integers(-1, 2, (n, 3)) * (rng.random((n, 1)) < 0.5)
    scene = SceneModel(
        ids=rng.choice(np.arange(1, 10 * n + 1), n, replace=False).astype(np.int32),
        positions=positions, colors=rng.integers(0, 256, (n, 3)), velocities=velocities,
        seed=0,
    )
    fx = draw(st.sampled_from([1.0, w / 2.0]))
    intr = CameraIntrinsics(fx=fx, fy=fx, cx=w / 2.0, cy=h / 2.0, width=w, height=h)
    poses = [
        CameraPose.identity() if rng.random() < 0.5 else CameraPose(
            rotation=random_rotation(rng) if rng.random() < 0.2 else np.eye(3),
            translation=0.5 * rng.integers(-2, 3, 3).astype(np.float64))
        for _ in range(frame_count)
    ]
    return scene, Trajectory.from_poses(poses, intr), draw(st.integers(0, 5)), budget


@settings(max_examples=150, deadline=None)
@given(collision_renders())
def test_render_matches_per_pose_reference_where_points_collide(case):
    scene, traj, start, budget = case
    with mock.patch.object(covis.scene, "_BLOCK_POINTS", budget):
        _assert_renders_match(scene, traj, start)


@pytest.mark.parametrize("points,blocks,extra", [
    (1000, 1, -1), (1000, 1, 0), (1000, 1, 1), (1000, 2, 1),
    (covis.scene._BLOCK_POINTS + 1, 3, 0),  # more points than the budget: one frame per block
])
def test_render_matches_per_pose_reference_at_the_block_budget(points, blocks, extra):
    step = max(1, covis.scene._BLOCK_POINTS // points)
    rng = np.random.default_rng(points + blocks + extra)
    scene = make_scene(points, point_count=points, moving_fraction=0.3)
    _assert_renders_match(scene, aimed_trajectory(rng, step * blocks + extra, width=48, height=27), 7)


def test_every_simulated_video_equals_the_reference_render(tmp_path):
    # the default config over 165 frames, as in acceptance criterion 8, with three shots
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--frames", "165", "--shots", "1,2,3"]) == 0
    events = json.loads((run / "run_log.json").read_text(encoding="utf-8"))["events"]
    starts = {c["index"]: c["start"] for c in events[0]["chunks"]}
    cfg = EngineConfig().scene
    scene = make_scene(cfg.seed, cfg.point_count, cfg.extent, cfg.moving_fraction,
                       velocity_scale=cfg.velocity_scale)
    banked = [e for e in events if e["event"] == "banked"]
    assert len(banked) == 2 * (1 + 3)
    for event in banked:
        seq = load_frames(run / event["ref"])
        assert seq.scene_key == scene.scene_key
        frames, ids = ref_render(scene, seq.trajectory, starts[event["chunk"]])
        assert seq.frames.tobytes() == frames.tobytes()
        assert seq.id_map.tobytes() == ids.tobytes()


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(min_value=1, max_value=30), st.booleans())
def test_pose_error_report_matches_per_pose_reference(seed, frame_count, align):
    rng = np.random.default_rng(seed)
    intr = random_intrinsics(rng)
    gt = Trajectory.from_poses([random_pose(rng) for _ in range(frame_count)], intr)
    pred = Trajectory.from_poses([random_pose(rng) for _ in range(frame_count)], intr)
    rep = pose_error_report(gt, pred, align=align)
    assert (rep.trans_err, rep.rot_err, rep.scale, list(rep.per_frame)) == ref_pose_errors(
        gt, pred, align)
    self_rep = pose_error_report(gt, gt, align=align)
    assert (self_rep.rot_err, list(self_rep.per_frame)) == ref_pose_errors(gt, gt, align)[1::2]
