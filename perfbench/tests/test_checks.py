"""Tests of the benchmark's own reference computations in perfbench/checks.py.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402

SAMPLER = {"grid_w": 8, "grid_h": 6, "depth_slices": 8, "jitter_seed": None}
FRUSTUM = {"fov_h": math.pi / 2, "fov_v": math.pi / 3, "near": 0.0, "far": 10.0}


def _rot(yaw: float, pitch: float = 0.0, roll: float = 0.0) -> np.ndarray:
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    rz = np.array([[cr, -sr, 0], [sr, cr, 0], [0, 0, 1]])
    return ry @ rx @ rz


def _random_frames(rng, n):
    rot = np.stack([_rot(*rng.uniform(-1.0, 1.0, 3)) for _ in range(n)])
    return rot, rng.uniform(-3.0, 3.0, (n, 3))


def _scalar_score(ra, ca, rb, cb) -> float:
    """One frame, point by point, with nothing shared with checks.py but the definition."""
    th, tv = math.tan(FRUSTUM["fov_h"] / 2), math.tan(FRUSTUM["fov_v"] / 2)
    gw, gh, s = SAMPLER["grid_w"], SAMPLER["grid_h"], SAMPLER["depth_slices"]

    def points(r, c):
        for k in range(s):
            z = (k + 0.5) / s * FRUSTUM["far"]
            for j in range(gh):
                for i in range(gw):
                    x = (2 * (i + 0.5) / gw - 1) * z * th
                    y = (2 * (j + 0.5) / gh - 1) * z * tv
                    yield [c[d] + r[d][0] * x + r[d][1] * y + r[d][2] * z for d in range(3)]

    def inside(p, r, c):
        q = [p[d] - c[d] for d in range(3)]
        x, y, z = (sum(q[d] * r[d][e] for d in range(3)) for e in range(3))
        return 0.0 <= z <= FRUSTUM["far"] and abs(x) <= z * th and abs(y) <= z * tv

    ra, ca, rb, cb = ra.tolist(), ca.tolist(), rb.tolist(), cb.tolist()
    n_in_b = sum(inside(p, rb, cb) for p in points(ra, ca))
    n_in_a = sum(inside(p, ra, ca) for p in points(rb, cb))
    return (n_in_b + n_in_a) / (2.0 * gw * gh * s)


def test_lattice_points_lie_inside_their_frustum():
    pts = checks.lattice(SAMPLER, FRUSTUM)
    assert pts.shape == (384, 3)
    eye = np.eye(3)[None]
    counts = checks._inside_counts(pts[None], eye, np.zeros((1, 3)), FRUSTUM)
    assert counts.tolist() == [384]


def test_identical_frames_score_one_and_opposite_frames_zero():
    rot, cen = _random_frames(np.random.default_rng(0), 5)
    assert checks.frame_scores(rot, cen, rot, cen, SAMPLER, FRUSTUM).tolist() == [1.0] * 5
    back = rot @ _rot(math.pi)
    assert checks.frame_scores(rot, cen, back, cen, SAMPLER, FRUSTUM).tolist() == [0.0] * 5
    far = cen + 100.0
    assert checks.frame_scores(rot, cen, rot, far, SAMPLER, FRUSTUM).tolist() == [0.0] * 5


def test_scores_are_symmetric_and_match_a_pointwise_count():
    rng = np.random.default_rng(1)
    ra, ca = _random_frames(rng, 12)
    rb, cb = _random_frames(rng, 12)
    ab = checks.frame_scores(ra, ca, rb, cb, SAMPLER, FRUSTUM)
    ba = checks.frame_scores(rb, cb, ra, ca, SAMPLER, FRUSTUM)
    assert ab.tolist() == ba.tolist()
    assert ab.tolist() == [_scalar_score(ra[f], ca[f], rb[f], cb[f]) for f in range(12)]
    assert 0.0 < ab.max() and ab.min() < 1.0


def test_zoom_out_on_the_far_plane_counts_the_boundary_in():
    # b sits 0.625 behind a: a's last depth slice (9.375) lands exactly on b's far plane.
    eye = np.eye(3)[None]
    score = checks.frame_scores(eye, np.zeros((1, 3)), eye, np.array([[0.0, 0.0, -0.625]]),
                                SAMPLER, FRUSTUM)
    assert score.tolist() == [_scalar_score(eye[0], np.zeros(3), eye[0],
                                            np.array([0.0, 0.0, -0.625]))]


def test_trajectory_score_matches_covis():
    covis = pytest.importorskip("covis")
    from covis.camera import CameraIntrinsics, CameraPose, Trajectory

    rng = np.random.default_rng(2)
    intr = CameraIntrinsics.from_fov(math.pi / 2, math.pi / 3, 16, 9)
    trajs = []
    for _ in range(2):
        rot, cen = _random_frames(rng, 20)
        trajs.append(Trajectory.from_poses(
            [CameraPose(rotation=r, translation=c) for r, c in zip(rot, cen)], intr))
        trajs[-1] = (trajs[-1], rot, cen)
    (ta, ra, ca), (tb, rb, cb) = trajs
    assert checks.trajectory_score((ra, ca), (rb, cb), SAMPLER, FRUSTUM) == \
        covis.trajectory_similarity(ta, tb)


def test_regenerated_scene_has_covis_scene_key():
    covis = pytest.importorskip("covis")
    cfg = {"seed": 7, "point_count": 300, "extent": 10.0, "moving_fraction": 0.0}
    assert checks.regenerate_scene(cfg)["key"] == covis.make_scene(7, 300, 10.0).scene_key


def _rendered(scene, rot, cen, intr):
    """A frame rendered point by point: nearest depth wins, ties to the smaller id."""
    w, h = intr["width"], intr["height"]
    ids = np.zeros((h, w), dtype=np.int32)
    rgb = np.full((h, w, 3), 128, dtype=np.uint8)
    best = {}
    for i, p in enumerate(scene["positions"]):
        x, y, z = (p - cen) @ rot
        if z <= 0:
            continue
        u, v = intr["fx"] * x / z + intr["cx"], intr["fy"] * y / z + intr["cy"]
        if 0 <= u < w and 0 <= v < h:
            key = (int(v), int(u))
            if key not in best or (z, i) < best[key]:
                best[key] = (z, i)
    for (v, u), (_, i) in best.items():
        ids[v, u] = i + 1
        rgb[v, u] = scene["colors"][i]
    return ids, rgb


@pytest.fixture
def frame():
    scene = checks.regenerate_scene(
        {"seed": 3, "point_count": 400, "extent": 10.0, "moving_fraction": 0.0})
    intr = {"fx": 12.0, "fy": 12.0, "cx": 12.0, "cy": 8.0, "width": 24, "height": 16}
    rot, cen = _rot(0.2, -0.1), np.array([0.3, -0.2, -1.0])
    ids, rgb = _rendered(scene, rot, cen, intr)
    return ids, rgb, rot, cen, intr, scene


def test_check_frame_accepts_a_correct_render(frame):
    ids, rgb, rot, cen, intr, scene = frame
    assert (ids != 0).sum() > 50
    assert checks.check_frame(ids, rgb, rot, cen, intr, scene) == ids.size


@pytest.mark.parametrize("fault", ["wrong_id", "wrong_colour", "dropped_point", "farther_point"])
def test_check_frame_rejects_a_faulty_render(frame, fault):
    ids, rgb, rot, cen, intr, scene = frame
    ids, rgb = ids.copy(), rgb.copy()
    v, u = map(int, np.argwhere(ids != 0)[0])
    if fault == "wrong_id":
        ids[v, u] = ids[ids != 0].max() if ids[v, u] != ids[ids != 0].max() else 1
    elif fault == "wrong_colour":
        rgb[v, u] = 255 - rgb[v, u]
    elif fault == "dropped_point":
        ids[v, u] = 0
        rgb[v, u] = 128
    else:
        # Put a point that projects into this pixel but lies behind the winner there.
        winner = ids[v, u] - 1
        local = (scene["positions"][winner] - cen) @ rot
        moved = cen + rot @ (local * 2.0)
        scene = dict(scene, positions=np.vstack([scene["positions"], moved]),
                     colors=np.vstack([scene["colors"], [[1, 2, 3]]]))
        ids[v, u] = len(scene["positions"])
        rgb[v, u] = [1, 2, 3]
    with pytest.raises(checks.CheckFailed):
        checks.check_frame(ids, rgb, rot, cen, intr, scene)
