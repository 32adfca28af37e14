"""Pose error metrics, the oracle pixel matcher, and synchronization reports."""

from __future__ import annotations

import functools
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
    FrameSequence,
    MatchMap,
    ShotKind,
    Trajectory,
    align_scale,
    make_scene,
    matched_pixels,
    oracle_match,
    pose_error_report,
    render,
    rot_err,
    sync_report,
    trans_err,
)
from covis.metrics import SyncReport, SyncRow
from covis.scene import BACKGROUND_ID
from helpers import random_pose, random_rotation, random_trajectory

INTR = CameraIntrinsics(fx=4.0, fy=4.0, cx=4.0, cy=3.0, width=8, height=6)


def seq_from_ids(ids: np.ndarray, key: str | None = "scene-test") -> FrameSequence:
    ids = np.asarray(ids, dtype=np.int32)
    f, h, w = ids.shape
    intr = CameraIntrinsics(fx=1.0, fy=1.0, cx=w / 2, cy=h / 2, width=w, height=h)
    traj = Trajectory.from_poses([CameraPose.identity()] * f, intr)
    return FrameSequence(
        frames=np.zeros((f, h, w, 3), np.uint8), id_map=ids, trajectory=traj, scene_key=key
    )


def centers_trajectory(centers, rotations=None) -> Trajectory:
    centers = np.asarray(centers, dtype=np.float64)
    poses = [
        CameraPose(rotation=np.eye(3) if rotations is None else rotations[i],
                   translation=centers[i])
        for i in range(len(centers))
    ]
    return Trajectory.from_poses(poses, INTR)


def test_align_scale_examples():
    g = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 4.0]])
    assert align_scale(g, g) == 1.0
    assert align_scale(g, 2.0 * g) == 0.5
    assert align_scale(g, np.zeros_like(g)) == 1.0


def test_align_scale_validation():
    g = np.zeros((2, 3))
    with pytest.raises(DomainError):
        align_scale(g, np.zeros((3, 3)))
    with pytest.raises(DomainError):
        align_scale(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(DomainError):
        align_scale(np.zeros((2, 2)), np.zeros((2, 2)))


def test_align_scale_matches_grid_search():
    rng = np.random.default_rng(13)
    pred = rng.uniform(-1.0, 1.0, size=(6, 3))
    gt = 1.7 * pred + rng.normal(0.0, 0.05, size=(6, 3))
    s = align_scale(gt, pred)
    grid = np.linspace(0.0, 3.0, 15001)  # step 2e-4
    costs = ((gt[None] - grid[:, None, None] * pred[None]) ** 2).sum(axis=(1, 2))
    s_grid = float(grid[np.argmin(costs)])
    assert abs(s - s_grid) <= 2e-4
    assert ((gt - s * pred) ** 2).sum() <= costs.min() + 1e-12


def test_trans_err_examples():
    t = random_trajectory(np.random.default_rng(1), 3)
    assert trans_err(t, t) == 0.0
    base = centers_trajectory([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    off = centers_trajectory([[1.0, 0.0, 0.0], [2.0, 1.0, 1.0]])
    assert trans_err(base, off) == 2.0
    scaled = centers_trajectory([[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])
    assert trans_err(base, scaled, align=True) < 1e-18
    assert trans_err(base, scaled) > 1.0
    with pytest.raises(DomainError):
        trans_err(base, random_trajectory(np.random.default_rng(2), 3))


def test_rot_err_examples():
    # self-comparison of generic rotations hits acos roundoff near cos = 1
    t = random_trajectory(np.random.default_rng(3), 4)
    assert rot_err(t, t) < 1e-6
    ident = centers_trajectory(np.zeros((2, 3)))
    assert rot_err(ident, ident) == 0.0
    yaw = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    gt = centers_trajectory(np.zeros((3, 3)))
    pred = centers_trajectory(np.zeros((3, 3)), rotations=[yaw] * 3)
    assert abs(rot_err(gt, pred) - 3.0 * math.pi / 2.0) < 1e-9


def test_rot_err_handles_pi_rotation():
    flip = np.diag([-1.0, -1.0, 1.0])  # trace -1: cosine exactly at the clamp
    gt = centers_trajectory(np.zeros((1, 3)))
    pred = centers_trajectory(np.zeros((1, 3)), rotations=[flip])
    assert rot_err(gt, pred) == pytest.approx(math.pi, abs=1e-12)


def test_rot_err_symmetric_and_matches_scipy():
    rng = np.random.default_rng(5)
    rots_a = [random_rotation(rng) for _ in range(5)]
    rots_b = [random_rotation(rng) for _ in range(5)]
    a = centers_trajectory(np.zeros((5, 3)), rotations=rots_a)
    b = centers_trajectory(np.zeros((5, 3)), rotations=rots_b)
    assert rot_err(a, b) == rot_err(b, a)
    expected = sum(
        (Rotation.from_matrix(ra).inv() * Rotation.from_matrix(rb)).magnitude()
        for ra, rb in zip(rots_a, rots_b)
    )
    assert abs(rot_err(a, b) - expected) < 1e-7


def test_matched_pixels_counting():
    assert matched_pixels(MatchMap(np.ones((4, 5)))) == 20
    assert matched_pixels(MatchMap(np.zeros((4, 5)))) == 0
    # threshold is inclusive: exactly-0.5 confidences match at tau = 0.5
    conf = np.array([[0.5, 0.49], [0.51, 0.0]])
    assert matched_pixels(MatchMap(conf, threshold=0.5)) == 2
    assert matched_pixels(MatchMap(conf, threshold=0.49)) == 3
    assert matched_pixels(MatchMap(conf, threshold=0.51)) == 1


def test_matched_pixels_monotone_in_threshold():
    rng = np.random.default_rng(7)
    conf = rng.random((10, 10))
    counts = [matched_pixels(MatchMap(conf, threshold=t)) for t in (0.1, 0.4, 0.7, 0.95)]
    assert counts == sorted(counts, reverse=True)


def test_match_map_validation():
    with pytest.raises(DomainError):
        MatchMap(np.full((2, 2), 1.5))
    with pytest.raises(DomainError):
        MatchMap(np.full((2, 2), -0.1))
    with pytest.raises(DomainError):
        MatchMap(np.zeros((2, 2)), threshold=1.5)
    with pytest.raises(DomainError):
        MatchMap(np.zeros((2, 2, 2)))
    m = MatchMap(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.confidences[0, 0] = 1.0


def test_oracle_match_identical_views():
    scene = make_scene(41, point_count=300)
    pose = CameraPose.identity()
    traj = Trajectory.from_poses([pose, pose], INTR)
    seq = render(scene, traj)
    maps = oracle_match(seq, seq)
    assert len(maps) == 2
    for f, m in enumerate(maps):
        hit = seq.id_map[f] != 0
        assert int(hit.sum()) > 0
        assert np.array_equal(m.confidences, hit.astype(np.float64))
        assert matched_pixels(m) == int(hit.sum())


def test_oracle_match_disjoint_ids():
    a = seq_from_ids(np.array([[[1, 2], [0, 1]]]))
    b = seq_from_ids(np.array([[[3, 3], [0, 3]]]))
    (m,) = oracle_match(a, b)
    assert not m.confidences.any()


def test_oracle_match_against_set_oracle():
    rng = np.random.default_rng(19)
    ids_a = rng.integers(0, 7, size=(2, 6, 8))
    ids_b = rng.integers(0, 7, size=(2, 6, 8))
    maps = oracle_match(seq_from_ids(ids_a), seq_from_ids(ids_b))
    for f, m in enumerate(maps):
        seen = set(int(x) for x in ids_b[f].ravel()) - {0}
        for y in range(6):
            for x in range(8):
                pid = int(ids_a[f, y, x])
                want = 1.0 if pid != 0 and pid in seen else 0.0
                assert m.confidences[y, x] == want


def test_oracle_match_scene_and_pairing_guards():
    a = seq_from_ids(np.ones((1, 2, 2)), key="scene-a")
    b = seq_from_ids(np.ones((1, 2, 2)), key="scene-b")
    with pytest.raises(DomainError):
        oracle_match(a, b)
    with pytest.raises(DomainError):
        oracle_match(a, seq_from_ids(np.ones((1, 2, 2)), key=None))
    long_b = seq_from_ids(np.ones((3, 2, 2)), key="scene-a")
    with pytest.raises(DomainError, match="frame counts differ"):
        oracle_match(a, long_b)


def test_sync_report_identical_pair():
    scene = make_scene(43, point_count=200)
    traj = Trajectory.from_poses([CameraPose.identity()] * 2, INTR)
    seq = render(scene, traj)
    videos = {ShotKind.ROTATION_LEFT: seq, ShotKind.ARC_RIGHT_WITH_ROT: seq}
    rep = sync_report(videos, [(ShotKind.ROTATION_LEFT, ShotKind.ARC_RIGHT_WITH_ROT)])
    assert len(rep.rows) == 1
    row = rep.rows[0]
    assert row.pair == (ShotKind.ROTATION_LEFT, ShotKind.ARC_RIGHT_WITH_ROT)
    assert row.frames == 2
    per_frame = [int((seq.id_map[f] != 0).sum()) for f in range(2)]
    assert row.mean_matched_pixels == np.mean(per_frame)
    # the pixel mean is the one spelling: no kilo-pixel copy
    assert not hasattr(row, "mean_matched_kpx") and not hasattr(rep, "mean_matched_kpx")
    assert rep.mean_matched_pixels == row.mean_matched_pixels


def test_sync_report_missing_videos_listed():
    with pytest.raises(DomainError, match="arc_left_with_rot.*tilt_up"):
        sync_report({}, [(ShotKind.TILT_UP, ShotKind.ARC_LEFT_WITH_ROT)])


def test_sync_report_unequal_frame_counts():
    a = seq_from_ids(np.ones((1, 2, 2)))
    b = seq_from_ids(np.ones((2, 2, 2)))
    videos = {ShotKind.ROTATION_LEFT: a, ShotKind.ROTATION_RIGHT: b}
    with pytest.raises(DomainError):
        sync_report(videos, [(ShotKind.ROTATION_LEFT, ShotKind.ROTATION_RIGHT)])


def test_sync_report_scene_guard_after_frame_counts():
    a = seq_from_ids(np.ones((1, 2, 2)), key="scene-a")
    videos = {
        ShotKind.ROTATION_LEFT: a,
        ShotKind.ROTATION_RIGHT: seq_from_ids(np.ones((2, 2, 2)), key="scene-b"),
        ShotKind.TILT_UP: seq_from_ids(np.ones((1, 2, 2)), key="scene-b"),
    }
    with pytest.raises(DomainError, match="unequal frame counts"):
        sync_report(videos, [(ShotKind.ROTATION_LEFT, ShotKind.ROTATION_RIGHT)])
    with pytest.raises(DomainError, match="different scenes .'scene-a' vs 'scene-b'."):
        sync_report(videos, [(ShotKind.ROTATION_LEFT, ShotKind.TILT_UP)])
    videos[ShotKind.TILT_DOWN] = seq_from_ids(np.ones((1, 2, 2)), key=None)
    with pytest.raises(DomainError, match="^the second sequence .''. has no scene key$"):
        sync_report(videos, [(ShotKind.ROTATION_LEFT, ShotKind.TILT_DOWN)])


def test_sync_report_empty_mean():
    assert sync_report({}, []).rows == ()
    assert SyncReport(rows=()).mean_matched_pixels == 0.0


def reference_counts(a: FrameSequence, b: FrameSequence) -> list[int]:
    """Reference per-frame counts: b's unique non-background ids, isin, then a MatchMap."""
    counts = []
    for ids_a, ids_b in zip(a.id_map, b.id_map):
        visible_b = np.unique(ids_b)
        visible_b = visible_b[visible_b != BACKGROUND_ID]
        conf = ((ids_a != BACKGROUND_ID) & np.isin(ids_a, visible_b)).astype(np.float64)
        counts.append(matched_pixels(MatchMap(confidences=conf)))
    return counts


# small ids take numpy's lookup-table isin; ids near 2**31 - 1 make the
# table too large for these frames, so isin sorts instead. 2**30 + i shares
# its low 16 bits with i, so a narrowing cast would merge the two ids.
ID_VALUES = st.one_of(
    st.integers(0, 9),
    st.integers(2**31 - 6, 2**31 - 1),
    st.integers(1, 9).map(lambda i: 2**30 + i),
)


@st.composite
def id_video_pair(draw) -> tuple[np.ndarray, np.ndarray]:
    f, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ids_a = np.array(draw(st.lists(ID_VALUES, min_size=f * h * w, max_size=f * h * w)),
                     dtype=np.int32).reshape(f, h, w)
    relation = draw(st.sampled_from(["independent", "identical", "disjoint"]))
    if relation == "identical":
        return ids_a, ids_a.copy()
    ids_b = np.array(draw(st.lists(ID_VALUES, min_size=f * h * w, max_size=f * h * w)),
                     dtype=np.int32).reshape(f, h, w)
    if relation == "disjoint":  # keep b's background, give its points ids that a lacks
        ids_b = np.where(ids_b == BACKGROUND_ID, BACKGROUND_ID, ids_b % 7 + 10)
    return ids_a, ids_b


@settings(max_examples=200, deadline=None)
@given(id_video_pair())
def test_sync_report_counts_equal_reference_loop(pair):
    a, b = seq_from_ids(pair[0]), seq_from_ids(pair[1])
    want = reference_counts(a, b)
    assert [matched_pixels(m) for m in oracle_match(a, b)] == want
    rep = sync_report({ShotKind.TILT_UP: a, ShotKind.TILT_DOWN: b},
                      [(ShotKind.TILT_UP, ShotKind.TILT_DOWN)])
    assert rep.rows[0].mean_matched_pixels == float(np.mean(want))
    if np.array_equal(pair[0], pair[1]):
        assert want == [int((ids != BACKGROUND_ID).sum()) for ids in pair[0]]


@st.composite
def int32_id_pair(draw, max_frames: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Two id stacks over a narrow range anywhere in int32, or over all of int32.

    A range of at most 4 ids is within four frames' pixels, so sync_report counts it with
    its id table; a wider one falls back to isin. Any frame of either video may be blank,
    and the second video's frames may differ in size from the first's.
    """
    f = draw(st.integers(1, max_frames))
    sizes = [draw(st.tuples(st.integers(1, 5), st.integers(1, 5))) for _ in range(2)]
    if draw(st.booleans()):
        sizes[1] = sizes[0]
    if draw(st.booleans()):
        lo = draw(st.sampled_from([-2**31, -3, -1, 0, 1, 2**31 - 4]) | st.integers(-2**31, 2**31 - 4))
        values = st.integers(lo, lo + 3)
    else:
        values = st.one_of(st.just(BACKGROUND_ID), st.sampled_from([-2**31, 2**31 - 1]),
                           st.integers(-3, 3), st.integers(-2**31, 2**31 - 1))
    stacks = []
    for h, w in sizes:
        ids = np.array(draw(st.lists(values, min_size=f * h * w, max_size=f * h * w)),
                       dtype=np.int32).reshape(f, h, w)
        ids[draw(st.lists(st.booleans(), min_size=f, max_size=f))] = BACKGROUND_ID
        stacks.append(ids)
    return stacks[0], stacks[1]


@settings(max_examples=300, deadline=None)
@given(int32_id_pair())
def test_sync_report_counts_equal_isin_on_any_int32_ids(pair):
    a, b = seq_from_ids(pair[0]), seq_from_ids(pair[1])
    masks = [np.isin(fa, fb) & (fa != BACKGROUND_ID) for fa, fb in zip(pair[0], pair[1])]
    want = [int(np.count_nonzero(m)) for m in masks]
    maps = oracle_match(a, b)
    assert [matched_pixels(m) for m in maps] == want
    assert len(maps) == len(masks)
    for m, mask in zip(maps, masks):
        assert np.array_equal(m.confidences, mask.astype(np.float64))
    rep = sync_report({ShotKind.TILT_UP: a, ShotKind.TILT_DOWN: b},
                      [(ShotKind.TILT_UP, ShotKind.TILT_DOWN)])
    assert rep.rows[0].mean_matched_pixels == float(np.mean(want))


def test_a_video_in_two_pairs_is_reduced_to_its_hit_list_once(monkeypatch):
    reduce = FrameSequence.__dict__["_hits"].func
    reduced = []

    def counting(seq):
        reduced.append(seq)
        return reduce(seq)

    spy = functools.cached_property(counting)
    spy.__set_name__(FrameSequence, "_hits")
    monkeypatch.setattr(FrameSequence, "_hits", spy)
    rng = np.random.default_rng(5)
    kinds = (ShotKind.ROTATION_LEFT, ShotKind.ARC_RIGHT_WITH_ROT, ShotKind.AZIMUTH_RIGHT)
    videos = {k: seq_from_ids(rng.integers(0, 9, size=(3, 4, 5))) for k in kinds}
    pairs = [(kinds[0], kinds[1]), (kinds[0], kinds[2])]
    rows = sync_report(videos, pairs).rows
    # one pair per call, as eval scores a chunk, and the matcher reuse the same hit lists
    assert [sync_report(videos, [p]).rows[0] for p in pairs] == list(rows)
    oracle_match(videos[kinds[0]], videos[kinds[2]])
    assert sorted(map(id, reduced)) == sorted(map(id, videos.values()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sync_rows_summed_over_chunks_equal_the_joined_stacks(data):
    pair = data.draw(int32_id_pair(max_frames=8), label="id stacks")
    f = len(pair[0])
    cuts = sorted(data.draw(st.sets(st.integers(1, f - 1), max_size=f - 1), label="cuts")) \
        if f > 1 else []
    bounds = list(zip([0, *cuts], [*cuts, f]))
    kinds = (ShotKind.TILT_UP, ShotKind.TILT_DOWN)
    whole = sync_report(dict(zip(kinds, map(seq_from_ids, pair))), [kinds]).rows[0]
    rows = [sync_report({k: seq_from_ids(ids[i:j]) for k, ids in zip(kinds, pair)}, [kinds]).rows[0]
            for i, j in bounds]
    summed = SyncRow(kinds, sum(r.frames for r in rows), sum(r.matched_pixels for r in rows))
    counts = [int(np.count_nonzero(np.isin(fa, fb) & (fa != BACKGROUND_ID)))
              for fa, fb in zip(*pair)]
    assert summed == whole
    assert (whole.frames, whole.matched_pixels) == (f, sum(counts))
    assert summed.mean_matched_pixels == whole.mean_matched_pixels == float(np.mean(counts))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=2000))
def test_sync_row_mean_equals_numpy_mean_of_its_counts(counts):
    row = SyncRow((ShotKind.TILT_UP, ShotKind.TILT_DOWN), len(counts), sum(counts))
    assert row.mean_matched_pixels == float(np.mean(counts))
    assert SyncReport((row,)).mean_matched_pixels == row.mean_matched_pixels


def test_pose_error_report_fields():
    rng = np.random.default_rng(23)
    gt = random_trajectory(rng, 4)
    pred = random_trajectory(rng, 4)
    rep = pose_error_report(gt, pred, align=True)
    assert rep.frame_count == 4
    # summation order differs from trans_err's flat sum by at most an ulp
    assert rep.trans_err == pytest.approx(trans_err(gt, pred, align=True), rel=1e-12)
    assert rep.rot_err == pytest.approx(rot_err(gt, pred), rel=1e-12)
    assert rep.scale == align_scale(gt.pose_stack[1], pred.pose_stack[1])
    assert rep.trans_err_mean == rep.trans_err / 4
    assert rep.rot_err_mean == rep.rot_err / 4
    assert len(rep.per_frame) == 4
    assert sum(t for t, _ in rep.per_frame) == pytest.approx(rep.trans_err, rel=1e-12)
    unaligned = pose_error_report(gt, pred, align=False)
    assert unaligned.scale == 1.0


def test_pose_error_report_self_is_zero():
    traj = random_trajectory(np.random.default_rng(31), 3)
    rep = pose_error_report(traj, traj)
    assert rep.trans_err == 0.0
    assert rep.rot_err < 1e-6
    assert rep.scale == 1.0
