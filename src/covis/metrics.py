"""Pose-error and cross-video synchronization metrics.

Translation error is the sum over frames of squared center distances, after
an optional least-squares scale alignment of the predicted centers:

    s = sum_i <T_pred_i, T_gt_i> / sum_i <T_pred_i, T_pred_i>   (1 if the
    denominator is 0), then TransErr = sum_i ||T_gt_i - s T_pred_i||^2.

Rotation error is the sum over frames of geodesic angles: with
M = R_gt R_pred^T, atan2(||vee(M - M^T)|| / 2, (trace(M) - 1) / 2), which
stays exact near 0 and pi where arccos of the cosine alone loses half its
digits (identical rotations give exactly 0).

Synchronization between two generated videos of one scene is measured by an
oracle matcher on rendered id maps: a pixel of video a matches (confidence
1.0) iff its non-background point id is visible anywhere in the paired
frame of video b. Matched pixels are those with confidence >= the threshold
(inclusive, default 0.5); since oracle confidences are 0 or 1, sync_report
counts the matching pixels directly, from each video's hit list: the ids of
its non-background pixels and each frame's count of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .camera import Trajectory
from .errors import DomainError
from .scene import BACKGROUND_ID, FrameSequence
from .trajectory_ops import ShotKind

DEFAULT_MATCH_THRESHOLD = 0.5


def align_scale(gt: np.ndarray, pred: np.ndarray) -> float:
    """Least-squares scale s minimizing sum ||gt - s pred||^2 over 3-vector rows."""
    gt = np.asarray(gt, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if gt.shape != pred.shape or gt.ndim != 2 or gt.shape[1] != 3:
        raise DomainError(f"expected matching (N, 3) arrays, got {gt.shape} and {pred.shape}")
    if gt.shape[0] < 1:
        raise DomainError("need at least one point to align")
    denom = float((pred * pred).sum())
    if denom == 0.0:
        return 1.0
    return float((pred * gt).sum()) / denom


@dataclass(frozen=True)
class PoseErrorReport:
    """Summed pose errors plus the applied scale and per-frame breakdown.

    per_frame holds (squared center error, rotation angle) per frame; the
    totals are sums, and the *_mean properties give per-frame averages.
    """

    trans_err: float
    rot_err: float
    scale: float
    per_frame: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.trans_err < 0.0 or self.rot_err < 0.0:
            raise DomainError("pose errors cannot be negative")
        for t, r in self.per_frame:
            if t < 0.0 or not (0.0 <= r <= math.pi + 1e-12):
                raise DomainError("per-frame components out of range")

    @property
    def frame_count(self) -> int:
        return len(self.per_frame)

    @property
    def trans_err_mean(self) -> float:
        return self.trans_err / self.frame_count

    @property
    def rot_err_mean(self) -> float:
        return self.rot_err / self.frame_count


def pose_error_report(gt: Trajectory, pred: Trajectory, align: bool = True) -> PoseErrorReport:
    """Full pose comparison of a predicted trajectory against ground truth."""
    if len(gt) != len(pred):
        raise DomainError(f"frame counts differ: {len(gt)} vs {len(pred)}")
    g, p = gt.pose_stack[1], pred.pose_stack[1]
    scale = align_scale(g, p) if align else 1.0
    diffs = ((g - scale * p) ** 2).sum(axis=1)
    # per frame M = R_gt R_pred^T: sin of its angle from M's skew part, cos from its trace;
    # atan2 stays per frame, as math.atan2
    m = np.matmul(gt.pose_stack[0], pred.pose_stack[0].transpose(0, 2, 1))
    skew = m - m.transpose(0, 2, 1)
    sines = np.linalg.norm(skew[:, [2, 0, 1], [1, 2, 0]], axis=1) / 2.0
    cosines = (np.trace(m, axis1=1, axis2=2) - 1.0) / 2.0
    angles = list(map(math.atan2, sines.tolist(), cosines.tolist()))
    return PoseErrorReport(
        trans_err=float(diffs.sum()),
        rot_err=float(sum(angles)),
        scale=scale,
        per_frame=tuple((float(d), a) for d, a in zip(diffs, angles)),
    )


def trans_err(gt: Trajectory, pred: Trajectory, align: bool = False) -> float:
    """Summed squared camera-center error, optionally after scale alignment."""
    return pose_error_report(gt, pred, align=align).trans_err


def rot_err(gt: Trajectory, pred: Trajectory) -> float:
    """Summed geodesic rotation error in radians."""
    return pose_error_report(gt, pred, align=False).rot_err


@dataclass(frozen=True, eq=False)
class MatchMap:
    """Per-pixel match confidences in [0, 1] with an inclusive threshold."""

    confidences: np.ndarray
    threshold: float = DEFAULT_MATCH_THRESHOLD

    def __post_init__(self) -> None:
        conf = np.asarray(self.confidences, dtype=np.float64)
        if conf.ndim != 2:
            raise DomainError(f"confidences must be (H, W), got shape {conf.shape}")
        if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
            raise DomainError("confidences must lie in [0, 1]")
        if not (0.0 <= self.threshold <= 1.0):
            raise DomainError(f"threshold must lie in [0, 1], got {self.threshold}")
        conf = conf.copy()
        conf.setflags(write=False)
        object.__setattr__(self, "confidences", conf)


def matched_pixels(m: MatchMap) -> int:
    """Number of pixels with confidence >= threshold (ties match)."""
    return int((m.confidences >= m.threshold).sum())


def _members(a: FrameSequence, b: FrameSequence) -> np.ndarray:
    """Per hit of a, in its hit-list order: True iff its point id is a hit of the
    same-index frame of b. Background pixels are never hits, so they never match.

    Each hit becomes the key frame * span + (id - lo), where lo and span are the
    smallest id and the width of the pair's hit id range, so two hits share a
    key iff they share frame index and id. b's keys are set in one boolean table
    of frames * span entries and a's gathered from it. A range wider than four
    frames' pixels, whose table would outgrow a's id map, falls back to np.isin
    on the keys; either way the result is exact for any int32 ids.
    """
    (ids_a, counts_a), (ids_b, counts_b) = a._hits, b._hits
    if not (ids_a.size and ids_b.size):
        return np.zeros(ids_a.size, dtype=bool)
    lo = int(min(ids_a.min(), ids_b.min()))
    span = int(max(ids_a.max(), ids_b.max())) - lo + 1
    size = a.frame_count * span
    # a frame's offset frame * span - lo lies within size + |lo| of 0 and a key in
    # [0, size), so int32 keys cannot overflow
    dtype = np.int32 if size + abs(lo) < 2**31 else np.int64
    offsets = (np.arange(a.frame_count, dtype=np.int64) * span - lo).astype(dtype)

    def keys(ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
        k = np.repeat(offsets, counts)
        k += ids
        return k

    if span > 4 * a.id_map[0].size:
        return np.isin(keys(ids_a, counts_a), keys(ids_b, counts_b))
    table = np.zeros(size, dtype=bool)
    table[keys(ids_b, counts_b)] = True
    return table[keys(ids_a, counts_a)]


def _check_same_scene(a: FrameSequence, b: FrameSequence) -> None:
    for which, seq in (("first", a), ("second", b)):
        if seq.scene_key is None:
            raise DomainError(f"the {which} sequence ({seq.trajectory.label!r}) has no scene key")
    if a.scene_key != b.scene_key:
        raise DomainError(
            f"sequences come from different scenes ({a.scene_key!r} vs {b.scene_key!r})"
        )


def oracle_match(a: FrameSequence, b: FrameSequence) -> list[MatchMap]:
    """Ground-truth matcher over rendered id maps, one MatchMap per frame.

    A pixel of frame i of ``a`` gets confidence 1.0 iff its (non-background)
    point id is visible anywhere in frame i of ``b``; background pixels and
    unseen ids get 0.0. Both sequences must come from the same scene and
    have equal frame counts. The maps scatter the per-hit membership that
    sync_report counts, so the two share one matching rule.
    """
    _check_same_scene(a, b)
    if a.frame_count != b.frame_count:
        raise DomainError(f"frame counts differ ({a.frame_count} vs {b.frame_count})")
    conf = np.zeros(a.id_map.shape)
    conf[a.id_map != BACKGROUND_ID] = _members(a, b)  # hits are in the mask's C order
    return [MatchMap(confidences=c) for c in conf]


@dataclass(frozen=True)
class SyncRow:
    """Synchronization result for one shot pair: its matched pixels summed over its frames."""

    pair: tuple[ShotKind, ShotKind]
    frames: int
    matched_pixels: int

    @property
    def mean_matched_pixels(self) -> float:
        # an exact integer total over a correctly rounded division: float(np.mean(counts))
        return self.matched_pixels / self.frames


@dataclass(frozen=True)
class SyncReport:
    rows: tuple[SyncRow, ...]

    @property
    def mean_matched_pixels(self) -> float:
        if not self.rows:
            return 0.0
        return float(np.mean([r.mean_matched_pixels for r in self.rows]))


def sync_report(
    videos: Mapping[ShotKind, FrameSequence],
    pairs: Sequence[tuple[ShotKind, ShotKind]],
) -> SyncReport:
    """Matched pixels per shot pair, summed over same-index frames.

    Each frame pair counts the pixels oracle_match would give confidence 1.0:
    non-background pixels of the first video whose id appears in the paired
    frame of the second. The count equals matched_pixels over oracle_match's
    maps at any threshold in (0, 1], without building those maps: each video
    is reduced once to its hit list, kept on the sequence for every later pair
    and call, and a pair is one table scatter of the second video's hits and
    one gather of the first's.
    """
    missing = sorted({k.slug for p in pairs for k in p if k not in videos})
    if missing:
        raise DomainError(f"missing videos for shots: {', '.join(missing)}")
    rows = []
    for p, q in pairs:
        a, b = videos[p], videos[q]
        if a.frame_count != b.frame_count:
            raise DomainError(
                f"pair ({p.slug}, {q.slug}) has unequal frame counts "
                f"({a.frame_count} vs {b.frame_count})"
            )
        _check_same_scene(a, b)
        total = int(np.count_nonzero(_members(a, b)))
        rows.append(SyncRow(pair=(p, q), frames=a.frame_count, matched_pixels=total))
    return SyncReport(rows=tuple(rows))
