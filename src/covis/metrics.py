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
counts the match mask of each frame pair directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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


def _match_masks(ids_a: np.ndarray, ids_b: np.ndarray) -> Iterator[np.ndarray]:
    """Per frame of two (F, H, W) id stacks, the pixels of a whose point id appears anywhere
    in the same-index frame of b; background pixels of a never match.

    One boolean table over the pair's id range, offset by its smallest id, serves every
    frame: b's non-background ids are set, a's ids gathered, then b's cleared, so the
    background entry is never set. A range wider than four frames' pixels falls back to
    np.isin per frame.
    """
    lo = int(min(ids_a.min(), ids_b.min()))
    span = int(max(ids_a.max(), ids_b.max())) - lo + 1
    if span > 4 * ids_a[0].size:
        for fa, fb in zip(ids_a, ids_b):
            yield np.isin(fa, fb) & (fa != BACKGROUND_ID)
        return
    table = np.zeros(span, dtype=bool)
    for fa, fb in zip(ids_a, ids_b):
        kb = fb[fb != BACKGROUND_ID] - lo
        table[kb] = True
        yield table.take(fa - lo if lo else fa)
        table[kb] = False


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
    have equal frame counts.
    """
    _check_same_scene(a, b)
    if a.frame_count != b.frame_count:
        raise DomainError(f"frame counts differ ({a.frame_count} vs {b.frame_count})")
    return [MatchMap(confidences=m.astype(np.float64)) for m in _match_masks(a.id_map, b.id_map)]


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

    @property
    def mean_matched_kpx(self) -> float:
        return self.mean_matched_pixels / 1000.0


@dataclass(frozen=True)
class SyncReport:
    rows: tuple[SyncRow, ...]

    @property
    def mean_matched_pixels(self) -> float:
        if not self.rows:
            return 0.0
        return float(np.mean([r.mean_matched_pixels for r in self.rows]))

    @property
    def mean_matched_kpx(self) -> float:
        return self.mean_matched_pixels / 1000.0


def sync_report(
    videos: Mapping[ShotKind, FrameSequence],
    pairs: Sequence[tuple[ShotKind, ShotKind]],
) -> SyncReport:
    """Matched pixels per shot pair, summed over same-index frames.

    Each frame pair counts the pixels oracle_match would give confidence 1.0:
    non-background pixels of the first video whose id appears in the paired
    frame of the second. The count equals matched_pixels over oracle_match's
    maps at any threshold in (0, 1], without building those maps.
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
        total = sum(int(np.count_nonzero(m)) for m in _match_masks(a.id_map, b.id_map))
        rows.append(SyncRow(pair=(p, q), frames=a.frame_count, matched_pixels=total))
    return SyncReport(rows=tuple(rows))
