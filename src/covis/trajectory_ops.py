"""Benchmark camera shots, synchronization pairs, and trajectory merging.

The twelve-shot benchmark re-films a source view under canonical camera
moves, each a linear interpolation (in angle or distance) away from the
base trajectory's first pose:

- rotation and tilt shots rotate the camera in place;
- arc, azimuth, and elevation shots orbit the look-at point, which sits on
  the base optical axis at depth DEFAULT_LOOKAT_DEPTH = 5 (half the default
  far plane);
- translate shots move the camera center along its up/down axis;
- zoom shots move the center along the optical axis;
- the "with rot" variants re-aim at the original look-at point each frame,
  the others keep the base orientation.

Angles are radians; distances are world units. Frame 1 of every shot equals
the base's first pose exactly. The benchmark's magnitudes are fixed: pi/4 for
the rotation, arc and azimuth shots, pi/6 for tilt and elevation, 0.5 for the
translates and 2.0 for zoom.
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import Sequence

import numpy as np

from .camera import Trajectory
from .errors import DomainError


class ShotKind(enum.IntEnum):
    """The twelve benchmark shots, numbered in canonical suite order."""

    ROTATION_LEFT = 1
    ARC_RIGHT_WITH_ROT = 2
    AZIMUTH_RIGHT = 3
    ROTATION_RIGHT = 4
    ARC_LEFT_WITH_ROT = 5
    AZIMUTH_LEFT = 6
    TILT_UP = 7
    TRANSLATE_DOWN_WITH_ROT = 8
    TILT_DOWN = 9
    TRANSLATE_UP_WITH_ROT = 10
    ELEVATION_UP = 11
    ZOOM_OUT = 12

    @property
    def slug(self) -> str:
        return self.name.lower()

    @classmethod
    def from_slug(cls, slug: str) -> "ShotKind":
        try:
            return cls[slug.upper()]
        except KeyError:
            raise DomainError(f"unknown shot {slug!r}") from None


DEFAULT_LOOKAT_DEPTH = 5.0


def _turns(axis: int, angles: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotations by each angle about camera axis 0 (x) or 1 (y)."""
    out = np.zeros((len(angles), 3, 3))
    i, j = (1, 2) if axis == 0 else (2, 0)  # the plane the rotation turns
    out[:, axis, axis] = 1.0
    out[:, i, i] = out[:, j, j] = [math.cos(a) for a in angles]
    out[:, j, i] = [math.sin(a) for a in angles]
    out[:, i, j] = -out[:, j, i]
    return out


def _axis_rotations(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(n, 3, 3) rotations about one unit axis by each angle (Rodrigues)."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    s = np.array([math.sin(a) for a in angles])[:, None, None]
    c = np.array([math.cos(a) for a in angles])[:, None, None]
    return np.eye(3) + s * k + (1.0 - c) * (k @ k)


def _look_rotations(centers: np.ndarray, target: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Camera-to-world rotations aiming from each center at target, with up as up hint."""

    def unit(v: np.ndarray, fault: str) -> np.ndarray:
        # np.linalg.norm of each row: the sqrt of the same BLAS dot, so the bits agree
        n = np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0]
        if (n < 1e-12).any():
            raise DomainError(fault)
        return v / n

    fwd = unit(target - centers, "camera center coincides with look-at target")
    right = unit(np.cross(fwd, up), "look direction is parallel to the up axis")
    return np.stack([right, np.cross(fwd, right), fwd], axis=2)


# Per shot: the sign of its motion, the motion and its benchmark magnitude. The
# motion is one of pan/tilt (turn in place about the camera's y/x axis),
# arc/orbit (circle the look-at point about up, re-aiming or not), elevate
# (circle it about right), translate (move along down, re-aiming) and zoom
# (move along forward).
_MOTIONS: dict[ShotKind, tuple[float, str, float]] = {
    ShotKind.ROTATION_LEFT: (-1.0, "pan", math.pi / 4),
    ShotKind.ROTATION_RIGHT: (1.0, "pan", math.pi / 4),
    ShotKind.TILT_UP: (1.0, "tilt", math.pi / 6),
    ShotKind.TILT_DOWN: (-1.0, "tilt", math.pi / 6),
    ShotKind.ARC_RIGHT_WITH_ROT: (1.0, "arc", math.pi / 4),
    ShotKind.ARC_LEFT_WITH_ROT: (-1.0, "arc", math.pi / 4),
    ShotKind.AZIMUTH_RIGHT: (1.0, "orbit", math.pi / 4),
    ShotKind.AZIMUTH_LEFT: (-1.0, "orbit", math.pi / 4),
    ShotKind.ELEVATION_UP: (-1.0, "elevate", math.pi / 6),
    ShotKind.ZOOM_OUT: (-1.0, "zoom", 2.0),
    ShotKind.TRANSLATE_DOWN_WITH_ROT: (1.0, "translate", 0.5),
    ShotKind.TRANSLATE_UP_WITH_ROT: (-1.0, "translate", 0.5),
}


def _shot_stack(
    kind: ShotKind, r0: np.ndarray, c0: np.ndarray, lookat: np.ndarray, amounts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rotations and centers of a shot at each accumulated magnitude away from the base."""
    sign, motion, _ = _MOTIONS[kind]
    signed, n = sign * amounts, len(amounts)
    right, down, forward = r0.T
    up = -down  # world-space up of the base camera (+y points down)
    if motion in ("pan", "tilt"):
        return np.matmul(r0, _turns(1 if motion == "pan" else 0, signed)), np.broadcast_to(c0, (n, 3))
    if motion in ("translate", "zoom"):
        centers = c0 + signed[:, None] * (down if motion == "translate" else forward)
    else:
        axis = right if motion == "elevate" else up
        centers = lookat + np.matmul(_axis_rotations(axis, signed), c0 - lookat)
    if motion in ("arc", "translate"):
        return _look_rotations(centers, lookat, up), centers
    return np.broadcast_to(r0, (n, 3, 3)), centers


def generate_shot(
    kind: ShotKind,
    magnitude: float,
    frame_count: int,
    base: Trajectory,
) -> Trajectory:
    """Generate the F-frame trajectory of one shot from its base's first pose.

    magnitude is in radians or world units. The shot parameter (angle or
    distance) is interpolated linearly over frames, so frame i sits at
    i/(F-1) of the magnitude; frame 1 is the base pose itself, bit for bit.
    The look-at point is DEFAULT_LOOKAT_DEPTH down the base's first optical
    axis. Every frame is computed in one batched pass.
    """
    if frame_count < 2:
        raise DomainError(f"frame_count must be >= 2, got {frame_count}")
    if magnitude <= 0.0:
        raise DomainError(f"magnitude must be positive, got {magnitude}")
    rotations, centers = base.pose_stack
    r0, c0 = rotations[0], centers[0]
    lookat = c0 + DEFAULT_LOOKAT_DEPTH * r0[:, 2]
    amounts = magnitude * np.arange(1, frame_count) / (frame_count - 1)
    rots, cens = _shot_stack(kind, r0, c0, lookat, amounts)
    return Trajectory.from_stacks(
        np.concatenate([r0[None], rots]), np.concatenate([c0[None], cens]),
        np.broadcast_to(base.intrinsics_stack[0], (frame_count, 4)),
        base.image_size, label=kind.slug,
    )


def benchmark_suite(base: Trajectory, frame_count: int) -> list[Trajectory]:
    """All twelve shots, in canonical order, at their benchmark magnitudes from one base."""
    return [generate_shot(k, _MOTIONS[k][2], frame_count, base) for k in ShotKind]


_SYNC_PAIRS: dict[int, list[tuple[ShotKind, ShotKind]]] = {
    3: [
        (ShotKind.ROTATION_LEFT, ShotKind.ARC_RIGHT_WITH_ROT),
        (ShotKind.ROTATION_LEFT, ShotKind.AZIMUTH_RIGHT),
    ],
    6: [
        (ShotKind.ROTATION_RIGHT, ShotKind.ARC_LEFT_WITH_ROT),
        (ShotKind.ROTATION_RIGHT, ShotKind.AZIMUTH_LEFT),
    ],
    9: [
        (ShotKind.TILT_UP, ShotKind.TRANSLATE_DOWN_WITH_ROT),
        (ShotKind.TILT_DOWN, ShotKind.TRANSLATE_UP_WITH_ROT),
    ],
    12: [
        (ShotKind.TRANSLATE_UP_WITH_ROT, ShotKind.ELEVATION_UP),
        (ShotKind.TRANSLATE_UP_WITH_ROT, ShotKind.ZOOM_OUT),
    ],
}


def sync_pairs(n_shots: int) -> list[tuple[ShotKind, ShotKind]]:
    """Shot pairs whose generated videos should agree, for a given suite size.

    Suites are cumulative: the 6-shot setting includes the 3-shot pairs, and
    so on. Valid n_shots are 3, 6, 9, and 12 (2, 4, 6, and 8 pairs).
    """
    if n_shots not in _SYNC_PAIRS:
        raise DomainError(f"n_shots must be one of 3, 6, 9, 12; got {n_shots}")
    out: list[tuple[ShotKind, ShotKind]] = []
    for n in (3, 6, 9, 12):
        if n <= n_shots:
            out.extend(_SYNC_PAIRS[n])
    return out


def merge_trajectories(trajs: Sequence[Trajectory]) -> Trajectory:
    """Frame-wise merge of equal-length trajectories into one.

    Centers are averaged; rotations take the chordal-L2 mean, the orthogonal
    polar factor of the matrix mean, found for all frames in one batched
    SVD. Near-antipodal inputs make a frame's mean singular; that frame
    keeps the first input's rotation, with a warning. Intrinsics keep the
    widest field of view (min fx, min fy) and average the principal point.
    All inputs must share frame count and image size.
    """
    if not trajs:
        raise DomainError("nothing to merge")
    if len(trajs) == 1:
        return trajs[0]
    n = len(trajs[0])
    size = trajs[0].image_size
    for t in trajs[1:]:
        if len(t) != n:
            raise DomainError(f"frame counts differ: {len(t)} vs {n}")
        if t.image_size != size:
            raise DomainError(f"image sizes differ: {t.image_size} vs {size}")
    # Each mean adds the inputs in the order a per-frame mean did, so every bit
    # agrees: rotations and centers as rows of an input-major stack, one
    # after another; the principal point along a contiguous input axis,
    # which numpy sums pairwise from 8 inputs on, as it did the per-frame list.
    rotations = np.stack([t.pose_stack[0] for t in trajs])
    intrinsics = np.stack([t.intrinsics_stack for t in trajs])
    u, s, vt = np.linalg.svd(np.mean(rotations, axis=0))
    d = np.sign(np.linalg.det(u @ vt))
    flip = np.zeros((n, 3, 3))
    flip[:, 0, 0] = flip[:, 1, 1] = 1.0
    flip[:, 2, 2] = d
    merged = u @ flip @ vt
    degenerate = s[:, -1] < 1e-8
    if degenerate.any():
        warnings.warn("degenerate rotation mean (antipodal inputs); keeping first rotation")
        merged[degenerate] = rotations[0][degenerate]
    principal = np.ascontiguousarray(intrinsics[:, :, 2:].transpose(1, 2, 0))
    merged_intrinsics = np.concatenate([intrinsics[:, :, :2].min(axis=0), principal.mean(axis=2)], axis=1)
    label = "merge(" + "+".join(t.label or "?" for t in trajs) + ")"
    return Trajectory.from_stacks(
        merged, np.mean(np.stack([t.pose_stack[1] for t in trajs]), axis=0),
        merged_intrinsics, size, label=label,
    )
