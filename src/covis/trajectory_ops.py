"""Benchmark camera shots, synchronization pairs, and trajectory merging.

The twelve-shot benchmark re-films a source view under canonical camera
moves, each a linear interpolation (in angle or distance) away from the
base trajectory's first pose:

- rotation and tilt shots rotate the camera in place;
- arc, azimuth, and elevation shots orbit the look-at point, which sits on
  the base optical axis at a configurable depth (default 5, half the far
  plane);
- translate shots move the camera center along its up/down axis;
- zoom shots move the center along the optical axis;
- the "with rot" variants re-aim at the original look-at point each frame,
  the others keep the base orientation.

Angles are radians; distances are world units. Frame 1 of every shot equals
the base's first pose exactly.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .camera import CameraIntrinsics, CameraPose, Trajectory
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


# Each magnitude family, named as its ShotsConfig field: default and the shots it drives.
SHOT_FAMILIES: dict[str, tuple[float, tuple[ShotKind, ...]]] = {
    "rotate_angle": (math.pi / 4, (
        ShotKind.ROTATION_LEFT, ShotKind.ARC_RIGHT_WITH_ROT, ShotKind.AZIMUTH_RIGHT,
        ShotKind.ROTATION_RIGHT, ShotKind.ARC_LEFT_WITH_ROT, ShotKind.AZIMUTH_LEFT,
    )),
    "tilt_angle": (math.pi / 6, (ShotKind.TILT_UP, ShotKind.TILT_DOWN, ShotKind.ELEVATION_UP)),
    "translate_distance": (0.5, (ShotKind.TRANSLATE_DOWN_WITH_ROT, ShotKind.TRANSLATE_UP_WITH_ROT)),
    "zoom_distance": (2.0, (ShotKind.ZOOM_OUT,)),
}

DEFAULT_MAGNITUDES: dict[ShotKind, float] = {
    kind: default for default, kinds in SHOT_FAMILIES.values() for kind in kinds
}

DEFAULT_LOOKAT_DEPTH = 5.0


@dataclass(frozen=True)
class ShotSpec:
    """One requested shot: kind, magnitude (radians or world units), frames, base."""

    kind: ShotKind
    magnitude: float
    frame_count: int
    base: Trajectory
    lookat_depth: float = DEFAULT_LOOKAT_DEPTH

    def __post_init__(self) -> None:
        if self.magnitude <= 0.0:
            raise DomainError(f"magnitude must be positive, got {self.magnitude}")
        if self.frame_count < 2:
            raise DomainError(f"frame_count must be >= 2, got {self.frame_count}")
        if self.lookat_depth <= 0.0:
            raise DomainError(f"lookat_depth must be positive, got {self.lookat_depth}")


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _axis_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation about a unit axis by angle (Rodrigues)."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _look_rotation(center: np.ndarray, target: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Camera-to-world rotation aiming from center at target, with up as up hint."""
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


def _shot_pose(
    kind: ShotKind,
    base: CameraPose,
    lookat: np.ndarray,
    amount: float,
) -> CameraPose:
    """Pose of a shot at accumulated magnitude ``amount`` away from the base."""
    r0, c0 = base.rotation, base.translation
    up = -base.down  # world-space up of the base camera (+y points down)
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
        center = lookat + _axis_rotation(base.right, -amount) @ (c0 - lookat)
        return CameraPose(rotation=r0, translation=center)
    if kind in (ShotKind.TRANSLATE_DOWN_WITH_ROT, ShotKind.TRANSLATE_UP_WITH_ROT):
        sign = 1.0 if kind == ShotKind.TRANSLATE_DOWN_WITH_ROT else -1.0
        center = c0 + sign * amount * base.down
        return CameraPose(rotation=_look_rotation(center, lookat, up), translation=center)
    if kind == ShotKind.ZOOM_OUT:
        return CameraPose(rotation=r0, translation=c0 - amount * base.forward)
    raise DomainError(f"unhandled shot kind {kind!r}")


def generate_shot(spec: ShotSpec) -> Trajectory:
    """Generate the F-frame trajectory of one shot from its base's first pose.

    The shot parameter (angle or distance) is interpolated linearly over
    frames, so frame i sits at i/(F-1) of the magnitude; frame 1 is the base
    pose itself, bit for bit.
    """
    base_pose, intr = spec.base.frames[0]
    lookat = base_pose.translation + spec.lookat_depth * base_pose.forward
    poses = [base_pose]
    for i in range(1, spec.frame_count):
        amount = spec.magnitude * i / (spec.frame_count - 1)
        poses.append(_shot_pose(spec.kind, base_pose, lookat, amount))
    return Trajectory.from_poses(poses, intr, label=spec.kind.slug)


def benchmark_suite(
    base: Trajectory,
    frame_count: int = 93,
    magnitudes: Mapping[ShotKind, float] | None = None,
    lookat_depth: float = DEFAULT_LOOKAT_DEPTH,
) -> list[Trajectory]:
    """All twelve shots, in canonical order, generated from one base trajectory."""
    mags = dict(DEFAULT_MAGNITUDES)
    if magnitudes:
        mags.update(magnitudes)
    return [
        generate_shot(ShotSpec(kind=k, magnitude=mags[k], frame_count=frame_count,
                               base=base, lookat_depth=lookat_depth))
        for k in ShotKind
    ]


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


def _mean_rotation(rotations: Sequence[np.ndarray], fallback: np.ndarray) -> np.ndarray:
    """Chordal-L2 mean: orthogonal polar factor of the matrix mean.

    Near-antipodal inputs make the mean singular; then the first input's
    rotation is kept and a warning is issued.
    """
    m = np.mean(np.stack(rotations), axis=0)
    u, s, vt = np.linalg.svd(m)
    if s[-1] < 1e-8:
        warnings.warn("degenerate rotation mean (antipodal inputs); keeping first rotation")
        return np.array(fallback)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def merge_trajectories(trajs: Sequence[Trajectory]) -> Trajectory:
    """Frame-wise merge of equal-length trajectories into one.

    Centers are averaged; rotations take the chordal-L2 mean; intrinsics
    keep the widest field of view (min fx, min fy) and average the principal
    point. All inputs must share frame count and image size.
    """
    if not trajs:
        raise DomainError("nothing to merge")
    if len(trajs) == 1:
        return trajs[0]
    n = len(trajs[0])
    w, h = trajs[0].image_size
    for t in trajs[1:]:
        if len(t) != n:
            raise DomainError(f"frame counts differ: {len(t)} vs {n}")
        if t.image_size != (w, h):
            raise DomainError(f"image sizes differ: {t.image_size} vs {(w, h)}")
    frames = []
    for f in range(n):
        poses = [t.frames[f][0] for t in trajs]
        intrs = [t.frames[f][1] for t in trajs]
        center = np.mean(np.stack([p.translation for p in poses]), axis=0)
        rot = _mean_rotation([p.rotation for p in poses], poses[0].rotation)
        intr = CameraIntrinsics(
            fx=min(i.fx for i in intrs),
            fy=min(i.fy for i in intrs),
            cx=float(np.mean([i.cx for i in intrs])),
            cy=float(np.mean([i.cy for i in intrs])),
            width=w, height=h,
        )
        frames.append((CameraPose(rotation=rot, translation=center), intr))
    label = "merge(" + "+".join(t.label or "?" for t in trajs) + ")"
    return Trajectory(frames=tuple(frames), label=label)
