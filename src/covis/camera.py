"""Camera intrinsics, camera-to-world poses, trajectories, and Plücker rays.

Conventions, used consistently across the package:

- Poses are camera-to-world: ``rotation`` maps camera-frame vectors into the
  world frame and ``translation`` is the camera center in world coordinates.
- Camera frame: +x right, +y down, +z forward (right-handed, zero skew).
- Pixel (u, v) covers [u, u+1) x [v, v+1); its center sits at (u+0.5, v+0.5)
  in continuous pixel coordinates, the same coordinates as (cx, cy).
- A Plücker ray is (d, m) with unit direction d in world coordinates and
  moment m = origin x d.

Trajectory files are JSON with the pose convention recorded explicitly.
Floats are written with 17 significant digits so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .records import read_json, write_text

# Per-entry tolerance for R^T R = I and det R = 1 checks.
ORTHONORMAL_TOL = 1e-9

# Tolerance for the Plücker constraints |d| = 1 and <d, m> = 0.
PLUCKER_TOL = 1e-9


def _readonly(a: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    if out.shape != shape:
        raise DomainError(f"{what}: expected shape {shape}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise DomainError(f"{what}: non-finite values")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics with zero skew.

    fx, fy are focal lengths in pixels, (cx, cy) the principal point in
    continuous pixel coordinates, and width/height the image size in pixels.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise DomainError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width < 1 or self.height < 1:
            raise DomainError(f"image size must be >= 1x1, got {self.width}x{self.height}")

    @classmethod
    def from_fov(cls, fov_h: float, fov_v: float, width: int, height: int) -> "CameraIntrinsics":
        """Intrinsics whose image bounds match the given full field-of-view angles."""
        fx = width / (2.0 * math.tan(fov_h / 2.0))
        fy = height / (2.0 * math.tan(fov_v / 2.0))
        return cls(fx=fx, fy=fy, cx=width / 2.0, cy=height / 2.0, width=width, height=height)

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True)
class CameraPose:
    """Camera-to-world pose: rotation (3, 3) and camera center (3,)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", _readonly(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _readonly(self.translation, (3,), "translation"))
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > ORTHONORMAL_TOL:
            raise DomainError(f"rotation is not orthonormal (max residual {err:.3e})")
        det = float(np.linalg.det(self.rotation))
        if abs(det - 1.0) > ORTHONORMAL_TOL:
            raise DomainError(f"rotation determinant must be +1, got {det!r}")

    @classmethod
    def identity(cls) -> "CameraPose":
        return cls(rotation=np.eye(3), translation=np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "CameraPose":
        m = np.asarray(m, dtype=np.float64)
        if m.shape != (4, 4):
            raise DomainError(f"pose matrix must be 4x4, got {m.shape}")
        return cls(rotation=m[:3, :3], translation=m[:3, 3])

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def inverse(self) -> "CameraPose":
        rt = self.rotation.T
        return CameraPose(rotation=rt, translation=-(rt @ self.translation))

    def compose(self, other: "CameraPose") -> "CameraPose":
        """Pose whose 4x4 matrix equals self.matrix() @ other.matrix()."""
        return CameraPose(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )

    @property
    def right(self) -> np.ndarray:
        return self.rotation[:, 0]

    @property
    def down(self) -> np.ndarray:
        return self.rotation[:, 1]

    @property
    def forward(self) -> np.ndarray:
        """Optical axis (+z of the camera frame) in world coordinates."""
        return self.rotation[:, 2]


def relative_pose(a: CameraPose, b: CameraPose) -> CameraPose:
    """Pose of b expressed in a's camera frame.

    relative_pose(a, a) is the identity, and relative poses compose:
    relative_pose(a, c) == relative_pose(a, b).compose(relative_pose(b, c)).
    """
    rt = a.rotation.T
    return CameraPose(rotation=rt @ b.rotation, translation=rt @ (b.translation - a.translation))


@dataclass(frozen=True)
class Trajectory:
    """A sequence of (pose, intrinsics) frames sharing one image size."""

    frames: tuple[tuple[CameraPose, CameraIntrinsics], ...]
    label: str = ""

    def __post_init__(self) -> None:
        frames = tuple((p, i) for p, i in self.frames)
        object.__setattr__(self, "frames", frames)
        if len(frames) < 1:
            raise DomainError("trajectory needs at least one frame")
        w, h = frames[0][1].width, frames[0][1].height
        for idx, (_, intr) in enumerate(frames):
            if intr.width != w or intr.height != h:
                raise DomainError(
                    f"frame {idx} has image size {intr.width}x{intr.height}, expected {w}x{h}"
                )

    @classmethod
    def from_poses(
        cls, poses: Sequence[CameraPose], intrinsics: CameraIntrinsics, label: str = ""
    ) -> "Trajectory":
        return cls(frames=tuple((p, intrinsics) for p in poses), label=label)

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[tuple[CameraPose, CameraIntrinsics]]:
        return iter(self.frames)

    @property
    def poses(self) -> tuple[CameraPose, ...]:
        return tuple(p for p, _ in self.frames)

    @property
    def image_size(self) -> tuple[int, int]:
        """(width, height) shared by every frame."""
        intr = self.frames[0][1]
        return intr.width, intr.height

    def centers(self) -> np.ndarray:
        """(F, 3) array of camera centers."""
        return np.stack([p.translation for p, _ in self.frames])

    @cached_property
    def pose_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only rotations (F, 3, 3) and centers (F, 3), stacked on first use."""
        rotations = np.stack([p.rotation for p, _ in self.frames])
        centers = self.centers()
        rotations.setflags(write=False)
        centers.setflags(write=False)
        return rotations, centers

    def slice_frames(self, start: int, stop: int) -> "Trajectory":
        if not (0 <= start < stop <= len(self.frames)):
            raise DomainError(f"invalid frame slice [{start}, {stop}) for length {len(self.frames)}")
        return Trajectory(frames=self.frames[start:stop], label=self.label)

    def with_label(self, label: str) -> "Trajectory":
        return Trajectory(frames=self.frames, label=label)


def pixel_ray(
    pose: CameraPose, intr: CameraIntrinsics, u: float, v: float
) -> tuple[np.ndarray, np.ndarray]:
    """World-space ray through the center of pixel (u, v).

    Args:
        pose: camera-to-world pose.
        intr: pinhole intrinsics.
        u, v: pixel coordinates with 0 <= u < width and 0 <= v < height.

    Returns:
        (direction, origin): unit direction in world coordinates and the
        camera center. The ray passes through the continuous image point
        (u + 0.5, v + 0.5).
    """
    if not (0 <= u < intr.width and 0 <= v < intr.height):
        raise DomainError(
            f"pixel ({u}, {v}) outside image bounds {intr.width}x{intr.height}"
        )
    d_cam = np.array(
        [(u + 0.5 - intr.cx) / intr.fx, (v + 0.5 - intr.cy) / intr.fy, 1.0]
    )
    d_cam /= np.linalg.norm(d_cam)
    return pose.rotation @ d_cam, np.array(pose.translation)


@dataclass(frozen=True)
class PluckerRayMap:
    """Per-pixel Plücker rays, shape (F, H, W, 6) as (direction, moment)."""

    rays: np.ndarray

    def __post_init__(self) -> None:
        rays = np.asarray(self.rays, dtype=np.float64)
        if rays.ndim != 4 or rays.shape[-1] != 6:
            raise DomainError(f"ray map must have shape (F, H, W, 6), got {rays.shape}")
        d, m = rays[..., :3], rays[..., 3:]
        norm_err = np.abs(np.linalg.norm(d, axis=-1) - 1.0).max()
        if norm_err > PLUCKER_TOL:
            raise DomainError(f"ray directions are not unit length (max residual {norm_err:.3e})")
        dot_err = np.abs((d * m).sum(axis=-1)).max()
        if dot_err > PLUCKER_TOL:
            raise DomainError(f"<d, m> != 0 (max residual {dot_err:.3e})")
        rays = rays.copy()
        rays.setflags(write=False)
        object.__setattr__(self, "rays", rays)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.rays.shape


def plucker_raymap(traj: Trajectory, downsample: int = 1) -> PluckerRayMap:
    """Plücker ray map of a trajectory at pixel (or block) resolution.

    Rays are computed at full pixel resolution by default. ``downsample`` is
    the hook for coarser grids: with downsample = s (which must divide both
    image dimensions) one ray is emitted per s x s pixel block, through the
    block center. Equivariance is unaffected because each ray is still an
    exact pinhole ray.
    """
    if downsample < 1:
        raise DomainError(f"downsample must be >= 1, got {downsample}")
    w, h = traj.image_size
    if w % downsample or h % downsample:
        raise DomainError(
            f"downsample {downsample} must divide image size {w}x{h}"
        )
    gw, gh = w // downsample, h // downsample
    us = (np.arange(gw) + 0.5) * downsample
    vs = (np.arange(gh) + 0.5) * downsample
    out = np.empty((len(traj), gh, gw, 6))
    for f, (pose, intr) in enumerate(traj.frames):
        x = (us[None, :] - intr.cx) / intr.fx
        y = (vs[:, None] - intr.cy) / intr.fy
        d = np.stack([np.broadcast_to(x, (gh, gw)), np.broadcast_to(y, (gh, gw)), np.ones((gh, gw))], axis=-1)
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        d = d @ pose.rotation.T
        m = np.cross(np.broadcast_to(pose.translation, d.shape), d)
        out[f, ..., :3] = d
        out[f, ..., 3:] = m
    return PluckerRayMap(rays=out)


def _fmt(x: float) -> str:
    # 17 significant digits: enough for an exact float64 round trip.
    return format(float(x), ".17g")


def save_trajectory(traj: Trajectory, path: str | Path) -> None:
    """Write a trajectory file (JSON, bit-exact float round trip)."""
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
    write_text(path, "\n".join(lines) + "\n")


def load_trajectory(path: str | Path) -> Trajectory:
    """Read a trajectory file written by save_trajectory."""
    path = Path(path)
    doc = read_json(path, "trajectory JSON")
    if not isinstance(doc, dict) or doc.get("convention") != "camera_to_world":
        raise DomainError(f"{path}: missing or unsupported pose convention")
    frames = []
    try:
        for rec in doc["frames"]:
            rot = np.array(rec["rotation"], dtype=np.float64).reshape(3, 3)
            tr = np.array(rec["translation"], dtype=np.float64)
            ki = rec["intrinsics"]
            intr = CameraIntrinsics(
                fx=float(ki["fx"]), fy=float(ki["fy"]),
                cx=float(ki["cx"]), cy=float(ki["cy"]),
                width=int(ki["width"]), height=int(ki["height"]),
            )
            frames.append((CameraPose(rotation=rot, translation=tr), intr))
    except (KeyError, TypeError, ValueError) as e:
        raise DomainError(f"{path}: malformed trajectory record ({e})") from e
    return Trajectory(frames=tuple(frames), label=str(doc.get("label", "")))
