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

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError
from .records import positive_int, write_text

# Per-entry tolerance for R^T R = I and det R = 1 checks.
ORTHONORMAL_TOL = 1e-9

# Tolerance for the Plücker constraints |d| = 1 and <d, m> = 0.
PLUCKER_TOL = 1e-9


def _readonly(a: np.ndarray, shape: tuple[int, ...], what: str) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    if out.shape != shape:
        raise DomainError(f"{what}: expected shape {shape}, got {out.shape}")
    out.setflags(write=False)
    return out


def _reject(bad: np.ndarray, prefix: str, message) -> None:
    """DomainError prefix.format(f) + message(f) for the first frame f that bad marks."""
    if bad.any():
        f = int(np.argmax(bad))
        raise DomainError(prefix.format(f) + message(f))


def _check_poses(rotations: np.ndarray, centers: np.ndarray, prefix: str = "frame {}: ") -> None:
    """CameraPose's rules over (F, 3, 3) rotations and (F, 3) centers."""
    for what, arr in (("rotation", rotations), ("translation", centers)):
        _reject(~np.isfinite(arr.reshape(len(arr), -1)).all(axis=1), prefix,
                lambda f: f"{what} has non-finite values {arr[f].tolist()}")
    err = np.abs(np.matmul(rotations.transpose(0, 2, 1), rotations) - np.eye(3)).max(axis=(1, 2))
    _reject(err > ORTHONORMAL_TOL, prefix,
            lambda f: f"rotation is not orthonormal (max residual {err[f]:.3e})")
    det = np.linalg.det(rotations)
    _reject(np.abs(det - 1.0) > ORTHONORMAL_TOL, prefix,
            lambda f: f"rotation determinant must be +1, got {float(det[f])!r}")


def _check_intrinsics(
    intrinsics: np.ndarray, sizes: Sequence[tuple[object, object]], prefix: str = "frame {}: "
) -> tuple[int, int]:
    """CameraIntrinsics' rules over (F, 4) fx, fy, cx, cy rows and (width, height) per frame.

    Returns the one image size every frame must share.
    """
    _reject(~np.isfinite(intrinsics).all(axis=1), prefix,
            lambda f: f"intrinsics has non-finite values {intrinsics[f].tolist()}")
    fx, fy = intrinsics[:, 0], intrinsics[:, 1]
    _reject(~((fx > 0.0) & (fy > 0.0)), prefix,
            lambda f: f"focal lengths must be positive, got fx={fx[f]}, fy={fy[f]}")
    w, h = sizes[0]
    # a good trajectory repeats one size of one type, so only frame 0 needs positive_int
    if (not (positive_int(w) and positive_int(h))
            or len(set(map(type, chain.from_iterable(sizes)))) > 1 or sizes.count((w, h)) < len(sizes)):
        for f, (fw, fh) in enumerate(sizes):
            if not (positive_int(fw) and positive_int(fh)):
                raise DomainError(prefix.format(f) + f"image size must be integers >= 1, got {fw!r}x{fh!r}")
            if (fw, fh) != (w, h):
                raise DomainError(f"frame {f} has image size {fw}x{fh}, expected {w}x{h}")
    return int(w), int(h)


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
        k = np.array([[self.fx, self.fy, self.cx, self.cy]], dtype=np.float64)
        _check_intrinsics(k, [(self.width, self.height)], prefix="")

    @classmethod
    def from_fov(cls, fov_h: float, fov_v: float, width: int, height: int) -> "CameraIntrinsics":
        """Intrinsics whose image bounds match the given full field-of-view angles."""
        fx = width / (2.0 * math.tan(fov_h / 2.0))
        fy = height / (2.0 * math.tan(fov_v / 2.0))
        return cls(fx=fx, fy=fy, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


@dataclass(frozen=True, eq=False)
class CameraPose:
    """Camera-to-world pose: rotation (3, 3) and camera center (3,)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", _readonly(self.rotation, (3, 3), "rotation"))
        object.__setattr__(self, "translation", _readonly(self.translation, (3,), "translation"))
        _check_poses(self.rotation[None], self.translation[None], prefix="")

    @classmethod
    def identity(cls) -> "CameraPose":
        return cls(rotation=np.eye(3), translation=np.zeros(3))


def _check_frames(
    rotations: np.ndarray, centers: np.ndarray, intrinsics: np.ndarray,
    sizes: Sequence[tuple[object, object]],
) -> tuple[int, int]:
    """Stacks of F >= 1 frames checked by CameraPose's and CameraIntrinsics' rules in one pass.

    Errors name the first offending frame. Returns the shared image size.
    """
    n = len(rotations)
    if n < 1:
        raise DomainError("trajectory needs at least one frame")
    for what, arr, shape in (("rotations", rotations, (n, 3, 3)), ("centers", centers, (n, 3)),
                             ("intrinsics", intrinsics, (n, 4))):
        if arr.shape != shape:
            raise DomainError(f"{what}: expected shape {shape}, got {arr.shape}")
    _check_poses(rotations, centers)
    return _check_intrinsics(intrinsics, sizes)


class Trajectory:
    """A sequence of (pose, intrinsics) frames sharing one image size.

    The frames are held as three read-only stacks, checked in one vectorised
    pass: rotations (F, 3, 3), camera centers (F, 3) and intrinsics (F, 4)
    as fx, fy, cx, cy, beside the one (width, height). frames builds
    CameraPose and CameraIntrinsics objects only when first asked for. No
    attribute can be set, since load_trajectory shares one object per file
    content.
    """

    def __init__(
        self, frames: Sequence[tuple[CameraPose, CameraIntrinsics]] = (), label: str = ""
    ) -> None:
        frames = tuple((p, i) for p, i in frames)
        stacks = (np.array([p.rotation for p, _ in frames]).reshape(-1, 3, 3),
                  np.array([p.translation for p, _ in frames]).reshape(-1, 3),
                  np.array([(i.fx, i.fy, i.cx, i.cy) for _, i in frames], dtype=np.float64).reshape(-1, 4))
        _trusted(stacks, _check_frames(*stacks, [(i.width, i.height) for _, i in frames]), label, self)
        self.__dict__["frames"] = frames

    @classmethod
    def from_stacks(
        cls, rotations: np.ndarray, centers: np.ndarray, intrinsics: np.ndarray,
        image_size: tuple[int, int], label: str = "",
    ) -> "Trajectory":
        """A trajectory over copies of (F, 3, 3) rotations, (F, 3) centers, (F, 4) intrinsics."""
        stacks = [np.array(a, dtype=np.float64) for a in (rotations, centers, intrinsics)]
        return _trusted(stacks, _check_frames(*stacks, [image_size] * len(stacks[0])), label)

    @classmethod
    def from_poses(
        cls, poses: Sequence[CameraPose], intrinsics: CameraIntrinsics, label: str = ""
    ) -> "Trajectory":
        return cls(frames=tuple((p, intrinsics) for p in poses), label=label)

    def __len__(self) -> int:
        return len(self._stacks[0])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Trajectory is read-only; cannot set {name!r}")

    @cached_property
    def frames(self) -> tuple[tuple[CameraPose, CameraIntrinsics], ...]:
        """(pose, intrinsics) per frame, built from the stacks on first use."""
        rotations, centers, intrinsics = self._stacks
        w, h = self.image_size
        return tuple(
            (CameraPose(rotation=r, translation=c), CameraIntrinsics(*k, width=w, height=h))
            for r, c, k in zip(rotations, centers, intrinsics.tolist())
        )

    @property
    def pose_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only rotations (F, 3, 3) and centers (F, 3)."""
        return self._stacks[0], self._stacks[1]

    @property
    def intrinsics_stack(self) -> np.ndarray:
        """Read-only (F, 4) intrinsics, one fx, fy, cx, cy row per frame."""
        return self._stacks[2]

    def slice_frames(self, start: int, stop: int) -> "Trajectory":
        if not (0 <= start < stop <= len(self)):
            raise DomainError(f"invalid frame slice [{start}, {stop}) for length {len(self)}")
        return _trusted([s[start:stop] for s in self._stacks], self.image_size, self.label)


def _trusted(
    stacks: Sequence[np.ndarray], image_size: tuple[int, int], label: str, traj: Trajectory | None = None
) -> Trajectory:
    """traj (by default a new trajectory) over stacks that are already checked, made read-only."""
    traj = Trajectory.__new__(Trajectory) if traj is None else traj
    for a in stacks:
        a.setflags(write=False)
    traj.__dict__.update(_stacks=tuple(stacks), image_size=image_size, label=label)
    return traj


@dataclass(frozen=True, eq=False)
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


def plucker_raymap(traj: Trajectory) -> PluckerRayMap:
    """Plücker ray map of a trajectory at full resolution: one ray per pixel, through its center."""
    w, h = traj.image_size
    us, vs = np.arange(w) + 0.5, np.arange(h) + 0.5
    out = np.empty((len(traj), h, w, 6))
    for f, (rotation, center, (fx, fy, cx, cy)) in enumerate(zip(*traj.pose_stack, traj.intrinsics_stack)):
        x = (us[None, :] - cx) / fx
        y = (vs[:, None] - cy) / fy
        d = np.stack([np.broadcast_to(x, (h, w)), np.broadcast_to(y, (h, w)), np.ones((h, w))], axis=-1)
        d /= np.linalg.norm(d, axis=-1, keepdims=True)
        d = d @ rotation.T
        m = np.cross(np.broadcast_to(center, d.shape), d)
        out[f, ..., :3] = d
        out[f, ..., 3:] = m
    return PluckerRayMap(rays=out)


def save_trajectory(traj: Trajectory, path: str | Path) -> None:
    """Write a trajectory file (JSON, bit-exact float round trip)."""
    w, h = traj.image_size
    rotations, centers = traj.pose_stack
    # 17 significant digits: enough for an exact float64 round trip
    line = (
        '    {{"rotation": [' + ", ".join(["{:.17g}"] * 9) + '], "translation": ['
        + ", ".join(["{:.17g}"] * 3) + '], "intrinsics": {{"fx": {:.17g}, "fy": {:.17g}, '
        + f'"cx": {{:.17g}}, "cy": {{:.17g}}, "width": {w}, "height": {h}}}}}}}}}'
    )
    rows = np.concatenate([rotations.reshape(-1, 9), centers, traj.intrinsics_stack], axis=1)
    write_text(path, "\n".join([
        "{",
        '  "convention": "camera_to_world",',
        f'  "label": {json.dumps(traj.label)},',
        '  "frames": [',
        ",\n".join(line.format(*row) for row in rows.tolist()),
        "  ]",
        "}",
        "",
    ]))


def _loads(text: str) -> object:
    """json.loads, but "-0", which save_trajectory writes for -0.0, reads as -0.0, not the int 0."""
    return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))


def _floats(rows: list, what: str) -> np.ndarray:
    """rows as a float64 array, or DomainError naming the first frame with a non-number in it.

    As in records.check_fields, a bool is never a number.
    """
    if not set(map(type, chain.from_iterable(rows))) <= {int, float}:
        f = next(f for f, row in enumerate(rows) if not set(map(type, row)) <= {int, float})
        raise DomainError(f"frame {f}: {what} must hold only numbers, got {rows[f]!r}")
    return np.array(rows, dtype=np.float64)


class _Content:
    """A file's bytes, hashed and compared by their SHA-256 digest; _decode drops the bytes."""

    def __init__(self, data: bytes) -> None:
        self.digest, self.data = hashlib.sha256(data).digest(), data

    def __hash__(self) -> int:
        return hash(self.digest)

    def __eq__(self, other: object) -> bool:
        return self.digest == other.digest


@lru_cache(maxsize=256)
def _decode(content: _Content) -> Trajectory:
    """The trajectory content's bytes hold, else DomainError without a path.

    Cached by digest, so a key holds no file text and one content is decoded
    once, its trajectory shared; a failed decode raises and is not cached.
    """
    try:
        # the text read_text would give: UTF-8 with universal newlines
        text = content.data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        doc = _loads(text)
    except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
        raise DomainError(f"invalid trajectory JSON ({e})") from e
    finally:
        content.data = b""
    if not isinstance(doc, dict) or doc.get("convention") != "camera_to_world":
        raise DomainError("missing or unsupported pose convention")
    label = doc.get("label", "")
    if not isinstance(label, str):  # records.check_fields' wording
        raise DomainError(f"'label' must be a str, got {label!r}")
    try:
        recs = doc["frames"]
        ks = [rec["intrinsics"] for rec in recs]
        rotations = _floats([rec["rotation"] for rec in recs], "rotation").reshape(len(recs), 3, 3)
        centers = _floats([rec["translation"] for rec in recs], "translation")
        intrinsics = _floats([(k["fx"], k["fy"], k["cx"], k["cy"]) for k in ks], "intrinsics")
        sizes = [(k["width"], k["height"]) for k in ks]
        size = _check_frames(rotations, centers, intrinsics, sizes)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DomainError(f"malformed trajectory record ({e})") from e
    return _trusted((rotations, centers, intrinsics), size, label)


def load_trajectory(path: str | Path) -> Trajectory:
    """Read a trajectory file written by save_trajectory, straight into the stacks.

    Files of equal bytes give one shared, read-only Trajectory, decoded once
    (see _decode). Every error names path.
    """
    path = Path(path)
    try:
        return _decode(_Content(path.read_bytes()))
    except DomainError as e:
        raise DomainError(f"{path}: {e}") from e.__cause__
