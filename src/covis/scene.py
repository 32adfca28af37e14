"""Deterministic synthetic point scenes and a splat renderer.

This module is the ground-truth side of the package: scenes are clouds of
uniquely id'd colored points (optionally drifting at constant velocity), and
render() produces pixel-exact RGB frames plus per-pixel id maps by splatting
each point into the single pixel its projection lands in, nearest depth
winning. Everything is a pure function of (scene, trajectory), so repeated
renders are bit-identical.

covisible_fraction() is the point-visibility oracle used to validate frustum
retrieval: per frame, the fraction |visible in both| / |visible in either|
with visibility meaning in front of the camera, inside the image bounds, and
within the far limit (default 10, matching the frustum far plane so both
measures cover the same region).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .camera import CameraIntrinsics, CameraPose, Trajectory, load_trajectory, save_trajectory
from .errors import DomainError
from .records import MANIFEST, check_fields, inside, positive_int, read_json, write_json

BACKGROUND_ID = 0
BACKGROUND_RGB = (128, 128, 128)

# Default scene center: on the reference optical axis at half the far plane.
DEFAULT_SCENE_CENTER = (0.0, 0.0, 5.0)


@dataclass(frozen=True)
class SceneModel:
    """Point scene: parallel arrays of ids (> 0, unique), positions, colors, velocities."""

    ids: np.ndarray         # (N,) int32
    positions: np.ndarray   # (N, 3) float64, position at frame 0
    colors: np.ndarray      # (N, 3) uint8
    velocities: np.ndarray  # (N, 3) float64, world units per frame step
    seed: int

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int32)
        pos = np.asarray(self.positions, dtype=np.float64)
        col = np.asarray(self.colors, dtype=np.uint8)
        vel = np.asarray(self.velocities, dtype=np.float64)
        n = ids.shape[0]
        if pos.shape != (n, 3) or col.shape != (n, 3) or vel.shape != (n, 3):
            raise DomainError("scene arrays must be parallel: ids (N,), others (N, 3)")
        if n == 0:
            raise DomainError("scene needs at least one point")
        if ids.min() <= BACKGROUND_ID:
            raise DomainError(f"point ids must be > {BACKGROUND_ID}")
        if np.unique(ids).size != n:
            raise DomainError("point ids must be unique")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
            raise DomainError("positions and velocities must be finite")
        for name, arr in (("ids", ids), ("positions", pos), ("colors", col), ("velocities", vel)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def point_count(self) -> int:
        return int(self.ids.shape[0])

    @property
    def scene_key(self) -> str:
        """Content hash identifying the scene (used to reject cross-scene matching)."""
        h = hashlib.sha256()
        for arr in (self.ids, self.positions, self.colors, self.velocities):
            h.update(np.ascontiguousarray(arr).tobytes())
        return "scene-" + h.hexdigest()[:16]

    def positions_at(self, frame: int) -> np.ndarray:
        return self.positions + float(frame) * self.velocities


def make_scene(
    seed: int,
    point_count: int = 1000,
    extent: float = 10.0,
    moving_fraction: float = 0.0,
    center: tuple[float, float, float] = DEFAULT_SCENE_CENTER,
    velocity_scale: float = 0.02,
) -> SceneModel:
    """Uniform random point scene inside a cube of side ``extent`` about ``center``.

    A moving_fraction of points receive constant random velocities with
    components uniform in [-velocity_scale, velocity_scale]. Same seed and
    parameters always produce the identical scene.
    """
    if point_count < 1:
        raise DomainError(f"point_count must be >= 1, got {point_count}")
    if extent <= 0.0:
        raise DomainError(f"extent must be positive, got {extent}")
    if not (0.0 <= moving_fraction <= 1.0):
        raise DomainError(f"moving_fraction must lie in [0, 1], got {moving_fraction}")
    rng = np.random.default_rng(seed)
    positions = np.asarray(center, dtype=np.float64) + (rng.random((point_count, 3)) - 0.5) * extent
    colors = rng.integers(0, 256, size=(point_count, 3), dtype=np.int64).astype(np.uint8)
    velocities = np.zeros((point_count, 3))
    n_moving = int(round(moving_fraction * point_count))
    if n_moving > 0:
        idx = rng.choice(point_count, size=n_moving, replace=False)
        velocities[idx] = rng.uniform(-velocity_scale, velocity_scale, size=(n_moving, 3))
    return SceneModel(
        ids=np.arange(1, point_count + 1, dtype=np.int32),
        positions=positions, colors=colors, velocities=velocities, seed=seed,
    )


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself if it is read-only and owns its memory, else a read-only copy of it."""
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FrameSequence:
    """Rendered video: RGB frames (F, H, W, 3) uint8 and id maps (F, H, W) int32.

    Both arrays are read-only. An array that is already read-only and owns
    its memory is adopted as it is; a writable array or a view is copied, so
    later writes through the caller's array never reach the sequence.
    """

    frames: np.ndarray
    id_map: np.ndarray
    trajectory: Trajectory
    scene_key: str | None = None

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.uint8)
        ids = np.asarray(self.id_map, dtype=np.int32)
        w, h = self.trajectory.image_size
        f = len(self.trajectory)
        if frames.shape != (f, h, w, 3):
            raise DomainError(f"frames shape {frames.shape} != {(f, h, w, 3)} from trajectory")
        if ids.shape != (f, h, w):
            raise DomainError(f"id map shape {ids.shape} != {(f, h, w)} from trajectory")
        object.__setattr__(self, "frames", _read_only(frames))
        object.__setattr__(self, "id_map", _read_only(ids))

    @property
    def frame_count(self) -> int:
        return int(self.frames.shape[0])


def _project(
    pts: np.ndarray, pose: CameraPose, intr: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Continuous image coordinates (u, v) and depth for points in front of the camera.

    Returns (u, v, z) with z <= 0 wherever the point is at or behind the
    camera plane; u, v are only meaningful where z > 0.
    """
    local = (pts - pose.translation) @ pose.rotation
    z = local[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.fx * local[:, 0] / z + intr.cx
        v = intr.fy * local[:, 1] / z + intr.cy
    return u, v, z


def render(scene: SceneModel, traj: Trajectory) -> FrameSequence:
    """Render the scene along a trajectory with a 1-pixel splat depth buffer.

    Points at or behind the camera plane and projections outside the image
    are skipped. When several points land in one pixel the nearest depth
    wins; exact depth ties go to the smallest point id. Unhit pixels keep
    the background id 0 and mid-gray color.
    """
    w, h = traj.image_size
    n_frames = len(traj)
    frames = np.full((n_frames, h, w, 3), BACKGROUND_RGB[0], dtype=np.uint8)
    id_map = np.full((n_frames, h, w), BACKGROUND_ID, dtype=np.int32)
    for f, (pose, intr) in enumerate(traj.frames):
        u, v, z = _project(scene.positions_at(f), pose, intr)
        valid = z > 0.0
        ui = np.floor(u[valid]).astype(np.int64)
        vi = np.floor(v[valid]).astype(np.int64)
        inside = (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
        if not inside.any():
            continue
        cand = np.flatnonzero(valid)[inside]
        pix = vi[inside] * w + ui[inside]
        # Sort by pixel, then depth, then id; first record per pixel wins.
        order = np.lexsort((scene.ids[cand], z[cand], pix))
        pix_sorted = pix[order]
        first = np.unique(pix_sorted, return_index=True)[1]
        winners = cand[order[first]]
        id_map[f].reshape(-1)[pix_sorted[first]] = scene.ids[winners]
        frames[f].reshape(-1, 3)[pix_sorted[first]] = scene.colors[winners]
    frames.setflags(write=False)
    id_map.setflags(write=False)
    return FrameSequence(frames=frames, id_map=id_map, trajectory=traj, scene_key=scene.scene_key)


def _visible_mask(
    scene: SceneModel, frame: int, pose: CameraPose, intr: CameraIntrinsics, far: float
) -> np.ndarray:
    u, v, z = _project(scene.positions_at(frame), pose, intr)
    vis = (z > 0.0) & (z <= far)
    vis &= (u >= 0.0) & (u < intr.width) & (v >= 0.0) & (v < intr.height)
    return vis


def covisible_fraction(scene: SceneModel, a: Trajectory, b: Trajectory, far: float = 10.0) -> float:
    """Ground-truth co-visibility of two equal-length trajectories in a scene.

    Per frame: |points visible in both| / |points visible in either|, using
    exact per-point projection visibility (no occlusion) limited to depth
    ``far``; frames where neither camera sees any point contribute 0. The
    result is the mean over frames.
    """
    if len(a) != len(b):
        raise DomainError(f"frame counts differ: {len(a)} vs {len(b)}")
    total = 0.0
    for f, ((pa, ia), (pb, ib)) in enumerate(zip(a.frames, b.frames)):
        va, vb = _visible_mask(scene, f, pa, ia, far), _visible_mask(scene, f, pb, ib, far)
        union = int((va | vb).sum())
        if union:
            total += int((va & vb).sum()) / union
    return total / len(a)


_TRAJ_NAME = "trajectory.json"


def save_frames(seq: FrameSequence, directory: str | Path) -> None:
    """Serialize a FrameSequence to a directory.

    Layout: manifest.json, trajectory.json, and per frame i the raw grids
    frame_{i:04d}.rgb (H*W*3 bytes, row-major uint8 RGB) and
    frame_{i:04d}.ids (H*W*4 bytes, row-major little-endian int32).
    Output bytes depend only on the sequence contents. The manifest is
    written last, so a directory that has one holds every frame it names.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_trajectory(seq.trajectory, directory / _TRAJ_NAME)
    for i in range(seq.frame_count):
        (directory / f"frame_{i:04d}.rgb").write_bytes(np.ascontiguousarray(seq.frames[i]).tobytes())
        (directory / f"frame_{i:04d}.ids").write_bytes(
            np.ascontiguousarray(seq.id_map[i].astype("<i4")).tobytes()
        )
    w, h = seq.trajectory.image_size
    write_json(directory / MANIFEST, {
        "width": w,
        "height": h,
        "frame_count": seq.frame_count,
        "scene_key": seq.scene_key,
        "trajectory": _TRAJ_NAME,
        "rgb_format": "row-major uint8 RGB",
        "id_format": "row-major int32 little-endian",
    })


# Every video manifest field load_frames reads and its JSON type.
_MANIFEST_FIELDS = {"width": positive_int, "height": positive_int, "frame_count": positive_int,
                    "trajectory": str, "scene_key": str | None}


def _fill(path: Path, out: np.ndarray) -> bool:
    """Read file path into the contiguous array out; True iff its size is exactly out.nbytes."""
    with open(path, "rb") as f:
        return f.readinto(memoryview(out).cast("B")) == out.nbytes and not f.read(1)


def load_frames(directory: str | Path) -> FrameSequence:
    """Load a FrameSequence written by save_frames; exact round trip.

    Each frame file is read straight into its slot of the returned arrays.
    The manifest's trajectory path must stay inside directory.
    """
    directory = Path(directory)
    path = directory / MANIFEST
    manifest = check_fields(str(path), read_json(path, "frame-sequence manifest"), _MANIFEST_FIELDS)
    w, h, n = manifest["width"], manifest["height"], manifest["frame_count"]
    traj = load_trajectory(
        inside(directory, manifest["trajectory"], f"{path}: trajectory", "its directory")
    )
    frames = np.empty((n, h, w, 3), dtype=np.uint8)
    ids = np.empty((n, h, w), dtype="<i4")
    for i in range(n):
        if not (_fill(directory / f"frame_{i:04d}.rgb", frames[i])
                and _fill(directory / f"frame_{i:04d}.ids", ids[i])):
            raise DomainError(f"{directory}: frame {i} has unexpected byte length")
    frames.setflags(write=False)
    ids.setflags(write=False)
    return FrameSequence(
        frames=frames, id_map=ids, trajectory=traj, scene_key=manifest.get("scene_key")
    )
