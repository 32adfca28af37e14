"""Deterministic synthetic point scenes and a splat renderer.

This module is the ground-truth side of the package: scenes are clouds of
uniquely id'd colored points (optionally drifting at constant velocity, each
component at most MOVING_SPEED world units per frame), and render() produces
pixel-exact RGB frames plus per-pixel id maps by splatting each point into
the single pixel its projection lands in, nearest depth winning. Everything
is a pure function of (scene, trajectory, start frame), so repeated renders
are bit-identical. save_frames() writes both grids; load_frames() reads back
the id maps only, since every RGB pixel is the color of its id
(BACKGROUND_RGB at background).

covisible_fraction() is the point-visibility oracle used to validate frustum
retrieval: per frame, the fraction |visible in both| / |visible in either|
with visibility meaning in front of the camera, inside the image bounds, and
within the far limit (default 10, matching the frustum far plane so both
measures cover the same region).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .camera import Trajectory, load_trajectory, save_trajectory
from .errors import DomainError
from .records import MANIFEST, check_fields, positive_int, read_json, write_json

BACKGROUND_ID = 0
BACKGROUND_RGB = (128, 128, 128)

# Every scene's center: on the reference optical axis at half the far plane.
DEFAULT_SCENE_CENTER = (0.0, 0.0, 5.0)

# A moving point's velocity components are uniform in [-MOVING_SPEED, MOVING_SPEED].
MOVING_SPEED = 0.02


@dataclass(frozen=True, eq=False)
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
    def scene_key(self) -> str:
        """Content hash identifying the scene (used to reject cross-scene matching)."""
        h = hashlib.sha256()
        for arr in (self.ids, self.positions, self.colors, self.velocities):
            h.update(np.ascontiguousarray(arr).tobytes())
        return "scene-" + h.hexdigest()[:16]

    def positions_at(self, frame: int) -> np.ndarray:
        return self.positions + float(frame) * self.velocities


def check_scene(seed: int, point_count: int, extent: float, moving_fraction: float) -> None:
    """make_scene's rules for its arguments, also SceneConfig's."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if point_count < 1:
        raise DomainError(f"point_count must be >= 1, got {point_count}")
    if extent <= 0.0:
        raise DomainError(f"extent must be positive, got {extent}")
    if not (0.0 <= moving_fraction <= 1.0):
        raise DomainError(f"moving_fraction must lie in [0, 1], got {moving_fraction}")


def make_scene(
    seed: int,
    point_count: int = 1000,
    extent: float = 10.0,
    moving_fraction: float = 0.0,
) -> SceneModel:
    """Uniform random point scene inside a cube of side ``extent`` about DEFAULT_SCENE_CENTER.

    A moving_fraction of points receive constant random velocities with
    components uniform in [-MOVING_SPEED, MOVING_SPEED]. Same seed and
    parameters always produce the identical scene.
    """
    check_scene(seed, point_count, extent, moving_fraction)
    rng = np.random.default_rng(seed)
    positions = np.add(DEFAULT_SCENE_CENTER, (rng.random((point_count, 3)) - 0.5) * extent)
    colors = rng.integers(0, 256, size=(point_count, 3), dtype=np.int64).astype(np.uint8)
    velocities = np.zeros((point_count, 3))
    n_moving = int(round(moving_fraction * point_count))
    if n_moving > 0:
        idx = rng.choice(point_count, size=n_moving, replace=False)
        velocities[idx] = rng.uniform(-MOVING_SPEED, MOVING_SPEED, size=(n_moving, 3))
    return SceneModel(
        ids=np.arange(1, point_count + 1, dtype=np.int32),
        positions=positions, colors=colors, velocities=velocities, seed=seed,
    )


def _integers(a: object, dtype: type, what: str) -> np.ndarray:
    """a as a dtype array, or DomainError unless a is integer-typed and dtype holds its values.

    Values are read only when the cast might change one.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        raise DomainError(f"{what} must have an integer dtype, got {a.dtype}")
    if not np.can_cast(a.dtype, dtype):
        info = np.iinfo(dtype)
        if a.size and not (info.min <= a.min() and a.max() <= info.max):
            raise DomainError(f"{what} holds values in [{a.min()}, {a.max()}], outside "
                              f"{info.dtype}'s [{info.min}, {info.max}]")
    return a.astype(dtype, copy=False)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself if it is read-only and owns its memory, else a read-only copy of it."""
    if arr.flags.writeable or arr.base is not None:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


# Pixels per hit-list block: FrameSequence._hits masks max(1, _HIT_BLOCK // (H*W))
# frames at a time, so its scratch is about 256 KiB (12 frames of 192x108) whatever
# the video's length.
_HIT_BLOCK = 1 << 18


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Rendered video: RGB frames (F, H, W, 3) uint8 and id maps (F, H, W) int32.

    frames is None for a video that load_frames read back: it loads id maps
    alone, since each RGB pixel is a function of its id. Each array must have an
    integer dtype and values its type holds; nothing is wrapped or
    truncated. Both arrays are read-only. An array that is already read-only
    and owns its memory is adopted as it is; a writable array or a view is
    copied, so later writes through the caller's array never reach the
    sequence.
    """

    frames: np.ndarray | None
    id_map: np.ndarray
    trajectory: Trajectory
    scene_key: str | None = None

    def __post_init__(self) -> None:
        frames = None if self.frames is None else _integers(self.frames, np.uint8, "frames")
        ids = _integers(self.id_map, np.int32, "id map")
        w, h = self.trajectory.image_size
        f = len(self.trajectory)
        if frames is not None and frames.shape != (f, h, w, 3):
            raise DomainError(f"frames shape {frames.shape} != {(f, h, w, 3)} from trajectory")
        if ids.shape != (f, h, w):
            raise DomainError(f"id map shape {ids.shape} != {(f, h, w)} from trajectory")
        if frames is not None:
            object.__setattr__(self, "frames", _read_only(frames))
        object.__setattr__(self, "id_map", _read_only(ids))

    @property
    def frame_count(self) -> int:
        return int(self.id_map.shape[0])

    @cached_property
    def _hits(self) -> tuple[np.ndarray, np.ndarray]:
        """The hit list: the ids of id_map's non-background pixels in C order, and
        each frame's count of them.

        Made at first use and kept, since id_map is read-only, so a video that
        several sync pairs name is reduced once.
        """
        f, h, w = self.id_map.shape
        step = max(1, _HIT_BLOCK // (h * w))
        ids, counts = [], []
        for s in range(0, f, step):
            block = self.id_map[s:s + step].reshape(-1)
            pos = np.flatnonzero(block != BACKGROUND_ID)
            ids.append(block[pos])
            counts.append(np.diff(np.searchsorted(pos, np.arange(0, block.size + 1, h * w))))
        return np.concatenate(ids), np.concatenate(counts)


# Points per projection block: a block holds max(1, _BLOCK_POINTS // N) frames
# of an N-point scene, so its scratch is bounded by the budget, not by the
# video's length. 16,384 is 16 frames of the default 1,000-point scene; 4,096
# rendered a 93-frame video about 15% slower, 8,192 to 32,768 alike.
_BLOCK_POINTS = 16384

# One RGB pixel as a single 3-byte item, so a color scatter moves whole pixels.
_RGB = np.dtype((np.void, 3))


def _projected_blocks(
    scene: SceneModel, traj: Trajectory, start: int
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Per block of traj's frames: its slice and the scene's image coordinates u, v and depth z.

    Each of u, v, z is (B, N) and is overwritten by the next block. Row f is
    the scene at time start + f seen by camera f, computed as
    (scene.positions_at(start + f) - center) @ rotation per frame would be:
    the same (N, 3) @ (3, 3) operand order, so bit for bit. z <= 0 wherever
    a point is at or behind the camera plane; u, v are only meaningful where
    z > 0.
    """
    rotations, centers = traj.pose_stack
    intrinsics = traj.intrinsics_stack
    n = len(scene.ids)
    step = max(1, _BLOCK_POINTS // n)
    b = min(step, len(traj))
    bufs, uvs = np.empty((2, b, n, 3)), np.empty((2, b, n))
    for f in range(0, len(traj), step):
        blk = slice(f, min(f + step, len(traj)))
        pts, local = bufs[:, :blk.stop - f]
        u, v = uvs[:, :blk.stop - f]
        times = np.arange(start + f, start + blk.stop).astype(np.float64)
        flat = pts.reshape(len(pts), -1)
        np.multiply(times[:, None], scene.velocities.reshape(-1), out=flat)
        flat += scene.positions.reshape(-1)
        for axis in range(3):
            pts[..., axis] -= centers[blk, axis, None]
        np.matmul(pts, rotations[blk], out=local)
        z = local[..., 2]
        fx, fy, cx, cy = intrinsics[blk].T[:, :, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(fx, local[..., 0], out=u)
            np.multiply(fy, local[..., 1], out=v)
            u /= z
            v /= z
        u += cx
        v += cy
        yield blk, u, v, z


def render(scene: SceneModel, traj: Trajectory, start: int = 0) -> FrameSequence:
    """Render the scene along a trajectory with a 1-pixel splat depth buffer.

    Points at or behind the camera plane and projections outside the image
    are skipped. When several points land in one pixel the nearest depth
    wins; exact depth ties go to the smallest point id. Unhit pixels keep
    the background id 0 and mid-gray color.

    traj's frame f shows the scene at time start + f, so a chunk of a longer
    trajectory, rendered from the chunk's start frame, equals those frames of
    a render of the whole trajectory.
    """
    w, h = traj.image_size
    n_frames = len(traj)
    frames = np.full((n_frames, h, w, 3), BACKGROUND_RGB[0], dtype=np.uint8)
    id_map = np.full((n_frames, h, w), BACKGROUND_ID, dtype=np.int32)
    for blk, u, v, z in _projected_blocks(scene, traj, start):
        _splat(scene, u, v, z, id_map[blk], frames[blk])
    frames.setflags(write=False)
    id_map.setflags(write=False)
    return FrameSequence(frames=frames, id_map=id_map, trajectory=traj, scene_key=scene.scene_key)


def _splat(
    scene: SceneModel, u: np.ndarray, v: np.ndarray, z: np.ndarray,
    id_map: np.ndarray, frames: np.ndarray,
) -> None:
    """Write the winning point's id and color into each hit pixel of a block of frames.

    u, v, z are the block's (B, N) projections, id_map its (B, H, W) ids and
    frames its (B, H, W, 3) RGB. The scratch is freed on return, so render's
    peak is one block's whatever the video's length.
    """
    h, w = id_map.shape[1:]
    # w and h are integers, so floor(u) lies in [0, w) exactly when u does
    keep = z > 0.0
    keep &= (u >= 0.0) & (u < w) & (v >= 0.0) & (v < h)
    fi, pi = np.nonzero(keep)
    # u, v >= 0 here, so truncation is floor
    pix = fi * (h * w)
    pix += v[keep].astype(np.int64) * w
    pix += u[keep].astype(np.int64)
    # Scatter each candidate's index and read it back: a pixel keeps one of
    # its candidates' indices, so every other candidate there sees it lost.
    flat_ids = id_map.reshape(-1)
    idx = np.arange(len(pix), dtype=np.int32)
    flat_ids[pix] = idx
    rep = flat_ids[pix]
    shared = rep != idx
    if shared.any():
        shared[rep[shared]] = True  # the candidate whose index was kept collided too
        # Among each collided pixel's candidates the nearest win, then the smallest id.
        s = np.flatnonzero(shared)
        z_s, rep_s = z[fi[s], pi[s]], rep[s]
        nearest = np.full(len(pix), np.inf)
        np.minimum.at(nearest, rep_s, z_s)
        near = s[z_s == nearest[rep_s]]
        ids_n, rep_n = scene.ids[pi[near]], rep[near]
        least = np.full(len(pix), np.iinfo(np.int32).max, dtype=np.int32)
        np.minimum.at(least, rep_n, ids_n)
        shared[near[ids_n == least[rep_n]]] = False
        pix, pi = pix[~shared], pi[~shared]
    flat_ids[pix] = scene.ids[pi]
    frames.view(_RGB).reshape(-1)[pix] = scene.colors.view(_RGB)[pi, 0]


def _visible_masks(scene: SceneModel, traj: Trajectory, far: float) -> Iterator[np.ndarray]:
    """Per block of frames, the (B, N) mask of the points traj's camera sees within depth far."""
    w, h = traj.image_size
    for _, u, v, z in _projected_blocks(scene, traj, 0):
        yield (z > 0.0) & (z <= far) & (u >= 0.0) & (u < w) & (v >= 0.0) & (v < h)


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
    for va, vb in zip(_visible_masks(scene, a, far), _visible_masks(scene, b, far)):
        unions = np.count_nonzero(va | vb, axis=1).tolist()
        for inter, union in zip(np.count_nonzero(va & vb, axis=1).tolist(), unions):
            if union:
                total += inter / union
    return total / len(a)


_TRAJ_NAME = "trajectory.json"
_EXTS = ("rgb", "ids")  # a frame's two files, in the order save_frames makes them


def _row_keys(traj: Trajectory) -> list[int]:
    """Per frame of traj, a hash of its rotation, center, intrinsics and image size.

    An int is a far smaller key than the row's 128 bytes, and a run records every frame.
    """
    rotations, centers = traj.pose_stack
    rows = np.concatenate([rotations.reshape(-1, 9), centers, traj.intrinsics_stack], axis=1)
    raw, size = rows.tobytes(), rows.shape[1] * rows.itemsize
    w, h = traj.image_size
    return [hash((w, h, raw[i:i + size])) for i in range(0, len(raw), size)]


def _create(path: str, data: np.ndarray) -> None:
    """Write the contiguous array data to a new file at path.

    A name already there is removed first, never written through, so a file
    that another name shares keeps its bytes.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(path, flags, 0o666)
    except FileExistsError:
        os.unlink(path)
        fd = os.open(path, flags, 0o666)
    try:
        view = memoryview(data).cast("B")
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _holds(prefix: str, pair: tuple[np.ndarray, np.ndarray]) -> bool:
    """True iff the files prefix.rgb and prefix.ids hold exactly pair's bytes."""
    for ext, data in zip(_EXTS, pair):
        buf = np.empty_like(data)
        if not (_fill(f"{prefix}.{ext}", buf) and np.array_equal(buf, data)):
            return False
    return True


def _link(src: str, dst: str) -> bool:
    """Hard-link dst to src, replacing a name already at dst.

    False if the file system refuses the link (EPERM, EMLINK, EXDEV, ENOTSUP);
    the caller then writes the file instead.
    """
    try:
        try:
            os.link(src, dst)
        except FileExistsError:
            os.unlink(dst)
            os.link(src, dst)
    except OSError:
        return False
    return True


def save_frames(
    seq: FrameSequence, directory: str | Path, *, written: dict[int, tuple[str, int]] | None = None
) -> None:
    """Serialize a FrameSequence to a directory.

    Layout: manifest.json, trajectory.json, and per frame i the raw grids
    frame_{i:04d}.rgb (H*W*3 bytes, row-major uint8 RGB) and
    frame_{i:04d}.ids (H*W*4 bytes, row-major little-endian int32).
    Output bytes depend only on the sequence contents. The manifest is
    written last, so a directory that has one holds every frame it names.

    Twins are looked up by trajectory row, not by content. A frame is
    hard-linked to the pair written earlier, in this video or by a call given
    the same written, for the same trajectory row (rotation, center,
    intrinsics and image size), if that pair's files hold exactly the frame's
    bytes. So an equal pose at another time of a moving scene is written, and
    so is a frame whose bytes equal a pair of another row. written, which only
    save_frames reads and fills, records a run's closed pairs by a hash of
    their trajectory row: pass one dict, empty at first, to every call of a
    run, from any thread. Equal frame files may thus share an inode: editing
    one in place edits its twins, while ``cp -r`` or ``shutil.copytree``
    copies them apart.
    A name already in directory is removed, never written through. A
    sequence without RGB (frames None) or without a scene key is refused before
    anything is written.
    """
    if seq.frames is None:
        raise DomainError("cannot save a frame sequence without RGB frames")
    if seq.scene_key is None:
        raise DomainError("cannot save a frame sequence without a scene key")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_trajectory(seq.trajectory, directory / _TRAJ_NAME)
    if written is None:
        written = {}
    keys = _row_keys(seq.trajectory)
    base = str(directory)
    # each frame is written from the sequence's own memory, without a copy
    for i in range(seq.frame_count):
        name = f"{base}{os.sep}frame_{i:04d}"
        pair = np.ascontiguousarray(seq.frames[i]), np.ascontiguousarray(seq.id_map[i], "<i4")
        twin = written.get(keys[i])
        if twin is not None:
            twin_name = f"{twin[0]}{os.sep}frame_{twin[1]:04d}"
            if _holds(twin_name, pair) and all(
                    _link(f"{twin_name}.{ext}", f"{name}.{ext}") for ext in _EXTS):
                continue
        for ext, data in zip(_EXTS, pair):
            _create(f"{name}.{ext}", data)
        written[keys[i]] = base, i  # base is one str per video, shared by its entries
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
                    "trajectory": str, "scene_key": str}


def _fill(path: str, out: np.ndarray) -> bool:
    """Read file path into the contiguous array out; True iff its size is exactly out.nbytes.

    Bare syscalls, no file object: fstat(2) checks the length, then one readv(2)
    fills out, as Linux fills regular-file reads of up to 2 GiB.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.fstat(fd).st_size == out.nbytes and os.readv(fd, [out]) == out.nbytes
    finally:
        os.close(fd)


def load_frames(
    directory: str | Path, *, skip: int = 0, expect: Trajectory | None = None
) -> FrameSequence:
    """Load the id maps of the video save_frames wrote to directory, from frame skip on.

    The manifest must name trajectory.json, whose trajectory must match its
    frame count and size. The result holds the id maps of frames skip to
    F - 1, each file read straight into its slot, paired with that slice of
    the trajectory; skip must lie in [0, F). Its frames is None: no .rgb file
    is read, and neither are the .ids files of the first skip frames, but
    every file must still have its exact byte length.

    With expect, the video's whole trajectory must equal it: every pose and
    intrinsic, the frame count and the image size. This is checked before any
    frame buffer is allocated.
    """
    directory = Path(directory)
    path = directory / MANIFEST
    manifest = check_fields(str(path), read_json(path, "frame-sequence manifest"), _MANIFEST_FIELDS)
    w, h, n = manifest["width"], manifest["height"], manifest["frame_count"]
    ref = manifest["trajectory"]
    if ref != _TRAJ_NAME:
        raise DomainError(f"{path}: 'trajectory' must be {_TRAJ_NAME!r}, got {ref!r}")
    traj = load_trajectory(directory / _TRAJ_NAME)
    if (n, (w, h)) != (len(traj), traj.image_size):
        raise DomainError(f"{directory}: manifest has {n} frames of {w}x{h}, its trajectory "
                          "{} frames of {}x{}".format(len(traj), *traj.image_size))
    kept = traj.slice_frames(skip, n)
    if expect is not None and not (traj.image_size == expect.image_size and all(map(
            np.array_equal, (*traj.pose_stack, traj.intrinsics_stack),
            (*expect.pose_stack, expect.intrinsics_stack)))):
        raise DomainError(f"{directory}: its video follows {n} frames of {w}x{h}, but the "
                          "trajectory expected of it has {} frames of {}x{}; the two must be "
                          "identical".format(len(expect), *expect.image_size))
    ids = np.empty((n - skip, h, w), dtype="<i4")
    prefix = f"{directory}{os.sep}frame_"
    for i in range(n):
        id_path = f"{prefix}{i:04d}.ids"
        if not (os.stat(f"{prefix}{i:04d}.rgb").st_size == h * w * 3
                and (_fill(id_path, ids[i - skip]) if i >= skip
                     else os.stat(id_path).st_size == h * w * 4)):
            raise DomainError(f"{directory}: frame {i} has unexpected byte length")
    ids.setflags(write=False)
    return FrameSequence(
        frames=None, id_map=ids, trajectory=kept, scene_key=manifest["scene_key"]
    )
