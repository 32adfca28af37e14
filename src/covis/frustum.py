"""View frustums, stratified point sampling, and frame co-visibility.

A frustum is the pyramid of view of a camera: apex at the camera center,
oriented by the camera-to-world rotation, bounded laterally by the horizontal
and vertical field-of-view half angles and in depth by near/far planes.
Containment uses closed inequalities, so boundary points count as inside.

Co-visibility between two frames is estimated by sampling a fixed lattice of
points inside each frustum and counting how many fall inside the other:

    score = (|samples(a) in b| + |samples(b) in a|) / (2 P)

which is symmetric by construction and exactly rigid-invariant because the
samples are generated in the frustum's local frame. All functions here are
pure; scoring many frustum pairs in parallel is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .camera import CameraPose
from .errors import DomainError


@dataclass(frozen=True)
class FrustumParams:
    """Frustum shape shared by every frame: full FOV angles and depth range.

    Defaults are the reference values used throughout: 90 degree horizontal
    and 60 degree vertical field of view, depth range [0, 10].
    """

    fov_h: float = math.pi / 2
    fov_v: float = math.pi / 3
    near: float = 0.0
    far: float = 10.0

    def __post_init__(self) -> None:
        _check_frustum_params(self.fov_h, self.fov_v, self.near, self.far)


def _check_frustum_params(fov_h: float, fov_v: float, near: float, far: float) -> None:
    if not (0.0 < fov_h < math.pi and 0.0 < fov_v < math.pi):
        raise DomainError(f"FOV angles must lie in (0, pi), got fov_h={fov_h}, fov_v={fov_v}")
    if not (0.0 <= near < far):
        raise DomainError(f"need 0 <= near < far, got near={near}, far={far}")


@dataclass(frozen=True, eq=False)
class Frustum:
    """View frustum: apex, world orientation (camera-to-world), FOVs, depth range."""

    apex: np.ndarray
    orientation: np.ndarray
    fov_h: float
    fov_v: float
    near: float
    far: float

    def __post_init__(self) -> None:
        apex = np.array(self.apex, dtype=np.float64, copy=True)
        orient = np.array(self.orientation, dtype=np.float64, copy=True)
        if apex.shape != (3,) or orient.shape != (3, 3):
            raise DomainError("frustum needs a 3-vector apex and a 3x3 orientation")
        _check_frustum_params(self.fov_h, self.fov_v, self.near, self.far)
        apex.setflags(write=False)
        orient.setflags(write=False)
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "orientation", orient)


def build_frustum(
    pose: CameraPose,
    fov_h: float = FrustumParams.fov_h,
    fov_v: float = FrustumParams.fov_v,
    near: float = FrustumParams.near,
    far: float = FrustumParams.far,
) -> Frustum:
    """Frustum of a camera pose; apex is the camera center."""
    return Frustum(
        apex=pose.translation, orientation=pose.rotation,
        fov_h=fov_h, fov_v=fov_v, near=near, far=far,
    )


def contains_points(fr: Frustum, points: np.ndarray) -> np.ndarray:
    """Boolean mask of which points (N, 3) lie inside the frustum (boundaries in)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DomainError(f"expected points of shape (N, 3), got {points.shape}")
    return _inside_local((points - fr.apex) @ fr.orientation, fr.fov_h, fr.fov_v, fr.near, fr.far)


def _inside_local(
    local: np.ndarray, fov_h: float, fov_v: float, near: float, far: float
) -> np.ndarray:
    """Containment mask of points (..., 3) already in a frustum's local frame."""
    depth = local[..., 2]
    ok = (depth >= near) & (depth <= far)
    ok &= np.abs(local[..., 0]) <= depth * math.tan(fov_h / 2.0)
    ok &= np.abs(local[..., 1]) <= depth * math.tan(fov_v / 2.0)
    return ok


@dataclass(frozen=True)
class SamplerConfig:
    """Stratified frustum sampler: grid_w x grid_h lattice per depth slice.

    Point count P = grid_w * grid_h * depth_slices. Without jitter_seed the
    sampler is fully deterministic (cell centers); with a seed each point is
    jittered uniformly within its cell, reproducibly for that seed.
    """

    grid_w: int = 8
    grid_h: int = 6
    depth_slices: int = 8
    jitter_seed: int | None = None

    def __post_init__(self) -> None:
        if self.grid_w < 1 or self.grid_h < 1 or self.depth_slices < 1:
            raise DomainError(
                f"sampler grid must be >= 1 in every dimension, got "
                f"{self.grid_w}x{self.grid_h}x{self.depth_slices}"
            )

    @property
    def point_count(self) -> int:
        return self.grid_w * self.grid_h * self.depth_slices


@lru_cache(maxsize=256)
def _local_lattice(
    grid_w: int, grid_h: int, depth_slices: int, jitter_seed: int | None,
    fov_h: float, fov_v: float, near: float, far: float,
) -> np.ndarray:
    """Sample lattice in the frustum's local frame, shape (P, 3), read-only.

    Depth slices are uniform strata of (near, far); slice centers avoid the
    degenerate apex slice even when near = 0. Lateral cells span the
    cross-section at each point's own depth, so every point is inside.
    """
    s, gh, gw = depth_slices, grid_h, grid_w
    if jitter_seed is None:
        zf = (np.arange(s) + 0.5) / s
        uf = (np.arange(gw) + 0.5) / gw
        vf = (np.arange(gh) + 0.5) / gh
        z = near + zf * (far - near)
        z = np.broadcast_to(z[:, None, None], (s, gh, gw))
        u = np.broadcast_to(uf[None, None, :], (s, gh, gw))
        v = np.broadcast_to(vf[None, :, None], (s, gh, gw))
    else:
        rng = np.random.default_rng(jitter_seed)
        zf = (np.arange(s)[:, None, None] + rng.random((s, gh, gw))) / s
        u = (np.arange(gw)[None, None, :] + rng.random((s, gh, gw))) / gw
        v = (np.arange(gh)[None, :, None] + rng.random((s, gh, gw))) / gh
        z = near + zf * (far - near)
    x = (2.0 * u - 1.0) * z * math.tan(fov_h / 2.0)
    y = (2.0 * v - 1.0) * z * math.tan(fov_v / 2.0)
    pts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    pts.setflags(write=False)
    return pts


def sample_points(fr: Frustum, cfg: SamplerConfig = SamplerConfig()) -> np.ndarray:
    """Stratified sample of P points inside the frustum, shape (P, 3).

    Deterministic for a given (frustum, cfg): repeated calls return identical
    arrays, and every returned point satisfies contains_points().
    """
    local = _local_lattice(
        cfg.grid_w, cfg.grid_h, cfg.depth_slices, cfg.jitter_seed,
        fr.fov_h, fr.fov_v, fr.near, fr.far,
    )
    return fr.apex + local @ fr.orientation.T


def frame_covisibility(a: Frustum, b: Frustum, cfg: SamplerConfig = SamplerConfig()) -> float:
    """Symmetric co-visibility score of two frustums in [0, 1]."""
    in_b = int(contains_points(b, sample_points(a, cfg)).sum())
    in_a = int(contains_points(a, sample_points(b, cfg)).sum())
    return (in_b + in_a) / (2.0 * cfg.point_count)


# Samples per kernel block. 12,288 (32 frames of the default 384-point
# lattice) keep each (frames, 3, P) temporary near 300 KB, so a block stays in
# a core's L2 cache; one 93-frame block ran about 2x slower per frame.
_BLOCK_SAMPLES = 12288


def pool_covisibility(
    rot_a: np.ndarray, cen_a: np.ndarray, stacks: list[tuple[np.ndarray, np.ndarray]],
    cfg: SamplerConfig = SamplerConfig(), params: FrustumParams = FrustumParams(),
) -> np.ndarray:
    """Per-frame co-visibility of stack a against each (rotations, centers) stack, (E, F).

    Rotations are (F, 3, 3), apexes (F, 3), every frustum shaped by params.
    Element [e, f] equals frame_covisibility of frame f of a and of entry e
    bit for bit (see _view_local). Blocks of frames are the outer loop, so a's
    world samples are built once per block for the whole pool. Scratch is per call.
    """
    shape = (params.fov_h, params.fov_v, params.near, params.far)
    lattice = _local_lattice(cfg.grid_w, cfg.grid_h, cfg.depth_slices, cfg.jitter_seed, *shape).T
    step = max(1, _BLOCK_SAMPLES // cfg.point_count)
    counts = np.zeros((len(stacks), len(rot_a)), dtype=np.int64)
    bufs = [np.empty((min(step, len(rot_a)), 3, cfg.point_count)) for _ in range(4)]
    for f in range(0, len(rot_a), step):
        blk = slice(f, f + step)
        world_a, world_b, buf, loc = (b[:len(rot_a[blk])] for b in bufs)
        _world_samples(lattice, rot_a[blk], cen_a[blk], world_a)
        for e, (rot_b, cen_b) in enumerate(stacks):
            _world_samples(lattice, rot_b[blk], cen_b[blk], world_b)
            for world, rot_v, cen_v in ((world_a, rot_b, cen_b), (world_b, rot_a, cen_a)):
                local = _view_local(world, rot_v[blk], cen_v[blk], buf, loc)
                counts[e, blk] += np.count_nonzero(_inside_local(local, *shape), axis=1)
    return counts / (2.0 * cfg.point_count)


def _world_samples(lattice: np.ndarray, rot: np.ndarray, cen: np.ndarray, out: np.ndarray) -> None:
    """Lattice (3, P) placed in frustums (rot, cen), written to out as (n, 3, P)."""
    np.matmul(rot, lattice, out=out)
    out += cen[:, :, None]


def _view_local(world, rot_v, cen_v, buf, loc) -> np.ndarray:
    """World samples (n, 3, P) in frustums (rot_v, cen_v)'s local frames, (n, P, 3) view of loc.

    Frame f equals (sample_points(s_f) - v_f.apex) @ v_f.orientation bit for
    bit: the same (P, 3) @ (3, 3) operand order. A contiguous rot_v^T @ buf
    misses in the last bit at P = 1, where numpy takes its matrix-vector path.
    """
    np.subtract(world, cen_v[:, :, None], out=buf)
    return np.matmul(buf.transpose(0, 2, 1), rot_v, out=loc.transpose(0, 2, 1))
