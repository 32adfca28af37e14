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

pool_covisibility scores many frame pairs at once. Each lattice ray's points
inside the other frustum form one run of depth slices, so it counts per ray,
not per point. It calls frame_covisibility itself on a frame pair where
rounding could decide a point's side of a plane, and on every pair of a
jittered sampler, so every score equals frame_covisibility's bit for bit.
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
    if not all(map(math.isfinite, (fov_h, fov_v, near, far))):
        raise DomainError(f"frustum values must be finite, got fov_h={fov_h}, fov_v={fov_v}, "
                          f"near={near}, far={far}")
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
        if not (np.isfinite(apex).all() and np.isfinite(orient).all()):
            raise DomainError("frustum apex and orientation must be finite")
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
    local = (points - fr.apex) @ fr.orientation
    depth = local[:, 2]
    ok = (depth >= fr.near) & (depth <= fr.far)
    ok &= np.abs(local[:, 0]) <= depth * math.tan(fr.fov_h / 2.0)
    ok &= np.abs(local[:, 1]) <= depth * math.tan(fr.fov_v / 2.0)
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
        if self.jitter_seed is not None and self.jitter_seed < 0:
            raise DomainError(f"jitter_seed must be null or >= 0, got {self.jitter_seed}")

    @property
    def point_count(self) -> int:
        return self.grid_w * self.grid_h * self.depth_slices


@lru_cache(maxsize=256)
def _local_lattice(cfg: SamplerConfig, fov_h: float, fov_v: float, near: float, far: float) -> np.ndarray:
    """Sample lattice in the frustum's local frame, shape (P, 3), read-only.

    Depth slices are uniform strata of (near, far); slice centers avoid the
    degenerate apex slice even when near = 0. Lateral cells span the
    cross-section at each point's own depth, so every point is inside.
    """
    s, gh, gw = cfg.depth_slices, cfg.grid_h, cfg.grid_w
    if cfg.jitter_seed is None:
        zf = (np.arange(s) + 0.5) / s
        uf = (np.arange(gw) + 0.5) / gw
        vf = (np.arange(gh) + 0.5) / gh
        z = near + zf * (far - near)
        z = np.broadcast_to(z[:, None, None], (s, gh, gw))
        u = np.broadcast_to(uf[None, None, :], (s, gh, gw))
        v = np.broadcast_to(vf[None, :, None], (s, gh, gw))
    else:
        rng = np.random.default_rng(cfg.jitter_seed)
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
    local = _local_lattice(cfg, fr.fov_h, fr.fov_v, fr.near, fr.far)
    return fr.apex + local @ fr.orientation.T


def frame_covisibility(a: Frustum, b: Frustum, cfg: SamplerConfig = SamplerConfig()) -> float:
    """Symmetric co-visibility score of two frustums in [0, 1]."""
    in_b = int(contains_points(b, sample_points(a, cfg)).sum())
    in_a = int(contains_points(a, sample_points(b, cfg)).sum())
    return (in_b + in_a) / (2.0 * cfg.point_count)


# Ray cells (directed pair, ray) per ray-kernel block: 64 frame pairs of the
# default 48-ray lattice, both directions.
_BLOCK_RAYS = 6144
# Blocks whose per-pair 3x3 algebra is done in one pass.
_SETUP_BLOCKS = 16

# The ray kernel leaves a pair to frame_covisibility when a plane's slope is
# below _SLOPE_MIN per unit depth, or when a ray's final bound lies within
# _ROUNDING K / min |a| of an in-range slice index: 128 times the rounding
# bound 2^-47 K that _ray_counts derives.
_SLOPE_MIN = 1e-6
_ROUNDING = 2.0**-40


def pool_covisibility(
    rot_a: np.ndarray, cen_a: np.ndarray, stacks: list[tuple[np.ndarray, np.ndarray]],
    cfg: SamplerConfig = SamplerConfig(), params: FrustumParams = FrustumParams(),
) -> np.ndarray:
    """Per-frame co-visibility of stack a against each (rotations, centers) stack, (E, F).

    Rotations are orthonormal (F, 3, 3), apexes (F, 3), every frustum shaped
    by params. Element [e, f] equals frame_covisibility of frame f of a and of
    entry e bit for bit, since both divide the same integer count by 2P. The
    ray kernel (_ray_counts) counts all of a lattice ray's slices at once. An
    entry-frame where a slice point lies too near a plane for that count to be
    certain, and every entry-frame of a jittered lattice, which has no rays, is
    scored by frame_covisibility on that frame pair.
    """
    shape = (params.fov_h, params.fov_v, params.near, params.far)
    frames = len(rot_a)
    if any(len(r) != frames or len(c) != frames for r, c in stacks):
        raise DomainError(f"every pool entry needs the target's {frames} frames")
    if not stacks:
        return np.zeros((0, frames))
    rot_b = np.concatenate([r for r, _ in stacks])
    cen_b = np.concatenate([c for _, c in stacks])
    if cfg.jitter_seed is None:
        counts, fragile = _ray_counts(rot_a, cen_a, rot_b, cen_b, cfg, params)
    else:
        counts, fragile = np.zeros(len(rot_b)), np.arange(len(rot_b))
    counts /= 2.0 * cfg.point_count
    for p in fragile:
        counts[p] = frame_covisibility(Frustum(cen_a[p % frames], rot_a[p % frames], *shape),
                                       Frustum(cen_b[p], rot_b[p], *shape), cfg)
    return counts.reshape(len(stacks), frames)


def _ray_counts(rot_a, cen_a, rot_b, cen_b, cfg, params) -> tuple[np.ndarray, np.ndarray]:
    """Lattice counts of the pairs (frame p % F of a, row p of b), and the fragile pairs.

    A ray of frustum s has local direction r = ((2u-1) Th, (2v-1) Tv, 1), with
    Th = tan(fov_h/2) and Tv = tan(fov_v/2), and holds the slice points z_k r,
    z_k = z_0 + k dz. In frustum v's frame they are z_k d + t, with
    d = R_v^T R_s r and t = R_v^T (c_s - c_v). So each of v's six planes
    n.l + o >= 0 reads a k + b >= 0, with a = dz n.d and b = z_0 n.d + n.t + o.
    The slices inside are the integers of [0, S) from the largest -b/a over
    planes with a > 0 to the smallest over planes with a < 0.

    Rounding: each plane value, slope and bound computed here or in
    frame_covisibility comes through fewer than 64 roundings. Each is off by at
    most 2^-53 times a magnitude no larger than K = 3 (1 + Th + Tv) (far (1 +
    Th + Tv) + |c_a| + |c_b|), with max norms over the call and |R_ij| <= 1.
    So at every slice k frame_covisibility's plane value and the computed
    a k + b differ by less than 2^-47 K. A pair is fragile when, in either
    direction, some ray's final bound lies within 2^-40 K / min |a| of an
    in-range slice index, or min |a| < 1e-6 dz would leave -b/a unbounded.
    Otherwise, at every slice, every plane's a k + b is more than 2^-40 K from
    zero (the final planes by the test, the others because their bounds lie
    further out), 128 times the rounding, so both put each slice point on the
    same side of every plane and count alike. Fragile counts are undefined.
    """
    s, total, frames = cfg.depth_slices, len(rot_b), len(rot_a)
    near, far = params.near, params.far
    th, tv = math.tan(params.fov_h / 2.0), math.tan(params.fov_v / 2.0)
    dz = (far - near) / s
    # v's planes as rows (n, o): near, far, then the four sides
    normals = np.array([[0, 0, 1], [0, 0, -1], [-1, 0, th], [1, 0, th], [0, -1, tv], [0, 1, tv]],
                       dtype=np.float64)
    offsets = np.array([-near, far, 0, 0, 0, 0])[:, None]
    # rows giving a (times dz) and -b (times -z_0) from M = R_v^T R_s
    rows = np.concatenate([normals * dz, normals * -(near + 0.5 * dz)])
    u = (2.0 * (np.arange(cfg.grid_w) + 0.5) / cfg.grid_w - 1.0) * th
    v = (2.0 * (np.arange(cfg.grid_h) + 0.5) / cfg.grid_h - 1.0) * tv
    rays = np.stack([np.tile(u, cfg.grid_h), np.repeat(v, cfg.grid_w), np.ones(u.size * v.size)])
    j = rays.shape[1]
    n = min(total, max(1, _BLOCK_RAYS // (2 * j)))
    nb = min(_SETUP_BLOCKS, -(-total // n))
    # one scratch set serves every pass; the last pass repeats the last pair
    ra, rb = np.empty((nb, n, 3, 3)), np.empty((nb, n, 3, 3))
    ca, cb = np.empty((nb, n, 3)), np.empty((nb, n, 3))
    # M and t of each block's directed pairs, component-major: m[., k, ., p, c] = M_p[k, c]
    m, t = np.empty((nb, 3, 2, n, 3)), np.empty((nb, 3, 2, n))
    beta = np.empty((nb, 6, 2 * n))
    w, g = np.empty((nb, 2, 6, 2 * n, 3)), np.empty((2, 6, 2 * n, j))
    cand = np.empty((6, 2 * n, j))
    lohi, dist = np.empty((2, 2 * n, j)), np.empty((2, 2 * n, j))
    amin, gap = np.empty((2 * n, j)), np.empty((2 * n, j))
    flags = np.empty((2, 2 * n, j), dtype=bool)
    rowsum = np.empty(2 * n)
    reach = far * (1.0 + th + tv) + max(cen_a.max(), -cen_a.min()) + max(cen_b.max(), -cen_b.min())
    tol = _ROUNDING * 3.0 * (1.0 + th + tv) * reach
    counts, fragile = np.empty(total), []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for q0 in range(0, total, nb * n):
            idx = np.minimum(np.arange(q0, q0 + nb * n), total - 1)
            np.take(rot_b, idx, axis=0, out=rb.reshape(-1, 3, 3))
            np.take(cen_b, idx, axis=0, out=cb.reshape(-1, 3))
            np.take(rot_a, idx % frames, axis=0, out=ra.reshape(-1, 3, 3))
            np.take(cen_a, idx % frames, axis=0, out=ca.reshape(-1, 3))
            # in each block, pairs [:n] look at a's rays from b and [n:] at b's from a
            np.matmul(rb.swapaxes(2, 3), ra, out=m[:, :, 0].swapaxes(1, 2))
            np.copyto(m[:, :, 1], m[:, :, 0].transpose(0, 3, 2, 1))
            np.subtract(ca, cb, out=ca)
            np.matmul(rb.swapaxes(2, 3), ca[..., None], out=t[:, :, 0].swapaxes(1, 2)[..., None])
            np.matmul(ra.swapaxes(2, 3), ca[..., None], out=t[:, :, 1].swapaxes(1, 2)[..., None])
            np.negative(t[:, :, 1], out=t[:, :, 1])
            # plane-major rows of a and of -b; r's z component is 1, so n.t + o joins column z
            np.matmul(rows, m.reshape(nb, 3, -1), out=w.reshape(nb, 12, -1))
            np.matmul(normals, t.reshape(nb, 3, -1), out=beta)
            beta += offsets
            w[:, 1, :, :, 2] -= beta
            for blk, p0 in enumerate(range(q0, min(q0 + nb * n, total), n)):
                np.matmul(w[blk].reshape(-1, 3), rays, out=g.reshape(-1, j))
                slope, bound = g
                np.divide(bound, slope, out=bound)
                np.abs(slope, out=cand)
                np.minimum.reduce(cand, axis=0, out=amin)
                # -b/a bounds k from below where a > 0 and from above where a < 0
                np.multiply(slope, np.inf, out=slope)
                np.minimum(bound, slope, out=cand)
                np.maximum.reduce(cand, axis=0, out=lohi[0])
                np.maximum(bound, slope, out=cand)
                np.minimum.reduce(cand, axis=0, out=lohi[1])
                # fragile: min |a| times a final bound's distance to the nearest
                # in-range slice index is at most the tolerance, or min |a| is too small
                np.maximum(lohi, 0, out=dist)
                np.minimum(dist, s - 1, out=dist)
                np.rint(dist, out=dist)
                np.subtract(lohi, dist, out=dist)
                np.abs(dist, out=dist)
                np.minimum(dist[0], dist[1], out=gap)
                gap *= amin
                np.less_equal(gap, tol, out=flags[0])
                np.less(amin, _SLOPE_MIN * dz, out=flags[1])
                flags[0] |= flags[1]
                # count the integers of [max(lo, 0), min(hi, S - 1)]
                lo, hi = lohi
                np.maximum(lo, 0, out=lo)
                np.ceil(lo, out=lo)
                np.minimum(hi, s - 1, out=hi)
                np.floor(hi, out=hi)
                hi -= lo
                hi += 1
                np.maximum(hi, 0, out=hi)
                stop = min(n, total - p0)
                np.add.reduce(hi, axis=1, out=rowsum)
                np.add(rowsum[:stop], rowsum[n:n + stop], out=counts[p0:p0 + stop])
                if flags[0].any():
                    fragile.append(np.flatnonzero(flags[0].reshape(2, n, j).any(axis=(0, 2))[:stop]) + p0)
    return counts, np.concatenate(fragile) if fragile else np.empty(0, dtype=np.int64)
