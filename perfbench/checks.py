"""Output checks for one benchmark round, computed apart from covis.

Nothing here imports covis. Each check recomputes a result from the files a
run left behind, or tests a property the method must have; none compares
against a stored copy of earlier output. A failed check raises CheckFailed.

- frame files: every ``.rgb`` file is exactly W*H*3 bytes and every ``.ids``
  file W*H*4 bytes, one pair per frame;
- bank size: chunks x (views + 1) entries;
- retrieval: a sample of logged retrievals is re-scored with this module's
  own frustum-lattice co-visibility; every score matches within 1e-12 and
  the ranking follows (score desc, insert_seq desc);
- pixels: on sampled frames, every non-background pixel holds a point that
  projects into it with that point's colour, and no point projecting there
  lies nearer; background pixels receive no point;
- sync: ``mean_matched_pixels`` is recomputed from the id-map files;
- poses: the stand-in renders the requested trajectory, so ``trans_err`` is
  at most 1e-9 and the mean ``rot_err`` at most 1e-6 rad.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
from pathlib import Path

import numpy as np

SCORE_TOL = 1e-12
TRANS_ERR_TOL = 1e-9
ROT_ERR_MEAN_TOL = 1e-6
# A projection this close to a pixel edge may round either way.
PIXEL_EDGE_TOL = 1e-6
RETRIEVALS_SAMPLED = 6
VIDEOS_SAMPLED = 4
FRAMES_PER_VIDEO = 2
DIGESTED = ("bank/manifest.json", "run_log.json", "report.json", "report.csv")
# The scene centre covis uses when the config does not name one.
SCENE_CENTER = (0.0, 0.0, 5.0)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_trajectory(path: Path) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Rotations (F, 3, 3), camera centres (F, 3) and intrinsics of a trajectory file."""
    doc = _read_json(path)
    _require(doc.get("convention") == "camera_to_world", f"{path}: unexpected pose convention")
    frames = doc["frames"]
    rot = np.array([f["rotation"] for f in frames], dtype=np.float64).reshape(-1, 3, 3)
    cen = np.array([f["translation"] for f in frames], dtype=np.float64).reshape(-1, 3)
    return rot, cen, [f["intrinsics"] for f in frames]


# --- frustum-lattice co-visibility -------------------------------------------


def lattice(sampler: dict, frustum: dict) -> np.ndarray:
    """Cell-centre sample points of a frustum in its own camera frame, shape (P, 3).

    Depth slices are uniform strata of (near, far); each lateral cell spans
    the frustum cross-section at the point's own depth.
    """
    _require(sampler["jitter_seed"] is None, "the reference lattice has no jitter")
    gw, gh, s = sampler["grid_w"], sampler["grid_h"], sampler["depth_slices"]
    near, far = frustum["near"], frustum["far"]
    z = near + (np.arange(s) + 0.5) / s * (far - near)
    u = 2.0 * (np.arange(gw) + 0.5) / gw - 1.0
    v = 2.0 * (np.arange(gh) + 0.5) / gh - 1.0
    zz, vv, uu = np.meshgrid(z, v, u, indexing="ij")
    x = uu * zz * math.tan(frustum["fov_h"] / 2.0)
    y = vv * zz * math.tan(frustum["fov_v"] / 2.0)
    return np.stack([x, y, zz], axis=-1).reshape(-1, 3)


def _inside_counts(
    points: np.ndarray, rot: np.ndarray, cen: np.ndarray, frustum: dict
) -> np.ndarray:
    """Per frame, how many world points (F, P, 3) lie in frustum (rot, cen); edges count in."""
    local = (points - cen[:, None, :]) @ rot
    x, y, z = local[..., 0], local[..., 1], local[..., 2]
    ok = (z >= frustum["near"]) & (z <= frustum["far"])
    ok &= np.abs(x) <= z * math.tan(frustum["fov_h"] / 2.0)
    ok &= np.abs(y) <= z * math.tan(frustum["fov_v"] / 2.0)
    return ok.sum(axis=1)


def frame_scores(
    rot_a: np.ndarray, cen_a: np.ndarray, rot_b: np.ndarray, cen_b: np.ndarray,
    sampler: dict, frustum: dict,
) -> np.ndarray:
    """Symmetric per-frame co-visibility (|a's samples in b| + |b's in a|) / 2P."""
    pts = lattice(sampler, frustum)
    world_a = cen_a[:, None, :] + pts @ rot_a.transpose(0, 2, 1)
    world_b = cen_b[:, None, :] + pts @ rot_b.transpose(0, 2, 1)
    in_b = _inside_counts(world_a, rot_b, cen_b, frustum)
    in_a = _inside_counts(world_b, rot_a, cen_a, frustum)
    return (in_b + in_a) / (2.0 * len(pts))


def trajectory_score(a, b, sampler: dict, frustum: dict) -> float:
    """Mean per-frame co-visibility of two equal-length (rotations, centres) pairs."""
    _require(len(a[0]) == len(b[0]), "scored trajectories differ in length")
    total = 0.0
    for s in frame_scores(a[0], a[1], b[0], b[1], sampler, frustum).tolist():
        total += s
    return total / len(a[0])


# --- scene --------------------------------------------------------------------


def regenerate_scene(scene: dict) -> dict:
    """The seeded point cloud a static covis scene is defined as, and its content key."""
    _require(scene["moving_fraction"] == 0.0, "the reference scene is static")
    n = scene["point_count"]
    rng = np.random.default_rng(scene["seed"])
    positions = np.asarray(SCENE_CENTER) + (rng.random((n, 3)) - 0.5) * scene["extent"]
    colors = rng.integers(0, 256, size=(n, 3), dtype=np.int64).astype(np.uint8)
    ids = np.arange(1, n + 1, dtype=np.int32)
    h = hashlib.sha256()
    for arr in (ids, positions, colors, np.zeros((n, 3))):
        h.update(np.ascontiguousarray(arr).tobytes())
    return {"positions": positions, "colors": colors, "key": "scene-" + h.hexdigest()[:16]}


def check_frame(
    ids: np.ndarray, rgb: np.ndarray, rot: np.ndarray, cen: np.ndarray, intr: dict, scene: dict
) -> int:
    """Check one rendered frame against point projection; returns pixels checked."""
    h, w = ids.shape
    local = (scene["positions"] - cen) @ rot
    z = local[:, 2]
    front = z > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(front, intr["fx"] * local[:, 0] / z + intr["cx"], -1.0)
        v = np.where(front, intr["fy"] * local[:, 1] / z + intr["cy"], -1.0)
    ui, vi = np.floor(u), np.floor(v)
    # Points well inside one pixel: the renderer cannot have placed them elsewhere.
    firm = front & (u - ui >= PIXEL_EDGE_TOL) & (ui + 1.0 - u >= PIXEL_EDGE_TOL)
    firm &= (v - vi >= PIXEL_EDGE_TOL) & (vi + 1.0 - v >= PIXEL_EDGE_TOL)
    firm &= (ui >= 0) & (ui < w) & (vi >= 0) & (vi < h)
    nearest = np.full(h * w, np.inf)
    firm_idx = np.flatnonzero(firm)
    pix = (vi[firm_idx] * w + ui[firm_idx]).astype(np.int64)
    np.minimum.at(nearest, pix, z[firm_idx])

    flat = ids.reshape(-1)
    hit = np.flatnonzero(flat != 0)
    _require(np.isinf(nearest[flat == 0]).all(), "a point projects into a background pixel")
    pt = flat[hit].astype(np.int64) - 1
    _require(((pt >= 0) & (pt < len(z))).all(), "a pixel holds an unknown point id")
    px, py = (hit % w).astype(np.float64), (hit // w).astype(np.float64)
    _require(front[pt].all(), "a pixel holds a point behind the camera")
    inside = (u[pt] >= px - PIXEL_EDGE_TOL) & (u[pt] <= px + 1.0 + PIXEL_EDGE_TOL)
    inside &= (v[pt] >= py - PIXEL_EDGE_TOL) & (v[pt] <= py + 1.0 + PIXEL_EDGE_TOL)
    _require(inside.all(), "a pixel holds a point that projects elsewhere")
    _require(
        (rgb.reshape(-1, 3)[hit] == scene["colors"][pt]).all(),
        "a pixel's colour differs from its point's colour",
    )
    _require((z[pt] <= nearest[hit]).all(), "a nearer point projects into a pixel")
    return int(h * w)


# --- a finished run -------------------------------------------------------------


def run_digest(run_dir: Path) -> str:
    """Digest of the run files that must be byte-identical across repeats."""
    h = hashlib.sha256()
    for name in DIGESTED:
        h.update(name.encode())
        h.update((run_dir / name).read_bytes())
    return h.hexdigest()


def run_size(run_dir: Path) -> tuple[int, int]:
    """Bytes and files left under the run directory."""
    total = files = 0
    for root, _, names in os.walk(run_dir):
        for name in names:
            total += os.stat(os.path.join(root, name)).st_size
            files += 1
    return total, files


def _check_frame_files(run_dir: Path, video_refs: list[str]) -> int:
    files = 0
    for ref in video_refs:
        vdir = run_dir / ref
        meta = _read_json(vdir / "manifest.json")
        w, h, n = meta["width"], meta["height"], meta["frame_count"]
        sizes = {e.name: e.stat().st_size for e in os.scandir(vdir)}
        _require(len(sizes) == 2 * n + 2, f"{ref}: {len(sizes)} files for {n} frames")
        for i in range(n):
            _require(sizes.get(f"frame_{i:04d}.rgb") == w * h * 3, f"{ref}: frame {i} rgb size")
            _require(sizes.get(f"frame_{i:04d}.ids") == w * h * 4, f"{ref}: frame {i} ids size")
        files += 2 * n
    return files


def _check_retrievals(run_dir, config, events, entries, rng) -> int:
    by_ref = {e["video_ref"]: e for e in entries}
    retrievals = [e for e in events if e["event"] == "retrieve"]
    sample = rng.sample(retrievals[:-1], min(RETRIEVALS_SAMPLED - 1, len(retrievals) - 1))
    sample.append(retrievals[-1])  # the largest pool
    ret = config["retrieval"]
    _require(ret["tie_rule"] == "recent_first", "the reference ranks recent_first ties only")
    traj = {}

    def load(entry):
        seq = entry["insert_seq"]
        if seq not in traj:
            traj[seq] = read_trajectory(run_dir / "bank" / entry["trajectory"])[:2]
        return traj[seq]

    scored = 0
    for ev in sample:
        ref = f"videos/s{ev['view']:02d}_{ev['shot']}_c{ev['chunk']:02d}"
        target = by_ref[ref]
        pool = [
            e for e in entries[: target["insert_seq"] - 1]
            if (ret["cross_chunk"] or e["chunk_index"] == ev["chunk"])
            and (ret["include_source"] or not e["is_source"])
        ]
        scores = {
            e["insert_seq"] - 1: trajectory_score(load(target), load(e), config["sampler"],
                                                  config["frustum"])
            for e in pool
        }
        scored += len(scores)
        expect = sorted(scores, key=lambda i: (-scores[i], -i))[: ret["k"]]
        logged = ev["scores"]
        _require([i for i, _ in logged] == expect,
                 f"retrieval {ref}: ranked {[i for i, _ in logged]}, expected {expect}")
        for i, s in logged:
            _require(abs(s - scores[i]) <= SCORE_TOL,
                     f"retrieval {ref}: entry {i} scored {s!r}, expected {scores[i]!r}")
    return scored


def _check_pixels(run_dir, config, video_refs, rng) -> int:
    scene = regenerate_scene(config["scene"])
    pixels = 0
    for ref in rng.sample(video_refs, min(VIDEOS_SAMPLED, len(video_refs))):
        vdir = run_dir / ref
        meta = _read_json(vdir / "manifest.json")
        _require(meta["scene_key"] == scene["key"], f"{ref}: rendered from another scene")
        rot, cen, intr = read_trajectory(vdir / meta["trajectory"])
        w, h = meta["width"], meta["height"]
        for i in rng.sample(range(meta["frame_count"]), FRAMES_PER_VIDEO):
            ids = np.fromfile(vdir / f"frame_{i:04d}.ids", dtype="<i4").reshape(h, w)
            rgb = np.fromfile(vdir / f"frame_{i:04d}.rgb", dtype=np.uint8).reshape(h, w, 3)
            pixels += check_frame(ids, rgb, rot[i], cen[i], intr[i], scene)
    return pixels


_SHOT_REF = re.compile(r"videos/s\d\d_(.+)_c\d\d")


def _stitched_frames(run_dir: Path, entries, label: str, chunks) -> list[Path]:
    """Id-map files of a shot's stitched video, each later chunk's overlap dropped."""
    parts = {
        e["chunk_index"]: run_dir / e["video_ref"] for e in entries
        if not e["is_source"] and _SHOT_REF.fullmatch(e["video_ref"]).group(1) == label
    }
    files = []
    for c in chunks:
        skip = c["overlap_with_prev"] if files else 0
        files += [parts[c["index"]] / f"frame_{i:04d}.ids"
                  for i in range(skip, c["end"] - c["start"])]
    return files


def _check_sync(run_dir, entries, chunks, report, n_points) -> int:
    frames = 0
    for row in report["sync"]:
        a = _stitched_frames(run_dir, entries, row["pair"][0], chunks)
        b = _stitched_frames(run_dir, entries, row["pair"][1], chunks)
        _require(len(a) == len(b) == row["frames"], f"sync {row['pair']}: frame count")
        counts = []
        for fa, fb in zip(a, b):
            seen = np.zeros(n_points + 1, dtype=bool)
            seen[np.fromfile(fb, dtype="<i4")] = True
            seen[0] = False
            counts.append(int(seen[np.fromfile(fa, dtype="<i4")].sum()))
        mean = float(np.mean(counts))
        _require(math.isclose(mean, row["mean_matched_pixels"], rel_tol=1e-12, abs_tol=1e-9),
                 f"sync {row['pair']}: {row['mean_matched_pixels']!r} reported, {mean!r} recomputed")
        frames += len(counts)
    return frames


def check_run(run_dir: Path, views: int, seed: int) -> dict:
    """Run every check on a finished simulate + eval; returns how much each checked."""
    config = _read_json(run_dir / "config_resolved.json")
    events = _read_json(run_dir / "run_log.json")["events"]
    entries = _read_json(run_dir / "bank" / "manifest.json")["entries"]
    report = _read_json(run_dir / "report.json")
    chunks = events[0]["chunks"]
    video_refs = sorted({e["video_ref"] for e in entries})
    rng = random.Random(seed)

    _require(len(entries) == len(chunks) * (views + 1),
             f"bank holds {len(entries)} entries, expected {len(chunks)} x {views + 1}")
    _require([e["insert_seq"] for e in entries] == list(range(1, len(entries) + 1)),
             "bank insert_seq is not 1..n")
    for p in report["poses"]:
        _require(p["trans_err"] <= TRANS_ERR_TOL, f"{p['shot']}: trans_err {p['trans_err']!r}")
        _require(p["rot_err_mean"] <= ROT_ERR_MEAN_TOL, f"{p['shot']}: rot_err {p['rot_err_mean']!r}")
    return {
        "bank_entries": len(entries),
        "frame_files": _check_frame_files(run_dir, video_refs),
        "pairs_rescored": _check_retrievals(run_dir, config, events, entries, rng),
        "pixels": _check_pixels(run_dir, config, video_refs, rng),
        "sync_frames": _check_sync(run_dir, entries, chunks, report,
                                   config["scene"]["point_count"]),
        "poses": len(report["poses"]),
    }
