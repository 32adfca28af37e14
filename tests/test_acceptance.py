"""Product-level acceptance gate.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them all;
captured output of failing tests shows the [FAIL] line).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from covis import (
    CameraIntrinsics,
    CameraPose,
    DomainError,
    FrustumParams,
    MatchMap,
    MemoryBank,
    ShotKind,
    Trajectory,
    align_scale,
    build_frustum,
    chunk_schedule,
    covisible_fraction,
    frame_covisibility,
    make_scene,
    matched_pixels,
    oracle_match,
    plan_divide_conquer,
    plucker_raymap,
    render,
    retrieve_top_k,
    rot_err,
    sync_pairs,
    token_layout,
    trajectory_similarity,
    trans_err,
)
from covis.cli import main
from covis.frustum import SamplerConfig
from helpers import (
    aimed_trajectory,
    random_pose,
    random_rotation,
    random_trajectory,
    yaw_pitch_rotation,
)

SHOT_FILE_ORDER = [
    "01_rotation_left.json",
    "02_arc_right_with_rot.json",
    "03_azimuth_right.json",
    "04_rotation_right.json",
    "05_arc_left_with_rot.json",
    "06_azimuth_left.json",
    "07_tilt_up.json",
    "08_translate_down_with_rot.json",
    "09_tilt_down.json",
    "10_translate_up_with_rot.json",
    "11_elevation_up.json",
    "12_zoom_out.json",
]


@contextmanager
def criterion(n: int, text: str):
    info: dict = {}
    try:
        yield info
    except BaseException:
        print(f"[FAIL] criterion {n}: {text}")
        raise
    suffix = f" ({info['elapsed']:.1f} s)" if "elapsed" in info else ""
    print(f"[PASS] criterion {n}: {text}{suffix}")


def test_criterion_1_similarity_identity_and_symmetry():
    with criterion(1, "similarity is exactly 1.0 on self and symmetric, defaults intact") as info:
        start = time.perf_counter()
        params = FrustumParams()
        assert (params.fov_h, params.fov_v, params.near, params.far) == (
            math.pi / 2, math.pi / 3, 0.0, 10.0
        )
        rng = np.random.default_rng(101)
        trajs = [random_trajectory(rng, 2, label=f"t{i}") for i in range(100)]
        for t in trajs:
            assert trajectory_similarity(t, t) == 1.0
        for a, b in zip(trajs[0::2], trajs[1::2]):
            assert trajectory_similarity(a, b) == trajectory_similarity(b, a)
        info["elapsed"] = time.perf_counter() - start
        assert info["elapsed"] < 10.0


def _nearby_query(rng: np.random.Generator, base: Trajectory) -> Trajectory:
    # Query = jittered copy of a bank entry, so the ground-truth best match is
    # unambiguous.  Independent queries produce near-tied oracle scores whose
    # argmax reflects point-sampling noise rather than retrieval quality.
    frames = []
    for pose, intr in base.frames:
        spin = yaw_pitch_rotation(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
        frames.append(
            (
                CameraPose(pose.rotation @ spin, pose.translation + rng.uniform(-0.3, 0.3, size=3)),
                intr,
            )
        )
    return Trajectory(frames=tuple(frames), label="query")


def test_criterion_2_retrieval_agrees_with_visibility_oracle():
    with criterion(2, "top-1 agreement >= 90% and mean Spearman >= 0.8 vs point oracle") as info:
        start = time.perf_counter()
        hits = 0
        rhos = []
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            scene = make_scene(trial, point_count=1000)
            entries = [aimed_trajectory(rng, 2, label=f"e{i}") for i in range(10)]
            target = _nearby_query(rng, entries[rng.integers(10)])
            bank = MemoryBank()
            for i, traj in enumerate(entries):
                bank.append(traj, f"v{i}", 1, is_source=(i == 0))
            ranked = retrieve_top_k(bank, target, 10, 1).ranked
            scores = np.empty(10)
            for idx, s in ranked:
                scores[idx] = s
            oracle = np.array([
                covisible_fraction(scene, traj, target) for traj in entries
            ])
            hits += int(ranked[0][0] == int(np.argmax(oracle)))
            rho = spearmanr(scores, oracle).statistic
            assert not math.isnan(rho)
            rhos.append(rho)
        info["elapsed"] = time.perf_counter() - start
        assert hits >= 90, f"top-1 agreement {hits}/100"
        assert float(np.mean(rhos)) >= 0.8, f"mean Spearman {np.mean(rhos):.3f}"
        assert info["elapsed"] < 120.0


def test_criterion_3_planner_terminates_with_exact_shape():
    with criterion(3, "planner exhaustive over k<=8, l<=64; l=10,k=4 trace is m=4, m=4, final"):
        intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=4.0, cy=3.0, width=8, height=6)
        traj = Trajectory.from_poses([CameraPose.identity()], intr, label="e")

        class Entry:
            trajectory = traj

        def retrieved(l: int):
            return [(Entry(), i / 100.0) for i in range(l)]

        for k in range(1, 9):
            for l in range(k + 1, 65):
                if k == 1:
                    with pytest.raises(DomainError):
                        plan_divide_conquer(retrieved(l), k, traj, Entry())
                    continue
                plan = plan_divide_conquer(retrieved(l), k, traj, Entry())
                assert all(len(s.context) == k for s in plan.steps)
                consumed = sorted(
                    r.key for s in plan.steps for r in s.context if r.kind == "entry"
                )
                assert consumed == list(range(l))
                assert plan.steps[-1].is_final

        text = plan_divide_conquer(retrieved(10), 4, traj, Entry()).format()
        assert "merge 1: l=10, m=4" in text
        assert "merge 2: l=7, m=4" in text
        assert "final: l=4" in text


def test_criterion_4_token_and_chunk_constants():
    with criterion(4, "f=6 @ 21 frames, f=24 @ 93 frames; 165 frames split with 21-frame overlap"):
        assert token_layout(0, 21, 108, 192).latent_frames_per_video == 6
        assert token_layout(0, 93, 108, 192).latent_frames_per_video == 24
        sched = chunk_schedule(165)
        assert [(c.start, c.end, c.overlap_with_prev) for c in sched.chunks] == [
            (0, 93, 0), (72, 165, 21)
        ]
        covered = np.zeros(165, dtype=int)
        for c in sched.chunks:
            covered[c.start:c.end] += 1
        assert (covered >= 1).all()


def test_criterion_5_metric_identities():
    with criterion(5, "trans/rot error identities within 1e-9; scale matches grid search"):
        rng = np.random.default_rng(55)
        t = random_trajectory(rng, 3)
        assert trans_err(t, t) == 0.0
        assert rot_err(t, t) <= 1e-9
        for s in (0.1, 2.0, 10.0):
            scaled = Trajectory(
                frames=tuple(
                    (CameraPose(p.rotation, s * p.translation), i) for p, i in t.frames
                ),
                label=t.label,
            )
            assert trans_err(t, scaled, align=True) <= 1e-9

        n = 4
        bases = [random_rotation(rng) for _ in range(n)]
        intr = t.frames[0][1]
        for theta in (0.01, math.pi / 4, math.pi / 2, 3.0):
            c, sn = math.cos(theta), math.sin(theta)
            spin = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
            gt = Trajectory.from_poses([CameraPose(b, np.zeros(3)) for b in bases], intr)
            pred = Trajectory.from_poses(
                [CameraPose(b @ spin, np.zeros(3)) for b in bases], intr
            )
            assert abs(rot_err(gt, pred) - n * theta) <= 1e-9

        pred_pts = rng.uniform(-1.0, 1.0, size=(6, 3))
        gt_pts = 1.7 * pred_pts + rng.normal(0.0, 0.05, size=(6, 3))
        fitted = align_scale(gt_pts, pred_pts)
        grid = np.linspace(0.0, 3.0, 30001)  # step 1e-4
        costs = ((gt_pts[None] - grid[:, None, None] * pred_pts[None]) ** 2).sum(axis=(1, 2))
        assert abs(fitted - float(grid[np.argmin(costs)])) <= 1e-4


def test_criterion_6_matched_pixel_semantics():
    with criterion(6, "threshold 0.5 is inclusive; identical views match every visible pixel"):
        assert matched_pixels(MatchMap(np.array([[0.5]]), threshold=0.5)) == 1
        conf = np.array([[0.5, 0.25], [1.0, 0.0]])
        assert matched_pixels(MatchMap(conf, threshold=0.5)) == 2

        scene = make_scene(6, point_count=1000)
        intr = CameraIntrinsics.from_fov(math.pi / 2, math.pi / 3, 96, 54)
        traj = Trajectory.from_poses([CameraPose.identity()] * 2, intr)
        seq = render(scene, traj)
        for f, m in enumerate(oracle_match(seq, seq)):
            visible = int((seq.id_map[f] != 0).sum())
            assert visible > 0
            assert matched_pixels(m) == visible


def test_criterion_7_benchmark_suite_order_and_sync_pairs(tmp_path):
    with criterion(7, "12 shots emitted in canonical order; sync pair table row-for-row"):
        out = tmp_path / "suite"
        assert main(["gen-benchmark", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("*.json") if p.name != "sync_pairs.json")
        assert names == SHOT_FILE_ORDER

        k = ShotKind
        table = {
            3: [
                (k.ROTATION_LEFT, k.ARC_RIGHT_WITH_ROT),
                (k.ROTATION_LEFT, k.AZIMUTH_RIGHT),
            ],
            6: [
                (k.ROTATION_LEFT, k.ARC_RIGHT_WITH_ROT),
                (k.ROTATION_LEFT, k.AZIMUTH_RIGHT),
                (k.ROTATION_RIGHT, k.ARC_LEFT_WITH_ROT),
                (k.ROTATION_RIGHT, k.AZIMUTH_LEFT),
            ],
            9: [
                (k.ROTATION_LEFT, k.ARC_RIGHT_WITH_ROT),
                (k.ROTATION_LEFT, k.AZIMUTH_RIGHT),
                (k.ROTATION_RIGHT, k.ARC_LEFT_WITH_ROT),
                (k.ROTATION_RIGHT, k.AZIMUTH_LEFT),
                (k.TILT_UP, k.TRANSLATE_DOWN_WITH_ROT),
                (k.TILT_DOWN, k.TRANSLATE_UP_WITH_ROT),
            ],
            12: [
                (k.ROTATION_LEFT, k.ARC_RIGHT_WITH_ROT),
                (k.ROTATION_LEFT, k.AZIMUTH_RIGHT),
                (k.ROTATION_RIGHT, k.ARC_LEFT_WITH_ROT),
                (k.ROTATION_RIGHT, k.AZIMUTH_LEFT),
                (k.TILT_UP, k.TRANSLATE_DOWN_WITH_ROT),
                (k.TILT_DOWN, k.TRANSLATE_UP_WITH_ROT),
                (k.TRANSLATE_UP_WITH_ROT, k.ELEVATION_UP),
                (k.TRANSLATE_UP_WITH_ROT, k.ZOOM_OUT),
            ],
        }
        for n, expect in table.items():
            assert sync_pairs(n) == expect
            assert len(sync_pairs(n)) == {3: 2, 6: 4, 9: 6, 12: 8}[n]


def test_criterion_8_end_to_end_determinism(tmp_path):
    with criterion(8, "two identical simulate+eval runs produce byte-identical artifacts") as info:
        start = time.perf_counter()
        dirs = [tmp_path / "run_a", tmp_path / "run_b"]
        for d in dirs:
            assert main(["simulate", "--out", str(d), "--frames", "165"]) == 0
            assert main(["eval", "--run", str(d), "--n-shots", "12"]) == 0
        for rel in ("bank/manifest.json", "report.csv", "report.json", "run_log.json"):
            a = (dirs[0] / rel).read_bytes()
            b = (dirs[1] / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"
        info["elapsed"] = time.perf_counter() - start
        assert info["elapsed"] < 300.0


def test_criterion_9_ray_and_covisibility_invariants():
    with criterion(9, "10k rays satisfy unit/orthogonality bounds; covisibility rigid-exact"):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 10_000:
            intr = CameraIntrinsics.from_fov(
                rng.uniform(0.5, 2.5), rng.uniform(0.5, 1.8), 50, 40
            )
            rm = plucker_raymap(Trajectory.from_poses([random_pose(rng)], intr))
            d = rm.rays[0, :, :, :3].reshape(-1, 3)
            m = rm.rays[0, :, :, 3:].reshape(-1, 3)
            assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() <= 1e-9
            assert np.abs((d * m).sum(axis=1)).max() <= 1e-9
            checked += d.shape[0]

        cfg = SamplerConfig(grid_w=4, grid_h=3, depth_slices=4)
        fa = build_frustum(random_pose(rng), math.pi / 2, math.pi / 3, 0.0, 10.0)
        fb = build_frustum(random_pose(rng), math.pi / 2, math.pi / 3, 0.0, 10.0)
        base = frame_covisibility(fa, fb, cfg)
        for _ in range(100):
            q = random_rotation(rng)
            t = rng.uniform(-8.0, 8.0, size=3)
            moved = []
            for fr in (fa, fb):
                pose = CameraPose(rotation=q @ fr.orientation, translation=q @ fr.apex + t)
                moved.append(build_frustum(pose, math.pi / 2, math.pi / 3, 0.0, 10.0))
            assert frame_covisibility(moved[0], moved[1], cfg) == base
