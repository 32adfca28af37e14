"""End-to-end command-line coverage: artifacts, determinism, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import gc
import io
import json
import os
import re
import shutil
import tempfile
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis import (
    CameraIntrinsics,
    CameraPose,
    DomainError,
    MemoryBank,
    MemoryEntry,
    SamplerConfig,
    Trajectory,
    build_frustum,
    frame_covisibility,
    load_trajectory,
    save_trajectory,
    sync_pairs,
)
import covis.camera
import covis.cli
from covis.cli import main
from covis.scene import BACKGROUND_ID, FrameSequence, load_frames, save_frames
from covis.trajectory_ops import ShotKind
from helpers import aimed_trajectory, read_rgb

SHOT_FILES = [
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

SIM_ARGS = ["--frames", "5", "--shots", "1,2,3", "--set", "scene.point_count=40"]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory) -> Path:
    """One small simulated + evaluated run shared by the read-only tests."""
    d = tmp_path_factory.mktemp("run")
    assert main(["simulate", "--out", str(d), "--seed", "5", *SIM_ARGS]) == 0
    assert main(["eval", "--run", str(d), "--n-shots", "3"]) == 0
    return d


def test_gen_benchmark_files(tmp_path, capsys):
    a = tmp_path / "a"
    assert main(["gen-benchmark", "--out", str(a)]) == 0
    out = capsys.readouterr().out
    names = sorted(p.name for p in a.glob("*.json") if p.name != "sync_pairs.json")
    assert names == SHOT_FILES
    assert all(f"wrote {a / n}" in out for n in names)
    traj = load_trajectory(a / SHOT_FILES[0])
    assert len(traj) == 93
    assert traj.label == "rotation_left"

    manifest = json.loads((a / "sync_pairs.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"3", "6", "9", "12"}
    for n in (3, 6, 9, 12):
        expect = [[p.slug, q.slug] for p, q in sync_pairs(n)]
        assert manifest[str(n)] == expect

    b = tmp_path / "b"
    assert main(["gen-benchmark", "--out", str(b)]) == 0
    for name in names + ["sync_pairs.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_benchmark_custom_base(tmp_path):
    intr = CameraIntrinsics.from_fov(1.2, 0.9, 30, 20)
    pose = CameraPose(rotation=np.eye(3), translation=np.array([1.0, 2.0, 3.0]))
    base_path = tmp_path / "base.json"
    save_trajectory(Trajectory.from_poses([pose], intr, label="base"), base_path)
    out = tmp_path / "suite"
    assert main(["gen-benchmark", "--out", str(out), "--base", str(base_path)]) == 0
    zoom = load_trajectory(out / "12_zoom_out.json")
    first, first_intr = zoom.frames[0]
    assert np.array_equal(first.translation, pose.translation)
    assert np.array_equal(first.rotation, pose.rotation)
    assert first_intr == intr


def test_simulate_artifacts(run_dir):
    assert (run_dir / "bank" / "manifest.json").exists()
    assert (run_dir / "config_resolved.json").exists()
    resolved = json.loads((run_dir / "config_resolved.json").read_text(encoding="utf-8"))
    assert resolved["scene"]["seed"] == 5
    assert resolved["scene"]["point_count"] == 40
    # the run's place is no part of its config, so its bytes do not depend on it
    assert set(resolved) == {"frustum", "sampler", "scheduler", "retrieval", "scene"}

    log = json.loads((run_dir / "run_log.json").read_text(encoding="utf-8"))
    events = log["events"]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "schedule"
    sched = events[0]
    assert sched["total_frames"] == 5
    assert sched["chunks"] == [
        {"index": 1, "start": 0, "end": 5, "overlap_with_prev": 0}
    ]
    # one source banking, then per view: retrieve, plan, banked
    assert kinds.count("banked") == 4
    assert kinds.count("retrieve") == 3
    assert kinds.count("plan") == 3
    retrieves = [e for e in events if e["event"] == "retrieve"]
    assert [e["shot"] for e in retrieves] == [
        "rotation_left", "arc_right_with_rot", "azimuth_right"
    ]
    # the pool grows as generated videos are banked
    assert [len(e["scores"]) for e in retrieves] == [1, 2, 3]
    banked = [e["ref"] for e in events if e["event"] == "banked"]
    assert banked[0] == "videos/source_c01"
    for ref in banked:
        assert (run_dir / ref / "manifest.json").exists()

    bank = MemoryBank.open(run_dir / "bank")
    assert len(bank) == 4
    assert bank.source_entry(1).trajectory.label == "source"


def test_simulate_refuses_existing_bank(run_dir, capsys):
    assert main(["simulate", "--out", str(run_dir), *SIM_ARGS]) == 2
    assert "bank" in capsys.readouterr().err


def test_simulate_is_deterministic(tmp_path):
    args = ["--frames", "5", "--shots", "1", "--set", "scene.point_count=30"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--out", str(a), *args]) == 0
    assert main(["simulate", "--out", str(b), *args]) == 0
    for rel in (
        "bank/manifest.json",
        "run_log.json",
        "videos/source_c01/frame_0000.rgb",
        "videos/s01_rotation_left_c01/frame_0004.ids",
    ):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_eval_report_files(run_dir):
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert set(doc) == {"n_shots", "sync", "mean_matched_pixels", "poses"}
    assert doc["n_shots"] == 3
    assert [r["pair"] for r in doc["sync"]] == [
        [p.slug, q.slug] for p, q in sync_pairs(3)
    ]
    assert all(set(r) == {"pair", "frames", "mean_matched_pixels"} for r in doc["sync"])
    for pose in doc["poses"]:
        assert pose["frames"] == 5
        assert pose["trans_err"] == 0.0  # generated trajectory equals the request
        assert pose["scale"] == 1.0
        assert pose["rot_err"] < 1e-5
        assert pose["rot_err_mean"] == pose["rot_err"] / 5

    # report.csv holds the sync rows only, each as report.json spells its mean
    lines = ["pair,frames,mean_matched_pixels"] + [
        f"{p}|{q},{r['frames']},{r['mean_matched_pixels']!r}"
        for r in doc["sync"] for p, q in [r["pair"]]
    ]
    assert (run_dir / "report.csv").read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_eval_stdout(run_dir, capsys):
    assert main(["eval", "--run", str(run_dir), "--n-shots", "3"]) == 0
    out = capsys.readouterr().out
    assert "sync pairs (n_shots=3):" in out
    assert "rotation_left | arc_right_with_rot:" in out
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    # one line per sync pair and the mean, in pixels only; the pose errors are in report.json
    assert out.splitlines()[1:-1] == [
        f"  {p} | {q}: {r['mean_matched_pixels']:.1f} px over {r['frames']} frames"
        for r in doc["sync"] for p, q in [r["pair"]]
    ] + [f"mean matched pixels: {doc['mean_matched_pixels']:.1f}"]


def test_eval_missing_shots(run_dir, capsys):
    assert main(["eval", "--run", str(run_dir), "--n-shots", "6"]) == 2
    assert "missing generated shots" in capsys.readouterr().err


def test_eval_without_run(tmp_path, capsys):
    assert main(["eval", "--run", str(tmp_path / "nope")]) == 2
    assert "no bank manifest" in capsys.readouterr().err


@pytest.fixture(scope="module")
def full_run(tmp_path_factory) -> Path:
    """All twelve shots over three chunks that overlap by 5: [0, 8), [3, 11) and [6, 12)."""
    d = tmp_path_factory.mktemp("full")
    assert main(["simulate", "--out", str(d), "--seed", "3", "--frames", "12",
                 "--set", "scene.point_count=40", "--set", "scheduler.chunk_frames=8",
                 "--set", "scheduler.overlap_latent=2"]) == 0
    return d


def _generated_refs(run: Path, shots) -> dict[str, list[str]]:
    """Each shot's generated video refs, in chunk order."""
    entries = sorted(MemoryBank.open(run / "bank").entries, key=lambda e: e.chunk_index)
    return {k.slug: [e.video_ref for e in entries
                     if e.trajectory.label == k.slug and not e.is_source] for k in shots}


def _stitched_at_once(run: Path, shots) -> dict:
    """Every shot's id maps, joined by concatenating whole chunk videos minus their overlap."""
    # the first chunk's overlap_with_prev is 0, so it keeps every frame
    events = json.loads((run / "run_log.json").read_text(encoding="utf-8"))["events"]
    overlaps = [c["overlap_with_prev"] for c in events[0]["chunks"]]
    videos = {}
    for kind, refs in _generated_refs(run, shots).items():
        seqs = [load_frames(run / ref) for ref in refs]
        videos[ShotKind.from_slug(kind)] = FrameSequence(
            frames=None,
            id_map=np.concatenate([s.id_map[ov:] for s, ov in zip(seqs, overlaps)]),
            trajectory=Trajectory(
                frames=sum((s.trajectory.frames[ov:] for s, ov in zip(seqs, overlaps)), ()),
                label=kind),
            scene_key=seqs[0].scene_key,
        )
    return videos


def test_eval_n_shots_9_scores_a_pair_past_shot_9(full_run, capsys):
    # sync_pairs(9) pairs tilt_down with translate_up_with_rot, shot 10
    assert main(["eval", "--run", str(full_run), "--n-shots", "9"]) == 0
    doc = json.loads((full_run / "report.json").read_text(encoding="utf-8"))
    assert len(doc["sync"]) == 6
    assert ["tilt_down", "translate_up_with_rot"] in [r["pair"] for r in doc["sync"]]
    assert [p["shot"] for p in doc["poses"]] == [ShotKind(i).slug for i in range(1, 10)]
    assert all(r["frames"] == 12 for r in doc["sync"])


def test_eval_decodes_each_distinct_trajectory_text_once(full_run):
    bank = sorted(full_run.glob("bank/traj_*.json"))
    shot_videos = [p for p in full_run.glob("videos/*/trajectory.json")
                   if not p.parent.name.startswith("source")]
    # each video's trajectory file repeats its bank entry's, and the identity source's chunks
    # repeat each other
    texts = {p.read_bytes() for p in bank}
    assert {p.read_bytes() for p in shot_videos} <= texts and len(texts) < len(bank)
    covis.camera._decode.cache_clear()
    assert main(["eval", "--run", str(full_run), "--n-shots", "12"]) == 0
    info = covis.camera._decode.cache_info()
    assert (info.misses, info.hits + info.misses) == (len(texts), len(bank) + len(shot_videos))


@pytest.mark.parametrize("n_shots", [3, 6, 9, 12])
def test_eval_streams_at_most_two_videos(full_run, monkeypatch, n_shots):
    pairs = sync_pairs(n_shots)
    shots = sorted({k for pair in pairs for k in pair})
    refs = _generated_refs(full_run, shots)
    assert all(len(chunk_refs) == 3 for chunk_refs in refs.values())
    at_once = _stitched_at_once(full_run, shots)
    loads, live_before_load, loaded, same_as_at_once = [], [], [], []
    offsets = dict.fromkeys(shots, 0)  # frames of each shot's stitched video loaded so far
    load = covis.cli.load_frames

    def tracking_load(directory, **kwargs):
        loads.append(Path(directory).relative_to(full_run).as_posix())
        gc.collect()
        live_before_load.append(sum(ref() is not None for ref in loaded))
        seq = load(directory, **kwargs)
        loaded.append(weakref.ref(seq))
        kind = ShotKind.from_slug(seq.trajectory.label)
        ref, start = at_once[kind], offsets[kind]
        end = offsets[kind] = start + seq.frame_count
        # eval loads id maps only
        same_as_at_once.append(
            seq.frames is None
            and np.array_equal(seq.id_map, ref.id_map[start:end])
            and seq.scene_key == ref.scene_key
        )
        return seq

    monkeypatch.setattr(covis.cli, "load_frames", tracking_load)
    assert main(["eval", "--run", str(full_run), "--n-shots", str(n_shots)]) == 0

    # every chunk video is loaded once, and at most one other is alive when it is
    assert sorted(loads) == sorted(r for chunk_refs in refs.values() for r in chunk_refs)
    assert len(loaded) == 3 * len(shots)
    assert max(live_before_load) <= 1
    assert all(same_as_at_once)
    assert offsets == {kind: at_once[kind].frame_count for kind in shots}

    # the reference is a dense isin per frame of the stitched id maps, independent of eval
    expected = []
    for p, q in pairs:
        counts = [int(np.count_nonzero(np.isin(fa, fb) & (fa != BACKGROUND_ID)))
                  for fa, fb in zip(at_once[p].id_map, at_once[q].id_map)]
        mean = float(np.mean(counts))
        expected.append({"pair": [p.slug, q.slug], "frames": len(counts),
                         "mean_matched_pixels": mean})
    doc = json.loads((full_run / "report.json").read_text(encoding="utf-8"))
    assert doc["sync"] == expected
    assert doc["mean_matched_pixels"] == float(np.mean([r["mean_matched_pixels"] for r in expected]))
    assert len(doc["poses"]) == n_shots


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chunk_loads_join_to_the_concatenated_chunk_videos(data):
    overlap = data.draw(st.integers(0, 3), label="overlap")
    lengths = data.draw(st.lists(st.integers(overlap + 1, overlap + 4), min_size=1, max_size=4),
                        label="chunk lengths")
    w, h = data.draw(st.integers(1, 5), label="width"), data.draw(st.integers(1, 5), label="height")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    intr = CameraIntrinsics.from_fov(1.2, 0.9, w, h)
    with tempfile.TemporaryDirectory() as tmp:
        run, parts, saved = Path(tmp), [], []
        for m, n in enumerate(lengths, start=1):
            traj = Trajectory.from_poses(
                [CameraPose(np.eye(3), rng.normal(size=3)) for _ in range(n)], intr, "tilt_up")
            saved.append(FrameSequence(
                frames=rng.integers(0, 256, (n, h, w, 3), dtype=np.uint8),
                id_map=rng.integers(-2**31, 2**31, (n, h, w), dtype=np.int32),
                trajectory=traj, scene_key="scene-test"))
            save_frames(saved[-1], run / f"videos/c{m:02d}")
            parts.append(MemoryEntry(traj, f"videos/c{m:02d}", m, m))
        drops = covis.cli._chunk_drops(parts, overlap)
        assert drops == [0] + [overlap] * (len(parts) - 1)
        chunks = [load_frames(run / e.video_ref, skip=d, expect=e.trajectory)
                  for e, d in zip(parts, drops)]
        for e, seq in zip(parts, saved):
            n = len(e.trajectory)
            assert read_rgb(run / e.video_ref, e.trajectory).tobytes() == seq.frames.tobytes()
            for skip in range(n):
                got = load_frames(run / e.video_ref, skip=skip, expect=e.trajectory)
                assert got.frames is None
                assert got.id_map.tobytes() == seq.id_map[skip:].tobytes()
                for a, b in zip(covis.cli._arrays(got.trajectory), covis.cli._arrays(e.trajectory)):
                    assert np.array_equal(a, b[skip:])
            for skip in (-1, n):
                with pytest.raises(DomainError, match=rf"invalid frame slice \[{skip}, {n}\)"):
                    load_frames(run / e.video_ref, skip=skip, expect=e.trajectory)
    stitched = covis.cli._stitch_trajectory(parts, overlap, "tilt_up")
    want = np.concatenate([s.id_map[d:] for s, d in zip(saved, drops)])
    got = np.concatenate([c.id_map for c in chunks])
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert not any(c.id_map.flags.writeable for c in chunks)
    for got, want in zip(zip(*(covis.cli._arrays(c.trajectory) for c in chunks)),
                         covis.cli._arrays(stitched)):
        assert np.array_equal(np.concatenate(got), want)
    assert all(c.scene_key == "scene-test" for c in chunks)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_load_frames_gives_the_saved_ids_from_every_skip(data):
    n = data.draw(st.integers(2, 5), label="frames")
    w, h = data.draw(st.integers(1, 5), label="width"), data.draw(st.integers(1, 5), label="height")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    traj = Trajectory.from_poses([CameraPose(np.eye(3), rng.normal(size=3)) for _ in range(n)],
                                 CameraIntrinsics.from_fov(1.2, 0.9, w, h), "tilt_up")
    # one frame file one byte short or long, in a frame some skips keep and others drop
    bad = data.draw(st.integers(0, n - 2), label="damaged frame")
    ext = data.draw(st.sampled_from(["rgb", "ids"]), label="damaged file")
    change = data.draw(st.sampled_from([-1, 1]), label="byte change")
    ids = rng.integers(-2**31, 2**31, (n, h, w), dtype=np.int32)
    with tempfile.TemporaryDirectory() as tmp:
        video = Path(tmp) / "video"
        save_frames(FrameSequence(frames=rng.integers(0, 256, (n, h, w, 3), dtype=np.uint8),
                                  id_map=ids, trajectory=traj, scene_key="scene-test"), video)
        for skip in range(n):
            got = load_frames(video, skip=skip, expect=traj)
            assert got.frames is None and got.frame_count == n - skip
            assert got.id_map.tobytes() == ids[skip:].tobytes()
            assert not got.id_map.flags.writeable
            for a, b in zip(covis.cli._arrays(got.trajectory), covis.cli._arrays(traj)):
                assert np.array_equal(a, b[skip:])
            assert got.scene_key == "scene-test"
        path = video / f"frame_{bad:04d}.{ext}"
        content = path.read_bytes()
        path.unlink()  # a linked twin keeps its bytes
        path.write_bytes(content[:-1] if change < 0 else content + b"\x00")
        for skip in range(n):  # frame bad is kept while skip <= bad, dropped after
            with pytest.raises(DomainError) as info:
                load_frames(video, skip=skip, expect=traj)
            assert str(info.value) == f"{video}: frame {bad} has unexpected byte length"


def test_eval_never_depends_on_rgb_bytes(full_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)  # copies linked frame files apart
    reports = ("report.json", "report.csv")
    assert main(["eval", "--run", str(run), "--n-shots", "12"]) == 0
    want = {name: (run / name).read_bytes() for name in reports}
    rng = np.random.default_rng(0)
    for path in (run / "videos").rglob("*.rgb"):
        path.write_bytes(rng.integers(0, 256, path.stat().st_size, dtype=np.uint8).tobytes())
    for name in reports:
        (run / name).unlink()
    assert main(["eval", "--run", str(run), "--n-shots", "12"]) == 0
    assert {name: (run / name).read_bytes() for name in reports} == want
    capsys.readouterr()

    # chunk 2 drops frames 0-4, the overlap chunk 1 holds, and keeps frames 5-7
    refs = _generated_refs(run, [ShotKind.ROTATION_LEFT])["rotation_left"]
    kept = run / refs[1] / "frame_0006.rgb"
    kept.write_bytes(kept.read_bytes()[:-1])
    (run / "report.json").unlink()
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert f"{run / refs[1]}: frame 6 has unexpected byte length" in capsys.readouterr().err
    assert not (run / "report.json").exists()

    (run / refs[0] / "frame_0002.rgb").unlink()
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 3
    err = capsys.readouterr().err
    assert "I/O error" in err and "frame_0002.rgb" in err
    assert not (run / "report.json").exists()


@pytest.mark.parametrize("name", ["frame_0001.ids", "frame_0001.rgb"])
def test_eval_checks_the_length_of_a_dropped_overlap_frame(full_run, tmp_path, capsys, name):
    # chunk 2 starts with the 5 frames chunk 1 already holds; eval never reads them
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    (run / "report.json").unlink(missing_ok=True)
    video = run / _generated_refs(run, [ShotKind.ROTATION_LEFT])["rotation_left"][1]
    path = video / name
    path.write_bytes(path.read_bytes()[:-1])
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert f"{video}: frame 1 has unexpected byte length" in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_eval_names_a_chunk_video_shorter_than_its_bank_entry(run_dir, tmp_path, capsys):
    run, video = _copied_video(run_dir, tmp_path)
    traj = load_trajectory(video / "trajectory.json")
    save_trajectory(traj.slice_frames(0, len(traj) - 1), video / "trajectory.json")
    manifest = json.loads((video / "manifest.json").read_text(encoding="utf-8"))
    manifest["frame_count"] = len(traj) - 1
    (video / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert (f"{video}: its video follows 4 frames of 192x108, but the trajectory expected of it "
            "has 5 frames of 192x108; the two must be identical") in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_eval_compares_the_poses_of_dropped_overlap_frames(full_run, tmp_path, capsys):
    # frame 0 of chunk 2 is in the overlap eval drops and never reads, but its
    # pose must still equal the bank entry's
    run, video = _copied_video(full_run, tmp_path, chunk=2)
    traj = load_trajectory(video / "trajectory.json")
    rotations, centers = traj.pose_stack
    centers = centers.copy()
    centers[0, 0] += 1.0
    save_trajectory(Trajectory.from_stacks(rotations, centers, traj.intrinsics_stack,
                                           traj.image_size, traj.label), video / "trajectory.json")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert (f"{video}: its video follows 8 frames of 192x108, but the trajectory expected of it "
            "has 8 frames of 192x108; the two must be identical") in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_eval_rejects_video_outside_run(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--seed", "5", *SIM_ARGS]) == 0
    manifest_path = run / "bank" / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    entry = next(e for e in manifest["entries"] if not e["is_source"])
    (tmp_path / "outside").mkdir()
    video = run / entry["video_ref"]
    video.rename(tmp_path / "outside" / video.name)
    entry["video_ref"] = f"../outside/{video.name}"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert "outside the run directory" in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_eval_rejects_chunks_of_different_scenes(full_run, monkeypatch, capsys):
    load = covis.cli.load_frames

    def relabelled_load(directory, **kwargs):
        seq = load(directory, **kwargs)
        if str(directory).endswith("_c02"):
            return dataclasses.replace(seq, scene_key="another scene")
        return seq

    monkeypatch.setattr(covis.cli, "load_frames", relabelled_load)
    assert main(["eval", "--run", str(full_run), "--n-shots", "3"]) == 2
    # both shots of a pair agree on chunk 2, but each disagrees with its own chunk 1
    assert "_c02: chunk 2 of 'rotation_left' comes from scene 'another scene', its first chunk " \
        "from 'scene-" in capsys.readouterr().err


def test_eval_names_a_chunk_video_without_a_scene_key(run_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / "report.json").unlink()
    refs = _generated_refs(run, [ShotKind.ROTATION_LEFT, ShotKind.ARC_RIGHT_WITH_ROT])
    for (ref,) in refs.values():  # both shots of the first pair, so neither key is known
        path = run / ref / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**manifest, "scene_key": None}), encoding="utf-8")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    err = capsys.readouterr().err
    # the first video loaded is rotation_left's, and its manifest is refused as it is read
    path = run / refs["rotation_left"][0] / "manifest.json"
    assert f"{path}: 'scene_key' must be a str, got None" in err
    assert "different scenes" not in err
    assert not (run / "report.json").exists()


def test_eval_rejects_a_pair_whose_shots_have_different_chunks(full_run, tmp_path, monkeypatch,
                                                                capsys):
    run = tmp_path / "run"
    shutil.copytree(full_run, run)
    (run / "report.json").unlink(missing_ok=True)
    group = covis.cli._group_shots

    def without_last_chunk(*args):
        groups = group(*args)
        groups["azimuth_right"] = groups["azimuth_right"][:-1]
        return groups

    monkeypatch.setattr(covis.cli, "_group_shots", without_last_chunk)
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert ("pair (rotation_left, azimuth_right) has unequal chunks: (chunk, frames) "
            "[(1, 8), (2, 3), (3, 1)] vs [(1, 8), (2, 3)]") in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_eval_traced_peak_stays_below_one_stitched_video(tmp_path):
    # ten 192x108 chunks of at most 8 frames, each after the first overlapping the last by 5
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--seed", "3", "--frames", "35",
                 "--shots", "1,2,3", "--set", "scene.point_count=40",
                 "--set", "scheduler.chunk_frames=8", "--set", "scheduler.overlap_latent=2"]) == 0
    events = json.loads((run / "run_log.json").read_text(encoding="utf-8"))["events"]
    assert len(events[0]["chunks"]) == 10
    stitched_bytes = 35 * 108 * 192 * (3 + 4)  # one shot's rgb and int32 ids, all 35 frames
    # tracemalloc sees numpy's array buffers, and its peak does not depend on the host's RSS
    tracemalloc.start()
    try:
        assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stitched_bytes


def _copied_video(run_dir: Path, tmp_path: Path, chunk: int = 1) -> tuple[Path, Path]:
    """A copy of run_dir without its report, and the directory of one chunk video inside it."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / "report.json").unlink(missing_ok=True)
    ref = _generated_refs(run, [ShotKind.ROTATION_LEFT])["rotation_left"][chunk - 1]
    return run, run / ref


def test_eval_rejects_malformed_video_manifest(run_dir, tmp_path, capsys):
    run, video = _copied_video(run_dir, tmp_path)
    manifest = json.loads((video / "manifest.json").read_text(encoding="utf-8"))
    del manifest["width"]
    (video / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert "'width' must be a positive int" in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_eval_rejects_video_trajectory_outside_its_directory(run_dir, tmp_path, capsys):
    run, video = _copied_video(run_dir, tmp_path)
    (video / "trajectory.json").rename(tmp_path / "outside_traj.json")
    manifest = json.loads((video / "manifest.json").read_text(encoding="utf-8"))
    manifest["trajectory"] = "../../../outside_traj.json"
    (video / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert (video / manifest["trajectory"]).resolve() == tmp_path / "outside_traj.json"
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert (f"{video / 'manifest.json'}: 'trajectory' must be 'trajectory.json', "
            "got '../../../outside_traj.json'") in capsys.readouterr().err
    assert not (run / "report.json").exists()


@pytest.mark.parametrize("key, value, expect", [
    ("frame_count", 4, "manifest has 4 frames of 192x108, its trajectory 5 frames of 192x108"),
    ("width", 96, "manifest has 5 frames of 96x108, its trajectory 5 frames of 192x108"),
], ids=["frame_count", "width"])
def test_eval_names_a_video_whose_manifest_disagrees_with_its_trajectory(run_dir, tmp_path, capsys,
                                                                         key, value, expect):
    run, video = _copied_video(run_dir, tmp_path)
    manifest = json.loads((video / "manifest.json").read_text(encoding="utf-8"))
    manifest[key] = value
    (video / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert f"{video}: {expect}" in capsys.readouterr().err
    assert not (run / "report.json").exists()


def test_eval_names_the_bank_manifest_of_an_entry_in_chunk_0(run_dir, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / "report.json").unlink()
    path = run / "bank" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["entries"][1]["chunk_index"] = 0
    path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert f"{path}: entry 1: 'chunk_index' must be a positive int, got 0" in capsys.readouterr().err
    assert not (run / "report.json").exists()


@pytest.mark.parametrize("name", ["frame_0002.rgb", "frame_0002.ids"])
@pytest.mark.parametrize("change", [-1, 1])
def test_eval_rejects_frame_file_one_byte_off(run_dir, tmp_path, capsys, name, change):
    run, video = _copied_video(run_dir, tmp_path)
    path = video / name
    data = path.read_bytes()
    path.write_bytes(data[:-1] if change < 0 else data + b"\x00")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert "frame 2 has unexpected byte length" in capsys.readouterr().err
    assert not (run / "report.json").exists()


@pytest.mark.parametrize("damage", [
    lambda doc: doc["sync"][0].pop("pair"),
    lambda doc: doc["sync"][0].update(pair="rotation_left"),
    lambda doc: doc["sync"][0].update(mean_matched_pixels="12"),
    lambda doc: doc["sync"].append(None),
], ids=["no_pair", "pair_str", "mean_str", "sync_null"])
def test_report_rejects_malformed_report_json(run_dir, tmp_path, capsys, damage):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    path = run / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    damage(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--run", str(run)]) == 2
    assert f"{path}: " in capsys.readouterr().err


# Python's json writes and reads the first three as bare NaN, Infinity and -Infinity; the
# integer is a JSON number that no float holds
@pytest.mark.parametrize("mean", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["NaN", "Infinity", "-Infinity", "int_past_float_range"])
def test_report_refuses_a_sync_mean_that_is_not_finite(run_dir, tmp_path, capsys, mean):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    path = run / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["sync"][1]["mean_matched_pixels"] = mean
    path.write_text(json.dumps(doc), encoding="utf-8")
    for name in ("report_summary.csv", "trajectories.svg"):  # a report of run_dir may be copied
        (run / name).unlink(missing_ok=True)
    assert main(["report", "--run", str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"covis report: {path}: sync record 1: 'mean_matched_pixels' must "
                            f"be a finite float, got {mean!r}\n")
    assert not (run / "report_summary.csv").exists() and not (run / "trajectories.svg").exists()


@pytest.mark.parametrize("damage", [
    lambda doc: doc["poses"][1].pop("shot"),
    lambda doc: doc["poses"][1].update(rot_err=None),
    lambda doc: doc.update(poses={}),
], ids=["no_shot", "rot_err_null", "poses_obj"])
def test_report_reads_no_pose_record(run_dir, tmp_path, damage):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    assert main(["report", "--run", str(run)]) == 0
    summary = (run / "report_summary.csv").read_bytes()
    path = run / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    damage(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    (run / "report_summary.csv").unlink()
    assert main(["report", "--run", str(run)]) == 0
    assert (run / "report_summary.csv").read_bytes() == summary


@pytest.mark.parametrize("text", ["{oops", "[]", "null"])
def test_report_rejects_report_json_that_is_no_object(run_dir, tmp_path, capsys, text):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / "report.json").write_text(text, encoding="utf-8")
    assert main(["report", "--run", str(run)]) == 2
    assert f"{run / 'report.json'}: " in capsys.readouterr().err


def test_report_outputs(run_dir, capsys):
    assert main(["report", "--run", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "resolved configuration:" in out
    assert "per-shot summary:" in out

    summary = (run_dir / "report_summary.csv").read_text(encoding="utf-8").splitlines()
    assert summary[0] == "shot,chunks,frames,mean_matched_pixels"
    # a shot's match is the mean of the sync rows that name it: rotation_left is in both pairs
    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    means = [r["mean_matched_pixels"] for r in doc["sync"]]
    assert summary[1:] == [f"arc_right_with_rot,1,5,{means[0]!r}",
                           f"azimuth_right,1,5,{means[1]!r}",
                           f"rotation_left,1,5,{float(np.mean(means))!r}"]

    svg = (run_dir / "trajectories.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline") == 4  # source plus three shots
    assert "<title>rotation_left</title>" in svg
    assert "<title>source</title>" in svg


def test_readme_names_the_report_headers_and_schedule_fields_a_run_writes(run_dir):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert main(["report", "--run", str(run_dir)]) == 0
    for name in ("report.csv", "report_summary.csv"):
        (header,) = re.findall(rf"^# runs/demo/{re.escape(name)}  \(header: (\S+)\)$", readme, re.M)
        assert header == (run_dir / name).read_text(encoding="utf-8").splitlines()[0], name
    (fields,) = re.findall(r"^\| `schedule` \| [^|]* \| (.*) \|$", readme, re.M)
    event_fields, chunk_fields = fields.split("each with its")
    schedule = json.loads((run_dir / "run_log.json").read_text(encoding="utf-8"))["events"][0]
    assert sorted(re.findall(r"`(\w+)`", event_fields)) == sorted(set(schedule) - {"event"})
    assert all(sorted(re.findall(r"`(\w+)`", chunk_fields)) == sorted(c)
               for c in schedule["chunks"])


def test_report_without_eval_warns(tmp_path, capsys):
    d = tmp_path / "r"
    assert main(["simulate", "--out", str(d), "--frames", "5", "--shots", "12",
                 "--set", "scene.point_count=30"]) == 0
    capsys.readouterr()
    assert main(["report", "--run", str(d)]) == 0
    out = capsys.readouterr().out
    assert "warning: no evaluation report" in out
    assert (d / "report_summary.csv").exists()
    assert (d / "trajectories.svg").exists()


def test_report_on_empty_directory(tmp_path, capsys):
    # report reads a run as eval does: without a bank there is nothing to report on
    assert main(["report", "--run", str(tmp_path / "empty")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"covis report: {tmp_path / 'empty' / 'bank'}: no bank manifest found\n"
    assert captured.out == ""
    assert not (tmp_path / "empty").exists()


def test_retrieve_and_plan_cli(tmp_path, capsys):
    rng = np.random.default_rng(3)
    bank = MemoryBank()
    bank.append(aimed_trajectory(rng, 2, label="src"), "v0", 1, is_source=True)
    for i in range(4):
        bank.append(aimed_trajectory(rng, 2, label=f"e{i}"), f"v{i + 1}", 1)
    bank.save(tmp_path / "bank")
    target_path = tmp_path / "target.json"
    save_trajectory(aimed_trajectory(rng, 2, label="tgt"), target_path)

    assert main(["retrieve", "--bank", str(tmp_path / "bank"),
                 "--target", str(target_path), "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert "retrieved 5 of 5 entries for chunk 1" in out
    assert "  1. entry " in out
    assert "(source)" in out

    assert main(["plan", "--bank", str(tmp_path / "bank"),
                 "--target", str(target_path), "--l", "5", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "plan: k=2, steps=4" in out
    assert "merge 1: l=5, m=2" in out
    assert "final: l=2" in out
    assert "step 4 [final -> final]" in out


# each flag that spells a config key, with that key's --set, a value that differs from the
# default, and another value
_KEY_FLAGS = {
    "retrieve_k": ("retrieve", "--k", "retrieval.k", "5", "3"),
    "plan_l": ("plan", "--l", "retrieval.k", "5", "3"),
    "plan_k": ("plan", "--k", "scheduler.k", "2", "3"),
    "simulate_seed": ("simulate", "--seed", "scene.seed", "5", "3"),
}


@pytest.mark.parametrize("command, flag, key, value, other", _KEY_FLAGS.values(),
                         ids=_KEY_FLAGS.keys())
def test_a_flag_that_spells_a_key_is_its_set_and_beats_one(tmp_path, capsys, command, flag,
                                                           key, value, other):
    rng = np.random.default_rng(3)
    bank = MemoryBank()
    bank.append(aimed_trajectory(rng, 2, label="src"), "v0", 1, is_source=True)
    for i in range(5):
        bank.append(aimed_trajectory(rng, 2, label=f"e{i}"), f"v{i + 1}", 1)
    bank.save(tmp_path / "bank")
    save_trajectory(aimed_trajectory(rng, 2, label="tgt"), tmp_path / "target.json")
    runs = iter(range(5))

    def output(*args: str) -> bytes:
        """stdout of a retrieve or plan, else the config_resolved.json of a simulate."""
        if command == "simulate":
            out = tmp_path / f"run{next(runs)}"
            assert main([command, *SIM_ARGS, "--out", str(out), *args]) == 0
            return (out / "config_resolved.json").read_bytes()
        capsys.readouterr()
        assert main([command, "--bank", str(tmp_path / "bank"),
                     "--target", str(tmp_path / "target.json"), *args]) == 0
        return capsys.readouterr().out.encode()

    spelled = output(flag, value)
    assert spelled == output("--set", f"{key}={value}")
    assert spelled != output()
    # the flag goes after every --set, wherever it stands among them
    assert output("--set", f"{key}={other}", flag, value) == spelled
    assert output(flag, value, "--set", f"{key}={other}") == spelled


def test_engine_config_environment_variable_is_not_read(tmp_path, monkeypatch):
    monkeypatch.setenv("ENGINE_CONFIG", str(tmp_path / "missing.json"))
    out = tmp_path / "suite"
    assert main(["gen-benchmark", "--out", str(out)]) == 0
    assert all(len(load_trajectory(out / name)) == 93 for name in SHOT_FILES)


# each key the config no longer has, with the value it defaulted to
REMOVED_KEYS = [
    ("shots", "rotate_angle", 0.7853981633974483), ("shots", "tilt_angle", 0.5235987755982988),
    ("shots", "translate_distance", 0.5), ("shots", "zoom_distance", 2.0),
    ("shots", "lookat_depth", 5.0), ("output", "emit_svg", True),
    ("shots", "frame_count", 93), ("scheduler", "temporal_compression", 4),
    ("scene", "velocity_scale", 0.02), ("output", "directory", "runs/run"),
]


@pytest.mark.parametrize("via", ["set", "config"])
@pytest.mark.parametrize("section, key, value", REMOVED_KEYS,
                         ids=[f"{section}.{key}" for section, key, _ in REMOVED_KEYS])
def test_removed_config_keys_exit_4_as_unknown(tmp_path, capsys, via, section, key, value):
    if via == "set":
        args = ["--set", f"{section}.{key}={json.dumps(value)}"]
        expect = f"unknown key {key!r} in section {section!r}"
    else:
        config = tmp_path / "engine.json"
        config.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        args = ["--config", str(config)]
        expect = f"unknown keys in section {section!r}: [{key!r}]"
    if section in ("shots", "output"):  # the whole section is gone
        expect = f"unknown config section {section!r}"
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *SIM_ARGS, *args]) == 4
    err = capsys.readouterr().err
    assert "configuration error" in err and expect in err
    assert not out.exists()


def test_exit_codes(tmp_path, capsys):
    assert main(["gen-benchmark", "--set", "nosuch.key=1", "--out", str(tmp_path)]) == 4
    assert "configuration error" in capsys.readouterr().err
    # the output section was removed, so naming any of its keys is naming an unknown section
    assert main(["gen-benchmark", "--set", "output.bank_intermediates=true",
                 "--out", str(tmp_path)]) == 4
    assert "unknown config section 'output'" in capsys.readouterr().err
    retired = tmp_path / "retired.json"
    retired.write_text(json.dumps({"output": {"bank_intermediates": False}}), encoding="utf-8")
    assert main(["gen-benchmark", "--config", str(retired), "--out", str(tmp_path)]) == 4
    assert "unknown config section 'output'" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["gen-benchmark", "--config", str(bad), "--out", str(tmp_path)]) == 4

    missing = tmp_path / "missing.json"
    assert main(["gen-benchmark", "--base", str(missing), "--out", str(tmp_path)]) == 3
    assert "I/O error" in capsys.readouterr().err

    assert main(["simulate", "--out", str(tmp_path / "s"), "--frames", "1"]) == 2
    assert "--frames must be at least 2, got 1" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert main(["simulate", "--out", str(tmp_path / "s2"), "--frames", "5",
                 "--shots", "13"]) == 2
    assert main(["retrieve", "--bank", str(tmp_path / "nobank"),
                 "--target", str(missing)]) == 2


def test_cross_chunk_with_short_tail_chunk(tmp_path):
    # 200 frames end in a 56-frame chunk; cross-chunk pools skip entries of
    # the other length instead of failing on them
    d = tmp_path / "run"
    assert main(["simulate", "--out", str(d), "--frames", "200", "--shots", "1,2",
                 "--set", "scene.point_count=40", "--set", "retrieval.cross_chunk=true"]) == 0
    events = json.loads((d / "run_log.json").read_text(encoding="utf-8"))["events"]
    retrieves = [e for e in events if e["event"] == "retrieve"]
    assert len(retrieves) == 6
    assert [e.get("skipped", 0) for e in retrieves] == [1, 1, 1, 1, 6, 6]


def test_simulate_renders_only_kept_videos(tmp_path, monkeypatch):
    rendered = []

    def counting_render(scene, traj, start):
        rendered.append(traj)
        return render(scene, traj, start)

    render = covis.cli.render
    monkeypatch.setattr(covis.cli, "render", counting_render)
    d = tmp_path / "run"
    assert main(["simulate", "--out", str(d), "--frames", "5", "--shots", "1,2,3,4,5",
                 "--set", "scene.point_count=40", "--set", "retrieval.k=4",
                 "--set", "scheduler.k=2"]) == 0
    events = json.loads((d / "run_log.json").read_text(encoding="utf-8"))["events"]
    assert any(e["event"] == "plan" for e in events)
    # every rendered video is saved and banked; none is thrown away
    assert len(rendered) == sum(e["event"] == "banked" for e in events)
    assert len(rendered) == 6


def test_simulate_plans_every_view(tmp_path):
    # retrieval.k=3 over a context of 2: the first two views retrieve l <= 2 and take one
    # padded step, the last two retrieve l = 3 and merge
    d = tmp_path / "run"
    assert main(["simulate", "--out", str(d), "--frames", "30", "--shots", "1,2,3,4",
                 "--set", "retrieval.k=3", "--set", "scheduler.k=2",
                 "--set", "scene.point_count=50"]) == 0
    events = json.loads((d / "run_log.json").read_text(encoding="utf-8"))["events"]
    kinds = [e["event"] for e in events]
    assert kinds.count("retrieve") == kinds.count("plan") == 4
    ls = []
    for n, e in enumerate(events):
        if e["event"] != "retrieve":
            continue
        plan = events[n + 1]
        assert (plan["event"], plan["view"], plan["chunk"]) == ("plan", e["view"], e["chunk"])
        assert plan["steps"][-1]["final"] and len(plan["steps"][-1]["context"]) == 2
        refs = [r for step in plan["steps"] for r in step["context"] if r.startswith("entry:")]
        l = len(e["scores"])
        assert sorted(refs, key=lambda r: int(r[6:])) == [f"entry:{i}" for i in range(l)]
        ls.append(l)
    assert ls == [1, 2, 3, 3]


def test_jittered_sampler_runs_end_to_end(tmp_path):
    # every retrieval score equals a frame-loop mean of frame_covisibility on the jittered lattice
    d = tmp_path / "run"
    assert main(["simulate", "--out", str(d), *SIM_ARGS, "--set", "sampler.jitter_seed=3"]) == 0
    assert main(["eval", "--run", str(d), "--n-shots", "3"]) == 0
    cfg = SamplerConfig(jitter_seed=3)
    bank = MemoryBank.open(d / "bank")
    by_ref = {e.video_ref: e.trajectory for e in bank.entries}
    events = json.loads((d / "run_log.json").read_text(encoding="utf-8"))["events"]
    banked = [e["ref"] for e in events if e["event"] == "banked"]
    retrieves = [e for e in events if e["event"] == "retrieve"]
    assert len(retrieves) == 3
    # view v's trajectory is the one banked after the source and the v - 1 views before it
    for target, e in zip((by_ref[ref] for ref in banked[1:]), retrieves):
        for i, score in e["scores"]:
            total = 0.0
            for (pa, _), (pb, _) in zip(target.frames, bank.entries[i].trajectory.frames):
                total += frame_covisibility(build_frustum(pa), build_frustum(pb), cfg)
            assert score == total / len(target)


def _write_bank(root: Path) -> tuple[Path, Path]:
    rng = np.random.default_rng(53)
    bank = MemoryBank()
    bank.append(aimed_trajectory(rng, 2, label="src"), "v0", 1, is_source=True)
    bank.append(aimed_trajectory(rng, 2, label="e1"), "v1", 1)
    bank.save(root / "bank")
    target = root / "target.json"
    save_trajectory(aimed_trajectory(rng, 2, label="tgt"), target)
    return root / "bank", target


def test_retrieve_rejects_trajectory_outside_bank(tmp_path, capsys):
    bank_dir, target = _write_bank(tmp_path)
    manifest_path = bank_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    # a valid trajectory file, but outside the bank directory
    manifest["entries"][1]["trajectory"] = "../target.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["retrieve", "--bank", str(bank_dir), "--target", str(target)]) == 2
    assert "entry 1 needs insert_seq 2 and trajectory traj_000002.json" in capsys.readouterr().err


def test_retrieve_names_the_manifest_entry_of_a_second_source(tmp_path, capsys):
    bank_dir, target = _write_bank(tmp_path)
    manifest_path = bank_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["entries"][1]["is_source"] = True
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["retrieve", "--bank", str(bank_dir), "--target", str(target)]) == 2
    err = capsys.readouterr().err
    assert f"{manifest_path}: entry 1: chunk 1 already has a source entry" in err


_MANIFEST_KEYS = ["trajectory", "video_ref", "chunk_index", "insert_seq", "is_source"]
_DELETE = object()
_not_str = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.lists(
    st.integers(), max_size=2)
_not_int = st.none() | st.booleans() | st.text(max_size=4) | st.floats(allow_nan=False) | st.lists(
    st.integers(), max_size=2) | st.integers(max_value=0)
_not_bool = st.none() | st.integers() | st.text(max_size=4) | st.lists(st.integers(), max_size=2)
_BAD_VALUES = {
    "trajectory": _not_str | st.sampled_from(["../target.json", "/", "..", "missing.json"]),
    "video_ref": _not_str,
    "chunk_index": _not_int,
    "insert_seq": _not_int,
    "is_source": _not_bool,
}
manifest_damage = st.lists(
    st.tuples(st.integers(0, 1), st.sampled_from(_MANIFEST_KEYS)).flatmap(
        lambda where: st.tuples(
            st.just(where), st.just(_DELETE) | _BAD_VALUES[where[1]]
        )
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(manifest_damage)
def test_retrieve_on_damaged_manifest_exits_2_or_3(damage):
    with tempfile.TemporaryDirectory() as tmp:
        bank_dir, target = _write_bank(Path(tmp))
        manifest_path = bank_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for (n, key), value in damage:
            if value is _DELETE:
                manifest["entries"][n].pop(key, None)
            else:
                manifest["entries"][n][key] = value
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert main(["retrieve", "--bank", str(bank_dir), "--target", str(target)]) in (2, 3)


@pytest.mark.parametrize("field, value", [("insert_seq", 5), ("trajectory", "traj_000003.json")],
                         ids=["seq_gap", "misnamed_file"])
def test_retrieve_on_bank_out_of_sequence_exits_2(tmp_path, capsys, field, value):
    # an append and save would give either bank seq 3 in traj_000003.json: after
    # [1, 5] it no longer reopens, and entry 2's file would be overwritten
    bank_dir, target = _write_bank(tmp_path)
    manifest_path = bank_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["entries"][1][field] = value
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    if field == "trajectory":
        (bank_dir / "traj_000002.json").rename(bank_dir / value)
    assert main(["retrieve", "--bank", str(bank_dir), "--target", str(target)]) == 2
    assert "needs insert_seq 2 and trajectory traj_000002.json" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "3", '{"entries": {}}', '{"entries": [1]}'])
def test_retrieve_on_malformed_manifest_exits_2(tmp_path, text):
    bank_dir, target = _write_bank(tmp_path)
    (bank_dir / "manifest.json").write_text(text, encoding="utf-8")
    assert main(["retrieve", "--bank", str(bank_dir), "--target", str(target)]) == 2


def test_out_names_a_directory_even_when_it_reads_as_a_number(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--out", "2024", *SIM_ARGS]) == 0
    assert (tmp_path / "2024" / "run_log.json").exists()
    config = json.loads((tmp_path / "2024" / "config_resolved.json").read_text(encoding="utf-8"))
    assert "output" not in config


@pytest.mark.parametrize("args", [
    ["--set", "scene.point_count=abc"],
    ["--set", "scheduler.k=1.5"],
    ["--config", "{config}"],
    ["--set", "frustum.far=inf"],
    ["--set", "scene.extent=nan"],
], ids=["point_count_abc", "k_1.5", "seed_str_in_file", "far_inf", "extent_nan"])
def test_mistyped_config_values_exit_4(tmp_path, capsys, args):
    config = tmp_path / "engine.json"
    config.write_text(json.dumps({"scene": {"seed": "x"}}), encoding="utf-8")
    args = [a.format(config=config) for a in args]
    assert main(["simulate", "--out", str(tmp_path / "run"), *SIM_ARGS, *args]) == 4
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


_RANGE_CASES = [
    ("simulate", "scene.point_count=0", "point_count must be >= 1, got 0"),
    ("simulate", "scene.extent=-1", "extent must be positive, got -1.0"),
    ("simulate", "scene.moving_fraction=2", "moving_fraction must lie in [0, 1], got 2.0"),
    ("simulate", "shots.frame_count=1", "unknown config section 'shots'"),
    ("simulate", "sampler.grid_w=0", "sampler grid must be >= 1 in every dimension, got 0x6x8"),
    ("simulate", "sampler.jitter_seed=-1", "jitter_seed must be null or >= 0, got -1"),
    ("simulate", "scene.seed=-1", "seed must be >= 0, got -1"),
    ("simulate", "scene.velocity_scale=-0.5", "unknown key 'velocity_scale' in section 'scene'"),
    ("simulate", "scene.velocity_scale=1e308", "unknown key 'velocity_scale' in section 'scene'"),
    ("simulate", "scheduler.k=0", "context size k must be >= 1, got 0"),
    ("simulate", "retrieval.k=0", "k must be >= 1, got 0"),
    ("simulate", "retrieval.tie_rule=x", "unknown tie rule 'x'"),
]


@pytest.mark.parametrize("command, setting, expect", _RANGE_CASES,
                         ids=[setting for _, setting, _ in _RANGE_CASES])
def test_out_of_range_config_values_exit_4(tmp_path, capsys, command, setting, expect):
    out = tmp_path / "run"
    args = [command, "--out", str(out), *(SIM_ARGS if command == "simulate" else []),
            "--set", setting]
    assert main(args) == 4
    err = capsys.readouterr().err
    section = setting.split(".")[0]
    if expect.startswith(("unknown key", "unknown config section")):  # a removed knob
        assert f"configuration error: {expect}" in err
    else:
        assert f"configuration error: invalid config section {section!r}: " in err and expect in err
    assert not out.exists()


def test_zero_counts_and_empty_shot_lists_reach_their_validators(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "run"), "--frames", "0"]) == 2
    assert main(["simulate", "--out", str(tmp_path / "run"), "--shots", ""]) == 2
    assert not (tmp_path / "run" / "run_log.json").exists()
    bank_dir, target = _write_bank(tmp_path)
    where = ["--bank", str(bank_dir), "--target", str(target)]
    capsys.readouterr()
    # each count flag spells a config key, so a bad count is refused as that key's value is:
    # retrieve's --k and plan's --l are retrieval.k, plan's --k is scheduler.k
    for args, message in ((["retrieve", "--k", "0"], "'retrieval': k"),
                          (["plan", "--l", "0"], "'retrieval': k"),
                          (["plan", "--k", "0"], "'scheduler': context size k")):
        assert main([*args, *where]) == 4
        assert capsys.readouterr().err == f"covis {args[0]}: configuration error: " \
            f"invalid config section {message} must be >= 1, got 0\n"


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("fresh") / "run"
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 0
    return d


def _run_files(run: Path) -> dict[str, bytes]:
    """Every file under run by relative path, with its bytes."""
    return {p.relative_to(run).as_posix(): p.read_bytes() for p in run.rglob("*") if p.is_file()}


# SIM_ARGS writes four videos and banks four entries. Each case fails the n-th video's
# frame write, or the n-th replace of a file whose path in the run starts with a prefix.
_FAILED_WRITES = {
    "frames-1": ("frames", 1), "frames-2": ("frames", 2), "frames-4": ("frames", 4),
    "traj-1": ("bank/traj_", 1), "traj-4": ("bank/traj_", 4),
    "manifest-1": ("bank/manifest.json", 1), "run_log-1": ("run_log.json", 1),
    "config_resolved-1": ("config_resolved.json", 1),
}


@pytest.mark.parametrize("what, n", list(_FAILED_WRITES.values()), ids=list(_FAILED_WRITES))
def test_failed_simulate_leaves_no_bank_and_reruns_in_place(tmp_path, monkeypatch, fresh_run,
                                                            what, n):
    d = tmp_path / "run"
    save_frames, replace = covis.cli.save_frames, os.replace
    writes = []

    def failing_save(seq, directory, written=None):
        writes.append(directory)
        if len(writes) == n:
            directory.mkdir(parents=True)
            (directory / "frame_0000.rgb").write_bytes(b"")
            raise OSError("no space left on device")
        return save_frames(seq, directory, written=written)

    def failing_replace(src, dst):
        if Path(dst).relative_to(d).as_posix().startswith(what):
            writes.append(dst)
            if len(writes) == n:
                raise OSError("no space left on device")
        return replace(src, dst)

    if what == "frames":
        monkeypatch.setattr(covis.cli, "save_frames", failing_save)
    else:
        monkeypatch.setattr(os, "replace", failing_replace)
    threads = threading.active_count()
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 3
    assert len(writes) >= n
    assert threading.active_count() == threads  # both frame writers were joined
    assert not (d / "bank" / "manifest.json").exists()
    for path in (d / "bank").glob("traj_*.json"):
        load_trajectory(path)

    monkeypatch.undo()
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 0
    assert _run_files(d) == _run_files(fresh_run)


# SIM_ARGS writes four videos: the source chunk, then shots 1, 2 and 3
@pytest.mark.parametrize("n", [1, 2, 4])
def test_failed_frame_write_exits_3_and_leaves_no_run_log(tmp_path, monkeypatch, capsys, n):
    save_frames = covis.cli.save_frames
    calls = []

    def failing_save(seq, directory, written=None):
        calls.append(directory)
        if len(calls) == n:
            directory.mkdir(parents=True)
            (directory / "frame_0000.rgb").write_bytes(b"")
            raise OSError("no space left on device")
        return save_frames(seq, directory, written=written)

    monkeypatch.setattr(covis.cli, "save_frames", failing_save)
    d = tmp_path / "run"
    threads = threading.active_count()
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 3
    assert threading.active_count() == threads
    assert "I/O error: no space left on device" in capsys.readouterr().err
    # the error surfaces at the render after the next video is handed over, or at the
    # final wait, so exactly one more video is handed over when there is one
    assert len(calls) == min(n + 1, 4)
    assert not (d / "run_log.json").exists()
    assert not (d / "config_resolved.json").exists()
    assert not (calls[n - 1] / "manifest.json").exists()
    assert all((c / "manifest.json").exists() for i, c in enumerate(calls) if i != n - 1)


def _frame_files(run: Path) -> list[Path]:
    return sorted(run.rglob("frame_*"))


def test_rerun_over_linked_frames_of_a_failed_run_writes_through_none(tmp_path, monkeypatch):
    save_frames = covis.cli.save_frames
    calls = []

    def failing_save(seq, directory, written=None):
        calls.append(directory)
        if len(calls) == 4:
            raise OSError("no space left on device")
        return save_frames(seq, directory, written=written)

    # a static scene's identity source repeats one frame, so the failed run leaves links
    d = tmp_path / "run"
    monkeypatch.setattr(covis.cli, "save_frames", failing_save)
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 3
    assert any(p.stat().st_nlink > 1 for p in _frame_files(d))
    monkeypatch.undo()
    # on a moving scene those frames differ, so writing through one name would change its twins
    moving = [*SIM_ARGS, "--seed", "2", "--set", "scene.moving_fraction=0.5"]
    assert main(["simulate", "--out", str(d), *moving]) == 0
    assert main(["simulate", "--out", str(tmp_path / "fresh"), *moving]) == 0
    assert _run_files(d) == _run_files(tmp_path / "fresh")


@pytest.mark.parametrize("code", [errno.EPERM, errno.EMLINK, errno.EXDEV, errno.ENOTSUP],
                         ids=errno.errorcode.get)
def test_refused_frame_links_fall_back_to_writes(tmp_path, monkeypatch, fresh_run, code):
    def refused_link(src, dst, **kwargs):
        raise OSError(code, os.strerror(code))

    assert any(p.stat().st_nlink > 1 for p in _frame_files(fresh_run))
    monkeypatch.setattr(os, "link", refused_link)
    d = tmp_path / "run"
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 0
    assert _run_files(d) == _run_files(fresh_run)
    assert all(p.stat().st_nlink == 1 for p in _frame_files(d))


def test_write_error_after_a_refused_frame_link_exits_3(tmp_path, monkeypatch, capsys):
    refused = []

    def refused_link(src, dst, **kwargs):
        refused.append(Path(dst).name)
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    open_ = os.open

    def full_disk_open(path, flags, *args, **kwargs):
        # the source video's second frame would be linked to its first; each video's
        # second frame fails, whichever writer thread reaches one first
        if Path(path).name == "frame_0001.rgb" and flags & os.O_CREAT:
            raise OSError(errno.ENOSPC, "no space left on device")
        return open_(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "link", refused_link)
    monkeypatch.setattr(os, "open", full_disk_open)
    d = tmp_path / "run"
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 3
    assert "frame_0001.rgb" in refused
    assert "I/O error: [Errno 28] no space left on device" in capsys.readouterr().err
    assert not (d / "bank" / "manifest.json").exists()


@settings(max_examples=12, deadline=None)
@given(moving=st.sampled_from([0.0, 0.5]), frames=st.integers(2, 12),
       shots=st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 20))
def test_linked_frame_files_hold_equal_bytes_and_every_video_round_trips(moving, frames, shots,
                                                                         seed):
    save_frames = covis.cli.save_frames
    saved: dict[Path, FrameSequence] = {}

    def recording_save(seq, directory, written=None):
        saved[directory] = seq
        return save_frames(seq, directory, written=written)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(covis.cli, "save_frames", recording_save)
        d = Path(tmp) / "run"
        assert main(["simulate", "--out", str(d), "--frames", str(frames), "--seed", str(seed),
                     "--shots", ",".join(map(str, shots)), "--set", "scene.point_count=40",
                     "--set", f"scene.moving_fraction={moving}",
                     "--set", "scheduler.chunk_frames=4",
                     "--set", "scheduler.overlap_latent=1"]) == 0
        inodes: dict[tuple[int, int], list[Path]] = {}
        for p in _frame_files(d):
            info = p.stat()
            inodes.setdefault((info.st_dev, info.st_ino), []).append(p)
        for names in inodes.values():
            assert len({p.read_bytes() for p in names}) == 1
        if moving == 0.0:  # the identity source's frames are all equal
            assert len(inodes) < len(_frame_files(d))
        for directory, seq in saved.items():
            loaded = load_frames(directory)
            assert loaded.frames is None
            assert np.array_equal(read_rgb(directory, seq.trajectory), seq.frames)
            assert np.array_equal(loaded.id_map, seq.id_map)


def test_two_frame_writes_overlap(tmp_path, monkeypatch):
    save_frames = covis.cli.save_frames
    # one writer would wait here alone until the timeout breaks the barrier
    barrier = threading.Barrier(2, timeout=10)
    calls = []

    def meeting_save(seq, directory, written=None):
        calls.append(directory)
        if len(calls) <= 2:
            barrier.wait()
        return save_frames(seq, directory, written=written)

    monkeypatch.setattr(covis.cli, "save_frames", meeting_save)
    assert main(["simulate", "--out", str(tmp_path / "run"), *SIM_ARGS]) == 0
    assert len(calls) == 4 and not barrier.broken


def test_simulate_holds_at_most_one_earlier_video_and_frees_each_on_the_calling_thread(
        tmp_path, monkeypatch):
    render, save_frames = covis.cli.render, covis.cli.save_frames
    rendered = weakref.WeakSet()
    earlier = []
    freed_on = []

    def tracked_render(scene, traj, start):
        earlier.append(len(rendered))
        seq = render(scene, traj, start)
        rendered.add(seq)
        weakref.finalize(seq, lambda: freed_on.append(threading.current_thread().name))
        return seq

    def slow_save(seq, directory, written=None):
        time.sleep(0.05)  # keep each write in flight across the next render
        return save_frames(seq, directory, written=written)

    monkeypatch.setattr(covis.cli, "render", tracked_render)
    monkeypatch.setattr(covis.cli, "save_frames", slow_save)
    assert main(["simulate", "--out", str(tmp_path / "run"), *SIM_ARGS,
                 "--set", "scheduler.chunk_frames=4", "--set", "scheduler.overlap_latent=1"]) == 0
    assert len(earlier) == 8 and max(earlier) <= 1
    # a writer that freed a video would do so at varying points of the next render
    assert freed_on == [threading.current_thread().name] * 8


def test_simulate_waits_for_every_frame_write(tmp_path, monkeypatch):
    save_frames = covis.cli.save_frames

    def slow_save(seq, directory, written=None):
        time.sleep(0.05)
        return save_frames(seq, directory, written=written)

    monkeypatch.setattr(covis.cli, "save_frames", slow_save)
    d = tmp_path / "run"
    threads = threading.active_count()
    assert main(["simulate", "--out", str(d), *SIM_ARGS, "--set", "scheduler.chunk_frames=4",
                 "--set", "scheduler.overlap_latent=1"]) == 0
    assert threading.active_count() == threads
    entries = json.loads((d / "bank" / "manifest.json").read_text(encoding="utf-8"))["entries"]
    assert len(entries) == 8  # two chunks of a source and three shots
    for e in entries:
        video = d / e["video_ref"]
        n = json.loads((video / "manifest.json").read_text(encoding="utf-8"))["frame_count"]
        assert sorted(p.name for p in video.glob("frame_*")) == sorted(
            f"frame_{i:04d}.{ext}" for i in range(n) for ext in ("rgb", "ids"))


# over 12 frames, three chunks, [0, 8), [3, 11) and [6, 12), and a non-default overlap
CONFIG_FLAGS = ["--set", "scheduler.chunk_frames=8", "--set", "scheduler.overlap_latent=2"]


@pytest.fixture(scope="module")
def config_run(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("config_run")
    assert main(["simulate", "--out", str(d), "--seed", "4", "--frames", "12", "--shots", "1,2,3",
                 "--set", "scene.point_count=40", *CONFIG_FLAGS]) == 0
    return d


_REPORT_FILES = ["report.json", "report.csv", "report_summary.csv", "trajectories.svg"]


def _eval_and_report(run: Path) -> dict[str, bytes]:
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 0
    assert main(["report", "--run", str(run)]) == 0
    return {name: (run / name).read_bytes() for name in _REPORT_FILES}


def test_eval_scores_a_run_with_the_config_it_was_simulated_with(config_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(config_run, run)
    # stitched by the run's own overlap, every shot is the trajectory it was asked for
    doc = json.loads(_eval_and_report(run)["report.json"])
    assert all(p["trans_err"] == 0.0 and p["rot_err"] < 1e-5 for p in doc["poses"])


def test_eval_and_report_do_not_read_the_run_log(config_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(config_run, run)
    with_log = _eval_and_report(run)
    (run / "run_log.json").unlink()
    assert _eval_and_report(run) == with_log


def test_report_frames_are_the_stitched_length_and_cells_stay_apart(config_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(config_run, run)
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 0
    doc = json.loads((run / "report.json").read_text(encoding="utf-8"))
    doc["sync"][0].update(mean_matched_pixels=-1.23456e-100)  # the widest .6g cell
    (run / "report.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    table = out.split("per-shot summary:\n")[1].split("\nwrote ")[0].splitlines()
    assert table[0].split() == ["shot", "chunks", "frames", "match_px"]
    rows = [line.split() for line in table[1:]]
    assert len(rows) == 3 and all(len(cells) == 4 for cells in rows)
    assert ["arc_right_with_rot", "3", "12", "-1.23456e-100"] in rows
    summary = (run / "report_summary.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[1:3] for line in summary[1:]] == [["3", "12"]] * 3


@pytest.mark.parametrize("text, code, says", [
    (None, 2, "not found"),
    ("{oops", 4, "invalid config JSON"),
    ('{"scene": {"point_count": "x"}}', 4, "'point_count' must be an int"),
    ('{"scheduler": {"temporal_compression": 4}}', 4,
     "unknown keys in section 'scheduler': ['temporal_compression']"),
    ('{"scene": {"seed": 4}, "output": {"directory": "runs/run"}}', 4,
     "unknown config section 'output'"),
], ids=["missing", "not_json", "mistyped", "removed_key", "old_run_output_section"])
def test_eval_without_a_readable_run_config_names_it(config_run, tmp_path, capsys, text, code,
                                                     says):
    run = tmp_path / "run"
    shutil.copytree(config_run, run)
    path = run / "config_resolved.json"
    if text is None:
        path.unlink()
    else:
        path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == code
    err = capsys.readouterr().err
    assert str(path) in err and says in err and "Traceback" not in err
    assert not (run / "report.json").exists()


def test_report_without_run_config_exits_2_naming_it(config_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(config_run, run)
    (run / "config_resolved.json").unlink()
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"covis report: {run / 'config_resolved.json'}: not found; "
                            "the run's simulate did not finish\n")
    assert not (run / "report_summary.csv").exists()
    assert not (run / "trajectories.svg").exists()


def test_report_lists_only_the_source_and_the_shots(tmp_path):
    # retrieval.k=8 over a context of 4 plans merges, and none of them is banked
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--seed", "3", "--frames", "12",
                 "--set", "scene.point_count=40", "--set", "retrieval.k=8", *CONFIG_FLAGS]) == 0
    events = json.loads((run / "run_log.json").read_text(encoding="utf-8"))["events"]
    assert any(e["event"] == "plan" for e in events)
    outputs = _eval_and_report(run)
    labels = {e.trajectory.label for e in MemoryBank.open(run / "bank").entries}
    assert labels == {"source"} | {k.slug for k in ShotKind}
    summary = outputs["report_summary.csv"].decode().splitlines()
    assert sorted(line.split(",")[0] for line in summary[1:]) == sorted(k.slug for k in ShotKind)
    assert outputs["trajectories.svg"].count(b"<polyline") == 13


@pytest.mark.parametrize("flags", [
    ["retrieval.include_source=false"], ["scheduler.k=1", "retrieval.k=2"],
], ids=["no_source", "context_1_retrieve_2"])
def test_simulate_rejects_a_config_it_cannot_finish_before_banking(tmp_path, capsys, flags):
    d = tmp_path / "run"
    sets = [arg for flag in flags for arg in ("--set", flag)]
    args = ["--out", str(d), "--frames", "5", "--shots", "1,2", "--set", "scene.point_count=40"]
    capsys.readouterr()
    assert main(["simulate", *args, *sets]) == 2
    err = capsys.readouterr().err
    assert flags[0] in err and "Traceback" not in err
    assert not (d / "bank" / "manifest.json").exists()
    assert main(["simulate", *args]) == 0
    # retrieve still takes the setting
    target = d / "videos" / "s01_rotation_left_c01" / "trajectory.json"
    assert main(["retrieve", "--bank", str(d / "bank"), "--target", str(target), *sets]) == 0


_HELP = {"-h", "--help"}
_CONFIG = {"--config", "--set"}


@pytest.mark.parametrize("command, flags", [
    ("gen-benchmark", _CONFIG | {"--out", "--base"}),
    ("retrieve", _CONFIG | {"--bank", "--target", "--chunk", "--k"}),
    ("plan", _CONFIG | {"--bank", "--target", "--chunk", "--l", "--k"}),
    ("simulate", _CONFIG | {"--seed", "--out", "--source", "--shots", "--frames"}),
    ("eval", {"--run", "--n-shots"}),
    ("report", {"--run"}),
])
def test_each_subcommand_accepts_exactly_its_flags(command, flags):
    parser = covis.cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[command]
    assert {s for a in sub._actions for s in a.option_strings} == _HELP | flags


_BANK_TARGET = ["--bank", "b", "--target", "t"]
# each flag a subcommand lost when it stopped ignoring it
_DROPPED_FLAGS = {
    "eval_config": ["eval", "--config", "c.json"],
    "eval_set": ["eval", "--set", "scene.point_count=5"],
    "eval_seed": ["eval", "--seed", "7"],
    "eval_out": ["eval", "--out", "d"],
    "report_config": ["report", "--config", "c.json"],
    "report_set": ["report", "--set", "scene.point_count=5"],
    "report_seed": ["report", "--seed", "7"],
    "report_out": ["report", "--out", "d"],
    "gen_benchmark_seed": ["gen-benchmark", "--seed", "3"],
    "retrieve_seed": ["retrieve", *_BANK_TARGET, "--seed", "3"],
    "retrieve_out": ["retrieve", *_BANK_TARGET, "--out", "d"],
    "plan_seed": ["plan", *_BANK_TARGET, "--seed", "3"],
    "plan_out": ["plan", *_BANK_TARGET, "--out", "d"],
}


def _exits_2(args: list[str], capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("args", _DROPPED_FLAGS.values(), ids=_DROPPED_FLAGS.keys())
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    _exits_2(args, capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("frames", ["500", "93"])
def test_simulate_refuses_source_with_frames(tmp_path, monkeypatch, capsys, frames):
    # 93 is --frames' default; given explicitly, the group refuses it too
    monkeypatch.chdir(tmp_path)
    source = _source_with(tmp_path, 3, lambda f, intr: None)
    _exits_2(["simulate", "--source", str(source), "--frames", frames], capsys)
    assert list(tmp_path.iterdir()) == [source]


def test_out_and_run_default_to_the_same_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", *SIM_ARGS]) == 0
    assert main(["eval", "--n-shots", "3"]) == 0
    assert main(["report"]) == 0
    assert (tmp_path / "runs" / "run" / "report.json").exists()
    assert (tmp_path / "runs" / "run" / "trajectories.svg").exists()


def _source_with(tmp_path: Path, frames: int, edit) -> Path:
    """A static source trajectory file whose frame intrinsics edit(f, intrinsics) rewrites.

    edit may set a value to the string "@"; it lands in the file as the raw JSON text after it.
    """
    intr = CameraIntrinsics(fx=8.0, fy=8.0, cx=8.0, cy=6.0, width=16, height=12)
    path = tmp_path / "source.json"
    save_trajectory(Trajectory.from_poses([CameraPose.identity()] * frames, intr), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    raw = {}
    for f, rec in enumerate(doc["frames"]):
        raw.update(edit(f, rec["intrinsics"]) or {})
    text = json.dumps(doc)
    for key, value in raw.items():
        text = text.replace(f'"{key}"', value)
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("key, value, frames, expect", [
    ("cx", "NaN", [1], "frame 1: intrinsics has non-finite values [8.0, 8.0, nan, 6.0]"),
    ("fx", "1e400", [2], "frame 2: intrinsics has non-finite values [inf, 8.0, 8.0, 6.0]"),
    ("width", "192.7", [0, 1, 2], "frame 0: image size must be integers >= 1, got 192.7x12"),
    ("width", "true", [0, 1, 2], "frame 0: image size must be integers >= 1, got Truex12"),
    ("width", "[192]", [1], "frame 1: image size must be integers >= 1, got [192]x12"),
    ("height", '{"h": 12}', [2], "frame 2: image size must be integers >= 1, got 16x{'h': 12}"),
    ("width", "16.0", [2], "frame 2: image size must be integers >= 1, got 16.0x12"),
    ("width", "17", [1], "frame 1 has image size 17x12, expected 16x12"),
    ("fy", "1" + "0" * 400, [1], "malformed trajectory record (int too large to convert to float)"),
    ("fx", '"96"', [0], "frame 0: intrinsics must hold only numbers, got ('96', 8, 8, 6)"),
    ("cy", "true", [2], "frame 2: intrinsics must hold only numbers, got (8, 8, 8, True)"),
], ids=["nan_cx", "inf_fx", "float_width", "bool_width", "list_width", "object_height",
     "huge_int_fy", "string_fx", "bool_cy", "float_width_equal_to_frame_0", "other_width"])
def test_simulate_rejects_bad_intrinsics_naming_the_frame(tmp_path, capsys, key, value, frames,
                                                          expect):
    def edit(f, intr):
        if f in frames:
            intr[key] = f"@{key}{f}"
            return {f"@{key}{f}": value}

    source = _source_with(tmp_path, 3, edit)
    out = tmp_path / "run"
    args = ["simulate", "--source", str(source), "--shots", "1", "--out", str(out),
            "--set", "scene.point_count=40"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert expect in err and str(source) in err
    assert not (out / "bank" / "manifest.json").exists()


@pytest.mark.parametrize("args, code, says", [
    (["simulate", "--shots", ""], 2, "empty shot list"),
    (["simulate", "--source", "{missing}"], 3, "I/O error"),
    (["gen-benchmark", "--base", "{missing}"], 3, "I/O error"),
    # every count below 2 gets the one message, before the source is built
    (["simulate", "--frames=1"], 2, "--frames must be at least 2, got 1"),
    (["simulate", "--frames=0"], 2, "--frames must be at least 2, got 0"),
    (["simulate", "--frames=-3"], 2, "--frames must be at least 2, got -3"),
], ids=["simulate_empty_shots", "simulate_missing_source", "gen_benchmark_missing_base",
        "simulate_frames_1", "simulate_frames_0", "simulate_frames_-3"])
def test_a_rejected_input_leaves_no_output_directory(tmp_path, capsys, args, code, says):
    out = tmp_path / "out"
    args = [a.replace("{missing}", str(tmp_path / "missing.json")) for a in args]
    assert main([*args, "--out", str(out)]) == code
    assert says in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_bool_in_a_rotation(tmp_path, capsys):
    # true where the identity rotation holds a 1 would read as 1.0 and pass every pose check
    source = _source_with(tmp_path, 3, lambda f, intr: None)
    doc = json.loads(source.read_text(encoding="utf-8"))
    doc["frames"][1]["rotation"][4] = True
    source.write_text(json.dumps(doc), encoding="utf-8")
    args = ["simulate", "--source", str(source), "--shots", "1", "--out", str(tmp_path / "run"),
            "--set", "scene.point_count=40"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{source}: frame 1: rotation must hold only numbers" in err


@pytest.mark.parametrize("label", [None, 5, ["a"], {"x": 1}], ids=["null", "int", "list", "object"])
def test_simulate_rejects_a_source_label_that_is_not_text(tmp_path, capsys, label):
    # each used to load as its Python text: 'None', '5', "['a']", "{'x': 1}"
    source = _source_with(tmp_path, 3, lambda f, intr: None)
    doc = json.loads(source.read_text(encoding="utf-8"))
    doc["label"] = label
    source.write_text(json.dumps(doc), encoding="utf-8")
    args = ["simulate", "--source", str(source), "--shots", "1", "--out", str(tmp_path / "run"),
            "--set", "scene.point_count=40"]
    assert main(args) == 2
    assert f"{source}: 'label' must be a str, got {label!r}" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_simulate_rejects_a_source_with_one_number_replaced(data):
    # any one pose or intrinsic value as a JSON string, bool or null: exit 2, naming the file
    with tempfile.TemporaryDirectory() as tmp:
        source = _source_with(Path(tmp), 3, lambda f, intr: None)
        doc = json.loads(source.read_text(encoding="utf-8"))
        frame = doc["frames"][data.draw(st.integers(0, 2), label="frame")]
        values = frame[data.draw(st.sampled_from(["rotation", "translation", "intrinsics"]))]
        key = data.draw(st.sampled_from(sorted(values) if isinstance(values, dict)
                                        else range(len(values))))
        values[key] = data.draw(st.text(max_size=3) | st.booleans() | st.none(), label="value")
        source.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["simulate", "--source", str(source), "--shots", "1",
                         "--out", str(Path(tmp) / "run"), "--set", "scene.point_count=40"])
        assert code == 2 and str(source) in err.getvalue()


def test_simulate_on_an_image_size_numpy_refuses_exits_2(tmp_path, capsys):
    # 2 frames of 10^9 x 10^9 RGB ask for 6e18 bytes: numpy refuses before touching memory
    def edit(f, intr):
        intr.update(width=1_000_000_000, height=1_000_000_000)

    source = _source_with(tmp_path, 2, edit)
    args = ["simulate", "--source", str(source), "--shots", "1", "--out", str(tmp_path / "run"),
            "--set", "scene.point_count=40"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("covis simulate: ") and "allocate" in err


def test_eval_rejects_a_chunk_video_whose_trajectory_was_edited(run_dir, tmp_path, capsys):
    run, video = _copied_video(run_dir, tmp_path)
    traj = load_trajectory(video / "trajectory.json")
    poses = [p for p, _ in traj.frames]
    poses[2] = CameraPose(poses[2].rotation, poses[2].translation + [0.0, 0.25, 0.0])
    save_trajectory(Trajectory.from_poses(poses, traj.frames[0][1], traj.label),
                    video / "trajectory.json")
    assert main(["eval", "--run", str(run), "--n-shots", "3"]) == 2
    assert (f"{video}: its video follows 5 frames of 192x108, but the trajectory expected of it "
            "has 5 frames of 192x108; the two must be identical") in capsys.readouterr().err
    assert not (run / "report.json").exists()
