"""End-to-end command-line coverage: artifacts, determinism, exit codes."""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis import (
    CameraIntrinsics,
    CameraPose,
    MemoryBank,
    Trajectory,
    load_trajectory,
    save_config,
    save_trajectory,
    sync_pairs,
    sync_report,
)
import covis.cli
from covis.cli import main
from covis.config import apply_overrides, default_config
from covis.scene import FrameSequence, load_frames
from covis.trajectory_ops import ShotKind
from helpers import aimed_trajectory

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
    assert main(["gen-benchmark", "--out", str(a), "--set", "shots.frame_count=7"]) == 0
    out = capsys.readouterr().out
    names = sorted(p.name for p in a.glob("*.json") if p.name != "sync_pairs.json")
    assert names == SHOT_FILES
    assert all(f"wrote {a / n}" in out for n in names)
    traj = load_trajectory(a / SHOT_FILES[0])
    assert len(traj) == 7
    assert traj.label == "rotation_left"

    manifest = json.loads((a / "sync_pairs.json").read_text(encoding="utf-8"))
    assert set(manifest) == {"3", "6", "9", "12"}
    for n in (3, 6, 9, 12):
        expect = [[p.slug, q.slug] for p, q in sync_pairs(n)]
        assert manifest[str(n)] == expect

    b = tmp_path / "b"
    assert main(["gen-benchmark", "--out", str(b), "--set", "shots.frame_count=7"]) == 0
    for name in names + ["sync_pairs.json"]:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_benchmark_custom_base(tmp_path):
    intr = CameraIntrinsics.from_fov(1.2, 0.9, 30, 20)
    pose = CameraPose(rotation=np.eye(3), translation=np.array([1.0, 2.0, 3.0]))
    base_path = tmp_path / "base.json"
    save_trajectory(Trajectory.from_poses([pose], intr, label="base"), base_path)
    out = tmp_path / "suite"
    assert main(["gen-benchmark", "--out", str(out), "--base", str(base_path),
                 "--set", "shots.frame_count=3"]) == 0
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
    assert resolved["output"]["directory"] == str(run_dir)

    log = json.loads((run_dir / "run_log.json").read_text(encoding="utf-8"))
    events = log["events"]
    kinds = [e["event"] for e in events]
    assert kinds[0] == "schedule"
    sched = events[0]
    assert sched["total_frames"] == 5
    assert sched["chunks"] == [
        {"index": 1, "start": 0, "end": 5, "overlap_with_prev": 0, "clean_frames": 0}
    ]
    # one source banking, then per view: retrieve, context, banked
    assert kinds.count("banked") == 4
    assert kinds.count("retrieve") == 3
    assert kinds.count("context") == 3
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
    csv_lines = (run_dir / "report.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "pair,frames,mean_matched_pixels,trans_err,rot_err,scale"
    sync_rows = [l for l in csv_lines[1:] if "|" in l]
    pose_rows = [l for l in csv_lines[1:] if ":pose," in l]
    assert len(sync_rows) == 2  # sync_pairs(3)
    assert len(pose_rows) == 3
    assert sync_rows[0].startswith("rotation_left|arc_right_with_rot,5,")
    assert sync_rows[0].endswith(",,,")
    for row in pose_rows:
        cells = row.split(",")
        assert cells[1] == "5" and cells[2] == ""
        assert cells[3] == "0.0"  # generated trajectory equals the request
        assert cells[5] == "1.0"

    doc = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))
    assert doc["n_shots"] == 3
    assert [r["pair"] for r in doc["sync"]] == [
        [p.slug, q.slug] for p, q in sync_pairs(3)
    ]
    for pose in doc["poses"]:
        assert pose["frames"] == 5
        assert pose["trans_err"] == 0.0
        assert pose["scale"] == 1.0
        assert pose["rot_err"] < 1e-5
        assert pose["rot_err_mean"] == pose["rot_err"] / 5
    assert doc["mean_matched_kpx"] == doc["mean_matched_pixels"] / 1000.0


def test_eval_stdout(run_dir, capsys):
    assert main(["eval", "--run", str(run_dir), "--n-shots", "3"]) == 0
    out = capsys.readouterr().out
    assert "sync pairs (n_shots=3):" in out
    assert "rotation_left | arc_right_with_rot:" in out
    assert "mean matched pixels:" in out
    assert "pose errors (generated vs requested):" in out


def test_eval_missing_shots(run_dir, capsys):
    assert main(["eval", "--run", str(run_dir), "--n-shots", "6"]) == 2
    assert "missing generated shots" in capsys.readouterr().err


def test_eval_without_run(tmp_path, capsys):
    assert main(["eval", "--run", str(tmp_path / "nope")]) == 2
    assert "no bank manifest" in capsys.readouterr().err


@pytest.fixture(scope="module")
def full_run(tmp_path_factory) -> Path:
    """All twelve shots over three chunks that overlap by 3: [0, 6), [3, 9) and [6, 10)."""
    d = tmp_path_factory.mktemp("full")
    assert main(["simulate", "--out", str(d), "--seed", "3", "--frames", "10",
                 "--set", "scene.point_count=40", "--set", "scheduler.chunk_frames=6",
                 "--set", "scheduler.overlap_latent=2",
                 "--set", "scheduler.temporal_compression=2"]) == 0
    return d


def _generated_refs(run: Path, shots) -> dict[str, list[str]]:
    """Each shot's generated video refs, in chunk order."""
    entries = sorted(MemoryBank.open(run / "bank").entries, key=lambda e: e.chunk_index)
    return {k.slug: [e.video_ref for e in entries
                     if e.trajectory.label == k.slug and not e.is_source] for k in shots}


def _stitched_at_once(run: Path, shots) -> dict:
    """Every shot's video, joined by concatenating whole chunk videos minus their overlap."""
    # the first chunk's overlap_with_prev is 0, so it keeps every frame
    events = json.loads((run / "run_log.json").read_text(encoding="utf-8"))["events"]
    overlaps = [c["overlap_with_prev"] for c in events[0]["chunks"]]
    videos = {}
    for kind, refs in _generated_refs(run, shots).items():
        seqs = [load_frames(run / ref) for ref in refs]
        videos[ShotKind.from_slug(kind)] = FrameSequence(
            frames=np.concatenate([s.frames[ov:] for s, ov in zip(seqs, overlaps)]),
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
    assert all(r["frames"] == 10 for r in doc["sync"])


@pytest.mark.parametrize("n_shots", [3, 6, 9, 12])
def test_eval_streams_at_most_two_videos(full_run, monkeypatch, n_shots):
    pairs = sync_pairs(n_shots)
    shots = sorted({k for pair in pairs for k in pair})
    refs = _generated_refs(full_run, shots)
    assert all(len(chunk_refs) == 3 for chunk_refs in refs.values())
    at_once = _stitched_at_once(full_run, shots)
    loads, live_before_stitch, stitched, same_as_at_once = [], [], [], []
    load, stitch = covis.cli.load_frames, covis.cli._stitch_videos

    def counting_load(directory):
        loads.append(Path(directory).relative_to(full_run).as_posix())
        return load(directory)

    def tracking_stitch(*args, **kwargs):
        gc.collect()
        live_before_stitch.append(sum(ref() is not None for ref in stitched))
        seq = stitch(*args, **kwargs)
        stitched.append(weakref.ref(seq))
        ref = at_once[ShotKind.from_slug(seq.trajectory.label)]
        same_as_at_once.append(
            np.array_equal(seq.frames, ref.frames) and np.array_equal(seq.id_map, ref.id_map)
            and seq.scene_key == ref.scene_key
        )
        return seq

    monkeypatch.setattr(covis.cli, "load_frames", counting_load)
    monkeypatch.setattr(covis.cli, "_stitch_videos", tracking_stitch)
    assert main(["eval", "--run", str(full_run), "--n-shots", str(n_shots)]) == 0

    assert sorted(loads) == sorted(r for chunk_refs in refs.values() for r in chunk_refs)
    assert len(stitched) == len(shots)
    assert max(live_before_stitch) <= 1
    assert all(same_as_at_once)

    expected = sync_report(at_once, pairs)
    doc = json.loads((full_run / "report.json").read_text(encoding="utf-8"))
    assert doc["sync"] == [
        {"pair": [p.slug, q.slug], "frames": row.frames,
         "mean_matched_pixels": row.mean_matched_pixels,
         "mean_matched_kpx": row.mean_matched_kpx}
        for (p, q), row in zip(pairs, expected.rows)
    ]
    assert doc["mean_matched_pixels"] == expected.mean_matched_pixels
    assert len(doc["poses"]) == n_shots


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


def test_eval_rejects_chunk_video_of_wrong_length(run_dir, monkeypatch, capsys):
    load = covis.cli.load_frames

    def short_load(directory):
        seq = load(directory)
        return FrameSequence(
            frames=seq.frames[1:], id_map=seq.id_map[1:],
            trajectory=seq.trajectory.slice_frames(1, seq.frame_count),
            scene_key=seq.scene_key,
        )

    monkeypatch.setattr(covis.cli, "load_frames", short_load)
    assert main(["eval", "--run", str(run_dir), "--n-shots", "3"]) == 2
    assert "but its bank trajectory has 5 frames" in capsys.readouterr().err


def test_eval_rejects_chunks_of_different_scenes(full_run, monkeypatch, capsys):
    load = covis.cli.load_frames

    def relabelled_load(directory):
        seq = load(directory)
        if not str(directory).endswith("_c02"):
            return seq
        return FrameSequence(frames=seq.frames, id_map=seq.id_map,
                             trajectory=seq.trajectory, scene_key="another scene")

    monkeypatch.setattr(covis.cli, "load_frames", relabelled_load)
    assert main(["eval", "--run", str(full_run), "--n-shots", "3"]) == 2
    assert "different scenes (None vs None)" in capsys.readouterr().err


def _copied_video(run_dir: Path, tmp_path: Path) -> tuple[Path, Path]:
    """A copy of run_dir and the directory of one generated video inside it."""
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    (run / "report.json").unlink()
    ref = _generated_refs(run, [ShotKind.ROTATION_LEFT])["rotation_left"][0]
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
    assert "lies outside its directory" in capsys.readouterr().err
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
    lambda doc: doc["poses"][1].pop("shot"),
    lambda doc: doc["poses"][1].update(rot_err=None),
    lambda doc: doc.update(poses={}),
], ids=["no_pair", "pair_str", "mean_str", "sync_null", "no_shot", "rot_err_null", "poses_obj"])
def test_report_rejects_malformed_report_json(run_dir, tmp_path, capsys, damage):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    path = run / "report.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    damage(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", "--run", str(run)]) == 2
    assert f"{path}: " in capsys.readouterr().err


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
    assert summary[0] == "shot,chunks,frames,trans_err,rot_err,mean_matched_pixels"
    assert len(summary) == 4
    assert summary[1].startswith("arc_right_with_rot,1,5,0.0,")

    svg = (run_dir / "trajectories.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline") == 4  # source plus three shots
    assert "<title>rotation_left</title>" in svg
    assert "<title>source</title>" in svg


def test_report_without_eval_warns(tmp_path, capsys):
    d = tmp_path / "r"
    assert main(["simulate", "--out", str(d), "--frames", "5", "--shots", "12",
                 "--set", "scene.point_count=30"]) == 0
    capsys.readouterr()
    assert main(["report", "--run", str(d), "--set", "output.emit_svg=false"]) == 0
    out = capsys.readouterr().out
    assert "warning: no evaluation report" in out
    assert not (d / "trajectories.svg").exists()
    assert (d / "report_summary.csv").exists()

    assert main(["report", "--run", str(d)]) == 0
    assert (d / "trajectories.svg").exists()


def test_report_on_empty_directory(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path / "empty")]) == 0
    out = capsys.readouterr().out
    assert "warning: no bank" in out
    assert not (tmp_path / "empty" / "report_summary.csv").exists()


def test_retrieve_and_plan_cli(tmp_path, capsys):
    rng = np.random.default_rng(3)
    bank = MemoryBank(tmp_path / "bank")
    bank.append(aimed_trajectory(rng, 2, label="src"), "v0", 1, is_source=True)
    for i in range(4):
        bank.append(aimed_trajectory(rng, 2, label=f"e{i}"), f"v{i + 1}", 1)
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


def test_env_config_fallback(tmp_path, monkeypatch):
    cfg = apply_overrides(default_config(), ["shots.frame_count=3"])
    cfg_path = tmp_path / "engine.json"
    save_config(cfg, cfg_path)
    monkeypatch.setenv("ENGINE_CONFIG", str(cfg_path))
    out = tmp_path / "suite"
    assert main(["gen-benchmark", "--out", str(out)]) == 0
    assert len(load_trajectory(out / SHOT_FILES[0])) == 3


def test_exit_codes(tmp_path, capsys):
    assert main(["gen-benchmark", "--set", "nosuch.key=1", "--out", str(tmp_path)]) == 4
    assert "configuration error" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    assert main(["gen-benchmark", "--config", str(bad), "--out", str(tmp_path)]) == 4

    missing = tmp_path / "missing.json"
    assert main(["gen-benchmark", "--base", str(missing), "--out", str(tmp_path)]) == 3
    assert "I/O error" in capsys.readouterr().err

    assert main(["simulate", "--out", str(tmp_path / "s"), "--frames", "1"]) == 2
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


@pytest.mark.parametrize("keep", [False, True])
def test_simulate_renders_only_kept_videos(tmp_path, monkeypatch, keep):
    rendered = []

    def counting_render(scene, traj):
        rendered.append(traj)
        return render(scene, traj)

    render = covis.cli.render
    monkeypatch.setattr(covis.cli, "render", counting_render)
    d = tmp_path / "run"
    keep_flag = f"output.bank_intermediates={str(keep).lower()}"
    assert main(["simulate", "--out", str(d), "--frames", "5", "--shots", "1,2,3,4,5",
                 "--set", "scene.point_count=40", "--set", "retrieval.k=4",
                 "--set", "scheduler.k=2", "--set", keep_flag]) == 0
    events = json.loads((d / "run_log.json").read_text(encoding="utf-8"))["events"]
    assert any(e["event"] == "plan" for e in events)
    # every rendered video is saved and banked; none is thrown away
    assert len(rendered) == sum(e["event"] == "banked" for e in events)
    assert len(rendered) == (11 if keep else 6)


def _write_bank(root: Path) -> tuple[Path, Path]:
    rng = np.random.default_rng(53)
    bank = MemoryBank(root / "bank")
    bank.append(aimed_trajectory(rng, 2, label="src"), "v0", 1, is_source=True)
    bank.append(aimed_trajectory(rng, 2, label="e1"), "v1", 1)
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
    assert "outside the bank" in capsys.readouterr().err


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
    # an append would give either bank seq 3 in traj_000003.json: after
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
    assert config["output"]["directory"] == "2024"


@pytest.mark.parametrize("args", [
    ["--set", "scene.point_count=abc"],
    ["--set", "scheduler.k=1.5"],
    ["--set", "output.emit_svg=maybe"],
    ["--config", "{config}"],
], ids=["point_count_abc", "k_1.5", "emit_svg_maybe", "seed_str_in_file"])
def test_mistyped_config_values_exit_4(tmp_path, capsys, args):
    config = tmp_path / "engine.json"
    config.write_text(json.dumps({"scene": {"seed": "x"}}), encoding="utf-8")
    args = [a.format(config=config) for a in args]
    assert main(["simulate", "--out", str(tmp_path / "run"), *SIM_ARGS, *args]) == 4
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_zero_counts_and_empty_shot_lists_reach_their_validators(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "run"), "--frames", "0"]) == 2
    assert main(["simulate", "--out", str(tmp_path / "run"), "--shots", ""]) == 2
    assert not (tmp_path / "run" / "run_log.json").exists()
    bank_dir, target = _write_bank(tmp_path)
    where = ["--bank", str(bank_dir), "--target", str(target)]
    capsys.readouterr()
    assert main(["retrieve", *where, "--k", "0"]) == 2
    assert main(["plan", *where, "--l", "0"]) == 2
    assert main(["plan", *where, "--k", "0"]) == 2
    assert capsys.readouterr().err.count("k must be >= 1, got 0") == 3


@pytest.mark.parametrize("n", [2, 4])
def test_failed_bank_write_leaves_the_last_manifest_whole(tmp_path, monkeypatch, n):
    replace = os.replace
    bank_writes = []

    def failing_replace(src, dst):
        if Path(dst).parent.name == "bank" and Path(dst).name == "manifest.json":
            bank_writes.append(dst)
            if len(bank_writes) == n:
                raise OSError("no space left on device")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    d = tmp_path / "run"
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 3
    manifest = json.loads((d / "bank" / "manifest.json").read_text(encoding="utf-8"))
    assert [e["insert_seq"] for e in manifest["entries"]] == list(range(1, n))


@pytest.mark.parametrize("n", [2, 4])
def test_failed_trajectory_write_leaves_no_partial_trajectory_file(tmp_path, monkeypatch, n):
    replace = os.replace
    traj_writes = []

    def failing_replace(src, dst):
        if Path(dst).parent.name == "bank" and Path(dst).name.startswith("traj_"):
            traj_writes.append(dst)
            if len(traj_writes) == n:
                raise OSError("no space left on device")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    d = tmp_path / "run"
    assert main(["simulate", "--out", str(d), *SIM_ARGS]) == 3
    manifest = json.loads((d / "bank" / "manifest.json").read_text(encoding="utf-8"))
    assert [e["insert_seq"] for e in manifest["entries"]] == list(range(1, n))
    # the n-th trajectory never lands, whole or in part; each banked one parses
    assert sorted(p.name for p in (d / "bank").glob("traj_*.json")) == [
        e["trajectory"] for e in manifest["entries"]
    ]
    MemoryBank.open(d / "bank")


# two chunks, [0, 6) and [3, 8), a non-default shot magnitude and overlap
CONFIG_FLAGS = ["--set", "shots.rotate_angle=0.5", "--set", "scheduler.chunk_frames=6",
                "--set", "scheduler.overlap_latent=2", "--set", "scheduler.temporal_compression=2"]


@pytest.fixture(scope="module")
def config_run(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("config_run")
    assert main(["simulate", "--out", str(d), "--seed", "4", "--frames", "8", "--shots", "1,2,3",
                 "--set", "scene.point_count=40", *CONFIG_FLAGS]) == 0
    return d


_REPORT_FILES = ["report.json", "report.csv", "report_summary.csv", "trajectories.svg"]


def _eval_and_report(run: Path, *flags: str) -> dict[str, bytes]:
    assert main(["eval", "--run", str(run), "--n-shots", "3", *flags]) == 0
    assert main(["report", "--run", str(run), *flags]) == 0
    return {name: (run / name).read_bytes() for name in _REPORT_FILES}


def test_eval_scores_a_run_with_the_config_it_was_simulated_with(config_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(config_run, run)
    without = _eval_and_report(run)
    assert _eval_and_report(run, *CONFIG_FLAGS) == without
    # the rotation shots turn by 0.5 rad, as simulated, and are scored against that
    doc = json.loads(without["report.json"])
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
    doc["poses"][0].update(trans_err=0.0, rot_err=1.47514e-07)  # the widest .6g cells
    doc["sync"][0].update(mean_matched_pixels=-1.23456e-100)
    (run / "report.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    table = out.split("per-shot summary:\n")[1].split("\nwrote ")[0].splitlines()
    assert table[0].split() == ["shot", "chunks", "frames", "trans_err", "rot_err", "match_px"]
    rows = [line.split() for line in table[1:]]
    assert len(rows) == 3 and all(len(cells) == 6 for cells in rows)
    assert ["rotation_left", "2", "8", "0", "1.47514e-07"] in [cells[:5] for cells in rows]
    summary = (run / "report_summary.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[1:3] for line in summary[1:]] == [["2", "8"]] * 3


@pytest.mark.parametrize("text, code", [
    (None, 2), ("{oops", 4), ('{"shots": {"rotate_angle": "x"}}', 4),
], ids=["missing", "not_json", "mistyped"])
def test_eval_without_a_readable_run_config_names_it(config_run, tmp_path, capsys, text, code):
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
    assert str(path) in err and "Traceback" not in err
    assert not (run / "report.json").exists()


def test_report_without_run_config_warns_and_skips_the_bank(config_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(config_run, run)
    (run / "config_resolved.json").unlink()
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    assert f"warning: no config at {run / 'config_resolved.json'}" in out
    assert "resolved configuration:" not in out
    assert not (run / "report_summary.csv").exists()
    assert not (run / "trajectories.svg").exists()


def test_report_lists_only_the_source_and_the_shots(tmp_path):
    # retrieval.k=8 over a context of 4 plans merges; banked, they are no shots
    args = ["--seed", "3", "--frames", "8", "--set", "scene.point_count=40",
            "--set", "retrieval.k=8", *CONFIG_FLAGS]
    outputs = {}
    for keep in (False, True):
        run = tmp_path / f"keep_{keep}"
        assert main(["simulate", "--out", str(run), *args,
                     "--set", f"output.bank_intermediates={str(keep).lower()}"]) == 0
        outputs[keep] = _eval_and_report(run)
        labels = {e.trajectory.label for e in MemoryBank.open(run / "bank").entries}
        assert any(label.startswith("merge(") for label in labels) == keep
    assert outputs[True] == outputs[False]
    summary = outputs[True]["report_summary.csv"].decode().splitlines()
    assert sorted(line.split(",")[0] for line in summary[1:]) == sorted(k.slug for k in ShotKind)
    assert outputs[True]["trajectories.svg"].count(b"<polyline") == 13


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


_COMMON_FLAGS = {"-h", "--help", "--config", "--set", "--seed", "--out"}


@pytest.mark.parametrize("command, flags", [
    ("gen-benchmark", {"--base"}),
    ("retrieve", {"--bank", "--target", "--chunk", "--k"}),
    ("plan", {"--bank", "--target", "--chunk", "--l", "--k"}),
    ("simulate", {"--source", "--shots", "--frames"}),
    ("eval", {"--run", "--n-shots"}),
    ("report", {"--run"}),
])
def test_each_subcommand_accepts_exactly_its_flags(command, flags):
    parser = covis.cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices[command]
    assert {s for a in sub._actions for s in a.option_strings} == _COMMON_FLAGS | flags
