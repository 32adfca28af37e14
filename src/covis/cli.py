"""Command-line interface.

Subcommands:
  gen-benchmark  write the twelve benchmark shot trajectories + sync pair manifest
  retrieve       rank bank entries against a target trajectory
  plan           print the context-reduction plan for a retrieval
  simulate       run retrieval-conditioned generation over chunks and views
  eval           score a finished run: sync pairs and pose errors
  report         aggregate per-shot table, resolved config, optional SVG

Common flags (per subcommand): --config PATH (or the ENGINE_CONFIG
environment variable), repeatable --set section.key=value overrides,
--seed N (shorthand for --set scene.seed=N), --out DIR (shorthand for
--set output.directory=DIR).

Exit codes: 0 success, 2 domain error, 3 I/O error, 4 configuration error.
All artifacts written by a run are deterministic byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .camera import CameraIntrinsics, CameraPose, Trajectory, load_trajectory, save_trajectory
from .config import (
    EngineConfig,
    apply_overrides,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from .errors import ConfigError, DomainError
from .memory import MemoryBank, MemoryEntry, RetrievalResult, pad_context, retrieve_top_k
from .metrics import SyncReport, SyncRow, pose_error_report, sync_report
from .report import top_down_svg
from .scene import FrameSequence, load_frames, make_scene, render, save_frames
from .scheduler import chunk_schedule, generation_order, overlap_condition_mask, plan_divide_conquer
from .trajectory_ops import ShotKind, benchmark_suite, sync_pairs

DEFAULT_BASE_WIDTH = 192
DEFAULT_BASE_HEIGHT = 108

_BANK_DIR = "bank"
_VIDEO_DIR = "videos"
_RUN_LOG = "run_log.json"
_RESOLVED_CONFIG = "config_resolved.json"
_REPORT_JSON = "report.json"
_REPORT_CSV = "report.csv"


def _default_base(config: EngineConfig, frame_count: int = 1) -> Trajectory:
    """Static identity-pose trajectory whose image bounds match the frustum FOVs."""
    intr = CameraIntrinsics.from_fov(
        config.frustum.fov_h, config.frustum.fov_v, DEFAULT_BASE_WIDTH, DEFAULT_BASE_HEIGHT
    )
    return Trajectory.from_poses([CameraPose.identity()] * frame_count, intr, label="source")


def _load_base(config: EngineConfig, path: str | None, frame_count: int = 1) -> Trajectory:
    if path is None:
        return _default_base(config, frame_count)
    return load_trajectory(path)


def _shot_file_name(kind: ShotKind) -> str:
    return f"{int(kind):02d}_{kind.slug}.json"


def cmd_gen_benchmark(config: EngineConfig, base_path: str | None) -> int:
    out_dir = Path(config.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = _load_base(config, base_path)
    suite = benchmark_suite(
        base, config.shots.frame_count, config.shots.magnitudes(), config.shots.lookat_depth
    )
    for kind, traj in zip(ShotKind, suite):
        save_trajectory(traj, out_dir / _shot_file_name(kind))
    manifest = {
        str(n): [[p.slug, q.slug] for p, q in sync_pairs(n)] for n in (3, 6, 9, 12)
    }
    (out_dir / "sync_pairs.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for kind in ShotKind:
        print(f"wrote {out_dir / _shot_file_name(kind)}")
    print(f"wrote {out_dir / 'sync_pairs.json'}")
    return 0


def _retrieve(
    config: EngineConfig, bank: MemoryBank, target: Trajectory, k: int, chunk: int
) -> RetrievalResult:
    """retrieve_top_k with the sampler, frustum and retrieval settings of config."""
    return retrieve_top_k(
        bank, target, k, chunk,
        cfg=config.sampler, params=config.frustum,
        include_source=config.retrieval.include_source,
        cross_chunk=config.retrieval.cross_chunk,
        tie_rule=config.retrieval.tie_rule,
    )


def cmd_retrieve(config: EngineConfig, bank_dir: str, target_path: str, k: int | None, chunk: int) -> int:
    bank = MemoryBank.open(bank_dir)
    target = load_trajectory(target_path)
    result = _retrieve(config, bank, target, k or config.retrieval.k, chunk)
    print(f"retrieved {len(result.ranked)} of {len(bank)} entries for chunk {chunk}")
    for rank, (idx, score) in enumerate(result.ranked, start=1):
        e = bank.entries[idx]
        src = " (source)" if e.is_source else ""
        print(
            f"{rank:3d}. entry {idx} seq={e.insert_seq} score={score:.6f} "
            f"label={e.trajectory.label!r}{src}"
        )
    return 0


def cmd_plan(
    config: EngineConfig, bank_dir: str, target_path: str,
    l: int | None, k: int | None, chunk: int,
) -> int:
    bank = MemoryBank.open(bank_dir)
    target = load_trajectory(target_path)
    result = _retrieve(config, bank, target, l or config.retrieval.k, chunk)
    items = [(bank.entries[i], s) for i, s in reversed(result.ranked)]
    plan = plan_divide_conquer(items, k or config.scheduler.k, target, bank.source_entry(chunk))
    print(plan.format())
    return 0


def _parse_shot_list(text: str | None) -> list[ShotKind]:
    if not text:
        return list(ShotKind)
    kinds = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.isdigit():
            n = int(token)
            if not 1 <= n <= 12:
                raise DomainError(f"shot index {n} out of range 1..12")
            kinds.add(ShotKind(n))
        else:
            kinds.add(ShotKind.from_slug(token))
    if not kinds:
        raise DomainError("empty shot list")
    return sorted(kinds)


def cmd_simulate(
    config: EngineConfig, source_path: str | None, shots_text: str | None,
    frame_count: int | None,
) -> int:
    out_dir = Path(config.output.directory)
    bank_path = out_dir / _BANK_DIR
    if (bank_path / "manifest.json").exists():
        raise DomainError(f"{bank_path} already holds a bank; choose a fresh --out directory")
    out_dir.mkdir(parents=True, exist_ok=True)

    source = _load_base(config, source_path, frame_count or config.shots.frame_count)
    if len(source) < 2:
        raise DomainError("source trajectory needs at least 2 frames")
    kinds = _parse_shot_list(shots_text)
    scene = make_scene(
        config.scene.seed, config.scene.point_count, config.scene.extent,
        config.scene.moving_fraction, velocity_scale=config.scene.velocity_scale,
    )
    schedule = chunk_schedule(len(source), config.scheduler)
    suite_all = benchmark_suite(
        source, len(source), config.shots.magnitudes(), config.shots.lookat_depth
    )
    suite = [suite_all[int(kind) - 1] for kind in kinds]
    bank = MemoryBank(bank_path)
    events: list[dict] = []
    events.append({
        "event": "schedule",
        "total_frames": schedule.total_frames,
        "chunks": [
            {
                "index": m,
                "start": c.start,
                "end": c.end,
                "overlap_with_prev": c.overlap_with_prev,
                "clean_frames": int(overlap_condition_mask(c, config.scheduler).sum()),
            }
            for m, c in enumerate(schedule.chunks, start=1)
        ],
    })

    for m, chunk in enumerate(schedule.chunks, start=1):
        sub = source.slice_frames(chunk.start, chunk.end)
        seq = render(scene, sub)
        ref = f"{_VIDEO_DIR}/source_c{m:02d}"
        save_frames(seq, out_dir / ref)
        bank.append(sub, ref, m, is_source=True, video_frame_count=seq.frame_count)
        events.append({"event": "banked", "ref": ref, "chunk": m, "source": True})

    model_k = config.scheduler.k
    for v, m in generation_order(len(suite), len(schedule.chunks)):
        chunk = schedule.chunks[m - 1]
        target = suite[v - 1].slice_frames(chunk.start, chunk.end)
        result = _retrieve(config, bank, target, config.retrieval.k, m)
        retrieved = {
            "event": "retrieve", "view": v, "chunk": m, "shot": target.label,
            "scores": [[i, s] for i, s in result.ranked],
        }
        if result.skipped:
            retrieved["skipped"] = result.skipped
        events.append(retrieved)
        if len(result.ranked) > model_k:
            items = [(bank.entries[i], s) for i, s in reversed(result.ranked)]
            plan = plan_divide_conquer(items, model_k, target, bank.source_entry(m))
            events.append({
                "event": "plan", "view": v, "chunk": m,
                "trace": [[l, mm] for l, mm in plan.trace],
                "steps": [
                    {"produces": s.produces, "context": [str(r) for r in s.context],
                     "final": s.is_final}
                    for s in plan.steps
                ],
                "notes": list(plan.notes),
            })
            final_seq: FrameSequence | None = None
            for step in plan.steps:
                if not (step.is_final or config.output.bank_intermediates):
                    continue  # render is pure, so an unbanked intermediate is never drawn
                step_seq = render(scene, step.target)
                if step.is_final:
                    final_seq = step_seq
                else:
                    iref = (
                        f"{_VIDEO_DIR}/s{v:02d}_{target.label}_c{m:02d}_"
                        f"{step.produces.replace(':', '')}"
                    )
                    save_frames(step_seq, out_dir / iref)
                    bank.append(step.target, iref, m, video_frame_count=step_seq.frame_count)
                    events.append({"event": "banked", "ref": iref, "chunk": m, "source": False})
            assert final_seq is not None
        else:
            selected = [bank.entries[i] for i, _ in result.ranked]
            context = pad_context(selected, model_k, bank.source_entry(m))
            events.append({
                "event": "context", "view": v, "chunk": m,
                "refs": [e.insert_seq for e in context],
            })
            final_seq = render(scene, target)
        ref = f"{_VIDEO_DIR}/s{v:02d}_{target.label}_c{m:02d}"
        save_frames(final_seq, out_dir / ref)
        bank.append(target, ref, m, video_frame_count=final_seq.frame_count)
        events.append({"event": "banked", "ref": ref, "chunk": m, "source": False})

    (out_dir / _RUN_LOG).write_text(
        json.dumps({"events": events}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    save_config(config, out_dir / _RESOLVED_CONFIG)
    print(
        f"simulated {len(suite)} views over {len(schedule.chunks)} chunks "
        f"({schedule.total_frames} frames); bank has {len(bank)} entries"
    )
    print(f"run directory: {out_dir}")
    return 0


def _chunk_overlaps(run_dir: Path, config: EngineConfig) -> dict[int, int]:
    """Per-chunk overlap with the previous chunk, from the run log when present."""
    log_path = run_dir / _RUN_LOG
    if log_path.exists():
        try:
            doc = json.loads(log_path.read_text(encoding="utf-8"))
            for event in doc.get("events", []):
                if event.get("event") == "schedule":
                    return {
                        int(c["index"]): int(c["overlap_with_prev"]) for c in event["chunks"]
                    }
        except (json.JSONDecodeError, KeyError, TypeError) as e:
            raise DomainError(f"{log_path}: unreadable run log ({e})") from e
    return {}


def _chunk_drops(
    parts: list[MemoryEntry], overlaps: dict[int, int], config: EngineConfig
) -> list[int]:
    """Leading frames each chunk loses when stitched: none for the first, its overlap after."""
    return [0] + [overlaps.get(e.chunk_index, config.scheduler.overlap_frames) for e in parts[1:]]


def _stitch_trajectory(
    parts: list[MemoryEntry], overlaps: dict[int, int], config: EngineConfig, label: str
) -> Trajectory:
    traj_frames = []
    for e, drop in zip(parts, _chunk_drops(parts, overlaps, config)):
        traj_frames.extend(e.trajectory.frames[drop:])
    return Trajectory(frames=tuple(traj_frames), label=label)


def _shot_parts(run_dir: Path, bank: MemoryBank, label: str) -> list[MemoryEntry]:
    """A shot's generated bank entries in chunk order; each video must lie inside run_dir."""
    parts = sorted(
        (e for e in bank.entries if e.trajectory.label == label and not e.is_source),
        key=lambda e: e.chunk_index,
    )
    root = run_dir.resolve()
    for e in parts:
        if not (root / e.video_ref).resolve().is_relative_to(root):
            raise DomainError(
                f"chunk {e.chunk_index} of {label!r}: video_ref {e.video_ref!r} "
                "lies outside the run directory"
            )
    return parts


def _stitch_videos(
    run_dir: Path, parts: list[MemoryEntry], traj: Trajectory,
    overlaps: dict[int, int], config: EngineConfig,
) -> FrameSequence:
    """A shot's per-chunk videos joined along its stitched trajectory traj.

    Each chunk is loaded once, copied minus its overlap frames into buffers
    sized from traj, and released before the next chunk is loaded.
    """
    w, h = traj.image_size
    frames = np.empty((len(traj), h, w, 3), dtype=np.uint8)
    ids = np.empty((len(traj), h, w), dtype=np.int32)
    keys = set()
    pos = 0
    for e, drop in zip(parts, _chunk_drops(parts, overlaps, config)):
        seq = load_frames(run_dir / e.video_ref)
        cw, ch = e.trajectory.image_size
        if seq.frames.shape[:3] != (len(e.trajectory), ch, cw):
            f, vh, vw = seq.frames.shape[:3]
            raise DomainError(
                f"{e.video_ref}: {f} frames of {vw}x{vh}, but its bank trajectory has "
                f"{len(e.trajectory)} frames of {cw}x{ch}"
            )
        n = len(seq.frames[drop:])
        frames[pos:pos + n] = seq.frames[drop:]
        ids[pos:pos + n] = seq.id_map[drop:]
        pos += n
        keys.add(seq.scene_key)
        del seq
    return FrameSequence(
        frames=frames, id_map=ids, trajectory=traj,
        scene_key=keys.pop() if len(keys) == 1 else None,
    )


def _stream_sync(
    run_dir: Path, parts: dict[ShotKind, list[MemoryEntry]],
    generated: dict[ShotKind, Trajectory], pairs: list[tuple[ShotKind, ShotKind]],
    overlaps: dict[int, int], config: EngineConfig,
) -> SyncReport:
    """sync_report over pairs, holding a shot's video only from its first pair to its last.

    With the sync_pairs order no more than two stitched videos are alive at once.
    """
    last_use = {kind: i for i, pair in enumerate(pairs) for kind in pair}
    videos: dict[ShotKind, FrameSequence] = {}
    rows: list[SyncRow] = []
    for i, pair in enumerate(pairs):
        for kind in pair:
            if kind not in videos:
                videos[kind] = _stitch_videos(run_dir, parts[kind], generated[kind], overlaps, config)
        rows.extend(sync_report(videos, [pair]).rows)
        for kind in pair:
            if last_use[kind] == i:
                del videos[kind]
    return SyncReport(rows=tuple(rows))


def cmd_eval(config: EngineConfig, run_dir_text: str | None, n_shots: int) -> int:
    run_dir = Path(run_dir_text or config.output.directory)
    bank = MemoryBank.open(run_dir / _BANK_DIR)
    kinds = [ShotKind(i) for i in range(1, n_shots + 1)]
    pairs = sync_pairs(n_shots)
    # a pair may name a shot past n_shots: sync_pairs(9) pairs tilt_down with shot 10
    shots = sorted(set(kinds).union(*pairs))
    parts = {kind: _shot_parts(run_dir, bank, kind.slug) for kind in shots}
    missing = [kind.slug for kind in shots if not parts[kind]]
    if missing:
        raise DomainError(f"run is missing generated shots: {', '.join(missing)}")

    overlaps = _chunk_overlaps(run_dir, config)
    generated = {
        kind: _stitch_trajectory(parts[kind], overlaps, config, kind.slug) for kind in shots
    }
    total_frames = len(generated[kinds[0]])
    base = bank.source_entry(1).trajectory
    requested = benchmark_suite(
        base, total_frames, config.shots.magnitudes(), config.shots.lookat_depth
    )

    sync = _stream_sync(run_dir, parts, generated, pairs, overlaps, config)
    pose_rows = []
    for kind in kinds:
        rep = pose_error_report(requested[int(kind) - 1], generated[kind], align=True)
        pose_rows.append((kind, rep))

    csv_lines = ["pair,frames,mean_matched_pixels,trans_err,rot_err,scale"]
    for row in sync.rows:
        p, q = row.pair
        csv_lines.append(f"{p.slug}|{q.slug},{row.frames},{row.mean_matched_pixels!r},,,")
    for kind, rep in pose_rows:
        csv_lines.append(
            f"{kind.slug}:pose,{rep.frame_count},,{rep.trans_err!r},{rep.rot_err!r},{rep.scale!r}"
        )
    (run_dir / _REPORT_CSV).write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    doc = {
        "n_shots": n_shots,
        "sync": [
            {
                "pair": [row.pair[0].slug, row.pair[1].slug],
                "frames": row.frames,
                "mean_matched_pixels": row.mean_matched_pixels,
                "mean_matched_kpx": row.mean_matched_kpx,
            }
            for row in sync.rows
        ],
        "mean_matched_pixels": sync.mean_matched_pixels,
        "mean_matched_kpx": sync.mean_matched_kpx,
        "poses": [
            {
                "shot": kind.slug,
                "frames": rep.frame_count,
                "trans_err": rep.trans_err,
                "trans_err_mean": rep.trans_err_mean,
                "rot_err": rep.rot_err,
                "rot_err_mean": rep.rot_err_mean,
                "scale": rep.scale,
            }
            for kind, rep in pose_rows
        ],
    }
    (run_dir / _REPORT_JSON).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"sync pairs (n_shots={n_shots}):")
    for row in sync.rows:
        p, q = row.pair
        print(
            f"  {p.slug} | {q.slug}: {row.mean_matched_pixels:.1f} px "
            f"({row.mean_matched_kpx:.3f} k) over {row.frames} frames"
        )
    print(f"mean matched pixels: {sync.mean_matched_pixels:.1f} ({sync.mean_matched_kpx:.3f} k)")
    print("pose errors (generated vs requested):")
    for kind, rep in pose_rows:
        print(
            f"  {kind.slug}: trans_err={rep.trans_err:.6g} rot_err={rep.rot_err:.6g} "
            f"scale={rep.scale:.6g}"
        )
    print(f"wrote {run_dir / _REPORT_CSV} and {run_dir / _REPORT_JSON}")
    return 0


def cmd_report(config: EngineConfig, run_dir_text: str | None) -> int:
    run_dir = Path(run_dir_text or config.output.directory)
    warnings_list: list[str] = []

    report_doc = None
    report_path = run_dir / _REPORT_JSON
    if report_path.exists():
        report_doc = json.loads(report_path.read_text(encoding="utf-8"))
    else:
        warnings_list.append(f"no evaluation report at {report_path}; run eval first")

    bank = None
    if (run_dir / _BANK_DIR / "manifest.json").exists():
        bank = MemoryBank.open(run_dir / _BANK_DIR)
    else:
        warnings_list.append(f"no bank at {run_dir / _BANK_DIR}; run simulate first")

    print("resolved configuration:")
    print(json.dumps(config_to_dict(config), indent=2, sort_keys=True))

    rows = []
    if bank is not None:
        by_label: dict[str, list] = {}
        for e in bank.entries:
            if not e.is_source:
                by_label.setdefault(e.trajectory.label, []).append(e)
        pose_by_shot = {}
        match_by_shot: dict[str, list[float]] = {}
        if report_doc:
            pose_by_shot = {p["shot"]: p for p in report_doc.get("poses", [])}
            for rec in report_doc.get("sync", []):
                for slug in rec["pair"]:
                    match_by_shot.setdefault(slug, []).append(rec["mean_matched_pixels"])
        for label in sorted(by_label):
            entries = by_label[label]
            frames = sum(len(e.trajectory) for e in entries)
            pose = pose_by_shot.get(label)
            matches = match_by_shot.get(label)
            rows.append({
                "shot": label,
                "chunks": len(entries),
                "frames": frames,
                "trans_err": None if pose is None else pose["trans_err"],
                "rot_err": None if pose is None else pose["rot_err"],
                "mean_matched_pixels": None if not matches else float(np.mean(matches)),
            })

    def cell(x) -> str:
        return "-" if x is None else (f"{x:.6g}" if isinstance(x, float) else str(x))

    print("\nper-shot summary:")
    print(f"{'shot':<28}{'chunks':>7}{'frames':>8}{'trans_err':>12}{'rot_err':>10}{'match_px':>10}")
    for r in rows:
        print(
            f"{r['shot']:<28}{r['chunks']:>7}{r['frames']:>8}"
            f"{cell(r['trans_err']):>12}{cell(r['rot_err']):>10}{cell(r['mean_matched_pixels']):>10}"
        )
    summary_path = run_dir / "report_summary.csv"
    if rows:
        lines = ["shot,chunks,frames,trans_err,rot_err,mean_matched_pixels"]
        for r in rows:
            lines.append(
                f"{r['shot']},{r['chunks']},{r['frames']},"
                f"{'' if r['trans_err'] is None else repr(r['trans_err'])},"
                f"{'' if r['rot_err'] is None else repr(r['rot_err'])},"
                f"{'' if r['mean_matched_pixels'] is None else repr(r['mean_matched_pixels'])}"
            )
        run_dir.mkdir(parents=True, exist_ok=True)
        summary_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {summary_path}")

    if config.output.emit_svg and bank is not None:
        overlaps = _chunk_overlaps(run_dir, config)
        trajs = []
        source_parts = sorted(
            (e for e in bank.entries if e.is_source), key=lambda e: e.chunk_index
        )
        if source_parts:
            trajs.append(_stitch_trajectory(source_parts, overlaps, config, "source"))
        for label in sorted(by_label):
            entries = sorted(by_label[label], key=lambda e: e.chunk_index)
            trajs.append(_stitch_trajectory(entries, overlaps, config, label))
        svg_path = run_dir / "trajectories.svg"
        svg_path.write_text(top_down_svg(trajs, config.frustum), encoding="utf-8")
        print(f"wrote {svg_path}")

    for w in warnings_list:
        print(f"warning: {w}")
    return 0


def _resolve_config(args: argparse.Namespace) -> EngineConfig:
    path = args.config or os.environ.get("ENGINE_CONFIG")
    config = load_config(path) if path else default_config()
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"scene.seed={args.seed}")
    if args.out is not None:
        overrides.append(f"output.directory={args.out}")
    return apply_overrides(config, overrides) if overrides else config


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="configuration file (JSON); falls back to $ENGINE_CONFIG")
    common.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override one configuration value (repeatable)")
    common.add_argument("--seed", type=int, help="override scene.seed")
    common.add_argument("--out", help="override output.directory")

    p = argparse.ArgumentParser(
        prog="covis",
        description="Co-visibility camera-trajectory memory engine",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-benchmark", parents=[common],
                       help="write the twelve benchmark shot trajectories")
    g.add_argument("--base", help="base trajectory file (default: built-in identity base)")

    r = sub.add_parser("retrieve", parents=[common], help="rank bank entries against a target")
    r.add_argument("--bank", required=True)
    r.add_argument("--target", required=True)
    r.add_argument("--k", type=int, help="retrieval count (default: retrieval.k)")
    r.add_argument("--chunk", type=int, default=1)

    pl = sub.add_parser("plan", parents=[common], help="print the context-reduction plan")
    pl.add_argument("--bank", required=True)
    pl.add_argument("--target", required=True)
    pl.add_argument("--l", type=int, help="retrieval count (default: retrieval.k)")
    pl.add_argument("--k", type=int, help="context size (default: scheduler.k)")
    pl.add_argument("--chunk", type=int, default=1)

    s = sub.add_parser("simulate", parents=[common],
                       help="run retrieval-conditioned generation over chunks and views")
    s.add_argument("--source", help="source trajectory file (default: static identity base)")
    s.add_argument("--shots", help="comma list of shot indices or names (default: all 12)")
    s.add_argument("--frames", type=int,
                   help="frame count of the default source (ignored with --source)")

    e = sub.add_parser("eval", parents=[common], help="score a finished run")
    e.add_argument("--run", help="run directory (default: output.directory)")
    e.add_argument("--n-shots", type=int, default=12, choices=[3, 6, 9, 12])

    rp = sub.add_parser("report", parents=[common], help="aggregate tables and SVG for a run")
    rp.add_argument("--run", help="run directory (default: output.directory)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        if args.command == "gen-benchmark":
            return cmd_gen_benchmark(config, args.base)
        if args.command == "retrieve":
            return cmd_retrieve(config, args.bank, args.target, args.k, args.chunk)
        if args.command == "plan":
            return cmd_plan(config, args.bank, args.target, args.l, args.k, args.chunk)
        if args.command == "simulate":
            return cmd_simulate(config, args.source, args.shots, args.frames)
        if args.command == "eval":
            return cmd_eval(config, args.run, args.n_shots)
        if args.command == "report":
            return cmd_report(config, args.run)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"covis {args.command}: configuration error: {e}", file=sys.stderr)
        return 4
    except (DomainError, ValueError) as e:
        print(f"covis {args.command}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"covis {args.command}: I/O error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
