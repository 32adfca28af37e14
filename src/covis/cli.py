"""Command-line interface.

Subcommands:
  gen-benchmark  write the twelve benchmark shot trajectories + sync pair manifest
  retrieve       rank bank entries against a target trajectory
  plan           print the context-reduction plan for a retrieval
  simulate       run retrieval-conditioned generation over chunks and views
  eval           score a finished run: sync pairs and pose errors
  report         aggregate per-shot table, resolved config, top-down SVG

Flags: --config PATH and repeatable --set section.key=value overrides on
gen-benchmark, retrieve, plan and simulate. Four flags spell a --set and beat one
of the same key: simulate's --seed (scene.seed), retrieve's --k and plan's --l
(retrieval.k), plan's --k (scheduler.k). --out DIR on gen-benchmark and simulate,
--run DIR on eval and report (both default runs/run). eval and report take no
configuration: they read the run's own config_resolved.json.

Exit codes: 0 success, 2 domain error, 3 I/O error, 4 configuration error.
All artifacts of a run are deterministic byte-for-byte, wherever it is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .camera import CameraIntrinsics, CameraPose, Trajectory, load_trajectory, save_trajectory
from .config import EngineConfig, apply_overrides, load_config, save_config
from .errors import ConfigError, DomainError
from .memory import MemoryBank, MemoryEntry, RetrievalResult, retrieve_top_k
from .metrics import SyncReport, SyncRow, pose_error_report, sync_report
from .records import (
    MANIFEST, check_fields, finite_float, inside, read_json, str_list, write_json, write_text,
)
from .report import top_down_svg
from .scene import FrameSequence, load_frames, make_scene, render, save_frames
from .scheduler import chunk_schedule, generation_order, plan_divide_conquer
from .trajectory_ops import ShotKind, benchmark_suite, sync_pairs

DEFAULT_BASE_WIDTH = 192
DEFAULT_BASE_HEIGHT = 108
DEFAULT_FRAMES = 93  # each benchmark shot's length, and the default source's
DEFAULT_RUN_DIR = "runs/run"

_BANK_DIR = "bank"
_VIDEO_DIR = "videos"
_RUN_LOG = "run_log.json"
_RESOLVED_CONFIG = "config_resolved.json"
_REPORT_JSON = "report.json"
_REPORT_CSV = "report.csv"


def _load_base(config: EngineConfig, path: str | None, frame_count: int = 1) -> Trajectory:
    """The trajectory at path, else frame_count identity poses sized to the frustum FOVs."""
    if path is not None:
        return load_trajectory(path)
    intr = CameraIntrinsics.from_fov(
        config.frustum.fov_h, config.frustum.fov_v, DEFAULT_BASE_WIDTH, DEFAULT_BASE_HEIGHT
    )
    return Trajectory.from_poses([CameraPose.identity()] * frame_count, intr, label="source")


def _shot_file_name(kind: ShotKind) -> str:
    return f"{int(kind):02d}_{kind.slug}.json"


def cmd_gen_benchmark(config: EngineConfig, base_path: str | None, out_dir: Path) -> int:
    base = _load_base(config, base_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    suite = benchmark_suite(base, DEFAULT_FRAMES)
    for kind, traj in zip(ShotKind, suite):
        save_trajectory(traj, out_dir / _shot_file_name(kind))
    write_json(out_dir / "sync_pairs.json", {
        str(n): [[p.slug, q.slug] for p, q in sync_pairs(n)] for n in (3, 6, 9, 12)
    })
    for kind in ShotKind:
        print(f"wrote {out_dir / _shot_file_name(kind)}")
    print(f"wrote {out_dir / 'sync_pairs.json'}")
    return 0


def _retrieve(
    config: EngineConfig, bank: MemoryBank, target: Trajectory, chunk: int
) -> RetrievalResult:
    """retrieve_top_k with the sampler, frustum and retrieval settings of config."""
    return retrieve_top_k(
        bank, target, config.retrieval.k, chunk,
        cfg=config.sampler, params=config.frustum,
        include_source=config.retrieval.include_source,
        cross_chunk=config.retrieval.cross_chunk,
        tie_rule=config.retrieval.tie_rule,
    )


def cmd_retrieve(config: EngineConfig, bank_dir: str, target_path: str, chunk: int) -> int:
    bank = MemoryBank.open(bank_dir)
    target = load_trajectory(target_path)
    result = _retrieve(config, bank, target, chunk)
    print(f"retrieved {len(result.ranked)} of {len(bank)} entries for chunk {chunk}")
    for rank, (idx, score) in enumerate(result.ranked, start=1):
        e = bank.entries[idx]
        src = " (source)" if e.is_source else ""
        print(
            f"{rank:3d}. entry {idx} seq={e.insert_seq} score={score:.6f} "
            f"label={e.trajectory.label!r}{src}"
        )
    return 0


def cmd_plan(config: EngineConfig, bank_dir: str, target_path: str, chunk: int) -> int:
    bank = MemoryBank.open(bank_dir)
    target = load_trajectory(target_path)
    result = _retrieve(config, bank, target, chunk)
    items = [(bank.entries[i], s) for i, s in reversed(result.ranked)]
    plan = plan_divide_conquer(items, config.scheduler.k, target, bank.source_entry(chunk))
    print(plan.format())
    return 0


def _parse_shot_list(text: str | None) -> list[ShotKind]:
    if text is None:
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


def _write_video(box: list[FrameSequence], directory: Path, written: dict) -> None:
    """save_frames the one video in box, taking it out first, linking frames the run wrote.

    The executor keeps its arguments until after the future completes; with
    the box emptied, the writer holds no reference to the video once its
    write returns, so the caller's reference is the last.
    """
    save_frames(box.pop(), directory, written=written)


def cmd_simulate(
    config: EngineConfig, source_path: str | None, shots_text: str | None,
    frame_count: int, out_dir: Path,
) -> int:
    if source_path is None and frame_count < 2:
        raise DomainError(f"--frames must be at least 2, got {frame_count}")
    # both would fail only after the first frame writes; checked here, they write nothing
    if not config.retrieval.include_source:
        raise DomainError("retrieval.include_source=false leaves chunk 1 nothing to retrieve")
    if config.scheduler.k == 1 and config.retrieval.k != 1:
        raise DomainError(f"scheduler.k=1 needs retrieval.k=1, got {config.retrieval.k}")
    bank_path = out_dir / _BANK_DIR
    if (bank_path / MANIFEST).exists():
        raise DomainError(f"{bank_path} already holds a bank; choose a fresh --out directory")

    source = _load_base(config, source_path, frame_count)
    if len(source) < 2:
        raise DomainError("source trajectory needs at least 2 frames")
    kinds = _parse_shot_list(shots_text)
    scene = make_scene(**vars(config.scene))
    schedule = chunk_schedule(len(source), config.scheduler)
    suite_all = benchmark_suite(source, len(source))
    suite = [suite_all[int(kind) - 1] for kind in kinds]
    # the first frame write makes out_dir; every input is checked first, so a bad one leaves none
    bank = MemoryBank()
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
            }
            for m, c in enumerate(schedule.chunks, start=1)
        ],
    })

    # Two writer threads save frame files, each video's in its own directory, while
    # the next video is retrieved and rendered: file creates serialize within one
    # directory and overlap across two. Before each render the oldest write is
    # awaited until one is left, so at most two videos are alive at once. A video is
    # let go here once its write is done, so it is freed on this thread at a fixed
    # point, not by a writer in mid-render, where each run would fragment the heap,
    # and so the peak RSS, differently. Both writers share one record of the frames the
    # run has written, and hard-link a frame equal to one of them instead of writing it.
    written: dict = {}
    with ThreadPoolExecutor(2) as writers:
        in_flight: list[tuple[Future, FrameSequence]] = []

        def bank_video(traj: Trajectory, ref: str, m: int, is_source: bool = False) -> None:
            """Render traj at chunk m's scene time, hand its video to a writer and bank traj."""
            while len(in_flight) > 1:
                in_flight[0][0].result()  # re-raises that video's write error
                del in_flight[0]
            seq = render(scene, traj, schedule.chunks[m - 1].start)
            in_flight.append((writers.submit(_write_video, [seq], out_dir / ref, written), seq))
            bank.append(traj, ref, m, is_source=is_source)
            events.append({"event": "banked", "ref": ref, "chunk": m, "source": is_source})

        for m, chunk in enumerate(schedule.chunks, start=1):
            bank_video(source.slice_frames(chunk.start, chunk.end),
                       f"{_VIDEO_DIR}/source_c{m:02d}", m, is_source=True)

        for v, m in generation_order(len(suite), len(schedule.chunks)):
            chunk = schedule.chunks[m - 1]
            target = suite[v - 1].slice_frames(chunk.start, chunk.end)
            result = _retrieve(config, bank, target, m)
            retrieved = {
                "event": "retrieve", "view": v, "chunk": m, "shot": target.label,
                "scores": [[i, s] for i, s in result.ranked],
            }
            if result.skipped:
                retrieved["skipped"] = result.skipped
            events.append(retrieved)
            items = [(bank.entries[i], s) for i, s in reversed(result.ranked)]
            plan = plan_divide_conquer(items, config.scheduler.k, target, bank.source_entry(m))
            events.append({
                "event": "plan", "view": v, "chunk": m,
                "trace": [[l, mm] for l, mm in plan.trace],
                "steps": [
                    {"produces": s.produces, "context": [str(r) for r in s.context],
                     "final": s.is_final}
                    for s in plan.steps
                ],
            })
            bank_video(target, f"{_VIDEO_DIR}/s{v:02d}_{target.label}_c{m:02d}", m)

        for done, _ in in_flight:
            done.result()
    write_json(out_dir / _RUN_LOG, {"events": events})
    save_config(config, out_dir / _RESOLVED_CONFIG)
    # the bank's manifest is the last file written, so a failed run leaves none and a rerun
    # into the same directory is not refused
    bank.save(bank_path)
    print(
        f"simulated {len(suite)} views over {len(schedule.chunks)} chunks "
        f"({schedule.total_frames} frames); bank has {len(bank)} entries"
    )
    print(f"run directory: {out_dir}")
    return 0


def _run_config(run_dir: Path) -> EngineConfig:
    """The config run_dir was simulated with, which eval and report score and stitch by."""
    path = run_dir / _RESOLVED_CONFIG
    if not path.exists():
        raise DomainError(f"{path}: not found; the run's simulate did not finish")
    return load_config(path)


def _group_shots(run_dir: Path, bank: MemoryBank) -> dict[str, list[MemoryEntry]]:
    """Bank entries by shot label, source entries as "source", each in chunk order.

    An entry of any other label, which only a hand-edited bank holds, is no
    shot and is left out. Every kept entry's video must lie inside run_dir.
    """
    labels = {"source"} | {kind.slug for kind in ShotKind}
    base = run_dir.resolve()
    shots: dict[str, list[MemoryEntry]] = {}
    for e in sorted(bank.entries, key=lambda e: e.chunk_index):
        label = "source" if e.is_source else e.trajectory.label
        if label not in labels:
            continue
        inside(base, e.video_ref, f"chunk {e.chunk_index} of {label!r}: video_ref",
               "the run directory")
        shots.setdefault(label, []).append(e)
    return shots


def _chunk_drops(parts: list[MemoryEntry], overlap: int) -> list[int]:
    """Leading frames each chunk loses when stitched; chunk_schedule overlaps all but the first."""
    return [0] + [overlap] * (len(parts) - 1)


def _arrays(t: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """t's read-only rotations, centers and intrinsics."""
    return (*t.pose_stack, t.intrinsics_stack)


def _stitch_trajectory(parts: list[MemoryEntry], overlap: int, label: str) -> Trajectory:
    kept = [e.trajectory.slice_frames(drop, len(e.trajectory))
            for e, drop in zip(parts, _chunk_drops(parts, overlap))]
    sizes = sorted({t.image_size for t in kept})
    if len(sizes) > 1:
        raise DomainError(f"shot {label!r}: chunk image sizes differ: {sizes}")
    return Trajectory.from_stacks(*map(np.concatenate, zip(*map(_arrays, kept))), sizes[0], label)


def _stream_sync(
    run_dir: Path, parts: dict[str, list[MemoryEntry]],
    pairs: list[tuple[ShotKind, ShotKind]], overlap: int,
) -> SyncReport:
    """sync_report over pairs, scored one chunk at a time.

    Chunks are the outer loop and pairs the inner one. A shot's chunk video is
    loaded for the first pair that names it and dropped after the last, so with
    the sync_pairs order no more than two chunk videos are alive at once, and
    each chunk video is loaded once, id maps only: its .rgb files are checked
    for length, never read. sync_report reduces a loaded video to its hit list
    at its first pair, and the hit list goes with the video, so a video two
    pairs name is reduced once. A pair's row sums its chunks' exact
    matched-pixel totals. Both shots of a pair must have the same chunks, and
    every chunk of a shot a scene key equal to its first chunk's.
    """
    chunks = {kind: list(zip(parts[kind.slug], _chunk_drops(parts[kind.slug], overlap)))
              for pair in pairs for kind in pair}
    for p, q in pairs:
        spans = [[(e.chunk_index, len(e.trajectory) - drop) for e, drop in chunks[k]]
                 for k in (p, q)]
        if spans[0] != spans[1]:
            raise DomainError(
                f"pair ({p.slug}, {q.slug}) has unequal chunks: (chunk, frames) "
                f"{spans[0]} vs {spans[1]}"
            )
    scene_keys: dict[ShotKind, str] = {}
    rows = [SyncRow(pair=pair, frames=0, matched_pixels=0) for pair in pairs]
    for c in range(max(map(len, chunks.values()))):
        scored = [i for i, (p, _) in enumerate(pairs) if c < len(chunks[p])]
        last_use = {kind: i for i in scored for kind in pairs[i]}
        videos: dict[ShotKind, FrameSequence] = {}
        for i in scored:
            for kind in pairs[i]:
                if kind in videos:
                    continue
                e, drop = chunks[kind][c]
                videos[kind] = load_frames(run_dir / e.video_ref, skip=drop, expect=e.trajectory)
                key = videos[kind].scene_key
                first = scene_keys.setdefault(kind, key)
                if key != first:
                    raise DomainError(
                        f"{e.video_ref}: chunk {e.chunk_index} of {kind.slug!r} comes from "
                        f"scene {key!r}, its first chunk from {first!r}"
                    )
            (row,) = sync_report(videos, [pairs[i]]).rows
            rows[i] = SyncRow(pair=row.pair, frames=rows[i].frames + row.frames,
                              matched_pixels=rows[i].matched_pixels + row.matched_pixels)
            for kind in pairs[i]:
                if last_use[kind] == i:
                    del videos[kind]
    return SyncReport(rows=tuple(rows))


def cmd_eval(run_dir: Path, n_shots: int) -> int:
    bank = MemoryBank.open(run_dir / _BANK_DIR)
    run_config = _run_config(run_dir)
    kinds = [ShotKind(i) for i in range(1, n_shots + 1)]
    pairs = sync_pairs(n_shots)
    # a pair may name a shot past n_shots: sync_pairs(9) pairs tilt_down with shot 10
    shots = sorted(set(kinds).union(*pairs))
    groups = _group_shots(run_dir, bank)
    missing = [kind.slug for kind in shots if kind.slug not in groups]
    if missing:
        raise DomainError(f"run is missing generated shots: {', '.join(missing)}")

    overlap = run_config.scheduler.overlap_frames
    generated = {kind: _stitch_trajectory(groups[kind.slug], overlap, kind.slug) for kind in shots}
    total_frames = len(generated[kinds[0]])
    base = bank.source_entry(1).trajectory
    requested = benchmark_suite(base, total_frames)

    sync = _stream_sync(run_dir, groups, pairs, overlap)
    poses = []
    for kind in kinds:
        rep = pose_error_report(requested[int(kind) - 1], generated[kind], align=True)
        poses.append({
            "shot": kind.slug,
            "frames": rep.frame_count,
            "trans_err": rep.trans_err,
            "trans_err_mean": rep.trans_err_mean,
            "rot_err": rep.rot_err,
            "rot_err_mean": rep.rot_err_mean,
            "scale": rep.scale,
        })
    doc = {
        "n_shots": n_shots,
        "sync": [
            {
                "pair": [row.pair[0].slug, row.pair[1].slug],
                "frames": row.frames,
                "mean_matched_pixels": row.mean_matched_pixels,
            }
            for row in sync.rows
        ],
        "mean_matched_pixels": sync.mean_matched_pixels,
        "poses": poses,
    }

    csv_lines = ["pair,frames,mean_matched_pixels"]
    for rec in doc["sync"]:
        p, q = rec["pair"]
        csv_lines.append(f"{p}|{q},{rec['frames']},{rec['mean_matched_pixels']!r}")
    write_text(run_dir / _REPORT_CSV, "\n".join(csv_lines) + "\n")
    write_json(run_dir / _REPORT_JSON, doc)

    print(f"sync pairs (n_shots={n_shots}):")
    for rec in doc["sync"]:
        p, q = rec["pair"]
        print(f"  {p} | {q}: {rec['mean_matched_pixels']:.1f} px over {rec['frames']} frames")
    print(f"mean matched pixels: {sync.mean_matched_pixels:.1f}")
    print(f"wrote {run_dir / _REPORT_CSV} and {run_dir / _REPORT_JSON}")
    return 0


# the fields of each sync record that cmd_report reads; it reads no other section
_SYNC_FIELDS = {"pair": str_list, "mean_matched_pixels": finite_float}


def _read_report(path: Path) -> dict:
    """An eval report, with each field cmd_report reads present and of its JSON type."""
    doc = read_json(path, "report JSON")
    check_fields(str(path), doc, {"sync": list}, partial=True)
    for n, rec in enumerate(doc.get("sync", [])):
        check_fields(f"{path}: sync record {n}", rec, _SYNC_FIELDS)
    return doc


def cmd_report(run_dir: Path) -> int:
    bank = MemoryBank.open(run_dir / _BANK_DIR)
    run_config = _run_config(run_dir)
    report_path = run_dir / _REPORT_JSON
    evaluated = report_path.exists()
    report_doc = _read_report(report_path) if evaluated else {}

    print("resolved configuration:")
    print(json.dumps(dataclasses.asdict(run_config), indent=2, sort_keys=True))
    groups = _group_shots(run_dir, bank)
    # the source, then every shot by label, each stitched once for the table and the SVG
    trajs = [
        _stitch_trajectory(groups[label], run_config.scheduler.overlap_frames, label)
        for label in sorted(groups, key=lambda label: (label != "source", label))
    ]

    match_by_shot: dict[str, list[float]] = {}
    for rec in report_doc.get("sync", []):
        for slug in rec["pair"]:
            match_by_shot.setdefault(slug, []).append(rec["mean_matched_pixels"])
    rows = [(t.label, len(groups[t.label]), len(t),
             float(np.mean(match_by_shot[t.label])) if t.label in match_by_shot else None)
            for t in trajs if t.label != "source"]

    def cell(x) -> str:
        return "-" if x is None else (f"{x:.6g}" if isinstance(x, float) else str(x))

    def table_row(cells) -> str:
        return f"{cells[0]:<27} " + " ".join(
            f"{c:>{w}}" for c, w in zip(cells[1:], (6, 7, 11))
        )

    print("\nper-shot summary:")
    print(table_row(("shot", "chunks", "frames", "match_px")))
    for r in rows:
        print(table_row([cell(x) for x in r]))
    summary_path = run_dir / "report_summary.csv"
    if rows:
        lines = ["shot,chunks,frames,mean_matched_pixels"]
        lines += [",".join("" if x is None else str(x) for x in r) for r in rows]
        write_text(summary_path, "\n".join(lines) + "\n")
        print(f"wrote {summary_path}")

    svg_path = run_dir / "trajectories.svg"
    write_text(svg_path, top_down_svg(trajs, run_config.frustum))
    print(f"wrote {svg_path}")

    if not evaluated:
        print(f"warning: no evaluation report at {report_path}; run eval first")
    return 0


def _resolve_config(args: argparse.Namespace) -> EngineConfig:
    """--config (else the defaults), each --set, then each flag whose dest is its section.key."""
    config = load_config(args.config) if args.config else EngineConfig()
    overrides = list(args.set or [])
    overrides += [f"{key}={value}" for key, value in vars(args).items()
                  if "." in key and value is not None]
    return apply_overrides(config, overrides) if overrides else config


def build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="configuration file (JSON)")
    config.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override one configuration value (repeatable)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=DEFAULT_RUN_DIR,
                     help="directory to write into (default: %(default)s)")
    bank_target = argparse.ArgumentParser(add_help=False)
    bank_target.add_argument("--bank", required=True)
    bank_target.add_argument("--target", required=True)
    bank_target.add_argument("--chunk", type=int, default=1)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--run", type=Path, default=DEFAULT_RUN_DIR,
                     help="run directory (default: %(default)s)")

    p = argparse.ArgumentParser(
        prog="covis",
        description="Co-visibility camera-trajectory memory engine",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-benchmark", parents=[config, out],
                       help="write the twelve benchmark shot trajectories")
    g.add_argument("--base", help="base trajectory file (default: built-in identity base)")

    r = sub.add_parser("retrieve", parents=[config, bank_target],
                       help="rank bank entries against a target")
    r.add_argument("--k", type=int, dest="retrieval.k", help="retrieval count")

    pl = sub.add_parser("plan", parents=[config, bank_target],
                        help="print the context-reduction plan")
    pl.add_argument("--l", type=int, dest="retrieval.k", help="retrieval count")
    pl.add_argument("--k", type=int, dest="scheduler.k", help="context size")

    s = sub.add_parser("simulate", parents=[config, out],
                       help="run retrieval-conditioned generation over chunks and views")
    s.add_argument("--seed", type=int, dest="scene.seed", help="scene seed")
    s.add_argument("--shots", help="comma list of shot indices or names (default: all 12)")
    source = s.add_mutually_exclusive_group()
    source.add_argument("--source", help="source trajectory file (default: static identity base)")
    # a str default: an int one would let "--source F --frames 93" past the group (same object)
    source.add_argument("--frames", type=int, default=str(DEFAULT_FRAMES),
                        help="frame count of the default source (default: %(default)s)")

    e = sub.add_parser("eval", parents=[run], help="score a finished run")
    e.add_argument("--n-shots", type=int, default=12, choices=[3, 6, 9, 12])

    sub.add_parser("report", parents=[run], help="aggregate tables and SVG for a run")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args.run, args.n_shots)
        if args.command == "report":
            return cmd_report(args.run)
        config = _resolve_config(args)
        if args.command == "gen-benchmark":
            return cmd_gen_benchmark(config, args.base, args.out)
        if args.command == "retrieve":
            return cmd_retrieve(config, args.bank, args.target, args.chunk)
        if args.command == "plan":
            return cmd_plan(config, args.bank, args.target, args.chunk)
        # argparse admits no command but these six
        return cmd_simulate(config, args.source, args.shots, args.frames, args.out)
    except ConfigError as e:
        print(f"covis {args.command}: configuration error: {e}", file=sys.stderr)
        return 4
    except (DomainError, ValueError) as e:
        print(f"covis {args.command}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"covis {args.command}: I/O error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # e.g. numpy refusing a frame buffer for a huge image size
        print(f"covis {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
