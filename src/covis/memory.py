"""Trajectory memory bank and frustum co-visibility retrieval.

The bank is an append-only list of (trajectory, video reference) entries,
each tagged with the 1-based chunk index it belongs to. Exactly one entry
per chunk is the designated source. Retrieval scores a target trajectory
against every entry of the same chunk (or of every chunk, cross_chunk) by
mean per-frame frustum co-visibility and returns the top k, most recent
first on ties. Entries whose frame count differs from the target's are
skipped and counted.

Scoring one pair is a single numpy pass over all F frames
(frustum.stacked_covisibility) on the pose stacks that each Trajectory
caches on first use: read-only rotations (F, 3, 3) and centers (F, 3),
about 9 KB per 93-frame entry. The per-frame scores are then summed in
frame order, so every score equals a Python loop over frame_covisibility
bit for bit and run logs do not depend on the kernel.

Appends are serialized by a lock (single-writer contract); scoring reads an
immutable snapshot of the entries, so it may run concurrently with other
readers and with at most one writer.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .camera import Trajectory, load_trajectory, save_trajectory
from .errors import DomainError
from .frustum import FrustumParams, SamplerConfig, stacked_covisibility
# Unused here since scoring went to stacked_covisibility; perfbench/tracer.py
# still wraps covis.memory.frame_covisibility by name.
from .frustum import frame_covisibility  # noqa: F401

_MANIFEST_NAME = "manifest.json"

# Every manifest record field and its JSON type.
_RECORD_FIELDS = {
    "trajectory": str, "video_ref": str, "chunk_index": int, "insert_seq": int, "is_source": bool,
}


@dataclass(frozen=True)
class MemoryEntry:
    """One remembered video: its trajectory, an opaque video reference, and bookkeeping.

    video_ref is an identifier or path; the bank never dereferences it.
    insert_seq is assigned by the bank and is strictly increasing.
    """

    trajectory: Trajectory
    video_ref: str
    chunk_index: int
    insert_seq: int
    is_source: bool = False

    def __post_init__(self) -> None:
        if self.chunk_index < 1:
            raise DomainError(f"chunk_index must be >= 1, got {self.chunk_index}")
        if self.insert_seq < 1:
            raise DomainError(f"insert_seq must be >= 1, got {self.insert_seq}")


def trajectory_similarity(
    a: Trajectory,
    b: Trajectory,
    cfg: SamplerConfig | None = None,
    params: FrustumParams | None = None,
) -> float:
    """Mean per-frame frustum co-visibility of two equal-length trajectories."""
    if len(a) != len(b):
        raise DomainError(f"frame counts differ: {len(a)} vs {len(b)}")
    scores = stacked_covisibility(*a.pose_stack, *b.pose_stack, cfg, params)
    # cumsum adds in frame order like a Python loop; sum() adds pairwise and
    # may differ in the last bit.
    return float(np.cumsum(scores)[-1]) / len(a)


@dataclass(frozen=True)
class RetrievalResult:
    """Ranked retrieval outcome: (bank entry index, similarity score) pairs, best first.

    skipped counts pool entries left out because their frame count differs
    from the target's.
    """

    ranked: tuple[tuple[int, float], ...]
    skipped: int = 0

    def __post_init__(self) -> None:
        scores = [s for _, s in self.ranked]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            raise DomainError("retrieval scores must be non-increasing")

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.ranked)


class MemoryBank:
    """Append-only memory of trajectory/video entries, optionally disk-backed.

    When a directory is given, every append persists the entry's trajectory
    and rewrites the manifest, so reopening the directory reproduces the
    bank exactly (same order, same insert_seq, same retrieval results).
    """

    def __init__(self, directory: str | Path | None = None):
        self._entries: list[MemoryEntry] = []
        self._source_idx: dict[int, int] = {}
        self._lock = threading.Lock()
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            if (self.directory / _MANIFEST_NAME).exists():
                self._load()

    @classmethod
    def open(cls, directory: str | Path) -> "MemoryBank":
        directory = Path(directory)
        if not (directory / _MANIFEST_NAME).exists():
            raise DomainError(f"{directory}: no bank manifest found")
        return cls(directory)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        return tuple(self._entries)

    def append(
        self,
        trajectory: Trajectory,
        video_ref: str,
        chunk_index: int,
        is_source: bool = False,
        video_frame_count: int | None = None,
    ) -> MemoryEntry:
        """Append an entry, assigning the next insert_seq; persists if disk-backed.

        video_frame_count, when known, must equal the trajectory frame count.
        """
        if video_frame_count is not None and video_frame_count != len(trajectory):
            raise DomainError(
                f"video has {video_frame_count} frames but trajectory has {len(trajectory)}"
            )
        with self._lock:
            if is_source and chunk_index in self._source_idx:
                raise DomainError(f"chunk {chunk_index} already has a source entry")
            entry = MemoryEntry(
                trajectory=trajectory,
                video_ref=video_ref,
                chunk_index=chunk_index,
                insert_seq=len(self._entries) + 1,
                is_source=is_source,
            )
            self._entries.append(entry)
            if is_source:
                self._source_idx[chunk_index] = len(self._entries) - 1
            if self.directory is not None:
                self._persist(entry)
        return entry

    def source_entry(self, chunk_index: int) -> MemoryEntry:
        """The designated source entry of a chunk."""
        idx = self._source_idx.get(chunk_index)
        if idx is None:
            raise DomainError(f"chunk {chunk_index} has no source entry")
        return self._entries[idx]

    def entries_for_chunk(self, chunk_index: int) -> list[tuple[int, MemoryEntry]]:
        return [(i, e) for i, e in enumerate(self._entries) if e.chunk_index == chunk_index]

    def _traj_name(self, insert_seq: int) -> str:
        return f"traj_{insert_seq:06d}.json"

    def _persist(self, entry: MemoryEntry) -> None:
        assert self.directory is not None
        save_trajectory(entry.trajectory, self.directory / self._traj_name(entry.insert_seq))
        manifest = {
            "entries": [
                {
                    "trajectory": self._traj_name(e.insert_seq),
                    "video_ref": e.video_ref,
                    "chunk_index": e.chunk_index,
                    "insert_seq": e.insert_seq,
                    "is_source": e.is_source,
                }
                for e in self._entries
            ]
        }
        (self.directory / _MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def _load(self) -> None:
        assert self.directory is not None
        path = self.directory / _MANIFEST_NAME
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise DomainError(f"{path}: invalid bank manifest ({e})") from e
        records = manifest.get("entries", []) if isinstance(manifest, dict) else None
        if not isinstance(records, list):
            raise DomainError(f"{path}: bank manifest needs an 'entries' list")
        root = self.directory.resolve()
        prev_seq = 0
        for n, rec in enumerate(records):
            _check_record(path, n, rec)
            seq = rec["insert_seq"]
            if seq <= prev_seq:
                raise DomainError(f"{path}: insert_seq not strictly increasing at {seq}")
            prev_seq = seq
            traj_path = (root / rec["trajectory"]).resolve()
            if not traj_path.is_relative_to(root):
                raise DomainError(
                    f"{path}: entry {n} trajectory {rec['trajectory']!r} lies outside the bank"
                )
            entry = MemoryEntry(
                trajectory=load_trajectory(traj_path),
                video_ref=rec["video_ref"],
                chunk_index=rec["chunk_index"],
                insert_seq=seq,
                is_source=rec["is_source"],
            )
            if entry.is_source:
                if entry.chunk_index in self._source_idx:
                    raise DomainError(f"{path}: chunk {entry.chunk_index} has two source entries")
                self._source_idx[entry.chunk_index] = len(self._entries)
            self._entries.append(entry)


def _check_record(path: Path, n: int, rec: object) -> None:
    """Raise DomainError unless manifest record n has every field with its JSON type."""
    if not isinstance(rec, dict):
        raise DomainError(f"{path}: entry {n} is not an object")
    for key, kind in _RECORD_FIELDS.items():
        if key not in rec:
            raise DomainError(f"{path}: entry {n} lacks {key!r}")
        value = rec[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise DomainError(
                f"{path}: entry {n} {key!r} must be a {kind.__name__}, got {value!r}"
            )


def retrieve_top_k(
    bank: MemoryBank,
    target: Trajectory,
    k: int,
    chunk_index: int,
    cfg: SamplerConfig | None = None,
    params: FrustumParams | None = None,
    include_source: bool = True,
    cross_chunk: bool = False,
    tie_rule: str = "recent_first",
    workers: int | None = None,
) -> RetrievalResult:
    """Top-k most co-visible bank entries for a target trajectory.

    The candidate pool is the entries of chunk_index (all chunks if
    cross_chunk); the source entry participates unless include_source is
    False. Equal scores are broken by recency (higher insert_seq first) under
    the default tie rule, or by insertion order with tie_rule="oldest_first".
    Entries whose frame count differs from the target's are skipped.
    Returns min(k, pool size) entries. workers > 1 scores the pool in a
    thread pool; results are identical either way.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if tie_rule not in ("recent_first", "oldest_first"):
        raise DomainError(f"unknown tie rule {tie_rule!r}")
    candidates = [
        (i, e)
        for i, e in enumerate(bank.entries)
        if (cross_chunk or e.chunk_index == chunk_index) and (include_source or not e.is_source)
    ]
    pool = [(i, e) for i, e in candidates if len(e.trajectory) == len(target)]
    skipped = len(candidates) - len(pool)
    if not pool:
        why = f" ({skipped} skipped for frame count != {len(target)})" if skipped else ""
        raise DomainError(f"no retrievable entries for chunk {chunk_index}{why}")

    def score(item: tuple[int, MemoryEntry]) -> float:
        return trajectory_similarity(target, item[1].trajectory, cfg, params)

    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            scores = list(ex.map(score, pool))
    else:
        scores = [score(item) for item in pool]
    seq_sign = -1 if tie_rule == "recent_first" else 1
    order = sorted(
        range(len(pool)), key=lambda j: (-scores[j], seq_sign * pool[j][1].insert_seq)
    )
    ranked = tuple((pool[j][0], scores[j]) for j in order[: min(k, len(pool))])
    return RetrievalResult(ranked=ranked, skipped=skipped)


def pad_context(
    selected: Sequence[MemoryEntry], k: int, source: MemoryEntry
) -> list[MemoryEntry]:
    """Pad a retrieved context up to k entries by appending copies of the source."""
    if len(selected) > k:
        raise DomainError(f"{len(selected)} entries selected but context size is {k}")
    return list(selected) + [source] * (k - len(selected))
