"""Trajectory memory bank and frustum co-visibility retrieval.

The bank is an append-only list of (trajectory, video reference) entries,
each tagged with the 1-based chunk index it belongs to. Exactly one entry
per chunk is the designated source. Retrieval scores a target trajectory
against every entry of the same chunk (or of every chunk, cross_chunk) by
mean per-frame frustum co-visibility and returns the top k, most recent
first on ties. Entries whose frame count differs from the target's are
skipped and counted.

A retrieval scores its whole pool in one frustum.pool_covisibility call,
and trajectory_similarity is that call on a one-entry pool. The kernel
reads the pose stacks each Trajectory caches on first use, about 9 KB per
93-frame entry. Each entry's per-frame scores are summed in frame order,
so every score equals a Python loop over frame_covisibility bit for bit.

Appends are serialized by a lock (single-writer contract); scoring reads an
immutable snapshot of the entries, so it may run concurrently with other
readers and with at most one writer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .camera import Trajectory, load_trajectory, save_trajectory
from .errors import DomainError
from .frustum import FrustumParams, SamplerConfig, pool_covisibility
# Unused here; kept because perfbench/tracer.py wraps covis.memory.frame_covisibility.
from .frustum import frame_covisibility  # noqa: F401
from .records import MANIFEST, check_fields, inside, read_json, write_json

# Every manifest record field and its JSON type.
_RECORD_FIELDS = {
    "trajectory": str, "video_ref": str, "chunk_index": int, "insert_seq": int, "is_source": bool,
}


@dataclass(frozen=True)
class MemoryEntry:
    """One remembered video: its trajectory, an opaque video reference, and bookkeeping.

    video_ref is an identifier or path; the bank never dereferences it.
    insert_seq is assigned by the bank: the entry's 1-based position in it.
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
    return _similarities(a, [b], cfg, params)[0]


def _similarities(target: Trajectory, pool: Sequence[Trajectory], cfg, params) -> list[float]:
    """trajectory_similarity of target against each pool trajectory of its length."""
    per_frame = pool_covisibility(*target.pose_stack, [t.pose_stack for t in pool], cfg, params)
    # cumsum adds in frame order like a Python loop; sum() may differ in the last bit
    return (np.cumsum(per_frame, axis=1)[:, -1] / len(target)).tolist()


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
            if (self.directory / MANIFEST).exists():
                self._load()

    @classmethod
    def open(cls, directory: str | Path) -> "MemoryBank":
        directory = Path(directory)
        if not (directory / MANIFEST).exists():
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
        write_json(self.directory / MANIFEST, {
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
        })

    def _load(self) -> None:
        assert self.directory is not None
        path = self.directory / MANIFEST
        manifest = check_fields(str(path), read_json(path, "bank manifest"), {"entries": list})
        for n, rec in enumerate(manifest["entries"]):
            check_fields(f"{path}: entry {n}", rec, _RECORD_FIELDS)
            traj_path = inside(
                self.directory, rec["trajectory"], f"{path}: entry {n} trajectory", "the bank"
            )
            # append's numbering and naming; anything else lets a later append reuse a seq or file
            seq, name = n + 1, self._traj_name(n + 1)
            if (rec["insert_seq"], rec["trajectory"]) != (seq, name):
                raise DomainError(f"{path}: entry {n} needs insert_seq {seq} and trajectory {name}")
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
) -> RetrievalResult:
    """Top-k most co-visible bank entries for a target trajectory.

    The candidate pool is the entries of chunk_index (all chunks if
    cross_chunk); the source entry participates unless include_source is
    False. Equal scores are broken by recency (higher insert_seq first) under
    the default tie rule, or by insertion order with tie_rule="oldest_first".
    Entries whose frame count differs from the target's are skipped.
    Returns min(k, pool size) entries.
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
    scores = _similarities(target, [e.trajectory for _, e in pool], cfg, params)
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
