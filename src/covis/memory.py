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
reads the pose stacks each Trajectory stores, about 9 KB per 93-frame
entry, so nothing is stacked per call. Each entry's per-frame scores are
summed in frame order, so every score equals a Python loop over
frame_covisibility bit for bit.

The bank is single-process and single-threaded: one caller appends (covis
simulate, chunk by chunk) and nothing guards concurrent appends or a
reader running beside a writer. Two processes must not share a bank
directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .camera import Trajectory, load_trajectory, save_trajectory
from .errors import DomainError
from .frustum import FrustumParams, SamplerConfig, pool_covisibility
# Unused here; kept because perfbench/tracer.py wraps covis.memory.frame_covisibility.
from .frustum import frame_covisibility  # noqa: F401
from .records import MANIFEST, check_fields, inside, positive_int, read_json, write_json

# Every manifest record field and its JSON type.
_RECORD_FIELDS = {"trajectory": str, "video_ref": str, "chunk_index": positive_int, "insert_seq": int,
                  "is_source": bool}


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


class MemoryBank:
    """Append-only memory of trajectory/video entries, optionally disk-backed.

    When a directory is given, every append persists the entry's trajectory
    and rewrites the manifest, so reopening the directory reproduces the
    bank exactly (same order, same insert_seq, same retrieval results).
    """

    def __init__(self, directory: str | Path | None = None):
        self._entries: list[MemoryEntry] = []
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
    ) -> MemoryEntry:
        """Append an entry, assigning the next insert_seq; persists if disk-backed."""
        entry = self._add(trajectory, video_ref, chunk_index, is_source)
        if self.directory is not None:
            self._persist(entry)
        return entry

    def _add(
        self, trajectory: Trajectory, video_ref: str, chunk_index: int, is_source: bool,
        where: str = "",
    ) -> MemoryEntry:
        """Add the next entry, numbered by its position; where prefixes a second source's error."""
        if is_source and any(e.is_source and e.chunk_index == chunk_index for e in self._entries):
            raise DomainError(f"{where}chunk {chunk_index} already has a source entry")
        entry = MemoryEntry(
            trajectory=trajectory,
            video_ref=video_ref,
            chunk_index=chunk_index,
            insert_seq=len(self._entries) + 1,
            is_source=is_source,
        )
        self._entries.append(entry)
        return entry

    def source_entry(self, chunk_index: int) -> MemoryEntry:
        """The designated source entry of a chunk."""
        for e in self._entries:
            if e.is_source and e.chunk_index == chunk_index:
                return e
        raise DomainError(f"chunk {chunk_index} has no source entry")

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
            self._add(load_trajectory(traj_path), rec["video_ref"], rec["chunk_index"],
                      rec["is_source"], where=f"{path}: entry {n}: ")


def check_retrieval(k: int, tie_rule: str) -> None:
    """retrieve_top_k's rules for k and tie_rule, also RetrievalConfig's."""
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if tie_rule not in ("recent_first", "oldest_first"):
        raise DomainError(f"unknown tie rule {tie_rule!r}")


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
    check_retrieval(k, tie_rule)
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
