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
entry. Its per-frame scores are frame_covisibility's exactly: it counts
lattice rays where their count is certain and calls frame_covisibility on
the frame pair elsewhere and for a jittered sampler.
Each entry's per-frame scores are summed in frame order, so every score
equals a Python loop over frame_covisibility bit for bit.

The bank is a plain in-memory value, appended to by one thread (covis
simulate, chunk by chunk); nothing guards concurrent appends. save writes
it to a directory, every trajectory file first and the manifest last, and
open reads it back. simulate saves its bank once, after every other file
of the run, so a bank manifest marks a finished run.
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
from .records import MANIFEST, check_fields, positive_int, read_json, write_json

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
    cfg: SamplerConfig = SamplerConfig(),
    params: FrustumParams = FrustumParams(),
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
    """Append-only in-memory list of trajectory/video entries.

    save(directory) writes every entry's trajectory and then the manifest, so
    a directory with a manifest holds a whole bank, and open(directory)
    reproduces it exactly (same order, same insert_seq, same retrieval results).
    """

    def __init__(self) -> None:
        self._entries: list[MemoryEntry] = []

    @classmethod
    def open(cls, directory: str | Path) -> "MemoryBank":
        """The bank that save wrote to directory, each record checked."""
        path = Path(directory) / MANIFEST
        if not path.exists():
            raise DomainError(f"{directory}: no bank manifest found")
        manifest = check_fields(str(path), read_json(path, "bank manifest"), {"entries": list})
        bank = cls()
        for n, rec in enumerate(manifest["entries"]):
            check_fields(f"{path}: entry {n}", rec, _RECORD_FIELDS)
            # save's numbering and naming; a bare name also keeps each trajectory in directory
            seq, name = n + 1, _traj_name(n + 1)
            if (rec["insert_seq"], rec["trajectory"]) != (seq, name):
                raise DomainError(f"{path}: entry {n} needs insert_seq {seq} and trajectory {name}")
            bank._add(load_trajectory(path.parent / name), rec["video_ref"], rec["chunk_index"],
                      rec["is_source"], where=f"{path}: entry {n}: ")
        return bank

    def save(self, directory: str | Path) -> None:
        """Write every entry's trajectory file, then the manifest that names them all."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for e in self._entries:
            save_trajectory(e.trajectory, directory / _traj_name(e.insert_seq))
        write_json(directory / MANIFEST, {
            "entries": [
                {
                    "trajectory": _traj_name(e.insert_seq),
                    "video_ref": e.video_ref,
                    "chunk_index": e.chunk_index,
                    "insert_seq": e.insert_seq,
                    "is_source": e.is_source,
                }
                for e in self._entries
            ]
        })

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
        """Append an entry, assigning the next insert_seq."""
        return self._add(trajectory, video_ref, chunk_index, is_source)

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


def _traj_name(insert_seq: int) -> str:
    return f"traj_{insert_seq:06d}.json"


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
    cfg: SamplerConfig = SamplerConfig(),
    params: FrustumParams = FrustumParams(),
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

