"""Chunk scheduling, generation ordering, context planning, token accounting.

Long videos are generated in overlapping chunks: the first chunk is
chunk_frames long, every later chunk starts overlap_frames before the end of
the previous one and is conditioned clean on those shared frames. The
decoded overlap length is tied to the latent overlap by the video
tokenizer's temporal compression, TEMPORAL_COMPRESSION = 4: overlap_frames =
1 + (overlap_latent-1) * 4 (the +1 is the anchor frame the tokenizer encodes
separately).

plan_divide_conquer plans the context of every generated view. When
retrieval returns more videos than the model's context can hold (l > k), it
reduces them: repeatedly take the m lowest scored entries (m = min(l - k + 1,
k), which makes strict progress for every k >= 2), pad the context to k with
copies of the source, merge their trajectories, and generate one
intermediate video targeted at the merged trajectory; the intermediate
replaces the consumed entries. A final step conditions on the surviving
<= k entries, padded to k with the source, to generate the true target; with
l <= k that step is the whole plan. With k = 1 no reduction is possible
(each step consumes exactly as many context slots as it produces) and
planning raises a DomainError instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .camera import Trajectory
from .errors import DomainError
from .trajectory_ops import merge_trajectories

TEMPORAL_COMPRESSION = 4  # the video tokenizer's decoded frames per latent frame after the anchor


@dataclass(frozen=True)
class SchedulerConfig:
    """Chunking and context-size configuration.

    k is the model context size (number of conditioning videos).
    """

    k: int = 4
    chunk_frames: int = 93
    overlap_latent: int = 6

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"context size k must be >= 1, got {self.k}")
        if self.overlap_latent < 1:
            raise DomainError(f"overlap_latent must be >= 1, got {self.overlap_latent}")
        if not (0 < self.overlap_frames < self.chunk_frames):
            raise DomainError(
                f"need 0 < overlap_frames < chunk_frames, got overlap "
                f"{self.overlap_frames} vs chunk {self.chunk_frames}"
            )

    @property
    def overlap_frames(self) -> int:
        """Decoded frames shared between consecutive chunks."""
        return 1 + (self.overlap_latent - 1) * TEMPORAL_COMPRESSION


@dataclass(frozen=True)
class Chunk:
    """Half-open frame range [start, end) and its overlap with the previous chunk."""

    start: int
    end: int
    overlap_with_prev: int

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class ChunkSchedule:
    total_frames: int
    chunks: tuple[Chunk, ...]


def chunk_schedule(total_frames: int, cfg: SchedulerConfig = SchedulerConfig()) -> ChunkSchedule:
    """Split total_frames into overlapping chunks.

    The first chunk covers [0, min(chunk_frames, total)); each later chunk
    starts overlap_frames before the previous end. Chunks cover [0, total)
    exactly.
    """
    if total_frames < 1:
        raise DomainError(f"total_frames must be >= 1, got {total_frames}")
    chunks = [Chunk(0, min(cfg.chunk_frames, total_frames), 0)]
    while chunks[-1].end < total_frames:
        start = chunks[-1].end - cfg.overlap_frames
        chunks.append(Chunk(start, min(start + cfg.chunk_frames, total_frames),
                            cfg.overlap_frames))
    return ChunkSchedule(total_frames=total_frames, chunks=tuple(chunks))


def generation_order(n_views: int, n_chunks: int) -> list[tuple[int, int]]:
    """Chunk-major generation order: all views of chunk 1, then chunk 2, ...

    Returns 1-based (view, chunk) pairs.
    """
    if n_views < 1 or n_chunks < 1:
        raise DomainError(f"need n_views >= 1 and n_chunks >= 1, got {n_views}, {n_chunks}")
    return [(v, m) for m in range(1, n_chunks + 1) for v in range(1, n_views + 1)]


def overlap_condition_mask(chunk: Chunk) -> np.ndarray:
    """Per-frame conditioning flags for a chunk: True = clean context frame.

    The first overlap_with_prev frames are reused from the previous chunk
    and conditioned clean; the rest are generated.
    """
    if not (0 <= chunk.overlap_with_prev < chunk.length):
        raise DomainError(
            f"overlap {chunk.overlap_with_prev} out of range for chunk length {chunk.length}"
        )
    mask = np.zeros(chunk.length, dtype=bool)
    mask[: chunk.overlap_with_prev] = True
    return mask


_PATCH = 2  # the latent tokenizer's spatial patch size


@dataclass(frozen=True)
class TokenLayout:
    """Sequence accounting for one denoising call: (k+1) videos of f latent frames."""

    context_count: int
    latent_frames_per_video: int
    spatial_tokens: int

    def __post_init__(self) -> None:
        if min(self.context_count, self.latent_frames_per_video, self.spatial_tokens) < 1:
            raise DomainError("token layout dimensions must all be >= 1")

    @property
    def total_frame_dim(self) -> int:
        return self.context_count * self.latent_frames_per_video


def token_layout(k: int, decoded_frames: int, height: int, width: int) -> TokenLayout:
    """Token layout of k context videos plus one target, each decoded_frames long.

    decoded_frames must be 1 mod TEMPORAL_COMPRESSION (an anchor frame plus
    whole latent groups): f = 1 + (decoded_frames - 1) / TEMPORAL_COMPRESSION.
    height and width must be divisible by the spatial patch size, 2.
    """
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    if decoded_frames < 1:
        raise DomainError(f"decoded_frames must be >= 1, got {decoded_frames}")
    if (decoded_frames - 1) % TEMPORAL_COMPRESSION:
        raise DomainError(
            f"decoded_frames {decoded_frames} is not 1 + a multiple of "
            f"temporal_compression {TEMPORAL_COMPRESSION}"
        )
    if height % _PATCH or width % _PATCH:
        raise DomainError(f"image size {width}x{height} not divisible by patch {_PATCH}")
    return TokenLayout(
        context_count=k + 1,
        latent_frames_per_video=1 + (decoded_frames - 1) // TEMPORAL_COMPRESSION,
        spatial_tokens=(height // _PATCH) * (width // _PATCH),
    )


@dataclass(frozen=True)
class PlanRef:
    """Reference to a conditioning video: a retrieved entry, the source, or a merge output."""

    kind: str  # "entry" | "source" | "merge"
    key: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("entry", "source", "merge"):
            raise DomainError(f"unknown plan ref kind {self.kind!r}")

    def __str__(self) -> str:
        return self.kind if self.kind == "source" else f"{self.kind}:{self.key}"


SOURCE_REF = PlanRef(kind="source")


@dataclass(frozen=True)
class PlanStep:
    """One generation call: k context refs and the trajectory to generate."""

    context: tuple[PlanRef, ...]
    target: Trajectory
    produces: str
    is_final: bool


class _HasTrajectory(Protocol):
    trajectory: Trajectory


@dataclass(frozen=True)
class InferencePlan:
    """Ordered generation steps ending in exactly one final step.

    trace records (l, m) per merge iteration.
    """

    steps: tuple[PlanStep, ...]
    k: int
    trace: tuple[tuple[int, int], ...]

    def validate(self, n_entries: int) -> None:
        """Check structural invariants against the retrieved entry count."""
        if not self.steps or not self.steps[-1].is_final:
            raise DomainError("plan must end with a final step")
        if sum(1 for s in self.steps if s.is_final) != 1:
            raise DomainError("plan must contain exactly one final step")
        seen_entries: list[int] = []
        produced: set[str] = set()
        consumed: set[str] = set()
        for s in self.steps:
            if len(s.context) != self.k:
                raise DomainError(f"step {s.produces} has {len(s.context)} contexts, expected {self.k}")
            for ref in s.context:
                if ref.kind == "entry":
                    seen_entries.append(ref.key)
                elif ref.kind == "merge":
                    name = str(ref)
                    if name not in produced:
                        raise DomainError(f"step {s.produces} consumes {name} before it exists")
                    consumed.add(name)
            produced.add(s.produces)
        if sorted(seen_entries) != list(range(n_entries)):
            raise DomainError(
                f"plan must consume each of {n_entries} entries exactly once, got {sorted(seen_entries)}"
            )
        intermediates = {s.produces for s in self.steps if not s.is_final}
        if intermediates - consumed:
            raise DomainError(f"unconsumed intermediates: {sorted(intermediates - consumed)}")

    def format(self) -> str:
        """Printable plan: per-iteration trace and one line per step."""
        lines = [f"plan: k={self.k}, steps={len(self.steps)}"]
        for (l, m), step in zip(self.trace, self.steps):
            lines.append(f"merge {step.produces.split(':')[1]}: l={l}, m={m}")
        final_l = sum(1 for r in self.steps[-1].context if r.kind != "source")
        lines.append(f"final: l={final_l}")
        for i, step in enumerate(self.steps, start=1):
            tag = "final" if step.is_final else "merge"
            ctx = ", ".join(str(r) for r in step.context)
            lines.append(f"step {i} [{tag} -> {step.produces}] context: {ctx}")
        return "\n".join(lines)


def plan_divide_conquer(
    retrieved: Sequence[tuple[_HasTrajectory, float]],
    k: int,
    target: Trajectory,
    source: _HasTrajectory,
    merge: Callable[[Sequence[Trajectory]], Trajectory] = merge_trajectories,
) -> InferencePlan:
    """Reduce l retrieved videos to a k-sized context via merge steps.

    retrieved must be sorted by ascending score (worst first); each item
    needs a .trajectory. Entry refs in the plan are positions in this list.
    Merge steps take the first m = min(l - k + 1, k) work items, pad the
    context to k with the source, and target the merged trajectory; the
    produced intermediate re-enters the work list at the front. The final
    step targets the true trajectory. Raises for k = 1 with l > 1: a step
    consumes one context slot per produced video, so no reduction exists.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not retrieved:
        raise DomainError("nothing retrieved to plan over")
    scores = [s for _, s in retrieved]
    if any(scores[i] > scores[i + 1] for i in range(len(scores) - 1)):
        raise DomainError("retrieved list must be sorted by ascending score")
    if k == 1 and len(retrieved) > 1:
        raise DomainError(
            f"cannot reduce {len(retrieved)} retrieved videos with context size 1: "
            "each step consumes exactly one video per video produced"
        )
    work: list[tuple[PlanRef, Trajectory]] = [
        (PlanRef(kind="entry", key=i), item.trajectory)
        for i, (item, _) in enumerate(retrieved)
    ]
    steps: list[PlanStep] = []
    trace: list[tuple[int, int]] = []
    merge_no = 0
    while len(work) > k:
        l = len(work)
        m = min(l - k + 1, k)
        taken = work[:m]
        refs = tuple(r for r, _ in taken) + (SOURCE_REF,) * (k - m)
        trajs = [t for _, t in taken] + [source.trajectory] * (k - m)
        merged = merge(trajs)
        merge_no += 1
        ref = PlanRef(kind="merge", key=merge_no)
        steps.append(PlanStep(context=refs, target=merged, produces=str(ref), is_final=False))
        trace.append((l, m))
        work = [(ref, merged)] + work[m:]
    refs = tuple(r for r, _ in work) + (SOURCE_REF,) * (k - len(work))
    steps.append(PlanStep(context=refs, target=target, produces="final", is_final=True))
    plan = InferencePlan(steps=tuple(steps), k=k, trace=tuple(trace))
    plan.validate(len(retrieved))
    return plan
