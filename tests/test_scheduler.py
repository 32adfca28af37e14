"""Chunk scheduling, generation order, token layout, and divide-and-conquer planning."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis import (
    CameraIntrinsics,
    CameraPose,
    Chunk,
    DomainError,
    InferencePlan,
    PlanRef,
    PlanStep,
    SchedulerConfig,
    Trajectory,
    chunk_schedule,
    generation_order,
    overlap_condition_mask,
    plan_divide_conquer,
    token_layout,
)
from covis.scheduler import SOURCE_REF, TEMPORAL_COMPRESSION

INTR = CameraIntrinsics(fx=48.0, fy=48.0, cx=32.0, cy=24.0, width=64, height=48)


class FakeEntry:
    """Minimal stand-in for a bank entry: the planner only needs .trajectory."""

    def __init__(self, trajectory: Trajectory):
        self.trajectory = trajectory


def ascending(l: int) -> list[tuple[FakeEntry, float]]:
    traj = Trajectory.from_poses([CameraPose.identity()], INTR, label="e")
    return [(FakeEntry(traj), i / 100.0) for i in range(l)]


TARGET = Trajectory.from_poses([CameraPose.identity()], INTR, label="target")
SOURCE = FakeEntry(Trajectory.from_poses([CameraPose.identity()], INTR, label="src"))


def test_scheduler_config_defaults():
    cfg = SchedulerConfig()
    assert cfg.k == 4
    assert cfg.chunk_frames == 93
    assert cfg.overlap_latent == 6
    assert TEMPORAL_COMPRESSION == 4
    # 1 + (6 - 1) * 4 decoded frames share the boundary latents
    assert cfg.overlap_frames == 21


def test_scheduler_config_validation():
    with pytest.raises(DomainError):
        SchedulerConfig(k=0)
    with pytest.raises(DomainError):
        SchedulerConfig(overlap_latent=0)
    with pytest.raises(DomainError):
        SchedulerConfig(chunk_frames=21)  # overlap 21 not < chunk


def test_generation_order_examples():
    assert generation_order(3, 1) == [(1, 1), (2, 1), (3, 1)]
    assert generation_order(1, 1) == [(1, 1)]
    assert generation_order(2, 2) == [(1, 1), (2, 1), (1, 2), (2, 2)]
    with pytest.raises(DomainError):
        generation_order(0, 1)


@settings(max_examples=30)
@given(st.integers(1, 9), st.integers(1, 9))
def test_generation_order_is_chunk_major_bijection(n, m):
    order = generation_order(n, m)
    assert len(order) == n * m
    assert len(set(order)) == n * m
    assert all(1 <= v <= n and 1 <= c <= m for v, c in order)
    chunks_seen = [c for _, c in order]
    assert chunks_seen == sorted(chunks_seen)


def test_chunk_schedule_examples():
    single = chunk_schedule(93)
    assert [(c.start, c.end, c.overlap_with_prev) for c in single.chunks] == [(0, 93, 0)]
    two = chunk_schedule(165)
    assert [(c.start, c.end, c.overlap_with_prev) for c in two.chunks] == [
        (0, 93, 0), (72, 165, 21)
    ]
    short = chunk_schedule(50)
    assert [(c.start, c.end, c.overlap_with_prev) for c in short.chunks] == [(0, 50, 0)]
    with pytest.raises(DomainError):
        chunk_schedule(0)


def test_chunk_schedule_short_tail():
    # the tail chunk is shortened to the clip end, never extended past it
    sched = chunk_schedule(150)
    assert [(c.start, c.end) for c in sched.chunks] == [(0, 93), (72, 150)]
    assert sched.chunks[-1].length == 78


@settings(max_examples=60)
@given(st.integers(1, 700))
def test_chunk_schedule_coverage(total):
    sched = chunk_schedule(total)
    coverage = np.zeros(total, dtype=int)
    for chunk in sched.chunks:
        assert 0 <= chunk.start < chunk.end <= total
        coverage[chunk.start:chunk.end] += 1
    for prev, cur in zip(sched.chunks, sched.chunks[1:]):
        assert cur.start == prev.end - cur.overlap_with_prev
        assert cur.overlap_with_prev == 21
    # overlap regions are covered twice, everything else once
    twice = sum(c.overlap_with_prev for c in sched.chunks)
    assert (coverage >= 1).all()
    assert (coverage <= 2).all()
    assert int((coverage == 2).sum()) == twice


@settings(max_examples=200)
@given(st.integers(1, 8), st.integers(1, 60), st.integers(1, 500))
def test_chunk_schedule_drops_overlap_frames_after_the_first_chunk(overlap_latent, extra, total):
    # eval stitches a shot by dropping these frames, knowing only the config
    cfg = SchedulerConfig(overlap_latent=overlap_latent,
                          chunk_frames=1 + (overlap_latent - 1) * TEMPORAL_COMPRESSION + extra)
    chunks = chunk_schedule(total, cfg).chunks
    drops = [c.overlap_with_prev for c in chunks]
    assert drops == [0] + [cfg.overlap_frames] * (len(chunks) - 1)
    # every later chunk adds at least one frame beyond its overlap
    assert all(c.length >= cfg.overlap_frames + 1 for c in chunks[1:])
    kept = [f for c, drop in zip(chunks, drops) for f in range(c.start + drop, c.end)]
    assert kept == list(range(total))


def test_overlap_condition_mask():
    mask = overlap_condition_mask(Chunk(72, 165, 21))
    assert mask.shape == (93,)
    assert mask[:21].all() and not mask[21:].any()
    first = overlap_condition_mask(Chunk(0, 93, 0))
    assert not first.any()
    # overlap = length - 1 leaves exactly one generated frame
    edge = overlap_condition_mask(Chunk(0, 22, 21))
    assert int((~edge).sum()) == 1
    with pytest.raises(DomainError):
        overlap_condition_mask(Chunk(0, 10, 10))


def test_token_layout_constants():
    assert token_layout(0, 21, 108, 192).latent_frames_per_video == 6
    layout = token_layout(4, 93, 108, 192)
    assert layout.latent_frames_per_video == 24
    assert layout.context_count == 5
    assert layout.total_frame_dim == 120
    assert layout.spatial_tokens == (108 // 2) * (192 // 2)
    # source-only call: frame dim is just f
    assert token_layout(0, 93, 108, 192).total_frame_dim == 24


def test_token_layout_linear_in_context_count():
    f = token_layout(0, 93, 108, 192).latent_frames_per_video
    for k in range(6):
        assert token_layout(k, 93, 108, 192).total_frame_dim == (k + 1) * f


def test_token_layout_divisibility_errors():
    with pytest.raises(DomainError):
        token_layout(4, 22, 108, 192)  # 21 not divisible by 4
    with pytest.raises(DomainError):
        token_layout(4, 93, 107, 192)  # height not divisible by patch
    with pytest.raises(DomainError):
        token_layout(-1, 93, 108, 192)


def test_plan_no_merge_when_l_fits():
    # l <= k: one final step, the entries in ascending score order, padded to k with the source
    for k in range(1, 9):
        for l in range(1, k + 1):
            plan = plan_divide_conquer(ascending(l), k, TARGET, SOURCE)
            assert len(plan.steps) == 1, (k, l)
            assert plan.trace == ()
            step = plan.steps[0]
            assert step.is_final
            assert [str(r) for r in step.context] == (
                [f"entry:{i}" for i in range(l)] + ["source"] * (k - l)
            ), (k, l)
            assert step.target is TARGET


def test_plan_l10_k4_trace():
    plan = plan_divide_conquer(ascending(10), 4, TARGET, SOURCE)
    assert plan.trace == ((10, 4), (7, 4))
    assert len(plan.steps) == 3
    text = plan.format()
    assert "merge 1: l=10, m=4" in text
    assert "merge 2: l=7, m=4" in text
    assert "final: l=4" in text
    # merged intermediates re-enter at the front of the work list
    assert [str(r) for r in plan.steps[1].context] == [
        "merge:1", "entry:4", "entry:5", "entry:6"
    ]
    assert [str(r) for r in plan.steps[2].context] == [
        "merge:2", "entry:7", "entry:8", "entry:9"
    ]


def test_plan_l5_k4_single_small_merge():
    plan = plan_divide_conquer(ascending(5), 4, TARGET, SOURCE)
    assert plan.trace == ((5, 2),)
    assert len(plan.steps) == 2
    # m = 2 real entries plus source padding up to k
    assert [str(r) for r in plan.steps[0].context] == [
        "entry:0", "entry:1", "source", "source"
    ]


def test_plan_input_validation():
    with pytest.raises(DomainError):
        plan_divide_conquer([], 4, TARGET, SOURCE)
    with pytest.raises(DomainError):
        plan_divide_conquer(ascending(3), 0, TARGET, SOURCE)
    descending = list(reversed(ascending(3)))
    with pytest.raises(DomainError):
        plan_divide_conquer(descending, 2, TARGET, SOURCE)


def test_plan_k1_cannot_reduce():
    # one context slot per produced video: merging can never shrink the list
    with pytest.raises(DomainError):
        plan_divide_conquer(ascending(2), 1, TARGET, SOURCE)
    plan = plan_divide_conquer(ascending(1), 1, TARGET, SOURCE)
    assert len(plan.steps) == 1


def test_plan_exhaustive_termination_and_shape():
    for k in range(1, 9):
        for l in range(k + 1, 65):
            if k == 1:
                with pytest.raises(DomainError):
                    plan_divide_conquer(ascending(l), k, TARGET, SOURCE)
                continue
            plan = plan_divide_conquer(ascending(l), k, TARGET, SOURCE)
            assert len(plan.steps) == math.ceil((l - k) / (k - 1)) + 1, (k, l)
            entry_refs = [
                r.key for s in plan.steps for r in s.context if r.kind == "entry"
            ]
            assert sorted(entry_refs) == list(range(l)), (k, l)
            assert all(len(s.context) == k for s in plan.steps)
            assert plan.steps[-1].is_final
            assert sum(1 for s in plan.steps if s.is_final) == 1


def test_plan_validate_rejects_malformed():
    good = plan_divide_conquer(ascending(5), 4, TARGET, SOURCE)
    good.validate(5)
    with pytest.raises(DomainError):
        good.validate(6)  # wrong entry count
    # a step with too few contexts
    bad = InferencePlan(
        steps=(
            PlanStep(context=(PlanRef(kind="entry", key=0),), target=TARGET,
                     produces="final", is_final=True),
        ),
        k=2, trace=(),
    )
    with pytest.raises(DomainError):
        bad.validate(1)
    # merge consumed before produced
    bad2 = InferencePlan(
        steps=(
            PlanStep(context=(PlanRef(kind="merge", key=1), SOURCE_REF), target=TARGET,
                     produces="final", is_final=True),
        ),
        k=2, trace=(),
    )
    with pytest.raises(DomainError):
        bad2.validate(0)


def test_plan_ref_str_and_validation():
    assert str(PlanRef(kind="entry", key=3)) == "entry:3"
    assert str(PlanRef(kind="merge", key=2)) == "merge:2"
    assert str(SOURCE_REF) == "source"
    with pytest.raises(DomainError):
        PlanRef(kind="bank", key=0)
