"""Trajectory similarity, the memory bank, top-k retrieval, and context padding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covis import (
    CameraIntrinsics,
    CameraPose,
    DomainError,
    FrustumParams,
    MemoryBank,
    MemoryEntry,
    RetrievalResult,
    SamplerConfig,
    Trajectory,
    frame_covisibility,
    pad_context,
    retrieve_top_k,
    trajectory_similarity,
)
from covis.frustum import pool_covisibility

from helpers import (
    aimed_trajectory,
    random_pose,
    random_rotation,
    random_trajectory,
    transform_trajectory,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)

INTR = CameraIntrinsics(fx=32.0, fy=32.0, cx=16.0, cy=12.0, width=32, height=24)

# opposed and separated by more than twice the far plane: no shared volume
OPPOSED = CameraPose(rotation=np.diag([-1.0, 1.0, -1.0]), translation=np.array([0.0, 0.0, -25.0]))


def make_entry(traj: Trajectory, seq: int, chunk: int = 1, source: bool = False) -> MemoryEntry:
    return MemoryEntry(
        trajectory=traj, video_ref=f"v{seq}", chunk_index=chunk,
        insert_seq=seq, is_source=source,
    )


def test_similarity_identity():
    traj = random_trajectory(np.random.default_rng(3), frame_count=4)
    assert trajectory_similarity(traj, traj) == 1.0


def test_similarity_frame_mismatch():
    rng = np.random.default_rng(5)
    with pytest.raises(DomainError):
        trajectory_similarity(
            random_trajectory(rng, frame_count=2), random_trajectory(rng, frame_count=3)
        )


def test_similarity_half_overlap_exact():
    # frame 1 identical (contributes 1), frame 2 disjoint (contributes 0)
    shared = CameraPose.identity()
    a = Trajectory.from_poses([shared, CameraPose.identity()], INTR)
    b = Trajectory.from_poses([shared, OPPOSED], INTR)
    assert trajectory_similarity(a, b) == 0.5


def test_similarity_disjoint_is_zero():
    a = Trajectory.from_poses([CameraPose.identity()] * 2, INTR)
    b = Trajectory.from_poses([OPPOSED] * 2, INTR)
    assert trajectory_similarity(a, b) == 0.0


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_similarity_symmetric(seed):
    rng = np.random.default_rng(seed)
    a = random_trajectory(rng, frame_count=2)
    b = random_trajectory(rng, frame_count=2)
    assert trajectory_similarity(a, b) == trajectory_similarity(b, a)


def loop_similarity(a, b, cfg, params):
    """Reference: frame_covisibility frame by frame, summed in frame order."""
    total = 0.0
    for (pa, _), (pb, _) in zip(a.frames, b.frames):
        total += frame_covisibility(params.build(pa), params.build(pb), cfg)
    return total / len(a)


def paired_trajectory(rng, a: Trajectory, layout: str) -> Trajectory:
    """A partner for a: the same poses, far-off poses, fresh random poses, or a per-frame mix."""
    poses = []
    for p in a.poses:
        kind = rng.choice(["identical", "disjoint", "random"]) if layout == "mixed" else layout
        if kind == "identical":
            poses.append(p)
        elif kind == "disjoint":
            poses.append(CameraPose(rotation=p.rotation, translation=p.translation + 1000.0))
        else:
            poses.append(random_pose(rng))
    return Trajectory.from_poses(poses, a.frames[0][1])


frustum_params = st.builds(
    lambda fov_h, fov_v, near, depth: FrustumParams(fov_h, fov_v, near, near + depth),
    st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.sampled_from([0.0, 0.25, 1.5]),
    st.floats(0.5, 12.0),
)


# Sampler grids: P = 120; P = 3,072 (4 frames per kernel block, so 5 or
# more frames cross a block boundary); P = 1 (numpy's matrix-vector path);
# and P = 12,480, past the 12,288-sample block, so every block is one frame.
sampler_grids = st.sampled_from([(5, 4, 6), (32, 24, 4), (1, 1, 1), (65, 64, 3)])
layouts = st.sampled_from(["random", "identical", "disjoint", "mixed"])


@settings(max_examples=60, deadline=None)
@given(
    seeds, st.integers(1, 12), st.lists(layouts, min_size=1, max_size=6),
    st.none() | st.integers(0, 2**32 - 1), st.none() | frustum_params, sampler_grids,
    st.lists(st.integers(0, 6), max_size=3),
)
def test_similarity_equals_frame_loop_exactly(seed, frames, pool_layouts, jitter, params, grid,
                                              skipped_at):
    rng = np.random.default_rng(seed)
    a = random_trajectory(rng, frame_count=frames)
    pool = [paired_trajectory(rng, a, layout) for layout in pool_layouts]
    cfg = SamplerConfig(*grid, jitter_seed=jitter)
    ref_params = params or FrustumParams()
    per_frame = pool_covisibility(*a.pose_stack, [b.pose_stack for b in pool], cfg, params)
    assert per_frame.shape == (len(pool), frames)
    for b, row, layout in zip(pool, per_frame, pool_layouts):
        assert row.tolist() == [
            frame_covisibility(ref_params.build(pa), ref_params.build(pb), cfg)
            for pa, pb in zip(a.poses, b.poses)
        ]
        assert trajectory_similarity(a, b, cfg, params) == loop_similarity(a, b, cfg, ref_params)
        if layout == "identical":
            assert trajectory_similarity(a, b, cfg, params) == 1.0
        if layout == "disjoint":
            assert trajectory_similarity(a, b, cfg, params) == 0.0

    # retrieval ranks the same scores, most recent first on ties, and skips
    # entries of another frame count wherever they sit in the bank
    bank = MemoryBank()
    for j in range(7):
        if j in skipped_at:
            bank.append(random_trajectory(rng, frame_count=frames + 1), f"skip{j}", 1)
        if j < len(pool):
            bank.append(pool[j], f"v{j}", 1)
    result = retrieve_top_k(bank, a, len(bank), 1, cfg, params)
    expected = sorted(
        ((i, trajectory_similarity(a, e.trajectory, cfg, params))
         for i, e in enumerate(bank.entries) if len(e.trajectory) == frames),
        key=lambda r: (-r[1], -bank.entries[r[0]].insert_seq),
    )
    assert result.ranked == tuple(expected)
    assert result.skipped == len(set(skipped_at))


def test_pose_stack_is_cached_and_read_only():
    traj = random_trajectory(np.random.default_rng(43), frame_count=4)
    rotations, centers = traj.pose_stack
    assert traj.pose_stack[0] is rotations
    assert rotations.shape == (4, 3, 3) and centers.shape == (4, 3)
    assert np.array_equal(centers, traj.centers())
    with pytest.raises(ValueError):
        rotations[0, 0, 0] = 2.0


def test_entry_validation():
    traj = random_trajectory(np.random.default_rng(7))
    with pytest.raises(DomainError):
        make_entry(traj, seq=1, chunk=0)
    with pytest.raises(DomainError):
        MemoryEntry(trajectory=traj, video_ref="v", chunk_index=1, insert_seq=0)


def test_bank_append_sequencing():
    rng = np.random.default_rng(9)
    bank = MemoryBank()
    assert len(bank) == 0
    e1 = bank.append(random_trajectory(rng), "v1", 1, is_source=True)
    e2 = bank.append(random_trajectory(rng), "v2", 1)
    assert (e1.insert_seq, e2.insert_seq) == (1, 2)
    assert len(bank) == 2
    assert bank.source_entry(1) is e1
    assert [i for i, _ in bank.entries_for_chunk(1)] == [0, 1]
    with pytest.raises(DomainError):
        bank.source_entry(2)


def test_bank_rejects_second_source_and_frame_mismatch():
    rng = np.random.default_rng(11)
    bank = MemoryBank()
    bank.append(random_trajectory(rng), "v1", 1, is_source=True)
    with pytest.raises(DomainError):
        bank.append(random_trajectory(rng), "v2", 1, is_source=True)
    with pytest.raises(DomainError):
        bank.append(random_trajectory(rng, frame_count=3), "v3", 1, video_frame_count=4)


def test_retrieval_result_requires_sorted_scores():
    with pytest.raises(DomainError):
        RetrievalResult(ranked=((0, 0.2), (1, 0.9)))
    r = RetrievalResult(ranked=((1, 0.9), (0, 0.2)))
    assert r.indices == (1, 0)


def test_retrieve_identical_entry_scores_one():
    rng = np.random.default_rng(13)
    target = random_trajectory(rng, frame_count=2)
    bank = MemoryBank()
    bank.append(target, "v1", 1, is_source=True)
    result = retrieve_top_k(bank, target, k=1, chunk_index=1)
    assert result.ranked[0][1] == 1.0


def test_retrieve_pool_scoping_and_errors():
    rng = np.random.default_rng(17)
    bank = MemoryBank()
    bank.append(random_trajectory(rng, 2), "v1", 1, is_source=True)
    bank.append(random_trajectory(rng, 2), "v2", 2, is_source=True)
    target = random_trajectory(rng, 2)
    assert len(retrieve_top_k(bank, target, 4, chunk_index=1).ranked) == 1
    assert len(retrieve_top_k(bank, target, 4, chunk_index=1, cross_chunk=True).ranked) == 2
    with pytest.raises(DomainError):
        retrieve_top_k(bank, target, 4, chunk_index=3)
    with pytest.raises(DomainError):
        retrieve_top_k(bank, target, 0, chunk_index=1)
    with pytest.raises(DomainError):
        retrieve_top_k(bank, target, 4, chunk_index=1, tie_rule="scoreboard")
    # excluding the source empties this pool
    with pytest.raises(DomainError):
        retrieve_top_k(bank, target, 4, chunk_index=1, include_source=False)


def test_retrieve_skips_other_frame_counts():
    rng = np.random.default_rng(47)
    bank = MemoryBank()
    bank.append(random_trajectory(rng, 3), "v1", 1, is_source=True)
    bank.append(random_trajectory(rng, 2), "v2", 2, is_source=True)
    bank.append(random_trajectory(rng, 3), "v3", 2)
    target = random_trajectory(rng, 3)
    result = retrieve_top_k(bank, target, 4, chunk_index=2, cross_chunk=True)
    assert sorted(result.indices) == [0, 2]
    assert result.skipped == 1
    assert retrieve_top_k(bank, target, 4, chunk_index=1).skipped == 0
    with pytest.raises(DomainError, match="1 skipped"):
        retrieve_top_k(bank, random_trajectory(rng, 2), 4, chunk_index=1)


def test_retrieve_tie_breaks_by_recency():
    rng = np.random.default_rng(19)
    traj = random_trajectory(rng, 2)
    target = random_trajectory(rng, 2)
    bank = MemoryBank()
    bank.append(traj, "old", 1, is_source=True)
    bank.append(traj, "new", 1)
    recent = retrieve_top_k(bank, target, 2, chunk_index=1)
    assert [bank.entries[i].video_ref for i in recent.indices] == ["new", "old"]
    oldest = retrieve_top_k(bank, target, 2, chunk_index=1, tie_rule="oldest_first")
    assert [bank.entries[i].video_ref for i in oldest.indices] == ["old", "new"]


def test_retrieve_self_always_first():
    rng = np.random.default_rng(23)
    target = random_trajectory(rng, 2, label="target")
    bank = MemoryBank()
    bank.append(random_trajectory(rng, 2), "v1", 1, is_source=True)
    bank.append(target, "self", 1)
    bank.append(random_trajectory(rng, 2), "v3", 1)
    result = retrieve_top_k(bank, target, 3, chunk_index=1)
    top_idx, top_score = result.ranked[0]
    assert bank.entries[top_idx].video_ref == "self"
    assert top_score == 1.0


def test_retrieve_insertion_order_only_breaks_ties():
    # aimed trajectories share a working volume, so every pair overlaps a
    # little and the six scores come out generically distinct
    rng = np.random.default_rng(31)
    trajs = [aimed_trajectory(rng, 2, label=f"t{i}") for i in range(6)]
    target = aimed_trajectory(rng, 2)

    def ranking(order):
        bank = MemoryBank()
        bank.append(trajs[order[0]], f"v{order[0]}", 1, is_source=True)
        for j in order[1:]:
            bank.append(trajs[j], f"v{j}", 1)
        result = retrieve_top_k(bank, target, 6, chunk_index=1)
        return [(bank.entries[i].trajectory.label, s) for i, s in result.ranked]

    first = ranking(list(range(6)))
    second = ranking([3, 1, 4, 0, 5, 2])
    # distinct random trajectories: scores are generically untied, so the
    # (label, score) ranking must not depend on insertion order
    scores = [s for _, s in first]
    assert len(set(scores)) == len(scores)
    assert first == second


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_retrieve_rigid_invariance(seed):
    rng = np.random.default_rng(seed)
    trajs = [random_trajectory(rng, 2, label=f"t{i}") for i in range(5)]
    target = random_trajectory(rng, 2)
    q = random_rotation(rng)
    t = rng.uniform(-5.0, 5.0, size=3)

    def ranking(transform):
        bank = MemoryBank()
        for i, traj in enumerate(trajs):
            moved = transform_trajectory(traj, q, t) if transform else traj
            bank.append(moved, f"v{i}", 1, is_source=(i == 0))
        tgt = transform_trajectory(target, q, t) if transform else target
        return retrieve_top_k(bank, tgt, 5, chunk_index=1).ranked

    assert ranking(False) == ranking(True)


def test_pad_context():
    rng = np.random.default_rng(37)
    entries = [make_entry(random_trajectory(rng, 2), seq=i + 1) for i in range(4)]
    source = make_entry(random_trajectory(rng, 2), seq=9, source=True)
    assert pad_context(entries, 4, source) == entries
    assert pad_context(entries[:1], 4, source) == [entries[0], source, source, source]
    assert pad_context([], 2, source) == [source, source]
    with pytest.raises(DomainError):
        pad_context(entries, 3, source)


def test_bank_disk_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    bank = MemoryBank(tmp_path / "bank")
    bank.append(random_trajectory(rng, 2, label="src"), "videos/a", 1, is_source=True)
    bank.append(random_trajectory(rng, 2, label="one"), "videos/b", 1)
    bank.append(random_trajectory(rng, 2, label="two"), "videos/c", 2, is_source=True)

    reopened = MemoryBank.open(tmp_path / "bank")
    assert len(reopened) == 3
    for e0, e1 in zip(bank.entries, reopened.entries):
        assert (e0.video_ref, e0.chunk_index, e0.insert_seq, e0.is_source) == (
            e1.video_ref, e1.chunk_index, e1.insert_seq, e1.is_source
        )
        assert e0.trajectory.label == e1.trajectory.label
        assert np.array_equal(e0.trajectory.centers(), e1.trajectory.centers())

    target = random_trajectory(rng, 2)
    assert (
        retrieve_top_k(bank, target, 2, chunk_index=1).ranked
        == retrieve_top_k(reopened, target, 2, chunk_index=1).ranked
    )
    # appends after reopening continue the sequence and persist
    reopened.append(random_trajectory(rng, 2, label="three"), "videos/d", 2)
    assert MemoryBank.open(tmp_path / "bank").entries[-1].insert_seq == 4


def test_bank_open_requires_manifest(tmp_path):
    with pytest.raises(DomainError):
        MemoryBank.open(tmp_path / "nothing")
