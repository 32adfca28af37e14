"""Co-visibility camera-trajectory memory engine.

Retrieval-conditioned video generation bookkeeping: frustum co-visibility
retrieval over a trajectory memory bank, divide-and-conquer context
planning, chunked long-video scheduling, a deterministic synthetic-scene
renderer standing in for the generator, and pose/synchronization metrics.
"""

from .camera import (
    CameraIntrinsics,
    CameraPose,
    PluckerRayMap,
    Trajectory,
    load_trajectory,
    plucker_raymap,
    save_trajectory,
)
from .config import EngineConfig, load_config, save_config
from .errors import ConfigError, DomainError
from .frustum import (
    Frustum,
    FrustumParams,
    SamplerConfig,
    build_frustum,
    contains_points,
    frame_covisibility,
    sample_points,
)
from .memory import (
    MemoryBank,
    MemoryEntry,
    RetrievalResult,
    retrieve_top_k,
    trajectory_similarity,
)
from .metrics import (
    MatchMap,
    PoseErrorReport,
    SyncReport,
    align_scale,
    matched_pixels,
    oracle_match,
    pose_error_report,
    rot_err,
    sync_report,
    trans_err,
)
from .scene import (
    FrameSequence,
    SceneModel,
    covisible_fraction,
    load_frames,
    make_scene,
    render,
    save_frames,
)
from .scheduler import (
    Chunk,
    ChunkSchedule,
    InferencePlan,
    PlanRef,
    PlanStep,
    SchedulerConfig,
    TokenLayout,
    chunk_schedule,
    generation_order,
    overlap_condition_mask,
    plan_divide_conquer,
    token_layout,
)
from .trajectory_ops import (
    ShotKind,
    benchmark_suite,
    generate_shot,
    merge_trajectories,
    sync_pairs,
)

__version__ = "0.1.0"
