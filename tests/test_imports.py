"""Every name a covis module imports is used in that module, and covis exports a fixed list."""

from __future__ import annotations

import ast
import types
from pathlib import Path

import pytest

import covis

SRC = Path(__file__).resolve().parents[1] / "src" / "covis"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list[str]:
    """Imported names the module never reads, unless their import line says noqa: F401."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path) == []


# covis's public API: adding or removing a name here is a reviewed API change.
PUBLIC_NAMES = [
    "CameraIntrinsics", "CameraPose", "Chunk", "ChunkSchedule", "ConfigError", "DomainError",
    "EngineConfig", "FrameSequence", "Frustum", "FrustumParams", "InferencePlan", "MatchMap",
    "MemoryBank", "MemoryEntry", "PlanRef", "PlanStep", "PluckerRayMap", "PoseErrorReport",
    "RetrievalResult", "SamplerConfig", "SceneModel", "SchedulerConfig", "ShotKind", "SyncReport",
    "TokenLayout", "Trajectory", "align_scale", "benchmark_suite", "build_frustum",
    "chunk_schedule", "contains_points", "covisible_fraction", "frame_covisibility",
    "generate_shot", "generation_order", "load_config", "load_frames", "load_trajectory",
    "make_scene", "matched_pixels", "merge_trajectories", "oracle_match",
    "overlap_condition_mask", "plan_divide_conquer", "plucker_raymap",
    "pose_error_report", "render", "retrieve_top_k", "rot_err", "sample_points", "save_config",
    "save_frames", "save_trajectory", "sync_pairs", "sync_report", "token_layout",
    "trajectory_similarity", "trans_err",
]


def test_covis_exports_exactly_the_public_names():
    exported = sorted(
        name for name, value in vars(covis).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_NAMES
