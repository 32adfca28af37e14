"""Shared deterministic builders for test inputs."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from covis import CameraIntrinsics, CameraPose, Trajectory


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Random rotation via QR of a Gaussian matrix (sign-fixed to det +1)."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q = -q
    return q


def random_pose(rng: np.random.Generator, span: float = 3.0) -> CameraPose:
    return CameraPose(
        rotation=random_rotation(rng),
        translation=rng.uniform(-span, span, size=3),
    )


def random_intrinsics(rng: np.random.Generator) -> CameraIntrinsics:
    w = int(rng.integers(8, 65))
    h = int(rng.integers(8, 65))
    return CameraIntrinsics(
        fx=float(rng.uniform(0.4, 2.0)) * w,
        fy=float(rng.uniform(0.4, 2.0)) * h,
        cx=float(rng.uniform(0.3, 0.7)) * w,
        cy=float(rng.uniform(0.3, 0.7)) * h,
        width=w,
        height=h,
    )


def random_trajectory(
    rng: np.random.Generator, frame_count: int = 3, label: str = "t"
) -> Trajectory:
    intr = random_intrinsics(rng)
    return Trajectory.from_poses(
        [random_pose(rng) for _ in range(frame_count)], intr, label=label
    )


def yaw_pitch_rotation(yaw: float, pitch: float) -> np.ndarray:
    """Camera-to-world rotation: yaw about +y, then pitch about +x."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    return ry @ rx


def aimed_trajectory(
    rng: np.random.Generator,
    frame_count: int = 3,
    label: str = "t",
    width: int = 64,
    height: int = 48,
) -> Trajectory:
    """Poses near the origin looking roughly down +z, toward the test scene cube."""
    intr = CameraIntrinsics.from_fov(math.pi / 2, math.pi / 3, width, height)
    poses = []
    for _ in range(frame_count):
        r = yaw_pitch_rotation(
            float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-0.45, 0.45))
        )
        c = np.array([
            rng.uniform(-2.0, 2.0),
            rng.uniform(-1.5, 1.5),
            rng.uniform(-1.5, 1.5),
        ])
        poses.append(CameraPose(rotation=r, translation=c))
    return Trajectory.from_poses(poses, intr, label=label)


def transform_trajectory(traj: Trajectory, q: np.ndarray, t: np.ndarray) -> Trajectory:
    """Apply one rigid transform (rotation q, offset t) to every pose."""
    frames = tuple(
        (CameraPose(rotation=q @ p.rotation, translation=q @ p.translation + t), intr)
        for p, intr in traj.frames
    )
    return Trajectory(frames=frames, label=traj.label)


def read_rgb(directory: Path, traj: Trajectory) -> np.ndarray:
    """The (F, H, W, 3) RGB frames save_frames wrote to directory, one .rgb file per frame."""
    w, h = traj.image_size
    return np.stack([np.fromfile(directory / f"frame_{i:04d}.rgb", np.uint8).reshape(h, w, 3)
                     for i in range(len(traj))])
