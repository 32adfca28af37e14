"""Top-down SVG rendering of camera trajectories.

The drawing projects the world onto the x-z plane (z up the page, x to the
right). Each trajectory contributes one polyline through its camera centers;
the first frame additionally shows the optical axis and the frustum
footprint out to half the far plane. Output bytes depend only on the inputs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .camera import Trajectory
from .frustum import FrustumParams

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#393b79", "#637939",
    "#8c6d31",
]

_SIZE = 640.0
_MARGIN = 40.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def top_down_svg(trajectories: Sequence[Trajectory], params: FrustumParams = FrustumParams()) -> str:
    """SVG document with one polyline per trajectory, top-down view."""
    # imported here: xml.sax.saxutils pulls in urllib.request, about 40 ms that
    # every covis command would otherwise pay at import
    from xml.sax.saxutils import escape

    half_depth = params.far / 2.0
    tan_h = math.tan(params.fov_h / 2.0)

    pts = []
    footprints = []  # (apex_xz, corner_a_xz, corner_b_xz) per trajectory
    polylines = []
    for traj in trajectories:
        centers = traj.pose_stack[1][:, [0, 2]]
        polylines.append(centers)
        pts.append(centers)
        rotation, apex = (stack[0] for stack in traj.pose_stack)
        a, b = (
            (apex + rotation @ np.array([side * half_depth * tan_h, 0.0, half_depth]))[[0, 2]]
            for side in (-1.0, 1.0)
        )
        pts += [a[None], b[None]]
        footprints.append((apex[[0, 2]], a, b))
    allpts = np.concatenate(pts) if pts else np.zeros((1, 2))
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-6))
    scale = (_SIZE - 2.0 * _MARGIN) / span

    def to_svg(p: np.ndarray) -> tuple[float, float]:
        return (
            _MARGIN + (float(p[0]) - float(lo[0])) * scale,
            _MARGIN + (float(hi[1]) - float(p[1])) * scale,  # +z points up the page
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_SIZE)}" height="{int(_SIZE)}" '
        f'viewBox="0 0 {int(_SIZE)} {int(_SIZE)}">',
        f'<rect width="{int(_SIZE)}" height="{int(_SIZE)}" fill="white"/>',
    ]
    for i, (traj, centers, (apex, ca, cb)) in enumerate(zip(trajectories, polylines, footprints)):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (to_svg(p) for p in centers))
        label = traj.label or f"traj{i}"
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2">'
            f"<title>{escape(label)}</title></polyline>"
        )
        ax, ay = to_svg(apex)
        for corner in (ca, cb):
            cx, cy = to_svg(corner)
            lines.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(cx)}" y2="{_fmt(cy)}" '
                f'stroke="{color}" stroke-width="0.8" stroke-dasharray="3,3"/>'
            )
        # optical axis marker for the first frame
        fwd = traj.pose_stack[0][0][:, 2]
        tip = apex + np.array([fwd[0], fwd[2]])
        tx, ty = to_svg(tip)
        lines.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(tx)}" y2="{_fmt(ty)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        lines.append(f'<circle cx="{_fmt(ax)}" cy="{_fmt(ay)}" r="3" fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
