"""Spans around covis's public functions, installed from outside the package.

``install`` replaces each traced function at the name its callers look it
up under, so no file of covis changes. Functions imported by value (``from
.scene import render``) are replaced in the importing module, and
``plan_divide_conquer``'s ``merge`` default is replaced in its defaults, since
it was bound when the function was defined.

Spans stay in memory while the run works and are written out after it.
Byte counts come from ``/proc/self/io`` deltas, wait time is wall time minus
the thread's CPU time.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path

PROC_IO = Path("/proc/self/io")

# Span tuple fields.
NAME, START, END, PARENT, CPU, RCHAR, WCHAR, EXTRA = range(8)


def _read_io() -> tuple[int, int]:
    try:
        fields = dict(line.split(": ") for line in PROC_IO.read_text().splitlines())
    except OSError:
        return 0, 0
    return int(fields["rchar"]), int(fields["wchar"])


class Tracer:
    """Collects (name, start, end, parent, cpu, rchar, wchar, extra) spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        r0, _ = _read_io()
        r1, _ = _read_io()
        self._io_read_cost = r1 - r0  # rchar that reading /proc/self/io itself adds

    def wrap(self, name: str, fn, io: bool = False, extra=None):
        """fn wrapped in a span; io adds CPU time and byte counts, extra(args, result) a value."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def plain(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans[idx] = (name, t0, t1, parent, 0.0, 0, 0,
                          None if extra is None else extra(args, result))
            return result

        @functools.wraps(fn)
        def with_io(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            r0, w0 = _read_io()
            c0 = time.thread_time()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = time.thread_time()
                r1, w1 = _read_io()
                stack.pop()
            spans[idx] = (name, t0, t1, parent, c1 - c0, r1 - r0 - self._io_read_cost, w1 - w0,
                          None if extra is None else extra(args, result))
            return result

        return with_io if io else plain

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, cpu, rchar, wchar, extra."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _count_files(directory) -> int:
    return sum(1 for _ in Path(directory).iterdir())


def install(tracer: Tracer) -> None:
    """Trace every layer of covis that simulate and eval reach."""
    from covis import cli, memory, scene, scheduler

    wrap = tracer.wrap
    memory.frame_covisibility = wrap("frustum.covis", memory.frame_covisibility)
    memory.trajectory_similarity = wrap("memory.similarity", memory.trajectory_similarity)
    cli.retrieve_top_k = wrap("memory.retrieve", cli.retrieve_top_k)
    memory.MemoryBank.append = wrap("memory.append", memory.MemoryBank.append, io=True)
    memory.MemoryBank.open = classmethod(
        wrap("memory.open", memory.MemoryBank.__dict__["open"].__func__))
    traj_load = wrap("camera.traj_load", memory.load_trajectory)
    memory.load_trajectory = scene.load_trajectory = cli.load_trajectory = traj_load
    merge_fn = scheduler.merge_trajectories
    merge = scheduler.merge_trajectories = wrap("trajectory_ops.merge", merge_fn)
    plan = scheduler.plan_divide_conquer
    plan.__defaults__ = tuple(merge if d is merge_fn else d for d in plan.__defaults__)
    cli.plan_divide_conquer = wrap("scheduler.plan", plan)
    cli.benchmark_suite = wrap("trajectory_ops.suite", cli.benchmark_suite)
    cli.render = wrap("scene.render", cli.render, extra=lambda a, r: r.frame_count)
    cli.save_frames = wrap("scene.save", cli.save_frames, io=True,
                           extra=lambda a, r: (a[0].frame_count, _count_files(a[1])))
    cli.load_frames = wrap("scene.load", cli.load_frames, io=True)
    cli.sync_report = wrap("metrics.sync", cli.sync_report,
                           extra=lambda a, r: sum(row.frames for row in r.rows))
    cli.pose_error_report = wrap("metrics.pose", cli.pose_error_report)
    cli.cmd_simulate = wrap("cli.simulate", cli.cmd_simulate)
    cli.cmd_eval = wrap("cli.eval", cli.cmd_eval)


def layer_metrics(
    spans: list[tuple], bank_bytes: int, scale: float = 1.0
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced simulate + eval, as name -> (value, unit).

    Every time is multiplied by scale.
    """
    by_name: dict[str, list[tuple]] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]

    def calls(name):
        return float(len(by_name.get(name, ())))

    def busy(name):
        return scale * sum(s[END] - s[START] for s in by_name.get(name, ()))

    def wait(name):
        return scale * sum(s[END] - s[START] - s[CPU] for s in by_name.get(name, ()))

    def total(name, field):
        return float(sum(s[field] for s in by_name.get(name, ())))

    def self_time(name):
        return scale * sum(s[END] - s[START] - child_time.get(i, 0.0)
                           for i, s in enumerate(spans) if s[NAME] == name)

    retrieve_ms = [scale * (s[END] - s[START]) * 1e3 for s in by_name.get("memory.retrieve", ())]
    rendered = total("scene.render", EXTRA)
    saves = by_name.get("scene.save", ())
    saved = float(sum(s[EXTRA][0] for s in saves))
    append_bytes = total("memory.append", WCHAR)
    return {
        "frustum.covis_calls": (calls("frustum.covis"), "count"),
        "frustum.covis_s": (busy("frustum.covis"), "s"),
        "memory.retrieve_calls": (calls("memory.retrieve"), "count"),
        "memory.retrieve_s": (busy("memory.retrieve"), "s"),
        "memory.retrieve_ms_p50": (statistics.median(retrieve_ms) if retrieve_ms else 0.0, "ms"),
        "memory.pairs_scored": (calls("memory.similarity"), "count"),
        "memory.similarity_s": (busy("memory.similarity"), "s"),
        "memory.append_calls": (calls("memory.append"), "count"),
        "memory.append_s": (busy("memory.append"), "s"),
        "memory.append_wait_s": (wait("memory.append"), "s"),
        "memory.append_write_bytes": (append_bytes, "bytes"),
        "memory.bank_write_amp": (append_bytes / bank_bytes, "ratio"),
        "memory.open_s": (busy("memory.open"), "s"),
        "camera.traj_load_calls": (calls("camera.traj_load"), "count"),
        "camera.traj_load_s": (busy("camera.traj_load"), "s"),
        "scheduler.plan_calls": (calls("scheduler.plan"), "count"),
        "scheduler.plan_s": (busy("scheduler.plan"), "s"),
        "trajectory_ops.merge_calls": (calls("trajectory_ops.merge"), "count"),
        "trajectory_ops.merge_s": (busy("trajectory_ops.merge"), "s"),
        "trajectory_ops.suite_s": (busy("trajectory_ops.suite"), "s"),
        "scene.render_calls": (calls("scene.render"), "count"),
        "scene.render_frames": (rendered, "count"),
        "scene.render_s": (busy("scene.render"), "s"),
        "scene.render_useful_ratio": (saved / rendered, "ratio"),
        "scene.save_calls": (calls("scene.save"), "count"),
        "scene.save_s": (busy("scene.save"), "s"),
        "scene.save_wait_s": (wait("scene.save"), "s"),
        "scene.save_write_bytes": (total("scene.save", WCHAR), "bytes"),
        "scene.save_files": (float(sum(s[EXTRA][1] for s in saves)), "count"),
        "scene.load_calls": (calls("scene.load"), "count"),
        "scene.load_s": (busy("scene.load"), "s"),
        "scene.load_read_bytes": (total("scene.load", RCHAR), "bytes"),
        "metrics.sync_s": (busy("metrics.sync"), "s"),
        "metrics.match_frames": (total("metrics.sync", EXTRA), "count"),
        "metrics.pose_s": (busy("metrics.pose"), "s"),
        "cli.simulate_self_s": (self_time("cli.simulate"), "s"),
        "cli.eval_self_s": (self_time("cli.eval"), "s"),
    }
