"""One benchmark round in its own single-threaded process.

    python3 perfbench/worker.py {suite,long,wide_pool} SEED {setup,plain,traced}

run.py starts it, after checking the arguments, from the root of a covis
checkout with ``src`` on PYTHONPATH. The mode is
``setup`` (import and make the inputs, then stop), ``plain`` (then run
``covis simulate`` and ``covis eval`` through ``covis.cli.main``) or
``traced`` (the same with every layer wrapped in spans). The last line of
standard output is a JSON report. Its ``setup_done`` is a CLOCK_MONOTONIC
reading, which the parent subtracts from the reading it took just before
starting this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from covis import cli

import checks
import tracer

VIEWS = 12
# wide_pool's source: six full 93-frame chunks at a small image size, so that
# retrieval does the work and scene I/O stays small.
WIDE_FRAMES = 453
WIDE_SIZE = (48, 27)


def work_dir(workload: str) -> Path:
    return Path(".perfbench_runs") / workload


def run_dir(workload: str) -> Path:
    """Same path in every round: config_resolved.json records it, so run_bytes stays exact."""
    return work_dir(workload) / "run"


def _rotation(yaw: float, pitch: float) -> list[float]:
    cy, sy, cp, sp = math.cos(yaw), math.sin(yaw), math.cos(pitch), math.sin(pitch)
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    return (ry @ rx).reshape(-1).tolist()


def write_wide_source(seed: int, path: Path) -> None:
    """A smooth seeded camera path: slow dolly forward with swaying yaw, pitch and offset."""
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi, 4)
    yaw_amp, pitch_amp = rng.uniform(0.1, 0.3, 2)
    w, h = WIDE_SIZE
    fx, fy = w / (2.0 * math.tan(math.pi / 4)), h / (2.0 * math.tan(math.pi / 6))
    intr = {"fx": fx, "fy": fy, "cx": w / 2.0, "cy": h / 2.0, "width": w, "height": h}
    frames = []
    for i in range(WIDE_FRAMES):
        a = 2.0 * math.pi * i / (WIDE_FRAMES - 1)
        frames.append({
            "rotation": _rotation(yaw_amp * math.sin(a + phase[0]),
                                  0.5 * pitch_amp * math.sin(a + phase[1])),
            "translation": [0.5 * math.sin(a + phase[2]), 0.2 * math.sin(a + phase[3]),
                            i / (WIDE_FRAMES - 1)],
            "intrinsics": intr,
        })
    doc = {"convention": "camera_to_world", "label": "source", "frames": frames}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def commands(workload: str, seed: int) -> list[list[str]]:
    """Make the workload's inputs; returns its simulate and eval argument lists."""
    work_dir(workload).mkdir(parents=True, exist_ok=True)
    if workload == "suite":
        shape = ["--frames", "165"]
    elif workload == "long":
        shape = ["--frames", "465", "--set", "retrieval.k=8"]
    else:
        source = work_dir(workload) / "source.json"
        write_wide_source(seed, source)
        shape = ["--source", str(source), "--set", "retrieval.cross_chunk=true"]
    out = str(run_dir(workload))
    return [
        ["simulate", *shape, "--seed", str(seed), "--out", out],
        ["eval", "--run", out, "--n-shots", str(VIEWS)],
    ]


_PROBE_A = np.random.default_rng(0).random((64, 3))
_PROBE_B = np.random.default_rng(1).random((3, 3))


def probe_kernel() -> float:
    """Fixed work of the kind covis does most: small numpy calls from a Python loop."""
    s = 0.0
    for i in range(20):
        s += float((_PROBE_A @ _PROBE_B)[:, 2].sum()) + i
    return s


class SpeedProbe:
    """Host speed, sampled from inside the measured thread.

    The CPU this runs on changes speed by up to 2x for stretches of a few
    seconds, as other machines' work comes and goes. A SIGALRM timer runs
    probe_kernel every PROBE_INTERVAL_S while a command runs. A command's
    scaled time is its wall time, less the probes' own time, times the mean
    probe rate (1 / probe duration) times PROBE_REF_S: the time it would
    have taken on a host where the kernel takes PROBE_REF_S. The mean rate,
    not the mean duration, is the right weight: work done in a stretch is
    proportional to the speed in it.
    """

    PROBE_INTERVAL_S = 0.02
    PROBE_REF_S = 100e-6
    MIN_PROBES = 10

    def __init__(self) -> None:
        self.durations: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)

    def _tick(self, *_) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        self.durations.append(time.perf_counter() - t0)

    def _scale(self) -> float:
        while len(self.durations) < self.MIN_PROBES:
            self._tick()
        return self.PROBE_REF_S * statistics.fmean(1.0 / d for d in self.durations)

    def scale_now(self) -> float:
        """Speed factor from probes run back to back, for a span already timed."""
        self.durations = []
        return self._scale()

    def timed(self, fn) -> tuple[float, float]:
        """Run fn; returns its wall time and its scaled time."""
        self.durations = []
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_INTERVAL_S, self.PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        own = sum(self.durations)
        return wall, (wall - own) * self._scale()


def run_command(argv: list[str]) -> bool:
    """Run one covis command; returns whether it failed."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) != 0
    except (Exception, SystemExit):  # a crash is a failed operation, reported below
        traceback.print_exc()
        return True


def main(workload: str, seed: int, mode: str) -> dict:
    argvs = commands(workload, seed)
    spans = None
    if mode == "traced":
        spans = tracer.Tracer()
        tracer.install(spans)
    report = {"setup_done": time.clock_gettime(time.CLOCK_MONOTONIC)}
    probe = SpeedProbe()
    report["setup_scale"] = probe.scale_now()
    if mode == "setup":
        return report
    failed = []
    for name, argv in zip(("simulate", "eval"), argvs):
        report[f"{name}_wall_s"], report[f"{name}_s"] = probe.timed(
            lambda: failed.append(run_command(argv)))
    out = run_dir(workload)
    run_bytes, run_files = checks.run_size(out)
    report.update(
        attempted=len(failed), failed=sum(failed),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        run_bytes=run_bytes, run_files=run_files,
    )
    if report["failed"]:
        return report
    try:
        report["checked"] = checks.check_run(out, VIEWS, seed)
        report["digest"] = checks.run_digest(out)
    except Exception as e:  # any exception means an output is missing or wrong
        traceback.print_exc()
        report["check_error"] = f"{type(e).__name__}: {e}"
    if spans is not None:
        # Span times are wall times; scale them as the commands they ran in were scaled.
        scale = (report["simulate_s"] + report["eval_s"]) / (
            report["simulate_wall_s"] + report["eval_wall_s"])
        report["layers"] = tracer.layer_metrics(
            spans.spans, checks.run_size(out / "bank")[0], scale)
        spans.write(work_dir(workload) / "spans.jsonl")
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))
