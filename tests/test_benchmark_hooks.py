"""The benchmark's per-layer spans still reach the functions they wrap.

perfbench/tracer.py replaces covis functions by module and name from
outside the package. A refactor that moves or renames one of them leaves
its span silent, and the per-layer metric built on it reads 0 without any
error; this test catches that.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Every span tracer.install adds except frustum.covis and memory.similarity:
# retrieval calls neither frame_covisibility nor trajectory_similarity, since
# it scores the whole pool in one pool_covisibility call.
EXPECTED_SPANS = {
    "camera.traj_load",
    "memory.append", "memory.open", "memory.retrieve",
    "scheduler.plan",
    "trajectory_ops.merge", "trajectory_ops.suite",
    "scene.render", "scene.save", "scene.load",
    "metrics.sync", "metrics.pose",
    "cli.simulate", "cli.eval",
}

SCRIPT = """
import json, sys
import tracer
from covis import cli

t = tracer.Tracer()
tracer.install(t)
out = sys.argv[1]
assert cli.main(["simulate", "--out", out, "--frames", "100", "--set", "retrieval.k=8",
                 "--set", "scene.point_count=50"]) == 0
assert cli.main(["eval", "--run", out, "--n-shots", "12"]) == 0
print(json.dumps(sorted({s[0] for s in t.spans})))
"""


def test_every_traced_layer_fires(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "run")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    fired = set(json.loads(proc.stdout.splitlines()[-1]))
    assert EXPECTED_SPANS <= fired, sorted(EXPECTED_SPANS - fired)
