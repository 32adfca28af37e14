"""The bytes of one small run, pinned: a digest per artifact kind against run_digests.json.

The run is simulate + eval of a 45-frame source over 3 chunks (21 frames
each but the last, 5 of them overlapping), with retrieval.k=6 over a context
of 4 (so the planner merges) and 30% of the scene's points moving. A change that alters any byte a run writes fails here,
naming the kinds that moved. If the change is meant, regenerate the file with

    PYTHONPATH=src python tests/test_run_digests.py DIR > tests/run_digests.json

(DIR a fresh directory to run into) and say in the change which kinds moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

from covis.cli import main

DIGESTS = Path(__file__).with_name("run_digests.json")
SIMULATE = ["simulate", "--frames", "45", "--set", "scheduler.chunk_frames=21",
            "--set", "scheduler.overlap_latent=2", "--set", "retrieval.k=6",
            "--set", "scene.moving_fraction=0.3"]
FILES = ["run_log.json", "config_resolved.json", "report.json", "report.csv"]
TREES = ["bank", "videos"]


def tree_digest(root: Path) -> str:
    """sha256 over root's files in sorted relative-path order: each path, then its bytes' sha256."""
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        h.update(rel.encode() + b"\0")
        h.update(hashlib.sha256((root / rel).read_bytes()).digest())
    return h.hexdigest()


def run_digests(out: Path) -> dict[str, str]:
    """Simulate and evaluate the pinned run into out, then digest each artifact kind."""
    assert main([*SIMULATE, "--out", str(out)]) == 0
    assert main(["eval", "--run", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(FILES + TREES)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}
    digests.update({f"{name}/": tree_digest(out / name) for name in TREES})
    return dict(sorted(digests.items()))


def test_a_pinned_run_writes_the_committed_bytes(tmp_path):
    got = run_digests(tmp_path / "run")
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    moved = [kind for kind in sorted(want.keys() | got.keys()) if want.get(kind) != got.get(kind)]
    assert not moved, f"artifact kinds whose bytes differ from {DIGESTS.name}: {moved}"


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):  # covis's own lines, apart from the digests
        digests = run_digests(Path(sys.argv[1]))
    print(json.dumps(digests, indent=2))
