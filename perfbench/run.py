"""Benchmark of covis simulate + eval on one workload.

    python3 perfbench/run.py --workload suite|long|wide_pool --seed N --seconds S --trace 0|1

Run from the root of a covis checkout. Each round starts perfbench/worker.py
in a fresh single-threaded process, which runs ``covis simulate`` and then
``covis eval`` on inputs made from the seed and checks what they wrote.
Rounds repeat until S seconds have passed. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` (one operation is
one CLI command) and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, medians over the rounds; with ``--trace 1`` each round runs
untraced and then traced, and the metrics are the per-layer ones.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "long", "wide_pool")
# Setup-only processes started before and after the rounds, so setup_s is a
# median of several process starts spread over the run.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker process; returns its report with setup_s filled in."""
    env = dict(os.environ)
    env.pop("ENGINE_CONFIG", None)  # covis would read it in place of the defaults
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", str(HERE), os.environ.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = clock()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
        env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {workload} {mode} exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_wall_s"] = report["setup_done"] - t0
    report["setup_s"] = report["setup_wall_s"] * report["setup_scale"]
    return report


def check_repeats(workload: str, seed: int, rounds: list[dict]) -> list[str]:
    """Problems with outputs that must be identical across repeats of one seed.

    Digests from earlier runs in this checkout are kept beside the run
    directory, so single-round runs are compared with each other too.
    """
    problems = [f"round {i}: {r['check_error']}" for i, r in enumerate(rounds) if "check_error" in r]
    done = [r for r in rounds if "digest" in r]
    for key in ("digest", "run_bytes", "run_files"):
        if len({r[key] for r in done}) > 1:
            problems.append(f"{key} differs between rounds")
    store = Path(".perfbench_runs") / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    tag = f"{workload}/{seed}"
    for r in done:
        if known.setdefault(tag, r["digest"]) != r["digest"]:
            problems.append(f"digest differs from an earlier run of seed {seed}")
            break
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    def med(key):
        return statistics.median(r[key] for r in rounds)

    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "simulate_s": metric(med("simulate_s"), "s"),
        "eval_s": metric(med("eval_s"), "s"),
        "peak_rss_mb": metric(med("peak_rss_mb"), "MiB"),
        "run_bytes": metric(rounds[0]["run_bytes"], "bytes"),
        "run_files": metric(rounds[0]["run_files"], "count"),
    }


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    traced = [t["layers"] for _, t in pairs]
    out = {
        name: metric(statistics.median(t[name][0] for t in traced), unit)
        for name, (_, unit) in traced[0].items()
    }
    overhead = [t["simulate_s"] + t["eval_s"] - p["simulate_s"] - p["eval_s"] for p, t in pairs]
    out["trace.overhead_s"] = metric(statistics.median(overhead), "s")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not Path("src/covis/cli.py").is_file():
        print("run.py: no covis source tree under ./src; run it from a covis checkout",
              file=sys.stderr)
        return 2

    run = Path(".perfbench_runs") / args.workload / "run"
    setups: list[float] = []

    def probe_setup():
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args.workload, args.seed, "setup")["setup_s"])

    probe_setup()
    rounds: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    start = clock()
    try:
        while not rounds or clock() - start < args.seconds:
            modes = ("plain", "traced") if args.trace else ("plain",)
            reports = []
            for mode in modes:
                shutil.rmtree(run, ignore_errors=True)
                reports.append(spawn(args.workload, args.seed, mode))
            rounds += reports
            if args.trace:
                pairs.append((reports[0], reports[1]))
            setups.append(reports[0]["setup_s"])
    finally:
        shutil.rmtree(run, ignore_errors=True)
    probe_setup()

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    ok = [r for r in rounds if not r["failed"]]
    problems = check_repeats(args.workload, args.seed, ok)
    for p in problems:
        print(f"run.py: CHECK FAILED on {args.workload} seed {args.seed}: {p}", file=sys.stderr)
    if args.trace:
        ok_pairs = [(p, t) for p, t in pairs if not p["failed"] and not t["failed"]]
        metrics = per_layer(ok_pairs) if ok_pairs else {}
    else:
        metrics = end_to_end(ok, setups) if ok else {}
    for i, r in enumerate(rounds):
        print(f"round {i}: wall s: setup {r['setup_wall_s']:.4f} simulate {r['simulate_wall_s']:.4f}"
              f" eval {r['eval_wall_s']:.4f}; scaled s: setup {r['setup_s']:.4f} simulate "
              f"{r['simulate_s']:.4f} eval {r['eval_s']:.4f}; failed {r['failed']}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
