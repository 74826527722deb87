"""tilekit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep3d|zline|periodic|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; tilekit is imported from its ``src``.  The
workload runs in fresh worker processes (``worker.py``), one client in a closed
loop.  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-module metrics of one
traced pass.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sweep3d", "zline", "periodic", "cli")
SETUP_PROCESSES = 4   # set-up-only processes; with the run's own set-up, 5 samples
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def environment(seed):
    """What a result depends on besides the workload: recorded with every run."""
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights.  Unlike a single order statistic it does not jump across a gap in
    the latencies (zline has one at its median, between the diameter-6 and
    diameter-7 tiles).  The weights are integrated with Simpson's rule.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0 or x >= 1:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 8
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        ys = [density((i * steps + j) * h) for j in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def worker(deadline, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode}):\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, deadline):
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        res = worker(deadline, *base, "--phase", "run", "--seconds", str(args.seconds),
                     "--trace", "1", "--spans", str(spans))
        metrics = res["layer_metrics"]
        notes = {"untraced_wall_s": statistics.median(res["pass_wall_s"]),
                 "traced_wall_s": res["traced_wall_s"], "absent": res["absent"],
                 "spans_file": str(spans.relative_to(ROOT))}
        return res, metrics, notes, {}
    setups = [worker(deadline, *base, "--phase", "setup") for _ in range(SETUP_PROCESSES)]
    res = worker(deadline, *base, "--phase", "run", "--seconds", str(args.seconds))
    setups.append(res)
    lat = res["latencies"]
    metrics = {
        "wall_s": {"value": statistics.median(res["pass_s"]), "unit": "s"},
        "req_p50_ms": {"value": hd_quantile(lat, 0.5) * 1000, "unit": "ms"},
        "req_p90_ms": {"value": hd_quantile(lat, 0.9) * 1000, "unit": "ms"},
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    notes = {"passes": len(res["pass_s"]), "latency_samples": len(lat),
             "pass_s": res["pass_s"], "pass_wall_s": res["pass_wall_s"],
             "setup_s": [s["setup_s"] for s in setups],
             "setup_wall_s": [s["setup_wall_s"] for s in setups],
             "calibration_median_s": statistics.median(d for _, d in res["calibration"]),
             "calibration_samples": len(res["calibration"])}
    raw = {"calibration": res["calibration"], "requests": res["timings"],
           "fields": "calibration: [CPU stamp, seconds]; "
                     "requests: per pass, [CPU start, CPU seconds, wall-clock seconds]"}
    return res, metrics, notes, raw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work per run; passes repeat while the next one fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tilekit" / "__init__.py").is_file():
        print(f"bench: no tilekit sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    try:
        res, metrics, notes, raw = measure(args, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    record = {"workload": args.workload, "trace": args.trace, "env": env, "notes": notes,
              "fail_frac": failed / attempted, "failures": res["failures"],
              "metrics": metrics, "raw": raw}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("# env " + json.dumps(env))
    print("# notes " + json.dumps(notes))
    print(f"# fail_frac {failed}/{attempted} = {failed / attempted}")
    for reason in res["failures"]:
        print(f"# failure: {reason}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
