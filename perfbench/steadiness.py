"""Run the benchmark repeatedly and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload par-sf0.01 --seeds 1-10 [--trace 0]

Runs ``perfbench/run.py`` once per seed, one run at a time, then prints per
metric the median, the interquartile range as a share of the median (the
figure ``BENCHMARK.json`` bounds) and each run's wall time.  ``--json`` also
writes the raw values.

Before each run it times a fixed pure-Python loop (``calibration_s``).  The
loop does the same work every time, so its spread is the host's own speed
drift, against which the metrics' spreads can be read.  For untraced runs it
also lists the wall-clock figures each run's report keeps next to the
rescaled ones (``wall.*``) and the run's median host scale (see
``wallbench/hostspeed.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from wallbench.stats import spread  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def calibration_s() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now."""
    started = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)

    values: dict = {}
    walls = []
    for seed in parse_seeds(args.seeds):
        values.setdefault("calibration_s", []).append(calibration_s())
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        walls.append(time.perf_counter() - started)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect run: {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        if not args.trace:
            report = HERE / "out" / f"{args.workload}-seed{seed}-trace0.json"
            host = json.loads(report.read_text())["info"]["host"]
            for name, key in (("wall.query_p50_ms", "wall_query_p50_ms"),
                              ("wall.queries_per_s", "wall_queries_per_s"),
                              ("host.median_scale", "median_scale")):
                values.setdefault(name, []).append(host[key])
        print(f"seed {seed}: {walls[-1]:.1f} s wall", flush=True)

    print(f"{'metric':<30} {'median':>14} {'iqr/median':>11}")
    for name, series in values.items():
        median = statistics.median(series)
        rel = spread(series) if len(series) >= 2 and median else 0.0
        print(f"{name:<30} {median:>14.6f} {rel:>11.4f}")
    print(f"run wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    if args.json:
        args.json.write_text(json.dumps({"values": values, "walls": walls}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
