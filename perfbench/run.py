"""Wall-clock benchmark of the repro engines on TPC-H.

Usage (from the repository root)::

    python3 perfbench/run.py --workload par-sf0.01 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` re-runs the timed
passes with every module boundary wrapped and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A full report
(settings, per-query figures, failures) and, for traced runs, a Chrome trace
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _jsonable(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    raise TypeError(f"not JSON serialisable: {value!r}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from wallbench import layers
    from wallbench.workloads import END_TO_END, WORKLOADS, run

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"available: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    report = run(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)

    print("settings: " + " ".join(f"{k}={v}" for k, v in report["settings"].items()))
    for name, value in report["metrics"].items():
        print(f"{name:<30} {value:>16.6f} {units[name]}")
    if not args.trace:
        tail = report["info"]["tail"]
        print(f"query_tail_ms is p{tail['percentile']:g} of n={tail['n']} timed queries")
        host = report["info"]["host"]
        print(f"times are reference-host times (perfbench/wallbench/hostspeed.py): "
              f"median scale {host['median_scale']:.4f} over {host['probes']} probes; "
              f"wall query_p50_ms={host['wall_query_p50_ms']:.6f}, "
              f"wall queries_per_s={host['wall_queries_per_s']:.6f}")
        print(f"sim.runtime_s={report['sim.runtime_s']:.6f} virtual s per pass, "
              f"sim.recovery_ratio={report['sim.recovery_ratio']:.6f}")
    else:
        print(f"chrome trace: {report['chrome_trace']} ({report['spans']} spans)")
    print(f"fail_frac={report['fail_frac']:.6f} "
          f"({report['failed']}/{report['attempted']})")
    for outcome in report["failures"][:5]:
        print(f"FAILED: {outcome}")

    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, default=_jsonable))
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
