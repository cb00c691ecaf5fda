"""Print every end-to-end metric of every workload, one row per workload.

    python3 perfbench/summary.py [--seed 1] [--seconds 35]

Runs ``perfbench/run.py`` once per workload, each in its own process
and one after another, and tabulates the full report of each run.  A
metric that does not apply to a workload prints as ``n/a``.  Exits 1
when any run fails, reports a failed op, or produces no report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPORT_PREFIX = "perfbench-report: "


def run_workload(name: str, seed: int, seconds: float) -> "dict | None":
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    for line in completed.stdout.splitlines():
        if line.startswith(REPORT_PREFIX):
            return json.loads(line[len(REPORT_PREFIX):])
    sys.stderr.write(completed.stderr)
    return None


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from run import END_TO_END_UNITS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    args = parser.parse_args(argv)

    names = [workload["name"] for workload in benchmark["workloads"]]
    header = ["workload"] + [f"{m} [{u}]" for m, u in END_TO_END_UNITS.items()]
    rows, ok = [], True
    for name in names:
        report = run_workload(name, args.seed, args.seconds)
        if report is None:
            rows.append([name] + ["error"] * len(END_TO_END_UNITS))
            ok = False
            continue
        ok = ok and report["failed"] == 0
        cells = [name]
        for metric in END_TO_END_UNITS:
            entry = report["metrics"].get(metric)
            cells.append("n/a" if entry is None else f"{entry['value']:.6g}")
        rows.append(cells)
        print(
            f"{name}: inputs {report['inputs_digest'][:16]}, "
            f"{report['attempted']} ops, tail = p{report['tail_percentile']:.0f} "
            f"of {report['tail_samples']}, calibration "
            f"{report['calibration_ms']:.1f} ms",
            file=sys.stderr,
        )
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.rjust(width) for cell, width in zip(row, widths)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
