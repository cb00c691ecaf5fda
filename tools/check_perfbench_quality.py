#!/usr/bin/env python3
"""Gate the quality counts of ``perfbench/run.py`` against a golden file.

A performance change must leave what the program computes untouched.
The ``perfbench-report: {...}`` line of a run carries the quality
counts of one pass (script bytes, Diff_inst, Diff_cycle, network
energy, simulated convergence time, converged-node ratio).  They depend
on the seed alone, not on the machine or the run length, so they can be
compared exactly: integers must be equal, floats equal to a relative
``1e-9``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sink_plan_stream --seed 1 \\
        --seconds 1 --trace 0 > perfbench-sink_plan_stream.txt
    python3 tools/check_perfbench_quality.py perfbench-sink_plan_stream.txt

Each log is checked against the entry of its workload in
``tests/golden/perfbench_seed1.json``, and the run's seed must be the
golden file's.  A change that is meant to alter the program's outputs
edits that file by hand and says so in its description.

Exit status: 0 when every log matches, 1 on any mismatch (one line per
problem on stderr), 2 on a log without a report line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "perfbench_seed1.json"
REPORT_PREFIX = "perfbench-report: "
REL_TOL = 1e-9

#: The quality counts gated per workload (the timings are not).
QUALITY = {
    "sink_plan_stream": ("script_bytes", "diff_inst", "diff_cycle"),
    "fleet_campaign": (
        "script_bytes",
        "diff_inst",
        "network_energy_j",
        "sim_convergence_s",
        "converged_node_ratio",
    ),
}


def read_report(path: Path) -> dict:
    """The last ``perfbench-report`` line of one run log, parsed."""
    reports = [
        line[len(REPORT_PREFIX):]
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.startswith(REPORT_PREFIX)
    ]
    if not reports:
        print(f"{path}: no {REPORT_PREFIX.strip()!r} line", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(reports[-1])


def quality_counts(report: dict) -> dict:
    names = QUALITY[report["workload"]]
    return {name: report["metrics"][name]["value"] for name in names}


def compare(workload: str, expected: dict, actual: dict) -> list:
    problems = []
    for name, want in expected.items():
        got = actual.get(name)
        if isinstance(want, int):
            same = isinstance(got, (int, float)) and got == want
        else:
            same = isinstance(got, (int, float)) and math.isclose(
                got, want, rel_tol=REL_TOL, abs_tol=0.0
            )
        if not same:
            problems.append(f"{workload}: {name} = {got!r}, golden {want!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("logs", nargs="+", type=Path, help="perfbench run logs")
    args = parser.parse_args(argv)

    reports = [read_report(path) for path in args.logs]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    problems = []
    for path, report in zip(args.logs, reports):
        workload = report["workload"]
        if report["seed"] != golden["seed"]:
            problems.append(
                f"{path}: seed {report['seed']}, golden seed {golden['seed']}"
            )
        elif workload not in golden["workloads"]:
            problems.append(f"{path}: no golden counts for {workload}")
        else:
            problems.extend(
                compare(workload, golden["workloads"][workload], quality_counts(report))
            )
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"check_perfbench_quality: {len(reports)} log(s), "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
