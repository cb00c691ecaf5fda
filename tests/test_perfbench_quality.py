"""The perfbench quality gate (``tools/check_perfbench_quality.py``).

The committed golden counts must accept a run log that reproduces them
and reject any drift: integers exactly, floats beyond a relative 1e-9,
or a log of another seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECK = REPO_ROOT / "tools" / "check_perfbench_quality.py"
GOLDEN = REPO_ROOT / "tests" / "golden" / "perfbench_seed1.json"


def _log(tmp_path: Path, workload: str, counts: dict, seed: int = 1) -> Path:
    report = {
        "workload": workload,
        "seed": seed,
        "metrics": {name: {"unit": "", "value": value} for name, value in counts.items()},
    }
    path = tmp_path / f"perfbench-{workload}.txt"
    path.write_text(
        "progress line\n"
        f"perfbench-report: {json.dumps(report)}\n"
        '{"correct": true}\n'
    )
    return path


def _check(*logs: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECK), *map(str, logs)],
        capture_output=True,
        text=True,
        timeout=60,
    )


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_both_workloads():
    golden = _golden()
    assert golden["seed"] == 1
    assert set(golden["workloads"]["sink_plan_stream"]) == {
        "script_bytes", "diff_inst", "diff_cycle"
    }
    assert set(golden["workloads"]["fleet_campaign"]) == {
        "script_bytes", "diff_inst", "network_energy_j",
        "sim_convergence_s", "converged_node_ratio",
    }


def test_matching_logs_pass(tmp_path):
    golden = _golden()["workloads"]
    logs = [_log(tmp_path, name, counts) for name, counts in golden.items()]
    proc = _check(*logs)
    assert proc.returncode == 0, proc.stderr
    assert "0 problem(s)" in proc.stdout


def test_float_within_tolerance_passes(tmp_path):
    counts = dict(_golden()["workloads"]["fleet_campaign"])
    counts["network_energy_j"] *= 1 + 1e-12
    assert _check(_log(tmp_path, "fleet_campaign", counts)).returncode == 0


def test_drift_fails(tmp_path):
    sink = dict(_golden()["workloads"]["sink_plan_stream"])
    sink["diff_cycle"] += 1
    fleet = dict(_golden()["workloads"]["fleet_campaign"])
    fleet["sim_convergence_s"] *= 1 + 1e-7
    proc = _check(
        _log(tmp_path, "sink_plan_stream", sink),
        _log(tmp_path, "fleet_campaign", fleet),
    )
    assert proc.returncode == 1
    assert "sink_plan_stream: diff_cycle" in proc.stderr
    assert "fleet_campaign: sim_convergence_s" in proc.stderr


def test_other_seed_fails(tmp_path):
    counts = _golden()["workloads"]["sink_plan_stream"]
    proc = _check(_log(tmp_path, "sink_plan_stream", counts, seed=2))
    assert proc.returncode == 1
    assert "golden seed 1" in proc.stderr


def test_log_without_report_is_a_usage_error(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("no report here\n")
    assert _check(path).returncode == 2
