"""Smoke tests of the benchmark itself, at tiny size.

Run from the repository root with ``python3 -m pytest perfbench``; the
repository's own ``tests/`` do not include them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Per-layer metrics each workload must move above zero in a traced run.
EXERCISED = {
    "paper-sweeps": [
        "superop.spectral_decomposition.calls", "superop.spectral_decomposition.busy_s",
        "superop.spectral_decomposition.d3_sum", "superop.decoherence_generator.busy_s",
        "superop.transfer_from_spectral.busy_s", "superop.transfer_from_spectral.points",
        "dynamics.echo_signal.busy_s", "dynamics.echo_signal.points",
        "dynamics.bang_bang_operator.calls", "dynamics.bang_bang_operator.busy_s",
        "dynamics.free_trajectory.busy_s", "rates.extract_rates.calls",
        "rates.extract_rates.busy_s", "rates.angle_sweep.self_s", "cli.run.calls",
        "cli.run.self_s", "cli.bytes_written", "analysis.calls", "analysis.busy_s",
    ],
    "many-fluctuators": [
        "superop.spectral_decomposition.calls", "superop.spectral_decomposition.busy_s",
        "superop.spectral_decomposition.d3_sum", "superop.decoherence_generator.busy_s",
        "superop.transfer_from_spectral.busy_s", "superop.transfer_from_spectral.points",
        "dynamics.echo_signal.busy_s", "dynamics.echo_signal.points",
        "dynamics.bang_bang_operator.calls", "dynamics.bang_bang_operator.busy_s",
        "dynamics.sequence_operator.calls", "dynamics.sequence_operator.busy_s",
        "rates.extract_rates.calls", "rates.extract_rates.busy_s",
    ],
    "oracle-checks": [
        "oracle.enumerate_sequences.busy_s", "oracle.enumerate_sequences.sequences",
        "oracle.enumerate_sequences.bytes_computed", "oracle.sample_trajectories.busy_s",
        "oracle.sample_trajectories.samples", "oracle.sample_trajectories.samples_per_s",
    ],
}


def bench(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    done = bench(ROOT, workload, 0)
    result = last_json(done)
    check_metrics(result, SPEC["end_to_end"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert any(line.startswith("error_rate ") for line in done.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    result = last_json(bench(ROOT, workload, 1))
    check_metrics(result, SPEC["per_layer"])
    idle = [name for name in EXERCISED[workload] if not result["metrics"][name]["value"] > 0]
    assert not idle


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
