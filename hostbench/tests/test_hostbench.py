"""Tests of the benchmark itself, on workloads small enough to run in seconds.

    python3 -m pytest hostbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from hostbench import run  # noqa: E402
from hostbench.tracing import Tracer, instrumented  # noqa: E402
from hostbench.workloads import CampaignWorkload, Op, SimWorkload  # noqa: E402

TINY_SIM = SimWorkload("tiny-sim", "lbm", 300)
TINY_CAMPAIGN = CampaignWorkload("tiny-campaign", ("hotset",))
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [TINY_SIM, TINY_CAMPAIGN], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "measure_setup", lambda name, seed, calibration: (0.25, 0.25))
    result = run.run(workload, seed=0, seconds=0, trace=trace, reference={})
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = capsys.readouterr().out.splitlines()
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert f"{metric['name']} {value['value']} {metric['unit']}" in printed
    assert "fail_ratio 0.0 fraction" in printed
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("field", ["nvm_writes", "epochs", "cycles"])
def test_changed_count_is_a_failed_operation(field):
    op = TINY_SIM.prepare(0)[0]
    result = op.run()
    reference = {"digests": {"0": {TINY_SIM.name: TINY_SIM.digests(op, result)}}}
    checker = run.Checker(TINY_SIM, 0, reference)
    checker.run(Op(op.name, lambda: result))
    assert (checker.attempted, checker.failed) == (1, 0)
    changed = dataclasses.replace(result, **{field: getattr(result, field) + 1})
    checker.run(Op(op.name, lambda: changed))
    assert (checker.attempted, checker.failed) == (2, 1)


def test_campaign_cell_served_from_cache_is_failed():
    op = TINY_CAMPAIGN.prepare(0)[0]
    summary, report = op.run()
    report.cache_hits, report.executed = 1, op.units - 1
    checker = run.Checker(TINY_CAMPAIGN, 0, {})
    checker.run(Op(op.name, lambda: (summary, report), op.units))
    assert checker.failed == op.units


def test_tracing_attributes_time_and_restores_entry_points():
    from repro.sim import runner

    original = runner.run_simulation
    tracer = Tracer()
    with instrumented(tracer):
        assert runner.run_simulation is not original
        ops = TINY_SIM.prepare(0)
        tracer.run_op(0, ops[0].run)
    assert runner.run_simulation is original
    summary = tracer.summary(inclusive=("bench.op",))
    assert summary["sim.runner"]["calls"] == 1
    assert summary["core.writeback"]["calls"] > 0
    assert summary["crypto.prf"]["self_s"] > 0
    op = summary["bench.op"]
    assert 0 <= op["self_s"] < 0.15 * op["total_s"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "hostbench", tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "lbm-stream",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
