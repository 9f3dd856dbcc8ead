"""Tests of the benchmark harness itself, on tiny inputs.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Tracer

SPEC = json.loads(run.SPEC.read_text())
SEED = run.DEFAULT_SEED


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.splitlines()
    return json.loads(result_line), json.loads(record_line)["record"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, record = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        e["name"]: e["unit"] for e in section}
    assert record["failed_ratio"] == 0.0
    assert set(record["phases"]) == set(workloads.WORKLOADS[workload].phases)
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_matches_workloads_and_layer_map():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    layer_map = json.loads((run.HERE / "layer_map.json").read_text())["map"]
    mapped = [name for entry in layer_map for name in entry["layer_metrics"]]
    assert sorted(mapped) == sorted(e["name"] for e in SPEC["per_layer"])


def test_numerical_error_is_counted_not_fatal(tmp_path, capsys):
    ps = run.import_pumpsim()
    workload = workloads.AttackDefault(SEED, tmp_path, tiny=True)
    workload.setup(ps)
    # Generated target: ten times the seeded ratio, far beyond the ratio
    # that eps_opt = 1 reaches at this pump power.
    p_pump, ratio = workload.fit_targets[0]
    workload.fit_targets.append((p_pump, 10.0 * ratio))
    args = argparse.Namespace(workload=workload.name, seed=SEED, seconds=0.0,
                              trace=0, tiny=True)
    result, record = run.measure(args, ps, workload, tmp_path)
    assert "fit1: FitError" in capsys.readouterr().err
    assert issubclass(ps.FitError, ps.NumericalError)
    passes = record["passes"]
    assert result["attempted"] == 5 * passes
    assert result["failed"] == passes
    assert result["correct"] is False
    assert record["failed_ratio"] == pytest.approx(1 / 5)


def test_traced_counts_repeat_exactly(tmp_path):
    ps = run.import_pumpsim()
    workload = workloads.AttackDefault(SEED, tmp_path, tiny=True)
    workload.setup(ps)
    tracer = Tracer(ps)
    summaries = []
    run.run_passes(workload, 0.0, 2, tracer,
                   on_pass=lambda records: summaries.append(
                       run.layer_metrics(tracer.summary(), records)))
    counts = ["dynamics.steps", "analysis.fit_eps_opt.simulations",
              "model.gain.calls", "dynamics.simulate.calls"]
    first, second = ({k: s[k] for k in counts} for s in summaries)
    assert first == second
    assert first["analysis.fit_eps_opt.simulations"][0] == 28
    # Installing and removing the tracer leaves pumpsim's functions intact.
    assert ps.analysis.simulate is ps.dynamics.simulate
    assert not hasattr(ps.dynamics.simulate, "__wrapped__")
