"""Tests of the benchmark itself, at tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, root: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


def tiny(workload: str, trace: int) -> tuple:
    p = bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", str(trace), "--size", "tiny")
    assert p.returncode == 0, p.stderr
    return p.stdout, json.loads(p.stdout.splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    out, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$", out, re.M), name
    assert re.search(r"^  fail_frac +0 ratio", out, re.M)
    env = json.loads(next(ln for ln in out.splitlines() if ln.startswith("env "))[4:])
    assert {"git_sha", "nproc", "python", "numpy", "scipy", "blas", "thread_pins"} <= set(env)
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert 0.5 < m["trace.accounted_frac"] <= 1.0
        assert (m["core.joint_diagonalize.calls"] == 0) == (workload == "simulate_md")
        assert (m["oracle.walker_density.calls"] > 0) == (workload == "compare_pipeline")


def test_corrupted_reference_fails(monkeypatch, capsys, tmp_path):
    checks = json.loads(run.CHECKS.read_text())
    ref = checks["sweep_jd"]["reference"]["tiny"]["4"]
    ref["log_nu_hat"] += 100 * ref["log_sd"]
    corrupted = tmp_path / "checks.json"
    corrupted.write_text(json.dumps(checks))
    monkeypatch.setattr(run, "CHECKS", corrupted)
    assert run.main(["--workload", "sweep_jd", "--seed", "3", "--seconds", "1",
                     "--trace", "0", "--size", "tiny"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert result["failed"] > 0 and not result["correct"]
    frac = float(re.search(r"^  fail_frac +(\S+) ratio", out, re.M).group(1))
    assert frac > 0
    assert "N=4: nu_hat=" in out


def test_sweep_mean_check_catches_a_factor_of_two():
    checks = json.loads(run.CHECKS.read_text())
    ref = checks["sweep_jd"]["reference"]["full"]
    inputs = run.SIZES["full"]["sweep_jd"]["inputs"]
    at_ref = [{int(N): math.exp(r["log_nu_hat"]) for N, r in ref.items()}] * inputs
    assert run.check_sweep_mean(at_ref, checks, "full") == []
    doubled = [{N: 2 * nu for N, nu in res.items()} for res in at_ref]
    assert len(run.check_sweep_mean(doubled, checks, "full")) == len(ref)
    halved = [{N: nu / 2 for N, nu in res.items()} for res in at_ref]
    assert len(run.check_sweep_mean(halved, checks, "full")) == len(ref)


def test_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = bench("--workload", "sweep_jd", "--seed", "1", "--seconds", "1", "--trace", "0",
              root=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_self_time_subtracts_children():
    spans = [
        ["cli.main", 0, 100, -1, None],
        ["dynamics.run", 10, 40, 0, {"steps": 5}],
        ["core.force_raw", 20, 30, 1, {"flops": 10}],
    ]
    rep = run.Repetition(input=0, wall_s=1.0, procs=[run.Proc(0, 1.0, 1.0, 1.0, "")],
                         spans=[{"import_ns": 0, "spans": spans}])
    m = run.layer_metrics(rep)
    assert m["cli.self_s"] == pytest.approx(70e-9)
    assert m["dynamics.run.self_s"] == pytest.approx(20e-9)
    assert m["core.force_raw.self_s"] == pytest.approx(10e-9)
    assert m["dynamics.steps"] == 5


def test_inputs_follow_the_seed():
    assert run.input_seed(5, 0) == run.input_seed(5, 0)
    assert len({run.input_seed(s, k) for s in range(3) for k in range(8)}) == 24
    for make in run.WORKLOADS.values():
        assert make(5, "full").configs == make(5, "full").configs
        assert make(5, "full").configs != make(6, "full").configs
