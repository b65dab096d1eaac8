"""End-to-end command-line tests: artifacts, exit codes, overrides,
and byte-identical re-execution from manifests."""

import json
import os

import numpy as np
import pytest

from matrixqm.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

BASE_CONFIG = {
    "model": {"d": 2, "N": 4, "mu": 1.0, "omega": 1.0},
    "integrator": {"mode": "langevin", "dt": 0.01, "steps": 200, "gamma": 0.5,
                   "temperature": 0.3, "record_every": 4, "record_frames": True},
    "ensemble": {"replicas": 2, "master_seed": 77, "spread": 0.4},
}


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv("MATRIXQM_OUT", raising=False)


def write_config(tmp_path, doc, name="cfg.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class TestSimulate:
    def test_artifacts_written(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = os.path.join(tmp_path, "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
        names = sorted(os.listdir(out))
        assert names == ["manifest.json", "record_000.csv", "record_001.csv"]
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["ensemble"]["master_seed"] == 77
        assert len(manifest["per_replica_seeds"]) == 2
        assert "conventions" in manifest

    def test_manifest_reexecution_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1 = os.path.join(tmp_path, "o1")
        out2 = os.path.join(tmp_path, "o2")
        assert main(["simulate", "--config", cfg, "--out", out1]) == EXIT_OK
        manifest = os.path.join(out1, "manifest.json")
        assert main(["simulate", "--config", manifest, "--out", out2]) == EXIT_OK
        for name in ("record_000.csv", "record_001.csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out1 = os.path.join(tmp_path, "s1")
        out2 = os.path.join(tmp_path, "s2")
        main(["simulate", "--config", cfg, "--out", out1])
        main(["simulate", "--config", cfg, "--out", out2, "--seed", "78"])
        a = open(os.path.join(out1, "record_000.csv")).read()
        b = open(os.path.join(out2, "record_000.csv")).read()
        assert a != b

    def test_replicas_override(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = os.path.join(tmp_path, "r")
        main(["simulate", "--config", cfg, "--out", out, "--replicas", "3"])
        records = [n for n in os.listdir(out) if n.startswith("record_")]
        assert len(records) == 3

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_CONFIG)
        envdir = os.path.join(tmp_path, "envout")
        monkeypatch.setenv("MATRIXQM_OUT", envdir)
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        assert os.path.exists(os.path.join(envdir, "manifest.json"))

    def test_missing_config_io_exit(self, tmp_path):
        assert main(["simulate", "--config",
                     os.path.join(tmp_path, "nope.json")]) == EXIT_IO

    def test_bad_config_usage_exit(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"N": 1}})
        assert main(["simulate", "--config", cfg]) == EXIT_USAGE

    def test_numeric_blowup_exit(self, tmp_path):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["integrator"] = {"mode": "microcanonical", "dt": 10.0,
                             "steps": 5000}
        doc["ensemble"]["spread"] = 3.0
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "blow")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_NUMERIC

    def test_usage_error_on_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE


# (command, section, key, value): values rejected by the runtime type's own
# check, and the keys that were parsed but never read before they were removed.
BAD_CONFIGS = [
    ("simulate", "model", "pair_sum", "bogus"),
    ("simulate", "integrator", "record_every", 0),
    ("simulate", "integrator", "noise_mode", "x"),
    ("sweep", "sweep", "N_list", [1]),
    ("sweep", "sweep", "replicas", 0),
    ("simulate", "analysis", "grid_lo", -4.0),
    ("simulate", "analysis", "grid_hi", 4.0),
    ("simulate", "analysis", "grid_points", 64),
    ("simulate", "analysis", "fit_window", [0.0, 0.0]),
    ("simulate", "analysis", "method", "msd_slope"),
    ("simulate", "output", "formats", ["csv", "json"]),
    ("oracle", "oracle", "steps", 2000),
    ("oracle", "oracle", "potential", "free"),
]


@pytest.mark.parametrize("command,section,key,value", BAD_CONFIGS)
def test_bad_config_names_field(tmp_path, capsys, command, section, key, value):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, doc)
    out = os.path.join(tmp_path, "out")
    assert main([command, "--config", cfg, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error: {section}.{key}:" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--replicas", "0"], "config error: ensemble.replicas:"),
    (["simulate", "--replicas", "-1"], "config error: ensemble.replicas:"),
    (["simulate", "--seed", "-1"], "config error: ensemble.master_seed:"),
    (["sweep", "--replicas", "3"], "unrecognized arguments: --replicas"),
])
def test_bad_override_usage_exit(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = os.path.join(tmp_path, "out")
    assert main(argv + ["--config", cfg, "--out", out]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


class TestSweep:
    def test_small_sweep(self, tmp_path):
        doc = {
            "model": {"d": 2, "N": 4},
            "sweep": {"t_scaled": 0.1, "N_list": [4], "replicas": 2,
                      "burn_in_steps": 100, "steps": 300, "dt": 0.02,
                      "gamma": 0.5, "record_every": 5, "spread": 0.3},
            "ensemble": {"master_seed": 11},
        }
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "sw")
        assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
        lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
        assert lines[0].startswith("N,T,t_scaled,nu_hat")
        assert len(lines) == 2
        vals = lines[1].split(",")
        assert vals[0] == "4"
        assert np.isfinite(float(vals[3]))
        assert os.path.exists(os.path.join(out, "sweep_manifest.json"))


class TestOracle:
    def test_report_written(self, tmp_path):
        doc = {"oracle": {"grid_points": 256, "extent": 24.0, "dt": 0.002,
                          "walkers": 2000}}
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "orc")
        assert main(["oracle", "--config", cfg, "--out", out]) == EXIT_OK
        report = json.load(open(os.path.join(out, "oracle_report.json")))
        widths = report["free_packet_width"]
        for row in widths:
            assert abs(row["sigma_measured"] - row["sigma_analytic"]) < 1e-4
        assert report["harmonic_stationarity"]["max_density_change"] < 1e-8
        assert "nelson_hbar_over_2m" in report["nelson_convention_ab"]
        assert "direct_hbar_over_m" in report["nelson_convention_ab"]
        assert os.path.exists(os.path.join(out, "oracle_psi.csv"))


class TestCompare:
    def test_report_only_verdict(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = os.path.join(tmp_path, "cmp")
        main(["simulate", "--config", cfg, "--out", out])
        orc_doc = {"oracle": {"grid_points": 128, "extent": 16.0, "dt": 0.002,
                              "walkers": 1000}}
        orc_cfg = write_config(tmp_path, orc_doc, "orc.json")
        main(["oracle", "--config", orc_cfg, "--out", out])
        rc = main(["compare", "--config", cfg, "--out", out,
                   os.path.join(out, "record_000.csv"),
                   os.path.join(out, "oracle_psi.csv")])
        assert rc == EXIT_OK
        verdict = json.load(open(os.path.join(out, "compare_verdict.json")))
        assert np.isfinite(verdict["L1"])
        assert np.isfinite(verdict["KS"])
        assert "report only" in verdict["note"]
        assert verdict["t_scaled"] == pytest.approx(
            4 * 0.3 / (8 * 1 * 1), rel=1e-12)

    def test_missing_trajectory_io_exit(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["compare", "--config", cfg,
                   os.path.join(tmp_path, "absent.csv"),
                   os.path.join(tmp_path, "absent2.csv")])
        assert rc == EXIT_IO


class TestCalibrate:
    def test_synthetic_suite(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = os.path.join(tmp_path, "cal")
        assert main(["calibrate", "--config", cfg, "--out", out]) == EXIT_OK
        rep = json.load(open(os.path.join(out, "calibration_report.json")))
        assert rep["brownian"]["rel_error"] < 0.02
        assert rep["ou_drift"]["rel_error"] < 0.05
        assert rep["ou_diffusion"]["rel_error"] < 0.05
        assert rep["irrotationality"]["gradient_field_residual"] < 5e-2
        assert rep["irrotationality"]["rotation_field_residual"] > 0.5
