"""End-to-end command-line tests: artifacts, exit codes, config errors,
and byte-identical re-execution from manifests."""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from matrixqm.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

BASE_CONFIG = {
    "model": {"d": 2, "N": 4, "mu": 1.0, "omega": 1.0},
    "integrator": {"mode": "langevin", "dt": 0.01, "steps": 200, "gamma": 0.5,
                   "temperature": 0.3, "record_every": 4, "record_frames": True},
    "ensemble": {"replicas": 2, "master_seed": 77, "spread": 0.4},
}
SMALL_ORACLE = {"grid_points": 48, "walkers": 200}
SWEEP_CONFIG = {
    "model": {"d": 2, "N": 4},
    "sweep": {"t_scaled": 0.1, "N_list": [3, 4], "replicas": 2, "burn_in_steps": 20,
              "steps": 50, "dt": 0.02, "gamma": 0.5, "record_every": 5, "spread": 0.3},
    "ensemble": {"master_seed": 12},
}


def fresh_env():
    """Environment for a child interpreter that imports matrixqm from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return env


def read(path, mode="r"):
    """The contents of path, read through a file that is closed again."""
    with open(path, mode) as fh:
        return fh.read()


def load_json(path):
    return json.loads(read(path))


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
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["config"]["ensemble"]["master_seed"] == 77
        assert len(manifest["per_replica_seeds"]) == 2
        assert "conventions" in manifest

    def test_seed_changes_output(self, tmp_path):
        out1 = os.path.join(tmp_path, "s1")
        out2 = os.path.join(tmp_path, "s2")
        cfg1 = write_config(tmp_path, BASE_CONFIG, "s1.json")
        cfg2 = write_config(tmp_path, {**BASE_CONFIG, "ensemble": {
            **BASE_CONFIG["ensemble"], "master_seed": 78}}, "s2.json")
        assert main(["simulate", "--config", cfg1, "--out", out1]) == EXIT_OK
        assert main(["simulate", "--config", cfg2, "--out", out2]) == EXIT_OK
        a = read(os.path.join(out1, "record_000.csv"))
        b = read(os.path.join(out2, "record_000.csv"))
        assert a != b

    def test_replica_records_independent_of_ensemble_size(self, tmp_path):
        outs = {}
        for replicas in (2, 3):
            cfg = write_config(tmp_path, {**BASE_CONFIG, "ensemble": {
                **BASE_CONFIG["ensemble"], "replicas": replicas}}, f"r{replicas}.json")
            outs[replicas] = os.path.join(tmp_path, f"r{replicas}")
            assert main(["simulate", "--config", cfg, "--out", outs[replicas]]) == EXIT_OK
        assert len([n for n in os.listdir(outs[3]) if n.startswith("record_")]) == 3
        for name in ("record_000.csv", "record_001.csv"):
            a = read(os.path.join(outs[2], name), "rb")
            b = read(os.path.join(outs[3], name), "rb")
            assert a == b

    def test_default_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE_CONFIG)
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", cfg]) == EXIT_OK
        assert sorted(os.listdir(os.path.join(tmp_path, "out"))) == [
            "manifest.json", "record_000.csv", "record_001.csv"]

    @pytest.mark.parametrize("key,value", [
        ("gamma", 3.0), ("temperature", 5.0), ("project_trace_noise", True)])
    def test_microcanonical_rejects_thermostat_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {**BASE_CONFIG, "integrator": {
            "mode": "microcanonical", "steps": 10, key: value}})
        out = os.path.join(tmp_path, "out")
        assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_USAGE
        assert f"config error: integrator.{key}: " in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_config_io_exit(self, tmp_path):
        assert main(["simulate", "--config",
                     os.path.join(tmp_path, "nope.json")]) == EXIT_IO

    def test_bad_config_usage_exit(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"N": 1}})
        assert main(["simulate", "--config", cfg]) == EXIT_USAGE

    def test_numeric_blowup_exit(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_CONFIG))
        doc["integrator"] = {"mode": "microcanonical", "dt": 10.0,
                             "steps": 5000}
        doc["ensemble"]["spread"] = 3.0
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "blow")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_NUMERIC
        assert re.search(r"numeric abort: replica \d+, step \d+: ", capsys.readouterr().err)
        assert not os.path.exists(out) or not any(
            n.startswith("record_") for n in os.listdir(out))

    def test_numeric_abort_writes_no_record(self, tmp_path, capsys):
        # At master seed 0 replica 0 survives these 200 steps and replica 1
        # does not: the abort must not leave replica 0's record behind.
        doc = {"model": {"d": 2, "N": 4},
               "integrator": {"mode": "microcanonical", "dt": 0.2, "steps": 200,
                              "record_every": 4},
               "ensemble": {"replicas": 2, "master_seed": 0, "spread": 1.0}}
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "blow")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_NUMERIC
        assert "numeric abort: replica 1, step " in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_usage_error_on_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_USAGE


# (command, section, key, value): values rejected by the runtime type's own
# check, and the keys that were parsed but never read before they were removed.
BAD_CONFIGS = [
    ("simulate", "model", "pair_sum", "bogus"),
    ("simulate", "integrator", "record_every", 0),
    ("sweep", "sweep", "N_list", [1]),
    ("sweep", "sweep", "N_list", [4, 4]),
    ("sweep", "sweep", "replicas", 0),
    ("simulate", "integrator", "noise_mode", "offdiagonal"),
    ("oracle", "oracle", "nu_convention", "nelson"),
    ("oracle", "oracle", "steps", 2000),
    ("oracle", "oracle", "potential", "free"),
    ("oracle", "oracle", "dt", 0.0),
    ("oracle", "oracle", "extent", -24.0),
    ("oracle", "oracle", "hbar", 0.0),
    ("oracle", "oracle", "mass", -1.0),
    ("oracle", "oracle", "sigma0", 0.0),
    ("oracle", "oracle", "omega0", 0.0),
    ("oracle", "oracle", "grid_points", 1),
    ("oracle", "oracle", "walkers", 0),
    ("simulate", "integrator", "steps", -1),
    ("simulate", "integrator", "temperature", -1.0),
    ("simulate", "integrator", "dt", True),
    ("simulate", "ensemble", "replicas", 0),
    ("simulate", "ensemble", "master_seed", -1),
    ("simulate", "ensemble", "spread", -1.0),
    ("sweep", "sweep", "t_scaled", -1.0),
    ("sweep", "sweep", "burn_in_steps", -1),
    ("sweep", "sweep", "record_every", 0),
    ("sweep", "sweep", "steps", 5),
    ("sweep", "sweep", "dt", 0.0),
    ("sweep", "sweep", "gamma", 0.0),
    ("sweep", "sweep", "spread", -1.0),
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


# (command, section, key, value): keys of the analysis and output sections,
# which are gone with their sections.
REMOVED_SECTIONS = [
    ("simulate", "analysis", "grid_lo", -4.0),
    ("simulate", "analysis", "grid_hi", 4.0),
    ("simulate", "analysis", "grid_points", 64),
    ("simulate", "analysis", "fit_window", [0.0, 0.0]),
    ("simulate", "analysis", "method", "msd_slope"),
    ("simulate", "analysis", "bandwidth", 0.0),
    ("simulate", "output", "formats", ["csv", "json"]),
    ("simulate", "output", "directory", "out"),
]


@pytest.mark.parametrize("command,section,key,value", REMOVED_SECTIONS)
def test_removed_section_rejected(tmp_path, capsys, command, section, key, value):
    cfg = write_config(tmp_path, {**BASE_CONFIG, section: {key: value}})
    out = os.path.join(tmp_path, "out")
    assert main([command, "--config", cfg, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error: {section}: unknown section" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("text,where", [("[]", "top level"), ('{"model": []}', "model")])
def test_non_object_rejected(tmp_path, capsys, text, where):
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w") as fh:
        fh.write(text)
    out = os.path.join(tmp_path, "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_USAGE
    assert capsys.readouterr().err == f"config error: {where}: expected an object\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("text,field", [
    ('{"integrator": {"dt": NaN}}', "integrator.dt"),
    ('{"model": {"kappa": Infinity}}', "model.kappa"),
    ('{"oracle": {"p0": -Infinity}}', "oracle.p0"),
    ('{"ensemble": {"spread": 1e999}}', "ensemble.spread"),
])
def test_non_finite_number_rejected(tmp_path, capsys, text, field):
    cfg = os.path.join(tmp_path, "cfg.json")
    with open(cfg, "w") as fh:
        fh.write(text)
    out = os.path.join(tmp_path, "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error: {field}: must be finite" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--replicas", "0"], "unrecognized arguments: --replicas"),
    (["simulate", "--replicas", "-1"], "unrecognized arguments: --replicas"),
    (["simulate", "--seed", "-1"], "unrecognized arguments: --seed"),
    (["sweep", "--replicas", "3"], "unrecognized arguments: --replicas"),
])
def test_bad_override_usage_exit(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = os.path.join(tmp_path, "out")
    assert main(argv + ["--config", cfg, "--out", out]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


class TestSweep:
    def test_d1_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"model": {"d": 1, "N": 3}})
        out = os.path.join(tmp_path, "sw")
        assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_USAGE
        assert "config error: sweep: scaling formulas require model.d >= 2" in (
            capsys.readouterr().err)
        assert not os.path.exists(out)

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
        lines = read(os.path.join(out, "sweep.csv")).splitlines()
        assert lines[0].startswith("N,T,t_scaled,nu_hat")
        assert len(lines) == 2
        vals = lines[1].split(",")
        assert vals[0] == "4"
        assert np.isfinite(float(vals[3]))
        assert os.path.exists(os.path.join(out, "sweep_manifest.json"))

    def test_manifests_state_jacobi_stopping_rule(self, tmp_path):
        doc = {"model": {"d": 2, "N": 4},
               "sweep": {"t_scaled": 0.1, "N_list": [3, 4], "replicas": 1,
                         "burn_in_steps": 10, "steps": 50, "dt": 0.02,
                         "gamma": 0.5, "record_every": 5, "spread": 0.3}}
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "sw")
        assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
        # One replica: a finite nu_hat, and no replica spread to give a stderr.
        rows = [ln.split(",") for ln in read(os.path.join(out, "sweep.csv")).splitlines()]
        assert rows[0][3:5] == ["nu_hat", "nu_stderr"]
        for row in rows[1:]:
            assert np.isfinite(float(row[3])) and np.isnan(float(row[4]))
        rule = load_json(os.path.join(out, "sweep_manifest.json"))["jacobi_stopping"]
        # T = 8 t / N at d = 2; dt_rec = 0.1.
        assert rule["angle_tol"] == 1e-8 and rule["frame_displacement_fraction"] == 1e-3
        assert rule["residual_drop"] == 1e-6
        assert rule["position_tol"] == pytest.approx(
            {str(N): 1e-3 * np.sqrt(0.8 / N * 0.1 / 0.5) for N in (3, 4)}, rel=1e-12)
        cfg = write_config(tmp_path, BASE_CONFIG)
        assert main(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
        rule = load_json(os.path.join(out, "manifest.json"))["jacobi_stopping"]
        assert rule["position_tol"] == pytest.approx(1e-3 * np.sqrt(0.3 * 0.04 / 0.5), rel=1e-12)

    def test_manifest_lists_seeds_of_every_point(self, tmp_path):
        assert main(["sweep", "--config", write_config(tmp_path, SWEEP_CONFIG),
                     "--out", str(tmp_path)]) == EXIT_OK
        seeds = load_json(os.path.join(tmp_path, "sweep_manifest.json"))["per_replica_seeds"]
        assert [(s["N"], s["replica"]) for s in seeds] == [(3, 0), (3, 1), (4, 0), (4, 1)]
        assert all(set(s) == {"N", "replica", "init", "burn", "run"} for s in seeds)
        assert len({s[k] for s in seeds for k in ("init", "burn", "run")}) == 12

    def test_point_independent_of_rest_of_n_list(self, tmp_path):
        # Each sweep point seeds its runs from (master_seed, N, replica) alone.
        outputs = {}
        for n_list in ([4], [3, 4]):
            doc = {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], "N_list": n_list}}
            cfg = write_config(tmp_path, doc, f"cfg{len(n_list)}.json")
            out = os.path.join(tmp_path, f"sw{len(n_list)}")
            assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
            manifest = load_json(os.path.join(out, "sweep_manifest.json"))
            outputs[len(n_list)] = (
                read(os.path.join(out, "sweep.csv"), "rb").splitlines()[-1],
                [s for s in manifest["per_replica_seeds"] if s["N"] == 4],
                manifest["jacobi_stopping"]["position_tol"]["4"])
        assert outputs[1][0].startswith(b"4,")
        assert outputs[1] == outputs[2]

    def test_numeric_abort_writes_nothing(self, tmp_path, capsys):
        # A sweep aborts at step 4 of its burn-in; like simulate, it must
        # leave no output directory behind.
        doc = {"model": {"d": 2, "N": 3},
               "sweep": {"N_list": [3], "replicas": 1, "burn_in_steps": 200, "steps": 50,
                         "record_every": 5, "dt": 5.0, "spread": 3.0}}
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "sw")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_NUMERIC
        assert "numeric abort: " in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("burn_in, where", [
        (200, "burn-in run: replica 0, step 4"),
        (2, "measurement run: replica 0, step 2"),
    ])
    def test_numeric_abort_names_sweep_point(self, tmp_path, burn_in, where):
        # A fresh interpreter shows every numpy warning on stderr: the abort
        # line, naming N and the run, must be all there is.
        doc = {"model": {"d": 2, "N": 3},
               "sweep": {"N_list": [3], "replicas": 1, "burn_in_steps": burn_in,
                         "steps": 50, "record_every": 5, "dt": 5.0, "spread": 3.0}}
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "sw")
        proc = subprocess.run(
            [sys.executable, "-m", "matrixqm.cli", "sweep", "--config", cfg, "--out", out],
            env=fresh_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_NUMERIC
        assert proc.stderr == (f"numeric abort: sweep N=3, {where}: "
                               "non-finite matrix entry (K~inf); reduce dt\n")
        assert not os.path.exists(out)


class TestOracle:
    def test_report_written(self, tmp_path):
        doc = {"oracle": {"grid_points": 256, "extent": 24.0, "dt": 0.002,
                          "walkers": 2000}}
        cfg = write_config(tmp_path, doc)
        out = os.path.join(tmp_path, "orc")
        # At dt = 0.002 the harmonic check's potential phase, 0.002 * 72, is
        # over the solver's 0.1, and the command passes its warning on.
        with pytest.warns(RuntimeWarning, match=r"dt\*max\|V\|/hbar = 0\.144 > 0\.1"):
            assert main(["oracle", "--config", cfg, "--out", out]) == EXIT_OK
        report = load_json(os.path.join(out, "oracle_report.json"))
        widths = report["free_packet_width"]
        for row in widths:
            assert abs(row["sigma_measured"] - row["sigma_analytic"]) < 1e-4
        assert report["harmonic_stationarity"]["max_density_change"] < 1e-8
        assert "nelson_hbar_over_2m" in report["nelson_convention_ab"]
        assert "direct_hbar_over_m" in report["nelson_convention_ab"]
        assert os.path.exists(os.path.join(out, "oracle_psi.csv"))

    def test_grid_too_coarse_for_walker_density_config_exit(self, tmp_path, capsys):
        # Two grid points 12 apart would need a 228-fold refinement for the
        # walkers' bandwidth of 0.26.
        cfg = write_config(tmp_path, {"oracle": {"grid_points": 2, "walkers": 200}})
        out = os.path.join(tmp_path, "orc")
        assert main(["oracle", "--config", cfg, "--out", out]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: oracle: walker density: KDE bandwidth ")
        assert err.count("\n") == 1 and "more than 128-fold" in err
        assert not os.path.exists(out)


def test_reports_state_kde_bandwidth_and_cell(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    orc_cfg = write_config(tmp_path, {"oracle": SMALL_ORACLE},
                           "orc.json")
    out = os.path.join(tmp_path, "out")
    main(["simulate", "--config", cfg, "--out", out])
    main(["oracle", "--config", orc_cfg, "--out", out])
    assert main(["compare", "--config", cfg, "--out", out,
                 os.path.join(out, "record_000.csv"),
                 os.path.join(out, "oracle_psi.csv")]) == EXIT_OK
    report = load_json(os.path.join(out, "oracle_report.json"))
    verdict = load_json(os.path.join(out, "compare_verdict.json"))
    # 48 points over the default extent 24: the cell is 0.5 / ceil(2.5 / bandwidth).
    for doc in [*report["nelson_convention_ab"].values(), verdict]:
        bw = doc["bandwidth"]
        assert doc["kde_cell_bw"] == pytest.approx(0.5 / np.ceil(2.5 / bw) / bw, rel=1e-9)
        assert 0.1 < doc["kde_cell_bw"] <= 0.2


class TestCompare:
    @pytest.mark.parametrize("mode", ["langevin", "microcanonical"])
    def test_report_only_verdict(self, tmp_path, mode):
        integ = {**BASE_CONFIG["integrator"], "mode": mode}
        if mode == "microcanonical":  # gamma = T = 0, the values that run always had
            del integ["gamma"], integ["temperature"]
        cfg = write_config(tmp_path, {**BASE_CONFIG, "integrator": integ})
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
        verdict = load_json(os.path.join(out, "compare_verdict.json"))
        assert np.isfinite(verdict["L1"])
        assert np.isfinite(verdict["KS"])
        assert "report only" in verdict["note"]
        if mode == "langevin":
            assert verdict["t_scaled"] == pytest.approx(4 * 0.3 / (8 * 1 * 1), rel=1e-12)
            assert verdict["nu_pred"] > 0
        else:  # a microcanonical run has no temperature, so the verdict states none
            assert "t_scaled" not in verdict and "nu_pred" not in verdict

    def test_missing_trajectory_io_exit(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        rc = main(["compare", "--config", cfg,
                   os.path.join(tmp_path, "absent.csv"),
                   os.path.join(tmp_path, "absent2.csv")])
        assert rc == EXIT_IO

    @pytest.mark.parametrize("target,text,reason", [
        ("trajectory", "", "no data rows"),
        ("oracle_file", "x,re_psi,im_psi\n0,1,0\n0.1,oops,0\n",
         "data row 2: could not convert string to float: 'oops'"),
        # The trajectory slot takes a record CSV only; an oracle-format file
        # there is refused rather than compared as a second density.
        ("trajectory", "x,re_psi,im_psi\n0,1,0\n0.1,1,0\n",
         "no eigenvalue or position columns in trajectory file"),
        # |psi|^2 of these cannot be normalized into a density.
        ("oracle_file", "x,re_psi,im_psi\n0,0,0\n0.1,0,0\n0.2,0,0\n",
         "psi is zero at every grid point"),
        ("oracle_file", "x,re_psi,im_psi\n0,1,0\n0.1,nan,0\n0.2,1,0\n",
         "a value is not finite"),
        ("oracle_file", "x,psi\n0,1\n0.1,1\n", "header is not x,re_psi,im_psi"),
        ("oracle_file", "x,re_psi,im_psi\n0,1,0\n", "fewer than two grid points"),
        ("oracle_file", "x,re_psi,im_psi\n0,1,0\n0.1,1\n",
         "data row 2: 2 fields, the header has 3"),
    ])
    def test_bad_input_file_usage_exit(self, tmp_path, capsys, target, text, reason):
        cfg = write_config(tmp_path, BASE_CONFIG)
        paths = {"trajectory": os.path.join(tmp_path, "record.csv"),
                 "oracle_file": os.path.join(tmp_path, "psi.csv")}
        good = {"trajectory": "time,lam_0_0\n0,0.5\n",
                "oracle_file": "x,re_psi,im_psi\n0,1,0\n0.1,1,0\n"}
        for name, path in paths.items():
            with open(path, "w") as fh:
                fh.write(text if name == target else good[name])
        out = os.path.join(tmp_path, "cmp")
        rc = main(["compare", "--config", cfg, "--out", out,
                   paths["trajectory"], paths["oracle_file"]])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"input error: {paths[target]}: {reason}" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("target,text,reason", [
        # Coinciding samples get Silverman's floor bandwidth, about 1e-12.
        ("trajectory", "time," + ",".join(f"lam_0_{k}" for k in range(16)) + "\n"
         + "0," + ",".join(["0.5"] * 16) + "\n",
         "KDE bandwidth 5.17e-13 needs the grid spacing 0.1 refined"),
        ("trajectory", "time,lam_0_0,lam_0_1\n0,0.5,nan\n",
         "walker positions are missing or not all finite"),
        ("oracle_file", "x,re_psi,im_psi\n0,1,0\n0.1,1,0\n0.3,1,0\n",
         "the grid is not uniform and increasing"),
    ])
    def test_unusable_samples_or_grid_usage_exit(self, tmp_path, capsys, target, text,
                                                 reason):
        cfg = write_config(tmp_path, BASE_CONFIG)
        paths = {"trajectory": os.path.join(tmp_path, "record.csv"),
                 "oracle_file": os.path.join(tmp_path, "psi.csv")}
        good = {"trajectory": "time,lam_0_0,lam_0_1\n0,0.5,0.7\n",
                "oracle_file": "x,re_psi,im_psi\n0,1,0\n0.1,1,0\n0.2,1,0\n"}
        for name, path in paths.items():
            with open(path, "w") as fh:
                fh.write(text if name == target else good[name])
        out = os.path.join(tmp_path, "cmp")
        rc = main(["compare", "--config", cfg, "--out", out,
                   paths["trajectory"], paths["oracle_file"]])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {paths[target]}: {reason}")
        assert err.count("\n") == 1
        assert not os.path.exists(out)

    def test_reads_records_without_convergence_column(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = os.path.join(tmp_path, "cmp")
        main(["simulate", "--config", cfg, "--out", out])
        orc_cfg = write_config(tmp_path, {"oracle": SMALL_ORACLE},
                               "orc.json")
        main(["oracle", "--config", orc_cfg, "--out", out])
        record = os.path.join(out, "record_000.csv")
        rows = [ln.split(",") for ln in read(record).splitlines()]
        assert rows[0][-4:] == ["jd_residual", "jd_converged", "jd_sweeps", "jd_overlap"]
        # Older records end before jd_overlap, jd_sweeps or jd_converged.
        trajs = [record]
        for drop in (1, 2, 3):  # beside the run's manifest, which compare checks
            old = os.path.join(out, f"old_record_{drop}.csv")
            with open(old, "w") as fh:
                fh.write("".join(",".join(r[:-drop]) + "\n" for r in rows))
            trajs.append(old)
        verdicts = []
        for k, traj in enumerate(trajs):
            sub = os.path.join(tmp_path, f"cmp_{k}")
            assert main(["compare", "--config", cfg, "--out", sub,
                         traj, os.path.join(out, "oracle_psi.csv")]) == EXIT_OK
            verdicts.append(read(os.path.join(sub, "compare_verdict.json")))
        assert all(v == verdicts[0] for v in verdicts)


@pytest.fixture(scope="module")
def compared_run(tmp_path_factory):
    """A directory holding a run of BASE_CONFIG (its config cfg.json, records
    and manifest) and an oracle_psi.csv."""
    run_dir = str(tmp_path_factory.mktemp("run"))
    cfg = write_config(run_dir, BASE_CONFIG)
    orc_cfg = write_config(run_dir, {"oracle": SMALL_ORACLE},
                           "orc.json")
    assert main(["simulate", "--config", cfg, "--out", run_dir]) == EXIT_OK
    assert main(["oracle", "--config", orc_cfg, "--out", run_dir]) == EXIT_OK
    return run_dir


class TestCompareProvenance:
    @pytest.mark.parametrize("model,integrator,differ", [
        ({"N": 6}, {"temperature": 0.9}, "model and integrator"),
        ({}, {"temperature": 0.9}, "integrator"),
        ({"mu": 2.0}, {}, "model"),
    ])
    def test_config_of_another_run_usage_exit(self, compared_run, tmp_path, capsys,
                                               model, integrator, differ):
        # t_scaled and nu_pred must be those of the run, not of any config given.
        other = write_config(tmp_path, {
            **BASE_CONFIG, "model": {**BASE_CONFIG["model"], **model},
            "integrator": {**BASE_CONFIG["integrator"], **integrator}})
        out = os.path.join(tmp_path, "cmp")
        rc = main(["compare", "--config", other, "--out", out,
                   os.path.join(compared_run, "record_000.csv"),
                   os.path.join(compared_run, "oracle_psi.csv")])
        assert rc == EXIT_USAGE
        manifest = os.path.join(compared_run, "manifest.json")
        assert capsys.readouterr().err == (
            f"config error: compare: {other} and the run's {manifest} differ in {differ}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("manifest,reason", [
        (None, "No such file or directory"),
        ('{"config": {"integrator": {"noise_mode": "stacked"}}}',
         "integrator.noise_mode: unknown key"),
    ])
    def test_record_without_run_manifest_usage_exit(self, compared_run, tmp_path, capsys,
                                                    manifest, reason):
        lone = os.path.join(tmp_path, "lone")
        os.makedirs(lone)
        record = os.path.join(lone, "record_000.csv")
        with open(record, "w") as fh:
            fh.write(read(os.path.join(compared_run, "record_000.csv")))
        path = os.path.join(lone, "manifest.json")
        if manifest is not None:
            with open(path, "w") as fh:
                fh.write(manifest)
        out = os.path.join(tmp_path, "cmp")
        rc = main(["compare", "--config", os.path.join(compared_run, "cfg.json"), "--out", out,
                   record, os.path.join(compared_run, "oracle_psi.csv")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: {reason}")
        assert err.count("\n") == 1
        assert not os.path.exists(out)

    @pytest.mark.parametrize("record,reason", [
        ("three_columns", "its lam_ columns are not those of its run "
                          "(d = 2, N = 4, record_frames = true)"),
        ("n6_run", "its lam_ columns are not those of its run "
                   "(d = 2, N = 4, record_frames = true)"),
        ("ten_rows", "10 data rows, its run recorded 51"),
    ], ids=["three_columns", "n6_run", "ten_rows"])
    def test_record_of_another_shape_usage_exit(self, compared_run, tmp_path, capsys,
                                                record, reason):
        # Only a record of the shape its run writes is attributed to that run.
        if record == "three_columns":
            text = "time,lam_0_0,lam_0_1,lam_0_2\n0,0.5,-0.2,0.1\n"
        elif record == "n6_run":
            cfg6 = write_config(tmp_path, {**BASE_CONFIG, "model": {**BASE_CONFIG["model"],
                                                                    "N": 6}})
            assert main(["simulate", "--config", cfg6, "--out", str(tmp_path / "n6")]) == EXIT_OK
            text = read(os.path.join(tmp_path, "n6", "record_000.csv"))
        else:
            text = "".join(read(os.path.join(compared_run, "record_000.csv"))
                           .splitlines(keepends=True)[:11])
        lone = os.path.join(tmp_path, "lone")
        os.makedirs(lone)
        with open(os.path.join(lone, "manifest.json"), "w") as fh:
            fh.write(read(os.path.join(compared_run, "manifest.json")))
        path = os.path.join(lone, "record.csv")
        with open(path, "w") as fh:
            fh.write(text)
        out = os.path.join(tmp_path, "cmp")
        rc = main(["compare", "--config", os.path.join(compared_run, "cfg.json"), "--out", out,
                   path, os.path.join(compared_run, "oracle_psi.csv")])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"input error: {path}: {reason}\n"
        assert not os.path.exists(out)


# id: (command, config).  Each command runs twice; simulate and sweep re-run
# from the first run's manifest, the others from the same config.  N = 20 is
# one of the sizes (N = 1-4 mod 8, N >= 17) where the force's bits depend on
# the BLAS; a re-run on the same host must still reproduce them.
RERUNS = {
    "simulate-base": ("simulate", BASE_CONFIG),
    "simulate-d1": ("simulate", {"model": {"d": 1, "N": 3}}),
    "simulate-n20": ("simulate", {**BASE_CONFIG, "model": {**BASE_CONFIG["model"], "N": 20},
                                  "integrator": {**BASE_CONFIG["integrator"], "steps": 20}}),
    "sweep": ("sweep", SWEEP_CONFIG),
    "oracle": ("oracle", {"oracle": SMALL_ORACLE}),
    "compare": ("compare", {**BASE_CONFIG, "oracle": SMALL_ORACLE}),
    "calibrate": ("calibrate", BASE_CONFIG),
}


@pytest.mark.parametrize("command,doc", RERUNS.values(), ids=RERUNS.keys())
def test_rerun_reproduces_every_file(tmp_path, command, doc):
    cfg = write_config(tmp_path, doc)
    inputs = []
    if command == "compare":
        for step in ("simulate", "oracle"):
            assert main([step, "--config", cfg, "--out", str(tmp_path / "run")]) == EXIT_OK
        inputs = [str(tmp_path / "run" / name) for name in ("record_000.csv", "oracle_psi.csv")]
    outs = [str(tmp_path / "o1"), str(tmp_path / "o2")]
    assert main([command, "--config", cfg, "--out", outs[0], *inputs]) == EXIT_OK
    manifest = {"simulate": "manifest.json", "sweep": "sweep_manifest.json"}.get(command)
    again = os.path.join(outs[0], manifest) if manifest else cfg
    assert main([command, "--config", again, "--out", outs[1], *inputs]) == EXIT_OK
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert read(os.path.join(outs[0], name), "rb") == read(
            os.path.join(outs[1], name), "rb"), name


class TestCalibrate:
    def test_synthetic_suite(self, tmp_path):
        cfg = write_config(tmp_path, BASE_CONFIG)
        out = os.path.join(tmp_path, "cal")
        assert main(["calibrate", "--config", cfg, "--out", out]) == EXIT_OK
        rep = load_json(os.path.join(out, "calibration_report.json"))
        assert rep["brownian"]["rel_error"] < 0.02
        assert rep["ou_drift"]["rel_error"] < 0.05
        assert rep["ou_diffusion"]["rel_error"] < 0.05
        assert rep["irrotationality"]["gradient_field_residual"] < 5e-2
        assert rep["irrotationality"]["rotation_field_residual"] > 0.5


@pytest.mark.parametrize("command", ["simulate", "sweep", "oracle", "compare", "calibrate"])
def test_unwritable_out_io_exit(tmp_path, capsys, command):
    # Every command's artifacts go through the one write path in main: an
    # output directory under a regular file is an I/O error for each of them.
    cfg = write_config(tmp_path, {
        **BASE_CONFIG,
        "integrator": {**BASE_CONFIG["integrator"], "steps": 20},
        "oracle": SMALL_ORACLE,
        "sweep": {"N_list": [3], "replicas": 1, "burn_in_steps": 10, "steps": 50,
                  "record_every": 5}})
    blocker = os.path.join(tmp_path, "blocker")
    open(blocker, "w").close()
    argv = [command, "--config", cfg, "--out", os.path.join(blocker, "out")]
    if command == "compare":
        # A copy of a record of cfg's run, beside its manifest, which compare checks.
        run_dir = os.path.join(tmp_path, "run")
        assert main(["simulate", "--config", cfg, "--out", run_dir]) == EXIT_OK
        inputs = {
            os.path.join(run_dir, "record.csv"): read(os.path.join(run_dir, "record_000.csv")),
            os.path.join(tmp_path, "psi.csv"): "x,re_psi,im_psi\n0,1,0\n0.1,1,0\n",
        }
        for path, text in inputs.items():
            with open(path, "w") as fh:
                fh.write(text)
        argv += list(inputs)
    assert main(argv) == EXIT_IO
    err = capsys.readouterr().err
    assert "i/o error: " in err
    assert "Traceback" not in err


# No command may load scipy or numpy.ma: the runtime needs only numpy's core,
# and importing either costs more memory and start-up time than most
# commands' own work (np.percentile, for one, loads numpy.ma through
# np.unique).  Runs in a fresh interpreter, where nothing else has imported
# matrixqm, scipy or numpy.ma.  After the commands it imports numpy.ma, then
# scipy.stats when scipy is installed, which shows that the check sees each
# package when it is loaded.
GUARDED = ("scipy", "numpy.ma")
GUARD = """
import importlib, json, sys
from matrixqm.cli import main

def guarded_modules():
    return {p: sorted(k for k in sys.modules if k == p or k.startswith(p + "."))
            for p in %r}

loaded = {"import": guarded_modules()}
argvs, controls = json.loads(sys.argv[1]), json.loads(sys.argv[2])
for argv in argvs:
    assert main(argv) == 0, argv
    loaded[argv[0]] = guarded_modules()
for name in controls:
    importlib.import_module(name)
    loaded[name] = guarded_modules()
print(json.dumps(loaded))
""" % (GUARDED,)
COMMANDS = ("simulate", "oracle", "compare", "calibrate", "sweep")


@pytest.fixture(scope="module")
def guarded_loads(tmp_path_factory):
    """{step: {package: its loaded modules}} after import, each command and
    each control import, all in one fresh interpreter."""
    tmp_path = tmp_path_factory.mktemp("guard")
    out = str(tmp_path / "out")
    sim = write_config(tmp_path, {**BASE_CONFIG, "integrator": {
        **BASE_CONFIG["integrator"], "steps": 20}}, "sim.json")
    orc = write_config(tmp_path, {"oracle": SMALL_ORACLE}, "orc.json")
    swp = write_config(tmp_path, {"sweep": {
        "N_list": [3], "replicas": 1, "burn_in_steps": 10, "steps": 50, "record_every": 5}},
        "swp.json")
    argvs = [
        ["simulate", "--config", sim, "--out", out],
        ["oracle", "--config", orc, "--out", out],
        ["compare", "--config", sim, "--out", out,
         os.path.join(out, "record_000.csv"), os.path.join(out, "oracle_psi.csv")],
        ["calibrate", "--config", sim, "--out", out],
        ["sweep", "--config", swp, "--out", out],
    ]
    controls = ["numpy.ma"]
    if importlib.util.find_spec("scipy") is not None:
        controls.append("scipy.stats")
    proc = subprocess.run([sys.executable, "-c", GUARD, json.dumps(argvs), json.dumps(controls)],
                          env=fresh_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_command_loads_scipy(guarded_loads):
    if "scipy.stats" not in guarded_loads:
        pytest.skip("scipy is not installed, so no command could load it")
    for step in ("import", *COMMANDS, "numpy.ma"):
        assert guarded_loads[step]["scipy"] == [], step
    assert "scipy.stats" in guarded_loads["scipy.stats"]["scipy"]


def test_no_command_loads_numpy_ma(guarded_loads):
    for step in ("import", *COMMANDS):
        assert guarded_loads[step]["numpy.ma"] == [], step
    assert "numpy.ma" in guarded_loads["numpy.ma"]["numpy.ma"]


# The benchmark's tracer rebinds named functions of every matrixqm module and
# reads some of their parameters by position and name.  Tier-1 runs only
# tests/, so these tests run the unmodified tracer: renaming a traced function
# or a hooked parameter fails here, not only in a traced benchmark run.
TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("matrixqm_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_and_hooked_parameters_resolve():
    tracer = load_tracer()
    hooked = 0
    for mod_name, funcs in tracer.TRACED.items():
        mod = importlib.import_module(f"matrixqm.{mod_name}")
        for fn_name, hook in funcs.items():
            fn = getattr(mod, fn_name)  # AttributeError names a removed function
            if hook is None:
                continue
            params = list(inspect.signature(fn).parameters)
            for pos, name in re.findall(r'_arg\(args, kwargs, (\d+), "(\w+)"\)',
                                        inspect.getsource(hook)):
                assert params[int(pos)] == name, (f"{mod_name}.{fn_name}", pos, name)
                hooked += 1
    assert hooked >= 8


def test_tracer_runs_every_command(tmp_path):
    out = str(tmp_path / "out")
    sim = write_config(tmp_path, {**BASE_CONFIG, "integrator": {
        **BASE_CONFIG["integrator"], "steps": 20}}, "sim.json")
    orc = write_config(tmp_path, {"oracle": SMALL_ORACLE}, "orc.json")
    swp = write_config(tmp_path, {"sweep": {
        "N_list": [3], "replicas": 2, "burn_in_steps": 10, "steps": 50, "record_every": 5}},
        "swp.json")
    argvs = [
        ["simulate", "--config", sim, "--out", out],
        ["sweep", "--config", swp, "--out", out],
        ["oracle", "--config", orc, "--out", out],
        ["compare", "--config", sim, "--out", out,
         os.path.join(out, "record_000.csv"), os.path.join(out, "oracle_psi.csv")],
        ["calibrate", "--config", sim, "--out", out],
    ]
    seen = set()
    for argv in argvs:
        spans = str(tmp_path / f"spans_{argv[0]}.json")
        proc = subprocess.run([sys.executable, TRACER, spans, *argv], env=fresh_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, (argv[0], proc.stderr)
        seen |= {span[0] for span in load_json(spans)["spans"]}
    for name in ("dynamics.run", "core.joint_diagonalize", "estimators.scaling_sweep",
                 "estimators.track_particles", "estimators.estimate_diffusion",
                 "estimators.estimate_current_velocity", "oracle.nelson_evolve",
                 "oracle.walker_density", "runio.record_to_csv", "runio.load_record_csv"):
        assert name in seen, name
