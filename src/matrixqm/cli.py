"""Command-line front-end: simulate / sweep / oracle / compare / calibrate.

Exit codes: 0 success, 1 usage or config error, 2 numeric abort (NaN/Inf),
3 I/O failure.  The output directory can be overridden with the
MATRIXQM_OUT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .core import random_config
from .dynamics import NumericsError, run
from .estimators import (
    EigenTrajectory,
    Grid,
    estimate_current_velocity,
    estimate_diffusion,
    irrotationality_residual,
    predicted_diffusion,
    scaled_temperature,
    scaling_sweep,
    silverman_bandwidth,
)
from .oracle import (
    NelsonEnsemble,
    compare_densities,
    evolve_schrodinger,
    free_packet_width,
    gaussian_packet,
    harmonic_eigenstate,
    nelson_evolve,
    walker_density,
)
from .runio import (
    ConfigError,
    atomic_write_text,
    build_manifest,
    conventions,
    fill_section,
    load_record_csv,
    load_wavefunction_csv,
    parse_config,
    record_to_csv,
    replica_seed,
    sweep_to_csv,
    wavefunction_to_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _out_dir(cfg, args) -> str:
    if os.environ.get("MATRIXQM_OUT"):
        return os.environ["MATRIXQM_OUT"]
    if args.out:
        return args.out
    return cfg.output.directory


def _load_config(args):
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    overrides = {"master_seed": args.seed, "replicas": getattr(args, "replicas", None)}
    try:
        cfg = parse_config(text)
        cfg.ensemble = fill_section(
            cfg.ensemble, {k: v for k, v in overrides.items() if v is not None}, "ensemble"
        )
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    t0 = time.monotonic()
    seeds = []
    try:
        for r in range(cfg.ensemble.replicas):
            s_init = replica_seed(cfg.ensemble.master_seed, r, "init")
            s_dyn = replica_seed(cfg.ensemble.master_seed, r, "dynamics")
            seeds.append({"replica": r, "init": s_init, "dynamics": s_dyn})
            config = random_config(cfg.model, cfg.ensemble.spread, s_init)
            record = run(config, cfg.model, cfg.integrator, s_dyn)
            atomic_write_text(os.path.join(out, f"record_{r:03d}.csv"), record_to_csv(record))
    except NumericsError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    manifest = build_manifest(cfg, seeds, time.monotonic() - t0)
    try:
        atomic_write_text(os.path.join(out, "manifest.json"),
                          json.dumps(manifest, indent=2, sort_keys=True))
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    t0 = time.monotonic()
    try:
        points = scaling_sweep(cfg.model, cfg.sweep, cfg.ensemble.master_seed)
    except NumericsError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    try:
        atomic_write_text(
            os.path.join(out, "sweep.csv"),
            sweep_to_csv(points, cfg.model.pair_sum, cfg.oracle.nu_convention),
        )
        manifest = build_manifest(cfg, [{"master_seed": cfg.ensemble.master_seed}],
                                  time.monotonic() - t0)
        atomic_write_text(os.path.join(out, "sweep_manifest.json"),
                          json.dumps(manifest, indent=2, sort_keys=True))
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _oracle_report(cfg) -> tuple[dict, object]:
    o = cfg.oracle
    n = o.grid_points
    x = np.linspace(-o.extent / 2, o.extent / 2, n, endpoint=False)

    # Harmonic ground-state stationarity over one period.
    wf0 = harmonic_eigenstate(x, 0, o.omega0, o.hbar, o.mass)
    V = 0.5 * o.mass * o.omega0**2 * x**2
    period = 2.0 * np.pi / o.omega0
    n_steps = int(np.ceil(period / o.dt))
    wf1 = evolve_schrodinger(wf0, V, o.dt, n_steps)
    harmonic = {
        "max_density_change": float(np.max(np.abs(wf1.density() - wf0.density()))),
        "norm_drift": abs(wf1.norm - 1.0),
        "steps": n_steps,
    }

    # Free-packet spreading vs the analytic width law.
    wf = gaussian_packet(x, 0.0, o.sigma0, o.p0, o.hbar, o.mass)
    width_rows = []
    t_spread = 2.0 * o.mass * o.sigma0**2 / o.hbar
    n_chunk = max(1, int(round(t_spread / 4 / o.dt)))
    wfc = wf
    for _ in range(4):
        wfc = evolve_schrodinger(wfc, np.zeros_like(x), o.dt, n_chunk)
        mean = np.sum(wfc.x * wfc.density()) * wfc.h
        var = np.sum((wfc.x - mean) ** 2 * wfc.density()) * wfc.h
        width_rows.append({
            "t": wfc.time,
            "sigma_measured": float(np.sqrt(var)),
            "sigma_analytic": float(free_packet_width(o.sigma0, wfc.time, o.hbar, o.mass)),
        })

    # Nelson walkers under both diffusion conventions.
    rng = np.random.default_rng(replica_seed(cfg.ensemble.master_seed, 0, "nelson"))
    walkers0 = rng.normal(0.0, o.sigma0, size=o.walkers)
    n_snap = 16
    snaps = [wf]
    per = max(1, int(round(t_spread / n_snap / o.dt)))
    for _ in range(n_snap):
        snaps.append(evolve_schrodinger(snaps[-1], np.zeros_like(x), o.dt, per))
    t_end = snaps[-1].time
    ab = {}
    for name, nu in (("nelson_hbar_over_2m", o.hbar / (2 * o.mass)),
                     ("direct_hbar_over_m", o.hbar / o.mass)):
        if o.nu_convention == "nelson" and name.startswith("direct"):
            continue
        if o.nu_convention == "direct" and name.startswith("nelson"):
            continue
        ens = NelsonEnsemble(walkers=walkers0.copy(), nu=nu)
        ens = nelson_evolve(ens, snaps, nu, o.dt * per / 4, 4 * n_snap,
                            seed=replica_seed(cfg.ensemble.master_seed, 1, "nelson"))
        bw = silverman_bandwidth(ens.walkers)
        rho_w = walker_density(ens.walkers, x, bw)
        ab[name] = {
            "nu": nu,
            "L1_to_psi2": compare_densities(rho_w, snaps[-1].density(), "L1", wf.h),
            "reflections": ens.reflections,
        }

    report = {
        "harmonic_stationarity": harmonic,
        "free_packet_width": width_rows,
        "nelson_convention_ab": ab,
        "t_end": t_end,
        "conventions": conventions(cfg),
    }
    return report, snaps[-1]


def cmd_oracle(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    report, wf_final = _oracle_report(cfg)
    try:
        atomic_write_text(os.path.join(out, "oracle_report.json"),
                          json.dumps(report, indent=2, sort_keys=True))
        atomic_write_text(os.path.join(out, "oracle_psi.csv"), wavefunction_to_csv(wf_final))
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _trajectory_samples(columns: dict) -> tuple[np.ndarray, dict]:
    """Final-time scalar samples + diagnostics from a record CSV's columns."""
    diag = {}
    pos_cols = sorted(c for c in columns if c.startswith("pos_"))
    lam_cols = sorted(c for c in columns if c.startswith("lam_"))
    if pos_cols:
        samples = np.array([columns[c][-1] for c in pos_cols])
        if "jd_residual" in columns:
            diag["mean_jd_residual"] = float(np.mean(columns["jd_residual"]))
    elif lam_cols:
        samples = np.array([columns[c][-1] for c in lam_cols])
    else:
        raise ValueError("no eigenvalue or position columns in trajectory file")
    return samples, diag


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    try:
        with open(args.trajectory) as fh:
            traj_text = fh.read()
        with open(args.oracle_file) as fh:
            x, psi = load_wavefunction_csv(fh.read())
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO

    h = x[1] - x[0]
    rho_oracle = np.abs(psi) ** 2
    rho_oracle = rho_oracle / (rho_oracle.sum() * h)

    first_line = traj_text.splitlines()[0]
    if first_line.startswith("x,"):
        # Oracle-format input on both sides: direct density comparison.
        _, psi_b = load_wavefunction_csv(traj_text)
        rho_b = np.abs(psi_b) ** 2
        rho_b = rho_b / (rho_b.sum() * h)
        verdict = {
            "L1": compare_densities(rho_b, rho_oracle, "L1", h),
            "KS": compare_densities(rho_b, rho_oracle, "KS", h),
            "diagnostics": {},
        }
    else:
        columns = load_record_csv(traj_text)
        samples, diag = _trajectory_samples(columns)
        bw = cfg.analysis.bandwidth or silverman_bandwidth(samples)
        rho_m = walker_density(samples, x, bw)
        verdict = {
            "L1": compare_densities(rho_m, rho_oracle, "L1", h),
            "KS": compare_densities(rho_m, rho_oracle, "KS", h),
            "bandwidth": bw,
            "n_samples": int(len(samples)),
            "diagnostics": diag,
        }
        # nu_hat / nu_pred ratio when the run admits the scaling formulas.
        params = cfg.model
        if params.d >= 2 and cfg.integrator.temperature > 0:
            t_sc = scaled_temperature(params, cfg.integrator.temperature, params.N)
            verdict["t_scaled"] = t_sc
            verdict["nu_pred"] = predicted_diffusion(params, t_sc)
    verdict["conventions"] = conventions(cfg)
    verdict["note"] = "report only; no pass/fail is attached to the physics comparison"
    try:
        atomic_write_text(os.path.join(out, "compare_verdict.json"),
                          json.dumps(verdict, indent=2, sort_keys=True))
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _calibration_report(master_seed: int) -> dict:
    rng = np.random.default_rng(replica_seed(master_seed, 0, "analysis"))
    report = {}

    # Brownian diffusion recovery.
    nu_true, R, T, dt = 0.25, 100, 2000, 0.01
    steps = rng.normal(0.0, np.sqrt(2 * nu_true * dt), size=(R, T, 1, 1))
    paths = np.cumsum(steps, axis=1)
    times = np.arange(T) * dt
    trajs = [EigenTrajectory(times=times, positions=paths[r]) for r in range(R)]
    est = estimate_diffusion(trajs, (5 * dt, 50 * dt))
    report["brownian"] = {"nu_true": nu_true, "nu_hat": est.nu_hat,
                          "stderr": est.stderr,
                          "rel_error": abs(est.nu_hat - nu_true) / nu_true}

    # OU drift slope via the current-velocity estimator.  The ensemble must be
    # far from stationarity for the current velocity to be nonzero (a stationary
    # process has identically zero current velocity), so start broad and query
    # early, while the contraction toward equilibrium is still in progress.
    theta, nu = 1.0, 0.2
    R, T = 2000, 60
    sigma0 = np.sqrt(100.0 * nu / theta)
    xs = np.zeros((R, T))
    xs[:, 0] = rng.normal(0.0, sigma0, size=R)
    for k in range(1, T):
        xs[:, k] = xs[:, k - 1] * (1 - theta * dt) + rng.normal(
            0.0, np.sqrt(2 * nu * dt), size=R)
    trajs = [EigenTrajectory(times=times[:T], positions=xs[r][:, None, None])
             for r in range(R)]
    grid = Grid.regular(-2 * sigma0, 2 * sigma0, 25)
    vf = estimate_current_velocity(trajs, times[T // 2], grid, 0.4, lag=5)
    g = grid.axes[0][vf.mask.ravel()]
    v = vf.v[0].ravel()[vf.mask.ravel()]
    slope = float(np.polyfit(g, v, 1)[0])
    report["ou_drift"] = {"theta_true": theta, "slope_hat": -slope,
                          "rel_error": abs(-slope - theta) / theta}

    # OU diffusion recovery from a stationary ensemble.  Here the ensemble must
    # *be* stationary (else the contraction flow contaminates the displacement
    # statistics) and the fit window short relative to 1/theta.
    R, T = 400, 200
    xs = np.zeros((R, T))
    xs[:, 0] = rng.normal(0.0, np.sqrt(nu / theta), size=R)
    for k in range(1, T):
        xs[:, k] = xs[:, k - 1] * (1 - theta * dt) + rng.normal(
            0.0, np.sqrt(2 * nu * dt), size=R)
    trajs = [EigenTrajectory(times=times[:T], positions=xs[r][:, None, None])
             for r in range(R)]
    est = estimate_diffusion(trajs, (1 * dt, 10 * dt))
    report["ou_diffusion"] = {"nu_true": nu, "nu_hat": est.nu_hat,
                              "stderr": est.stderr,
                              "rel_error": abs(est.nu_hat - nu) / nu}

    # Irrotationality: gradient flow vs rigid rotation.
    g2 = Grid.regular(-2.0, 2.0, 33, ndim=2)
    mesh = np.meshgrid(*g2.axes, indexing="ij")
    from .estimators import FieldEstimate

    grad_field = FieldEstimate(grid=g2, v=np.stack([np.cos(mesh[0]), np.cos(mesh[1])]))
    rot_field = FieldEstimate(grid=g2, v=np.stack([-mesh[1], mesh[0]]))
    report["irrotationality"] = {
        "gradient_field_residual": irrotationality_residual(grad_field),
        "rotation_field_residual": irrotationality_residual(rot_field),
    }
    return report


def cmd_calibrate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg, args)
    report = _calibration_report(cfg.ensemble.master_seed)
    try:
        atomic_write_text(os.path.join(out, "calibration_report.json"),
                          json.dumps(report, indent=2, sort_keys=True))
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="matrixqm",
                                 description="matrix-model dynamics and analysis")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config (or manifest) path")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="ensemble.master_seed override")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored (runs are sequential); kept for the benchmark")

    p = sub.add_parser("simulate", help="run dynamics, write records + manifest")
    common(p)
    p.add_argument("--replicas", type=int, default=None, help="ensemble.replicas override")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("sweep", help="fixed-t scaling sweep over N")
    common(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("oracle", help="quantum-oracle self tests and reference data")
    common(p)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("compare", help="matrix-model vs oracle density report")
    common(p)
    p.add_argument("trajectory", help="record CSV from simulate")
    p.add_argument("oracle_file", help="oracle psi CSV")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("calibrate", help="synthetic estimator calibration suite")
    common(p)
    p.set_defaults(fn=cmd_calibrate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except NumericsError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
