"""Command-line front-end: simulate / sweep / oracle / compare / calibrate.

Each `cmd_*` returns its artifacts as {file name: text or JSON document}, in
write order.  `main` alone writes them and maps failures to exit codes, so no
command writes a file before it has computed all of its outputs.

Exit codes: 0 success, 1 usage, config or input-file error, 2 numeric abort
(NaN/Inf), 3 I/O failure.
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
from .dynamics import NumericsError, frame_position_tol, run
from .estimators import (
    EigenTrajectory,
    FieldEstimate,
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
    grid_spacing,
    harmonic_eigenstate,
    kde_cell,
    nelson_evolve,
    walker_density,
)
from .runio import (
    ConfigError,
    atomic_write_text,
    build_manifest,
    conventions,
    jacobi_stopping,
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


class InputError(Exception):
    """An input file of `compare` that does not parse; the message starts with its path."""


def _load_config(args):
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as e:
        raise OSError(f"cannot read config: {e}") from e
    return parse_config(text)


def cmd_simulate(cfg, args) -> dict:
    t0 = time.monotonic()
    seeds = [
        {"replica": r,
         "init": replica_seed(cfg.ensemble.master_seed, r, "init"),
         "dynamics": replica_seed(cfg.ensemble.master_seed, r, "dynamics")}
        for r in range(cfg.ensemble.replicas)
    ]
    configs = [random_config(cfg.model, cfg.ensemble.spread, s["init"]) for s in seeds]
    records = run(configs, cfg.model, cfg.integrator, [s["dynamics"] for s in seeds])
    artifacts = {f"record_{r:03d}.csv": record_to_csv(record)
                 for r, record in enumerate(records)}
    stopping = (jacobi_stopping(frame_position_tol(cfg.model, cfg.integrator))
                if cfg.integrator.record_frames else {})
    artifacts["manifest.json"] = build_manifest(cfg, seeds, time.monotonic() - t0, stopping)
    return artifacts


def cmd_sweep(cfg, args) -> dict:
    if cfg.model.d < 2:
        raise ConfigError("sweep: scaling formulas require model.d >= 2 (singular at d = 1)")
    t0 = time.monotonic()
    results = scaling_sweep(cfg.model, cfg.sweep, cfg.ensemble.master_seed)
    points = [point for point, _, _ in results]
    seeds = [{"N": point.N, "replica": r, **seed}
             for point, replica_seeds, _ in results for r, seed in enumerate(replica_seeds)]
    stopping = jacobi_stopping({str(point.N): tol for point, _, tol in results})
    return {
        "sweep.csv": sweep_to_csv(points, cfg.model.pair_sum),
        "sweep_manifest.json": build_manifest(cfg, seeds, time.monotonic() - t0, stopping),
    }


def cmd_oracle(cfg, args) -> dict:
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

    # Free-packet spreading vs the analytic width law, at every fourth of the
    # packet snapshots that also drive the Nelson walkers.  Split-step is exact
    # for V = 0 at any dt, so each snapshot is one step of per * dt.
    wf = gaussian_packet(x, 0.0, o.sigma0, o.p0, o.hbar, o.mass)
    t_spread = 2.0 * o.mass * o.sigma0**2 / o.hbar
    n_snap = 16
    snaps = [wf]
    per = max(1, int(round(t_spread / n_snap / o.dt)))
    for _ in range(n_snap):
        snaps.append(evolve_schrodinger(snaps[-1], np.zeros_like(x), per * o.dt, 1))
    width_rows = []
    for wfc in snaps[4::4]:
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
    t_end = snaps[-1].time
    ab = {}
    for name, nu in (("nelson_hbar_over_2m", o.hbar / (2 * o.mass)),
                     ("direct_hbar_over_m", o.hbar / o.mass)):
        ens = NelsonEnsemble(walkers=walkers0.copy())
        ens = nelson_evolve(ens, snaps, nu, o.dt * per / 4, 4 * n_snap,
                            seed=replica_seed(cfg.ensemble.master_seed, 1, "nelson"))
        bw = silverman_bandwidth(ens.walkers)
        try:
            rho_w = walker_density(ens.walkers, x, bw)
        except ValueError as e:
            raise ConfigError(f"oracle: walker density: {e}") from e
        ab[name] = {
            "nu": nu,
            "L1_to_psi2": compare_densities(rho_w, snaps[-1].density(), "L1", wf.h),
            "reflections": ens.reflections,
            "bandwidth": bw,
            "kde_cell_bw": kde_cell(x, bw)[0] / bw,
        }

    report = {
        "harmonic_stationarity": harmonic,
        "free_packet_width": width_rows,
        "nelson_convention_ab": ab,
        "t_end": t_end,
        "conventions": conventions(cfg),
    }
    return {"oracle_report.json": report, "oracle_psi.csv": wavefunction_to_csv(snaps[-1])}


def _trajectory_samples(text: str) -> tuple[np.ndarray, dict]:
    """Final-time scalar samples + diagnostics from a record CSV."""
    columns = load_record_csv(text)
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


def _parse_input(path: str, parse, data):
    try:
        return parse(data)
    except ValueError as e:
        raise InputError(f"{path}: {e}") from e


def cmd_compare(cfg, args) -> dict:
    with open(args.trajectory) as fh:
        traj_text = fh.read()
    with open(args.oracle_file) as fh:
        oracle_text = fh.read()
    x, psi = _parse_input(args.oracle_file, load_wavefunction_csv, oracle_text)
    _parse_input(args.oracle_file, grid_spacing, x)
    samples, diag = _parse_input(args.trajectory, _trajectory_samples, traj_text)

    h = x[1] - x[0]
    rho_oracle = np.abs(psi) ** 2
    rho_oracle = rho_oracle / (rho_oracle.sum() * h)
    bw = silverman_bandwidth(samples)
    rho_m = _parse_input(args.trajectory, lambda s: walker_density(s, x, bw), samples)
    verdict = {
        "L1": compare_densities(rho_m, rho_oracle, "L1", h),
        "KS": compare_densities(rho_m, rho_oracle, "KS", h),
        "bandwidth": bw,
        "kde_cell_bw": kde_cell(x, bw)[0] / bw,
        "n_samples": int(len(samples)),
        "diagnostics": diag,
    }
    # t and nu_pred of a thermostat at T > 0; a microcanonical run has T = 0.
    params = cfg.model
    if params.d >= 2 and cfg.integrator.temperature > 0:
        t_sc = scaled_temperature(params, cfg.integrator.temperature, params.N)
        verdict["t_scaled"] = t_sc
        verdict["nu_pred"] = predicted_diffusion(params, t_sc)
    verdict["conventions"] = conventions(cfg)
    verdict["note"] = "report only; no pass/fail is attached to the physics comparison"
    return {"compare_verdict.json": verdict}


def cmd_calibrate(cfg, args) -> dict:
    rng = np.random.default_rng(replica_seed(cfg.ensemble.master_seed, 0, "analysis"))
    report = {}

    # Brownian diffusion recovery.
    nu_true, R, T, dt = 0.25, 100, 2000, 0.01
    steps = rng.normal(0.0, np.sqrt(2 * nu_true * dt), size=(R, T, 1, 1))
    paths = np.cumsum(steps, axis=1)
    times = np.arange(T) * dt
    est = estimate_diffusion(EigenTrajectory(times=times, positions=paths), (5 * dt, 50 * dt))
    report["brownian"] = {"nu_true": nu_true, "nu_hat": est.nu_hat,
                          "stderr": est.stderr,
                          "rel_error": abs(est.nu_hat - nu_true) / nu_true}

    # OU drift slope via the current-velocity estimator.  The ensemble must be
    # far from stationarity for the current velocity to be nonzero (a stationary
    # process has identically zero current velocity), so start broad and query
    # early, while the contraction toward equilibrium is still in progress.
    theta, nu = 1.0, 0.2

    def ou_paths(R, T, sigma0):
        """R Euler-Maruyama OU paths of T records, started from N(0, sigma0^2)."""
        xs = np.zeros((R, T))
        xs[:, 0] = rng.normal(0.0, sigma0, size=R)
        for k in range(1, T):
            xs[:, k] = xs[:, k - 1] * (1 - theta * dt) + rng.normal(
                0.0, np.sqrt(2 * nu * dt), size=R)
        return EigenTrajectory(times=times[:T], positions=xs[:, :, None, None])

    R, T = 2000, 60
    sigma0 = np.sqrt(100.0 * nu / theta)
    trajs = ou_paths(R, T, sigma0)
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
    est = estimate_diffusion(ou_paths(400, 200, np.sqrt(nu / theta)), (1 * dt, 10 * dt))
    report["ou_diffusion"] = {"nu_true": nu, "nu_hat": est.nu_hat,
                              "stderr": est.stderr,
                              "rel_error": abs(est.nu_hat - nu) / nu}

    # Irrotationality: gradient flow vs rigid rotation.
    g2 = Grid.regular(-2.0, 2.0, 33, ndim=2)
    mesh = np.meshgrid(*g2.axes, indexing="ij")
    grad_field = FieldEstimate(grid=g2, v=np.stack([np.cos(mesh[0]), np.cos(mesh[1])]))
    rot_field = FieldEstimate(grid=g2, v=np.stack([-mesh[1], mesh[0]]))
    report["irrotationality"] = {
        "gradient_field_residual": irrotationality_residual(grad_field),
        "rotation_field_residual": irrotationality_residual(rot_field),
    }
    return {"calibration_report.json": report}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="matrixqm",
                                 description="matrix-model dynamics and analysis")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config (or manifest) path")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored (runs are sequential); kept for the benchmark")

    p = sub.add_parser("simulate", help="run dynamics, write records + manifest")
    common(p)
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
        cfg = _load_config(args)
        artifacts = args.fn(cfg, args)
        for name, doc in artifacts.items():
            text = doc if isinstance(doc, str) else json.dumps(doc, indent=2, sort_keys=True)
            atomic_write_text(os.path.join(args.out, name), text)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
