"""Integrator tests: reversibility, conservation, thermostat statistics,
and the run/record plumbing."""

import numpy as np
import pytest

from matrixqm.core import (
    MatrixConfiguration,
    ModelParams,
    com_momentum,
    potential_energy,
    random_config,
    total_energy,
)
from matrixqm.dynamics import (
    IntegratorConfig,
    NumericsError,
    equilibrate,
    integrated_autocorrelation_time,
    measure_temperature,
    run,
    step_langevin,
    step_leapfrog,
)


def scalar_oscillator_params(kappa=0.5):
    # d=1, N=2 with a quadratic regulator: every entry decouples and the
    # diagonal entry is a harmonic oscillator at frequency omega*sqrt(kappa).
    return ModelParams(d=1, N=2, mu=1.0, omega=1.0, kappa=kappa)


class TestLeapfrog:
    def test_oscillator_phase_accuracy(self):
        p = scalar_oscillator_params(kappa=0.5)
        Omega = p.omega * np.sqrt(p.kappa)
        X = np.zeros((1, 2, 2))
        X[0, 0, 0] = 1.0
        cfg = MatrixConfiguration(X=X, V=np.zeros_like(X))
        dt, n = 1e-3, 2000
        for _ in range(n):
            cfg = step_leapfrog(cfg, p, dt)
        exact = np.cos(Omega * n * dt)
        assert cfg.X[0, 0, 0] == pytest.approx(exact, abs=1e-6)

    def test_time_reversibility(self):
        p = ModelParams(d=2, N=4)
        cfg0 = random_config(p, spread=0.5, seed=7)
        cfg = cfg0.copy()
        dt, n = 1e-3, 200
        for _ in range(n):
            cfg = step_leapfrog(cfg, p, dt)
        cfg = MatrixConfiguration(X=cfg.X, V=-cfg.V)
        for _ in range(n):
            cfg = step_leapfrog(cfg, p, dt)
        assert np.max(np.abs(cfg.X - cfg0.X)) < 1e-10

    def test_short_run_energy_drift(self):
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=0.3, seed=5)
        e0 = total_energy(cfg, p)
        integ = IntegratorConfig(mode="microcanonical", dt=1e-3, steps=2000,
                                 record_every=2000)
        rec = run(cfg, p, integ)
        e1 = rec.energies[-1].sum()
        assert abs(e1 - e0) / abs(e0) < 1e-6

    def test_com_momentum_conserved(self):
        p = ModelParams(d=2, N=4, kappa=0.0)
        cfg = random_config(p, spread=0.4, seed=8)
        cfg = MatrixConfiguration(X=cfg.X, V=random_config(p, spread=0.1, seed=9).X)
        p0 = com_momentum(cfg, p)
        for _ in range(500):
            cfg = step_leapfrog(cfg, p, 1e-3)
        assert np.max(np.abs(com_momentum(cfg, p) - p0)) < 1e-12


class TestLangevin:
    def test_gibbs_variance_scalar_oscillator(self):
        # Stationary variance of the diagonal entry: T / (2 kappa mu omega^2);
        # of the off-diagonal entry: T / (4 kappa mu omega^2).
        p = scalar_oscillator_params(kappa=0.5)
        T, dt, gamma = 0.5, 0.05, 0.5
        cfg = random_config(p, spread=0.1, seed=1)
        rng = np.random.default_rng(123)
        n, burn = 60000, 5000
        xs = np.empty(n)
        off = np.empty(n)
        for k in range(n + burn):
            cfg = step_langevin(cfg, p, dt, gamma, T, rng)
            if k >= burn:
                xs[k - burn] = cfg.X[0, 0, 0]
                off[k - burn] = cfg.X[0, 0, 1]
        var_d = T / (2 * p.kappa * p.mu * p.omega**2)
        var_o = T / (4 * p.kappa * p.mu * p.omega**2)
        tau = integrated_autocorrelation_time(xs)
        se = var_d * np.sqrt(2 * 2 * tau / n)
        assert abs(xs.var() - var_d) < 3 * se
        assert abs(off.var() - var_o) < 3 * se
        assert abs(xs.mean()) < 5 * np.sqrt(var_d * 2 * tau / n)

    def test_measured_temperature(self):
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=0.3, seed=2)
        integ = IntegratorConfig(mode="langevin", dt=0.02, steps=20000,
                                 gamma=0.5, temperature=0.3, record_every=5)
        rec = run(cfg, p, integ, 11)
        rec_eq = burn_in_slice(rec, 1000)
        t_est, se = measure_temperature(rec_eq, p)
        assert abs(t_est - 0.3) < 3 * se
        assert se < 0.05

    def test_offdiagonal_noise_mode_freezes_traces(self):
        # With noise and drag on off-diagonal entries only, the trace modes
        # follow pure Newtonian motion; with zero initial trace velocity the
        # per-direction traces stay put (kappa = 0).
        p = ModelParams(d=2, N=4, kappa=0.0)
        cfg = random_config(p, spread=0.4, seed=3)
        tr0 = np.array([np.trace(cfg.X[a]) for a in range(2)])
        integ = IntegratorConfig(mode="langevin", dt=0.01, steps=2000,
                                 gamma=0.5, temperature=0.3,
                                 record_every=2000, noise_mode="offdiagonal")
        rec = run(cfg, p, integ, 4)
        tr1 = np.array([np.trace(rec.final_config.X[a]) for a in range(2)])
        assert np.max(np.abs(tr1 - tr0)) < 1e-10

    def test_projected_noise_conserves_com(self):
        p = ModelParams(d=2, N=6, kappa=0.0)
        cfg = random_config(p, spread=0.4, seed=5)
        integ = IntegratorConfig(mode="langevin", dt=0.01, steps=1000,
                                 gamma=0.5, temperature=0.5,
                                 record_every=1000, project_trace_noise=True)
        rec = run(cfg, p, integ, 6)
        assert np.max(np.abs(rec.com_momenta[-1] - rec.com_momenta[0])) < 1e-10

    def test_determinism(self):
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=0.3, seed=1)
        integ = IntegratorConfig(mode="langevin", dt=0.01, steps=200,
                                 gamma=0.5, temperature=0.2)
        r1 = run(cfg, p, integ, 42)
        r2 = run(cfg, p, integ, 42)
        lam1 = np.stack([s.lam for s in r1.spectra])
        lam2 = np.stack([s.lam for s in r2.spectra])
        assert np.array_equal(lam1, lam2)
        assert np.array_equal(r1.energies, r2.energies)


def burn_in_slice(rec, n_drop):
    """Return a copy of a record with the first n_drop rows removed."""
    import dataclasses
    return dataclasses.replace(
        rec,
        times=rec.times[n_drop:],
        spectra=rec.spectra[n_drop:],
        energies=rec.energies[n_drop:],
        com_momenta=rec.com_momenta[n_drop:],
    )


class TestRunPlumbing:
    def test_record_shapes_and_cadence(self):
        p = ModelParams(d=2, N=3)
        cfg = random_config(p, spread=0.3, seed=1)
        integ = IntegratorConfig(mode="microcanonical", dt=0.01, steps=100,
                                 record_every=10, record_frames=True)
        rec = run(cfg, p, integ)
        assert rec.times.shape == (11,)
        assert np.stack([s.lam for s in rec.spectra]).shape == (11, 2, 3)
        assert rec.energies.shape == (11, 2)
        assert rec.com_momenta.shape == (11, 2)
        assert len(rec.frames) == 11
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(1.0)
        assert rec.final_config.time == pytest.approx(1.0)

    def test_manifest_echo(self):
        p = ModelParams(d=3, N=2, mu=2.0)
        cfg = random_config(p, spread=0.2, seed=2)
        integ = IntegratorConfig(mode="microcanonical", dt=0.01, steps=10)
        rec = run(cfg, p, integ)
        assert rec.manifest["model"]["d"] == 3
        assert rec.manifest["model"]["mu"] == 2.0
        assert rec.manifest["steps"] == 10
        assert rec.manifest["mode"] == "microcanonical"

    def test_numerics_error_on_blowup(self):
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=3.0, seed=3)
        integ = IntegratorConfig(mode="microcanonical", dt=10.0, steps=5000)
        with pytest.raises(NumericsError):
            run(cfg, p, integ)

    def test_integrator_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(mode="nope", dt=0.01, steps=10)
        with pytest.raises(ValueError):
            IntegratorConfig(mode="microcanonical", dt=-0.01, steps=10)
        with pytest.raises(ValueError):
            IntegratorConfig(mode="langevin", dt=0.01, steps=10, gamma=0.0,
                             temperature=0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(mode="microcanonical", dt=0.01, steps=10,
                             record_every=0)


class TestEquilibration:
    def test_autocorrelation_time_white_noise(self):
        rng = np.random.default_rng(0)
        tau = integrated_autocorrelation_time(rng.normal(size=20000))
        assert abs(tau - 0.5) < 0.1

    def test_autocorrelation_time_ar1(self):
        # AR(1) with coefficient a has tau_int = (1+a)/(2(1-a)).
        rng = np.random.default_rng(1)
        a, n = 0.9, 200000
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.normal(size=n)
        for k in range(1, n):
            x[k] = a * x[k - 1] + eps[k]
        expected = (1 + a) / (2 * (1 - a))
        tau = integrated_autocorrelation_time(x)
        assert abs(tau - expected) / expected < 0.2

    def test_equilibrate_runs_and_reports(self):
        p = ModelParams(d=2, N=3)
        cfg = random_config(p, spread=0.3, seed=9)
        integ = IntegratorConfig(mode="langevin", dt=0.02, steps=500,
                                 gamma=0.5, temperature=0.2)
        out, info = equilibrate(cfg, p, integ, 10, tol=0.5, max_steps=20000)
        assert info["burn_in_steps"] <= 20000
        assert "converged" in info
        assert np.isfinite(potential_energy(out, p))
