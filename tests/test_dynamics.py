"""Integrator tests: reversibility, conservation, thermostat statistics,
and the run/record plumbing."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixqm import dynamics
from matrixqm.core import (
    MatrixConfiguration,
    ModelParams,
    com_momentum,
    eigenvalues,
    joint_diagonalize,
    kinetic_energy,
    potential_energy,
    random_config,
    total_energy,
)
from matrixqm.dynamics import (
    IntegratorConfig,
    NumericsError,
    TrajectoryRecord,
    frame_position_tol,
    integrated_autocorrelation_time,
    measure_temperature,
    run,
    step_langevin,
)

from kernel_oracles import reference_noise, reference_run


def integrator(mode, project=False, temperature=0.3, **kw):
    """An IntegratorConfig; a Langevin one gets gamma = 0.5, the temperature
    and the projection, a microcanonical one keeps gamma = T = 0 and none."""
    if mode == "langevin":
        kw.update(gamma=0.5, temperature=temperature, project_trace_noise=project)
    return IntegratorConfig(mode=mode, **kw)


def scalar_oscillator_params(kappa=0.5):
    # d=1, N=2 with a quadratic regulator: every entry decouples and the
    # diagonal entry is a harmonic oscillator at frequency omega*sqrt(kappa).
    return ModelParams(d=1, N=2, mu=1.0, omega=1.0, kappa=kappa)


def verlet(cfg, p, dt, n):
    """The configuration after n velocity-Verlet steps: a microcanonical run's
    final_config."""
    integ = IntegratorConfig(mode="microcanonical", dt=dt, steps=n, record_every=n)
    return run([cfg], p, integ)[0].final_config


class TestLeapfrog:
    def test_oscillator_phase_accuracy(self):
        p = scalar_oscillator_params(kappa=0.5)
        Omega = p.omega * np.sqrt(p.kappa)
        X = np.zeros((1, 2, 2))
        X[0, 0, 0] = 1.0
        cfg = MatrixConfiguration(X=X, V=np.zeros_like(X))
        dt, n = 1e-3, 2000
        cfg = verlet(cfg, p, dt, n)
        exact = np.cos(Omega * n * dt)
        assert cfg.X[0, 0, 0] == pytest.approx(exact, abs=1e-6)

    def test_time_reversibility(self):
        p = ModelParams(d=2, N=4)
        cfg0 = random_config(p, spread=0.5, seed=7)
        dt, n = 1e-3, 200
        cfg = verlet(cfg0, p, dt, n)
        cfg = verlet(MatrixConfiguration(X=cfg.X, V=-cfg.V), p, dt, n)
        assert np.max(np.abs(cfg.X - cfg0.X)) < 1e-10

    def test_short_run_energy_drift(self):
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=0.3, seed=5)
        e0 = total_energy(cfg, p)
        integ = IntegratorConfig(mode="microcanonical", dt=1e-3, steps=2000,
                                 record_every=2000)
        rec = run([cfg], p, integ)[0]
        e1 = rec.energies[-1].sum()
        assert abs(e1 - e0) / abs(e0) < 1e-6

    def test_com_momentum_conserved(self):
        p = ModelParams(d=2, N=4, kappa=0.0)
        cfg = random_config(p, spread=0.4, seed=8)
        cfg = MatrixConfiguration(X=cfg.X, V=random_config(p, spread=0.1, seed=9).X)
        p0 = com_momentum(cfg, p)
        cfg = verlet(cfg, p, 1e-3, 500)
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

    @pytest.mark.parametrize("seed", [0, 7])
    def test_step_langevin_is_one_step_of_run(self, seed):
        # step_langevin and run share one kernel: one step from the same
        # generator seed gives the same bits.
        p = ModelParams(d=3, N=5, kappa=0.3)
        cfg = moving_configs(p, 1, 3)[0]
        dt, gamma, T = 0.01, 0.5, 0.3
        out = step_langevin(cfg, p, dt, gamma, T, np.random.default_rng(seed))
        integ = IntegratorConfig(mode="langevin", dt=dt, steps=1, gamma=gamma, temperature=T)
        final = run([cfg], p, integ, [seed])[0].final_config
        assert np.array_equal(bits(out.X), bits(final.X))
        assert np.array_equal(bits(out.V), bits(final.V))
        assert out.time == final.time

    def test_measured_temperature(self):
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=0.3, seed=2)
        integ = IntegratorConfig(mode="langevin", dt=0.02, steps=20000,
                                 gamma=0.5, temperature=0.3, record_every=5)
        rec = run([cfg], p, integ, [11])[0]
        rec_eq = burn_in_slice(rec, 1000)
        t_est, se = measure_temperature(rec_eq, p)
        assert abs(t_est - 0.3) < 3 * se
        assert se < 0.05

    def test_projected_noise_conserves_com(self):
        p = ModelParams(d=2, N=6, kappa=0.0)
        cfg = random_config(p, spread=0.4, seed=5)
        integ = IntegratorConfig(mode="langevin", dt=0.01, steps=1000,
                                 gamma=0.5, temperature=0.5,
                                 record_every=1000, project_trace_noise=True)
        rec = run([cfg], p, integ, [6])[0]
        assert np.max(np.abs(rec.com_momenta[-1] - rec.com_momenta[0])) < 1e-10

    def test_determinism(self):
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=0.3, seed=1)
        integ = IntegratorConfig(mode="langevin", dt=0.01, steps=200,
                                 gamma=0.5, temperature=0.2)
        r1 = run([cfg], p, integ, [42])[0]
        r2 = run([cfg], p, integ, [42])[0]
        assert np.array_equal(r1.spectra, r2.spectra)
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
        rec = run([cfg], p, integ)[0]
        assert rec.times.shape == (11,)
        assert rec.spectra.shape == (11, 2, 3)
        assert rec.energies.shape == (11, 2)
        assert rec.com_momenta.shape == (11, 2)
        assert rec.positions.shape == (11, 3, 2)
        assert rec.residuals.shape == rec.converged.shape == rec.sweeps.shape == (11,)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(1.0)
        assert rec.final_config.time == pytest.approx(1.0)

    def test_numerics_error_on_blowup(self):
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=3.0, seed=3)
        integ = IntegratorConfig(mode="microcanonical", dt=10.0, steps=5000)
        with pytest.raises(NumericsError):
            run([cfg], p, integ)

    def test_numerics_error_names_replica_and_step(self):
        p = ModelParams(d=2, N=4)
        cfgs = [random_config(p, spread=s, seed=3) for s in (0.1, 3.0, 0.1)]
        integ = IntegratorConfig(mode="microcanonical", dt=0.5, steps=5000)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match=r"^replica 1, step \d+: ") as exc:
                run(cfgs, p, integ)
        assert exc.value.replica == 1
        assert 1 <= exc.value.step < 5000

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

    def test_no_replicas_no_records(self):
        assert run([], ModelParams(d=2, N=3), IntegratorConfig(steps=10)) == []

    @staticmethod
    def record_at(times):
        n = len(times)
        return TrajectoryRecord(times=np.array(times), spectra=np.zeros((n, 1, 2)),
                                energies=np.zeros((n, 2)), com_momenta=np.zeros((n, 1)))

    def test_times_at_float_limits_accepted(self):
        # Their difference overflows; the order check must not compute it.
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(self.record_at([-big, big]).times) == 2

    @pytest.mark.parametrize("times", [[0.0, 0.0], [1.0, 0.5]])
    def test_times_not_increasing_rejected(self, times):
        with pytest.raises(ValueError, match="^times must be strictly increasing$"):
            self.record_at(times)


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

    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], np.full(100, 2.0)])
    def test_autocorrelation_time_short_or_constant(self, x):
        assert integrated_autocorrelation_time(x) == 0.5

    @staticmethod
    def kinetic_record(K):
        n = len(K)
        return TrajectoryRecord(times=np.arange(n, dtype=float), spectra=np.zeros((n, 2, 3)),
                                energies=np.stack([K, np.zeros(n)], axis=1),
                                com_momenta=np.zeros((n, 2)))

    def test_temperature_of_zero_kinetic_energy(self):
        rec = self.kinetic_record(np.zeros(20))
        assert measure_temperature(rec, ModelParams(d=2, N=3)) == (0.0, 0.0)

    def test_temperature_of_short_record_names_blocks(self):
        # Anticorrelated, so tau = 0.5 and each sample is a block.
        rec = self.kinetic_record(np.array([1.0, 2.0, 1.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match=r"5 samples, block size 1 gives 5 blocks \(< 8\)"):
            measure_temperature(rec, ModelParams(d=2, N=3))


# (d, N, mode, project_trace_noise, kappa, record_frames, seed)
BATCH_CASES = st.tuples(
    st.sampled_from([1, 2, 3]), st.integers(2, 10),
    st.sampled_from(["microcanonical", "langevin"]), st.booleans(),
    st.sampled_from([0.0, 0.3]), st.booleans(), st.integers(0, 2**32 - 1))


def assert_records_equal(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.spectra, b.spectra)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.com_momenta, b.com_momenta)
    assert np.array_equal(a.final_config.X, b.final_config.X)
    assert np.array_equal(a.final_config.V, b.final_config.V)
    assert a.final_config.time == b.final_config.time
    for name in ("positions", "residuals", "converged", "sweeps"):
        fa, fb = getattr(a, name), getattr(b, name)
        assert (fa is None) == (fb is None), name
        assert fa is None or np.array_equal(fa, fb), name


class TestReplicaBatching:
    @settings(max_examples=60, deadline=None)
    @given(BATCH_CASES)
    def test_each_replica_as_if_alone(self, case):
        d, N, mode, project, kappa, frames, seed = case
        p = ModelParams(d=d, N=N, kappa=kappa)
        integ = integrator(mode, project, dt=0.01, steps=12, record_every=3,
                           record_frames=frames)
        cfgs = [random_config(p, spread=0.4, seed=seed + r) for r in range(3)]
        # Microcanonical runs start with nonzero velocities, so they move.
        cfgs = [MatrixConfiguration(X=c.X, V=0.5 * c.X[::-1], time=0.25 * r)
                for r, c in enumerate(cfgs)]
        seeds = [seed, seed + 1, seed]
        together = run(cfgs, p, integ, seeds)
        assert len(together) == 3
        for r in range(3):
            assert_records_equal(together[r], run([cfgs[r]], p, integ, [seeds[r]])[0])

    @pytest.mark.parametrize("N", [17, 20, 24, 32])
    @pytest.mark.parametrize("mode, project", [
        ("microcanonical", False), ("langevin", True), ("langevin", False)],
        ids=["microcanonical", "langevin", "langevin-unprojected"])
    def test_each_replica_as_if_alone_at_large_n(self, N, mode, project):
        # Sizes where the force's bits depend on the BLAS (see
        # TestStackedForce); a replica's record must not depend on R.
        p = ModelParams(d=2, N=N)
        integ = integrator(mode, project, dt=0.01, steps=6, record_every=3,
                           record_frames=True)
        cfgs = moving_configs(p, 3, N)
        seeds = [N, N + 1, N]
        together = run(cfgs, p, integ, seeds)
        for r in range(3):
            assert_records_equal(together[r], run([cfgs[r]], p, integ, [seeds[r]])[0])

    def test_seeds_must_match_configs(self):
        p = ModelParams(d=2, N=3)
        integ = IntegratorConfig(mode="microcanonical", dt=0.01, steps=2)
        with pytest.raises(ValueError, match="2 configs but 1 seeds"):
            run([random_config(p, 0.3, 0)] * 2, p, integ, [0])


# (R, d, N, mode, project_trace_noise, kappa, temperature, seed)
REFERENCE_CASES = st.tuples(
    st.integers(1, 3), st.integers(1, 4), st.integers(2, 12),
    st.sampled_from(["microcanonical", "langevin"]), st.booleans(),
    st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.3]), st.integers(0, 2**32 - 1))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def moving_configs(p, R, seed):
    """R random configurations with nonzero velocities and distinct start times."""
    cfgs = [random_config(p, spread=0.4, seed=seed + r) for r in range(R)]
    return [MatrixConfiguration(X=c.X, V=0.5 * c.X[::-1], time=0.25 * r)
            for r, c in enumerate(cfgs)]


class TestReferenceKernels:
    @settings(max_examples=60, deadline=None)
    @given(REFERENCE_CASES)
    def test_noise_bitwise_equal_to_two_normal_calls(self, case):
        # At T = 0 every reference draw is 0.0 + 0.0 * z = +0.0, never -0.0.
        R, d, N, _, project, _, T, seed = case
        p = ModelParams(d=d, N=N)
        integ = IntegratorConfig(mode="langevin", dt=0.01, steps=3, gamma=0.5, temperature=T,
                                 project_trace_noise=project)
        o = dynamics._ostep(p, integ.dt, integ.gamma, T, project)
        rngs = [np.random.default_rng(seed + r) for r in range(R)]
        refs = [np.random.default_rng(seed + r) for r in range(R)]
        for _ in range(integ.steps):
            noise = dynamics._thermal_noise(o, rngs, (R, d, N, N))
            expected = np.stack([reference_noise(rng, p, integ) for rng in refs])
            assert np.array_equal(bits(noise), bits(expected))

    @settings(max_examples=60, deadline=None)
    @given(REFERENCE_CASES)
    def test_run_bitwise_equal_to_reference_loop(self, case):
        R, d, N, mode, project, kappa, T, seed = case
        p = ModelParams(d=d, N=N, kappa=kappa)
        integ = integrator(mode, project, T, dt=0.01, steps=12, record_every=3)
        cfgs = moving_configs(p, R, seed)
        seeds = [seed + 7 * r for r in range(R)]
        records = run(cfgs, p, integ, seeds)
        for cfg, cfg_seed, rec in zip(cfgs, seeds, records):
            snapshots, (t_end, X_end, V_end) = reference_run(cfg, p, integ, cfg_seed)
            ref = [MatrixConfiguration(X=X, V=V, time=t) for t, X, V in snapshots]
            assert np.array_equal(rec.times, [c.time for c in ref])
            assert np.array_equal(rec.spectra, [eigenvalues(c) for c in ref])
            assert np.array_equal(rec.energies, [(kinetic_energy(c, p), potential_energy(c, p))
                                                 for c in ref])
            assert np.array_equal(rec.com_momenta, [com_momentum(c, p) for c in ref])
            end = MatrixConfiguration(X=X_end, V=V_end, time=t_end)
            assert np.array_equal(bits(rec.final_config.X), bits(end.X))
            assert np.array_equal(bits(rec.final_config.V), bits(end.V))
            assert rec.final_config.time == t_end


def spy_joint_diagonalize(monkeypatch) -> list:
    """Route run()'s Jacobi calls through a spy; returns the list it fills
    with (configuration, copy of its X, copy of its V) at each call."""
    seen = []
    jd = dynamics.joint_diagonalize

    def spy(cfg, *args, **kwargs):
        seen.append((cfg, cfg.X.copy(), cfg.V.copy()))
        return jd(cfg, *args, **kwargs)

    monkeypatch.setattr(dynamics, "joint_diagonalize", spy)
    return seen


class TestWarmStart:
    @pytest.mark.parametrize("mode", ["microcanonical", "langevin"])
    def test_frames_chain_from_own_previous_frame(self, mode, monkeypatch):
        # Each recorded state is diagonalized from the frame of the same
        # replica's previous state.  Rebuild both chains by hand from the
        # configurations run() diagonalized and compare every frame array.
        seen = spy_joint_diagonalize(monkeypatch)
        p = ModelParams(d=2, N=5)
        integ = integrator(mode, dt=0.01, steps=12, record_every=2, record_frames=True)
        records = run(moving_configs(p, 2, 11), p, integ, [4, 5])
        n = len(records[0].times)
        assert len(seen) == 2 * n
        for r, rec in enumerate(records):
            frame = None
            for k in range(n):
                cfg = seen[2 * k + r][0]  # replicas in order at each record step
                assert cfg.time == rec.times[k]
                assert np.array_equal(bits(eigenvalues(cfg)), bits(rec.spectra[k]))
                fr = joint_diagonalize(cfg, initial_frame=frame,
                                       position_tol=frame_position_tol(p, integ))
                frame = fr.frame
                assert np.array_equal(bits(rec.positions[k]), bits(fr.positions))
                assert np.array_equal(bits(rec.residuals[k]), bits(np.float64(fr.residual)))
                assert rec.converged[k] == fr.converged
                assert rec.sweeps[k] == fr.sweeps


class TestFramePositionRule:
    def test_off_without_thermal_noise(self):
        p = ModelParams(d=2, N=8)
        assert frame_position_tol(p, IntegratorConfig(mode="microcanonical", dt=0.02,
                                                      record_every=5)) == 0.0
        assert frame_position_tol(p, IntegratorConfig(mode="langevin", dt=0.02, gamma=0.5,
                                                      temperature=0.0, record_every=5)) == 0.0
        integ = IntegratorConfig(mode="langevin", dt=0.02, gamma=0.5, temperature=0.1,
                                 record_every=5)
        assert frame_position_tol(p, integ) == pytest.approx(1e-3 * np.sqrt(0.1 * 0.1 / 0.5))

    def test_positions_close_to_strict_rule_with_fewer_iterations(self, monkeypatch):
        p = ModelParams(d=2, N=8)
        integ = IntegratorConfig(mode="langevin", dt=0.02, steps=200, gamma=0.5,
                                 temperature=0.1, record_every=5, record_frames=True)
        cfgs = [random_config(p, 0.3, s) for s in (21, 22)]
        tol = frame_position_tol(p, integ)
        frames = []

        def spy(cfg, **kw):
            fr = joint_diagonalize(cfg, **kw)
            frames.append((cfg, fr.frame))
            return fr

        monkeypatch.setattr(dynamics, "joint_diagonalize", spy)
        loose = run(cfgs, p, integ, [1, 2])
        # Every recorded frame meets the rule: restarted from it, the
        # position rule runs no iteration.
        for cfg, frame in frames:
            assert joint_diagonalize(cfg, initial_frame=frame, position_tol=tol).sweeps == 0
        monkeypatch.setattr(dynamics, "FRAME_DISPLACEMENT_FRACTION", 0.0)
        strict = run(cfgs, p, integ, [1, 2])
        for a, b in zip(loose, strict):
            assert np.array_equal(bits(a.spectra), bits(b.spectra))
            assert a.converged.all() and b.converged.all()
            # The rule bounds the next update's shift by tol; at a linear
            # contraction ratio r per iteration the shifts still to come add
            # up to about tol / (1 - r), 10 tol at r = 0.9.  This run's two
            # slowest frames (241 and 90 iterations under the strict rule)
            # land at 8.6 and 7.3 tol, the others at most at 5.4 tol.  Sorted
            # per direction: a near-tie may order two particles differently
            # in the two runs.
            gap = np.abs(np.sort(a.positions, axis=1) - np.sort(b.positions, axis=1))
            assert gap.max() <= 10 * tol
        assert sum(r.sweeps.sum() for r in loose) < sum(r.sweeps.sum() for r in strict)


class TestAliasing:
    def test_steps_leave_input_unchanged(self):
        p = ModelParams(d=3, N=5, kappa=0.3)
        cfg = moving_configs(p, 1, 3)[0]
        X0, V0 = cfg.X.copy(), cfg.V.copy()
        out = step_langevin(cfg, p, 0.01, 0.5, 0.3, np.random.default_rng(0))
        assert not np.shares_memory(out.X, cfg.X) and not np.shares_memory(out.V, cfg.V)
        assert np.array_equal(bits(cfg.X), bits(X0))
        assert np.array_equal(bits(cfg.V), bits(V0))

    @pytest.mark.parametrize("mode", ["microcanonical", "langevin"])
    def test_recorded_states_not_overwritten(self, mode, monkeypatch):
        # run() updates its stacked X and V in place; every configuration
        # it records, and every final_config, must be a copy.
        seen = spy_joint_diagonalize(monkeypatch)
        p = ModelParams(d=2, N=4)
        integ = integrator(mode, dt=0.01, steps=6, record_every=1, record_frames=True)
        cfgs = moving_configs(p, 2, 5)
        inputs = [(c.X.copy(), c.V.copy()) for c in cfgs]
        records = run(cfgs, p, integ, [1, 2])
        assert len(seen) == 2 * 7
        for cfg, X, V in seen:
            assert np.array_equal(bits(cfg.X), bits(X))
            assert np.array_equal(bits(cfg.V), bits(V))
        for cfg, (X, V) in zip(cfgs, inputs):
            assert np.array_equal(bits(cfg.X), bits(X)) and np.array_equal(bits(cfg.V), bits(V))
        finals = [(r.final_config.X.copy(), r.final_config.V.copy()) for r in records]
        # Chaining a run from a final_config leaves that final_config alone.
        run([records[0].final_config], p, integ, [3])
        for rec, (X, V) in zip(records, finals):
            assert np.array_equal(bits(rec.final_config.X), bits(X))
            assert np.array_equal(bits(rec.final_config.V), bits(V))
        assert not np.shares_memory(records[0].final_config.X, records[1].final_config.X)
