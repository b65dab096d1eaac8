"""Statistical-estimator tests on synthetic processes with known answers."""

import numpy as np
import pytest

from matrixqm.core import ModelParams
from matrixqm.estimators import (
    EigenTrajectory,
    FieldEstimate,
    Grid,
    SweepSettings,
    continuity_residual,
    emergent_hbar,
    estimate_current_velocity,
    estimate_density,
    estimate_diffusion,
    estimate_osmotic_velocity,
    irrotationality_residual,
    predicted_diffusion,
    scaled_temperature,
    scaling_sweep,
    silverman_bandwidth,
    temperature_for_scaled,
    track_particles,
)
from matrixqm.estimators import _match


def brownian_trajectories(nu, R, T, dt, seed, x0=None):
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, np.sqrt(2 * nu * dt), size=(R, T, 1, 1))
    if x0 is not None:
        steps[:, 0, 0, 0] = x0(rng, R)
    else:
        steps[:, 0] = 0.0
    paths = np.cumsum(steps, axis=1)
    times = np.arange(T) * dt
    return [EigenTrajectory(times=times, positions=paths[r], replica_id=r)
            for r in range(R)]


def ou_trajectories(theta, nu, R, T, dt, seed, sigma0):
    rng = np.random.default_rng(seed)
    xs = np.zeros((R, T))
    xs[:, 0] = rng.normal(0.0, sigma0, size=R)
    for k in range(1, T):
        xs[:, k] = xs[:, k - 1] * (1 - theta * dt) + rng.normal(
            0.0, np.sqrt(2 * nu * dt), size=R)
    times = np.arange(T) * dt
    return [EigenTrajectory(times=times, positions=xs[r][:, None, None],
                            replica_id=r) for r in range(R)]


class TestGrid:
    def test_regular_1d(self):
        g = Grid.regular(-2.0, 2.0, 21)
        assert g.ndim == 1
        assert g.shape == (21,)
        assert g.spacings[0] == pytest.approx(0.2)
        assert g.cell_volume == pytest.approx(0.2)

    def test_regular_2d_points(self):
        g = Grid.regular(0.0, 1.0, 5, ndim=2)
        pts = g.points()
        assert pts.shape == (25, 2)
        assert g.cell_volume == pytest.approx(0.0625)


class TestTracking:
    def test_identity_when_static(self):
        from matrixqm.core import ParticleFrame
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        frames = [ParticleFrame(positions=pos.copy(), residual=0.0,
                                frame=np.eye(3), converged=True)
                  for _ in range(4)]
        trajs = track_particles(frames, np.arange(4.0))
        assert trajs.positions.shape == (4, 3, 2)
        assert np.array_equal(trajs.positions[0], trajs.positions[-1])

    def test_crossing_resolved_by_distance(self):
        # Two particles drift toward and past each other; nearest-neighbour
        # matching keeps the labels continuous instead of swapping at overlap.
        from matrixqm.core import ParticleFrame
        times = np.linspace(0, 1, 21)
        frames = []
        for t in times:
            a = np.array([-1.0 + 1.8 * t, 0.0])
            b = np.array([1.0 - 1.8 * t, 0.1])
            pos = np.stack(sorted([a, b], key=lambda r: (r[0], r[1])))
            frames.append(ParticleFrame(positions=pos, residual=0.0,
                                        frame=np.eye(2), converged=True))
        trajs = track_particles(frames, times)
        jumps = np.max(np.abs(np.diff(trajs.positions, axis=0)))
        assert jumps < 0.2  # no label swap (a swap would jump by ~2)


    def test_match_is_optimal_beyond_64_particles(self):
        # 33 far-apart pairs at (10k, 0) and (10k + 1, 0) move by +0.9 along x.
        # Pairing each particle with its own moved copy costs 0.81 per
        # particle; nearest-first greedy pairing takes the 0.01 cross match
        # and is left with a 3.61 one.
        base = np.array([[10.0 * k + dx, 0.0] for k in range(33) for dx in (0.0, 1.0)])
        p = _match(base, base + [0.9, 0.0])
        assert len(base) == 66
        assert np.array_equal(p, np.arange(66))


class TestDensity:
    def test_gaussian_recovered(self):
        rng = np.random.default_rng(0)
        # 50 replicas x 200 particles of standard-normal positions.
        samples = rng.normal(0.0, 1.0, size=(50, 200))
        times = np.array([0.0])
        trajs = [EigenTrajectory(times=times, positions=s[None, :, None],
                                 replica_id=i) for i, s in enumerate(samples)]
        grid = Grid.regular(-4.0, 4.0, 81)
        est = estimate_density(trajs, 0.0, grid, silverman_bandwidth(samples.ravel()))
        truth = np.exp(-grid.axes[0] ** 2 / 2) / np.sqrt(2 * np.pi)
        l1 = np.sum(np.abs(est.rho - truth)) * grid.cell_volume
        assert l1 < 0.05
        assert np.sum(est.rho) * grid.cell_volume == pytest.approx(1.0, abs=1e-9)

    def test_needs_multiple_replicas(self):
        trajs = brownian_trajectories(0.1, 1, 10, 0.01, 3)
        grid = Grid.regular(-1, 1, 11)
        with pytest.raises(ValueError):
            estimate_density(trajs, 0.0, grid, 0.2)

    def test_silverman_positive(self):
        rng = np.random.default_rng(5)
        assert silverman_bandwidth(rng.normal(size=500)) > 0


class TestCurrentVelocity:
    def test_uniform_drift_recovered(self):
        c, R, T, dt = 0.7, 60, 30, 0.01
        times = np.arange(T) * dt
        rng = np.random.default_rng(8)
        x0 = rng.normal(0, 1, R)
        pos = x0[:, None] + c * times[None, :]
        trajs = [EigenTrajectory(times=times, positions=pos[r][:, None, None],
                                 replica_id=r) for r in range(R)]
        grid = Grid.regular(-2, 2, 17)
        vf = estimate_current_velocity(trajs, times[T // 2], grid, 0.3)
        assert np.allclose(vf.v[0][vf.mask], c, atol=1e-9)

    def test_ou_contraction_slope(self):
        # Broad non-stationary start: the current velocity field is -theta*x.
        theta, nu = 1.0, 0.2
        sigma0 = np.sqrt(100 * nu / theta)
        trajs = ou_trajectories(theta, nu, 1500, 40, 0.01, 9, sigma0)
        grid = Grid.regular(-2 * sigma0, 2 * sigma0, 25)
        vf = estimate_current_velocity(trajs, 0.2, grid, 0.4, lag=5)
        g = grid.axes[0][vf.mask.ravel()]
        v = vf.v[0].ravel()[vf.mask.ravel()]
        slope = np.polyfit(g, v, 1)[0]
        assert abs(-slope - theta) / theta < 0.05

    def test_stationary_ensemble_velocity_vanishes(self):
        # At stationarity the current velocity is identically zero even
        # though individual paths keep moving.
        theta, nu = 1.0, 0.2
        trajs = ou_trajectories(theta, nu, 2000, 40, 0.01, 10,
                                np.sqrt(nu / theta))
        grid = Grid.regular(-1.0, 1.0, 15)
        vf = estimate_current_velocity(trajs, 0.2, grid, 0.2, lag=5)
        within = np.abs(vf.v[0][vf.mask]) <= 3 * vf.v_stderr[0][vf.mask]
        assert within.mean() > 0.8


class TestOsmoticVelocity:
    def test_gaussian_exact(self):
        # For a Gaussian rho, u = nu d/dx ln rho = -nu x / sigma^2 exactly
        # up to central-difference error on log of a quadratic (zero).
        grid = Grid.regular(-3.0, 3.0, 61)
        sigma, nu = 0.8, 0.25
        rho = np.exp(-grid.axes[0] ** 2 / (2 * sigma**2))
        rho /= rho.sum() * grid.cell_volume
        est = FieldEstimate(grid=grid, rho=rho, mask=np.ones(61, dtype=bool))
        u = estimate_osmotic_velocity(est, nu)
        interior = slice(1, -1)
        expected = -nu * grid.axes[0][interior] / sigma**2
        assert np.max(np.abs(u.u[0][interior] - expected)) < 1e-10


class TestContinuity:
    def analytic_fields(self, n, dt=0.002, sigma=0.8, c=1.0):
        grid = Grid.regular(-4.0, 4.0, n)
        x = grid.axes[0]

        def rho_at(t):
            r = np.exp(-(x - c * t) ** 2 / (2 * sigma**2))
            return r / (r.sum() * grid.cell_volume)

        rhos = [rho_at(-dt), rho_at(0.0), rho_at(dt)]
        v = np.full((1, n), c)
        est = FieldEstimate(grid=grid, rho=rhos[1], v=v,
                            mask=np.ones(n, dtype=bool))
        return rhos, est, dt

    def test_residual_small(self):
        rhos, est, dt = self.analytic_fields(101)
        assert continuity_residual(rhos, est, dt) < 5e-3

    def test_refinement_order(self):
        r1 = continuity_residual(*self._args(101))
        r2 = continuity_residual(*self._args(201))
        order = np.log2(r1 / r2)
        assert order >= 1.8

    def _args(self, n):
        rhos, est, dt = self.analytic_fields(n)
        return rhos, est, dt


class TestIrrotationality:
    def test_gradient_flow_small(self):
        g = Grid.regular(-2.0, 2.0, 41, ndim=2)
        mesh = np.meshgrid(*g.axes, indexing="ij")
        v = np.stack([np.cos(mesh[0]), np.cos(mesh[1])])  # grad of sin+sin
        est = FieldEstimate(grid=g, v=v)
        assert irrotationality_residual(est) < 5e-2

    def test_rotation_flagged(self):
        g = Grid.regular(-2.0, 2.0, 41, ndim=2)
        mesh = np.meshgrid(*g.axes, indexing="ij")
        v = np.stack([-mesh[1], mesh[0]])
        est = FieldEstimate(grid=g, v=v)
        assert irrotationality_residual(est) > 0.5

    def test_one_dimensional_zero(self):
        g = Grid.regular(-1.0, 1.0, 11)
        est = FieldEstimate(grid=g, v=np.ones((1, 11)))
        assert irrotationality_residual(est) == 0.0


class TestDiffusion:
    def test_brownian_recovery(self):
        nu = 0.25
        trajs = brownian_trajectories(nu, 100, 2000, 0.01, 12)
        est = estimate_diffusion(trajs, (0.05, 0.5))
        assert abs(est.nu_hat - nu) / nu < 0.03
        assert est.stderr > 0

    def test_linear_motion_zero(self):
        times = np.arange(100) * 0.01
        trajs = [EigenTrajectory(times=times,
                                 positions=(0.3 * r + 2.0 * times)[:, None, None],
                                 replica_id=r)
                 for r in np.arange(8.0)]
        est = estimate_diffusion(trajs, (0.05, 0.5))
        assert est.nu_hat < 1e-20

    def test_stationary_ou_short_window(self):
        theta, nu, dt = 1.0, 0.2, 0.01
        trajs = ou_trajectories(theta, nu, 400, 200, dt, 13, np.sqrt(nu / theta))
        est = estimate_diffusion(trajs, (dt, 10 * dt))
        assert abs(est.nu_hat - nu) / nu < 0.05

    def test_quadratic_variation_method(self):
        nu = 0.1
        trajs = brownian_trajectories(nu, 50, 1000, 0.01, 14)
        est = estimate_diffusion(trajs, (0.01, 0.1), method="quadratic_variation")
        assert abs(est.nu_hat - nu) / nu < 0.05

    def test_window_too_narrow(self):
        trajs = brownian_trajectories(0.1, 10, 100, 0.01, 15)
        with pytest.raises(ValueError):
            estimate_diffusion(trajs, (0.01, 0.03))


class TestFormulaLayer:
    def test_scaled_temperature_examples(self):
        p = ModelParams(d=2, N=8, mu=1.0, omega=1.0)
        assert scaled_temperature(p, 1.0, 8) == pytest.approx(1.0, abs=1e-12)
        assert scaled_temperature(p, 0.5, 16) == pytest.approx(1.0, abs=1e-12)
        assert scaled_temperature(p, 0.0, 8) == 0.0

    def test_predicted_diffusion_examples(self):
        p2 = ModelParams(d=2, N=4, omega=1.0)
        p3 = ModelParams(d=3, N=4, omega=2.0)
        assert predicted_diffusion(p2, 1.0) == pytest.approx(0.5, abs=1e-12)
        assert predicted_diffusion(p2, 0.0) == 0.0
        assert predicted_diffusion(p3, 1.0) == pytest.approx(
            2 * 3 / (4 * 2**1.5), abs=1e-12)

    def test_emergent_hbar_examples(self):
        p = ModelParams(d=2, N=4, mu=2.0)
        assert emergent_hbar(p, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert emergent_hbar(p, 0.0) == 0.0
        p1 = ModelParams(d=2, N=4, mu=1.0, omega=1.0)
        assert emergent_hbar(p1, predicted_diffusion(p1, 1.0)) == pytest.approx(
            0.5, abs=1e-12)

    def test_round_trip_temperature(self):
        p = ModelParams(d=3, N=12, mu=1.7, omega=0.8)
        T = temperature_for_scaled(p, 0.07, 12)
        assert scaled_temperature(p, T, 12) == pytest.approx(0.07, rel=1e-14)

    def test_d1_rejected(self):
        p = ModelParams(d=1, N=4)
        with pytest.raises(ValueError):
            scaled_temperature(p, 1.0, 4)
        with pytest.raises(ValueError):
            predicted_diffusion(p, 1.0)


class TestScalingSweep:
    def test_smoke_and_determinism(self):
        p = ModelParams(d=2, N=4)
        st = SweepSettings(t_scaled=0.1, N_list=[4], replicas=2, burn_in_steps=100,
                           steps=300, dt=0.02, gamma=0.5, record_every=5, spread=0.3)
        pts = scaling_sweep(p, st, 7)
        assert len(pts) == 1
        q = pts[0]
        assert q.N == 4
        assert q.t_scaled == pytest.approx(0.1)
        assert q.T == pytest.approx(8 * 1 * 0.1 / 4)
        for val in (q.nu_hat, q.nu_stderr, q.nu_pred, q.hbar_emergent,
                    q.irrot_residual, q.mean_frame_residual):
            assert np.isfinite(val)
        pts2 = scaling_sweep(p, st, 7)
        assert pts2[0].nu_hat == q.nu_hat
