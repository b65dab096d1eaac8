"""Statistical-estimator tests on synthetic processes with known answers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from matrixqm import estimators
from matrixqm.core import ModelParams
from matrixqm.estimators import (
    EigenTrajectory,
    FieldEstimate,
    Grid,
    SweepSettings,
    continuity_residual,
    emergent_hbar,
    estimate_current_velocity,
    estimate_diffusion,
    irrotationality_residual,
    predicted_diffusion,
    scaled_temperature,
    scaling_sweep,
    silverman_bandwidth,
    temperature_for_scaled,
    track_particles,
)
from matrixqm.estimators import _assign, _match


def brownian_trajectories(nu, R, T, dt, seed, x0=None):
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, np.sqrt(2 * nu * dt), size=(R, T, 1, 1))
    if x0 is not None:
        steps[:, 0, 0, 0] = x0(rng, R)
    else:
        steps[:, 0] = 0.0
    paths = np.cumsum(steps, axis=1)
    times = np.arange(T) * dt
    return EigenTrajectory(times=times, positions=paths)


def ou_trajectories(theta, nu, R, T, dt, seed, sigma0):
    rng = np.random.default_rng(seed)
    xs = np.zeros((R, T))
    xs[:, 0] = rng.normal(0.0, sigma0, size=R)
    for k in range(1, T):
        xs[:, k] = xs[:, k - 1] * (1 - theta * dt) + rng.normal(
            0.0, np.sqrt(2 * nu * dt), size=R)
    times = np.arange(T) * dt
    return EigenTrajectory(times=times, positions=xs[:, :, None, None])


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
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        trajs = track_particles(np.stack([pos] * 4)[None], np.arange(4.0))
        assert trajs.positions.shape == (1, 4, 3, 2)
        assert np.array_equal(trajs.positions[0, 0], trajs.positions[0, -1])

    def test_crossing_resolved_by_distance(self):
        # Two particles drift toward and past each other; nearest-neighbour
        # matching keeps the labels continuous instead of swapping at overlap.
        times = np.linspace(0, 1, 21)
        frames = []
        for t in times:
            a = np.array([-1.0 + 1.8 * t, 0.0])
            b = np.array([1.0 - 1.8 * t, 0.1])
            frames.append(np.stack(sorted([a, b], key=lambda r: (r[0], r[1]))))
        trajs = track_particles(np.stack(frames)[None], times)
        jumps = np.max(np.abs(np.diff(trajs.positions, axis=1)))
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

    def test_ambiguous_steps_flag_a_jump_past_a_neighbour(self):
        # Particles at x = 0, 1, 3.  In the second frame the one at 0 jumps
        # to 1.2, past its neighbour, which moves to 0.9.  The minimum-
        # displacement match swaps their labels, and its move of 0 -> 0.9
        # exceeds half the nearest-neighbour distance (0.5).  The third frame
        # moves every particle by 0.05, less than half of the 0.3 gap.
        xs = [[0.0, 1.0, 3.0], [0.9, 1.2, 3.0], [0.95, 1.25, 3.05]]
        trajs = track_particles(np.array(xs)[None, :, :, None], np.arange(3.0))
        assert trajs.ambiguous.tolist() == [[False, True, False]]
        assert np.array_equal(trajs.positions[0, 1, :, 0], [0.9, 1.2, 3.0])

    def test_replicas_tracked_independently(self):
        # Each replica of an ensemble is tracked as it would be alone.
        rng = np.random.default_rng(13)
        ensemble = rng.normal(size=(3, 5, 6, 2))
        trajs = track_particles(ensemble, np.arange(5.0))
        assert trajs.positions.shape == (3, 5, 6, 2)
        for r in range(3):
            alone = track_particles(ensemble[r:r + 1], np.arange(5.0))
            for name in ("positions", "ambiguous"):
                assert np.array_equal(getattr(trajs, name)[r], getattr(alone, name)[0]), name

    def test_no_ambiguous_steps_for_small_moves(self):
        rng = np.random.default_rng(12)
        base = np.sort(rng.uniform(0, 10, size=(12, 2)), axis=0)
        frames = [base + 1e-3 * rng.normal(size=base.shape) for _ in range(5)]
        trajs = track_particles(np.stack(frames)[None], np.arange(5.0))
        assert not trajs.ambiguous.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_rejected(self, bad):
        # A non-finite cost would keep the Hungarian search from terminating.
        xs = np.array([[0.0, 1.0, 3.0], [0.9, 1.2, 3.0], [0.95, 1.25, 3.05]])
        xs[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            track_particles(xs[None, :, :, None], np.arange(3.0))


def total(cost, cols):
    return cost[np.arange(len(cost)), cols].sum()


class TestAssignmentProperties:
    """_assign and _match against scipy's linear_sum_assignment."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([2, 5, 1000]), st.integers(0, 2**32 - 1))
    def test_integer_costs_optimal(self, n, top, seed):
        # Small ranges give many tied optima; integer totals are exact.
        cost = np.random.default_rng(seed).integers(0, top, size=(n, n)).astype(float)
        cols = _assign(cost)
        assert sorted(cols) == list(range(n))
        rows, ref = linear_sum_assignment(cost)
        assert total(cost, cols) == total(cost, ref)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_real_costs_optimal(self, n, seed):
        cost = np.random.default_rng(seed).exponential(size=(n, n))
        cols = _assign(cost)
        assert sorted(cols) == list(range(n))
        assert total(cost, cols) == total(cost, linear_sum_assignment(cost)[1])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.sampled_from([1, 2, 3]), st.floats(0.01, 2.0),
           st.integers(0, 2**32 - 1))
    def test_shuffled_jittered_points_match_scipy(self, n, d, jitter, seed):
        # Continuous random points: the optimal permutation is unique.
        rng = np.random.default_rng(seed)
        prev = rng.normal(size=(n, d))
        cur = (prev + jitter * rng.normal(size=(n, d)))[rng.permutation(n)]
        cost = np.sum((prev[:, None, :] - cur[None, :, :]) ** 2, axis=2)
        assert np.array_equal(_match(prev, cur), linear_sum_assignment(cost)[1])


class TestAssignmentFastPath:
    @pytest.fixture
    def hungarian_calls(self, monkeypatch):
        calls = []
        hungarian = estimators._hungarian

        def spy(cost):
            calls.append(cost)
            return hungarian(cost)

        monkeypatch.setattr(estimators, "_hungarian", spy)
        return calls

    def test_strict_row_minima_skip_hungarian(self, hungarian_calls):
        cost = np.array([[0.1, 2.0, 3.0], [2.0, 3.0, 0.2], [1.0, 0.3, 4.0]])
        assert _assign(cost).tolist() == [0, 2, 1]
        assert hungarian_calls == []

    def test_tied_row_minima_take_hungarian(self, hungarian_calls):
        # The row argmins [0, 1, 2] form a permutation, but row 0's minimum
        # is tied, so the optimum need not be unique.
        cost = np.array([[0.0, 0.0, 2.0], [2.0, 1.0, 3.0], [3.0, 3.0, 0.0]])
        cols = _assign(cost)
        assert len(hungarian_calls) == 1
        assert total(cost, cols) == total(cost, linear_sum_assignment(cost)[1])


class TestDensity:
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
        trajs = EigenTrajectory(times=times, positions=pos[:, :, None, None])
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


class TestContinuity:
    def analytic_fields(self, n, dt=0.002, sigma=0.8, c=1.0):
        grid = Grid.regular(-4.0, 4.0, n)
        x = grid.axes[0]

        def rho_at(t):
            r = np.exp(-(x - c * t) ** 2 / (2 * sigma**2))
            return r / (r.sum() * grid.cell_volume)

        rhos = [rho_at(-dt), rho_at(0.0), rho_at(dt)]
        v = np.full((1, n), c)
        est = FieldEstimate(grid=grid, v=v,
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

    def test_needs_three_snapshots(self):
        rhos, est, dt = self.analytic_fields(21)
        with pytest.raises(ValueError, match="need 3 density snapshots, got 2"):
            continuity_residual(rhos[:2], est, dt)


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

    def test_no_interior_cell_zero(self):
        # A 2 x 2 grid is all boundary.
        g = Grid.regular(-1.0, 1.0, 2, ndim=2)
        mesh = np.meshgrid(*g.axes, indexing="ij")
        est = FieldEstimate(grid=g, v=np.stack([-mesh[1], mesh[0]]))
        assert irrotationality_residual(est) == 0.0

    def test_constant_field_zero(self):
        g = Grid.regular(-1.0, 1.0, 9, ndim=2)
        est = FieldEstimate(grid=g, v=np.ones((2, 9, 9)))
        assert irrotationality_residual(est) == 0.0


class TestDiffusion:
    def test_brownian_recovery(self):
        nu = 0.25
        trajs = brownian_trajectories(nu, 100, 2000, 0.01, 12)
        est = estimate_diffusion(trajs, (5, 50))
        assert abs(est.nu_hat - nu) / nu < 0.03
        assert est.stderr > 0

    def test_linear_motion_zero(self):
        times = np.arange(100) * 0.01
        positions = 0.3 * np.arange(8.0)[:, None] + 2.0 * times
        trajs = EigenTrajectory(times=times, positions=positions[:, :, None, None])
        est = estimate_diffusion(trajs, (5, 50))
        assert est.nu_hat < 1e-20

    def test_stationary_ou_short_window(self):
        theta, nu, dt = 1.0, 0.2, 0.01
        trajs = ou_trajectories(theta, nu, 400, 200, dt, 13, np.sqrt(nu / theta))
        est = estimate_diffusion(trajs, (1, 10))
        assert abs(est.nu_hat - nu) / nu < 0.05

    def test_window_too_narrow(self):
        trajs = brownian_trajectories(0.1, 10, 100, 0.01, 15)
        with pytest.raises(ValueError):
            estimate_diffusion(trajs, (1, 3))

    def test_lags_beyond_the_records_do_not_count(self):
        trajs = brownian_trajectories(0.1, 10, 8, 0.01, 15)
        with pytest.raises(ValueError, match="give 3 lags"):
            estimate_diffusion(trajs, (5, 50))

    def test_lag_window_is_exact_off_zero(self):
        # Records at 10.0 + 0.1 k are spaced 0.09999999999999964 apart, so a
        # window in time (0.5, 5.0) would lose lag 5 to rounding; in lags it
        # keeps it, and the fit equals the one on the same paths at 0.1 k.
        paths = brownian_trajectories(0.1, 10, 60, 0.1, 16).positions
        late = EigenTrajectory(times=10.0 + 0.1 * np.arange(60), positions=paths)
        early = EigenTrajectory(times=0.1 * np.arange(60), positions=paths)
        assert late.times[1] - late.times[0] < 0.1
        assert estimate_diffusion(late, (5, 50)).nu_hat == pytest.approx(
            estimate_diffusion(early, (5, 50)).nu_hat, rel=1e-12)
        # Lags 5..9 of 10 records: exactly the minimum of 5.
        short = EigenTrajectory(times=late.times[:10], positions=paths[:, :10])
        assert estimate_diffusion(short, (5, 50)).nu_hat > 0

    @pytest.mark.parametrize("R", [2, 4, 8])
    def test_stderr_matches_spread(self, R):
        # Over many ensembles of 16 Brownian particles per replica, the mean
        # squared stderr matches the variance of nu_hat.
        nu, T, dt, n_ens = 0.1, 60, 0.1, 400
        rng = np.random.default_rng(R)
        nus, var = [], []
        for _ in range(n_ens):
            steps = rng.normal(0.0, np.sqrt(2 * nu * dt), size=(R, T, 16, 1))
            steps[:, 0] = 0.0
            est = estimate_diffusion(EigenTrajectory(
                times=np.arange(T) * dt, positions=np.cumsum(steps, axis=1)), (5, 50))
            nus.append(est.nu_hat)
            var.append(est.stderr**2)
        assert 0.7 <= np.mean(var) / np.var(nus, ddof=1) <= 1.3

    def test_single_replica_stderr_nan(self):
        # One replica of 8 particles (one particle alone has no motion left
        # after the drift correction).
        paths = brownian_trajectories(0.1, 8, 60, 0.1, 17).positions
        trajs = EigenTrajectory(times=0.1 * np.arange(60), positions=paths.transpose(2, 1, 0, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_diffusion(trajs, (5, 50))
        assert est.nu_hat > 0
        assert np.isnan(est.stderr)

    def test_single_path_rejected(self):
        # The drift correction would subtract the path's own displacement and
        # leave nu_hat = 0.
        trajs = brownian_trajectories(0.1, 1, 60, 0.1, 17)
        with pytest.raises(ValueError, match="R \\* N = 1 paths"):
            estimate_diffusion(trajs, (5, 50))


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
        pts = [q for q, _, _ in scaling_sweep(p, st, 7)]
        assert len(pts) == 1
        q = pts[0]
        assert q.N == 4
        assert q.t_scaled == pytest.approx(0.1)
        assert q.T == pytest.approx(8 * 1 * 0.1 / 4)
        for val in (q.nu_hat, q.nu_stderr, q.nu_pred, q.hbar_emergent,
                    q.irrot_residual, q.mean_frame_residual):
            assert np.isfinite(val)
        assert q.nonconverged_frames == 0
        assert 1.0 <= q.mean_frame_sweeps < 100.0
        (q2, _, _), = scaling_sweep(p, st, 7)
        assert q2.nu_hat == q.nu_hat

    def test_nonconverged_frames_summed_over_replicas(self, monkeypatch):
        import dataclasses

        from matrixqm import dynamics

        jd = dynamics.joint_diagonalize
        monkeypatch.setattr(dynamics, "joint_diagonalize", lambda *a, **k: dataclasses.replace(
            jd(*a, **k), converged=False))
        p = ModelParams(d=2, N=4)
        st = SweepSettings(t_scaled=0.1, N_list=[4], replicas=2, burn_in_steps=0,
                           steps=100, dt=0.02, gamma=0.5, record_every=5, spread=0.3)
        # 21 recorded frames (t = 0 and every 5th of 100 steps) per replica
        (q, _, _), = scaling_sweep(p, st, 7)
        assert q.nonconverged_frames == 2 * 21
