"""Statistical-estimator tests on synthetic processes with known answers."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from matrixqm.core import (
    MatrixConfiguration,
    ModelParams,
    joint_diagonalize,
    random_special_orthogonal,
)
from matrixqm.estimators import (
    TRACK_MIN_OVERLAP,
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
from matrixqm.estimators import _iqr

from kernel_oracles import reference_silverman_bandwidth


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


def frame_chain(family, swap_at=None):
    """Joint-diagonalize a list of configurations as run() does: a cold
    start, then each frame warm-started from the one before.  Returns the
    positions (T, N, d) and each frame's smallest row overlap with the frame
    before, read off the diagonal of O_k O_(k-1)^T (nan at frame 0).  With
    swap_at = k, frame k starts from frame k - 1 with its rows 0 and 1 turned
    through 90 degrees."""
    positions, overlaps, prev = [], [], None
    for k, cfg in enumerate(family):
        start = prev
        if k == swap_at:
            start = prev[[1, 0, *range(2, len(prev))]]
            start[1] *= -1.0
        fr = joint_diagonalize(cfg, initial_frame=start)
        positions.append(fr.positions)
        overlaps.append(np.nan if prev is None else np.min(np.abs(np.diag(fr.frame @ prev.T))))
        prev = fr.frame
    return np.array(positions), np.array(overlaps)


def drifting_family(paths, seed, drift=0.05):
    """Commuting configurations with the particle paths (T, N, d) as their
    joint eigenvalues: frame k is G_k diag(paths[k]) G_k^T with
    G_k = S^k R P in SO(N), for a fixed random permutation P, a random start
    R and a step S that turns by at most drift radians."""
    T, N, d = paths.shape
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(N, N))
    A = B - B.T
    A *= drift / np.linalg.norm(A, 2)
    step = np.linalg.solve(np.eye(N) - 0.5 * A, np.eye(N) + 0.5 * A)  # Cayley: in SO(N)
    G = random_special_orthogonal(N, rng) @ np.eye(N)[rng.permutation(N)]
    if np.linalg.det(G) < 0:
        G[:, 0] *= -1.0
    family = []
    for x in paths:
        X = np.einsum("ij,ja,kj->aik", G, x, G)
        family.append(MatrixConfiguration(X=X, V=np.zeros_like(X)))
        G = step @ G
    return family


def crossing_paths(N, d, seed, T=21):
    """Particle i rides near height i in direction 1 (every pair at least
    0.9 apart) while x_i runs from c_i to -c_i, so the order in x reverses."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, size=N)
    s = np.linspace(0.0, 1.0, T)[:, None]
    paths = np.empty((T, N, d))
    paths[:, :, 0] = (1.0 - 2.0 * s) * c
    paths[:, :, 1] = np.arange(N) + 0.05 * np.sin(3.0 * s + c)
    paths[:, :, 2:] = rng.uniform(-1.0, 1.0, size=(1, N, d - 2)) + 0.1 * s[:, :, None]
    return paths


class TestFrameRowIdentity:
    """Warm-started frames carry each particle in its own row."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    def test_rows_follow_known_paths(self, N, d, seed):
        paths = crossing_paths(N, d, seed)
        family = drifting_family(paths, seed)
        positions, overlaps = frame_chain(family)
        order = np.lexsort(paths[0].T[::-1])  # the cold start's row order
        assert np.max(np.abs(positions - paths[:, order])) < 1e-8
        assert np.all(overlaps[1:] >= TRACK_MIN_OVERLAP)
        trajs = track_particles(positions[None], np.arange(len(paths)), overlaps[None])
        assert not trajs.ambiguous.any()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.sampled_from([2, 3]), st.integers(1, 20),
           st.integers(0, 2**32 - 1))
    def test_swapped_rows_flagged(self, N, d, k, seed):
        # Rows 0 and 1 turned through 90 degrees between records k - 1 and k
        # trade their particles from k on, and only that step is flagged.
        paths = crossing_paths(N, d, seed)
        positions, overlaps = frame_chain(drifting_family(paths, seed), swap_at=k)
        order = np.lexsort(paths[0].T[::-1])
        swapped = order.copy()
        swapped[[0, 1]] = order[[1, 0]]
        assert np.max(np.abs(positions[:k] - paths[:k, order])) < 1e-8
        assert np.max(np.abs(positions[k:] - paths[k:, swapped])) < 1e-8
        trajs = track_particles(positions[None], np.arange(len(paths)), overlaps[None])
        assert np.flatnonzero(trajs.ambiguous[0]).tolist() == [k]


class TestTracking:
    def test_identity_when_static(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        overlaps = np.array([[np.nan, 1.0, 1.0, 1.0]])
        trajs = track_particles(np.stack([pos] * 4)[None], np.arange(4.0), overlaps)
        assert trajs.positions.shape == (1, 4, 3, 2)
        assert np.array_equal(trajs.positions[0, 0], trajs.positions[0, -1])
        assert not trajs.ambiguous.any()

    def test_crossing_keeps_labels(self):
        # Two particles cross in x while 0.1 apart in y.  A sort by x would
        # swap their rows at the crossing; the warm-started frames keep them.
        times = np.linspace(0, 1, 21)
        a = np.stack([-1.0 + 1.8 * times, np.zeros_like(times)], axis=1)
        b = np.stack([1.0 - 1.8 * times, np.full_like(times, 0.1)], axis=1)
        positions, overlaps = frame_chain(drifting_family(np.stack([a, b], axis=1), 3))
        assert np.max(np.abs(positions[:, 0] - a)) < 1e-8
        assert np.max(np.abs(positions[:, 1] - b)) < 1e-8
        assert np.all(overlaps[1:] >= TRACK_MIN_OVERLAP)

    def test_steps_flagged_by_overlap(self):
        # Below TRACK_MIN_OVERLAP flags the step into that frame; nan (a
        # frame without predecessor) and the bound itself do not.
        overlaps = np.array([[np.nan, 0.5, TRACK_MIN_OVERLAP, 0.89, 1.0]])
        trajs = track_particles(np.zeros((1, 5, 3, 1)), np.arange(5.0), overlaps)
        assert trajs.ambiguous.tolist() == [[False, True, False, True, False]]

    def test_ambiguous_steps_flag_a_jump_past_a_neighbour(self):
        # Particles at x = 0, 1, 3.  In the second frame the one at 0 jumps
        # to 1.2, past its neighbour, which moves to 0.9; the third frame
        # moves every particle by 0.05.  Cold-started frames sort their rows
        # by position, so rows 0 and 1 trade particles at that jump: their
        # eigenvectors turn through 90 degrees and only that step is flagged.
        paths = np.array([[0.0, 1.0, 3.0], [1.2, 0.9, 3.0], [1.25, 0.95, 3.05]])[:, :, None]
        frames = [joint_diagonalize(cfg) for cfg in drifting_family(paths, 4, drift=0.0)]
        overlaps = [np.nan] + [np.min(np.abs(np.diag(b.frame @ a.frame.T)))
                               for a, b in zip(frames, frames[1:])]
        positions = np.array([fr.positions for fr in frames])
        trajs = track_particles(positions[None], np.arange(3.0), np.array([overlaps]))
        assert trajs.ambiguous.tolist() == [[False, True, False]]
        assert np.allclose(trajs.positions[0, 1, :, 0], [0.9, 1.2, 3.0], atol=1e-10)

    def test_no_ambiguous_steps_for_small_moves(self):
        # Twelve particles jitter by 1e-3 while the frame turns slowly: the
        # warm-started rows barely turn, so no step is flagged.
        rng = np.random.default_rng(12)
        base = np.sort(rng.uniform(0, 10, size=(12, 2)), axis=0)
        paths = np.stack([base + 1e-3 * rng.normal(size=base.shape) for _ in range(5)])
        positions, overlaps = frame_chain(drifting_family(paths, 12))
        trajs = track_particles(positions[None], np.arange(5.0), overlaps[None])
        assert np.all(overlaps[1:] >= TRACK_MIN_OVERLAP)
        assert not trajs.ambiguous.any()

    def test_replicas_tracked_independently(self):
        # Each replica of an ensemble is tracked as it would be alone.
        rng = np.random.default_rng(13)
        ensemble = rng.normal(size=(3, 5, 6, 2))
        overlaps = rng.uniform(0.8, 1.0, size=(3, 5))
        trajs = track_particles(ensemble, np.arange(5.0), overlaps)
        assert trajs.positions.shape == (3, 5, 6, 2)
        for r in range(3):
            alone = track_particles(ensemble[r:r + 1], np.arange(5.0), overlaps[r:r + 1])
            for name in ("positions", "ambiguous"):
                assert np.array_equal(getattr(trajs, name)[r], getattr(alone, name)[0]), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_positions_rejected(self, bad):
        # A non-finite position would poison every estimate downstream.
        xs = np.array([[0.0, 1.0, 3.0], [0.9, 1.2, 3.0], [0.95, 1.25, 3.05]])
        xs[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            track_particles(xs[None, :, :, None], np.arange(3.0), np.ones((1, 3)))


# 1 to 300 samples: free floats (signed zeros among them), a few repeated
# values with both zeros, or one constant.
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
FREE = st.floats(-1e3, 1e3, allow_nan=False)
BANDWIDTH_SAMPLES = st.integers(1, 300).flatmap(lambda n: st.one_of(
    arrays(float, n, elements=FREE),
    arrays(float, n, elements=st.one_of(TIED, FREE)),
    arrays(float, n, elements=TIED),
    FREE.map(lambda x: np.full(n, x)),
))


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestDensity:
    def test_silverman_positive(self):
        rng = np.random.default_rng(5)
        assert silverman_bandwidth(rng.normal(size=500)) > 0

    # _iqr must keep np.percentile's bits, so that the bandwidth, and every
    # artifact that uses it, is what np.percentile would give.  np.percentile
    # stays the reference: a numpy release that changes its arithmetic fails
    # here.
    @settings(max_examples=400, deadline=None)
    @given(BANDWIDTH_SAMPLES)
    # The 75th percentile of three samples lies halfway between the upper
    # two, where a + (b - a)/2 and b - (b - a)/2 differ in the last bit here.
    @example(np.array([5.811181041963531e-08, -5.369532353602852e-05, -5.369532353602852e-05]))
    def test_partition_iqr_matches_percentile(self, s):
        assert same_bits(_iqr(s), np.subtract(*np.percentile(s, [75, 25])))
        assert same_bits(silverman_bandwidth(s), reference_silverman_bandwidth(s))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([None, 0, 1, 2]))
    def test_partition_iqr_matches_percentile_for_a_walker_ensemble(self, seed, decimals):
        # The oracle's ensembles hold 20 000 walkers; rounding makes ties.
        s = np.random.default_rng(seed).normal(size=20_000)
        if decimals is not None:
            s = np.round(s, decimals)
        assert same_bits(_iqr(s), np.subtract(*np.percentile(s, [75, 25])))
        assert same_bits(silverman_bandwidth(s), reference_silverman_bandwidth(s))

    @settings(max_examples=100, deadline=None)
    @given(BANDWIDTH_SAMPLES, st.data())
    def test_nan_sample_gives_nan_bandwidth(self, s, data):
        s = s.copy()
        s[data.draw(st.integers(0, len(s) - 1))] = np.nan
        assert np.isnan(_iqr(s)) and np.isnan(np.subtract(*np.percentile(s, [75, 25])))
        bw, ref = silverman_bandwidth(s), reference_silverman_bandwidth(s)
        if len(s) == 1:  # the spread of one sample is taken as 1, nan or not
            assert bw == ref == 0.9
        else:
            assert np.isnan(bw) and np.isnan(ref)


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
        v = vf.v[0][vf.mask]
        # Flat: a contracting ensemble's field has slope -theta.  Small: one
        # path's symmetric-difference velocity spreads ten times wider.
        assert abs(np.polyfit(grid.axes[0][vf.mask], v, 1)[0]) < 0.3 * theta
        tau2 = trajs.times[25] - trajs.times[15]
        path_v = (trajs.positions[:, 25] - trajs.positions[:, 15]) / tau2
        assert np.max(np.abs(v)) < 0.2 * path_v.std()


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
                    q.mean_frame_residual):
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

    def test_turned_frames_counted_as_ambiguous_steps(self, monkeypatch):
        # Three frames come back with rows 0 and 1 turned through 90 degrees.
        # Each is a step with overlap about 0; the frame after it starts from
        # the turned rows, so its step is not flagged.
        from matrixqm import dynamics

        p = ModelParams(d=2, N=4)
        st = SweepSettings(t_scaled=0.1, N_list=[4], replicas=2, burn_in_steps=0,
                           steps=100, dt=0.02, gamma=0.5, record_every=5, spread=0.3)
        (plain, _, _), = scaling_sweep(p, st, 7)
        assert plain.ambiguous_steps == 0
        jd, calls = dynamics.joint_diagonalize, []

        def turned(*args, **kwargs):
            fr = jd(*args, **kwargs)
            calls.append(fr)
            if len(calls) in (5, 10, 31):  # never a replica's first frame (calls 1, 2)
                fr.frame = fr.frame[[1, 0, 2, 3]]
                fr.frame[1] *= -1.0
                fr.positions = fr.positions[[1, 0, 2, 3]]
            return fr

        monkeypatch.setattr(dynamics, "joint_diagonalize", turned)
        (q, _, _), = scaling_sweep(p, st, 7)
        assert q.ambiguous_steps == 3
