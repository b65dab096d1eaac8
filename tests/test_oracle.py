"""Quantum-oracle tests: Schrodinger propagation, Madelung decomposition,
and the stochastic (walker) representation of the same dynamics."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixqm.cli import EXIT_OK, main
from matrixqm.estimators import silverman_bandwidth
from matrixqm.oracle import (
    KDE_REACH,
    NelsonEnsemble,
    WaveFunction,
    compare_densities,
    evolve_schrodinger,
    free_packet_width,
    gaussian_packet,
    grid_interp,
    harmonic_eigenstate,
    kde_cell,
    madelung_decompose,
    nelson_drift,
    nelson_evolve,
    walker_density,
)

HBAR, MASS = 1.0, 1.0


def periodic_grid(L=40.0, n=512):
    return np.linspace(-L / 2, L / 2, n, endpoint=False)


def bits(a):
    """The raw IEEE-754 bits (float or complex), so equality tells 0.0 from -0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def dense_density(walkers, x, bw):
    """walker_density as one dense grid x walkers array."""
    d2 = (x[:, None] - walkers[None, :]) ** 2
    dense = np.exp(-0.5 * d2 / bw**2).sum(axis=1)
    return dense / (dense.sum() * (x[1] - x[0]))


def binning_bound(walkers, x, bw):
    """Bound on max|walker_density - dense_density| from the binning error.

    Binning on a cell delta interpolates each walker's kernel term
    K(y) = exp(-y**2 / (2 bw**2)), y = x - w, linearly between two nodes at
    most delta from w, so the term is off by at most delta**2 / 8 times the
    largest |K''| within delta of y.  bw**2 |K''(y)| = |s**2 - 1| exp(-s**2 / 2)
    with s = |y| / bw is at most 1, and it falls with s past sqrt(3).  Summed
    over the walkers, that bounds the unnormalized sums S pointwise by E and
    their integrals Z = h sum(S) by eta = h sum(E); so
    |S' / Z' - S / Z| <= (E + (S / Z) eta) / (Z - eta), plus a rounding
    slack of 1e-12 of the peak.  inf when eta >= Z.
    """
    h = x[1] - x[0]
    cell = kde_cell(x, bw)[0]
    s = np.abs(x[:, None] - walkers[None, :]) / bw
    S = np.exp(-0.5 * s**2).sum(axis=1)
    s = np.maximum(s - cell / bw, 0.0)
    curvature = np.where(s < np.sqrt(3.0), 1.0, (s**2 - 1) * np.exp(-0.5 * s**2))
    E = (cell / bw) ** 2 / 8 * curvature.sum(axis=1)
    Z, eta = S.sum() * h, E.sum() * h
    if Z <= eta:
        return np.inf
    return np.max((E + S / Z * eta) / (Z - eta)) + 1e-12 * S.max() / Z


@pytest.fixture(autouse=True)
def _quiet_timestep_warning():
    # The accuracy warning bounds dt * max|V| over the whole box, not the
    # accuracy where the packet sits; each test asserts accuracy itself.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


class TestStates:
    def test_gaussian_packet_normalized(self):
        x = periodic_grid()
        wf = gaussian_packet(x, 0.0, 1.0, 0.0, HBAR, MASS)
        assert wf.norm == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_orthonormal(self):
        x = periodic_grid()
        states = [harmonic_eigenstate(x, n, 1.0, HBAR, MASS) for n in range(4)]
        h = x[1] - x[0]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                ov = np.sum(np.conj(a.psi) * b.psi) * h
                assert abs(ov - (1.0 if i == j else 0.0)) < 1e-10

    def test_ground_state_width(self):
        x = periodic_grid()
        wf = harmonic_eigenstate(x, 0, 2.0, HBAR, MASS)
        var = np.sum(x**2 * wf.density()) * wf.h
        assert var == pytest.approx(HBAR / (2 * MASS * 2.0), rel=1e-10)


class TestSchrodinger:
    def test_free_packet_width_split_step(self):
        x = periodic_grid()
        wf = gaussian_packet(x, 0.0, 1.0, 0.0, HBAR, MASS)
        out = evolve_schrodinger(wf, np.zeros_like(x), 1e-3, 1000)
        var = np.sum(x**2 * out.density()) * out.h
        sigma = np.sqrt(var)
        assert abs(sigma - free_packet_width(1.0, 1.0, HBAR, MASS)) < 1e-4
        assert abs(out.norm - 1.0) < 1e-10

    def test_moving_packet_group_velocity(self):
        x = periodic_grid()
        p0 = 1.5
        wf = gaussian_packet(x, -3.0, 1.0, p0, HBAR, MASS)
        out = evolve_schrodinger(wf, np.zeros_like(x), 1e-3, 2000)
        mean = np.sum(x * out.density()) * out.h
        assert mean == pytest.approx(-3.0 + p0 / MASS * 2.0, abs=1e-3)

    def test_harmonic_ground_state_stationary(self):
        x = periodic_grid()
        wf = harmonic_eigenstate(x, 0, 1.0, HBAR, MASS)
        V = 0.5 * MASS * x**2
        # The O(dt^2) Trotter deformation is periodic; use a timestep small
        # enough that it stays under tolerance at all intermediate times.
        out = evolve_schrodinger(wf, V, 1e-4, 10000)
        assert np.max(np.abs(out.density() - wf.density())) < 1e-8

    def test_coherent_state_oscillates(self):
        # A displaced ground state swings back to the displaced mirror point
        # after half a period.
        x = periodic_grid()
        omega0 = 1.0
        wf0 = harmonic_eigenstate(x, 0, omega0, HBAR, MASS)
        shift = 1.2
        psi = np.interp(x - shift, x, wf0.psi.real) + 0j
        wf = WaveFunction(x=x, psi=psi, hbar=HBAR, mass=MASS).normalized()
        V = 0.5 * MASS * omega0**2 * x**2
        half_period = np.pi / omega0
        out = evolve_schrodinger(wf, V, 1e-3, int(round(half_period / 1e-3)))
        mean = np.sum(x * out.density()) * out.h
        assert mean == pytest.approx(-shift, abs=5e-3)

    def test_free_packet_one_long_step(self):
        # The kinetic factor is exact in Fourier space, so at V = 0 one step
        # of per * dt is per steps of dt, and the clock keeps its bits.
        x = periodic_grid()
        wf = gaussian_packet(x, 0.3, 1.0, 0.7, HBAR, MASS)
        dt, per = 1e-3, 125
        one = evolve_schrodinger(wf, np.zeros_like(x), per * dt, 1)
        many = evolve_schrodinger(wf, np.zeros_like(x), dt, per)
        assert np.max(np.abs(one.psi - many.psi)) <= 1e-12
        assert one.time == many.time

    @pytest.mark.parametrize("omega0", [0.0, 1.0])
    def test_split_step_bitwise_equal_to_out_of_place_loop(self, omega0):
        x = periodic_grid()
        wf = gaussian_packet(x, 0.3, 1.0, 0.7, HBAR, MASS)
        V = 0.5 * MASS * omega0**2 * x**2
        dt, steps = 1e-3, 200
        k = 2.0 * np.pi * np.fft.fftfreq(len(x), d=wf.h)
        half_v = np.exp(-0.5j * V * dt / HBAR)
        kin = np.exp(-0.5j * HBAR * k**2 * dt / MASS)
        psi0 = wf.psi.copy()
        psi = wf.psi
        for _ in range(steps):
            psi = half_v * psi
            psi = np.fft.ifft(kin * np.fft.fft(psi))
            psi = half_v * psi
        out = evolve_schrodinger(wf, V, dt, steps)
        assert np.array_equal(bits(out.psi), bits(psi))
        assert np.array_equal(bits(wf.psi), bits(psi0))  # input kept

    def test_complex_potential_rejected(self):
        # The dtype is checked before the cast, which would evolve V = 0.5i as V = 0.
        x = periodic_grid()
        wf = gaussian_packet(x, 0.0, 1.0, 0.0, HBAR, MASS)
        with pytest.raises(ValueError, match="V must be real"):
            evolve_schrodinger(wf, np.full(len(x), 0.5j), 1e-3, 10)


class TestMadelung:
    def test_round_trip(self):
        x = periodic_grid()
        wf = gaussian_packet(x, 0.5, 1.2, 0.7, HBAR, MASS)
        md = madelung_decompose(wf)
        S = np.where(np.isfinite(md.S), md.S, 0.0)
        back = WaveFunction(x, np.sqrt(md.rho) * np.exp(1j * S / HBAR), HBAR, MASS).normalized()
        # The reconstruction can differ by a global phase; compare densities
        # and the phase differences on the occupied region.
        assert np.max(np.abs(back.density() - wf.density())) < 1e-12
        assert np.all(np.isfinite(back.psi))
        dphi = np.angle(back.psi[md.mask] * np.conj(wf.psi[md.mask]))
        assert np.max(np.abs(dphi - dphi[0])) < 1e-8

    def test_plane_wave_slope(self):
        x = periodic_grid()
        p0 = 1.7
        rho = np.full_like(x, 1.0 / (x[-1] - x[0] + (x[1] - x[0])))
        psi = np.sqrt(rho) * np.exp(1j * p0 * x / HBAR)
        back = madelung_decompose(WaveFunction(x, psi, HBAR, MASS).normalized())
        slope = np.polyfit(x[back.mask], back.S[back.mask], 1)[0]
        assert slope == pytest.approx(p0, rel=1e-10)

    def test_node_masked(self):
        x = periodic_grid()
        wf = harmonic_eigenstate(x, 1, 1.0, HBAR, MASS)
        md = madelung_decompose(wf, rho_floor_frac=1e-6)
        node = np.argmin(np.abs(x))
        assert not md.mask[node]
        assert np.isnan(md.S[node])
        assert md.mask.sum() > 50  # occupied region kept


class TestNelson:
    def test_drift_of_gaussian(self):
        # For a zero-momentum Gaussian at t=0: v = 0 and
        # u = nu d/dx ln rho = -nu x / sigma^2.
        x = periodic_grid()
        sigma, nu = 1.0, HBAR / (2 * MASS)
        wf = gaussian_packet(x, 0.0, sigma, 0.0, HBAR, MASS)
        dr = nelson_drift(wf, nu)
        sel = np.abs(x) < 2.0
        assert np.max(np.abs(dr.v[sel])) < 1e-8
        assert np.max(np.abs(dr.u[sel] + nu * x[sel] / sigma**2)) < 1e-6

    def test_free_packet_cross_validation(self):
        x = periodic_grid()
        sigma0 = 1.0
        wf = gaussian_packet(x, 0.0, sigma0, 0.0, HBAR, MASS)
        t_end = 2 * MASS * sigma0**2 / HBAR
        dt = 0.002
        nsnap = 40
        per = int(round(t_end / nsnap / dt))
        snaps = [wf]
        for _ in range(nsnap):
            snaps.append(evolve_schrodinger(snaps[-1], np.zeros_like(x), dt, per))
        rng = np.random.default_rng(5)
        nu = HBAR / (2 * MASS)
        ens = nelson_evolve(
            NelsonEnsemble(walkers=rng.normal(0, sigma0, 30000)),
            snaps, nu, dt, nsnap * per, seed=7)
        bw = 1.06 * np.std(ens.walkers) * len(ens.walkers) ** -0.2
        rho_w = walker_density(ens.walkers, x, bw)
        assert compare_densities(rho_w, snaps[-1].density(), "L1", wf.h) < 0.05
        var = ens.walkers.var()
        expect = free_packet_width(sigma0, t_end, HBAR, MASS) ** 2
        assert abs(var - expect) / expect < 0.05

    def test_harmonic_ground_state_stationary_walkers(self):
        x = periodic_grid()
        omega0 = 1.0
        wf = harmonic_eigenstate(x, 0, omega0, HBAR, MASS)
        nu = HBAR / (2 * MASS)
        sig = np.sqrt(HBAR / (2 * MASS * omega0))
        rng = np.random.default_rng(6)
        ens = nelson_evolve(
            NelsonEnsemble(walkers=rng.normal(0, sig, 20000)),
            wf, nu, 0.005, 2000, seed=8)
        var = ens.walkers.var()
        se = sig**2 * np.sqrt(2.0 / 20000)
        assert abs(var - sig**2) < 4 * se
        bw = 1.06 * np.std(ens.walkers) * len(ens.walkers) ** -0.2
        rho_w = walker_density(ens.walkers, x, bw)
        assert compare_densities(rho_w, wf.density(), "L1", wf.h) < 0.05

    def test_walkers_deterministic(self):
        x = periodic_grid()
        wf = gaussian_packet(x, 0.0, 1.0, 0.0, HBAR, MASS)
        rng = np.random.default_rng(9)
        w0 = rng.normal(0, 1, 500)
        nu = HBAR / (2 * MASS)
        a = nelson_evolve(NelsonEnsemble(walkers=w0.copy()), wf, nu,
                          0.01, 50, seed=3)
        b = nelson_evolve(NelsonEnsemble(walkers=w0.copy()), wf, nu,
                          0.01, 50, seed=3)
        assert np.array_equal(a.walkers, b.walkers)

    def test_frozen_wavefunction_same_as_one_snapshot_list(self):
        # A narrow box makes walkers reflect, so the counts are compared too.
        x = periodic_grid(L=6.0, n=128)
        wf = gaussian_packet(x, 0.5, 1.0, 0.8, HBAR, MASS)
        w0 = np.random.default_rng(10).normal(0, 1.5, 2000)
        nu = HBAR / (2 * MASS)
        a = nelson_evolve(NelsonEnsemble(walkers=w0.copy()), wf, nu,
                          0.01, 100, seed=4)
        b = nelson_evolve(NelsonEnsemble(walkers=w0.copy()), [wf], nu,
                          0.01, 100, seed=4)
        assert a.reflections > 0
        assert a.reflections == b.reflections
        assert np.array_equal(a.walkers, b.walkers)


class TestGridInterp:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.floats(0.1, 50.0), st.booleans(), st.integers(0, 2**32 - 1))
    def test_bitwise_equal_to_np_interp(self, n, L, endpoint, seed):
        rng = np.random.default_rng(seed)
        xp = np.linspace(-L / 2, L / 2, n, endpoint=endpoint)
        fp = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
        fp[rng.random(n) < 0.1] = -0.0
        # Inside and outside the grid, on grid points, on both ends, at +-0.
        x = np.concatenate([rng.uniform(-L / 2 - 1, L / 2 + 1, 500), xp[rng.integers(0, n, 20)],
                            [xp[0], xp[-1], -0.0, 0.0]])
        got = grid_interp(x, xp, fp, np.diff(fp) / np.diff(xp))
        assert np.array_equal(got.view(np.uint64), np.interp(x, xp, fp).view(np.uint64))


class TestComparisons:
    def test_identical_densities(self):
        x = periodic_grid()
        rho = gaussian_packet(x, 0.0, 1.0, 0.0, HBAR, MASS).density()
        h = x[1] - x[0]
        assert compare_densities(rho, rho, "L1", h) == 0.0
        assert compare_densities(rho, rho, "KS", h) == 0.0

    def test_ks_shifted_normal(self):
        # KS distance between N(0,1) and N(0.1, 1) is 2*Phi(0.05) - 1.
        g = np.linspace(-10, 10, 4001)
        h = g[1] - g[0]
        r1 = np.exp(-g**2 / 2) / np.sqrt(2 * np.pi)
        r2 = np.exp(-(g - 0.1) ** 2 / 2) / np.sqrt(2 * np.pi)
        from scipy.stats import norm
        expect = 2 * norm.cdf(0.05) - 1
        assert compare_densities(r1, r2, "KS", h) == pytest.approx(expect, abs=1e-3)

    def test_walker_density_normalized(self):
        x = periodic_grid()
        rng = np.random.default_rng(11)
        rho = walker_density(rng.normal(0, 1, 2000), x, 0.3)
        assert np.sum(rho) * (x[1] - x[0]) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        n_walkers=st.integers(1, 3000),
        n_grid=st.integers(9, 167),
        bw=st.floats(0.01, 3.0),
        spread=st.floats(0.0, 3.0),  # walker sd, in bandwidths
        half_width=st.floats(1.0, 60.0),  # grid half-width, in bandwidths
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walker_density_within_binning_bound(self, n_walkers, n_grid, bw, spread,
                                                 half_width, seed):
        # Grids from 25 cells per bandwidth to 13 bandwidths per cell: the
        # coarse ones are refined up to 67-fold.
        walkers = np.random.default_rng(seed).normal(0.0, spread * bw, n_walkers)
        x = np.linspace(-half_width * bw, half_width * bw, n_grid, endpoint=False)
        err = np.max(np.abs(walker_density(walkers, x, bw) - dense_density(walkers, x, bw)))
        assert err <= binning_bound(walkers, x, bw)

    @settings(max_examples=80, deadline=None)
    @given(
        n_walkers=st.integers(1, 3000),
        n_grid=st.integers(9, 167),
        bw=st.floats(0.01, 3.0),
        half_width=st.floats(1.0, 60.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_walker_density_exact_for_walkers_on_grid_points(self, n_walkers, n_grid, bw,
                                                              half_width, seed):
        x = np.linspace(-half_width * bw, half_width * bw, n_grid, endpoint=False)
        walkers = x[np.random.default_rng(seed).integers(0, n_grid, n_walkers)]
        dense = dense_density(walkers, x, bw)
        assert np.max(np.abs(walker_density(walkers, x, bw) - dense)) <= 1e-12 * dense.max()

    def test_walker_density_reach(self):
        # Walkers past either end of the grid but within reach count as in
        # the dense sum; walkers past the reach count for nothing, there too.
        bw = 0.3
        x = np.linspace(-3.0, 3.0, 121)
        rng = np.random.default_rng(14)
        near = np.concatenate([rng.normal(0.0, 1.0, 500),
                               rng.uniform(-3.0 - 4 * bw, -3.0, 50),
                               rng.uniform(3.0, 3.0 + 4 * bw, 50)])
        far = np.array([-3.0 - 1.001 * KDE_REACH * bw, 3.0 + 1.001 * KDE_REACH * bw, 1e6])
        rho = walker_density(near, x, bw)
        assert np.max(np.abs(rho - dense_density(near, x, bw))) <= binning_bound(near, x, bw)
        both = np.concatenate([near, far])
        assert np.array_equal(dense_density(both, x, bw), dense_density(near, x, bw))
        assert np.max(np.abs(walker_density(both, x, bw) - rho)) <= 1e-14 * rho.max()

    def test_walker_density_refines_coarse_grid(self):
        # A grid spacing of 2 bandwidths is binned on a tenth of it.
        bw = 0.25
        x = np.linspace(-6.0, 6.0, 25)
        cell, refine = kde_cell(x, bw)
        assert refine == 10 and cell == pytest.approx(bw / 5, rel=1e-12)
        walkers = np.random.default_rng(15).normal(0.0, 1.5, 2000)
        err = np.max(np.abs(walker_density(walkers, x, bw) - dense_density(walkers, x, bw)))
        assert err <= binning_bound(walkers, x, bw) < 0.1 * dense_density(walkers, x, bw).max()

    @pytest.mark.parametrize("walkers,x,bw,match", [
        # Silverman's rule floors the bandwidth of coinciding samples at
        # about 1e-12; binning on a cell of it would take ~1e11 cells.
        (np.full(16, 0.5), np.linspace(0.0, 1.0, 11), None, "more than 128-fold"),
        (np.array([0.0, np.nan, 1.0]), np.linspace(0.0, 1.0, 11), 0.3, "not all finite"),
        (np.zeros(3), np.array([0.0, 0.1, 0.3, 0.4]), 0.3, "not uniform"),
        (np.zeros(3), np.linspace(0.0, 1.0, 11), 0.0, "not finite and > 0"),
        (np.zeros(3), np.linspace(0.0, 1.0, 11), np.inf, "not finite and > 0"),
        (np.array([1e6]), np.linspace(0.0, 1.0, 11), 0.3, "within the kernel's reach"),
    ])
    def test_walker_density_refuses(self, walkers, x, bw, match):
        with pytest.raises(ValueError, match=match):
            walker_density(walkers, x, silverman_bandwidth(walkers) if bw is None else bw)

    def test_walker_density_smallest_subnormal(self):
        # One walker on a fine grid: the kernel takes every value down to the
        # smallest subnormal, which exp gives just above -745.13, and then 0.
        x = np.arange(0.0, 40.0, 1e-3)
        k = np.exp(-0.5 * x**2)
        assert (k == np.nextafter(0.0, 1.0)).any() and (k == 0).any()
        walkers = np.zeros(1)
        assert np.array_equal(bits(walker_density(walkers, x, 1.0)),
                              bits(dense_density(walkers, x, 1.0)))


def test_timestep_warning_fires():
    # Split-step is exact for V = 0 at any dt, so only the potential phase
    # dt * max|V| / hbar is checked: 0.05 * 200 = 10 here.
    x = np.linspace(-20, 20, 2048, endpoint=False)
    wf = gaussian_packet(x, 0.0, 1.0, 0.0, HBAR, MASS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        evolve_schrodinger(wf, np.zeros_like(x), 0.05, 1)
        with pytest.raises(RuntimeWarning, match=r"dt\*max\|V\|/hbar = 10 > 0\.1"):
            evolve_schrodinger(wf, 0.5 * MASS * x**2, 0.05, 1)


def test_oracle_default_config_does_not_warn(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["oracle", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
