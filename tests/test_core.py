"""Tests for the matrix-configuration layer: potential, forces, symmetry,
gauge covariance, and joint diagonalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from matrixqm.core import (
    ORDERED,
    UNORDERED,
    MatrixConfiguration,
    ModelParams,
    ShapeError,
    com_momentum,
    eigenvalues,
    force,
    force_raw,
    gauge_transform,
    joint_diagonalize,
    kinetic_energy,
    potential_energy,
    random_config,
    random_special_orthogonal,
    symmetrize,
    total_energy,
    translate,
)
from matrixqm.core import _stacked_force

from kernel_oracles import loop_force, reference_joint_diagonalize


def fd_force(config, params, h=1e-6):
    """Central finite-difference gradient of -U per independent upper-triangle
    entry, mapped back to the full symmetric matrix layout with the weights
    w = 1 (diagonal) and w = 2 (off-diagonal) divided back out."""
    d, N = params.d, params.N
    out = np.zeros_like(config.X)
    for a in range(d):
        for i in range(N):
            for j in range(i, N):
                Xp = config.X.copy()
                Xm = config.X.copy()
                Xp[a, i, j] += h
                Xp[a, j, i] = Xp[a, i, j]
                Xm[a, i, j] -= h
                Xm[a, j, i] = Xm[a, i, j]
                cp = MatrixConfiguration(X=Xp, V=config.V)
                cm = MatrixConfiguration(X=Xm, V=config.V)
                g = -(potential_energy(cp, params) - potential_energy(cm, params)) / (2 * h)
                w = 1.0 if i == j else 2.0
                out[a, i, j] = g / w
                out[a, j, i] = out[a, i, j]
    return out


class TestModelParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ModelParams(d=0, N=4)
        with pytest.raises(ValueError):
            ModelParams(d=2, N=1)
        with pytest.raises(ValueError):
            ModelParams(d=2, N=4, mu=0.0)
        with pytest.raises(ValueError):
            ModelParams(d=2, N=4, omega=-1.0)
        with pytest.raises(ValueError):
            ModelParams(d=2, N=4, kappa=-0.1)
        with pytest.raises(ValueError):
            ModelParams(d=2, N=4, pair_sum="bogus")

    def test_derived(self):
        p = ModelParams(d=3, N=5, mu=2.0, omega=1.5)
        assert p.epsilon == pytest.approx(2.0 * 1.5**2)
        assert p.n_dof == 3 * 5 * 6 // 2


class TestPotential:
    def test_hand_worked_value(self):
        # d=2, N=2: X_1 = diag(1,-1), X_2 = [[0,1],[1,0]];
        # [X_1, X_2] = [[0,2],[-2,0]], ||C||_F^2 = 8, U = mu w^2 * 8.
        X = np.zeros((2, 2, 2))
        X[0] = np.diag([1.0, -1.0])
        X[1] = np.array([[0.0, 1.0], [1.0, 0.0]])
        cfg = MatrixConfiguration(X=X, V=np.zeros_like(X))
        p = ModelParams(d=2, N=2, mu=1.0, omega=1.0)
        assert potential_energy(cfg, p) == pytest.approx(8.0, abs=1e-13)

    def test_nonnegative_and_zero_on_commuting(self):
        rng = np.random.default_rng(0)
        p = ModelParams(d=3, N=4)
        cfg = random_config(p, spread=1.0, seed=4)
        assert potential_energy(cfg, p) >= 0.0
        diag = np.stack([np.diag(rng.normal(size=4)) for _ in range(3)])
        cfg0 = MatrixConfiguration(X=diag, V=np.zeros_like(diag))
        assert potential_energy(cfg0, p) == 0.0

    def test_ordered_pairs_doubles(self):
        p1 = ModelParams(d=2, N=4)
        p2 = ModelParams(d=2, N=4, pair_sum=ORDERED)
        cfg = random_config(p1, spread=0.7, seed=11)
        assert potential_energy(cfg, p2) == pytest.approx(
            2.0 * potential_energy(cfg, p1), rel=1e-14)
        f1 = force(cfg, p1)
        f2 = force(cfg, p2)
        assert np.allclose(f2, 2.0 * f1, rtol=1e-13, atol=0.0)

    def test_regulator_term(self):
        p0 = ModelParams(d=2, N=3, kappa=0.0)
        pk = ModelParams(d=2, N=3, kappa=0.5)
        cfg = random_config(p0, spread=0.5, seed=2)
        tr2 = sum(np.trace(cfg.X[a] @ cfg.X[a]) for a in range(2))
        expected = potential_energy(cfg, p0) + 0.5 * pk.epsilon * tr2
        assert potential_energy(cfg, pk) == pytest.approx(expected, rel=1e-13)


class TestKinetic:
    def test_mass_weighting(self):
        # K = mu Tr V^2 = sum_e m_e/2 v_e^2 with m = 2mu (diag), 4mu (offdiag).
        p = ModelParams(d=1, N=2, mu=1.5)
        V = np.array([[[1.0, 2.0], [2.0, 3.0]]])
        cfg = MatrixConfiguration(X=np.zeros_like(V), V=V)
        expected = 1.5 * np.trace(V[0] @ V[0])
        assert kinetic_energy(cfg, p) == pytest.approx(expected, rel=1e-14)
        by_entry = 0.5 * (2 * 1.5) * (1.0**2 + 3.0**2) + 0.5 * (4 * 1.5) * 2.0**2
        assert kinetic_energy(cfg, p) == pytest.approx(by_entry, rel=1e-14)

    def test_params_mismatch(self):
        cfg = random_config(ModelParams(d=2, N=3), spread=0.5, seed=9)
        with pytest.raises(ShapeError, match=r"config \(d=2, N=3\) does not match "
                                             r"params \(d=2, N=4\)"):
            kinetic_energy(cfg, ModelParams(d=2, N=4))

    def test_com_momentum(self):
        p = ModelParams(d=2, N=3, mu=2.0)
        cfg = random_config(p, spread=0.5, seed=9)
        pm = com_momentum(cfg, p)
        expect = np.array([2 * 2.0 * np.trace(cfg.V[a]) for a in range(2)])
        assert np.allclose(pm, expect, rtol=1e-14)


class TestForce:
    @pytest.mark.parametrize("d,N", [(2, 2), (2, 4), (3, 4), (2, 8), (3, 8)])
    def test_matches_finite_difference(self, d, N):
        p = ModelParams(d=d, N=N, mu=1.3, omega=0.9, kappa=0.2)
        cfg = random_config(p, spread=0.8, seed=100 + 10 * d + N)
        f = force(cfg, p)
        g = fd_force(cfg, p)
        scale = max(np.max(np.abs(f)), 1.0)
        assert np.max(np.abs(f - g)) / scale < 1e-6

    def test_zero_on_commuting_unregulated(self):
        rng = np.random.default_rng(6)
        p = ModelParams(d=2, N=4, kappa=0.0)
        X = np.stack([np.diag(rng.normal(size=4)) for _ in range(2)])
        cfg = MatrixConfiguration(X=X, V=np.zeros_like(X))
        assert np.max(np.abs(force(cfg, p))) == 0.0

    def test_traceless_when_unregulated(self):
        # The commutator force has exactly zero trace (momentum conservation).
        p = ModelParams(d=3, N=5, kappa=0.0)
        cfg = random_config(p, spread=1.0, seed=21)
        f = force(cfg, p)
        for a in range(3):
            assert abs(np.trace(f[a])) < 1e-12

    def test_symmetric_output(self):
        p = ModelParams(d=2, N=6)
        cfg = random_config(p, spread=0.6, seed=3)
        f = force(cfg, p)
        assert np.array_equal(f, np.transpose(f, (0, 2, 1)))


class TestSymmetry:
    def test_symmetrize_exact(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(3, 5, 5))
        S = symmetrize(M)
        assert np.array_equal(S, np.transpose(S, (0, 2, 1)))

    def test_configuration_enforces_symmetry(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(2, 4, 4))
        cfg = MatrixConfiguration(X=X, V=np.zeros_like(X))
        assert np.array_equal(cfg.X, np.transpose(cfg.X, (0, 2, 1)))

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            MatrixConfiguration(X=np.zeros((2, 3, 4)), V=np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            MatrixConfiguration(X=np.zeros((2, 3, 3)), V=np.zeros((2, 4, 4)))


class TestGauge:
    def test_energy_and_spectrum_invariant(self):
        rng = np.random.default_rng(7)
        p = ModelParams(d=2, N=5, kappa=0.3)
        cfg = random_config(p, spread=0.8, seed=8)
        for _ in range(20):
            O = random_special_orthogonal(5, rng)
            cfg2 = gauge_transform(cfg, O)
            assert potential_energy(cfg2, p) == pytest.approx(
                potential_energy(cfg, p), rel=1e-12)
            assert kinetic_energy(cfg2, p) == pytest.approx(
                kinetic_energy(cfg, p), rel=1e-12)
            for a in range(2):
                assert np.allclose(eigenvalues(cfg2)[a], eigenvalues(cfg)[a],
                                   atol=1e-9)

    def test_force_covariant(self):
        rng = np.random.default_rng(12)
        p = ModelParams(d=2, N=4)
        cfg = random_config(p, spread=0.8, seed=13)
        O = random_special_orthogonal(4, rng)
        f_then_rotate = np.stack([O @ force(cfg, p)[a] @ O.T for a in range(2)])
        f_rotated = force(gauge_transform(cfg, O), p)
        assert np.max(np.abs(f_then_rotate - f_rotated)) < 1e-12

    def test_rejects_non_orthogonal(self):
        p = ModelParams(d=2, N=3)
        cfg = random_config(p, spread=0.5, seed=1)
        with pytest.raises(ValueError):
            gauge_transform(cfg, np.ones((3, 3)))

    def test_translation_u_and_force_invariant(self):
        # With kappa = 0 a trace shift X_a -> X_a + c_a I leaves the
        # commutators, hence U and the forces, exactly unchanged.
        p = ModelParams(d=2, N=4, kappa=0.0)
        cfg = random_config(p, spread=0.7, seed=14)
        shifted = translate(cfg, np.array([0.7, -1.2]))
        assert potential_energy(shifted, p) == pytest.approx(
            potential_energy(cfg, p), rel=1e-13)
        assert np.max(np.abs(force(shifted, p) - force(cfg, p))) < 1e-12

    def test_translation_shifts_spectrum(self):
        p = ModelParams(d=1, N=3)
        cfg = random_config(p, spread=0.5, seed=15)
        shifted = translate(cfg, np.array([2.5]))
        assert np.allclose(eigenvalues(shifted)[0], eigenvalues(cfg)[0] + 2.5,
                           atol=1e-12)


# (N, d, kappa, seed) for the force's gauge covariance.
FORCE_CASES = st.tuples(st.integers(2, 12), st.sampled_from([1, 2, 3]),
                        st.sampled_from([0.0, 0.3]), st.integers(0, 2**32 - 1))

# Stacks of square matrices with any finite entries, signed zeros and
# subnormals included; |x| <= 1e300 keeps m + m^T finite.
MATRIX_STACKS = st.tuples(st.integers(1, 3), st.integers(1, 8)).flatmap(
    lambda dn: arrays(np.float64, (dn[0], dn[1], dn[1]),
                      elements=st.floats(-1e300, 1e300, allow_subnormal=True)))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestGaugeProperties:
    @settings(max_examples=50, deadline=None)
    @given(FORCE_CASES)
    def test_force_raw_covariant(self, case):
        N, d, kappa, seed = case
        p = ModelParams(d=d, N=N, kappa=kappa)
        X = random_config(p, 0.8, seed).X
        O = random_special_orthogonal(N, np.random.default_rng(seed))
        f = force_raw(X, p)
        rotated = force_raw(np.einsum("ij,ajk,lk->ail", O, X, O), p)
        expected = np.einsum("ij,ajk,lk->ail", O, f, O)
        assert np.max(np.abs(rotated - expected)) <= 1e-10 * np.max(np.abs(f))


class TestStackedForce:
    @settings(max_examples=50, deadline=None)
    @given(FORCE_CASES, st.integers(1, 3), st.sampled_from([ORDERED, UNORDERED]))
    def test_bitwise_equal_to_pair_loop(self, case, R, pair_sum):
        N, d, kappa, seed = case
        p = ModelParams(d=d, N=N, kappa=kappa, pair_sum=pair_sum)
        X = np.stack([random_config(p, 0.8, seed + r).X for r in range(R)])
        stacked = _stacked_force(X, p)
        for r in range(R):
            ref = loop_force(X[r], p)
            assert np.array_equal(bits(stacked[r]), bits(ref))
            assert np.array_equal(bits(force_raw(X[r], p)), bits(ref))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["commuting", "zero", "one_zero_direction", "random",
                                      "underflow"])
    @pytest.mark.parametrize("kappa", [0.0, 0.3])
    def test_bitwise_equal_to_pair_loop_exact_zeros(self, d, kind, kappa):
        # Commuting and zero configurations make zero commutators, where the
        # sign of each zero and the order of the sums decide the bits.  At
        # |X| ~ 1e-108 the pair terms are a few subnormal units, and
        # 2 mu omega^2 = 0.2 rounds the smallest negative ones to -0.0.
        N, R = 5, 2
        p = ModelParams(d=d, N=N, mu=0.1 if kind == "underflow" else 1.0, kappa=kappa)
        rng = np.random.default_rng(d)
        if kind == "commuting":
            O = random_special_orthogonal(N, rng)
            X = np.stack([np.stack([O @ np.diag(rng.normal(size=N)) @ O.T for _ in range(d)])
                          for _ in range(R)])
            X = symmetrize(X)
            X[1] = np.stack([np.diag(np.diag(x)) for x in X[1]])  # exactly diagonal
        elif kind == "zero":
            X = np.zeros((R, d, N, N))
            X[1] = -0.0
        else:
            X = np.stack([random_config(p, 0.8, r).X for r in range(R)])
            if kind == "one_zero_direction":
                X[:, 0] = 0.0
            elif kind == "underflow":
                X *= 1e-108
        stacked = _stacked_force(X, p)
        for r in range(R):
            ref = loop_force(X[r], p)
            assert np.array_equal(bits(stacked[r]), bits(ref))
            assert np.array_equal(bits(force_raw(X[r], p)), bits(ref))
        if kind == "zero" or (kind == "commuting" and kappa == 0.0):
            # Replica 1 commutes exactly: its force is all +0.0.
            assert np.array_equal(bits(stacked[1]), bits(np.zeros_like(X[1])))

    @pytest.mark.parametrize("N", [17, 20, 24, 32])
    @pytest.mark.parametrize("d", [2, 3])
    def test_exactly_symmetric_and_stack_independent_at_large_n(self, N, d):
        # Above N = 16 some BLAS kernels return X_b X_a not bitwise equal to
        # (X_a X_b)^T (on OpenBLAS 0.3.31, at N = 1-4 mod 8), so the force no
        # longer matches loop_force bit for bit there.  Exact symmetry and
        # each configuration's force being independent of its stack must
        # still hold.
        R = 3
        p = ModelParams(d=d, N=N, kappa=0.3)
        X = np.stack([random_config(p, 0.8, 100 * N + r).X for r in range(R)])
        stacked = _stacked_force(X, p)
        assert np.array_equal(bits(stacked), bits(np.swapaxes(stacked, -1, -2)))
        for r in range(R):
            assert np.array_equal(bits(stacked[r]), bits(force_raw(X[r], p)))

    def test_force_raw_takes_one_configuration(self):
        p = ModelParams(d=2, N=3)
        X = random_config(p, 0.5, 0).X
        with pytest.raises(ShapeError):
            force_raw(X[None], p)


class TestSymmetrizeProperties:
    @settings(max_examples=200, deadline=None)
    @given(MATRIX_STACKS)
    def test_output_symmetric_and_idempotent(self, m):
        s = symmetrize(m)
        assert np.array_equal(bits(s), bits(np.swapaxes(s, -1, -2)))
        assert np.array_equal(bits(symmetrize(s)), bits(s))

    @settings(max_examples=200, deadline=None)
    @given(MATRIX_STACKS)
    def test_symmetric_input_unchanged(self, m):
        sym = m + np.swapaxes(m, -1, -2)
        assert np.array_equal(symmetrize(sym), sym)


class TestJointDiagonalization:
    def test_commuting_family_recovered(self):
        rng = np.random.default_rng(31)
        for N in (2, 4, 8):
            D = np.stack([np.diag(rng.normal(size=N)) for _ in range(2)])
            O = random_special_orthogonal(N, rng)
            X = np.stack([O.T @ D[a] @ O for a in range(2)])
            cfg = MatrixConfiguration(X=X, V=np.zeros_like(X))
            fr = joint_diagonalize(cfg)
            assert fr.residual < 1e-8
            truth = np.stack([np.diag(D[a]) for a in range(2)], axis=1)
            truth = truth[np.lexsort(truth.T[::-1])]
            assert np.max(np.abs(fr.positions - truth)) < 1e-10

    def test_frame_is_special_orthogonal(self):
        p = ModelParams(d=2, N=6)
        cfg = random_config(p, spread=0.6, seed=33)
        fr = joint_diagonalize(cfg)
        assert np.max(np.abs(fr.frame @ fr.frame.T - np.eye(6))) < 1e-12
        assert np.linalg.det(fr.frame) == pytest.approx(1.0, abs=1e-12)

    def test_single_matrix_matches_eigh(self):
        p = ModelParams(d=1, N=5)
        cfg = random_config(p, spread=0.9, seed=34)
        fr = joint_diagonalize(cfg)
        lam = np.linalg.eigvalsh(cfg.X[0])
        assert np.allclose(np.sort(fr.positions[:, 0]), lam, atol=1e-9)
        assert fr.residual < 1e-9

    def test_positions_sorted_lexicographically(self):
        p = ModelParams(d=2, N=6)
        cfg = random_config(p, spread=0.6, seed=35)
        fr = joint_diagonalize(cfg)
        key = fr.positions[:, 0] + 1e-9 * fr.positions[:, 1]
        assert np.all(np.diff(key) >= -1e-12)

    def test_warm_start_agrees(self):
        p = ModelParams(d=2, N=8)
        cfg = random_config(p, spread=0.5, seed=36)
        cold = joint_diagonalize(cfg)
        warm = joint_diagonalize(cfg, initial_frame=cold.frame)
        assert warm.residual <= cold.residual * (1 + 1e-9)
        assert np.max(np.abs(warm.positions - cold.positions)) < 1e-6

    def test_sweep_count(self):
        cfg = random_config(ModelParams(d=2, N=6), spread=0.6, seed=33)
        full = joint_diagonalize(cfg)
        assert full.converged and 2 <= full.sweeps < 100
        capped = joint_diagonalize(cfg, max_sweeps=1)
        assert capped.sweeps == 1 and not capped.converged
        assert joint_diagonalize(cfg, max_sweeps=0).sweeps == 0

    def test_gauge_invariant_positions(self):
        rng = np.random.default_rng(40)
        p = ModelParams(d=2, N=5)
        cfg = random_config(p, spread=0.5, seed=41)
        fr = joint_diagonalize(cfg)
        fr2 = joint_diagonalize(gauge_transform(cfg, random_special_orthogonal(5, rng)))
        assert np.max(np.abs(fr.positions - fr2.positions)) < 1e-6
        assert fr2.residual == pytest.approx(fr.residual, rel=1e-6)


def thermal_frame(N=16, seed=3):
    """A d = 2 configuration after a Langevin burn-in on the t = 0.1 line."""
    from matrixqm.dynamics import LANGEVIN, IntegratorConfig, run

    p = ModelParams(d=2, N=N)
    integ = IntegratorConfig(mode=LANGEVIN, dt=0.02, steps=200, gamma=0.5,
                             temperature=0.8 / N, record_every=200)
    return run([random_config(p, 0.3, seed)], p, integ, [seed])[0].final_config


class TestJacobiStoppingRule:
    def test_warm_start_from_converged_frame_runs_no_iteration(self):
        cfg = thermal_frame()
        cold = joint_diagonalize(cfg)
        assert cold.converged and cold.sweeps > 0
        warm = joint_diagonalize(cfg, initial_frame=cold.frame)
        assert warm.converged and warm.sweeps == 0
        assert np.max(np.abs(warm.positions - cold.positions)) < 1e-12
        assert warm.residual == pytest.approx(cold.residual, rel=1e-12)

    def test_iteration_cap_on_thermal_frame(self):
        capped = joint_diagonalize(thermal_frame(), max_sweeps=1)
        assert capped.sweeps == 1 and not capped.converged

    def test_warm_start_keeps_the_frame_row_order(self):
        # A frame that meets the stop rules in any row order runs no
        # iteration, and its rows come back in the order they went in, in
        # an array of their own.
        cfg = thermal_frame()
        cold = joint_diagonalize(cfg)
        perm = np.random.default_rng(4).permutation(cfg.N)
        start = cold.frame[perm]
        warm = joint_diagonalize(cfg, initial_frame=start)
        assert warm.converged and warm.sweeps == 0
        assert np.array_equal(warm.frame, start) and not np.shares_memory(warm.frame, start)
        assert np.max(np.abs(warm.positions - cold.positions[perm])) < 1e-12

    def test_warm_start_from_position_rule_frame_runs_no_iteration(self):
        cfg = thermal_frame()
        cold = joint_diagonalize(cfg, position_tol=1e-4)
        assert cold.converged and 0 < cold.sweeps < joint_diagonalize(cfg).sweeps
        warm = joint_diagonalize(cfg, initial_frame=cold.frame, position_tol=1e-4)
        assert warm.converged and warm.sweeps == 0
        assert np.max(np.abs(warm.positions - cold.positions)) < 1e-12


def thermal_path(N, seed, frames=6, steps=5):
    """Successive d = 2 thermal configurations, steps Langevin steps apart."""
    from matrixqm.dynamics import LANGEVIN, IntegratorConfig, run

    p = ModelParams(d=2, N=N)
    integ = IntegratorConfig(mode=LANGEVIN, dt=0.02, steps=steps, gamma=0.5,
                             temperature=0.8 / N, record_every=steps)
    path = [thermal_frame(N, seed)]
    for k in range(frames - 1):
        path.append(run([path[-1]], p, integ, [seed + k])[0].final_config)
    return path


def assert_same_frame(fr, ref):
    for name in ("positions", "frame"):
        assert np.array_equal(bits(getattr(fr, name)), bits(getattr(ref, name))), name
    assert np.float64(fr.residual).tobytes() == np.float64(ref.residual).tobytes()
    assert (fr.converged, fr.sweeps) == (ref.converged, ref.sweeps)


class TestJacobiMatchesReference:
    # joint_diagonalize tests the position rule's residual bound only once its
    # shift bound holds, and solves its Cayley update against (I - K/2)^T; the
    # reference evaluates the whole rule and solves against I + K/2.  Every
    # ParticleFrame field must keep its bits.
    # At position_tol 1e-3 the residual bound holds the stop back after the
    # shift bound has passed, in some iteration of every one of these paths.
    @pytest.mark.parametrize("N, seed", [(3, 1), (8, 3), (16, 5)])
    @pytest.mark.parametrize("position_tol", [0.0, 1e-4, 1e-3])
    def test_cold_then_warm_along_a_thermal_path(self, N, seed, position_tol):
        frame = None
        iterated = 0
        for cfg in thermal_path(N, seed):
            fr = joint_diagonalize(cfg, initial_frame=frame, position_tol=position_tol)
            assert_same_frame(fr, reference_joint_diagonalize(
                cfg, initial_frame=frame, position_tol=position_tol))
            iterated += fr.sweeps > 0
            frame = fr.frame
        assert iterated >= 2

    @pytest.mark.parametrize("position_tol", [0.0, 1e-4])
    @pytest.mark.parametrize("max_sweeps", [0, 1, 3])
    def test_capped_by_max_sweeps(self, position_tol, max_sweeps):
        cfg = thermal_frame()
        fr = joint_diagonalize(cfg, max_sweeps=max_sweeps, position_tol=position_tol)
        assert not fr.converged and fr.sweeps == max_sweeps
        assert_same_frame(fr, reference_joint_diagonalize(
            cfg, max_sweeps=max_sweeps, position_tol=position_tol))


# (N, d, seed), odd and even N.
JD_CASES = st.tuples(st.integers(2, 12), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))


def near_commuting(N, d, seed, eps):
    """R^T (D_a + eps S_a) R with diagonal D_a, symmetric S_a and R in SO(N).

    Near a commuting family the joint-diagonalizing frame is unique up to
    permutation and sign, so the positions are well defined.  Far from one
    (e.g. random_config at spread 0.5) the Jacobi objective has several local
    optima, and starts from different frames can end in different ones.
    """
    rng = np.random.default_rng(seed)
    D = np.stack([np.diag(rng.normal(size=N)) for _ in range(d)])
    S = random_config(ModelParams(d=d, N=N), 1.0, rng).X
    R = random_special_orthogonal(N, rng)
    X = np.einsum("ji,ajk,kl->ail", R, D + eps * S, R)
    return MatrixConfiguration(X=X, V=np.zeros_like(X)), D, rng


class TestJointDiagonalizationProperties:
    @settings(max_examples=50, deadline=None)
    @given(JD_CASES)
    def test_frame_is_special_orthogonal(self, case):
        N, d, seed = case
        fr = joint_diagonalize(random_config(ModelParams(d=d, N=N), 0.5, seed))
        assert np.max(np.abs(fr.frame @ fr.frame.T - np.eye(N))) < 1e-12
        assert abs(np.linalg.det(fr.frame) - 1.0) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(JD_CASES)
    def test_positions_invariant_under_conjugation(self, case):
        N, d, seed = case
        cfg, _, rng = near_commuting(N, d, seed, eps=0.05)
        ref = joint_diagonalize(cfg).positions
        rotated = gauge_transform(cfg, random_special_orthogonal(N, rng))
        P = np.eye(N)[rng.permutation(N)]
        permuted = MatrixConfiguration(X=P @ cfg.X @ P.T, V=np.zeros_like(cfg.X))
        for other in (rotated, permuted):
            assert np.max(np.abs(joint_diagonalize(other).positions - ref)) < 1e-6

    @settings(max_examples=50, deadline=None)
    @given(JD_CASES)
    def test_warm_start_keeps_row_order(self, case):
        # Restarted from its own frame with the rows permuted (det -1 for an
        # odd permutation), a converged frame runs no iteration and keeps
        # the permuted order and determinant.
        N, d, seed = case
        cfg, _, rng = near_commuting(N, d, seed, eps=0.05)
        cold = joint_diagonalize(cfg)
        perm = rng.permutation(N)
        warm = joint_diagonalize(cfg, initial_frame=cold.frame[perm])
        assert warm.converged and warm.sweeps == 0
        assert np.array_equal(warm.frame, cold.frame[perm])
        assert np.max(np.abs(warm.positions - cold.positions[perm])) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(JD_CASES)
    def test_commuting_family_recovered(self, case):
        N, d, seed = case
        cfg, D, _ = near_commuting(N, d, seed, eps=0.0)
        truth = np.stack([np.diag(D[a]) for a in range(d)], axis=1)
        truth = truth[np.lexsort(truth.T[::-1])]
        assert np.max(np.abs(joint_diagonalize(cfg).positions - truth)) < 1e-10


class TestRandomConfig:
    def test_determinism_and_statistics(self):
        p = ModelParams(d=2, N=32)
        a = random_config(p, spread=1.0, seed=5)
        b = random_config(p, spread=1.0, seed=5)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.V, b.V)
        # E[Tr X_a^2] = sum over independent entries of w_e * var_e
        #             = N*s^2 + 2 * (N(N-1)/2) * s^2/2 per direction.
        reps = [random_config(p, spread=1.0, seed=s) for s in range(40)]
        tr2 = np.mean([sum(np.trace(c.X[a] @ c.X[a]) for a in range(2)) for c in reps])
        expect = 2 * (32 + 32 * 31 / 2.0)
        assert abs(tr2 - expect) / expect < 0.05
        assert np.max(np.abs([np.max(np.abs(c.V)) for c in reps])) == 0.0

    def test_special_orthogonal_sampler(self):
        rng = np.random.default_rng(50)
        for N in (2, 3, 7):
            O = random_special_orthogonal(N, rng)
            assert np.max(np.abs(O @ O.T - np.eye(N))) < 1e-12
            assert np.linalg.det(O) == pytest.approx(1.0, abs=1e-12)


def test_total_energy_is_sum():
    p = ModelParams(d=2, N=4)
    cfg = random_config(p, spread=0.5, seed=60)
    cfg = MatrixConfiguration(X=cfg.X, V=random_config(p, spread=0.2, seed=61).X)
    assert total_energy(cfg, p) == pytest.approx(
        kinetic_energy(cfg, p) + potential_energy(cfg, p), rel=1e-14)
