"""Matrix configurations: energies, forces, symmetries and spectral observables.

The degrees of freedom are d real symmetric N x N position matrices X_a with
matching velocity matrices V_a.  The potential is the commutator-squared
(bosonic matrix-model) potential, with the overall sign chosen so that
mutually commuting configurations are its minima, plus an optional harmonic
regulator kappa * mu * omega^2 * Tr(X^2).

Conventions used throughout the package:

* Symmetric matrices are stored dense but kept *exactly* symmetric bitwise
  (lower triangle mirrored from the upper one).
* Kinetic energy K = mu * sum_a Tr(V_a^2).  In terms of the independent
  entries this is sum_e (1/2) m_e v_e^2 with per-entry mass m_e = 2*mu on
  the diagonal and 4*mu per independent off-diagonal entry.  The equations
  of motion are then simply Xdotdot = F / (2*mu) in matrix form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ORDERED = "ordered_pairs"
UNORDERED = "unordered_pairs"

ORTHO_TOL = 1e-10


class ShapeError(ValueError):
    """Configuration and parameters disagree about (d, N)."""


@dataclass(frozen=True)
class ModelParams:
    """Static parameters of the matrix model."""

    d: int
    N: int
    mu: float = 1.0
    omega: float = 1.0
    kappa: float = 0.0
    pair_sum: str = UNORDERED

    def __post_init__(self):
        # Messages start with the field name: config errors are reported as
        # "model.<message>".
        if self.d < 1:
            raise ValueError(f"d: must be >= 1, got {self.d}")
        if self.N < 2:
            raise ValueError(f"N: must be >= 2, got {self.N}")
        if self.mu <= 0:
            raise ValueError(f"mu: must be > 0, got {self.mu}")
        if self.omega <= 0:
            raise ValueError(f"omega: must be > 0, got {self.omega}")
        if self.kappa < 0:
            raise ValueError(f"kappa: must be >= 0, got {self.kappa}")
        if self.pair_sum not in (ORDERED, UNORDERED):
            raise ValueError(f"pair_sum: must be {ORDERED} or {UNORDERED}, got {self.pair_sum!r}")

    @property
    def epsilon(self) -> float:
        """Energy scale mu * omega^2."""
        return self.mu * self.omega**2

    @property
    def n_dof(self) -> int:
        """Independent entries: d * N(N+1)/2."""
        return self.d * self.N * (self.N + 1) // 2


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Make the lower triangle a bitwise mirror of the upper one.

    Unlike (m + m.T)/2 this introduces no roundoff, so symmetry of the
    result is exact whenever the input is already symmetric to roundoff.
    """
    upper = np.triu(m)
    return upper + np.swapaxes(np.triu(m, 1), -1, -2)


@dataclass
class MatrixConfiguration:
    """Positions X and velocities V: arrays of shape (d, N, N), exactly symmetric."""

    X: np.ndarray
    V: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if self.X.ndim != 3 or self.X.shape[1] != self.X.shape[2]:
            raise ShapeError(f"X must have shape (d, N, N), got {self.X.shape}")
        if self.V.shape != self.X.shape:
            raise ShapeError(f"V shape {self.V.shape} != X shape {self.X.shape}")
        self.X = symmetrize(self.X)
        self.V = symmetrize(self.V)

    @property
    def d(self) -> int:
        return self.X.shape[0]

    @property
    def N(self) -> int:
        return self.X.shape[1]

    def copy(self) -> "MatrixConfiguration":
        return MatrixConfiguration(self.X.copy(), self.V.copy(), self.time)


@dataclass
class Spectrum:
    """Per-direction eigenvalues, ascending within each direction: shape (d, N)."""

    lam: np.ndarray


@dataclass
class ParticleFrame:
    """Joint-diagonal particle positions with the frame that produced them.

    positions has shape (N, d); row i is particle i in R^d.  residual is the
    remaining off-diagonal Frobenius norm (0 iff the matrices commute).
    """

    positions: np.ndarray
    residual: float
    frame: np.ndarray
    converged: bool = True


def _check_shapes(config: MatrixConfiguration, params: ModelParams):
    if config.d != params.d or config.N != params.N:
        raise ShapeError(
            f"config (d={config.d}, N={config.N}) does not match "
            f"params (d={params.d}, N={params.N})"
        )


def potential_energy(config: MatrixConfiguration, params: ModelParams) -> float:
    """Commutator-squared potential plus optional harmonic regulator.

    U = mu*omega^2 * sum_pairs ||[X_a, X_b]||_F^2 + kappa*mu*omega^2 * sum_a Tr(X_a^2)

    which is >= 0 and vanishes exactly on commuting configurations (when
    kappa = 0).  The pair sum runs over unordered pairs {a, b} by default;
    ordered_pairs counts each pair twice.
    """
    _check_shapes(config, params)
    eps = params.epsilon
    u = 0.0
    for a in range(params.d):
        for b in range(a + 1, params.d):
            c = config.X[a] @ config.X[b] - config.X[b] @ config.X[a]
            u += eps * float(np.sum(c * c))
    if params.pair_sum == ORDERED:
        u *= 2.0
    if params.kappa > 0:
        u += params.kappa * eps * float(np.sum(config.X * config.X))
    return u


def kinetic_energy(config: MatrixConfiguration, params: ModelParams) -> float:
    """K = mu * sum_a Tr(V_a^2); off-diagonal entries count twice."""
    _check_shapes(config, params)
    return params.mu * float(np.sum(config.V * config.V))


def total_energy(config: MatrixConfiguration, params: ModelParams) -> float:
    return kinetic_energy(config, params) + potential_energy(config, params)


def force_raw(X: np.ndarray, params: ModelParams) -> np.ndarray:
    """force() on a bare (d, N, N) array; exact-symmetrized via the triu trick."""
    eps = params.epsilon
    coeff = 2.0 * eps if params.pair_sum == UNORDERED else 4.0 * eps
    f = np.zeros_like(X)
    for a in range(params.d):
        xa = X[a]
        for b in range(a + 1, params.d):
            xb = X[b]
            c = xa @ xb - xb @ xa
            f[a] += xb @ c - c @ xb
            f[b] -= xa @ c - c @ xa
    f *= coeff
    if params.kappa > 0:
        f -= 2.0 * params.kappa * eps * X
    return symmetrize(f)


def force(config: MatrixConfiguration, params: ModelParams) -> np.ndarray:
    """F_a = -dU/dX_a (elementwise matrix gradient), each F_a exactly symmetric.

    For the unordered pair convention:
        F_a = 2*mu*omega^2 * sum_{b != a} [X_b, [X_a, X_b]] - 2*kappa*mu*omega^2 * X_a
    The closed form is checked against a central finite-difference gradient of
    potential_energy in the test suite; the finite difference is normative.
    """
    _check_shapes(config, params)
    return force_raw(config.X, params)


def eigenvalues(config: MatrixConfiguration) -> Spectrum:
    """Eigenvalues of each X_a, sorted ascending per direction."""
    lam = np.stack([np.linalg.eigvalsh(config.X[a]) for a in range(config.d)])
    return Spectrum(lam=lam)


def joint_diagonalize(
    config: MatrixConfiguration,
    max_sweeps: int = 100,
    tol: float = 1e-10,
    initial_frame: np.ndarray | None = None,
) -> ParticleFrame:
    """Approximate simultaneous diagonalization by Jacobi rotation sweeps.

    Finds O in SO(N) minimizing the total off-diagonal Frobenius norm of
    O X_a O^T over all directions a (Givens rotations, one sweep touching
    every index pair).  Returns the diagonal values as N points in R^d,
    sorted lexicographically, with the attained off-diagonal norm as a
    commutativity quality score.

    A warm start (initial_frame) speeds up tracking along a trajectory.
    """
    N = config.N
    d = config.d
    if initial_frame is not None:
        O = initial_frame.copy()
        A = np.stack([O @ config.X[a] @ O.T for a in range(d)])
    else:
        O = np.eye(N)
        A = config.X.copy()

    # Stop when every rotation in a sweep is below this angle threshold.
    scale = max(np.max(np.abs(A)), 1.0)
    sin_tol = max(tol, 1e-14) / scale

    def _off2(B):
        off = B - np.stack([np.diag(np.diag(B[a])) for a in range(d)])
        return float(np.sum(off * off))

    # Round-robin tournament schedule: each round pairs up all indices into
    # disjoint (p, q) couples.  Disjoint pairs do not feed each other's Givens
    # angles (the angle for (p, q) uses only the pp, qq, pq entries), so the
    # rotations of one round can be computed from a common snapshot and applied
    # as a single vectorized block update.
    slots = list(range(N)) + ([N] if N % 2 else [])  # N marks a bye
    M = len(slots)
    rounds = []
    for _ in range(M - 1):
        pairs = [(slots[i], slots[M - 1 - i]) for i in range(M // 2)]
        pairs = [(min(p, q), max(p, q)) for p, q in pairs if N not in (p, q)]
        rounds.append((np.array([p for p, _ in pairs]), np.array([q for _, q in pairs])))
        slots = [slots[0]] + [slots[-1]] + slots[1:-1]

    converged = False
    prev_off2 = _off2(A)
    for _ in range(max_sweeps):
        largest = 0.0
        for p, q in rounds:
            # Optimal Givens angles for real symmetric matrices
            # (Cardoso-Souloumiac joint-diagonalization criterion).
            ton = A[:, p, p] - A[:, q, q]  # (d, k)
            toff = 2.0 * A[:, p, q]
            g11 = np.sum(ton * ton, axis=0)
            g12 = np.sum(ton * toff, axis=0)
            g22 = np.sum(toff * toff, axis=0)
            theta = 0.5 * np.arctan2(2.0 * g12, g11 - g22 + np.hypot(g11 - g22, 2.0 * g12))
            c = np.cos(theta)
            s = np.sin(theta)
            skip = np.abs(s) <= sin_tol
            if skip.all():
                continue
            c = np.where(skip, 1.0, c)
            s = np.where(skip, 0.0, s)
            largest = max(largest, float(np.max(np.abs(s))))
            # A <- R A R^T restricted to the paired rows/columns
            cb = c[None, :, None]
            sb = s[None, :, None]
            rows_p = cb * A[:, p, :] + sb * A[:, q, :]
            rows_q = -sb * A[:, p, :] + cb * A[:, q, :]
            A[:, p, :] = rows_p
            A[:, q, :] = rows_q
            cols_p = cb * A[:, :, p].transpose(0, 2, 1) + sb * A[:, :, q].transpose(0, 2, 1)
            cols_q = -sb * A[:, :, p].transpose(0, 2, 1) + cb * A[:, :, q].transpose(0, 2, 1)
            A[:, :, p] = cols_p.transpose(0, 2, 1)
            A[:, :, q] = cols_q.transpose(0, 2, 1)
            op = c[:, None] * O[p, :] + s[:, None] * O[q, :]
            oq = -s[:, None] * O[p, :] + c[:, None] * O[q, :]
            O[p, :] = op
            O[q, :] = oq
        if largest <= sin_tol:
            converged = True
            break
        # Rotations in degenerate (flat) subspaces stay finite while the
        # objective is already stationary; stop once a full sweep no longer
        # reduces the off-diagonal norm meaningfully.
        cur_off2 = _off2(A)
        if prev_off2 - cur_off2 <= 1e-12 * max(prev_off2, scale**2 * 1e-30):
            converged = True
            break
        prev_off2 = cur_off2

    offdiag = A - np.stack([np.diag(np.diag(A[a])) for a in range(d)])
    residual = float(np.sqrt(np.sum(offdiag * offdiag)))
    positions = np.stack([np.diag(A[a]) for a in range(d)], axis=1)  # (N, d)

    order = np.lexsort(positions.T[::-1])  # lexicographic by (x_1, x_2, ...)
    positions = positions[order]
    O = O[order, :]
    if np.linalg.det(O) < 0:
        O[0, :] = -O[0, :]  # eigenvector sign flip, positions unaffected
    return ParticleFrame(positions=positions, residual=residual, frame=O, converged=converged)


def gauge_transform(config: MatrixConfiguration, O: np.ndarray) -> MatrixConfiguration:
    """Conjugate by O in SO(N): X_a -> O X_a O^T, V_a -> O V_a O^T."""
    O = np.asarray(O, dtype=float)
    N = config.N
    if O.shape != (N, N):
        raise ShapeError(f"O must be {N}x{N}, got {O.shape}")
    if np.max(np.abs(O.T @ O - np.eye(N))) >= ORTHO_TOL:
        raise ValueError("O is not orthogonal to tolerance")
    if np.linalg.det(O) < 0:
        raise ValueError("O must have determinant +1")
    X = np.einsum("ij,ajk,lk->ail", O, config.X, O)
    V = np.einsum("ij,ajk,lk->ail", O, config.V, O)
    return MatrixConfiguration(X=X, V=V, time=config.time)


def translate(config: MatrixConfiguration, v: np.ndarray) -> MatrixConfiguration:
    """Shift each direction by a multiple of the identity: X_a -> X_a + v_a I."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (config.d,):
        raise ShapeError(f"v must have length d={config.d}, got shape {v.shape}")
    X = config.X + v[:, None, None] * np.eye(config.N)
    return MatrixConfiguration(X=X, V=config.V.copy(), time=config.time)


def com_momentum(config: MatrixConfiguration, params: ModelParams) -> np.ndarray:
    """Momentum conjugate to the trace (center-of-mass) mode: p_a = 2 mu Tr(V_a)."""
    _check_shapes(config, params)
    return 2.0 * params.mu * np.trace(config.V, axis1=1, axis2=2)


def random_config(params: ModelParams, spread: float, seed) -> MatrixConfiguration:
    """Random symmetric Gaussian configuration at rest.

    Diagonal entries have variance spread^2, each independent off-diagonal
    entry spread^2/2, so every direction's Tr(X^2) has expectation
    spread^2 * N(N+1)/2.  Deterministic per seed.
    """
    if spread < 0:
        raise ValueError("spread must be >= 0")
    rng = np.random.default_rng(seed)
    X = np.zeros((params.d, params.N, params.N))
    for a in range(params.d):
        m = np.zeros((params.N, params.N))
        iu = np.triu_indices(params.N, 1)
        m[iu] = rng.normal(0.0, spread / np.sqrt(2.0), size=len(iu[0]))
        m += m.T
        m[np.diag_indices(params.N)] = rng.normal(0.0, spread, size=params.N)
        X[a] = m
    return MatrixConfiguration(X=X, V=np.zeros_like(X), time=0.0)


def random_special_orthogonal(N: int, rng) -> np.ndarray:
    """Haar-random SO(N): QR of a Gaussian matrix, sign-fixed, det corrected to +1."""
    q, r = np.linalg.qr(rng.normal(size=(N, N)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q
