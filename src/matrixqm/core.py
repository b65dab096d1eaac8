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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ORDERED = "ordered_pairs"
UNORDERED = "unordered_pairs"

ORTHO_TOL = 1e-10

# joint_diagonalize: its default angle floor in radians, and the position
# rule's bound on the next update's first-order drop of the squared
# off-diagonal norm, relative to that norm.
JACOBI_ANGLE_TOL = 1e-8
POSITION_RULE_RESIDUAL_DROP = 1e-6


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


@lru_cache(maxsize=32)
def _upper_mask(N: int) -> np.ndarray:
    """Read-only N x N mask of the upper triangle, diagonal included."""
    mask = np.triu(np.ones((N, N), dtype=bool))
    mask.flags.writeable = False
    return mask


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Make the lower triangle a bitwise mirror of the upper one.

    Unlike (m + m.T)/2 this introduces no roundoff, so symmetry of the
    result is exact whenever the input is already symmetric to roundoff.
    The + 0.0 turns -0.0 into 0.0 on every entry, as adding the two
    zero-filled triangles did.
    """
    return np.where(_upper_mask(m.shape[-1]), m, np.swapaxes(m, -1, -2)) + 0.0


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
class ParticleFrame:
    """Joint-diagonal particle positions with the frame that produced them.

    positions has shape (N, d); row i is particle i in R^d.  residual is the
    remaining off-diagonal Frobenius norm (0 iff the matrices commute).
    """

    positions: np.ndarray
    residual: float
    frame: np.ndarray
    converged: bool = True
    sweeps: int = 0  # all-pairs Jacobi iterations run, at most max_sweeps


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


@lru_cache(maxsize=8)
def _force_terms(d: int) -> tuple:
    """Index arrays of the force's pair terms, cached per d.

    ia, ib are the direction pairs a < b in loop order.  Row j of other
    lists the d - 1 directions paired with j in that loop order, which is
    ascending; sel[j, m] picks [X_j, X_other] out of the commutators stacked
    as [C, -C] (C_k = [X_a, X_b] of pair k, and -C_k = [X_b, X_a]).
    """
    ia, ib = np.triu_indices(d, 1)
    p = len(ia)
    pair = np.zeros((d, d), dtype=np.intp)
    pair[ia, ib] = np.arange(p)
    pair[ib, ia] = p + np.arange(p)
    other = np.array([[o for o in range(d) if o != j] for j in range(d)],
                     dtype=np.intp).reshape(d, d - 1)
    return ia, ib, other, pair[np.arange(d)[:, None], other]


def _stacked_force(X: np.ndarray, params: ModelParams) -> np.ndarray:
    """force_raw() on any stack of configurations, shape (..., d, N, N).

    Direction j gets one term [X_o, [X_j, X_o]] from each other direction o.
    For symmetric X the commutator of pair a < b is C = P - P^T with
    P = X_a X_b, exactly antisymmetric, so the term is Q + Q^T with
    Q = X_o [X_j, X_o]: X_b C on the a-side, X_a (-C) on the b-side.  That
    is three products per pair, batched over the pairs and the leading
    axes.  Each direction adds its d - 1 terms in the order of a plain a < b
    loop, so the sum is exactly symmetric and each configuration's force is
    bitwise the same whatever stack it is part of.
    """
    eps = params.epsilon
    coeff = 2.0 * eps if params.pair_sum == UNORDERED else 4.0 * eps
    d = params.d
    if d == 1:
        f = np.zeros_like(X)
    else:
        ia, ib, other, sel = _force_terms(d)
        P = X.take(ia, axis=-3) @ X.take(ib, axis=-3)
        C = P - np.swapaxes(P, -1, -2)
        C = np.concatenate([C, -C], axis=-3)
        Q = X.take(other, axis=-3) @ C.take(sel, axis=-3)  # (..., d, d - 1, N, N)
        T = Q + np.swapaxes(Q, -1, -2)
        f = T[..., 0, :, :]
        for m in range(1, d - 1):
            f = f + T[..., m, :, :]
    f *= coeff
    if params.kappa > 0:
        f -= 2.0 * params.kappa * eps * X
    # + 0.0 turns -0.0 into 0.0: a zero entry gets the same bits whatever
    # the order of the sums that made it.
    f += 0.0
    return f


def force_raw(X: np.ndarray, params: ModelParams) -> np.ndarray:
    """force() on one bare (d, N, N) array, exactly symmetric when X is."""
    if X.ndim != 3:
        raise ShapeError(f"X must have shape (d, N, N), got {X.shape}")
    return _stacked_force(X, params)


def force(config: MatrixConfiguration, params: ModelParams) -> np.ndarray:
    """F_a = -dU/dX_a (elementwise matrix gradient), each F_a exactly symmetric.

    For the unordered pair convention:
        F_a = 2*mu*omega^2 * sum_{b != a} [X_b, [X_a, X_b]] - 2*kappa*mu*omega^2 * X_a
    The closed form is checked against a central finite-difference gradient of
    potential_energy in the test suite; the finite difference is normative.
    """
    _check_shapes(config, params)
    return force_raw(config.X, params)


def eigenvalues(config: MatrixConfiguration) -> np.ndarray:
    """Eigenvalues of each X_a, ascending per direction: shape (d, N), from one
    batched eigvalsh call."""
    return np.linalg.eigvalsh(config.X)


def _pair_angles(A: np.ndarray) -> np.ndarray:
    """Optimal Givens angle of every index pair, from one snapshot of A (d, N, N).

    theta_pq is the Cardoso-Souloumiac joint-diagonalization angle for real
    symmetric matrices (the angle that, applied alone, minimizes the pair's
    off-diagonal norm), computed for all pairs at once.  Returned as the
    antisymmetric K with K_pq = theta_pq for p < q, the generator whose
    small-angle rotation has G_pq = sin(theta_pq).
    """
    diag = np.diagonal(A, axis1=1, axis2=2)
    ton = diag[:, :, None] - diag[:, None, :]  # A_pp - A_qq
    toff = 2.0 * A  # 2 A_pq
    g11 = np.add.reduce(ton * ton, axis=0)
    g12 = np.add.reduce(ton * toff, axis=0)
    g22 = np.add.reduce(toff * toff, axis=0)
    diff, two12 = g11 - g22, 2.0 * g12
    # np.triu(theta, 1) is where(tri(N), 0, theta), and tri(N) is the
    # transposed upper mask: this keeps its bits without a new mask each call.
    theta = 0.5 * np.arctan2(two12, diff + np.hypot(diff, two12))
    K = np.where(_upper_mask(theta.shape[-1]).T, 0.0, theta)
    return K - K.T


def joint_diagonalize(
    config: MatrixConfiguration,
    max_sweeps: int = 1000,
    initial_frame: np.ndarray | None = None,
    position_tol: float = 0.0,
) -> ParticleFrame:
    """Approximate simultaneous diagonalization by all-pairs Jacobi iterations.

    Finds O in SO(N) minimizing the total off-diagonal Frobenius norm of
    O X_a O^T over all directions a.  Each iteration takes the optimal
    Givens angle of every index pair from the current matrices and applies
    them together as one orthogonal update, the Cayley transform
    G = (I - K/2)^-1 (I + K/2) of the antisymmetric angle matrix K: A <- G A G^T,
    O <- G O (the orthogonal analogue of the simultaneous updates of FFDiag,
    Ziehe et al., JMLR 5, 2004).

    It stops, converged, once every angle is at most JACOBI_ANGLE_TOL
    radians, or, with position_tol > 0, once the next update would change
    the diagonal little to first order: it would shift no diagonal entry by more than
    position_tol, 2 max_{a,p} |sum_q K_pq A_a,pq| <= position_tol, and it
    would lower the squared off-diagonal norm by at most
    POSITION_RULE_RESIDUAL_DROP of itself.  The second bound keeps the
    residual of small, nearly diagonal frames, whose entries move little per
    rotation, within about 1e-6 of its converged value, relatively.  Both
    tests read only the current matrices, so a warm start from a frame that
    met them runs no iteration.  After max_sweeps iterations it stops with converged False.
    Returns the diagonal values as N points in R^d, with the attained
    off-diagonal norm as a commutativity quality score.

    A cold start (initial_frame None) sorts the points lexicographically and
    flips one row of O if needed, so that det O = +1.  A warm start from
    initial_frame keeps its rows in that frame's order: row i of O continues
    row i of initial_frame, which is how a trajectory carries each particle's
    identity from frame to frame.  The Cayley updates keep det O, so a warm
    start needs no sign fix.
    """
    N = config.N
    if initial_frame is not None:
        O = initial_frame.copy()  # the returned frame never aliases the caller's
        A = O @ config.X @ O.T
    else:
        O = np.eye(N)
        A = config.X

    eye = np.eye(N)
    norm2 = float(np.sum(A * A))  # kept by every rotation
    converged = False
    sweeps = 0
    while True:
        K = _pair_angles(A)
        if np.abs(K).max() <= JACOBI_ANGLE_TOL:
            converged = True
            break
        if position_tol > 0:
            # Half the first-order shift of each diagonal entry A_a,pp.
            shift = np.add.reduce(K * A, axis=2)
            if 2.0 * np.abs(shift).max() <= position_tol:
                diag = np.diagonal(A, axis1=1, axis2=2)
                drop = 4.0 * float(np.sum(diag * shift))  # of the squared off-diagonal norm
                off2 = norm2 - float(np.sum(diag * diag))
                if abs(drop) <= POSITION_RULE_RESIDUAL_DROP * off2:
                    converged = True
                    break
        if sweeps == max_sweeps:
            break
        # K is exactly antisymmetric, so M.T is I + K/2 bit for bit.
        M = eye - 0.5 * K
        G = np.linalg.solve(M, M.T)
        A = G @ A @ G.T
        O = G @ O
        sweeps += 1

    positions = np.diagonal(A, axis1=1, axis2=2).T.copy()  # (N, d)
    offdiag = A - positions.T[:, :, None] * eye
    residual = float(np.sqrt(np.sum(offdiag * offdiag)))

    if initial_frame is None:
        order = np.lexsort(positions.T[::-1])  # lexicographic by (x_1, x_2, ...)
        positions = positions[order]
        O = O[order, :]
        if np.linalg.det(O) < 0:
            O[0, :] = -O[0, :]  # eigenvector sign flip, positions unaffected
    return ParticleFrame(positions=positions, residual=residual, frame=O,
                         converged=converged, sweeps=sweeps)


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
