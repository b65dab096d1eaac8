"""Plain reference kernels that the vectorized stepping code must match bit for bit.

Each one is written the obvious way, one configuration at a time:

* loop_force: the force as a loop over direction pairs, six products per pair;
* reference_noise: the O-step noise from two rng.normal calls per step;
* reference_run: out-of-place velocity-Verlet or BAOAB steps on those two,
  returning the (time, X, V) of every recorded step;
* reference_joint_diagonalize: the all-pairs Jacobi with its whole stop test
  evaluated every iteration and the Cayley update solved against I + K/2;
* reference_silverman_bandwidth: the bandwidth with its IQR from np.percentile.
"""

import numpy as np

from matrixqm.core import (
    JACOBI_ANGLE_TOL,
    POSITION_RULE_RESIDUAL_DROP,
    UNORDERED,
    ParticleFrame,
)
from matrixqm.dynamics import MICROCANONICAL


def loop_force(X, params):
    """The force as a plain loop over direction pairs, one configuration at a
    time, symmetrized by adding the two zero-filled triangles."""
    eps = params.epsilon
    coeff = 2.0 * eps if params.pair_sum == UNORDERED else 4.0 * eps
    f = np.zeros_like(X)
    for a in range(params.d):
        for b in range(a + 1, params.d):
            c = X[a] @ X[b] - X[b] @ X[a]
            f[a] += X[b] @ c - c @ X[b]
            f[b] -= X[a] @ c - c @ X[a]
    f *= coeff
    if params.kappa > 0:
        f -= 2.0 * params.kappa * eps * X
    return np.triu(f) + np.swapaxes(np.triu(f, 1), -1, -2)


def reference_noise(rng, params, integ):
    """One configuration's (d, N, N) thermal noise: the (d, n_off) off-diagonal
    draws, then the (d, N) diagonal ones, each from rng.normal with its own
    standard deviation (sqrt(T/4mu) and sqrt(T/2mu))."""
    d, N, mu, T = params.d, params.N, params.mu, integ.temperature
    iu = np.triu_indices(N, 1)
    off = rng.normal(0.0, np.sqrt(T / (4.0 * mu)), size=(d, len(iu[0])))
    diag = rng.normal(0.0, np.sqrt(T / (2.0 * mu)), size=(d, N))
    noise = np.zeros((d, N, N))
    for a in range(d):
        noise[a][iu] = off[a]
        noise[a].T[iu] = off[a]
        noise[a][np.diag_indices(N)] = diag[a]
    if integ.project_trace_noise:
        tr = np.trace(noise, axis1=-2, axis2=-1) / N
        noise -= tr[:, None, None] * np.eye(N)
    return noise


def _leapfrog(X, V, f, params, dt):
    inv2mu = 1.0 / (2.0 * params.mu)
    V = V + (0.5 * dt * inv2mu) * f
    X = X + dt * V
    f = loop_force(X, params)
    V = V + (0.5 * dt * inv2mu) * f
    return X, V, f


def _baoab(X, V, f, params, integ, rng):
    dt = integ.dt
    inv2mu = 1.0 / (2.0 * params.mu)
    c1 = np.exp(-integ.gamma * dt)
    c2 = np.sqrt(1.0 - c1 * c1)
    V = V + (0.5 * dt * inv2mu) * f
    X = X + (0.5 * dt) * V
    V = c1 * V + c2 * reference_noise(rng, params, integ)
    X = X + (0.5 * dt) * V
    f = loop_force(X, params)
    V = V + (0.5 * dt * inv2mu) * f
    return X, V, f


def reference_run(config, params, integ, seed):
    """One configuration stepped alone; returns [(time, X, V)] at step 0 and
    every record_every steps, then the final (time, X, V)."""
    rng = np.random.default_rng(seed)
    X, V = config.X, config.V
    f = loop_force(X, params)
    snapshots = [(config.time, X, V)]
    for step in range(1, integ.steps + 1):
        if integ.mode == MICROCANONICAL:
            X, V, f = _leapfrog(X, V, f, params, integ.dt)
        else:
            X, V, f = _baoab(X, V, f, params, integ, rng)
        if step % integ.record_every == 0:
            snapshots.append((config.time + step * integ.dt, X, V))
    return snapshots, (config.time + integ.steps * integ.dt, X, V)


def reference_pair_angles(A):
    """The antisymmetric matrix K of every pair's Cardoso-Souloumiac angle,
    K_pq = theta_pq for p < q, from one snapshot of A (d, N, N)."""
    diag = np.diagonal(A, axis1=1, axis2=2)
    ton = diag[:, :, None] - diag[:, None, :]
    toff = 2.0 * A
    g11 = np.add.reduce(ton * ton, axis=0)
    g12 = np.add.reduce(ton * toff, axis=0)
    g22 = np.add.reduce(toff * toff, axis=0)
    diff, two12 = g11 - g22, 2.0 * g12
    K = np.triu(0.5 * np.arctan2(two12, diff + np.hypot(diff, two12)), 1)
    return K - K.T


def reference_joint_diagonalize(config, max_sweeps=1000, initial_frame=None,
                                position_tol=0.0):
    """joint_diagonalize as first written: every term of the position rule is
    computed each iteration before either bound is tested, and each update
    G solves (I - K/2) G = I + K/2."""
    N = config.N
    if initial_frame is not None:
        O = initial_frame.copy()
        A = O @ config.X @ O.T
    else:
        O = np.eye(N)
        A = config.X
    eye = np.eye(N)
    norm2 = float(np.sum(A * A))
    converged = False
    sweeps = 0
    while True:
        K = reference_pair_angles(A)
        if np.max(np.abs(K)) <= JACOBI_ANGLE_TOL:
            converged = True
            break
        if position_tol > 0:
            shift = np.add.reduce(K * A, axis=2)
            diag = np.diagonal(A, axis1=1, axis2=2)
            drop = 4.0 * float(np.sum(diag * shift))
            off2 = norm2 - float(np.sum(diag * diag))
            if (2.0 * np.max(np.abs(shift)) <= position_tol
                    and abs(drop) <= POSITION_RULE_RESIDUAL_DROP * off2):
                converged = True
                break
        if sweeps == max_sweeps:
            break
        G = np.linalg.solve(eye - 0.5 * K, eye + 0.5 * K)
        A = G @ A @ G.T
        O = G @ O
        sweeps += 1

    positions = np.diagonal(A, axis1=1, axis2=2).T.copy()
    offdiag = A - positions.T[:, :, None] * eye
    residual = float(np.sqrt(np.sum(offdiag * offdiag)))
    if initial_frame is None:
        order = np.lexsort(positions.T[::-1])
        positions = positions[order]
        O = O[order, :]
        if np.linalg.det(O) < 0:
            O[0, :] = -O[0, :]
    return ParticleFrame(positions=positions, residual=residual, frame=O,
                         converged=converged, sweeps=sweeps)


def reference_silverman_bandwidth(samples):
    """silverman_bandwidth with its IQR taken by np.percentile."""
    samples = np.asarray(samples, dtype=float).ravel()
    n = len(samples)
    sigma = samples.std(ddof=1) if n > 1 else 1.0
    iqr = np.subtract(*np.percentile(samples, [75, 25]))
    scale = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    return 0.9 * max(scale, 1e-12) * n ** (-0.2)
