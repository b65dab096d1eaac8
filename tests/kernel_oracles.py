"""Plain reference kernels that the vectorized stepping code must match bit for bit.

Each one is written the obvious way, one configuration at a time:

* loop_force: the force as a loop over direction pairs, six products per pair;
* reference_noise: the O-step noise from two rng.normal calls per step;
* reference_run: out-of-place velocity-Verlet or BAOAB steps on those two,
  returning the (time, X, V) of every recorded step.
"""

import numpy as np

from matrixqm.core import UNORDERED
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
