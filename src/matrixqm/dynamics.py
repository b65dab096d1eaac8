"""Time evolution (velocity-Verlet, BAOAB Langevin) and temperature estimates.

The matrix equations of motion from L = mu*Tr(Xdot^2) - U are
Xdotdot = F / (2*mu) with F = -dU/dX, so the Verlet update acts on whole
symmetric matrices with a uniform effective mass 2*mu.  The Langevin
O-step, however, must respect the per-entry masses implied by the trace
kinetic term (2*mu diagonal, 4*mu per independent off-diagonal entry):
the thermal noise amplitude differs between diagonal and off-diagonal
entries so that the sampled measure is exp(-(K+U)/T).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .core import (
    MatrixConfiguration,
    ModelParams,
    _stacked_force,
    com_momentum,
    eigenvalues,
    force,
    joint_diagonalize,
    kinetic_energy,
    potential_energy,
)

MICROCANONICAL = "microcanonical"
LANGEVIN = "langevin"

# A recorded Langevin frame stops when its next update would shift no position
# by more than this fraction of the free thermal displacement per record
# interval (frame_position_tol).  That bounds the next shift only: positions
# have landed up to 8.6 such tolerances from the strict angle rule's.
FRAME_DISPLACEMENT_FRACTION = 1e-3


class NumericsError(RuntimeError):
    """NaN/Inf encountered during integration; carries the step and replica index."""

    def __init__(self, step: int, message: str, replica: int, context: str | None = None):
        where = f"replica {replica}, step {step}"
        if context is not None:
            where = f"{context}: {where}"
        super().__init__(f"{where}: {message}")
        self.step = step
        self.replica = replica
        self.message = message

    def within(self, context: str) -> "NumericsError":
        """The same error, its text prefixed by the run it happened in."""
        return NumericsError(self.step, self.message, self.replica, context)


@dataclass
class IntegratorConfig:
    mode: str = MICROCANONICAL
    dt: float = 1e-2
    steps: int = 1000
    gamma: float = 0.0
    temperature: float = 0.0
    record_every: int = 1
    record_frames: bool = False
    project_trace_noise: bool = False

    def __post_init__(self):
        # Messages start with the field name (see ModelParams).
        if self.dt <= 0:
            raise ValueError("dt: must be > 0")
        if self.steps < 0:
            raise ValueError("steps: must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every: must be >= 1")
        if self.mode not in (MICROCANONICAL, LANGEVIN):
            raise ValueError(f"mode: must be {MICROCANONICAL} or {LANGEVIN}, got {self.mode!r}")
        if self.mode == LANGEVIN:
            if self.gamma <= 0:
                raise ValueError("gamma: langevin mode requires gamma > 0")
            if self.temperature < 0:
                raise ValueError("temperature: must be >= 0")
        else:
            for name in ("gamma", "temperature", "project_trace_noise"):
                if getattr(self, name):
                    raise ValueError(f"{name}: a microcanonical run has no thermostat, "
                                     f"got {getattr(self, name)!r}")


@dataclass
class TrajectoryRecord:
    """One replica's n recorded states: times (n,), the per-direction
    eigenvalues of each state as spectra (n, d, N), energies and momenta.

    With record_frames, each state's joint diagonalization (see
    core.joint_diagonalize) is kept as arrays: its particle positions
    (n, N, d), off-diagonal residual (n,), convergence flag (n,), Jacobi
    iteration count (n,) and smallest row overlap with the previous state's
    frame (n,), min_i |sum_j O_k[i, j] O_(k-1)[i, j]|, the cosine of the
    largest angle through which a row turned (nan at the first state, whose
    frame has no predecessor).  Without, all five are None.  The
    diagonalizing frames themselves are gauge and are not kept.
    """

    times: np.ndarray
    spectra: np.ndarray  # (n, d, N), ascending per direction
    energies: np.ndarray  # (n, 2): columns K, U
    com_momenta: np.ndarray  # (n, d)
    positions: np.ndarray | None = None  # (n, N, d), particle i in row i of every state
    residuals: np.ndarray | None = None  # (n,)
    converged: np.ndarray | None = None  # (n,) bool
    sweeps: np.ndarray | None = None  # (n,) int
    overlaps: np.ndarray | None = None  # (n,), nan at the first state
    final_config: MatrixConfiguration | None = None  # for chaining runs; not serialized

    def __post_init__(self):
        n = len(self.times)
        rows = (self.spectra, self.energies, self.com_momenta,
                self.positions, self.residuals, self.converged, self.sweeps, self.overlaps)
        if any(a is not None and len(a) != n for a in rows):
            raise ValueError("record arrays must share a common length")
        if np.any(self.times[1:] <= self.times[:-1]):  # np.diff overflows near the float limit
            raise ValueError("times must be strictly increasing")


# The stepping kernel acts on stacks of configurations: X, V and f have shape
# (..., d, N, N), and each configuration in the stack evolves exactly as it
# would alone.


@lru_cache(maxsize=32)
def _ostep(params: ModelParams, dt: float, gamma: float, T: float,
           project_trace_noise: bool = False) -> SimpleNamespace:
    """Constants of the BAOAB O-step of run and step_langevin, built once per
    argument set: every entry is damped by c1 and refreshed with c2 times
    noise of its Gibbs variance T/m_e (m_e = 2mu on the diagonal, 4mu per
    independent off-diagonal entry).

    A configuration's draws are packed as [off-diagonal (d * n_off),
    diagonal (d * N)], direction by direction within each block, and scale
    holds each slot's standard deviation.  unpack[k] is the packed slot of
    flat entry k of the (d, N, N) noise stack: both triangles read the same
    off-diagonal draw.  With project_trace_noise, eye removes each noise
    matrix's trace; without, it is None.  ModelParams is frozen, so it keys
    the cache; the arrays handed to every caller are read-only.
    """
    d, N, mu = params.d, params.N, params.mu
    c1 = np.exp(-gamma * dt)
    iu = np.triu_indices(N, 1)
    n_off = len(iu[0])
    scale = np.concatenate([np.full(d * n_off, np.sqrt(T / (4.0 * mu))),
                            np.full(d * N, np.sqrt(T / (2.0 * mu)))])
    unpack = np.empty((d, N, N), dtype=np.intp)
    unpack[:, iu[0], iu[1]] = unpack[:, iu[1], iu[0]] = np.arange(d * n_off).reshape(d, n_off)
    unpack[:, np.arange(N), np.arange(N)] = d * n_off + np.arange(d * N).reshape(d, N)
    unpack = unpack.ravel()
    eye = np.eye(N) if project_trace_noise else None
    for a in (scale, unpack, eye):
        if a is not None:
            a.flags.writeable = False
    return SimpleNamespace(c1=c1, c2=np.sqrt(1.0 - c1 * c1), scale=scale, unpack=unpack, eye=eye)


def _thermal_noise(o: SimpleNamespace, rngs, shape) -> np.ndarray:
    """Symmetric noise matrices of the given stack shape, one generator per
    configuration: each draws its off-diagonal entries, then its diagonal
    ones, in one standard_normal call.  sd * z + 0.0 is the value
    normal(0.0, sd) returns for the same z."""
    packed = np.empty((len(rngs), o.scale.size))
    for rng, row in zip(rngs, packed):
        rng.standard_normal(out=row)
    packed *= o.scale
    packed += 0.0
    noise = packed.take(o.unpack, axis=-1).reshape(shape)
    if o.eye is not None:
        N = shape[-1]
        tr = np.trace(noise, axis1=-2, axis2=-1) / N
        noise -= tr[..., None, None] * o.eye
    return noise


def _step_raw(X, V, f, params, dt, o=None, rngs=None):
    """One step on bare arrays, in place: X and V are overwritten and the new
    force is returned.  X/V stay exactly symmetric because f is.

    Without o, velocity-Verlet: half kick, one full drift, half kick.  With
    o, BAOAB: half kick, half drift, the O-step's OU velocity refresh (rngs
    holds one generator per configuration), half drift, half kick.
    """
    kick = 0.5 * dt * (1.0 / (2.0 * params.mu))
    drift = dt if o is None else 0.5 * dt
    scratch = kick * f
    V += scratch
    np.multiply(V, drift, out=scratch)
    X += scratch
    if o is not None:
        noise = _thermal_noise(o, rngs, X.shape)
        noise *= o.c2
        V *= o.c1
        V += noise
        np.multiply(V, drift, out=scratch)
        X += scratch
    f = _stacked_force(X, params)
    np.multiply(f, kick, out=scratch)
    V += scratch
    return f


def step_langevin(
    config: MatrixConfiguration,
    params: ModelParams,
    dt: float,
    gamma: float,
    T: float,
    rng,
) -> MatrixConfiguration:
    """One BAOAB step targeting the Gibbs measure exp(-(K+U)/T).

    B: half kick, A: half drift, O: Ornstein-Uhlenbeck velocity refresh,
    A: half drift, B: half kick.  T = 0 reduces to damped dynamics.
    Noise amplitudes respect the per-entry masses (2*mu diagonal, 4*mu
    per independent off-diagonal entry).
    """
    X, V = config.X.copy(), config.V.copy()
    _step_raw(X, V, force(config, params), params, dt, _ostep(params, dt, gamma, T), [rng])
    return MatrixConfiguration(X=X, V=V, time=config.time + dt)


def frame_position_tol(params: ModelParams, integ: IntegratorConfig) -> float:
    """The position_tol of run()'s joint diagonalizations.

    FRAME_DISPLACEMENT_FRACTION of sqrt(T dt_rec / (mu gamma)), the free
    thermal displacement of a diagonal entry (mass 2 mu, diffusion constant
    T / (2 mu gamma)) over one record interval dt_rec = dt * record_every.
    0 (off) at T = 0, as in every microcanonical run, whose frames keep the
    angle floor alone.
    """
    if integ.temperature == 0:
        return 0.0
    dt_rec = integ.dt * integ.record_every
    return FRAME_DISPLACEMENT_FRACTION * float(
        np.sqrt(integ.temperature * dt_rec / (params.mu * integ.gamma)))


def run(
    configs: list,
    params: ModelParams,
    integ: IntegratorConfig,
    seeds: list | None = None,
) -> list:
    """Evolve replicas together and record observables every record_every steps
    (incl. the initial state); returns one TrajectoryRecord per replica.

    configs[r] draws its Langevin noise from default_rng(seeds[r]) (all 0 when
    seeds is None); microcanonical runs draw no random numbers.  The replicas
    are stepped as one (R, d, N, N) stack, and every replica's record is
    bitwise the one it gets when run alone.  Each record array is allocated
    once, stacked over replicas, and each replica's record holds its slices.
    A replica's joint diagonalization warm-starts from the frame of its own
    previous recorded state, the only frame kept, and stops at
    frame_position_tol(params, integ) as well as at its angle floor.  Only
    the first state is a cold start, so particle i is row i of the first
    state's lexicographic order in every record of the run.
    """
    seeds = [0] * len(configs) if seeds is None else list(seeds)
    if len(seeds) != len(configs):
        raise ValueError(f"{len(configs)} configs but {len(seeds)} seeds")
    if not configs:
        return []
    R, d, N = len(configs), params.d, params.N
    n = integ.steps // integ.record_every + 1
    stacks = {"times": np.empty((R, n)), "spectra": np.empty((R, n, d, N)),
              "energies": np.empty((R, n, 2)), "com_momenta": np.empty((R, n, d))}
    if integ.record_frames:
        stacks.update(positions=np.empty((R, n, N, d)), residuals=np.empty((R, n)),
                      converged=np.empty((R, n), dtype=bool), sweeps=np.empty((R, n), dtype=int),
                      overlaps=np.empty((R, n)))
    warm = [None] * R  # each replica's last Jacobi frame
    position_tol = frame_position_tol(params, integ)

    def record(k, times):
        for r in range(R):
            # The steps update X and V in place: MatrixConfiguration's
            # symmetrize copies X[r] and V[r], which keeps records intact.
            cfg = MatrixConfiguration(X=X[r], V=V[r], time=times[r])
            # The energies come first: they raise ShapeError if cfg and
            # params disagree, before a row assignment fails on the shape.
            stacks["energies"][r, k] = kinetic_energy(cfg, params), potential_energy(cfg, params)
            stacks["times"][r, k] = cfg.time
            stacks["spectra"][r, k] = eigenvalues(cfg)
            stacks["com_momenta"][r, k] = com_momentum(cfg, params)
            if integ.record_frames:
                fr = joint_diagonalize(cfg, initial_frame=warm[r], position_tol=position_tol)
                stacks["overlaps"][r, k] = np.nan if warm[r] is None else np.min(
                    np.abs(np.einsum("ij,ij->i", fr.frame, warm[r])))
                warm[r] = fr.frame
                stacks["positions"][r, k] = fr.positions
                stacks["residuals"][r, k] = fr.residual
                stacks["converged"][r, k] = fr.converged
                stacks["sweeps"][r, k] = fr.sweeps

    cfgs = [c.copy() for c in configs]
    X = np.stack([c.X for c in cfgs])
    V = np.stack([c.V for c in cfgs])
    t0 = [c.time for c in cfgs]
    record(0, t0)
    f = _stacked_force(X, params)
    o = rngs = None
    if integ.mode == LANGEVIN:
        rngs = [np.random.default_rng(s) for s in seeds]
        o = _ostep(params, integ.dt, integ.gamma, integ.temperature, integ.project_trace_noise)
    # A blow-up is reported once, as a NumericsError, not as numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, integ.steps + 1):
            f = _step_raw(X, V, f, params, integ.dt, o, rngs)
            if not np.isfinite(f).all():
                r = int(np.argmin(np.isfinite(f).reshape(R, -1).all(axis=1)))
                k = float(np.nansum(V[r] * V[r])) * params.mu
                raise NumericsError(step, f"non-finite matrix entry (K~{k:.3g}); reduce dt", r)
            if step % integ.record_every == 0:
                record(step // integ.record_every, [t + step * integ.dt for t in t0])

    return [
        TrajectoryRecord(
            **{name: a[r] for name, a in stacks.items()},
            final_config=MatrixConfiguration(X=X[r], V=V[r], time=t0[r] + integ.steps * integ.dt),
        )
        for r in range(R)
    ]


def integrated_autocorrelation_time(x: np.ndarray) -> float:
    """Integrated autocorrelation time with a standard self-consistent window.

    Sums normalized autocorrelations up to the first lag where the running
    window exceeds ~5 tau (Sokal's criterion), or up to lag n/2; returns at
    least 0.5.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 4:
        return 0.5
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0:
        return 0.5
    tau = 0.5
    for k in range(1, n // 2):
        rho = float(x[:-k] @ x[k:]) / ((n - k) * var)
        tau += rho
        if k >= 5.0 * tau:
            break
    return max(tau, 0.5)


def measure_temperature(record: TrajectoryRecord, params: ModelParams) -> tuple[float, float]:
    """Equipartition estimate T = 2<K>/n_dof with a blocking standard error.

    The kinetic series is blocked over ~2 autocorrelation times; needs at
    least 8 decorrelated blocks.
    """
    K = record.energies[:, 0]
    T_series = 2.0 * K / params.n_dof
    if np.allclose(K, 0.0):
        return 0.0, 0.0
    tau = integrated_autocorrelation_time(T_series)
    block = max(1, int(np.ceil(2.0 * tau)))
    nblocks = len(T_series) // block
    if nblocks < 8:
        raise ValueError(
            f"record too short for blocking: {len(T_series)} samples, "
            f"block size {block} gives {nblocks} blocks (< 8)"
        )
    means = T_series[: nblocks * block].reshape(nblocks, block).mean(axis=1)
    stderr = float(means.std(ddof=1) / np.sqrt(nblocks))
    return float(T_series.mean()), stderr

