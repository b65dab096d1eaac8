"""Time evolution: velocity-Verlet, BAOAB Langevin thermostat, equilibration.

The matrix equations of motion from L = mu*Tr(Xdot^2) - U are
Xdotdot = F / (2*mu) with F = -dU/dX, so the Verlet update acts on whole
symmetric matrices with a uniform effective mass 2*mu.  The Langevin
O-step, however, must respect the per-entry masses implied by the trace
kinetic term (2*mu diagonal, 4*mu per independent off-diagonal entry):
the thermal noise amplitude differs between diagonal and off-diagonal
entries so that the sampled measure is exp(-(K+U)/T).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    MatrixConfiguration,
    ModelParams,
    ParticleFrame,
    Spectrum,
    com_momentum,
    eigenvalues,
    force,
    force_raw,
    joint_diagonalize,
    kinetic_energy,
    potential_energy,
    symmetrize,
)

MICROCANONICAL = "microcanonical"
LANGEVIN = "langevin"

NOISE_ALL = "all"
NOISE_OFFDIAG = "offdiagonal"


class NumericsError(RuntimeError):
    """NaN/Inf encountered during integration; carries the step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass
class IntegratorConfig:
    mode: str = MICROCANONICAL
    dt: float = 1e-2
    steps: int = 1000
    gamma: float = 0.0
    temperature: float = 0.0
    record_every: int = 1
    record_frames: bool = False
    noise_mode: str = NOISE_ALL
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
        if self.noise_mode not in (NOISE_ALL, NOISE_OFFDIAG):
            raise ValueError(
                f"noise_mode: must be {NOISE_ALL} or {NOISE_OFFDIAG}, got {self.noise_mode!r}"
            )


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    spectra: list  # list[Spectrum]
    energies: np.ndarray  # (n, 2): columns K, U
    com_momenta: np.ndarray  # (n, d)
    frames: list | None = None  # list[ParticleFrame] when recorded
    manifest: dict = field(default_factory=dict)
    final_config: MatrixConfiguration | None = None  # for chaining runs; not serialized

    def __post_init__(self):
        n = len(self.times)
        if len(self.spectra) != n or len(self.energies) != n or len(self.com_momenta) != n:
            raise ValueError("record lists must share a common length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


def _leapfrog_raw(X, V, f, params, dt):
    """Velocity-Verlet on bare arrays; X/V stay exactly symmetric because f is."""
    inv2mu = 1.0 / (2.0 * params.mu)
    V = V + (0.5 * dt * inv2mu) * f
    X = X + dt * V
    f_new = force_raw(X, params)
    V = V + (0.5 * dt * inv2mu) * f_new
    return X, V, f_new


def step_leapfrog(
    config: MatrixConfiguration,
    params: ModelParams,
    dt: float,
) -> MatrixConfiguration:
    """One velocity-Verlet step under F = force(); time advances by dt."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    X, V, _ = _leapfrog_raw(config.X, config.V, force(config, params), params, dt)
    return MatrixConfiguration(X=X, V=V, time=config.time + dt)


def _thermal_noise(params: ModelParams, T: float, rng, integ: IntegratorConfig) -> np.ndarray:
    """Symmetric noise matrices with per-entry variance T/m_e (m diag=2mu, offdiag=4mu)."""
    d, N, mu = params.d, params.N, params.mu
    iu = np.triu_indices(N, 1)
    noise = np.zeros((d, N, N))
    off = rng.normal(0.0, np.sqrt(T / (4.0 * mu)), size=(d, len(iu[0])))
    noise[:, iu[0], iu[1]] = off
    noise[:, iu[1], iu[0]] = off
    if integ.noise_mode == NOISE_ALL:
        di = np.arange(N)
        noise[:, di, di] = rng.normal(0.0, np.sqrt(T / (2.0 * mu)), size=(d, N))
    if integ.project_trace_noise:
        tr = np.trace(noise, axis1=1, axis2=2) / N
        noise -= tr[:, None, None] * np.eye(N)
    return noise


def _langevin_raw(X, V, f, params, dt, gamma, T, rng, integ):
    """One BAOAB step on bare arrays."""
    inv2mu = 1.0 / (2.0 * params.mu)
    V = V + (0.5 * dt * inv2mu) * f
    X = X + (0.5 * dt) * V

    c1 = np.exp(-gamma * dt)
    c2 = np.sqrt(1.0 - c1 * c1)
    noise = _thermal_noise(params, T, rng, integ)
    if integ.noise_mode == NOISE_OFFDIAG:
        # OU refresh only on off-diagonal entries; diagonal keeps its velocity.
        mask = 1.0 - np.eye(params.N)
        V = V * (1.0 - (1.0 - c1) * mask) + c2 * noise * mask
    else:
        V = c1 * V + c2 * noise

    X = X + (0.5 * dt) * V
    f_new = force_raw(X, params)
    V = V + (0.5 * dt * inv2mu) * f_new
    return X, V, f_new


def step_langevin(
    config: MatrixConfiguration,
    params: ModelParams,
    dt: float,
    gamma: float,
    T: float,
    rng,
    integ: IntegratorConfig | None = None,
) -> MatrixConfiguration:
    """One BAOAB step targeting the Gibbs measure exp(-(K+U)/T).

    B: half kick, A: half drift, O: Ornstein-Uhlenbeck velocity refresh,
    A: half drift, B: half kick.  T = 0 reduces to damped dynamics.
    Noise amplitudes respect the per-entry masses (2*mu diagonal, 4*mu
    per independent off-diagonal entry).
    """
    if integ is None:
        integ = IntegratorConfig(mode=LANGEVIN, dt=dt, steps=1, gamma=gamma, temperature=T)
    X, V, _ = _langevin_raw(
        config.X, config.V, force(config, params), params, dt, gamma, T, rng, integ
    )
    return MatrixConfiguration(X=X, V=V, time=config.time + dt)


def run(
    config: MatrixConfiguration,
    params: ModelParams,
    integ: IntegratorConfig,
    seed: int = 0,
) -> TrajectoryRecord:
    """Evolve and record observables every record_every steps (incl. initial state).

    seed feeds the Langevin noise; microcanonical runs draw no random numbers.
    """
    rng = np.random.default_rng(seed)
    cfg = config.copy()

    times = [cfg.time]
    spectra = [eigenvalues(cfg)]
    energies = [(kinetic_energy(cfg, params), potential_energy(cfg, params))]
    momenta = [com_momentum(cfg, params)]
    frames = [] if integ.record_frames else None
    prev_frame = None
    if integ.record_frames:
        prev_frame = joint_diagonalize(cfg)
        frames.append(prev_frame)

    X, V = cfg.X, cfg.V
    t0 = cfg.time
    f = force_raw(X, params)
    for step in range(1, integ.steps + 1):
        if integ.mode == MICROCANONICAL:
            X, V, f = _leapfrog_raw(X, V, f, params, integ.dt)
        else:
            X, V, f = _langevin_raw(
                X, V, f, params, integ.dt, integ.gamma, integ.temperature, rng, integ
            )
        if not np.isfinite(f).all():
            cfg = MatrixConfiguration(X=X, V=V, time=t0 + step * integ.dt)
            k = float(np.nansum(V * V)) * params.mu
            raise NumericsError(step, f"non-finite matrix entry (K~{k:.3g}); reduce dt")
        if step % integ.record_every == 0:
            cfg = MatrixConfiguration(X=X, V=V, time=t0 + step * integ.dt)
            times.append(cfg.time)
            spectra.append(eigenvalues(cfg))
            energies.append((kinetic_energy(cfg, params), potential_energy(cfg, params)))
            momenta.append(com_momentum(cfg, params))
            if integ.record_frames:
                prev_frame = joint_diagonalize(cfg, initial_frame=prev_frame.frame)
                frames.append(prev_frame)
    cfg = MatrixConfiguration(X=X, V=V, time=t0 + integ.steps * integ.dt)

    manifest = {
        "mode": integ.mode,
        "dt": integ.dt,
        "steps": integ.steps,
        "gamma": integ.gamma,
        "temperature": integ.temperature,
        "seed": seed,
        "record_every": integ.record_every,
        "noise_mode": integ.noise_mode,
        "project_trace_noise": integ.project_trace_noise,
        "com_momentum_conserved": integ.mode == MICROCANONICAL and params.kappa == 0.0,
        "pair_sum": params.pair_sum,
        "model": {
            "d": params.d,
            "N": params.N,
            "mu": params.mu,
            "omega": params.omega,
            "kappa": params.kappa,
        },
    }
    return TrajectoryRecord(
        times=np.array(times),
        spectra=spectra,
        energies=np.array(energies),
        com_momenta=np.array(momenta),
        frames=frames,
        manifest=manifest,
        final_config=cfg,
    )


def integrated_autocorrelation_time(x: np.ndarray, max_lag: int | None = None) -> float:
    """Integrated autocorrelation time with a standard self-consistent window.

    Sums normalized autocorrelations up to the first lag where the running
    window exceeds ~5 tau (Sokal's criterion); returns at least 0.5.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 4:
        return 0.5
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0:
        return 0.5
    if max_lag is None:
        max_lag = n // 2
    tau = 0.5
    for k in range(1, max_lag):
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


def equilibrate(
    config: MatrixConfiguration,
    params: ModelParams,
    integ: IntegratorConfig,
    seed: int,
    tol: float,
    max_steps: int = 1_000_000,
    chunk_steps: int = 2000,
) -> tuple[MatrixConfiguration, dict]:
    """Run Langevin chunks until the kinetic temperature settles at the target.

    Convergence: over a trailing window of 10 autocorrelation times
    (autocorrelation measured on U), the mean kinetic temperature is within
    tol of integ.temperature.  Returns the equilibrated configuration and
    diagnostics including the burn-in step count.
    """
    if integ.mode != LANGEVIN:
        raise ValueError("equilibrate requires langevin mode")
    if tol == np.inf:
        return config.copy(), {"burn_in_steps": 0, "converged": True, "T_est": None}

    rng = np.random.default_rng(seed)
    cfg = config.copy()
    record_every = max(1, integ.record_every)
    T_hist: list[float] = []
    U_hist: list[float] = []
    steps_done = 0
    X, V = cfg.X, cfg.V
    t0 = cfg.time
    f = force_raw(X, params)
    while steps_done < max_steps:
        for _ in range(chunk_steps):
            X, V, f = _langevin_raw(
                X, V, f, params, integ.dt, integ.gamma, integ.temperature, rng, integ
            )
            steps_done += 1
            if steps_done % record_every == 0:
                cfg = MatrixConfiguration(X=X, V=V, time=t0 + steps_done * integ.dt)
                T_hist.append(2.0 * kinetic_energy(cfg, params) / params.n_dof)
                U_hist.append(potential_energy(cfg, params))
        cfg = MatrixConfiguration(X=X, V=V, time=t0 + steps_done * integ.dt)
        if not np.isfinite(cfg.X).all():
            raise NumericsError(steps_done, "non-finite entry during equilibration")
        if len(U_hist) < 16:
            continue
        tau = integrated_autocorrelation_time(np.array(U_hist))
        window = max(16, int(np.ceil(10.0 * tau)))
        if len(T_hist) < window:
            continue
        T_win = float(np.mean(T_hist[-window:]))
        if abs(T_win - integ.temperature) <= tol:
            return cfg, {
                "burn_in_steps": steps_done,
                "converged": True,
                "T_est": T_win,
                "tau_U": tau,
            }
    raise RuntimeError(
        f"equilibrate did not converge after {steps_done} steps "
        f"(last window T={np.mean(T_hist[-16:]):.4g}, target {integ.temperature:.4g})"
    )
