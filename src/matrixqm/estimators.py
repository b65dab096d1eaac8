"""Statistics of eigenvalue trajectories: density, velocities, diffusion, scaling.

Everything here operates on ensembles of identity-matched particle
trajectories extracted from matrix runs (or on synthetic paths, which is
how each estimator is calibrated).  The scaling-formula layer implements
the dimensionless temperature t = N*T / (8(d-1)*mu*omega^2), the predicted
eigenvalue diffusion constant nu = omega*d*t^(3/2) / (4(d-1)^(3/2)), and
the emergent Planck constant hbar = mu*nu.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import ModelParams, ParticleFrame, random_config
from .dynamics import LANGEVIN, IntegratorConfig, run


@dataclass
class EigenTrajectory:
    """Identity-matched particle positions over time for one replica.

    positions has shape (T, N, d); residuals is the per-frame joint
    diagonalization off-diagonal norm (zeros for synthetic data).
    """

    times: np.ndarray
    positions: np.ndarray
    residuals: np.ndarray | None = None
    replica_id: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 3:
            raise ValueError("positions must have shape (T, N, d)")
        if len(self.times) != self.positions.shape[0]:
            raise ValueError("times and positions disagree in length")
        if self.residuals is None:
            self.residuals = np.zeros(len(self.times))


@dataclass(frozen=True)
class Grid:
    """Rectangular uniform lattice; axes[i] is the 1D coordinate array of axis i."""

    axes: tuple

    @classmethod
    def regular(cls, lo, hi, n_points, ndim=1):
        lo = np.broadcast_to(np.atleast_1d(lo), (ndim,))
        hi = np.broadcast_to(np.atleast_1d(hi), (ndim,))
        n = np.broadcast_to(np.atleast_1d(n_points), (ndim,))
        return cls(axes=tuple(np.linspace(lo[i], hi[i], int(n[i])) for i in range(ndim)))

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(len(ax) for ax in self.axes)

    @property
    def spacings(self):
        return np.array([ax[1] - ax[0] for ax in self.axes])

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    def points(self):
        """All grid points as an array of shape (n_cells, ndim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass
class FieldEstimate:
    """Gridded density / velocity fields with estimation metadata."""

    grid: Grid
    rho: np.ndarray | None = None
    v: np.ndarray | None = None  # shape (ndim, *grid.shape)
    u: np.ndarray | None = None
    mask: np.ndarray | None = None  # True on usable (occupied) cells
    bandwidth: float = 0.0
    n_samples: int = 0
    v_stderr: np.ndarray | None = None  # kernel-regression pointwise error, like v


@dataclass
class DiffusionEstimate:
    nu_hat: float
    stderr: float
    fit_window: tuple
    method: str
    n_lags: int = 0
    per_direction: np.ndarray | None = None

    def __post_init__(self):
        if self.nu_hat < 0 or self.stderr < 0:
            raise ValueError("nu_hat and stderr must be >= 0")


@dataclass
class ScalingPoint:
    N: int
    T: float
    t_scaled: float
    nu_hat: float
    nu_stderr: float
    nu_pred: float
    hbar_emergent: float
    irrot_residual: float = 0.0
    mean_frame_residual: float = 0.0


# ---------------------------------------------------------------------------
# particle tracking


def _match(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """Permutation p minimizing sum |prev_i - cur_{p(i)}|^2."""
    d2 = np.sum((prev[:, None, :] - cur[None, :, :]) ** 2, axis=2)
    _, cols = linear_sum_assignment(d2)
    return cols


def track_particles(frames: list, times) -> EigenTrajectory:
    """Chain frame-to-frame minimum-displacement assignments into trajectories."""
    if not frames:
        raise ValueError("no frames")
    n = frames[0].positions.shape[0]
    out = [frames[0].positions]
    residuals = [frames[0].residual]
    for fr in frames[1:]:
        if fr.positions.shape[0] != n:
            raise ValueError("particle count changes between frames")
        p = _match(out[-1], fr.positions)
        out.append(fr.positions[p])
        residuals.append(fr.residual)
    return EigenTrajectory(
        times=np.asarray(times, dtype=float),
        positions=np.stack(out),
        residuals=np.array(residuals),
    )


# ---------------------------------------------------------------------------
# field estimation


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb kernel width for roughly unimodal data."""
    samples = np.asarray(samples, dtype=float).ravel()
    n = len(samples)
    sigma = samples.std(ddof=1) if n > 1 else 1.0
    iqr = np.subtract(*np.percentile(samples, [75, 25]))
    scale = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    return 0.9 * max(scale, 1e-12) * n ** (-0.2)


def _sample_positions_at(trajectories, query_time, grid_ndim):
    """Pool particle positions at the recorded time closest to query_time."""
    pts = []
    for tr in trajectories:
        i = int(np.argmin(np.abs(tr.times - query_time)))
        p = tr.positions[i]
        if grid_ndim == p.shape[1]:
            pts.append(p)
        elif grid_ndim == 1:
            pts.append(p.reshape(-1, 1))  # pool every coordinate as a scalar sample
        else:
            raise ValueError(f"grid ndim {grid_ndim} incompatible with data d={p.shape[1]}")
    return np.concatenate(pts, axis=0)


def _kernel_weights(grid: Grid, samples: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel matrix, shape (n_cells, n_samples)."""
    g = grid.points()  # (n_cells, ndim)
    d2 = np.sum((g[:, None, :] - samples[None, :, :]) ** 2, axis=2)
    return np.exp(-0.5 * d2 / bandwidth**2)


def estimate_density(trajectories, query_time, grid: Grid, bandwidth: float) -> FieldEstimate:
    """Gaussian-kernel density of the pooled ensemble at query_time, grid-normalized."""
    if len(trajectories) < 2:
        raise ValueError("need at least 2 replicas")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be > 0")
    samples = _sample_positions_at(trajectories, query_time, grid.ndim)
    if len(samples) == 0:
        raise ValueError("empty ensemble")
    w = _kernel_weights(grid, samples, bandwidth)
    rho = w.sum(axis=1).reshape(grid.shape)
    total = rho.sum() * grid.cell_volume
    if total <= 0:
        raise ValueError("all samples fall outside the grid")
    rho = rho / total
    return FieldEstimate(
        grid=grid,
        rho=rho,
        mask=rho > 0,
        bandwidth=bandwidth,
        n_samples=len(samples),
    )


def estimate_current_velocity(
    trajectories,
    query_time,
    grid: Grid,
    bandwidth: float,
    lag: int = 1,
    min_weight_frac: float = 1e-3,
) -> FieldEstimate:
    """Nelson current velocity by kernel regression of symmetric differences.

    v(lambda) = E[(x(t+tau) - x(t-tau)) / (2 tau) | x(t) = lambda], estimated
    with Gaussian weights around each grid cell.  Cells carrying less than
    min_weight_frac of the peak weight are masked.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    pos, vel = [], []
    for tr in trajectories:
        i = int(np.argmin(np.abs(tr.times - query_time)))
        if i - lag < 0 or i + lag >= len(tr.times):
            raise ValueError("insufficient temporal neighbors around query_time")
        tau2 = tr.times[i + lag] - tr.times[i - lag]
        p = tr.positions[i]
        dv = (tr.positions[i + lag] - tr.positions[i - lag]) / tau2
        if grid.ndim == p.shape[1]:
            pos.append(p)
            vel.append(dv)
        elif grid.ndim == 1:
            pos.append(p.reshape(-1, 1))
            vel.append(dv.reshape(-1, 1))
        else:
            raise ValueError("grid/data dimension mismatch")
    pos = np.concatenate(pos, axis=0)
    vel = np.concatenate(vel, axis=0)

    w = _kernel_weights(grid, pos, bandwidth)  # (cells, samples)
    wsum = w.sum(axis=1)
    mask = wsum > min_weight_frac * wsum.max()
    safe = np.where(mask, wsum, 1.0)
    n_eff = wsum**2 / np.maximum((w**2).sum(axis=1), 1e-300)
    v = np.zeros((grid.ndim,) + grid.shape)
    v_stderr = np.zeros_like(v)
    for a in range(grid.ndim):
        mean = (w @ vel[:, a]) / safe
        second = (w @ vel[:, a] ** 2) / safe
        var = np.maximum(second - mean**2, 0.0)
        stderr = np.sqrt(var / np.maximum(n_eff, 1.0))
        mean[~mask] = 0.0
        stderr[~mask] = 0.0
        v[a] = mean.reshape(grid.shape)
        v_stderr[a] = stderr.reshape(grid.shape)
    return FieldEstimate(
        grid=grid,
        v=v,
        mask=mask.reshape(grid.shape),
        bandwidth=bandwidth,
        n_samples=len(pos),
        v_stderr=v_stderr,
    )


def estimate_osmotic_velocity(
    rho_estimate: FieldEstimate, nu: float, rho_floor_frac: float = 1e-6
) -> FieldEstimate:
    """u = nu * grad(ln rho) by central differences; low-density cells masked."""
    rho = rho_estimate.rho
    if rho is None:
        raise ValueError("rho_estimate carries no density")
    grid = rho_estimate.grid
    floor = rho_floor_frac * rho.max()
    mask = rho > floor
    if not mask.any():
        raise ValueError("all cells below the density floor")
    logrho = np.log(np.where(mask, rho, floor))
    u = np.zeros((grid.ndim,) + grid.shape)
    if nu != 0.0:
        grads = np.gradient(logrho, *grid.spacings) if grid.ndim > 1 else [
            np.gradient(logrho, grid.spacings[0])
        ]
        for a in range(grid.ndim):
            u[a] = nu * grads[a]
            u[a][~mask] = 0.0
    return FieldEstimate(
        grid=grid,
        rho=rho,
        u=u,
        mask=mask,
        bandwidth=rho_estimate.bandwidth,
        n_samples=rho_estimate.n_samples,
    )


def continuity_residual(rho_series, v_field: FieldEstimate, dt_between: float) -> float:
    """Mass-weighted L1 norm of d(rho)/dt + div(rho v) on interior cells.

    rho_series holds 2 or 3 density snapshots separated by dt_between
    (3 snapshots give a centered time derivative at the middle one).
    """
    rhos = [r.rho if isinstance(r, FieldEstimate) else np.asarray(r) for r in rho_series]
    if len(rhos) < 2:
        raise ValueError("need at least 2 density snapshots")
    grid = v_field.grid
    for r in rhos:
        if r.shape != grid.shape:
            raise ValueError("grid mismatch between density snapshots and velocity field")
    if len(rhos) >= 3:
        drho_dt = (rhos[2] - rhos[0]) / (2.0 * dt_between)
        rho_mid = rhos[1]
    else:
        drho_dt = (rhos[1] - rhos[0]) / dt_between
        rho_mid = 0.5 * (rhos[0] + rhos[1])

    div = np.zeros(grid.shape)
    for a in range(grid.ndim):
        flux = rho_mid * v_field.v[a]
        div += np.gradient(flux, grid.spacings[a], axis=a)

    resid = drho_dt + div
    interior = np.ones(grid.shape, dtype=bool)
    for a in range(grid.ndim):
        sl = [slice(None)] * grid.ndim
        sl[a] = 0
        interior[tuple(sl)] = False
        sl[a] = -1
        interior[tuple(sl)] = False
    if v_field.mask is not None:
        interior &= v_field.mask
    return float(np.sum(np.abs(resid[interior])) * grid.cell_volume)


def irrotationality_residual(v_field: FieldEstimate) -> float:
    """Discrete curl magnitude of v, relative to the full velocity-gradient scale.

    Returns 0 for 1D fields by convention.  Small for gradient (potential)
    flows; O(1) for rigid rotation.
    """
    grid = v_field.grid
    if grid.ndim < 2:
        return 0.0
    J = np.zeros((grid.ndim, grid.ndim) + grid.shape)
    for a in range(grid.ndim):
        for b in range(grid.ndim):
            J[a, b] = np.gradient(v_field.v[a], grid.spacings[b], axis=b)
    A = 0.5 * (J - np.swapaxes(J, 0, 1))
    curl_mag = np.sqrt(np.sum(A * A, axis=(0, 1)))
    grad_mag = np.sqrt(np.sum(J * J, axis=(0, 1)))
    cells = v_field.mask if v_field.mask is not None else np.ones(grid.shape, dtype=bool)
    # Exclude the outermost layer: one-sided differences there are lower order.
    for a in range(grid.ndim):
        sl = [slice(None)] * grid.ndim
        sl[a] = 0
        cells = cells.copy()
        cells[tuple(sl)] = False
        sl[a] = -1
        cells[tuple(sl)] = False
    if not cells.any():
        return 0.0
    scale = grad_mag[cells].max()
    if scale == 0.0:
        return 0.0
    return float(curl_mag[cells].max() / scale)


# ---------------------------------------------------------------------------
# diffusion


MSD_SLOPE = "msd_slope"
QUADRATIC_VARIATION = "quadratic_variation"


def _stack_positions(trajectories):
    times = trajectories[0].times
    for tr in trajectories[1:]:
        if len(tr.times) != len(times) or not np.allclose(tr.times, times):
            raise ValueError("trajectories must share a common time grid")
    return times, np.stack([tr.positions for tr in trajectories])  # (R, T, N, d)


def estimate_diffusion(
    trajectories,
    fit_window: tuple,
    method: str = MSD_SLOPE,
    remove_drift: bool = True,
    n_bootstrap: int = 200,
    seed: int = 0,
) -> DiffusionEstimate:
    """Per-coordinate diffusion constant of an ensemble of paths.

    msd_slope fits <(dx)^2> = 2 nu tau over lags inside fit_window after
    subtracting the ensemble-mean displacement (drift).  The standard error
    comes from a bootstrap over replicas.
    """
    times, pos = _stack_positions(trajectories)
    R, T, N, d = pos.shape
    dt = times[1] - times[0]
    tau_min, tau_max = fit_window
    if method == QUADRATIC_VARIATION:
        lags = [1]
    else:
        lags = [k for k in range(1, T) if tau_min <= k * dt <= tau_max]
        if len(lags) < 5:
            raise ValueError(
                f"fit window ({tau_min}, {tau_max}) contains {len(lags)} lags (< 5)"
            )

    # per-replica, per-lag mean squared (drift-corrected) displacement
    msd_r = np.zeros((R, len(lags)))
    msd_dir = np.zeros((len(lags), d))
    n_paths = R * N
    bias = n_paths / (n_paths - 1) if (remove_drift and n_paths > 1) else 1.0
    for j, k in enumerate(lags):
        disp = pos[:, k:, :, :] - pos[:, :-k, :, :]  # (R, T-k, N, d)
        if remove_drift:
            disp = disp - disp.mean(axis=(0, 2), keepdims=True)
        msd_r[:, j] = bias * np.mean(disp**2, axis=(1, 2, 3))
        msd_dir[j] = bias * np.mean(disp**2, axis=(0, 1, 2))

    taus = np.array(lags) * dt

    def fit(msd_mean):
        if method == QUADRATIC_VARIATION:
            return float(msd_mean[0] / (2.0 * dt))
        return float(np.dot(msd_mean, taus) / (2.0 * np.dot(taus, taus)))

    nu_hat = max(fit(msd_r.mean(axis=0)), 0.0)
    per_direction = np.array([
        max(float(np.dot(msd_dir[:, a], taus) / (2.0 * np.dot(taus, taus))), 0.0)
        if method == MSD_SLOPE
        else max(float(msd_dir[0, a] / (2.0 * dt)), 0.0)
        for a in range(d)
    ])

    if R > 1 and n_bootstrap > 0:
        rng = np.random.default_rng(seed)
        draws = np.empty(n_bootstrap)
        for b in range(n_bootstrap):
            idx = rng.integers(0, R, size=R)
            draws[b] = fit(msd_r[idx].mean(axis=0))
        stderr = float(draws.std(ddof=1))
    else:
        stderr = 0.0

    return DiffusionEstimate(
        nu_hat=nu_hat,
        stderr=stderr,
        fit_window=(tau_min, tau_max),
        method=method,
        n_lags=len(lags),
        per_direction=per_direction,
    )


# ---------------------------------------------------------------------------
# scaling formulas (the quantitative bridge)


def scaled_temperature(params: ModelParams, T: float, N: int) -> float:
    """Dimensionless t = N*T / (8 (d-1) mu omega^2); singular at d = 1."""
    if params.d < 2:
        raise ValueError("scaled temperature requires d >= 2")
    return N * T / (8.0 * (params.d - 1) * params.mu * params.omega**2)


def temperature_for_scaled(params: ModelParams, t_scaled: float, N: int) -> float:
    """Inverse of scaled_temperature: T = 8 (d-1) mu omega^2 t / N."""
    if params.d < 2:
        raise ValueError("scaled temperature requires d >= 2")
    return 8.0 * (params.d - 1) * params.mu * params.omega**2 * t_scaled / N


def predicted_diffusion(params: ModelParams, t_scaled: float) -> float:
    """Eigenvalue diffusion constant nu = omega * d * t^(3/2) / (4 (d-1)^(3/2))."""
    if params.d < 2:
        raise ValueError("predicted diffusion requires d >= 2")
    if t_scaled < 0:
        raise ValueError("t_scaled must be >= 0")
    return params.omega * params.d * t_scaled**1.5 / (4.0 * (params.d - 1) ** 1.5)


def emergent_hbar(params: ModelParams, nu_lambda: float) -> float:
    """hbar = mu * nu_lambda."""
    if nu_lambda < 0:
        raise ValueError("nu_lambda must be >= 0")
    return params.mu * nu_lambda


# ---------------------------------------------------------------------------
# scaling sweep


# Irrotationality diagnostic grid: points per axis.
IRROT_GRID_POINTS = 24


@dataclass
class SweepSettings:
    """The fixed-t line (t_scaled, N_list) and the Langevin runs at each point."""

    t_scaled: float = 0.1
    N_list: list = field(default_factory=lambda: [8, 16, 32])
    replicas: int = 8
    burn_in_steps: int = 2000
    steps: int = 4000
    dt: float = 0.01
    gamma: float = 0.1  # friction in units of omega
    record_every: int = 5
    spread: float = 0.5

    def __post_init__(self):
        # Messages start with the field name (see ModelParams).
        if self.t_scaled < 0:
            raise ValueError("t_scaled: must be >= 0")
        if not self.N_list or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in self.N_list
        ):
            raise ValueError(f"N_list: must be a non-empty list of ints >= 2, got {self.N_list}")
        if self.replicas < 1:
            raise ValueError("replicas: must be >= 1")
        if self.burn_in_steps < 0:
            raise ValueError("burn_in_steps: must be >= 0")
        if self.record_every < 1:
            raise ValueError("record_every: must be >= 1")
        if self.steps < 10 * self.record_every:
            raise ValueError("steps: must cover >= 10 record intervals (the MSD fit needs 5 lags)")
        if self.dt <= 0:
            raise ValueError("dt: must be > 0")
        if self.gamma <= 0:
            raise ValueError("gamma: must be > 0")
        if self.spread < 0:
            raise ValueError("spread: must be >= 0")


def scaling_sweep(
    base_params: ModelParams,
    settings: SweepSettings,
    master_seed: int,
) -> list:
    """Measure the eigenvalue diffusion constant along the fixed-t trajectory.

    For each N in settings.N_list the temperature is set to
    8(d-1) mu omega^2 t / N, an ensemble of Langevin runs is thermalized and
    recorded, particle trajectories are tracked through joint-diagonalized
    frames, and the diffusion constant fitted over 5..50 recorded lags is
    reported next to the scaling-limit prediction.  The comparison is a
    report, not an assertion: the prediction holds only in the N -> infinity,
    T -> 0 limit.
    """
    if base_params.d < 2:
        raise ValueError("scaling sweep requires d >= 2")
    s = settings
    dt_rec = s.dt * s.record_every
    fit_window = (5 * dt_rec, 50 * dt_rec)
    points = []
    for N in s.N_list:
        params = dataclasses.replace(base_params, N=int(N))
        T = temperature_for_scaled(params, s.t_scaled, N)
        trajectories = []
        frame_residuals = []
        for r in range(s.replicas):
            seed_cfg, seed_burn, seed_run = (
                int(x) for x in np.random.SeedSequence([master_seed, int(N), r]).generate_state(3)
            )
            cfg = random_config(params, s.spread, seed_cfg)
            burn = IntegratorConfig(
                mode=LANGEVIN,
                dt=s.dt,
                steps=s.burn_in_steps,
                gamma=s.gamma * params.omega,
                temperature=T,
                record_every=max(1, s.burn_in_steps),
                project_trace_noise=True,
            )
            cfg = run(cfg, params, burn, seed_burn).final_config
            measure = IntegratorConfig(
                mode=LANGEVIN,
                dt=s.dt,
                steps=s.steps,
                gamma=s.gamma * params.omega,
                temperature=T,
                record_every=s.record_every,
                record_frames=True,
                project_trace_noise=True,
            )
            rec = run(cfg, params, measure, seed_run)
            traj = track_particles(rec.frames, rec.times)
            traj.replica_id = r
            # Remove the per-frame collective (trace-mode) motion.
            traj.positions = traj.positions - traj.positions.mean(axis=1, keepdims=True)
            trajectories.append(traj)
            frame_residuals.append(float(np.mean(traj.residuals)))

        est = estimate_diffusion(trajectories, fit_window, seed=master_seed + int(N))
        nu_pred = predicted_diffusion(params, s.t_scaled)

        # Irrotationality diagnostic at mid-run on a d-dimensional grid.
        mid_t = trajectories[0].times[len(trajectories[0].times) // 2]
        all_pos = np.concatenate([tr.positions.reshape(-1, params.d) for tr in trajectories])
        lo = np.percentile(all_pos, 5, axis=0)
        hi = np.percentile(all_pos, 95, axis=0)
        grid = Grid(axes=tuple(
            np.linspace(lo[a], hi[a], IRROT_GRID_POINTS) for a in range(params.d)
        ))
        bw = silverman_bandwidth(all_pos[:, 0])
        try:
            v_field = estimate_current_velocity(trajectories, mid_t, grid, bw, lag=1)
            irrot = irrotationality_residual(v_field)
        except ValueError:
            irrot = float("nan")

        points.append(ScalingPoint(
            N=int(N),
            T=T,
            t_scaled=scaled_temperature(params, T, int(N)),
            nu_hat=est.nu_hat,
            nu_stderr=est.stderr,
            nu_pred=nu_pred,
            hbar_emergent=emergent_hbar(params, est.nu_hat),
            irrot_residual=irrot,
            mean_frame_residual=float(np.mean(frame_residuals)),
        ))
    return points
