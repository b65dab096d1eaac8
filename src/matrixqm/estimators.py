"""Statistics of eigenvalue trajectories: velocity fields, diffusion, scaling.

Everything here operates on ensembles of particle trajectories, extracted
from matrix runs (each particle carried by its row of the Jacobi frame) or
synthetic, which is how each estimator is calibrated.  The scaling-formula
layer implements the dimensionless temperature t = N*T / (8(d-1)*mu*omega^2),
the predicted eigenvalue diffusion constant
nu = omega*d*t^(3/2) / (4(d-1)^(3/2)), and the emergent Planck constant
hbar = mu*nu.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams, random_config
from .dynamics import LANGEVIN, IntegratorConfig, NumericsError, frame_position_tol, run


@dataclass
class EigenTrajectory:
    """Particle trajectories of an ensemble on one time axis.

    times has shape (T,) and positions (R, T, N, d): replica r's particle i
    at times[k] is positions[r, k, i].  ambiguous (R, T) flags the frames
    whose step in turned the frame far (see track_particles; False at
    frame 0).  For synthetic data it defaults to all False.
    """

    times: np.ndarray
    positions: np.ndarray
    ambiguous: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 4:
            raise ValueError("positions must have shape (R, T, N, d)")
        if len(self.times) != self.positions.shape[1]:
            raise ValueError("times and positions disagree in length")
        if self.ambiguous is None:
            self.ambiguous = np.zeros(self.positions.shape[:2], dtype=bool)


@dataclass(frozen=True)
class Grid:
    """Rectangular uniform lattice; axes[i] is the 1D coordinate array of axis i."""

    axes: tuple

    @classmethod
    def regular(cls, lo, hi, n_points, ndim=1):
        """n_points from lo to hi on each of ndim axes."""
        return cls(axes=tuple(np.linspace(lo, hi, n_points) for _ in range(ndim)))

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
    v: np.ndarray | None = None  # shape (ndim, *grid.shape)
    mask: np.ndarray | None = None  # True on usable (occupied) cells


@dataclass
class DiffusionEstimate:
    nu_hat: float
    stderr: float


@dataclass
class ScalingPoint:
    N: int
    T: float
    t_scaled: float
    nu_hat: float
    nu_stderr: float
    nu_pred: float
    hbar_emergent: float
    mean_frame_residual: float = 0.0
    nonconverged_frames: int = 0  # Jacobi frames that hit max_sweeps, over all replicas
    ambiguous_steps: int = 0  # steps that turned a frame row far (track_particles), all replicas
    mean_frame_sweeps: float = 0.0  # all-pairs Jacobi iterations per frame


# ---------------------------------------------------------------------------
# particle tracking


# A step is flagged when some frame row turned through more than
# arccos(TRACK_MIN_OVERLAP), about 26 degrees.
TRACK_MIN_OVERLAP = 0.9


def track_particles(positions: np.ndarray, times, overlaps: np.ndarray) -> EigenTrajectory:
    """The ensemble's particle trajectories, with their doubtful steps flagged.

    positions (R, T, N, d) holds each replica's particle positions at each
    entry of times in track order: row i is the same particle in every frame,
    as run() records them, each frame's Jacobi warm-started from the last.
    overlaps (R, T) holds each frame's smallest row overlap with the frame
    before (TrajectoryRecord.overlaps).  A step is flagged ambiguous when
    that overlap is below TRACK_MIN_OVERLAP: there a row of the frame turned
    far, and the particle it carries may have become another one.  A nan
    overlap (a frame without predecessor) is never flagged.
    """
    if positions.ndim != 4 or 0 in positions.shape[:2]:
        raise ValueError("no frames: positions must have shape (R, T, N, d) with R, T >= 1")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    return EigenTrajectory(times=times, positions=positions,
                           ambiguous=overlaps < TRACK_MIN_OVERLAP)


# ---------------------------------------------------------------------------
# field estimation


def _iqr(samples: np.ndarray) -> float:
    """np.subtract(*np.percentile(samples, [75, 25])) of a 1-d float array, bit
    for bit, from numpy's own steps for its default linear method: the same
    partition of a copy, virtual index (n - 1) q, and _lerp's a + (b - a) t,
    taken as b - (b - a)(1 - t) where t >= 0.5.  np.percentile picks the
    partition's order statistics with np.unique, which imports numpy.ma;
    sorted(set()) gives the same indices without it."""
    n = len(samples)
    ends = []  # (lower index, upper index, weight t) of the 75th, then the 25th
    for q in (0.75, 0.25):
        v = (n - 1) * q
        lo = -1 if v >= n - 1 else int(v)  # -1: the largest sample
        ends.append((lo, -1 if lo == -1 else lo + 1, v - lo))
    part = samples.copy()
    part.partition(sorted({0, -1} | {i for lo, hi, _ in ends for i in (lo, hi)}))
    if np.isnan(part[-1]):  # nan sorts last, and percentile returns it
        return part[-1] - part[-1]
    q75, q25 = (part[hi] - (part[hi] - part[lo]) * (1 - t) if t >= 0.5
                else part[lo] + (part[hi] - part[lo]) * t for lo, hi, t in ends)
    return q75 - q25


def silverman_bandwidth(samples: np.ndarray) -> float:
    """Rule-of-thumb kernel width for roughly unimodal data; nan if a sample
    is not finite.  The spread of one finite sample is taken as 1."""
    samples = np.asarray(samples, dtype=float).ravel()
    if not np.isfinite(samples).all():
        return np.nan
    n = len(samples)
    sigma = samples.std(ddof=1) if n > 1 else 1.0
    iqr = _iqr(samples)
    scale = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    return 0.9 * max(scale, 1e-12) * n ** (-0.2)


def _kernel_weights(grid: Grid, samples: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel matrix, shape (n_cells, n_samples)."""
    g = grid.points()  # (n_cells, ndim)
    d2 = np.sum((g[:, None, :] - samples[None, :, :]) ** 2, axis=2)
    return np.exp(-0.5 * d2 / bandwidth**2)


CURRENT_VELOCITY_MIN_WEIGHT = 1e-3


def estimate_current_velocity(
    trajectories: EigenTrajectory,
    query_time,
    grid: Grid,
    bandwidth: float,
    lag: int = 1,
) -> FieldEstimate:
    """Nelson current velocity by kernel regression of symmetric differences.

    v(lambda) = E[(x(t+tau) - x(t-tau)) / (2 tau) | x(t) = lambda], estimated
    with Gaussian weights around each grid cell from the R * N particles of
    the ensemble at the record nearest query_time; the grid has one axis per
    particle coordinate (d).  Cells carrying less than
    CURRENT_VELOCITY_MIN_WEIGHT of the peak weight are masked.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    times, positions = trajectories.times, trajectories.positions
    d = positions.shape[3]
    if grid.ndim != d:
        raise ValueError("grid/data dimension mismatch")
    i = int(np.argmin(np.abs(times - query_time)))
    if i - lag < 0 or i + lag >= len(times):
        raise ValueError("insufficient temporal neighbors around query_time")
    tau2 = times[i + lag] - times[i - lag]
    pos = positions[:, i].reshape(-1, d)
    vel = ((positions[:, i + lag] - positions[:, i - lag]) / tau2).reshape(-1, d)

    w = _kernel_weights(grid, pos, bandwidth)  # (cells, samples)
    wsum = w.sum(axis=1)
    mask = wsum > CURRENT_VELOCITY_MIN_WEIGHT * wsum.max()
    safe = np.where(mask, wsum, 1.0)
    v = np.zeros((grid.ndim,) + grid.shape)
    for a in range(grid.ndim):
        mean = (w @ vel[:, a]) / safe
        mean[~mask] = 0.0
        v[a] = mean.reshape(grid.shape)
    return FieldEstimate(grid=grid, v=v, mask=mask.reshape(grid.shape))


def _interior(v_field: FieldEstimate) -> np.ndarray:
    """The cells of v_field's mask (every cell without one) less the grid's
    outermost layer, where one-sided differences are lower order."""
    grid = v_field.grid
    cells = np.ones(grid.shape, dtype=bool) if v_field.mask is None else v_field.mask.copy()
    for a in range(grid.ndim):
        sl = [slice(None)] * grid.ndim
        sl[a] = 0
        cells[tuple(sl)] = False
        sl[a] = -1
        cells[tuple(sl)] = False
    return cells


def continuity_residual(rho_series, v_field: FieldEstimate, dt_between: float) -> float:
    """Mass-weighted L1 norm of d(rho)/dt + div(rho v) on interior cells.

    rho_series holds 3 density snapshots separated by dt_between; the time
    derivative is centered at the middle one.
    """
    rhos = [np.asarray(r) for r in rho_series]
    if len(rhos) != 3:
        raise ValueError(f"need 3 density snapshots, got {len(rhos)}")
    grid = v_field.grid
    for r in rhos:
        if r.shape != grid.shape:
            raise ValueError("grid mismatch between density snapshots and velocity field")
    drho_dt = (rhos[2] - rhos[0]) / (2.0 * dt_between)

    div = np.zeros(grid.shape)
    for a in range(grid.ndim):
        flux = rhos[1] * v_field.v[a]
        div += np.gradient(flux, grid.spacings[a], axis=a)

    resid = drho_dt + div
    return float(np.sum(np.abs(resid[_interior(v_field)])) * grid.cell_volume)


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
    cells = _interior(v_field)
    if not cells.any():
        return 0.0
    scale = grad_mag[cells].max()
    if scale == 0.0:
        return 0.0
    return float(curl_mag[cells].max() / scale)


# ---------------------------------------------------------------------------
# diffusion


def estimate_diffusion(trajectories: EigenTrajectory, lags: tuple) -> DiffusionEstimate:
    """Per-coordinate diffusion constant of an ensemble of paths.

    Fits <(dx)^2> = 2 nu tau over the record lags k = lag_min..lag_max of
    lags = (lag_min, lag_max), as far as the T records reach, with
    tau = k * (times[1] - times[0]), to the (R, T, N, d) positions less the
    ensemble-mean displacement (drift).  The stderr is the replica jackknife
    sd(nu_r) / sqrt(R) of the per-replica fits nu_r (R - 1 degrees of
    freedom, nan at R = 1).  It holds the shared drift correction fixed,
    which couples replicas of few particles, and there it runs low (README).
    ValueError for fewer than two paths (R * N < 2): the drift of one path
    is its own displacement.
    """
    pos = trajectories.positions
    R, T, N, _ = pos.shape
    if R * N < 2:
        raise ValueError(f"R * N = {R * N} paths; the drift correction needs at least two")
    lag_min, lag_max = lags
    ks = range(max(lag_min, 1), min(lag_max, T - 1) + 1)
    if len(ks) < 5:
        raise ValueError(f"record lags ({lag_min}, {lag_max}) of {T} records "
                         f"give {len(ks)} lags (< 5)")

    # per-replica, per-lag mean squared (drift-corrected) displacement
    msd_r = np.zeros((R, len(ks)))
    bias = R * N / (R * N - 1)
    for j, k in enumerate(ks):
        disp = pos[:, k:] - pos[:, :-k]  # (R, T-k, N, d)
        disp = disp - disp.mean(axis=(0, 2), keepdims=True)
        msd_r[:, j] = bias * np.mean(disp**2, axis=(1, 2, 3))

    taus = np.array(ks) * (trajectories.times[1] - trajectories.times[0])
    norm = 2.0 * np.dot(taus, taus)
    nu_hat = max(float(np.dot(msd_r.mean(axis=0), taus) / norm), 0.0)
    nu_r = msd_r @ taus / norm
    stderr = float(nu_r.std(ddof=1) / np.sqrt(R)) if R > 1 else float("nan")
    return DiffusionEstimate(nu_hat=nu_hat, stderr=stderr)


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
        if len(set(self.N_list)) != len(self.N_list):
            raise ValueError(f"N_list: must not repeat an N, got {self.N_list}")
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


def sweep_point(base_params: ModelParams, settings: SweepSettings, N: int,
                master_seed: int) -> tuple[ScalingPoint, list, float]:
    """Measure the eigenvalue diffusion constant at one point of the fixed-t line.

    The temperature is set to 8(d-1) mu omega^2 t / N, an ensemble of
    Langevin runs is thermalized and recorded, particle trajectories are
    tracked through joint-diagonalized frames, and the diffusion constant
    fitted over record lags 5..50, with its replica-jackknife stderr (see
    estimate_diffusion), is reported next to the scaling-limit prediction.
    The only random streams are replica r's initial configuration, burn-in
    noise and measurement-run noise, seeded from SeedSequence([master_seed,
    N, r]), so the point does not depend on the rest of settings.N_list.

    Returns the ScalingPoint, each replica's {init, burn, run} seeds and the
    position_tol of the measurement run's frames.
    """
    s, N = settings, int(N)
    params = dataclasses.replace(base_params, N=N)
    measure = IntegratorConfig(
        mode=LANGEVIN,
        dt=s.dt,
        steps=s.steps,
        gamma=s.gamma * params.omega,
        temperature=temperature_for_scaled(params, s.t_scaled, N),
        record_every=s.record_every,
        record_frames=True,
        project_trace_noise=True,
    )
    seeds = []
    for r in range(s.replicas):
        state = np.random.SeedSequence([master_seed, N, r]).generate_state(3)
        seeds.append(dict(zip(("init", "burn", "run"), (int(x) for x in state))))
    configs = [random_config(params, s.spread, seed["init"]) for seed in seeds]
    burn = dataclasses.replace(measure, steps=s.burn_in_steps,
                               record_every=max(1, s.burn_in_steps), record_frames=False)
    phase = "burn-in"
    try:
        burnt = run(configs, params, burn, [seed["burn"] for seed in seeds])
        phase = "measurement"
        records = run([rec.final_config for rec in burnt], params, measure,
                      [seed["run"] for seed in seeds])
    except NumericsError as e:
        raise e.within(f"sweep N={N}, {phase} run") from None
    positions, residuals, converged, sweeps, overlaps = (
        np.stack([getattr(rec, name) for rec in records])
        for name in ("positions", "residuals", "converged", "sweeps", "overlaps"))
    # Every replica records at the same times (the runs share t0 and dt).
    traj = track_particles(positions, records[0].times, overlaps)
    # Remove the per-frame collective (trace-mode) motion.
    traj.positions = traj.positions - traj.positions.mean(axis=2, keepdims=True)

    est = estimate_diffusion(traj, (5, 50))
    point = ScalingPoint(
        N=N,
        T=measure.temperature,
        t_scaled=scaled_temperature(params, measure.temperature, N),
        nu_hat=est.nu_hat,
        nu_stderr=est.stderr,
        nu_pred=predicted_diffusion(params, s.t_scaled),
        hbar_emergent=emergent_hbar(params, est.nu_hat),
        # Means over replicas of per-replica means.
        mean_frame_residual=float(residuals.mean(axis=1).mean()),
        nonconverged_frames=int(np.sum(~converged)),
        ambiguous_steps=int(np.sum(traj.ambiguous)),
        mean_frame_sweeps=float(sweeps.mean(axis=1).mean()),
    )
    return point, seeds, frame_position_tol(params, measure)


def scaling_sweep(base_params: ModelParams, settings: SweepSettings, master_seed: int) -> list:
    """sweep_point at each N of settings.N_list, in order.

    The comparison with the prediction is a report, not an assertion: the
    prediction holds only in the N -> infinity, T -> 0 limit.
    """
    return [sweep_point(base_params, settings, N, master_seed) for N in settings.N_list]
