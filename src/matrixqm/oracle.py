"""Independent quantum-mechanics reference: Schrödinger solver + Nelson SDE.

A 1D norm-preserving split-step Fourier solver on periodic grids, the
wavefunction -> (rho, S) decomposition, and an Euler-Maruyama walker
simulator whose drift is b = v + u with mass*v = dS/dx and
u = nu * d(ln rho)/dx.  Used to calibrate the estimator pipeline and to
compare against matrix-model eigenvalue statistics under the emergent hbar.

The Nelson diffusion coefficient nu is always an explicit argument; both
conventions nu = hbar/(2*mass) (Nelson's) and nu = hbar/mass are exercised
by the comparison harness rather than hard-coded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class WaveFunction:
    """Complex amplitudes on a uniform 1D grid, kept normalized."""

    x: np.ndarray
    psi: np.ndarray
    hbar: float
    mass: float
    time: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.hbar <= 0 or self.mass <= 0:
            raise ValueError("hbar and mass must be > 0")

    @property
    def h(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.h)

    def normalized(self) -> "WaveFunction":
        n = np.sqrt(self.norm)
        if n == 0:
            raise ValueError("cannot normalize a vanishing wavefunction")
        return WaveFunction(self.x, self.psi / n, self.hbar, self.mass, self.time)

    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2


@dataclass
class MadelungPair:
    """(rho, S) with psi = sqrt(rho) exp(i S / hbar); S fixed up to a constant."""

    x: np.ndarray
    rho: np.ndarray
    S: np.ndarray
    hbar: float
    mask: np.ndarray  # False where rho is too small to carry a phase


@dataclass
class NelsonEnsemble:
    walkers: np.ndarray
    time: float = 0.0
    reflections: int = 0


@dataclass
class DriftField:
    x: np.ndarray
    b: np.ndarray  # total drift v + u
    v: np.ndarray
    u: np.ndarray
    mask: np.ndarray


def gaussian_packet(x, x0, sigma0, p0, hbar, mass) -> WaveFunction:
    """Minimum-uncertainty packet: position spread sigma0, mean momentum p0."""
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma0**2) + 1j * p0 * x / hbar)
    wf = WaveFunction(np.asarray(x, float), psi, hbar, mass)
    return wf.normalized()


def harmonic_eigenstate(x, n, omega0, hbar, mass) -> WaveFunction:
    """n-th oscillator eigenstate of V = (1/2) mass omega0^2 x^2."""
    from numpy.polynomial.hermite import hermval

    alpha = mass * omega0 / hbar
    xi = np.sqrt(alpha) * np.asarray(x, float)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    psi = hermval(xi, coeffs) * np.exp(-0.5 * xi**2)
    wf = WaveFunction(np.asarray(x, float), psi.astype(complex), hbar, mass)
    return wf.normalized()


def free_packet_width(sigma0, t, hbar, mass) -> float:
    """Analytic spreading law sigma(t)^2 = sigma0^2 (1 + (hbar t / (2 m sigma0^2))^2)."""
    return sigma0 * np.sqrt(1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)


def _check_timestep(wf: WaveFunction, V: np.ndarray, dt: float):
    # Split-step applies the kinetic factor exactly in Fourier space, so the
    # step error comes from the potential phase dt*V/hbar taken per half-step.
    phase = dt * float(np.max(np.abs(V))) / wf.hbar
    if phase > 0.1:
        warnings.warn(
            f"dt*max|V|/hbar = {phase:.3g} > 0.1; accuracy may suffer",
            RuntimeWarning,
            stacklevel=3,
        )


def _evolve_split_step(wf: WaveFunction, V: np.ndarray, dt: float, steps: int) -> np.ndarray:
    n = len(wf.x)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=wf.h)
    half_v = np.exp(-0.5j * V * dt / wf.hbar)
    kin = np.exp(-0.5j * wf.hbar * k**2 * dt / wf.mass)
    psi = wf.psi.copy()
    # In place, with the operands in the order of psi = half_v * psi etc.:
    # the products then round exactly as the out-of-place expressions do.
    for _ in range(steps):
        np.multiply(half_v, psi, out=psi)
        np.fft.fft(psi, out=psi)
        np.multiply(kin, psi, out=psi)
        np.fft.ifft(psi, out=psi)
        np.multiply(half_v, psi, out=psi)
    return psi


def evolve_schrodinger(wf: WaveFunction, V, dt: float, steps: int) -> WaveFunction:
    """Norm-preserving evolution under i hbar dpsi/dt = [-hbar^2/(2m) d^2/dx^2 + V] psi."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    V = np.broadcast_to(np.asarray(V, dtype=float), wf.x.shape)
    if np.iscomplexobj(V):
        raise ValueError("V must be real")
    _check_timestep(wf, V, dt)
    psi = _evolve_split_step(wf, V, dt, steps)
    return WaveFunction(wf.x, psi, wf.hbar, wf.mass, wf.time + steps * dt)


def madelung_decompose(wf: WaveFunction, rho_floor_frac: float = 1e-8) -> MadelungPair:
    """rho = |psi|^2 and S = hbar * arg(psi), unwrapped outward from the density peak.

    Cells below rho_floor_frac * max(rho) (e.g. nodes) are masked; the phase
    is continuous on each side of a node but not across it.
    """
    rho = wf.density()
    if not np.any(rho > 0):
        raise ValueError("wavefunction vanishes everywhere")
    mask = rho > rho_floor_frac * rho.max()
    phase = np.angle(wf.psi)
    i0 = int(np.argmax(rho))
    S = np.empty_like(phase)
    S[i0:] = np.unwrap(phase[i0:])
    S[: i0 + 1] = np.unwrap(phase[: i0 + 1][::-1])[::-1]
    S *= wf.hbar
    S[~mask] = np.nan
    return MadelungPair(x=wf.x, rho=rho, S=S, hbar=wf.hbar, mask=mask)


def nelson_drift(wf: WaveFunction, nu: float) -> DriftField:
    """Forward drift b = v + u with mass*v = dS/dx and u = nu * d(ln rho)/dx."""
    m = madelung_decompose(wf)
    h = float(m.x[1] - m.x[0])
    mask = m.mask
    floor = m.rho[mask].min() if mask.any() else 1e-300
    safe_rho = np.where(mask, m.rho, floor)
    safe_S = np.where(np.isfinite(m.S), m.S, 0.0)
    v = np.gradient(safe_S, h) / wf.mass
    u = nu * np.gradient(np.log(safe_rho), h)
    v[~mask] = 0.0
    u[~mask] = 0.0
    return DriftField(x=m.x, b=v + u, v=v, u=u, mask=mask)


def grid_interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """np.interp(x, xp, fp), bitwise, for finite x and fp on a uniform grid xp
    (as np.linspace makes it), given slope = np.diff(fp) / np.diff(xp).

    The interval index comes from (x - xp[0]) / h, corrected by one
    comparison each way for the grid's rounding, instead of np.interp's
    binary search.  Like np.interp it returns slope[j] * (x - xp[j]) + fp[j]
    on interval j, fp[j] at a grid point, fp[0] below the grid and fp[-1]
    from its last point on.
    """
    n = len(xp)
    j = np.clip((x - xp[0]) / (xp[1] - xp[0]), 0, n - 2).astype(np.intp)
    j -= (xp[j] > x) & (j > 0)
    j += (xp[j + 1] <= x) & (j < n - 2)
    out = slope[j] * (x - xp[j]) + fp[j]
    at = xp[j] == x
    out[at] = fp[j[at]]
    out[x < xp[0]] = fp[0]
    out[x >= xp[-1]] = fp[-1]
    return out


def nelson_evolve(
    ensemble: NelsonEnsemble,
    psi_series,
    nu: float,
    dt: float,
    steps: int,
    seed: int = 0,
) -> NelsonEnsemble:
    """Euler-Maruyama walkers: dx = b(x, t) dt + sqrt(2 nu) dW.

    psi_series supplies the drift: a single WaveFunction (frozen) or a list
    of them; the snapshot with time closest to the walker clock is used at
    each step.  Walkers leaving the grid are reflected (counted).
    """
    if isinstance(psi_series, WaveFunction):
        psi_series = [psi_series]
    snaps = sorted(psi_series, key=lambda wf: wf.time)
    fields = [nelson_drift(wf, nu) for wf in snaps]
    slopes = [np.diff(f.b) / np.diff(f.x) for f in fields]

    snap_times = np.array([wf.time for wf in snaps])
    rng = np.random.default_rng(seed)
    x = np.asarray(ensemble.walkers, dtype=float).copy()
    lo, hi = fields[0].x[0], fields[0].x[-1]
    t = ensemble.time
    reflections = ensemble.reflections
    amp = np.sqrt(2.0 * nu * dt)
    for _ in range(steps):
        k = int(np.argmin(np.abs(snap_times - t)))
        b = grid_interp(x, fields[k].x, fields[k].b, slopes[k])
        x = x + b * dt + amp * rng.standard_normal(len(x))
        below = x < lo
        above = x > hi
        reflections += int(below.sum() + above.sum())
        x[below] = 2.0 * lo - x[below]
        x[above] = 2.0 * hi - x[above]
        t += dt
    return NelsonEnsemble(walkers=x, time=t, reflections=reflections)


def compare_densities(rho_a, rho_b, metric: str, h: float) -> float:
    """L1 (total variation style) or KS distance between two gridded densities
    of grid spacing h."""
    rho_a = np.asarray(rho_a, dtype=float)
    rho_b = np.asarray(rho_b, dtype=float)
    if rho_a.shape != rho_b.shape:
        raise ValueError("grid mismatch between densities")
    if metric == "L1":
        return float(np.sum(np.abs(rho_a - rho_b)) * h)
    if metric == "KS":
        if rho_a.ndim != 1:
            raise ValueError("KS distance is defined for 1D densities only")
        cdf_a = np.cumsum(rho_a) * h
        cdf_b = np.cumsum(rho_b) * h
        return float(np.max(np.abs(cdf_a - cdf_b)))
    raise ValueError(f"unknown metric {metric!r}")


# walker_density bins on a cell of at most 1/KDE_CELLS_PER_BANDWIDTH
# bandwidths, the grid spacing refined by an integer factor of at most
# KDE_MAX_REFINE.  Past KDE_REACH bandwidths np.exp(-d**2 / 2) is exactly 0.
KDE_CELLS_PER_BANDWIDTH = 5
KDE_MAX_REFINE = 128
KDE_REACH = np.sqrt(2.0 * 746.0)


def grid_spacing(grid_x) -> float:
    """The spacing of a uniform increasing grid of two or more points, from
    its ends; ValueError unless every step is within 1e-6 of it."""
    h = (grid_x[-1] - grid_x[0]) / (len(grid_x) - 1)
    if not (h > 0 and np.all(np.abs(np.diff(grid_x) - h) <= 1e-6 * h)):
        raise ValueError("the grid is not uniform and increasing")
    return float(h)


def kde_cell(grid_x, bandwidth: float) -> tuple[float, int]:
    """(cell, refine): walker_density's cell is grid_x's spacing / refine, for
    the least integer refine that makes it at most bandwidth / 5.  ValueError
    for a grid that grid_spacing refuses, or a bandwidth that is not finite
    and > 0 or needs refine > KDE_MAX_REFINE."""
    h = grid_spacing(grid_x)
    if not (np.isfinite(bandwidth) and bandwidth > 0):
        raise ValueError(f"KDE bandwidth {bandwidth!r} is not finite and > 0")
    refine = max(1.0, np.ceil(KDE_CELLS_PER_BANDWIDTH * h / bandwidth))
    if not refine <= KDE_MAX_REFINE:
        raise ValueError(f"KDE bandwidth {bandwidth:.3g} needs the grid spacing {h:.3g} "
                         f"refined {refine:.3g}-fold, more than {KDE_MAX_REFINE}-fold")
    return h / refine, int(refine)


def walker_density(walkers: np.ndarray, grid_x: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian KDE of walker positions on grid_x, normalized on the grid.

    Linearly binned (Silverman, Appl. Statist. 31:93, 1982; Wand, J. Comput.
    Graph. Statist. 3:433, 1994): each walker splits its unit weight between
    the two nearest nodes of a grid of cell delta (kde_cell) that contains
    grid_x, the weights are convolved once with exp(-(k delta)**2 / (2
    bandwidth**2)) for |k| delta up to KDE_REACH * bandwidth, and the result
    is read at grid_x.  Against the dense sum
    exp(-0.5 * (grid_x[:, None] - walkers[None, :]) ** 2 / bandwidth**2).sum(axis=1)
    each walker's term is off by at most (delta / bandwidth)**2 / 8 of the
    kernel's peak (linear interpolation of the Gaussian) before the
    normalization; a walker on a node is exact up to rounding, and one beyond
    the reach of every grid point counts for nothing in both.

    ValueError for walkers that are missing or not finite, for a grid or
    bandwidth that kde_cell refuses, and when no walker is within reach.
    """
    walkers = np.asarray(walkers, dtype=float)
    if not (walkers.size and np.all(np.isfinite(walkers))):
        raise ValueError("walker positions are missing or not all finite")
    cell, refine = kde_cell(grid_x, bandwidth)
    # Node k sits at grid_x[0] + k * cell, so grid_x[j] is node j * refine.
    # The kernel stops at the reach, or at the farthest walker if nearer.
    span = max(grid_x[-1], walkers.max()) - min(grid_x[0], walkers.min())
    taps = int(min(KDE_REACH * bandwidth, span) / cell) + 1
    last = (len(grid_x) - 1) * refine
    u = (walkers - grid_x[0]) / cell
    i = np.floor(u)
    near = (i >= -taps - 1) & (i <= last + taps)
    frac = (u - i)[near]
    i = i[near].astype(np.intp)
    lo, hi = (i.min(), i.max()) if i.size else (0, 0)
    weights = (np.bincount(i - lo, 1.0 - frac, hi - lo + 2)
               + np.bincount(i - lo + 1, frac, hi - lo + 2))
    kernel = np.exp(-0.5 * (cell * np.arange(-taps, taps + 1)) ** 2 / bandwidth**2)
    full = np.convolve(weights, kernel)  # full[t] is node lo - taps + t
    t = np.arange(0, last + 1, refine) - (lo - taps)
    covered = (t >= 0) & (t < len(full))
    rho = np.zeros(len(grid_x))
    rho[covered] = full[t[covered]]
    norm = rho.sum() * (grid_x[1] - grid_x[0])
    if not norm > 0:
        raise ValueError("no walker is within the kernel's reach of the grid")
    return rho / norm
