"""Experiment configuration, manifests and (de)serialization.

Config documents are strict JSON: unknown keys and non-finite numbers are
errors, defaults are materialized on parse, and the manifest written next to
every artifact echoes the full config plus all physics-convention flags, so a
run can be re-executed byte-identically from its manifest alone.

Each section is filled straight into the type that uses it, and that type's
``__post_init__`` is the one check on its values.  Sections and keys:

- ``model`` (ModelParams): d, N, mu, omega, kappa, pair_sum
- ``integrator`` (IntegratorConfig): mode, dt, steps, gamma, temperature,
  record_every, record_frames, project_trace_noise
- ``ensemble``: replicas, master_seed, spread
- ``sweep`` (SweepSettings): t_scaled, N_list, replicas, burn_in_steps, steps,
  dt, gamma, record_every, spread
- ``oracle``: grid_points, extent, dt, hbar, mass, sigma0, omega0, p0,
  walkers
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .core import JACOBI_ANGLE_TOL, POSITION_RULE_RESIDUAL_DROP, ModelParams
from .dynamics import FRAME_DISPLACEMENT_FRACTION, IntegratorConfig, TrajectoryRecord
from .estimators import ScalingPoint, SweepSettings
from .oracle import grid_spacing


class ConfigError(ValueError):
    """Config document rejected; message carries the offending field path."""


# Section types below follow the runtime types' convention: a rejected value
# raises ValueError("<field>: ...").


@dataclass
class EnsembleSection:
    replicas: int = 1
    master_seed: int = 2024
    spread: float = 0.5

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas: must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed: must be >= 0")
        if self.spread < 0:
            raise ValueError("spread: must be >= 0")


@dataclass
class OracleSection:
    grid_points: int = 512
    extent: float = 24.0  # total box length
    dt: float = 0.001
    hbar: float = 1.0
    mass: float = 1.0
    sigma0: float = 1.0
    omega0: float = 1.0
    p0: float = 0.0
    walkers: int = 10000

    def __post_init__(self):
        for name in ("extent", "dt", "hbar", "mass", "sigma0", "omega0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be > 0")
        if self.grid_points < 2:
            raise ValueError("grid_points: must be >= 2")
        if self.walkers < 1:
            raise ValueError("walkers: must be >= 1")


@dataclass
class ExperimentConfig:
    model: ModelParams = field(default_factory=lambda: ModelParams(d=2, N=4))
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    ensemble: EnsembleSection = field(default_factory=EnsembleSection)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    oracle: OracleSection = field(default_factory=OracleSection)


def _is_a(val, want: type) -> bool:
    if want is bool:
        return isinstance(val, bool)
    if isinstance(val, bool):
        return False
    return isinstance(val, (int, float) if want is float else want)


def fill_section(base, doc: dict, path: str):
    """A copy of the dataclass instance base with doc's values, each checked
    against its field's annotated type and then by the type's __post_init__."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected an object")
    types = typing.get_type_hints(type(base))
    for key, val in doc.items():
        if key not in types:
            raise ConfigError(f"{path}.{key}: unknown key")
        if not _is_a(val, types[key]):
            raise ConfigError(f"{path}.{key}: expected {types[key].__name__}")
        if isinstance(val, float) and not math.isfinite(val):
            raise ConfigError(f"{path}.{key}: must be finite, got {val}")
    try:
        return dataclasses.replace(base, **doc)
    except ValueError as e:
        raise ConfigError(f"{path}.{e}") from e


def parse_config(text: str) -> ExperimentConfig:
    """Strict parse: JSON syntax errors carry line/column, semantic errors a field path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from e
    if isinstance(doc, dict) and "config" in doc:  # a manifest: re-execute from its config echo
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    sections = [f.name for f in fields(ExperimentConfig)]
    for key in doc:
        if key not in sections:
            raise ConfigError(f"{key}: unknown section")
    defaults = ExperimentConfig()
    return ExperimentConfig(**{
        name: fill_section(getattr(defaults, name), doc.get(name, {}), name)
        for name in sections
    })


def replica_seed(master_seed: int, replica: int, stream: str) -> int:
    """Splittable seeding: adding replicas or streams never perturbs existing ones."""
    # Tag 1 belonged to a stream that nothing drew from; the others keep
    # their numbers, so every seed keeps its bits.
    tags = {"dynamics": 0, "init": 2, "nelson": 3, "analysis": 4}
    ss = np.random.SeedSequence([int(master_seed), int(replica), tags[stream]])
    return int(ss.generate_state(1)[0])


NU_CONVENTION = "both"  # the oracle reports nu = hbar/(2m) and nu = hbar/m


def conventions(cfg: ExperimentConfig) -> dict:
    return {
        "potential_sign": "commuting_configurations_are_minima",
        "pair_sum": cfg.model.pair_sum,
        "continuity_sign": "drho_dt + div(rho v) = 0",
        "nu_convention": NU_CONVENTION,
        "kinetic_mass_weighting": "diag 2*mu, offdiag 4*mu (K = mu Tr V^2)",
    }


def build_manifest(cfg: ExperimentConfig, per_replica_seeds: list, position_tol=None) -> dict:
    """The config echo, seeds and conventions of a run, all functions of its
    config (no clock).  Given the position_tol of its Jacobi frames
    (dynamics.frame_position_tol's value, or a dict N -> value for a sweep),
    the manifest also states their stopping rule as jacobi_stopping."""
    manifest = {
        "config": dataclasses.asdict(cfg),
        "code_version": __version__,
        "per_replica_seeds": per_replica_seeds,
        "conventions": conventions(cfg),
    }
    if position_tol is not None:
        manifest["jacobi_stopping"] = {
            "angle_tol": JACOBI_ANGLE_TOL,
            "frame_displacement_fraction": FRAME_DISPLACEMENT_FRACTION,
            "residual_drop": POSITION_RULE_RESIDUAL_DROP,
            "position_tol": position_tol,
        }
    return manifest


# ---------------------------------------------------------------------------
# atomic artifact writing


def atomic_write_text(path: str, text: str):
    """Write via a temp file in the same directory + rename; never a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table(header: list, rows) -> str:
    """CSV text: numbers printed with %.17g (a float64 round-trips bit for bit,
    an integer prints as str does), strings as they are."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _read_table(text: str, min_rows: int, too_few: str, header: str | None = None):
    """(names, float matrix) of _table's text, blank lines skipped.  ValueError
    if the first line is not header (when given), then with too_few if fewer
    than min_rows data rows, then at the first ragged or non-numeric row."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if header is not None and lines[:1] != [header]:
        raise ValueError(f"header is not {header}")
    if len(lines) - 1 < min_rows:
        raise ValueError(too_few)
    names = lines[0].split(",")
    rows = []
    for k, ln in enumerate(lines[1:], 1):
        vals = ln.split(",")
        if len(vals) != len(names):
            raise ValueError(f"data row {k}: {len(vals)} fields, the header has {len(names)}")
        try:
            rows.append([float(v) for v in vals])
        except ValueError as e:
            raise ValueError(f"data row {k}: {e}") from None
    return names, np.array(rows)


def record_to_csv(record: TrajectoryRecord) -> str:
    """Fixed column order: time, K, U, momenta, per-direction eigenvalues,
    then (if frames were recorded) particle positions, the frame residual,
    whether its Jacobi iteration converged (1) or hit its iteration cap (0),
    its number of Jacobi iterations and its smallest row overlap with the
    previous frame (nan at the first record)."""
    n, d, N = record.spectra.shape
    cols = (["time", "K", "U"] + [f"p_{a}" for a in range(d)]
            + [f"lam_{a}_{i}" for a in range(d) for i in range(N)])
    blocks = [record.times[:, None], record.energies, record.com_momenta,
              record.spectra.reshape(n, -1)]
    if record.positions is not None:
        cols += [f"pos_{i}_{a}" for i in range(N) for a in range(d)]
        cols += ["jd_residual", "jd_converged", "jd_sweeps", "jd_overlap"]
        blocks += [record.positions.reshape(n, -1), record.residuals[:, None],
                   record.converged[:, None], record.sweeps[:, None], record.overlaps[:, None]]
    return _table(cols, np.hstack(blocks))


def load_record_csv(text: str) -> dict:
    """Parse a record CSV back into named numpy columns; ValueError if malformed."""
    names, data = _read_table(text, 1, "no data rows")
    return {name: data[:, j] for j, name in enumerate(names)}


def sweep_to_csv(points, pair_sum: str) -> str:
    """One column per ScalingPoint field, in field order, then pair_sum and
    nu_convention."""
    names = [f.name for f in fields(ScalingPoint)]
    return _table(names + ["pair_sum", "nu_convention"],
                  [[getattr(p, n) for n in names] + [pair_sum, NU_CONVENTION] for p in points])


def wavefunction_to_csv(wf) -> str:
    return _table(["x", "re_psi", "im_psi"], np.column_stack([wf.x, wf.psi.real, wf.psi.imag]))


def load_wavefunction_csv(text: str):
    """(x, psi) from wavefunction_to_csv's format; ValueError if malformed, if a
    value is not finite, if psi is zero everywhere (|psi|^2 cannot be
    normalized), or if grid_spacing refuses the grid x."""
    _, data = _read_table(text, 2, "fewer than two grid points", header="x,re_psi,im_psi")
    if not np.isfinite(data).all():
        raise ValueError("a value is not finite")
    if not data[:, 1:].any():
        raise ValueError("psi is zero at every grid point")
    grid_spacing(data[:, 0])
    return data[:, 0], data[:, 1:].copy().view(complex)[:, 0]  # keeps a real part of -0.0
