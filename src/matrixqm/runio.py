"""Experiment configuration, manifests and (de)serialization.

Config documents are strict JSON: unknown keys are errors, defaults are
materialized on parse, and the manifest written next to every artifact
echoes the full config plus all physics-convention flags, so a run can be
re-executed byte-identically from its manifest alone.

Each section is filled straight into the type that uses it, and that type's
``__post_init__`` is the one check on its values.  Sections and keys:

- ``model`` (ModelParams): d, N, mu, omega, kappa, pair_sum
- ``integrator`` (IntegratorConfig): mode, dt, steps, gamma, temperature,
  record_every, record_frames, noise_mode, project_trace_noise
- ``ensemble``: replicas, master_seed, spread
- ``analysis``: bandwidth
- ``sweep`` (SweepSettings): t_scaled, N_list, replicas, burn_in_steps, steps,
  dt, gamma, record_every, spread
- ``oracle``: grid_points, extent, dt, hbar, mass, sigma0, omega0, p0,
  walkers, nu_convention
- ``output``: directory
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .core import ModelParams
from .dynamics import IntegratorConfig, TrajectoryRecord
from .estimators import SweepSettings


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
class AnalysisSection:
    bandwidth: float = 0.0  # 0 = Silverman rule

    def __post_init__(self):
        if self.bandwidth < 0:
            raise ValueError("bandwidth: must be >= 0")


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
    nu_convention: str = "both"  # "nelson" (hbar/2m), "direct" (hbar/m), "both"

    def __post_init__(self):
        if self.nu_convention not in ("nelson", "direct", "both"):
            raise ValueError("nu_convention: must be nelson, direct or both")


@dataclass
class OutputSection:
    directory: str = "out"


@dataclass
class ExperimentConfig:
    model: ModelParams = field(default_factory=lambda: ModelParams(d=2, N=4))
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    ensemble: EnsembleSection = field(default_factory=EnsembleSection)
    analysis: AnalysisSection = field(default_factory=AnalysisSection)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    oracle: OracleSection = field(default_factory=OracleSection)
    output: OutputSection = field(default_factory=OutputSection)


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
    cfg = ExperimentConfig(**{
        name: fill_section(getattr(defaults, name), doc.get(name, {}), name)
        for name in sections
    })
    if "sweep" in doc and cfg.model.d < 2:
        raise ConfigError(
            "sweep: scaling formulas require model.d >= 2 (singular at d = 1)"
        )
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True)


def replica_seed(master_seed: int, replica: int, stream: str) -> int:
    """Splittable seeding: adding replicas or streams never perturbs existing ones."""
    tags = {"dynamics": 0, "burn_in": 1, "init": 2, "nelson": 3, "analysis": 4}
    ss = np.random.SeedSequence([int(master_seed), int(replica), tags[stream]])
    return int(ss.generate_state(1)[0])


def conventions(cfg: ExperimentConfig) -> dict:
    return {
        "potential_sign": "commuting_configurations_are_minima",
        "pair_sum": cfg.model.pair_sum,
        "continuity_sign": "drho_dt + div(rho v) = 0",
        "nu_convention": cfg.oracle.nu_convention,
        "kinetic_mass_weighting": "diag 2*mu, offdiag 4*mu (K = mu Tr V^2)",
    }


def build_manifest(cfg: ExperimentConfig, per_replica_seeds: list, wall_clock: float) -> dict:
    return {
        "config": dataclasses.asdict(cfg),
        "code_version": __version__,
        "per_replica_seeds": per_replica_seeds,
        "wall_clock_seconds": wall_clock,
        "conventions": conventions(cfg),
    }


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


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def record_to_csv(record: TrajectoryRecord) -> str:
    """Fixed column order: time, K, U, momenta, per-direction eigenvalues,
    then (if frames were recorded) particle positions and the frame residual."""
    d = record.com_momenta.shape[1]
    N = record.spectra[0].lam.shape[1]
    cols = ["time", "K", "U"]
    cols += [f"p_{a}" for a in range(d)]
    cols += [f"lam_{a}_{i}" for a in range(d) for i in range(N)]
    with_frames = record.frames is not None
    if with_frames:
        cols += [f"pos_{i}_{a}" for i in range(N) for a in range(d)]
        cols += ["jd_residual"]
    lines = [",".join(cols)]
    for idx in range(len(record.times)):
        row = [record.times[idx], record.energies[idx, 0], record.energies[idx, 1]]
        row += list(record.com_momenta[idx])
        row += list(record.spectra[idx].lam.ravel())
        if with_frames:
            fr = record.frames[idx]
            row += list(fr.positions.ravel())
            row.append(fr.residual)
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


def load_record_csv(text: str) -> dict:
    """Parse a record CSV back into named numpy columns."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(header)}


SWEEP_COLUMNS = [
    "N", "T", "t_scaled", "nu_hat", "nu_stderr", "nu_pred", "hbar_emergent",
    "irrot_residual", "mean_frame_residual", "pair_sum", "nu_convention",
]


def sweep_to_csv(points, pair_sum: str, nu_convention: str) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for p in points:
        row = [
            str(p.N), _fmt(p.T), _fmt(p.t_scaled), _fmt(p.nu_hat), _fmt(p.nu_stderr),
            _fmt(p.nu_pred), _fmt(p.hbar_emergent), _fmt(p.irrot_residual),
            _fmt(p.mean_frame_residual), pair_sum, nu_convention,
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def wavefunction_to_csv(wf) -> str:
    lines = ["x,re_psi,im_psi"]
    for x, p in zip(wf.x, wf.psi):
        lines.append(f"{_fmt(x)},{_fmt(p.real)},{_fmt(p.imag)}")
    return "\n".join(lines) + "\n"


def load_wavefunction_csv(text: str):
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    data = np.array([[float(v) for v in r] for r in rows])
    return data[:, 0], data[:, 1] + 1j * data[:, 2]
