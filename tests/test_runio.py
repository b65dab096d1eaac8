"""Configuration parsing, seeding, manifests, and CSV round trips."""

import json
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from matrixqm.core import ModelParams, random_config
from matrixqm.dynamics import IntegratorConfig, TrajectoryRecord, run
from matrixqm.estimators import SweepSettings
from matrixqm.oracle import WaveFunction
from matrixqm.runio import (
    ConfigError,
    ExperimentConfig,
    atomic_write_text,
    build_manifest,
    conventions,
    load_record_csv,
    load_wavefunction_csv,
    parse_config,
    record_to_csv,
    replica_seed,
    sweep_to_csv,
    wavefunction_to_csv,
)


class TestParse:
    def test_defaults_materialized(self):
        cfg = parse_config("{}")
        assert cfg.model.d == 2
        assert cfg.model.N == 4
        assert cfg.integrator.mode == "microcanonical"
        assert cfg.ensemble.replicas == 1

    def test_partial_document(self):
        cfg = parse_config('{"model": {"d": 3, "N": 6}, "integrator": {"dt": 0.5}}')
        assert cfg.model.d == 3
        assert cfg.model.N == 6
        assert cfg.integrator.dt == 0.5
        assert cfg.integrator.steps == 1000  # untouched default

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="modle"):
            parse_config('{"modle": {}}')

    def test_unknown_key_carries_path(self):
        with pytest.raises(ConfigError, match=r"model\.dd"):
            parse_config('{"model": {"dd": 3}}')

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match=r"model\.N"):
            parse_config('{"model": {"N": "four"}}')

    def test_syntax_error_has_location(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config('{"model": {,}}')

    def test_semantic_validation(self):
        with pytest.raises(ConfigError, match=r"model\.N"):
            parse_config('{"model": {"N": 1}}')
        with pytest.raises(ConfigError, match=r"integrator\.gamma"):
            parse_config('{"integrator": {"mode": "langevin", "gamma": 0.0}}')
        # d = 1 is a valid model; only the sweep command requires d >= 2, so a
        # d = 1 manifest (which echoes a sweep section) still parses.
        assert parse_config('{"model": {"d": 1}, "sweep": {}}').model.d == 1

    def test_round_trip(self):
        cfg = parse_config('{"model": {"d": 3, "kappa": 0.2}, '
                           '"ensemble": {"replicas": 4, "master_seed": 99}}')
        # As main writes a manifest.
        text = json.dumps(build_manifest(cfg, []), indent=2, sort_keys=True)
        assert parse_config(text) == cfg

    def test_manifest_reexecution(self):
        cfg = parse_config('{"model": {"d": 3}}')
        manifest = build_manifest(cfg, [1, 2, 3])
        cfg2 = parse_config(json.dumps(manifest))
        assert cfg2 == cfg

    def test_model_params_bridge(self):
        cfg = parse_config('{"model": {"d": 3, "N": 6, "mu": 2.0}, '
                           '"integrator": {"dt": 0.5}, "sweep": {"N_list": [4, 6]}}')
        assert isinstance(cfg.model, ModelParams)
        assert (cfg.model.d, cfg.model.N, cfg.model.mu) == (3, 6, 2.0)
        assert isinstance(cfg.integrator, IntegratorConfig)
        assert cfg.integrator.dt == 0.5
        assert isinstance(cfg.sweep, SweepSettings)
        assert cfg.sweep.N_list == [4, 6]


# Every settable config value; a manifest echoes exactly these.
CONFIG_KEYS = {
    "model": ["N", "d", "kappa", "mu", "omega", "pair_sum"],
    "integrator": ["dt", "gamma", "mode", "project_trace_noise", "record_every",
                   "record_frames", "steps", "temperature"],
    "ensemble": ["master_seed", "replicas", "spread"],
    "sweep": ["N_list", "burn_in_steps", "dt", "gamma", "record_every", "replicas",
              "spread", "steps", "t_scaled"],
    "oracle": ["dt", "extent", "grid_points", "hbar", "mass", "omega0", "p0", "sigma0",
               "walkers"],
}

_pos = st.floats(min_value=1e-3, max_value=1e3)
_nonneg = st.floats(min_value=0.0, max_value=1e3)


def _section(required=None, **optional):
    return st.fixed_dictionaries(required or {}, optional=optional)


_INTEGRATOR = dict(dt=_pos, steps=st.integers(0, 10**6), record_every=st.integers(1, 100),
                   record_frames=st.booleans())

VALID_DOCS = _section(
    model=_section(d=st.integers(1, 4), N=st.integers(2, 12), mu=_pos, omega=_pos,
                   kappa=_nonneg,
                   pair_sum=st.sampled_from(["ordered_pairs", "unordered_pairs"])),
    # A microcanonical integrator takes no thermostat keys.
    integrator=st.one_of(
        _section(mode=st.just("microcanonical"), **_INTEGRATOR),
        _section({"mode": st.just("langevin"), "gamma": _pos}, temperature=_nonneg,
                 project_trace_noise=st.booleans(), **_INTEGRATOR)),
    ensemble=_section(replicas=st.integers(1, 64), master_seed=st.integers(0, 2**32),
                      spread=_nonneg),
    sweep=_section(
        {"record_every": st.integers(1, 20), "steps": st.integers(200, 10**5)},
        t_scaled=_nonneg, N_list=st.lists(st.integers(2, 64), min_size=1, max_size=4,
                                         unique=True),
        replicas=st.integers(1, 16), burn_in_steps=st.integers(0, 10**5), dt=_pos,
        gamma=_pos, spread=_nonneg),
    oracle=_section(grid_points=st.integers(16, 4096), extent=_pos, dt=_pos, hbar=_pos,
                    mass=_pos, sigma0=_pos, omega0=_pos,
                    p0=st.floats(min_value=-10.0, max_value=10.0),
                    walkers=st.integers(2, 10**5)),
)


@settings(max_examples=100, deadline=None)
@given(VALID_DOCS)
def test_valid_documents_round_trip(doc):
    cfg = parse_config(json.dumps(doc))
    manifest = build_manifest(cfg, [])
    assert parse_config(json.dumps(manifest)) == cfg
    assert {name: sorted(sec) for name, sec in manifest["config"].items()} == CONFIG_KEYS


class TestSeeding:
    def test_streams_distinct(self):
        seeds = {replica_seed(2024, r, s)
                 for r in range(4)
                 for s in ("dynamics", "init", "nelson", "analysis")}
        assert len(seeds) == 16

    def test_reproducible(self):
        assert replica_seed(1, 2, "dynamics") == replica_seed(1, 2, "dynamics")

    def test_unknown_stream(self):
        with pytest.raises(KeyError):
            replica_seed(1, 0, "bogus")


class TestCsv:
    def make_record(self, frames=False):
        p = ModelParams(d=2, N=3)
        cfg = random_config(p, spread=0.4, seed=1)
        integ = IntegratorConfig(mode="langevin", dt=0.01, steps=40, gamma=0.5,
                                 temperature=0.2, record_every=10,
                                 record_frames=frames)
        return run([cfg], p, integ, [2])[0]

    def test_record_round_trip(self):
        rec = self.make_record()
        cols = load_record_csv(record_to_csv(rec))
        assert np.array_equal(cols["time"], rec.times)
        assert np.array_equal(cols["K"], rec.energies[:, 0])
        assert np.array_equal(cols["lam_1_2"], rec.spectra[:, 1, 2])

    def test_frames_columns_present(self):
        rec = self.make_record(frames=True)
        text = record_to_csv(rec)
        assert text.splitlines()[0] == ",".join(
            ["time", "K", "U", "p_0", "p_1"]
            + [f"lam_{a}_{i}" for a in range(2) for i in range(3)]
            + [f"pos_{i}_{a}" for i in range(3) for a in range(2)]
            + ["jd_residual", "jd_converged", "jd_sweeps"])
        cols = load_record_csv(text)
        assert np.all(cols["jd_residual"] >= 0)
        assert np.array_equal(cols["jd_converged"], [float(c) for c in rec.converged])
        assert np.array_equal(cols["jd_sweeps"], [float(s) for s in rec.sweeps])

    def test_no_frame_columns_without_frames(self):
        header = record_to_csv(self.make_record()).splitlines()[0].split(",")
        assert header[-1] == "lam_1_2"

    def test_serialization_deterministic(self):
        a = record_to_csv(self.make_record())
        b = record_to_csv(self.make_record())
        assert a == b

    def test_float_precision_preserved(self):
        rec = self.make_record()
        cols = load_record_csv(record_to_csv(rec))
        # %.17g survives a float64 round trip bit-for-bit
        assert cols["U"][3] == rec.energies[3, 1]

    def test_sweep_csv_header(self):
        text = sweep_to_csv([], "unordered_pairs")
        assert text.splitlines()[0] == (
            "N,T,t_scaled,nu_hat,nu_stderr,nu_pred,hbar_emergent,irrot_residual,"
            "mean_frame_residual,nonconverged_frames,ambiguous_steps,mean_frame_sweeps,pair_sum,"
            "nu_convention"
        )

    def test_wavefunction_round_trip(self):
        from matrixqm.oracle import gaussian_packet
        x = np.linspace(-5, 5, 64, endpoint=False)
        wf = gaussian_packet(x, 0.3, 1.0, 0.5, 1.0, 1.0)
        x2, psi2 = load_wavefunction_csv(wavefunction_to_csv(wf))
        assert np.array_equal(x2, wf.x)
        assert np.array_equal(psi2, wf.psi)


# Finite float64 values, the edge cases always among the candidates: signed
# zeros, subnormals, and magnitudes near 1e-300 and 1e+300 up to the largest.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, 1e-300,
               -1.0000000000000001e-300, 1e300, -9.999999999999999e299,
               1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


def floats_array(shape):
    return hnp.arrays(np.float64, shape, elements=FLOATS)


def same_bits(a, b):
    return np.array_equal(np.asarray(a, np.float64).view(np.int64),
                          np.asarray(b, np.float64).view(np.int64))


@st.composite
def records(draw):
    n, d, N = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    frames = {}
    if draw(st.booleans()):
        frames = {"positions": draw(floats_array((n, N, d))),
                  "residuals": draw(floats_array(n)),
                  "converged": draw(hnp.arrays(bool, n)),
                  "sweeps": draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1000)))}
    times = np.sort(draw(hnp.arrays(np.float64, n, elements=FLOATS, unique=True)))
    return TrajectoryRecord(times=times, spectra=draw(floats_array((n, d, N))),
                            energies=draw(floats_array((n, 2))),
                            com_momenta=draw(floats_array((n, d))), **frames)


@settings(max_examples=200, deadline=None)
@given(records())
def test_record_round_trip_bitwise(rec):
    cols = load_record_csv(record_to_csv(rec))
    n, d, N = rec.spectra.shape
    assert same_bits(cols["time"], rec.times)
    assert same_bits(cols["K"], rec.energies[:, 0]) and same_bits(cols["U"], rec.energies[:, 1])
    for a in range(d):
        assert same_bits(cols[f"p_{a}"], rec.com_momenta[:, a])
        for i in range(N):
            assert same_bits(cols[f"lam_{a}_{i}"], rec.spectra[:, a, i])
    if rec.positions is None:
        assert len(cols) == 3 + d + d * N
        return
    assert len(cols) == 3 + d + 2 * d * N + 3
    for i in range(N):
        for a in range(d):
            assert same_bits(cols[f"pos_{i}_{a}"], rec.positions[:, i, a])
    assert same_bits(cols["jd_residual"], rec.residuals)
    assert np.array_equal(cols["jd_converged"], rec.converged)
    assert np.array_equal(cols["jd_sweeps"], rec.sweeps)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 40), start=st.integers(-50, 50),
       h=st.one_of(st.sampled_from([5e-324, 1e-310, 1e-300, 1e300]),
                   st.floats(min_value=5e-324, max_value=1e300)),
       data=st.data())
def test_wavefunction_round_trip_bitwise(n, start, h, data):
    # A uniform grid start*h, ..., (start + n - 1)*h of any spacing h.
    x = np.arange(start, start + n) * h
    psi = np.empty(n, complex)  # re + 1j * im would turn a real -0.0 into 0.0
    psi.real, psi.imag = data.draw(floats_array(n)), data.draw(floats_array(n))
    assume(psi.any())
    x2, psi2 = load_wavefunction_csv(wavefunction_to_csv(WaveFunction(x, psi, 1.0, 1.0)))
    assert same_bits(x2, x)
    assert same_bits(psi2.real, psi.real) and same_bits(psi2.imag, psi.imag)


def test_non_uniform_oracle_grid_rejected():
    x = np.array([0.0, 0.1, 0.3])
    text = wavefunction_to_csv(WaveFunction(x, np.ones(3, complex), 1.0, 1.0))
    with pytest.raises(ValueError, match="the grid is not uniform and increasing"):
        load_wavefunction_csv(text)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = os.path.join(tmp_path, "f.txt")
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        with open(path) as fh:
            assert fh.read() == "two"
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp")]
        assert leftovers == []

    def test_creates_directories(self, tmp_path):
        path = os.path.join(tmp_path, "a", "b", "f.txt")
        atomic_write_text(path, "x")
        with open(path) as fh:
            assert fh.read() == "x"

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        path = os.path.join(tmp_path, "f.txt")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(path, "x")
        assert os.listdir(tmp_path) == []


def test_conventions_echo():
    # The oracle always reports both nu conventions.
    conv = conventions(parse_config('{"model": {"pair_sum": "ordered_pairs"}}'))
    assert conv["nu_convention"] == "both"
    assert conv["pair_sum"] == "ordered_pairs"
    assert "potential_sign" in conv
