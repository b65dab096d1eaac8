#!/usr/bin/env python3
"""Benchmark of the matrixqm command line on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_jd --seed 1 --seconds 35 --trace 0

Each workload is a fixed sequence of `matrixqm` invocations, run as child
processes of this one, on config files generated here from the seed; the
program sees only those files.  A run uses several input sets (master seeds
derived from --seed) where the Jacobi work of one input varies with its
seed: by up to 2x in sweep_jd and up to 2.5x in the simulate step of
compare_pipeline.  simulate_md's work does not depend on the seed.  The CLI is run from this checkout's `src`
through PYTHONPATH, never from an installed copy.  Children get
OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1 and `--threads 2`.

Workloads (why each exists):

* sweep_jd: `sweep` at d=2, N in {16, 32}: the paper's fixed-t scaling sweep,
  where warm-started Jacobi joint diagonalization at compute-bound N is
  almost all of the time.
* simulate_md: `simulate`, Langevin, d=3, N=24, no frames: the force and the
  BAOAB noise draw, with no Jacobi call at all.  A Jacobi change should
  leave it unchanged.
* compare_pipeline: `oracle` (grid 1024, 20000 walkers), then `simulate`
  (d=2, N=8, a frame every step), then `compare`: the oracle, many tiny
  Jacobi calls bound by per-call overhead, record I/O and the dense walker
  KDE that sets the peak memory.

With --trace 0 the sequence runs over every input set, in whole cycles,
until --seconds have passed, and the end-to-end metrics are printed.  wall_s
is the mean repetition over those whole cycles: the mean over input sets
averages the Jacobi work, which depends on the seed, and the mean over the
run averages the phases, of seconds to minutes, in which the speed of a
shared host's CPUs changes.  setup_s is the median of `matrixqm --version`
calls made before and after the repetitions.  With --trace 1, each input set
gets an untraced and a traced repetition (see tracer.py) and the per-layer
metrics are printed.

Every repetition's outputs are checked against checks.json and against the
first repetition of its input (byte for byte); a failed check, a nonzero
exit or a missing artifact fails that invocation.  sweep_jd also checks the
mean of ln(nu_hat) over the run's input sets, which is tight enough to catch
a factor of two; that check counts as one more attempted operation.  The
last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Work files go to .bench_build/perfbench/ in the checkout.

tiny size (--size tiny) shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = HERE / "tracer.py"
CHECKS = HERE / "checks.json"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
CLI_THREADS = "2"
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "md_steps_per_s": "1/s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# Functions with per-call percentiles, taken over all traced repetitions of
# a run together.
PERCENTILE_SPANS = ("core.joint_diagonalize", "core.force_raw", "core.eigenvalues")
COUNTED_SPANS = (
    "core.joint_diagonalize", "core.force_raw", "core.eigenvalues", "dynamics.run",
    "estimators.scaling_sweep", "estimators.track_particles",
    "estimators.estimate_diffusion", "estimators.estimate_current_velocity",
    "oracle.evolve_schrodinger", "oracle.nelson_drift", "oracle.nelson_evolve",
    "oracle.walker_density", "runio.parse_config", "runio.record_to_csv",
    "runio.atomic_write_text", "runio.load_record_csv", "runio.load_wavefunction_csv",
)
OBSERVABLE_SPANS = ("core.potential_energy", "core.kinetic_energy", "core.com_momentum")


def _per_layer_units() -> dict:
    units = {}
    for name in COUNTED_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in PERCENTILE_SPANS:
            units[f"{name}.p50_ms"] = "ms"
            units[f"{name}.p90_ms"] = "ms"
    units.update({
        "core.joint_diagonalize.self_share": "ratio",
        "core.joint_diagonalize.nonconverged_frac": "ratio",
        "core.joint_diagonalize.residual_mean": "norm",
        "core.force_raw.gflops_computed": "GFLOP/s",
        "core.observables.self_s": "s",
        "dynamics.steps": "count",
        "dynamics.step_self_us": "us",
        "estimators.self_share": "ratio",
        "oracle.schrodinger_step_us": "us",
        "oracle.walker_steps_per_s": "1/s",
        "oracle.walker_density.bytes_computed": "B",
        "oracle.reflections": "count",
        "oracle.timestep_warnings": "count",
        "runio.bytes_written": "B",
        "cli.self_s": "s",
        "cli.import_s": "s",
        "proc.cpu_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.accounted_frac": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()

# Step counts per size.  "full" is the benchmark proper; "tiny" keeps the
# workload shapes at a few seconds each for the benchmark's own tests.
SIZES = {
    "full": {
        "sweep_jd": {"N_list": [16, 32], "burn_in": 500, "steps": 50, "inputs": 5},
        "simulate_md": {"steps": 2500, "inputs": 2},
        "compare_pipeline": {"steps": 60, "grid": 1024, "walkers": 20000, "inputs": 4},
        "setup_reps": 2,
    },
    "tiny": {
        "sweep_jd": {"N_list": [4, 6], "burn_in": 50, "steps": 50, "inputs": 1},
        "simulate_md": {"steps": 1000, "inputs": 1},
        "compare_pipeline": {"steps": 40, "grid": 256, "walkers": 2000, "inputs": 1},
        "setup_reps": 1,
    },
}


def scaled_temperature_to_T(d: int, N: int, t: float = 0.1) -> float:
    """T = 8 (d-1) mu omega^2 t / N at mu = omega = 1 (the fixed-t line)."""
    return 8.0 * (d - 1) * t / N


@dataclass
class Invocation:
    """One CLI call of a workload: subcommand, its config file, positional artifacts."""

    label: str
    command: str
    config: str
    inputs: tuple = ()
    outputs: tuple = ()


@dataclass
class Workload:
    name: str
    configs: dict  # config file name -> document
    invocations: list
    md_steps: int  # integrator replica-steps per repetition
    records: int  # trajectory records per repetition


def sweep_jd(seed: int, size: str) -> Workload:
    z = SIZES[size]["sweep_jd"]
    replicas, record_every = 2, 5
    cfg = {
        "model": {"d": 2, "N": z["N_list"][0]},
        "ensemble": {"master_seed": seed},
        "sweep": {"t_scaled": 0.1, "N_list": z["N_list"], "replicas": replicas,
                  "burn_in_steps": z["burn_in"], "steps": z["steps"], "dt": 0.02,
                  "gamma": 0.5, "record_every": record_every, "spread": 0.3},
    }
    runs = len(z["N_list"]) * replicas
    return Workload(
        name="sweep_jd",
        configs={"sweep.json": cfg},
        invocations=[Invocation("sweep", "sweep", "sweep.json", outputs=("sweep.csv",))],
        md_steps=runs * (z["burn_in"] + z["steps"]),
        # A burn-in run records its first and last state.
        records=runs * (2 + z["steps"] // record_every + 1),
    )


def simulate_md(seed: int, size: str) -> Workload:
    z = SIZES[size]["simulate_md"]
    d, N, replicas, record_every = 3, 24, 2, 100
    cfg = {
        "model": {"d": d, "N": N},
        "integrator": {"mode": "langevin", "dt": 0.02, "steps": z["steps"], "gamma": 0.5,
                       "temperature": scaled_temperature_to_T(d, N),
                       "record_every": record_every, "record_frames": False},
        "ensemble": {"replicas": replicas, "master_seed": seed, "spread": 0.3},
    }
    records = [f"record_{r:03d}.csv" for r in range(replicas)]
    return Workload(
        name="simulate_md",
        configs={"simulate.json": cfg},
        invocations=[Invocation("simulate", "simulate", "simulate.json",
                                outputs=(*records, "manifest.json"))],
        md_steps=replicas * z["steps"],
        records=replicas * (z["steps"] // record_every + 1),
    )


def compare_pipeline(seed: int, size: str) -> Workload:
    z = SIZES[size]["compare_pipeline"]
    d, N, replicas = 2, 8, 2
    cfg = {
        "model": {"d": d, "N": N},
        "integrator": {"mode": "langevin", "dt": 0.02, "steps": z["steps"], "gamma": 0.5,
                       "temperature": scaled_temperature_to_T(d, N),
                       "record_every": 1, "record_frames": True},
        "ensemble": {"replicas": replicas, "master_seed": seed, "spread": 0.3},
        "oracle": {"grid_points": z["grid"], "walkers": z["walkers"]},
    }
    records = [f"record_{r:03d}.csv" for r in range(replicas)]
    return Workload(
        name="compare_pipeline",
        configs={"pipeline.json": cfg},
        invocations=[
            Invocation("oracle", "oracle", "pipeline.json",
                       outputs=("oracle_report.json", "oracle_psi.csv")),
            Invocation("simulate", "simulate", "pipeline.json",
                       outputs=(*records, "manifest.json")),
            Invocation("compare", "compare", "pipeline.json",
                       inputs=("record_000.csv", "oracle_psi.csv"),
                       outputs=("compare_verdict.json",)),
        ],
        md_steps=replicas * z["steps"],
        records=replicas * (z["steps"] + 1),
    )


WORKLOADS = {"sweep_jd": sweep_jd, "simulate_md": simulate_md,
             "compare_pipeline": compare_pipeline}

# Artifacts that must be byte-identical across repetitions (manifests carry
# wall-clock time and are only checked for existence).
DETERMINISTIC_SUFFIXES = (".csv", "oracle_report.json", "compare_verdict.json")


# ---------------------------------------------------------------------------
# output checks


def read_csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_results(out: Path) -> dict:
    """N -> nu_hat from a sweep.csv."""
    return {int(r["N"]): float(r["nu_hat"]) for r in read_csv_rows(out / "sweep.csv")}


def compare_results(out: Path) -> dict:
    with open(out / "compare_verdict.json") as fh:
        v = json.load(fh)
    return {"L1": v["L1"], "KS": v["KS"]}


def check_sweep_jd(wl: Workload, out: Path, checks: dict, size: str) -> dict:
    """ln(nu_hat) of one input near its reference; one input varies a lot."""
    c = checks["sweep_jd"]
    ref = c["reference"][size]
    msgs = []
    got = sweep_results(out)
    want = wl.configs["sweep.json"]["sweep"]["N_list"]
    if sorted(got) != sorted(want):
        msgs.append(f"sweep.csv has N={sorted(got)}, expected {want}")
    for N, nu in sorted(got.items()):
        r = ref.get(str(N))
        if r is None:
            msgs.append(f"no reference nu_hat for N={N}")
            continue
        # nu_hat varies by a factor across seeds, so compare its logarithm.
        if not (math.isfinite(nu) and nu > 0):
            msgs.append(f"N={N}: nu_hat={nu!r} is not a positive number")
            continue
        dev = abs(math.log(nu) - r["log_nu_hat"]) / r["log_sd"]
        if dev > c["max_log_dev_sd"]:
            msgs.append(f"N={N}: nu_hat={nu:.6g} is {dev:.3g} sd from the reference "
                        f"{math.exp(r['log_nu_hat']):.6g} in log (limit {c['max_log_dev_sd']})")
    return {"sweep": msgs}


def check_sweep_mean(results: list, checks: dict, size: str) -> list:
    """Mean of ln(nu_hat) over a run's inputs near its reference.

    `results` holds one N -> nu_hat dict per input.  The limit is
    max_mean_log_dev_sd standard deviations of the mean of len(results)
    inputs; at full size, with every input set, it is below ln 2.
    """
    c = checks["sweep_jd"]
    msgs = []
    for N, r in sorted(c["reference"][size].items()):
        logs = [math.log(res[int(N)]) for res in results]
        limit = c["max_mean_log_dev_sd"] * r["log_sd"] / math.sqrt(len(logs))
        dev = statistics.fmean(logs) - r["log_nu_hat"]
        if not abs(dev) <= limit:
            msgs.append(f"N={N}: mean ln(nu_hat) over {len(logs)} inputs is {dev:+.3g} from "
                        f"the reference (limit {limit:.3g})")
    return msgs


def check_simulate_md(wl: Workload, out: Path, checks: dict, size: str) -> dict:
    """Kinetic temperature 2<K>/n_dof over the second half of the records."""
    c = checks["simulate_md"]
    model = wl.configs["simulate.json"]["model"]
    target = wl.configs["simulate.json"]["integrator"]["temperature"]
    n_dof = model["d"] * model["N"] * (model["N"] + 1) // 2
    ks = []
    for name in wl.invocations[0].outputs:
        if name.startswith("record_"):
            rows = read_csv_rows(out / name)
            ks += [float(r["K"]) for r in rows[len(rows) // 2:]]
    t_kin = 2.0 * statistics.fmean(ks) / n_dof
    err = abs(t_kin / target - 1.0)
    msgs = []
    if not (math.isfinite(t_kin) and err <= c["max_temperature_rel_err"]):
        msgs.append(f"kinetic temperature {t_kin:.6g} is {err:.3g} from target {target:.6g} "
                    f"(limit {c['max_temperature_rel_err']})")
    return {"simulate": msgs}


def check_compare_pipeline(wl: Workload, out: Path, checks: dict, size: str) -> dict:
    c = checks["compare_pipeline"]
    ref = c["reference"][size]
    oracle_msgs, compare_msgs = [], []
    with open(out / "oracle_report.json") as fh:
        report = json.load(fh)
    drift = report["harmonic_stationarity"]["norm_drift"]
    if not drift <= c["max_norm_drift"]:
        oracle_msgs.append(f"oracle norm drift {drift:.3g} > {c['max_norm_drift']}")
    width_err = max(abs(r["sigma_measured"] / r["sigma_analytic"] - 1.0)
                    for r in report["free_packet_width"])
    if not width_err <= c["max_width_rel_err"]:
        oracle_msgs.append(f"free-packet width error {width_err:.3g} > {c['max_width_rel_err']}")
    got = compare_results(out)
    for key in ("L1", "KS"):
        dev = abs(got[key] - ref[key])
        limit = c[f"max_{key}_dev"]
        if not (math.isfinite(got[key]) and dev <= limit):
            compare_msgs.append(f"compare {key}={got[key]:.6g} is {dev:.3g} from reference "
                                f"{ref[key]:.6g} (limit {limit})")
    return {"oracle": oracle_msgs, "compare": compare_msgs}


CHECKERS = {"sweep_jd": check_sweep_jd, "simulate_md": check_simulate_md,
            "compare_pipeline": check_compare_pipeline}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Proc:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("MATRIXQM_OUT", "PYTHONPATH")}
    env.update(THREAD_PINS, PYTHONPATH=str(SRC))
    return env


def run_child(argv: list, cwd: Path, stderr_path: Path) -> Proc:
    """Run one child; its own rusage gives CPU time and max RSS."""
    with open(stderr_path, "w+b") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                             stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        text = err.read().decode(errors="replace")
    return Proc(rc=p.returncode, wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                maxrss_mb=ru.ru_maxrss / 1024.0, stderr=text)


def cli_argv(traced: bool, spans: Path | None = None) -> list:
    if traced:
        return [sys.executable, str(TRACER), str(spans)]
    return [sys.executable, "-m", "matrixqm.cli"]


@dataclass
class Repetition:
    input: int  # index of the input set
    wall_s: float
    procs: list  # Proc per invocation
    spans: list = field(default_factory=list)  # per invocation, traced only
    failures: dict = field(default_factory=dict)  # invocation label -> messages


def run_sequence(wl: Workload, work: Path, traced: bool, k: int = 0) -> Repetition:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    procs, spans = [], []
    t0 = time.perf_counter()
    for i, inv in enumerate(wl.invocations):
        span_file = work / f"spans_{i}.json"
        argv = cli_argv(traced, span_file) + [
            inv.command, "--config", str(work / inv.config), "--out", str(out),
            "--threads", CLI_THREADS, *(str(out / a) for a in inv.inputs)]
        procs.append(run_child(argv, work, work / f"stderr_{i}.txt"))
        if traced:
            spans.append(load_spans(span_file))
    wall = time.perf_counter() - t0
    return Repetition(input=k, wall_s=wall, procs=procs, spans=spans)


def load_spans(path: Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"import_ns": 0, "spans": []}


def check_repetition(wl: Workload, rep: Repetition, work: Path, checks: dict, size: str,
                     first_hashes: dict) -> dict:
    """Fill rep.failures; return this repetition's artifact hashes."""
    out = work / "out"
    hashes = {}
    for inv, proc in zip(wl.invocations, rep.procs):
        msgs = []
        if proc.rc != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            msgs.append(f"exit code {proc.rc}: {tail[0]}")
        for name in inv.outputs:
            path = out / name
            if not path.is_file():
                msgs.append(f"missing artifact {name}")
            elif name.endswith(DETERMINISTIC_SUFFIXES):
                hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
                if name in first_hashes and first_hashes[name] != hashes[name]:
                    msgs.append(f"{name} differs from the first repetition")
        rep.failures[inv.label] = msgs
    if not any(rep.failures.values()):
        try:
            for label, msgs in CHECKERS[wl.name](wl, out, checks, size).items():
                rep.failures[label] += msgs
        except (OSError, KeyError, ValueError) as e:
            rep.failures[wl.invocations[-1].label].append(f"output unreadable: {e!r}")
    return hashes


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(wl: Workload, reps: list, setup: list) -> dict:
    # The repetitions form whole cycles over the input sets, so their mean
    # weighs every input alike.
    wall = statistics.fmean(r.wall_s for r in reps)
    procs = setup + [p for r in reps for p in r.procs]
    return {
        "wall_s": wall,
        "md_steps_per_s": wl.md_steps / wall,
        "records_per_s": wl.records / wall,
        "peak_rss_mb": max(p.maxrss_mb for p in procs),
        "setup_s": statistics.median(p.wall_s for p in setup),
    }


def _percentile_ms(durs_ns: list, q: int) -> float:
    if not durs_ns:
        return 0.0
    if len(durs_ns) == 1:
        return durs_ns[0] / 1e6
    return statistics.quantiles(durs_ns, n=10, method="inclusive")[q // 10 - 1] / 1e6


def call_durations_ns(rep: Repetition) -> dict:
    """Span name -> durations of its calls in one traced repetition."""
    durs = defaultdict(list)
    for trace in rep.spans:
        for name, start, end, _, _ in trace["spans"]:
            durs[name].append(end - start)
    return durs


def layer_metrics(rep: Repetition) -> dict:
    """Per-layer numbers of one traced repetition (percentiles excepted)."""
    calls, self_ns = Counter(), Counter()
    counters = defaultdict(Counter)
    import_ns = main_ns = 0
    for trace in rep.spans:
        spans = trace["spans"]
        import_ns += trace["import_ns"]
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            if counts:
                counters[name].update(counts)
            if parent < 0:
                main_ns += end - start
    s = {name: ns / 1e9 for name, ns in self_ns.items()}
    proc_wall = sum(p.wall_s for p in rep.procs)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = s.get(name, 0.0)
    jd, force = counters["core.joint_diagonalize"], counters["core.force_raw"]
    estimator_s = sum(v for k, v in s.items() if k.startswith("estimators."))
    warnings = sum(p.stderr.count("dt*E_max/hbar") for p in rep.procs)
    m.update({
        "core.joint_diagonalize.self_share": ratio(s.get("core.joint_diagonalize", 0.0),
                                                   rep.wall_s),
        "core.joint_diagonalize.nonconverged_frac": ratio(jd["nonconverged"],
                                                          calls["core.joint_diagonalize"]),
        "core.joint_diagonalize.residual_mean": ratio(jd["residual"],
                                                      calls["core.joint_diagonalize"]),
        "core.force_raw.gflops_computed": ratio(force["flops"] / 1e9,
                                                s.get("core.force_raw", 0.0)),
        "core.observables.self_s": sum(s.get(n, 0.0) for n in OBSERVABLE_SPANS),
        "dynamics.steps": counters["dynamics.run"]["steps"],
        "dynamics.step_self_us": ratio(1e6 * s.get("dynamics.run", 0.0),
                                       counters["dynamics.run"]["steps"]),
        "estimators.self_share": ratio(estimator_s, rep.wall_s),
        "oracle.schrodinger_step_us": ratio(1e6 * s.get("oracle.evolve_schrodinger", 0.0),
                                            counters["oracle.evolve_schrodinger"]["steps"]),
        "oracle.walker_steps_per_s": ratio(counters["oracle.nelson_evolve"]["walker_steps"],
                                           s.get("oracle.nelson_evolve", 0.0)),
        "oracle.walker_density.bytes_computed": counters["oracle.walker_density"]["bytes"],
        "oracle.reflections": counters["oracle.nelson_evolve"]["reflections"],
        "oracle.timestep_warnings": warnings,
        "runio.bytes_written": counters["runio.atomic_write_text"]["bytes"],
        "cli.self_s": s.get("cli.main", 0.0),
        "cli.import_s": import_ns / 1e9,
        "trace.accounted_frac": ratio((import_ns + main_ns) / 1e9, proc_wall),
    })
    return m


def trace_metrics(traced: list, plain: list) -> dict:
    """Medians over the traced repetitions; percentiles over all their calls."""
    per_rep = [layer_metrics(r) for r in traced]
    m = {k: statistics.median(x[k] for x in per_rep) for k in per_rep[0]}
    durs = defaultdict(list)
    for r in traced:
        for name, d in call_durations_ns(r).items():
            durs[name] += d
    for name in PERCENTILE_SPANS:
        m[f"{name}.p50_ms"] = _percentile_ms(durs[name], 50)
        m[f"{name}.p90_ms"] = _percentile_ms(durs[name], 90)
    m["trace.wall_s"] = statistics.median(r.wall_s for r in traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(r.wall_s for r in plain)
    m["proc.cpu_s"] = statistics.median(sum(p.cpu_s for p in r.procs) for r in plain)
    return m


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy
    import scipy

    try:
        # The ceiling keeps git from reporting a repository that encloses ROOT.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_pins": {**THREAD_PINS, "cli --threads": CLI_THREADS},
    }


# ---------------------------------------------------------------------------
# entry point


def input_seed(seed: int, k: int) -> int:
    """Master seed of the k-th input set of a run."""
    return zlib.crc32(f"{seed}:{k}".encode())


def measure(inputs: list, seconds: float, trace: bool, checks: dict, size: str) -> tuple:
    """Run (Workload, work dir) inputs in whole cycles while `seconds` allow.

    With trace, each input gets a plain then a traced repetition, and the run
    stops after the first pair that leaves no time for another.
    """
    plain, traced, first_hashes = [], [], {}
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for k, (wl, work) in enumerate(inputs):
            pair_start = time.perf_counter()
            for is_traced in (False, True) if trace else (False,):
                rep = run_sequence(wl, work, is_traced, k)
                (traced if is_traced else plain).append(rep)
                hashes = check_repetition(wl, rep, work, checks, size,
                                          first_hashes.get(k, {}))
                first_hashes.setdefault(k, hashes)
            now = time.perf_counter()
            if trace and now - start + now - pair_start > seconds:
                return plain, traced
        now = time.perf_counter()
        if now - start + now - cycle_start > seconds:
            return plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    args = ap.parse_args(argv)

    if not (SRC / "matrixqm" / "cli.py").is_file():
        print(f"error: no matrixqm source under {SRC}", file=sys.stderr)
        return 2
    with open(CHECKS) as fh:
        checks = json.load(fh)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = []
    for k in range(SIZES[args.size][args.workload]["inputs"]):
        wl = WORKLOADS[args.workload](input_seed(args.seed, k), args.size)
        (work / f"input{k}").mkdir(parents=True)
        for name, doc in wl.configs.items():
            (work / f"input{k}" / name).write_text(json.dumps(doc, indent=2, sort_keys=True))
        inputs.append((wl, work / f"input{k}"))

    # Set-up: interpreter start plus the numpy/scipy/matrixqm import.  The
    # first call is a warm-up that fills bytecode and file caches; the timed
    # calls are split before and after the repetitions, so that they see the
    # same slow and fast phases of a shared host as the repetitions do.
    version = cli_argv(False) + ["--version"]
    half = SIZES[args.size]["setup_reps"]
    setup = [run_child(version, work, work / "stderr_setup.txt") for _ in range(1 + half)]
    if any(p.rc != 0 for p in setup):
        print("error: `matrixqm --version` failed:\n" + setup[0].stderr, file=sys.stderr)
        return 2
    setup = setup[1:]

    plain, traced = measure(inputs, args.seconds, bool(args.trace), checks, args.size)
    setup += [run_child(version, work, work / "stderr_setup.txt") for _ in range(half)]
    reps_all = plain + traced
    attempted = len(setup) + sum(len(r.procs) for r in reps_all)
    failures = [(f"repetition {i}", label, msg) for i, r in enumerate(reps_all)
                for label, msgs in r.failures.items() for msg in msgs]
    failures += [("setup", "version", f"exit code {p.rc}") for p in setup if p.rc != 0]
    failed = sum(1 for r in reps_all for msgs in r.failures.values() if msgs)
    failed += sum(1 for p in setup if p.rc != 0)
    if args.workload == "sweep_jd":
        # One more check over the inputs that ran; their outputs are left in
        # place and equal those of every repetition of the same input.
        attempted += 1
        try:
            ran = sorted({r.input for r in reps_all})
            msgs = check_sweep_mean([sweep_results(inputs[k][1] / "out") for k in ran],
                                    checks, args.size)
        except (OSError, KeyError, ValueError) as e:
            msgs = [f"output unreadable: {e!r}"]
        failures += [("run", "sweep mean", msg) for msg in msgs]
        failed += bool(msgs)

    if args.trace:
        values, units = trace_metrics(traced, plain), PER_LAYER
    else:
        values, units = end_to_end_metrics(inputs[0][0], plain, setup), END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    env = environment()

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repetitions {len(plain)} plain + {len(traced)} traced")
    for k, v in metrics.items():
        print(f"  {k:<48} {v['value']:>16.6g} {v['unit']}")
    print(f"  {'fail_frac':<48} {failed / attempted:>16.6g} ratio  ({failed}/{attempted})")
    for i, label, msg in failures:
        print(f"  FAIL {i} {label}: {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    samples = {"setup_wall_s": [p.wall_s for p in setup],
               "repetition_wall_s": [(r.input, [p.wall_s for p in r.procs]) for r in plain],
               "traced_repetition_wall_s": [r.wall_s for r in traced]}
    (work / "result.json").write_text(json.dumps({**result, "env": env, **samples}, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
