#!/usr/bin/env python3
"""Recompute the reference values in checks.json from the reference seeds.

    python3 perfbench/make_references.py [--size full|tiny]

For each seed in checks.json's "reference_seeds" the sweep_jd and
compare_pipeline sequences run once.  The sweep reference per N is the mean
and standard deviation of ln(nu_hat) over those seeds: nu_hat of one seed
varies by a factor (up to 2.5x between seeds), and with two replicas the
bootstrap stderr in sweep.csv is about a third of its seed-to-seed spread.
The compare reference is the mean L1 and KS.
Tolerances are left as they are.  The checks must also pass on seeds outside
this list.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics

import run


def run_once(workload: str, seed: int, size: str):
    wl = run.WORKLOADS[workload](seed, size)
    work = run.WORK / f"references-{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, doc in wl.configs.items():
        (work / name).write_text(json.dumps(doc, indent=2, sort_keys=True))
    rep = run.run_sequence(wl, work, traced=False)
    for inv, proc in zip(wl.invocations, rep.procs):
        if proc.rc != 0:
            raise SystemExit(f"{workload} seed {seed} {inv.label} failed:\n{proc.stderr}")
    return work / "out"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=sorted(run.SIZES), default="full")
    args = ap.parse_args()
    checks = json.loads(run.CHECKS.read_text())
    seeds = checks["reference_seeds"]

    sweeps = [run.sweep_results(run_once("sweep_jd", s, args.size)) for s in seeds]
    checks["sweep_jd"]["reference"][args.size] = {
        str(N): {
            "log_nu_hat": statistics.fmean(math.log(sw[N]) for sw in sweeps),
            "log_sd": statistics.stdev(math.log(sw[N]) for sw in sweeps),
        }
        for N in sorted(sweeps[0])
    }
    verdicts = [run.compare_results(run_once("compare_pipeline", s, args.size))
                for s in seeds]
    checks["compare_pipeline"]["reference"][args.size] = {
        key: statistics.fmean(v[key] for v in verdicts) for key in ("L1", "KS")
    }
    run.CHECKS.write_text(json.dumps(checks, indent=2) + "\n")
    for s, sw, v in zip(seeds, sweeps, verdicts):
        print(s, sw, v)


if __name__ == "__main__":
    main()
