"""Run the matrixqm CLI with a span recorded around each public layer call.

    python tracer.py SPANS.json CLI_ARG...

The named functions of each module are rebound, in this process only, to
wrappers that record a span (name, start, end, parent) plus a few counters.
Every module namespace that holds a name is rebound, so calls across modules
(`dynamics.run` -> `core.joint_diagonalize`) and within one
(`oracle.nelson_evolve` -> `oracle.nelson_drift`) are both seen.  Spans stay
in memory and are written to SPANS.json when the CLI returns.  The root span
is `cli.main`; its self time is the CLI's own work, such as the inline KDE in
`compare`.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter_ns()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import matrixqm.cli as cli  # noqa: E402

IMPORT_NS = time.perf_counter_ns() - _T_START

MODULES = ("core", "dynamics", "estimators", "oracle", "runio", "cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _force_flops(args, kwargs, result):
    d, n, _ = _arg(args, kwargs, 0, "X").shape
    return {"flops": 12 * n**3 * d * (d - 1) // 2}


def _jd_counts(args, kwargs, result):
    return {"nonconverged": int(not result.converged), "residual": result.residual}


def _run_steps(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 2, "integ").steps}


def _schrodinger_steps(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 3, "steps")}


def _walker_counts(args, kwargs, result):
    ens = _arg(args, kwargs, 0, "ensemble")
    steps = _arg(args, kwargs, 4, "steps")
    return {"walker_steps": steps * len(ens.walkers),
            "reflections": result.reflections - ens.reflections}


def _kde_bytes(args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid_x")
    walkers = _arg(args, kwargs, 0, "walkers")
    return {"bytes": 8 * len(grid) * len(walkers)}


def _bytes_written(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 1, "text").encode())}


# module -> {function: counter hook or None}
TRACED = {
    "core": {
        "joint_diagonalize": _jd_counts,
        "force_raw": _force_flops,
        "eigenvalues": None,
        "potential_energy": None,
        "kinetic_energy": None,
        "com_momentum": None,
    },
    "dynamics": {"run": _run_steps},
    "estimators": {
        "scaling_sweep": None,
        "track_particles": None,
        "estimate_diffusion": None,
        "estimate_current_velocity": None,
    },
    "oracle": {
        "evolve_schrodinger": _schrodinger_steps,
        "nelson_drift": None,
        "nelson_evolve": _walker_counts,
        "walker_density": _kde_bytes,
    },
    "runio": {
        "parse_config": None,
        "record_to_csv": None,
        "atomic_write_text": _bytes_written,
        "load_record_csv": None,
        "load_wavefunction_csv": None,
    },
}


class SpanRecorder:
    """In-memory spans: [name, start_ns, end_ns, parent_index, counters]."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every traced function in every matrixqm module that holds it."""
        modules = [importlib.import_module(f"matrixqm.{m}") for m in MODULES]
        wrappers = {}
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module(f"matrixqm.{mod_name}")
            for fn_name, hook in funcs.items():
                orig = getattr(mod, fn_name)
                wrappers[id(orig)] = (orig, self.wrap(f"{mod_name}.{fn_name}", orig, hook))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = SpanRecorder()
    rec.install()
    try:
        return rec.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_ns": IMPORT_NS, "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
