"""Spans around the calls into each phdisk layer, installed from outside.

`Tracer.install` replaces each public function of a layer by a wrapper in
every module that holds a binding to it (the package namespace, the
modules that import it by name, and its own module where other modules
reach it as `module.function`), and wraps the `RadialEngine` methods at
class level.  A span records name, start, end and the index of the span
that was open when it started.  Spans are held in memory; `write` dumps
them when the run ends.  Nothing is installed unless a traced run asks.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

# Public functions per layer.  Grid functions are wrapped only where other
# modules import them, so a span around w12_norm keeps its own derivative
# and quadrature work; every other layer is also reached as an attribute
# of its module (the cli calls `transforms.cauchy`, `io_mod.save`, ...).
LAYER_FUNCTIONS = {
    "grid": (
        "w12_norm", "sobolev_norm", "wirtinger_derivatives", "laplacian",
        "lp_norm_disk", "hardy_norm", "circle_norm", "nontangential_max",
        "area_integral",
    ),
    "transforms": (
        "cauchy", "beurling", "cauchy_renormalized", "reflect_transform",
        "green_potential", "poisson_extend", "harmonic_conjugate",
        "conjugate_function", "riesz_extension", "harmonicity_defect",
        "solve_dbar",
    ),
    "similarity": (
        "beltrami_ratio", "reconstruct", "residual_beltrami", "factorize",
        "alpha_from_pair",
    ),
    "solvers": (
        "solve_riesz", "solve_conductivity", "parametrize_real",
        "parametrize_imag", "conductivity_residual",
    ),
    "diagnostics": (
        "bmo_oscillation", "localized_oscillation_sup", "ap_constant",
        "jn_exp_check", "exp_integrability_report", "equicontinuity_modulus",
        "c2_growth_curve", "multiplier_ratio", "trace_convergence",
        "boundary_sobolev_seminorm",
    ),
    "io": ("save", "load", "save_phd1", "load_phd1", "save_csv", "load_csv", "emit_slice"),
    "cli": ("main",),
}
WRAPPED_ONLY_WHERE_IMPORTED = ("grid",)

RADIAL_METHODS = (
    "__init__", "cell_coeffs", "cumulative_in", "cumulative_out",
    "cumulative_out_rholog", "cumulative_in_at", "cumulative_out_at",
)

MODULES = ("grid", "radial", "transforms", "similarity", "solvers", "diagnostics", "io", "cli")


def _iterations(args, kwargs, result):
    return result[-1].iterations


def _bytes_written(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


PAYLOADS = {
    **{f"solvers.{n}": _iterations for n in
       ("solve_riesz", "solve_conductivity", "parametrize_real", "parametrize_imag")},
    "io.save_phd1": _bytes_written,
    "io.save_csv": _bytes_written,
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index (-1 at top), payload]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.recording = True  # off while the benchmark checks outputs

    def wrap(self, name: str, fn, payload=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if payload is not None:
                span[4] = payload(args, kwargs, result)
            return result

        return traced

    def install(self, phdisk) -> None:
        mods = {m: importlib.import_module(f"phdisk.{m}") for m in MODULES}
        namespaces = [phdisk, *mods.values()]
        for layer, names in LAYER_FUNCTIONS.items():
            home = mods[layer]
            for fname in names:
                orig = getattr(home, fname)
                label = f"{layer}.{fname}"
                wrapper = self.wrap(label, orig, PAYLOADS.get(label))
                for ns in namespaces:
                    if ns is home and layer in WRAPPED_ONLY_WHERE_IMPORTED:
                        continue
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, attr, wrapper)
        engine = mods["radial"].RadialEngine
        for meth in RADIAL_METHODS:
            label = "radial.build" if meth == "__init__" else f"radial.{meth}"
            setattr(engine, meth, self.wrap(label, getattr(engine, meth)))

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "payload"],
                       "spans": self.spans}, fh)


def _self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_totals(spans) -> dict:
    """Per-layer metrics summed over `spans` (parents must be in the list)."""
    own = _self_times(spans)
    names = [s[0] for s in spans]

    def calls(*wanted):
        return sum(1 for n in names if n in wanted)

    def self_s(*wanted):
        return sum(t for n, t in zip(names, own) if n in wanted)

    def layer_self(layer):
        return sum(t for n, t in zip(names, own) if _layer(n) == layer)

    def under_solver(i):
        p = spans[i][3]
        while p >= 0:
            if _layer(names[p]) == "solvers":
                return True
            p = spans[p][3]
        return False

    cumulative = ("radial.cumulative_in", "radial.cumulative_out", "radial.cumulative_out_rholog")
    partial = ("radial.cumulative_in_at", "radial.cumulative_out_at")
    saves = ("io.save", "io.save_phd1", "io.save_csv")
    loads = ("io.load", "io.load_phd1", "io.load_csv")
    return {
        "radial.engine_builds": calls("radial.build"),
        "radial.engine_build_s": self_s("radial.build"),
        "radial.cumulative_calls": calls(*cumulative),
        "radial.cumulative_s": self_s(*cumulative),
        "radial.cell_coeffs_calls": calls("radial.cell_coeffs"),
        "radial.cell_coeffs_s": self_s("radial.cell_coeffs"),
        "radial.partial_s": self_s(*partial),
        "transforms.cauchy_calls": calls("transforms.cauchy"),
        "transforms.cauchy_s": self_s("transforms.cauchy"),
        "transforms.reflect_calls": calls("transforms.reflect_transform"),
        "transforms.reflect_s": self_s("transforms.reflect_transform"),
        "transforms.green_calls": calls("transforms.green_potential"),
        "transforms.green_s": self_s("transforms.green_potential"),
        "transforms.beurling_s": self_s("transforms.beurling"),
        "transforms.renormalized_s": self_s("transforms.cauchy_renormalized"),
        "transforms.self_s": layer_self("transforms"),
        "grid.w12_norm_calls": calls("grid.w12_norm"),
        "grid.w12_norm_s": self_s("grid.w12_norm"),
        "grid.wirtinger_calls": calls("grid.wirtinger_derivatives"),
        "grid.wirtinger_s": self_s("grid.wirtinger_derivatives"),
        "grid.nontangential_max_s": self_s("grid.nontangential_max"),
        "similarity.calls": sum(1 for n in names if _layer(n) == "similarity"),
        "similarity.s": layer_self("similarity"),
        "solvers.outer_iterations": sum(
            s[4] for i, s in enumerate(spans)
            if s[4] is not None and _layer(s[0]) == "solvers" and not under_solver(i)
        ),
        "solvers.green_map_calls": sum(
            1 for s in spans
            if s[0] == "transforms.green_potential" and s[3] >= 0
            and _layer(names[s[3]]) == "solvers"
        ),
        "solvers.self_s": layer_self("solvers"),
        "diagnostics.self_s": layer_self("diagnostics"),
        "io.save_s": self_s(*saves),
        "io.load_s": self_s(*loads),
        "io.bytes_written": sum(s[4] for s in spans if s[0] in ("io.save_phd1", "io.save_csv")),
        "cli.self_s": layer_self("cli"),
    }


def per_layer_metrics(spans, first_round_span: int, rounds: int) -> dict:
    """Set-up spans once plus the rounds' spans divided by the round count.

    Rounds repeat the same inputs, so counts per round are whole numbers.
    """
    setup = layer_totals(spans[:first_round_span])
    rest = spans[first_round_span:]
    base = first_round_span
    rebased = [[s[0], s[1], s[2], s[3] - base if s[3] >= base else -1, s[4]] for s in rest]
    per_round = layer_totals(rebased)
    out = {}
    for key, value in setup.items():
        total = value + per_round[key] / rounds
        if isinstance(value, int) and isinstance(per_round[key], int) and per_round[key] % rounds == 0:
            total = value + per_round[key] // rounds
        out[key] = total
    return out
