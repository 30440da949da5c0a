"""Batch front end: JSON configs in, grids and reports out.

Usage:

    phdisk <command> --config cfg.json [--out DIR] [--verbose]
    phdisk selftest

Commands: transform, factorize, solve-dbar, solve-beltrami, solve-riesz,
solve-conductivity, diagnose, selftest.  Every run writes report.json
(config echo, version stamp, solver/diagnostic report) into the output
directory; grid outputs are PHD1 ({"format": "phd1"}, the default) or
CSV ({"format": "csv"}), which grids on D_R (transform cauchy2) need;
any other format is rejected, and so is a params key that the command
does not read, before the command's work.  Exit codes: 0 success, 1
validation or internal error, 2 solver non-convergence.  Errors are machine-readable
JSON on stderr; "error" is "validation" (a ValueError: bad config or
input), "non-convergence", or "internal" (anything else, i.e. a bug,
reported with its traceback).

The environment variable PHDISK_THREADS caps the numeric thread pools;
the package applies it on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

import phdisk as ph  # submodules through the package's lazy names: a command loads what it runs

from . import __version__, _apply_thread_cap
from .grid import BoundaryFunction, GridFunction, make_grid

COMMANDS = (
    "transform",
    "factorize",
    "solve-dbar",
    "solve-beltrami",
    "solve-riesz",
    "solve-conductivity",
    "diagnose",
    "selftest",
)


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object; got {cfg!r}")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _load_inputs(cfg: dict, names) -> dict:
    inputs = _object(cfg, "inputs")
    out = {}
    for name in names:
        if name not in inputs:
            raise ConfigError(f"config inputs must map {name!r} to a file path")
        path = inputs[name]
        if not isinstance(path, str):
            raise ConfigError(f"config inputs must map {name!r} to a file path; got {path!r}")
        if not Path(path).exists():
            raise ConfigError(f"input file for {name!r} does not exist: {path}")
        out[name] = ph.io.load(path)
    return out


def _object(cfg: dict, key: str) -> dict:
    """cfg[key] ({} when absent), which must be a JSON object, else a ConfigError."""
    value = cfg.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object; got {value!r}")
    return value


class _Params(dict):
    """The params object of `command`; `read` holds the keys it asked for.

    Each command reads its keys, then calls `check` before its work, so a
    key it does not read fails the run before any solve or sweep.
    """

    def __init__(self, command: str, values: dict):
        super().__init__(values)
        self.command = command
        self.read: set = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def check(self) -> None:
        """A ConfigError naming the keys not read so far, if any."""
        unknown = sorted(set(self) - self.read)
        if unknown:
            known = f" (it reads {', '.join(sorted(self.read))})" if self.read else ""
            raise ConfigError(f"{self.command} reads no params key {', '.join(unknown)}{known}")


def _number(params: dict, key: str, default: float | None = None, integral: bool = False):
    """params[key] (`default` when absent) as a finite float, or as an int
    when `integral`, else a ConfigError naming the key.

    Configs may quote numbers and JSON writers may emit 50 as 50.0, so
    numeric strings and integral floats are read; a fractional value of
    an integral key is rejected rather than truncated, and a boolean is
    not a number.
    """
    value = params.get(key, default)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    except (TypeError, ValueError):
        number = None
    if number is None or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number; got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number; got {value!r}")
    if not integral:
        return number
    if not number.is_integer():
        raise ConfigError(f"{key} must be an integer; got {value!r}")
    return int(number)


def _numbers(params: dict, key: str, default, length: int | None = None) -> tuple:
    """params[key] (`default` when absent) as a tuple of `_number`s: a
    non-empty list, of `length` entries when given, else a ConfigError."""
    value = params.get(key, default)
    if not isinstance(value, (list, tuple)) or not value or length not in (None, len(value)):
        what = f"a list of {length} numbers" if length else "a non-empty list of numbers"
        raise ConfigError(f"{key} must be {what}; got {value!r}")
    items = {f"{key}[{i}]": v for i, v in enumerate(value)}
    return tuple(_number(items, k) for k in items)


def _solver_config(cfg: dict):
    block = _object(cfg, "solver")
    known = [f.name for f in dataclasses.fields(ph.solvers.SolverConfig)]
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"solver keys must be among {', '.join(known)}; got {', '.join(unknown)}")
    return ph.solvers.SolverConfig(**{k: _number(block, k, integral=k == "max_iter") for k in block})


def _extension(cfg: dict) -> str:
    """The file extension of cfg["format"]: "phd1" (the default) or "csv"."""
    fmt = cfg.get("format", "phd1")
    if fmt not in ("phd1", "csv"):
        raise ConfigError(f"format must be 'phd1' or 'csv'; got {fmt!r}")
    return f".{fmt}"


def _slice_plan(outdir: Path, cfg: dict, fields: dict) -> list:
    """The emit_slices specs as (field, along, value, path), each checked
    against its field's grid, so that a bad spec fails before any output
    is written."""
    plan = []
    specs = cfg.get("emit_slices", [])
    if not isinstance(specs, list):
        raise ConfigError(f"emit_slices must be a list of JSON objects; got {specs!r}")
    for spec in specs:
        if not isinstance(spec, dict):
            raise ConfigError(f"each slice must be a JSON object; got {spec!r}")
        target = spec.get("field")
        if not isinstance(target, str) or target not in fields:
            raise ConfigError(f"emit_slices refers to unknown field {target!r}")
        if "radius" in spec:
            along, value = "radius", _number(spec, "radius")
        elif "angle" in spec:
            along, value = "angle", _number(spec, "angle")
        else:
            raise ConfigError("each slice needs a 'radius' or 'angle' key")
        ph.io._slice(fields[target], along, value)
        plan.append((fields[target], along, value, outdir / f"{target}_{along}_{value:g}.csv"))
    return plan


def _run_selftest(verbose: bool) -> dict:
    g = make_grid(256, 64)
    z = g.nodes_z()
    checks = {}
    one = GridFunction.constant(g, 1.0)
    checks["cauchy_chi_D"] = float(np.max(np.abs(ph.transforms.cauchy(one).values - np.conj(z))))
    checks["cauchy_t"] = float(
        np.max(np.abs(ph.transforms.cauchy(GridFunction(g, z)).values - (np.abs(z) ** 2 - 1)))
    )
    checks["beurling_chi_D"] = float(np.max(np.abs(ph.transforms.beurling(one).values)))
    green = ph.transforms.green_potential(GridFunction.constant(g, 4.0))
    checks["green_const"] = float(np.max(np.abs(green.values - (np.abs(z) ** 2 - 1))))
    cf = ph.transforms.conjugate_function(BoundaryFunction.from_function(g.n_theta, lambda t: np.cos(3 * t)))
    checks["conjugate_cos3"] = float(np.max(np.abs(cf.values - np.sin(3 * g.thetas))))
    passed = all(v < 1e-10 for v in checks.values())
    for name, v in checks.items():
        line = f"{name}: {'pass' if v < 1e-10 else 'FAIL'} (err {v:.3e})"
        if verbose:
            print(line)
    if not passed:
        raise ConfigError(f"selftest failed: {checks}")
    return {"selftest": checks, "passed": passed}


def _run(command: str, cfg: dict, outdir: Path, verbose: bool) -> dict:
    report: dict = {}
    fields: dict = {}
    params = _Params(command, _object(cfg, "params"))
    ext = _extension(cfg)

    if command == "selftest":
        params.check()
        report.update(_run_selftest(verbose))

    elif command == "transform":
        which = _require(cfg, "transform")
        data = _load_inputs(cfg, ["h"])
        h = data["h"]
        R = _number(params, "R", 1.0) if which == "cauchy2" else None
        params.check()
        if which == "cauchy":
            fields["out"] = ph.transforms.cauchy(h)
        elif which == "beurling":
            fields["out"] = ph.transforms.beurling(h)
        elif which == "reflect":
            fields["out"] = ph.transforms.reflect_transform(h)
        elif which == "green":
            fields["out"] = ph.transforms.green_potential(h)
        elif which == "cauchy2":
            fields["out"] = ph.transforms.cauchy_renormalized(h, R)
        else:
            raise ConfigError(f"unknown transform {which!r}")
        report["transform"] = which

    elif command == "factorize":
        data = _load_inputs(cfg, ["w", "alpha"])
        normalization = params.get("normalization", "real_on_T")
        params.check()
        fac = ph.similarity.factorize(data["w"], data["alpha"], normalization)
        fields["s"] = fac.s
        fields["F"] = fac.F
        report["factorization"] = fac.to_dict()

    elif command == "solve-dbar":
        data = _load_inputs(cfg, ["a", "psi"])
        lam, theta0 = _number(params, "lambda", 0.0), _number(params, "theta0", 0.0)
        params.check()
        A, res = ph.transforms.solve_dbar(data["a"], data["psi"], lam, theta0)
        fields["A"] = A
        report["residuals"] = res.to_dict()

    elif command == "solve-beltrami":
        data = _load_inputs(cfg, ["alpha", "F", "psi"])
        scfg = _solver_config(cfg)
        variant = params.get("normalization", ph.similarity.IMAGINARY_ON_T)
        if variant not in (ph.similarity.IMAGINARY_ON_T, ph.similarity.REAL_ON_T):
            raise ConfigError(f"unknown normalization {variant!r}")
        lam = _number(params, "lambda", 0.0)
        params.check()
        imag = variant == ph.similarity.IMAGINARY_ON_T
        fn = ph.solvers.parametrize_imag if imag else ph.solvers.parametrize_real
        s, rep = fn(data["alpha"], data["F"], data["psi"], lam, scfg)
        fields["s"] = s
        fields["w"] = ph.similarity.reconstruct(s, data["F"])
        report["solve"] = rep.to_dict()

    elif command == "solve-riesz":
        data = _load_inputs(cfg, ["alpha", "psi"])
        scfg = _solver_config(cfg)
        c = _number(params, "c", 0.0)
        params.check()
        w, psi_sharp, rep = ph.solvers.solve_riesz(data["alpha"], data["psi"], c, scfg)
        fields["w"] = w
        fields["psi_sharp"] = psi_sharp
        report["solve"] = rep.to_dict()

    elif command == "solve-conductivity":
        data = _load_inputs(cfg, ["sigma", "psi"])
        scfg = _solver_config(cfg)
        params.check()
        u, v, w, rep = ph.solvers.solve_conductivity(data["sigma"], data["psi"], scfg)
        fields.update({"u": u, "v": v, "w": w})
        report["solve"] = rep.to_dict()

    elif command == "diagnose":
        name = _require(cfg, "diagnostic")
        if name == "bmo":
            data = _load_inputs(cfg, ["h"])
            fam = ph.diagnostics.ArcFamily(_number(params, "max_level", 5, integral=True))
            params.check()
            seminorm, table = ph.diagnostics.bmo_oscillation(data["h"], fam)
            report["diagnostic"] = {
                "name": "bmo_oscillation",
                "seminorm": seminorm,
                "per_arc": {f"{k[0]}/{k[1]}": v for k, v in table.items()},
            }
        elif name == "ap":
            data = _load_inputs(cfg, ["weight"])
            fam = ph.diagnostics.ArcFamily(_number(params, "max_level", 5, integral=True))
            p = _number(params, "p", 2.0)
            params.check()
            report["diagnostic"] = {
                "name": "ap_constant",
                "value": ph.diagnostics.ap_constant(data["weight"], p, fam),
            }
        elif name == "jn":
            data = _load_inputs(cfg, ["h"])
            arc = _numbers(params, "arc", [0.0, 2.0 * np.pi], length=2)
            params.check()
            rep = ph.diagnostics.jn_exp_check(data["h"], arc)
            report["diagnostic"] = rep.to_dict()
        elif name == "exp-integrability":
            data = _load_inputs(cfg, ["f"])
            ells = _numbers(params, "ells", (1.0, 2.0, 3.0))
            params.check()
            rep = ph.diagnostics.exp_integrability_report(data["f"], ells)
            report["diagnostic"] = rep.to_dict()
        elif name == "equicontinuity":
            data = _load_inputs(cfg, ["beta"])
            sides = _numbers(params, "side_lengths", (0.5, 0.25, 0.125, 0.0625))
            params.check()
            rep = ph.diagnostics.equicontinuity_modulus(data["beta"], sides)
            report["diagnostic"] = rep.to_dict()
        elif name == "c2-growth":
            data = _load_inputs(cfg, ["h"])
            radii = _numbers(params, "radii", (1.0, 10.0, 100.0))
            params.check()
            rep = ph.diagnostics.c2_growth_curve(data["h"], radii)
            report["diagnostic"] = rep.to_dict()
        elif name == "multiplier":
            data = _load_inputs(cfg, ["f", "g"])
            p, gamma = _number(params, "p", 2.0), _number(params, "gamma", math.pi / 4)
            params.check()
            rep = ph.diagnostics.multiplier_ratio(data["f"], data["g"], p, gamma)
            report["diagnostic"] = rep.to_dict()
        elif name == "trace-convergence":
            data = _load_inputs(cfg, ["w"])
            p = _number(params, "p", 2.0)
            params.check()
            rep = ph.diagnostics.trace_convergence(data["w"], p)
            report["diagnostic"] = rep.to_dict()
        elif name == "boundary-sobolev":
            data = _load_inputs(cfg, ["g"])
            params.check()
            report["diagnostic"] = {
                "name": "boundary_sobolev_seminorm",
                "value": ph.diagnostics.boundary_sobolev_seminorm(data["g"]),
            }
        else:
            raise ConfigError(f"unknown diagnostic {name!r}")

    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown command {command!r}")

    slices = _slice_plan(outdir, cfg, fields)
    written = {}
    for name, obj in fields.items():
        written[name] = str(outdir / f"{name}{ext}")
        ph.io.save(written[name], obj)
    for f, along, value, path in slices:
        ph.io.emit_slice(f, along, value, path)
    report["outputs"] = written
    if slices:
        report["slices"] = [str(path) for *_, path in slices]
    return report


def main(argv=None) -> int:
    cap = _apply_thread_cap()
    parser = argparse.ArgumentParser(prog="phdisk", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    outdir = Path(args.out)
    try:
        cfg = _load_config(args.config)
        if "command" in cfg and cfg["command"] != args.command:
            raise ConfigError(
                f"config command {cfg['command']!r} conflicts with {args.command!r}"
            )
        if args.command != "selftest" and args.config is None:
            raise ConfigError("this command requires --config")
        outdir.mkdir(parents=True, exist_ok=True)
        report = _run(args.command, cfg, outdir, args.verbose)
    except ValueError as exc:  # ConfigError and input the library rejects
        print(json.dumps({"error": "validation", "message": str(exc)}), file=sys.stderr)
        return 1
    except Exception as exc:  # a solver that did not converge, or a bug
        if isinstance(exc, ph.solvers.SolverDivergence):
            payload = {"error": "non-convergence", "message": str(exc), "report": exc.report.to_dict()}
            print(json.dumps(payload), file=sys.stderr)
            return 2
        payload = {
            "error": "internal",
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
        print(json.dumps(payload), file=sys.stderr)
        return 1

    payload = {
        "command": args.command,
        "version": __version__,
        "config": cfg,
        "threads_cap": cap,
        **report,
    }
    with open(outdir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    if args.verbose:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
