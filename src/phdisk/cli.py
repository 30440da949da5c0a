"""Batch front end: JSON configs in, grids and reports out.

Usage:

    phdisk <command> --config cfg.json [--out DIR] [--verbose]
    phdisk selftest

Commands: transform, factorize, solve-dbar, solve-beltrami, solve-riesz,
solve-conductivity, diagnose, selftest.  Every run writes report.json
(config echo, version stamp, solver/diagnostic report) into the output
directory; grid outputs are PHD1 with a CSV fallback via
{"format": "csv"}, which grids on D_R (transform cauchy2) need.  Exit
codes: 0 success, 1 validation or internal error, 2 solver
non-convergence.  Errors are machine-readable JSON on stderr; "error" is
"validation" (a ValueError: bad config or input), "non-convergence", or
"internal" (anything else, i.e. a bug, reported with its traceback).

The environment variable PHDISK_THREADS caps the numeric thread pools;
the package applies it on import, before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback
from pathlib import Path

from . import __version__, _apply_thread_cap

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
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _load_inputs(cfg: dict, names, io_mod) -> dict:
    inputs = cfg.get("inputs", {})
    out = {}
    for name in names:
        if name not in inputs:
            raise ConfigError(f"config inputs must map {name!r} to a file path")
        path = inputs[name]
        if not Path(path).exists():
            raise ConfigError(f"input file for {name!r} does not exist: {path}")
        out[name] = io_mod.load(path)
    return out


def _integral(value):
    """An integral float or numeric string as an int, else `value` as given.

    JSON writers may emit 50 as 50.0 and configs may quote numbers; a
    value with a fractional part is left for SolverConfig to reject
    rather than truncated.
    """
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _solver_config(cfg: dict, solvers_mod):
    block = cfg.get("solver", {})
    known = [f.name for f in dataclasses.fields(solvers_mod.SolverConfig)]
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"solver keys must be among {', '.join(known)}; got {', '.join(unknown)}")
    return solvers_mod.SolverConfig(
        tol=float(block.get("tol", 1e-8)),
        max_iter=_integral(block.get("max_iter", 200)),
        damping=float(block.get("damping", 1.0)),
        zero_threshold=block.get("zero_threshold"),
        p=float(block.get("p", 2.0)),
    )


def _emit(outdir: Path, name: str, obj, cfg, io_mod) -> str:
    ext = ".csv" if cfg.get("format") == "csv" else ".phd1"
    path = outdir / f"{name}{ext}"
    io_mod.save(path, obj)
    return str(path)


def _emit_slices(outdir: Path, cfg: dict, fields: dict, io_mod) -> list:
    done = []
    for spec in cfg.get("emit_slices", []):
        target = spec.get("field")
        if target not in fields:
            raise ConfigError(f"emit_slices refers to unknown field {target!r}")
        if "radius" in spec:
            along, value = "radius", float(spec["radius"])
        elif "angle" in spec:
            along, value = "angle", float(spec["angle"])
        else:
            raise ConfigError("each slice needs a 'radius' or 'angle' key")
        path = outdir / f"{target}_{along}_{value:g}.csv"
        io_mod.emit_slice(fields[target], along, value, path)
        done.append(str(path))
    return done


def _run_selftest(verbose: bool) -> dict:
    import numpy as np

    from .grid import GridFunction, make_grid
    from .transforms import beurling, cauchy, conjugate_function, green_potential
    from .grid import BoundaryFunction

    g = make_grid(256, 64)
    z = g.nodes_z()
    checks = {}
    one = GridFunction.constant(g, 1.0)
    checks["cauchy_chi_D"] = float(np.max(np.abs(cauchy(one).values - np.conj(z))))
    checks["cauchy_t"] = float(
        np.max(np.abs(cauchy(GridFunction(g, z)).values - (np.abs(z) ** 2 - 1)))
    )
    checks["beurling_chi_D"] = float(np.max(np.abs(beurling(one).values)))
    checks["green_const"] = float(
        np.max(np.abs(green_potential(GridFunction.constant(g, 4.0)).values - (np.abs(z) ** 2 - 1)))
    )
    cf = conjugate_function(BoundaryFunction.from_function(g.n_theta, lambda t: np.cos(3 * t)))
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
    import numpy as np

    from . import diagnostics, io as io_mod, similarity, solvers, transforms

    report: dict = {}
    fields: dict = {}

    if command == "selftest":
        report.update(_run_selftest(verbose))

    elif command == "transform":
        which = _require(cfg, "transform")
        data = _load_inputs(cfg, ["h"], io_mod)
        h = data["h"]
        if which == "cauchy":
            fields["out"] = transforms.cauchy(h)
        elif which == "beurling":
            fields["out"] = transforms.beurling(h)
        elif which == "reflect":
            fields["out"] = transforms.reflect_transform(h)
        elif which == "green":
            fields["out"] = transforms.green_potential(h)
        elif which == "cauchy2":
            R = float(cfg.get("params", {}).get("R", 1.0))
            fields["out"] = transforms.cauchy_renormalized(h, R)
        else:
            raise ConfigError(f"unknown transform {which!r}")
        report["transform"] = which

    elif command == "factorize":
        data = _load_inputs(cfg, ["w", "alpha"], io_mod)
        params = cfg.get("params", {})
        fac = similarity.factorize(
            data["w"],
            data["alpha"],
            params.get("normalization", "real_on_T"),
            params.get("zero_threshold"),
        )
        fields["s"] = fac.s
        fields["F"] = fac.F
        report["factorization"] = fac.to_dict()

    elif command == "solve-dbar":
        data = _load_inputs(cfg, ["a", "psi"], io_mod)
        params = cfg.get("params", {})
        A, res = transforms.solve_dbar(
            data["a"], data["psi"],
            float(params.get("lambda", 0.0)), float(params.get("theta0", 0.0)),
        )
        fields["A"] = A
        report["residuals"] = res.to_dict()

    elif command == "solve-beltrami":
        data = _load_inputs(cfg, ["alpha", "F", "psi"], io_mod)
        params = cfg.get("params", {})
        scfg = _solver_config(cfg, solvers)
        variant = params.get("normalization", "imaginary_on_T")
        fn = (
            solvers.parametrize_imag
            if variant == "imaginary_on_T"
            else solvers.parametrize_real
        )
        s, rep = fn(data["alpha"], data["F"], data["psi"], float(params.get("lambda", 0.0)), scfg)
        fields["s"] = s
        fields["w"] = similarity.reconstruct(s, data["F"])
        report["solve"] = rep.to_dict()

    elif command == "solve-riesz":
        data = _load_inputs(cfg, ["alpha", "psi"], io_mod)
        params = cfg.get("params", {})
        scfg = _solver_config(cfg, solvers)
        w, psi_sharp, rep = solvers.solve_riesz(
            data["alpha"], data["psi"], float(params.get("c", 0.0)), scfg
        )
        fields["w"] = w
        fields["psi_sharp"] = psi_sharp
        report["solve"] = rep.to_dict()

    elif command == "solve-conductivity":
        data = _load_inputs(cfg, ["sigma", "psi"], io_mod)
        scfg = _solver_config(cfg, solvers)
        u, v, w, rep = solvers.solve_conductivity(data["sigma"], data["psi"], scfg)
        fields.update({"u": u, "v": v, "w": w})
        report["solve"] = rep.to_dict()

    elif command == "diagnose":
        name = _require(cfg, "diagnostic")
        params = cfg.get("params", {})
        if name == "bmo":
            data = _load_inputs(cfg, ["h"], io_mod)
            fam = diagnostics.ArcFamily(int(params.get("max_level", 5)))
            seminorm, table = diagnostics.bmo_oscillation(data["h"], fam)
            report["diagnostic"] = {
                "name": "bmo_oscillation",
                "seminorm": seminorm,
                "per_arc": {f"{k[0]}/{k[1]}": v for k, v in table.items()},
            }
        elif name == "ap":
            data = _load_inputs(cfg, ["weight"], io_mod)
            fam = diagnostics.ArcFamily(int(params.get("max_level", 5)))
            report["diagnostic"] = {
                "name": "ap_constant",
                "value": diagnostics.ap_constant(data["weight"], float(params.get("p", 2.0)), fam),
            }
        elif name == "jn":
            data = _load_inputs(cfg, ["h"], io_mod)
            arc = params.get("arc", [0.0, 2.0 * np.pi])
            rep = diagnostics.jn_exp_check(data["h"], (float(arc[0]), float(arc[1])))
            report["diagnostic"] = rep.to_dict()
        elif name == "exp-integrability":
            data = _load_inputs(cfg, ["f"], io_mod)
            rep = diagnostics.exp_integrability_report(
                data["f"], tuple(params.get("ells", (1.0, 2.0, 3.0)))
            )
            report["diagnostic"] = rep.to_dict()
        elif name == "equicontinuity":
            data = _load_inputs(cfg, ["beta"], io_mod)
            rep = diagnostics.equicontinuity_modulus(
                data["beta"], tuple(params.get("side_lengths", (0.5, 0.25, 0.125, 0.0625)))
            )
            report["diagnostic"] = rep.to_dict()
        elif name == "c2-growth":
            data = _load_inputs(cfg, ["h"], io_mod)
            rep = diagnostics.c2_growth_curve(data["h"], tuple(params.get("radii", (1.0, 10.0, 100.0))))
            report["diagnostic"] = rep.to_dict()
        elif name == "multiplier":
            data = _load_inputs(cfg, ["f", "g"], io_mod)
            rep = diagnostics.multiplier_ratio(
                data["f"], data["g"], float(params.get("p", 2.0)), float(params.get("gamma", 0.785398))
            )
            report["diagnostic"] = rep.to_dict()
        elif name == "trace-convergence":
            data = _load_inputs(cfg, ["w"], io_mod)
            rep = diagnostics.trace_convergence(data["w"], float(params.get("p", 2.0)))
            report["diagnostic"] = rep.to_dict()
        elif name == "boundary-sobolev":
            data = _load_inputs(cfg, ["g"], io_mod)
            report["diagnostic"] = {
                "name": "boundary_sobolev_seminorm",
                "value": diagnostics.boundary_sobolev_seminorm(data["g"]),
            }
        else:
            raise ConfigError(f"unknown diagnostic {name!r}")

    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown command {command!r}")

    written = {}
    for name, obj in fields.items():
        written[name] = _emit(outdir, name, obj, cfg, io_mod)
    slices = _emit_slices(outdir, cfg, fields, io_mod)
    report["outputs"] = written
    if slices:
        report["slices"] = slices
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
        from .solvers import SolverDivergence

        if isinstance(exc, SolverDivergence):
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
