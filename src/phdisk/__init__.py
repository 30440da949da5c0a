"""Pseudo-holomorphic function machinery on the unit disk.

Polar spectral grids, the singular integral transforms of the theory
(Cauchy, Beurling, reflection, Green potential), the similarity
factorization w = e^s F, fixed-point solvers for the holomorphic
parametrization / generalized M. Riesz / degenerate conductivity
Dirichlet problems, and a diagnostics suite for the weight-theory
inequalities.

Submodules load on first use: `import phdisk` imports none of them, and
the first access to a public name (`phdisk.cauchy`) or to a submodule
(`phdisk.solvers`) imports the module that defines it (PEP 562).  A
process that only transforms never compiles the solvers or diagnostics.

The environment variable PHDISK_THREADS caps the numeric thread pools
(OMP, OpenBLAS, MKL) unless those are set explicitly; it is applied here,
before any submodule imports numpy.
"""

import importlib
import os


def _apply_thread_cap() -> str | None:
    cap = os.environ.get("PHDISK_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)
    return cap


# before any submodule import: they load numpy, which reads the pool sizes
_apply_thread_cap()

__version__ = "0.1.0"

# each public name with the submodule that defines it
_HOMES = {
    "grid": (
        "BoundaryFunction",
        "Cone",
        "DiskGrid",
        "GridFunction",
        "MaskedValueError",
        "area_integral",
        "boundary_trace",
        "circle_norm",
        "hardy_norm",
        "laplacian",
        "lp_norm_disk",
        "make_grid",
        "nontangential_max",
        "sobolev_norm",
        "w12_norm",
        "wirtinger_derivatives",
    ),
    "transforms": (
        "DbarResiduals",
        "beurling",
        "cauchy",
        "cauchy_renormalized",
        "conjugate_function",
        "green_potential",
        "harmonic_conjugate",
        "harmonicity_defect",
        "poisson_extend",
        "reflect_transform",
        "riesz_extension",
        "solve_dbar",
    ),
    "similarity": (
        "Factorization",
        "alpha_from_pair",
        "beltrami_ratio",
        "factorize",
        "reconstruct",
        "residual_beltrami",
    ),
    "solvers": (
        "SolveReport",
        "SolverConfig",
        "SolverDivergence",
        "conductivity_residual",
        "parametrize_imag",
        "parametrize_real",
        "solve_conductivity",
        "solve_riesz",
    ),
    "diagnostics": (
        "ArcFamily",
        "DiagnosticReport",
        "ap_constant",
        "bmo_oscillation",
        "boundary_sobolev_seminorm",
        "c2_growth_curve",
        "equicontinuity_modulus",
        "exp_integrability_report",
        "jn_exp_check",
        "localized_oscillation_sup",
        "multiplier_ratio",
        "trace_convergence",
    ),
    "io": ("emit_slice", "load", "load_csv", "load_phd1", "save", "save_csv", "save_phd1"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "radial", "cli")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
