"""Similarity factorization w = e^s F for solutions of dbar w = alpha conj(w).

Two boundary normalizations are supported:

    real_on_T       s = C(beta) - R(beta):  s real on T, int_T Re s = 0,
    imaginary_on_T  s = C(beta) + R(beta):  s imaginary on T, int_T Im s = 0,

with beta = alpha conj(w)/w and the convention conj(w)/w = 0 wherever
|w| falls below the zero threshold.  The holomorphic factor is
F = e^{-s} w; for the imaginary normalization |F| = |w| on T pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, MaskedValueError, _join, lp_norm_disk, wirtinger_derivatives
from .transforms import cauchy_reflect

__all__ = [
    "Factorization",
    "beltrami_ratio",
    "factorize",
    "reconstruct",
    "residual_beltrami",
    "alpha_from_pair",
]

REAL_ON_T = "real_on_T"
IMAGINARY_ON_T = "imaginary_on_T"


@dataclass(frozen=True)
class Factorization:
    s: GridFunction
    F: GridFunction
    normalization: str
    residual_holo: float
    residual_beltrami: float

    def to_dict(self) -> dict:
        return {
            "normalization": self.normalization,
            "residual_holo": self.residual_holo,
            "residual_beltrami": self.residual_beltrami,
        }


def _threshold(scale: float, zero_threshold: float | None) -> float:
    # relative by default so the convention is scale-free
    return 1e-12 * scale if zero_threshold is None else float(zero_threshold)


def beltrami_ratio(
    w: GridFunction, alpha: GridFunction, zero_threshold: float | None = None
) -> GridFunction:
    """beta = alpha conj(w)/w, set to zero below the modulus threshold."""
    wv = w.require_unmasked("Beltrami ratio")
    av = alpha.require_unmasked("Beltrami ratio")
    return w.with_values(beltrami_values(wv, av, zero_threshold))


def beltrami_values(
    wv: np.ndarray, av: np.ndarray, zero_threshold: float | None = None, out=None
) -> np.ndarray:
    """Values of `beltrami_ratio`, in `out` (a C-ordered complex array) when given.

    Formed in one pass as alpha (conj(w)/|w|)^2 with the threshold applied
    to |w|, so nodes at or below it are exactly 0.  |w| is taken as
    hypot, which does not underflow and overflows only past the largest
    float, and the phase is a real division, so the result does not
    depend on the scale of w.  A non-finite |w| (an overflowed or masked
    node) raises MaskedValueError.
    """
    mod = np.abs(wv)
    scale = float(np.max(mod))
    if not math.isfinite(scale):
        raise MaskedValueError("Beltrami ratio over non-finite nodes is not defined")
    small = mod <= _threshold(scale, zero_threshold)
    if out is None:
        out = np.empty(wv.shape, dtype=complex)
    np.conjugate(wv, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):  # w = 0: 0/0
        re_im = out.view(float).reshape(*out.shape, 2)  # a view of the C-ordered out
        re_im /= mod[..., None]
    np.square(out, out=out)
    out *= av
    out[small] = 0.0
    return out


def residual_beltrami(w: GridFunction, alpha: GridFunction) -> float:
    """||dbar w - alpha conj(w)||_{L^2(D_0.9)}; rim stencils excluded."""
    _, dbar = wirtinger_derivatives(w)
    defect = dbar.values - alpha.values * np.conj(w.values)
    return lp_norm_disk(w.with_values(defect), 2.0, r_max=0.9)


def reconstruct(s: GridFunction, F: GridFunction) -> GridFunction:
    """Pointwise e^s F; overflow at singular nodes propagates as a mask."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        vals = np.exp(s.values) * F.values
    return GridFunction(s.grid, vals, _join(s, F))


def factorize(
    w: GridFunction,
    alpha: GridFunction,
    normalization: str = REAL_ON_T,
    zero_threshold: float | None = None,
) -> Factorization:
    """Factor w = e^s F with the requested boundary normalization.

    The input is not required to solve the Beltrami equation exactly; the
    returned residuals say how far the reconstruction is from doing so,
    which lets iterative callers use this on near-solutions.
    """
    if normalization not in (REAL_ON_T, IMAGINARY_ON_T):
        raise ValueError(f"unknown normalization {normalization!r}")
    wv = w.require_unmasked("factorization")
    if float(np.max(np.abs(wv))) == 0.0:
        # degenerate case: F = 0, s undefined (fully masked)
        s = GridFunction(w.grid, np.zeros_like(wv), np.ones(wv.shape, bool))
        return Factorization(s, GridFunction.zeros(w.grid), normalization, 0.0, 0.0)
    beta = beltrami_ratio(w, alpha, zero_threshold)
    s = cauchy_reflect(beta, -1.0 if normalization == REAL_ON_T else 1.0)
    with np.errstate(over="ignore", under="ignore"):
        F = w.with_values(np.exp(-s.values) * wv)
    _, dbar_F = wirtinger_derivatives(F)
    res_holo = lp_norm_disk(dbar_F, 2.0, r_max=0.9)
    res_beltrami = residual_beltrami(reconstruct(s, F), alpha)
    return Factorization(s, F, normalization, res_holo, res_beltrami)


def alpha_from_pair(
    s: GridFunction, F: GridFunction, zero_threshold: float | None = None
) -> GridFunction:
    """Coefficient alpha = dbar s e^{s} F / (e^{conj s} conj F) of w = e^s F.

    Manufactured-solution generator: by the weak converse of the
    factorization, w = e^s F solves dbar w = alpha conj(w) for this alpha.
    """
    Fv = F.require_unmasked("alpha_from_pair")
    scale = float(np.max(np.abs(Fv)))
    if scale == 0.0:
        raise ValueError("F must not be identically zero")
    thr = _threshold(scale, zero_threshold)
    _, dbar_s = wirtinger_derivatives(s)
    with np.errstate(invalid="ignore", divide="ignore", under="ignore"):
        quotient = np.where(
            np.abs(Fv) <= thr, 0.0, Fv / np.where(Fv == 0, 1.0, np.conj(Fv))
        )
        vals = dbar_s.values * np.exp(2j * s.values.imag) * quotient
    return s.with_values(vals)
