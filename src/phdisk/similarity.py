"""Similarity factorization w = e^s F for solutions of dbar w = alpha conj(w).

Two boundary normalizations are supported:

    real_on_T       s = C(beta) - R(beta):  s real on T, int_T Re s = 0,
    imaginary_on_T  s = C(beta) + R(beta):  s imaginary on T, int_T Im s = 0,

with beta = alpha conj(w)/w and the convention conj(w)/w = 0 where w = 0,
read as |w| <= 1e-12 max|w|: the threshold scales with w, so beta does
not depend on the scale of w.  The holomorphic factor is F = e^{-s} w;
for the imaginary normalization |F| = |w| on T pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridFunction,
    MaskedValueError,
    _defect_norm,
    _join,
    _wirtinger_rows,
    lp_norm_disk,
    wirtinger_derivatives,
)
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


def beltrami_ratio(w: GridFunction, alpha: GridFunction) -> GridFunction:
    """beta = alpha conj(w)/w, zero where w = 0 (the module's convention)."""
    wv = w.require_unmasked("Beltrami ratio")
    av = alpha.require_unmasked("Beltrami ratio")
    return w.with_values(beltrami_values(wv, av))


def beltrami_values(wv: np.ndarray, av: np.ndarray) -> np.ndarray:
    """Values of `beltrami_ratio`.

    Formed in one pass as alpha (conj(w)/|w|)^2 with the module's threshold
    applied to |w|, so nodes at or below it are exactly 0.  |w| is taken as
    hypot, which does not underflow and overflows only past the largest
    float, and the phase is a real division, so the result does not
    depend on the scale of w.  A non-finite |w| (an overflowed or masked
    node) raises MaskedValueError.
    """
    mod = np.abs(wv)
    scale = float(np.max(mod))
    if not math.isfinite(scale):
        raise MaskedValueError("Beltrami ratio over non-finite nodes is not defined")
    small = mod <= 1e-12 * scale
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
    """||dbar w - alpha conj(w)||_{L^2(D_0.9)}; rim stencils excluded.

    Only the rows of D_0.9 are formed: dbar w in one buffer of
    `_wirtinger_rows`, alpha conj(w) in its other, the defect over dbar w.
    A non-finite defect there raises MaskedValueError.
    """
    w._check_match(alpha)
    wv = w.require_unmasked("differentiation")
    g = w.grid
    weights, K = g.interior_weights_upto(0.9)
    prod, defect = _wirtinger_rows(wv, g, K, False, True)
    np.conjugate(wv[:K], out=prod)
    np.multiply(alpha.values[:K], prod, out=prod)
    defect -= prod
    return _defect_norm(defect, weights, g.n_theta)


def reconstruct(s: GridFunction, F: GridFunction) -> GridFunction:
    """Pointwise e^s F; overflow at singular nodes propagates as a mask."""
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        vals = np.exp(s.values) * F.values
    return GridFunction(s.grid, vals, _join(s, F))


def factorize(
    w: GridFunction,
    alpha: GridFunction,
    normalization: str = REAL_ON_T,
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
    beta = beltrami_ratio(w, alpha)
    s = cauchy_reflect(beta, -1.0 if normalization == REAL_ON_T else 1.0)
    with np.errstate(over="ignore", under="ignore"):
        F = w.with_values(np.exp(-s.values) * wv)
    _, dbar_F = wirtinger_derivatives(F)
    res_holo = lp_norm_disk(dbar_F, 2.0, r_max=0.9)
    res_beltrami = residual_beltrami(reconstruct(s, F), alpha)
    return Factorization(s, F, normalization, res_holo, res_beltrami)


def alpha_from_pair(s: GridFunction, F: GridFunction) -> GridFunction:
    """Coefficient alpha = dbar s e^{s} F / (e^{conj s} conj F) of w = e^s F.

    Manufactured-solution generator: by the weak converse of the
    factorization, w = e^s F solves dbar w = alpha conj(w) for this alpha.
    """
    Fv = F.require_unmasked("alpha_from_pair")
    if not np.any(Fv):
        raise ValueError("F must not be identically zero")
    _, dbar_s = wirtinger_derivatives(s)
    # F/conj(F) is the Beltrami phase of conj(F), zero where F = 0
    av = dbar_s.values * np.exp(2j * s.values.imag)
    return s.with_values(beltrami_values(np.conj(Fv), av))
