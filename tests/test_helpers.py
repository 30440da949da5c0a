"""The tests' numpy closed-form constants against scipy.

The Green potential's order gate and acceptance criterion 08b take Ei,
K and the log log mean from `helpers`, so that they also run where only
numpy is installed; this test checks those constants against scipy's.
"""

import numpy as np
import pytest
from helpers import ellipk, expi_neg, loglog_mean


def test_numpy_constants_match_scipy():
    special = pytest.importorskip("scipy.special")
    quad = pytest.importorskip("scipy.integrate").quad

    x = np.linspace(1e-6, 1.0, 2001)
    ref = special.expi(-x)
    assert np.max(np.abs(expi_neg(x) - ref) / np.abs(ref)) < 1e-11
    for rho in (0.5, 1.0 - 1.0 / 256, 1.0 - 1.0 / 512):
        m = 4.0 * rho / (1.0 + rho) ** 2
        assert abs(ellipk(m) - special.ellipk(m)) < 1e-11 * special.ellipk(m)
    ref = quad(
        lambda th: np.log(np.log(3.0 / np.abs(np.exp(1j * th) - 1.0))),
        0,
        2 * np.pi,
        points=[0.0],
        limit=400,
    )[0] / (2 * np.pi)
    # absolute: quad's own error is about 2e-12 here (Gauss-Legendre with
    # 64 to 256 nodes agrees to 3e-15 and differs from quad by 1.9e-12)
    assert abs(loglog_mean() - ref) < 1e-11
