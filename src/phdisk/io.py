"""Grid file formats.

PHD1 binary: magic "PHD1", little-endian u32 n_r, u32 n_theta, then
n_r * n_theta complex values as little-endian complex128 (float64 re,
then im), row-major by radius; the values round-trip bit for bit,
signed zeros included.  Boundary functions use n_r = 1.  Masked nodes
round-trip as NaN pairs.

PHD1 has no field for the outer radius, so it holds unit-disk grids
only; grids on D_R (R > 1) are saved as CSV.

CSV alternative: header "r,theta,re,im", one row per node in the same
order; masked nodes carry nan fields.  The r column holds the true radii
R j/n_r, so the loader recovers R from the largest one; boundary
functions are written at r = 1.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .grid import BoundaryFunction, GridFunction, make_grid

__all__ = ["save_phd1", "load_phd1", "save_csv", "load_csv", "save", "load", "emit_slice"]

MAGIC = b"PHD1"


def _payload(f) -> tuple[int, int, np.ndarray]:
    if isinstance(f, GridFunction):
        n_r, n_theta = f.grid.n_r, f.grid.n_theta
    elif isinstance(f, BoundaryFunction):
        n_r, n_theta = 1, f.n_theta
    else:
        raise TypeError(f"cannot serialize {type(f).__name__}")
    vals = f.values if f.mask is None else np.where(f.mask, complex(np.nan, np.nan), f.values)
    return n_r, n_theta, vals.reshape(n_r, n_theta)


def save_phd1(path, f) -> None:
    if isinstance(f, GridFunction) and f.grid.outer_radius != 1.0:
        raise ValueError(
            f"PHD1 holds unit-disk grids only (outer radius {f.grid.outer_radius}); "
            "save as CSV to keep the radius"
        )
    n_r, n_theta, vals = _payload(f)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([n_r, n_theta], dtype="<u4").tobytes())
        fh.write(vals.astype("<c16").tobytes())


def load_phd1(path):
    """Load a PHD1 file; n_r = 1 payloads come back as BoundaryFunction."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a PHD1 file")
    if len(raw) < 12:
        raise ValueError(f"{path}: truncated header ({len(raw)} of 12 bytes)")
    n_r, n_theta = np.frombuffer(raw[4:12], dtype="<u4")
    n_r, n_theta = int(n_r), int(n_theta)
    if len(raw) - 12 != 16 * n_r * n_theta:
        raise ValueError(f"{path}: truncated payload")
    vals = np.frombuffer(raw, dtype="<c16", offset=12).reshape(n_r, n_theta).astype(complex)
    if n_r == 1:
        return BoundaryFunction(vals[0])
    return GridFunction(make_grid(n_theta, n_r), vals)


def save_csv(path, f) -> None:
    """Write the CSV format; the bytes are those of csv.writer rows of repr floats.

    One radius at a time: each radius and each angle is formatted once,
    and per node only the two value fields.
    """
    n_r, n_theta, vals = _payload(f)
    radii = [1.0] if n_r == 1 else f.grid.radii.tolist()
    thetas = [f"{t!r}," for t in (2.0 * np.pi * np.arange(n_theta) / n_theta).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("r,theta,re,im\r\n")
        for r, row in zip(radii, vals):
            head = f"{r!r},"
            fh.write("".join([
                f"{head}{t}{a!r},{b!r}\r\n"
                for t, a, b in zip(thetas, row.real.tolist(), row.imag.tolist())
            ]))


def load_csv(path):
    with open(path) as fh:
        if [c.strip() for c in fh.readline().split(",")] != ["r", "theta", "re", "im"]:
            raise ValueError(f"{path}: expected header r,theta,re,im")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # header only: "input contained no data"
            try:
                arr = np.loadtxt(fh, delimiter=",", ndmin=2)
                if arr.shape[1] != 4:
                    raise ValueError
            except (ValueError, UserWarning) as exc:  # ragged, unparsable, no rows
                raise ValueError(f"{path}: expected one or more rows of 4 fields r,theta,re,im") from exc
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    n_theta = int(np.count_nonzero(arr[:, 0] == arr[0, 0]))
    n_r = len(arr) // n_theta
    if n_r * n_theta != len(arr):
        raise ValueError(f"{path}: nodes do not form a tensor grid")
    nodes = arr.reshape(n_r, n_theta, 4)
    R = max(float(nodes[-1, 0, 0]), 1.0)
    for name, got, want in (
        ("radii", nodes[:, :, 0], R * np.arange(1, n_r + 1)[:, None] / n_r),
        ("angles", nodes[:, :, 1], 2.0 * np.pi * np.arange(n_theta) / n_theta),
    ):
        if not np.all(np.abs(got - want) <= 1e-12 * np.abs(want)):
            raise ValueError(f"{path}: {name} do not lie on a polar grid")
    vals = nodes[:, :, 2] + 1j * nodes[:, :, 3]
    if n_r == 1:
        return BoundaryFunction(vals[0])
    return GridFunction(make_grid(n_theta, n_r, outer_radius=R), vals)


def save(path, f) -> None:
    if str(path).endswith(".csv"):
        save_csv(path, f)
    else:
        save_phd1(path, f)


def load(path):
    if str(path).endswith(".csv"):
        return load_csv(path)
    return load_phd1(path)


def _slice(f: GridFunction, along: str, value: float):
    """Coordinates, values and mask flags of f along a grid radius or a
    grid angle; a ValueError when the slice is not on f's grid."""
    if not isinstance(f, GridFunction):
        raise ValueError(f"slices are taken of grid functions; got {type(f).__name__}")
    g = f.grid
    if along == "radius":
        j = g.radius_index(value)
        coords = g.thetas
        vals = f.values[j]
        masks = f.mask[j] if f.mask is not None else np.zeros(g.n_theta, bool)
    elif along == "angle":
        k = g.angle_index(value)
        coords = g.radii
        vals = f.values[:, k]
        masks = f.mask[:, k] if f.mask is not None else np.zeros(g.n_r, bool)
    else:
        raise ValueError("along must be 'radius' or 'angle'")
    return coords, vals, masks


def emit_slice(f: GridFunction, along: str, value: float, path) -> None:
    """1-D CSV slice along a grid radius or a grid angle.

    Columns: coordinate, re, im, abs, flag ("masked" at masked nodes).
    """
    coords, vals, masks = _slice(f, along, value)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["coordinate", "re", "im", "abs", "flag"])
        for c, v, m in zip(coords, vals, masks):
            wr.writerow(
                [repr(float(c)), repr(float(v.real)), repr(float(v.imag)),
                 repr(float(abs(v))), "masked" if m else ""]
            )
