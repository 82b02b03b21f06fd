"""Spatial-correlation-function objectives for combining-matrix design.

Everything here depends on the combining matrix only through its Gramian,
so left-multiplying the matrix by any unitary leaves all costs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .array_model import ArrayGeometry, Direction, _angle_arrays, steering_angles
from .fileio import _json_numbers, _json_value, _require_keys

__all__ = [
    "AngleBatch",
    "CombiningMatrix",
    "ScfGrid",
    "error_matrix",
    "batch_cost",
    "grid_scf_error",
]


def _require_finite(entries: np.ndarray) -> None:
    if not np.isfinite(entries).all():
        raise ValueError("combining weights must be finite")


def _unit_columns(entries: np.ndarray) -> np.ndarray:
    """``entries`` with every column divided by its Euclidean norm.

    ``ValueError``: ``_require_finite``'s for a non-finite entry, else one for a zero or overflowing column norm.
    """
    # A norm that overflows is the error raised below, not a warning.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(entries, axis=0)
    if not np.all((norms > 0.0) & (norms < np.inf)):
        _require_finite(entries)
        raise ValueError("cannot normalize a matrix with a zero column or a column norm that overflows")
    return entries / norms


class CombiningMatrix:
    """M x N complex analog combining weights (M channels, N elements)."""

    def __init__(self, entries) -> None:
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2:
            raise ValueError("combining matrix must be two-dimensional")
        m, n = mat.shape
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= channels <= elements, got shape {m} x {n}")
        _require_finite(mat)
        mat.setflags(write=False)
        self.entries = mat

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __repr__(self) -> str:
        return f"CombiningMatrix({self.rows}x{self.cols})"

    def gramian(self) -> np.ndarray:
        return self.entries.conj().T @ self.entries

    def is_column_normalized(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(np.linalg.norm(self.entries, axis=0) - 1.0)) <= tol)

    def normalize(self) -> "CombiningMatrix":
        """Return a copy whose columns have unit Euclidean norm."""
        return CombiningMatrix(_unit_columns(self.entries))

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CombiningMatrix":
        _require_keys(data, ("rows", "cols", "re", "im"), "combining matrix")
        re = np.array(_json_numbers(data["re"], "re"), dtype=float)
        im = np.array(_json_numbers(data["im"], "im"), dtype=float)
        shape = (_json_value(data["rows"], "rows", int), _json_value(data["cols"], "cols", int))
        if re.shape != shape or im.shape != shape:
            raise ValueError("re/im blocks do not match the declared rows x cols")
        return cls(re + 1j * im)


@dataclass(frozen=True, eq=False)
class AngleBatch:
    """One batch of L directions driving the stochastic objective.

    ``azimuth`` and ``elevation`` are read-only float copies, in radians, of
    arrays that pass the steering layer's one angle check: equal length
    L >= 1, 1-D and finite, else ``ValueError``.
    """

    azimuth: np.ndarray
    elevation: np.ndarray

    def __post_init__(self) -> None:
        for name, angles in zip(("azimuth", "elevation"), _angle_arrays(self.azimuth, self.elevation)):
            angles = angles.copy()
            angles.setflags(write=False)
            object.__setattr__(self, name, angles)

    @property
    def size(self) -> int:
        return self.azimuth.size

    @cached_property
    def dirs(self) -> tuple:
        """The batch as a tuple of Direction objects, for per-angle callers."""
        return tuple(
            Direction(float(az), float(el)) for az, el in zip(self.azimuth, self.elevation)
        )


@dataclass(frozen=True)
class ScfGrid:
    """Regular evaluation grid in azimuth x polar elevation, endpoints included."""

    azimuth_count: int
    elevation_count: int
    azimuth_range: tuple
    elevation_range: tuple

    def __post_init__(self) -> None:
        if self.azimuth_count < 2 or self.elevation_count < 2:
            raise ValueError("grid needs at least 2 points per axis")
        for lo, hi in (self.azimuth_range, self.elevation_range):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("grid ranges must be finite and nondegenerate")

    @property
    def point_count(self) -> int:
        return self.azimuth_count * self.elevation_count

    def azimuths(self) -> np.ndarray:
        return np.linspace(self.azimuth_range[0], self.azimuth_range[1], self.azimuth_count)

    def elevations(self) -> np.ndarray:
        return np.linspace(
            self.elevation_range[0], self.elevation_range[1], self.elevation_count
        )

    def angles(self) -> tuple:
        """Flat (azimuth, elevation) arrays of all grid points, azimuth-major.

        Point k = i_az * elevation_count + i_el.
        """
        azimuth, elevation = np.meshgrid(self.azimuths(), self.elevations(), indexing="ij")
        return azimuth.ravel(), elevation.ravel()

    def directions(self) -> list:
        """All grid points as Direction objects, in the order of ``angles``."""
        return [Direction(float(az), float(el)) for az, el in zip(*self.angles())]

    def to_dict(self) -> dict:
        return asdict(self)


def _require_compatible(geometry: ArrayGeometry, phi: CombiningMatrix) -> None:
    if phi.cols != geometry.element_count:
        raise ValueError(
            f"combining matrix has {phi.cols} columns but the array has "
            f"{geometry.element_count} elements"
        )


def _steering_gram(geometry: ArrayGeometry, azimuth, elevation) -> np.ndarray:
    """P = A A^H, the N x N Gram matrix of the steering vectors A of the angle pairs."""
    a = steering_angles(geometry, azimuth, elevation)
    return a @ a.conj().T


def _gap_terms(p: np.ndarray, g: np.ndarray):
    """P (G - I) and tr(P (G - I) P (G - I)) for a steering Gram matrix P and a Gramian G.

    The trace equals ||A^H (G - I) A||_F^2, the summed squared discrepancy
    over all ordered pairs of P's angles, without forming that L x L
    matrix.  Grid error, batch cost, the sweep and the design loop all
    take their cost (and the design loop its gradient) from here.
    """
    p_gap = p @ (g - np.eye(len(g)))
    return p_gap, float(np.vdot(p_gap.conj().T, p_gap).real)


def _scf_trace(geometry: ArrayGeometry, phi: CombiningMatrix, azimuth, elevation) -> float:
    """The trace of ``_gap_terms`` over the given angles, from one steering evaluation."""
    _require_compatible(geometry, phi)
    return _gap_terms(_steering_gram(geometry, azimuth, elevation), phi.gramian())[1]


def error_matrix(geometry: ArrayGeometry, phi: CombiningMatrix, batch: AngleBatch) -> np.ndarray:
    """L x L Hermitian matrix of pairwise correlation discrepancies over a batch."""
    _require_compatible(geometry, phi)
    a = steering_angles(geometry, batch.azimuth, batch.elevation)
    b = phi.entries @ a
    return b.conj().T @ b - a.conj().T @ a


def batch_cost(
    geometry: ArrayGeometry, phi: CombiningMatrix, batches: Sequence[AngleBatch]
) -> float:
    """Mean over batches of the squared Frobenius discrepancy, per angle pair.

    Each batch contributes ||error_matrix||_F^2 / L^2 = tr(P (G - I) P (G - I)) / L^2,
    so that values are comparable across batch sizes.
    """
    if len(batches) < 1:
        raise ValueError("need at least one angle batch")
    total = 0.0
    for batch in batches:
        total += _scf_trace(geometry, phi, batch.azimuth, batch.elevation) / batch.size**2
    return total / len(batches)


def grid_scf_error(geometry: ArrayGeometry, phi: CombiningMatrix, grid: ScfGrid) -> float:
    """Sum of squared discrepancies over all ordered pairs of grid points.

    Computed as tr(Q (G - I) Q (G - I)) with Q the N x N Gram matrix of the
    grid's steering vectors, so the pair matrix is never formed.
    ``run_scf_sweep`` builds Q once and scores every job's matrix with
    ``_gap_terms``.
    """
    return _scf_trace(geometry, phi, *grid.angles())
