"""Spatial-correlation-function objectives for combining-matrix design.

Everything here depends on the combining matrix only through its Gramian,
so left-multiplying the matrix by any unitary leaves all costs unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .array_model import ArrayGeometry, Direction, steering, steering_angles

__all__ = [
    "AngleBatch",
    "CombiningMatrix",
    "ScfGrid",
    "scf",
    "effective_scf",
    "error_e",
    "error_matrix",
    "batch_cost",
    "grid_scf_error",
]


def _json_int(value, key: str) -> int:
    """``value``, read from document key ``key``, if it is a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f'"{key}" must be an integer, got {value!r}')
    return value


class CombiningMatrix:
    """M x N complex analog combining weights (M channels, N elements)."""

    def __init__(self, entries) -> None:
        mat = np.array(entries, dtype=complex)
        if mat.ndim != 2:
            raise ValueError("combining matrix must be two-dimensional")
        m, n = mat.shape
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= channels <= elements, got shape {m} x {n}")
        if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
            raise ValueError("combining weights must be finite")
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

    def column_norms(self) -> np.ndarray:
        return np.linalg.norm(self.entries, axis=0)

    def is_column_normalized(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.column_norms() - 1.0)) <= tol)

    def normalize(self) -> "CombiningMatrix":
        """Return a copy whose columns have unit Euclidean norm."""
        norms = self.column_norms()
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize a matrix with a zero column")
        return CombiningMatrix(self.entries / norms)

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CombiningMatrix":
        for key in ("rows", "cols", "re", "im"):
            if key not in data:
                raise ValueError(f'combining matrix document is missing "{key}"')
        re = np.array(data["re"], dtype=float)
        im = np.array(data["im"], dtype=float)
        shape = (_json_int(data["rows"], "rows"), _json_int(data["cols"], "cols"))
        if re.shape != shape or im.shape != shape:
            raise ValueError("re/im blocks do not match the declared rows x cols")
        return cls(re + 1j * im)

    @classmethod
    def load(cls, path) -> "CombiningMatrix":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass(frozen=True, eq=False)
class AngleBatch:
    """One batch of L directions driving the stochastic objective.

    ``azimuth`` and ``elevation`` are read-only float arrays of equal
    length L >= 1, in radians.
    """

    azimuth: np.ndarray
    elevation: np.ndarray

    def __post_init__(self) -> None:
        azimuth = np.array(self.azimuth, dtype=float)
        elevation = np.array(self.elevation, dtype=float)
        if azimuth.ndim != 1 or azimuth.shape != elevation.shape:
            raise ValueError("azimuth and elevation must be 1-D arrays of equal length")
        if azimuth.size < 1:
            raise ValueError("an angle batch needs at least one direction")
        if not (np.all(np.isfinite(azimuth)) and np.all(np.isfinite(elevation))):
            raise ValueError("direction angles must be finite")
        for name, angles in (("azimuth", azimuth), ("elevation", elevation)):
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
        return {
            "azimuth_count": self.azimuth_count,
            "elevation_count": self.elevation_count,
            "azimuth_range": list(self.azimuth_range),
            "elevation_range": list(self.elevation_range),
        }


def _require_compatible(geometry: ArrayGeometry, phi: CombiningMatrix) -> None:
    if phi.cols != geometry.element_count:
        raise ValueError(
            f"combining matrix has {phi.cols} columns but the array has "
            f"{geometry.element_count} elements"
        )


def _gram_terms(geometry: ArrayGeometry, phi: CombiningMatrix, azimuth, elevation):
    """P, P (G - I) and tr(P (G - I) P (G - I)) over the given angles.

    P = A A^H is the N x N Gram matrix of the steering vectors A of the
    angle pairs and G the Gramian of ``phi``.  The trace equals
    ||A^H (G - I) A||_F^2, the summed squared discrepancy over all ordered
    pairs of the angles, without forming that L x L matrix.  Steering is
    evaluated once.
    """
    _require_compatible(geometry, phi)
    a = steering_angles(geometry, azimuth, elevation)
    p = a @ a.conj().T
    p_gap = p @ (phi.gramian() - np.eye(geometry.element_count))
    return p, p_gap, float(np.vdot(p_gap.conj().T, p_gap).real)


def scf(geometry: ArrayGeometry, dir1: Direction, dir2: Direction) -> complex:
    """Spatial correlation a(dir1)^H a(dir2) of the uncompressed array."""
    return complex(np.vdot(steering(geometry, dir1), steering(geometry, dir2)))


def effective_scf(
    geometry: ArrayGeometry, phi: CombiningMatrix, dir1: Direction, dir2: Direction
) -> complex:
    """Spatial correlation a(dir1)^H Phi^H Phi a(dir2) of the compressed array."""
    _require_compatible(geometry, phi)
    a1 = steering(geometry, dir1)
    a2 = steering(geometry, dir2)
    return complex(a1.conj() @ phi.gramian() @ a2)


def error_e(
    geometry: ArrayGeometry, phi: CombiningMatrix, dir1: Direction, dir2: Direction
) -> complex:
    """Pointwise discrepancy between compressed and uncompressed correlation."""
    return effective_scf(geometry, phi, dir1, dir2) - scf(geometry, dir1, dir2)


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
        total += _gram_terms(geometry, phi, batch.azimuth, batch.elevation)[2] / batch.size**2
    return total / len(batches)


def grid_scf_error(geometry: ArrayGeometry, phi: CombiningMatrix, grid: ScfGrid) -> float:
    """Sum of squared discrepancies over all ordered pairs of grid points.

    Computed as tr(Q (G - I) Q (G - I)) with Q the N x N Gram matrix of the
    grid's steering vectors, so the pair matrix is never formed.
    """
    return _gram_terms(geometry, phi, *grid.angles())[2]
