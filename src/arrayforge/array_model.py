"""Array geometries, steering vectors, and their angular derivatives.

Angle convention used throughout the package: a direction is an
(azimuth, elevation) pair in radians, where elevation is the polar angle
measured from the array's stack axis (the z axis), so the horizontal
plane sits at elevation pi/2.  Element positions are expressed in units
of the carrier wavelength, which makes steering vectors frequency free.

Phase convention: element n responds with exp(+j * 2*pi * <u, p_n>) to a
unit plane wave with propagation direction u.  A global sign flip would
leave every objective in this package unchanged; the + sign is fixed
here once and for all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fileio import _json_numbers, _require_keys, atomic_write_json, load_json

__all__ = [
    "ArrayGeometry",
    "Direction",
    "make_suca",
    "steering_angles",
    "steering_batch",
    "steering_derivative",
    "steering_derivative_angles",
    "load_geometry",
    "save_geometry",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Direction:
    """Where a plane wave comes from: azimuth and polar elevation, radians."""

    azimuth: float
    elevation: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.azimuth) and math.isfinite(self.elevation)):
            raise ValueError("direction angles must be finite")


class ArrayGeometry:
    """Element positions of an N-element array, in wavelength units.

    The elements are grouped once, here, by their distinct horizontal
    positions (x, y) and their distinct heights z.  When there are fewer
    groups than elements, as on a stacked array whose rings share their
    horizontal positions, ``steering_angles`` evaluates one phasor per
    group and multiplies them per element; otherwise each element keeps
    its own phasor.
    """

    def __init__(self, positions) -> None:
        pos = np.array(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an N x 3 array of coordinates")
        if pos.shape[0] < 1:
            raise ValueError("an array needs at least one element")
        if not np.all(np.isfinite(pos)):
            raise ValueError("element positions must be finite")
        pos.setflags(write=False)
        self.positions = pos
        horizontal, horizontal_index = np.unique(pos[:, :2], axis=0, return_inverse=True)
        heights, height_index = np.unique(pos[:, 2], return_inverse=True)
        self._stack = None
        if len(horizontal) + len(heights) < len(pos):
            # Rows (x, y, 0) of the U_h horizontal groups, then (0, 0, z) of the U_z
            # heights, and the rows of each element's two factors.
            groups = np.zeros((len(horizontal) + len(heights), 3))
            groups[: len(horizontal), :2] = horizontal
            groups[len(horizontal) :, 2] = heights
            self._stack = (groups, horizontal_index.ravel(), len(horizontal) + height_index.ravel())

    @property
    def element_count(self) -> int:
        return self.positions.shape[0]

    def __repr__(self) -> str:
        return f"ArrayGeometry(N={self.element_count})"

    def to_dict(self) -> dict:
        return {"positions": self.positions.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "ArrayGeometry":
        _require_keys(data, ("positions",), "geometry")
        return cls(_json_numbers(data["positions"], "positions"))


def make_suca(stacks: int, per_stack: int, spacing: float, radius: float) -> ArrayGeometry:
    """Build a stacked uniform circular array.

    ``stacks`` rings of ``per_stack`` elements each, ring radius ``radius``
    and vertical ring separation ``spacing``, both in wavelengths.  Elements
    are ordered stack-major: element (sigma, n) has index sigma*per_stack+n
    and sits at (radius*cos(2*pi*n/per_stack), radius*sin(2*pi*n/per_stack),
    sigma*spacing).  A zero radius collapses each ring onto the axis.
    """
    if stacks < 1 or per_stack < 1:
        raise ValueError("stacks and per_stack must be at least 1")
    if not spacing > 0.0:
        raise ValueError("stack spacing must be positive")
    if radius < 0.0:
        raise ValueError("stack radius must not be negative")
    angles = _TWO_PI * np.arange(per_stack) / per_stack
    ring = np.column_stack(
        [radius * np.cos(angles), radius * np.sin(angles), np.zeros(per_stack)]
    )
    layers = [ring + np.array([0.0, 0.0, sigma * spacing]) for sigma in range(stacks)]
    return ArrayGeometry(np.vstack(layers))


def _propagation(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """Unit propagation vectors for matching-shape (..., L) angle arrays, as (..., 3, L)."""
    sin_el = np.sin(elevation)
    return np.stack(
        [np.cos(azimuth) * sin_el, np.sin(azimuth) * sin_el, np.cos(elevation)], axis=-2
    )


def _row_phasors(geometry: ArrayGeometry, azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """exp(j * 2*pi * <p, u>) for the geometry's rows p and (..., L) angle arrays, as (..., R, L).

    The rows are the element groups on a grouped geometry, else the
    elements.  Each 3 x L block of propagation vectors gets its own phase
    product, so block k equals the phasors of angle row k alone bit for bit.
    """
    rows = geometry.positions if geometry._stack is None else geometry._stack[0]
    return np.exp(1j * (_TWO_PI * (rows @ _propagation(azimuth, elevation))))


def _element_steering(geometry: ArrayGeometry, phasors: np.ndarray) -> np.ndarray:
    """The N x L steering matrix from one R x L block of ``_row_phasors``."""
    if geometry._stack is None:
        return phasors
    _, horizontal_row, height_row = geometry._stack
    return phasors[horizontal_row] * phasors[height_row]


def _steering_rows(geometry: ArrayGeometry, azimuth: np.ndarray, elevation: np.ndarray):
    """Yield the N x L steering matrix of each row of (n, L) angle arrays.

    The phasors of all rows come from one exponential call; each row's
    element products are formed when it is reached, so no n x N x L stack
    is held.  Each matrix equals ``steering_angles`` of its row bit for bit.
    """
    for phasors in _row_phasors(geometry, azimuth, elevation):
        yield _element_steering(geometry, phasors)


def steering_angles(geometry: ArrayGeometry, azimuth, elevation) -> np.ndarray:
    """N x L complex matrix of steering vectors for L (azimuth, elevation) pairs.

    ``azimuth`` and ``elevation`` are equal-length 1-D arrays of radians.
    On a grouped geometry each entry is the product of its horizontal and
    its height phasor, so U_h + U_z exponentials are taken per direction
    instead of N.
    """
    azimuth = np.asarray(azimuth, dtype=float)
    elevation = np.asarray(elevation, dtype=float)
    if azimuth.ndim != 1 or azimuth.shape != elevation.shape or azimuth.size < 1:
        raise ValueError("need equal-length, nonempty 1-D azimuth and elevation arrays")
    return _element_steering(geometry, _row_phasors(geometry, azimuth, elevation))


def steering_batch(geometry: ArrayGeometry, directions: Sequence[Direction]) -> np.ndarray:
    """N x L complex matrix whose columns are steering vectors for ``directions``."""
    return steering_angles(
        geometry, [d.azimuth for d in directions], [d.elevation for d in directions]
    )


def _steering_columns(geometry: ArrayGeometry, azimuth, elevation) -> np.ndarray:
    """N x 3 x L complex [A; dA/daz / j; dA/del / j] at L (azimuth, elevation) pairs.

    d A / d angle is j times the real phase derivative 2 pi <p, du/d angle>
    times A, so A is evaluated once and each derivative row scales it.
    """
    az, el = np.asarray(azimuth, dtype=float), np.asarray(elevation, dtype=float)
    a = steering_angles(geometry, az, el)
    du_daz = np.stack([-np.sin(az) * np.sin(el), np.cos(az) * np.sin(el), np.zeros_like(az)])
    du_del = np.stack([np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), -np.sin(el)])
    phase_az, phase_el = (_TWO_PI * (geometry.positions @ du) for du in (du_daz, du_del))
    return np.stack([a, phase_az * a, phase_el * a], axis=1)


def steering_derivative_angles(geometry: ArrayGeometry, azimuth, elevation):
    """``steering_angles`` A and its (d A / d azimuth, d A / d elevation), each N x L.

    All three are rows of one ``_steering_columns`` evaluation.
    """
    columns = _steering_columns(geometry, azimuth, elevation)
    return columns[:, 0], 1j * columns[:, 1], 1j * columns[:, 2]


def steering_derivative(geometry: ArrayGeometry, direction: Direction):
    """Analytic (d a / d azimuth, d a / d elevation) at ``direction``."""
    _, d_az, d_el = steering_derivative_angles(geometry, [direction.azimuth], [direction.elevation])
    return d_az[:, 0], d_el[:, 0]


def load_geometry(path) -> ArrayGeometry:
    """Read an ArrayGeometry from a JSON document {"positions": [[x,y,z], ...]}."""
    return ArrayGeometry.from_dict(load_json(path))


def save_geometry(geometry: ArrayGeometry, path) -> None:
    atomic_write_json(path, geometry.to_dict())
