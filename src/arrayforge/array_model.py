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

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "ArrayGeometry",
    "Direction",
    "make_suca",
    "steering",
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
    """Element positions of an N-element array, in wavelength units."""

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

    @property
    def element_count(self) -> int:
        return self.positions.shape[0]

    def __repr__(self) -> str:
        return f"ArrayGeometry(N={self.element_count})"

    def to_dict(self) -> dict:
        return {"positions": self.positions.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "ArrayGeometry":
        if not isinstance(data, dict) or "positions" not in data:
            raise ValueError('geometry document must contain a "positions" key')
        return cls(data["positions"])


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
    """Unit propagation vector(s) for matching-shape angle arrays, as (3, ...)."""
    sin_el = np.sin(elevation)
    return np.stack(
        [np.cos(azimuth) * sin_el, np.sin(azimuth) * sin_el, np.cos(elevation)]
    )


def steering_angles(geometry: ArrayGeometry, azimuth, elevation) -> np.ndarray:
    """N x L complex matrix of steering vectors for L (azimuth, elevation) pairs.

    ``azimuth`` and ``elevation`` are equal-length 1-D arrays of radians.
    """
    azimuth = np.asarray(azimuth, dtype=float)
    elevation = np.asarray(elevation, dtype=float)
    if azimuth.ndim != 1 or azimuth.shape != elevation.shape or azimuth.size < 1:
        raise ValueError("need equal-length, nonempty 1-D azimuth and elevation arrays")
    phase = _TWO_PI * (geometry.positions @ _propagation(azimuth, elevation))
    return np.exp(1j * phase)


def steering_batch(geometry: ArrayGeometry, directions: Sequence[Direction]) -> np.ndarray:
    """N x L complex matrix whose columns are steering vectors for ``directions``."""
    return steering_angles(
        geometry, [d.azimuth for d in directions], [d.elevation for d in directions]
    )


def steering(geometry: ArrayGeometry, direction: Direction) -> np.ndarray:
    """Complex response of all elements to a unit plane wave from ``direction``."""
    return steering_angles(geometry, [direction.azimuth], [direction.elevation])[:, 0]


def steering_derivative_angles(geometry: ArrayGeometry, azimuth, elevation):
    """``steering_angles`` A and its (d A / d azimuth, d A / d elevation), each N x L.

    A is evaluated once; each derivative scales it by its phase derivative.
    """
    az, el = np.asarray(azimuth, dtype=float), np.asarray(elevation, dtype=float)
    a = steering_angles(geometry, az, el)
    du_daz = np.stack([-np.sin(az) * np.sin(el), np.cos(az) * np.sin(el), np.zeros_like(az)])
    du_del = np.stack([np.cos(az) * np.cos(el), np.sin(az) * np.cos(el), -np.sin(el)])
    factor = 1j * _TWO_PI
    return a, factor * (geometry.positions @ du_daz) * a, factor * (geometry.positions @ du_del) * a


def steering_derivative(geometry: ArrayGeometry, direction: Direction):
    """Analytic (d a / d azimuth, d a / d elevation) at ``direction``."""
    _, d_az, d_el = steering_derivative_angles(geometry, [direction.azimuth], [direction.elevation])
    return d_az[:, 0], d_el[:, 0]


def load_geometry(path) -> ArrayGeometry:
    """Read an ArrayGeometry from a JSON document {"positions": [[x,y,z], ...]}."""
    with open(path, "r", encoding="utf-8") as handle:
        return ArrayGeometry.from_dict(json.load(handle))


def save_geometry(geometry: ArrayGeometry, path) -> None:
    Path(path).write_text(
        json.dumps(geometry.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
