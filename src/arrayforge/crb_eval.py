"""Deterministic Cramer-Rao bound for 2D direction estimation under compression.

For S deterministic sources observed in one snapshot through a combining
network, the bound on the summed direction variances is sigma^2 / 2 times
the trace of the inverse concentrated Fisher information (Stoica & Nehorai 1989)

    F = Re( (D^H D - D^H G (G^H G)^{-1} G^H D)  .*  (1_{2x2} kron R)^T )

where G stacks the compressed source steering vectors, D their azimuth and
elevation derivatives (azimuth block first), and R = x x^H is the rank-one
sample covariance of the source amplitudes.  Noise is white with variance
sigma^2 at the compressed outputs.  ``crb`` and ``crb_map`` call one batched routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, steering_derivative_angles
from .fileio import atomic_write_csv, atomic_write_json
from .scf_objective import CombiningMatrix, ScfGrid, _require_compatible

__all__ = [
    "CONDITION_LIMIT",
    "RankDeficientSteeringError",
    "UnidentifiableScenarioError",
    "CrbScenario",
    "CrbResult",
    "CrbMap",
    "orthogonal_complement_projector",
    "crb",
    "crb_map",
    "write_crb_map",
]

CONDITION_LIMIT = 1e12
# F holds round-off only when lambda_max(F) is at most this times its bound ||D||_F^2 ||x||^2.
_INFORMATION_FLOOR = 1e-12

_MAP_KINDS = ("single", "azimuth-pair", "elevation-pair")


class RankDeficientSteeringError(ValueError):
    """The compressed source steering matrix is numerically rank deficient."""


class UnidentifiableScenarioError(ValueError):
    """The Fisher information matrix is singular or hopelessly ill conditioned."""

    def __init__(self, message: str, condition: float) -> None:
        super().__init__(message)
        self.condition = condition


@dataclass
class CrbScenario:
    """Sources, amplitudes, noise level, and the combining matrix under test.

    ``phi=None`` marks the uncompressed array (identity combining).
    """

    sources: tuple
    amplitudes: np.ndarray
    noise_variance: float
    phi: CombiningMatrix | None = None

    def __post_init__(self) -> None:
        self.sources = tuple(self.sources)
        if len(self.sources) < 1:
            raise ValueError("need at least one source")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != len(self.sources):
            raise ValueError("need one amplitude per source")
        if not (np.all(np.isfinite(amps.real)) and np.all(np.isfinite(amps.imag))):
            raise ValueError("amplitudes must be finite")
        if not np.any(amps != 0.0):
            raise ValueError("amplitudes must not all be zero")
        self.amplitudes = amps
        if not (math.isfinite(self.noise_variance) and self.noise_variance > 0.0):
            raise ValueError("noise variance must be positive")


@dataclass(frozen=True)
class CrbResult:
    trace_value: float
    fim_condition: float


def _condition(eig: np.ndarray) -> np.ndarray:
    """Largest over smallest of each row of ascending eigenvalues; inf unless positive."""
    return np.divide(eig[:, -1], eig[:, 0], out=np.full(len(eig), math.inf), where=eig[:, 0] > 0.0)


def orthogonal_complement_projector(columns: np.ndarray) -> np.ndarray:
    """I - G (G^H G)^{-1} G^H for a full-column-rank matrix G."""
    g = np.asarray(columns, dtype=complex)
    gram = g.conj().T @ g
    condition = float(_condition(np.linalg.eigvalsh(gram)[None])[0])
    if condition > CONDITION_LIMIT:
        raise RankDeficientSteeringError(
            f"source steering matrix is rank deficient (condition {condition:.3e})"
        )
    return np.eye(g.shape[0]) - g @ np.linalg.solve(gram, g.conj().T)


def _crb_batch(geometry, phi: CombiningMatrix | None, azimuth, elevation, amplitudes, noise_variance):
    """Bounds of K scenarios whose S sources sit at K x S angle arrays.

    All K scenarios share the S ``amplitudes``.  Returns the values
    sigma^2 / 2 tr(F^{-1}) (NaN where flagged), the FIM conditions, and the
    disjoint rank-deficient and unidentifiable masks, each of length K.
    """
    k, s = azimuth.shape
    steer = steering_derivative_angles(geometry, azimuth.ravel(), elevation.ravel())
    # Each N x KS matrix becomes K x N x S; D puts the azimuth block first.
    g, d_az, d_el = (m.reshape(-1, k, s).swapaxes(0, 1) for m in steer)
    d = np.concatenate([d_az, d_el], axis=2)
    if phi is not None:
        _require_compatible(geometry, phi)
        g, d = phi.entries @ g, phi.entries @ d
    g_h, d_h = g.conj().swapaxes(1, 2), d.conj().swapaxes(1, 2)
    gram = g_h @ g
    rank_deficient = _condition(np.linalg.eigvalsh(gram)) > CONDITION_LIMIT
    # Flagged cells solve against I so that their discarded FIM stays finite.
    gram[rank_deficient] = np.eye(s)
    info = d_h @ d - (d_h @ g) @ np.linalg.solve(gram, g_h @ d)
    weight = np.tile(np.outer(amplitudes, np.conj(amplitudes)), (2, 2)).T
    eig = np.linalg.eigvalsh(np.real(info * weight))
    condition = _condition(eig)
    scale = np.sum(np.abs(d) ** 2, axis=(1, 2)) * np.sum(np.abs(amplitudes) ** 2)
    unidentifiable = (condition > CONDITION_LIMIT) | (eig[:, -1] <= _INFORMATION_FLOOR * scale)
    unidentifiable &= ~rank_deficient
    ok = ~(rank_deficient | unidentifiable)
    trace_inverse = np.sum(1.0 / np.where(ok[:, None], eig, 1.0), axis=1)
    values = np.where(ok, (0.5 * trace_inverse) * noise_variance, math.nan)
    return values, condition, rank_deficient, unidentifiable


def crb(geometry: ArrayGeometry, scenario: CrbScenario) -> CrbResult:
    """Trace of the deterministic single-snapshot bound for the scenario: a batch of one."""
    angles = np.array([[(d.azimuth, d.elevation) for d in scenario.sources]], dtype=float)
    values, condition, rank_deficient, unidentifiable = _crb_batch(
        geometry, scenario.phi, angles[..., 0], angles[..., 1],
        scenario.amplitudes, scenario.noise_variance,
    )
    if rank_deficient[0]:
        raise RankDeficientSteeringError("source steering matrix is rank deficient")
    if unidentifiable[0]:
        raise UnidentifiableScenarioError(
            f"scenario is unidentifiable (FIM condition {condition[0]:.3e})", float(condition[0])
        )
    return CrbResult(float(values[0]), float(condition[0]))


@dataclass
class CrbMap:
    """Per-cell bound values over a grid, with a status flag for every cell.

    ``values[i, j]`` corresponds to azimuth index i and elevation index j;
    cells whose status is not "ok" hold NaN.
    """

    grid: ScfGrid
    kind: str
    separation: float | None
    noise_variance: float
    values: np.ndarray
    status: np.ndarray

    def ok_mask(self) -> np.ndarray:
        return self.status == "ok"

    def ok_values(self) -> np.ndarray:
        return self.values[self.ok_mask()]

    def log10_statistics(self) -> dict:
        """Median and sample variance of log10(C) over the valid cells."""
        logs = np.log10(self.ok_values())
        return {
            "cells_total": int(self.values.size),
            "cells_ok": int(logs.size),
            "median_log10_crb": float(np.median(logs)) if logs.size else math.nan,
            "variance_log10_crb": float(np.var(logs, ddof=1)) if logs.size > 1 else math.nan,
        }

    def to_metadata(self) -> dict:
        return {
            "kind": self.kind,
            "separation": self.separation,
            "noise_variance": self.noise_variance,
            "grid": self.grid.to_dict(),
            "statistics": self.log10_statistics(),
        }


def crb_map(
    geometry: ArrayGeometry,
    phi: CombiningMatrix | None,
    grid: ScfGrid,
    scenario_kind: str,
    separation: float | None = None,
    noise_variance: float = 1.0,
) -> CrbMap:
    """Evaluate the bound with source 1 swept over the grid.

    Pair kinds add a second unit-amplitude source offset by ``separation``
    in azimuth (wrapped modulo 2 pi) or elevation; elevation offsets that
    leave the open polar interval (0, pi) mark the cell "absent".  Cells
    where the bound does not exist are flagged, never dropped.
    """
    if scenario_kind not in _MAP_KINDS:
        raise ValueError(f"scenario_kind must be one of {_MAP_KINDS}")
    pair = scenario_kind != "single"
    if pair and not (separation is not None and 0.0 < separation < math.inf):
        raise ValueError("pair scenarios need a positive, finite separation")
    if not 0.0 < noise_variance < math.inf:
        raise ValueError("noise variance must be positive")
    azimuth, elevation = np.meshgrid(grid.azimuths(), grid.elevations(), indexing="ij")
    present = np.ones(grid.elevation_count, dtype=bool)
    sources = [(azimuth, elevation)]
    if scenario_kind == "azimuth-pair":
        sources.append(((azimuth + separation) % (2.0 * math.pi), elevation))
    elif scenario_kind == "elevation-pair":
        sources.append((azimuth, elevation + separation))
        present = (0.0 < elevation[0] + separation) & (elevation[0] + separation < math.pi)
    source_azimuth, source_elevation = (np.stack(arrays, axis=-1) for arrays in zip(*sources))
    values = np.full(azimuth.shape, math.nan)
    status = np.full(azimuth.shape, "absent", dtype=object)
    # One batch per azimuth row keeps the working set to elevation_count cells.
    for i in range(grid.azimuth_count if present.any() else 0):
        values[i, present], _, rank_deficient, unidentifiable = _crb_batch(
            geometry, phi, source_azimuth[i, present], source_elevation[i, present],
            np.ones(len(sources)), noise_variance,
        )
        status[i, present] = np.where(
            rank_deficient, "rank-deficient", np.where(unidentifiable, "unidentifiable", "ok")
        )
    return CrbMap(grid, scenario_kind, separation if pair else None, noise_variance, values, status)


def write_crb_map(map_: CrbMap, csv_path, metadata: dict | None = None):
    """Emit the map as CSV cells plus a JSON sidecar with scenario metadata."""
    rows = [
        [repr(float(az)), repr(float(el)), repr(float(value)), status]
        for az, el, value, status in zip(*map_.grid.angles(), map_.values.ravel(), map_.status.ravel())
    ]
    csv_path = atomic_write_csv(csv_path, ["azimuth", "elevation", "crb_value", "status"], rows)
    sidecar = map_.to_metadata()
    if metadata:
        sidecar.update(metadata)
    json_path = atomic_write_json(csv_path.with_suffix(".json"), sidecar)
    return csv_path, json_path
