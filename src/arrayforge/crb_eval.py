"""Deterministic Cramer-Rao bound for 2D direction estimation under compression.

For S deterministic sources observed in one snapshot through a combining
network, the bound on the summed direction variances is sigma^2 / 2 times
the trace of the inverse concentrated Fisher information (Stoica & Nehorai 1989)

    F = Re( (D^H D - D^H G (G^H G)^{-1} G^H D)  .*  (1_{2x2} kron R)^T )

where G stacks the compressed source steering vectors, D their azimuth and
elevation derivatives (azimuth block first), and R = x x^H is the rank-one
sample covariance of the source amplitudes.  Noise is white with variance
sigma^2 at the compressed outputs.

``crb`` and ``crb_map`` call one batched routine, ``_crb_batch``: ``crb`` as
a batch of one scenario, ``crb_map`` on blocks of ``_BLOCK_CELLS`` grid
cells, so that its working set does not grow with the grid (a block's
steering columns take 0.8 MB at N = 33, S = 2).  The routine compresses
every cell's [A | dA/daz | dA/del] with one product and reads G^H G, D^H G
and D^H D out of one 3S x 3S Gram per cell.  It leaves out the factor j
common to both derivatives, which cancels in F.
This module only computes: ``harness.write_crb_map`` names and writes map files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, _phase_derivatives, steering_angles
from .scf_objective import CombiningMatrix, ScfGrid, _require_compatible

__all__ = [
    "CONDITION_LIMIT",
    "RankDeficientSteeringError",
    "UnidentifiableScenarioError",
    "CrbScenario",
    "CrbResult",
    "CrbMap",
    "crb",
    "crb_map",
]

CONDITION_LIMIT = 1e12
# F holds round-off only when lambda_max(F) is at most this times its bound ||D||_F^2 ||x||^2.
_INFORMATION_FLOOR = 1e-12

_MAP_KINDS = ("single", "azimuth-pair", "elevation-pair")
# A map cell's status; crb_map indexes this tuple by a status code.
_STATUSES = ("ok", "rank-deficient", "unidentifiable", "absent")
# Cells per crb_map block: a block holds N x 3 x cells x S complex steering
# columns (0.8 MB at N = 33, S = 2) and cells x 3S x 3S Grams, whatever the grid.
_BLOCK_CELLS = 256


class RankDeficientSteeringError(ValueError):
    """The compressed source steering matrix is numerically rank deficient."""


class UnidentifiableScenarioError(ValueError):
    """The Fisher information matrix is singular or hopelessly ill conditioned."""

    def __init__(self, message: str, condition: float) -> None:
        super().__init__(message)
        self.condition = condition


def _check_noise_variance(noise_variance: float) -> None:
    if not (math.isfinite(noise_variance) and noise_variance > 0.0):
        raise ValueError("noise variance must be positive")


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
        _check_noise_variance(self.noise_variance)


@dataclass(frozen=True)
class CrbResult:
    trace_value: float
    fim_condition: float


def _condition(eig: np.ndarray) -> np.ndarray:
    """Largest over smallest of each row of ascending eigenvalues; inf unless positive."""
    return np.divide(eig[:, -1], eig[:, 0], out=np.full(len(eig), math.inf), where=eig[:, 0] > 0.0)


def _crb_batch(geometry, phi: CombiningMatrix | None, azimuth, elevation, amplitudes, noise_variance):
    """Bounds of K scenarios whose S sources sit at K x S angle arrays.

    All K scenarios share the S ``amplitudes``.  Returns the values
    sigma^2 / 2 tr(F^{-1}) (NaN where flagged), the FIM conditions, and the
    disjoint rank-deficient and unidentifiable masks, each of length K.

    Each cell's N x 3S block [A | dA/daz | dA/del] is compressed by one
    GEMM for all K cells, and one 3S x 3S Gram per cell holds G^H G, D^H G
    and D^H D.  The derivatives omit their common factor j: it multiplies
    D^H D by |j|^2 = 1 and D^H G (G^H G)^{-1} G^H D by j^* j = 1, so F is
    unchanged.
    """
    k, s = azimuth.shape
    az, el = azimuth.ravel(), elevation.ravel()
    a = steering_angles(geometry, az, el)
    n = geometry.element_count
    # Cell c's columns 3Sc .. 3S(c + 1) hold its A, then D (azimuth block first).
    block = np.empty((n, k, 3, s), dtype=complex)
    block[:, :, 0] = a.reshape(n, k, s)
    for row, phase in enumerate(_phase_derivatives(geometry, az, el), start=1):
        block[:, :, row] = (phase * a).reshape(n, k, s)
    h = block.reshape(n, 3 * k * s)
    if phi is not None:
        _require_compatible(geometry, phi)
        h = phi.entries @ h
    cells = h.reshape(-1, k, 3 * s).transpose(1, 0, 2)
    gram = cells.conj().transpose(0, 2, 1) @ cells
    g_g, d_g, d_d = gram[:, :s, :s], gram[:, s:, :s], gram[:, s:, s:]
    rank_deficient = _condition(np.linalg.eigvalsh(g_g)) > CONDITION_LIMIT
    # Flagged cells solve against I so that their discarded FIM stays finite.
    g_g[rank_deficient] = np.eye(s)
    info = d_d - d_g @ np.linalg.solve(g_g, d_g.conj().transpose(0, 2, 1))
    weight = np.tile(np.outer(amplitudes, np.conj(amplitudes)), (2, 2)).T
    eig = np.linalg.eigvalsh(np.real(info * weight))
    condition = _condition(eig)
    # ||D||_F^2 is the trace of D^H D.
    scale = np.trace(d_d, axis1=1, axis2=2).real * np.sum(np.abs(amplitudes) ** 2)
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

    def log10_statistics(self) -> dict:
        """Median and sample variance of log10(C) over the valid cells, and the cell count per status."""
        logs = np.log10(self.values[self.ok_mask()])
        # The key order is the column order of crb_summary.csv.
        return {
            "cells_total": int(self.values.size),
            "cells_ok": int(logs.size),
            "median_log10_crb": float(np.median(logs)) if logs.size else math.nan,
            "variance_log10_crb": float(np.var(logs, ddof=1)) if logs.size > 1 else math.nan,
            "cells_absent": int(np.count_nonzero(self.status == "absent")),
            "cells_rank_deficient": int(np.count_nonzero(self.status == "rank-deficient")),
            "cells_unidentifiable": int(np.count_nonzero(self.status == "unidentifiable")),
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
    _check_noise_variance(noise_variance)
    azimuth, elevation = grid.angles()
    present = np.ones(azimuth.shape, dtype=bool)
    sources = [(azimuth, elevation)]
    if scenario_kind == "azimuth-pair":
        sources.append(((azimuth + separation) % (2.0 * math.pi), elevation))
    elif scenario_kind == "elevation-pair":
        sources.append((azimuth, elevation + separation))
        present = (0.0 < elevation + separation) & (elevation + separation < math.pi)
    source_azimuth, source_elevation = (np.stack(arrays, axis=-1) for arrays in zip(*sources))
    values = np.full(azimuth.shape, math.nan)
    code = np.full(azimuth.shape, _STATUSES.index("absent"))
    index = np.flatnonzero(present)
    for start in range(0, len(index), _BLOCK_CELLS):
        cells = index[start : start + _BLOCK_CELLS]
        values[cells], _, rank_deficient, unidentifiable = _crb_batch(
            geometry, phi, source_azimuth[cells], source_elevation[cells], np.ones(len(sources)), noise_variance
        )
        # The masks are disjoint, so this is the index into _STATUSES.
        code[cells] = rank_deficient + 2 * unidentifiable
    shape = (grid.azimuth_count, grid.elevation_count)
    status = np.array(_STATUSES, dtype=object)[code].reshape(shape)
    return CrbMap(grid, scenario_kind, separation if pair else None, noise_variance, values.reshape(shape), status)
