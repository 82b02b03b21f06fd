"""Deterministic Cramer-Rao bound for 2D direction estimation under compression.

For S deterministic sources observed in one snapshot through a combining
network, the bound on the summed direction variances is sigma^2 / 2 times
the trace of the inverse concentrated Fisher information (Stoica & Nehorai 1989)

    F = Re( (D^H D - D^H G (G^H G)^{-1} G^H D)  .*  (1_{2x2} kron R)^T )

where G stacks the compressed source steering vectors, D their azimuth and
elevation derivatives (azimuth block first), and R = x x^H is the rank-one
sample covariance of the source amplitudes.  Noise is white with variance
sigma^2 at the compressed outputs.

One routine, ``_crb_cells``, scores compressed source columns: it reads
G^H G, D^H G and D^H D out of one 3S x 3S Gram per cell, and leaves out the
factor j common to both derivatives, which cancels in F.  The columns
[A | dA/daz / j | dA/del / j] come from ``array_model._steering_columns``,
the routine behind ``steering_derivative_angles`` too.  ``crb`` gives
``_crb_cells`` one scenario.  ``_crb_maps`` gives it every (design, map
kind) of a grid in one pass over blocks of ``_BLOCK_CELLS`` grid cells.
Both check each design against the geometry once, before any steering.
Per block, the pass evaluates the steering columns once for each source
that the kinds need (the grid point, its azimuth-shifted partner and its
elevation-shifted partner) at every cell of the block, compresses them once
per design and scores each kind at the cells where it is present.
``crb_map`` is the pass for one design and one kind;
``harness.run_crb_experiment`` runs one pass for all designs and kinds
and hands it to each of its ``crb_map`` calls as ``_shared``.  A block's
working set does not grow with the grid or the number of designs: its
steering columns take 1.2 MB at N = 33 with all three sources.
This module only computes: ``harness.write_crb_map`` names and writes map files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, _steering_columns
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
# A map cell's status; the map pass indexes this tuple by a status code.
_STATUSES = ("ok", "rank-deficient", "unidentifiable", "absent")
# Grid cells per block of the map pass: a block holds N x 3 x (cells x sources)
# complex steering columns (1.2 MB at N = 33 with all three sources), their
# compression by one design at a time and one kind's cells x 3S x 3S Grams,
# whatever the grid and the number of designs.
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


def _compress(phi: CombiningMatrix | None, columns: np.ndarray) -> np.ndarray:
    """N x ... ``columns`` through ``phi`` with one product; ``phi=None`` is the uncompressed array."""
    if phi is None:
        return columns
    return (phi.entries @ columns.reshape(len(columns), -1)).reshape(phi.rows, *columns.shape[1:])


def _crb_cells(cells: np.ndarray, amplitudes, noise_variance):
    """Bounds of K scenarios from their K x M x 3S compressed steering columns.

    Each cell's columns are G, then D (azimuth block first), each one column
    per source, and all K scenarios share the S ``amplitudes``.  Returns the
    values sigma^2 / 2 tr(F^{-1}) (NaN where flagged), the FIM conditions,
    and the disjoint rank-deficient and unidentifiable masks, each of
    length K.  One 3S x 3S Gram per cell holds G^H G, D^H G and D^H D.
    The bound is computed at unflagged cells only; ``ValueError`` when the
    noise variance makes one of them underflow or overflow, that is, when
    it is not a normal, finite, positive float.
    """
    s = cells.shape[2] // 3
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
    values = np.full(len(cells), math.nan)
    with np.errstate(over="ignore"):
        values[ok] = (0.5 * np.sum(1.0 / eig[ok], axis=1)) * noise_variance
    if not np.all(np.isfinite(values[ok]) & (values[ok] >= np.finfo(float).tiny)):
        raise ValueError(
            f"noise variance {noise_variance!r} puts the bound outside the range of normal positive floats"
        )
    return values, condition, rank_deficient, unidentifiable


def crb(geometry: ArrayGeometry, scenario: CrbScenario) -> CrbResult:
    """Trace of the deterministic single-snapshot bound for the scenario: a batch of one.

    Raises ``ValueError``, as ``_crb_cells`` does, when the noise variance
    puts the bound outside the range of normal positive floats.
    """
    if scenario.phi is not None:
        _require_compatible(geometry, scenario.phi)
    angles = np.array([(d.azimuth, d.elevation) for d in scenario.sources], dtype=float)
    columns = _compress(scenario.phi, _steering_columns(geometry, angles[:, 0], angles[:, 1]))
    values, condition, rank_deficient, unidentifiable = _crb_cells(
        columns.reshape(1, len(columns), -1), scenario.amplitudes, scenario.noise_variance
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
    *,
    _shared=None,
) -> CrbMap:
    """Evaluate the bound with source 1 swept over the grid.

    Pair kinds add a second unit-amplitude source offset by ``separation``
    in azimuth (wrapped modulo 2 pi) or elevation; elevation offsets that
    leave the open polar interval (0, pi) mark the cell "absent".  Cells
    where the bound does not exist are flagged, never dropped.

    ``_shared`` is internal: a function that returns one ``_crb_maps``
    pass's maps by ``(id(phi), kind)``.  Given it, the map is looked up
    there, not evaluated.  So each map of ``harness.run_crb_experiment``
    comes out of its own ``crb_map`` call, where the benchmark's tracer
    counts map cells, and the pass's time counts in the first of them.
    """
    if _shared is not None:
        return _shared()[id(phi), scenario_kind]
    return _crb_maps(geometry, [phi], grid, [scenario_kind], separation, noise_variance)[0][0]


def _crb_maps(geometry: ArrayGeometry, phis, grid: ScfGrid, kinds, separation, noise_variance) -> list:
    """The ``crb_map`` of every design in ``phis`` and kind in ``kinds``: one list of maps per design.

    One pass over blocks of ``_BLOCK_CELLS`` grid cells evaluates each
    source direction once, for every design and kind.  The sources are the
    grid point and each pair kind's partner, and each is evaluated at every
    cell of the block, in one sources x cells stack; each kind then scores
    the cells where it is present.  The blocks hold the cells where any
    kind is present.
    """
    for kind in kinds:
        if kind not in _MAP_KINDS:
            raise ValueError(f"scenario_kind must be one of {_MAP_KINDS}")
    if set(kinds) - {"single"} and not (separation is not None and 0.0 < separation < math.inf):
        raise ValueError("pair scenarios need a positive, finite separation")
    _check_noise_variance(noise_variance)
    for phi in phis:
        if phi is not None:
            _require_compatible(geometry, phi)
    azimuth, elevation = grid.angles()
    # Source 0 is the grid point; each pair kind appends its partner.
    sources, uses = [(azimuth, elevation)], []
    for kind in kinds:
        present = np.ones(azimuth.shape, dtype=bool)
        if kind == "azimuth-pair":
            sources.append(((azimuth + separation) % (2.0 * math.pi), elevation))
        elif kind == "elevation-pair":
            sources.append((azimuth, elevation + separation))
            present = (0.0 < elevation + separation) & (elevation + separation < math.pi)
        uses.append(((0,) if kind == "single" else (0, len(sources) - 1), present))

    values = np.full((len(phis), len(kinds), azimuth.size), math.nan)
    code = np.full(values.shape, _STATUSES.index("absent"))
    index = np.flatnonzero(np.any([present for _, present in uses], axis=0))
    for start in range(0, len(index), _BLOCK_CELLS):
        block = index[start : start + _BLOCK_CELLS]
        # Source j's steering column at block row r is column j * len(block) + r.
        angles = [np.concatenate([side[block] for side in sides]) for sides in zip(*sources)]
        columns = _steering_columns(geometry, *angles)
        for d, phi in enumerate(phis):
            compressed = _compress(phi, columns)
            for q, (used, present) in enumerate(uses):
                rows = np.flatnonzero(present[block])
                # Each cell's G, D_az and D_el columns, one per source: K x M x 3S.
                gathered = compressed[:, :, (np.array(used)[:, None] * len(block) + rows).T]
                gathered = gathered.transpose(2, 0, 1, 3).reshape(len(rows), len(compressed), 3 * len(used))
                cells = block[rows]
                values[d, q, cells], _, rank_deficient, unidentifiable = _crb_cells(
                    gathered, np.ones(len(used)), noise_variance
                )
                # The masks are disjoint, so this is the index into _STATUSES.
                code[d, q, cells] = rank_deficient + 2 * unidentifiable

    shape = (grid.azimuth_count, grid.elevation_count)
    status = np.array(_STATUSES, dtype=object)[code]
    return [
        [
            CrbMap(grid, kind, None if kind == "single" else separation, noise_variance,
                   values[d, q].reshape(shape), status[d, q].reshape(shape))
            for q, kind in enumerate(kinds)
        ]
        for d in range(len(phis))
    ]
