"""Stochastic gradient descent with momentum for combining-matrix design.

Each iteration draws a fresh batch of directions, takes a heavy-ball step
against the analytic batch gradient, and renormalizes the matrix columns
to unit length.  Runs are fully determined by the configured seed.

``step`` and ``design`` share one kernel on plain arrays.  It draws and
steers the batches of a block of iterations together and builds no object
per iteration, so design jobs on threads hold the GIL for little of their time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .array_model import ArrayGeometry, _steering_rows, steering_angles
from .fileio import _json_value, _require_keys
from .scf_objective import (
    AngleBatch,
    CombiningMatrix,
    _gap_terms,
    _require_compatible,
    _unit_columns,
)

__all__ = [
    "OptimizerConfig",
    "OptimizerState",
    "DesignTrace",
    "gradient",
    "sample_batch",
    "initial_state",
    "step",
    "design",
    "random_gaussian_phi",
]


# Iterations whose batches are drawn and steered together.  One steering
# call per block leaves less GIL-held work per iteration.  A block holds
# its batches' group phasors, 4 (U_h + U_z) L complex numbers (224 KB at
# paper scale); each batch's N x L steering matrix is formed when reached.
_BLOCK_ITERATIONS = 4


def _check_range(name: str, bounds) -> None:
    if not (len(bounds) == 2 and all(map(math.isfinite, bounds)) and bounds[0] <= bounds[1]):
        raise ValueError(f"{name} must be a finite (low, high) pair with low <= high")


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters and direction-sampling law for one design run.

    Directions are drawn i.i.d. uniform on ``azimuth_range x elevation_range``
    (elevation as polar angle).  A degenerate range pins that angle to a
    single value.  Every step renormalizes the matrix columns.  ``from_dict``
    reads only these fields, so the renormalization period that older
    traces record is ignored.
    """

    iterations: int = 5000
    batch_size: int = 250
    step_size: float = 1e-2
    drag: float = 0.1
    azimuth_range: tuple = (0.0, 2.0 * math.pi)
    elevation_range: tuple = (math.pi / 4.0, 3.0 * math.pi / 4.0)
    seed: int = 0
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError("iterations must not be negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError("step_size must be positive")
        if not (0.0 <= self.drag < 1.0):
            raise ValueError("drag must lie in [0, 1)")
        _check_range("azimuth_range", self.azimuth_range)
        _check_range("elevation_range", self.elevation_range)
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        integers = ("iterations", "batch_size", "seed", "record_every")
        ranges = ("azimuth_range", "elevation_range")
        _require_keys(data, (*integers, "step_size", "drag", *ranges), "optimizer config")
        return cls(
            **{key: _json_value(data[key], key, int) for key in integers},
            step_size=_json_value(data["step_size"], "step_size", float),
            drag=_json_value(data["drag"], "drag", float),
            **{
                key: tuple(_json_value(bound, key, float) for bound in _json_value(data[key], key, list))
                for key in ranges
            },
        )


@dataclass
class OptimizerState:
    """Mutable snapshot of a running design: weights, velocity, RNG.

    ``cost`` is the batch cost the last ``step`` measured before its update
    (None before the first step).
    """

    phi: CombiningMatrix
    velocity: np.ndarray
    iteration: int
    rng: np.random.Generator
    cost: float | None = None


@dataclass
class DesignTrace:
    """Outcome of a design run: recorded costs and the final matrix."""

    costs: list
    final_phi: CombiningMatrix
    config: OptimizerConfig

    def __post_init__(self) -> None:
        iterations = [i for i, _ in self.costs]
        if any(b <= a for a, b in zip(iterations, iterations[1:])):
            raise ValueError("recorded iterations must be strictly increasing")

    @property
    def channels(self) -> int:
        return self.final_phi.rows

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "channels": self.channels,
            "config": self.config.to_dict(),
            "costs": [[int(i), float(c)] for i, c in self.costs],
            "phi": self.final_phi.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignTrace":
        _require_keys(data, ("costs", "phi", "channels", "config"), "design trace")
        costs = _json_value(data["costs"], "costs", list)
        if not all(isinstance(entry, (list, tuple)) and len(entry) == 2 for entry in costs):
            raise ValueError('"costs" must be a list of [iteration, cost] pairs')
        costs = [
            (_json_value(i, f"costs[{k}][0]", int), _json_value(c, f"costs[{k}][1]", float))
            for k, (i, c) in enumerate(costs)
        ]
        final_phi = CombiningMatrix.from_dict(_json_value(data["phi"], "phi", dict))
        channels = _json_value(data["channels"], "channels", int)
        trace = cls(costs, final_phi, OptimizerConfig.from_dict(_json_value(data["config"], "config", dict)))
        if channels != trace.channels:
            raise ValueError(f'"channels" is {channels} but the final matrix has {trace.channels} rows')
        return trace


def _batch_terms(entries: np.ndarray, a: np.ndarray):
    """Cost and gradient of one batch, given its N x L steering matrix ``a``.

    Both are divided by L^2, so the cost is ``batch_cost`` on that batch.
    """
    p = a @ a.conj().T
    p_gap, trace = _gap_terms(p, entries.conj().T @ entries)
    scale = a.shape[1] ** 2
    return trace / scale, 4.0 * (entries @ (p_gap @ p)) / scale


def gradient(geometry: ArrayGeometry, phi: CombiningMatrix, batch: AngleBatch) -> np.ndarray:
    """Gradient of one batch's ``batch_cost`` with respect to the weights.

    Convention: the real part holds d/dRe and the imaginary part d/dIm of
    the (real) cost, i.e. grad = 4 Phi P (G - I) P / L^2 with P = A A^H the
    batch steering outer product and G the Gramian of Phi.
    """
    _require_compatible(geometry, phi)
    return _batch_terms(phi.entries, steering_angles(geometry, batch.azimuth, batch.elevation))[1]


def _sample_angles(config: OptimizerConfig, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` batches of directions as a (count, 2, L) array of (azimuths, elevations).

    The law of ``sample_batch``: batch after batch, all L azimuths and then
    all L elevations, each uniform on its configured range.
    """
    low = [[config.azimuth_range[0]], [config.elevation_range[0]]]
    high = [[config.azimuth_range[1]], [config.elevation_range[1]]]
    return rng.uniform(low, high, (count, 2, config.batch_size))


def sample_batch(config: OptimizerConfig, rng: np.random.Generator) -> AngleBatch:
    """Draw one batch of directions, uniform on the configured rectangle.

    Consumes the generator deterministically: all azimuths first, then all
    elevations.
    """
    return AngleBatch(*_sample_angles(config, rng, 1)[0])


def random_gaussian_phi(channels: int, elements: int, seed) -> CombiningMatrix:
    """Column-normalized draw from the circular complex Gaussian ensemble.

    ``seed`` may be an integer or an already-seeded numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    re = rng.standard_normal((channels, elements))
    im = rng.standard_normal((channels, elements))
    return CombiningMatrix((re + 1j * im) / math.sqrt(2.0)).normalize()


def initial_state(geometry: ArrayGeometry, channels: int, config: OptimizerConfig) -> OptimizerState:
    """Seeded starting point: normalized Gaussian weights, zero velocity."""
    rng = np.random.default_rng(config.seed)
    phi = random_gaussian_phi(channels, geometry.element_count, rng)
    return OptimizerState(phi, np.zeros_like(phi.entries), 0, rng)


def _descend(
    geometry: ArrayGeometry, phi: CombiningMatrix, velocity: np.ndarray, config: OptimizerConfig, blocks
):
    """Heavy-ball iterations from ``phi`` and ``velocity`` on arrays; the kernel of ``step`` and ``design``.

    ``blocks`` yields (n, 2, L) angle arrays from ``_sample_angles``, each
    steered with one call and giving n iterations.  Returns the final
    weights, the velocity and each iteration's cost before its update.
    """
    _require_compatible(geometry, phi)
    entries, costs = phi.entries, []
    # A diverging run overflows on its way to inf; _unit_columns reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for angles in blocks:
            for a in _steering_rows(geometry, angles[:, 0], angles[:, 1]):
                cost, grad = _batch_terms(entries, a)
                costs.append(cost)
                velocity = config.drag * velocity - config.step_size * grad
                entries = _unit_columns(entries + velocity)
    return entries, velocity, costs


def step(
    geometry: ArrayGeometry,
    state: OptimizerState,
    config: OptimizerConfig,
    batch: AngleBatch | None = None,
) -> OptimizerState:
    """Advance one momentum iteration.

    Samples a fresh batch from the state's generator unless one is given,
    updates v <- drag*v - step_size*gradient, moves phi by v, and
    renormalizes its columns (velocity is left untouched by
    renormalization).  The returned state's ``cost`` is the batch cost
    before the update, from the same steering evaluation.
    """
    if state.iteration >= config.iterations:
        raise ValueError("optimizer state is already finished")
    if batch is None:
        angles = _sample_angles(config, state.rng, 1)
    else:
        angles = np.stack([batch.azimuth, batch.elevation])[np.newaxis]
    entries, velocity, (cost,) = _descend(geometry, state.phi, state.velocity, config, [angles])
    return OptimizerState(CombiningMatrix(entries), velocity, state.iteration + 1, state.rng, cost)


def design(geometry: ArrayGeometry, channels: int, config: OptimizerConfig) -> DesignTrace:
    """Run the full seeded design loop and return its trace.

    The result equals ``config.iterations`` calls of ``step`` bit for bit,
    and the cost of every ``record_every``-th iteration is recorded.  The
    loop runs on arrays and builds the ``CombiningMatrix`` once, at the
    end; the returned matrix is column-normalized.
    """
    state = initial_state(geometry, channels, config)
    blocks = (
        _sample_angles(config, state.rng, min(_BLOCK_ITERATIONS, config.iterations - start))
        for start in range(0, config.iterations, _BLOCK_ITERATIONS)
    )
    entries, _, costs = _descend(geometry, state.phi, state.velocity, config, blocks)
    every = config.record_every
    recorded = list(zip(range(0, config.iterations, every), costs[::every]))
    return DesignTrace(costs=recorded, final_phi=CombiningMatrix(entries), config=config)
