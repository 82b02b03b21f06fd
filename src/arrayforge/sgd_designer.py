"""Stochastic gradient descent with momentum for combining-matrix design.

Each iteration draws a fresh batch of directions, takes a heavy-ball step
against the analytic batch gradient, and renormalizes the matrix columns
to unit length.  Runs are fully determined by the configured seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .array_model import ArrayGeometry
from .fileio import _json_value, _require_keys
from .scf_objective import AngleBatch, CombiningMatrix, _gram_terms

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


def _check_range(name: str, bounds) -> None:
    if not (len(bounds) == 2 and all(map(math.isfinite, bounds)) and bounds[0] <= bounds[1]):
        raise ValueError(f"{name} must be a finite (low, high) pair with low <= high")


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters and direction-sampling law for one design run.

    Directions are drawn i.i.d. uniform on ``azimuth_range x elevation_range``
    (elevation as polar angle).  A degenerate range pins that angle to a
    single value.
    """

    iterations: int = 5000
    batch_size: int = 250
    step_size: float = 1e-2
    drag: float = 0.1
    azimuth_range: tuple = (0.0, 2.0 * math.pi)
    elevation_range: tuple = (math.pi / 4.0, 3.0 * math.pi / 4.0)
    seed: int = 0
    renormalize_every: int = 1
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
        if self.renormalize_every < 1 or self.record_every < 1:
            raise ValueError("renormalize_every and record_every must be at least 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        integers = ("iterations", "batch_size", "seed", "renormalize_every", "record_every")
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


def _cost_and_gradient(geometry: ArrayGeometry, phi: CombiningMatrix, batch: AngleBatch):
    """One batch's cost and its gradient, from one steering evaluation.

    Both are divided by L^2, so the cost is ``batch_cost`` on that batch.
    """
    p, p_gap, trace = _gram_terms(geometry, phi, batch.azimuth, batch.elevation)
    scale = batch.size**2
    return trace / scale, 4.0 * (phi.entries @ (p_gap @ p)) / scale


def gradient(geometry: ArrayGeometry, phi: CombiningMatrix, batch: AngleBatch) -> np.ndarray:
    """Gradient of one batch's ``batch_cost`` with respect to the weights.

    Convention: the real part holds d/dRe and the imaginary part d/dIm of
    the (real) cost, i.e. grad = 4 Phi P (G - I) P / L^2 with P = A A^H the
    batch steering outer product and G the Gramian of Phi.
    """
    return _cost_and_gradient(geometry, phi, batch)[1]


def sample_batch(config: OptimizerConfig, rng: np.random.Generator) -> AngleBatch:
    """Draw one batch of directions, uniform on the configured rectangle.

    Consumes the generator deterministically: all azimuths first, then all
    elevations.
    """
    azimuth = rng.uniform(config.azimuth_range[0], config.azimuth_range[1], config.batch_size)
    elevation = rng.uniform(
        config.elevation_range[0], config.elevation_range[1], config.batch_size
    )
    return AngleBatch(azimuth, elevation)


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


def step(
    geometry: ArrayGeometry,
    state: OptimizerState,
    config: OptimizerConfig,
    batch: AngleBatch | None = None,
) -> OptimizerState:
    """Advance one momentum iteration.

    Samples a fresh batch from the state's generator unless one is given,
    updates v <- drag*v - step_size*gradient, moves phi by v, and
    renormalizes columns on the configured cadence (velocity is left
    untouched by renormalization).  The returned state's ``cost`` is the
    batch cost before the update, from the same steering evaluation.
    """
    if state.iteration >= config.iterations:
        raise ValueError("optimizer state is already finished")
    if batch is None:
        batch = sample_batch(config, state.rng)
    cost, grad = _cost_and_gradient(geometry, state.phi, batch)
    velocity = config.drag * state.velocity - config.step_size * grad
    phi = CombiningMatrix(state.phi.entries + velocity)
    if state.iteration % config.renormalize_every == 0:
        phi = phi.normalize()
    return OptimizerState(phi, velocity, state.iteration + 1, state.rng, cost)


def design(geometry: ArrayGeometry, channels: int, config: OptimizerConfig) -> DesignTrace:
    """Run the full seeded design loop and return its trace.

    Each iteration is one ``step``; its ``cost`` is recorded every
    ``record_every`` iterations.  The returned matrix is always
    column-normalized.
    """
    state = initial_state(geometry, channels, config)
    costs = []
    for i in range(config.iterations):
        state = step(geometry, state, config)
        if i % config.record_every == 0:
            costs.append((i, state.cost))
    phi = state.phi
    last = config.iterations - 1
    if config.iterations > 0 and last % config.renormalize_every != 0:
        phi = phi.normalize()
    return DesignTrace(costs=costs, final_phi=phi, config=config)
