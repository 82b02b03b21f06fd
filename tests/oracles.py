"""Independent brute-force oracles used across the test suite.

Each oracle recomputes a quantity along a path deliberately different
from the library implementation (scalar loops, finite differences, full
Fisher matrices), so agreement is meaningful evidence rather than a
tautology.
"""

import math

import numpy as np

from arrayforge import (
    AngleBatch,
    ArrayGeometry,
    CombiningMatrix,
    Direction,
    batch_cost,
    error_e,
    steering,
)


def finite_difference_gradient(geometry, phi, batch, step=1e-6, normalized=True):
    """Central differences of the single-batch cost over Re/Im of every entry."""
    base = phi.entries
    scale = 1.0 if normalized else float(batch.size**2)

    def cost(mat):
        return batch_cost(geometry, CombiningMatrix(mat), [batch]) * scale

    out = np.zeros_like(base)
    for m in range(base.shape[0]):
        for n in range(base.shape[1]):
            bump = np.zeros_like(base)
            bump[m, n] = 1.0
            d_re = (cost(base + step * bump) - cost(base - step * bump)) / (2.0 * step)
            d_im = (cost(base + 1j * step * bump) - cost(base - 1j * step * bump)) / (2.0 * step)
            out[m, n] = d_re + 1j * d_im
    return out


def quadruple_loop_cost(geometry, phi, batches):
    """The stochastic cost as its literal scalar quadruple sum."""
    total = 0.0
    for batch in batches:
        for d1 in batch.dirs:
            for d2 in batch.dirs:
                total += abs(error_e(geometry, phi, d1, d2)) ** 2 / batch.size**2
    return total / len(batches)


def scalar_error_matrix(geometry, phi, batch):
    """The batch error matrix built one scalar evaluation at a time."""
    size = batch.size
    out = np.zeros((size, size), dtype=complex)
    for i, d1 in enumerate(batch.dirs):
        for j, d2 in enumerate(batch.dirs):
            out[i, j] = error_e(geometry, phi, d1, d2)
    return out


def elementwise_error(geometry, phi, dir1, dir2):
    """The discrepancy e as an explicit double sum over element pairs."""
    a1 = steering(geometry, dir1)
    a2 = steering(geometry, dir2)
    gap = phi.gramian() - np.eye(geometry.element_count)
    total = 0.0 + 0.0j
    for p in range(geometry.element_count):
        for q in range(geometry.element_count):
            total += np.conj(a1[p]) * gap[p, q] * a2[q]
    return total


def bruteforce_grid_error(geometry, phi, grid):
    """Grid SCF error as an exhaustive sum over ordered grid-point pairs."""
    dirs = grid.directions()
    terms = [
        abs(error_e(geometry, phi, d1, d2)) ** 2 for d1 in dirs for d2 in dirs
    ]
    return math.fsum(terms)


def numerical_fim_crb(geometry, scenario, step=1e-6):
    """Direction CRB trace from the full finite-difference Fisher matrix.

    Builds the 4S x 4S information matrix of the deterministic Gaussian
    model over (angles, Re amplitudes, Im amplitudes), inverts it, and
    reads off the trace of the angle block.
    """
    sources = scenario.sources
    count = len(sources)
    amplitudes = scenario.amplitudes
    phi = scenario.phi

    def compress(matrix):
        return matrix if phi is None else phi.entries @ matrix

    def mean_vector(angles):
        cols = [
            steering(geometry, Direction(angles[s], angles[count + s]))
            for s in range(count)
        ]
        return compress(np.column_stack(cols)) @ amplitudes

    angles0 = np.array(
        [d.azimuth for d in sources] + [d.elevation for d in sources]
    )
    derivatives = []
    for i in range(2 * count):
        plus = angles0.copy()
        minus = angles0.copy()
        plus[i] += step
        minus[i] -= step
        derivatives.append((mean_vector(plus) - mean_vector(minus)) / (2.0 * step))
    for s in range(count):
        column = compress(steering(geometry, sources[s]))
        derivatives.append(column)
        derivatives.append(1j * column)
    jac = np.column_stack(derivatives)
    fim = (2.0 / scenario.noise_variance) * np.real(jac.conj().T @ jac)
    covariance = np.linalg.inv(fim)
    return float(np.trace(covariance[: 2 * count, : 2 * count]))


def random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    return q


def random_geometry(rng, max_elements=8):
    n = int(rng.integers(1, max_elements + 1))
    return ArrayGeometry(rng.uniform(-1.5, 1.5, (n, 3)))


def random_directions(rng, count, azimuth=(0.0, 2.0 * math.pi), elevation=(0.3, math.pi - 0.3)):
    az = rng.uniform(azimuth[0], azimuth[1], count)
    el = rng.uniform(elevation[0], elevation[1], count)
    return tuple(Direction(float(a), float(e)) for a, e in zip(az, el))


def batch_of(directions):
    """An AngleBatch holding the angles of a sequence of Direction objects."""
    return AngleBatch(
        [d.azimuth for d in directions], [d.elevation for d in directions]
    )


def max_relative_error(actual, expected, floor=1e-12):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    denom = np.maximum(np.abs(expected), floor)
    return float(np.max(np.abs(actual - expected) / denom))
