"""Independent brute-force oracles used across the test suite.

Each oracle recomputes a quantity along a path deliberately different
from the library implementation (per-entry exponentials, scalar loops,
finite differences, full Fisher matrices), so agreement is meaningful
evidence rather than a tautology.  Every steering vector comes from
``elementwise_steering``; oracles read only a geometry's ``positions``,
a matrix's ``entries`` and the angle fields of batches, grids and
scenarios, and import no function from the package.
"""

import cmath
import math

import numpy as np

from arrayforge import (
    CONDITION_LIMIT,
    AngleBatch,
    ArrayGeometry,
    Direction,
    RankDeficientSteeringError,
)


def elementwise_steering(geometry, azimuth, elevation):
    """Steering matrix A and its (d A / d azimuth, d A / d elevation), N x L each.

    Every entry is its own ``cmath.exp(2j * pi * <p, u>)`` of the element
    position p and the propagation direction u, with no grouping of
    elements and no numpy exponential.
    """
    positions = geometry.positions.tolist()
    shape = (len(positions), len(azimuth))
    a, d_az, d_el = (np.empty(shape, dtype=complex) for _ in range(3))
    for k, (az, el) in enumerate(zip(azimuth, elevation)):
        u = (math.cos(az) * math.sin(el), math.sin(az) * math.sin(el), math.cos(el))
        du_az = (-math.sin(az) * math.sin(el), math.cos(az) * math.sin(el), 0.0)
        du_el = (math.cos(az) * math.cos(el), math.sin(az) * math.cos(el), -math.sin(el))
        for n, p in enumerate(positions):
            value = cmath.exp(2j * math.pi * sum(pc * uc for pc, uc in zip(p, u)))
            a[n, k] = value
            d_az[n, k] = 2j * math.pi * sum(pc * dc for pc, dc in zip(p, du_az)) * value
            d_el[n, k] = 2j * math.pi * sum(pc * dc for pc, dc in zip(p, du_el)) * value
    return a, d_az, d_el


def steering_columns(geometry, azimuth, elevation):
    """The columns of ``elementwise_steering``'s A, one 1-D array per direction."""
    return list(elementwise_steering(geometry, azimuth, elevation)[0].T)


def pair_error(entries, a1, a2):
    """Compressed minus uncompressed correlation (Phi a1)^H (Phi a2) - a1^H a2."""
    return complex(np.vdot(entries @ a1, entries @ a2) - np.vdot(a1, a2))


def finite_difference_gradient(geometry, phi, batch, step=1e-6, normalized=True):
    """Central differences of the single-batch cost over Re/Im of every entry.

    The cost is the pair-matrix form ||(Phi A)^H (Phi A) - A^H A||_F^2 / L^2
    (without the division when ``normalized`` is false), with A evaluated
    once per call.
    """
    base = phi.entries
    a = elementwise_steering(geometry, batch.azimuth, batch.elevation)[0]
    uncompressed = a.conj().T @ a
    scale = float(a.shape[1] ** 2) if normalized else 1.0

    def cost(mat):
        b = mat @ a
        return float(np.sum(np.abs(b.conj().T @ b - uncompressed) ** 2)) / scale

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
    """The stochastic cost as its literal scalar sum over batches and angle pairs."""
    total = 0.0
    for batch in batches:
        cols = steering_columns(geometry, batch.azimuth, batch.elevation)
        for a1 in cols:
            for a2 in cols:
                total += abs(pair_error(phi.entries, a1, a2)) ** 2 / len(cols) ** 2
    return total / len(batches)


def scalar_error_matrix(geometry, phi, batch):
    """The batch error matrix built one scalar evaluation at a time."""
    cols = steering_columns(geometry, batch.azimuth, batch.elevation)
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    for i, a1 in enumerate(cols):
        for j, a2 in enumerate(cols):
            out[i, j] = pair_error(phi.entries, a1, a2)
    return out


def elementwise_error(geometry, phi, dir1, dir2):
    """The discrepancy e as an explicit double sum over element pairs."""
    a1, a2 = steering_columns(
        geometry, [dir1.azimuth, dir2.azimuth], [dir1.elevation, dir2.elevation]
    )
    entries = phi.entries
    gap = entries.conj().T @ entries - np.eye(entries.shape[1])
    total = 0.0 + 0.0j
    for p in range(len(a1)):
        for q in range(len(a2)):
            total += np.conj(a1[p]) * gap[p, q] * a2[q]
    return total


def bruteforce_grid_error(geometry, phi, grid):
    """Grid SCF error as an exhaustive sum over ordered grid-point pairs.

    Points run azimuth-major over the endpoint-inclusive axes.
    """
    azimuths = np.linspace(*grid.azimuth_range, grid.azimuth_count)
    elevations = np.linspace(*grid.elevation_range, grid.elevation_count)
    cols = steering_columns(
        geometry, np.repeat(azimuths, len(elevations)), np.tile(elevations, len(azimuths))
    )
    terms = [abs(pair_error(phi.entries, a1, a2)) ** 2 for a1 in cols for a2 in cols]
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

    def steering_matrix(angles):
        return compress(elementwise_steering(geometry, angles[:count], angles[count:])[0])

    angles0 = np.array(
        [d.azimuth for d in sources] + [d.elevation for d in sources]
    )
    derivatives = []
    for i in range(2 * count):
        plus = angles0.copy()
        minus = angles0.copy()
        plus[i] += step
        minus[i] -= step
        derivatives.append(
            (steering_matrix(plus) @ amplitudes - steering_matrix(minus) @ amplitudes) / (2.0 * step)
        )
    columns = steering_matrix(angles0)
    for s in range(count):
        derivatives.append(columns[:, s])
        derivatives.append(1j * columns[:, s])
    jac = np.column_stack(derivatives)
    fim = (2.0 / scenario.noise_variance) * np.real(jac.conj().T @ jac)
    covariance = np.linalg.inv(fim)
    return float(np.trace(covariance[: 2 * count, : 2 * count]))


def orthogonal_complement_projector(columns):
    """I - G (G^H G)^{-1} G^H for a full-column-rank matrix G."""
    g = np.asarray(columns, dtype=complex)
    gram = g.conj().T @ g
    eig = np.linalg.eigvalsh(gram)
    condition = eig[-1] / eig[0] if eig[0] > 0.0 else math.inf
    if condition > CONDITION_LIMIT:
        raise RankDeficientSteeringError(
            f"source steering matrix is rank deficient (condition {condition:.3e})"
        )
    return np.eye(g.shape[0]) - g @ np.linalg.solve(gram, g.conj().T)


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
