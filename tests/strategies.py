"""Hypothesis strategies for the SCF and design property tests.

Geometries have at most 8 elements inside a 3-wavelength cube; stacked
geometries repeat 2 to 5 horizontal positions at 2 or 3 heights, in
shuffled element order.  Combining matrices are column-normalized
Gaussian draws with at most as many channels as elements, angle batches
hold 1 to 8 directions and grids have 2 to 4 points per axis.
"""

import math

from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from arrayforge import AngleBatch, ArrayGeometry, ScfGrid, random_gaussian_phi

seeds = st.integers(0, 2**32 - 1)


@st.composite
def geometries(draw, max_elements=8):
    n = draw(st.integers(1, max_elements))
    return ArrayGeometry(draw(arrays(float, (n, 3), elements=st.floats(-1.5, 1.5))))


@st.composite
def stacked_geometries(draw, max_positions=5, max_heights=3):
    """Random horizontal positions, each repeated at every one of random heights."""
    coordinates = st.floats(-1.5, 1.5)
    horizontal = draw(arrays(float, (draw(st.integers(2, max_positions)), 2), elements=coordinates))
    heights = draw(arrays(float, draw(st.integers(2, max_heights)), elements=coordinates))
    positions = [[x, y, z] for z in heights.tolist() for x, y in horizontal.tolist()]
    return ArrayGeometry(draw(st.permutations(positions)))


@st.composite
def combining_matrices(draw, elements):
    channels = draw(st.integers(1, elements))
    return random_gaussian_phi(channels, elements, draw(seeds))


@st.composite
def angle_batches(draw, max_size=8):
    size = draw(st.integers(1, max_size))
    azimuth = draw(arrays(float, size, elements=st.floats(0.0, 2.0 * math.pi)))
    elevation = draw(arrays(float, size, elements=st.floats(0.0, math.pi)))
    return AngleBatch(azimuth, elevation)


@st.composite
def scf_instances(draw):
    """(geometry, combining matrix, angle batch) of matching sizes."""
    geometry = draw(geometries())
    return geometry, draw(combining_matrices(geometry.element_count)), draw(angle_batches())


@st.composite
def grids(draw, max_points=4):
    az_lo = draw(st.floats(-math.pi, math.pi))
    el_lo = draw(st.floats(0.0, math.pi / 2.0))
    return ScfGrid(
        draw(st.integers(2, max_points)),
        draw(st.integers(2, max_points)),
        (az_lo, az_lo + draw(st.floats(0.1, 2.0 * math.pi))),
        (el_lo, el_lo + draw(st.floats(0.1, math.pi / 2.0))),
    )
