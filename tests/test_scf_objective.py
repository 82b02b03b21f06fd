import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrayforge import (
    AngleBatch,
    ArrayGeometry,
    CombiningMatrix,
    Direction,
    ScfGrid,
    batch_cost,
    error_matrix,
    grid_scf_error,
    random_gaussian_phi,
    steering_angles,
)
from oracles import (
    batch_of,
    bruteforce_grid_error,
    elementwise_error,
    invalid_angle_cases,
    max_relative_error,
    quadruple_loop_cost,
    random_directions,
    random_geometry,
    random_unitary,
    scalar_error_matrix,
)
from strategies import angle_batches, combining_matrices, geometries, grids, scf_instances


def unitary_phi(n, seed=0):
    return CombiningMatrix(random_unitary(n, np.random.default_rng(seed)))


class TestCombiningMatrix:
    def test_rejects_more_channels_than_elements(self):
        with pytest.raises(ValueError):
            CombiningMatrix(np.ones((3, 2)))

    def test_rejects_one_dimensional_entries(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            CombiningMatrix(np.ones(3))

    def test_rejects_nonfinite_entries(self):
        bad = np.ones((2, 3), dtype=complex)
        bad[0, 0] = math.nan
        with pytest.raises(ValueError):
            CombiningMatrix(bad)

    def test_normalize_gives_unit_columns(self):
        rng = np.random.default_rng(5)
        phi = CombiningMatrix(rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        assert not phi.is_column_normalized()
        normalized = phi.normalize()
        assert normalized.is_column_normalized(1e-10)

    def test_normalize_rejects_zero_column(self):
        mat = np.ones((2, 3), dtype=complex)
        mat[:, 1] = 0.0
        with pytest.raises(ValueError):
            CombiningMatrix(mat).normalize()

    def test_normalize_rejects_overflowing_column_norm(self):
        # The norm of a column of 1e200 entries is inf; dividing by it would give zeros.
        phi = CombiningMatrix(np.full((2, 3), 1e200))
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError, match="overflows"):
            warnings.simplefilter("always")
            phi.normalize()
        assert caught == []

    def test_json_roundtrip_is_exact(self):
        rng = np.random.default_rng(6)
        phi = random_gaussian_phi(3, 7, rng)
        doc = phi.to_dict()
        assert set(doc) == {"rows", "cols", "re", "im"}
        loaded = CombiningMatrix.from_dict(json.loads(json.dumps(doc)))
        assert np.array_equal(loaded.entries, phi.entries)

    def test_from_dict_validates_shape(self):
        with pytest.raises(ValueError):
            CombiningMatrix.from_dict({"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]})


class TestAngleBatchAndGrid:
    @pytest.mark.parametrize(
        "azimuth, elevation, message", [pytest.param(*case[1:], id=case[0]) for case in invalid_angle_cases()]
    )
    def test_batch_rejects_invalid_angles(self, azimuth, elevation, message):
        with pytest.raises(ValueError, match=message):
            AngleBatch(azimuth, elevation)

    def test_batch_angles_are_read_only_copies(self):
        azimuth = np.array([0.1, 0.2])
        batch = AngleBatch(azimuth, [1.0, 1.2])
        azimuth[0] = 9.0
        assert batch.azimuth[0] == 0.1
        with pytest.raises(ValueError):
            batch.elevation[0] = 0.0
        assert batch.dirs == (Direction(0.1, 1.0), Direction(0.2, 1.2))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScfGrid(1, 5, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            ScfGrid(5, 5, (1.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            ScfGrid(5, 5, (0.0, 1.0), (2.0, 1.0))

    def test_grid_directions_order(self):
        grid = ScfGrid(2, 3, (0.0, 1.0), (1.0, 2.0))
        dirs = grid.directions()
        assert len(dirs) == 6
        assert dirs[0] == Direction(0.0, 1.0)
        assert dirs[2] == Direction(0.0, 2.0)
        assert dirs[3] == Direction(1.0, 1.0)

    def test_grid_angles_match_directions(self):
        grid = ScfGrid(3, 4, (-1.0, 1.0), (0.5, 2.0))
        azimuth, elevation = grid.angles()
        assert [Direction(a, e) for a, e in zip(azimuth, elevation)] == grid.directions()


class TestErrorMatrix:
    def test_unitary_square_phi_gives_zero_matrix(self, suca33):
        rng = np.random.default_rng(10)
        batch = batch_of(random_directions(rng, 6))
        e = error_matrix(suca33, unitary_phi(33, seed=2), batch)
        assert np.max(np.abs(e)) <= 1e-10

    def test_zero_phi_diagonal_is_minus_element_count(self, suca33):
        batch = batch_of(random_directions(np.random.default_rng(13), 4))
        e = error_matrix(suca33, CombiningMatrix(np.zeros((4, 33))), batch)
        assert np.max(np.abs(np.diag(e) + 33.0)) <= 33.0 * 1e-10

    def test_diagonal_is_real_compressed_power_minus_element_count(self, suca33):
        phi = random_gaussian_phi(13, 33, 8)
        batch = batch_of(random_directions(np.random.default_rng(16), 5))
        diagonal = np.diag(error_matrix(suca33, phi, batch))
        a = steering_angles(suca33, batch.azimuth, batch.elevation)
        expected = np.sum(np.abs(phi.entries @ a) ** 2, axis=0) - 33.0
        assert np.max(np.abs(diagonal.imag)) <= 1e-9
        assert max_relative_error(diagonal.real, expected) <= 1e-10

    def test_single_direction_matches_elementwise_expansion(self, suca33):
        phi = random_gaussian_phi(5, 33, 11)
        d = Direction(0.3, 1.5)
        e = error_matrix(suca33, phi, batch_of((d,)))
        assert e.shape == (1, 1)
        assert e[0, 0] == pytest.approx(elementwise_error(suca33, phi, d, d), rel=1e-12)

    def test_matches_elementwise_expansion(self):
        rng = np.random.default_rng(9)
        geom = random_geometry(rng)
        m = int(rng.integers(1, geom.element_count + 1))
        phi = random_gaussian_phi(m, geom.element_count, rng)
        d1, d2 = random_directions(rng, 2)
        assert error_matrix(geom, phi, batch_of((d1, d2)))[0, 1] == pytest.approx(
            elementwise_error(geom, phi, d1, d2), rel=1e-10, abs=1e-12
        )

    def test_dimension_mismatch_rejected(self, suca33):
        phi = CombiningMatrix(np.ones((2, 4)))
        with pytest.raises(ValueError):
            error_matrix(suca33, phi, batch_of((Direction(0, 1),)))

    def test_entries_match_scalar_error(self):
        rng = np.random.default_rng(12)
        geom = ArrayGeometry(rng.uniform(-1, 1, (6, 3)))
        phi = random_gaussian_phi(2, 6, rng)
        batch = batch_of(random_directions(rng, 5))
        batched = error_matrix(geom, phi, batch)
        scalar = scalar_error_matrix(geom, phi, batch)
        assert max_relative_error(batched, scalar, floor=1e-9) <= 1e-10

    @settings(deadline=None)
    @given(instance=scf_instances())
    def test_hermitian(self, instance):
        geom, phi, batch = instance
        e = error_matrix(geom, phi, batch)
        assert np.max(np.abs(e - e.conj().T)) <= 1e-10 * max(1.0, np.max(np.abs(e)))


class TestBatchCost:
    def test_unitary_square_phi_gives_zero(self, suca33):
        rng = np.random.default_rng(14)
        batches = [batch_of(random_directions(rng, 4)) for _ in range(2)]
        assert batch_cost(suca33, unitary_phi(33, seed=3), batches) <= 1e-10

    def test_single_pair_reduces_to_squared_error(self, suca33):
        phi = random_gaussian_phi(7, 33, 15)
        d = Direction(1.2, 0.8)
        cost = batch_cost(suca33, phi, [batch_of((d,))])
        assert cost == pytest.approx(abs(error_matrix(suca33, phi, batch_of((d,)))[0, 0]) ** 2, rel=1e-12)

    @settings(deadline=None)
    @given(instance=scf_instances(), more=st.lists(angle_batches(), max_size=2))
    def test_matches_quadruple_loop(self, instance, more):
        geom, phi, batch = instance
        batches = [batch, *more]
        assert batch_cost(geom, phi, batches) == pytest.approx(
            quadruple_loop_cost(geom, phi, batches), rel=1e-10
        )

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            geom = random_geometry(rng)
            m = int(rng.integers(1, geom.element_count + 1))
            phi = random_gaussian_phi(m, geom.element_count, rng)
            batch = batch_of(random_directions(rng, 3))
            assert batch_cost(geom, phi, [batch]) >= 0.0

    def test_empty_batch_list_rejected(self, suca33):
        with pytest.raises(ValueError):
            batch_cost(suca33, random_gaussian_phi(3, 33, 0), [])


class TestGridScfError:
    def test_unitary_square_phi_gives_zero(self, suca33):
        grid = ScfGrid(7, 5, (-math.pi, math.pi), (0.2, math.pi - 0.2))
        assert grid_scf_error(suca33, unitary_phi(33, seed=4), grid) <= 1e-10

    @settings(deadline=None)
    @given(geom=geometries(), data=st.data(), grid=grids())
    def test_small_grid_matches_pairwise_sum(self, geom, data, grid):
        phi = data.draw(combining_matrices(geom.element_count))
        assert grid_scf_error(geom, phi, grid) == pytest.approx(
            bruteforce_grid_error(geom, phi, grid), rel=1e-10
        )

    def test_paper_grid_runs_to_completion(self, suca33):
        phi = random_gaussian_phi(13, 33, 20)
        grid = ScfGrid(121, 61, (-math.pi, math.pi), (0.0, math.pi))
        value = grid_scf_error(suca33, phi, grid)
        assert math.isfinite(value) and value > 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(21)
        geom = random_geometry(rng)
        m = int(rng.integers(1, geom.element_count + 1))
        phi = random_gaussian_phi(m, geom.element_count, rng)
        grid = ScfGrid(3, 3, (0.0, 1.0), (0.5, 1.5))
        assert grid_scf_error(geom, phi, grid) >= 0.0


class TestUnitaryLeftInvariance:
    """All objectives depend on the matrix only through its Gramian."""

    def test_costs_unchanged_under_unitary_mixing(self):
        rng = np.random.default_rng(22)
        geom = ArrayGeometry(rng.uniform(-1, 1, (6, 3)))
        phi = random_gaussian_phi(3, 6, rng)
        mixed = CombiningMatrix(random_unitary(3, rng) @ phi.entries)
        batch = batch_of(random_directions(rng, 5))
        grid = ScfGrid(4, 3, (0.0, 2 * math.pi), (0.5, 2.5))

        e1 = error_matrix(geom, phi, batch)
        e2 = error_matrix(geom, mixed, batch)
        assert np.max(np.abs(e1 - e2)) <= 1e-10 * max(1.0, np.max(np.abs(e1)))

        c1 = batch_cost(geom, phi, [batch])
        c2 = batch_cost(geom, mixed, [batch])
        assert c2 == pytest.approx(c1, rel=1e-10)

        g1 = grid_scf_error(geom, phi, grid)
        g2 = grid_scf_error(geom, mixed, grid)
        assert g2 == pytest.approx(g1, rel=1e-10)
