import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from arrayforge import (
    ArrayGeometry,
    Direction,
    load_geometry,
    make_suca,
    save_geometry,
    steering_angles,
    steering_batch,
    steering_derivative,
    steering_derivative_angles,
)
from arrayforge import array_model, fileio
from oracles import elementwise_steering, invalid_angle_cases, random_directions, random_geometry
from strategies import angle_batches, stacked_geometries


class TestMakeSuca:
    def test_paper_array_dimensions(self):
        geom = make_suca(3, 11, 0.5, 0.68)
        assert geom.element_count == 33
        heights = sorted(set(np.round(geom.positions[:, 2], 12)))
        assert heights == [0.0, 0.5, 1.0]
        # every element sits at the ring radius from its stack axis
        radii = np.hypot(geom.positions[:, 0], geom.positions[:, 1])
        assert np.allclose(radii, 0.68)
        # stack-major ordering: first 11 elements share height 0
        assert np.all(geom.positions[:11, 2] == 0.0)

    def test_single_element_at_origin(self):
        geom = make_suca(1, 1, 0.5, 0.0)
        assert geom.element_count == 1
        assert np.allclose(geom.positions, 0.0)

    def test_in_stack_chord_distances(self):
        geom = make_suca(2, 4, 0.25, 0.5)
        assert geom.element_count == 8
        ring = geom.positions[:4]
        for k in range(1, 4):
            for n in range(4):
                dist = np.linalg.norm(ring[n] - ring[(n + k) % 4])
                assert dist == pytest.approx(2 * 0.5 * math.sin(math.pi * k / 4))

    @pytest.mark.parametrize(
        "args",
        [(0, 11, 0.5, 0.68), (3, 0, 0.5, 0.68), (3, 11, 0.0, 0.68), (3, 11, -0.5, 0.68), (3, 11, 0.5, -0.1)],
    )
    def test_rejects_bad_dimensions(self, args):
        with pytest.raises(ValueError):
            make_suca(*args)


class TestGeometry:
    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            ArrayGeometry([[0.0, 0.0]])
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            ArrayGeometry([[0.0, 0.0, math.inf]])

    def test_positions_are_read_only(self):
        geom = make_suca(1, 3, 0.5, 0.2)
        with pytest.raises(ValueError):
            geom.positions[0, 0] = 1.0

    def test_json_roundtrip(self, tmp_path):
        geom = make_suca(2, 5, 0.4, 0.3)
        path = tmp_path / "geometry.json"
        save_geometry(geom, path)
        loaded = load_geometry(path)
        assert np.array_equal(loaded.positions, geom.positions)

    def test_from_dict_requires_positions(self):
        with pytest.raises(ValueError):
            ArrayGeometry.from_dict({"points": []})

    @pytest.mark.parametrize("coordinate", ["0.5", True, None])
    def test_from_dict_reads_numbers_strictly(self, coordinate):
        with pytest.raises(ValueError, match='"positions"'):
            ArrayGeometry.from_dict({"positions": [[0.0, coordinate, 0.0]]})

    def test_document_format(self, tmp_path):
        path = tmp_path / "geometry.json"
        save_geometry(make_suca(1, 2, 0.5, 0.1), path)
        data = json.loads(path.read_text())
        assert set(data) == {"positions"}
        assert len(data["positions"]) == 2

    def test_interrupted_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "geometry.json"
        save_geometry(make_suca(1, 2, 0.5, 0.1), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(fileio.os, "replace", fail)
        with pytest.raises(OSError, match="interrupted"):
            save_geometry(make_suca(2, 5, 0.4, 0.3), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["geometry.json"]


class TestDirection:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Direction(math.nan, 0.0)
        with pytest.raises(ValueError):
            Direction(0.0, math.inf)


def angles_of(directions):
    """Azimuth and elevation arrays of a sequence of Direction objects."""
    return [d.azimuth for d in directions], [d.elevation for d in directions]


class TestSteering:
    def test_unit_magnitude_everywhere(self, suca33):
        rng = np.random.default_rng(0)
        a = steering_angles(suca33, *angles_of(random_directions(rng, 25, elevation=(0.0, math.pi))))
        assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-12

    def test_self_correlation_is_element_count(self, suca33):
        a = steering_angles(suca33, [0.7], [1.1])[:, 0]
        value = complex(np.vdot(a, a))
        assert abs(value - 33.0) / 33.0 <= 1e-10

    def test_single_element_at_origin_is_one(self):
        geom = make_suca(1, 1, 0.5, 0.0)
        a = steering_angles(geom, [2.1], [0.4])
        assert a.shape == (1, 1)
        assert a[0, 0] == pytest.approx(1.0 + 0.0j)

    def test_azimuth_periodicity(self, suca33):
        a = steering_angles(suca33, [0.37, 0.37 + 2.0 * math.pi], [1.2, 1.2])
        assert np.max(np.abs(a[:, 0] - a[:, 1])) <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("steer", [steering_angles, steering_derivative_angles])
    @pytest.mark.parametrize(
        "azimuth, elevation, message", [pytest.param(*case[1:], id=case[0]) for case in invalid_angle_cases()]
    )
    def test_rejects_invalid_angles(self, suca33, steer, azimuth, elevation, message):
        with pytest.raises(ValueError, match=message):
            steer(suca33, azimuth, elevation)


class TestSteeringBatch:
    def test_matches_steering_angles_columns(self, suca33):
        rng = np.random.default_rng(3)
        dirs = random_directions(rng, 7)
        assert np.array_equal(steering_batch(suca33, dirs), steering_angles(suca33, *angles_of(dirs)))

    def test_paper_batch_shape_and_magnitudes(self, suca33):
        rng = np.random.default_rng(1)
        dirs = random_directions(rng, 250, elevation=(math.pi / 4, 3 * math.pi / 4))
        a = steering_batch(suca33, dirs)
        assert a.shape == (33, 250)
        assert np.max(np.abs(np.abs(a) - 1.0)) <= 1e-12

    def test_gram_diagonal_is_element_count(self, suca33):
        rng = np.random.default_rng(2)
        a = steering_batch(suca33, random_directions(rng, 17))
        gram_diag = np.real(np.diag(a.conj().T @ a))
        assert np.max(np.abs(gram_diag - 33.0)) / 33.0 <= 1e-10

    def test_columns_match_per_direction_evaluation(self, suca33):
        rng = np.random.default_rng(3)
        dirs = random_directions(rng, 7)
        a = steering_batch(suca33, dirs)
        for k, d in enumerate(dirs):
            single = steering_angles(suca33, [d.azimuth], [d.elevation])[:, 0]
            assert np.allclose(a[:, k], single, rtol=0, atol=1e-14)

    def test_empty_batch_rejected(self, suca33):
        with pytest.raises(ValueError):
            steering_batch(suca33, [])


def _fd_derivative(geometry, direction, step=1e-6):
    az, el = direction.azimuth, direction.elevation
    a = steering_angles(geometry, [az + step, az - step, az, az], [el, el, el + step, el - step])
    return (a[:, 0] - a[:, 1]) / (2 * step), (a[:, 2] - a[:, 3]) / (2 * step)


class TestSteeringDerivative:
    def test_single_element_at_origin_is_zero(self):
        geom = make_suca(1, 1, 0.5, 0.0)
        d_az, d_el = steering_derivative(geom, Direction(0.8, 0.9))
        assert np.array_equal(d_az, np.zeros(1))
        assert np.array_equal(d_el, np.zeros(1))

    def test_bottom_stack_elevation_derivative_vanishes_at_equator(self, suca33):
        # at polar pi/2 the elevation derivative reduces to the height term
        d_az, d_el = steering_derivative(suca33, Direction(0.3, math.pi / 2))
        assert np.max(np.abs(d_el[:11])) <= 1e-12

    def test_matches_finite_differences_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            geom = random_geometry(rng)
            d = Direction(float(rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.2, math.pi - 0.2)))
            an_az, an_el = steering_derivative(geom, d)
            fd_az, fd_el = _fd_derivative(geom, d)
            for an, fd in ((an_az, fd_az), (an_el, fd_el)):
                scale = max(1.0, float(np.max(np.abs(an))))
                denom = np.maximum(np.abs(an), 1e-3 * scale)
                assert np.max(np.abs(fd - an) / denom) <= 1e-6

    def test_matches_steering_derivative_angles_columns(self, suca33):
        for d in random_directions(np.random.default_rng(8), 5):
            _, d_az, d_el = steering_derivative_angles(suca33, [d.azimuth], [d.elevation])
            pair = steering_derivative(suca33, d)
            assert np.array_equal(pair[0], d_az[:, 0]) and np.array_equal(pair[1], d_el[:, 0])

    def test_azimuth_derivative_mirror_symmetry(self, suca33):
        mirrored = ArrayGeometry(suca33.positions * np.array([1.0, -1.0, 1.0]))
        d = Direction(0.6, 1.0)
        d_mirror = Direction(-0.6, 1.0)
        da, _ = steering_derivative(suca33, d)
        da_mirror, _ = steering_derivative(mirrored, d_mirror)
        assert np.allclose(da_mirror, -da, rtol=0, atol=1e-12)


ORACLE_GEOMETRIES = {
    "suca-3x11": lambda: make_suca(3, 11, 0.5, 0.68),
    "suca-3x4-on-axis": lambda: make_suca(3, 4, 0.5, 0.0),
    "single-ring": lambda: make_suca(1, 11, 0.5, 0.68),
    "single-element": lambda: make_suca(1, 1, 0.5, 0.0),
    "random-33": lambda: ArrayGeometry(np.random.default_rng(5).uniform(-1.5, 1.5, (33, 3))),
}


class TestSteeringAgainstElementwiseOracle:
    """Grouped and ungrouped steering against one ``cmath.exp`` per entry."""

    @pytest.mark.parametrize("name", sorted(ORACLE_GEOMETRIES))
    def test_steering_and_derivatives_match(self, name):
        geom = ORACLE_GEOMETRIES[name]()
        rng = np.random.default_rng(6)
        azimuth = rng.uniform(-math.pi, 3.0 * math.pi, 60)
        elevation = rng.uniform(0.0, math.pi, 60)
        expected = elementwise_steering(geom, azimuth, elevation)
        assert np.max(np.abs(steering_angles(geom, azimuth, elevation) - expected[0])) <= 1e-13
        for actual, oracle in zip(steering_derivative_angles(geom, azimuth, elevation), expected):
            assert np.max(np.abs(actual - oracle)) <= 1e-13

    @pytest.mark.parametrize(
        "name, grouped",
        [("suca-3x11", True), ("suca-3x4-on-axis", True), ("single-ring", False), ("single-element", False), ("random-33", False)],
    )
    def test_grouping_follows_the_positions(self, name, grouped):
        # 11 + 3 and 1 + 3 phasors replace 33 and 12; elsewhere grouping saves nothing.
        assert (ORACLE_GEOMETRIES[name]()._stack is not None) == grouped

    @settings(deadline=None)
    @given(geom=stacked_geometries(), batch=angle_batches())
    def test_stacked_geometries_match(self, geom, batch):
        expected = elementwise_steering(geom, batch.azimuth, batch.elevation)
        derived = steering_derivative_angles(geom, batch.azimuth, batch.elevation)
        for actual, oracle in zip(derived, expected):
            assert np.max(np.abs(actual - oracle)) <= 1e-13


class TestSteeringRows:
    @pytest.mark.parametrize("name", ["suca-3x11", "random-33"])
    def test_each_row_equals_steering_angles_of_that_row(self, name):
        # The design loop steers (4, 2, L) blocks of sampled angles; each batch must
        # steer bit for bit as it would alone, on a grouped and an ungrouped array.
        geom = ORACLE_GEOMETRIES[name]()
        angles = np.random.default_rng(9).uniform([[-math.pi], [0.0]], [[math.pi], [math.pi]], (4, 2, 250))
        rows = list(array_model._steering_rows(geom, angles[:, 0], angles[:, 1]))
        assert len(rows) == 4
        for a, (azimuth, elevation) in zip(rows, angles):
            assert np.array_equal(a, steering_angles(geom, azimuth, elevation))
