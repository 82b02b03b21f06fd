import csv
import json
import math

import numpy as np
import pytest

from arrayforge import (
    CombiningMatrix,
    CrbScenario,
    Direction,
    RankDeficientSteeringError,
    ScfGrid,
    UnidentifiableScenarioError,
    crb,
    crb_map,
    orthogonal_complement_projector,
    random_gaussian_phi,
    steering,
    steering_derivative,
    write_crb_map,
)
from oracles import numerical_fim_crb, random_unitary


def random_scenario(rng, geometry, sources=1, compressed=True):
    while True:
        az = rng.uniform(0.0, 2.0 * math.pi, sources)
        el = rng.uniform(math.pi / 3.0, 2.0 * math.pi / 3.0, sources)
        if sources == 1 or abs(az[0] - az[1]) > 0.4 or abs(el[0] - el[1]) > 0.3:
            break
    dirs = tuple(Direction(float(a), float(e)) for a, e in zip(az, el))
    amplitudes = rng.standard_normal(sources) + 1j * rng.standard_normal(sources)
    sigma2 = float(rng.uniform(0.2, 3.0))
    phi = random_gaussian_phi(13, geometry.element_count, rng) if compressed else None
    return CrbScenario(dirs, amplitudes, sigma2, phi)


class TestScenarioValidation:
    def test_needs_a_source(self):
        with pytest.raises(ValueError):
            CrbScenario((), np.array([]), 1.0)

    def test_amplitude_length_must_match(self):
        with pytest.raises(ValueError):
            CrbScenario((Direction(0, 1),), np.array([1.0, 2.0]), 1.0)

    def test_rejects_zero_amplitudes(self):
        with pytest.raises(ValueError):
            CrbScenario((Direction(0, 1),), np.array([0.0]), 1.0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            CrbScenario((Direction(0, 1),), np.array([1.0]), 0.0)


class TestCrb:
    def test_noise_variance_linearity_is_exact(self, suca33):
        scenario = random_scenario(np.random.default_rng(0), suca33)
        base = CrbScenario(scenario.sources, scenario.amplitudes, 1.0, scenario.phi)
        for c in (0.5, 2.0, 7.25):
            scaled = CrbScenario(scenario.sources, scenario.amplitudes, c, scenario.phi)
            assert crb(suca33, scaled).trace_value == c * crb(suca33, base).trace_value

    def test_amplitude_scaling_inverse_square(self, suca33):
        rng = np.random.default_rng(1)
        scenario = random_scenario(rng, suca33, sources=2)
        c = 1.7 - 0.4j
        scaled = CrbScenario(
            scenario.sources, c * scenario.amplitudes, scenario.noise_variance, scenario.phi
        )
        assert crb(suca33, scaled).trace_value == pytest.approx(
            crb(suca33, scenario).trace_value / abs(c) ** 2, rel=1e-12
        )

    def test_single_source_uncompressed_matches_numerical_fim(self, suca33):
        scenario = CrbScenario((Direction(0.0, math.pi / 2),), np.array([1.0 + 0j]), 1.0, None)
        mine = crb(suca33, scenario).trace_value
        oracle = numerical_fim_crb(suca33, scenario)
        assert abs(mine - oracle) / oracle <= 1e-3

    def test_matches_numerical_fim_on_random_scenarios(self, suca33):
        rng = np.random.default_rng(2)
        for trial in range(10):
            scenario = random_scenario(
                rng, suca33, sources=1 if trial < 5 else 2, compressed=trial % 2 == 0
            )
            mine = crb(suca33, scenario).trace_value
            oracle = numerical_fim_crb(suca33, scenario)
            assert abs(mine - oracle) / abs(oracle) <= 1e-3

    def test_unitary_mixing_leaves_bound_unchanged(self, suca33):
        rng = np.random.default_rng(3)
        scenario = random_scenario(rng, suca33, sources=2)
        mixed = CombiningMatrix(random_unitary(scenario.phi.rows, rng) @ scenario.phi.entries)
        mixed_scenario = CrbScenario(
            scenario.sources, scenario.amplitudes, scenario.noise_variance, mixed
        )
        v1 = crb(suca33, scenario).trace_value
        v2 = crb(suca33, mixed_scenario).trace_value
        assert abs(v1 - v2) / v1 <= 1e-9

    def test_identity_phi_matches_uncompressed(self, suca33):
        rng = np.random.default_rng(4)
        scenario = random_scenario(rng, suca33, compressed=False)
        explicit = CrbScenario(
            scenario.sources,
            scenario.amplitudes,
            scenario.noise_variance,
            CombiningMatrix(np.eye(33)),
        )
        assert crb(suca33, explicit).trace_value == pytest.approx(
            crb(suca33, scenario).trace_value, rel=1e-12
        )

    def test_eleven_fold_azimuth_symmetry_uncompressed(self, suca33):
        # rotating by one ring step permutes elements, so the bound is unchanged
        base = Direction(0.35, 1.2)
        shifted = Direction(0.35 + 2.0 * math.pi / 11.0, 1.2)
        v1 = crb(suca33, CrbScenario((base,), np.array([1.0]), 1.0, None)).trace_value
        v2 = crb(suca33, CrbScenario((shifted,), np.array([1.0]), 1.0, None)).trace_value
        assert abs(v1 - v2) / v1 <= 1e-9

    def test_coincident_sources_raise_rank_deficient(self, suca33):
        d = Direction(0.5, 1.1)
        scenario = CrbScenario((d, d), np.array([1.0, 1.0]), 1.0, None)
        with pytest.raises(RankDeficientSteeringError):
            crb(suca33, scenario)

    def test_polar_axis_source_is_unidentifiable(self, suca33):
        scenario = CrbScenario((Direction(0.4, 0.0),), np.array([1.0]), 1.0, None)
        with pytest.raises(UnidentifiableScenarioError) as exc_info:
            crb(suca33, scenario)
        assert exc_info.value.condition > 0.0

    def test_result_is_positive_with_condition(self, suca33):
        scenario = random_scenario(np.random.default_rng(5), suca33)
        result = crb(suca33, scenario)
        assert result.trace_value > 0.0
        assert result.fim_condition >= 1.0


class TestProjectorProperties:
    def test_idempotence_and_orthogonality_on_scenarios(self, suca33):
        rng = np.random.default_rng(6)
        for trial in range(5):
            scenario = random_scenario(rng, suca33, sources=1 + trial % 2)
            cols = np.column_stack([steering(suca33, d) for d in scenario.sources])
            if scenario.phi is not None:
                cols = scenario.phi.entries @ cols
            proj = orthogonal_complement_projector(cols)
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-10
            assert np.max(np.abs(proj @ cols)) <= 1e-10 * max(1.0, np.max(np.abs(cols)))

    def test_fim_is_symmetric_before_inversion(self, suca33):
        rng = np.random.default_rng(7)
        scenario = random_scenario(rng, suca33, sources=2)
        sources = scenario.sources
        cols = np.column_stack([steering(suca33, d) for d in sources])
        derivs = [steering_derivative(suca33, d) for d in sources]
        deriv = np.column_stack([p[0] for p in derivs] + [p[1] for p in derivs])
        g = scenario.phi.entries @ cols
        d = scenario.phi.entries @ deriv
        proj = orthogonal_complement_projector(g)
        cov = np.outer(scenario.amplitudes, scenario.amplitudes.conj())
        fim = np.real((d.conj().T @ proj @ d) * np.kron(np.ones((2, 2)), cov).T)
        assert np.max(np.abs(fim - fim.T)) <= 1e-10 * max(1.0, np.max(np.abs(fim)))


class TestCrbMap:
    def test_single_source_map_interior_is_positive(self, suca33):
        grid = ScfGrid(9, 5, (-math.pi, math.pi), (math.pi / 4, 3 * math.pi / 4))
        result = crb_map(suca33, None, grid, "single")
        assert np.all(result.status == "ok")
        assert np.all(result.values > 0.0)
        assert np.all(np.isfinite(result.values))

    def test_kind_and_separation_validation(self, suca33):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            crb_map(suca33, None, grid, "triple")
        with pytest.raises(ValueError):
            crb_map(suca33, None, grid, "azimuth-pair")
        with pytest.raises(ValueError):
            crb_map(suca33, None, grid, "azimuth-pair", separation=math.inf)
        with pytest.raises(ValueError):
            crb_map(suca33, None, grid, "single", noise_variance=0.0)

    def test_azimuth_pair_wraps_around(self, suca33):
        sep = 2.0 * math.pi / 10.0
        grid = ScfGrid(2, 2, (math.pi - 0.05, math.pi + 0.05), (1.2, 1.4))
        result = crb_map(suca33, None, grid, "azimuth-pair", separation=sep)
        assert np.all(result.status == "ok")
        az = grid.azimuths()[0]
        el = grid.elevations()[0]
        unwrapped = CrbScenario(
            (Direction(az, el), Direction(az + sep, el)), np.ones(2), 1.0, None
        )
        assert result.values[0, 0] == pytest.approx(crb(suca33, unwrapped).trace_value, rel=1e-9)

    def test_elevation_pair_marks_out_of_range_cells_absent(self, suca33):
        sep = 2.0 * math.pi / 10.0
        grids = [
            ScfGrid(3, 4, (0.0, 1.0), (math.pi / 2, math.pi - 0.1)),
            # source 1 on the pole: its partner exists, so the cell is flagged, not absent
            ScfGrid(3, 5, (0.0, 1.0), (0.0, math.pi - 0.1)),
        ]
        for grid in grids:
            result = crb_map(suca33, None, grid, "elevation-pair", separation=sep)
            partners = grid.elevations() + sep
            expected_absent = partners >= math.pi
            for j, absent in enumerate(expected_absent):
                statuses = set(result.status[:, j])
                pole = grid.elevations()[j] == 0.0
                assert statuses == ({"absent"} if absent else {"unidentifiable"} if pole else {"ok"})
            assert np.all(np.isnan(result.values[:, expected_absent]))

    def test_pole_cells_are_flagged_not_dropped(self, suca33):
        grid = ScfGrid(3, 3, (0.0, 1.0), (0.0, math.pi / 2))
        result = crb_map(suca33, None, grid, "single")
        assert set(result.status[:, 0]) == {"unidentifiable"}
        assert result.status.size == 9
        stats = result.log10_statistics()
        assert stats["cells_ok"] == 6
        assert stats["cells_total"] == 9

    @pytest.mark.parametrize("rows", [3, 1])
    def test_information_at_round_off_is_unidentifiable(self, suca33, rows):
        # every compressed output sees the same combination (3 equal rows or a
        # single row), so the FIM is round-off that a relative condition check
        # alone can pass as "ok"
        phi = CombiningMatrix(np.repeat(random_gaussian_phi(1, 33, 0).entries, rows, axis=0))
        grid = ScfGrid(9, 5, (-math.pi, math.pi), (math.pi / 4, 3 * math.pi / 4))
        result = crb_map(suca33, phi, grid, "single")
        assert set(result.status.ravel()) == {"unidentifiable"}
        for az, el in zip(*grid.angles()):
            scenario = CrbScenario((Direction(az, el),), np.ones(1), 1.0, phi)
            with pytest.raises(UnidentifiableScenarioError):
                crb(suca33, scenario)

    @pytest.mark.parametrize("kind", ["single", "azimuth-pair", "elevation-pair"])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_cells_match_oracle_and_scalar_bound(self, suca33, kind, compressed):
        # an uneven grid, so that a swapped azimuth/elevation or source index shows
        sep = 2.0 * math.pi / 10.0
        phi = random_gaussian_phi(13, 33, 11) if compressed else None
        grid = ScfGrid(5, 4, (-2.0, 2.5), (math.pi / 4, 2.2))
        result = crb_map(suca33, phi, grid, kind, None if kind == "single" else sep, 0.7)
        assert np.all(result.status == "ok")
        for i, j in [(0, 0), (1, 3), (4, 2), (3, 1)]:
            az, el = grid.azimuths()[i], grid.elevations()[j]
            sources = [Direction(az, el)]
            if kind == "azimuth-pair":
                sources.append(Direction((az + sep) % (2.0 * math.pi), el))
            elif kind == "elevation-pair":
                sources.append(Direction(az, el + sep))
            scenario = CrbScenario(tuple(sources), np.ones(len(sources)), 0.7, phi)
            value = result.values[i, j]
            assert abs(value - numerical_fim_crb(suca33, scenario)) <= 1e-3 * value
            assert value == pytest.approx(crb(suca33, scenario).trace_value, rel=1e-12)

    def test_compressed_map_runs(self, suca33):
        phi = random_gaussian_phi(13, 33, 9)
        grid = ScfGrid(4, 3, (-1.0, 1.0), (1.0, 2.0))
        result = crb_map(suca33, phi, grid, "single")
        assert np.all(result.status == "ok")


class TestWriteCrbMap:
    def test_rows_follow_the_grid_azimuth_major(self, tmp_path, suca33):
        grid = ScfGrid(3, 4, (0.0, 1.0), (0.0, 2.0))
        result = crb_map(suca33, None, grid, "single")
        csv_path, _ = write_crb_map(result, tmp_path / "map.csv")
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        for k, (az, el, value, status) in enumerate(rows):
            i, j = divmod(k, grid.elevation_count)
            assert (az, el) == (repr(float(grid.azimuths()[i])), repr(float(grid.elevations()[j])))
            assert (value, status) == (repr(float(result.values[i, j])), result.status[i, j])

    def test_csv_and_sidecar(self, tmp_path, suca33):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        result = crb_map(suca33, None, grid, "single")
        csv_path, json_path = write_crb_map(result, tmp_path / "map.csv", {"method": "uncompressed"})
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["azimuth", "elevation", "crb_value", "status"]
        assert len(rows) == 1 + grid.point_count
        assert all(row[3] == "ok" for row in rows[1:])
        sidecar = json.loads(json_path.read_text())
        assert sidecar["method"] == "uncompressed"
        assert sidecar["kind"] == "single"
        assert sidecar["statistics"]["cells_ok"] == grid.point_count
