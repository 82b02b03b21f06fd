import csv
import io
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
    random_gaussian_phi,
    run_crb_experiment,
    write_crb_map,
)
from arrayforge import array_model, crb_eval
from oracles import elementwise_steering, numerical_fim_crb, orthogonal_complement_projector, random_unitary


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

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_rejects_nonfinite_amplitudes(self, amplitude):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            CrbScenario((Direction(0, 1),), np.array([amplitude]), 1.0)

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

    @pytest.mark.parametrize("noise_variance, amplitude", [(5e-324, 1.0), (1e308, 1e-3)])
    def test_bound_outside_the_normal_floats_raises(self, suca33, noise_variance, amplitude):
        # the bound 0.004 / amplitude^2 underflows to a subnormal at 5e-324 and overflows at 1e308
        scenario = CrbScenario((Direction(0.3, 1.2),), np.array([amplitude]), noise_variance, None)
        with pytest.raises(ValueError, match="noise variance .* puts the bound outside"):
            crb(suca33, scenario)

    def test_result_is_positive_with_condition(self, suca33):
        scenario = random_scenario(np.random.default_rng(5), suca33)
        result = crb(suca33, scenario)
        assert result.trace_value > 0.0
        assert result.fim_condition >= 1.0


def source_steering(geometry, sources):
    """``elementwise_steering`` at the sources of a scenario."""
    return elementwise_steering(geometry, [d.azimuth for d in sources], [d.elevation for d in sources])


class TestProjectorProperties:
    def test_idempotence_and_orthogonality_on_scenarios(self, suca33):
        rng = np.random.default_rng(6)
        for trial in range(5):
            scenario = random_scenario(rng, suca33, sources=1 + trial % 2)
            cols = source_steering(suca33, scenario.sources)[0]
            if scenario.phi is not None:
                cols = scenario.phi.entries @ cols
            proj = orthogonal_complement_projector(cols)
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-10
            assert np.max(np.abs(proj @ cols)) <= 1e-10 * max(1.0, np.max(np.abs(cols)))

    def test_fim_is_symmetric_before_inversion(self, suca33):
        rng = np.random.default_rng(7)
        scenario = random_scenario(rng, suca33, sources=2)
        cols, d_az, d_el = source_steering(suca33, scenario.sources)
        deriv = np.column_stack([d_az, d_el])
        g = scenario.phi.entries @ cols
        d = scenario.phi.entries @ deriv
        proj = orthogonal_complement_projector(g)
        cov = np.outer(scenario.amplitudes, scenario.amplitudes.conj())
        fim = np.real((d.conj().T @ proj @ d) * np.kron(np.ones((2, 2)), cov).T)
        assert np.max(np.abs(fim - fim.T)) <= 1e-10 * max(1.0, np.max(np.abs(fim)))


def map_cell_sources(kind, az, el, sep):
    """The sources of a ``crb_map`` cell of ``kind`` whose first source sits at (az, el)."""
    sources = [Direction(az, el)]
    if kind == "azimuth-pair":
        sources.append(Direction((az + sep) % (2.0 * math.pi), el))
    elif kind == "elevation-pair":
        sources.append(Direction(az, el + sep))
    return tuple(sources)


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

    @pytest.mark.parametrize("kind", ["single", "azimuth-pair", "elevation-pair"])
    def test_noise_variance_scales_ok_cells_only(self, suca33, kind):
        # 1e308 overflowed, with a warning (an error in this suite), at flagged cells; 5e-324 left 0.0 at "ok" cells
        grid = ScfGrid(5, 3, (-math.pi, math.pi), (0.0, math.pi))
        unit = crb_map(suca33, None, grid, kind, 2.0 * math.pi / 10.0)
        huge = crb_map(suca33, None, grid, kind, 2.0 * math.pi / 10.0, noise_variance=1e308)
        ok = unit.ok_mask()
        assert np.array_equal(huge.status, unit.status) and ok.any() and not ok.all()
        assert np.array_equal(huge.values[ok], unit.values[ok] * 1e308)
        with pytest.raises(ValueError, match="noise variance 5e-324"):
            crb_map(suca33, None, grid, kind, 2.0 * math.pi / 10.0, noise_variance=5e-324)

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

    def test_statistics_count_every_status(self, suca33):
        # absent cells past the pole, unidentifiable pole cells and ok cells in one map
        grid = ScfGrid(3, 4, (0.0, 1.0), (0.0, math.pi))
        result = crb_map(suca33, None, grid, "elevation-pair", separation=2.0 * math.pi / 10.0)
        stats = result.log10_statistics()
        counts = {status: int(np.sum(result.status == status)) for status in ("ok", "absent", "unidentifiable")}
        assert counts == {"ok": 6, "absent": 3, "unidentifiable": 3}
        assert stats["cells_ok"] == counts["ok"]
        assert stats["cells_absent"] == counts["absent"]
        assert stats["cells_unidentifiable"] == counts["unidentifiable"]
        assert stats["cells_rank_deficient"] == 0
        by_status = ("cells_ok", "cells_absent", "cells_rank_deficient", "cells_unidentifiable")
        assert sum(stats[key] for key in by_status) == stats["cells_total"]

    @pytest.mark.parametrize("rows", [3, 1])
    def test_information_at_round_off_is_unidentifiable(self, suca33, rows):
        # every compressed output sees the same combination (3 equal rows or a
        # single row), so the FIM is round-off that a relative condition check
        # alone can pass as "ok"
        phi = CombiningMatrix(np.repeat(random_gaussian_phi(1, 33, 0).entries, rows, axis=0))
        grid = ScfGrid(9, 5, (-math.pi, math.pi), (math.pi / 4, 3 * math.pi / 4))
        result = crb_map(suca33, phi, grid, "single")
        assert set(result.status.ravel()) == {"unidentifiable"}
        stats = result.log10_statistics()
        assert (stats["cells_unidentifiable"], stats["cells_ok"]) == (grid.point_count, 0)
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
            sources = map_cell_sources(kind, grid.azimuths()[i], grid.elevations()[j], sep)
            scenario = CrbScenario(sources, np.ones(len(sources)), 0.7, phi)
            value = result.values[i, j]
            assert abs(value - numerical_fim_crb(suca33, scenario)) <= 1e-3 * value
            assert value == pytest.approx(crb(suca33, scenario).trace_value, rel=1e-12)

    @pytest.mark.parametrize("block_cells", [crb_eval._BLOCK_CELLS, 7])
    @pytest.mark.parametrize("kind", ["single", "azimuth-pair", "elevation-pair"])
    @pytest.mark.parametrize("compressed", [False, True])
    def test_cells_do_not_depend_on_block_boundaries(self, suca33, monkeypatch, kind, compressed, block_cells):
        # 23 x 13 = 299 cells leave a partial last block of either size, and
        # the blocks end inside azimuth rows.  The polar range puts pole cells
        # (unidentifiable, or rank-deficient for the azimuth pair) and absent
        # elevation-pair cells in the map.
        monkeypatch.setattr(crb_eval, "_BLOCK_CELLS", block_cells)
        grid = ScfGrid(23, 13, (-math.pi, math.pi), (0.0, math.pi))
        assert grid.point_count > block_cells and grid.point_count % block_cells
        sep = 2.0 * math.pi / 10.0
        phi = random_gaussian_phi(13, 33, 4) if compressed else None
        result = crb_map(suca33, phi, grid, kind, None if kind == "single" else sep)
        flagged = {"single": {"unidentifiable"}, "azimuth-pair": {"rank-deficient"},
                   "elevation-pair": {"unidentifiable", "absent"}}[kind]
        assert set(result.status.ravel()) == {"ok", *flagged}
        for i, az in enumerate(grid.azimuths()):
            for j, el in enumerate(grid.elevations()):
                if kind == "elevation-pair" and not 0.0 < el + sep < math.pi:
                    assert result.status[i, j] == "absent" and math.isnan(result.values[i, j])
                    continue
                sources = map_cell_sources(kind, az, el, sep)
                scenario = CrbScenario(sources, np.ones(len(sources)), 1.0, phi)
                try:
                    scalar = crb(suca33, scenario)
                except RankDeficientSteeringError:
                    status = "rank-deficient"
                except UnidentifiableScenarioError:
                    status = "unidentifiable"
                else:
                    status = "ok"
                assert result.status[i, j] == status
                if status != "ok":
                    assert math.isnan(result.values[i, j])
                    continue
                # Both calls evaluate the same formula; only the width of the
                # compression product differs, so BLAS may sum in another
                # order.  That perturbs F by a relative 1e-12 at most (a few
                # thousand ulp), and tr(F^-1) amplifies a relative
                # perturbation of F by at most the condition of F.
                tolerance = 1e-12 * max(1.0, scalar.fim_condition)
                assert abs(result.values[i, j] - scalar.trace_value) <= tolerance * scalar.trace_value

    @pytest.mark.parametrize("block_cells", [crb_eval._BLOCK_CELLS, 7])
    def test_experiment_steers_each_source_once_for_all_designs(self, suca33, monkeypatch, block_cells):
        # One pass serves every design and kind: the grid point, its azimuth
        # partner and its elevation partner, each at every cell of the grid.
        monkeypatch.setattr(crb_eval, "_BLOCK_CELLS", block_cells)
        angles = []
        real = array_model._propagation

        def counting(azimuth, elevation):
            angles.append(np.size(azimuth))
            return real(azimuth, elevation)

        monkeypatch.setattr(array_model, "_propagation", counting)
        grid = ScfGrid(23, 13, (-math.pi, math.pi), (0.0, math.pi))
        sep = 2.0 * math.pi / 10.0
        gaussian = random_gaussian_phi(13, 33, 4)
        unitary = CombiningMatrix(random_unitary(33, np.random.default_rng(5))[:20])
        for phis in ({"gaussian": gaussian}, {"gaussian": gaussian, "unitary": unitary}):
            angles.clear()
            report = run_crb_experiment(suca33, phis, grid, separation=sep)
            assert sum(angles) == 3 * grid.point_count
        monkeypatch.setattr(array_model, "_propagation", real)
        designs = {"uncompressed": None, "gaussian": gaussian, "unitary": unitary}
        assert len(report.maps) == 3 * len(designs)
        for name, kind, map_ in report.maps:
            alone = crb_map(suca33, designs[name], grid, kind, None if kind == "single" else sep)
            # evaluated on its own, not handed out by the experiment's pass
            assert alone is not map_
            assert np.array_equal(map_.status, alone.status)
            assert np.array_equal(np.isnan(map_.values), map_.status != "ok")
            for i, j in zip(*np.nonzero(map_.status == "ok")):
                sources = map_cell_sources(kind, grid.azimuths()[i], grid.elevations()[j], sep)
                condition = crb(suca33, CrbScenario(sources, np.ones(len(sources)), 1.0, designs[name])).fim_condition
                # The same bound as in test_cells_do_not_depend_on_block_boundaries.
                tolerance = 1e-12 * max(1.0, condition)
                assert abs(map_.values[i, j] - alone.values[i, j]) <= tolerance * alone.values[i, j]

    @pytest.mark.parametrize("kinds", [["elevation-pair", "single"], ["elevation-pair", "azimuth-pair"]])
    def test_pass_over_unsorted_kinds_matches_each_kind_alone(self, suca33, monkeypatch, kinds):
        # The elevation partner is source 1 here, and with the azimuth pair the azimuth partner is source 2.
        monkeypatch.setattr(crb_eval, "_BLOCK_CELLS", 7)
        grid = ScfGrid(23, 13, (-math.pi, math.pi), (0.0, math.pi))
        sep = 2.0 * math.pi / 10.0
        phis = [random_gaussian_phi(13, 33, 4), None]
        maps = crb_eval._crb_maps(suca33, phis, grid, kinds, sep, 1.0)
        for phi, row in zip(phis, maps):
            for kind, map_ in zip(kinds, row):
                alone = crb_map(suca33, phi, grid, kind, None if kind == "single" else sep)
                assert map_.kind == kind
                assert np.array_equal(map_.status, alone.status)
                assert np.array_equal(np.isnan(map_.values), map_.status != "ok")
                for i, j in zip(*np.nonzero(map_.status == "ok")):
                    sources = map_cell_sources(kind, grid.azimuths()[i], grid.elevations()[j], sep)
                    condition = crb(suca33, CrbScenario(sources, np.ones(len(sources)), 1.0, phi)).fim_condition
                    # The same bound as in test_cells_do_not_depend_on_block_boundaries.
                    tolerance = 1e-12 * max(1.0, condition)
                    assert abs(map_.values[i, j] - alone.values[i, j]) <= tolerance * alone.values[i, j]

    @pytest.mark.parametrize("sep", [math.pi, 4.0])
    def test_elevation_pair_past_the_pole_has_no_present_cell(self, suca33, sep):
        # Every partner lies at or past elevation pi, so no block has an elevation-pair cell to score.
        grid = ScfGrid(7, 5, (-1.0, 1.0), (0.0, math.pi))
        alone = crb_map(suca33, None, grid, "elevation-pair", sep)
        report = run_crb_experiment(suca33, {"gaussian": random_gaussian_phi(13, 33, 2)}, grid, separation=sep)
        maps = [alone, *(map_ for _, kind, map_ in report.maps if kind == "elevation-pair")]
        assert len(maps) == 3
        for map_ in maps:
            assert set(map_.status.ravel()) == {"absent"}
            assert np.all(np.isnan(map_.values))
            stats = map_.log10_statistics()
            assert math.isnan(stats["median_log10_crb"]) and math.isnan(stats["variance_log10_crb"])
            assert (stats["cells_total"], stats["cells_ok"], stats["cells_absent"]) == (35, 0, 35)
            assert stats["cells_rank_deficient"] == stats["cells_unidentifiable"] == 0

    @pytest.mark.parametrize("sep", [math.pi, 4.0])
    def test_mismatched_design_raises_without_a_present_cell(self, suca33, sep):
        # No elevation-pair cell is present, so no block runs; the design is still checked against the array.
        grid = ScfGrid(7, 5, (-1.0, 1.0), (0.0, math.pi))
        wrong = random_gaussian_phi(5, 20, 1)
        message = "combining matrix has 20 columns but the array has 33 elements"
        with pytest.raises(ValueError, match=message):
            crb_map(suca33, wrong, grid, "elevation-pair", sep)
        with pytest.raises(ValueError, match=message):
            run_crb_experiment(suca33, {"wrong": wrong}, grid, separation=sep)
        with pytest.raises(ValueError, match=message):
            crb(suca33, CrbScenario((Direction(0.3, 1.2),), np.ones(1), 1.0, wrong))

    def test_each_design_is_checked_once_per_pass(self, suca33, monkeypatch):
        monkeypatch.setattr(crb_eval, "_BLOCK_CELLS", 7)
        real, checked = crb_eval._require_compatible, []

        def counting(geometry, phi):
            checked.append(phi)
            real(geometry, phi)

        monkeypatch.setattr(crb_eval, "_require_compatible", counting)
        unitary = CombiningMatrix(random_unitary(33, np.random.default_rng(3)))
        phis = {"gaussian": random_gaussian_phi(13, 33, 2), "unitary": unitary}
        run_crb_experiment(suca33, phis, ScfGrid(7, 5, (-1.0, 1.0), (0.5, 2.5)), separation=0.4)
        assert checked == [phis["gaussian"], phis["unitary"]]

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

    def test_csv_bytes_are_those_of_csv_writer(self, tmp_path, suca33):
        # ok, absent and unidentifiable cells come from the grid; rank-deficient
        # ones are set by hand, as this map kind has none.
        grid = ScfGrid(5, 4, (-1.0, 2.0), (0.0, math.pi))
        result = crb_map(suca33, None, grid, "elevation-pair", 2.0 * math.pi / 10.0)
        result.status[1, 1:3] = "rank-deficient"
        result.values[1, 1:3] = math.nan
        assert set(result.status.ravel()) == {"ok", "absent", "unidentifiable", "rank-deficient"}
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["azimuth", "elevation", "crb_value", "status"])
        azimuth, elevation = grid.angles()
        writer.writerows(zip(azimuth.tolist(), elevation.tolist(), result.values.ravel().tolist(), result.status.ravel()))
        assert "nan" in buffer.getvalue()
        csv_path, _ = write_crb_map(result, tmp_path / "map.csv")
        assert csv_path.read_bytes() == buffer.getvalue().encode("utf-8")

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
        assert sidecar["statistics"]["cells_absent"] == 0
