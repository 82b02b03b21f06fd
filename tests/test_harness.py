import csv
import hashlib
import io
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from arrayforge import (
    CombiningMatrix,
    ExperimentReport,
    OptimizerConfig,
    ScfGrid,
    SweepSpec,
    channels_for_rate,
    design,
    grid_scf_error,
    make_suca,
    random_gaussian_phi,
    run_crb_experiment,
    run_scf_sweep,
    write_crb_map,
    write_crb_report,
    write_sweep_report,
)
from arrayforge import harness
from oracles import random_unitary


@pytest.fixture(scope="module")
def small_geometry():
    return make_suca(1, 6, 0.5, 0.4)


def small_spec(**overrides):
    settings = dict(
        compression_rates=(0.5, 1.0),
        seeds_per_point=2,
        methods=("gaussian", "sgd"),
        grid=ScfGrid(5, 4, (-math.pi, math.pi), (0.4, math.pi - 0.4)),
        optimizer=OptimizerConfig(iterations=5, batch_size=6, seed=0),
        external_phis=None,
    )
    settings.update(overrides)
    return SweepSpec(**settings)


def csv_writer_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``header`` and the values of dict ``rows`` under it."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row[key] for key in header] for row in rows)
    return buffer.getvalue().encode("utf-8")


SWEEP_HEADER = ["rho", "method", "seed", "scf_error", "channels", "status"]
SUMMARY_HEADER = ["method", "rho", "channels", "count", "median_scf_error", "q25_scf_error", "q75_scf_error"]


class TestChannelsForRate:
    def test_paper_rates_on_33_elements(self):
        assert channels_for_rate(0.2, 33) == 7
        assert channels_for_rate(0.4, 33) == 13
        assert channels_for_rate(0.6, 33) == 20
        assert channels_for_rate(1.0, 33) == 33

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError):
            channels_for_rate(0.0, 33)
        with pytest.raises(ValueError):
            channels_for_rate(1.2, 33)
        with pytest.raises(ValueError):
            channels_for_rate(0.005, 33)


class TestScfSweep:
    def test_row_cardinality_and_order(self, small_geometry):
        report = run_scf_sweep(small_geometry, small_spec())
        assert len(report.rows) == 2 * 2 * 2
        keys = [(r["method"], r["rho"], r["seed"]) for r in report.rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unsorted_spec_gives_rows_in_artifact_order(self, small_geometry, jobs):
        # rows and aggregates follow (method, rho, seed) whatever order the spec lists them in
        unsorted = run_scf_sweep(small_geometry, small_spec(methods=("sgd", "gaussian"), compression_rates=(1.0, 0.5)),
                                 jobs=jobs)
        keys = [(r["method"], r["rho"], r["seed"]) for r in unsorted.rows]
        assert keys == sorted(keys) and len(keys) == 2 * 2 * 2
        ordered = run_scf_sweep(small_geometry, small_spec(), jobs=jobs)
        assert (unsorted.rows, unsorted.aggregates) == (ordered.rows, ordered.aggregates)

    def test_full_rate_gaussian_positive_unitary_zero(self, small_geometry):
        unitary = CombiningMatrix(random_unitary(6, np.random.default_rng(0)))
        spec = small_spec(
            compression_rates=(1.0,),
            seeds_per_point=1,
            methods=("gaussian", "external"),
            external_phis={1.0: unitary},
        )
        report = run_scf_sweep(small_geometry, spec)
        by_method = {r["method"]: r for r in report.rows}
        assert by_method["gaussian"]["scf_error"] > 0.0
        assert by_method["external"]["scf_error"] <= 1e-10

    def test_missing_external_reported_per_row(self, small_geometry):
        spec = small_spec(methods=("gaussian", "external"), external_phis=None)
        report = run_scf_sweep(small_geometry, spec)
        external_rows = [r for r in report.rows if r["method"] == "external"]
        assert len(external_rows) == 4
        assert all(r["status"].startswith("error: no external combining matrix") for r in external_rows)
        gaussian_rows = [r for r in report.rows if r["method"] == "gaussian"]
        assert all(r["status"] == "ok" for r in gaussian_rows)

    def test_external_matrix_must_match_rate(self, small_geometry):
        three_rows = CombiningMatrix(random_unitary(6, np.random.default_rng(0))[:3])
        spec = small_spec(
            compression_rates=(1.0,),
            seeds_per_point=1,
            methods=("external",),
            external_phis={1.0: three_rows},
        )
        with pytest.raises(ValueError, match="external matrix for rate 1.0 is 3 x 6, expected 6 x 6"):
            run_scf_sweep(small_geometry, spec)

    def test_design_gone_non_finite_is_an_error_row(self, small_geometry):
        optimizer = OptimizerConfig(iterations=5, batch_size=6, step_size=1e200, seed=0)
        spec = small_spec(compression_rates=(0.5,), seeds_per_point=1, optimizer=optimizer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = run_scf_sweep(small_geometry, spec).rows
        assert caught == []
        gaussian, sgd = rows
        assert gaussian["status"] == "ok"
        assert sgd["status"].startswith("error: cannot normalize") and math.isnan(sgd["scf_error"])

    def test_design_gone_infinite_is_an_error_row(self, small_geometry):
        optimizer = OptimizerConfig(iterations=5, batch_size=6, step_size=1e308, seed=0)
        spec = small_spec(compression_rates=(0.5,), seeds_per_point=1, optimizer=optimizer)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = run_scf_sweep(small_geometry, spec).rows
        assert caught == []
        gaussian, sgd = rows
        assert gaussian["status"] == "ok"
        assert sgd["status"] == "error: combining weights must be finite" and math.isnan(sgd["scf_error"])

    def test_aggregates_are_quartiles_of_ok_rows(self, small_geometry):
        spec = small_spec(seeds_per_point=3, methods=("gaussian",), compression_rates=(0.5,))
        report = run_scf_sweep(small_geometry, spec)
        errors = [r["scf_error"] for r in report.rows]
        agg = report.aggregates[0]
        assert agg["count"] == 3
        assert agg["median_scf_error"] == pytest.approx(float(np.median(errors)))
        assert agg["q25_scf_error"] <= agg["median_scf_error"] <= agg["q75_scf_error"]

    def test_identical_spec_gives_identical_rows(self, small_geometry):
        r1 = run_scf_sweep(small_geometry, small_spec())
        r2 = run_scf_sweep(small_geometry, small_spec())
        assert r1.rows == r2.rows

    def test_parallel_jobs_do_not_change_rows(self, small_geometry):
        r1 = run_scf_sweep(small_geometry, small_spec(), jobs=1)
        r4 = run_scf_sweep(small_geometry, small_spec(), jobs=4)
        assert r1.rows == r4.rows

    @pytest.mark.parametrize("jobs", [0, -1, 1.5])
    def test_jobs_below_one_or_not_an_integer_rejected_before_any_work(self, small_geometry, monkeypatch, jobs):
        # jobs=0 and jobs=-3 used to run serially without a word, while --jobs 0 exits 2
        def explode(*args):
            raise AssertionError("the sweep started work")

        monkeypatch.setattr(harness, "_sweep_channels", explode)
        monkeypatch.setattr(harness, "_steering_gram", explode)
        with pytest.raises(ValueError, match=r"^jobs must be an integer >= 1, got "):
            run_scf_sweep(small_geometry, small_spec(), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_equal_grid_scf_error_of_their_matrix(self, jobs):
        # The sweep builds the grid Gram once; each row must still be grid_scf_error's value.
        geometry = make_suca(2, 3, 0.5, 0.4)
        external = random_gaussian_phi(3, 6, 99)
        spec = small_spec(
            compression_rates=(0.5,),
            methods=("gaussian", "sgd", "external"),
            external_phis={0.5: external},
        )
        rows = run_scf_sweep(geometry, spec, jobs=jobs).rows
        assert len(rows) == 6 and all(row["status"] == "ok" for row in rows)
        for row in rows:
            phi = {
                "gaussian": lambda: random_gaussian_phi(3, 6, row["seed"]),
                "sgd": lambda: design(geometry, 3, replace(spec.optimizer, seed=row["seed"])).final_phi,
                "external": lambda: external,
            }[row["method"]]()
            assert row["scf_error"] == grid_scf_error(geometry, phi, spec.grid)

    def test_sgd_seeds_pair_with_gaussian_baseline(self, small_geometry):
        # seed column records the per-job seed derived from the optimizer seed
        spec = small_spec(optimizer=OptimizerConfig(iterations=2, batch_size=4, seed=10))
        report = run_scf_sweep(small_geometry, spec)
        assert sorted({r["seed"] for r in report.rows}) == [10, 11]

    def test_sweep_artifacts_are_reproducible_bytes(self, small_geometry, tmp_path):
        spec = small_spec()
        for name in ("a", "b"):
            report = run_scf_sweep(small_geometry, spec)
            write_sweep_report(report, tmp_path / name)
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_per_job_files_follow_naming_scheme(self, small_geometry, tmp_path):
        report = run_scf_sweep(small_geometry, small_spec())
        written = write_sweep_report(report, tmp_path)
        names = {p.name for p in written}
        assert "scf_sweep_gaussian_0.5_0.csv" in names
        assert "scf_sweep_results.csv" in names
        assert "scf_sweep_summary.csv" in names
        assert "scf_sweep_provenance.json" in names

    @pytest.mark.parametrize("methods", [("external", "gaussian"), ("external",)], ids=["error-row", "all-fail"])
    def test_csvs_are_csv_writer_bytes_of_their_rows(self, small_geometry, tmp_path, methods):
        # "external" has no matrices, so its rows are error rows; with no ok row the summary is its header.
        report = run_scf_sweep(small_geometry, small_spec(methods=methods))
        assert any(row["status"].startswith("error: ") for row in report.rows)
        assert bool(report.aggregates) == ("gaussian" in methods)
        written = write_sweep_report(report, tmp_path)
        for path, row in zip(written, report.rows):
            assert path.read_bytes() == csv_writer_bytes(SWEEP_HEADER, [row])
        assert (tmp_path / "scf_sweep_results.csv").read_bytes() == csv_writer_bytes(SWEEP_HEADER, report.rows)
        summary = (tmp_path / "scf_sweep_summary.csv").read_bytes()
        assert summary == csv_writer_bytes(SUMMARY_HEADER, report.aggregates)

    def test_provenance_echoes_spec(self, small_geometry):
        spec = small_spec()
        report = run_scf_sweep(small_geometry, spec)
        prov = report.provenance
        assert prov["spec"] == spec.to_dict()
        assert prov["geometry"] == small_geometry.to_dict()
        assert prov["seeds"] == [0, 1]


class TestSweepSpecValidation:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            small_spec(compression_rates=(1.5,))

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            small_spec(methods=("gaussian", "annealing"))

    def test_rejects_zero_seeds(self):
        with pytest.raises(ValueError):
            small_spec(seeds_per_point=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"compression_rates": (0.5, 1.0, 0.5)},
            {"methods": ("gaussian", "sgd", "gaussian")},
        ],
    )
    def test_rejects_repeats(self, overrides):
        with pytest.raises(ValueError, match="must not repeat"):
            small_spec(**overrides)

    def test_rejects_external_key_of_no_rate(self):
        with pytest.raises(ValueError, match="names no rate"):
            small_spec(methods=("external",), external_phis={0.75: random_gaussian_phi(3, 6, 0)})

    def test_external_key_must_equal_a_rate_exactly(self):
        phi = random_gaussian_phi(3, 6, 0)
        with pytest.raises(ValueError, match="names no rate"):
            small_spec(
                compression_rates=(0.5,),
                methods=("external",),
                external_phis={0.5: phi, 0.5000000000001: phi},
            )

    def test_rejects_external_value_that_is_no_matrix(self):
        with pytest.raises(TypeError, match="must be a CombiningMatrix, got 'phi.json'"):
            small_spec(methods=("external",), external_phis={0.5: "phi.json"})

    def test_rejects_external_keys_without_external_method(self):
        with pytest.raises(ValueError, match="not among methods"):
            small_spec(methods=("gaussian",), external_phis={0.5: random_gaussian_phi(3, 6, 0)})

    def test_to_dict_writes_each_external_matrix_under_its_rate(self):
        phi = random_gaussian_phi(3, 6, 0)
        doc = small_spec(methods=("external",), external_phis={0.5: phi}).to_dict()
        canonical = json.dumps(phi.to_dict(), indent=2, sort_keys=True) + "\n"
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert doc["external_phis"] == {0.5: digest}
        assert json.loads(json.dumps(doc))["external_phis"] == {"0.5": digest}


class TestCrbExperiment:
    def test_uncompressed_always_included(self, small_geometry):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        report = run_crb_experiment(small_geometry, {}, grid)
        methods = {r["method"] for r in report.rows}
        assert methods == {"uncompressed"}
        assert {r["kind"] for r in report.rows} == {"single", "azimuth-pair", "elevation-pair"}

    def test_named_phis_and_stats(self, small_geometry):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        phi = CombiningMatrix(random_unitary(6, np.random.default_rng(1))[:3])
        report = run_crb_experiment(small_geometry, {"mydesign": phi}, grid)
        assert len(report.rows) == 6
        for row in report.rows:
            assert row["cells_total"] == 9
            if row["cells_ok"] > 1:
                assert math.isfinite(row["variance_log10_crb"])

    def test_reserved_label_rejected(self, small_geometry):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            run_crb_experiment(small_geometry, {"uncompressed": None}, grid)

    @pytest.mark.parametrize("labels", [("a b", "a-b"), ("x/y", "x?y")], ids=["space", "punctuation"])
    def test_labels_naming_the_same_files_rejected(self, small_geometry, labels):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        phi = CombiningMatrix(random_unitary(6, np.random.default_rng(1))[:3])
        with pytest.raises(ValueError, match="name the same files"):
            run_crb_experiment(small_geometry, dict.fromkeys(labels, phi), grid)

    def test_artifacts_written(self, small_geometry, tmp_path):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        report = run_crb_experiment(small_geometry, {}, grid)
        written = write_crb_report(report, tmp_path)
        names = {p.name for p in written}
        assert "crb_uncompressed_single.csv" in names
        assert "crb_uncompressed_single.json" in names
        assert "crb_summary.csv" in names
        assert "crb_provenance.json" in names
        header, *rows = (tmp_path / "crb_summary.csv").read_text().splitlines()
        assert header.split(",")[-3:] == ["cells_absent", "cells_rank_deficient", "cells_unidentifiable"]
        assert len(rows) == 3

    def test_summary_quotes_a_label_with_a_comma(self, small_geometry, tmp_path):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        phi = CombiningMatrix(random_unitary(6, np.random.default_rng(1))[:3])
        report = run_crb_experiment(small_geometry, {'a,"b"': phi}, grid)
        write_crb_report(report, tmp_path)
        lines = (tmp_path / "crb_summary.csv").read_text().splitlines()
        assert sum(line.startswith('"a,""b""",') for line in lines) == 3
        assert (tmp_path / "crb_summary.csv").read_bytes() == csv_writer_bytes(list(report.rows[0]), report.rows)
        sidecar = json.loads((tmp_path / "crb_a--b-_single.json").read_text())
        assert sidecar["method"] == 'a,"b"'
        single = next(map_ for name, kind, map_ in report.maps if name == 'a,"b"' and kind == "single")
        assert sidecar["statistics"] == json.loads(json.dumps(single.log10_statistics()))

    def test_map_files_are_those_of_write_crb_map(self, small_geometry, tmp_path):
        grid = ScfGrid(4, 3, (-1.0, 1.0), (0.0, math.pi))
        phi = CombiningMatrix(random_unitary(6, np.random.default_rng(2))[:3])
        report = run_crb_experiment(small_geometry, {"a,b": phi}, grid)
        written = write_crb_report(report, tmp_path / "report")
        for i, ((name, kind, map_), row) in enumerate(zip(report.maps, report.rows)):
            in_report = written[2 * i : 2 * i + 2]
            alone = write_crb_map(map_, tmp_path / "alone" / in_report[0].name, {"method": name})
            assert [path.read_bytes() for path in alone] == [path.read_bytes() for path in in_report]
            # the sidecar statistics, the map's own, equal its summary row
            statistics = json.loads(in_report[1].read_text())["statistics"]
            assert statistics == json.loads(json.dumps({k: v for k, v in row.items() if k not in ("method", "kind")}))

    def test_report_sidecar_statistics_equal_summary_rows_and_files_equal_write_crb_map(
        self, small_geometry, tmp_path
    ):
        grid = ScfGrid(4, 3, (-1.0, 1.0), (0.0, math.pi))
        phi = CombiningMatrix(random_unitary(6, np.random.default_rng(3))[:3])
        report = run_crb_experiment(small_geometry, {"gaussian": phi}, grid)
        written = write_crb_report(report, tmp_path / "report")
        for i, ((name, kind, map_), row) in enumerate(zip(report.maps, report.rows)):
            in_report = written[2 * i : 2 * i + 2]
            statistics = json.loads(in_report[1].read_text())["statistics"]
            assert statistics == json.loads(json.dumps({k: v for k, v in row.items() if k not in ("method", "kind")}))
            alone = write_crb_map(map_, tmp_path / "alone" / in_report[0].name, {"method": name})
            assert [path.read_bytes() for path in alone] == [path.read_bytes() for path in in_report]

    def test_maps_on_alternating_grids_keep_their_coordinates(self, small_geometry, tmp_path):
        grids = [ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0)), ScfGrid(4, 2, (-2.0, 2.0), (0.5, 2.5))]
        maps, rows = [], []
        for label, grid in zip("abcd", grids * 2):
            map_ = run_crb_experiment(small_geometry, {}, grid).maps[0][2]
            maps.append((label, map_.kind, map_))
            rows.append({"method": label, "kind": map_.kind, **map_.log10_statistics()})
        write_crb_report(ExperimentReport(rows, [], {}, maps=maps), tmp_path)
        for label, kind, map_ in maps:
            with open(tmp_path / f"crb_{label}_{kind}.csv", newline="") as handle:
                cells = list(csv.reader(handle))[1:]
            azimuth, elevation = map_.grid.angles()
            expected = [[repr(a), repr(e)] for a, e in zip(azimuth.tolist(), elevation.tolist())]
            assert [row[:2] for row in cells] == expected

    def test_only_pair_maps_have_a_separation(self, small_geometry):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        report = run_crb_experiment(small_geometry, {}, grid, separation=0.3)
        separations = {kind: map_.separation for _, kind, map_ in report.maps}
        assert separations == {"single": None, "azimuth-pair": 0.3, "elevation-pair": 0.3}

    def test_default_separation_is_two_pi_tenth(self, small_geometry):
        grid = ScfGrid(3, 3, (0.0, 1.0), (1.0, 2.0))
        report = run_crb_experiment(small_geometry, {}, grid)
        assert report.provenance["separation"] == pytest.approx(2.0 * math.pi / 10.0)
        assert report.provenance["noise_variance"] == 1.0
