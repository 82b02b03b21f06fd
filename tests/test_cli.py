import argparse
import csv
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arrayforge import CombiningMatrix, make_suca, save_geometry
from arrayforge import cli
from arrayforge.cli import main, parse_and_validate
from oracles import random_unitary

SMALL_GEOM = ["--stacks", "1", "--per-stack", "4", "--spacing-wl", "0.5", "--radius-wl", "0.3"]
SMALL_GRID = ["--grid-az", "5", "--grid-el", "4", "--el-min", "0.4", "--el-max", "2.7"]
FAST_DESIGN = ["--iters", "4", "--batch", "5"]


def run_design(tmp_path, name="trace.json", extra=()):
    out = tmp_path / name
    code = main(
        ["design", *SMALL_GEOM, *FAST_DESIGN, "--channels", "2", "--seed", "3", "--out", str(out), *extra]
    )
    assert code == 0
    return out


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestParseDefaults:
    def test_paper_defaults_applied(self, tmp_path):
        config = parse_and_validate(["design", "--channels", "13", "--out", str(tmp_path / "t.json")])
        assert config.geometry.element_count == 33
        assert config.optimizer.iterations == 5000
        assert config.optimizer.batch_size == 250
        assert config.optimizer.step_size == pytest.approx(1e-2)
        assert config.optimizer.drag == pytest.approx(0.1)
        assert config.optimizer.elevation_range == (math.pi / 4, 3 * math.pi / 4)

    def test_grid_defaults(self, tmp_path):
        config = parse_and_validate(
            ["evaluate-crb", "--out", str(tmp_path)]
        )
        assert config.grid.azimuth_count == 121
        assert config.grid.elevation_count == 61
        assert config.sigma2 == 1.0
        assert config.separation == pytest.approx(2 * math.pi / 10)

    def test_defaults_recorded_in_options(self, tmp_path):
        config = parse_and_validate(["design", "--channels", "3", "--out", str(tmp_path / "t.json")])
        assert config.options["iters"] == 5000
        assert config.options["eta"] == pytest.approx(0.1)


class TestValidationErrors:
    def test_eta_one_rejected(self, tmp_path, capsys):
        code = main(["design", "--channels", "3", "--eta", "1.0", "--out", str(tmp_path / "t")])
        assert code == 2
        assert "--eta must be in [0, 1)" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, tmp_path):
        code = main(["design", "--channels", "3", "--frobnicate", "1", "--out", str(tmp_path / "t")])
        assert code == 2

    def test_missing_geometry_file(self, tmp_path, capsys):
        code = main(
            ["design", "--channels", "2", "--geometry", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t")]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_two_geometry_sources_rejected(self, tmp_path, capsys):
        geom_file = tmp_path / "geom.json"
        save_geometry(make_suca(1, 3, 0.5, 0.2), geom_file)
        code = main(
            ["design", "--channels", "2", "--geometry", str(geom_file), "--stacks", "2", "--out", str(tmp_path / "t")]
        )
        assert code == 2
        assert "exactly one geometry source" in capsys.readouterr().err

    def test_channels_required(self, tmp_path, capsys):
        code = main(["design", "--out", str(tmp_path / "t")])
        assert code == 2
        assert "--channels is required" in capsys.readouterr().err

    def test_out_required(self, capsys):
        code = main(["design", "--channels", "2"])
        assert code == 2
        assert "--out is required" in capsys.readouterr().err

    def test_bad_rate_rejected(self, tmp_path, capsys):
        code = main(["sweep", *SMALL_GEOM, "--rates", "0.5,1.4", "--out", str(tmp_path)])
        assert code == 2
        assert "(0, 1]" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "bogus": 3}))
        code = main(["design", "--channels", "2", "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unversioned_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"batch": 10}))
        code = main(["design", "--channels", "2", "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert code == 2
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, values, flag",
        [
            ("design", {"batch": 50.9}, "--batch"),
            ("design", {"iters": True}, "--iters"),
            ("design", {"channels": 12.9}, "--channels"),
            ("sweep", {"seeds_per_point": 2.7}, "--seeds-per-point"),
            ("design", {"out": 5}, "--out"),
            ("design", {"geometry": 3}, "--geometry"),
            ("evaluate-scf", {"phi": {"rows": 1, "cols": 33}}, "--phi"),
        ],
    )
    def test_config_values_coerced_strictly(self, tmp_path, capsys, command, values, flag):
        base = {
            "design": {"channels": 2, "iters": 2, "batch": 3},
            "evaluate-scf": {},
            "sweep": {"rates": [0.5], "methods": ["gaussian"], "seeds_per_point": 1},
        }[command]
        cfg = tmp_path / "config.json"
        common = {"schema_version": 1, "out": str(tmp_path / "o"), "grid_az": 3, "grid_el": 3}
        cfg.write_text(json.dumps({**common, **base, **values}))
        assert main([command, "--config", str(cfg)]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--rates", "0.5,0.5"], ["--methods", "gaussian,gaussian"]])
    def test_repeated_rates_or_methods_rejected(self, tmp_path, capsys, flags):
        code = main(
            ["sweep", *SMALL_GEOM, *SMALL_GRID, "--seeds-per-point", "2", *flags, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "must not repeat" in capsys.readouterr().err


class TestPrecedence:
    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "batch": 50}))
        base = ["design", "--channels", "3", "--config", str(cfg), "--out", str(tmp_path / "t.json")]
        assert parse_and_validate(base).optimizer.batch_size == 50
        assert parse_and_validate([*base, "--batch", "250"]).optimizer.batch_size == 250

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARRAYFORGE_SEED", "7")
        args = ["design", "--channels", "3", "--out", str(tmp_path / "t.json")]
        assert parse_and_validate(args).seed == 7
        assert parse_and_validate([*args, "--seed", "9"]).seed == 9

    def test_config_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARRAYFORGE_SEED", "7")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "seed": 5}))
        args = ["design", "--channels", "3", "--config", str(cfg), "--out", str(tmp_path / "t.json")]
        assert parse_and_validate(args).seed == 5

    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ARRAYFORGE_SEED", "banana")
        code = main(["design", *SMALL_GEOM, "--channels", "2", "--out", str(tmp_path / "t")])
        assert code == 2
        assert "ARRAYFORGE_SEED" in capsys.readouterr().err


COMMON_DEFAULTS = {
    "geometry": None, "stacks": 3, "per_stack": 11, "spacing_wl": 0.5, "radius_wl": 0.68, "seed": 0,
}
GRID_DEFAULTS = {
    "grid_az": 121, "grid_el": 61, "az_min": -math.pi, "az_max": math.pi, "el_min": 0.0, "el_max": math.pi,
}
OPTIMIZER_DEFAULTS = {
    "iters": 5000, "batch": 250, "alpha": 1e-2, "eta": 0.1, "renormalize_every": 1, "record_every": 1,
    "sample_az_min": 0.0, "sample_az_max": 2 * math.pi,
    "sample_el_min": math.pi / 4, "sample_el_max": 3 * math.pi / 4,
}


class TestCliSurface:
    """The flags, config keys and defaults of every subcommand."""

    def test_long_flags_per_subcommand(self):
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {s for a in sub._actions for s in a.option_strings if s.startswith("--") and s != "--help"}
            for name, sub in subparsers.choices.items()
        }
        common = {"--config", "--geometry", "--stacks", "--per-stack", "--spacing-wl", "--radius-wl",
                  "--seed", "--jobs", "--out"}
        grid = {"--grid-az", "--grid-el", "--az-min", "--az-max", "--el-min", "--el-max"}
        optimizer = {"--iters", "--batch", "--alpha", "--eta", "--renormalize-every", "--record-every",
                     "--sample-az-min", "--sample-az-max", "--sample-el-min", "--sample-el-max"}
        assert flags == {
            "design": common | optimizer | {"--channels"},
            "evaluate-scf": common | grid | {"--phi", "--method"},
            "evaluate-crb": common | grid | {"--phi", "--sigma2", "--separation"},
            "sweep": common | grid | optimizer | {"--rates", "--seeds-per-point", "--methods", "--external-phi"},
        }
        assert [len(flags[c]) for c in ("design", "evaluate-scf", "evaluate-crb", "sweep")] == [20, 17, 18, 29]

    def test_config_keys_and_recorded_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ARRAYFORGE_SEED", raising=False)
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(CombiningMatrix(random_unitary(33, np.random.default_rng(0))).to_dict()))
        out = str(tmp_path / "o")
        expected = {
            ("design", "--channels", "3"): {**COMMON_DEFAULTS, **OPTIMIZER_DEFAULTS, "channels": 3},
            ("evaluate-scf", "--phi", str(phi_path)): {
                **COMMON_DEFAULTS, **GRID_DEFAULTS, "phi": str(phi_path), "method": None,
            },
            ("evaluate-crb",): {
                **COMMON_DEFAULTS, **GRID_DEFAULTS, "phi": {}, "sigma2": 1.0, "separation": 2 * math.pi / 10,
            },
            ("sweep",): {
                **COMMON_DEFAULTS, **GRID_DEFAULTS, **OPTIMIZER_DEFAULTS, "rates": (0.2, 0.4, 0.6),
                "seeds_per_point": 5, "methods": ("gaussian", "sgd"), "external_phi": {},
            },
        }
        keys = set()
        for argv, options in expected.items():
            config = parse_and_validate([*argv, "--out", out])
            assert config.options == {**options, "out": out}
            assert config.jobs >= 1
            keys |= set(config.options) | {"jobs"}
        assert len(keys) == 33
        assert keys == {option.name for option in cli.OPTIONS}


def _flag_text(value) -> str:
    if isinstance(value, list):
        return ",".join(map(str, value))
    return value if isinstance(value, str) else repr(value)


_VALUES = {
    cli.INTEGER: st.integers(1, 6),
    cli.NUMBER: st.floats(0.0, 1.0),
    cli.NUMBERS: st.lists(st.floats(0.0, 1.0), max_size=3),
    cli.NAMES: st.lists(st.sampled_from(["gaussian", "sgd", "external"]), max_size=3),
    cli.TEXT: st.from_regex(r"\A[a-z]{1,6}\Z"),
}


def _outcome(argv):
    """What parse_and_validate makes of argv: the error text, or the fields and provenance."""
    try:
        config = parse_and_validate(argv)
    except cli.CliError as exc:
        return "error", str(exc)
    fields = {
        f.name: getattr(config, f.name) for f in dataclasses.fields(config) if f.name != "geometry"
    }
    return fields, config.geometry.to_dict(), cli._provenance(config)


class TestFlagConfigEquivalence:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(list(cli.COMMANDS)), data=st.data())
    def test_flags_and_config_give_equal_results(self, tmp_path_factory, command, data):
        workdir = tmp_path_factory.mktemp("equivalence")
        phi_path = workdir / "phi.json"
        phi_path.write_text(json.dumps(CombiningMatrix(random_unitary(4, np.random.default_rng(0))).to_dict()))
        fixed = ["--out", str(workdir / "out")]
        if command == "evaluate-scf":
            fixed += ["--phi", str(phi_path)]
        values = {}
        for option in cli.OPTIONS:
            if command in option.commands and option.type in _VALUES and option.name not in ("geometry", "out", "phi"):
                if data.draw(st.booleans(), label=f"give {option.name}"):
                    values[option.name] = data.draw(_VALUES[option.type], label=option.name)
        as_flags = [f"--{name.replace('_', '-')}={_flag_text(value)}" for name, value in values.items()]
        cfg = workdir / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, **values}))
        assert _outcome([command, *fixed, *as_flags]) == _outcome([command, *fixed, "--config", str(cfg)])


class TestDesignCommand:
    def test_writes_trace_with_config_echo(self, tmp_path, capsys):
        out = run_design(tmp_path)
        printed = capsys.readouterr().out
        assert str(out) in printed
        doc = json.loads(out.read_text())
        assert doc["channels"] == 2
        assert doc["config"]["iterations"] == 4
        assert doc["config"]["seed"] == 3
        assert len(doc["costs"]) == 4
        assert doc["provenance"]["resolved_options"]["alpha"] == pytest.approx(1e-2)
        phi = CombiningMatrix.from_dict(doc["phi"])
        assert phi.rows == 2 and phi.cols == 4


class TestEvaluateScfCommand:
    def test_pipeline_design_then_evaluate(self, tmp_path):
        trace = run_design(tmp_path)
        out = tmp_path / "scf.csv"
        code = main(
            ["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, "--phi", str(trace), "--out", str(out)]
        )
        assert code == 0
        rows = read_rows(out)
        assert rows[0] == ["rho", "method", "seed", "scf_error"]
        assert len(rows) == 2
        rho, method, seed, error = rows[1]
        assert float(rho) == 0.5
        assert method == "sgd"
        assert seed == "3"
        assert float(error) > 0.0
        assert (tmp_path / "scf_provenance.json").exists()

    def test_bare_matrix_defaults_to_external(self, tmp_path):
        unitary = CombiningMatrix(random_unitary(4, np.random.default_rng(0)))
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(unitary.to_dict()))
        out = tmp_path / "scf.csv"
        code = main(["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, "--phi", str(phi_path), "--out", str(out)])
        assert code == 0
        rows = read_rows(out)
        assert rows[1][1] == "external"
        assert float(rows[1][3]) <= 1e-10

    def test_dimension_mismatch_is_runtime_error(self, tmp_path, capsys):
        unitary = CombiningMatrix(random_unitary(4, np.random.default_rng(0)))
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(unitary.to_dict()))
        code = main(["evaluate-scf", *SMALL_GRID, "--phi", str(phi_path), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "columns" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("config", "seed"), 3.7, "seed"),
            (("config", "iterations"), True, "iterations"),
            (("config", "batch_size"), 5.0, "batch_size"),
            (("config", "renormalize_every"), "1", "renormalize_every"),
            (("config", "record_every"), 1.0, "record_every"),
            (("channels",), 2.9, "channels"),
            (("channels",), 3, "channels"),
            (("costs", 1, 0), 1.0, "costs[1][0]"),
            (("phi", "rows"), 2.0, "rows"),
            (("phi", "cols"), True, "cols"),
        ],
        ids=[
            "seed", "iterations", "batch_size", "renormalize_every", "record_every",
            "channels-float", "channels-not-rows", "cost-iteration", "rows", "cols",
        ],
    )
    def test_trace_integer_fields_read_strictly(self, tmp_path, capsys, path, value, key):
        trace = run_design(tmp_path)
        doc = json.loads(trace.read_text())
        *parents, last = path
        target = doc
        for part in parents:
            target = target[part]
        target[last] = value
        trace.write_text(json.dumps(doc))
        out = tmp_path / "scf.csv"
        code = main(["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, "--phi", str(trace), "--out", str(out)])
        assert code == 1
        assert f'"{key}"' in capsys.readouterr().err
        assert not out.exists()

    def test_missing_phi_file_is_validation_error(self, tmp_path):
        code = main(["evaluate-scf", *SMALL_GEOM, "--phi", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 2


class TestEvaluateCrbCommand:
    def test_accepts_design_trace_input(self, tmp_path):
        trace = run_design(tmp_path)
        out = tmp_path / "crb"
        code = main(
            ["evaluate-crb", *SMALL_GEOM, *SMALL_GRID, "--phi", f"designed={trace}", "--out", str(out)]
        )
        assert code == 0
        assert (out / "crb_designed_single.csv").exists()

    def test_named_phi_and_uncompressed(self, tmp_path):
        phi = CombiningMatrix(random_unitary(4, np.random.default_rng(1))[:2])
        phi_path = tmp_path / "mydesign.json"
        phi_path.write_text(json.dumps(phi.to_dict()))
        out = tmp_path / "crb"
        code = main(
            ["evaluate-crb", *SMALL_GEOM, *SMALL_GRID, "--phi", f"mydesign={phi_path}", "--out", str(out)]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert "crb_uncompressed_single.csv" in names
        assert "crb_mydesign_azimuth-pair.csv" in names
        assert "crb_summary.csv" in names
        summary = read_rows(out / "crb_summary.csv")
        assert len(summary) == 1 + 6

    def test_reserved_name_rejected(self, tmp_path):
        phi = CombiningMatrix(random_unitary(4, np.random.default_rng(1))[:2])
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(phi.to_dict()))
        code = main(
            ["evaluate-crb", *SMALL_GEOM, "--phi", f"uncompressed={phi_path}", "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestSweepCommand:
    def test_cardinality_two_by_two_by_two(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", *SMALL_GEOM, *SMALL_GRID, *FAST_DESIGN,
                "--rates", "0.5,1.0", "--seeds-per-point", "2",
                "--methods", "gaussian,sgd", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out / "scf_sweep_results.csv")
        assert len(rows) == 1 + 8
        per_job = [p for p in out.iterdir() if p.stem.count("_") == 4]
        assert len(per_job) == 8

    def test_external_method_via_flag(self, tmp_path):
        unitary = CombiningMatrix(random_unitary(4, np.random.default_rng(2)))
        phi_path = tmp_path / "ext.json"
        phi_path.write_text(json.dumps(unitary.to_dict()))
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", *SMALL_GEOM, *SMALL_GRID, *FAST_DESIGN,
                "--rates", "1.0", "--seeds-per-point", "1", "--methods", "external",
                "--external-phi", f"1.0={phi_path}", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out / "scf_sweep_results.csv")
        assert rows[1][1] == "external"
        assert float(rows[1][3]) <= 1e-10


class TestDeterminism:
    def test_design_reruns_overwrite_with_identical_bytes(self, tmp_path):
        out = run_design(tmp_path)
        first = out.read_bytes()
        run_design(tmp_path)
        assert out.read_bytes() == first

    def test_design_trace_does_not_depend_on_jobs(self, tmp_path):
        traces = [run_design(tmp_path, extra=["--jobs", jobs]).read_bytes() for jobs in "12"]
        assert traces[0] == traces[1]

    def test_sweep_reruns_overwrite_with_identical_bytes(self, tmp_path):
        args = [
            "sweep", *SMALL_GEOM, *SMALL_GRID, *FAST_DESIGN,
            "--rates", "0.5", "--seeds-per-point", "2", "--methods", "gaussian,sgd",
            "--out", str(tmp_path / "sweep"),
        ]
        assert main(args) == 0
        snapshot = {p.name: p.read_bytes() for p in (tmp_path / "sweep").iterdir()}
        assert main(args) == 0
        again = {p.name: p.read_bytes() for p in (tmp_path / "sweep").iterdir()}
        assert again == snapshot


class TestAtomicWrites:
    def test_interrupted_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        import arrayforge.fileio as fileio

        def explode(src, dst):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(fileio.os, "replace", explode)
        out = tmp_path / "trace.json"
        code = main(["design", *SMALL_GEOM, *FAST_DESIGN, "--channels", "2", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []

    def test_unserializable_payload_leaves_existing_file_intact(self, tmp_path):
        from arrayforge.fileio import atomic_write_json

        target = tmp_path / "data.json"
        target.write_text("{\"old\": true}")
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert json.loads(target.read_text()) == {"old": True}
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "arrayforge", "--version"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "arrayforge" in result.stdout
