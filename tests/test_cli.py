import argparse
import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import arrayforge
from arrayforge import CombiningMatrix, DesignTrace, make_suca, save_geometry
from arrayforge import cli, harness
from arrayforge.cli import main, parse_and_validate
from oracles import random_unitary

SMALL_GEOM = ["--stacks", "1", "--per-stack", "4", "--spacing-wl", "0.5", "--radius-wl", "0.3"]
SMALL_GRID = ["--grid-az", "5", "--grid-el", "4", "--el-min", "0.4", "--el-max", "2.7"]
FAST_DESIGN = ["--iters", "4", "--batch", "5"]
# Parameter value that stands for a key deleted from a document.
MISSING = object()


def run_design(tmp_path, name="trace.json", extra=()):
    out = tmp_path / name
    code = main(
        ["design", *SMALL_GEOM, *FAST_DESIGN, "--channels", "2", "--seed", "3", "--out", str(out), *extra]
    )
    assert code == 0
    return out


def required_options(command, tmp_path) -> list:
    """The options besides --out that ``command`` needs on SMALL_GEOM; --phi names a 2 x 4 matrix in ``tmp_path``."""
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps(CombiningMatrix(np.eye(4)[:2]).to_dict()))
    return {"design": ["--channels", "2"], "evaluate-scf": ["--phi", str(phi)]}.get(command, [])


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
        assert config.options["sigma2"] == 1.0
        assert config.options["separation"] == pytest.approx(2 * math.pi / 10)

    def test_defaults_recorded_in_options(self, tmp_path):
        config = parse_and_validate(["design", "--channels", "3", "--out", str(tmp_path / "t.json")])
        assert config.options["iters"] == 5000
        assert config.options["eta"] == pytest.approx(0.1)

    @pytest.mark.parametrize("cpu_count, cores", [(3, 3), (None, 1)])
    def test_usable_cores_without_affinity_is_the_cpu_count(self, monkeypatch, cpu_count, cores):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert cli._usable_cores() == cores


class TestValidationErrors:
    def test_eta_one_rejected(self, tmp_path, capsys):
        code = main(["design", "--channels", "3", "--eta", "1.0", "--out", str(tmp_path / "t")])
        assert code == 2
        assert "--eta must be in [0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, name, value, message",
        [
            ("design", "stacks", 0, "--stacks must be >= 1, got 0"),
            ("design", "per_stack", 0, "--per-stack must be >= 1, got 0"),
            ("design", "spacing_wl", 0.0, "--spacing-wl must be positive, got 0.0"),
            ("design", "radius_wl", -0.5, "--radius-wl must be >= 0, got -0.5"),
            ("design", "iters", -1, "--iters must be >= 0, got -1"),
            ("design", "batch", 0, "--batch must be >= 1, got 0"),
            ("design", "alpha", -1.0, "--alpha must be positive, got -1.0"),
            ("design", "record_every", 0, "--record-every must be >= 1, got 0"),
            ("sweep", "grid_az", 1, "--grid-az must be >= 2, got 1"),
            ("evaluate-crb", "grid_el", 1, "--grid-el must be >= 2, got 1"),
            ("sweep", "seeds_per_point", 0, "--seeds-per-point must be >= 1, got 0"),
            ("sweep", "jobs", 0, "--jobs must be >= 1, got 0"),
            ("sweep", "rates", [1.5], "--rates must be numbers in (0, 1], got (1.5,)"),
        ],
    )
    def test_single_option_bound_names_its_flag(self, tmp_path, capsys, source, command, name, value, message):
        # these used to exit 2 naming the library field (iterations, step_size, ...) instead of the flag
        out = tmp_path / "o"
        argv = [command, *required_options(command, tmp_path), "--out", str(out)]
        if source == "flag":
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += ["--" + name.replace("_", "-"), text]
        else:
            (tmp_path / "config.json").write_text(json.dumps({"schema_version": 1, name: value}))
            argv += ["--config", str(tmp_path / "config.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_rejected(self, tmp_path, capsys, monkeypatch, command, source):
        # design used to run in full and then fail to write; sweep wrote into the working directory
        extra = required_options(command, tmp_path)
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        if source == "flag":
            out = ["--out", ""]
        else:
            (tmp_path / "config.json").write_text(json.dumps({"schema_version": 1, "out": ""}))
            out = ["--config", str(tmp_path / "config.json")]
        assert main([command, *SMALL_GEOM, *extra, *out]) == 2
        assert "--out must be a nonempty path, got ''" in capsys.readouterr().err
        assert list(run_dir.iterdir()) == []

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("case", ["wrong-kind", "under-a-file"])
    def test_out_of_the_wrong_kind_rejected(self, tmp_path, capsys, command, case):
        # these used to run the whole command and then exit 1 with EISDIR, EEXIST or ENOTDIR
        extra = required_options(command, tmp_path)
        a_file, a_dir = tmp_path / "afile", tmp_path / "adir"
        a_file.write_text("x")
        a_dir.mkdir()
        writes_a_file = command in ("design", "evaluate-scf")
        if case == "wrong-kind":
            out, message = (a_dir, "is a directory") if writes_a_file else (a_file, "is a file")
        else:
            out = a_file / ("t.json" if writes_a_file else "sub")
            message = f"lies under {a_file}, which is not a directory"
        assert main([command, *SMALL_GEOM, *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err and message in err
        assert a_file.read_text() == "x" and list(a_dir.iterdir()) == []

    @pytest.mark.parametrize("command", ["design", "evaluate-scf"])
    def test_file_out_ending_in_a_separator_rejected(self, tmp_path, capsys, command):
        # Path() dropped the separator, so "newdir/" used to be written as the file newdir, with exit 0
        extra = required_options(command, tmp_path)
        out = str(tmp_path / "newdir") + os.sep
        assert main([command, *SMALL_GEOM, *extra, "--out", out]) == 2
        assert f"--out must name a file for {command}, but {out} ends in a path separator" in capsys.readouterr().err
        assert not (tmp_path / "newdir").exists()
        assert not (tmp_path / "newdir_provenance.json").exists()

    @pytest.mark.parametrize("flag", ["--config", "--geometry", "--phi", "--external-phi"])
    def test_deeply_nested_document_is_validation_error_naming_its_file(self, tmp_path, capsys, flag):
        # json raises RecursionError on such a document, which used to escape as a traceback with exit 1
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100000)
        out = tmp_path / "out"
        argv = {
            "--config": ["design", "--channels", "2", "--config", str(deep)],
            "--geometry": ["design", "--channels", "2", "--geometry", str(deep)],
            "--phi": ["evaluate-scf", *SMALL_GEOM, "--phi", str(deep)],
            "--external-phi": ["sweep", *SMALL_GEOM, "--methods", "external", "--rates", "0.5",
                               "--external-phi", f"0.5={deep}"],
        }[flag]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "could not read" in err and str(deep) in err
        assert not out.exists()

    def test_evaluate_scf_sidecar_that_is_a_directory_rejected(self, tmp_path, capsys):
        # this used to score the matrix and write q.csv, then exit 1 with EISDIR, leaving no provenance
        extra = required_options("evaluate-scf", tmp_path)
        sidecar = tmp_path / "q_provenance.json"
        sidecar.mkdir()
        assert main(["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, *extra, "--out", str(tmp_path / "q.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{sidecar} is a directory" in err
        assert not (tmp_path / "q.csv").exists() and list(sidecar.iterdir()) == []

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_out_of_the_right_kind_accepted(self, tmp_path, command):
        extra = required_options(command, tmp_path)
        existing = tmp_path / "phi.json" if command in ("design", "evaluate-scf") else tmp_path
        for out in (existing, tmp_path / "new" / "deeper" / "out"):
            assert parse_and_validate([command, *SMALL_GEOM, *extra, "--out", str(out)]).out == out

    @pytest.mark.parametrize("command", ["evaluate-crb", "sweep"])
    def test_root_directory_out_accepted(self, command):
        # the root has no parent, and validation used to raise StopIteration scanning its parents;
        # main would write into it, so only validation runs here
        assert parse_and_validate([command, *SMALL_GEOM, "--out", "/"]).out == Path("/")

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

    @pytest.mark.parametrize(
        "command, key, value",
        [("design", "sigma2", 5.0), ("evaluate-scf", "rates", [0.3]), ("evaluate-crb", "channels", 2),
         ("sweep", "method", "gaussian")],
    )
    def test_config_key_of_another_command_rejected(self, tmp_path, capsys, command, key, value):
        # The flag is unrecognized for this command, so the config key is too.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, key: value}))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"unknown keys: {key} (not options of {command})" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_renormalization_period_is_no_longer_an_option(self, tmp_path, capsys, source):
        # The designer renormalizes after every step, so the period that was once an option is unknown.
        argv = ["design", "--channels", "2", "--out", str(tmp_path / "t")]
        if source == "flag":
            argv += ["--renormalize-every", "1"]
            message = "unrecognized arguments: --renormalize-every"
        else:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({"schema_version": 1, "renormalize_every": 1}))
            argv += ["--config", str(cfg)]
            message = "unknown keys: renormalize_every"
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps([{"schema_version": 1}]))
        code = main(["design", "--channels", "2", "--config", str(cfg), "--out", str(tmp_path / "t")])
        assert code == 2
        assert f"config file {cfg} must hold a JSON object" in capsys.readouterr().err

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
            ("sweep", {"rates": 0.4}, "--rates"),
            ("evaluate-crb", {"phi": 5}, "--phi"),
            ("design", {"alpha": int("1" * 401)}, "--alpha"),
            # true and 1.0 equal 1 in Python, but neither is a JSON integer
            ("design", {"schema_version": True}, "schema_version"),
            ("design", {"schema_version": 1.0}, "schema_version"),
        ],
    )
    def test_config_values_coerced_strictly(self, tmp_path, capsys, command, values, flag):
        grid = {"grid_az": 3, "grid_el": 3}
        base = {
            "design": {"channels": 2, "iters": 2, "batch": 3},
            "evaluate-scf": grid,
            "evaluate-crb": grid,
            "sweep": {**grid, "rates": [0.5], "methods": ["gaussian"], "seeds_per_point": 1},
        }[command]
        cfg = tmp_path / "config.json"
        common = {"schema_version": 1, "out": str(tmp_path / "o")}
        cfg.write_text(json.dumps({**common, **base, **values}))
        assert main([command, "--config", str(cfg)]) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("channels", ["0", "34"])
    def test_channels_out_of_range_rejected(self, tmp_path, capsys, channels):
        out = tmp_path / "t.json"
        assert main(["design", "--channels", channels, "--out", str(out)]) == 2
        assert f"--channels must lie in 1..33, got {channels}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["design", "--channels", "2", "--alpha", "nan"], "--alpha must be a finite number, got 'nan'"),
            (["design", "--channels", "2", "--alpha", "inf"], "--alpha must be a finite number, got 'inf'"),
            (["sweep", "--rates", ""], "need at least one compression rate"),
        ],
        ids=["alpha-nan", "alpha-inf", "rates-empty"],
    )
    def test_flag_values_rejected(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_methods_rejected(self, tmp_path, capsys):
        code = main(["sweep", *SMALL_GEOM, *SMALL_GRID, "--methods", "", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "need at least one method" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--rates", "0.5,0.5"], ["--methods", "gaussian,gaussian"], ["--methods", "gaussian, gaussian"]]
    )
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
        assert parse_and_validate(args).options["seed"] == 7
        assert parse_and_validate([*args, "--seed", "9"]).options["seed"] == 9

    def test_config_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ARRAYFORGE_SEED", "7")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"schema_version": 1, "seed": 5}))
        args = ["design", "--channels", "3", "--config", str(cfg), "--out", str(tmp_path / "t.json")]
        assert parse_and_validate(args).options["seed"] == 5

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
    "iters": 5000, "batch": 250, "alpha": 1e-2, "eta": 0.1, "record_every": 1,
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
        optimizer = {"--iters", "--batch", "--alpha", "--eta", "--record-every",
                     "--sample-az-min", "--sample-az-max", "--sample-el-min", "--sample-el-max"}
        assert flags == {
            "design": common | optimizer | {"--channels"},
            "evaluate-scf": common | grid | {"--phi", "--method"},
            "evaluate-crb": common | grid | {"--phi", "--sigma2", "--separation"},
            "sweep": common | grid | optimizer | {"--rates", "--seeds-per-point", "--methods", "--external-phi"},
        }
        assert [len(flags[c]) for c in ("design", "evaluate-scf", "evaluate-crb", "sweep")] == [19, 17, 18, 28]

    def test_config_keys_and_recorded_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv("ARRAYFORGE_SEED", raising=False)
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(CombiningMatrix(random_unitary(33, np.random.default_rng(0))).to_dict()))
        out = str(tmp_path / "o")
        expected = {
            ("design", "--channels", "3"): {**COMMON_DEFAULTS, **OPTIMIZER_DEFAULTS, "channels": 3},
            ("evaluate-scf", "--phi", str(phi_path)): {
                **COMMON_DEFAULTS, **GRID_DEFAULTS, "phi": str(phi_path), "method": "external",
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
        assert len(keys) == 32
        assert keys == {option.name for option in cli.OPTIONS}

    def test_every_default_is_its_own_coercion_within_its_bound(self):
        # A default is used as it stands, so coercion must leave it unchanged; coerce raises outside the bound.
        for option in cli.OPTIONS:
            if option.default is not None and option.default is not cli._REQUIRED:
                assert repr(option.coerce(option.default, option.flag)) == repr(option.default), option.name


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
    # Library objects such as CombiningMatrix compare by identity; compare their documents.
    fields = {
        f.name: getattr(config, f.name) for f in dataclasses.fields(config) if f.name != "geometry"
    }
    fields = {name: value.to_dict() if hasattr(value, "to_dict") else value for name, value in fields.items()}
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

    def test_overflowing_design_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["design", "--channels", "13", "--iters", "50", "--alpha", "1e200", "--out", str(out)])
        assert caught == []
        assert code == 1
        message = "cannot normalize a matrix with a zero column or a column norm that overflows"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_infinite_design_step_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["design", "--channels", "13", "--iters", "50", "--alpha", "1e308", "--out", str(out)])
        assert caught == []
        assert code == 1
        assert capsys.readouterr().err == "error: combining weights must be finite\n"
        assert not out.exists()

    def test_geometry_file_designs_like_suca_flags(self, tmp_path):
        geometry_file = tmp_path / "geometry.json"
        save_geometry(make_suca(1, 4, 0.5, 0.3), geometry_file)
        suca = json.loads(run_design(tmp_path, "suca.json").read_text())
        out = tmp_path / "file.json"
        argv = ["design", "--geometry", str(geometry_file), *FAST_DESIGN, "--channels", "2", "--seed", "3"]
        assert main([*argv, "--out", str(out)]) == 0
        from_file = json.loads(out.read_text())
        options = from_file["provenance"].pop("resolved_options")
        suca_options = suca["provenance"].pop("resolved_options")
        assert from_file == suca
        # The file is echoed and the SUCA options are null; every other option is the same.
        expected = {**suca_options, "out": str(out), "geometry": str(geometry_file), **dict.fromkeys(cli._SUCA_KEYS)}
        assert options == expected


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

    @pytest.mark.parametrize(
        "command, phi", [("evaluate-scf", "{}"), ("evaluate-crb", "z={}")], ids=["evaluate-scf", "evaluate-crb"]
    )
    def test_dimension_mismatch_is_validation_error(self, tmp_path, capsys, command, phi):
        unitary = CombiningMatrix(random_unitary(4, np.random.default_rng(0)))
        phi_path = tmp_path / "phi.json"
        phi_path.write_text(json.dumps(unitary.to_dict()))
        out = tmp_path / "out"
        code = main([command, *SMALL_GRID, "--phi", phi.format(phi_path), "--out", str(out / "o.csv")])
        assert code == 2
        assert (
            f"could not read combining matrix {phi_path}: combining matrix has 4 columns but the array has 33 elements"
            in capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("seed", [[], ["--seed", "5"]], ids=["trace-seed", "given-seed"])
    def test_echo_holds_the_method_and_seed_used(self, tmp_path, seed):
        trace = run_design(tmp_path)
        out = tmp_path / "scf.csv"
        argv = ["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, "--phi", str(trace), *seed, "--out", str(out)]
        assert main(argv) == 0
        _, method, row_seed, _ = read_rows(out)[1]
        options = json.loads((tmp_path / "scf_provenance.json").read_text())["resolved_options"]
        assert (method, row_seed) == ("sgd", seed[-1] if seed else "3")
        assert (options["method"], options["seed"]) == (method, int(row_seed))

    @pytest.mark.parametrize(
        "path, value, key",
        [
            (("config", "seed"), 3.7, "seed"),
            (("config", "iterations"), True, "iterations"),
            (("config", "batch_size"), 5.0, "batch_size"),
            (("config", "record_every"), 1.0, "record_every"),
            (("channels",), 2.9, "channels"),
            (("channels",), 3, "channels"),
            (("costs", 1, 0), 1.0, "costs[1][0]"),
            (("phi", "rows"), 2.0, "rows"),
            (("phi", "cols"), True, "cols"),
            (("costs",), MISSING, "costs"),
            (("channels",), MISSING, "channels"),
            (("config",), MISSING, "config"),
            (("config", "seed"), MISSING, "seed"),
            (("config", "step_size"), MISSING, "step_size"),
            (("phi", "im"), MISSING, "im"),
            (("phi",), MISSING, "phi"),
            (("config",), 5, "config"),
            (("costs",), 5, "costs"),
            (("costs", 1), 5, "costs"),
            (("costs", 1, 1), "0.5", "costs[1][1]"),
            (("phi",), [], "phi"),
            (("config", "azimuth_range"), "ab", "azimuth_range"),
            (("config", "elevation_range", 1), "2.0", "elevation_range"),
            (("config", "step_size"), "0.5", "step_size"),
            (("config", "drag"), False, "drag"),
            (("phi", "re", 0, 0), "1", "re"),
            (("phi", "im", 0, 0), True, "im"),
            (("costs", 1, 1), math.nan, "costs[1][1]"),
        ],
        ids=[
            "seed", "iterations", "batch_size", "record_every",
            "channels-float", "channels-not-rows", "cost-iteration", "rows", "cols",
            "no-costs", "no-channels", "no-config", "no-seed", "no-step_size", "no-im",
            "no-phi", "config-number", "costs-number", "cost-entry-number", "cost-value-string",
            "phi-list", "range-string", "range-bound-string", "step_size-string", "drag-bool",
            "re-string", "im-bool", "cost-nan",
        ],
    )
    def test_trace_integer_fields_read_strictly(self, tmp_path, capsys, path, value, key):
        trace = run_design(tmp_path)
        doc = json.loads(trace.read_text())
        *parents, last = path
        target = doc
        for part in parents:
            target = target[part]
        if value is MISSING:
            del target[last]
        else:
            target[last] = value
        trace.write_text(json.dumps(doc))
        out = tmp_path / "scf.csv"
        code = main(["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, "--phi", str(trace), "--out", str(out)])
        assert code == 2
        assert f'"{key}"' in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("period", [1, 3])
    def test_trace_with_a_renormalization_period_still_reads(self, tmp_path, period):
        # Traces written while the renormalization period was an option record it in their config.
        trace = run_design(tmp_path)
        doc = json.loads(trace.read_text())
        old_doc = {**doc, "config": {**doc["config"], "renormalize_every": period}}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(old_doc))
        assert DesignTrace.from_dict(old_doc).to_dict() == DesignTrace.from_dict(doc).to_dict()
        rows = []
        for path in (trace, old):
            out = tmp_path / f"{path.stem}.csv"
            assert main(["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, "--phi", str(path), "--out", str(out)]) == 0
            rows.append(read_rows(out))
        assert rows[0] == rows[1]

    def test_trace_iterations_must_increase(self, tmp_path, capsys):
        trace = run_design(tmp_path)
        doc = json.loads(trace.read_text())
        doc["costs"][1][0] = doc["costs"][0][0]
        trace.write_text(json.dumps(doc))
        out = tmp_path / "scf.csv"
        code = main(["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, "--phi", str(trace), "--out", str(out)])
        assert code == 2
        assert "recorded iterations must be strictly increasing" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "bad_text, fragment",
        [
            ("{not json", "Expecting property name"),
            (json.dumps({"rows": 1, "cols": 4, "re": [[1.0, 0.0, 0.0, 0.0]]}), '"im"'),
            ("[1, 2]", "must be a JSON object"),
            (json.dumps({"rows": 1, "cols": 4, "re": [[int("1" * 401), 0, 0, 0]], "im": [[0, 0, 0, 0]]}),
             '"re" must be a finite number'),
            (json.dumps({"rows": 1, "cols": 4, "re": [[math.nan, 0, 0, 0]], "im": [[0, 0, 0, 0]]}),
             '"re" must be a finite number'),
        ],
        ids=["not-json", "no-im", "json-list", "re-overflow", "re-nan"],
    )
    def test_malformed_document_is_validation_error_naming_its_file(self, tmp_path, capsys, bad_text, fragment):
        doc = CombiningMatrix(random_unitary(4, np.random.default_rng(1))[:2]).to_dict()
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(doc))
        bad.write_text(bad_text)
        out = tmp_path / "crb"
        code = main(
            ["evaluate-crb", *SMALL_GEOM, *SMALL_GRID, "--phi", f"a={good}", "--phi", f"b={bad}", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and str(good) not in err and fragment in err
        assert not out.exists()

    def test_noise_variance_that_underflows_the_bound_fails(self, tmp_path, capsys):
        # exit 0 with 0.0 at "ok" cells, a -inf median and two numpy warnings, before the bound was checked
        out = tmp_path / "crb"
        assert main(["evaluate-crb", "--grid-az", "5", "--grid-el", "3", "--sigma2", "5e-324", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: noise variance 5e-324 puts the bound outside the range of normal positive floats\n"
        )
        assert not out.exists()

    def test_huge_noise_variance_scales_ok_cells_without_warnings(self, tmp_path, capsys):
        # 1e308 overflowed, with a warning, in arithmetic on flagged cells (the suite makes that warning exit 1)
        argv = ["evaluate-crb", "--grid-az", "5", "--grid-el", "3"]
        assert main([*argv, "--sigma2", "1e308", "--out", str(tmp_path / "huge")]) == 0
        assert capsys.readouterr().err == ""
        assert main([*argv, "--out", str(tmp_path / "unit")]) == 0
        for kind in ("single", "azimuth-pair", "elevation-pair"):
            huge, unit = (read_rows(tmp_path / out / f"crb_uncompressed_{kind}.csv")[1:] for out in ("huge", "unit"))
            assert [row[3] for row in huge] == [row[3] for row in unit]
            ok = [row[3] == "ok" for row in unit]
            assert any(ok) and not all(ok)
            values = [(float(h[2]), float(u[2])) for h, u, cell_ok in zip(huge, unit, ok) if cell_ok]
            assert all(h == u * 1e308 for h, u in values)


class TestInputsReadAtValidation:
    """parse_and_validate reads every --phi and --external-phi document; run only computes and writes."""

    @pytest.mark.parametrize(
        "command, phi, out",
        [("evaluate-scf", "{}", "scf.csv"), ("evaluate-crb", "designed={}", ".")],
    )
    def test_run_reads_no_input_file(self, tmp_path, command, phi, out):
        trace = run_design(tmp_path)
        out_dir = tmp_path / "out"
        argv = [command, *SMALL_GEOM, *SMALL_GRID, "--phi", phi.format(trace), "--out", str(out_dir / out)]

        def artifacts():
            return {path.name: path.read_bytes() for path in out_dir.iterdir()}

        assert cli.run(parse_and_validate(argv)) == 0
        expected = artifacts()
        shutil.rmtree(out_dir)
        config = parse_and_validate(argv)
        trace.unlink()
        assert cli.run(config) == 0
        assert artifacts() == expected

    def test_sweep_reads_each_external_document_once(self, tmp_path, monkeypatch):
        paths = [run_design(tmp_path, name) for name in ("a.json", "b.json")]
        reads = []

        def counting_load_json(path):
            reads.append(Path(path))
            return json.loads(Path(path).read_text())

        monkeypatch.setattr(cli, "load_json", counting_load_json)
        # Both rates give 2 channels on 4 elements.
        argv = [
            "sweep", *SMALL_GEOM, *SMALL_GRID, "--rates", "0.4,0.5", "--seeds-per-point", "3",
            "--methods", "external", "--external-phi", f"0.4={paths[0]}", "--external-phi", f"0.5={paths[1]}",
            "--out", str(tmp_path / "sweep"),
        ]
        config = parse_and_validate(argv)
        for path in paths:
            path.unlink()
        assert cli.run(config) == 0
        assert reads == paths
        rows = read_rows(tmp_path / "sweep" / "scf_sweep_results.csv")[1:]
        assert [row[5] for row in rows] == ["ok"] * 6


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

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (lambda trace: json.dumps({key: value for key, value in trace.items() if key != "costs"}), '"costs"'),
            (lambda trace: json.dumps({**trace, "config": 5}), '"config"'),
            (lambda trace: "{not json", "Expecting property name"),
            (lambda trace: json.dumps(CombiningMatrix(np.ones((1, 4))).to_dict()), "is 1 x 4, expected 4 x 4"),
            (lambda trace: None, "not found"),
        ],
        ids=["trace-without-costs", "trace-config-a-number", "not-json", "wrong-shape", "missing-file"],
    )
    def test_bad_external_document_exits_2_naming_its_file(self, tmp_path, capsys, content, fragment):
        good = run_design(tmp_path)
        bad = tmp_path / "bad.json"
        text = content(json.loads(good.read_text()))
        if text is not None:
            bad.write_text(text)
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", *SMALL_GEOM, *SMALL_GRID, "--rates", "0.5,1.0", "--seeds-per-point", "1",
                "--methods", "gaussian,external", "--external-phi", f"0.5={good}", "--external-phi", f"1.0={bad}",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(bad) in err and str(good) not in err and fragment in err
        assert not out.exists()

    def test_rate_without_matrix_is_an_error_row(self, tmp_path):
        trace = run_design(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", *SMALL_GEOM, *SMALL_GRID, "--rates", "0.5,1.0", "--seeds-per-point", "1",
                "--methods", "external", "--external-phi", f"0.5={trace}", "--out", str(out),
            ]
        )
        assert code == 0
        ok, missing = read_rows(out / "scf_sweep_results.csv")[1:]
        assert ok[5] == "ok"
        assert missing[5] == "error: no external combining matrix registered for rate 1.0"

    def test_external_design_trace_scores_like_evaluate_scf(self, tmp_path):
        trace = run_design(tmp_path)
        scf = tmp_path / "scf.csv"
        assert main(["evaluate-scf", *SMALL_GEOM, *SMALL_GRID, "--phi", str(trace), "--out", str(scf)]) == 0
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", *SMALL_GEOM, *SMALL_GRID, "--rates", "0.5", "--seeds-per-point", "1",
                "--methods", "external", "--external-phi", f"0.5={trace}", "--out", str(out),
            ]
        )
        assert code == 0
        row = read_rows(out / "scf_sweep_results.csv")[1]
        assert row[5] == "ok"
        assert row[3] == read_rows(scf)[1][3]

    @pytest.mark.parametrize(
        "rates, methods, key, message",
        [
            ("0.5", "gaussian,external", "0.75", "names no rate"),
            ("0.75", "gaussian", "0.75", "not among methods"),
            ("0.5", "external", "0.5000000000001", "names no rate"),
            ("0.5", "external", "half", "external matrix keys must be rates, got 'half'"),
        ],
        ids=["key-of-no-rate", "external-not-a-method", "key-near-a-rate", "key-not-a-number"],
    )
    def test_unused_external_phi_exits_2(self, tmp_path, capsys, rates, methods, key, message):
        unitary = CombiningMatrix(random_unitary(4, np.random.default_rng(2)))
        phi_path = tmp_path / "bare.json"
        phi_path.write_text(json.dumps(unitary.to_dict()))
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", *SMALL_GEOM, *SMALL_GRID, "--rates", rates, "--seeds-per-point", "1",
                "--methods", methods, "--external-phi", f"{key}={phi_path}", "--out", str(out),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestRepeatedInputs:
    """An input named twice is rejected, never silently dropped."""

    @pytest.mark.parametrize(
        "command, pairs",
        [
            ("evaluate-crb", ["--phi", "a={x}", "--phi", "a={y}"]),
            ("evaluate-crb", ["--phi", "x={y}", "--phi", "={x}"]),
            ("evaluate-crb", ["--phi", "a b={x}", "--phi", "a-b={y}"]),
            ("sweep", ["--methods", "external", "--external-phi", "1.0={x}", "--external-phi", "1.00={y}"]),
        ],
        ids=["repeated-key", "colliding-label", "same-file-name", "equal-rates"],
    )
    def test_exits_2(self, tmp_path, capsys, command, pairs):
        unitary = CombiningMatrix(random_unitary(4, np.random.default_rng(2)))
        paths = {name: tmp_path / f"{name}.json" for name in "xy"}
        for path in paths.values():
            path.write_text(json.dumps(unitary.to_dict()))
        out = tmp_path / "out"
        argv = [command, *SMALL_GEOM, *SMALL_GRID, *(p.format(**paths) for p in pairs), "--out", str(out)]
        if command == "sweep":
            argv += ["--rates", "1.0", "--seeds-per-point", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestDeterminism:
    def test_design_reruns_overwrite_with_identical_bytes(self, tmp_path):
        out = run_design(tmp_path)
        first = out.read_bytes()
        run_design(tmp_path)
        assert out.read_bytes() == first

    def test_design_trace_does_not_depend_on_jobs(self, tmp_path):
        traces = [run_design(tmp_path, extra=["--jobs", jobs]).read_bytes() for jobs in "12"]
        assert traces[0] == traces[1]

    def test_sweep_artifacts_do_not_depend_on_jobs(self, tmp_path):
        snapshots, out = [], tmp_path / "sweep"
        for jobs in "12":
            args = [
                "sweep", *SMALL_GEOM, *SMALL_GRID, *FAST_DESIGN, "--rates", "0.5,1.0",
                "--seeds-per-point", "2", "--methods", "gaussian,sgd", "--jobs", jobs, "--out", str(out),
            ]
            assert main(args) == 0
            snapshots.append({p.name: p.read_bytes() for p in out.iterdir()})
            shutil.rmtree(out)
        assert len(snapshots[0]) == 11
        assert snapshots[0] == snapshots[1]

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


SWEEP_ARGS = [
    "sweep", *SMALL_GEOM, *SMALL_GRID, *FAST_DESIGN,
    "--rates", "0.5", "--seeds-per-point", "1", "--methods", "gaussian,sgd",
]


@pytest.fixture
def blas_control():
    """OpenBLAS (set, get) thread-count functions; skips where numpy has none."""
    control = harness._openblas_thread_control()
    if control is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread control")
    return control


def _package_env() -> dict:
    """Environment in which a child interpreter imports this checkout's package."""
    source = str(Path(arrayforge.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}


class TestBlasPin:
    """CLI commands and run_scf_sweep run with one OpenBLAS thread and restore the caller's count."""

    def test_import_leaves_thread_count_alone(self, blas_control):
        probe = (
            "import arrayforge, arrayforge.cli\n"
            "set_threads, get_threads = arrayforge.harness._openblas_thread_control()\n"
            "print(get_threads())\n"
        )
        env = {**_package_env(), "OPENBLAS_NUM_THREADS": "2"}
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "2"

    def test_in_process_main_pins_then_restores(self, blas_control, tmp_path, monkeypatch):
        set_threads, get_threads = blas_control
        before = get_threads()
        set_threads(2)
        seen, run = [], cli.run

        def spy(config):
            seen.append((get_threads(), config.blas_threads))
            return run(config)

        monkeypatch.setattr(cli, "run", spy)
        try:
            assert main([*SWEEP_ARGS, "--jobs", "2", "--out", str(tmp_path / "sweep")]) == 0
            assert seen == [(1, 1)]
            assert get_threads() == 2
        finally:
            set_threads(before)
        provenance = json.loads((tmp_path / "sweep" / "scf_sweep_provenance.json").read_text())
        assert provenance["blas_threads"] == 1

    def test_module_run_records_one_blas_thread(self, blas_control, tmp_path):
        out = tmp_path / "sweep"
        result = subprocess.run(
            [sys.executable, "-m", "arrayforge", *SWEEP_ARGS, "--out", str(out)],
            capture_output=True, text=True, env=_package_env(),
        )
        assert result.returncode == 0, result.stderr
        provenance = json.loads((out / "scf_sweep_provenance.json").read_text())
        assert provenance["blas_threads"] == 1

    def test_library_sweep_matches_cli_at_any_jobs_and_caller_count(self, blas_control, tmp_path):
        # At two OpenBLAS threads the unpinned library sweep used to differ from the CLI's rows in the last bits.
        set_threads, get_threads = blas_control
        before = get_threads()
        argv = ["sweep", "--rates", "0.2,0.4", "--seeds-per-point", "2", "--methods", "gaussian,sgd",
                "--iters", "5", "--grid-az", "31", "--grid-el", "16", "--jobs", "2"]
        config = parse_and_validate([*argv, "--out", str(tmp_path / "unused")])
        geometry, spec = config.geometry, config.spec
        interval = sys.getswitchinterval()
        set_threads(2)
        try:
            assert main([*argv, "--out", str(tmp_path / "sweep")]) == 0
            assert get_threads() == 2
            by_jobs = {jobs: harness.run_scf_sweep(geometry, spec, jobs=jobs).rows for jobs in (1, 2)}
            assert get_threads() == 2
            # More sweeps at once than cores, switching threads often: a lost restore would leave 1.
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(harness.run_scf_sweep, geometry, spec, 2) for _ in range(4)]
                concurrent = [future.result(timeout=60) for future in futures]
            assert get_threads() == 2
        finally:
            sys.setswitchinterval(interval)
            set_threads(before)
        with open(tmp_path / "sweep" / "scf_sweep_results.csv", newline="") as handle:
            cli_errors = [float(row["scf_error"]) for row in csv.DictReader(handle)]
        assert len(cli_errors) == 8
        for rows in (by_jobs[1], by_jobs[2], *(report.rows for report in concurrent)):
            assert [row["scf_error"] for row in rows] == cli_errors
            assert all(row["status"] == "ok" for row in rows)

    def test_failing_command_restores_the_count(self, blas_control, tmp_path, capsys):
        set_threads, get_threads = blas_control
        before = get_threads()
        set_threads(2)
        try:
            # the design diverges at run time: exit 1, not a validation failure
            assert main(["design", *SMALL_GEOM, *FAST_DESIGN, "--channels", "2", "--alpha", "1e308",
                         "--out", str(tmp_path / "t.json")]) == 1
            assert get_threads() == 2
        finally:
            set_threads(before)
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_whose_job_raises_restores_the_count(self, blas_control, tmp_path, monkeypatch):
        set_threads, get_threads = blas_control
        before = get_threads()
        config = parse_and_validate([*SWEEP_ARGS, "--out", str(tmp_path / "unused")])

        def explode(*args):
            raise RuntimeError("job failed")

        monkeypatch.setattr(harness, "random_gaussian_phi", explode)
        set_threads(2)
        try:
            for jobs in (1, 2):
                with pytest.raises(RuntimeError, match="job failed"):
                    harness.run_scf_sweep(config.geometry, config.spec, jobs=jobs)
                assert get_threads() == 2
        finally:
            set_threads(before)

    def test_unpinned_run_records_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_openblas_thread_control", lambda: None)
        out = run_design(tmp_path)
        assert json.loads(out.read_text())["provenance"]["blas_threads"] is None

    @pytest.mark.parametrize("fallback", ["no RTLD_NOLOAD", "CDLL raises OSError", "no setter/getter pair"])
    def test_without_thread_control_the_sweep_runs_unpinned(self, tmp_path, monkeypatch, fallback):
        import ctypes

        def refuse(*args):
            raise OSError("cannot open the library")

        # every setter resolves, but none has its getter
        setters_only = types.SimpleNamespace(**dict.fromkeys(name for name, _ in harness._BLAS_THREAD_SYMBOLS))
        config = parse_and_validate([*SWEEP_ARGS, "--out", str(tmp_path / "unused")])
        pinned = harness.run_scf_sweep(config.geometry, config.spec).rows
        real = harness._openblas_thread_control()
        monkeypatch.setattr(os, "RTLD_NOLOAD", getattr(os, "RTLD_NOLOAD", 0), raising=False)
        if fallback == "no RTLD_NOLOAD":
            monkeypatch.delattr(os, "RTLD_NOLOAD")
        elif fallback == "CDLL raises OSError":
            monkeypatch.setattr(ctypes, "CDLL", refuse)
        else:
            monkeypatch.setattr(ctypes, "CDLL", lambda *args: setters_only)
        assert harness._openblas_thread_control() is None
        with harness._one_blas_thread() as threads:
            assert threads is None
        # Unpinned, the sweep runs at the caller's count; at one thread its rows are the pinned ones.
        before = real[1]() if real else None
        try:
            if real:
                real[0](1)
            assert harness.run_scf_sweep(config.geometry, config.spec, jobs=2).rows == pinned
        finally:
            if real:
                real[0](before)


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

    def test_design_writes_a_245_byte_file_name(self, tmp_path):
        # The temporary file's name does not grow with the target's, so 245 bytes of 255 is fine.
        out = tmp_path / ("a" * 240 + ".json")
        code = main(["design", *SMALL_GEOM, "--iters", "1", "--batch", "5", "--channels", "2", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["channels"] == 2


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "arrayforge", "--version"], capture_output=True, text=True, env=_package_env()
        )
        assert result.returncode == 0
        assert "arrayforge" in result.stdout
