"""Command-line front end: design, evaluate-scf, evaluate-crb, sweep.

Every option is declared once, as a row of ``OPTIONS``: the row names the
flag and the config-file key, coerces the value, and holds the default.
Option precedence is flags over config-file values over built-in defaults
(the seed additionally falls back to the ARRAYFORGE_SEED environment
variable before the default).  Flag strings and config JSON values go
through the same coercer, and every coerced value, defaults included, is
echoed into the provenance block of the artifacts it produced, except
``--jobs``, which results do not depend on.

Exit status: 0 on success, 2 for validation failures (unknown flags,
malformed or out-of-range values, missing files), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ._version import __version__
from .array_model import ArrayGeometry, load_geometry, make_suca
from .fileio import atomic_write_csv, atomic_write_json, load_json
from .harness import (
    DEFAULT_SEPARATION,
    SweepSpec,
    channels_for_rate,
    run_crb_experiment,
    run_scf_sweep,
    write_crb_report,
    write_sweep_report,
)
from .scf_objective import CombiningMatrix, ScfGrid, grid_scf_error
from .sgd_designer import DesignTrace, OptimizerConfig, design

__all__ = ["CliConfig", "OPTIONS", "parse_and_validate", "run", "main", "console_main"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
CONFIG_SCHEMA_VERSION = 1
SEED_ENV_VAR = "ARRAYFORGE_SEED"


class CliError(Exception):
    """Base class for validation failures; mapped to exit status 2."""


class OptionValueError(CliError):
    """A flag or config value is out of range or malformed."""


class MissingInputError(CliError):
    """A referenced input file does not exist."""


class ConfigFileError(CliError):
    """The config file is malformed, unversioned, or has unknown keys."""


def _integer(value) -> int:
    if isinstance(value, str):
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError
    return value


def _number(value) -> float:
    if isinstance(value, str):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError
    return float(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


def _listed(item: Callable) -> Callable:
    def parse(value) -> tuple:
        if isinstance(value, str):
            value = [part for part in value.split(",") if part.strip()]
        if not isinstance(value, list):
            raise TypeError
        return tuple(item(part) for part in value)

    return parse


def _pairs(value) -> dict:
    if isinstance(value, list):
        value = dict(_text(item).split("=", 1) for item in value)
    if not isinstance(value, dict):
        raise TypeError
    return {key: _text(path) for key, path in value.items()}


@dataclass(frozen=True)
class OptionType:
    """A strict coercer for flag strings and config JSON values alike."""

    description: str
    parse: Callable


INTEGER = OptionType("an integer", _integer)
NUMBER = OptionType("a finite number", _number)
TEXT = OptionType("a string", _text)
NUMBERS = OptionType("comma-separated numbers or a JSON list of numbers", _listed(_number))
NAMES = OptionType("comma-separated names or a JSON list of strings", _listed(_text))
PAIRS = OptionType("repeated KEY=PATH flags or a JSON object of paths", _pairs)

_REQUIRED = object()


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class Option:
    """One option: flag ``--name`` (``-`` for ``_``) and config key ``name``.

    ``bound`` is a ``(predicate, description)`` pair for single-option
    bounds that no library constructor checks; cross-field checks belong
    to the library objects built from the options.
    """

    name: str
    type: OptionType
    default: object
    commands: tuple
    help: str
    bound: tuple | None = None

    @property
    def flag(self) -> str:
        return _flag(self.name)

    def coerce(self, value, source: str):
        try:
            result = self.type.parse(value)
        except (TypeError, ValueError):
            raise OptionValueError(f"{source} must be {self.type.description}, got {value!r}") from None
        if self.bound is not None and not self.bound[0](result):
            raise OptionValueError(f"{source} must be {self.bound[1]}, got {result!r}")
        return result


COMMANDS = {
    "design": "run one SGD design",
    "evaluate-scf": "grid SCF error of one combining matrix",
    "evaluate-crb": "CRB maps for named combining matrices",
    "sweep": "SCF error vs compression rate",
}
_ALL = tuple(COMMANDS)
_GRID = ("evaluate-scf", "evaluate-crb", "sweep")
_OPTIMIZER = ("design", "sweep")
_POSITIVE = (lambda v: v > 0.0, "positive")

OPTIONS = (
    Option("geometry", TEXT, None, _ALL, "geometry JSON file (excludes the SUCA options)"),
    Option("stacks", INTEGER, 3, _ALL, "SUCA stack count"),
    Option("per_stack", INTEGER, 11, _ALL, "SUCA elements per stack"),
    Option("spacing_wl", NUMBER, 0.5, _ALL, "SUCA stack spacing in wavelengths"),
    Option("radius_wl", NUMBER, 0.68, _ALL, "SUCA ring radius in wavelengths"),
    Option("seed", INTEGER, 0, _ALL, f"random seed (falls back to {SEED_ENV_VAR})", (lambda v: v >= 0, ">= 0")),
    # Only sweep runs jobs in parallel; results do not depend on it, so it is not recorded.
    Option("jobs", INTEGER, os.cpu_count() or 1, _ALL, "sweep worker threads", (lambda v: v >= 1, ">= 1")),
    Option("out", TEXT, _REQUIRED, _ALL, "output file or directory"),
    Option("channels", INTEGER, _REQUIRED, ("design",), "channel count M, 1 <= M <= N"),
    Option("iters", INTEGER, 5000, _OPTIMIZER, "SGD iterations"),
    Option("batch", INTEGER, 250, _OPTIMIZER, "directions per SGD batch"),
    Option("alpha", NUMBER, 1e-2, _OPTIMIZER, "SGD step size"),
    Option("eta", NUMBER, 0.1, _OPTIMIZER, "momentum drag", (lambda v: 0.0 <= v < 1.0, "in [0, 1)")),
    Option("renormalize_every", INTEGER, 1, _OPTIMIZER, "column renormalization period"),
    Option("record_every", INTEGER, 1, _OPTIMIZER, "cost recording period"),
    Option("sample_az_min", NUMBER, 0.0, _OPTIMIZER, "lowest sampled azimuth"),
    Option("sample_az_max", NUMBER, 2.0 * math.pi, _OPTIMIZER, "highest sampled azimuth"),
    Option("sample_el_min", NUMBER, math.pi / 4.0, _OPTIMIZER, "lowest sampled polar elevation"),
    Option("sample_el_max", NUMBER, 3.0 * math.pi / 4.0, _OPTIMIZER, "highest sampled polar elevation"),
    Option("grid_az", INTEGER, 121, _GRID, "grid azimuth count"),
    Option("grid_el", INTEGER, 61, _GRID, "grid elevation count"),
    Option("az_min", NUMBER, -math.pi, _GRID, "grid azimuth start"),
    Option("az_max", NUMBER, math.pi, _GRID, "grid azimuth end"),
    Option("el_min", NUMBER, 0.0, _GRID, "grid polar elevation start"),
    Option("el_max", NUMBER, math.pi, _GRID, "grid polar elevation end"),
    Option("phi", TEXT, _REQUIRED, ("evaluate-scf",), "combining matrix or design trace JSON"),
    Option("method", TEXT, None, ("evaluate-scf",), "method label for the CSV row"),
    Option("phi", PAIRS, {}, ("evaluate-crb",),
           "NAME=PATH of a combining matrix JSON (repeatable); uncompressed always included"),
    Option("sigma2", NUMBER, 1.0, ("evaluate-crb",), "noise variance", _POSITIVE),
    Option("separation", NUMBER, DEFAULT_SEPARATION, ("evaluate-crb",), "pair separation", _POSITIVE),
    Option("rates", NUMBERS, (0.2, 0.4, 0.6), ("sweep",), "comma-separated compression rates in (0, 1]"),
    Option("seeds_per_point", INTEGER, 5, ("sweep",), "seeds per (method, rate)"),
    Option("methods", NAMES, ("gaussian", "sgd"), ("sweep",), "comma-separated subset of gaussian,sgd,external"),
    Option("external_phi", PAIRS, {}, ("sweep",), "RATE=PATH of an externally designed matrix (repeatable)"),
)

_SUCA_KEYS = ("stacks", "per_stack", "spacing_wl", "radius_wl")


@dataclass
class CliConfig:
    """Fully resolved and validated invocation of one subcommand.

    ``options`` holds the coerced value of every option the subcommand
    takes except ``jobs``: the provenance echo.
    """

    command: str
    geometry: ArrayGeometry
    out: Path
    seed: int
    jobs: int
    options: dict
    seed_given: bool = False
    optimizer: OptimizerConfig | None = None
    grid: ScfGrid | None = None
    spec: SweepSpec | None = None
    channels: int | None = None
    phi_path: Path | None = None
    method: str | None = None
    sigma2: float = 1.0
    separation: float = DEFAULT_SEPARATION
    phi_inputs: dict = field(default_factory=dict)

    @property
    def rates(self) -> tuple:
        return self.spec.compression_rates

    @property
    def seeds_per_point(self) -> int:
        return self.spec.seeds_per_point

    @property
    def methods(self) -> tuple:
        return self.spec.methods


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrayforge",
        description="Design and evaluate analog combining matrices for compressive arrays.",
    )
    parser.add_argument("--version", action="version", version=f"arrayforge {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        sub = commands.add_parser(command, help=text)
        sub.add_argument("--config", help="JSON config file (flags override it)")
        for option in OPTIONS:
            if command in option.commands:
                action = "append" if option.type is PAIRS else "store"
                sub.add_argument(option.flag, dest=option.name, action=action, help=option.help)
    return parser


def _load_config_file(path_text: str) -> dict:
    path = Path(path_text)
    if not path.is_file():
        raise MissingInputError(f"config file not found: {path}")
    try:
        data = load_json(path)
    except Exception as exc:
        raise ConfigFileError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigFileError(f"config file {path} must hold a JSON object")
    if data.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigFileError(
            f"config file {path} must declare \"schema_version\": {CONFIG_SCHEMA_VERSION}"
        )
    unknown = sorted(set(data) - {option.name for option in OPTIONS} - {"schema_version"})
    if unknown:
        raise ConfigFileError(
            f"config file {path} has unknown keys: {', '.join(unknown)}"
        )
    return {k: v for k, v in data.items() if k != "schema_version"}


def _resolve(command: str, flags: dict, file_values: dict) -> tuple:
    """Coerced values of the command's options and the names given explicitly.

    Precedence: flag > config file > ARRAYFORGE_SEED (seed only) > default.
    """
    values, given = {}, set()
    for option in OPTIONS:
        if command not in option.commands:
            continue
        if flags.get(option.name) is not None:
            raw, source = flags[option.name], option.flag
        elif option.name in file_values:
            raw, source = file_values[option.name], option.flag
        elif option.name == "seed" and SEED_ENV_VAR in os.environ:
            raw, source = os.environ[SEED_ENV_VAR], SEED_ENV_VAR
        elif option.default is _REQUIRED:
            raise OptionValueError(f"{option.flag} is required for {command}")
        else:
            values[option.name] = option.default
            continue
        values[option.name] = option.coerce(raw, source)
        given.add(option.name)
    return values, given


def _require_file(kind: str, path_text: str) -> Path:
    path = Path(path_text)
    if not path.is_file():
        raise MissingInputError(f"{kind} file not found: {path}")
    return path


def _resolve_geometry(values: dict, given: set) -> ArrayGeometry:
    if values["geometry"] is None:
        return make_suca(*(values[key] for key in _SUCA_KEYS))
    suca_given = [key for key in _SUCA_KEYS if key in given]
    if suca_given:
        flags = ", ".join(map(_flag, suca_given))
        raise OptionValueError(f"exactly one geometry source: drop {flags} or drop --geometry")
    path = _require_file("geometry", values["geometry"])
    try:
        geometry = load_geometry(path)
    except Exception as exc:
        raise OptionValueError(f"could not read geometry {path}: {exc}") from None
    for key in _SUCA_KEYS:
        values[key] = None
    return geometry


def _build(command: str, v: dict, given: set) -> CliConfig:
    """Build the library objects from the coerced values ``v``.

    The library constructors make the cross-field checks; their
    ``ValueError`` is a validation failure.
    """
    geometry = _resolve_geometry(v, given)
    jobs = v.pop("jobs")
    cfg = CliConfig(
        command=command,
        geometry=geometry,
        out=Path(v["out"]),
        seed=v["seed"],
        jobs=jobs,
        options=v,
        seed_given="seed" in given,
    )
    if command in _GRID:
        cfg.grid = ScfGrid(
            v["grid_az"], v["grid_el"], (v["az_min"], v["az_max"]), (v["el_min"], v["el_max"])
        )
    if command in _OPTIMIZER:
        cfg.optimizer = OptimizerConfig(
            iterations=v["iters"],
            batch_size=v["batch"],
            step_size=v["alpha"],
            drag=v["eta"],
            azimuth_range=(v["sample_az_min"], v["sample_az_max"]),
            elevation_range=(v["sample_el_min"], v["sample_el_max"]),
            seed=v["seed"],
            renormalize_every=v["renormalize_every"],
            record_every=v["record_every"],
        )
    if command == "design":
        # design() checks this only when it runs, which would exit 1.
        if not 1 <= v["channels"] <= geometry.element_count:
            raise OptionValueError(
                f"--channels must lie in 1..{geometry.element_count}, got {v['channels']}"
            )
        cfg.channels = v["channels"]
    elif command == "evaluate-scf":
        cfg.phi_path = _require_file("combining matrix", v["phi"])
        cfg.method = v["method"]
    elif command == "evaluate-crb":
        for name, path_text in v["phi"].items():
            path = _require_file("combining matrix", path_text)
            label = name or path.stem
            if label == "uncompressed":
                raise OptionValueError('the label "uncompressed" is reserved')
            cfg.phi_inputs[label] = path
        cfg.sigma2 = v["sigma2"]
        cfg.separation = v["separation"]
    elif command == "sweep":
        for path_text in v["external_phi"].values():
            _require_file("external combining matrix", path_text)
        cfg.spec = SweepSpec(
            compression_rates=v["rates"],
            seeds_per_point=v["seeds_per_point"],
            methods=v["methods"],
            grid=cfg.grid,
            optimizer=cfg.optimizer,
            external_phi_paths=v["external_phi"] or None,
        )
        for rate in cfg.spec.compression_rates:
            channels_for_rate(rate, geometry.element_count)
    return cfg


def parse_and_validate(argv) -> CliConfig:
    """Parse argv (plus optional config file) into a validated CliConfig."""
    flags = vars(_build_parser().parse_args(argv))
    command = flags.pop("command")
    config_file = flags.pop("config")
    values, given = _resolve(command, flags, _load_config_file(config_file) if config_file else {})
    try:
        return _build(command, values, given)
    except ValueError as exc:
        raise OptionValueError(str(exc)) from None


def _provenance(config: CliConfig) -> dict:
    return {
        "schema_version": 1,
        "command": config.command,
        "package_version": __version__,
        "geometry": config.geometry.to_dict(),
        "resolved_options": config.options,
    }


def _emit(path: Path, detail: str) -> None:
    print(f"wrote {path} ({detail})")


def _run_design(config: CliConfig) -> int:
    trace = design(config.geometry, config.channels, config.optimizer)
    doc = trace.to_dict()
    doc["provenance"] = _provenance(config)
    atomic_write_json(config.out, doc)
    last = trace.costs[-1][1] if trace.costs else math.nan
    _emit(
        config.out,
        f"channels={config.channels}, iterations={config.optimizer.iterations}, "
        f"last_recorded_cost={last:.6g}",
    )
    return EXIT_OK


def _load_phi_document(path: Path):
    """Accept either a bare combining-matrix JSON or a design-trace JSON."""
    data = load_json(path)
    if isinstance(data, dict) and "phi" in data:
        trace = DesignTrace.from_dict(data)
        return trace.final_phi, "sgd", trace.config.seed
    return CombiningMatrix.from_dict(data), "external", None


def _run_evaluate_scf(config: CliConfig) -> int:
    phi, inferred_method, inferred_seed = _load_phi_document(config.phi_path)
    method = config.method if config.method is not None else inferred_method
    seed = config.seed
    if not config.seed_given and inferred_seed is not None:
        seed = inferred_seed
    error = grid_scf_error(config.geometry, phi, config.grid)
    rho = phi.rows / config.geometry.element_count
    atomic_write_csv(
        config.out,
        ["rho", "method", "seed", "scf_error"],
        [[repr(rho), method, str(seed), repr(error)]],
    )
    _emit(config.out, f"rho={rho:.6g}, method={method}, scf_error={error:.6g}")
    sidecar = config.out.parent / (config.out.stem + "_provenance.json")
    doc = _provenance(config)
    doc["grid"] = config.grid.to_dict()
    doc["phi_file"] = str(config.phi_path)
    atomic_write_json(sidecar, doc)
    _emit(sidecar, "provenance")
    return EXIT_OK


def _run_evaluate_crb(config: CliConfig) -> int:
    phis = {name: _load_phi_document(path)[0] for name, path in config.phi_inputs.items()}
    report = run_crb_experiment(
        config.geometry, phis, config.grid, noise_variance=config.sigma2, separation=config.separation
    )
    report.provenance.update(_provenance(config))
    for path in write_crb_report(report, config.out):
        _emit(path, "crb artifact")
    return EXIT_OK


def _run_sweep(config: CliConfig) -> int:
    report = run_scf_sweep(config.geometry, config.spec, jobs=config.jobs)
    report.provenance.update(_provenance(config))
    for path in write_sweep_report(report, config.out):
        _emit(path, "sweep artifact")
    return EXIT_OK


_RUNNERS = {
    "design": _run_design,
    "evaluate-scf": _run_evaluate_scf,
    "evaluate-crb": _run_evaluate_crb,
    "sweep": _run_sweep,
}


def run(config: CliConfig) -> int:
    """Dispatch a validated CliConfig to its workflow."""
    return _RUNNERS[config.command](config)


def main(argv=None) -> int:
    try:
        config = parse_and_validate(list(argv) if argv is not None else sys.argv[1:])
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return run(config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    raise SystemExit(main())
