"""Command-line front end: design, evaluate-scf, evaluate-crb, sweep.

Every option is declared once, as a row of ``OPTIONS``: the row names the
flag and the config-file key, coerces the value, and holds the default.
Option precedence is flags over config-file values over built-in defaults
(the seed additionally falls back to the ARRAYFORGE_SEED environment
variable before the default).  Flag strings and config JSON values go
through the same coercer (a string is read first, then the value is typed
by ``fileio._json_value``), and every coerced value, defaults included, is
echoed into the provenance block of the artifacts it produced, except
``--jobs``, which results do not depend on.

Exit status: 0 on success, 2 for validation failures (unknown flags,
malformed or out-of-range values, missing or malformed input files, the
message naming the file, an ``--out`` that names an existing path of the
wrong kind or lies under a non-directory, a file ``--out`` that ends in a
path separator), 1 for runtime failures.
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
from .fileio import _JSON_KINDS, _json_value, atomic_write_csv, atomic_write_json, load_json
from .harness import (
    DEFAULT_SEPARATION,
    SWEEP_METHODS,
    SweepSpec,
    _check_labels,
    _one_blas_thread,
    _provenance_head,
    _sweep_channels,
    run_crb_experiment,
    run_scf_sweep,
    write_crb_report,
    write_sweep_report,
)
from .scf_objective import CombiningMatrix, ScfGrid, _require_compatible, grid_scf_error
from .sgd_designer import DesignTrace, OptimizerConfig, design

__all__ = ["CliConfig", "OPTIONS", "parse_and_validate", "run", "main", "console_main"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
CONFIG_SCHEMA_VERSION = 1
SEED_ENV_VAR = "ARRAYFORGE_SEED"


class CliError(Exception):
    """A validation failure (bad value, missing file, bad config file): exit status 2."""


@dataclass(frozen=True)
class OptionType:
    """A strict coercer for flag strings and config JSON values alike."""

    description: str
    parse: Callable


def _scalar(kind: type) -> OptionType:
    """The coercer of JSON ``kind`` (int, float or str); a flag string is read as ``kind`` first."""

    def parse(value):
        return _json_value(kind(value) if isinstance(value, str) else value, "", kind)

    return OptionType(_JSON_KINDS[kind][0], parse)


INTEGER = _scalar(int)
NUMBER = _scalar(float)
TEXT = _scalar(str)


def _listed(item: Callable) -> Callable:
    def parse(value) -> tuple:
        if isinstance(value, str):
            value = [part for part in map(str.strip, value.split(",")) if part]
        return tuple(item(part) for part in _json_value(value, "", list))

    return parse


def _pairs(value) -> dict:
    if isinstance(value, list):
        pairs = [TEXT.parse(item).split("=", 1) for item in value]
        value = dict(pairs)
        if len(value) != len(pairs):
            raise ValueError
    return {key: TEXT.parse(path) for key, path in _json_value(value, "", dict).items()}


NUMBERS = OptionType("comma-separated numbers or a JSON list of numbers", _listed(NUMBER.parse))
NAMES = OptionType("comma-separated names or a JSON list of strings", _listed(TEXT.parse))
PAIRS = OptionType("KEY=PATH flags with distinct keys or a JSON object of paths", _pairs)

_REQUIRED = object()


def _usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class Option:
    """One option: flag ``--name`` (``-`` for ``_``) and config key ``name``.

    ``bound`` is a ``(predicate, description)`` pair for single-option
    bounds; cross-field checks belong to the library objects built from
    the options.  Those objects (``OptimizerConfig``, ``ScfGrid``,
    ``SweepSpec``) check many single-option bounds too, but the CLI keeps
    them so that the message names the flag.
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
        except ValueError:
            raise CliError(f"{source} must be {self.type.description}, got {value!r}") from None
        if self.bound is not None and not self.bound[0](result):
            raise CliError(f"{source} must be {self.bound[1]}, got {result!r}")
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
_DIRECTORY_OUT = ("evaluate-crb", "sweep")
_POSITIVE = (lambda v: v > 0.0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, ">= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_GRID_COUNT = (lambda v: v >= 2, ">= 2")
_SGD = OptimizerConfig()

OPTIONS = (
    Option("geometry", TEXT, None, _ALL, "geometry JSON file (excludes the SUCA options)"),
    Option("stacks", INTEGER, 3, _ALL, "SUCA stack count", _AT_LEAST_ONE),
    Option("per_stack", INTEGER, 11, _ALL, "SUCA elements per stack", _AT_LEAST_ONE),
    Option("spacing_wl", NUMBER, 0.5, _ALL, "SUCA stack spacing in wavelengths", _POSITIVE),
    Option("radius_wl", NUMBER, 0.68, _ALL, "SUCA ring radius in wavelengths", _NONNEGATIVE),
    Option("seed", INTEGER, _SGD.seed, _ALL,
           f"random seed (falls back to {SEED_ENV_VAR}; evaluate-crb only records it)", _NONNEGATIVE),
    # Only sweep runs jobs in parallel; results do not depend on it, so it is not recorded.
    Option("jobs", INTEGER, _usable_cores(), _ALL,
           "sweep worker threads, each using one BLAS thread (default: the cores this process may use);"
           " the other commands ignore it", _AT_LEAST_ONE),
    Option("out", TEXT, _REQUIRED, _ALL, "output file (design, evaluate-scf) or directory (evaluate-crb, sweep)",
           (lambda v: v != "", "a nonempty path")),
    Option("channels", INTEGER, _REQUIRED, ("design",), "channel count M, 1 <= M <= N"),
    Option("iters", INTEGER, _SGD.iterations, _OPTIMIZER, "SGD iterations", _NONNEGATIVE),
    Option("batch", INTEGER, _SGD.batch_size, _OPTIMIZER, "directions per SGD batch", _AT_LEAST_ONE),
    Option("alpha", NUMBER, _SGD.step_size, _OPTIMIZER, "SGD step size", _POSITIVE),
    Option("eta", NUMBER, _SGD.drag, _OPTIMIZER, "momentum drag", (lambda v: 0.0 <= v < 1.0, "in [0, 1)")),
    Option("record_every", INTEGER, _SGD.record_every, _OPTIMIZER, "cost recording period (sweep ignores it)",
           _AT_LEAST_ONE),
    Option("sample_az_min", NUMBER, _SGD.azimuth_range[0], _OPTIMIZER, "lowest sampled azimuth"),
    Option("sample_az_max", NUMBER, _SGD.azimuth_range[1], _OPTIMIZER, "highest sampled azimuth"),
    Option("sample_el_min", NUMBER, _SGD.elevation_range[0], _OPTIMIZER, "lowest sampled polar elevation"),
    Option("sample_el_max", NUMBER, _SGD.elevation_range[1], _OPTIMIZER, "highest sampled polar elevation"),
    Option("grid_az", INTEGER, 121, _GRID, "grid azimuth count", _GRID_COUNT),
    Option("grid_el", INTEGER, 61, _GRID, "grid elevation count", _GRID_COUNT),
    Option("az_min", NUMBER, -math.pi, _GRID, "grid azimuth start"),
    Option("az_max", NUMBER, math.pi, _GRID, "grid azimuth end"),
    Option("el_min", NUMBER, 0.0, _GRID, "grid polar elevation start"),
    Option("el_max", NUMBER, math.pi, _GRID, "grid polar elevation end"),
    Option("phi", TEXT, _REQUIRED, ("evaluate-scf",), "combining matrix or design trace JSON"),
    Option("method", TEXT, None, ("evaluate-scf",), "method label for the CSV row"),
    Option("phi", PAIRS, {}, ("evaluate-crb",),
           "NAME=PATH of a combining matrix or design trace JSON (repeatable); uncompressed always included"),
    Option("sigma2", NUMBER, 1.0, ("evaluate-crb",), "noise variance", _POSITIVE),
    Option("separation", NUMBER, DEFAULT_SEPARATION, ("evaluate-crb",), "pair separation", _POSITIVE),
    Option("rates", NUMBERS, (0.2, 0.4, 0.6), ("sweep",), "comma-separated compression rates in (0, 1]",
           (lambda v: all(0.0 < rate <= 1.0 for rate in v), "numbers in (0, 1]")),
    Option("seeds_per_point", INTEGER, 5, ("sweep",), "seeds per (method, rate)", _AT_LEAST_ONE),
    Option("methods", NAMES, ("gaussian", "sgd"), ("sweep",),
           f"comma-separated subset of {','.join(SWEEP_METHODS)}"),
    Option("external_phi", PAIRS, {}, ("sweep",),
           "RATE=PATH of an externally designed matrix or design trace JSON (repeatable)"),
)

_SUCA_KEYS = ("stacks", "per_stack", "spacing_wl", "radius_wl")


@dataclass
class CliConfig:
    """Fully resolved and validated invocation of one subcommand.

    ``options`` holds the coerced value of every option the subcommand
    takes except ``jobs``: the provenance echo, and the runners' source of
    scalar options, evaluate-scf's method and seed as used (taken from the
    document when not given).  The other fields are the objects built from
    it, every input document included, so the runners read no input file:
    evaluate-scf's ``phi``, evaluate-crb's ``phis`` by label, the sweep's
    ``spec.external_phis`` by rate.  ``blas_threads`` is the OpenBLAS
    thread count ``main`` ran the command with (None: unpinned).
    """

    command: str
    geometry: ArrayGeometry
    out: Path
    jobs: int
    options: dict
    optimizer: OptimizerConfig | None = None
    grid: ScfGrid | None = None
    spec: SweepSpec | None = None
    phi: CombiningMatrix | None = None
    phis: dict = field(default_factory=dict)
    blas_threads: int | None = None

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


def _read_input(kind: str, path_text: str, reader: Callable):
    """``reader(path)`` of one input file; a missing file or a reader's OSError or ValueError is a CliError.

    So is the RecursionError that json raises on a document nested too deeply.
    """
    path = Path(path_text)
    if not path.is_file():
        raise CliError(f"{kind} file not found: {path}")
    try:
        return reader(path)
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"could not read {kind} {path}: {exc}") from None


def _load_phi_document(path) -> tuple:
    """Read a bare combining-matrix JSON or a design-trace JSON.

    A document with any of the trace keys "phi", "costs" or "config" is
    read as a trace.  Returns the matrix and the trace it came from (None
    for a bare matrix).
    """
    data = load_json(path)
    if isinstance(data, dict) and not data.keys().isdisjoint(("phi", "costs", "config")):
        trace = DesignTrace.from_dict(data)
        return trace.final_phi, trace
    return CombiningMatrix.from_dict(data), None


def _load_config_file(path_text: str) -> dict:
    path = Path(path_text)
    data = _read_input("config", path_text, load_json)
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    try:  # true and 1.0 equal 1 in Python, but neither is a JSON integer
        version = _json_value(data.get("schema_version"), "schema_version", int)
    except ValueError:
        version = None
    if version != CONFIG_SCHEMA_VERSION:
        raise CliError(
            f"config file {path} must declare \"schema_version\": {CONFIG_SCHEMA_VERSION}"
        )
    unknown = sorted(set(data) - {option.name for option in OPTIONS} - {"schema_version"})
    if unknown:
        raise CliError(
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
            raise CliError(f"{option.flag} is required for {command}")
        else:
            values[option.name] = option.default
            continue
        values[option.name] = option.coerce(raw, source)
        given.add(option.name)
    return values, given


def _resolve_geometry(values: dict, given: set) -> ArrayGeometry:
    if values["geometry"] is None:
        return make_suca(*(values[key] for key in _SUCA_KEYS))
    suca_given = [key for key in _SUCA_KEYS if key in given]
    if suca_given:
        flags = ", ".join(map(_flag, suca_given))
        raise CliError(f"exactly one geometry source: drop {flags} or drop --geometry")
    geometry = _read_input("geometry", values["geometry"], load_geometry)
    for key in _SUCA_KEYS:
        values[key] = None
    return geometry


def _scf_sidecar(out: Path) -> Path:
    """The provenance file that evaluate-scf writes next to its CSV ``out``."""
    return out.parent / (out.stem + "_provenance.json")


def _out_path(command: str, text: str) -> Path:
    """``--out`` as a path, unless it (or evaluate-scf's sidecar) cannot become the file or directory written."""
    out = Path(text)
    kinds, directory = ("file", "directory"), command in _DIRECTORY_OUT
    # Path() drops a trailing separator, which would turn "newdir/" into the file newdir.
    if not directory and text[-1:] in (os.sep, os.altsep):
        raise CliError(f"--out must name a file for {command}, but {text} ends in a path separator")
    for path in (out, _scf_sidecar(out)) if command == "evaluate-scf" else (out,):
        if os.path.exists(path) and os.path.isdir(path) != directory:
            kind, other = kinds[directory], kinds[not directory]
            raise CliError(f"--out must name a {kind} for {command}, but {path} is a {other}")
    # The root has no parent to scan; every other path has the root among its parents.
    above = next((parent for parent in out.absolute().parents if os.path.exists(parent)), None)
    if above is not None and not os.path.isdir(above):
        raise CliError(f"--out {out} lies under {above}, which is not a directory")
    return out


def _build(command: str, v: dict, given: set) -> CliConfig:
    """Build the library objects from the coerced values ``v``.

    The library constructors make the cross-field checks; their
    ``ValueError`` is a validation failure.
    """
    geometry = _resolve_geometry(v, given)
    cfg = CliConfig(
        command=command,
        geometry=geometry,
        out=_out_path(command, v["out"]),
        jobs=v.pop("jobs"),
        options=v,
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
            record_every=v["record_every"],
        )
    if command == "design" and not 1 <= v["channels"] <= geometry.element_count:
        # design() checks this only when it runs, which would exit 1.
        raise CliError(f"--channels must lie in 1..{geometry.element_count}, got {v['channels']}")

    def read_phi(path):  # a --phi matrix must have one column per array element
        phi, trace = _load_phi_document(path)
        _require_compatible(geometry, phi)
        return phi, trace
    if command == "evaluate-scf":
        cfg.phi, trace = _read_input("combining matrix", v["phi"], read_phi)
        if v["method"] is None:
            v["method"] = "external" if trace is None else "sgd"
        if trace is not None and "seed" not in given:
            v["seed"] = trace.config.seed
    elif command == "evaluate-crb":
        labels = [name or Path(text).stem for name, text in v["phi"].items()]
        _check_labels(labels)
        documents = [_read_input("combining matrix", text, read_phi) for text in v["phi"].values()]
        cfg.phis = {label: phi for label, (phi, _) in zip(labels, documents)}
    elif command == "sweep":
        keys, sources, phis = {}, {}, {}
        for key, path_text in v["external_phi"].items():
            try:
                rate = float(key)
            except ValueError:
                raise CliError(f"external matrix keys must be rates, got {key!r}") from None
            if rate in keys:
                raise CliError(f"external matrix keys {keys[rate]!r} and {key!r} name the same rate")
            keys[rate], sources[rate] = key, path_text
            phis[rate], _ = _read_input("external combining matrix", path_text, _load_phi_document)
        cfg.spec = SweepSpec(
            compression_rates=v["rates"],
            seeds_per_point=v["seeds_per_point"],
            methods=v["methods"],
            grid=cfg.grid,
            optimizer=cfg.optimizer,
            external_phis=phis,
        )
        _sweep_channels(geometry, cfg.spec, sources)
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
        raise CliError(str(exc)) from None


def _provenance(config: CliConfig, **fields) -> dict:
    return _provenance_head(
        config.geometry,
        command=config.command,
        resolved_options=config.options,
        blas_threads=config.blas_threads,
        **fields,
    )


def _emit(path: Path, detail: str) -> None:
    print(f"wrote {path} ({detail})")


def _run_design(config: CliConfig) -> int:
    trace = design(config.geometry, config.options["channels"], config.optimizer)
    doc = trace.to_dict()
    doc["provenance"] = _provenance(config)
    atomic_write_json(config.out, doc)
    last = trace.costs[-1][1] if trace.costs else math.nan
    _emit(
        config.out,
        f"channels={trace.channels}, iterations={config.optimizer.iterations}, "
        f"last_recorded_cost={last:.6g}",
    )
    return EXIT_OK


def _run_evaluate_scf(config: CliConfig) -> int:
    phi, v = config.phi, config.options
    error = grid_scf_error(config.geometry, phi, config.grid)
    rho = phi.rows / config.geometry.element_count
    atomic_write_csv(config.out, ["rho", "method", "seed", "scf_error"], [[rho], [v["method"]], [v["seed"]], [error]])
    _emit(config.out, f"rho={rho:.6g}, method={v['method']}, scf_error={error:.6g}")
    sidecar = _scf_sidecar(config.out)
    atomic_write_json(sidecar, _provenance(config, grid=config.grid.to_dict(), phi_file=str(Path(v["phi"]))))
    _emit(sidecar, "provenance")
    return EXIT_OK


def _run_evaluate_crb(config: CliConfig) -> int:
    v = config.options
    report = run_crb_experiment(
        config.geometry, config.phis, config.grid, noise_variance=v["sigma2"], separation=v["separation"]
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
        with _one_blas_thread() as config.blas_threads:
            return run(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def console_main() -> None:
    raise SystemExit(main())
