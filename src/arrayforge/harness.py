"""Seeded batch experiments: SCF-error sweeps and CRB map suites.

Every job is independent and deterministically seeded, so runs can be
parallelized and always reproduce byte-identical artifacts.  Output rows
are sorted on canonical keys before writing, making the results not
depend on the execution order or the degree of parallelism.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .array_model import ArrayGeometry
from .crb_eval import crb_map, write_crb_map
from .fileio import atomic_write_csv, atomic_write_json
from .scf_objective import CombiningMatrix, ScfGrid, grid_scf_error
from .sgd_designer import OptimizerConfig, design, random_gaussian_phi

__all__ = [
    "SweepSpec",
    "ExperimentReport",
    "channels_for_rate",
    "run_scf_sweep",
    "run_crb_experiment",
    "write_sweep_report",
    "write_crb_report",
]

SWEEP_METHODS = ("gaussian", "sgd", "external")
DEFAULT_SEPARATION = 2.0 * math.pi / 10.0


def channels_for_rate(rate: float, elements: int) -> int:
    """Channel count for a compression rate: M = round(rate * N), half up."""
    if not (math.isfinite(rate) and 0.0 < rate <= 1.0):
        raise ValueError(f"compression rate must lie in (0, 1], got {rate}")
    m = int(math.floor(rate * elements + 0.5))
    if not 1 <= m <= elements:
        raise ValueError(f"rate {rate} maps to {m} channels, outside 1..{elements}")
    return m


@dataclass(frozen=True)
class SweepSpec:
    """One SCF-error sweep: rates x seeds x methods on a fixed grid.

    Per-job seeds are ``optimizer.seed + j`` for j below ``seeds_per_point``;
    the sgd run with seed s starts from the identical Gaussian draw as the
    gaussian baseline with seed s, so the comparison is paired.
    """

    compression_rates: tuple
    seeds_per_point: int
    methods: tuple
    grid: ScfGrid
    optimizer: OptimizerConfig
    external_phi_paths: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "compression_rates", tuple(self.compression_rates))
        object.__setattr__(self, "methods", tuple(self.methods))
        if len(self.compression_rates) < 1:
            raise ValueError("need at least one compression rate")
        for rate in self.compression_rates:
            if not (math.isfinite(rate) and 0.0 < rate <= 1.0):
                raise ValueError(f"compression rate must lie in (0, 1], got {rate}")
        if self.seeds_per_point < 1:
            raise ValueError("seeds_per_point must be at least 1")
        if len(self.methods) < 1:
            raise ValueError("need at least one method")
        for method in self.methods:
            if method not in SWEEP_METHODS:
                raise ValueError(f"unknown method {method!r}; choose from {SWEEP_METHODS}")
        for name, values in (("compression rates", self.compression_rates), ("methods", self.methods)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat, got {values}")
        for key in self.external_phi_paths or {}:
            try:
                float(key)
            except (TypeError, ValueError):
                raise ValueError(f"external matrix keys must be rates, got {key!r}") from None

    def to_dict(self) -> dict:
        return {
            "compression_rates": list(self.compression_rates),
            "seeds_per_point": self.seeds_per_point,
            "methods": list(self.methods),
            "grid": self.grid.to_dict(),
            "optimizer": self.optimizer.to_dict(),
            "external_phi_paths": dict(self.external_phi_paths or {}),
        }


@dataclass
class ExperimentReport:
    """Rows plus aggregates of one experiment, with full provenance."""

    experiment: str
    rows: list
    aggregates: list
    provenance: dict
    maps: list | None = None


def _external_path(spec: SweepSpec, rate: float):
    for key, path in (spec.external_phi_paths or {}).items():
        if math.isclose(float(key), rate, rel_tol=0.0, abs_tol=1e-12):
            return path
    return None


def _sweep_phi(geometry, spec, method, rate, channels, seed):
    if method == "gaussian":
        return random_gaussian_phi(channels, geometry.element_count, seed)
    if method == "sgd":
        trace = design(geometry, channels, replace(spec.optimizer, seed=seed))
        return trace.final_phi
    path = _external_path(spec, rate)
    if path is None:
        raise FileNotFoundError(f"no external combining matrix registered for rate {rate}")
    phi = CombiningMatrix.load(path)
    if (phi.rows, phi.cols) != (channels, geometry.element_count):
        raise ValueError(
            f"external matrix for rate {rate} is {phi.rows} x {phi.cols}, "
            f"expected {channels} x {geometry.element_count}"
        )
    return phi


def _run_jobs(jobs, worker, parallelism):
    if parallelism > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(worker, jobs))
    return [worker(job) for job in jobs]


def run_scf_sweep(geometry: ArrayGeometry, spec: SweepSpec, jobs: int = 1) -> ExperimentReport:
    """Evaluate grid SCF error for every (method, rate, seed) job.

    A job that cannot produce a combining matrix (missing external file)
    yields an error row; the sweep continues.
    """
    elements = geometry.element_count
    for rate in spec.compression_rates:
        channels_for_rate(rate, elements)

    job_list = [
        (method, rate, spec.optimizer.seed + offset)
        for method in spec.methods
        for rate in spec.compression_rates
        for offset in range(spec.seeds_per_point)
    ]

    def worker(job):
        method, rate, seed = job
        channels = channels_for_rate(rate, elements)
        row = {"rho": rate, "method": method, "seed": seed, "channels": channels}
        try:
            phi = _sweep_phi(geometry, spec, method, rate, channels, seed)
            row["scf_error"] = grid_scf_error(geometry, phi, spec.grid)
            row["status"] = "ok"
        except (FileNotFoundError, ValueError) as exc:
            row["scf_error"] = math.nan
            row["status"] = f"error: {exc}"
        return row

    rows = _run_jobs(job_list, worker, jobs)
    rows.sort(key=lambda r: (r["method"], r["rho"], r["seed"]))

    aggregates = []
    for method in sorted(spec.methods):
        for rate in sorted(spec.compression_rates):
            errors = [
                r["scf_error"]
                for r in rows
                if r["method"] == method and r["rho"] == rate and r["status"] == "ok"
            ]
            if not errors:
                continue
            q25, median, q75 = np.percentile(errors, [25.0, 50.0, 75.0])
            aggregates.append(
                {
                    "method": method,
                    "rho": rate,
                    "channels": channels_for_rate(rate, elements),
                    "count": len(errors),
                    "median_scf_error": float(median),
                    "q25_scf_error": float(q25),
                    "q75_scf_error": float(q75),
                }
            )

    provenance = {
        "schema_version": 1,
        "experiment": "scf_sweep",
        "package_version": __version__,
        "geometry": geometry.to_dict(),
        "spec": spec.to_dict(),
        "seeds": [spec.optimizer.seed + j for j in range(spec.seeds_per_point)],
        "channel_rule": "channels = floor(rate * elements + 0.5)",
    }
    return ExperimentReport("scf_sweep", rows, aggregates, provenance)


def run_crb_experiment(
    geometry: ArrayGeometry,
    phis: dict,
    grid: ScfGrid,
    noise_variance: float = 1.0,
    separation: float = DEFAULT_SEPARATION,
) -> ExperimentReport:
    """Compute single / azimuth-pair / elevation-pair bound maps per design.

    ``phis`` maps a label to a CombiningMatrix; the uncompressed array is
    always included under the label "uncompressed".
    """
    if "uncompressed" in phis:
        raise ValueError('the label "uncompressed" is reserved')

    maps, rows = [], []
    for name, phi in sorted({"uncompressed": None, **phis}.items()):
        for kind in sorted(("single", "azimuth-pair", "elevation-pair")):
            sep = None if kind == "single" else separation
            map_ = crb_map(geometry, phi, grid, kind, sep, noise_variance)
            maps.append((name, kind, map_))
            rows.append({"method": name, "kind": kind, **map_.log10_statistics()})

    provenance = {
        "schema_version": 1,
        "experiment": "crb",
        "package_version": __version__,
        "geometry": geometry.to_dict(),
        "grid": grid.to_dict(),
        "noise_variance": noise_variance,
        "separation": separation,
        "methods": ["uncompressed", *sorted(phis)],
    }
    return ExperimentReport("crb", rows, [], provenance, maps=maps)


def _slug(value) -> str:
    text = str(value)
    return "".join(ch if (ch.isalnum() or ch in "._-") else "-" for ch in text)


def write_sweep_report(report: ExperimentReport, outdir) -> list:
    """Write per-job CSVs, a combined results CSV, a summary, and provenance."""
    outdir = Path(outdir)
    written = []
    header = ["rho", "method", "seed", "scf_error", "channels", "status"]

    def encode(row):
        return [
            repr(float(row["rho"])),
            row["method"],
            str(row["seed"]),
            repr(float(row["scf_error"])),
            str(row["channels"]),
            row["status"],
        ]

    for row in report.rows:
        name = f"scf_sweep_{_slug(row['method'])}_{_slug(row['rho'])}_{row['seed']}.csv"
        written.append(atomic_write_csv(outdir / name, header, [encode(row)]))
    written.append(
        atomic_write_csv(outdir / "scf_sweep_results.csv", header, [encode(r) for r in report.rows])
    )
    summary_header = ["method", "rho", "channels", "count", "median_scf_error", "q25_scf_error", "q75_scf_error"]
    summary_rows = [
        [a["method"], repr(float(a["rho"])), str(a["channels"]), str(a["count"]),
         repr(a["median_scf_error"]), repr(a["q25_scf_error"]), repr(a["q75_scf_error"])]
        for a in report.aggregates
    ]
    written.append(atomic_write_csv(outdir / "scf_sweep_summary.csv", summary_header, summary_rows))
    written.append(atomic_write_json(outdir / "scf_sweep_provenance.json", report.provenance))
    return written


def write_crb_report(report: ExperimentReport, outdir) -> list:
    """Write one CSV+JSON pair per map, a summary CSV, and provenance."""
    outdir = Path(outdir)
    written = []
    for name, kind, map_ in report.maps or []:
        csv_path, json_path = write_crb_map(
            map_, outdir / f"crb_{_slug(name)}_{_slug(kind)}.csv", {"method": name}
        )
        written.extend([csv_path, json_path])
    header = ["method", "kind", "cells_total", "cells_ok", "median_log10_crb", "variance_log10_crb"]
    rows = [
        [r["method"], r["kind"], str(r["cells_total"]), str(r["cells_ok"]),
         repr(r["median_log10_crb"]), repr(r["variance_log10_crb"])]
        for r in report.rows
    ]
    written.append(atomic_write_csv(outdir / "crb_summary.csv", header, rows))
    written.append(atomic_write_json(outdir / "crb_provenance.json", report.provenance))
    return written
