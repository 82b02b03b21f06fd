"""Seeded batch experiments: SCF-error sweeps and CRB map suites.

Every job is independent and deterministically seeded, so runs can be
parallelized and always reproduce byte-identical artifacts.  A sweep
lists its jobs in artifact order and gets its rows back in job order, so
the results do not depend on the execution order or the degree of
parallelism.  A sweep runs with numpy's OpenBLAS pinned to one thread
(``_one_blas_thread``), so the pool's threads are the only parallelism and
its rows do not depend on the caller's BLAS thread count.

This module owns the artifact names and writes every report and CRB map
file through ``fileio``; design labels name the map files, so the label
rule lives here too.  It reads no input file: designs arrive as matrices.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .array_model import ArrayGeometry
from .crb_eval import _MAP_KINDS, CrbMap, _shared_pass, crb_map
from .fileio import atomic_write_csv, atomic_write_json, canonical_json, csv_column
from .scf_objective import CombiningMatrix, ScfGrid, _gap_terms, _steering_gram
from .sgd_designer import OptimizerConfig, design, random_gaussian_phi

__all__ = [
    "SweepSpec",
    "ExperimentReport",
    "channels_for_rate",
    "run_scf_sweep",
    "run_crb_experiment",
    "write_sweep_report",
    "write_crb_report",
    "write_crb_map",
]

SWEEP_METHODS = ("gaussian", "sgd", "external")
DEFAULT_SEPARATION = 2.0 * math.pi / 10.0


def _check_rate(rate: float) -> None:
    if not (math.isfinite(rate) and 0.0 < rate <= 1.0):
        raise ValueError(f"compression rate must lie in (0, 1], got {rate}")


def channels_for_rate(rate: float, elements: int) -> int:
    """Channel count for a compression rate: M = round(rate * N), half up."""
    _check_rate(rate)
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
    ``external_phis`` maps rates to the ``CombiningMatrix`` that the external
    method scores.  Each key must equal a rate exactly, and keys need
    "external" among ``methods``, so that no given matrix goes unscored.
    """

    compression_rates: tuple
    seeds_per_point: int
    methods: tuple
    grid: ScfGrid
    optimizer: OptimizerConfig
    external_phis: dict | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "compression_rates", tuple(self.compression_rates))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "external_phis", dict(self.external_phis or {}))
        if len(self.compression_rates) < 1:
            raise ValueError("need at least one compression rate")
        for rate in self.compression_rates:
            _check_rate(rate)
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
        for rate, phi in self.external_phis.items():
            if rate not in self.compression_rates:
                raise ValueError(f"external matrix key {rate!r} names no rate in {self.compression_rates}")
            if not isinstance(phi, CombiningMatrix):
                raise TypeError(f"external matrix for rate {rate} must be a CombiningMatrix, got {phi!r}")
        if self.external_phis and "external" not in self.methods:
            raise ValueError(f'external matrices are given but "external" is not among methods {self.methods}')

    def to_dict(self) -> dict:
        """The spec as a JSON-ready dict; each external matrix is the SHA-256 of its canonical JSON."""
        doc = asdict(replace(self, external_phis=None))
        for rate, phi in self.external_phis.items():
            doc["external_phis"][rate] = hashlib.sha256(canonical_json(phi.to_dict()).encode()).hexdigest()
        return doc


@dataclass
class ExperimentReport:
    """Rows plus aggregates of one experiment, with full provenance.

    In a CRB report, ``maps`` holds (label, kind, CrbMap) triples and
    ``rows[i]`` is the summary row of ``maps[i]``.
    """

    rows: list
    aggregates: list
    provenance: dict
    maps: list | None = None


def _provenance_head(geometry: ArrayGeometry, **fields) -> dict:
    """The fields every provenance block starts with, plus ``fields``."""
    return {"schema_version": 1, "package_version": __version__, "geometry": geometry.to_dict(), **fields}


def _sweep_channels(geometry, spec, sources=None) -> dict:
    """Channel count per rate; ``ValueError`` (naming ``sources[rate]``) for a wrongly shaped external matrix."""
    elements = geometry.element_count
    channels_at = {rate: channels_for_rate(rate, elements) for rate in spec.compression_rates}
    for rate, phi in spec.external_phis.items():
        if (phi.rows, phi.cols) != (channels_at[rate], elements):
            source = f" ({sources[rate]})" if sources else ""
            raise ValueError(
                f"external matrix for rate {rate}{source} is {phi.rows} x {phi.cols}, "
                f"expected {channels_at[rate]} x {elements}"
            )
    return channels_at


def _sweep_phi(geometry, spec, method, rate, channels, seed):
    if method == "external":
        if rate not in spec.external_phis:
            raise ValueError(f"no external combining matrix registered for rate {rate}")
        return spec.external_phis[rate]
    if method == "gaussian":
        return random_gaussian_phi(channels, geometry.element_count, seed)
    trace = design(geometry, channels, replace(spec.optimizer, seed=seed))
    return trace.final_phi


def _run_jobs(jobs, worker, parallelism):
    if parallelism > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(worker, jobs))
    return [worker(job) for job in jobs]


# (setter, getter) symbol pairs of OpenBLAS builds, the scipy-openblas wheel's first.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)
# The thread count is process-wide, so one thread at a time may hold the pin; re-entrant, so pins nest.
_BLAS_PIN_LOCK = threading.RLock()


def _openblas_thread_control():
    """The (set, get) thread-count functions of the OpenBLAS numpy uses, or None.

    numpy's LAPACK extension is opened with ``RTLD_NOLOAD``, which loads
    nothing, and the symbols resolve through it to the BLAS library it is
    linked against: the copy numpy has already loaded.
    """
    if not hasattr(os, "RTLD_NOLOAD"):
        return None
    try:
        import ctypes

        from numpy.linalg import _umath_linalg

        library = ctypes.CDLL(_umath_linalg.__file__, os.RTLD_NOLOAD)
    except (ImportError, OSError):
        return None
    for set_name, get_name in _BLAS_THREAD_SYMBOLS:
        if hasattr(library, set_name) and hasattr(library, get_name):
            set_threads, get_threads = getattr(library, set_name), getattr(library, get_name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Pin OpenBLAS to one thread; yield the count in effect (None: unpinned).

    The previous count is restored on exit, so callers get their BLAS back
    as they left it.  Entering the pin inside the pin changes nothing, and
    a second thread waits until the first has left it.
    """
    with _BLAS_PIN_LOCK:
        control = _openblas_thread_control()
        if control is None:
            yield None
            return
        set_threads, get_threads = control
        previous = get_threads()
        set_threads(1)
        try:
            yield get_threads()
        finally:
            set_threads(previous)


def run_scf_sweep(geometry: ArrayGeometry, spec: SweepSpec, jobs: int = 1) -> ExperimentReport:
    """Evaluate grid SCF error for every (method, rate, seed) job.

    The grid's steering Gram matrix Q is built once and every job scores
    its matrix against it, as ``grid_scf_error`` does.  Q and every job are
    computed inside ``_one_blas_thread``, which restores the caller's BLAS
    thread count on return.  ``jobs`` that is not an integer >= 1, or an
    external matrix of the wrong shape, raises ``ValueError`` before any
    job runs.  A job that cannot produce a combining matrix (an external
    rate that has no matrix, a design gone non-finite) yields an error
    row; the sweep continues.
    """
    if not (isinstance(jobs, numbers.Integral) and jobs >= 1):
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    channels_at = _sweep_channels(geometry, spec)

    seeds = [spec.optimizer.seed + j for j in range(spec.seeds_per_point)]
    # In artifact order, so the rows come back sorted however many threads run the jobs.
    job_list = list(itertools.product(sorted(spec.methods), sorted(spec.compression_rates), seeds))

    def worker(job):
        method, rate, seed = job
        row = {"rho": rate, "method": method, "seed": seed, "channels": channels_at[rate]}
        try:
            phi = _sweep_phi(geometry, spec, method, rate, row["channels"], seed)
        except ValueError as exc:
            return {**row, "scf_error": math.nan, "status": f"error: {exc}"}
        return {**row, "scf_error": _gap_terms(grid_gram, phi.gramian())[1], "status": "ok"}

    with _one_blas_thread():
        grid_gram = _steering_gram(geometry, *spec.grid.angles())
        rows = _run_jobs(job_list, worker, jobs)

    aggregates = []
    for (method, rate), group in itertools.groupby(rows, key=lambda r: (r["method"], r["rho"])):
        errors = [r["scf_error"] for r in group if r["status"] == "ok"]
        if not errors:
            continue
        q25, median, q75 = np.percentile(errors, [25.0, 50.0, 75.0])
        aggregates.append(
            {
                "method": method,
                "rho": rate,
                "channels": channels_at[rate],
                "count": len(errors),
                "median_scf_error": float(median),
                "q25_scf_error": float(q25),
                "q75_scf_error": float(q75),
            }
        )

    provenance = _provenance_head(
        geometry,
        experiment="scf_sweep",
        spec=spec.to_dict(),
        seeds=seeds,
        channel_rule="channels = floor(rate * elements + 0.5)",
    )
    return ExperimentReport(rows, aggregates, provenance)


def run_crb_experiment(
    geometry: ArrayGeometry,
    phis: dict,
    grid: ScfGrid,
    noise_variance: float = 1.0,
    separation: float = DEFAULT_SEPARATION,
) -> ExperimentReport:
    """Compute single / azimuth-pair / elevation-pair bound maps per design.

    ``phis`` maps a label to a CombiningMatrix; the uncompressed array is
    always included under the label "uncompressed".  Labels name the map
    files, so "uncompressed" and two labels that name the same files raise
    ``ValueError``.  All maps come from one pass over the grid, which
    evaluates each source direction once for every design and kind.  A
    map has the statuses of ``crb_map`` of its design and kind, and its
    values up to round-off.
    """
    _check_labels(phis)

    designs = sorted({"uncompressed": None, **phis}.items())
    kinds = sorted(_MAP_KINDS)
    maps, rows = [], []
    with _shared_pass(geometry, [phi for _, phi in designs], grid, kinds, separation, noise_variance):
        for name, phi in designs:
            for kind in kinds:
                map_ = crb_map(geometry, phi, grid, kind, separation, noise_variance)
                maps.append((name, kind, map_))
                rows.append({"method": name, "kind": kind, **map_.log10_statistics()})

    provenance = _provenance_head(
        geometry,
        experiment="crb",
        grid=grid.to_dict(),
        noise_variance=noise_variance,
        separation=separation,
        methods=["uncompressed", *sorted(phis)],
    )
    return ExperimentReport(rows, [], provenance, maps=maps)


def _slug(value) -> str:
    text = str(value)
    return "".join(ch if (ch.isalnum() or ch in "._-") else "-" for ch in text)


def _check_labels(labels) -> None:
    """Reject the reserved label "uncompressed" and labels that share a ``_slug``."""
    taken = {}
    for label in labels:
        if label == "uncompressed":
            raise ValueError('the label "uncompressed" is reserved')
        if _slug(label) in taken:
            raise ValueError(f'labels "{taken[_slug(label)]}" and "{label}" name the same files')
        taken[_slug(label)] = label


_MAP_HEADER = ("azimuth", "elevation", "crb_value", "status")


@functools.lru_cache(maxsize=1)
def _grid_columns(grid: ScfGrid) -> tuple:
    """The azimuth and elevation CSV columns of a map on ``grid``, kept so that a report formats them once."""
    return tuple(csv_column(angles.tolist()) for angles in grid.angles())


def _columns(header, rows) -> list:
    """The columns of dict ``rows`` in ``header`` order."""
    return [[row[key] for row in rows] for key in header]


def write_crb_map(map_: CrbMap, csv_path, metadata: dict | None = None):
    """Emit the map as CSV cells plus a JSON sidecar with scenario metadata and the map's statistics."""
    cells = (map_.values.ravel().tolist(), map_.status.ravel().tolist())
    csv_path = atomic_write_csv(csv_path, _MAP_HEADER, [*_grid_columns(map_.grid), *cells])
    sidecar = {
        "kind": map_.kind,
        "separation": map_.separation,
        "noise_variance": map_.noise_variance,
        "grid": map_.grid.to_dict(),
        "statistics": map_.log10_statistics(),
        **(metadata or {}),
    }
    return csv_path, atomic_write_json(csv_path.with_suffix(".json"), sidecar)


def write_sweep_report(report: ExperimentReport, outdir) -> list:
    """Write per-job CSVs, a combined results CSV, a summary, and provenance."""
    outdir = Path(outdir)
    written = []
    header = ["rho", "method", "seed", "scf_error", "channels", "status"]
    for row in report.rows:
        name = f"scf_sweep_{_slug(row['method'])}_{_slug(row['rho'])}_{row['seed']}.csv"
        written.append(atomic_write_csv(outdir / name, header, _columns(header, [row])))
    written.append(atomic_write_csv(outdir / "scf_sweep_results.csv", header, _columns(header, report.rows)))
    summary_header = ["method", "rho", "channels", "count", "median_scf_error", "q25_scf_error", "q75_scf_error"]
    summary = _columns(summary_header, report.aggregates)
    written.append(atomic_write_csv(outdir / "scf_sweep_summary.csv", summary_header, summary))
    written.append(atomic_write_json(outdir / "scf_sweep_provenance.json", report.provenance))
    return written


def write_crb_report(report: ExperimentReport, outdir) -> list:
    """Write one CSV+JSON pair per map, a summary CSV of the rows (their keys as header), and provenance.

    Each map's files are written by ``write_crb_map`` with the design's
    label as the sidecar's "method".
    """
    outdir = Path(outdir)
    written = []
    for name, kind, map_ in report.maps or []:
        path = outdir / f"crb_{_slug(name)}_{_slug(kind)}.csv"
        written.extend(write_crb_map(map_, path, {"method": name}))
    header = list(report.rows[0])
    written.append(atomic_write_csv(outdir / "crb_summary.csv", header, _columns(header, report.rows)))
    written.append(atomic_write_json(outdir / "crb_provenance.json", report.provenance))
    return written
