"""The three benchmark workloads: CLI argv, generated inputs and output checks.

Every workload runs the CLI at the paper geometry (SUCA 3 x 11, 0.5 wl
spacing, 0.68 wl radius) with every option that shapes the work passed
explicitly, so a later change of a CLI default does not change the
workload.  Inputs come from an input seed in ``range(INPUT_SEEDS)``; the
benchmark maps its ``--seed`` onto that range so that every input has a
reference recorded in ``references.json``.

Each workload checks its artifacts two ways:

- ``observe`` extracts the values compared with the recorded references
  (relative tolerance ``REL_TOL`` for floats, exact for counts);
- ``verify`` recomputes what it can along a path independent of the
  library (numpy formulas written here, or the finite-difference Fisher
  oracle in ``tests/oracles.py``) and checks internal consistency.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INPUT_SEEDS = 16

# Floats recorded at the reference commit must match to this relative
# tolerance: it admits reordered floating-point sums (BLAS threading,
# fused formulas) and rejects any change of the computed quantity.
REL_TOL = 1e-6
# Independent recomputations in ``verify`` (same quantity, other formula).
RECOMPUTE_TOL = 1e-8
# Finite-difference Fisher oracle, as in acceptance criterion 6.
ORACLE_TOL = 1e-3

STACKS, PER_STACK, SPACING, RADIUS = 3, 11, 0.5, 0.68
GEOMETRY = ["--stacks", str(STACKS), "--per-stack", str(PER_STACK),
            "--spacing-wl", repr(SPACING), "--radius-wl", repr(RADIUS)]
CHANNELS = 13
BATCH = 250
STEP_SIZE = 1e-2
DRAG = 0.1
SAMPLE_ELEVATION = (math.pi / 4.0, 3.0 * math.pi / 4.0)
SEPARATION = 2.0 * math.pi / 10.0
SWEEP_RATES = (0.2, 0.4, 0.6)
SWEEP_METHODS = ("gaussian", "sgd")
CRB_KINDS = ("single", "azimuth-pair", "elevation-pair")
CRB_STATUSES = ("ok", "absent", "rank-deficient", "unidentifiable")
OPTIMIZER = ["--batch", str(BATCH), "--alpha", repr(STEP_SIZE), "--eta", repr(DRAG), "--record-every", "1"]


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark configuration.

    ``paper`` is the benchmark; ``smoke`` is the same code at toy sizes,
    used by the benchmark's own tests.
    """

    name: str
    design_iters: int
    grid: tuple
    sweep_seeds: int
    sweep_iters: int
    micro_budget_s: float


PAPER = Scale("paper", 1000, (121, 61), 2, 200, 0.3)
SMOKE = Scale("smoke", 20, (13, 7), 1, 10, 0.005)
SCALES = {scale.name: scale for scale in (PAPER, SMOKE)}


def _grid_flags(scale: Scale) -> list:
    return ["--grid-az", str(scale.grid[0]), "--grid-el", str(scale.grid[1])]


# ---------------------------------------------------------------------------
# Independent numerics (no arrayforge imports)


def suca_positions() -> np.ndarray:
    angles = 2.0 * math.pi * np.arange(PER_STACK) / PER_STACK
    return np.array(
        [
            [RADIUS * math.cos(a), RADIUS * math.sin(a), stack * SPACING]
            for stack in range(STACKS)
            for a in angles
        ]
    )


def steering_matrix(positions, azimuth, elevation) -> np.ndarray:
    azimuth = np.asarray(azimuth, dtype=float)
    elevation = np.asarray(elevation, dtype=float)
    u = np.stack(
        [np.cos(azimuth) * np.sin(elevation), np.sin(azimuth) * np.sin(elevation), np.cos(elevation)]
    )
    return np.exp(2j * math.pi * (positions @ u))


def gaussian_phi(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Column-normalised circular complex Gaussian draw (real block first)."""
    z = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)
    return z / np.linalg.norm(z, axis=0)


def gram_discrepancy(phi: np.ndarray, steering: np.ndarray) -> float:
    """sum_ij |a_i^H (Phi^H Phi - I) a_j|^2 as tr(D Q D Q) with Q = A A^H."""
    gap = phi.conj().T @ phi - np.eye(phi.shape[1])
    m = gap @ (steering @ steering.conj().T)
    return float(np.trace(m @ m).real)


def grid_angles(az_count: int, el_count: int):
    """Azimuth-major flattening of the CLI's default grid ranges."""
    az = np.linspace(-math.pi, math.pi, az_count)
    el = np.linspace(0.0, math.pi, el_count)
    return np.repeat(az, el_count), np.tile(el, az_count)


def rel_diff(actual: float, expected: float) -> float:
    if actual == expected:
        return 0.0
    return abs(actual - expected) / max(abs(expected), 1e-300)


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def compare_with_reference(observed: dict, reference: dict | None) -> list:
    """Problems found comparing observed values with recorded references."""
    if reference is None:
        return ["no reference recorded for this input"]
    problems = []
    for key in sorted(set(reference) | set(observed)):
        if key not in observed:
            problems.append(f"{key}: missing from the output")
        elif key not in reference:
            problems.append(f"{key}: not in the reference")
        else:
            got, want = observed[key], reference[key]
            if isinstance(want, float):
                if not (isinstance(got, float) and rel_diff(got, want) <= REL_TOL):
                    problems.append(f"{key}: {got!r} differs from reference {want!r}")
            elif got != want:
                problems.append(f"{key}: {got!r} differs from reference {want!r}")
    return problems


# ---------------------------------------------------------------------------
# Workloads


class DesignPaper:
    """One SGD design at the paper's batch, step size and drag."""

    name = "design-paper"
    work_name = "design_iters_per_s"
    jobs = 1

    def argv(self, scale: Scale, seed: int) -> list:
        return [
            "design", *GEOMETRY, "--channels", str(CHANNELS), "--iters", str(scale.design_iters),
            *OPTIMIZER, "--seed", str(seed), "--jobs", str(self.jobs), "--out", "out/trace.json",
        ]

    def work_units(self, scale: Scale) -> int:
        return scale.design_iters

    def prepare(self, scale: Scale, seed: int, workdir: Path) -> None:
        pass

    def observe(self, scale: Scale, workdir: Path) -> dict:
        trace = json.loads((workdir / "out" / "trace.json").read_text(encoding="utf-8"))
        return {"final_cost": float(trace["costs"][-1][1]), "recorded_costs": len(trace["costs"])}

    def verify(self, scale: Scale, seed: int, workdir: Path) -> list:
        trace = json.loads((workdir / "out" / "trace.json").read_text(encoding="utf-8"))
        problems = []
        if [i for i, _ in trace["costs"]] != list(range(scale.design_iters)):
            problems.append("recorded iterations are not 0 .. iters-1")
        phi = np.array(trace["phi"]["re"]) + 1j * np.array(trace["phi"]["im"])
        if phi.shape != (CHANNELS, STACKS * PER_STACK):
            problems.append(f"final matrix has shape {phi.shape}")
        elif np.max(np.abs(np.linalg.norm(phi, axis=0) - 1.0)) > 1e-10:
            problems.append("final matrix is not column-normalised")
        # The first recorded cost is the seeded start on the first batch:
        # weights drawn first, then all azimuths, then all elevations.
        rng = np.random.default_rng(seed)
        start = gaussian_phi(rng, CHANNELS, STACKS * PER_STACK)
        azimuth = rng.uniform(0.0, 2.0 * math.pi, BATCH)
        elevation = rng.uniform(*SAMPLE_ELEVATION, BATCH)
        expected = gram_discrepancy(start, steering_matrix(suca_positions(), azimuth, elevation)) / BATCH**2
        if rel_diff(float(trace["costs"][0][1]), expected) > RECOMPUTE_TOL:
            problems.append(f"first cost {trace['costs'][0][1]!r} != recomputed {expected!r}")
        return problems


class CrbMaps:
    """CRB maps of one generated Gaussian design plus the uncompressed array."""

    name = "crb-maps"
    work_name = "crb_cells_per_s"
    jobs = 1
    label = "gaussian"

    def argv(self, scale: Scale, seed: int) -> list:
        return [
            "evaluate-crb", *GEOMETRY, *_grid_flags(scale), "--phi", f"{self.label}=phi.json",
            "--seed", str(seed), "--jobs", str(self.jobs), "--out", "out",
        ]

    def work_units(self, scale: Scale) -> int:
        return 2 * len(CRB_KINDS) * scale.grid[0] * scale.grid[1]

    def prepare(self, scale: Scale, seed: int, workdir: Path) -> None:
        phi = gaussian_phi(np.random.default_rng(seed), CHANNELS, STACKS * PER_STACK)
        doc = {"rows": phi.shape[0], "cols": phi.shape[1], "re": phi.real.tolist(), "im": phi.imag.tolist()}
        (workdir / "phi.json").write_text(json.dumps(doc), encoding="utf-8")

    def _maps(self):
        return [(method, kind) for method in (self.label, "uncompressed") for kind in CRB_KINDS]

    def observe(self, scale: Scale, workdir: Path) -> dict:
        out = workdir / "out"
        values = {}
        for row in read_csv(out / "crb_summary.csv"):
            key = f"{row['method']}/{row['kind']}"
            values[f"{key}/cells_total"] = int(row["cells_total"])
            values[f"{key}/median_log10_crb"] = float(row["median_log10_crb"])
            values[f"{key}/variance_log10_crb"] = float(row["variance_log10_crb"])
        for method, kind in self._maps():
            cells = read_csv(out / f"crb_{method}_{kind}.csv")
            for status in CRB_STATUSES:
                values[f"{method}/{kind}/{status}"] = sum(c["status"] == status for c in cells)
        return values

    def verify(self, scale: Scale, seed: int, workdir: Path) -> list:
        from arrayforge import CombiningMatrix, CrbScenario, Direction, make_suca
        from oracles import numerical_fim_crb

        out = workdir / "out"
        problems = []
        summary = {(r["method"], r["kind"]): r for r in read_csv(out / "crb_summary.csv")}
        if sorted(summary) != sorted(self._maps()):
            return [f"summary lists maps {sorted(summary)}"]
        az, el = grid_angles(*scale.grid)
        geometry = make_suca(STACKS, PER_STACK, SPACING, RADIUS)
        phi_doc = json.loads((workdir / "phi.json").read_text(encoding="utf-8"))
        phis = {self.label: CombiningMatrix.from_dict(phi_doc), "uncompressed": None}
        rng = np.random.default_rng(seed)
        for method, kind in self._maps():
            cells = read_csv(out / f"crb_{method}_{kind}.csv")
            if len(cells) != az.size:
                problems.append(f"{method}/{kind}: {len(cells)} cells, expected {az.size}")
                continue
            grid_ok = np.allclose([float(c["azimuth"]) for c in cells], az, rtol=0, atol=1e-12) and np.allclose(
                [float(c["elevation"]) for c in cells], el, rtol=0, atol=1e-12
            )
            if not grid_ok:
                problems.append(f"{method}/{kind}: cells are not the azimuth-major grid")
            unknown = {c["status"] for c in cells} - set(CRB_STATUSES)
            if unknown:
                problems.append(f"{method}/{kind}: unknown statuses {sorted(unknown)}")
            ok = np.array([float(c["crb_value"]) for c in cells if c["status"] == "ok"])
            row = summary[(method, kind)]
            if int(row["cells_ok"]) != ok.size or not np.all(ok > 0.0):
                problems.append(f"{method}/{kind}: summary cells_ok disagrees with the map")
                continue
            logs = np.log10(ok)
            for stat, value in (("median_log10_crb", np.median(logs)), ("variance_log10_crb", np.var(logs, ddof=1))):
                if rel_diff(float(row[stat]), float(value)) > RECOMPUTE_TOL:
                    problems.append(f"{method}/{kind}: summary {stat} disagrees with the map")
            # Spot-check one ok cell inside the sampling band per map
            # against the finite-difference Fisher oracle.
            band = [i for i, c in enumerate(cells) if c["status"] == "ok" and 1.0 <= float(c["elevation"]) <= 2.1]
            if not band:
                continue
            cell = cells[band[int(rng.integers(len(band)))]]
            a, e = float(cell["azimuth"]), float(cell["elevation"])
            sources = [Direction(a, e)]
            if kind == "azimuth-pair":
                sources.append(Direction((a + SEPARATION) % (2.0 * math.pi), e))
            elif kind == "elevation-pair":
                sources.append(Direction(a, e + SEPARATION))
            scenario = CrbScenario(tuple(sources), np.ones(len(sources)), 1.0, phis[method])
            oracle = numerical_fim_crb(geometry, scenario)
            if rel_diff(float(cell["crb_value"]), oracle) > ORACLE_TOL:
                problems.append(f"{method}/{kind} cell ({a}, {e}): {cell['crb_value']} vs oracle {oracle!r}")
        return problems


class SweepMixed:
    """SCF-error sweep of Gaussian and short SGD designs at three rates."""

    name = "sweep-mixed"
    work_name = "sweep_jobs_per_s"
    jobs = 2

    def argv(self, scale: Scale, seed: int) -> list:
        return [
            "sweep", *GEOMETRY, *_grid_flags(scale), "--methods", ",".join(SWEEP_METHODS),
            "--rates", ",".join(map(str, SWEEP_RATES)), "--seeds-per-point", str(scale.sweep_seeds),
            "--iters", str(scale.sweep_iters), *OPTIMIZER, "--seed", str(seed),
            "--jobs", str(self.jobs), "--out", "out",
        ]

    def work_units(self, scale: Scale) -> int:
        return len(SWEEP_METHODS) * len(SWEEP_RATES) * scale.sweep_seeds

    def prepare(self, scale: Scale, seed: int, workdir: Path) -> None:
        pass

    def observe(self, scale: Scale, workdir: Path) -> dict:
        values = {}
        for row in read_csv(workdir / "out" / "scf_sweep_results.csv"):
            key = f"{row['method']}/{row['rho']}/{row['seed']}"
            values[f"{key}/scf_error"] = float(row["scf_error"])
            values[f"{key}/status"] = row["status"]
        return values

    def verify(self, scale: Scale, seed: int, workdir: Path) -> list:
        out = workdir / "out"
        rows = read_csv(out / "scf_sweep_results.csv")
        problems = []
        if len(rows) != self.work_units(scale):
            problems.append(f"{len(rows)} result rows, expected {self.work_units(scale)}")
        steering = steering_matrix(suca_positions(), *grid_angles(*scale.grid))
        elements = STACKS * PER_STACK
        for row in rows:
            rate, job_seed = float(row["rho"]), int(row["seed"])
            channels = int(math.floor(rate * elements + 0.5))
            if int(row["channels"]) != channels:
                problems.append(f"row {row['method']}/{rate}/{job_seed}: {row['channels']} channels")
            per_job = read_csv(out / f"scf_sweep_{row['method']}_{row['rho']}_{job_seed}.csv")
            if per_job != [row]:
                problems.append(f"per-job file of {row['method']}/{rate}/{job_seed} disagrees with the results")
            if row["method"] == "gaussian" and row["status"] == "ok":
                phi = gaussian_phi(np.random.default_rng(job_seed), channels, elements)
                expected = gram_discrepancy(phi, steering)
                if rel_diff(float(row["scf_error"]), expected) > RECOMPUTE_TOL:
                    problems.append(f"gaussian/{rate}/{job_seed}: {row['scf_error']} vs recomputed {expected!r}")
        summary = read_csv(out / "scf_sweep_summary.csv")
        if len(summary) != len(SWEEP_METHODS) * len(SWEEP_RATES):
            problems.append(f"{len(summary)} summary rows")
        for agg in summary:
            errors = [
                float(r["scf_error"]) for r in rows
                if r["method"] == agg["method"] and r["rho"] == agg["rho"] and r["status"] == "ok"
            ]
            if int(agg["count"]) != len(errors) or rel_diff(
                float(agg["median_scf_error"]), float(np.median(errors))
            ) > RECOMPUTE_TOL:
                problems.append(f"summary row {agg['method']}/{agg['rho']} disagrees with the results")
        return problems


WORKLOADS = {w.name: w for w in (DesignPaper(), CrbMaps(), SweepMixed())}
