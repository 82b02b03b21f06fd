"""Microbenchmarks of each layer's public calls at paper scale.

Paper scale is N = 33 elements (SUCA 3 x 11), M = 13 channels and
L = 250 directions per batch, on the workloads' 121 x 61 grid.  The
harness figures run the workloads' own experiments: ``run_scf_sweep`` on
the SweepSpec that sweep-mixed's argv parses to, and
``run_crb_experiment`` on crb-maps' grid.  Each call is repeated until
its time budget is spent (at least ``min_reps`` times), and the median is
reported.  Every metric here is measured on every workload, so none reads
the same on every run.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time

import numpy as np


def median_call_s(fn, budget_s: float, min_reps: int = 3) -> float:
    """Median seconds of one call of ``fn``, repeated for ``budget_s``."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def microbenchmarks(scale, seed: int, workdir, argv, sweep_argv) -> dict:
    """Per-call times of the public functions, keyed by metric name.

    ``argv`` is the workload's CLI argv, parsed with ``workdir`` as the
    current directory; ``sweep_argv`` is sweep-mixed's, whose SweepSpec the
    harness figures run.  ``workdir/micro`` receives the CRB report written
    by the fileio benchmark.
    """
    import arrayforge as af
    from arrayforge import cli
    from arrayforge.harness import DEFAULT_SEPARATION

    geometry = af.make_suca(3, 11, 0.5, 0.68)
    config = af.OptimizerConfig(iterations=1, batch_size=250, step_size=1e-2, drag=0.1, seed=seed)
    rng = np.random.default_rng(seed)
    batch = af.sample_batch(config, rng)
    phi = af.random_gaussian_phi(13, geometry.element_count, seed)
    state = af.initial_state(geometry, 13, config)
    grid = af.ScfGrid(*scale.grid, (-math.pi, math.pi), (0.0, math.pi))
    grid_dirs = grid.directions()
    direction = af.Direction(0.3, 1.2)
    single = af.CrbScenario((direction,), np.ones(1), 1.0, phi)
    pair = af.CrbScenario(
        (direction, af.Direction(0.3 + DEFAULT_SEPARATION, 1.2)), np.ones(2), 1.0, phi
    )
    budget = scale.micro_budget_s

    def timed(fn, unit_scale, min_reps=3):
        return median_call_s(fn, budget, min_reps) * unit_scale

    with contextlib.chdir(workdir):
        parse_ms = timed(lambda: cli.parse_and_validate(argv), 1e3)
    metrics = {
        "array_model.steering_batch_L250_ms": timed(lambda: af.steering_batch(geometry, batch.dirs), 1e3),
        "array_model.steering_batch_grid_ms": timed(lambda: af.steering_batch(geometry, grid_dirs), 1e3),
        "array_model.steering_derivative_us": timed(lambda: af.steering_derivative(geometry, direction), 1e6),
        "scf_objective.error_matrix_ms": timed(lambda: af.error_matrix(geometry, phi, batch), 1e3),
        "scf_objective.batch_cost_ms": timed(lambda: af.batch_cost(geometry, phi, [batch]), 1e3),
        "scf_objective.grid_directions_ms": timed(grid.directions, 1e3),
        "scf_objective.grid_scf_error_s": timed(lambda: af.grid_scf_error(geometry, phi, grid), 1.0),
        "sgd_designer.sample_batch_ms": timed(lambda: af.sample_batch(config, rng), 1e3),
        "sgd_designer.gradient_ms": timed(lambda: af.gradient(geometry, phi, batch), 1e3),
        "sgd_designer.step_ms": timed(lambda: af.step(geometry, state, config, batch=batch), 1e3),
        "crb_eval.crb_single_us": timed(lambda: af.crb(geometry, single), 1e6),
        "crb_eval.crb_pair_us": timed(lambda: af.crb(geometry, pair), 1e6),
        "cli.parse_and_validate_ms": parse_ms,
    }
    for kind in ("single", "azimuth-pair", "elevation-pair"):
        separation = None if kind == "single" else DEFAULT_SEPARATION
        metrics[f"crb_eval.crb_map_{kind}_s"] = timed(
            lambda: af.crb_map(geometry, phi, grid, kind, separation), 1.0, min_reps=1
        )
    serial, parallel = sweep_times(af, cli.parse_and_validate(sweep_argv))
    metrics["harness.pool_speedup"] = serial / parallel
    metrics["harness.run_scf_sweep_s"] = serial
    start = time.perf_counter()
    report = af.run_crb_experiment(geometry, {"gaussian": phi}, grid)
    metrics["harness.run_crb_experiment_s"] = time.perf_counter() - start
    metrics["fileio.write_crb_report_s"] = timed(lambda: af.write_crb_report(report, workdir / "micro"), 1.0)
    return metrics


def sweep_times(af, config) -> tuple:
    """Seconds of one ``run_scf_sweep`` of ``config``'s sweep at jobs=1 and at jobs=2."""
    spec = af.SweepSpec(
        compression_rates=config.rates,
        seeds_per_point=config.seeds_per_point,
        methods=config.methods,
        grid=config.grid,
        optimizer=config.optimizer,
    )
    times = []
    for jobs in (1, 2):
        start = time.perf_counter()
        af.run_scf_sweep(config.geometry, spec, jobs=jobs)
        times.append(time.perf_counter() - start)
    return tuple(times)
