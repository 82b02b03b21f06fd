import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrayforge.array_model
import arrayforge.sgd_designer
from arrayforge import (
    ArrayGeometry,
    CombiningMatrix,
    Direction,
    OptimizerConfig,
    OptimizerState,
    ScfGrid,
    batch_cost,
    crb_map,
    design,
    gradient,
    grid_scf_error,
    initial_state,
    make_suca,
    random_gaussian_phi,
    run_crb_experiment,
    sample_batch,
    step,
)
from oracles import (
    batch_of,
    finite_difference_gradient,
    max_relative_error,
    random_directions,
    random_geometry,
    random_unitary,
)
from strategies import geometries, scf_instances, seeds

BLOCK = arrayforge.sgd_designer._BLOCK_ITERATIONS


class TestOptimizerConfig:
    def test_rejects_unit_drag(self):
        with pytest.raises(ValueError):
            OptimizerConfig(drag=1.0)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            OptimizerConfig(step_size=0.0)

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            OptimizerConfig(elevation_range=(2.0, 1.0))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("iterations", -1, "iterations must not be negative"),
            ("batch_size", 0, "batch_size must be at least 1"),
            ("seed", -1, "seed must be a nonnegative integer"),
            ("record_every", 0, "record_every must be at least 1"),
        ],
    )
    def test_rejects_out_of_range_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(**{field: value})

    def test_allows_zero_iterations(self):
        assert OptimizerConfig(iterations=0).iterations == 0

    def test_dict_roundtrip(self):
        config = OptimizerConfig(iterations=7, batch_size=3, seed=5)
        assert OptimizerConfig.from_dict(config.to_dict()) == config


class TestGradient:
    def test_zero_for_unitary_square_phi(self, suca33):
        phi = CombiningMatrix(random_unitary(33, np.random.default_rng(0)))
        batch = batch_of(random_directions(np.random.default_rng(1), 250))
        grad = gradient(suca33, phi, batch)
        assert np.max(np.abs(grad)) <= 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            geom = random_geometry(rng)
            n = geom.element_count
            m = int(rng.integers(1, min(n, 4) + 1))
            phi = random_gaussian_phi(m, n, rng)
            batch = batch_of(random_directions(rng, int(rng.integers(1, 7))))
            an = gradient(geom, phi, batch)
            fd = finite_difference_gradient(geom, phi, batch)
            assert max_relative_error(fd, an) <= 1e-6

    def test_unnormalized_mode_matches_raw_cost_gradient(self):
        rng = np.random.default_rng(3)
        geom = ArrayGeometry(rng.uniform(-1, 1, (5, 3)))
        phi = random_gaussian_phi(2, 5, rng)
        batch = batch_of(random_directions(rng, 4))
        an = gradient(geom, phi, batch) * batch.size**2
        fd = finite_difference_gradient(geom, phi, batch, normalized=False)
        assert max_relative_error(fd, an) <= 1e-6

    @settings(deadline=None)
    @given(instance=scf_instances(), seed=seeds)
    def test_unitary_mixing_rotates_the_gradient(self, instance, seed):
        geom, phi, batch = instance
        u = random_unitary(phi.rows, np.random.default_rng(seed))
        mixed = gradient(geom, CombiningMatrix(u @ phi.entries), batch)
        rotated = u @ gradient(geom, phi, batch)
        assert np.max(np.abs(mixed - rotated)) <= 1e-10 * max(1.0, np.max(np.abs(rotated)))

    def test_scalar_instance_closed_form(self):
        # one element, one channel, one angle: cost (p^2-1)^2, gradient 4p(p^2-1)
        geom = make_suca(1, 1, 0.5, 0.0)
        d = Direction(0.4, 1.3)
        for p in (0.5, 1.0, 1.7):
            phi = CombiningMatrix(np.array([[p + 0.0j]]))
            cost = batch_cost(geom, phi, [batch_of((d,))])
            grad = gradient(geom, phi, batch_of((d,)))
            assert cost == pytest.approx((p**2 - 1.0) ** 2, abs=1e-12)
            assert grad[0, 0] == pytest.approx(4.0 * p * (p**2 - 1.0), abs=1e-12)

    def test_dimension_mismatch_rejected(self, suca33):
        phi = CombiningMatrix(np.ones((2, 4)))
        batch = batch_of((Direction(0.0, 1.0),))
        with pytest.raises(ValueError):
            gradient(suca33, phi, batch)


class TestSampleBatch:
    def test_deterministic_for_fixed_seed(self):
        config = OptimizerConfig(batch_size=20, seed=9)
        b1 = sample_batch(config, np.random.default_rng(9))
        b2 = sample_batch(config, np.random.default_rng(9))
        assert np.array_equal(b1.azimuth, b2.azimuth)
        assert np.array_equal(b1.elevation, b2.elevation)

    def test_draws_all_azimuths_then_all_elevations(self):
        config = OptimizerConfig(batch_size=7, seed=2)
        batch = sample_batch(config, np.random.default_rng(2))
        rng = np.random.default_rng(2)
        assert np.array_equal(batch.azimuth, rng.uniform(*config.azimuth_range, 7))
        assert np.array_equal(batch.elevation, rng.uniform(*config.elevation_range, 7))

    def test_empirical_means_match_uniform_law(self):
        config = OptimizerConfig(batch_size=100_000, seed=0)
        batch = sample_batch(config, np.random.default_rng(0))
        az, el = batch.azimuth, batch.elevation
        n = az.size
        az_bound = 3.0 * (2.0 * math.pi / math.sqrt(12.0)) / math.sqrt(n)
        el_bound = 3.0 * ((math.pi / 2.0) / math.sqrt(12.0)) / math.sqrt(n)
        assert abs(az.mean() - math.pi) <= az_bound
        assert abs(el.mean() - math.pi / 2.0) <= el_bound

    def test_degenerate_range_pins_angles(self):
        config = OptimizerConfig(batch_size=10, azimuth_range=(1.0, 1.0), elevation_range=(0.5, 0.5))
        batch = sample_batch(config, np.random.default_rng(1))
        assert np.all(batch.azimuth == 1.0) and np.all(batch.elevation == 0.5)


class TestStep:
    def test_stationary_point_only_renormalizes(self, suca33):
        phi = CombiningMatrix(random_unitary(33, np.random.default_rng(4)))
        config = OptimizerConfig(iterations=1, batch_size=50, seed=4)
        state = OptimizerState(phi, np.zeros_like(phi.entries), 0, np.random.default_rng(4))
        after = step(suca33, state, config)
        assert np.max(np.abs(after.phi.entries - phi.entries)) <= 1e-12
        assert after.iteration == 1

    def test_momentum_free_step_is_plain_sgd(self):
        rng = np.random.default_rng(5)
        geom = ArrayGeometry(rng.uniform(-1, 1, (6, 3)))
        phi = random_gaussian_phi(3, 6, rng)
        config = OptimizerConfig(iterations=1, batch_size=5, step_size=1e-3, drag=0.0, seed=5)
        batch = batch_of(random_directions(rng, 5))
        state = OptimizerState(phi, np.zeros_like(phi.entries), 0, np.random.default_rng(5))
        after = step(geom, state, config, batch=batch)
        manual = CombiningMatrix(
            phi.entries - config.step_size * gradient(geom, phi, batch)
        ).normalize()
        assert np.array_equal(after.phi.entries, manual.entries)

    def test_two_steps_match_unrolled_hand_computation(self):
        rng = np.random.default_rng(6)
        geom = ArrayGeometry(rng.uniform(-1, 1, (5, 3)))
        phi0 = random_gaussian_phi(2, 5, rng)
        config = OptimizerConfig(iterations=2, batch_size=4, step_size=1e-3, drag=0.5, seed=6)
        b0 = batch_of(random_directions(rng, 4))
        b1 = batch_of(random_directions(rng, 4))

        state = OptimizerState(phi0, np.zeros_like(phi0.entries), 0, np.random.default_rng(6))
        state = step(geom, state, config, batch=b0)
        state = step(geom, state, config, batch=b1)

        v1 = -config.step_size * gradient(geom, phi0, b0)
        phi1 = CombiningMatrix(phi0.entries + v1).normalize()
        v2 = config.drag * v1 - config.step_size * gradient(geom, phi1, b1)
        phi2 = CombiningMatrix(phi1.entries + v2).normalize()
        assert np.allclose(state.phi.entries, phi2.entries, rtol=0, atol=1e-14)
        assert np.allclose(state.velocity, v2, rtol=0, atol=1e-14)

    def test_finished_state_rejected(self, suca33):
        config = OptimizerConfig(iterations=0, batch_size=2, seed=0)
        state = initial_state(suca33, 5, config)
        with pytest.raises(ValueError):
            step(suca33, state, config)

    def test_single_step_does_not_increase_fixed_batch_cost(self):
        # eta = 0, alpha backtracked from 1e-4: descent on the step's own batch
        rng = np.random.default_rng(7)
        for _ in range(20):
            geom = random_geometry(rng)
            n = geom.element_count
            m = int(rng.integers(1, min(n, 4) + 1))
            phi = random_gaussian_phi(m, n, rng)
            batch = batch_of(random_directions(rng, int(rng.integers(1, 7))))
            before = batch_cost(geom, phi, [batch])
            grad = gradient(geom, phi, batch)
            alpha = 1e-4
            while alpha >= 1e-12:
                after = batch_cost(
                    geom,
                    CombiningMatrix(phi.entries - alpha * grad).normalize(),
                    [batch],
                )
                if after <= before * (1.0 + 1e-12):
                    break
                alpha /= 10.0
            assert after <= before * (1.0 + 1e-12)


class TestRandomGaussianPhi:
    def test_columns_are_normalized(self):
        phi = random_gaussian_phi(4, 9, 8)
        assert phi.is_column_normalized(1e-10)

    def test_reproducible(self):
        assert np.array_equal(random_gaussian_phi(3, 7, 11).entries, random_gaussian_phi(3, 7, 11).entries)

    def test_rejects_more_channels_than_elements(self):
        with pytest.raises(ValueError):
            random_gaussian_phi(5, 3, 0)

    def test_gramian_offdiagonal_statistics(self):
        # mean |G_ij| for random unit columns is ~0.886/sqrt(M); spec asks 1/sqrt(M) +- 20%
        m = 64
        means = []
        for seed in range(200):
            phi = random_gaussian_phi(m, m, seed)
            g = phi.gramian()
            off = np.abs(g[~np.eye(m, dtype=bool)])
            means.append(off.mean())
        mean = float(np.mean(means))
        assert abs(mean - 1.0 / math.sqrt(m)) <= 0.2 / math.sqrt(m)


class TestDesign:
    def test_zero_iterations_returns_initialization(self, suca33):
        config = OptimizerConfig(iterations=0, batch_size=5, seed=3)
        trace = design(suca33, 13, config)
        assert trace.costs == []
        reference = random_gaussian_phi(13, 33, np.random.default_rng(3))
        assert np.array_equal(trace.final_phi.entries, reference.entries)

    def test_same_seed_gives_identical_traces(self):
        geom = make_suca(2, 5, 0.5, 0.4)
        config = OptimizerConfig(iterations=20, batch_size=10, seed=42)
        t1 = design(geom, 4, config)
        t2 = design(geom, 4, config)
        assert t1.costs == t2.costs
        assert np.array_equal(t1.final_phi.entries, t2.final_phi.entries)

    @pytest.mark.parametrize("batch_size", [1, 250])
    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("iterations", sorted({0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3}))
    @pytest.mark.parametrize("grouped", [True, False], ids=["suca", "random"])
    def test_matches_explicit_step_loop(self, grouped, iterations, record_every, batch_size):
        # design steers a block of batches per call, step one batch per call
        if grouped:
            geom = make_suca(3, 11, 0.5, 0.68)
        else:
            geom = ArrayGeometry(np.random.default_rng(8).uniform(-1.0, 1.0, (7, 3)))
        assert (geom._stack is not None) == grouped
        config = OptimizerConfig(iterations=iterations, batch_size=batch_size, seed=13, record_every=record_every)
        trace = design(geom, 3, config)
        state = initial_state(geom, 3, config)
        costs = []
        while state.iteration < config.iterations:
            state = step(geom, state, config)
            costs.append((state.iteration - 1, state.cost))
        assert trace.costs == costs[::record_every]
        assert np.array_equal(trace.final_phi.entries, state.phi.entries)

    @pytest.mark.parametrize(
        "step_size, message",
        [(1e308, "combining weights must be finite"), (1e200, "column norm that overflows")],
    )
    def test_design_gone_non_finite_names_the_failure(self, suca33, step_size, message):
        config = OptimizerConfig(iterations=50, batch_size=250, step_size=step_size, seed=0)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError, match=message):
            warnings.simplefilter("always")
            design(suca33, 13, config)
        assert caught == []

    def test_rejects_too_many_channels(self, suca33):
        with pytest.raises(ValueError):
            design(suca33, 34, OptimizerConfig(iterations=1, batch_size=2))

    def test_record_every_thins_the_trace(self):
        geom = make_suca(1, 5, 0.5, 0.4)
        config = OptimizerConfig(iterations=10, batch_size=3, seed=1, record_every=4)
        trace = design(geom, 2, config)
        assert [i for i, _ in trace.costs] == [0, 4, 8]

    def test_final_phi_is_column_normalized(self):
        geom = make_suca(1, 6, 0.5, 0.4)
        assert design(geom, 2, OptimizerConfig(iterations=0, seed=2)).final_phi.is_column_normalized(1e-10)
        config = OptimizerConfig(iterations=7, batch_size=4, seed=2)
        state = initial_state(geom, 2, config)
        for _ in range(config.iterations):
            state = step(geom, state, config)
            assert state.phi.is_column_normalized(1e-10)
        assert np.array_equal(design(geom, 2, config).final_phi.entries, state.phi.entries)

    @settings(max_examples=50, deadline=None)
    @given(
        geom=geometries(),
        data=st.data(),
        batch_size=st.integers(1, 8),
        iterations=st.integers(1, 5),
        seed=seeds,
    )
    def test_recorded_cost_is_batch_cost_of_the_drawn_batch(
        self, geom, data, batch_size, iterations, seed
    ):
        channels = data.draw(st.integers(1, geom.element_count))
        config = OptimizerConfig(iterations=iterations, batch_size=batch_size, seed=seed)
        trace = design(geom, channels, config)
        state = initial_state(geom, channels, config)
        expected = []
        while state.iteration < iterations:
            batch = sample_batch(config, state.rng)
            expected.append((state.iteration, batch_cost(geom, state.phi, [batch])))
            state = step(geom, state, config, batch=batch)
            assert state.cost == expected[-1][1]
        assert trace.costs == expected

    def test_trace_dict_roundtrip(self):
        geom = make_suca(1, 4, 0.5, 0.3)
        config = OptimizerConfig(iterations=4, batch_size=3, seed=7)
        trace = design(geom, 2, config)
        doc = trace.to_dict()
        again = type(trace).from_dict(doc)
        assert again.costs == trace.costs
        assert np.array_equal(again.final_phi.entries, trace.final_phi.entries)
        assert again.config == trace.config


class TestHotPaths:
    """The SGD, grid and CRB paths work on angle arrays, one steering call per batch."""

    def test_design_evaluates_steering_once_per_iteration(self, monkeypatch):
        # every steering evaluation, whatever its entry point, computes the
        # propagation vectors once, for one batch or for a block of batches
        angles, built = [], []
        real = arrayforge.array_model._propagation
        real_init = CombiningMatrix.__init__

        def counting(azimuth, elevation):
            angles.append(np.size(azimuth))
            return real(azimuth, elevation)

        def counting_init(self, entries):
            built.append(entries)
            real_init(self, entries)

        monkeypatch.setattr(arrayforge.array_model, "_propagation", counting)
        monkeypatch.setattr(CombiningMatrix, "__init__", counting_init)
        matrices = set()
        for iterations in (0, 7, 8):
            angles.clear()
            built.clear()
            config = OptimizerConfig(iterations=iterations, batch_size=4, seed=3, record_every=1)
            trace = design(make_suca(1, 5, 0.5, 0.4), 2, config)
            assert len(trace.costs) == iterations
            assert sum(angles) == iterations * config.batch_size
            matrices.add(len(built))
        # the loop builds no matrix per iteration
        assert len(matrices) == 1

    def test_crb_map_evaluates_steering_once_per_source_angle(self, suca33, monkeypatch):
        angles = []
        real = arrayforge.array_model._propagation

        def counting(azimuth, elevation):
            angles.append(np.size(azimuth))
            return real(azimuth, elevation)

        monkeypatch.setattr(arrayforge.array_model, "_propagation", counting)
        phi = random_gaussian_phi(13, 33, 1)
        grid = ScfGrid(9, 5, (-math.pi, math.pi), (0.0, math.pi))
        for kind, sources in (("single", 1), ("azimuth-pair", 2), ("elevation-pair", 2)):
            angles.clear()
            result = crb_map(suca33, phi, grid, kind, None if kind == "single" else 0.6)
            cells = int(np.sum(result.status != "absent"))
            assert cells > 0
            assert sum(angles) == cells * sources

    def test_no_direction_objects_built(self, suca33, monkeypatch):
        config = OptimizerConfig(iterations=3, batch_size=20, seed=1)
        phi = random_gaussian_phi(13, 33, 1)
        grid = ScfGrid(9, 5, (-math.pi, math.pi), (0.0, math.pi))

        def refuse(self):
            raise AssertionError("a Direction object was built")

        monkeypatch.setattr(Direction, "__post_init__", refuse)
        batch = sample_batch(config, np.random.default_rng(1))
        assert batch_cost(suca33, phi, [batch]) > 0.0
        assert np.all(np.isfinite(gradient(suca33, phi, batch)))
        assert grid_scf_error(suca33, phi, grid) > 0.0
        assert len(design(suca33, 13, config).costs) == 3
        assert crb_map(suca33, phi, grid, "azimuth-pair", 0.6).status.size == grid.point_count
        assert len(run_crb_experiment(suca33, {"gaussian": phi}, grid).maps) == 6
