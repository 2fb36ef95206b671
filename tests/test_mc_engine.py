"""Tests for the path simulator, default sampling, and exposure profiles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bondxva.curves import PiecewiseCurve
from bondxva.instruments import CollateralSpec
from bondxva.mc_engine import (
    _DEFAULT_STREAM_BASE,
    _DIFFUSION_STREAM,
    BLOCK_SIZE,
    ModelDynamics,
    PathSet,
    _philox_generator,
    _sample_clock,
    exposure_profile,
    sample_default_times,
    simulate_paths,
    swap_roles,
)


class TestDynamicsValidation:
    def test_nonpositive_spot_rejected(self):
        with pytest.raises(ValueError, match="s0 must be positive"):
            ModelDynamics(s0=0.0)

    @pytest.mark.parametrize("field", ["vol_s", "vol_c", "vol_b"])
    def test_negative_volatility_rejected(self, field):
        with pytest.raises(ValueError, match="nonnegative"):
            ModelDynamics(s0=1.0, **{field: -0.1})

    @pytest.mark.parametrize("field", ["pi0_c", "pi0_b"])
    def test_negative_initial_spread_rejected(self, field):
        with pytest.raises(ValueError, match="nonnegative"):
            ModelDynamics(s0=1.0, **{field: -0.01})

    def test_correlation_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ModelDynamics(s0=1.0, rho_sc=1.2)

    def test_inconsistent_correlations_rejected(self):
        # pairwise values in [-1, 1] but jointly impossible
        with pytest.raises(ValueError, match="positive semi-definite"):
            ModelDynamics(s0=1.0, rho_sc=0.9, rho_sb=-0.9, rho_cb=0.9)

    def test_degenerate_but_consistent_correlation_accepted(self):
        # rank-one boundary case; Cholesky proper would reject it
        dyn = ModelDynamics(s0=1.0, vol_s=0.2, rho_sc=1.0, rho_sb=1.0, rho_cb=1.0)
        paths = simulate_paths(dyn, horizon=1.0, n_steps=4, n_paths=16, seed=7)
        assert np.all(np.isfinite(paths.s))

    def test_swapped_roles_exchanges_credit_parameters(self):
        dyn = ModelDynamics(
            s0=2.0, pi0_c=0.03, pi0_b=0.01, drift_c=0.002, vol_c=0.2,
            vol_b=0.1, rho_sc=0.4, rho_sb=-0.2,
        )
        flipped = dyn.swapped_roles()
        assert flipped.pi0_c == dyn.pi0_b and flipped.pi0_b == dyn.pi0_c
        assert flipped.vol_c == dyn.vol_b and flipped.vol_b == dyn.vol_c
        assert flipped.drift_b == dyn.drift_c
        assert flipped.rho_sc == dyn.rho_sb and flipped.rho_sb == dyn.rho_sc
        assert flipped.swapped_roles() == dyn


class TestSimulation:
    def test_grid_and_initial_values(self):
        dyn = ModelDynamics(s0=1.5, vol_s=0.3, pi0_c=0.02, pi0_b=0.005)
        paths = simulate_paths(dyn, horizon=2.0, n_steps=8, n_paths=50, seed=1)
        assert paths.s.shape == (50, 9)
        assert paths.pi_c.shape == (50, 9)
        assert paths.pi_b.shape == (50, 9)
        np.testing.assert_allclose(paths.times, np.linspace(0.0, 2.0, 9))
        assert np.all(paths.s[:, 0] == 1.5)
        assert np.all(paths.pi_c[:, 0] == 0.02)
        assert np.all(paths.pi_b[:, 0] == 0.005)
        assert paths.n_paths == 50
        assert paths.n_steps == 8
        assert paths.horizon == 2.0
        assert paths.tau_c is None and paths.tau_b is None

    @pytest.mark.parametrize(
        "times",
        [
            # a coarse start, then steps of 0.05: the cure window and the
            # default clock would read 0.05 everywhere
            np.concatenate(([0.0, 0.05, 0.1], np.linspace(0.5, 1.0, 11))),
            np.linspace(0.1, 1.0, 10),  # not from 0
            np.array([0.0]),  # no step
            np.linspace(0.0, -1.0, 5),  # backwards
            np.array([0.0, 0.5, np.nan]),
        ],
        ids=["uneven", "late_start", "one_time", "backwards", "nan"],
    )
    def test_a_grid_that_is_not_uniform_from_zero_is_refused(self, times):
        flat = np.ones((3, len(times)))
        with pytest.raises(ValueError, match=r"PathSet\.times"):
            PathSet(times=times, s=flat, pi_c=flat, pi_b=flat, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(
        horizon=st.floats(1e-4, 1e3, allow_nan=False, allow_infinity=False),
        n_steps=st.integers(1, 5_000),
    )
    def test_every_linspace_grid_from_zero_is_accepted(self, horizon, n_steps):
        times = np.linspace(0.0, horizon, n_steps + 1)
        flat = np.ones((1, n_steps + 1))
        assert PathSet(times=times, s=flat, pi_c=flat, pi_b=flat, seed=0).n_steps == n_steps

    def test_underlying_stays_positive_and_spreads_nonnegative(self):
        dyn = ModelDynamics(
            s0=0.1, vol_s=0.9, pi0_c=0.001, vol_c=0.3, pi0_b=0.0, vol_b=0.2
        )
        paths = simulate_paths(dyn, horizon=3.0, n_steps=24, n_paths=2_000, seed=3)
        assert np.all(paths.s > 0)
        assert np.all(paths.pi_c >= 0)
        assert np.all(paths.pi_b >= 0)
        # the floor must actually bind somewhere for this configuration,
        # otherwise the assertion above is vacuous
        assert np.any(paths.pi_b == 0.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_steps=0, n_paths=10), "at least 1"),
            (dict(n_steps=10, n_paths=0), "at least 1"),
            (dict(n_steps=10, n_paths=10, horizon=0.0), "horizon must be positive"),
            # NaN fails every comparison, and an infinite step gives NaN paths
            (dict(n_steps=10, n_paths=10, horizon=float("nan")), "horizon must be positive"),
            (dict(n_steps=10, n_paths=10, horizon=float("inf")), "horizon must be positive"),
            (dict(n_steps=10, n_paths=10, horizon=-1.0), "horizon must be positive"),
        ],
    )
    def test_bad_grid_arguments_rejected(self, kwargs, message):
        kwargs.setdefault("horizon", 1.0)
        with pytest.raises(ValueError, match=message):
            simulate_paths(ModelDynamics(s0=1.0), seed=0, **kwargs)

    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, n_workers):
        with pytest.raises(ValueError, match="n_workers must be at least 1"):
            simulate_paths(ModelDynamics(s0=1.0), 1.0, 4, 10, seed=0, n_workers=n_workers)

    def test_same_seed_reproduces_paths_bitwise(self):
        dyn = ModelDynamics(s0=1.0, vol_s=0.25, pi0_c=0.02, vol_c=0.1, rho_sc=0.3)
        a = simulate_paths(dyn, horizon=1.0, n_steps=12, n_paths=500, seed=42)
        b = simulate_paths(dyn, horizon=1.0, n_steps=12, n_paths=500, seed=42)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.pi_c, b.pi_c)
        assert np.array_equal(a.pi_b, b.pi_b)

    def test_different_seeds_give_different_paths(self):
        dyn = ModelDynamics(s0=1.0, vol_s=0.25)
        a = simulate_paths(dyn, horizon=1.0, n_steps=4, n_paths=64, seed=1)
        b = simulate_paths(dyn, horizon=1.0, n_steps=4, n_paths=64, seed=2)
        assert not np.array_equal(a.s, b.s)

    def test_worker_count_does_not_change_the_draws(self):
        dyn = ModelDynamics(
            s0=1.0, vol_s=0.2, pi0_c=0.03, vol_c=0.15, pi0_b=0.01, vol_b=0.05,
            rho_sc=-0.2, rho_cb=0.4,
        )
        n_paths = 2 * BLOCK_SIZE + 17
        serial = simulate_paths(dyn, 1.0, n_steps=6, n_paths=n_paths, seed=9)
        parallel = simulate_paths(
            dyn, 1.0, n_steps=6, n_paths=n_paths, seed=9, n_workers=3
        )
        assert np.array_equal(serial.s, parallel.s)
        assert np.array_equal(serial.pi_c, parallel.pi_c)
        assert np.array_equal(serial.pi_b, parallel.pi_b)

    # 64 steps: normals drawn in sub-blocks, and a last block that ends
    # inside one, against the whole block drawn at once here
    @pytest.mark.parametrize("n_steps", [6, 64])
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_time_slices_are_contiguous_and_match_a_per_step_loop(self, n_workers, n_steps):
        dyn = ModelDynamics(
            s0=1.0, rate=0.03, vol_s=0.25, pi0_c=0.02, drift_c=-0.01, vol_c=0.02,
            pi0_b=0.01, vol_b=0.015, rho_sc=0.3, rho_cb=-0.2,
        )
        n_paths, horizon, seed = BLOCK_SIZE + 904, 1.5, 17
        paths = simulate_paths(dyn, horizon, n_steps, n_paths, seed, n_workers)
        for grid in (paths.s, paths.pi_c, paths.pi_b):
            assert grid.shape == (n_paths, n_steps + 1)
            assert all(grid[:, k].flags.c_contiguous for k in range(n_steps + 1))
        # the plain loop: each block's paths one grid step at a time
        dt = horizon / n_steps
        sqrt_dt = math.sqrt(dt)
        s_drift = (dyn.rate - dyn.dividend - 0.5 * dyn.vol_s**2) * dt
        s, pi_c, pi_b = np.empty((3, n_paths, n_steps + 1))
        for block, start in enumerate(range(0, n_paths, BLOCK_SIZE)):
            rows = slice(start, min(start + BLOCK_SIZE, n_paths))
            gen = _philox_generator(seed, _DIFFUSION_STREAM, block)
            z = gen.standard_normal((rows.stop - start, n_steps, 3)) @ dyn._factor.T
            s[rows, 0], pi_c[rows, 0], pi_b[rows, 0] = dyn.s0, dyn.pi0_c, dyn.pi0_b
            for k in range(n_steps):
                s[rows, k + 1] = s[rows, k] * np.exp(
                    s_drift + dyn.vol_s * sqrt_dt * z[:, k, 0]
                )
                pi_c[rows, k + 1] = np.maximum(
                    pi_c[rows, k] + dyn.drift_c * dt + dyn.vol_c * sqrt_dt * z[:, k, 1], 0.0
                )
                pi_b[rows, k + 1] = np.maximum(
                    pi_b[rows, k] + dyn.drift_b * dt + dyn.vol_b * sqrt_dt * z[:, k, 2], 0.0
                )
        assert (pi_c == 0.0).any()  # the floor binds on some paths
        assert np.array_equal(paths.s, s)
        assert np.array_equal(paths.pi_c, pi_c)
        assert np.array_equal(paths.pi_b, pi_b)

    def test_temporaries_stay_under_one_block_of_normals(self):
        n_paths, n_steps = 2 * BLOCK_SIZE, 64
        tracemalloc.start()
        try:
            simulate_paths(ModelDynamics(s0=1.0, vol_s=0.2, vol_c=0.01), 1.0, n_steps,
                           n_paths, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        paths_bytes = 3 * n_paths * (n_steps + 1) * 8
        # one block's (BLOCK_SIZE, n_steps, 3) normals; drawing them whole
        # held two such arrays
        block_normals = BLOCK_SIZE * n_steps * 3 * 8
        assert peak - paths_bytes < block_normals

    def test_smaller_run_is_a_prefix_of_a_larger_one(self):
        # per-block generators make the path count an append-only dimension
        dyn = ModelDynamics(s0=1.0, vol_s=0.2, pi0_c=0.02, vol_c=0.1)
        small = simulate_paths(dyn, 1.0, n_steps=6, n_paths=5_000, seed=11)
        large = simulate_paths(dyn, 1.0, n_steps=6, n_paths=9_000, seed=11)
        assert np.array_equal(large.s[:5_000], small.s)
        assert np.array_equal(large.pi_c[:5_000], small.pi_c)

    def test_zero_volatility_collapses_to_the_deterministic_forward(self):
        dyn = ModelDynamics(s0=2.0, rate=0.05, dividend=0.01, pi0_c=0.04,
                            drift_c=0.01)
        paths = simulate_paths(dyn, horizon=2.0, n_steps=8, n_paths=3, seed=0)
        forward = np.broadcast_to(2.0 * np.exp(0.04 * paths.times), paths.s.shape)
        np.testing.assert_allclose(paths.s, forward, rtol=1e-13)
        ramp = np.broadcast_to(0.04 + 0.01 * paths.times, paths.pi_c.shape)
        np.testing.assert_allclose(paths.pi_c, ramp, rtol=1e-13)

    def test_drifted_spread_sticks_at_the_floor(self):
        dyn = ModelDynamics(s0=1.0, pi0_c=0.01, drift_c=-0.04)
        paths = simulate_paths(dyn, horizon=1.0, n_steps=4, n_paths=2, seed=0)
        expected = np.broadcast_to(
            np.array([0.01, 0.0, 0.0, 0.0, 0.0]), paths.pi_c.shape
        )
        np.testing.assert_allclose(paths.pi_c, expected, atol=1e-15)

    def test_terminal_mean_matches_the_lognormal_forward(self):
        dyn = ModelDynamics(s0=1.0, rate=0.05, dividend=0.01, vol_s=0.3)
        paths = simulate_paths(dyn, horizon=1.5, n_steps=6, n_paths=40_000, seed=808)
        s_t = paths.s[:, -1]
        target = math.exp(0.04 * 1.5)
        se = s_t.std() / math.sqrt(len(s_t))
        assert abs(s_t.mean() - target) < 4 * se
        # lognormal steps are exact, so the log-mean check is sharper
        log_target = (0.05 - 0.01 - 0.5 * 0.3**2) * 1.5
        log_se = np.log(s_t).std() / math.sqrt(len(s_t))
        assert abs(np.log(s_t).mean() - log_target) < 4 * log_se

    def test_empirical_correlations_match_the_inputs(self):
        dyn = ModelDynamics(
            s0=1.0, vol_s=0.2, pi0_c=0.05, vol_c=0.01, pi0_b=0.05, vol_b=0.01,
            rho_sc=0.6, rho_sb=0.1, rho_cb=-0.4,
        )
        paths = simulate_paths(dyn, horizon=1.0, n_steps=8, n_paths=20_000, seed=5)
        # the spread floor never binds here, so increments are pure Gaussians
        assert paths.pi_c.min() > 0 and paths.pi_b.min() > 0
        ds = np.diff(np.log(paths.s), axis=1).ravel()
        dc = np.diff(paths.pi_c, axis=1).ravel()
        db = np.diff(paths.pi_b, axis=1).ravel()
        assert abs(np.corrcoef(ds, dc)[0, 1] - 0.6) < 0.02
        assert abs(np.corrcoef(ds, db)[0, 1] - 0.1) < 0.02
        assert abs(np.corrcoef(dc, db)[0, 1] + 0.4) < 0.02


class TestDefaultSampling:
    def _flat_spread_paths(self, pi0_c, pi0_b, horizon=2.0, n_paths=40_000):
        dyn = ModelDynamics(s0=1.0, pi0_c=pi0_c, pi0_b=pi0_b)
        return simulate_paths(dyn, horizon, n_steps=16, n_paths=n_paths, seed=314)

    def test_recovery_at_one_rejected(self):
        paths = self._flat_spread_paths(0.03, 0.01, n_paths=8)
        with pytest.raises(ValueError, match="below 1"):
            sample_default_times(paths, recovery_c=1.0, recovery_b=0.4)

    @pytest.mark.parametrize("name", ["recovery_c", "recovery_b"])
    @pytest.mark.parametrize("recovery", [float("nan"), float("inf"), -0.5, 1.5])
    def test_recovery_outside_its_domain_is_named(self, name, recovery):
        paths = self._flat_spread_paths(0.03, 0.01, n_paths=8)
        recoveries = {"recovery_c": 0.4, "recovery_b": 0.35, name: recovery}
        with pytest.raises(ValueError, match=name):
            sample_default_times(paths, **recoveries)

    @pytest.mark.parametrize("swapped", [False, True], ids=["as_drawn", "swapped"])
    @pytest.mark.parametrize("bases", [False, True], ids=["cds", "bond_implied"])
    def test_blockwise_intensities_give_the_whole_grid_default_times(self, bases, swapped):
        dyn = ModelDynamics(
            s0=1.0, pi0_c=0.3, pi0_b=0.2, drift_c=-0.05, vol_c=0.4, vol_b=0.3, rho_cb=0.3
        )
        paths = simulate_paths(dyn, 2.0, n_steps=16, n_paths=2 * BLOCK_SIZE + 300, seed=8)
        if swapped:
            paths = swap_roles(paths)
        basis_c, basis_b = (
            (PiecewiseCurve((0.0, 1.0), (0.02, -0.1)), PiecewiseCurve.flat(0.01))
            if bases else (None, None)
        )
        sampled = sample_default_times(paths, 0.4, 0.3, basis_c=basis_c, basis_b=basis_b)
        # the reference forms each name's whole (n_times, n_paths) intensity
        # grid first, then samples its clocks block by block
        grids = []
        for pi, recovery, basis in ((paths.pi_c, 0.4, basis_c), (paths.pi_b, 0.3, basis_b)):
            lam = pi.T if basis is None else pi.T + basis.values_at(paths.times)[:, None]
            grids.append(np.maximum(lam, 0.0) / (1.0 - recovery))
        tau = np.empty((2, paths.n_paths))
        for block, start in enumerate(range(0, paths.n_paths, BLOCK_SIZE)):
            stop = min(start + BLOCK_SIZE, paths.n_paths)
            gen = _philox_generator(paths.seed, _DEFAULT_STREAM_BASE, block)
            draws = gen.standard_exponential((stop - start, 2))
            for name, col in enumerate(paths.clock_columns):
                tau[name, start:stop] = _sample_clock(
                    grids[name][:, start:stop], paths.times, draws[:, col]
                )
        assert np.isfinite(tau).any() and np.isinf(tau).any()
        assert np.array_equal(sampled.tau_c, tau[0])
        assert np.array_equal(sampled.tau_b, tau[1])

    def test_intensities_are_formed_one_block_at_a_time(self):
        paths = self._flat_spread_paths(0.03, 0.01, n_paths=8 * BLOCK_SIZE)
        grid_bytes = paths.n_paths * len(paths.times) * 8
        tracemalloc.start()
        try:
            sample_default_times(paths, 0.4, 0.35, basis_c=PiecewiseCurve.flat(0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two whole intensity grids would be two grid-sizes
        assert peak < grid_bytes

    def test_survival_fraction_matches_the_exponential_law(self):
        # constant intensity makes the grid sampling exact, so the observed
        # survival count is binomial around exp(-lambda * T)
        paths = self._flat_spread_paths(pi0_c=0.03, pi0_b=0.012)
        sampled = sample_default_times(paths, recovery_c=0.4, recovery_b=0.6)
        for tau, lam in ((sampled.tau_c, 0.05), (sampled.tau_b, 0.03)):
            p = math.exp(-lam * 2.0)
            se = math.sqrt(p * (1 - p) / paths.n_paths)
            assert abs(np.mean(tau > 2.0) - p) < 4 * se

    def test_basis_curve_shifts_the_sampling_intensity(self):
        paths = self._flat_spread_paths(pi0_c=0.03, pi0_b=0.0)
        sampled = sample_default_times(
            paths, recovery_c=0.4, recovery_b=0.4,
            basis_c=PiecewiseCurve.flat(0.012),
        )
        lam = (0.03 + 0.012) / 0.6
        p = math.exp(-lam * 2.0)
        se = math.sqrt(p * (1 - p) / paths.n_paths)
        assert abs(np.mean(sampled.tau_c > 2.0) - p) < 4 * se

    def test_negative_basis_can_switch_default_off(self):
        paths = self._flat_spread_paths(pi0_c=0.01, pi0_b=0.0, n_paths=1_000)
        sampled = sample_default_times(
            paths, recovery_c=0.4, recovery_b=0.4,
            basis_c=PiecewiseCurve.flat(-0.02),
        )
        assert np.all(np.isinf(sampled.tau_c))

    def test_zero_spread_name_never_defaults(self):
        paths = self._flat_spread_paths(pi0_c=0.03, pi0_b=0.0, n_paths=1_000)
        sampled = sample_default_times(paths, recovery_c=0.4, recovery_b=0.4)
        assert np.all(np.isinf(sampled.tau_b))

    def test_finite_default_times_lie_inside_the_horizon(self):
        paths = self._flat_spread_paths(pi0_c=0.5, pi0_b=0.2, n_paths=2_000)
        sampled = sample_default_times(paths, recovery_c=0.4, recovery_b=0.4)
        finite = sampled.tau_c[np.isfinite(sampled.tau_c)]
        assert finite.size > 0
        assert np.all(finite > 0) and np.all(finite <= 2.0)

    def test_sampling_is_reproducible_and_keeps_the_trajectories(self):
        paths = self._flat_spread_paths(pi0_c=0.05, pi0_b=0.02, n_paths=500)
        first = sample_default_times(paths, recovery_c=0.4, recovery_b=0.4)
        second = sample_default_times(paths, recovery_c=0.4, recovery_b=0.4)
        assert np.array_equal(first.tau_c, second.tau_c)
        assert np.array_equal(first.tau_b, second.tau_b)
        assert first.s is paths.s and first.pi_c is paths.pi_c

    def test_seed_offset_draws_a_fresh_set_of_clocks(self):
        paths = self._flat_spread_paths(pi0_c=0.5, pi0_b=0.2, n_paths=500)
        base = sample_default_times(paths, recovery_c=0.4, recovery_b=0.4)
        other = sample_default_times(
            paths, recovery_c=0.4, recovery_b=0.4, seed_offset=1
        )
        assert not np.array_equal(base.tau_c, other.tau_c)

    def test_swap_roles_exchanges_spreads_and_default_times(self):
        paths = self._flat_spread_paths(pi0_c=0.05, pi0_b=0.02, n_paths=200)
        sampled = sample_default_times(paths, recovery_c=0.4, recovery_b=0.6)
        flipped = swap_roles(sampled)
        assert flipped.pi_c is sampled.pi_b and flipped.pi_b is sampled.pi_c
        assert flipped.tau_c is sampled.tau_b and flipped.tau_b is sampled.tau_c
        back = swap_roles(flipped)
        assert back.pi_c is sampled.pi_c and back.tau_c is sampled.tau_c

    def test_paths_name_the_dynamics_they_were_drawn_from(self):
        dyn = ModelDynamics(s0=100.0, rate=0.02, vol_s=0.3, pi0_c=0.05, pi0_b=0.02,
                            vol_c=0.01, rho_sc=0.3)
        paths = sample_default_times(simulate_paths(dyn, 1.0, 4, 50, seed=1), 0.4, 0.6)
        assert paths.dyn == dyn
        flipped = swap_roles(paths)
        assert flipped.dyn == dyn.swapped_roles() and swap_roles(flipped).dyn == dyn
        built = PathSet(times=paths.times, s=paths.s, pi_c=paths.pi_c, pi_b=paths.pi_b, seed=1)
        assert built.dyn is None and swap_roles(built).dyn is None

    def test_swapped_paths_resample_each_name_on_its_own_clock(self):
        paths = self._flat_spread_paths(pi0_c=0.05, pi0_b=0.02, n_paths=5_000)
        sampled = sample_default_times(paths, recovery_c=0.4, recovery_b=0.6)
        flipped = swap_roles(paths)
        assert flipped.clock_columns == (1, 0)
        again = sample_default_times(flipped, recovery_c=0.6, recovery_b=0.4)
        assert np.array_equal(again.tau_c, sampled.tau_b)
        assert np.array_equal(again.tau_b, sampled.tau_c)

    def test_alive_indicator_uses_both_names(self):
        paths = self._flat_spread_paths(pi0_c=0.5, pi0_b=0.3, n_paths=2_000)
        sampled = sample_default_times(paths, recovery_c=0.4, recovery_b=0.4)
        t = 1.0
        expected = (sampled.tau_c > t) & (sampled.tau_b > t)
        assert np.array_equal(sampled.alive(t), expected)
        assert np.all(paths.alive(t))  # unsampled paths are all alive


class TestExposureProfile:
    def test_deterministic_value_gives_exact_profile(self):
        dyn = ModelDynamics(s0=1.0)
        paths = simulate_paths(dyn, horizon=2.0, n_steps=4, n_paths=100, seed=0)
        ois = PiecewiseCurve.flat(0.03)
        profile = exposure_profile(
            paths,
            lambda t, s, pc, pb: 10.0 - 8.0 * t,
            CollateralSpec.none(),
            ois=ois,
        )
        expected = 10.0 - 8.0 * paths.times
        np.testing.assert_array_equal(profile.epe, np.maximum(expected, 0.0))
        np.testing.assert_array_equal(profile.ene, np.maximum(-expected, 0.0))
        np.testing.assert_allclose(
            profile.epe_discounted,
            np.exp(-0.03 * paths.times) * np.maximum(expected, 0.0),
            rtol=1e-14,
        )
        assert np.all(profile.se_epe == 0.0)
        assert np.all(profile.se_ene == 0.0)

    def test_perfect_collateral_wipes_out_the_exposure(self):
        dyn = ModelDynamics(s0=100.0, vol_s=0.4)
        paths = simulate_paths(dyn, horizon=1.0, n_steps=8, n_paths=300, seed=2)
        profile = exposure_profile(
            paths, lambda t, s, pc, pb: s - 100.0, CollateralSpec.perfect()
        )
        assert np.all(profile.epe == 0.0)
        assert np.all(profile.ene == 0.0)
        assert np.all(profile.se_epe == 0.0)

    def test_threshold_collateral_caps_the_exposure(self):
        dyn = ModelDynamics(s0=1.0)
        paths = simulate_paths(dyn, horizon=1.0, n_steps=2, n_paths=10, seed=0)
        profile = exposure_profile(
            paths,
            lambda t, s, pc, pb: 8.0,
            CollateralSpec.bilateral_threshold(5.0),
        )
        np.testing.assert_array_equal(profile.epe, np.full(3, 5.0))
        np.testing.assert_array_equal(profile.ene, np.zeros(3))

    def test_defaulted_paths_stop_contributing(self):
        dyn = ModelDynamics(s0=1.0, pi0_c=0.5)
        paths = simulate_paths(dyn, horizon=2.0, n_steps=4, n_paths=4_000, seed=6)
        sampled = sample_default_times(paths, recovery_c=0.4, recovery_b=0.4)
        profile = exposure_profile(
            sampled, lambda t, s, pc, pb: 10.0, CollateralSpec.none()
        )
        for k, t in enumerate(sampled.times):
            expected = np.where(sampled.alive(t), 10.0, 0.0).mean()
            assert profile.epe[k] == expected

    def test_profile_matches_a_hand_rolled_computation(self):
        dyn = ModelDynamics(
            s0=100.0, rate=0.02, vol_s=0.35, pi0_c=0.06, vol_c=0.1, rho_sc=0.3
        )
        paths = simulate_paths(dyn, horizon=1.5, n_steps=6, n_paths=3_000, seed=17)
        sampled = sample_default_times(paths, recovery_c=0.4, recovery_b=0.4)
        ois = PiecewiseCurve.flat(0.02)
        spec = CollateralSpec.bilateral_threshold(4.0)
        profile = exposure_profile(
            sampled, lambda t, s, pc, pb: s - 100.0, spec, ois=ois
        )
        n = sampled.n_paths
        discounts = np.exp(-0.02 * sampled.times)
        for k, t in enumerate(sampled.times):
            value = sampled.s[:, k] - 100.0
            posted = np.sign(value) * np.maximum(np.abs(value) - 4.0, 0.0)
            alive = (sampled.tau_c > t) & (sampled.tau_b > t)
            gap = np.where(alive, value - posted, 0.0)
            pos = np.maximum(gap, 0.0)
            neg = np.maximum(-gap, 0.0)
            disc = discounts[k]
            assert profile.epe[k] == pos.mean()
            assert profile.ene[k] == neg.mean()
            assert profile.epe_discounted[k] == disc * pos.mean()
            assert profile.se_epe[k] == pos.std() / math.sqrt(n)
            assert profile.se_ene_discounted[k] == disc * (neg.std() / math.sqrt(n))

    def test_collateral_can_track_a_separate_reference_value(self):
        # collateral follows the clean value while the exposure uses a value
        # shifted by a constant, so the gap equals that constant plus the
        # threshold shortfall
        dyn = ModelDynamics(s0=1.0)
        paths = simulate_paths(dyn, horizon=1.0, n_steps=2, n_paths=5, seed=0)
        profile = exposure_profile(
            paths,
            lambda t, s, pc, pb: 9.0,
            CollateralSpec.perfect(),
            collateral_valuation=lambda t, s, pc, pb: 7.0,
        )
        np.testing.assert_array_equal(profile.epe, np.full(3, 2.0))

    def test_rows_round_trip_the_columns(self):
        dyn = ModelDynamics(s0=1.0, vol_s=0.2)
        paths = simulate_paths(dyn, horizon=1.0, n_steps=3, n_paths=40, seed=1)
        profile = exposure_profile(
            paths, lambda t, s, pc, pb: s - 1.0, CollateralSpec.none()
        )
        header, rows = profile.to_rows()
        assert header[0] == "time"
        assert len(header) == 9
        assert len(rows) == 4
        assert rows[0][0] == 0.0
        for j, name in enumerate(header[1:], start=1):
            np.testing.assert_array_equal(
                [row[j] for row in rows], getattr(profile, name)
            )
