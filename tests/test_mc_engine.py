"""Tests for the path simulator, default sampling, and exposure profiles."""

import math

import numpy as np
import pytest

from bondxva.curves import PiecewiseCurve
from bondxva.instruments import CollateralSpec
from bondxva.mc_engine import (
    BLOCK_SIZE,
    ModelDynamics,
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
        ],
    )
    def test_bad_grid_arguments_rejected(self, kwargs, message):
        kwargs.setdefault("horizon", 1.0)
        with pytest.raises(ValueError, match=message):
            simulate_paths(ModelDynamics(s0=1.0), seed=0, **kwargs)

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
