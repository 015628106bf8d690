import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from qtel import (
    FluctuatorSpec,
    SystemSpec,
    decoherence_generator,
    discrete_transfer_operator,
    empirical_spectrum,
    enumerate_sequences,
    evolve_operator,
    sample_dwell_times,
    sample_trajectories,
    spectral_decomposition,
    step_rotation,
    telegraph_spectrum,
    transfer_from_spectral,
)
from qtel.superop import boundary_projectors

from conftest import make_system, two_fluctuator_system

X_AXIS = np.array([1.0, 0.0, 0.0])


def powered_contraction(sys, dt, n):
    step = discrete_transfer_operator(sys, dt)
    readout, prepare = boundary_projectors(sys)
    return (readout @ np.linalg.matrix_power(step.mat, n) @ prepare).real


class TestEnumeration:
    def test_single_interval(self):
        sys = make_system(theta=0.9, gamma=0.2, eta=0.1)
        f = sys.fluctuators[0]
        dist = sys.distributions()[0]
        result = enumerate_sequences(sys, dt=0.1, n_steps=1)
        expected = dist.p_plus * step_rotation(1.0, f.g, 1, 0.1) + dist.p_minus * step_rotation(
            1.0, f.g, -1, 0.1
        )
        assert_allclose(result.t_matrix, expected, atol=1e-15)
        assert abs(result.total_probability - 1.0) < 1e-12

    def test_matches_powered_transfer_operator(self):
        sys = make_system(theta=0.0, g=0.3, gamma=0.1)
        result = enumerate_sequences(sys, dt=0.1, n_steps=12)
        assert np.abs(result.t_matrix - powered_contraction(sys, 0.1, 12)).max() < 1e-12

    def test_matches_across_parameter_grid(self, rng):
        for _ in range(10):
            gamma = rng.uniform(0.05, 0.8)
            sys = make_system(
                b0=rng.uniform(0.0, 2.0),
                g=rng.uniform(0.0, 1.5),
                theta=rng.uniform(0, np.pi / 2),
                gamma=gamma,
                eta=rng.uniform(-gamma, gamma),
            )
            n = int(rng.integers(2, 13))
            dt = rng.uniform(0.01, 0.5)
            result = enumerate_sequences(sys, dt=dt, n_steps=n)
            assert np.abs(result.t_matrix - powered_contraction(sys, dt, n)).max() < 1e-12
            assert abs(result.total_probability - 1.0) < 1e-12

    def test_long_enumeration_sum_does_not_drift(self):
        # 2**18 weighted terms: a running sum missed the powered step by
        # 1.035e-12 here; the tolerance stays at 1e-12.
        g = np.array([0.11895155906844336, 0.0, 0.023195111276308102])
        sys = SystemSpec(
            b0=1.0,
            fluctuators=(
                FluctuatorSpec(g=g, gamma=0.5978298545026773, eta=-0.25171878785453866),
            ),
        )
        result = enumerate_sequences(sys, dt=0.1, n_steps=18)
        assert np.abs(result.t_matrix - powered_contraction(sys, 0.1, 18)).max() < 1e-12
        assert abs(result.total_probability - 1.0) < 1e-12
        # The result must not keep the 2**18 summed products alive.
        assert result.t_matrix.base is None

    def test_decoupled_noise_leaves_pure_precession(self):
        sys = make_system(g=0.0, gamma=0.4)
        result = enumerate_sequences(sys, dt=0.2, n_steps=8)
        expected = step_rotation(1.0, np.zeros(3), 1, 0.2 * 8)
        assert_allclose(result.t_matrix, expected, atol=1e-12)

    def test_step_cap_enforced(self):
        with pytest.raises(ValueError, match="n_steps"):
            enumerate_sequences(make_system(), dt=0.1, n_steps=21)



# Both oracles are exact only for one fluctuator without white noise.
@pytest.mark.parametrize(
    "oracle",
    [
        pytest.param(lambda sys: enumerate_sequences(sys, dt=0.1, n_steps=4), id="enumeration"),
        pytest.param(lambda sys: sample_trajectories(sys, X_AXIS, [1.0], n_samples=10, seed=0),
                     id="monte-carlo"),
    ],
)
@pytest.mark.parametrize(
    "sys, message",
    [
        pytest.param(make_system(white_noise=[0.0, 0.0, 0.1]), "white noise", id="white-noise"),
        pytest.param(two_fluctuator_system(), "one fluctuator", id="two-fluctuators"),
    ],
)
def test_oracles_reject_what_they_cannot_model(oracle, sys, message):
    with pytest.raises(ValueError, match=message):
        oracle(sys)


class TestMonteCarlo:
    def test_noise_free_sampling_is_deterministic(self):
        sys = make_system(g=0.0, gamma=0.2)
        times = np.array([1.0, 3.0])
        estimate = sample_trajectories(sys, X_AXIS, times, n_samples=200, seed=1)
        for k, t in enumerate(times):
            expected = step_rotation(1.0, np.zeros(3), 1, t) @ X_AXIS
            assert_allclose(estimate.mean[k], expected, atol=1e-12)
            # stderr is roundoff-limited via the sum-of-squares reduction
            assert_allclose(estimate.stderr[k], 0.0, atol=1e-7)

    def test_converges_to_transfer_matrix_prediction(self, strong_mixed_system):
        times = np.array([1.0, 5.0, 10.0])
        estimate = sample_trajectories(
            strong_mixed_system, X_AXIS, times, n_samples=100_000, seed=7
        )
        gen = decoherence_generator(strong_mixed_system)
        sd = spectral_decomposition(gen)
        exact = transfer_from_spectral(sd, times) @ X_AXIS
        sigma = np.abs(estimate.mean - exact) / estimate.stderr
        assert sigma.max() < 5.0

    def test_frozen_fluctuator_rotates_about_shifted_axis(self):
        sys = make_system(g=0.3, theta=0.6, gamma=0.1, eta=0.1)
        f = sys.fluctuators[0]
        times = np.array([2.0, 6.0])
        estimate = sample_trajectories(sys, X_AXIS, times, n_samples=500, seed=3)
        for k, t in enumerate(times):
            expected = step_rotation(1.0, f.g, -1, t) @ X_AXIS
            assert_allclose(estimate.mean[k], expected, atol=1e-12)
            # stderr is roundoff-limited via the sum-of-squares reduction
            assert_allclose(estimate.stderr[k], 0.0, atol=1e-7)

    def test_bit_reproducible_and_worker_independent(self, strong_mixed_system):
        times = np.array([0.5, 2.0])
        a = sample_trajectories(strong_mixed_system, X_AXIS, times, 20_000, seed=42)
        b = sample_trajectories(strong_mixed_system, X_AXIS, times, 20_000, seed=42)
        c = sample_trajectories(strong_mixed_system, X_AXIS, times, 20_000, seed=42, workers=4)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.stderr, b.stderr)
        assert np.array_equal(a.mean, c.mean) and np.array_equal(a.stderr, c.stderr)

    def test_stderr_scales_inverse_sqrt(self, strong_mixed_system):
        times = np.array([5.0])
        small = sample_trajectories(strong_mixed_system, X_AXIS, times, 4_000, seed=11)
        large = sample_trajectories(strong_mixed_system, X_AXIS, times, 16_000, seed=11)
        ratio = small.stderr.mean() / large.stderr.mean()
        assert 1.7 < ratio < 2.3  # expected factor 2 from 4x the samples

    def test_biased_switching_shifts_mean(self):
        # eta > 0 favors the minus level; the average precession axis tilts.
        sys = make_system(g=0.3, theta=np.pi / 2, gamma=0.2, eta=0.1)
        times = np.array([4.0])
        estimate = sample_trajectories(sys, X_AXIS, times, 50_000, seed=5)
        gen = decoherence_generator(sys)
        _, transfer = evolve_operator(gen, 4.0)
        sigma = np.abs(estimate.mean[0] - transfer @ X_AXIS) / estimate.stderr[0]
        assert sigma.max() < 5.0


class TestDwellTimes:
    def test_symmetric_dwells_are_exponential_with_rate_gamma(self):
        f = FluctuatorSpec(g=[0, 0, 0.3], gamma=0.1, eta=0.0)
        dwells = sample_dwell_times(f, 20_000, seed=9)
        result = scipy.stats.kstest(dwells, "expon", args=(0, 1.0 / 0.1))
        assert result.pvalue > 0.01

    def test_biased_dwells_mix_two_rates(self):
        f = FluctuatorSpec(g=[0, 0, 0.3], gamma=0.2, eta=0.1)
        dwells = sample_dwell_times(f, 50_000, seed=13)
        # Alternating levels: half the dwells at rate 0.3, half at 0.1.
        expected_mean = 0.5 * (1.0 / 0.3 + 1.0 / 0.1)
        assert abs(dwells.mean() - expected_mean) / expected_mean < 0.05

    def test_frozen_fluctuator_rejected(self):
        f = FluctuatorSpec(g=[0, 0, 0.3], gamma=0.1, eta=0.1)
        with pytest.raises(ValueError, match="frozen"):
            sample_dwell_times(f, 100, seed=1)


class TestEmpiricalSpectrum:
    def test_lorentzian_parameters_recovered(self):
        f = FluctuatorSpec(g=[0.1, 0.0, 0.0], gamma=0.5, eta=0.0)
        estimate = empirical_spectrum(f, n_samples=400, seed=11)
        assert abs(estimate.s_zero - 0.02) / 0.02 < 0.10
        assert abs(estimate.hwhm - 1.0) / 1.0 < 0.10

    def test_matches_analytic_spectrum_pointwise(self):
        f = FluctuatorSpec(g=[0.3, 0.0, 0.0], gamma=0.1, eta=0.0)
        estimate = empirical_spectrum(f, n_samples=600, seed=2)
        window = estimate.omega < 1.0
        analytic = telegraph_spectrum(estimate.omega[window], 0.1, 0.3)
        rel = np.abs(estimate.values[window] - analytic) / analytic
        assert np.median(rel) < 0.15

    def test_quadratic_coupling_scaling(self):
        base = FluctuatorSpec(g=[0.1, 0.0, 0.0], gamma=0.5, eta=0.0)
        doubled = FluctuatorSpec(g=[0.2, 0.0, 0.0], gamma=0.5, eta=0.0)
        a = empirical_spectrum(base, n_samples=200, seed=21)
        b = empirical_spectrum(doubled, n_samples=200, seed=21)
        assert_allclose(b.values, 4.0 * a.values, rtol=1e-12)

    def test_biased_noise_rejected(self):
        f = FluctuatorSpec(g=[0.1, 0, 0], gamma=0.5, eta=0.1)
        with pytest.raises(ValueError, match="eta"):
            empirical_spectrum(f, n_samples=10, seed=0)
