import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from numpy.testing import assert_allclose

from qtel import (
    BangBangResult,
    BlochTrajectory,
    FluctuatorDistribution,
    FluctuatorSpec,
    PulseSequence,
    SystemSpec,
    bang_bang_operator,
    decoherence_generator,
    detect_plateaus,
    detect_steps,
    echo_signal,
    evolve_operator,
    fit_exponential_decay,
    free_decay_rates,
    free_trajectory,
    rotation_matrix,
    sequence_operator,
    spectral_decomposition,
    to_rotating_frame,
    transfer_from_spectral,
)
from qtel import dynamics, superop
from qtel.superop import EigendecompositionError, boundary_projectors

from conftest import make_system, mixed_fluctuator_system, two_fluctuator_system

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])


class TestFreeTrajectory:
    def test_noise_free_evolution_keeps_norm(self):
        sys = make_system(g=0.0, gamma=0.3)
        traj = free_trajectory(sys, X_AXIS, np.linspace(0, 20, 101))
        assert_allclose(np.linalg.norm(traj.points, axis=1), 1.0, atol=1e-12)

    def test_mixed_point_induces_z_from_x(self, strong_mixed_system):
        traj = free_trajectory(strong_mixed_system, X_AXIS, np.linspace(0, 60, 601))
        assert np.abs(traj.points[:, 2]).max() > 0.01
        rates = free_decay_rates(strong_mixed_system)
        assert rates.rate_z < rates.rate_xy

    def test_mixed_point_induces_transverse_from_z(self, strong_mixed_system):
        traj = free_trajectory(strong_mixed_system, [0.0, 0.0, 1.0], np.linspace(0, 60, 601))
        assert np.abs(traj.points[:, 0]).max() > 0.01
        assert np.abs(traj.points[:, 1]).max() > 0.01

    def test_trajectory_grid_must_start_at_zero(self, strong_mixed_system):
        with pytest.raises(ValueError, match="times"):
            free_trajectory(strong_mixed_system, X_AXIS, np.linspace(1.0, 2.0, 5))


class TestRotatingFrame:
    def test_noise_free_rotating_frame_is_constant(self):
        sys = make_system(g=0.0, gamma=0.3)
        traj = to_rotating_frame(free_trajectory(sys, X_AXIS, np.linspace(0, 20, 101)), 1.0)
        assert_allclose(traj.points, np.tile(X_AXIS, (101, 1)), atol=1e-12)

    def test_norm_invariance(self, strong_mixed_system):
        lab = free_trajectory(strong_mixed_system, X_AXIS, np.linspace(0, 30, 301))
        rot = to_rotating_frame(lab, 1.0)
        assert_allclose(
            np.linalg.norm(rot.points, axis=1), np.linalg.norm(lab.points, axis=1), atol=1e-14
        )

    def test_double_application_rejected(self, strong_mixed_system):
        rot = to_rotating_frame(
            free_trajectory(strong_mixed_system, X_AXIS, np.linspace(0, 5, 50)), 1.0
        )
        with pytest.raises(ValueError, match="already"):
            to_rotating_frame(rot, 1.0)

    @pytest.mark.parametrize("b0", [np.nan, np.inf])
    def test_non_finite_field_named(self, strong_mixed_system, b0):
        lab = free_trajectory(strong_mixed_system, X_AXIS, np.linspace(0, 5, 11))
        with pytest.raises(ValueError, match=f"b0 must be finite, got {b0}"):
            to_rotating_frame(lab, b0)

    def test_strong_coupling_oscillates_in_rotating_frame(self, strong_mixed_system):
        traj = to_rotating_frame(
            free_trajectory(strong_mixed_system, X_AXIS, np.linspace(0, 60, 1201)), 1.0
        )
        slope = np.diff(traj.points[:, 0])
        slope = slope[np.abs(slope) > 1e-12]
        sign_changes = int(np.sum(np.diff(np.sign(slope)) != 0))
        assert sign_changes >= 2


def assert_same_bang_bang(a, b):
    """Two bang-bang results equal bit for bit, rates and flags included."""
    for field in ("transfer", "eigenvalues", "candidate_rates"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert (a.tau, a.n_pulses, a.axis) == (b.tau, b.n_pulses, b.axis)
    assert (a.rates.rate_x, a.rates.rate_y, a.rates.rate_z, a.rates.rate_xy, a.rates.flags) == (
        b.rates.rate_x, b.rates.rate_y, b.rates.rate_z, b.rates.rate_xy, b.rates.flags)


def assert_degraded(sys, sd, result, spectral):
    """A period flagged defective: its schedule's transfer, against the powered period and
    expm, and its rates are ``spectral``'s, read from the same weights, with the
    near-defective flag."""
    axis = {"x": X_AXIS, "y": Y_AXIS}[result.axis]
    lift = np.kron(np.eye(2**sys.n_fluctuators), rotation_matrix(axis, np.pi))
    period = scipy.linalg.expm(-result.tau * sd.operator.mat) @ lift
    readout, prepare = boundary_projectors(sys)
    powered = readout @ np.linalg.matrix_power(period, result.n_pulses) @ prepare
    assert_allclose(result.transfer, powered, rtol=0, atol=1e-10)
    expected = expm_schedule(sys, [(axis, np.pi), result.tau] * result.n_pulses)
    assert_allclose(result.transfer, expected, rtol=0, atol=1e-10)
    assert np.array_equal(result.eigenvalues, spectral.eigenvalues)
    assert np.array_equal(result.candidate_rates, spectral.candidate_rates)
    assert (result.tau, result.n_pulses, result.axis) == (spectral.tau, spectral.n_pulses,
                                                          spectral.axis)
    got, want = result.rates, spectral.rates
    assert (got.rate_x, got.rate_y, got.rate_z, got.rate_xy) == (
        want.rate_x, want.rate_y, want.rate_z, want.rate_xy)
    assert got.flags == want.flags + ("near-defective",)


class TestBangBang:
    def test_noise_free_pulses_cause_no_decay(self):
        sys = make_system(g=0.0, gamma=0.3)
        result = bang_bang_operator(sys, tau=0.7, n_pulses=4, axis="y")
        assert result.rates.rate_z == 0.0
        assert result.rates.rate_xy == 0.0
        weighted = np.abs(result.eigenvalues)[
            result.rates.mode_weights["x"] + result.rates.mode_weights["z"] > 1e-8
        ]
        assert_allclose(weighted, 1.0, atol=1e-12)

    def test_sparse_pulses_recover_free_rates(self):
        # tau far beyond the noise correlation time: no suppression.
        sys = make_system(g=0.03, theta=np.pi / 4, gamma=0.1)
        free = free_decay_rates(sys)
        result = bang_bang_operator(sys, tau=10.0 / 0.03, n_pulses=1)
        assert abs(result.rates.rate_z / free.rate_z - 1.0) < 0.05
        assert abs(result.rates.rate_xy / free.rate_xy - 1.0) < 0.05

    def test_fast_pulses_suppress_decoherence(self):
        sys = make_system(g=0.03, theta=np.pi / 4, gamma=0.1)
        sd = spectral_decomposition(decoherence_generator(sys))
        fast = bang_bang_operator(sys, tau=0.1 / 0.03, n_pulses=1, sd=sd)
        slow = bang_bang_operator(sys, tau=10.0 / 0.03, n_pulses=1, sd=sd)
        assert fast.rates.rate_z < 0.5 * slow.rates.rate_z
        assert fast.rates.rate_xy < 0.5 * slow.rates.rate_xy

    def test_transfer_is_contraction(self, rng, strong_mixed_system):
        result = bang_bang_operator(strong_mixed_system, tau=1.3, n_pulses=7)
        vecs = rng.normal(size=(100, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        assert np.linalg.norm(vecs @ result.transfer.T, axis=1).max() <= 1.0 + 1e-9

    def test_defective_period_degrades_through_shared_gate(self, monkeypatch, strong_mixed_system):
        # A period flagged defective is composed as a schedule; its rates are the same weights'.
        sys, tau, n = strong_mixed_system, 1.3, 7
        sd = spectral_decomposition(decoherence_generator(sys))
        spectral = bang_bang_operator(sys, tau, n, sd=sd)
        monkeypatch.setattr(superop, "DEFECTIVE_CONDITION", 0.0)
        result = bang_bang_operator(sys, tau, n, sd=sd)
        assert_degraded(sys, sd, result, spectral)

    def test_boundary_maps_built_once(self, monkeypatch, strong_mixed_system):
        # The rates and the transfer of every tau in a sweep share the generator's boundary maps.
        sd = spectral_decomposition(decoherence_generator(strong_mixed_system))
        calls = []

        def counting(sys):
            calls.append(sys)
            return boundary_projectors(sys)

        monkeypatch.setattr(superop, "boundary_projectors", counting)
        monkeypatch.setattr(dynamics, "boundary_projectors", counting, raising=False)
        for tau in (0.4, 1.3, 2.9):
            bang_bang_operator(strong_mixed_system, tau=tau, n_pulses=1, sd=sd)
        assert len(calls) == 1

    def test_invalid_arguments_rejected(self, strong_mixed_system):
        with pytest.raises(ValueError, match="tau"):
            bang_bang_operator(strong_mixed_system, tau=0.0, n_pulses=1)
        with pytest.raises(ValueError, match="tau"):
            bang_bang_operator(strong_mixed_system, tau=np.nan, n_pulses=1)
        with pytest.raises(ValueError, match="n_pulses"):
            bang_bang_operator(strong_mixed_system, tau=1.0, n_pulses=0)
        with pytest.raises(ValueError, match="axis"):
            bang_bang_operator(strong_mixed_system, tau=1.0, n_pulses=1, axis="z")

    def test_infinite_tau_rejected(self, strong_mixed_system):
        with pytest.raises(ValueError, match="tau must be finite"):
            bang_bang_operator(strong_mixed_system, tau=np.inf, n_pulses=1)

    @pytest.mark.parametrize("sys", [make_system(g=3.0, theta=np.pi / 4, gamma=0.1),
                                     two_fluctuator_system()], ids=["one", "two"])
    def test_stacked_sweep_equals_pointwise_operators(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        taus = np.linspace(0.05, 4.0, 40)
        sweep = bang_bang_operator(sys, taus, 3, axis="y", sd=sd)
        assert isinstance(sweep, tuple) and len(sweep) == len(taus)
        for member, tau in zip(sweep, taus):
            single = bang_bang_operator(sys, float(tau), 3, axis="y", sd=sd)
            assert_same_bang_bang(member, single)

    def test_sweep_split_into_stacks_equals_one_stack(self, monkeypatch):
        sys = two_fluctuator_system()
        sd = spectral_decomposition(decoherence_generator(sys))
        taus = np.geomspace(0.05, 40.0, 11)
        whole = bang_bang_operator(sys, taus, 2, axis="x", sd=sd)
        decompose, calls = superop._decompose_stack, []

        def recording(mats, name):
            calls.append(mats.shape)
            return decompose(mats, name)

        monkeypatch.setattr(superop, "_STACK_ENTRIES", 3 * 12**2)
        monkeypatch.setattr(superop, "_decompose_stack", recording)
        split = bang_bang_operator(sys, taus, 2, axis="x", sd=sd)
        assert calls == [(3, 12, 12)] * 3 + [(2, 12, 12)]
        for a, b in zip(whole, split, strict=True):
            assert_same_bang_bang(a, b)

    def test_spacing_shapes(self, strong_mixed_system):
        sd = spectral_decomposition(decoherence_generator(strong_mixed_system))
        single = bang_bang_operator(strong_mixed_system, 1.3, 2, sd=sd)
        assert isinstance(single, BangBangResult) and single.tau == 1.3
        assert_same_bang_bang(bang_bang_operator(strong_mixed_system, np.float64(1.3), 2, sd=sd),
                              single)
        (one,) = bang_bang_operator(strong_mixed_system, [1.3], 2, sd=sd)
        assert_same_bang_bang(one, single)
        assert bang_bang_operator(strong_mixed_system, np.array([]), 2, sd=sd) == ()
        with pytest.raises(ValueError, match="1-d array"):
            bang_bang_operator(strong_mixed_system, [[1.3]], 2, sd=sd)
        with pytest.raises(ValueError, match="tau must be finite and > 0, got -1.0"):
            bang_bang_operator(strong_mixed_system, [1.3, -1.0], 2, sd=sd)

    def test_defective_period_in_a_sweep_degrades_alone(self, monkeypatch):
        sys = two_fluctuator_system()
        sd = spectral_decomposition(decoherence_generator(sys))
        taus = np.array([1.3, 0.4, 2.9])  # the period at 0.4 has the largest condition
        lift = np.kron(np.eye(4), rotation_matrix(Y_AXIS, np.pi))
        periods = [scipy.linalg.expm(-tau * sd.operator.mat) @ lift for tau in taus]
        conditions = superop._decompose_stack(np.stack(periods)).condition
        assert np.argmax(conditions) == 1
        spectral = bang_bang_operator(sys, taus, 5, "y", sd)
        monkeypatch.setattr(superop, "DEFECTIVE_CONDITION", np.sort(conditions)[-2:].mean())
        sweep = bang_bang_operator(sys, taus, 5, "y", sd)
        assert [r.tau for r in sweep] == taus.tolist()
        assert_same_bang_bang(sweep[0], spectral[0])
        assert_same_bang_bang(sweep[2], spectral[2])
        assert_degraded(sys, sd, sweep[1], spectral[1])

    def test_defective_period_at_an_exceptional_point(self, monkeypatch):
        # Aligned g = gamma is an exceptional point: the generator is flagged, so a flagged
        # period's schedule is composed by expm.  In stacks of two, the grids hold 2 and 1.
        sys = make_system(g=0.1, theta=0.0, gamma=0.1)
        sd = spectral_decomposition(decoherence_generator(sys))
        assert sd.defective
        taus = np.array([0.4, 1.3, 2.9])
        spectral = bang_bang_operator(sys, taus, 5, "y", sd)
        assert not any("near-defective" in r.rates.flags for r in spectral)
        monkeypatch.setattr(superop, "DEFECTIVE_CONDITION", 5.0)  # each period's is 6
        monkeypatch.setattr(superop, "_STACK_ENTRIES", 2 * sd.dimension**2)
        compose_expm, grids = superop._compose_expm, []

        def recording(sd, steps, prepare):
            grids.append(np.size(steps[1][1]))
            return compose_expm(sd, steps, prepare)

        monkeypatch.setattr(superop, "_compose_expm", recording)
        sweep = bang_bang_operator(sys, taus, 5, "y", sd)
        assert grids == [2, 1]
        for result, want in zip(sweep, spectral, strict=True):
            assert_degraded(sys, sd, result, want)

    def test_errors_name_the_sweep_index_and_tau(self, monkeypatch):
        # In stacks of two, sweep index 2 is member 0 of the second stack.
        sys = two_fluctuator_system()
        sd = spectral_decomposition(decoherence_generator(sys))
        taus = np.array([1.3, 0.4, 2.9])
        decompose = superop._decompose_stack
        residuals = []

        def recording(mats, name):
            spectra = decompose(mats, name)
            residuals.extend(spectra.max_residual)
            return spectra

        with monkeypatch.context() as patch:
            patch.setattr(superop, "_decompose_stack", recording)
            bang_bang_operator(sys, taus, 5, "y", sd)
        taus = taus[np.argsort(residuals)]
        worst, second = np.sort(residuals)[::-1][:2]
        assert worst > second
        monkeypatch.setattr(superop, "_STACK_ENTRIES", 2 * sd.dimension**2)
        with monkeypatch.context() as patch:
            patch.setattr(superop, "RESIDUAL_TOL", (worst + second) / 2)
            with pytest.raises(EigendecompositionError,
                               match=rf"\(member 2 of 3, tau {taus[2]}\)"):
                bang_bang_operator(sys, taus, 5, "y", sd)

        def second_stack_without_left_vectors(mats, name=None):
            spectra = decompose(mats, name)
            if len(mats) == 2:
                return spectra
            return spectra._replace(l_r=np.full_like(spectra.l_r, np.nan))

        monkeypatch.setattr(superop, "_decompose_stack", second_stack_without_left_vectors)
        with pytest.raises(EigendecompositionError,
                           match=rf"no left eigenvectors.*\(member 2 of 3, tau {taus[2]}\)"):
            bang_bang_operator(sys, taus, 5, "y", sd)

    @pytest.mark.parametrize("n_pulses", [1.5, np.nan, True, 2.0])
    def test_non_integer_pulse_count_rejected(self, strong_mixed_system, n_pulses):
        with pytest.raises(ValueError, match="n_pulses"):
            bang_bang_operator(strong_mixed_system, tau=1.0, n_pulses=n_pulses)

    def test_numpy_integer_pulse_count_accepted(self, strong_mixed_system):
        result = bang_bang_operator(strong_mixed_system, tau=1.0, n_pulses=np.int64(3))
        expected = bang_bang_operator(strong_mixed_system, tau=1.0, n_pulses=3)
        assert np.array_equal(result.transfer, expected.transfer)


class TestEchoSignal:
    def test_zero_time_gives_unit_signal(self, strong_mixed_system):
        signal = echo_signal(strong_mixed_system, [0.0])
        assert_allclose(signal, [1.0], atol=1e-12)

    def test_signal_stays_in_unit_interval(self):
        for theta in (0.0, np.pi / 4, np.pi / 2):
            sys = make_system(g=0.8, theta=theta, gamma=0.1)
            signal = echo_signal(sys, np.linspace(0, 40, 401))
            assert signal.max() <= 1.0 + 1e-9
            assert signal.min() >= -1.0 - 1e-9

    def test_strong_coupling_shows_plateaus(self):
        # Flat stretches with |slope| below 5% of the peak slope exist for
        # every working point in the staircase regime.
        times = np.linspace(0, 40, 801)
        for theta in (0.0, np.pi / 4, np.pi / 2):
            sys = make_system(g=0.8, theta=theta, gamma=0.1)
            signal = echo_signal(sys, times)
            assert len(detect_plateaus(times, signal)) >= 1
            assert detect_steps(times, signal).has_steps

    def test_weak_coupling_decays_exponentially(self):
        times = np.linspace(0, 260, 2001)
        sys = make_system(g=0.08, theta=0.0, gamma=0.1)
        signal = echo_signal(sys, times)
        assert not detect_steps(times, signal).has_steps
        fit = fit_exponential_decay(times, signal, t_skip=40.0)
        assert fit.r_squared > 0.999

    def test_aligned_echo_conserves_z_free_channel(self):
        # The echo works on the transverse components; the underlying
        # z channel is exactly conserved for aligned noise.
        rates = free_decay_rates(make_system(g=0.8, theta=0.0, gamma=0.1))
        assert rates.rate_z < 1e-10


class TestSequenceOperator:
    def test_empty_sequence_equals_free_evolution(self, strong_mixed_system):
        gen = decoherence_generator(strong_mixed_system)
        _, expected = evolve_operator(gen, 4.2)
        seq = PulseSequence(events=())
        assert_allclose(sequence_operator(strong_mixed_system, seq, 4.2), expected, atol=1e-13)

    def test_periodic_train_matches_bang_bang(self, strong_mixed_system):
        tau, n = 0.9, 5
        result = bang_bang_operator(strong_mixed_system, tau, n, axis="y")
        seq = PulseSequence(events=tuple((k * tau, Y_AXIS, np.pi) for k in range(n)))
        composed = sequence_operator(strong_mixed_system, seq, n * tau)
        assert_allclose(composed, result.transfer, atol=1e-12)

    def test_echo_schedule_matches_echo_signal(self, strong_mixed_system):
        # The echo carries only the z preparation column; a schedule carries all three.
        times = np.array([0.0, 0.4, 7.3, 21.0])
        for sys in (strong_mixed_system, two_fluctuator_system(), mixed_fluctuator_system(3)):
            signal = echo_signal(sys, times)
            for t, s in zip(times, signal):
                seq = PulseSequence(
                    events=(
                        (0.0, X_AXIS, np.pi / 2),
                        (t / 2, X_AXIS, np.pi),
                        (t, X_AXIS, np.pi / 2),
                    ),
                )
                assert abs(sequence_operator(sys, seq, t)[2, 2] - s) < 1e-13

    def test_pulse_and_inverse_cancel(self, strong_mixed_system):
        t = 3.0
        base = sequence_operator(strong_mixed_system, PulseSequence(events=()), t)
        axis = np.array([0.3, -0.5, 0.8])
        axis /= np.linalg.norm(axis)
        seq = PulseSequence(events=((1.2, axis, 0.77), (1.2, axis, -0.77)))
        padded = sequence_operator(strong_mixed_system, seq, t)
        assert_allclose(padded, base, atol=1e-12)

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            PulseSequence(events=((1.0, X_AXIS, np.pi), (0.5, X_AXIS, np.pi)))

    def test_event_after_final_time_rejected(self, strong_mixed_system):
        seq = PulseSequence(events=((5.0, X_AXIS, np.pi),))
        with pytest.raises(ValueError, match="t_final"):
            sequence_operator(strong_mixed_system, seq, 4.0)

    def test_nan_final_time_rejected(self, strong_mixed_system):
        seq = PulseSequence(events=((1.0, X_AXIS, np.pi),))
        with pytest.raises(ValueError, match="t_final"):
            sequence_operator(strong_mixed_system, seq, np.nan)

    def test_infinite_final_time_rejected(self, strong_mixed_system):
        seq = PulseSequence(events=((1.0, X_AXIS, np.pi),))
        with pytest.raises(ValueError, match="t_final"):
            sequence_operator(strong_mixed_system, seq, np.inf)

    @pytest.mark.parametrize("time", [np.nan, np.inf])
    def test_non_finite_pulse_time_rejected(self, time):
        with pytest.raises(ValueError, match="pulse times"):
            PulseSequence(events=((time, X_AXIS, np.pi),))

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_pulse_angle_rejected(self, angle):
        with pytest.raises(ValueError, match="pulse angles"):
            PulseSequence(events=((1.0, X_AXIS, angle),))

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            PulseSequence(events=((0.0, np.array([1.0, 1.0, 0.0]), np.pi),))


REAL_FORM_SYSTEMS = [make_system(g=0.3, theta=np.pi / 4, gamma=0.1),
                     mixed_fluctuator_system(3, white_noise=(0.01, 0.02, 0.03))]


@pytest.mark.parametrize("sys", REAL_FORM_SYSTEMS, ids=["strong-mixed", "three-white-noise"])
class TestRealPairForm:
    """Real period builds and grid contractions against complex V diag(exp(-lambda t)) V^-1.

    The pair form returns real arrays with no imaginary part to check; the reference
    keeps the complex eigenvectors and takes numpy's complex inverse.
    """

    @staticmethod
    def reference(sd):
        right = sd.right_vectors
        left = np.linalg.inv(right)
        return lambda t: (right * np.exp(-sd.eigenvalues * t)) @ left

    @staticmethod
    def assert_relative(got, want):
        assert got.dtype == np.float64
        assert np.abs(want.imag).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(got - want.real).max() <= 1e-12 * np.abs(want).max()

    def test_period_build(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        propagator = self.reference(sd)
        taus = np.array([0.05, 1.3, 7.0])
        stack = dynamics._exp_generator(sd, taus)
        for tau, got in zip(taus, stack):
            self.assert_relative(got, propagator(tau))
            self.assert_relative(dynamics._exp_generator(sd, float(tau)), propagator(tau))

    def test_bang_bang_transfer(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        propagator = self.reference(sd)
        readout, prepare = boundary_projectors(sys)
        lift = np.kron(np.eye(2**sys.n_fluctuators), rotation_matrix(Y_AXIS, np.pi))
        for tau in (0.4, 2.5):
            period = propagator(tau) @ lift
            want = readout @ np.linalg.matrix_power(period, 6) @ prepare
            self.assert_relative(bang_bang_operator(sys, tau, 6, sd=sd).transfer, want)

    def test_free_grid(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        propagator = self.reference(sd)
        readout, prepare = boundary_projectors(sys)
        times = np.linspace(0.0, 30.0, 61)
        want = np.stack([readout @ propagator(t) @ prepare for t in times])
        self.assert_relative(transfer_from_spectral(sd, times), want)

    def test_echo_grid(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        propagator = self.reference(sd)
        readout, prepare = boundary_projectors(sys)
        eye = np.eye(2**sys.n_fluctuators)
        half = np.kron(eye, rotation_matrix(X_AXIS, np.pi / 2))
        flip = np.kron(eye, rotation_matrix(X_AXIS, np.pi))
        times = np.linspace(0.0, 30.0, 31)
        want = np.array([
            (readout @ half @ propagator(t / 2) @ flip @ propagator(t / 2) @ half @ prepare)[2, 2]
            for t in times])
        self.assert_relative(echo_signal(sys, times, sd=sd), want)


def expm_schedule(sys, factors):
    """Boundary contraction of expm segments and Kronecker-lifted pulses.

    ``factors`` lists, in the order they act, durations and
    ``(axis, angle)`` pulses; the pulse rotation is the matrix exponential
    of the axis cross-product generator.
    """
    gen = decoherence_generator(sys).mat
    full = np.eye(len(gen))
    for factor in factors:
        if isinstance(factor, tuple):
            (x, y, z), angle = factor
            cross = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
            step = np.kron(np.eye(2**sys.n_fluctuators), scipy.linalg.expm(angle * cross))
        else:
            step = scipy.linalg.expm(-factor * gen)
        full = step @ full
    readout, prepare = boundary_projectors(sys)
    return (readout @ full @ prepare).real


@pytest.mark.parametrize(
    "sys, defective",
    [
        (make_system(g=0.3, theta=np.pi / 4, gamma=0.1, eta=0.04), True),
        (two_fluctuator_system(), False),
        (two_fluctuator_system(), True),
        (mixed_fluctuator_system(3), False),
    ],
    ids=["one-defective", "two", "two-defective", "three"],
)
class TestScheduleEngineAgainstExpm:
    """Pulse compositions against expm products on the full joint space."""

    @staticmethod
    def decomposition(sys, defective):
        sd = spectral_decomposition(decoherence_generator(sys))
        if defective:
            object.__setattr__(sd, "defective", True)
        return sd

    def test_transfer_from_spectral(self, sys, defective):
        times = np.array([0.0, 0.7, 3.1, 3.1, 15.0])
        transfer = transfer_from_spectral(self.decomposition(sys, defective), times)
        expected = [expm_schedule(sys, [t]) for t in times]
        assert_allclose(transfer, expected, rtol=0, atol=1e-10)

    def test_echo_signal(self, sys, defective):
        times = np.array([0.0, 0.7, 3.1, 8.4, 15.0])
        signal = echo_signal(sys, times, sd=self.decomposition(sys, defective))
        half, flip = (X_AXIS, np.pi / 2), (X_AXIS, np.pi)
        expected = [
            expm_schedule(sys, [half, t / 2, flip, t / 2, half])[2, 2] for t in times
        ]
        assert_allclose(signal, expected, rtol=0, atol=1e-10)

    def test_sequence_operator(self, sys, defective):
        axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        seq = PulseSequence(
            events=(
                (0.0, X_AXIS, np.pi / 2),
                (1.1, Y_AXIS, np.pi),
                (1.1, axis, 0.77),
                (3.4, Y_AXIS, np.pi),
            )
        )
        composed = sequence_operator(sys, seq, 5.0, sd=self.decomposition(sys, defective))
        expected = expm_schedule(
            sys,
            [(X_AXIS, np.pi / 2), 1.1, (Y_AXIS, np.pi), (axis, 0.77), 2.3, (Y_AXIS, np.pi), 1.6],
        )
        assert_allclose(composed, expected, rtol=0, atol=1e-10)

    def test_bang_bang_transfer(self, sys, defective):
        tau, sd = 1.3, self.decomposition(sys, defective)
        for n in (6, 40):
            result = bang_bang_operator(sys, tau, n, axis="x", sd=sd)
            expected = expm_schedule(sys, [(X_AXIS, np.pi), tau] * n)
            assert_allclose(result.transfer, expected, rtol=0, atol=1e-10)

    def test_bang_bang_eigenvalues(self, sys, defective):
        tau = 1.3
        result = bang_bang_operator(sys, tau, 1, axis="y", sd=self.decomposition(sys, defective))
        lift = np.kron(np.eye(2**sys.n_fluctuators), rotation_matrix(Y_AXIS, np.pi))
        expected = np.linalg.eigvals(scipy.linalg.expm(-tau * decoherence_generator(sys).mat) @ lift)
        # Pair each eigenvalue with its nearest counterpart: conjugate pairs may swap order.
        got, want = scipy.optimize.linear_sum_assignment(
            np.abs(result.eigenvalues[:, None] - expected[None, :])
        )
        assert_allclose(result.eigenvalues[got], expected[want], rtol=0, atol=1e-10)


class TestAlignedEnsembleFactorizes:
    """An outside reference for N >= 2: fluctuators coupled along z commute.

    Each one adds an independent phase to the transverse coherence, so the
    N-fluctuator coherence is the product of the one-fluctuator ones (Bergli,
    Galperin & Altshuler, New J. Phys. 11, 025002 (2009)).  Where that coherence is
    real, the N-fluctuator element equals the product of the one-fluctuator
    elements, up to the sign the element puts on the coherence.  Distinct ``|g|``
    and gamma make every fluctuator's factor different.
    """

    G = (0.3, 0.17, 0.45, 0.24)
    GAMMA = (0.1, 0.35, 0.22, 0.6)
    TIMES = np.linspace(0.0, 20.0, 41)

    def system(self, members, b0, eta_ratio=0.0):
        return SystemSpec(b0=b0, fluctuators=tuple(
            FluctuatorSpec(g=[0.0, 0.0, self.G[i]], gamma=self.GAMMA[i],
                           eta=eta_ratio * self.GAMMA[i])
            for i in members))

    def product(self, n, output, **kwargs):
        return np.prod([output(self.system([i], **kwargs)) for i in range(n)], axis=0)

    @pytest.mark.parametrize("eta_ratio", [0.0, 0.4])
    @pytest.mark.parametrize("b0", [0.0, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_echo_is_the_product_of_single_fluctuator_echoes(self, n, b0, eta_ratio):
        # The echo refocuses b0 and, with any bias, has a real coherence: a stationary
        # two-level process is reversible, and reversal flips the sign of the echo phase.
        def echo(sys):
            return echo_signal(sys, self.TIMES)

        got = echo(self.system(range(n), b0=b0, eta_ratio=eta_ratio))
        assert_allclose(got, self.product(n, echo, b0=b0, eta_ratio=eta_ratio), rtol=0,
                        atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_free_decay_is_the_product_at_zero_field(self, n):
        def t_xx(sys):
            return transfer_from_spectral(spectral_decomposition(decoherence_generator(sys)),
                                          self.TIMES)[:, 0, 0]

        got = t_xx(self.system(range(n), b0=0.0))
        assert_allclose(got, self.product(n, t_xx, b0=0.0), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("b0", [0.0, 1.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cpmg_is_the_signed_product(self, n, b0):
        # pi/2 about x takes z to -y, four pi pulses about y refocus b0, and the (y, z)
        # element reads out minus the coherence: hence the sign (-1)^(N - 1).
        tau = 3.0
        seq = PulseSequence(events=((0.0, X_AXIS, np.pi / 2),)
                            + tuple(((k + 0.5) * tau, Y_AXIS, np.pi) for k in range(4)))

        def y_from_z(sys):
            return sequence_operator(sys, seq, 4 * tau)[1, 2]

        got = y_from_z(self.system(range(n), b0=b0))
        want = (-1) ** (n - 1) * self.product(n, y_from_z, b0=b0)
        assert abs(got) > 0.1 and abs(got - want) <= 1e-13


def frozen_levels(sys):
    """Weight and total field of each joint level of a frozen ensemble.

    A level lists one ``s_i = +-1`` per fluctuator; its weight is the product of the
    fluctuators' occupations ``p_plus`` (s = +1) or ``p_minus`` (s = -1), and its field
    is ``b0 z + sum_i s_i g_i``.
    """
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=sys.n_fluctuators)))
    occupation = np.array([[d.p_plus, d.p_minus] for d in sys.distributions()])
    weights = np.where(signs > 0, occupation[:, 0], occupation[:, 1]).prod(axis=1)
    fields = np.array([0.0, 0.0, sys.b0]) + signs @ np.array([f.g for f in sys.fluctuators])
    return weights, fields


def frozen_schedule(sys, factors):
    """``expm_schedule`` of a frozen ensemble, as the weighted sum over its joint levels.

    Each level's free segments are the fixed rotation about its own field.
    """
    total = np.zeros((3, 3))
    for weight, b in zip(*frozen_levels(sys)):
        full = np.eye(3)
        for factor in factors:
            if isinstance(factor, tuple):
                full = rotation_matrix(*factor) @ full
            else:
                full = rotation_matrix(b, np.linalg.norm(b) * factor) @ full
        total += weight * full
    return total


class TestFrozenEnsembleIsStaticField:
    """An outside reference for tilted couplings at N >= 2: frozen switches.

    With every ``gamma = eta = 0`` no fluctuator ever switches, so each joint level
    keeps its static field ``b0 z + sum_i s_i g_i`` and every transfer, pulsed or not,
    is the level-weighted sum of fixed rotations.  This checks the couplings, the
    boundary maps and the pulses of the generator, not its switching.
    """

    TIMES = np.linspace(0.0, 12.0, 7)

    @pytest.fixture(scope="class", params=range(2, 8))
    def frozen(self, request):
        n = request.param
        rng = np.random.default_rng(n)
        sys = SystemSpec(b0=1.0, fluctuators=tuple(
            FluctuatorSpec(g=rng.normal(scale=0.25, size=3), gamma=0.0, eta=0.0,
                           initial_distribution=FluctuatorDistribution.from_upper(0.15 + 0.1 * i))
            for i in range(n)))
        return sys, spectral_decomposition(decoherence_generator(sys))

    def test_level_weights_and_fields(self):
        fluctuators = (
            FluctuatorSpec(g=[0.1, 0.0, 0.2], gamma=0.0,
                           initial_distribution=FluctuatorDistribution.from_upper(0.2)),
            # Stationary occupation (gamma - s eta) / (2 gamma): s = +1 leaves at gamma + eta.
            FluctuatorSpec(g=[0.0, 0.3, 0.0], gamma=0.4, eta=0.1),
        )
        weights, fields = frozen_levels(SystemSpec(b0=1.0, fluctuators=fluctuators))
        assert_allclose(weights, [0.2 * 0.375, 0.2 * 0.625, 0.8 * 0.375, 0.8 * 0.625],
                        rtol=1e-15)
        assert_allclose(fields, [[0.1, 0.3, 1.2], [0.1, -0.3, 1.2],
                                 [-0.1, 0.3, 0.8], [-0.1, -0.3, 0.8]], rtol=1e-15)

    def test_free_transfers(self, frozen):
        sys, sd = frozen
        expected = [frozen_schedule(sys, [t]) for t in self.TIMES]
        assert_allclose(transfer_from_spectral(sd, self.TIMES), expected, rtol=0, atol=1e-12)

    def test_echo(self, frozen):
        sys, sd = frozen
        half, flip = (X_AXIS, np.pi / 2), (X_AXIS, np.pi)
        expected = [frozen_schedule(sys, [half, t / 2, flip, t / 2, half])[2, 2]
                    for t in self.TIMES]
        assert_allclose(echo_signal(sys, self.TIMES, sd=sd), expected, rtol=0, atol=1e-12)

    def test_cpmg(self, frozen):
        sys, sd = frozen
        tau = 1.7
        seq = PulseSequence(events=((0.0, X_AXIS, np.pi / 2),)
                            + tuple(((k + 0.5) * tau, Y_AXIS, np.pi) for k in range(4)))
        expected = frozen_schedule(
            sys, [(X_AXIS, np.pi / 2), tau / 2] + [(Y_AXIS, np.pi), tau] * 3
            + [(Y_AXIS, np.pi), tau / 2])
        assert_allclose(sequence_operator(sys, seq, 4 * tau, sd=sd), expected, rtol=0,
                        atol=1e-12)

    def test_bang_bang_transfer(self, frozen):
        # Each period is the pulse, then the free segment.
        sys, sd = frozen
        tau = 1.3
        expected = frozen_schedule(sys, [(Y_AXIS, np.pi), tau] * 8)
        result = bang_bang_operator(sys, tau, 8, axis="y", sd=sd)
        assert_allclose(result.transfer, expected, rtol=0, atol=1e-12)


class TestExceptionalPoint:
    """Aligned noise at g = gamma (eta = 0), where two modes coalesce.

    The eigenvector condition is about 7.5e7, far past ``DEFECTIVE_CONDITION``, so
    every propagator is formed by expm and must pass the readout check.
    """

    sys = make_system(b0=1.0, g=0.1, theta=0.0, gamma=0.1)

    def test_decomposition_is_flagged_defective(self):
        sd = spectral_decomposition(decoherence_generator(self.sys))
        assert sd.defective and sd.condition > superop.DEFECTIVE_CONDITION

    def test_free_trajectory(self):
        times = np.linspace(0.0, 60.0, 601)
        traj = free_trajectory(self.sys, X_AXIS, times)
        expected = [expm_schedule(self.sys, [t]) @ X_AXIS for t in times]
        assert_allclose(traj.points, expected, rtol=0, atol=1e-10)

    def test_echo_signal(self):
        times = np.linspace(0.0, 60.0, 51)
        half, flip = (X_AXIS, np.pi / 2), (X_AXIS, np.pi)
        expected = [expm_schedule(self.sys, [half, t / 2, flip, t / 2, half])[2, 2] for t in times]
        assert_allclose(echo_signal(self.sys, times), expected, rtol=0, atol=1e-10)

    def test_bang_bang_operator(self):
        result = bang_bang_operator(self.sys, 1.0, 8)
        expected = expm_schedule(self.sys, [(Y_AXIS, np.pi), 1.0] * 8)
        assert_allclose(result.transfer, expected, rtol=0, atol=1e-10)


class TestBlochTrajectory:
    def test_requires_zero_start(self):
        with pytest.raises(ValueError, match="times"):
            BlochTrajectory(times=np.array([1.0, 2.0]), points=np.zeros((2, 3)), frame="lab")

    def test_requires_ball_membership(self):
        with pytest.raises(ValueError, match="ball"):
            BlochTrajectory(
                times=np.array([0.0, 1.0]),
                points=np.array([[0, 0, 1.0], [0, 0, 1.5]]),
                frame="lab",
            )

    # NaN fails every comparison, so only a finiteness check stops it.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_times_and_points(self, bad):
        with pytest.raises(ValueError, match="times must be finite"):
            BlochTrajectory(times=np.array([0.0, bad]), points=np.zeros((2, 3)), frame="lab")
        points = np.array([[0.0, 0.0, 1.0], [bad, 0.0, 0.0]])
        with pytest.raises(ValueError, match="points must be finite"):
            BlochTrajectory(times=np.array([0.0, 1.0]), points=points, frame="lab")

    def test_rejects_unknown_frame(self):
        with pytest.raises(ValueError, match="frame"):
            BlochTrajectory(
                times=np.array([0.0, 1.0]), points=np.zeros((2, 3)), frame="interaction"
            )


def test_fixed_pulses_are_built_once(monkeypatch, strong_mixed_system):
    # The bang-bang and echo pulses come from module constants with rotation_matrix's bits;
    # a schedule still builds each of its pulses.
    for axis, vector in (("x", X_AXIS), ("y", Y_AXIS)):
        assert np.array_equal(dynamics._PI_PULSES[axis], rotation_matrix(vector, np.pi))
    assert np.array_equal(dynamics._HALF_PI_X, rotation_matrix(X_AXIS, np.pi / 2))
    sys = strong_mixed_system
    sd = spectral_decomposition(decoherence_generator(sys))
    calls = []

    def counting(axis, angle):
        calls.append(angle)
        return rotation_matrix(axis, angle)

    monkeypatch.setattr(dynamics, "rotation_matrix", counting)
    bang_bang_operator(sys, np.array([0.7, 1.3]), 3, axis="x", sd=sd)
    bang_bang_operator(sys, 1.3, 3, axis="y", sd=sd)
    echo_signal(sys, [0.0, 2.0], sd=sd)
    assert calls == []
    sequence_operator(sys, PulseSequence(events=((0.0, X_AXIS, 0.3), (1.0, Y_AXIS, np.pi))), 2.0,
                      sd=sd)
    assert calls == [0.3, np.pi]


def test_defective_echo_runs_one_expm_per_duration(monkeypatch):
    # Both echo halves last t/2, so each grid point needs a single expm.
    sys = make_system(g=0.3, theta=np.pi / 4, gamma=0.1, eta=0.04)
    sd = spectral_decomposition(decoherence_generator(sys))
    object.__setattr__(sd, "defective", True)
    expm, calls = scipy.linalg.expm, []

    def counting_expm(mat):
        calls.append(mat.shape)
        return expm(mat)

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    times = np.linspace(0.0, 20.0, 51)
    signal = echo_signal(sys, times, sd=sd)
    assert len(calls) == len(times)
    monkeypatch.undo()
    assert_allclose(signal, echo_signal(sys, times), rtol=0, atol=1e-10)


def test_free_grid_holds_no_block_per_time_point():
    # N = 6 (d = 192) on 501 points: one d x 501 x 3 complex block is 4.6 MB.
    sys = SystemSpec(
        b0=1.0,
        fluctuators=tuple(
            FluctuatorSpec(g=[0.05 * k, 0.1, 0.2], gamma=0.1 * (k + 1), eta=0.01 * k)
            for k in range(6)
        ),
    )
    sd = spectral_decomposition(decoherence_generator(sys))
    times = np.linspace(0.0, 50.0, 501)
    tracemalloc.start()
    try:
        transfer_from_spectral(sd, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sd.dimension * len(times) * 3 * 16
