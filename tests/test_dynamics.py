import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from numpy.testing import assert_allclose

from qtel import (
    BlochTrajectory,
    EigendecompositionError,
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
from qtel import superop
from qtel.superop import boundary_projectors

from conftest import make_system, two_fluctuator_system

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

    def test_strong_coupling_oscillates_in_rotating_frame(self, strong_mixed_system):
        traj = to_rotating_frame(
            free_trajectory(strong_mixed_system, X_AXIS, np.linspace(0, 60, 1201)), 1.0
        )
        slope = np.diff(traj.points[:, 0])
        slope = slope[np.abs(slope) > 1e-12]
        sign_changes = int(np.sum(np.diff(np.sign(slope)) != 0))
        assert sign_changes >= 2


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

    def test_defective_period_raises_through_shared_gate(self, monkeypatch, strong_mixed_system):
        sd = spectral_decomposition(decoherence_generator(strong_mixed_system))
        monkeypatch.setattr(superop, "DEFECTIVE_CONDITION", 0.0)
        with pytest.raises(EigendecompositionError, match="tau=1.3"):
            bang_bang_operator(strong_mixed_system, tau=1.3, n_pulses=1, sd=sd)

    def test_invalid_arguments_rejected(self, strong_mixed_system):
        with pytest.raises(ValueError, match="tau"):
            bang_bang_operator(strong_mixed_system, tau=0.0, n_pulses=1)
        with pytest.raises(ValueError, match="n_pulses"):
            bang_bang_operator(strong_mixed_system, tau=1.0, n_pulses=0)
        with pytest.raises(ValueError, match="axis"):
            bang_bang_operator(strong_mixed_system, tau=1.0, n_pulses=1, axis="z")


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
        t = 7.3
        seq = PulseSequence(
            events=(
                (0.0, X_AXIS, np.pi / 2),
                (t / 2, X_AXIS, np.pi),
                (t, X_AXIS, np.pi / 2),
            ),
        )
        composed = sequence_operator(strong_mixed_system, seq, t)
        signal = echo_signal(strong_mixed_system, [t])
        assert abs(composed[2, 2] - signal[0]) < 1e-12

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

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            PulseSequence(events=((0.0, np.array([1.0, 1.0, 0.0]), np.pi),))


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
    ],
    ids=["one-defective", "two", "two-defective"],
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
        tau, n = 1.3, 6
        result = bang_bang_operator(sys, tau, n, axis="x", sd=self.decomposition(sys, defective))
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

    def test_rejects_unknown_frame(self):
        with pytest.raises(ValueError, match="frame"):
            BlochTrajectory(
                times=np.array([0.0, 1.0]), points=np.zeros((2, 3)), frame="interaction"
            )


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
