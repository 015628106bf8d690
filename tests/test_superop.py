import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qtel import (
    ContractionError,
    FluctuatorDistribution,
    FluctuatorSpec,
    SystemSpec,
    boundary_projectors,
    decoherence_generator,
    discrete_transfer_operator,
    echo_signal,
    enumerate_sequences,
    evolve_operator,
    fluctuator_dissipator,
    spectral_decomposition,
    step_rotation,
    transfer_from_spectral,
)
from qtel.superop import KIND_GENERATOR, Superoperator

from conftest import make_system, two_fluctuator_system


def contract(sys, mat):
    readout, prepare = boundary_projectors(sys)
    return (readout @ mat @ prepare).real


class TestDiscreteOperator:
    def test_no_switching_is_average_of_two_rotations(self):
        # gamma = 0: block-diagonal rotations, symmetric average.
        f = FluctuatorSpec(
            g=[0.3, 0.0, 0.1], gamma=0.0, eta=0.0,
            initial_distribution=FluctuatorDistribution.from_upper(0.5),
        )
        sys = SystemSpec(b0=1.0, fluctuators=(f,))
        dt = 0.2
        step = discrete_transfer_operator(sys, dt)
        expected = 0.5 * (
            step_rotation(1.0, f.g, +1, dt) + step_rotation(1.0, f.g, -1, dt)
        )
        assert_allclose(contract(sys, step.mat), expected, atol=1e-14)

    def test_single_interval_is_distribution_weighted_rotation(self):
        # The switch after the only interval sums out, leaving p+ T+ + p- T-.
        sys = make_system(theta=np.pi / 3, gamma=0.2, eta=0.1)
        dt = 0.05
        step = discrete_transfer_operator(sys, dt)
        f = sys.fluctuators[0]
        dist = sys.distributions()[0]
        expected = dist.p_plus * step_rotation(1.0, f.g, +1, dt) + dist.p_minus * step_rotation(
            1.0, f.g, -1, dt
        )
        assert_allclose(contract(sys, step.mat), expected, atol=1e-14)

    def test_small_dt_expansion_matches_generator(self):
        # || step - (I - dt * gen) || = O(dt^2).
        sys = make_system(theta=np.pi / 4, gamma=0.1)
        dt = 1e-4
        step = discrete_transfer_operator(sys, dt)
        gen = decoherence_generator(sys)
        residual = np.abs(step.mat - (np.eye(6) - dt * gen.mat)).max()
        assert residual < 1e-6

    def test_large_dt_rejected(self):
        sys = make_system(gamma=0.5)
        with pytest.raises(ValueError, match="dt too large for telegraph limit"):
            discrete_transfer_operator(sys, dt=2.5)

    @pytest.mark.parametrize("entry", ["operator", "enumeration"])
    @pytest.mark.parametrize(
        "gamma, eta, dt, message",
        [
            (0.5, 0.0, 2.5, "dt too large for telegraph limit"),
            (1.0, 0.5, 0.8, "switching probabilities exceed 1"),
            (0.1, 0.0, 0.0, "dt must be > 0"),
        ],
    )
    def test_switching_probability_checks(self, entry, gamma, eta, dt, message):
        sys = make_system(gamma=gamma, eta=eta)
        with pytest.raises(ValueError, match=message):
            if entry == "operator":
                discrete_transfer_operator(sys, dt=dt)
            else:
                enumerate_sequences(sys, dt, n_steps=3)

    def test_white_noise_rejected(self):
        sys = make_system(white_noise=[0.0, 0.0, 0.1])
        with pytest.raises(ValueError, match="white noise"):
            discrete_transfer_operator(sys, dt=0.1)

    def test_two_fluctuators_rejected(self):
        f = FluctuatorSpec(g=[0, 0, 0.1], gamma=0.1)
        sys = SystemSpec(b0=1.0, fluctuators=(f, f))
        with pytest.raises(ValueError, match="one fluctuator"):
            discrete_transfer_operator(sys, dt=0.1)


class TestGenerator:
    def test_pure_switching_spectrum(self):
        # b0 = g = 0 leaves the dissipator alone: eigenvalues {0 x3, 2 gamma x3}.
        sys = make_system(b0=0.0, g=0.0, gamma=0.3, eta=0.0)
        sd = spectral_decomposition(decoherence_generator(sys))
        assert_allclose(
            np.sort(sd.eigenvalues.real), [0, 0, 0, 0.6, 0.6, 0.6], atol=1e-12
        )
        assert_allclose(sd.eigenvalues.imag, 0.0, atol=1e-12)

    def test_readout_annihilates_dissipator(self):
        diss = fluctuator_dissipator(gamma=0.2, eta=0.1)
        readout = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert_allclose(readout @ diss, 0.0, atol=1e-15)

    def test_stationary_distribution_is_dissipator_kernel(self):
        diss = fluctuator_dissipator(gamma=0.2, eta=0.1)
        dist = np.array([0.25, 0.75])  # (gamma -+ eta) / (2 gamma)
        assert_allclose(diss @ dist, 0.0, atol=1e-15)

    def test_white_noise_adds_dephasing_eigenvalues(self):
        sys = make_system(g=0.0, gamma=0.1, white_noise=[0.0, 0.0, 0.04])
        sd = spectral_decomposition(decoherence_generator(sys))
        # Pure transverse dephasing at v_z / 2 with the b0 precession.
        expected = 0.02 + 1j * 1.0
        gaps = np.abs(sd.eigenvalues - expected).min()
        assert gaps < 1e-12
        gaps = np.abs(sd.eigenvalues - expected.conjugate()).min()
        assert gaps < 1e-12

    def test_second_idle_fluctuator_decouples(self):
        sys1 = make_system(theta=np.pi / 4)
        idle = FluctuatorSpec(g=[0.0, 0.0, 0.0], gamma=0.7, eta=0.2)
        sys2 = SystemSpec(b0=1.0, fluctuators=sys1.fluctuators + (idle,))
        t = 3.0
        _, tm1 = evolve_operator(decoherence_generator(sys1), t)
        _, tm2 = evolve_operator(decoherence_generator(sys2), t)
        assert_allclose(tm2, tm1, atol=1e-10)

    def test_dimension_grows_with_fluctuators(self):
        f = FluctuatorSpec(g=[0, 0, 0.1], gamma=0.1)
        sys = SystemSpec(b0=1.0, fluctuators=(f, f, f))
        assert decoherence_generator(sys).dimension == 24

    def test_static_random_field_limit(self):
        # gamma = 0 with an explicit distribution: the ensemble average is
        # the distribution-weighted mix of the two frozen rotations.
        f = FluctuatorSpec(
            g=[0.2, 0.0, 0.3], gamma=0.0, eta=0.0,
            initial_distribution=FluctuatorDistribution.from_upper(0.3),
        )
        sys = SystemSpec(b0=1.0, fluctuators=(f,))
        t = 4.0
        _, transfer = evolve_operator(decoherence_generator(sys), t)
        expected = 0.3 * step_rotation(1.0, f.g, +1, t) + 0.7 * step_rotation(1.0, f.g, -1, t)
        assert_allclose(transfer, expected, atol=1e-12)

    def test_two_fluctuator_generator_matches_hand_built_matrix(self):
        # Independent reconstruction of the 12x12 generator from explicit
        # Kronecker factors, fluctuator-major ordering.
        fa = FluctuatorSpec(g=[0.2, 0.0, 0.1], gamma=0.3, eta=0.1)
        fb = FluctuatorSpec(g=[0.0, 0.1, 0.4], gamma=0.05, eta=0.0)
        sys = SystemSpec(b0=0.8, fluctuators=(fa, fb))
        import qtel

        lx, ly, lz = qtel.so3_generators()
        eye2, eye3 = np.eye(2), np.eye(3)
        tau3 = np.diag([1.0, -1.0])
        mat = np.kron(np.kron(eye2, eye2), -1j * 0.8 * lz).astype(complex)
        for f, pad in ((fa, lambda m: np.kron(m, eye2)), (fb, lambda m: np.kron(eye2, m))):
            diss = fluctuator_dissipator(f.gamma, f.eta)
            g_dot_l = f.g[0] * lx + f.g[1] * ly + f.g[2] * lz
            mat += np.kron(pad(diss), eye3)
            mat += -1j * np.kron(pad(tau3), g_dot_l)
        assert_allclose(decoherence_generator(sys).mat, mat, atol=1e-15)

    def test_fluctuator_cap_enforced(self):
        f = FluctuatorSpec(g=[0, 0, 0.1], gamma=0.1)
        with pytest.raises(ValueError, match="cap"):
            SystemSpec(b0=1.0, fluctuators=(f,) * 9)


class TestSpectralDecomposition:
    def test_diagonal_operator(self):
        sys = make_system()
        mat = np.diag(np.arange(6, dtype=complex))
        sd = spectral_decomposition(Superoperator(mat=mat, kind=KIND_GENERATOR, system=sys))
        assert_allclose(np.sort(sd.eigenvalues.real), np.arange(6), atol=1e-14)
        assert not sd.defective

    def test_biorthonormal_pairs(self):
        sd = spectral_decomposition(decoherence_generator(make_system(theta=0.7)))
        assert_allclose(sd.left_vectors @ sd.right_vectors, np.eye(6), atol=1e-10)

    @pytest.mark.parametrize(
        "sys",
        [
            make_system(theta=0.7, eta=0.03),
            two_fluctuator_system(),
            # Aligned noise just past the exceptional point g = gamma.
            make_system(g=0.1 * (1.0 + 1e-6), gamma=0.1),
        ],
        ids=["one", "two", "near-exceptional"],
    )
    def test_condition_bounds_two_norm_condition(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        cond2 = np.linalg.cond(sd.right_vectors)
        assert cond2 <= sd.condition <= sd.dimension * cond2

    def test_eigenpair_residuals_small(self):
        sd = spectral_decomposition(decoherence_generator(make_system(theta=1.1, eta=0.05)))
        assert sd.max_residual < 1e-10

    @pytest.mark.parametrize("theta", [0.0, 0.4, np.pi / 2])
    @pytest.mark.parametrize("gamma,g", [(0.1, 0.3), (0.5, 0.1)])
    def test_spectrum_closed_under_conjugation(self, theta, gamma, g):
        sd = spectral_decomposition(
            decoherence_generator(make_system(theta=theta, gamma=gamma, g=g))
        )
        for lam in sd.eigenvalues:
            assert np.abs(sd.eigenvalues - lam.conjugate()).min() < 1e-10

    def test_no_growing_modes_across_parameters(self, rng):
        for _ in range(25):
            gamma = rng.uniform(0.01, 1.0)
            sys = make_system(
                b0=rng.uniform(0, 2),
                g=rng.uniform(0, 2),
                theta=rng.uniform(0, np.pi / 2),
                gamma=gamma,
                eta=rng.uniform(-gamma, gamma),
            )
            sd = spectral_decomposition(decoherence_generator(sys))
            assert sd.eigenvalues.real.min() > -1e-10

    def test_zero_mode_present_when_a_channel_is_conserved(self):
        # Aligned noise conserves n_z; a frozen fluctuator conserves a frame.
        for sys in (make_system(theta=0.0), make_system(theta=0.8, eta=0.1, gamma=0.1)):
            sd = spectral_decomposition(decoherence_generator(sys))
            assert np.abs(sd.eigenvalues).min() < 1e-10


class TestEvolveOperator:
    def test_time_zero_is_identity(self):
        gen = decoherence_generator(make_system(theta=0.9))
        full, transfer = evolve_operator(gen, 0.0)
        assert np.array_equal(transfer, np.eye(3))
        assert np.array_equal(full, np.eye(6, dtype=complex))

    def test_semigroup_property(self, rng):
        gen = decoherence_generator(make_system(theta=np.pi / 4))
        sd = spectral_decomposition(gen)
        for _ in range(10):
            t1, t2 = rng.uniform(0, 5, size=2)
            full_a, _ = evolve_operator(gen, t1 + t2, sd)
            full_b, _ = evolve_operator(gen, t1, sd)
            full_c, _ = evolve_operator(gen, t2, sd)
            assert np.abs(full_a - full_b @ full_c).max() < 1e-10

    def test_aligned_noise_transverse_envelope(self):
        # Aligned strong coupling: every x-weighted mode decays at exactly
        # the switching rate, so |T_xx(t)| <= (sum of |mode weights|) *
        # exp(-gamma t).  The weight sum slightly exceeds 1 because the
        # eigenbasis is not orthogonal.
        sys = make_system(theta=0.0, g=0.3, gamma=0.1)
        gen = decoherence_generator(sys)
        sd = spectral_decomposition(gen)
        readout, prepare = boundary_projectors(sys)
        weights = (readout @ sd.right_vectors) * (sd.left_vectors @ prepare).T
        active = np.abs(weights[0]) > 1e-12
        assert_allclose(sd.eigenvalues.real[active], 0.1, atol=1e-12)
        envelope = np.abs(weights[0]).sum()
        assert envelope < 1.2
        for t in np.linspace(0.5, 30, 40):
            _, transfer = evolve_operator(gen, float(t), sd)
            assert abs(transfer[0, 0]) <= envelope * np.exp(-0.1 * t) + 1e-8

    def test_unit_ball_contraction(self, rng):
        gen = decoherence_generator(make_system(theta=1.0, gamma=0.2, eta=0.1))
        sd = spectral_decomposition(gen)
        vecs = rng.normal(size=(100, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        for t in (0.1, 1.0, 10.0):
            _, transfer = evolve_operator(gen, t, sd)
            norms = np.linalg.norm(vecs @ transfer.T, axis=1)
            assert norms.max() <= 1.0 + 1e-9

    def test_grid_transfer_matches_pointwise(self):
        gen = decoherence_generator(make_system(theta=0.3, eta=0.02))
        sd = spectral_decomposition(gen)
        times = np.array([0.0, 0.7, 2.0, 9.0])
        stacked = transfer_from_spectral(sd, times)
        for k, t in enumerate(times):
            _, single = evolve_operator(gen, float(t), sd)
            assert_allclose(stacked[k], single, atol=1e-12)

    def test_negative_time_rejected(self):
        gen = decoherence_generator(make_system())
        with pytest.raises(ValueError, match=">= 0"):
            evolve_operator(gen, -1.0)

    def test_step_kind_rejected(self):
        step = discrete_transfer_operator(make_system(), 0.1)
        with pytest.raises(ValueError, match="generator"):
            evolve_operator(step, 1.0)

    def test_non_real_contraction_raises(self):
        # A generator violating the real-representability of the physical
        # dynamics must be reported, not silently truncated.
        sys = make_system()
        bad = Superoperator(mat=1j * np.eye(6), kind=KIND_GENERATOR, system=sys)
        with pytest.raises(ContractionError, match="imaginary"):
            evolve_operator(bad, 1.0)

    def test_nan_time_raises(self):
        # The imaginary-part check fails on NaN, so a NaN time gives no silent nan transfer.
        sys = make_system()
        sd = spectral_decomposition(decoherence_generator(sys))
        with pytest.raises(ContractionError, match="nan"):
            transfer_from_spectral(sd, [1.0, np.nan])
        with pytest.raises(ContractionError, match="nan"):
            echo_signal(sys, [1.0, np.nan])

    def test_defective_operator_falls_back_to_expm(self):
        sys = make_system()
        jordan = np.eye(6, dtype=complex) + np.eye(6, k=1)
        op = Superoperator(mat=jordan, kind=KIND_GENERATOR, system=sys)
        sd = spectral_decomposition(op)
        assert sd.defective
        full, _ = evolve_operator(op, 1.3, sd)
        assert_allclose(full, scipy.linalg.expm(-1.3 * jordan), atol=1e-12)


class TestDiscreteContinuumConsistency:
    def test_powered_step_converges_first_order(self):
        # Fixed horizon, dt = t / n: the contraction error is O(dt), so
        # halving dt at least nearly halves it (ratio -> 1/2 from above).
        sys = make_system(theta=np.pi / 4)
        gen = decoherence_generator(sys)
        sd = spectral_decomposition(gen)
        t = 5.0
        _, exact = evolve_operator(gen, t, sd)
        errors = []
        for n in (100, 200, 400):
            step = discrete_transfer_operator(sys, t / n)
            approx = contract(sys, np.linalg.matrix_power(step.mat, n))
            errors.append(np.abs(approx - exact).max())
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= 0.55 * coarse
        order = np.log2(errors[0] / errors[-1]) / 2.0
        assert order > 0.9
