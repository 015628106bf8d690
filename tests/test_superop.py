import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qtel import (
    FluctuatorDistribution,
    FluctuatorSpec,
    PulseSequence,
    SystemSpec,
    bang_bang_operator,
    boundary_projectors,
    decoherence_generator,
    discrete_transfer_operator,
    echo_signal,
    enumerate_sequences,
    evolve_operator,
    extract_rates,
    fluctuator_dissipator,
    rotation_matrix,
    sequence_operator,
    spectral_decomposition,
    step_rotation,
    transfer_from_spectral,
)
from qtel import superop
from qtel.model import _switch_matrix
from qtel.superop import (KIND_GENERATOR, EigendecompositionError, Superoperator, _decompose_stack,
                          _generator_stack, _sweep)

from conftest import make_system, mixed_fluctuator_system, two_fluctuator_system


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

    def test_step_is_real_part_of_kronecker_construction(self, rng):
        # Bit for bit the real part of the complex Pauli/Kronecker build of the step, whose
        # imaginary part is exactly zero.
        tau1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        tau2 = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        tau3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        for _ in range(200):
            gamma = rng.uniform(0.0, 1.0)
            f = FluctuatorSpec(
                g=rng.normal(size=3), gamma=gamma, eta=rng.uniform(-gamma, gamma),
                initial_distribution=FluctuatorDistribution.from_upper(rng.uniform()),
            )
            sys = SystemSpec(b0=rng.uniform(0.0, 2.0), fluctuators=(f,))
            dt = rng.uniform(0.01, 0.5)
            p, d = f.gamma * dt, f.eta * dt
            switch = (1.0 - p) * np.eye(2, dtype=complex) - d * tau3 + p * tau1 - 1j * d * tau2
            blocks = np.kron(np.diag([1.0, 0.0]), step_rotation(sys.b0, f.g, +1, dt)) + np.kron(
                np.diag([0.0, 1.0]), step_rotation(sys.b0, f.g, -1, dt)
            )
            old = np.kron(switch, np.eye(3)) @ blocks.astype(complex)
            step = discrete_transfer_operator(sys, dt).mat
            assert step.dtype == np.float64
            assert np.array_equal(old.imag, np.zeros_like(step))
            assert np.array_equal(step, old.real)

    def test_switching_block_is_shared_switch_matrix(self):
        # b0 = g = 0 leaves every rotation the identity: the step is W (x) I_3, with the
        # switching matrix the enumeration oracle uses.
        sys = make_system(b0=0.0, g=0.0, gamma=0.3, eta=-0.1)
        step = discrete_transfer_operator(sys, 0.2)
        assert np.array_equal(step.mat, np.kron(_switch_matrix(0.3, -0.1, 0.2), np.eye(3)))

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

    @pytest.mark.parametrize(
        "name, args",
        [pytest.param("gamma", (np.nan, 0.0), id="nan-gamma"),
         pytest.param("gamma", (np.inf, 0.0), id="inf-gamma"),
         pytest.param("eta", (0.2, np.nan), id="nan-eta"),
         pytest.param("eta", (0.2, -np.inf), id="inf-eta")],
    )
    def test_dissipator_rejects_non_finite_rate_by_name(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fluctuator_dissipator(*args)

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

    @pytest.mark.parametrize(
        "sys",
        [
            make_system(theta=0.7, eta=0.03),
            two_fluctuator_system(),
            SystemSpec(b0=0.8, fluctuators=two_fluctuator_system().fluctuators,
                       white_noise=[0.01, 0.02, 0.03]),
            mixed_fluctuator_system(3),
            mixed_fluctuator_system(4),
            mixed_fluctuator_system(5),
            mixed_fluctuator_system(3, white_noise=[0.03, 0.01, 0.02]),
        ],
        ids=["one", "two", "two-white-noise", "three", "four", "five", "three-white-noise"],
    )
    def test_generator_is_real(self, sys):
        # Built as float64, bit for bit the complex Kronecker construction, whose imaginary
        # part is exactly zero: the eigensolver gets a real matrix.
        import qtel

        lx, ly, lz = qtel.so3_generators()
        eye3, tau3 = np.eye(3), np.diag([1.0, -1.0])
        n = sys.n_fluctuators
        bloch = -1j * sys.b0 * lz
        if sys.white_noise is not None:
            vx, vy, vz = sys.white_noise
            bloch = bloch + 0.5 * (vx * lx @ lx + vy * ly @ ly + vz * lz @ lz)
        mat = np.kron(np.eye(2**n), bloch).astype(complex)
        for i, f in enumerate(sys.fluctuators):
            pad = lambda m: np.kron(np.kron(np.eye(2**i), m), np.eye(2 ** (n - i - 1)))
            g_dot_l = f.g[0] * lx + f.g[1] * ly + f.g[2] * lz
            mat += np.kron(pad(fluctuator_dissipator(f.gamma, f.eta)), eye3)
            mat += -1j * np.kron(pad(tau3), g_dot_l)
        gen = decoherence_generator(sys).mat
        assert gen.dtype == np.float64
        assert np.array_equal(mat.imag, np.zeros_like(gen))
        assert np.array_equal(gen, mat.real)

    def test_stacked_couplings_match_one_generator_each(self, rng):
        # Each member of a coupling stack is the generator of its own system, bit for bit.
        base = mixed_fluctuator_system(2, white_noise=[0.03, 0.01, 0.02])
        couplings = rng.normal(scale=0.3, size=(5, 2, 3))
        stack = _generator_stack(base, couplings)
        for member, gvecs in zip(stack, couplings):
            flucts = tuple(FluctuatorSpec(g=g, gamma=f.gamma, eta=f.eta)
                           for g, f in zip(gvecs, base.fluctuators))
            sys = SystemSpec(b0=base.b0, fluctuators=flucts, white_noise=base.white_noise)
            assert np.array_equal(member, decoherence_generator(sys).mat)

    def test_stack_rejects_non_finite_couplings(self):
        with pytest.raises(ValueError, match="g must be finite"):
            _generator_stack(make_system(), np.array([[[0.1, 0.0, 0.2]], [[0.1, np.inf, 0.2]]]))

    def test_fluctuator_cap_enforced(self):
        f = FluctuatorSpec(g=[0, 0, 0.1], gamma=0.1)
        with pytest.raises(ValueError, match="cap"):
            SystemSpec(b0=1.0, fluctuators=(f,) * 9)


class TestFastSwitchingLimit:
    """Fast symmetric switching is white noise (motional narrowing).

    A fluctuator with rate gamma_f, eta = 0 and coupling sqrt(v gamma_f) along one axis
    tends, as gamma_f grows, to white noise of variance v on that axis in the convention
    of ``white_noise``, with an error first order in 1 / gamma_f.  The reference is the
    generator's white-noise term, checked here against switching, its only other path.
    """

    SLOW = FluctuatorSpec(g=0.3 * np.array([np.sin(0.7), 0.0, np.cos(0.7)]), gamma=0.2,
                          eta=0.05)
    WHITE = (0.05, 0.0, 0.02)
    TIMES = np.linspace(0.0, 20.0, 41)

    def transfer(self, sys):
        return transfer_from_spectral(spectral_decomposition(decoherence_generator(sys)),
                                      self.TIMES)

    def fast(self, gamma_f):
        """The slow fluctuator with one fast fluctuator per non-zero white variance."""
        fast = tuple(FluctuatorSpec(g=np.sqrt(v * gamma_f) * axis, gamma=gamma_f, eta=0.0)
                     for v, axis in zip(self.WHITE, np.eye(3)) if v > 0)
        return self.transfer(SystemSpec(b0=1.0, fluctuators=(self.SLOW, *fast)))

    def test_fast_switching_tends_to_white_noise(self):
        white = self.transfer(SystemSpec(b0=1.0, fluctuators=(self.SLOW,),
                                         white_noise=self.WHITE))
        errors = [np.abs(self.fast(gamma_f) - white).max() for gamma_f in (1e1, 1e2, 1e3, 1e4)]
        # 1.8e-3 at gamma_f = 10, then a factor 10 less per decade.
        assert 1e-3 < errors[0] < 3e-3
        assert_allclose(np.diff(np.log10(errors)), -1.0, atol=0.02)
        # Richardson extrapolation removes the 1 / gamma_f term: 2.7e-8 apart.
        extrapolated = 2.0 * self.fast(2000.0) - self.fast(1000.0)
        assert np.abs(extrapolated - white).max() < 1e-6


class TestSpectralDecomposition:
    @pytest.mark.parametrize("dtype", [np.float64])
    def test_superoperator_keeps_input_dtype(self, dtype):
        op = Superoperator(mat=np.eye(6, dtype=dtype), kind=KIND_GENERATOR, system=make_system())
        assert op.mat.dtype == dtype

    def test_complex_superoperator_rejected(self):
        with pytest.raises(ValueError, match="real matrix, got dtype complex128"):
            Superoperator(mat=np.eye(6, dtype=complex), kind=KIND_GENERATOR, system=make_system())

    @pytest.mark.parametrize("shape", [(5, 5), (6, 5), (12, 12), (6,)])
    def test_wrong_shape_rejected(self, shape):
        message = f"operator must be 6x6, got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Superoperator(mat=np.zeros(shape), kind=KIND_GENERATOR, system=make_system())

    @pytest.mark.parametrize("kind", ["gen", "Generator", "discrete_step", ""])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match=r"'discrete-step' or 'generator', got"):
            Superoperator(mat=np.eye(6), kind=kind, system=make_system())

    def test_diagonal_operator(self):
        sys = make_system()
        mat = np.diag(np.arange(6.0))
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


def generator_stack(thetas, **kwargs):
    return np.stack([decoherence_generator(make_system(theta=th, **kwargs)).mat for th in thetas])


def assert_member_matches_single(spectra, b, mat):
    single = spectral_decomposition(Superoperator(mat=mat, kind=KIND_GENERATOR,
                                                  system=make_system()))
    member = spectra.member(b, single.operator)
    assert np.array_equal(member.eigenvalues, single.eigenvalues)
    assert np.array_equal(member.right_vectors, single.right_vectors)
    if single.left_vectors is None:
        assert member.left_vectors is None
    else:
        assert np.array_equal(member.left_vectors, single.left_vectors)
    assert member.condition == single.condition
    assert member.defective == single.defective
    assert member.max_residual == single.max_residual


class TestDecomposeStack:
    def test_members_match_single_decompositions(self):
        mats = generator_stack([0.0, 0.4, 0.9, np.pi / 2], g=0.3, gamma=0.1, eta=0.04)
        spectra = _decompose_stack(mats)
        for b, mat in enumerate(mats):
            assert_member_matches_single(spectra, b, mat)

    def test_real_spectrum_stack_is_complex(self):
        # LAPACK returns real arrays when every eigenvalue of the stack is real.
        mats = np.stack([np.diag(np.arange(6.0)), np.diag(np.arange(6.0)[::-1])])
        spectra = _decompose_stack(mats)
        assert spectra.eigenvalues.dtype == np.complex128
        assert spectra.v_r.dtype == spectra.l_r.dtype == np.float64
        assert not spectra.defective.any()

    def test_singular_member_leaves_others_unchanged(self):
        # A nilpotent 3x3 Jordan block gives exactly singular eigenvectors.
        singular = scipy.linalg.block_diag(np.eye(3, k=1), np.diag([1.0, 2.0, 3.0]))
        gens = generator_stack([0.3, 1.1], g=0.3, gamma=0.1)
        mats = np.stack([gens[0], singular, gens[1]])
        spectra = _decompose_stack(mats)
        assert spectra.defective.tolist() == [False, True, False]
        assert spectra.condition[1] == np.inf
        for b, mat in enumerate(mats):
            assert_member_matches_single(spectra, b, mat)

    def test_forced_defective_member_leaves_others_unchanged(self, monkeypatch):
        mats = generator_stack([0.2, 0.7, 1.3], g=0.3, gamma=0.1)
        conditions = _decompose_stack(mats).condition
        worst = int(np.argmax(conditions))
        monkeypatch.setattr(superop, "DEFECTIVE_CONDITION", np.sort(conditions)[-2:].mean())
        spectra = _decompose_stack(mats)
        assert np.flatnonzero(spectra.defective).tolist() == [worst]
        for b, mat in enumerate(mats):
            assert_member_matches_single(spectra, b, mat)

    def test_non_finite_operator_rejected(self):
        op = Superoperator(mat=np.full((6, 6), np.nan), kind=KIND_GENERATOR, system=make_system())
        with pytest.raises(ValueError):
            spectral_decomposition(op)

    def test_residual_gate_names_the_member(self, monkeypatch):
        # A diagonal member has residual 0 and passes a zero tolerance; the generator fails it.
        mats = np.stack([np.diag(np.arange(6.0)), generator_stack([0.7])[0]])
        monkeypatch.setattr(superop, "RESIDUAL_TOL", 0.0)
        with pytest.raises(EigendecompositionError, match="member 1 of 2"):
            _decompose_stack(mats)


PAIR_SYSTEMS = [
    make_system(g=0.3, theta=np.pi / 4, gamma=0.1),
    two_fluctuator_system(),
    mixed_fluctuator_system(3, white_noise=(0.01, 0.02, 0.03)),
]
PAIR_IDS = ["strong-mixed", "two", "three-white-noise"]


def complex_reference(mat):
    """The complex eigenvectors' inverse, residual and condition, as before the pair form."""
    eigenvalues, right = np.linalg.eig(mat)
    left = np.linalg.inv(right)
    scale = max(np.linalg.norm(mat, axis=0).max(), np.abs(eigenvalues).max())
    residual = np.linalg.norm(mat @ right - right * eigenvalues, axis=0).max() / scale
    return left, residual, np.linalg.norm(right) * np.linalg.norm(left)


STORED_SYSTEMS = [mixed_fluctuator_system(n, white_noise=white) for n in (1, 2, 3, 4)
                  for white in (None, (0.01, 0.0, 0.02))]
STORED_IDS = [f"N{n}-{white}" for n in (1, 2, 3, 4) for white in ("plain", "white")]


@pytest.mark.parametrize("sys", STORED_SYSTEMS, ids=STORED_IDS)
class TestStoredPairForm:
    """The stored ``v_r``, ``l_r`` and ``partner`` of tilted fluctuators with eta != 0."""

    def test_pair_form_rebuilds_the_operator(self, sys):
        # P V_r = V_r Lambda_r: Lambda_r holds Re lambda_k on the diagonal and
        # -Im lambda_k at (partner k, k).
        gen = decoherence_generator(sys)
        sd = spectral_decomposition(gen)
        k = np.arange(sd.dimension)
        assert np.array_equal(sd.partner[sd.partner], k)
        assert np.array_equal(sd.eigenvalues[sd.partner], sd.eigenvalues.conj())
        lam_r = np.diag(sd.eigenvalues.real)
        lam_r[sd.partner, k] -= sd.eigenvalues.imag
        assert_allclose(sd.v_r @ lam_r @ sd.l_r, gen.mat, rtol=0, atol=1e-12)
        assert_allclose(sd.l_r @ sd.v_r, np.eye(sd.dimension), rtol=0, atol=1e-12)

    def test_pair_weights_match_complex_vectors(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        readout, prepare = sd.operator.boundary
        want = np.abs((readout @ sd.right_vectors) * (sd.left_vectors @ prepare).T)
        got = superop._mode_weights(sd.operator.boundary, sd)
        assert np.abs(got - want).max() <= 1e-15 * want.max()


class TestPairForm:
    """The real pair form against complex arithmetic on the same eigenvectors."""

    @staticmethod
    def pairs(eigenvalues):
        first = np.flatnonzero(eigenvalues.imag > 0)
        assert np.array_equal(np.flatnonzero(eigenvalues.imag < 0), first + 1)
        return first

    @pytest.mark.parametrize("sys", PAIR_SYSTEMS, ids=PAIR_IDS)
    def test_pair_members_are_exact_conjugates(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        first = self.pairs(sd.eigenvalues)
        assert first.size
        assert np.array_equal(sd.eigenvalues[first + 1], sd.eigenvalues[first].conj())
        assert np.array_equal(sd.right_vectors[:, first + 1], sd.right_vectors[:, first].conj())
        assert np.array_equal(sd.left_vectors[first + 1], sd.left_vectors[first].conj())

    @pytest.mark.parametrize("sys", PAIR_SYSTEMS, ids=PAIR_IDS)
    def test_left_vectors_invert_right_vectors(self, sys):
        sd = spectral_decomposition(decoherence_generator(sys))
        assert_allclose(sd.left_vectors @ sd.right_vectors, np.eye(sd.dimension), rtol=0,
                        atol=1e-12)

    @pytest.mark.parametrize("sys", PAIR_SYSTEMS, ids=PAIR_IDS)
    def test_gates_match_complex_reference(self, sys):
        gen = decoherence_generator(sys)
        sd = spectral_decomposition(gen)
        left, residual, condition = complex_reference(gen.mat)
        assert_allclose(sd.left_vectors, left, rtol=0, atol=1e-12 * np.abs(left).max())
        assert sd.condition == pytest.approx(condition, rel=1e-12)
        # A residual is roundoff: the two forms agree to within a few eps, not in relative terms.
        assert abs(sd.max_residual - residual) <= 8 * np.finfo(float).eps

    def test_all_real_member_alone_and_in_a_paired_stack(self):
        # numpy returns real arrays for a stack whose eigenvalues are all real, and complex
        # ones as soon as any member has a pair.
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        real = q @ np.diag([0.1, 0.4, 0.7, 1.3, 2.0, 2.9]) @ np.linalg.inv(q)
        assert np.linalg.eig(real[None])[0].dtype == np.float64
        paired = generator_stack([0.6], g=0.3, gamma=0.1)[0]
        for mats in (real[None], np.stack([real, paired]), np.stack([paired, real])):
            spectra = _decompose_stack(mats)
            for b, mat in enumerate(mats):
                assert_member_matches_single(spectra, b, mat)
                left, residual, condition = complex_reference(mat)
                member = spectra.member(b, Superoperator(mat=mat, kind=KIND_GENERATOR,
                                                         system=make_system()))
                assert_allclose(member.left_vectors @ member.right_vectors, np.eye(6),
                                rtol=0, atol=1e-12)
                assert_allclose(member.left_vectors, left, rtol=0, atol=1e-12 * np.abs(left).max())
                assert spectra.condition[b] == pytest.approx(condition, rel=1e-12)
        assert not _decompose_stack(real[None]).eigenvalues.imag.any()

    @pytest.mark.parametrize("layout", ["swapped", "apart"])
    def test_broken_pair_layout_raises(self, monkeypatch, layout):
        # The pair form needs each pair adjacent, Im > 0 first; another layout must not be
        # mis-paired.
        mats = generator_stack([0.3, 0.9], g=0.3, gamma=0.1)
        eig = np.linalg.eig

        def reordered(a):
            eigenvalues, right = eig(a)
            a0 = int(np.flatnonzero(eigenvalues[0].imag > 0)[0])
            # Swap the pair's second member with its first, or with a real eigenvalue's column.
            other = a0 if layout == "swapped" else int(np.flatnonzero(eigenvalues[0].imag == 0)[0])
            order = np.arange(eigenvalues.shape[-1])
            order[[a0 + 1, other]] = other, a0 + 1
            return eigenvalues[..., order], right[..., order]

        monkeypatch.setattr(np.linalg, "eig", reordered)
        with pytest.raises(EigendecompositionError, match=r"adjacent conjugate pairs.*member 0 of 2"):
            _decompose_stack(mats)

    @staticmethod
    def outputs(sd):
        """Free transfer, echo, propagator, CPMG, bang-bang transfer and rates of ``sd``."""
        sys, times = sd.operator.system, np.linspace(0.0, 12.0, 7)
        tau = 1.3
        cpmg = PulseSequence(events=tuple(((k + 0.5) * tau, np.array([0.0, 1.0, 0.0]), np.pi)
                                          for k in range(4)))
        rates = extract_rates(sd)
        return {
            "transfer": transfer_from_spectral(sd, times),
            "echo": echo_signal(sys, times, sd=sd),
            "propagator": evolve_operator(sd.operator, 2.7, sd)[0],
            "cpmg": sequence_operator(sys, cpmg, 4 * tau, sd=sd),
            "bang-bang": bang_bang_operator(sys, 0.8, 8, sd=sd).transfer,
            "rates": np.array([rates.rate_x, rates.rate_y, rates.rate_z, rates.rate_xy]),
            "flags": rates.flags,
        }

    @pytest.mark.parametrize("order", ["argsort", "random"])
    @pytest.mark.parametrize("sys", PAIR_SYSTEMS, ids=PAIR_IDS)
    def test_any_column_order_gives_the_same_outputs(self, sys, order):
        # Sorted by real part, then imaginary part, each pair's Im < 0 member comes first; a
        # random order also parts the two members.  Every read takes a pair's data from a
        # column's partner, so neither order changes a result.
        sd = spectral_decomposition(decoherence_generator(sys))
        if order == "argsort":
            perm = np.argsort(sd.eigenvalues)
        else:
            perm = np.random.default_rng(19).permutation(sd.dimension)
        assert not np.array_equal(perm, np.arange(sd.dimension))
        moved = dataclasses.replace(sd, eigenvalues=sd.eigenvalues[perm], v_r=sd.v_r[:, perm],
                                    l_r=sd.l_r[perm], partner=np.argsort(perm)[sd.partner[perm]])
        assert np.array_equal(moved.right_vectors, sd.right_vectors[:, perm])
        assert np.array_equal(moved.left_vectors, sd.left_vectors[perm])
        want, got = self.outputs(sd), self.outputs(moved)
        assert got.pop("flags") == want.pop("flags")
        for key, value in want.items():
            assert_allclose(got[key], value, rtol=0, atol=1e-13, err_msg=key)

    @pytest.mark.parametrize("broken", ["perturbed", "unpaired", "partner-self", "partner-real"])
    def test_spectrum_not_closed_under_conjugation_raises(self, broken):
        sd = spectral_decomposition(decoherence_generator(make_system(theta=0.7)))
        eigenvalues, partner = sd.eigenvalues.copy(), sd.partner.copy()
        k = int(np.flatnonzero(eigenvalues.imag < 0)[0])
        real = np.flatnonzero(eigenvalues.imag == 0)[:2]
        if broken == "perturbed":
            eigenvalues[k] = complex(eigenvalues[k].real, np.nextafter(eigenvalues[k].imag, 0.0))
        elif broken == "unpaired":
            eigenvalues[k] = eigenvalues[k].real
        elif broken == "partner-self":
            partner[[k, partner[k]]] = k, partner[k]
        else:
            # Two equal real eigenvalues paired with each other are not a conjugate pair.
            eigenvalues[real[1]] = eigenvalues[real[0]]
            partner[real] = real[::-1]
        with pytest.raises(EigendecompositionError, match="closed under exact conjugation"):
            dataclasses.replace(sd, eigenvalues=eigenvalues, partner=partner)

    def test_grid_after_a_pulse_matches_expm(self):
        # Two grid segments around a pulse read out T column groups, not one.
        sd = spectral_decomposition(decoherence_generator(two_fluctuator_system()))
        times = np.linspace(0.0, 5.0, 7)
        rotation = rotation_matrix([0.3, 0.4, 0.5], 0.9)
        steps = [("free", times), ("pulse", rotation), ("free", 0.5 * times)]
        prepare = sd.operator.boundary[1]
        assert_allclose(superop._compose(sd, steps, prepare),
                        superop._compose_expm(sd, steps, prepare), rtol=0, atol=1e-12)

    def test_inverse_runs_on_float64_only(self, monkeypatch):
        sys = two_fluctuator_system()
        inv, dtypes = np.linalg.inv, []

        def recording(a):
            dtypes.append(a.dtype)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", recording)
        sd = spectral_decomposition(decoherence_generator(sys))
        bang_bang_operator(sys, np.array([0.4, 1.3]), 5, sd=sd)
        bang_bang_operator(sys, 2.2, 3)
        assert len(dtypes) == 4 and set(dtypes) == {np.dtype(np.float64)}


class TestMemberBlocks:
    @pytest.mark.parametrize("n_members,dim", [(0, 6), (1, 6), (61, 6), (5000, 6), (3, 48),
                                               (4, 384)])
    def test_blocks_cover_the_sweep_in_bounded_stacks(self, monkeypatch, n_members, dim):
        # Only the cut is checked here, so no stack is decomposed.
        monkeypatch.setattr(superop, "_decompose_stack", lambda mats, name: None)
        members = np.arange(n_members)
        blocks = [block for block, *_ in _sweep(lambda block: members[block], n_members, dim)]
        assert np.concatenate([members[b] for b in blocks] + [members[:0]]).tolist() == list(members)
        for b in blocks:
            size = members[b].size
            assert size == 1 or 1 < size and size * dim**2 <= 2**16


class TestBoundary:
    def test_operator_boundary_is_real_cached_and_read_only(self):
        sys = two_fluctuator_system()
        gen = decoherence_generator(sys)
        readout, prepare = gen.boundary
        assert gen.boundary[0] is readout and gen.boundary[1] is prepare
        assert readout.dtype == np.float64 and prepare.dtype == np.float64
        assert not readout.flags.writeable and not prepare.flags.writeable
        expected = boundary_projectors(sys)
        assert np.array_equal(readout, expected[0]) and np.array_equal(prepare, expected[1])


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

    @pytest.mark.parametrize("t", [np.array([1.0, 2.0]), [0.5], np.array([[1.0]])])
    def test_array_time_rejected(self, t):
        # A grid goes through transfer_from_spectral; here numpy would fail on the truth
        # value of an array.
        gen = decoherence_generator(make_system())
        with pytest.raises(ValueError, match="t must be a scalar time, got shape"):
            evolve_operator(gen, t)

    def test_step_kind_rejected(self):
        step = discrete_transfer_operator(make_system(), 0.1)
        with pytest.raises(ValueError, match="generator"):
            evolve_operator(step, 1.0)
        sd = spectral_decomposition(step)
        with pytest.raises(ValueError, match="^transfer_from_spectral requires a generator-kind "
                                             "superoperator$"):
            transfer_from_spectral(sd, [1.0])

    def test_nan_time_raises(self):
        # A NaN time is rejected with the argument's name, before any contraction.
        sys = make_system()
        gen = decoherence_generator(sys)
        sd = spectral_decomposition(gen)
        with pytest.raises(ValueError, match="times must be >= 0 and not NaN"):
            transfer_from_spectral(sd, [1.0, np.nan])
        with pytest.raises(ValueError, match="times must be >= 0 and not NaN"):
            echo_signal(sys, [1.0, np.nan])
        with pytest.raises(ValueError, match="t must be >= 0 and not NaN"):
            evolve_operator(gen, np.nan, sd)

    @pytest.mark.parametrize("times", [[[0.0, 1.0]], 1.0], ids=["2-d", "scalar"])
    def test_time_grid_must_be_1d(self, times):
        sys = make_system()
        sd = spectral_decomposition(decoherence_generator(sys))
        with pytest.raises(ValueError, match="times must be a 1-d grid"):
            transfer_from_spectral(sd, times)
        with pytest.raises(ValueError, match="echo times must be a 1-d grid"):
            echo_signal(sys, times)

    def test_infinite_time_raises(self):
        sys = make_system()
        gen = decoherence_generator(sys)
        sd = spectral_decomposition(gen)
        with pytest.raises(ValueError, match="times must be >= 0 and not NaN or infinite"):
            transfer_from_spectral(sd, [1.0, np.inf])
        with pytest.raises(ValueError, match="echo times must be >= 0 and not NaN or infinite"):
            echo_signal(sys, [1.0, np.inf])
        with pytest.raises(ValueError, match="t must be >= 0 and not NaN or infinite"):
            evolve_operator(gen, np.inf, sd)

    def test_defective_operator_falls_back_to_expm(self):
        sys = make_system()
        jordan = np.eye(6) + np.eye(6, k=1)
        op = Superoperator(mat=jordan, kind=KIND_GENERATOR, system=sys)
        sd = spectral_decomposition(op)
        assert sd.defective
        full, _ = evolve_operator(op, 1.3, sd)
        assert_allclose(full, scipy.linalg.expm(-1.3 * jordan), atol=1e-12)

    def test_expm_route_returns_float64(self):
        # At the aligned exceptional point g = gamma every propagator is formed by expm of
        # the real generator, so each result is real without any imaginary part to drop.
        sys = make_system(theta=0.0, g=0.1, gamma=0.1)
        gen = decoherence_generator(sys)
        sd = spectral_decomposition(gen)
        assert sd.defective
        times = np.linspace(0.0, 20.0, 5)
        seq = PulseSequence(events=((1.0, np.array([0.0, 1.0, 0.0]), np.pi),))
        results = [
            *evolve_operator(gen, 1.3, sd),
            transfer_from_spectral(sd, times),
            echo_signal(sys, times, sd=sd),
            sequence_operator(sys, seq, 2.0, sd=sd),
            bang_bang_operator(sys, 0.5, 4, sd=sd).transfer,
        ]
        for result in results:
            assert result.dtype == np.float64


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
