import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qtel import (
    BlochVector,
    FluctuatorDistribution,
    FluctuatorSpec,
    boundary_vectors,
    rotation_matrix,
    so3_generators,
    stationary_distribution,
    step_rotation,
)


class TestGenerators:
    def test_matrix_elements(self):
        _, _, lz = so3_generators()
        assert lz[0, 1] == 1j
        assert lz[1, 0] == -1j
        assert_allclose(np.diag(lz), 0.0)

    def test_hermitian_with_spin_one_eigenvalues(self):
        for gen in so3_generators():
            assert_allclose(gen, gen.conj().T)
            assert_allclose(np.sort(np.linalg.eigvalsh(gen)), [-1.0, 0.0, 1.0], atol=1e-14)

    def test_algebra_closure(self):
        # With (L_i)_{jk} = i eps_{ijk} the closure is [L_i, L_j] = -i eps_{ijk} L_k.
        lx, ly, lz = so3_generators()
        assert_allclose(lx @ ly - ly @ lx, -1j * lz, atol=1e-15)
        assert_allclose(ly @ lz - lz @ ly, -1j * lx, atol=1e-15)
        assert_allclose(lz @ lx - lx @ lz, -1j * ly, atol=1e-15)

    def test_pi_rotation_about_y_flips_x_and_z(self):
        _, ly, _ = so3_generators()
        rot = scipy.linalg.expm(1j * np.pi * ly)
        assert_allclose(rot.real, np.diag([-1.0, 1.0, -1.0]), atol=1e-14)
        assert_allclose(rot.imag, 0.0, atol=1e-14)

    def test_rotation_matrix_matches_generator_exponential(self):
        lx, ly, lz = so3_generators()
        axis = np.array([0.4, -1.1, 0.7])
        angle = 1.234
        unit = axis / np.linalg.norm(axis)
        expected = scipy.linalg.expm(
            1j * angle * (unit[0] * lx + unit[1] * ly + unit[2] * lz)
        )
        assert_allclose(rotation_matrix(axis, angle), expected.real, atol=1e-13)


class TestStepRotation:
    def test_zero_fields_give_identity(self):
        assert_allclose(step_rotation(0.0, [0, 0, 0], +1, 1.0), np.eye(3))

    def test_norm_preserved_for_pi_precession(self):
        rot = step_rotation(1.0, [0, 0, 0], +1, np.pi)
        n = np.array([1.0, 0.0, 0.0])
        assert abs(np.linalg.norm(rot @ n) - 1.0) < 1e-15
        # A pi rotation about z inverts the transverse components.
        assert_allclose(rot @ n, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_matches_matrix_exponential_oracle(self):
        # Independent oracle: scaling-and-squaring exponential of the generator.
        lx, ly, lz = so3_generators()
        b0, g, dt = 1.0, np.array([0.3, 0.0, 0.0]), 0.1
        expected = scipy.linalg.expm(1j * dt * (b0 * lz + (g[0] * lx + g[1] * ly + g[2] * lz)))
        assert_allclose(step_rotation(b0, g, +1, dt), expected.real, atol=1e-12)
        expected_minus = scipy.linalg.expm(
            1j * dt * (b0 * lz - (g[0] * lx + g[1] * ly + g[2] * lz))
        )
        assert_allclose(step_rotation(b0, g, -1, dt), expected_minus.real, atol=1e-12)

    def test_always_proper_rotation(self, rng):
        for _ in range(50):
            b0 = rng.uniform(0, 3)
            g = rng.normal(size=3)
            s = rng.choice([-1, 1])
            dt = rng.uniform(0, 5)
            rot = step_rotation(b0, g, int(s), dt)
            assert_allclose(rot.T @ rot, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(rot) - 1.0) < 1e-12

    def test_rejects_bad_state(self):
        with pytest.raises(ValueError, match="state"):
            step_rotation(1.0, [0, 0, 0], 2, 0.1)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -0.1])
    def test_rejects_bad_interval(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and non-negative"):
            step_rotation(1.0, [0.1, 0.0, 0.0], 1, dt)

    @pytest.mark.parametrize("b0", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_field_by_name(self, b0):
        # Unchecked, a NaN field reached rotation_matrix as "angle must be finite".
        with pytest.raises(ValueError, match="^b0 must be finite"):
            step_rotation(b0, [0.1, 0.0, 0.0], 1, 0.1)

    @pytest.mark.parametrize("axis", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_rotation_rejects_non_finite_angle(self, axis, angle):
        with pytest.raises(ValueError, match="angle must be finite"):
            rotation_matrix(axis, angle)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rotation_rejects_non_finite_axis(self, bad):
        with pytest.raises(ValueError, match="axis must be finite"):
            rotation_matrix([bad, 0.0, 1.0], 0.3)


class TestFluctuatorStatistics:
    def test_symmetric_switching(self):
        dist = stationary_distribution(FluctuatorSpec(g=[0, 0, 1], gamma=0.1, eta=0.0))
        assert dist.p_plus == 0.5 and dist.p_minus == 0.5

    def test_biased_switching(self):
        dist = stationary_distribution(FluctuatorSpec(g=[0, 0, 1], gamma=0.1, eta=0.05))
        assert_allclose([dist.p_plus, dist.p_minus], [0.25, 0.75], rtol=1e-15)

    def test_frozen_fluctuator_occupies_one_level(self):
        dist = stationary_distribution(FluctuatorSpec(g=[0, 0, 1], gamma=0.1, eta=0.1))
        assert dist.p_plus == 0.0 and dist.p_minus == 1.0

    def test_zero_rate_has_no_stationary_distribution(self):
        f = FluctuatorSpec(
            g=[0, 0, 1], gamma=0.0, eta=0.0,
            initial_distribution=FluctuatorDistribution.from_upper(0.5),
        )
        with pytest.raises(ValueError, match="stationary distribution undefined"):
            stationary_distribution(f)

    def test_imbalance_larger_than_rate_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            FluctuatorSpec(g=[0, 0, 1], gamma=0.1, eta=0.2)

    def test_nan_imbalance_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            FluctuatorSpec(g=[0, 0, 1], gamma=0.1, eta=float("nan"))

    def test_zero_rate_requires_explicit_distribution(self):
        with pytest.raises(ValueError, match="initial_distribution"):
            FluctuatorSpec(g=[0, 0, 1], gamma=0.0, eta=0.0)

    def test_occupations_stay_in_unit_interval(self, rng):
        for _ in range(100):
            gamma = rng.uniform(1e-6, 2.0)
            eta = rng.uniform(-gamma, gamma)
            dist = stationary_distribution(FluctuatorSpec(g=[0, 0, 1], gamma=gamma, eta=eta))
            assert 0.0 <= dist.p_plus <= 1.0
            assert 0.0 <= dist.p_minus <= 1.0
            assert dist.p_plus + dist.p_minus == 1.0


class TestDistribution:
    def test_exact_sum_enforced(self):
        with pytest.raises(ValueError, match="exactly"):
            FluctuatorDistribution(p_plus=0.3, p_minus=0.69999)

    def test_from_upper_sums_exactly(self):
        for p in (0.0, 0.1, 0.35000000000000003, 0.5, 0.9999999):
            dist = FluctuatorDistribution.from_upper(p)
            assert dist.p_plus + dist.p_minus == 1.0

    def test_range_checked(self):
        with pytest.raises(ValueError, match="p_plus"):
            FluctuatorDistribution(p_plus=1.2, p_minus=-0.2)


class TestBoundaryVectors:
    def test_single_symmetric(self):
        readout, prepare = boundary_vectors([FluctuatorDistribution.from_upper(0.5)])
        assert_allclose(readout, np.array([1.0, 1.0]) / np.sqrt(2.0))
        assert_allclose(prepare, np.sqrt(2.0) * np.array([0.5, 0.5]))
        assert abs(readout @ prepare - 1.0) < 1e-15

    def test_single_biased_pairing(self):
        readout, prepare = boundary_vectors([FluctuatorDistribution.from_upper(0.25)])
        assert_allclose(prepare, np.sqrt(2.0) * np.array([0.25, 0.75]))
        assert abs(readout @ prepare - 1.0) < 1e-15

    def test_two_fluctuators_tensorize(self):
        dists = [FluctuatorDistribution.from_upper(0.5)] * 2
        readout, prepare = boundary_vectors(dists)
        assert readout.shape == (4,) and prepare.shape == (4,)
        assert abs(readout @ prepare - 1.0) < 1e-15

    def test_vectors_are_real(self):
        dists = [FluctuatorDistribution.from_upper(0.25), FluctuatorDistribution.from_upper(0.6)]
        readout, prepare = boundary_vectors(dists)
        assert readout.dtype == np.float64 and prepare.dtype == np.float64

    def test_pairing_is_one_for_random_distributions(self, rng):
        for _ in range(100):
            dists = [
                FluctuatorDistribution.from_upper(rng.uniform(0, 1))
                for _ in range(rng.integers(1, 4))
            ]
            readout, prepare = boundary_vectors(dists)
            assert abs(readout @ prepare - 1.0) < 1e-14


class TestBlochVector:
    def test_ball_membership_enforced(self):
        BlochVector(np.array([0.6, 0.0, 0.8]))
        with pytest.raises(ValueError, match="Bloch"):
            BlochVector(np.array([1.0, 1.0, 1.0]))
