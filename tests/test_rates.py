import dataclasses

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from qtel import (
    ChannelRates,
    EigendecompositionError,
    FluctuatorSpec,
    Superoperator,
    SystemSpec,
    angle_sweep,
    decoherence_generator,
    extract_rates,
    free_decay_rates,
    longitudinal_eigenvalues,
    longitudinal_rates,
    perturbative_rates,
    spectral_decomposition,
    telegraph_spectrum,
    transverse_eigenvalues,
)
from qtel import rates, superop
from qtel.rates import _select_rates, channel_rates_from_modes

from conftest import make_system


def match_multisets(a, b):
    """Greedy nearest-match distance between two equal-size multisets."""
    b = list(b)
    worst = 0.0
    for x in a:
        j = int(np.argmin([abs(x - y) for y in b]))
        worst = max(worst, abs(x - b.pop(j)))
    return worst


class TestExtractRates:
    def test_aligned_noise_conserves_z(self):
        for gamma, g in [(0.1, 0.3), (0.5, 0.1), (0.2, 0.2)]:
            rates = free_decay_rates(make_system(theta=0.0, g=g, gamma=gamma))
            assert rates.rate_z == 0.0

    @pytest.mark.parametrize("gamma,g", [(0.5, 0.1), (0.1, 0.3)])
    def test_transverse_noise_t2_is_twice_t1(self, gamma, g):
        rates = free_decay_rates(make_system(theta=np.pi / 2, g=g, gamma=gamma))
        assert rates.rate_z > 0
        assert abs(rates.rate_xy - rates.rate_z / 2.0) / (rates.rate_z / 2.0) < 1e-6

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_frozen_fluctuator_does_not_decohere(self, sign):
        rates = free_decay_rates(make_system(theta=0.6, gamma=0.1, eta=sign * 0.1))
        assert abs(rates.rate_z) < 1e-10
        assert abs(rates.rate_xy) < 1e-10

    @pytest.mark.parametrize("gamma,g", [(0.5, 0.1), (0.1, 0.3)])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2])
    def test_x_and_y_channels_agree_at_reference_points(self, gamma, g, theta):
        rates = free_decay_rates(make_system(theta=theta, g=g, gamma=gamma))
        assert abs(rates.rate_x - rates.rate_y) < 1e-9
        assert "xy-rate-mismatch" not in rates.flags

    def test_xy_mismatch_is_flagged_not_hidden(self, rng):
        # At tilted working points the coupling vector singles out one
        # transverse direction; when the raw x and y selections differ
        # the result must carry the mismatch flag.
        for _ in range(15):
            gamma = rng.uniform(0.05, 0.6)
            rates = free_decay_rates(
                make_system(
                    theta=rng.uniform(0, np.pi / 2),
                    g=rng.uniform(0.05, 1.0),
                    gamma=gamma,
                    eta=rng.uniform(-gamma, gamma),
                )
            )
            mismatch = abs(rates.rate_x - rates.rate_y) > 1e-9
            assert mismatch == ("xy-rate-mismatch" in rates.flags)
            assert min(rates.rate_x, rates.rate_y) <= rates.rate_xy <= max(
                rates.rate_x, rates.rate_y
            )

    def test_rates_bounded_by_dissipative_strength(self, rng):
        # 0 <= 1/T1 and 0 <= 1/T2 <= 2 gamma for any working point.
        for _ in range(20):
            gamma = rng.uniform(0.05, 1.0)
            rates = free_decay_rates(
                make_system(
                    b0=rng.uniform(0.0, 2.0),
                    theta=rng.uniform(0, np.pi / 2),
                    g=rng.uniform(0.0, 2.0),
                    gamma=gamma,
                    eta=rng.uniform(-gamma, gamma),
                )
            )
            assert 0.0 <= rates.rate_z <= 2.0 * gamma + 1e-10
            assert 0.0 <= rates.rate_xy <= 2.0 * gamma + 1e-10

    def test_defective_decomposition_keeps_spectral_rates(self):
        # A decomposition flagged defective is read from the same spectral weights,
        # bit for bit; only its flags say so.
        sys = make_system(theta=np.pi / 2, g=0.1, gamma=0.5)
        sd = spectral_decomposition(decoherence_generator(sys))
        spectral = extract_rates(sd)
        flagged = extract_rates(dataclasses.replace(sd, defective=True))
        assert flagged.method == spectral.method == "spectral-weight"
        assert flagged.flags == spectral.flags + ("near-defective",)
        assert dataclasses.replace(flagged, mode_weights=None, flags=()) == dataclasses.replace(
            spectral, mode_weights=None, flags=())
        for name, w in spectral.mode_weights.items():
            assert np.array_equal(flagged.mode_weights[name], w)

    def test_singular_eigenvectors_raise(self):
        # A nilpotent 3x3 Jordan block gives exactly singular eigenvectors: no left
        # vectors, so no weights to select from.
        singular = scipy.linalg.block_diag(np.eye(3, k=1), np.diag([1.0, 2.0, 3.0]))
        op = Superoperator(mat=singular, kind="generator", system=make_system())
        sd = spectral_decomposition(op)
        assert sd.left_vectors is None
        with pytest.raises(EigendecompositionError, match="no left eigenvectors.*member 0 of 1"):
            extract_rates(sd)


class TestModeSelection:
    def test_min_rate_among_weighted_modes_wins(self):
        mode_rates = np.array([0.0, 0.05, 0.2, 0.5])
        weights = np.zeros((3, 4))
        weights[0] = [0.0, 0.5, 0.5, 0.0]  # x sees 0.05 and 0.2
        weights[1] = [0.0, 0.5, 0.5, 0.0]
        weights[2] = [0.9, 0.0, 0.0, 0.1]  # z sees only the zero mode + 0.5
        rates = channel_rates_from_modes(mode_rates, weights)
        assert rates.rate_x == 0.05
        assert rates.rate_z == 0.5

    def test_leaked_micro_weights_ignored(self):
        # A numerically leaked weight far below the channel maximum must
        # not capture the channel rate.
        mode_rates = np.array([0.01, 0.1])
        weights = np.array([[1e-4, 0.5], [1e-4, 0.5], [0.9, 1e-12]])
        rates = channel_rates_from_modes(mode_rates, weights)
        assert rates.rate_x == 0.1
        assert rates.rate_z == 0.01

    def test_all_conserved_channel_has_zero_rate(self):
        mode_rates = np.array([0.0, 0.3])
        weights = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        rates = channel_rates_from_modes(mode_rates, weights)
        assert rates.rate_x == rates.rate_z == 0.0

    def test_comparable_weights_with_distinct_rates_flagged(self):
        mode_rates = np.array([0.1, 0.3])
        weights = np.array([[0.5, 0.4], [0.5, 0.4], [0.5, 0.4]])
        rates = channel_rates_from_modes(mode_rates, weights)
        assert rates.rate_x == 0.1
        assert any(flag.endswith("rate-ambiguous") for flag in rates.flags)

    def test_conjugate_pair_weights_not_flagged(self):
        mode_rates = np.array([0.1, 0.1, 0.4])
        weights = np.array([[0.5, 0.5, 0.01], [0.5, 0.5, 0.01], [0.0, 0.0, 1.0]])
        rates = channel_rates_from_modes(mode_rates, weights)
        assert rates.flags == ()


def reference_channel_rates(mode_rates, weights):
    """Per-channel selection, one channel at a time, as a plain Python reference.

    Returns the rates (x, y, z, xy) and the flags of ``channel_rates_from_modes``.
    """

    @np.errstate(invalid="ignore")  # inf - inf
    def select(w, name, flags):
        wmax = w.max() if w.size else 0.0
        eligible = (w > 1e-2 * wmax) & (mode_rates > 1e-12)
        if not np.any(eligible):
            return 0.0
        grp_rates, grp_weights = [], []
        for r, wk in sorted(zip(mode_rates[eligible], w[eligible])):
            if grp_rates and abs(r - grp_rates[-1]) < 1e-9:  # the group's first rate
                grp_weights[-1] += wk
            else:
                grp_rates.append(float(r))
                grp_weights.append(float(wk))
        if len(grp_weights) >= 2:
            top = sorted(grp_weights, reverse=True)
            heavy = [grp_rates[i] for i in range(len(grp_weights)) if grp_weights[i] >= top[1]]
            if top[1] > 0.5 * top[0] and abs(max(heavy) - min(heavy)) > 1e-9:
                flags.append(f"{name}-rate-ambiguous")
        return float(min(grp_rates))

    flags = []
    rates = [select(weights[0], "x", flags), select(weights[1], "y", flags),
             select(weights[2], "z", flags), select(0.5 * (weights[0] + weights[1]), "xy", flags)]
    if abs(rates[0] - rates[1]) > 1e-9:
        flags.append("xy-rate-mismatch")
    return rates, tuple(flags)


def selection_cases(rng, n_cases=400, d=8):
    """Seeded rate and weight stacks with clusters, ties, zero modes and infinite rates."""
    rates = np.empty((n_cases, d))
    for b in range(n_cases):
        base = rng.choice([0.1, 0.2, 0.35], size=d)
        # Clusters 0.6e-9 apart: 0, 0.6e-9 and 1.2e-9 from a base rate.
        base += 0.6e-9 * rng.integers(0, 4, size=d) * (rng.random() < 0.7)
        base[rng.random(d) < 0.1] = 0.0
        base[rng.random(d) < 0.05] = np.inf
        rates[b] = base
    weights = rng.choice([0.0, 1e-4, 0.2, 0.25, 0.5, 1.0], size=(n_cases, 3, d))
    weights *= np.where(rng.random((n_cases, 3, d)) < 0.5, 1.0, rng.random((n_cases, 3, d)))
    return rates, weights


class TestStackedSelection:
    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_matches_scalar_reference(self, rng, d):
        rates, weights = selection_cases(rng, d=d)
        stack = _select_rates(rates, weights)
        n_flagged = 0
        for b in range(len(rates)):
            want_rates, want_flags = reference_channel_rates(rates[b], weights[b])
            got = stack.member(b)
            assert [got.rate_x, got.rate_y, got.rate_z, got.rate_xy] == want_rates
            assert got.flags == want_flags
            n_flagged += any(f.endswith("ambiguous") for f in want_flags)
        assert (0 if d == 1 else 1) <= n_flagged < len(rates)

    def test_groups_join_the_first_rate_not_the_previous(self):
        # 0.1 + 1.2e-9 is within 1e-9 of its predecessor but not of the group's first rate,
        # so it opens a second group of comparable weight: the x channel is ambiguous.
        mode_rates = np.array([0.1, 0.1 + 0.6e-9, 0.1 + 1.2e-9])
        weights = np.array([[0.3, 0.3, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        got = channel_rates_from_modes(mode_rates, weights)
        assert "x-rate-ambiguous" in got.flags
        assert got.flags == reference_channel_rates(mode_rates, weights)[1]

    @pytest.mark.parametrize("d", [1, 2, 8])
    def test_rates_alone_equal_the_selection(self, rng, d):
        mode_rates, weights = selection_cases(rng, d=d)
        mode_rates[0] = 0.0  # only conserved modes: no channel has an eligible one
        stack = _select_rates(mode_rates, weights)
        alone = stack.rates.tolist()
        assert "ambiguous" not in vars(stack)  # the rates alone run no grouping
        assert alone[0] == [0.0] * 4
        for b in range(len(mode_rates)):
            got = stack.member(b)
            assert alone[b] == [got.rate_x, got.rate_y, got.rate_z, got.rate_xy]
        assert "ambiguous" in vars(stack)

    def test_angle_sweep_runs_no_grouping(self, monkeypatch):
        def grouping(stack):
            raise AssertionError("the sweep grouped rates it does not flag")

        monkeypatch.setattr(rates._RateStack, "ambiguous", property(grouping))
        sweep = angle_sweep(1.0, 0.3, 0.1, 0.0, np.linspace(0.0, np.pi / 2, 61))
        assert sweep.rate_xy.shape == (61,)

    def test_member_without_left_vectors_is_named(self, rng):
        mode_rates, weights = selection_cases(rng, n_cases=3)
        weights[1, :, 0] = np.nan  # what a failed inversion leaves
        # The selection raises at the call, before any rate or flag is read.
        with pytest.raises(EigendecompositionError, match="member 1 of 3"):
            _select_rates(mode_rates, weights)
        with pytest.raises(EigendecompositionError, match=r"\(tau 2\.5\)"):
            _select_rates(mode_rates, weights, name=lambda b: "tau 2.5")

    def test_resolution_widens_only_defective_members(self):
        eps = np.finfo(float).eps
        near = rates._rate_resolution([1e9, 1e9, 10.0], [False, True, True], 2.0)
        assert near.tolist() == [1e-9, 1e9 * eps * 2.0, 1e-9]
        # Two x modes 5e-8 apart with comparable weights: two rates at 1e-9, one at 1e-7.
        mode_rates = np.tile([0.1, 0.1 + 5e-8], (2, 1))
        weights = np.tile([[1.0, 0.8], [1.0, 0.0], [1.0, 0.0]], (2, 1, 1))
        stack = _select_rates(mode_rates, weights, np.array([1e-9, 1e-7]))
        assert stack.member(0).flags == ("x-rate-ambiguous",)
        assert stack.member(1).flags == ()
        assert np.array_equal(stack.rates[0], stack.rates[1])

    def test_channel_rates_are_the_one_row_case(self, rng):
        rates, weights = selection_cases(rng, n_cases=20)
        stack = _select_rates(rates, weights)
        for b in range(len(rates)):
            one = channel_rates_from_modes(rates[b], weights[b])
            assert one == dataclasses.replace(stack.member(b), mode_weights=one.mode_weights)
            for name, w in one.mode_weights.items():
                assert np.array_equal(w, stack.member(b).mode_weights[name])


class TestLongitudinalClosedForm:
    def test_strong_coupling_saturates_at_switching_rate(self):
        rates = longitudinal_rates(1.0, 0.3, 0.1, 0.0)
        assert_allclose(rates.rate_xy, 0.1, atol=1e-15)
        assert rates.rate_z == 0.0

    def test_weak_coupling_motional_narrowing(self):
        rates = longitudinal_rates(1.0, 0.1, 0.5, 0.0)
        assert_allclose(rates.rate_xy, 0.5 - np.sqrt(0.24), rtol=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_frozen_limit_vanishes(self, sign):
        rates = longitudinal_rates(1.0, 0.3, 0.1, sign * 0.1)
        assert abs(rates.rate_xy) < 1e-12

    @pytest.mark.parametrize("gamma, eta", [(0.1, 0.2), (0.1, -0.2), (-0.1, 0.0)])
    def test_imbalance_beyond_rate_rejected(self, gamma, eta):
        with pytest.raises(ValueError, match=r"^require gamma >= 0 and \|eta\| <= gamma$"):
            longitudinal_rates(1.0, 0.3, gamma, eta)

    def test_matches_numerical_extraction_on_grid(self):
        for gamma in (0.05, 0.12, 0.5, 1.1):
            for g in (0.02, 0.1, 0.4):
                for eta in (0.0, 0.4 * gamma, -0.9 * gamma):
                    closed = longitudinal_rates(1.0, g, gamma, eta)
                    numeric = free_decay_rates(
                        make_system(theta=0.0, g=g, gamma=gamma, eta=eta)
                    )
                    assert abs(closed.rate_xy - numeric.rate_xy) < 1e-9
                    assert abs(closed.rate_z - numeric.rate_z) < 1e-9

    def test_eigenvalues_match_spectrum_on_grid(self):
        for gamma in (0.1, 0.5):
            for g in (0.2, 0.3, 1.0):
                for eta in (0.0, 0.5 * gamma):
                    if abs(g - gamma) < 0.03 and eta == 0.0:
                        continue  # exceptional point: eigenvalues split at sqrt(eps)
                    sd = spectral_decomposition(
                        decoherence_generator(make_system(theta=0.0, g=g, gamma=gamma, eta=eta))
                    )
                    closed = longitudinal_eigenvalues(1.0, g, gamma, eta)
                    assert match_multisets(closed, sd.eigenvalues) < 1e-10

    def test_exceptional_point_is_flagged_near_defective(self):
        # g = gamma, eta = 0 is a genuine exceptional point of the
        # motional-narrowing transition; the decomposition must say so.
        sd = spectral_decomposition(
            decoherence_generator(make_system(theta=0.0, g=0.1, gamma=0.1))
        )
        assert sd.condition > 1e6

    @pytest.mark.parametrize("n,gamma,rtol", [(1, 0.05, 1e-7), (1, 0.1, 1e-7), (1, 0.12, 1e-7),
                                              (1, 0.5, 1e-7), (1, 1.1, 1e-7), (2, 0.1, 1e-4),
                                              (3, 0.1, 1e-3), (4, 0.1, 1e-2)])
    def test_identical_fluctuators_at_exceptional_point(self, n, gamma, rtol):
        # At g = gamma (eta = 0) an order-2 exceptional point moves the eigenvalues by about
        # sqrt(eps); the spectral weights still give N times the one-fluctuator rate.  The
        # coalescing pair splits by more than 1e-9 (up to 2.1e-4 at N = 4) but within the
        # roundoff bound condition * eps * max|lambda|, so the rate is not ambiguous.
        fluctuator = FluctuatorSpec(g=[0.0, 0.0, gamma], gamma=gamma, eta=0.0)
        rates = free_decay_rates(SystemSpec(b0=1.0, fluctuators=(fluctuator,) * n))
        assert_allclose(rates.rate_xy, n * longitudinal_rates(1.0, gamma, gamma).rate_xy,
                        rtol=rtol, atol=0)
        assert rates.flags == ("near-defective",)


class TestTransverseClosedForm:
    def test_zero_switching_is_pure_precession(self):
        roots = transverse_eigenvalues(1.0, 0.3, 0.0)
        dressed = np.sqrt(1.0 + 0.09)
        expected = [0.0, 1j * dressed, -1j * dressed, 0.0, 1j * dressed, -1j * dressed]
        assert match_multisets(roots, expected) < 1e-12

    @pytest.mark.parametrize("gamma,g", [(0.5, 0.1), (0.1, 0.3), (0.2, 1.5)])
    def test_roots_reproduce_spectrum(self, gamma, g):
        sd = spectral_decomposition(
            decoherence_generator(make_system(theta=np.pi / 2, g=g, gamma=gamma))
        )
        assert match_multisets(transverse_eigenvalues(1.0, g, gamma), sd.eigenvalues) < 1e-9

    def test_first_cubic_root_sum(self):
        # Vieta on the decay-convention cubic: the three roots add to
        # twice the switching rate.
        gamma = 0.37
        roots = transverse_eigenvalues(1.2, 0.4, gamma)[:3]
        assert_allclose(roots.sum(), 2.0 * gamma, atol=1e-12)

    def test_spectrum_on_random_grid(self, rng):
        for _ in range(20):
            gamma = rng.uniform(0.02, 1.0)
            g = rng.uniform(0.02, 2.0)
            sd = spectral_decomposition(
                decoherence_generator(make_system(theta=np.pi / 2, g=g, gamma=gamma))
            )
            assert match_multisets(transverse_eigenvalues(1.0, g, gamma), sd.eigenvalues) < 1e-9

    def test_nonzero_imbalance_rejected(self):
        with pytest.raises(ValueError, match="imbalance"):
            transverse_eigenvalues(1.0, 0.3, 0.1, eta=0.05)


@pytest.mark.parametrize("closed_form",
                         [longitudinal_rates, longitudinal_eigenvalues, transverse_eigenvalues])
@pytest.mark.parametrize("name", ["b0", "g", "gamma", "eta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_closed_forms_name_a_non_finite_parameter(closed_form, name, bad):
    params = {"b0": 1.0, "g": 0.3, "gamma": 0.1, "eta": 0.0} | {name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        closed_form(**params)


@pytest.mark.parametrize("name", ["rate_z", "rate_xy", "rate_x", "rate_y"])
def test_channel_rates_reject_nan_but_keep_inf(name):
    # A bang-bang candidate rate can be inf; a NaN rate is no rate.
    fields = {"rate_z": 0.0, "rate_xy": 0.1, "rate_x": 0.1, "rate_y": 0.1,
              "mode_weights": None, "method": "closed-form"}
    with pytest.raises(ValueError, match=f"{name} must be >= 0 up to roundoff, got nan"):
        ChannelRates(**fields | {name: np.nan})
    assert getattr(ChannelRates(**fields | {name: np.inf}), name) == np.inf


class TestPerturbativeRates:
    def test_aligned_weak_coupling_matches_exact(self):
        # S(0) / 2 = g**2 / (2 gamma) = 0.01, within 2% of the exact rate.
        pert = perturbative_rates(1.0, 0.1, 0.5, theta=0.0)
        assert_allclose(pert.rate_phi, 0.01, rtol=1e-12)
        exact = longitudinal_rates(1.0, 0.1, 0.5).rate_xy
        assert abs(pert.rate_2_star - exact) / exact < 0.02

    def test_transverse_has_no_dephasing_part(self):
        # cos(pi/2) squared underflows to ~1e-33 in floats.
        pert = perturbative_rates(1.0, 0.1, 0.5, theta=np.pi / 2)
        assert abs(pert.rate_phi) < 1e-30
        assert_allclose(pert.rate_2_star, pert.rate_1 / 2.0, rtol=1e-12)

    def test_strong_coupling_breakdown(self):
        # Aligned strong coupling: perturbative 0.45 vs exact 0.1.
        pert = perturbative_rates(1.0, 0.3, 0.1, theta=0.0)
        assert_allclose(pert.rate_2_star, 0.45, rtol=1e-12)
        exact = longitudinal_rates(1.0, 0.3, 0.1).rate_xy
        assert abs(pert.rate_2_star - exact) / exact > 1.0

    def test_nonzero_imbalance_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            perturbative_rates(1.0, 0.1, 0.5, theta=0.3, eta=0.1)

    def test_inconsistent_total_rejected(self):
        pert = perturbative_rates(1.0, 0.1, 0.5, theta=0.3)
        message = r"^rate_2_star must equal rate_1 / 2 \+ rate_phi exactly$"
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(pert, rate_2_star=2.0 * pert.rate_2_star)

    def test_weak_coupling_consistency_across_angles(self):
        # g / gamma <= 0.2: perturbative 1/T2* within 5% of exact.
        for gamma, g in [(0.5, 0.1), (0.5, 0.05), (1.0, 0.2)]:
            for theta in np.linspace(0.0, np.pi / 2, 9):
                exact = free_decay_rates(
                    make_system(theta=theta, g=g, gamma=gamma)
                ).rate_xy
                pert = perturbative_rates(1.0, g, gamma, theta).rate_2_star
                assert abs(exact - pert) / exact < 0.05

    @pytest.mark.parametrize("name, value", [
        ("b0", np.nan), ("g", np.inf), ("gamma", np.nan), ("theta", np.nan), ("theta", -np.inf),
        ("eta", np.nan),
    ])
    def test_non_finite_parameter_named(self, name, value):
        args = {"b0": 1.0, "g": 0.1, "gamma": 0.5, "theta": 0.3} | {name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            perturbative_rates(**args)

    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    def test_non_positive_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match=f"gamma must be > 0, got {gamma}"):
            perturbative_rates(1.0, 0.1, gamma, 0.3)
        with pytest.raises(ValueError, match=f"gamma must be > 0, got {gamma}"):
            telegraph_spectrum(0.0, gamma, 0.1)

    @pytest.mark.parametrize("name, args", [
        ("omega", ([0.0, np.nan], 0.5, 0.1)), ("omega", (np.inf, 0.5, 0.1)),
        ("gamma", (0.0, np.inf, 0.1)), ("g", (0.0, 0.5, np.nan)),
    ])
    def test_spectrum_rejects_non_finite(self, name, args):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            telegraph_spectrum(*args)

    def test_spectrum_normalization(self):
        # S(omega) = 4 gamma g^2 / (omega^2 + 4 gamma^2).
        assert_allclose(telegraph_spectrum(0.0, 0.5, 0.1), 0.02, rtol=1e-12)
        assert_allclose(telegraph_spectrum(1.0, 0.5, 0.1), 0.01, rtol=1e-12)


class TestAngleSweep:
    def test_weak_coupling_rate_crossing(self):
        sweep = angle_sweep(1.0, 0.1, 0.5, 0.0, np.linspace(0.01, np.pi / 2 - 0.01, 40))
        diff = sweep.rate_z - sweep.rate_xy
        assert diff[0] < 0 < diff[-1]
        crossings = np.sum(np.sign(diff[:-1]) != np.sign(diff[1:]))
        assert crossings == 1

    def test_strong_coupling_flat_then_downturn(self):
        sweep = angle_sweep(1.0, 0.3, 0.1, 0.0, np.array([0.0, 0.1, 1.45]))
        flat = abs(sweep.rate_xy[1] - sweep.rate_xy[0]) / sweep.rate_xy[0]
        assert flat < 0.05
        assert sweep.rate_xy[2] < sweep.rate_xy[0]

    def test_imbalance_lowers_rates_pointwise(self):
        thetas = np.linspace(0.05, np.pi / 2, 12)
        balanced = angle_sweep(1.0, 0.3, 0.1, 0.0, thetas)
        biased = angle_sweep(1.0, 0.3, 0.1, 0.05, thetas)
        assert np.all(biased.rate_xy <= balanced.rate_xy + 1e-12)
        assert np.all(biased.rate_z <= balanced.rate_z + 1e-12)
        assert np.all(np.isnan(biased.rate_2_star))

    @pytest.mark.parametrize("b0,g,gamma,eta", [(1.0, 0.1, 0.5, 0.0), (1.0, 0.1, 0.5, 0.1),
                                                 (1.0, 0.3, 0.1, 0.0), (1.0, 0.3, 0.1, 0.05)])
    def test_equals_pointwise_rates(self, b0, g, gamma, eta):
        thetas = np.linspace(0.0, np.pi / 2, 61)
        sweep = angle_sweep(b0, g, gamma, eta, thetas)
        for i, th in enumerate(thetas):
            rates = free_decay_rates(make_system(b0=b0, g=g, theta=th, gamma=gamma, eta=eta))
            assert sweep.rate_z[i] == rates.rate_z
            assert sweep.rate_xy[i] == rates.rate_xy
            if eta == 0.0:
                assert sweep.rate_2_star[i] == perturbative_rates(b0, g, gamma, th).rate_2_star

    def test_empty_grid_gives_empty_result(self):
        sweep = angle_sweep(1.0, 0.3, 0.1, 0.0, [])
        assert sweep.rate_z.shape == sweep.rate_xy.shape == sweep.rate_2_star.shape == (0,)

    @pytest.mark.parametrize(
        "grid, message",
        [
            pytest.param([[0.1, 0.2]], r"theta_grid must be a 1-d grid, got shape \(1, 2\)",
                         id="2-d"),
            pytest.param(0.1, r"theta_grid must be a 1-d grid, got shape \(\)", id="scalar"),
            pytest.param([0.1, np.nan], "theta must be finite", id="nan"),
            pytest.param([np.inf], "theta must be finite", id="inf"),
        ],
    )
    def test_bad_grid_rejected(self, grid, message):
        with pytest.raises(ValueError, match=message):
            angle_sweep(1.0, 0.3, 0.2, 0.0, grid)

    def test_sweep_split_into_stacks_equals_one_stack(self, monkeypatch):
        thetas = np.linspace(0.0, np.pi / 2, 61)
        whole = angle_sweep(1.0, 0.3, 0.1, 0.0, thetas)
        monkeypatch.setattr(superop, "_STACK_ENTRIES", 4 * 6**2)
        split = angle_sweep(1.0, 0.3, 0.1, 0.0, thetas)
        assert np.array_equal(whole.rate_z, split.rate_z)
        assert np.array_equal(whole.rate_xy, split.rate_xy)

    def test_defective_member_in_a_later_stack(self, monkeypatch):
        thetas = np.array([1.3, 0.8, 0.3])
        systems = [make_system(g=0.1, theta=th, gamma=0.5) for th in thetas]
        conditions = [spectral_decomposition(decoherence_generator(s)).condition for s in systems]
        assert np.argmax(conditions) == 2
        monkeypatch.setattr(superop, "DEFECTIVE_CONDITION", np.sort(conditions)[-2:].mean())
        monkeypatch.setattr(superop, "_STACK_ENTRIES", 2 * 6**2)
        sweep = angle_sweep(1.0, 0.1, 0.5, 0.0, thetas)
        singles = [free_decay_rates(s) for s in systems]
        assert ["near-defective" in cr.flags for cr in singles] == [False, False, True]
        for i, cr in enumerate(singles):
            assert (sweep.rate_z[i], sweep.rate_xy[i]) == (cr.rate_z, cr.rate_xy)

    def test_errors_name_the_sweep_index(self, monkeypatch):
        # In stacks of two, sweep index 2 is member 0 of the second stack.
        thetas = np.array([1.3, 0.8, 0.3])
        residuals = [spectral_decomposition(decoherence_generator(
            make_system(g=0.1, theta=th, gamma=0.5))).max_residual for th in thetas]
        thetas = thetas[np.argsort(residuals)]
        worst, second = np.sort(residuals)[::-1][:2]
        assert worst > second
        monkeypatch.setattr(superop, "_STACK_ENTRIES", 2 * 6**2)
        with monkeypatch.context() as patch:
            patch.setattr(superop, "RESIDUAL_TOL", (worst + second) / 2)
            with pytest.raises(EigendecompositionError, match=r"\(member 2 of 3\)"):
                angle_sweep(1.0, 0.1, 0.5, 0.0, thetas)
        decompose = superop._decompose_stack

        def second_stack_without_left_vectors(mats, name=None):
            spectra = decompose(mats, name)
            if len(mats) == 2:
                return spectra
            return spectra._replace(l_r=np.full_like(spectra.l_r, np.nan))

        monkeypatch.setattr(superop, "_decompose_stack", second_stack_without_left_vectors)
        with pytest.raises(EigendecompositionError, match=r"no left eigenvectors.*\(member 2 of 3\)"):
            angle_sweep(1.0, 0.1, 0.5, 0.0, thetas)
