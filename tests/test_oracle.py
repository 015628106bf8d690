import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
from qtel import oracle
from qtel.cli import ENUM_VERIFY_GRID
from qtel.model import FluctuatorDistribution
from qtel.oracle import MAX_ENUM_STEPS
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
        # The result must not keep the 2**17 summed prefix products alive.
        assert result.t_matrix.base is None

    def test_decoupled_noise_leaves_pure_precession(self):
        sys = make_system(g=0.0, gamma=0.4)
        result = enumerate_sequences(sys, dt=0.2, n_steps=8)
        expected = step_rotation(1.0, np.zeros(3), 1, 0.2 * 8)
        assert_allclose(result.t_matrix, expected, atol=1e-12)

    def test_step_cap_enforced(self):
        with pytest.raises(ValueError, match="n_steps"):
            enumerate_sequences(make_system(), dt=0.1, n_steps=21)

    @pytest.mark.parametrize("n_steps", [True, 3.0], ids=["bool", "float"])
    def test_non_integer_step_count_rejected(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            enumerate_sequences(make_system(), dt=0.1, n_steps=n_steps)

    def test_numpy_integer_step_count_accepted(self):
        sys = make_system(theta=0.4, eta=0.05)
        result = enumerate_sequences(sys, dt=0.1, n_steps=np.int64(5))
        assert result.n_steps == 5 and type(result.n_steps) is int
        assert np.array_equal(result.t_matrix, enumerate_sequences(sys, 0.1, 5).t_matrix)

    def test_step_cap_edge(self):
        sys = make_system(b0=0.8, g=0.4, theta=0.7, gamma=0.3, eta=-0.1)
        result = enumerate_sequences(sys, dt=0.05, n_steps=MAX_ENUM_STEPS)
        reference = powered_contraction(sys, 0.05, MAX_ENUM_STEPS)
        assert np.abs(result.t_matrix - reference).max() < 1e-12
        assert abs(result.total_probability - 1.0) < 1e-12
        # A view would pin all 2**19 prefix products (38 MB) for as long as the result lives.
        assert result.t_matrix.base is None

    def test_matches_per_sequence_reference(self, rng):
        # Sum sequence by sequence in plain Python: bit k of code c is the level
        # at step k (0 for s=+1, 1 for s=-1), each product is
        # rot[b_{n-1}] @ ... @ rot[b_0] and each probability is p_start[b_0]
        # times the switching probabilities, left to right.
        for n in range(1, 7):
            gamma = rng.uniform(0.05, 0.8)
            eta = rng.uniform(-gamma, gamma)
            sys = make_system(b0=rng.uniform(0.0, 2.0), g=rng.uniform(0.0, 1.5),
                              theta=rng.uniform(0, np.pi / 2), gamma=gamma, eta=eta)
            dt = rng.uniform(0.01, 0.5)
            f = sys.fluctuators[0]
            dist = sys.distributions()[0]
            levels = (1, -1)
            p_start = (dist.p_plus, dist.p_minus)
            leave = {1: (gamma + eta) * dt, -1: (gamma - eta) * dt}
            rot = [step_rotation(sys.b0, f.g, s, dt) for s in levels]
            t_matrix = np.zeros((3, 3))
            total = 0.0
            for code in range(2**n):
                bits = [(code >> k) & 1 for k in range(n)]
                prob = p_start[bits[0]]
                product = rot[bits[0]]
                for prev, cur in zip(bits, bits[1:]):
                    old = levels[prev]
                    prob *= leave[old] if cur != prev else 1.0 - leave[old]
                    product = rot[cur] @ product
                t_matrix += prob * product
                total += prob
            result = enumerate_sequences(sys, dt=dt, n_steps=n)
            assert np.abs(result.t_matrix - t_matrix).max() < 1e-15
            assert abs(result.total_probability - total) < 1e-15



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


# A sampler is reproducible only from its seed: None would draw OS entropy.
@pytest.mark.parametrize(
    "sampler",
    [
        pytest.param(lambda seed: sample_trajectories(make_system(), X_AXIS, [1.0], 10, seed),
                     id="trajectories"),
        pytest.param(lambda seed: sample_dwell_times(
            FluctuatorSpec(g=[0, 0, 0.3], gamma=0.1, eta=0.0), 10, seed), id="dwell-times"),
        pytest.param(lambda seed: empirical_spectrum(
            FluctuatorSpec(g=[0.1, 0, 0], gamma=0.5, eta=0.0), 10, seed), id="spectrum"),
    ],
)
@pytest.mark.parametrize(
    "seed, message",
    [
        pytest.param(None, "seed must be an integer, got None", id="none"),
        pytest.param(True, "seed must be an integer, got True", id="bool"),
        pytest.param(1.5, "seed must be an integer, got 1.5", id="float"),
        pytest.param(-1, "seed must be >= 0, got -1", id="negative"),
    ],
)
def test_samplers_reject_bad_seeds(sampler, seed, message):
    with pytest.raises(ValueError, match=message):
        sampler(seed)


def test_import_leaves_scipy_optimize_unloaded():
    # Only empirical_spectrum needs scipy.optimize, and it imports it on use.
    import qtel

    code = "import sys, qtel; print([m for m in sys.modules if m.startswith('scipy.optimize')])"
    env = os.environ | {"PYTHONPATH": str(Path(qtel.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestMonteCarlo:
    @pytest.mark.parametrize(
        "sys, bad",
        [
            pytest.param(make_system(), np.nan, id="nan"),
            # Frozen in the - level (eta = gamma), the unchecked sampler returns
            # NaN rows at t = inf instead of spinning, so this cannot hang.
            pytest.param(make_system(g=0.3, theta=0.6, gamma=0.1, eta=0.1), np.inf, id="inf"),
        ],
    )
    def test_non_finite_times_rejected(self, sys, bad):
        with pytest.raises(ValueError, match="t_grid must be finite"):
            sample_trajectories(sys, X_AXIS, [1.0, bad], n_samples=10, seed=0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param("n_samples", True, "n_samples must be an integer", id="samples-bool"),
            pytest.param("n_samples", 10.0, "n_samples must be an integer", id="samples-float"),
            pytest.param("n_samples", 0, "n_samples must be >= 1", id="samples-zero"),
            pytest.param("workers", True, "workers must be an integer", id="workers-bool"),
            pytest.param("workers", 2.0, "workers must be an integer", id="workers-float"),
            pytest.param("workers", 0, "workers must be >= 1", id="workers-zero"),
        ],
    )
    def test_bad_counts_rejected(self, field, value, message):
        kwargs = {"n_samples": 10, "workers": 1} | {field: value}
        with pytest.raises(ValueError, match=message):
            sample_trajectories(make_system(), X_AXIS, [1.0], seed=0, **kwargs)

    @pytest.mark.parametrize("times", [[2.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [[1.0, 2.0]], []],
                             ids=["decreasing", "repeated", "negative", "2-d", "empty"])
    def test_bad_time_grid_rejected(self, times):
        with pytest.raises(ValueError, match="^t_grid must be 1-d, strictly increasing and >= 0$"):
            sample_trajectories(make_system(), X_AXIS, times, n_samples=10, seed=0)

    def test_one_sample_has_zero_stderr(self):
        sys = make_system(theta=0.4, eta=0.05)
        one = sample_trajectories(sys, X_AXIS, [1.0, 2.0], n_samples=1, seed=3)
        assert one.n_samples == 1 and one.stderr.shape == (2, 3)
        assert np.array_equal(one.stderr, np.zeros((2, 3)))
        # The one trajectory is a rotation of the unit vector.
        assert_allclose(np.linalg.norm(one.mean, axis=1), 1.0, rtol=1e-12)

    def test_numpy_integer_counts_accepted(self):
        sys = make_system(theta=0.4, eta=0.05)
        got = sample_trajectories(sys, X_AXIS, [1.0], np.int64(10), seed=np.uint64(0),
                                  workers=np.int64(1))
        want = sample_trajectories(sys, X_AXIS, [1.0], 10, seed=0)
        assert got.n_samples == 10 and type(got.n_samples) is int
        assert got.seed == 0 and type(got.seed) is int
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.stderr, want.stderr)

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


# A reference for the sampler's bits: a boolean-mask switching loop over every sample
# and a row-wise (size, 3) Rodrigues rotation.  The oracle must draw the same
# exponentials in the same order and round every rotation the same way.
def _rotate_vectors(n: np.ndarray, states: np.ndarray, dts: np.ndarray,
                    axis_plus: np.ndarray, axis_minus: np.ndarray) -> np.ndarray:
    """Rodrigues rotation of each row of n about its state's field axis."""
    axes = np.where(states[:, None] > 0, axis_plus[None, :], axis_minus[None, :])
    norms = np.linalg.norm(axes, axis=1)
    angles = norms * dts
    safe = np.where(norms > 0, norms, 1.0)
    u = axes / safe[:, None]
    cos = np.cos(angles)[:, None]
    sin = np.sin(angles)[:, None]
    return n * cos + np.cross(u, n) * sin + u * np.sum(u * n, axis=1)[:, None] * (1.0 - cos)


def reference_levels(f, p_plus, size, t_grid, rng, on_switch=None):
    states = np.where(rng.random(size) < p_plus, 1, -1).astype(np.int8)
    with np.errstate(divide="ignore"):
        next_switch = rng.exponential(1.0, size) / (f.gamma + f.eta * states)
    for t in t_grid:
        while (active := next_switch < t).any():
            if on_switch is not None:
                on_switch(states, active, next_switch[active])
            states[active] = -states[active]
            with np.errstate(divide="ignore"):
                next_switch[active] += rng.exponential(1.0, int(active.sum())) / (
                    f.gamma + f.eta * states[active]
                )
        yield states


def reference_chunk(f, b0, p_plus, n0, t_grid, size, rng):
    axis_plus = np.array([0.0, 0.0, b0]) + f.g
    axis_minus = np.array([0.0, 0.0, b0]) - f.g
    n = np.tile(n0, (size, 1))
    cursor = np.zeros(size)

    def switch(states, active, times):
        n[active] = _rotate_vectors(
            n[active], states[active], times - cursor[active], axis_plus, axis_minus
        )
        cursor[active] = times

    sums = np.zeros((len(t_grid), 3))
    sumsq = np.zeros((len(t_grid), 3))
    levels = reference_levels(f, p_plus, size, t_grid, rng, switch)
    for k, (tk, states) in enumerate(zip(t_grid, levels)):
        remaining = tk - cursor
        moving = remaining > 0
        n[moving] = _rotate_vectors(
            n[moving], states[moving], remaining[moving], axis_plus, axis_minus
        )
        cursor[:] = tk
        sums[k] = n.sum(axis=0)
        sumsq[k] = (n**2).sum(axis=0)
    return sums, sumsq


TILTED = 0.3 * np.array([np.sin(0.7), 0.0, np.cos(0.7)])
OFF_AXIS = np.array([0.6, -0.48, 0.64])
PROBES = np.array([0.0, 0.5, 2.0, 7.0])


class TestSamplerBits:
    @pytest.mark.parametrize(
        "g, gamma, eta, b0, n0, size",
        [
            pytest.param(TILTED, 0.2, 0.05, 1.0, X_AXIS, 8192, id="tilted"),
            pytest.param(TILTED, 0.9, -0.3, 1.0, OFF_AXIS, 1000, id="fast-off-axis"),
            pytest.param(TILTED, 0.3, 0.3, 1.0, X_AXIS, 1000, id="frozen-minus"),
            pytest.param(TILTED, 0.3, -0.3, 1.0, OFF_AXIS, 1000, id="frozen-plus"),
            pytest.param(TILTED, 0.0, 0.0, 1.0, X_AXIS, 1000, id="gamma-zero"),
            pytest.param(np.zeros(3), 0.4, 0.1, 1.0, OFF_AXIS, 1000, id="g-zero"),
            pytest.param(TILTED, 0.4, 0.0, 0.0, X_AXIS, 1000, id="b0-zero"),
            pytest.param(np.array([1.2, -0.4, 0.3]), 0.5, 0.2, 1.0, np.array([0.0, 0.0, 1.0]),
                         8192, id="strong-on-axis"),
            # Fast switching with unequal exit rates, 2.85 and 0.15 out of the two levels.
            pytest.param(TILTED, 1.5, 1.35, 1.0, OFF_AXIS, 8192, id="fast-biased-minus"),
            pytest.param(TILTED, 1.5, -1.35, 1.0, X_AXIS, 8192, id="fast-biased-plus"),
        ],
    )
    def test_chunk_sums_equal_reference(self, g, gamma, eta, b0, n0, size):
        dist = FluctuatorDistribution.from_upper(0.3) if gamma == 0.0 else None
        f = FluctuatorSpec(g=g, gamma=gamma, eta=eta, initial_distribution=dist)
        p_plus = 0.3 if dist else oracle.stationary_distribution(f).p_plus
        for seed in (0, 1):
            got = oracle._sample_chunk(f, b0, p_plus, n0, PROBES, size,
                                       np.random.default_rng(seed))
            want = reference_chunk(f, b0, p_plus, n0, PROBES, size, np.random.default_rng(seed))
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("gamma", [0.05, 2.0])
    def test_states_on_grid_equal_reference(self, gamma):
        f = FluctuatorSpec(g=[0.3, 0.0, 0.0], gamma=gamma, eta=0.0)
        dt = 0.02 / gamma
        got = oracle._sample_states_on_grid(f, 200, dt, 300, np.random.default_rng(4))
        levels = reference_levels(f, 0.5, 300, np.arange(200) * dt, np.random.default_rng(4))
        assert np.array_equal(got, np.stack([states.copy() for states in levels], axis=1))

    def test_biased_states_on_grid_equal_reference(self):
        # Exit rates 2.7 out of +1 and 0.3 out of -1: a swap of the two changes every draw.
        f = FluctuatorSpec(g=[0.3, 0.0, 0.0], gamma=1.5, eta=1.2)
        dt = 0.02 / f.gamma
        got = oracle._sample_states_on_grid(f, 200, dt, 300, np.random.default_rng(4))
        levels = reference_levels(f, oracle.stationary_distribution(f).p_plus, 300,
                                  np.arange(200) * dt, np.random.default_rng(4))
        want = np.stack([states.copy() for states in levels], axis=1)
        assert got.dtype == np.int8 and np.array_equal(got, want)


def reference_enumeration(sys, dt, n_steps):
    """The (n_seq, 3, 3) doubling loop with one 3x3 product per sequence."""
    f = sys.fluctuators[0]
    w = oracle._switch_matrix(f.gamma, f.eta, dt)
    dist = sys.distributions()[0]
    n_seq = 2**n_steps
    rot = np.stack([step_rotation(sys.b0, f.g, +1, dt), step_rotation(sys.b0, f.g, -1, dt)])
    probs = np.empty(n_seq)
    probs[:2] = dist.p_plus, dist.p_minus
    transfer = np.empty((n_seq, 3, 3))
    transfer[:2] = rot
    for k in range(1, n_steps):
        m, h = 2**k, 2 ** (k - 1)
        np.matmul(rot[1], transfer[:m], out=transfer[m : 2 * m])
        lower = transfer[:m]
        for i in range(0, m, 4096):
            np.matmul(rot[0], lower[i : i + 4096], out=lower[i : i + 4096])
        np.multiply(probs[:h], w[1, 0], out=probs[m : m + h])
        np.multiply(probs[h:m], w[1, 1], out=probs[m + h : 2 * m])
        probs[:h] *= w[0, 0]
        probs[h:m] *= w[0, 1]

    terms = transfer.reshape(n_seq, 9)
    terms *= probs[:, None]
    for k in range(n_steps, 0, -1):
        terms[: 2 ** (k - 1)] += terms[2 ** (k - 1) : 2**k]
    return terms[0].reshape(3, 3).copy(), float(probs.sum())


def traced_peak(call) -> int:
    """tracemalloc's peak while ``call`` runs in a fresh thread.

    The enumeration keeps its subtree buffers per thread across calls, so only a
    thread that has not enumerated yet allocates them inside the traced window.
    """
    tracemalloc.start()
    try:
        thread = threading.Thread(target=call)
        thread.start()
        thread.join()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEnumerationBits:
    # The enum-verify grid, then a decoupled fluctuator and one frozen in its + level.
    @pytest.mark.parametrize(
        "gamma, eta, g, theta",
        [*ENUM_VERIFY_GRID, (0.4, 0.1, 0.0, 0.0), (0.3, -0.3, 0.5, 0.7)],
        ids=[*(f"grid-{i}" for i in range(len(ENUM_VERIFY_GRID))), "g-zero", "frozen"],
    )
    def test_equals_reference(self, gamma, eta, g, theta):
        # Up to 15 steps the 2**(n - 1) prefixes form one subtree; 16, 17 and 18 steps fold
        # 2, 4 and 8 subtree partials.
        for n, b0, dt in [*((n, b0, dt) for n in range(1, 15) for b0 in (0.0, 2.3)
                            for dt in (0.1, 0.37)),
                          *((n, b0, 0.37) for n in (16, 17) for b0 in (0.0, 2.3)), (18, 1.0, 0.1)]:
            sys = make_system(b0=b0, g=g, theta=theta, gamma=gamma, eta=eta)
            result = enumerate_sequences(sys, dt, n)
            t_matrix, total = reference_enumeration(sys, dt, n)
            assert np.array_equal(result.t_matrix, t_matrix), (n, b0, dt)
            assert result.total_probability == total, (n, b0, dt)

    def test_most_subtrees_equal_reference(self):
        # 19 steps fold 16 partials of 2**14 prefixes each.
        sys = make_system(b0=2.3, g=0.3, theta=0.7, gamma=0.1, eta=0.05)
        result = enumerate_sequences(sys, 0.37, 19)
        t_matrix, total = reference_enumeration(sys, 0.37, 19)
        assert np.array_equal(result.t_matrix, t_matrix)
        assert result.total_probability == total

    def test_threads_keep_their_own_buffers(self):
        # Two threads enumerating at once give each call's serial bits.
        systems = [make_system(b0=2.3, g=0.3, theta=0.7, gamma=gamma, eta=0.05)
                   for gamma in (0.1, 0.6)]
        want = [enumerate_sequences(sys, 0.37, 17).t_matrix for sys in systems]
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda sys: [enumerate_sequences(sys, 0.37, 17).t_matrix
                                             for _ in range(4)], systems))
        assert all(np.array_equal(g, w) for runs, w in zip(got, want) for g in runs)

    def test_memory_below_all_products(self):
        # The 2**16 products of 16 steps would take 4.5 MiB; only 2**14 prefixes are kept.
        sys = make_system(theta=0.7, gamma=0.3, eta=-0.1)
        peak = traced_peak(lambda: enumerate_sequences(sys, 0.1, 16))
        assert peak < 2**16 * 9 * 8

    def test_memory_at_most_steps(self):
        # At 20 steps the 2**20 probabilities would take 8 MiB and the 2**19 prefix
        # products 36 MiB more; one block of 2**15 probabilities and one subtree of
        # products are kept at a time.
        sys = make_system(theta=0.7, gamma=0.3, eta=-0.1)
        peak = traced_peak(lambda: enumerate_sequences(sys, 0.1, 20))
        assert peak < 3.5 * 2**20


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

    def test_zero_rate_rejected(self):
        # |eta| = gamma = 0: neither level is ever left.
        f = FluctuatorSpec(g=[0, 0, 0.3], gamma=0.0, eta=0.0,
                           initial_distribution=FluctuatorDistribution.from_upper(0.5))
        with pytest.raises(ValueError, match="^frozen fluctuator has no finite dwell times$"):
            sample_dwell_times(f, 100, seed=1)

    @pytest.mark.parametrize(
        "value, message",
        [
            pytest.param(True, "n_dwells must be an integer", id="bool"),
            pytest.param(2.0, "n_dwells must be an integer", id="float"),
            pytest.param(0, "n_dwells must be >= 1", id="zero"),
        ],
    )
    def test_bad_dwell_count_rejected(self, value, message):
        f = FluctuatorSpec(g=[0, 0, 0.3], gamma=0.1, eta=0.0)
        with pytest.raises(ValueError, match=message):
            sample_dwell_times(f, value, seed=0)

    def test_numpy_integer_dwell_count_accepted(self):
        f = FluctuatorSpec(g=[0, 0, 0.3], gamma=0.1, eta=0.0)
        assert np.array_equal(sample_dwell_times(f, np.int64(5), seed=3),
                              sample_dwell_times(f, 5, seed=3))


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

    def test_zero_rate_rejected(self):
        f = FluctuatorSpec(g=[0.1, 0, 0], gamma=0.0, eta=0.0,
                           initial_distribution=FluctuatorDistribution.from_upper(0.5))
        with pytest.raises(ValueError, match="^gamma must be > 0$"):
            empirical_spectrum(f, n_samples=10, seed=0)

    @pytest.mark.parametrize(
        "value, message",
        [
            pytest.param(True, "n_samples must be an integer", id="bool"),
            pytest.param(2.5, "n_samples must be an integer", id="float"),
            pytest.param(0, "n_samples must be >= 1", id="zero"),
        ],
    )
    def test_bad_sample_count_rejected(self, value, message):
        f = FluctuatorSpec(g=[0.1, 0, 0], gamma=0.5, eta=0.0)
        with pytest.raises(ValueError, match=message):
            empirical_spectrum(f, n_samples=value, seed=0)
