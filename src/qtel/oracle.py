"""Independent ground-truth engines for cross-validation.

Two oracles check the transfer-operator machinery from the outside:

* exact enumeration sums the 2**n discrete level sequences of a single
  fluctuator with their exact probabilities, reproducing the discrete
  transfer operator without ever building it;
* a continuous-time Monte-Carlo sampler draws telegraph trajectories
  with exact exponential dwell times (no time-step bias) and averages
  the rotated Bloch vectors.

Both oracles take a system of exactly one fluctuator and no white noise,
the case in which each is exact, and raise ``ValueError`` otherwise.

A spectrum estimator fits the sampled noise to its Lorentzian power
spectrum, pinning the normalization used by the perturbative rates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .model import (FluctuatorSpec, SystemSpec, _single_fluctuator, _switching_probabilities,
                    as_bloch_array, stationary_distribution, step_rotation)

__all__ = [
    "SequenceEnsembleResult",
    "McEstimate",
    "SpectrumEstimate",
    "enumerate_sequences",
    "sample_trajectories",
    "sample_dwell_times",
    "empirical_spectrum",
]

# 2**20 sequences is the largest enumeration allowed.
MAX_ENUM_STEPS = 20

# Samples are simulated in fixed-size chunks with per-chunk child seeds,
# so results are bit-identical for any worker count.
CHUNK_SIZE = 8192


@dataclass(frozen=True)
class SequenceEnsembleResult:
    """Exact average over all discrete noise sequences."""

    t_matrix: np.ndarray
    n_steps: int
    dt: float
    total_probability: float


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo mean Bloch vector with per-component standard errors."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: int


@dataclass(frozen=True)
class SpectrumEstimate:
    """Periodogram estimate of the noise power spectrum with Lorentzian fit."""

    omega: np.ndarray
    values: np.ndarray
    s_zero: float
    hwhm: float


def _switch_matrix(gamma: float, eta: float, dt: float) -> np.ndarray:
    """Conditional switching probabilities W[new, old], states ordered (+, -)."""
    p, d = _switching_probabilities(gamma, eta, dt)
    return np.array([[1.0 - p - d, p - d], [p + d, 1.0 - p + d]])


def enumerate_sequences(sys: SystemSpec, dt: float, n_steps: int) -> SequenceEnsembleResult:
    """Average the n-interval evolution over all 2**n level sequences.

    The probability of a sequence (s_1 ... s_n) is the initial
    occupation of s_1 times the n - 1 interior switching probabilities;
    the switch after the last interval is summed out (its probabilities
    add to one), so it never appears.  The result equals the boundary
    contraction of the n-th power of the discrete transfer operator to
    machine precision; this identity is the central correctness check
    of the discrete formalism.
    """
    f = _single_fluctuator(sys)
    if not 1 <= n_steps <= MAX_ENUM_STEPS:
        raise ValueError(f"n_steps must be in [1, {MAX_ENUM_STEPS}]")
    w = _switch_matrix(f.gamma, f.eta, dt)
    dist = sys.distributions()[0]
    p_start = np.array([dist.p_plus, dist.p_minus])

    rot = np.stack([step_rotation(sys.b0, f.g, +1, dt), step_rotation(sys.b0, f.g, -1, dt)])

    n_seq = 2**n_steps
    # Bit k of a sequence's code is its level at step k: 0 for s=+1, 1 for s=-1.
    codes = np.arange(n_seq, dtype=np.uint32)

    probs = p_start[codes & 1]
    for k in range(n_steps - 1):
        probs *= w[(codes >> (k + 1)) & 1, (codes >> k) & 1]

    transfer = rot[codes & 1]
    for k in range(1, n_steps):
        transfer = rot[(codes >> k) & 1] @ transfer

    # Pairwise sum in place: a running sum over 2**18 terms drifts past 1e-12.
    terms = transfer.reshape(n_seq, 9)
    terms *= probs[:, None]
    for k in range(n_steps, 0, -1):
        terms[: 2 ** (k - 1)] += terms[2 ** (k - 1) : 2**k]
    t_matrix = terms[0].reshape(3, 3).copy()  # a view would pin all 2**n products
    return SequenceEnsembleResult(
        t_matrix=t_matrix,
        n_steps=n_steps,
        dt=dt,
        total_probability=float(probs.sum()),
    )


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


def _telegraph_levels(f: FluctuatorSpec, p_plus: float, size: int, t_grid,
                      rng: np.random.Generator, on_switch=None):
    """Yield the levels of `size` telegraph samples at each time of `t_grid`.

    The initial level is +1 with probability ``p_plus`` and the dwell in
    level s is exponential at rate ``gamma + s * eta`` (a frozen level
    dwells forever), so switch times are exact.  ``on_switch(states,
    active, times)`` runs before the masked samples flip at ``times``.
    The yielded array is updated in place.
    """
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


def _sample_chunk(f: FluctuatorSpec, b0: float, p_plus: float, n0: np.ndarray,
                  t_grid: np.ndarray, size: int, rng: np.random.Generator):
    """Simulate `size` telegraph trajectories; returns per-time sums."""
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
    levels = _telegraph_levels(f, p_plus, size, t_grid, rng, switch)
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


def sample_trajectories(
    sys: SystemSpec,
    n0,
    t_grid,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> McEstimate:
    """Monte-Carlo estimate of the ensemble-averaged Bloch vector.

    Trajectories use exact exponential dwell times (rate ``gamma + s eta``
    out of level s) with the initial level drawn from the fluctuator's
    distribution; within a dwell the Bloch vector rotates
    deterministically about the total field.  Sampling is chunked with
    per-chunk seeds spawned from ``seed``, so results are bit-identical
    for any ``workers`` count and fully reproducible from
    ``(seed, n_samples)``.
    """
    f = _single_fluctuator(sys)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n0 = as_bloch_array(n0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0 or np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be 1-d, strictly increasing and >= 0")
    dist = sys.distributions()[0]

    sizes = [CHUNK_SIZE] * (n_samples // CHUNK_SIZE)
    if n_samples % CHUNK_SIZE:
        sizes.append(n_samples % CHUNK_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(len(sizes))

    def run_chunk(args):
        size, child = args
        return _sample_chunk(f, sys.b0, dist.p_plus, n0, t_grid, size, np.random.default_rng(child))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(run_chunk, zip(sizes, seeds)))

    # Ordered reduction keeps the floating-point result deterministic.
    sums = np.zeros((len(t_grid), 3))
    sumsq = np.zeros((len(t_grid), 3))
    for s, s2 in results:
        sums += s
        sumsq += s2

    mean = sums / n_samples
    if n_samples > 1:
        var = np.clip((sumsq - n_samples * mean**2) / (n_samples - 1), 0.0, None)
        stderr = np.sqrt(var / n_samples)
    else:
        stderr = np.zeros_like(mean)
    return McEstimate(times=t_grid, mean=mean, stderr=stderr, n_samples=n_samples, seed=seed)


def sample_dwell_times(f: FluctuatorSpec, n_dwells: int, seed: int) -> np.ndarray:
    """Successive dwell times of the stationary switching process.

    The initial level is drawn from the stationary distribution and the
    level alternates after each dwell; the dwell in level s is
    exponential with rate ``gamma + s * eta`` (rate ``gamma`` for both
    levels in the symmetric case).
    """
    if n_dwells < 1:
        raise ValueError("n_dwells must be >= 1")
    if f.gamma <= 0.0:
        raise ValueError("frozen fluctuator has no finite dwell times")
    rng = np.random.default_rng(seed)
    state = 1 if rng.random() < stationary_distribution(f).p_plus else -1
    signs = state * (-1) ** np.arange(n_dwells)
    rates = f.gamma + f.eta * signs
    if np.any(rates <= 0):
        raise ValueError("frozen fluctuator has no finite dwell times")
    return rng.exponential(1.0, n_dwells) / rates


def _sample_states_on_grid(f: FluctuatorSpec, n_grid: int, dt: float,
                           n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Stationary telegraph states on a uniform grid, exact dwell times."""
    p_plus = stationary_distribution(f).p_plus
    levels = _telegraph_levels(f, p_plus, n_samples, np.arange(n_grid) * dt, rng)
    return np.stack([states.copy() for states in levels], axis=1)


def empirical_spectrum(f: FluctuatorSpec, n_samples: int = 400, seed: int = 0) -> SpectrumEstimate:
    """Estimate the power spectrum of the sampled noise field.

    Averages the periodogram of ``|g| * s(t)`` over ``n_samples``
    realizations of length ``30 / gamma`` and fits a Lorentzian
    ``S0 * hw**2 / (omega**2 + hw**2)``.  For symmetric telegraph noise
    the autocorrelation is ``g**2 exp(-2 gamma |t|)``, so the fit should
    recover ``S0 = g**2 / gamma`` and ``hw = 2 gamma``.
    """
    if f.eta != 0.0:
        raise ValueError("spectrum estimation is implemented for eta = 0 only")
    if f.gamma <= 0.0:
        raise ValueError("gamma must be > 0")
    t_max = 30.0 / f.gamma
    dt = 0.02 / f.gamma
    n_grid = max(int(round(t_max / dt)), 64)
    rng = np.random.default_rng(seed)
    states = _sample_states_on_grid(f, n_grid, dt, n_samples, rng)
    x = f.coupling_magnitude * states.astype(float)

    transform = np.fft.rfft(x, axis=1) * dt
    periodogram = (np.abs(transform) ** 2).mean(axis=0) / (n_grid * dt)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_grid, dt)

    def lorentzian(w, s_zero, hw):
        return s_zero * hw**2 / (w**2 + hw**2)

    window = omega <= 16.0 * f.gamma
    popt, _ = scipy.optimize.curve_fit(
        lorentzian,
        omega[window],
        periodogram[window],
        p0=[float(periodogram[0]), 2.0 * f.gamma],
    )
    return SpectrumEstimate(
        omega=omega,
        values=periodogram,
        s_zero=float(popt[0]),
        hwhm=abs(float(popt[1])),
    )
