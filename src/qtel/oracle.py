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
It imports ``scipy.optimize`` inside ``empirical_spectrum``, its only
user, so ``import qtel`` neither loads nor pays for that package.
"""

from __future__ import annotations

import math
import numbers
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import (FluctuatorSpec, SystemSpec, _single_fluctuator, _switch_matrix, as_bloch_array,
                    stationary_distribution, step_rotation)

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

# Enumeration extends prefixes _BLOCK at a time and folds _SUBTREE of them at a
# time.  2**14 prefixes take 1.2 MB; at n = 18 subtrees of 2**12, 2**13, 2**14 and
# 2**15 prefixes took 8.4, 7.5, 6.5 and 6.7 ms on one BLAS thread.
_BLOCK = 4096
_SUBTREE = 2**14
# The total probability is summed one block of 2**15 sequences (256 kB) at a time.
_PROB_BLOCK = 2**15

# Each thread keeps the enumeration's buffers (2.9 MB at 2**14 prefixes) for its next
# call.  glibc serves a call's largest request from a fresh mmap unless a larger
# block was freed before, and faulting those pages in took 0.4 to 1 ms per call at
# n = 14..18 on a 2-core Xeon VM, where all of n = 14 takes 0.7 ms.
_workspace = threading.local()


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


def _integer(value, name: str) -> int:
    """``value`` as an ``int``; numpy integers pass, a bool or a float raises ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """``value`` as an ``int`` >= 0; ``None`` (OS entropy) raises ``ValueError``."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def enumerate_sequences(sys: SystemSpec, dt: float, n_steps: int) -> SequenceEnsembleResult:
    """Average the n-interval evolution over all 2**n level sequences.

    The probability of a sequence (s_1 ... s_n) is the initial
    occupation of s_1 times the n - 1 interior switching probabilities;
    the switch after the last interval is summed out (its probabilities
    add to one), so it never appears.  The result equals the boundary
    contraction of the n-th power of the discrete transfer operator to
    machine precision; this identity is the central correctness check
    of the discrete formalism.

    The sequences are summed one subtree of 2**14 prefixes at a time, and
    their probabilities one block of 2**15, so the working set stays under
    about 3 MB for any n.  Each calling thread keeps its buffers for its
    next call.
    """
    f = _single_fluctuator(sys)
    n_steps = _integer(n_steps, "n_steps")
    if not 1 <= n_steps <= MAX_ENUM_STEPS:
        raise ValueError(f"n_steps must be in [1, {MAX_ENUM_STEPS}]")
    w = _switch_matrix(f.gamma, f.eta, dt)
    dist = sys.distributions()[0]

    n_seq = 2**n_steps
    # The (n - 1)-step prefixes are split into subtrees: subtree `low` holds every prefix
    # whose code has `low` in its low bits, that is, the same first levels.  The pairwise
    # sum halves its terms top bit first, so it sums over the high bits while the low bits
    # stay fixed: each subtree folds alone to a 3 x 3 partial, and folding the partials
    # the same way gives the bits of one sum over all prefixes.
    half = n_seq // 2
    size = min(half, _SUBTREE)
    n_low = half // size
    # The heads are the prefixes of the first min(n - 1, 12) levels, one block.  Subtree
    # `low` starts from the heads with its low bits, so no subtree repeats their
    # products.  head_probs holds the probabilities of those sequences, taken on the
    # way to the first block of all 2**n.
    n_head = min(half, _BLOCK)

    # The buffers, one after another in this thread's workspace.  Products are not written
    # until the total probability is summed, so the probabilities' blocks alias them.
    width = min(size, _BLOCK)
    shapes = [(3, size, 3), (2 * size, 3), (3, 3 * width), (3, 3 * width), (3, n_head, 3),
              (n_head,)]
    lengths = [math.prod(shape) for shape in shapes]
    buf = getattr(_workspace, "buf", None)
    if buf is None or len(buf) < sum(lengths):
        buf = _workspace.buf = np.empty(sum(lengths))
    starts = np.cumsum([0, *lengths])
    products, sub_probs, lower, upper, head_copy, head_probs = (
        buf[a:b].reshape(shape) for a, b, shape in zip(starts, starts[1:], shapes))
    n_probs = min(n_seq, _PROB_BLOCK)
    probs, block = buf[:n_probs], buf[n_probs : 2 * n_probs]

    probs[:2] = dist.p_plus, dist.p_minus
    rot = np.stack([step_rotation(sys.b0, f.g, +1, dt), step_rotation(sys.b0, f.g, -1, dt)])
    if n_steps == 1:  # rot @ I would turn a -0.0 entry into +0.0
        return SequenceEnsembleResult(t_matrix=rot[0] * probs[0] + rot[1] * probs[1],
                                      n_steps=1, dt=dt, total_probability=float(probs.sum()))

    _extend_probabilities(probs[:n_head], w, 2)
    head_probs[:] = probs[:n_head]
    _extend_probabilities(probs, w, n_head)
    total = _total_probability(probs, w, n_steps, block)
    del probs, block  # products overwrite them; each subtree rebuilds its own probabilities

    # With one subtree the heads are its first block, and numpy skips their copy onto
    # themselves below.
    heads = products[:, :n_head]
    heads[:, :2] = rot.transpose(1, 0, 2)
    _extend_products(heads, rot, 2)
    if n_low > 1:  # every subtree overwrites products
        head_copy[:] = heads
        heads = head_copy
    seeds = n_head // n_low

    # A subtree's sequence probabilities: row c holds prefix c at last level +1, row
    # size + c at level -1.  Each is the same left-to-right product of its factors as
    # in the full array, so it has the same bits; rebuilding them in cache beats the
    # strided reads of the full array, one cache line per value (n = 20: 48 -> 24 ms).
    # Each is held thrice, one per column of its product, so scaling a block is a
    # product along whole rows, not numpy's inner loop over 3 entries.
    partials = np.empty((3, n_low, 3))
    for low in range(n_low):
        products[:, :seeds] = heads[:, low::n_low]
        _extend_products(products, rot, seeds)
        sub_probs[:seeds] = head_probs[low::n_low, None]
        _extend_probabilities(sub_probs, w, seeds)
        # The last level is added block by block in cache and never stored.  Adding the
        # two weighted products of a prefix is the first halving of the pairwise sum.
        for i in range(0, size, width):
            flat = products[:, i : i + width].reshape(3, -1)
            np.matmul(rot[0], flat, out=lower)
            np.matmul(rot[1], flat, out=upper)
            lower *= sub_probs[i : i + width].reshape(-1)
            upper *= sub_probs[size + i : size + i + width].reshape(-1)
            np.add(lower, upper, out=flat)
        partials[:, low] = _halve(products)
    return SequenceEnsembleResult(
        t_matrix=_halve(partials).copy(),
        n_steps=n_steps,
        dt=dt,
        total_probability=total,
    )


def _extend_probabilities(probs: np.ndarray, w: np.ndarray, m: int) -> None:
    """Double the first ``m`` sequence probabilities in place until ``probs`` is full.

    Bit k of a sequence's code is its level at step k: 0 for s=+1, 1 for s=-1.
    The first m = 2**k rows hold every k-step sequence; doubling to k + 1 steps
    writes the codes with bit k set above them.  Bit k - 1, the previous level,
    is 0 on [0, h) and 1 on [h, m).  A row may hold copies of one probability.
    """
    while m < len(probs):
        h = m // 2
        np.multiply(probs[:h], w[1, 0], out=probs[m : m + h])
        np.multiply(probs[h:m], w[1, 1], out=probs[m + h : 2 * m])
        probs[:h] *= w[0, 0]
        probs[h:m] *= w[0, 1]
        m *= 2


def _total_probability(first: np.ndarray, w: np.ndarray, n_steps: int,
                       block: np.ndarray) -> float:
    """Sum of all 2**n_steps sequence probabilities, with the bits of numpy's ``sum``.

    ``first`` holds the first 2**k of them, every k-step sequence, laid out as
    in ``_extend_probabilities``.  Block b of the full array holds the codes
    with b in their high bits: it is ``first`` times the factors of steps
    k .. n - 1 in step order, the same product as in the full array.  Step
    k's factor depends on bit k - 1 as well, so it scales the block's halves
    apart.  numpy's pairwise sum over the 2**n probabilities halves them top
    bit first, so it sums each block alone and folds the sums in adjacent
    pairs.  ``block``, as long as ``first``, holds one block at a time.
    """
    k = len(first).bit_length() - 1
    if k == n_steps:
        return float(first.sum())
    h = len(first) // 2
    sums = np.empty(2 ** (n_steps - k))
    for b in range(len(sums)):
        np.multiply(first[:h], w[b & 1, 0], out=block[:h])
        np.multiply(first[h:], w[b & 1, 1], out=block[h:])
        for j in range(1, n_steps - k):
            block *= w[(b >> j) & 1, (b >> (j - 1)) & 1]
        sums[b] = block.sum()
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return float(sums[0])


def _extend_products(products: np.ndarray, rot: np.ndarray, m: int) -> None:
    """Double the first ``m`` prefix products in place until ``products`` is full.

    ``products[a, c, j]`` is entry (a, j) of the product for prefix c, in the order
    ``rot[b_k] @ (... @ rot[b_0])``, its codes laid out as in
    ``_extend_probabilities``.  A block of prefixes takes one more level by one
    (3 x 3) @ (3 x 3 * block) product; both halves are written block by block,
    because their memory bounds interleave and matmul copies an input that may
    overlap its output (here 288 kB at most).
    """
    while m < products.shape[1]:
        for i in range(0, m, _BLOCK):
            j = min(i + _BLOCK, m)
            block = products[:, i:j].reshape(3, -1)
            np.matmul(rot[1], block, out=products[:, m + i : m + j].reshape(3, -1))
            np.matmul(rot[0], block, out=block)
        m *= 2


def _halve(terms: np.ndarray) -> np.ndarray:
    """Pairwise sum of ``terms[:, c]`` over its 2**k codes c in place, top bit first.

    A running sum over 2**18 terms drifts past 1e-12.  Returns a view of the sum.
    """
    m = terms.shape[1]
    while m > 1:
        m //= 2
        terms[:, :m] += terms[:, m : 2 * m]
    return terms[:, 0]


def _telegraph_levels(f: FluctuatorSpec, p_plus: float, size: int, t_grid,
                      rng: np.random.Generator, on_switch=None):
    """Yield the level indices of `size` telegraph samples at each time of `t_grid`.

    A sample's level is an ``intp`` index, 0 for s = +1 and 1 for s = -1,
    so a switch is ``1 - level`` and a dwell's rate is one ``take``.  The
    initial level is +1 with probability ``p_plus`` and the dwell in
    level s is exponential at rate ``gamma + s * eta`` (a frozen level
    dwells forever), so switch times are exact.  Each switch round takes
    only the samples that switch before the probe: the first round scans
    every sample, and a later one keeps those of the last round whose next
    switch still falls before it.  ``on_switch(idx, level, times)`` runs
    before the samples of the ascending index array ``idx`` flip at
    ``times``; the dwells are drawn in ascending sample order, one per
    switch.  The yielded array is updated in place.
    """
    rate = f.gamma + f.eta * np.array([1.0, -1.0])
    level = np.where(rng.random(size) < p_plus, 0, 1)
    with np.errstate(divide="ignore"):
        next_switch = rng.exponential(1.0, size) / rate.take(level)
    for t in t_grid:
        idx = np.flatnonzero(next_switch < t)
        while idx.size:
            times = next_switch.take(idx)
            if on_switch is not None:
                on_switch(idx, level, times)
            flipped = 1 - level.take(idx)
            level[idx] = flipped
            with np.errstate(divide="ignore"):
                times = times + rng.exponential(1.0, idx.size) / rate.take(flipped)
            next_switch[idx] = times
            idx = idx[times < t]
        yield level


def _sample_chunk(f: FluctuatorSpec, b0: float, p_plus: float, n0: np.ndarray,
                  t_grid: np.ndarray, size: int, rng: np.random.Generator):
    """Simulate `size` telegraph trajectories; returns per-time sums.

    Each sample's Bloch vector rotates about its level's field axis
    ``b0 z + s g`` from its last switch to the next one, and from there to
    each probe.  The two axes, their norms and unit vectors are formed once
    per chunk.  The Rodrigues step ``n cos + (u x n) sin + u (u . n)(1 - cos)``
    is written per component in the order numpy's ``cross`` and ``sum``
    take, so it keeps the bits of a row-wise ``(size, 3)`` rotation.

    A switch falls strictly before its probe and a later probe strictly
    after the last, so at a probe ``tk > 0`` every sample's cursor lies
    before ``tk``: the probe rotates all columns in one in-place pass, and
    at ``tk = 0`` none.  The sums over samples run down a contiguous
    ``(size, 3)`` copy with ``einsum``, which adds each column in sequence
    as ``sum(axis=0)`` does there, only faster.
    """
    base = np.array([0.0, 0.0, b0])
    axes = np.stack([base + f.g, base - f.g])  # rows: level +1, level -1
    norms = np.linalg.norm(axes, axis=1)
    units = (axes / np.where(norms > 0, norms, 1.0)[:, None]).T
    n = np.tile(n0[:, None], (1, size))  # one column per sample
    cursor = np.zeros(size)

    def rotate(v, level, dts):
        """The columns of ``v``, in ``level``, rotated through the times ``dts``.

        Row i is ``v_i cos + (u_j v_k - u_k v_j) sin + u_i dot (1 - cos)``
        for (i, j, k) cyclic, built in place in that order (a sum's two
        terms commute exactly), so each entry rounds as in the plain form.
        """
        angles = norms.take(level) * dts
        cos, sin = np.cos(angles), np.sin(angles, out=angles)
        rest = 1.0 - cos
        u = units.take(level, axis=1)
        dot = u[0] * v[0]
        scratch = np.empty_like(dot)
        dot += np.multiply(u[1], v[1], out=scratch)
        dot += np.multiply(u[2], v[2], out=scratch)
        out = np.empty_like(v)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            row = np.multiply(u[j], v[k], out=out[i])
            row -= np.multiply(u[k], v[j], out=scratch)
            row *= sin
            row += np.multiply(v[i], cos, out=scratch)
            row += np.multiply(np.multiply(u[i], dot, out=scratch), rest, out=scratch)
        return out

    def switch(idx, level, times):
        n[:, idx] = rotate(n.take(idx, axis=1), level.take(idx), times - cursor.take(idx))
        cursor[idx] = times

    sums = np.zeros((len(t_grid), 3))
    sumsq = np.zeros((len(t_grid), 3))
    levels = _telegraph_levels(f, p_plus, size, t_grid, rng, switch)
    for k, (tk, level) in enumerate(zip(t_grid, levels)):
        if tk > 0:
            n[:] = rotate(n, level, tk - cursor)
            cursor[:] = tk
        rows = np.ascontiguousarray(n.T)
        sums[k] = np.einsum("ij->j", rows)
        sumsq[k] = np.einsum("ij->j", rows**2)
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
    n_samples, workers = _integer(n_samples, "n_samples"), _integer(workers, "workers")
    seed = _seed(seed)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n0 = as_bloch_array(n0)
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValueError(f"t_grid must be finite, got {t_grid[~np.isfinite(t_grid)]}")
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
    if _integer(n_dwells, "n_dwells") < 1:
        raise ValueError("n_dwells must be >= 1")
    seed = _seed(seed)
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
    signs = np.array([1, -1], dtype=np.int8)
    return np.stack([signs.take(level) for level in levels], axis=1)


def empirical_spectrum(f: FluctuatorSpec, n_samples: int = 400, seed: int = 0) -> SpectrumEstimate:
    """Estimate the power spectrum of the sampled noise field.

    Averages the periodogram of ``|g| * s(t)`` over ``n_samples``
    realizations of length ``30 / gamma`` and fits a Lorentzian
    ``S0 * hw**2 / (omega**2 + hw**2)``.  For symmetric telegraph noise
    the autocorrelation is ``g**2 exp(-2 gamma |t|)``, so the fit should
    recover ``S0 = g**2 / gamma`` and ``hw = 2 gamma``.
    """
    import scipy.optimize  # the only user: ``import qtel`` does not load it

    if _integer(n_samples, "n_samples") < 1:
        raise ValueError("n_samples must be >= 1")
    seed = _seed(seed)
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
