"""Asymptotic decay-rate extraction and closed-form special cases.

Each eigenvalue of the decoherence generator contributes a mode
``exp(-lambda * t)`` to the ensemble-averaged Bloch dynamics; the decay
rate observed in a channel (x, y or z) is the smallest ``Re(lambda)``
among the modes that actually carry weight in that channel.  The
z-channel rate is the relaxation rate 1/T1, the (equal) x/y rates give
the dephasing rate 1/T2.  Every rate, free or pulsed, is selected from these
spectral weights, whatever the condition of the eigenvectors; a decomposition
flagged defective near an exceptional point gives rates flagged
``near-defective``.

Closed forms are provided for the two exactly solvable geometries
(noise field parallel or perpendicular to the static field), together
with the standard weak-coupling perturbative rates built from the
Lorentzian telegraph spectrum, which the exact results reduce to at
weak coupling and strongly violate at strong coupling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import FluctuatorSpec, SystemSpec, _require_finite
from .superop import (
    EigendecompositionError,
    SpectralDecomposition,
    boundary_projectors,
    decoherence_generator,
    spectral_decomposition,
    _generator_stack,
    _mode_weights,
    _sweep,
)

__all__ = [
    "ChannelRates",
    "PerturbativeRates",
    "SweepResult",
    "extract_rates",
    "free_decay_rates",
    "channel_rates_from_modes",
    "longitudinal_eigenvalues",
    "longitudinal_rates",
    "transverse_eigenvalues",
    "telegraph_spectrum",
    "perturbative_rates",
    "angle_sweep",
]

# A mode counts as present in a channel when its weight exceeds this
# fraction of the channel's largest mode weight.  An absolute cutoff
# admits numerically tiny leaked weights (~1e-4) that would make every
# channel inherit the globally slowest rate.
WEIGHT_REL_THRESHOLD = 1e-2

# Re(lambda) below this is the conserved / zero mode and never counts
# as a decay rate.
ZERO_MODE_THRESHOLD = 1e-12

# x and y channel rates must agree to this tolerance (azimuthal
# symmetry of the time-averaged dynamics); worse agreement is flagged.
XY_AGREEMENT_TOL = 1e-9

_CHANNELS = ("x", "y", "z")


@dataclass(frozen=True)
class ChannelRates:
    """Per-channel asymptotic decay rates.

    ``rate_z`` is 1/T1, ``rate_xy`` is 1/T2 (mean of the x and y
    channel rates).  ``mode_weights`` maps each channel to the
    per-eigenvalue weight array used for the selection; ``flags``
    records soft diagnostics such as ambiguous mode selection or a
    near-defective decomposition.
    """

    rate_z: float
    rate_xy: float
    rate_x: float
    rate_y: float
    mode_weights: dict[str, np.ndarray] | None
    method: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        # A bang-bang candidate rate may be inf; NaN fails this comparison.
        for name in ("rate_z", "rate_xy", "rate_x", "rate_y"):
            value = getattr(self, name)
            if not value >= -1e-10:
                raise ValueError(f"{name} must be >= 0 up to roundoff, got {value}")


@dataclass(frozen=True)
class PerturbativeRates:
    """Weak-coupling rates; rate_2_star = rate_1 / 2 + rate_phi by construction."""

    rate_phi: float
    rate_1: float
    rate_2_star: float

    def __post_init__(self):
        if self.rate_2_star != self.rate_1 / 2.0 + self.rate_phi:
            raise ValueError("rate_2_star must equal rate_1 / 2 + rate_phi exactly")


def channel_rates_from_modes(mode_rates: np.ndarray, weights: np.ndarray) -> ChannelRates:
    """Select per-channel rates from per-mode rates and channel weights.

    Parameters
    ----------
    mode_rates : real array (d,), candidate decay rate of each mode.
    weights : real array (3, d), weight of mode k in channel c.

    The channel rate is the smallest candidate rate among modes whose
    weight exceeds ``WEIGHT_REL_THRESHOLD`` times the channel maximum
    and whose rate exceeds ``ZERO_MODE_THRESHOLD``; a channel whose weighted
    modes are all conserved decays not at all (rate 0).  The reported
    transverse rate uses the azimuthally averaged weights
    ``(w_x + w_y) / 2`` (the coupling vector singles out one transverse
    direction, so the raw x and y selections can differ at tilted
    working points; a mismatch is flagged).  Ambiguity is flagged when
    the two heaviest eligible rate groups carry weights within a factor
    of two of each other.  It is the one-row case of the selection that
    the sweeps run on a stack.
    """
    return _select_rates(mode_rates[None], weights[None]).member(0)


@dataclass(frozen=True)
class _RateStack:
    """A stack's selection: ``rates[b]`` per channel x, y, z, xy, and the inputs of its flags.

    ``eligible_rates`` (inf where a mode is not eligible), ``weights`` and ``eligible`` are
    ``(B, 4, d)``, the xy channel last.  The grouping behind the ambiguity flags runs once
    for the stack, when ``ambiguous`` is first read.
    """

    rates: np.ndarray
    eligible_rates: np.ndarray
    weights: np.ndarray
    eligible: np.ndarray
    near: np.ndarray

    # Two infinite rates differ by NaN: they are not near, and their spread is not above near.
    @functools.cached_property
    @np.errstate(invalid="ignore")
    def ambiguous(self) -> np.ndarray:
        """``(B, 4)``: whether each channel's two heaviest rate groups are comparable."""
        # One row per member and channel x, y, z, xy.
        near = np.repeat(self.near, 4)[:, None]
        n_rows, n_modes = self.rates.size, self.eligible.shape[2]
        w, eligible = self.weights.reshape(n_rows, n_modes), self.eligible.reshape(n_rows, n_modes)
        r = self.eligible_rates.reshape(n_rows, n_modes)
        # Each row in (rate, weight) order; ``take`` reads flat indices.  A mode not eligible
        # sorts among the infinite rates, each of which opens a group of its own.
        row = np.arange(n_rows)[:, None]
        order = np.lexsort((w, r), axis=1) + n_modes * row
        r, w, eligible = r.take(order), w.take(order), eligible.take(order)

        # A mode far from its predecessor opens a group.  A mode near it joins the open
        # group unless it is far from the group's first rate, which only a mode after
        # another joined one can be; such modes are found left to right, one per row and
        # pass, as each one moves the first rate after it.
        starts = eligible.copy()
        starts[:, 1:] &= ~(np.abs(r[:, 1:] - r[:, :-1]) < near)
        joined = eligible & ~starts
        while (joined[:, 1:] & joined[:, :-1]).any():
            first = np.maximum.accumulate(np.where(starts, np.arange(n_modes), 0), axis=1)
            late = joined & ~(np.abs(r - r.take(first + n_modes * row)) < near)
            if not late.any():
                break
            rows = np.nonzero(late.any(axis=1))[0]
            starts[rows, late[rows].argmax(axis=1)] = True
            joined = eligible & ~starts

        # Flat slot of each eligible mode's group, with one spare slot per row, so that even
        # a one-mode row has two group weights.
        slot = starts.cumsum(axis=1) - 1 + (n_modes + 1) * row
        group_weight = np.bincount(slot[eligible], weights=w[eligible],
                                   minlength=n_rows * (n_modes + 1))
        # Group weights are positive, so a second-heaviest weight above 0 means two groups.
        second, heaviest = np.sort(group_weight.reshape(n_rows, n_modes + 1), axis=1)[:, -2:].T
        heavy = starts & (group_weight.take(slot) >= second[:, None])  # at each group's first rate
        heavy_rates = np.where(heavy, r, np.nan)
        spread = np.fmax.reduce(heavy_rates, axis=1) - np.fmin.reduce(heavy_rates, axis=1)
        ambiguous = (second > 0.5 * heaviest) & (spread > near[:, 0])
        return ambiguous.reshape(self.rates.shape)

    def member(self, b: int, defective: bool = False) -> ChannelRates:
        """Member b's rates; ``defective`` says its decomposition is flagged defective."""
        rate_x, rate_y, rate_z, rate_xy = self.rates[b].tolist()
        flags = [f"{name}-rate-ambiguous"
                 for name, flag in zip(("x", "y", "z", "xy"), self.ambiguous[b].tolist()) if flag]
        if abs(rate_x - rate_y) > XY_AGREEMENT_TOL:
            flags.append("xy-rate-mismatch")
        if defective:
            flags.append("near-defective")
        return ChannelRates(
            rate_z=rate_z, rate_xy=rate_xy, rate_x=rate_x, rate_y=rate_y,
            mode_weights={name: self.weights[b, c].copy() for c, name in enumerate(_CHANNELS)},
            method="spectral-weight", flags=tuple(flags))


# inf * 0 is NaN, for a singular member with an all-zero spectrum, whose selection raises.
@np.errstate(invalid="ignore")
def _rate_resolution(condition, defective, scale) -> np.ndarray:
    """How far apart two rates of each member must lie to count as two rates.

    It is 1e-9, or for a member flagged defective the larger roundoff bound
    ``condition * eps * scale`` on its rates: ``scale`` is the spectral radius of
    a generator, or ``1 / tau`` for a bang-bang period (the bound at its slowest
    modes, whose ``|mu|`` is the spectral radius).  At an order-2 exceptional
    point the coalescing pair splits by more than 1e-9 but less than this bound.
    """
    bound = np.asarray(condition) * np.finfo(float).eps * scale
    return np.where(defective, np.fmax(bound, 1e-9), 1e-9)


def _select_rates(mode_rates: np.ndarray, weights: np.ndarray, near=None,
                  name=None) -> _RateStack:
    """The selection of ``channel_rates_from_modes`` for a stack of B members.

    ``mode_rates`` is ``(B, d)`` and ``weights`` ``(B, 3, d)``.  Each channel's rate is
    its smallest eligible one.  For the flags, each channel's eligible modes are sorted
    by ``(rate, weight)`` and grouped left to right: a rate joins the open group when it
    lies within ``near[b]`` (by default 1e-9, see ``_rate_resolution``) of that group's
    first rate, and the group weights are summed left to right.  A member whose weights
    are NaN has no left vectors (its eigenvector matrix could not be inverted) and raises
    ``EigendecompositionError``, named by ``name(b)`` ("member b of B" by default).
    """
    missing = np.isnan(weights).any(axis=(1, 2))
    if missing.any():
        b = int(np.argmax(missing))
        name = name or f"member {{}} of {len(weights)}".format
        raise EigendecompositionError(
            f"no left eigenvectors: the eigenvector matrix is singular ({name(b)})"
        )
    w = np.concatenate([weights, 0.5 * (weights[:, :1] + weights[:, 1:2])], axis=1)
    eligible = ((w > WEIGHT_REL_THRESHOLD * w.max(axis=2, keepdims=True))
                & (mode_rates[:, None, :] > ZERO_MODE_THRESHOLD))
    eligible_rates = np.where(eligible, mode_rates[:, None, :], np.inf)
    rates = np.where(eligible.any(axis=2), eligible_rates.min(axis=2), 0.0)  # none: no decay
    near = np.full(len(w), 1e-9) if near is None else near
    return _RateStack(rates, eligible_rates, w, eligible, near)


def extract_rates(sd: SpectralDecomposition) -> ChannelRates:
    """Channel decay rates from a spectral decomposition.

    The rates come from the spectral weights of the modes between the
    system's own boundary maps, whatever the condition of the eigenvectors.
    A decomposition flagged defective gives the same selection with the
    ``near-defective`` flag; one without left vectors raises
    ``EigendecompositionError``.
    """
    # A failed inversion leaves NaN weights, which the selection rejects.
    weights = _mode_weights(sd.operator.boundary, sd)
    near = _rate_resolution([sd.condition], [sd.defective], np.abs(sd.eigenvalues).max())
    return _select_rates(sd.eigenvalues.real[None], weights[None], near).member(0, sd.defective)


def free_decay_rates(sys: SystemSpec) -> ChannelRates:
    """Convenience wrapper: generator, spectral decomposition, ``extract_rates``."""
    return extract_rates(spectral_decomposition(decoherence_generator(sys)))


def longitudinal_rates(b0: float, g: float, gamma: float, eta: float = 0.0) -> ChannelRates:
    """Closed-form rates for noise parallel to the static field.

    The z channel is exactly conserved (1/T1 = 0).  The transverse
    channels dephase at ``gamma - Re sqrt(gamma**2 - g**2 + 2i g eta)``:
    zero beneath the motional-narrowing threshold only for a frozen
    switch (eta = +-gamma), and saturating at ``gamma`` for g > gamma
    when eta = 0.
    """
    _require_finite(b0=b0, g=g, gamma=gamma, eta=eta)
    if gamma < 0 or abs(eta) > gamma:
        raise ValueError("require gamma >= 0 and |eta| <= gamma")
    root = np.sqrt(complex(gamma**2 - g**2 + 2j * g * eta))
    rate_xy = max(float(gamma - root.real), 0.0)
    return ChannelRates(
        rate_z=0.0,
        rate_xy=rate_xy,
        rate_x=rate_xy,
        rate_y=rate_xy,
        mode_weights=None,
        method="closed-form",
    )


def longitudinal_eigenvalues(b0: float, g: float, gamma: float, eta: float = 0.0) -> np.ndarray:
    """All six generator eigenvalues for noise parallel to the field.

    The z Bloch component is a good quantum number, so each angular
    sector m in {0, +-1} contributes the pair
    ``gamma - i b0 m +- sqrt(gamma**2 - g**2 m**2 - 2 i g eta m)``.
    """
    _require_finite(b0=b0, g=g, gamma=gamma, eta=eta)
    out = []
    for m in (0, 1, -1):
        root = np.sqrt(complex(gamma**2 - g**2 * m**2 - 2j * g * eta * m))
        base = gamma - 1j * b0 * m
        out.extend([base + root, base - root])
    return np.array(out)


def transverse_eigenvalues(b0: float, g: float, gamma: float, eta: float = 0.0) -> np.ndarray:
    """All six generator eigenvalues for noise perpendicular to the field.

    Valid for zero rate imbalance only.  The joint space splits into two
    invariant three-dimensional subspaces, so the eigenvalues are the
    roots of two cubics (decay-rate sign convention, Re >= 0):

        lam**3 - 2 gamma lam**2 + (b0**2 + g**2) lam - 2 b0**2 gamma = 0
        lam**3 - 4 gamma lam**2 + (b0**2 + g**2 + 4 gamma**2) lam - 2 g**2 gamma = 0

    Their root multiset equals the numerical spectrum of the generator.
    """
    _require_finite(b0=b0, g=g, gamma=gamma, eta=eta)
    if eta != 0.0:
        raise ValueError("transverse closed form requires zero rate imbalance (eta = 0)")
    first = np.roots([1.0, -2.0 * gamma, b0**2 + g**2, -2.0 * b0**2 * gamma])
    second = np.roots([1.0, -4.0 * gamma, b0**2 + g**2 + 4.0 * gamma**2, -2.0 * g**2 * gamma])
    return np.concatenate([first, second])


def telegraph_spectrum(omega, gamma: float, g: float) -> np.ndarray:
    """Lorentzian power spectrum of symmetric telegraph noise.

    ``S(omega) = 4 gamma g**2 / (omega**2 + 4 gamma**2)``: the Fourier
    transform of the autocorrelation ``g**2 exp(-2 gamma |t|)``.  A non-finite
    value or ``gamma <= 0`` raises.
    """
    _require_finite(omega=omega, gamma=gamma, g=g)
    if gamma <= 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    omega = np.asarray(omega, dtype=float)
    return 4.0 * gamma * g**2 / (omega**2 + 4.0 * gamma**2)


def perturbative_rates(
    b0: float, g: float, gamma: float, theta: float, eta: float = 0.0
) -> PerturbativeRates:
    """Standard weak-coupling rates from the telegraph noise spectrum.

    ``1/T_phi = cos(theta)**2 S(0) / 2`` (pure dephasing from the
    longitudinal noise component), ``1/T1 = sin(theta)**2 S(b0) / 2``
    (relaxation driven at the qubit splitting), combined as
    ``1/T2* = 1/(2 T1) + 1/T_phi``.  Valid for symmetric switching
    only; the comparison is meaningless for biased telegraph noise.
    A non-finite value or ``gamma <= 0`` raises.
    """
    _require_finite(b0=b0, g=g, gamma=gamma, theta=theta, eta=eta)
    if eta != 0.0:
        raise ValueError("perturbative comparison is defined for eta = 0 only")
    rate_phi, rate_1, rate_2_star = (float(r[0]) for r in
                                     _perturbative(b0, g, gamma, np.array([theta])))
    return PerturbativeRates(rate_phi=rate_phi, rate_1=rate_1, rate_2_star=rate_2_star)


def _perturbative(b0: float, g: float, gamma: float, theta: np.ndarray):
    """``(rate_phi, rate_1, rate_2_star)`` of ``perturbative_rates`` for each angle in ``theta``.

    ``theta`` is an array for every caller, so one angle and a sweep share their bits:
    a numpy scalar's ``** 2`` calls ``pow``, which can differ from a square in the last bit.
    """
    rate_phi = np.cos(theta) ** 2 * telegraph_spectrum(0.0, gamma, g) / 2.0
    rate_1 = np.sin(theta) ** 2 * telegraph_spectrum(b0, gamma, g) / 2.0
    return rate_phi, rate_1, rate_1 / 2.0 + rate_phi


@dataclass(frozen=True)
class SweepResult:
    """Rates vs working-point angle; rate_2_star is NaN when eta != 0."""

    theta: np.ndarray
    rate_z: np.ndarray
    rate_xy: np.ndarray
    rate_2_star: np.ndarray
    eta: float


def angle_sweep(
    b0: float, g: float, gamma: float, eta: float, theta_grid
) -> SweepResult:
    """Exact and perturbative rates across working-point angles.

    ``theta`` is the angle between the noise coupling vector and the
    static field axis; the noise vector is ``g (sin theta, 0, cos theta)``.
    The generators are built, decomposed and weighted as stacks, one
    eigensolve per stack of bounded size, and every rate is selected at once
    from the spectral weights, defective members included; the rates equal
    ``free_decay_rates`` point by point.
    """
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.ndim != 1:
        raise ValueError(f"theta_grid must be a 1-d grid, got shape {theta_grid.shape}")
    if not np.all(np.isfinite(theta_grid)):
        raise ValueError(f"theta must be finite, got {theta_grid[~np.isfinite(theta_grid)]}")
    couplings = g * np.stack([np.sin(theta_grid), np.zeros_like(theta_grid),
                              np.cos(theta_grid)], axis=-1)
    # The angles share b0, gamma and eta, and so the boundary maps: one spec checks and
    # carries them, and each angle puts its own coupling into the generator.
    sys = SystemSpec(b0=b0, fluctuators=(FluctuatorSpec(g=np.zeros(3), gamma=gamma, eta=eta),))
    boundary = boundary_projectors(sys)
    rz, rxy = np.empty_like(theta_grid), np.empty_like(theta_grid)
    stacks = _sweep(lambda block: _generator_stack(sys, couplings[block, None, :]),
                    len(theta_grid), sys.dimension)
    for block, _, spectra, name in stacks:
        weights = _mode_weights(boundary, spectra)
        # Only the rates are read, so the grouping behind the ambiguity flags never runs.
        selected = _select_rates(spectra.eigenvalues.real, weights, name=name).rates
        rz[block], rxy[block] = selected[:, 2], selected[:, 3]
    if eta == 0.0:
        rstar = _perturbative(b0, g, gamma, theta_grid)[2]
    else:
        rstar = np.full_like(theta_grid, np.nan)
    return SweepResult(theta=theta_grid, rate_z=rz, rate_xy=rxy, rate_2_star=rstar, eta=eta)
