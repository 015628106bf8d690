"""Bloch trajectories and pulsed control sequences.

Free evolution is the time-dependent 3x3 transfer matrix applied to the
initial Bloch vector.  Instantaneous control pulses are exact rotations
inserted between free-evolution segments, composing three protocols:

* periodic bang-bang trains of pi pulses about x or y,
* the spin echo (pi/2 - free t/2 - pi - free t/2 - pi/2, all about x),
* arbitrary user-defined pulse schedules.

The echo and arbitrary schedules are sequences of free segments and pulses
for the contraction engine in :mod:`qtel.superop`.  Bang-bang builds its
``d x d`` period operator instead: one decomposition of it gives both the
pulsed rates and the transfer after any number of periods.  Given an array
of pulse spacings, ``bang_bang_operator`` builds every period from the one
generator decomposition and decomposes them as stacks, one eigensolve per
stack; a single spacing is the one-member case.  Times and spacings must be
finite.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .model import SystemSpec, as_bloch_array, rotation_matrix
from .rates import ChannelRates, _rate_resolution, _select_rates
from .superop import (
    SpectralDecomposition,
    decoherence_generator,
    spectral_decomposition,
    transfer_from_spectral,
    _compose,
    _decompose_stack,
    _exp_generator,
    _member_blocks,
    _sweep_member,
)

__all__ = [
    "BlochTrajectory",
    "PulseSequence",
    "BangBangResult",
    "free_trajectory",
    "to_rotating_frame",
    "bang_bang_operator",
    "echo_signal",
    "sequence_operator",
]

FRAME_LAB = "lab"
FRAME_ROTATING = "rotating"

_AXES = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0])}


def _fixed_pulse(axis: str, angle: float) -> np.ndarray:
    pulse = rotation_matrix(_AXES[axis], angle)
    pulse.setflags(write=False)
    return pulse


# The bang-bang and echo pulses, built once by rotation_matrix with the same bits.
_PI_PULSES = {axis: _fixed_pulse(axis, np.pi) for axis in _AXES}
_HALF_PI_X = _fixed_pulse("x", np.pi / 2.0)


@dataclass(frozen=True)
class BlochTrajectory:
    """Sampled Bloch-vector evolution.

    ``points[k]`` is the Bloch vector at ``times[k]``; times are strictly
    increasing from 0 and every point stays inside the Bloch ball up to
    roundoff.  ``frame`` is ``"lab"`` or ``"rotating"``.
    """

    times: np.ndarray
    points: np.ndarray
    frame: str

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        points = np.asarray(self.points, dtype=float)
        if times.ndim != 1 or points.shape != (len(times), 3):
            raise ValueError("times must be 1-d and points of shape (len(times), 3)")
        if len(times) == 0 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing with times[0] = 0")
        norms = np.linalg.norm(points, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            raise ValueError(f"trajectory leaves the Bloch ball: max |n| = {norms.max()}")
        if self.frame not in (FRAME_LAB, FRAME_ROTATING):
            raise ValueError(f"unknown frame {self.frame!r}")
        times.setflags(write=False)
        points.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class PulseSequence:
    """Instantaneous rotation pulses at fixed times.

    ``events`` is a sequence of ``(time, axis, angle)`` with finite times
    non-decreasing from 0, finite angles and each axis a unit 3-vector;
    pulses have zero temporal width.
    """

    events: tuple[tuple[float, np.ndarray, float], ...]

    def __post_init__(self):
        norm_events = []
        last_t = -np.inf
        for time, axis, angle in self.events:
            if not 0 <= time < np.inf:  # NaN fails this too
                raise ValueError(f"pulse times must be finite and >= 0, got {time}")
            if not np.isfinite(angle):
                raise ValueError(f"pulse angles must be finite, got {angle}")
            if time < last_t:
                raise ValueError("pulse events must be sorted by time")
            last_t = time
            axis = np.asarray(axis, dtype=float)
            if axis.shape != (3,) or not np.isclose(np.linalg.norm(axis), 1.0, atol=1e-12):
                raise ValueError("pulse axis must be a unit 3-vector")
            axis.setflags(write=False)
            norm_events.append((float(time), axis, float(angle)))
        object.__setattr__(self, "events", tuple(norm_events))


@dataclass(frozen=True)
class BangBangResult:
    """Output of a periodic pulse train.

    ``transfer`` is the physical 3x3 map after ``n_pulses`` periods.
    ``eigenvalues`` are the per-period eigenvalues of the pulsed
    one-period operator and ``candidate_rates`` the corresponding decay
    rates ``-log|lambda| / tau``; ``rates`` selects the per-channel
    asymptotic rates from their boundary weights.
    """

    transfer: np.ndarray
    eigenvalues: np.ndarray
    candidate_rates: np.ndarray
    rates: ChannelRates
    tau: float
    n_pulses: int
    axis: str


def free_trajectory(sys: SystemSpec, n0, t_grid) -> BlochTrajectory:
    """Ensemble-averaged free decay of an initial Bloch vector.

    One spectral decomposition of the generator is reused across the
    whole time grid.
    """
    n0 = as_bloch_array(n0)
    sd = spectral_decomposition(decoherence_generator(sys))
    tmats = transfer_from_spectral(sd, t_grid)
    points = tmats @ n0
    return BlochTrajectory(times=np.asarray(t_grid, dtype=float), points=points, frame=FRAME_LAB)


def to_rotating_frame(traj: BlochTrajectory, b0: float) -> BlochTrajectory:
    """Undo the static-field precession: n_rot(t) = R_z(-b0 t) n(t)."""
    if traj.frame != FRAME_LAB:
        raise ValueError("trajectory is already in the rotating frame")
    angles = -b0 * traj.times
    cos, sin = np.cos(angles), np.sin(angles)
    x, y, z = traj.points.T
    points = np.stack([cos * x - sin * y, sin * x + cos * y, z], axis=1)
    return BlochTrajectory(times=traj.times, points=points, frame=FRAME_ROTATING)


def bang_bang_operator(
    sys: SystemSpec,
    tau: float | np.ndarray,
    n_pulses: int,
    axis: str = "y",
    sd: SpectralDecomposition | None = None,
) -> BangBangResult | tuple[BangBangResult, ...]:
    """Periodic train of pi pulses separated by free evolution tau.

    One period is an instantaneous pi rotation about the chosen axis, then
    free evolution ``exp(-tau * generator)``: the pulses act at ``t = k tau``,
    ``k = 0 .. n_pulses - 1``.  The period operator ``U = V diag(mu) V^-1`` is
    decomposed with the gates of ``spectral_decomposition``.  With the boundary
    modes ``readout @ V`` and coefficients ``V^-1 @ prepare``, from the maps
    ``sd.operator.boundary`` that every ``tau`` shares, the pulsed decay rates
    follow from the eigenvalues ``mu`` and the weights ``|modes * coeffs.T|``,
    and the transfer matrix is ``(modes * mu**n_pulses) @ coeffs``, taken as the
    real part of its sum over each real ``mu`` and each conjugate pair.  A period
    flagged defective degrades instead of raising: its transfer is
    ``readout @ U**n_pulses @ prepare`` by matrix power, and its rates, still
    from the weights, carry the ``near-defective`` flag.  The period is real by
    construction, ``(V_r B(tau)) @ V_r^-1`` from the generator's pair form, so the
    real eigensolver runs, and the transfer is real too.  The roundoff the pair
    form drops is bounded by the defective gate of both decompositions,
    ``condition * eps <= IMAG_TOL``.

    ``tau`` may also be a 1-d array of spacings, which returns a tuple with
    one result per spacing.  Their periods all come from the one generator
    decomposition and are decomposed as stacks, one eigensolve per stack of
    bounded size; a single spacing is the one-member case.
    """
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise ValueError("tau must be a number or a 1-d array of spacings")
    flat = taus.ravel()
    bad = flat[~((flat > 0) & (flat < np.inf))]  # NaN is bad too
    if bad.size:
        raise ValueError(f"tau must be finite and > 0, got {bad[0]}")
    if isinstance(n_pulses, bool) or not isinstance(n_pulses, numbers.Integral) or n_pulses < 1:
        raise ValueError(f"n_pulses must be an integer >= 1, got {n_pulses!r}")
    if axis not in _AXES:
        raise ValueError("axis must be 'x' or 'y'")
    if sd is None:
        sd = spectral_decomposition(decoherence_generator(sys))
    results = []
    for block in _member_blocks(flat.size, sd.dimension):
        name = _sweep_member(block, flat.size, flat)
        results += _bang_bang_stack(sd, flat[block], n_pulses, axis, name)
    return results[0] if taus.ndim == 0 else tuple(results)


def _bang_bang_stack(sd: SpectralDecomposition, taus: np.ndarray, n_pulses: int,
                     axis: str, name) -> list[BangBangResult]:
    """Bang-bang results of every spacing in ``taus``, decomposed as one stack.

    All periods come from the one generator decomposition ``sd``,
    ``V diag(e^{-lambda tau}) V^-1`` followed by ``I (x) R``.  ``name(b)``
    names member b in errors.
    """
    # Right factor I (x) R: the rotation mixes the Bloch index of the columns.
    free = _exp_generator(sd, taus)
    periods = (free.reshape(-1, 3) @ _PI_PULSES[axis]).reshape(free.shape)
    spectra = _decompose_stack(periods, name)
    mu = spectra.eigenvalues
    with np.errstate(divide="ignore"):
        candidate_rates = -np.log(np.abs(mu)) / taus[:, None]
    candidate_rates = np.where(np.isfinite(candidate_rates), candidate_rates, np.inf)
    readout, prepare = sd.operator.boundary
    modes, coeffs = readout @ spectra.right_vectors, spectra.left_vectors @ prepare
    near = _rate_resolution(spectra.condition, spectra.defective, 1.0 / taus)
    rates = _select_rates(candidate_rates, np.abs(modes * coeffs.transpose(0, 2, 1)), near, name)
    # One power per real eigenvalue and per pair (its Im > 0 member, counted twice): the
    # pair's other member adds the complex conjugate, so the transfer is the real part.
    powers = np.power(mu, n_pulses, out=np.zeros_like(mu), where=mu.imag >= 0)
    powers[mu.imag > 0] *= 2.0
    transfer = ((modes * powers[:, None, :]) @ coeffs).real
    defective = spectra.defective
    if defective.any():
        powered = np.linalg.matrix_power(periods[defective], n_pulses)
        transfer[defective] = readout @ powered @ prepare
    return [
        BangBangResult(
            transfer=transfer[b],
            eigenvalues=mu[b],
            candidate_rates=candidate_rates[b],
            rates=rates.member(b, defective[b]),
            tau=float(tau),
            n_pulses=n_pulses,
            axis=axis,
        )
        for b, tau in enumerate(taus)
    ]


def echo_signal(sys: SystemSpec, t_grid, sd: SpectralDecomposition | None = None) -> np.ndarray:
    """Spin-echo amplitude versus total free-evolution time.

    Protocol: pi/2 about x, free evolution t/2, pi about x, free
    evolution t/2, pi/2 about x.  The signal is the z component
    recovered at the end starting from the +z Bloch vector, i.e. the
    (z, z) element of the composed transfer matrix; at t = 0 the three
    pulses compose to a full turn and the signal is 1.
    """
    seg = 0.5 * np.asarray(t_grid, dtype=float)
    if not np.all((seg >= 0) & (seg < np.inf)):  # NaN fails this too
        raise ValueError("echo times must be >= 0 and not NaN or infinite")
    if sd is None:
        sd = spectral_decomposition(decoherence_generator(sys))
    half, flip = _HALF_PI_X, _PI_PULSES["x"]
    steps = [("pulse", half), ("free", seg), ("pulse", flip), ("free", seg), ("pulse", half)]
    # Only the z preparation column is carried through the schedule.
    return _compose(sd, steps, sd.operator.boundary[1][:, 2:])[:, 2, 0].copy()


def sequence_operator(
    sys: SystemSpec,
    seq: PulseSequence,
    t_final: float,
    sd: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Transfer matrix of an arbitrary pulse schedule.

    Free segments fill the gaps between consecutive pulse times from 0
    to ``t_final``; pulses at equal times apply in listing order.  The
    periodic train and the spin echo are special cases of this product.
    """
    if not 0 <= t_final < np.inf:  # NaN fails this too
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if seq.events and seq.events[-1][0] > t_final:
        raise ValueError("pulse events must not occur after t_final")
    steps, cursor = [], 0.0
    for time, axis, angle in seq.events:
        if time > cursor:
            steps.append(("free", time - cursor))
            cursor = time
        steps.append(("pulse", rotation_matrix(axis, angle)))
    if t_final > cursor:
        steps.append(("free", t_final - cursor))
    if sd is None:
        sd = spectral_decomposition(decoherence_generator(sys))
    return _compose(sd, steps, sd.operator.boundary[1])[0]
