"""Bloch trajectories and pulsed control sequences.

Free evolution is the time-dependent 3x3 transfer matrix applied to the
initial Bloch vector.  Instantaneous control pulses are exact rotations
inserted between free-evolution segments, composing three protocols:

* periodic bang-bang trains of pi pulses about x or y,
* the spin echo (pi/2 - free t/2 - pi - free t/2 - pi/2, all about x),
* arbitrary user-defined pulse schedules.

Every composed operator is a schedule of free segments and pulses for the
contraction engine in :mod:`qtel.superop`; bang-bang also builds its ``d x d``
period operator, for its spectrum only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemSpec, as_bloch_array, rotation_matrix
from .rates import ChannelRates, channel_rates_from_modes
from .superop import (
    KIND_STEP,
    EigendecompositionError,
    SpectralDecomposition,
    Superoperator,
    decoherence_generator,
    spectral_decomposition,
    transfer_from_spectral,
    _compose,
    _exp_generator,
    _mode_weights,
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

    ``events`` is a sequence of ``(time, axis, angle)`` with times
    non-decreasing and each axis a unit 3-vector; pulses have zero
    temporal width.
    """

    events: tuple[tuple[float, np.ndarray, float], ...]

    def __post_init__(self):
        norm_events = []
        last_t = -np.inf
        for time, axis, angle in self.events:
            if time < 0:
                raise ValueError("pulse times must be >= 0")
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
    tau: float,
    n_pulses: int,
    axis: str = "y",
    sd: SpectralDecomposition | None = None,
) -> BangBangResult:
    """Periodic train of pi pulses separated by free evolution tau.

    One period is an instantaneous pi rotation about the chosen axis, then
    free evolution ``exp(-tau * generator)``: the pulses act at ``t = k tau``,
    ``k = 0 .. n_pulses - 1``.  The contraction engine runs this schedule for
    the transfer matrix.  The pulsed decay rates follow from the eigenvalues
    of the period operator, which the generator's routine decomposes and
    flags; a period flagged defective raises ``EigendecompositionError``.
    """
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    if axis not in _AXES:
        raise ValueError("axis must be 'x' or 'y'")
    if sd is None:
        sd = spectral_decomposition(decoherence_generator(sys))
    pulse = rotation_matrix(_AXES[axis], np.pi)
    # Right factor I (x) R: the rotation mixes the Bloch index of the columns.
    period = (_exp_generator(sd, tau).reshape(-1, 3) @ pulse).reshape(sd.dimension, -1)
    psd = spectral_decomposition(Superoperator(mat=period, kind=KIND_STEP, system=sys))
    if psd.defective:
        raise EigendecompositionError(
            f"pulsed one-period operator is near-defective at tau={tau} "
            f"(eigenvector condition {psd.condition:.2e})"
        )
    with np.errstate(divide="ignore"):
        candidate_rates = -np.log(np.abs(psd.eigenvalues)) / tau
    candidate_rates = np.where(np.isfinite(candidate_rates), candidate_rates, np.inf)
    rates = channel_rates_from_modes(candidate_rates, _mode_weights(psd))
    return BangBangResult(
        transfer=_compose(sd, [("pulse", pulse), ("free", tau)] * n_pulses)[0],
        eigenvalues=psd.eigenvalues,
        candidate_rates=candidate_rates,
        rates=rates,
        tau=tau,
        n_pulses=n_pulses,
        axis=axis,
    )


def echo_signal(sys: SystemSpec, t_grid, sd: SpectralDecomposition | None = None) -> np.ndarray:
    """Spin-echo amplitude versus total free-evolution time.

    Protocol: pi/2 about x, free evolution t/2, pi about x, free
    evolution t/2, pi/2 about x.  The signal is the z component
    recovered at the end starting from the +z Bloch vector, i.e. the
    (z, z) element of the composed transfer matrix; at t = 0 the three
    pulses compose to a full turn and the signal is 1.
    """
    seg = 0.5 * np.asarray(t_grid, dtype=float)
    if np.any(seg < 0):
        raise ValueError("echo times must be >= 0")
    half = rotation_matrix(_AXES["x"], np.pi / 2.0)
    flip = rotation_matrix(_AXES["x"], np.pi)
    if sd is None:
        sd = spectral_decomposition(decoherence_generator(sys))
    steps = [("pulse", half), ("free", seg), ("pulse", flip), ("free", seg), ("pulse", half)]
    return _compose(sd, steps)[:, 2, 2].copy()


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
    if not t_final >= 0:
        raise ValueError("t_final must be >= 0")
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
    return _compose(sd, steps)[0]
