"""Signal-shape diagnostics for decay curves.

Echo and free-decay curves fall into two qualitative classes: staircase
decay (long plateaus separated by rapid drops, strong coupling) and
smooth exponential decay (weak coupling).  The functions here make that
distinction algorithmic so it can be asserted in tests:

* a *plateau* is a maximal run where the instantaneous slope is below a
  fixed fraction of the curve's peak slope;
* a *step structure* requires at least two large fractional drops of
  the signal, each concentrated in a fast-slope event, with a plateau
  between drops;
* exponential decay is quantified by a log-linear fit over the
  post-transient window (peak envelope when the curve oscillates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _require_finite

__all__ = [
    "Plateau",
    "StepStructure",
    "ExponentialFit",
    "detect_plateaus",
    "detect_steps",
    "fit_exponential_decay",
]

# A point is "flat" when |slope| is below this fraction of the maximum
# |slope| of the curve.
FLAT_SLOPE_FRACTION = 0.05

# A drop event must lose at least this much of the signal in log space
# (~18% of the level) to count as a step edge.
MIN_LOG_DEPTH = 0.2

# Slope threshold (fraction of the peak downhill log-slope) used to
# segment drop events.
DROP_SLOPE_FRACTION = 0.25

# A plateau spans at least this many samples.
MIN_PLATEAU_POINTS = 3

# The decay fit stops where |signal| falls to this level.
FIT_FLOOR = 0.02


@dataclass(frozen=True)
class Plateau:
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.t_start + self.t_end)


@dataclass(frozen=True)
class StepStructure:
    """Detected staircase structure of a decay curve.

    ``period`` is the mean spacing between drop-event centers occurring
    after the first plateau (NaN when fewer than two qualify);
    ``has_steps`` requires at least two qualifying drops plus an
    interior plateau.
    """

    has_steps: bool
    period: float
    drop_times: tuple[float, ...]
    plateaus: tuple[Plateau, ...]


@dataclass(frozen=True)
class ExponentialFit:
    rate: float
    r_squared: float
    n_points: int
    t_window: tuple[float, float]


def _local_maxima(signal: np.ndarray) -> np.ndarray:
    """Indices of interior samples no lower than either neighbour."""
    return np.nonzero((signal[1:-1] >= signal[:-2]) & (signal[1:-1] >= signal[2:]))[0] + 1


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(start, stop) index pairs of maximal True runs, stop inclusive."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    return list(zip(starts.tolist(), stops.tolist()))


def _curve(times, signal) -> tuple[np.ndarray, np.ndarray]:
    """``times`` and ``signal`` as float arrays, checked as ``detect_plateaus`` describes."""
    times = np.asarray(times, dtype=float)
    signal = np.asarray(signal, dtype=float)
    for name, values in (("times", times), ("signal", signal)):
        if values.ndim != 1:
            raise ValueError(f"{name} must be 1-d, got shape {values.shape}")
    if len(signal) != len(times):
        raise ValueError(f"signal must hold one value per time, got {len(signal)} for {len(times)}")
    if len(times) < 2:
        raise ValueError(f"times must hold at least 2 samples, got {len(times)}")
    _require_finite(times=times, signal=signal)
    if not (times[1:] > times[:-1]).all():
        raise ValueError("times must be strictly increasing")
    return times, signal


def _within_roundoff(signal: np.ndarray) -> bool:
    """True when the curve has no structure beyond roundoff."""
    return signal.max() - signal.min() < 1e-12 * max(1.0, np.abs(signal).max())


def detect_plateaus(times, signal, log_scale: bool = False) -> tuple[Plateau, ...]:
    """Maximal flat stretches of a sampled curve.

    A plateau is a run of at least ``MIN_PLATEAU_POINTS`` samples whose
    |slope| stays below ``FLAT_SLOPE_FRACTION`` times the curve's maximum
    |slope|.  The run containing t = 0 is never a plateau: every echo
    curve starts flat.  With ``log_scale`` the slope is measured on
    log|signal|, which treats fractional rather than absolute changes as
    significant.  ``times`` and ``signal`` must be 1-d, of equal length, at
    least 2 samples long and finite, and the times strictly increasing;
    otherwise ``ValueError`` names the one at fault.
    """
    times, signal = _curve(times, signal)
    if _within_roundoff(signal):
        return ()
    if log_scale:
        signal = np.log(np.clip(np.abs(signal), 1e-12, None))
    return _plateaus(times, np.gradient(signal, times))


def _plateaus(times: np.ndarray, slope: np.ndarray) -> tuple[Plateau, ...]:
    """The plateaus of ``detect_plateaus``, from the curve's sampled ``slope``."""
    peak = np.abs(slope).max()
    if peak == 0.0:
        return ()
    flat = np.abs(slope) < FLAT_SLOPE_FRACTION * peak
    return tuple(
        Plateau(t_start=float(times[i]), t_end=float(times[j]))
        for i, j in _runs(flat)
        if i > 0 and j - i + 1 >= MIN_PLATEAU_POINTS
    )


def detect_steps(times, signal) -> StepStructure:
    """Locate staircase steps in a decaying signal.

    Works on log|signal| so that successive drops of equal fractional
    size register equally.  A drop event is a maximal run where the
    log-slope is steeper than ``DROP_SLOPE_FRACTION`` times the peak
    downhill log-slope and where the signal loses at least
    ``MIN_LOG_DEPTH`` in log units.  A smooth exponential produces one
    long event and no interior flats, hence no steps; micro-oscillations
    fail the depth cut.

    The step period is the mean spacing of drop centers, counting drops
    after the first plateau begins (the initial transient is not a
    step).  The input is checked as in ``detect_plateaus``.
    """
    times, signal = _curve(times, signal)
    logs = np.log(np.clip(np.abs(signal), 1e-12, None))
    slope = np.gradient(logs, times)
    peak_drop = max(-slope.min(), 0.0)
    if _within_roundoff(signal) or peak_drop == 0.0:
        return StepStructure(has_steps=False, period=float("nan"), drop_times=(), plateaus=())

    drops = []
    for i, j in _runs(slope < -DROP_SLOPE_FRACTION * peak_drop):
        if logs[i] - logs[j] >= MIN_LOG_DEPTH:
            drops.append(0.5 * (times[i] + times[j]))

    plateaus = _plateaus(times, slope)  # on log|signal|, as with log_scale
    has_steps = len(drops) >= 2 and len(plateaus) >= 1

    period = float("nan")
    if plateaus:
        anchor = plateaus[0].t_start
        settled = [t for t in drops if t > anchor]
        if len(settled) >= 2:
            period = float(np.mean(np.diff(settled)))
    return StepStructure(
        has_steps=has_steps,
        period=period,
        drop_times=tuple(drops),
        plateaus=plateaus,
    )


def fit_exponential_decay(times, signal, t_skip: float = 0.0) -> ExponentialFit:
    """Log-linear fit of a decaying signal.

    Fits ``log|signal|`` against time over the window starting at
    ``t_skip`` (dropping the initial transient) and ending where the
    signal falls below ``FIT_FLOOR``.  When the window contains enough
    local maxima, only the peak envelope is fitted, which removes
    oscillation bias.  The input is checked as in ``detect_plateaus``.
    """
    times, signal = _curve(times, signal)
    signal = np.abs(signal)
    mask = (times >= t_skip) & (signal > FIT_FLOOR)
    tt, ss = times[mask], signal[mask]
    if len(tt) < 4:
        raise ValueError("too few points above the floor to fit a decay rate")
    peaks = _local_maxima(ss)
    if len(peaks) >= 8:
        tt, ss = tt[peaks], ss[peaks]
    slope, intercept = np.polyfit(tt, np.log(ss), 1)
    residual = np.log(ss) - (slope * tt + intercept)
    total = np.log(ss) - np.log(ss).mean()
    denom = float(np.sum(total**2))
    r_squared = 1.0 - float(np.sum(residual**2)) / denom if denom > 0 else 1.0
    return ExponentialFit(
        rate=-float(slope),
        r_squared=r_squared,
        n_points=len(tt),
        t_window=(float(tt[0]), float(tt[-1])),
    )
