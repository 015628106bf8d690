import numpy as np
import pytest
from numpy.testing import assert_allclose

from qtel import detect_plateaus, detect_steps, fit_exponential_decay
from qtel.analysis import _local_maxima, _runs


def staircase(times, period=8.0, ratio=0.45, edge=0.4):
    """Synthetic staircase: levels ratio**k with smooth drops of width edge."""
    level = np.floor(times / period)
    phase = times / period - level
    smooth = np.clip((phase - (1 - edge / period)) / (edge / period), 0.0, 1.0)
    return ratio**level * (1.0 - (1.0 - ratio) * smooth)


class TestPlateauDetection:
    def test_staircase_has_plateaus(self):
        times = np.linspace(0, 40, 2001)
        plats = detect_plateaus(times, staircase(times))
        assert len(plats) >= 4
        for p in plats:
            assert p.duration > 1.0

    def test_leading_run_excluded(self):
        # Five levels, the first drop ending at t = 8: the flat start is no plateau.
        times = np.linspace(0, 40, 2001)
        plats = detect_plateaus(times, staircase(times))
        assert len(plats) == 4
        assert plats[0].t_start >= 8.0

    def test_pure_exponential_has_no_log_plateaus(self):
        times = np.linspace(0, 50, 1001)
        signal = np.exp(-0.2 * times)
        assert detect_plateaus(times, signal, log_scale=True) == ()

    def test_constant_signal_has_no_slope_scale(self):
        times = np.linspace(0, 10, 101)
        assert detect_plateaus(times, np.ones_like(times)) == ()


class TestStepDetection:
    def test_staircase_period_recovered(self):
        times = np.linspace(0, 60, 3001)
        steps = detect_steps(times, staircase(times, period=8.0))
        assert steps.has_steps
        assert abs(steps.period - 8.0) < 0.8

    def test_exponential_is_not_steppy(self):
        times = np.linspace(0, 80, 2001)
        assert not detect_steps(times, np.exp(-0.1 * times)).has_steps

    def test_micro_oscillations_are_not_steps(self):
        times = np.linspace(0, 400, 4001)
        signal = np.exp(-0.01 * times) * (1.0 + 0.05 * np.cos(times))
        assert not detect_steps(times, signal).has_steps

    def test_deep_oscillations_do_register(self):
        times = np.linspace(0, 60, 3001)
        signal = np.exp(-0.05 * times) * (0.55 + 0.45 * np.cos(1.3 * times))
        steps = detect_steps(times, signal)
        assert steps.has_steps
        assert abs(steps.period - 2 * np.pi / 1.3) < 0.5


class TestExponentialFit:
    def test_exact_rate_recovered(self):
        times = np.linspace(0, 100, 2001)
        fit = fit_exponential_decay(times, 0.9 * np.exp(-0.07 * times))
        assert_allclose(fit.rate, 0.07, rtol=1e-10)
        assert fit.r_squared > 0.999999

    def test_oscillating_signal_fits_envelope(self):
        times = np.linspace(0, 200, 8001)
        signal = np.exp(-0.03 * times) * np.abs(np.cos(1.0 * times))
        fit = fit_exponential_decay(times, signal, t_skip=5.0)
        assert abs(fit.rate - 0.03) / 0.03 < 0.02
        assert fit.r_squared > 0.999

    def test_transient_skipped(self):
        times = np.linspace(0, 120, 3001)
        signal = np.exp(-0.05 * times) + 0.5 * np.exp(-1.0 * times)
        fit = fit_exponential_decay(times, signal, t_skip=15.0)
        assert abs(fit.rate - 0.05) / 0.05 < 0.01

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="too few"):
            fit_exponential_decay(np.array([0.0, 1.0]), np.array([1.0, 0.5]))


# A NaN used to pass silently: detect_steps returned has_steps=False with period NaN,
# fit_exponential_decay fitted the other points and detect_plateaus found none.
NON_FINITE = [
    pytest.param("signal", np.linspace(0, 1, 5), [1.0, np.nan, 1.0, 1.0, 1.0], id="nan-signal"),
    pytest.param("signal", np.linspace(0, 1, 5), [1.0, 0.9, np.inf, 0.7, 0.6], id="inf-signal"),
    pytest.param("times", [0.0, 0.25, np.nan, 0.75, 1.0], [1.0, 0.9, 0.8, 0.7, 0.6], id="nan-times"),
]


@pytest.mark.parametrize("name, times, signal", NON_FINITE)
@pytest.mark.parametrize("analyse", [detect_plateaus, detect_steps, fit_exponential_decay])
def test_non_finite_input_named(analyse, name, times, signal):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        analyse(times, signal)


# Curves that used to raise IndexError, numpy's shape errors or a divide-by-zero warning,
# or that the fit flattened and fitted.
GRID = np.linspace(0.0, 4.0, 5)
BAD_CURVES = [
    pytest.param("times", "must hold at least 2 samples", [0.0], [1.0], id="one-sample"),
    pytest.param("signal", "must hold one value per time", GRID, np.exp(-GRID[:4]),
                 id="unequal-lengths"),
    pytest.param("times", "must be 1-d", np.tile(np.arange(10.0), (5, 1)),
                 np.exp(-np.tile(np.arange(10.0), (5, 1))), id="2-d"),
    pytest.param("signal", "must be 1-d", GRID, np.exp(-GRID)[:, None], id="2-d-signal"),
    pytest.param("times", "must be strictly increasing", [0.0, 1.0, 1.0, 2.0, 3.0],
                 np.exp(-GRID), id="repeated-time"),
    pytest.param("times", "must be strictly increasing", GRID[::-1], np.exp(-GRID),
                 id="decreasing-times"),
]


@pytest.mark.parametrize("name, message, times, signal", BAD_CURVES)
@pytest.mark.parametrize("analyse", [detect_plateaus, detect_steps, fit_exponential_decay])
def test_bad_curve_named(analyse, name, message, times, signal):
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        analyse(times, signal)


@pytest.mark.parametrize("log_scale", [False, True])
def test_plateaus_of_a_decay_with_one_nan_rejected(log_scale):
    times = np.linspace(0.0, 40.0, 401)
    signal = np.exp(-0.1 * times)
    signal[200] = np.nan
    with pytest.raises(ValueError, match="^signal must be finite"):
        detect_plateaus(times, signal, log_scale=log_scale)


class TestLocalMaxima:
    def test_matches_loop_reference(self, rng):
        # Rounded samples force ties, which count as maxima.
        for n in (0, 1, 2, 3, 50):
            s = np.round(rng.normal(size=n), 1)
            loop = [i for i in range(1, n - 1) if s[i] >= s[i - 1] and s[i] >= s[i + 1]]
            assert _local_maxima(s).tolist() == loop


def loop_runs(mask):
    """Maximal True runs found by walking the mask, the reference for ``_runs``."""
    out, i = [], 0
    while i < len(mask):
        if mask[i]:
            j = i
            while j + 1 < len(mask) and mask[j + 1]:
                j += 1
            out.append((i, j))
            i = j + 1
        else:
            i += 1
    return out


class TestRuns:
    def test_matches_loop_reference(self, rng):
        masks = [rng.random(n) < p for n in (1, 2, 3, 50) for p in (0.3, 0.5, 0.8)]
        masks += [np.ones(7, bool), np.zeros(7, bool), np.zeros(0, bool)]
        for mask in masks:
            assert _runs(mask) == loop_runs(mask)
