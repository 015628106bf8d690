"""Pins of the public surface.

A public name that goes, or a setting that comes back into one of the
signatures below, must come with a deliberate edit here.
"""

import dataclasses
import inspect
import sys

import pytest

import qtel
from qtel import analysis, cli, dynamics, model, oracle, rates, superop

PUBLIC_NAMES = {
    "__version__",
    # model
    "BlochVector", "FluctuatorDistribution", "FluctuatorSpec", "SystemSpec",
    "boundary_vectors", "rotation_matrix", "so3_generators",
    "stationary_distribution", "step_rotation",
    # superop
    "EigendecompositionError", "SpectralDecomposition", "Superoperator",
    "boundary_projectors", "decoherence_generator", "discrete_transfer_operator",
    "evolve_operator", "fluctuator_dissipator", "spectral_decomposition",
    "transfer_from_spectral",
    # dynamics
    "BangBangResult", "BlochTrajectory", "PulseSequence", "bang_bang_operator",
    "echo_signal", "free_trajectory", "sequence_operator", "to_rotating_frame",
    # rates
    "ChannelRates", "PerturbativeRates", "SweepResult", "angle_sweep",
    "extract_rates", "free_decay_rates", "longitudinal_eigenvalues",
    "longitudinal_rates", "perturbative_rates", "telegraph_spectrum",
    "transverse_eigenvalues",
    # oracle
    "McEstimate", "SequenceEnsembleResult", "SpectrumEstimate",
    "empirical_spectrum", "enumerate_sequences", "sample_dwell_times",
    "sample_trajectories",
    # analysis
    "ExponentialFit", "Plateau", "StepStructure", "detect_plateaus",
    "detect_steps", "fit_exponential_decay",
}


def test_public_names():
    assert len(qtel.__all__) == len(set(qtel.__all__))
    assert set(qtel.__all__) == PUBLIC_NAMES
    for name in qtel.__all__:
        assert hasattr(qtel, name)
    # Each name the package re-exports is public in the submodule that defines it.
    for name in sorted(PUBLIC_NAMES - {"__version__"}):
        module = sys.modules[getattr(qtel, name).__module__]
        assert name in module.__all__, f"{name} missing from {module.__name__}.__all__"


SIGNATURES = {
    rates.channel_rates_from_modes: ("mode_rates", "weights"),
    rates.extract_rates: ("sd",),
    rates.free_decay_rates: ("sys",),
    analysis.detect_plateaus: ("times", "signal", "log_scale"),
    analysis.detect_steps: ("times", "signal"),
    analysis.fit_exponential_decay: ("times", "signal", "t_skip"),
    oracle.empirical_spectrum: ("f", "n_samples", "seed"),
    oracle.sample_trajectories: ("sys", "n0", "t_grid", "n_samples", "seed", "workers"),
}

FIELDS = {
    cli.ExperimentConfig: (
        "experiment", "b0", "gamma", "eta", "g", "g_vector", "theta", "theta_values",
        "theta_points", "eta_values", "white_noise", "initial", "frame", "t_max", "t_points",
        "tau_min", "tau_max", "tau_points", "tau_spacing", "pulse_axis", "dt", "n_steps",
        "probe_times", "n_samples", "seed", "workers",
    ),
    dynamics.BangBangResult: (
        "transfer", "eigenvalues", "candidate_rates", "rates", "tau", "n_pulses", "axis",
    ),
    dynamics.PulseSequence: ("events",),
    model.SystemSpec: ("b0", "fluctuators", "white_noise"),
    superop.SpectralDecomposition: (
        "eigenvalues", "right_vectors", "left_vectors", "condition", "defective",
        "max_residual", "operator",
    ),
    superop.Superoperator: ("mat", "kind", "system"),
}


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda func: func.__name__)
def test_signature(func):
    assert tuple(inspect.signature(func).parameters) == SIGNATURES[func]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]
