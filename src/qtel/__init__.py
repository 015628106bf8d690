"""Exact qubit decoherence under random telegraph noise.

The ensemble-averaged Bloch dynamics of a qubit coupled to two-level
fluctuators is computed exactly by diagonalizing a small transfer
operator on the joint fluctuator-Bloch space; pulse sequences compose
algebraically on the same space.  Enumeration and Monte-Carlo oracles
cross-check every result.
"""

__version__ = "0.1.0"

from .analysis import (
    ExponentialFit,
    Plateau,
    StepStructure,
    detect_plateaus,
    detect_steps,
    fit_exponential_decay,
)
from .dynamics import (
    BangBangResult,
    BlochTrajectory,
    PulseSequence,
    bang_bang_operator,
    echo_signal,
    free_trajectory,
    sequence_operator,
    to_rotating_frame,
)
from .model import (
    BlochVector,
    FluctuatorDistribution,
    FluctuatorSpec,
    SystemSpec,
    boundary_vectors,
    rotation_matrix,
    so3_generators,
    stationary_distribution,
    step_rotation,
)
from .oracle import (
    McEstimate,
    SequenceEnsembleResult,
    SpectrumEstimate,
    empirical_spectrum,
    enumerate_sequences,
    sample_dwell_times,
    sample_trajectories,
)
from .rates import (
    ChannelRates,
    PerturbativeRates,
    SweepResult,
    angle_sweep,
    extract_rates,
    free_decay_rates,
    longitudinal_eigenvalues,
    longitudinal_rates,
    perturbative_rates,
    telegraph_spectrum,
    transverse_eigenvalues,
)
from .superop import (
    EigendecompositionError,
    SpectralDecomposition,
    Superoperator,
    boundary_projectors,
    decoherence_generator,
    discrete_transfer_operator,
    evolve_operator,
    fluctuator_dissipator,
    spectral_decomposition,
    transfer_from_spectral,
)

__all__ = [
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
]
