"""Transfer operators on the joint fluctuator-Bloch space.

The ensemble-averaged Bloch dynamics of a qubit driven by telegraph
noise is exactly encoded by operators on a ``3 * 2**N`` dimensional
space (N fluctuators).  Two operators matter:

* the discrete one-interval transfer operator, which multiplies a
  switching-probability factor acting on the fluctuator levels with the
  per-level Bloch rotations of one interval, and
* the continuous-time generator, its ``dt -> 0`` limit, whose
  eigenvalues are the complex decay rates of the system.

Every observable is one boundary contraction over fluctuator indices,
``readout . (exp(-t_k * generator) segments and I (x) R pulses) . prepare``;
one engine here applies these factors to the ``d x 3`` preparation block over
a time grid, and the free transfer matrix T(t) is its one-segment case.

Basis ordering is fluctuator-major: index = 3 * (fluctuator state
index) + Bloch index (x=0, y=1, z=2), with level ``s=+1`` enumerated
first for each fluctuator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import (SystemSpec, _single_fluctuator, _switching_probabilities, boundary_vectors,
                    so3_generators, step_rotation)

__all__ = [
    "Superoperator",
    "SpectralDecomposition",
    "EigendecompositionError",
    "ContractionError",
    "fluctuator_dissipator",
    "discrete_transfer_operator",
    "decoherence_generator",
    "spectral_decomposition",
    "evolve_operator",
    "transfer_from_spectral",
    "boundary_projectors",
]

KIND_STEP = "discrete-step"
KIND_GENERATOR = "generator"

# Eigenvector-matrix condition bound (Frobenius) beyond which the decomposition
# is treated as (near-)defective: exp(-t P) falls back to scaling-and-squaring
# and a bang-bang period raises.
DEFECTIVE_CONDITION = 1e8

# Residual gate for eigenpairs, ||P v - lam v|| over a lower bound on ||P||_2.
RESIDUAL_TOL = 1e-10

# Absolute bound on the imaginary part of the contracted 3x3 transfer
# matrix; larger values indicate an internal inconsistency.
IMAG_TOL = 1e-10

_TAU1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_TAU2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_TAU3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class EigendecompositionError(RuntimeError):
    """Raised when the eigensolver fails or returns unusable pairs."""


class ContractionError(RuntimeError):
    """Raised when the contracted transfer matrix is not real."""


@dataclass(frozen=True)
class Superoperator:
    """Complex square operator on the joint fluctuator-Bloch space.

    ``kind`` is either ``"discrete-step"`` (one-interval transfer) or
    ``"generator"`` (continuous-time).
    """

    mat: np.ndarray
    kind: str
    system: SystemSpec

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        d = self.system.dimension
        if mat.shape != (d, d):
            raise ValueError(f"operator must be {d}x{d}, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dimension(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with bi-orthonormal right/left eigenvectors.

    ``right_vectors[:, k]`` is the k-th right eigenvector and
    ``left_vectors[k, :]`` the matching left row vector, normalized so
    that ``left_vectors @ right_vectors == I``.  ``condition`` is the bound
    ``||V||_F ||V^-1||_F >= cond_2(V)``, within a factor of the dimension, of
    the right vectors V; above ``DEFECTIVE_CONDITION`` the matrix is flagged
    defective and the left vectors may be unreliable.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None
    condition: float
    defective: bool
    max_residual: float
    operator: Superoperator

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


def fluctuator_dissipator(gamma: float, eta: float) -> np.ndarray:
    """Switching part of the generator on one fluctuator's level space.

    Columns sum to zero (probability conservation, the uniform row
    vector annihilates it from the left) and the stationary distribution
    spans its kernel.  Eigenvalues are {0, 2 * gamma}.
    """
    return (
        gamma * np.eye(2, dtype=complex)
        - gamma * _TAU1
        + 1j * eta * _TAU2
        + eta * _TAU3
    )


def _pad_fluctuator_op(op2: np.ndarray, index: int, n: int) -> np.ndarray:
    """Embed a 2x2 fluctuator operator at position `index` of n factors."""
    left = np.eye(2**index, dtype=complex)
    right = np.eye(2 ** (n - index - 1), dtype=complex)
    return np.kron(np.kron(left, op2), right)


def discrete_transfer_operator(sys: SystemSpec, dt: float) -> Superoperator:
    """One-interval ensemble transfer operator (single fluctuator).

    The operator is the product of the switching-probability factor
    ``(1 - p) I - d tau_3 + p tau_1 - i d tau_2`` (with ``p = gamma*dt``,
    ``d = eta*dt``) acting on the fluctuator levels, and the
    block-diagonal pair of Bloch rotations for the two noise levels.
    Raising it to the N-th power and contracting with the boundary
    vectors averages an N-interval evolution over all 2**N level
    sequences with their exact probabilities.
    """
    f = _single_fluctuator(sys)
    p, d = _switching_probabilities(f.gamma, f.eta, dt)

    switch = (1.0 - p) * np.eye(2, dtype=complex) - d * _TAU3 + p * _TAU1 - 1j * d * _TAU2
    rot_plus = step_rotation(sys.b0, f.g, +1, dt)
    rot_minus = step_rotation(sys.b0, f.g, -1, dt)
    blocks = np.kron(np.diag([1.0, 0.0]), rot_plus) + np.kron(np.diag([0.0, 1.0]), rot_minus)
    mat = np.kron(switch, np.eye(3)) @ blocks.astype(complex)
    return Superoperator(mat=mat, kind=KIND_STEP, system=sys)


def decoherence_generator(sys: SystemSpec) -> Superoperator:
    """Continuous-time generator of the joint fluctuator-Bloch dynamics.

    Per fluctuator the generator carries the switching dissipator plus
    the noise-field coupling ``-i (g . L) tau_3``; the static field
    contributes ``-i b0 L_z`` and optional white noise adds
    ``sum_i v_i L_i**2 / 2`` on the Bloch block.  Independent
    fluctuators enter additively (joint switches are higher order in dt
    and absent by construction).
    """
    n = sys.n_fluctuators
    lx, ly, lz = so3_generators()
    dim_f = 2**n
    mat = np.zeros((3 * dim_f, 3 * dim_f), dtype=complex)

    bloch = -1j * sys.b0 * lz
    if sys.white_noise is not None:
        vx, vy, vz = sys.white_noise
        bloch = bloch + 0.5 * (vx * lx @ lx + vy * ly @ ly + vz * lz @ lz)
    mat += np.kron(np.eye(dim_f, dtype=complex), bloch)

    for i, f in enumerate(sys.fluctuators):
        g_dot_l = f.g[0] * lx + f.g[1] * ly + f.g[2] * lz
        mat += np.kron(_pad_fluctuator_op(fluctuator_dissipator(f.gamma, f.eta), i, n), np.eye(3))
        mat += -1j * np.kron(_pad_fluctuator_op(_TAU3, i, n), g_dot_l)

    return Superoperator(mat=mat, kind=KIND_GENERATOR, system=sys)


def spectral_decomposition(op: Superoperator) -> SpectralDecomposition:
    """Diagonalize a superoperator with bi-orthonormal left/right pairs.

    Left vectors are the rows of the inverse right-eigenvector matrix,
    which makes the bi-orthonormalization exact up to inversion error
    and keeps degenerate (but diagonalizable) subspaces consistently
    paired.  No SVD runs: residuals are scaled by the larger of the largest
    column norm and the spectral radius, both at most ``||P||_2``, and a
    Frobenius ``condition`` above ``DEFECTIVE_CONDITION`` or a failed
    inversion (``condition = inf``) sets the ``defective`` flag.
    """
    try:
        eigenvalues, right = scipy.linalg.eig(op.mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigendecompositionError(f"eigensolver failed to converge: {exc}") from exc

    scale = max(float(np.linalg.norm(op.mat, axis=0).max()), float(np.abs(eigenvalues).max()))
    residuals = np.linalg.norm(op.mat @ right - right * eigenvalues, axis=0)
    max_residual = float(residuals.max() / scale) if scale > 0 else float(residuals.max())
    if max_residual > RESIDUAL_TOL:
        raise EigendecompositionError(
            f"eigenpair residual {max_residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )

    try:
        left = np.linalg.inv(right)
        condition = float(np.linalg.norm(right) * np.linalg.norm(left))
    except np.linalg.LinAlgError:
        left, condition = None, np.inf
    defective = not np.isfinite(condition) or condition > DEFECTIVE_CONDITION

    return SpectralDecomposition(
        eigenvalues=eigenvalues,
        right_vectors=right,
        left_vectors=left,
        condition=condition,
        defective=defective,
        max_residual=max_residual,
        operator=op,
    )


def boundary_projectors(sys: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Boundary contraction matrices for the full superoperator space.

    Returns the ``3 x d`` readout and ``d x 3`` preparation maps; the
    contraction ``readout @ M @ prepare`` of any superoperator M is the
    3x3 matrix acting on the physical Bloch vector.
    """
    readout, prepare = boundary_vectors(sys.distributions())
    # readout (x) I_3 and prepare (x) I_3 by broadcasting: np.kron costs several times more.
    lifted = (readout[None, :, None] * np.eye(3)[:, None, :]).reshape(3, -1)
    return lifted, (prepare[:, None, None] * np.eye(3)).reshape(-1, 3)


def _mode_weights(sd: SpectralDecomposition) -> np.ndarray:
    """Weight ``|(readout v_k)_c (l_k prepare)_c|`` of mode k in channel c, shape (3, d)."""
    readout, prepare = boundary_projectors(sd.operator.system)
    return np.abs((readout @ sd.right_vectors) * (sd.left_vectors @ prepare).T)


def _exp_generator(sd: SpectralDecomposition, t: float) -> np.ndarray:
    """exp(-t * generator) via the spectral decomposition or expm fallback."""
    if not sd.defective:
        return (sd.right_vectors * np.exp(-sd.eigenvalues * t)) @ sd.left_vectors
    return scipy.linalg.expm(-t * sd.operator.mat)


def _real_transfer(transfer: np.ndarray) -> np.ndarray:
    """Real part of contracted transfer matrices, imaginary part checked."""
    max_imag = float(np.abs(transfer.imag).max(initial=0.0))
    if not max_imag <= IMAG_TOL:
        raise ContractionError(
            f"contracted transfer matrix has imaginary part {max_imag:.3e} "
            f"(tolerance {IMAG_TOL:.1e})"
        )
    return transfer.real


def evolve_operator(
    op: Superoperator,
    t: float,
    sd: SpectralDecomposition | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full propagator exp(-t * generator) and its 3x3 boundary contraction.

    Parameters
    ----------
    op : generator-kind superoperator.
    t : evolution time, >= 0.
    sd : optional precomputed spectral decomposition of `op`, reused
        across a time grid.

    Returns
    -------
    (full, transfer) : the ``d x d`` propagator and the real 3x3
        transfer matrix mapping Bloch vectors.  ``t == 0`` returns exact
        identities.
    """
    if op.kind != KIND_GENERATOR:
        raise ValueError("evolve_operator requires a generator-kind superoperator")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return np.eye(op.dimension, dtype=complex), np.eye(3)
    if sd is None:
        sd = spectral_decomposition(op)
    full = _exp_generator(sd, t)
    readout, prepare = boundary_projectors(op.system)
    return full, _real_transfer(readout @ full @ prepare)


def transfer_from_spectral(sd: SpectralDecomposition, times) -> np.ndarray:
    """Transfer matrices T(t) for a grid of times, one decomposition.

    Returns an array of shape ``(len(times), 3, 3)``, exactly the identity at
    t = 0.  It is the one-free-step schedule of the contraction engine, which
    falls back to scaling-and-squaring per point for a defective decomposition.
    """
    if sd.operator.kind != KIND_GENERATOR:
        raise ValueError("transfer_from_spectral requires a generator-kind superoperator")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("times must be >= 0")
    out = _compose(sd, [("free", times)]).copy()
    out[times == 0.0] = np.eye(3)
    return out


def _compose(sd: SpectralDecomposition, steps) -> np.ndarray:
    """Real ``T x 3 x 3`` transfer matrices of a schedule (T = 1 without a grid).

    ``steps`` lists in order of action ``("free", t)``, t a duration or a grid
    of T durations, and ``("pulse", R)``, R a 3x3 rotation of the Bloch index.
    """
    readout, prepare = boundary_projectors(sd.operator.system)
    d = sd.dimension
    spectral = not sd.defective
    # The spectral form runs the whole grid in one pass.  The expm fallback runs one grid
    # point per pass (none for an empty grid) and holds only that point's propagators,
    # so equal durations there, such as the two halves of an echo, share one expm.
    n_times = max([np.size(t) for kind, t in steps if kind == "free"], default=1)
    passes = [np.empty((d, 0), dtype=complex)]
    for i in range(1 if spectral else n_times):
        # The block is d x (T * 3), so each factor is one matrix product.  A spectral
        # free step leaves it in eigen-coordinates with its d x T decay kept apart
        # until the next pulse or the readout: a free grid never builds d x T x 3.
        block, decay, propagators = prepare, None, {}
        for kind, value in steps:
            if kind == "free" and spectral:
                if decay is None:
                    block, decay = sd.left_vectors @ block, 1.0
                decay = decay * np.exp(-np.multiply.outer(sd.eigenvalues, np.ravel(value)))
                continue
            if decay is not None:
                coeffs = decay[:, :, None] * block.reshape(d, -1, 3)
                block, decay = sd.right_vectors @ coeffs.reshape(d, -1), None
            if kind == "pulse":
                block = (value @ block.reshape(d // 3, 3, -1)).reshape(d, -1)
            else:
                t = float(np.ravel(value)[i % np.size(value)])
                if t not in propagators:
                    propagators[t] = _exp_generator(sd, t)
                block = propagators[t] @ block
        if decay is not None:
            modes, coeffs = readout @ sd.right_vectors, block.reshape(d, -1, 3)
            return _real_transfer(np.einsum("ck,kt,ktj->tcj", modes, decay, coeffs))
        passes.append(block)
    transfer = readout @ np.concatenate(passes, axis=1)
    return _real_transfer(transfer.reshape(3, -1, 3).transpose(1, 0, 2))
