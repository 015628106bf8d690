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
one engine here applies these factors, over a time grid, to the columns of the
``d x 3`` preparation map that a caller reads (all three for a transfer matrix, the
z column for the echo), and the free transfer matrix T(t) is its one-segment case.

Every operator is real, so its complex eigenpairs come in conjugate pairs,
which LAPACK returns next to each other, the member with ``Im lambda > 0``
first, as two real columns ``Re v`` and ``Im v``.  Everything
after the eigensolver runs on this real pair form: ``V_r`` holds those columns,
``L_r = V_r^-1``, and ``exp(-t P) = V_r B(t) L_r`` with ``B(t)`` block diagonal,
``exp(-lambda t)`` for a real eigenvalue and, for a pair ``alpha +- i beta``
(``beta > 0``), the scaled rotation
``exp(-alpha t) [[cos beta t, -sin beta t], [sin beta t, cos beta t]]``.  A
contraction takes one exponential per real eigenvalue and per pair, and its
result is real by construction.  The complex ``right_vectors`` and
``left_vectors`` of a decomposition are the pair form unpacked, in O(d^2).

Basis ordering is fluctuator-major: index = 3 * (fluctuator state
index) + Bloch index (x=0, y=1, z=2), with level ``s=+1`` enumerated
first for each fluctuator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .model import (_EPS, SystemSpec, _single_fluctuator, _switch_matrix, boundary_vectors,
                    step_rotation)

__all__ = [
    "Superoperator",
    "SpectralDecomposition",
    "EigendecompositionError",
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

# Residual gate for eigenpairs, ||P v - lam v|| over a lower bound on ||P||_2.
RESIDUAL_TOL = 1e-10

# Absolute bound on the roundoff a transfer matrix may carry off the reals: the
# imaginary part that the complex spectral form would leave.
IMAG_TOL = 1e-10

# Eigenvector-matrix condition bound (Frobenius) beyond which the decomposition
# is treated as (near-)defective.  Roundoff in the spectral form grows like
# condition * eps, so past IMAG_TOL / eps (about 4.5e5) it could exceed IMAG_TOL:
# exp(-t P) is then formed by scaling-and-squaring and a bang-bang period by its
# matrix power.  Below it, the pair form's real results drop no more than the
# imaginary roundoff the complex form would carry, condition * eps <= IMAG_TOL.
# Rates still come from the spectral weights.
DEFECTIVE_CONDITION = IMAG_TOL / np.finfo(float).eps


class EigendecompositionError(RuntimeError):
    """Raised when the eigensolver fails or returns unusable pairs."""


@dataclass(frozen=True)
class Superoperator:
    """Square operator on the joint fluctuator-Bloch space.

    ``kind`` is either ``"discrete-step"`` (one-interval transfer) or
    ``"generator"`` (continuous-time).  The matrix is real and stored as
    ``float64``; a complex one raises ``ValueError``.  LAPACK's real
    eigensolver decomposes it, so only eigenvectors are complex.
    ``boundary`` holds the system's real readout and preparation maps, built
    once per operator.
    """

    mat: np.ndarray
    kind: str
    system: SystemSpec

    def __post_init__(self):
        mat = np.asarray(self.mat)
        if np.iscomplexobj(mat):
            raise ValueError(f"operator must be a real matrix, got dtype {mat.dtype}")
        mat = np.array(mat, dtype=float)
        d = self.system.dimension
        if mat.shape != (d, d):
            raise ValueError(f"operator must be {d}x{d}, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dimension(self) -> int:
        return self.mat.shape[0]

    @functools.cached_property
    def boundary(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only ``boundary_projectors`` of ``system``: ``(readout, prepare)``."""
        maps = boundary_projectors(self.system)
        for m in maps:
            m.setflags(write=False)
        return maps


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with bi-orthonormal right/left eigenvectors.

    ``right_vectors[:, k]`` is the k-th right eigenvector and
    ``left_vectors[k, :]`` the matching left row vector, normalized so
    that ``left_vectors @ right_vectors == I``.  ``condition`` is the bound
    ``||V||_F ||V^-1||_F >= cond_2(V)``, within a factor of the dimension, of
    the right vectors V; above ``DEFECTIVE_CONDITION`` the matrix is flagged
    defective, so propagators are formed by ``expm`` instead of from the modes.
    ``left_vectors`` is None when V could not be inverted (``condition = inf``).

    Both are unpacked from the real pair form: a conjugate pair's columns of V,
    and its rows of the left vectors, are exact conjugates, the member with
    ``Im lambda > 0`` first.  The left rows are ``0.5 (r_a -+ i r_b)`` from rows
    ``r_a, r_b`` of the real inverse ``V_r^-1``.  Eigenvalues in any other layout
    raise ``EigendecompositionError``: the propagators read only each pair's
    first member.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray | None
    condition: float
    defective: bool
    max_residual: float
    operator: Superoperator

    def __post_init__(self):
        _pair_layout(np.asarray(self.eigenvalues)[None], lambda _: "SpectralDecomposition")

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


def fluctuator_dissipator(gamma: float, eta: float) -> np.ndarray:
    """Switching part of the generator on one fluctuator's level space.

    Columns sum to zero (probability conservation, the uniform row
    vector annihilates it from the left) and the stationary distribution
    spans its kernel.  Eigenvalues are {0, 2 * gamma}.
    """
    return np.array([[gamma + eta, eta - gamma], [-gamma - eta, gamma - eta]])


def discrete_transfer_operator(sys: SystemSpec, dt: float) -> Superoperator:
    """One-interval ensemble transfer operator (single fluctuator).

    The operator is the product of the switching matrix ``W[new, old]``
    acting on the fluctuator levels and the block-diagonal pair of Bloch
    rotations for the two noise levels: block ``(i, j)`` is ``W[i, j] rot_j``.
    Raising it to the N-th power and contracting with the boundary
    vectors averages an N-interval evolution over all 2**N level
    sequences with their exact probabilities.
    """
    f = _single_fluctuator(sys)
    w = _switch_matrix(f.gamma, f.eta, dt)
    rot = np.stack([step_rotation(sys.b0, f.g, s, dt) for s in (+1, -1)])
    # mat[3 i + a, 3 j + c] = W[i, j] rot[j][a, c]
    mat = (w[:, None, :, None] * rot.transpose(1, 0, 2)).reshape(6, 6)
    return Superoperator(mat=mat, kind=KIND_STEP, system=sys)


def decoherence_generator(sys: SystemSpec) -> Superoperator:
    """Continuous-time generator of the joint fluctuator-Bloch dynamics.

    Per fluctuator the generator carries the switching dissipator plus
    the noise-field coupling ``-i (g . L) tau_3``; the static field
    contributes ``-i b0 L_z`` and optional white noise adds
    ``sum_i v_i L_i**2 / 2`` on the Bloch block.  Independent
    fluctuators enter additively (joint switches are higher order in dt
    and absent by construction).

    Every term is real (``-i L_k`` is the real antisymmetric ``eps_k``), so the
    matrix is built as ``float64`` and decomposed by the real eigensolver.
    It is the one-member case of ``_generator_stack``.
    """
    couplings = np.array([[f.g for f in sys.fluctuators]])
    return Superoperator(mat=_generator_stack(sys, couplings)[0], kind=KIND_GENERATOR, system=sys)


def _generator_stack(sys: SystemSpec, couplings: np.ndarray) -> np.ndarray:
    """Generator matrices of ``sys`` with its couplings replaced, shape ``(B, d, d)``.

    ``couplings[b, i]`` is the coupling 3-vector of fluctuator i in member b and
    must be finite; everything else (``b0``, white noise, each fluctuator's
    switching) is taken from ``sys``, whose own couplings are not read.

    The matrix is sparse, with at most ``N + 3`` non-zeros per row: a 3x3
    block on the diagonal for each joint level ``s``, and the dissipator's
    off-diagonal entry times ``I_3`` at each single-fluctuator flip partner
    ``s ^ (1 << (N - 1 - i))``.  It is written from these indices, summed in
    the order of the Kronecker construction (Bloch term, then per fluctuator
    its dissipator and its coupling), which it reproduces bit for bit.
    """
    if not np.isfinite(couplings).all():
        raise ValueError("g must be finite")
    n = sys.n_fluctuators
    ex, ey, ez = _EPS  # eps_k = -i L_k
    dim_f = 2**n
    states = np.arange(dim_f)
    mat = np.zeros((len(couplings), dim_f, 3, dim_f, 3))

    bloch = sys.b0 * ez
    if sys.white_noise is not None:
        vx, vy, vz = sys.white_noise
        bloch = bloch - 0.5 * (vx * ex @ ex + vy * ey @ ey + vz * ez @ ez)  # L_k**2 = -eps_k**2
    blocks = np.zeros((dim_f, len(couplings), 3, 3)) + bloch
    g = couplings[..., None, None]
    g_dot_eps = g[:, :, 0] * ex + g[:, :, 1] * ey + g[:, :, 2] * ez  # (member, fluctuator, 3, 3)

    # mat[:, s, :, s', :] is indexed (level, member, 3, 3): the level axis comes first.
    for i, f in enumerate(sys.fluctuators):
        diss = fluctuator_dissipator(f.gamma, f.eta)
        level = (states >> (n - 1 - i)) & 1  # 0 for s_i = +1, 1 for s_i = -1
        blocks += diss[level, level][:, None, None, None] * np.eye(3)
        blocks += (1 - 2 * level)[:, None, None, None] * g_dot_eps[:, i]
        partner = states ^ (1 << (n - 1 - i))
        mat[:, states, :, partner, :] += diss[level, 1 - level][:, None, None, None] * np.eye(3)
    mat[:, states, :, states, :] = blocks
    return mat.reshape(len(couplings), 3 * dim_f, 3 * dim_f)


class _Spectra(NamedTuple):
    """Per-member fields of ``SpectralDecomposition`` for a stack of operators.

    ``left_vectors[b]`` is NaN where member b's inversion failed
    (``condition[b] = inf``).
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition: np.ndarray
    defective: np.ndarray
    max_residual: np.ndarray

    def member(self, b: int, op: Superoperator) -> SpectralDecomposition:
        """Member b as the decomposition of ``op``; no left vectors if its inversion failed."""
        condition = float(self.condition[b])
        return SpectralDecomposition(
            eigenvalues=self.eigenvalues[b],
            right_vectors=self.right_vectors[b],
            left_vectors=self.left_vectors[b] if np.isfinite(condition) else None,
            condition=condition,
            defective=bool(self.defective[b]),
            max_residual=float(self.max_residual[b]),
            operator=op,
        )


def _decompose_stack(mats: np.ndarray, name=None) -> _Spectra:
    """Decompose a ``(B, d, d)`` stack with one eigensolve and one inversion.

    Each member passes the gates of ``spectral_decomposition`` on its own: an
    eigenpair residual above ``RESIDUAL_TOL`` raises and names the member, and a
    Frobenius ``condition`` that is infinite or above ``DEFECTIVE_CONDITION`` flags
    that member defective.  When the stacked inversion fails, the members are
    inverted one by one, so only a singular member gets ``condition = inf``.
    ``name(b)`` names member b in the error; by default it is "member b of B".

    The stack is real, and every step after the eigensolver runs on the pair form:
    the residual ``P V_r - V_r Lambda_r``, with ``Lambda_r`` holding the 2x2 block
    ``[[alpha, beta], [-beta, alpha]]`` of each pair, the inverse ``V_r^-1`` and the
    condition are all ``float64``.  A member whose eigenvalues are not in adjacent
    exact conjugate pairs raises instead of being mis-paired.
    """
    if not np.all(np.isfinite(mats)):
        raise ValueError("operator entries must be finite")
    name = name or _sweep_member(slice(0, len(mats)), len(mats))
    try:
        eigenvalues, right = np.linalg.eig(mats)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigendecompositionError(f"eigensolver failed to converge: {exc}") from exc
    # A stack whose eigenvalues are all real comes back real.
    eigenvalues, right = eigenvalues.astype(complex, copy=False), right.astype(complex, copy=False)
    first, second = _pair_layout(eigenvalues, name)
    packed = _pack_columns(right, second)

    # Column k of the residual is (P V_r - V_r Lambda_r)_k: column a of a pair gains
    # beta V_r[:, b] and column b loses beta V_r[:, a].  The two are the real and imaginary
    # parts of the pair's complex residual, whose norm column a takes.
    scale = np.maximum(np.linalg.norm(mats, axis=-2).max(axis=-1), np.abs(eigenvalues).max(axis=-1))
    residual = mats @ packed
    residual -= packed * eigenvalues.real[:, None, :]
    beta = (eigenvalues.imag * first)[:, None, :]
    residual[..., :-1] += packed[..., 1:] * beta[..., :-1]
    residual[..., 1:] -= packed[..., :-1] * beta[..., :-1]
    norms = np.linalg.norm(residual, axis=-2)
    del residual
    np.hypot(norms[..., :-1], norms[..., 1:], out=norms[..., :-1], where=first[..., :-1])
    max_residual = norms.max(axis=-1) / np.where(scale > 0, scale, 1.0)
    failed = np.flatnonzero(max_residual > RESIDUAL_TOL)
    if failed.size:
        b = failed[0]
        raise EigendecompositionError(
            f"eigenpair residual {max_residual[b]:.3e} exceeds {RESIDUAL_TOL:.1e} ({name(b)})"
        )

    try:
        inverse = np.linalg.inv(packed)
    except np.linalg.LinAlgError:
        inverse = np.full_like(packed, np.nan)
        for b, vectors in enumerate(packed):
            try:
                inverse[b] = np.linalg.inv(vectors)
            except np.linalg.LinAlgError:
                pass
    del packed
    left = _complex_rows(inverse, first, second)
    del inverse
    condition = np.sqrt(_frobenius_squared(right)) * np.sqrt(_frobenius_squared(left))
    condition[np.isnan(condition)] = np.inf
    defective = ~np.isfinite(condition) | (condition > DEFECTIVE_CONDITION)
    return _Spectra(eigenvalues, right, left, condition, defective, max_residual)


def _pair_layout(eigenvalues: np.ndarray, name) -> tuple[np.ndarray, np.ndarray]:
    """Masks of each conjugate pair's first (``Im > 0``) and second member, ``(B, d)`` each.

    The second member must directly follow the first and be its exact conjugate,
    as LAPACK returns a real matrix's pairs; a member that breaks this raises
    ``EigendecompositionError``, named by ``name(b)``.
    """
    first, second = eigenvalues.imag > 0, eigenvalues.imag < 0
    conjugate = eigenvalues[..., 1:] == eigenvalues[..., :-1].conj()
    broken = ((second[..., 1:] != first[..., :-1]) | (second[..., 1:] & ~conjugate)).any(axis=-1)
    broken |= second[..., 0] | first[..., -1]
    if broken.any():
        b = int(np.argmax(broken))
        raise EigendecompositionError(
            "complex eigenvalues are not in adjacent conjugate pairs, Im > 0 first, "
            f"so the real pair form cannot be built ({name(b)})"
        )
    return first, second


def _pack_columns(z: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Real columns of the pair form: a pair's columns a, a + 1 take Re and Im of column a.

    ``second`` marks each pair's second column, whose entries are not read; every
    other column keeps its real part.  Applied to the right vectors V this gives
    ``V_r``, and to ``V * exp(-lambda t)`` the product ``V_r B(t)``.
    """
    out = z.real.copy()
    np.copyto(out[..., 1:], z.imag[..., :-1], where=second[..., None, 1:])
    return out


def _packed_rows(left: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """``L_r = V_r^-1`` from the complex left rows: a pair's rows are ``2 Re l_a`` and ``-2 Im l_a``."""
    first, second = eigenvalues.imag > 0, eigenvalues.imag < 0
    out = left.real * np.where(first | second, 2.0, 1.0)[..., :, None]
    np.multiply(left.imag[..., :-1, :], -2.0, out=out[..., 1:, :], where=second[..., 1:, None])
    return out


def _complex_rows(inverse: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Complex left rows from ``L_r``: a pair's rows a, a + 1 are ``0.5 (r_a -+ i r_{a+1})``.

    The two rows of a pair are exact conjugates.
    """
    left = np.empty(inverse.shape, complex)
    np.multiply(inverse, np.where(first | second, 0.5, 1.0)[..., :, None], out=left.real)
    np.multiply(inverse, np.where(second, 0.5, 0.0)[..., :, None], out=left.imag)
    starts = first[..., :-1, None]
    np.multiply(inverse[..., :-1, :], 0.5, out=left.real[..., 1:, :], where=starts)
    np.multiply(inverse[..., 1:, :], -0.5, out=left.imag[..., :-1, :], where=starts)
    return left


def _frobenius_squared(z: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a complex stack, with no complex temporary."""
    return (np.einsum("...ij,...ij->...", z.real, z.real)
            + np.einsum("...ij,...ij->...", z.imag, z.imag))


def _member_blocks(n_members: int, dim: int) -> list[slice]:
    """Slices that cut a sweep of ``n_members`` ``dim x dim`` operators into stacks.

    A stack holds at most ``2**16`` matrix entries and one member at least, so a
    sweep's working arrays stay bounded whatever its length: 1820 members at
    d = 6, one member from d = 256.
    """
    step = max(1, 2**16 // dim**2)
    return [slice(k, k + step) for k in range(0, n_members, step)]


def _sweep_member(block: slice, n_members: int, taus: np.ndarray | None = None):
    """Name member b of the stack ``block`` by its index in a sweep of ``n_members``.

    Given the sweep's spacings ``taus``, the name gives the member's ``tau`` too.
    """
    def name(b: int) -> str:
        index = block.start + b
        spacing = "" if taus is None else f", tau {float(taus[index])}"
        return f"member {index} of {n_members}{spacing}"
    return name


def spectral_decomposition(op: Superoperator) -> SpectralDecomposition:
    """Diagonalize a superoperator with bi-orthonormal left/right pairs.

    Left vectors are the rows of the inverse right-eigenvector matrix,
    which makes the bi-orthonormalization exact up to inversion error
    and keeps degenerate (but diagonalizable) subspaces consistently
    paired.  No SVD runs: residuals are scaled by the larger of the largest
    column norm and the spectral radius, both at most ``||P||_2``, and a
    Frobenius ``condition`` above ``DEFECTIVE_CONDITION`` or a failed
    inversion (``condition = inf``) sets the ``defective`` flag.  The
    operator is real, so LAPACK's real eigensolver runs and its complex
    eigenpairs come in conjugate pairs.  It is the
    one-member case of the stacked decomposition that the rates and bang-bang
    sweeps run, so every gate is applied in one place.
    """
    return _decompose_stack(op.mat[None]).member(0, op)


def boundary_projectors(sys: SystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Boundary contraction matrices for the full superoperator space.

    Returns the ``3 x d`` readout and ``d x 3`` preparation maps; the
    contraction ``readout @ M @ prepare`` of any superoperator M is the
    3x3 matrix acting on the physical Bloch vector.
    """
    readout, prepare = boundary_vectors(sys.distributions())
    # readout (x) I_3 and prepare (x) I_3 by broadcasting, several times cheaper than kron.
    lifted = (readout[None, :, None] * np.eye(3)[:, None, :]).reshape(3, -1)
    return lifted, (prepare[:, None, None] * np.eye(3)).reshape(-1, 3)


def _mode_weights(boundary, right_vectors: np.ndarray, left_vectors: np.ndarray) -> np.ndarray:
    """Weight ``|(readout v_k)_c (l_k prepare)_c|`` of mode k in channel c, shape (..., 3, d).

    ``boundary`` is ``(readout, prepare)``; the vectors are one decomposition's or a stack's.
    """
    readout, prepare = boundary
    return np.abs((readout @ right_vectors) * np.swapaxes(left_vectors @ prepare, -1, -2))


def _exp_generator(sd: SpectralDecomposition, t) -> np.ndarray:
    """exp(-t * generator) as ``(V_r B(t)) @ L_r``, or by expm for a defective ``sd``.

    A scalar ``t`` gives one real ``d x d`` propagator, an array of times the stack
    ``t.shape + (d, d)``.
    """
    if not sd.defective:
        lam = sd.eigenvalues
        decay = np.exp(-lam * np.expand_dims(t, -1))
        scaled = _pack_columns(sd.right_vectors * decay[..., None, :], lam.imag < 0)
        return scaled @ _packed_rows(sd.left_vectors, lam)
    full = [scipy.linalg.expm(-s * sd.operator.mat) for s in np.ravel(t)]
    return np.reshape(full, np.shape(t) + sd.operator.mat.shape)


def evolve_operator(
    op: Superoperator,
    t: float,
    sd: SpectralDecomposition | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full propagator exp(-t * generator) and its 3x3 boundary contraction.

    Parameters
    ----------
    op : generator-kind superoperator.
    t : evolution time, finite and >= 0.
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
    if not 0 <= t < np.inf:  # NaN fails this too
        raise ValueError(f"t must be >= 0 and not NaN or infinite, got {t}")
    if t == 0.0:
        return np.eye(op.dimension), np.eye(3)
    if sd is None:
        sd = spectral_decomposition(op)
    full = _exp_generator(sd, t)
    readout, prepare = op.boundary
    return full, readout @ full @ prepare


def transfer_from_spectral(sd: SpectralDecomposition, times) -> np.ndarray:
    """Transfer matrices T(t) for a grid of times, one decomposition.

    Returns an array of shape ``(len(times), 3, 3)``, exactly the identity at
    t = 0.  It is the one-free-step schedule of the contraction engine, which
    falls back to scaling-and-squaring per point for a defective decomposition.
    """
    if sd.operator.kind != KIND_GENERATOR:
        raise ValueError("transfer_from_spectral requires a generator-kind superoperator")
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0) & (times < np.inf)):  # NaN fails this too
        raise ValueError("times must be >= 0 and not NaN or infinite")
    out = _compose(sd, [("free", times)], sd.operator.boundary[1]).copy()
    out[times == 0.0] = np.eye(3)
    return out


def _compose(sd: SpectralDecomposition, steps, prepare: np.ndarray) -> np.ndarray:
    """Real ``T x 3 x m`` transfer columns of a schedule (T = 1 without a grid).

    ``steps`` lists in order of action ``("free", t)``, t a duration or a grid
    of T durations, and ``("pulse", R)``, R a 3x3 rotation of the Bloch index.
    ``prepare`` holds the m columns of the preparation map the caller reads,
    all three for a transfer matrix; each factor costs in proportion to m.
    """
    readout = sd.operator.boundary[0]
    d, m = prepare.shape
    if sd.defective:
        return _compose_expm(sd, steps, prepare)
    # Only each real eigenvalue's mode and each pair's Im > 0 mode are carried: the pair's
    # other mode adds the complex conjugate, so a pair's left row counts twice and every
    # result is the real part of the sum.
    half = sd.eigenvalues.imag >= 0
    lam = sd.eigenvalues[half]
    twice = np.where(lam.imag > 0, 2.0, 1.0)[:, None]
    h = len(lam)
    # Only a pulse takes a block back to the state basis, through these h columns of V;
    # a free grid copies no d x h part of the vectors, so at N = 8 it stays within the
    # memory of its decomposition.
    if any(kind == "pulse" for kind, _ in steps):
        right = sd.right_vectors[:, half]
    # The block is d x (T * m), so each factor is one matrix product.  A free step leaves
    # it in these h mode coordinates with its T x h decay kept apart until the next pulse
    # or the readout: a free grid never builds d x T x m.
    block, decay = prepare, None
    for kind, value in steps:
        if kind == "free":
            factor = np.exp(np.multiply.outer(-np.ravel(value), lam))
            if decay is None:
                block, decay = (sd.left_vectors @ block)[half] * twice, factor
            else:
                decay = decay * factor
            continue
        if decay is not None:
            coeffs = decay.T[:, :, None] * block.reshape(h, -1, m)
            block, decay = (right @ coeffs.reshape(h, -1)).real, None
        block = (value @ block.reshape(d // 3, 3, -1)).reshape(d, -1)
    if decay is None:
        return (readout @ block).reshape(3, -1, m).transpose(1, 0, 2)
    modes = (readout @ sd.right_vectors)[:, half]
    if block.shape[1] == m:
        # One column group: T(t) = Re sum_k exp(-lambda_k t) W_k over the h modes, with
        # W[k, m c + j] = modes[c, k] block[k, j]; the real and imaginary parts of the
        # decay and of W make it one real product over 2h.
        weights = (modes.T[:, :, None] * block[:, None, :]).reshape(h, 3 * m)
        stacked = np.stack([weights.real, -weights.imag], axis=1).reshape(-1, 3 * m)
        return (decay.view(float) @ stacked).reshape(-1, 3, m)
    coeffs = block.reshape(h, -1, m)
    return np.einsum("ck,tk,ktj->tcj", modes, decay, coeffs).real


def _compose_expm(sd: SpectralDecomposition, steps, prepare: np.ndarray) -> np.ndarray:
    """``_compose`` with every free step's propagator formed by ``expm``.

    It runs one grid point per pass (none for an empty grid) and holds only that
    point's propagators, so equal durations, such as the two halves of an echo,
    share one expm.
    """
    readout = sd.operator.boundary[0]
    d, m = prepare.shape
    n_times = max([np.size(t) for kind, t in steps if kind == "free"], default=1)
    passes = [np.empty((d, 0))]
    for i in range(n_times):
        block, propagators = prepare, {}
        for kind, value in steps:
            if kind == "pulse":
                block = (value @ block.reshape(d // 3, 3, -1)).reshape(d, -1)
                continue
            t = float(np.ravel(value)[i % np.size(value)])
            if t not in propagators:
                propagators[t] = _exp_generator(sd, t)
            block = propagators[t] @ block
        passes.append(block)
    transfer = readout @ np.concatenate(passes, axis=1)
    return transfer.reshape(3, -1, m).transpose(1, 0, 2)
