"""Physical model primitives: fluctuators, Bloch vectors, rotations.

A qubit precesses about a static field ``b0 * z_hat`` while one or more
two-level fluctuators add a telegraph field ``s * g`` with ``s = +-1``.
Each fluctuator switches with mean rate ``gamma`` and rate imbalance
``eta`` (rate out of state ``s`` is ``gamma + s * eta``).  In the Bloch
picture the qubit state is a real 3-vector and every deterministic
evolution step is a proper rotation, built here in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FluctuatorSpec",
    "SystemSpec",
    "BlochVector",
    "FluctuatorDistribution",
    "so3_generators",
    "rotation_matrix",
    "step_rotation",
    "stationary_distribution",
    "boundary_vectors",
]

# Hard cap on fluctuator count; superoperator dimension is 3 * 2**N.
DEFAULT_FLUCTUATOR_CAP = 8

# Spin-1 generators in the Cartesian basis, (L_i)_{jk} = i * eps_{ijk}.
# With this convention exp(i * angle * n.L) is the right-handed rotation
# by `angle` about the unit axis n, and [L_x, L_y] = -i L_z.
_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_i, _k, _j] = -1.0
_GENERATORS = 1j * _EPS
_GENERATORS.setflags(write=False)


def so3_generators():
    """Return the three spin-1 generators ``(L_x, L_y, L_z)``.

    Each is a Hermitian 3x3 matrix with eigenvalues {-1, 0, 1} and
    matrix elements ``i * eps_{ijk}``; ``exp(i * phi * n.L)`` rotates
    Bloch vectors by ``phi`` about the unit axis ``n``.
    """
    return _GENERATORS[0], _GENERATORS[1], _GENERATORS[2]


def _as_vector3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Proper rotation by `angle` about `axis` (Rodrigues form).

    The axis need not be normalized; a zero axis gives the identity.
    The closed form keeps the result orthogonal to machine precision,
    with no series truncation.
    """
    axis = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(axis))
    if norm == 0.0:
        return np.eye(3)
    u = axis / norm
    k = np.array([
        [0.0, -u[2], u[1]],
        [u[2], 0.0, -u[0]],
        [-u[1], u[0], 0.0],
    ])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def step_rotation(b0: float, g, s: int, dt: float) -> np.ndarray:
    """Rotation advancing the Bloch vector through one noise interval.

    While the fluctuator sits in state ``s``, the Bloch vector precesses
    about the total field ``b0 * z_hat + s * g`` for a time ``dt``; the
    rotation angle is ``|b0 * z_hat + s * g| * dt``.

    Parameters
    ----------
    b0 : static field magnitude along z.
    g : noise coupling 3-vector.
    s : fluctuator state, +1 or -1.
    dt : interval duration (> 0; dt == 0 returns the identity).
    """
    if s not in (1, -1):
        raise ValueError(f"fluctuator state must be +1 or -1, got {s}")
    if dt < 0:
        raise ValueError("dt must be non-negative")
    g = _as_vector3(g, "g")
    axis = np.array([0.0, 0.0, float(b0)]) + s * g
    return rotation_matrix(axis, float(np.linalg.norm(axis)) * dt)


@dataclass(frozen=True)
class FluctuatorDistribution:
    """Occupation probabilities of the two fluctuator levels.

    ``p_plus + p_minus == 1`` holds bitwise; use :meth:`from_upper` to
    build from a single probability.
    """

    p_plus: float
    p_minus: float

    def __post_init__(self):
        for name, p in (("p_plus", self.p_plus), ("p_minus", self.p_minus)):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.p_plus + self.p_minus != 1.0:
            raise ValueError(
                "p_plus + p_minus must equal 1 exactly; "
                "construct via FluctuatorDistribution.from_upper"
            )

    @classmethod
    def from_upper(cls, p_plus: float) -> "FluctuatorDistribution":
        return cls(p_plus=float(p_plus), p_minus=1.0 - float(p_plus))


@dataclass(frozen=True)
class FluctuatorSpec:
    """One two-level fluctuator coupled to the qubit.

    Parameters
    ----------
    g : real 3-vector
        Noise coupling field (units of the static field).
    gamma : float
        Mean switching rate, >= 0.
    eta : float
        Switching-rate imbalance; the rate out of state ``s`` is
        ``gamma + s * eta``, so ``|eta| <= gamma`` is required.
    initial_distribution : FluctuatorDistribution, optional
        Explicit initial level occupation.  Mandatory when ``gamma == 0``
        (the stationary distribution is undefined for a frozen switch).
    """

    g: np.ndarray
    gamma: float
    eta: float = 0.0
    initial_distribution: FluctuatorDistribution | None = None

    def __post_init__(self):
        object.__setattr__(self, "g", _as_vector3(self.g, "g"))
        self.g.setflags(write=False)
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not abs(self.eta) <= self.gamma:
            raise ValueError(
                f"|eta| must not exceed gamma (got eta={self.eta}, gamma={self.gamma}); "
                "larger imbalance would make a switching probability negative"
            )
        if self.gamma == 0.0 and self.initial_distribution is None:
            raise ValueError(
                "gamma = 0 requires an explicit initial_distribution; "
                "the stationary distribution is undefined"
            )

    @property
    def coupling_magnitude(self) -> float:
        return float(np.linalg.norm(self.g))


@dataclass(frozen=True)
class SystemSpec:
    """Static field plus a set of independent fluctuators.

    ``white_noise`` holds optional per-axis white-noise variances
    ``(v_x, v_y, v_z)``; these enter the continuous-time generator only.
    At most ``DEFAULT_FLUCTUATOR_CAP`` fluctuators are accepted.
    """

    b0: float
    fluctuators: tuple[FluctuatorSpec, ...]
    white_noise: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.b0) or self.b0 < 0:
            raise ValueError(f"b0 must be >= 0, got {self.b0}")
        flucts = tuple(self.fluctuators)
        object.__setattr__(self, "fluctuators", flucts)
        if len(flucts) < 1:
            raise ValueError("at least one fluctuator is required")
        if len(flucts) > DEFAULT_FLUCTUATOR_CAP:
            raise ValueError(
                f"{len(flucts)} fluctuators exceed the cap of {DEFAULT_FLUCTUATOR_CAP} "
                f"(superoperator dimension 3 * 2**N)"
            )
        if self.white_noise is not None:
            wn = _as_vector3(self.white_noise, "white_noise")
            if np.any(wn < 0):
                raise ValueError("white-noise variances must be >= 0")
            wn.setflags(write=False)
            object.__setattr__(self, "white_noise", wn)

    @property
    def n_fluctuators(self) -> int:
        return len(self.fluctuators)

    @property
    def dimension(self) -> int:
        """Dimension of the joint fluctuator-Bloch space, 3 * 2**N."""
        return 3 * 2 ** self.n_fluctuators

    def distributions(self) -> tuple[FluctuatorDistribution, ...]:
        """Initial level distribution per fluctuator.

        Uses the explicit override when present, otherwise the stationary
        distribution.
        """
        return tuple(
            f.initial_distribution
            if f.initial_distribution is not None
            else stationary_distribution(f)
            for f in self.fluctuators
        )


@dataclass(frozen=True)
class BlochVector:
    """A point in the Bloch ball, |n| <= 1 up to roundoff."""

    n: np.ndarray

    def __post_init__(self):
        n = _as_vector3(self.n, "n")
        if np.linalg.norm(n) > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector must satisfy |n| <= 1, got |n|={np.linalg.norm(n)}")
        n.setflags(write=False)
        object.__setattr__(self, "n", n)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.n))


def as_bloch_array(n0) -> np.ndarray:
    """Coerce a BlochVector or array-like into a validated 3-array."""
    if isinstance(n0, BlochVector):
        return np.array(n0.n, dtype=float)
    return np.array(BlochVector(np.asarray(n0, dtype=float)).n)


def stationary_distribution(f: FluctuatorSpec) -> FluctuatorDistribution:
    """Equilibrium occupation of the fluctuator levels.

    Detailed balance between the rates ``gamma + eta`` (out of +) and
    ``gamma - eta`` (out of -) gives occupation
    ``(gamma - s * eta) / (2 * gamma)`` for level ``s``.
    """
    if f.gamma <= 0.0:
        raise ValueError(
            "stationary distribution undefined; supply explicit initial distribution"
        )
    p_plus = (f.gamma - f.eta) / (2.0 * f.gamma)
    return FluctuatorDistribution.from_upper(p_plus)


def _switching_probabilities(gamma: float, eta: float, dt: float) -> tuple[float, float]:
    """Checked ``p = gamma*dt``, ``d = eta*dt``: one interval leaves + with
    probability ``p + d`` and - with ``p - d``."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    p = gamma * dt
    d = eta * dt
    if p >= 1.0:
        raise ValueError("dt too large for telegraph limit")
    if p + abs(d) > 1.0:
        raise ValueError("switching probabilities exceed 1; reduce dt")
    return p, d


def _single_fluctuator(sys: SystemSpec) -> FluctuatorSpec:
    """The fluctuator of a one-fluctuator system without white noise; raise otherwise."""
    if sys.n_fluctuators != 1:
        raise ValueError(f"need exactly one fluctuator, got {sys.n_fluctuators}")
    if sys.white_noise is not None and np.any(sys.white_noise > 0):
        raise ValueError("white noise is defined only for the continuous-time generator")
    return sys.fluctuators[0]


def boundary_vectors(
    distributions: Sequence[FluctuatorDistribution],
) -> tuple[np.ndarray, np.ndarray]:
    """Readout and preparation vectors over the joint fluctuator space.

    The ensemble average of any evolution operator is the pairing
    ``readout . operator . prepare`` over fluctuator indices.  Per
    fluctuator the readout vector is ``(1, 1) / sqrt(2)`` (it sums the
    final level index) and the preparation vector is
    ``sqrt(2) * (p_plus, p_minus)``; multiple fluctuators tensor
    together.  The normalization factors are chosen so that
    ``readout . prepare == 1`` with no rescaling.

    Returns
    -------
    (readout, prepare) : complex arrays of length ``2**N``.
    """
    if len(distributions) < 1:
        raise ValueError("at least one distribution is required")
    readout = np.ones(1, dtype=complex)
    prepare = np.ones(1, dtype=complex)
    for dist in distributions:
        levels = np.sqrt(2.0) * np.array([dist.p_plus, dist.p_minus])
        readout = np.multiply.outer(readout, np.array([1.0, 1.0]) / np.sqrt(2.0)).ravel()
        prepare = np.multiply.outer(prepare, levels).ravel()
    return readout, prepare
