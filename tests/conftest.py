import numpy as np
import pytest

from qtel import FluctuatorSpec, SystemSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_system(b0=1.0, g=0.3, theta=0.0, gamma=0.1, eta=0.0, white_noise=None):
    """Single-fluctuator system with the coupling tilted by theta from z."""
    gvec = g * np.array([np.sin(theta), 0.0, np.cos(theta)])
    return SystemSpec(
        b0=b0,
        fluctuators=(FluctuatorSpec(g=gvec, gamma=gamma, eta=eta),),
        white_noise=white_noise,
    )


def two_fluctuator_system():
    """Two fluctuators with tilted couplings, unequal rates and imbalances."""
    return SystemSpec(
        b0=1.0,
        fluctuators=(
            FluctuatorSpec(g=[0.2, 0.1, 0.25], gamma=0.15, eta=0.05),
            FluctuatorSpec(g=[-0.1, 0.3, 0.05], gamma=0.6, eta=-0.2),
        ),
    )


@pytest.fixture
def strong_mixed_system():
    """Strong coupling at the mixed working point (the fig2 parameters)."""
    return make_system(b0=1.0, g=0.3, theta=np.pi / 4, gamma=0.1, eta=0.0)


def mixed_fluctuator_system(n, white_noise=None):
    """n fluctuators with distinct tilted couplings and rates, eta alternating in sign."""
    return SystemSpec(
        b0=0.9,
        fluctuators=tuple(
            FluctuatorSpec(
                g=[0.1 + 0.05 * i, -0.2 + 0.07 * i, 0.3 - 0.04 * i],
                gamma=0.1 + 0.15 * i,
                eta=(-1) ** i * (0.02 + 0.03 * i),
            )
            for i in range(n)
        ),
        white_noise=white_noise,
    )
