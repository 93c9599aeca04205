"""Hot numeric kernel: the pointwise phase."""

import numpy as np


def phase_apply(psi, v, dt):
    """exp(-i*v*dt) applied pointwise to every particle channel of psi."""
    return np.exp(-1j * dt * v)[:, None] * psi
