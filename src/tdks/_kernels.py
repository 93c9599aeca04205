"""Hot numeric kernel: the pointwise phase."""

import numpy as np


def phase_apply(psi, v, dt):
    """exp(-i*v*dt) applied pointwise to every particle channel of psi; a stack
    (B, nodes) of potentials applies to a stack (B, nodes, particles) item by item."""
    return np.exp(-1j * dt * v)[..., None] * psi
