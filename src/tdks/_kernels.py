"""Hot numeric kernels: the particle-summed density and the pointwise phase."""

import numpy as np


def density_from_channels(psi):
    """Particle-summed |psi|^2 on the grid; psi has shape ([B,] nodes, particles)."""
    return np.einsum("...qj,...qj->...q", psi.real, psi.real) + np.einsum(
        "...qj,...qj->...q", psi.imag, psi.imag
    )


def phase_apply(psi, v, dt):
    """exp(-i*v*dt) applied pointwise to every particle channel of psi."""
    return np.exp(-1j * dt * v)[:, None] * psi
