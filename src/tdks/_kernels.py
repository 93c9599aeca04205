"""Hot numeric kernels: pairwise Coulomb distances, density and the pointwise phase."""

import numpy as np


def pairwise_inverse_distance(points, softening, diagonal):
    """Dense matrix w[i,j] = 1/sqrt(|x_i－x_j|^2 + softening^2), blocked to limit temporaries.

    The i==j entries are overwritten with ``diagonal`` (a cell-averaged value
    supplied by the caller; the raw value is singular for softening == 0).
    """
    pts = np.asarray(points, dtype=np.float64)
    q = pts.shape[0]
    out = np.empty((q, q), dtype=np.float64)
    s2 = float(softening) ** 2
    block = max(1, int(2e7) // max(q, 1))
    for start in range(0, q, block):
        stop = min(start + block, q)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff) + s2
        if s2 == 0.0:
            idx = np.arange(start, stop)
            d2[idx - start, idx] = 1.0  # placeholder, fixed below
        out[start:stop] = 1.0 / np.sqrt(d2)
    np.fill_diagonal(out, diagonal)
    return out


def density_from_channels(psi):
    """Particle-summed |psi|^2 on the grid; psi has shape (nodes, particles)."""
    return np.einsum("qj,qj->q", psi.real, psi.real) + np.einsum(
        "qj,qj->q", psi.imag, psi.imag
    )


def phase_apply(psi, v, dt):
    """exp(-i*v*dt) applied pointwise to every particle channel of psi."""
    return np.exp(-1j * dt * v)[:, None] * psi
