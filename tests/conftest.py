import numpy as np

from tdks import (
    DomainSpec,
    PotentialConfig,
    build_basis,
    build_coulomb_kernel,
    sample_field,
)
from tdks.potentials import _cell_average


def make_setup(
    lengths=(1.0,),
    grid=(48,),
    particles=1,
    horizon=1.0,
    steps=400,
    modes=(16,),
    softening=0.1,
    confinement=None,
    control_shape=None,
    **pot_kwargs,
):
    """One-call construction of (basis, potentials, kernel) for 1-d tests."""
    spec = DomainSpec(
        dimension=len(lengths),
        lengths=lengths,
        grid=grid,
        particles=particles,
        horizon=horizon,
        steps=steps,
    )
    basis = build_basis(spec, modes)

    def field(preset):
        params = {k: v for k, v in preset.items() if k != "kind"}
        return sample_field(basis, preset["kind"], params)

    v0 = field(confinement) if confinement else None
    vu = field(control_shape) if control_shape else None
    pot = PotentialConfig(
        coulomb_softening=softening if len(lengths) == 1 else 0.0,
        confinement=v0,
        control_shape=vu,
        **pot_kwargs,
    )
    kernel = None
    if pot.include_hartree:
        kernel = build_coulomb_kernel(basis, pot.coulomb_softening)
    return basis, pot, kernel


def galerkin_matrix(basis, v_field):
    """Independent assembly of the m x m Hamiltonian for a static potential."""
    return np.diag(basis.eigenvalues) + (basis.values * (basis.weights * v_field)) @ basis.values.T


def dense_coulomb_rows(basis, softening, rows=None):
    """Oracle rows K[q, :] = w(x_q - x_r) * weight_r (all rows by default).

    Assembled pair by pair from the node coordinates, independently of the
    offset table; the self pair gets the cell average of w.
    """
    rows = np.arange(basis.node_count) if rows is None else np.asarray(rows)
    diff = basis.nodes[rows, None, :] - basis.nodes[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff) + float(softening) ** 2
    self_pairs = (np.arange(rows.size), rows)
    d2[self_pairs] = 1.0  # placeholder, fixed below
    w = 1.0 / np.sqrt(d2)
    w[self_pairs] = _cell_average(basis.spec.spacings, softening)
    return w * basis.weights[None, :]


def unit_state(basis, mode, particles=1, particle=0, amplitude=1.0):
    d = np.zeros((basis.size, particles), dtype=np.complex128)
    d[mode, particle] = amplitude
    return d
