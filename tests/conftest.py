import numpy as np

from tdks import (
    DomainSpec,
    PotentialConfig,
    build_basis,
    build_coulomb_kernel,
    sample_field,
)


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


def unit_state(basis, mode, particles=1, particle=0, amplitude=1.0):
    d = np.zeros((basis.size, particles), dtype=np.complex128)
    d[mode, particle] = amplitude
    return d
