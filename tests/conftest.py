import math
from functools import reduce
from types import SimpleNamespace

import numpy as np

from tdks import (
    DomainSpec,
    PotentialConfig,
    build_basis,
    build_coulomb_kernel,
    sample_field,
)
from tdks.potentials import _cell_average, potential_sup
from tdks.system import frozen_fields
from tdks.verify import _subsample_cells


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


def dense_basis_values(basis):
    """Oracle (modes, nodes) table: values[k, q] = phi_k at node q.

    The row-major outer product of the per-axis sine tables (modes and nodes
    both first axis slowest); in 1-d it is the single axis table itself.
    """

    def combine(a, b):
        out = a[:, None, :, None] * b[None, :, None, :]
        return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])

    return reduce(combine, basis.axis_tables)


def galerkin_matrix(basis, v_field):
    """Independent assembly of the m x m Hamiltonian for a static potential."""
    values = dense_basis_values(basis)
    return np.diag(basis.eigenvalues) + (values * (basis.weights * v_field)) @ values.T


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


def hartree_full_inverse(kernel, rho):
    """Oracle for the FFT branch of ``hartree``: the full ``irfftn`` of the
    padded product, cropped to the nodes."""
    shape = kernel.nodes_per_axis
    stack = rho.shape[:-1]
    padded = tuple(2 * (m - 1) for m in shape)
    axes = tuple(range(-len(shape), 0))
    x = np.fft.rfftn((kernel.weights * rho).reshape(stack + shape), s=padded, axes=axes)
    out = np.fft.irfftn(x * kernel.spectrum, s=padded, axes=axes)
    return out[(...,) + tuple(slice(0, m) for m in shape)].reshape(stack + (-1,))


def unit_state(basis, mode, particles=1, particle=0, amplitude=1.0):
    d = np.zeros((basis.size, particles), dtype=np.complex128)
    d[mode, particle] = amplitude
    return d


def frozen_trajectory(lam, horizon):
    """A stored forward trajectory that stays at lam: two equal snapshots at 0 and T."""
    lam = np.asarray(lam, dtype=np.complex128)
    return SimpleNamespace(times=np.array([0.0, float(horizon)]), states=np.stack([lam, lam]))


def bound_constants_per_snapshot(ctx):
    """Oracle for ``bound_constants``: the frozen-state sups taken one stored
    forward snapshot at a time, with the same assembly of the constants."""
    ing = {
        "v0_sup": potential_sup(ctx.basis, ctx._v0),
        "vu_sup": potential_sup(ctx.basis, ctx._vu),
        "u_sup": ctx.control.sup,
        "particles": float(ctx.basis.spec.particles),
        "kernel_l1": 0.0,
        "lambda_sup": 0.0,
        "dv_rho_sup": 0.0,
        "v_lambda_sup": 0.0,
    }
    c0 = 0.0
    if ctx.alpha == 0:
        if ctx.potentials.include_hartree:
            ing["kernel_l1"] = ctx.kernel.row_sum_max
        for lam_g, rho, v_lam, dv in (frozen_fields(ctx, lam) for lam in ctx.forward.states):
            ing["lambda_sup"] = max(ing["lambda_sup"], float(np.abs(lam_g).max()))
            ing["dv_rho_sup"] = max(ing["dv_rho_sup"], float(np.abs(dv * rho).max()))
            ing["v_lambda_sup"] = max(ing["v_lambda_sup"], float(np.abs(v_lam).max()))
        n_part = ctx.basis.spec.particles
        ing["c0_xc"] = 2.0 * n_part**2 * ing["dv_rho_sup"]
        ing["c0_h"] = 2.0 * n_part**1.5 * ing["kernel_l1"] * ing["lambda_sup"] ** 2
        c0 = ing["c0_xc"] + ing["c0_h"]
    coupling = c0 + ing["v_lambda_sup"]
    ext = ing["v0_sup"] + ing["u_sup"] * ing["vu_sup"]
    ing["c0"] = c0
    ing["c1"] = 1.0 + coupling + ext
    ing["c3"] = 1.0 + coupling + ext
    return ing


def ball_quadrature_whole_grid(n, p, radius, resolution, refine_origin=True):
    """Oracle for ``verify._ball_quadrature``: the same midpoint rule over the
    whole positive octant at once, each sum taken over all its cells."""
    res = int(resolution)
    if res % 2:
        res += 1
    h = 2.0 * radius / res
    axis = (np.arange(res // 2) + 0.5) * h
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    centers = np.stack([m.reshape(-1) for m in mesh], axis=1)
    dist = np.sqrt((centers**2).sum(axis=1))
    half_diag = 0.5 * h * math.sqrt(n)
    core = (dist < 3.0 * h) if refine_origin else np.zeros(dist.shape, dtype=bool)
    inside = (dist <= radius - half_diag) & ~core
    boundary = (~inside) & ~core & (dist < radius + half_diag)
    cell = h**n
    total = float(np.sum(dist[inside] ** (-p))) * cell

    if np.any(core):
        d = _subsample_cells(centers[core], h, n, 11)
        total += float(np.sum(d**(-p))) * cell / d.shape[1]
    if np.any(boundary):
        d = _subsample_cells(centers[boundary], h, n, 5)
        frac = (d <= radius).mean(axis=1)
        vals = dist[boundary] ** (-p)
        total += float(np.sum(vals * frac)) * cell
    return total * 2**n
