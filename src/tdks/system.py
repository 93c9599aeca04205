"""Right-hand side of the coefficient ODE system and its bilinear forms.

One context serves two problems selected by ``alpha``:

  alpha=1  forward evolution  i d' = [kinetic + V_ext + V(rho(d))] d + f
  alpha=0  adjoint evolution  i d' = [kinetic + V_ext + V(rho_frozen)] d
                                      + coupling terms linear in Re<d, frozen> + f

where "frozen" is the stored forward solution interpolated in coefficient
space.  The coupling terms pair the unknown with the frozen state through
the pointwise real channel product and feed it back through the Hartree
kernel and the density derivative of the local potentials; they are
real-linear (not complex-linear), so they are applied matrix-free.

Inner products are linear in the first argument and conjugated in the
second.
"""

from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .domain import grid_inner, project, synthesize
from .potentials import (
    density_from_grid,
    hartree,
    ks_potential,
    potential_sup,
    vxc_rho_derivative,
)
from .signals import zero_control


class SystemError(ValueError):
    pass


# stored snapshots are evaluated in blocks of about this many grid values
# (snapshots x nodes x particles): enough to share one call per operator among
# the snapshots of a small grid, few enough that a block's temporaries stay a
# small part of a run's memory
BLOCK_GRID_VALUES = 2**11


def snapshot_blocks(basis, count):
    """Consecutive slices covering ``count`` stored snapshots, one per block."""
    size = max(1, BLOCK_GRID_VALUES // (basis.node_count * basis.spec.particles))
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


def interpolate_states(times, states, t):
    """Piecewise-linear value at t (clamped to the grid) of states stored at times."""
    t = float(min(max(t, times[0]), times[-1]))
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(max(i, 0), len(times) - 2)
    w = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - w) * states[i] + w * states[i + 1]


@dataclass(eq=False)
class SystemContext:
    """Immutable bundle of everything the ODE right-hand side needs.

    ``control`` defaults to the zero signal.  ``forward`` is required when
    alpha=0: the stored forward trajectory, i.e. an object with increasing
    float ``times`` and complex ``states`` (times, modes, particles) arrays as
    ``solve_forward`` returns it; the frozen state is its piecewise-linear
    interpolant.  ``source`` is an optional callable t -> grid field
    (nodes[, particles]) or coefficient array (modes[, particles]).
    """

    basis: object
    potentials: object
    kernel: object = None
    alpha: int = 1
    control: object = None
    forward: object = None
    source: object = None
    _v0: np.ndarray = field(default=None, repr=False)
    _vu: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.alpha not in (0, 1):
            raise SystemError("alpha selects the problem instance and must be 0 or 1")
        fw = self.forward
        if self.alpha == 0 and not (hasattr(fw, "times") and hasattr(fw, "states")):
            raise SystemError("the adjoint problem (alpha=0) needs the stored forward trajectory")
        if self.control is None:
            self.control = zero_control(self.basis.spec.horizon, self.basis.spec.steps)
        q = self.basis.node_count
        v0 = self.potentials.confinement
        vu = self.potentials.control_shape
        for name, v in (("confinement", v0), ("control_shape", vu)):
            if v is not None and v.shape[0] != q:
                raise SystemError(f"{name} field does not match the quadrature grid")
        self._v0 = v0 if v0 is not None else np.zeros(q)
        self._vu = vu if vu is not None else np.zeros(q)
        if self.potentials.include_hartree and self.kernel is None:
            raise SystemError("Hartree term enabled but no Coulomb kernel supplied")

    # -- frozen forward state ------------------------------------------------

    def lambda_at(self, t):
        return interpolate_states(self.forward.times, self.forward.states, t)

    def u_value(self, t):
        return self.control.value(t)

    def external_at(self, t):
        return self._v0 + self.u_value(t) * self._vu

    def with_control(self, control):
        return replace(self, control=control)

    # -- assembly pieces -----------------------------------------------------

    def _ks_grid(self, rho):
        return ks_potential(self.potentials, self.kernel, rho, self.basis.spec.dimension)

    def source_coefficients(self, t):
        """Inhomogeneity projected onto the basis as (modes, particles), or None."""
        if self.source is None:
            return None
        f = np.asarray(self.source(t))
        if f.shape[0] == self.basis.node_count:
            f = project(self.basis, f.astype(np.complex128))
        else:
            f = f.astype(np.complex128)
        if f.ndim == 1:
            f = f[:, None]
        n = self.basis.spec.particles
        if f.shape == (self.basis.size, 1) and n > 1:
            f = np.repeat(f, n, axis=1)
        if f.shape != (self.basis.size, n):
            raise SystemError("source provider returned an array of unexpected shape")
        return f


# grid fields of a frozen state: lambda (nodes, particles), rho(lambda), V(rho), dV/drho(rho)
FrozenFields = namedtuple("FrozenFields", "grid rho potential dv")


def frozen_fields(ctx, lam):
    """``FrozenFields`` of the frozen coefficients lam, or of a stack of them."""
    lam_g = synthesize(ctx.basis, lam)
    rho = density_from_grid(lam_g)
    dv = vxc_rho_derivative(ctx.potentials, rho, ctx.basis.spec.dimension)
    return FrozenFields(lam_g, rho, ctx._ks_grid(rho), dv)


def coupling_potentials(ctx, psi_g, frozen):
    """Hartree and xc parts (v_H(s), or 0.0 without Hartree, and dV*s) of the coupling
    potential of the grid state psi_g, where s = 2 * sum_j Re(psi_j * conj(lambda_j)).

    ``psi_g`` and ``frozen`` may be stacks over a leading axis."""
    lam_g = frozen.grid
    s = 2.0 * np.einsum("...qj,...qj->...q", psi_g.real, lam_g.real) + 2.0 * np.einsum(
        "...qj,...qj->...q", psi_g.imag, lam_g.imag
    )
    v_h = hartree(ctx.kernel, s) if ctx.potentials.include_hartree else 0.0
    return v_h, frozen.dv * s


def _bounded_apply(ctx, t, d):
    """All non-kinetic operator terms applied to d, as coefficients (without f)."""
    psi = synthesize(ctx.basis, d)
    fld = ctx.external_at(t)[:, None] * psi
    if ctx.alpha == 1:
        if ctx.potentials.has_ks:
            rho = density_from_grid(psi)
            fld += ctx._ks_grid(rho)[:, None] * psi
    else:
        frozen = frozen_fields(ctx, ctx.lambda_at(t))
        fld += frozen.potential[:, None] * psi
        v_h, v_xc = coupling_potentials(ctx, psi, frozen)
        fld += (v_h + v_xc)[:, None] * frozen.grid
    return project(ctx.basis, fld)


def rhs(ctx, t, d):
    """Time derivative d' of the coefficient state at time t."""
    d = np.asarray(d, dtype=np.complex128)
    if d.ndim == 1:
        d = d[:, None]
    if not np.all(np.isfinite(d)):
        raise SystemError("right-hand side called with non-finite coefficients")
    h = ctx.basis.eigenvalues[:, None] * d + _bounded_apply(ctx, t, d)
    f = ctx.source_coefficients(t)
    if f is not None:
        h = h + f
    return -1j * h


def bilinear_B(ctx, t, psi, phi):
    """Quadratic form value B(psi, phi; u(t)); sesquilinear, kinetic + external
    plus (for alpha=0) the frozen coupling potential and the adjoint terms.

    With a (B,) array of times ``t``, ``psi`` and ``phi`` are stacks
    (B, modes, particles) and the result is the (B,) array of the form at
    each time, each item equal to its own single call; a single call is
    evaluated as the stack of one.
    """
    stacked = np.ndim(t) == 1
    same = phi is psi

    def as_stack(d):
        d = np.asarray(d, dtype=np.complex128)
        return d if stacked else np.atleast_2d(d.T).T[None]

    psi = as_stack(psi)
    phi = psi if same else as_stack(phi)
    times = np.atleast_1d(t)
    kin = np.sum(
        (ctx.basis.eigenvalues[:, None] * psi * np.conj(phi)).reshape(len(psi), -1), axis=-1
    )
    psi_g = synthesize(ctx.basis, psi)
    phi_g = psi_g if same else synthesize(ctx.basis, phi)
    external = np.stack([ctx.external_at(s) for s in times])
    total = kin + grid_inner(ctx.basis, external[..., None] * psi_g, phi_g)
    if ctx.alpha == 0:
        frozen = frozen_fields(ctx, np.stack([ctx.lambda_at(s) for s in times]))
        total += grid_inner(ctx.basis, frozen.potential[..., None] * psi_g, phi_g)
        d_h, d_xc = _coupling_forms(ctx, psi_g, phi_g, frozen)
        total += d_h + d_xc
    return total if stacked else complex(total[0])


def _coupling_forms(ctx, psi_g, phi_g, frozen):
    """Hartree and xc parts of the coupling form <v(s) * lambda, phi> on the grid."""
    v_h, v_xc = coupling_potentials(ctx, psi_g, frozen)
    lam_g = frozen.grid
    d_h = 0j
    if ctx.potentials.include_hartree:
        d_h = grid_inner(ctx.basis, v_h[..., None] * lam_g, phi_g)
    return d_h, grid_inner(ctx.basis, v_xc[..., None] * lam_g, phi_g)


def adjoint_D(ctx, t, psi, phi):
    """Adjoint coupling form split into its Hartree and xc-derivative parts."""
    if ctx.alpha != 0:
        raise SystemError("the coupling form belongs to the alpha=0 problem")
    psi_g = synthesize(ctx.basis, psi)
    phi_g = synthesize(ctx.basis, phi)
    frozen = frozen_fields(ctx, ctx.lambda_at(t))
    return _coupling_forms(ctx, psi_g, phi_g, frozen)


def nonlinear_G(ctx, d):
    """Projection of V(rho(d)) * Psi(d) onto every basis mode."""
    psi = synthesize(ctx.basis, d)
    rho = density_from_grid(psi)
    return project(ctx.basis, ctx._ks_grid(rho)[:, None] * psi)


def bound_constants(ctx):
    """Measured ingredients and the assembled form constants.

    The constants follow the proof recipes with every norm measured on the
    grid: c0 bounds the coupling form, c1 the full form against H1 norms,
    c3 closes the coercivity inequality.  For alpha=1 the coupling
    ingredients vanish identically; for alpha=0 the frozen-state sups are
    taken over the stored forward snapshots, evaluated in blocks.  Every
    solve stores this dict as ``meta["constants"]`` of its trajectory.
    """
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
        states = ctx.forward.states
        for block in snapshot_blocks(ctx.basis, len(states)):
            lam_g, rho, v_lam, dv = frozen_fields(ctx, states[block])
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
