"""Time integration of the coefficient system, forward and backward.

The one-step map is a symmetric Strang composition: an exact half-step of
the diagonal kinetic phase, a full step of everything else, and another
kinetic half-step.  For the forward problem (alpha=1) the middle stage is a
pointwise unitary phase on the grid (plus a midpoint-corrected source term
when an inhomogeneity is present), which preserves the discrete L2 norm up
to mode truncation.  The adjoint problem (alpha=0) has non-unitary coupling
terms that act through the real part of the unknown, so its middle stage is
an implicit midpoint solve by fixed-point iteration; the iteration only
sees the bounded (non-stiff) part of the operator, the stiff kinetic term
having been split off exactly.

Both stage maps are symmetric, so stepping a trajectory with the opposite
time-step sign reproduces it (used by the reversibility tests).

States are (modes, particles) coefficients; any other shape raises
``PropagationError`` (``step`` compares only the shape, as its kinetic
half-step comes before any ``synthesize`` call).

The step loop measures only the L2 and H1 norms of each new state (the L2
norm feeds the blow-up guard).  The form values Re/Im B(psi, psi) of the
stored states and the form constants are evaluated after the steps, over
the stored trajectory in blocks of snapshots.  Every solve checks its norms
against the exponential L2 envelope and keeps what it measured in the
trajectory's ``meta``: the envelope
``l2_envelope_measured``/``l2_envelope_bound`` and the form ``constants``
(the ``bound_constants`` dict of its context, which readers reuse instead of
measuring the frozen-state sups again).
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .domain import _as_state, check_layout, norms, project, synthesize
from .potentials import density_from_grid, hartree, vxc_rho_derivative
from .system import (
    SystemContext,
    _bounded_apply,
    bilinear_B,
    bound_constants,
    interpolate_states,
    snapshot_blocks,
)

BLOWUP_FACTOR = 1.0e6


class PropagationError(RuntimeError):
    pass


class BlowUpError(PropagationError):
    """Norm exceeded the blow-up guard; carries the last good time."""

    def __init__(self, message, t_last, partial=None):
        super().__init__(message)
        self.t_last = t_last
        self.partial = partial


@dataclass(eq=False)
class Trajectory:
    """Time-ordered snapshots of a solve plus per-step diagnostics."""

    times: np.ndarray
    states: np.ndarray  # (steps+1, modes, particles)
    l2: np.ndarray
    h1: np.ndarray
    re_b: np.ndarray
    im_b: np.ndarray
    alpha: int
    meta: dict = field(default_factory=dict)

    def state_at(self, t):
        return interpolate_states(self.times, self.states, t)

    def export_csv(self, path):
        """Dump t followed by re/im of every coefficient, mode-major then particle."""
        steps, m, n = self.states.shape
        header = ["t"] + [
            f"{part}_d_k{k}_p{j}" for k in range(m) for j in range(n) for part in ("re", "im")
        ]
        flat = np.ascontiguousarray(self.states, dtype=np.complex128).reshape(steps, -1)
        table = np.column_stack((self.times, flat.view(np.float64)))
        write_csv(path, header, map(np.ndarray.tolist, table))

    def export_diagnostics_csv(self, path):
        table = np.column_stack((self.times, self.l2, self.h1, self.re_b, self.im_b))
        write_csv(path, ["t", "l2_norm", "h1_norm", "re_b", "im_b"], map(np.ndarray.tolist, table))


def write_csv(path, header, rows):
    """A header row, then the rows, comma-separated with CRLF line ends.

    Every field is a Python number (a float written with its shortest repr)
    or a plain name (no comma, quote or line break), so the bytes are those
    ``csv.writer`` writes, without its per-field quoting checks.  Array
    tables are passed as ``map(np.ndarray.tolist, table)``, so only one row
    at a time exists as Python floats.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\r\n")


def _kinetic_phase(ctx, dt):
    """The exact kinetic propagator over dt, as a (modes, 1) factor of the coefficients."""
    return np.exp(-1j * ctx.basis.eigenvalues * dt)[:, None]


def _stage_potential(ctx, t_mid, rho):
    """External plus (when switched on) Kohn-Sham potential on the grid."""
    v = ctx.external_at(t_mid)
    if ctx.potentials.has_ks:
        v = v + ctx._ks_grid(rho)
    return v


def _potential_stage_fields(ctx, t_mid, a):
    """Grid state psi, density rho and potential v of the half-kicked coefficients a."""
    psi = synthesize(ctx.basis, a)
    rho = density_from_grid(psi)
    return psi, rho, _stage_potential(ctx, t_mid, rho)


def _potential_stage_forward(ctx, t_mid, dt, d):
    psi, _, v = _potential_stage_fields(ctx, t_mid, d)
    f = ctx.source_coefficients(t_mid)
    if f is None:
        psi = _kernels.phase_apply(psi, v, dt)
    else:
        f_grid = synthesize(ctx.basis, f)
        # midpoint density prediction: with a source the modulus is not conserved
        psi_half = psi - 0.5j * dt * (v[:, None] * psi + f_grid)
        v = _stage_potential(ctx, t_mid, density_from_grid(psi_half))
        psi = _kernels.phase_apply(psi, v, dt) - 1j * dt * _kernels.phase_apply(
            f_grid, v, 0.5 * dt
        )
    return project(ctx.basis, psi)


def _potential_stage_vjp(ctx, dt, psi, rho, v, b_bar):
    """Exact transpose of the source-free potential stage under Re<., .>.

    (psi, rho, v) are the stage fields of the input coefficients a and b_bar
    is the cotangent of the output project(phase(v) * psi).  Returns the
    cotangent of a and the derivative with respect to u(t_mid).  Grid
    cotangents stay unweighted: the transpose of project is
    weights * synthesize, and K.T @ (weights * r) = weights * (K @ r) because
    w(x_q - x_r) is symmetric, so the weights enter once, in the final project.
    """
    y = synthesize(ctx.basis, b_bar)
    phi = _kernels.phase_apply(psi, v, dt)
    # cotangent of v: d phi = -i dt dv phi pairs with y through Im(phi conj y)
    r = dt * (
        np.einsum("qj,qj->q", phi.imag, y.real) - np.einsum("qj,qj->q", phi.real, y.imag)
    )
    s = vxc_rho_derivative(ctx.potentials, rho, ctx.basis.spec.dimension) * r
    if ctx.potentials.include_hartree:
        s = s + hartree(ctx.kernel, r)
    a_bar = project(ctx.basis, _kernels.phase_apply(y, v, -dt) + 2.0 * s[:, None] * psi)
    return a_bar, float(ctx._vu @ (ctx.basis.weights * r))


def _potential_stage_adjoint(ctx, t_mid, dt, d, tol, max_iter):
    """Implicit midpoint for the bounded part: y = d + dt*g((d+y)/2).

    The source at t_mid is evaluated once; each fixed-point sweep applies the
    bounded operator, frozen forward state included, at t_mid.
    """
    f = ctx.source_coefficients(t_mid)

    def g(z):
        h = _bounded_apply(ctx, t_mid, z)
        if f is not None:
            h = h + f
        return -1j * h

    scale = max(1.0, float(np.linalg.norm(d)))
    y = d + dt * g(d)
    for _ in range(max_iter):
        y_new = d + dt * g(0.5 * (d + y))
        if np.linalg.norm(y_new - y) <= tol * scale:
            return y_new
        y = y_new
    raise PropagationError(
        f"fixed-point iteration did not converge within {max_iter} sweeps at t={t_mid}"
    )


def step(ctx, t, dt, d, fixed_point_tol=1e-10, fixed_point_max_iter=50):
    """Second-order one-step map d(t) -> d(t+dt); dt may be negative."""
    check_layout(np.shape(d), ctx.basis.size, PropagationError)
    if dt == 0.0:
        return np.array(d, dtype=np.complex128, copy=True)
    d = np.asarray(d, dtype=np.complex128)
    half = _kinetic_phase(ctx, 0.5 * dt)
    d = half * d
    t_mid = t + 0.5 * dt
    if ctx.alpha == 1:
        d = _potential_stage_forward(ctx, t_mid, dt, d)
    else:
        d = _potential_stage_adjoint(
            ctx, t_mid, dt, d, fixed_point_tol, fixed_point_max_iter
        )
    return half * d


def _source_norms_sq(ctx, times):
    """||F(t)||_L2^2 (coefficient norm) at every time; zeros without a source."""
    vals = np.zeros(len(times))
    if ctx.source is not None:
        for i, t in enumerate(times):
            f = ctx.source_coefficients(t)
            vals[i] = np.sum(f.real**2 + f.imag**2)
    return vals


def _record(ctx, d, out, i):
    """Store the norms of the state d at index i and return its L2 norm."""
    l2, out["h1"][i] = norms(ctx.basis, d)
    out["l2"][i] = l2
    return l2


def _form_values(ctx, times, states):
    """B(psi, psi; u(t)) of every stored state, evaluated over blocks of snapshots."""
    form = np.empty(len(times), dtype=np.complex128)
    for block in snapshot_blocks(ctx.basis, len(times)):
        psi = states[block]
        form[block] = bilinear_B(ctx, times[block], psi, psi)
    return form


def _check_envelope(ctx, traj, start_norm_sq):
    ing = bound_constants(ctx)
    f_y_sq = float(np.trapezoid(_source_norms_sq(ctx, traj.times), traj.times))
    ctilde0 = (1 - ctx.alpha) * ing["c0"]
    horizon = abs(float(traj.times[-1] - traj.times[0]))
    bound = np.exp((1.0 + 2.0 * ctilde0) * horizon) * (start_norm_sq + f_y_sq)
    measured = float(np.max(traj.l2**2))
    traj.meta["l2_envelope_measured"] = measured
    traj.meta["l2_envelope_bound"] = float(bound)
    traj.meta["constants"] = ing
    if measured > bound * 1.05 + 1e-300:
        raise PropagationError(
            f"norm growth violates the exponential envelope: {measured} > {bound}"
        )


def _solve(ctx, start, steps, *fixed_point):
    """Step from the start state toward T (alpha=1) or toward 0 (alpha=0).

    Every state is stored at its place on the increasing time grid; a blow-up
    carries the last good time and the good states, in time order.  The form
    values of the stored states are evaluated after the steps, in blocks.
    ``fixed_point`` is the alpha=0 (tolerance, sweep limit) pair of ``step``.
    """
    spec = ctx.basis.spec
    dt = spec.horizon / steps
    d = _as_state(ctx.basis, start, PropagationError)
    times = np.linspace(0.0, spec.horizon, steps + 1)
    states = np.empty((steps + 1,) + d.shape, dtype=np.complex128)
    out = {k: np.empty(steps + 1) for k in ("l2", "h1")}
    forward = ctx.alpha == 1
    order = range(steps + 1) if forward else range(steps, -1, -1)
    h = dt if forward else -dt
    states[order[0]] = d
    l2_start = _record(ctx, d, out, order[0])
    guard = max(l2_start, 1.0) * BLOWUP_FACTOR
    for last, i in zip(order, order[1:]):
        d = step(ctx, times[last], h, d, *fixed_point)
        states[i] = d
        good = states[: last + 1] if forward else states[last:]
        if not np.all(np.isfinite(d)):
            raise BlowUpError(f"non-finite state at t={times[i]}", times[last], good)
        if _record(ctx, d, out, i) > guard:
            raise BlowUpError(
                f"norm exceeded {BLOWUP_FACTOR:g} x {'initial' if forward else 'terminal'}"
                f" at t={times[i]}",
                times[last],
                good,
            )
    form = _form_values(ctx, times, states)
    traj = Trajectory(
        times=times,
        states=states,
        **out,
        re_b=np.ascontiguousarray(form.real),
        im_b=np.ascontiguousarray(form.imag),
        alpha=ctx.alpha,
    )
    _check_envelope(ctx, traj, l2_start**2)
    return traj


def solve_forward(ctx, psi0, steps=None):
    """Integrate the alpha=1 problem from psi0 over [0, T]."""
    if ctx.alpha != 1:
        raise PropagationError("solve_forward needs an alpha=1 context")
    steps = int(steps if steps is not None else ctx.basis.spec.steps)
    return _solve(ctx, psi0, steps)


def solve_adjoint(
    ctx,
    terminal,
    steps=None,
    fixed_point_tol=1e-10,
    fixed_point_max_iter=50,
):
    """Integrate the alpha=0 problem backward from the terminal state.

    Implemented as a negative-step solve in physical time; the returned
    trajectory is indexed forward (times increasing from 0 to T).  The time
    grid must be an integer refinement of the stored forward grid so the
    frozen-state interpolation error stays controlled.
    """
    if ctx.alpha != 0:
        raise PropagationError("solve_adjoint needs an alpha=0 context")
    spec = ctx.basis.spec
    steps = int(steps if steps is not None else spec.steps)
    fwd_times = ctx.forward.times
    fwd_steps = len(fwd_times) - 1
    if abs(fwd_times[-1] - spec.horizon) > 1e-12 * max(1.0, spec.horizon):
        raise PropagationError("forward trajectory does not cover [0, T]")
    if steps % fwd_steps != 0:
        raise PropagationError(
            f"adjoint grid ({steps} steps) must be an integer refinement of the "
            f"forward grid ({fwd_steps} steps)"
        )
    return _solve(ctx, terminal, steps, fixed_point_tol, fixed_point_max_iter)


def forward_context(basis, potentials, kernel=None, control=None, source=None):
    return SystemContext(
        basis=basis,
        potentials=potentials,
        kernel=kernel,
        alpha=1,
        control=control,
        source=source,
    )


def adjoint_context(basis, potentials, forward, kernel=None, control=None, source=None):
    return SystemContext(
        basis=basis,
        potentials=potentials,
        kernel=kernel,
        alpha=0,
        control=control,
        forward=forward,
        source=source,
    )
