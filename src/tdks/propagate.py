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
having been split off exactly.  The fields the middle stage reads (the
external potential of u(t) and, for alpha=0, the fields of the frozen forward
state) depend on the step midpoint only, not on the unknown, so every step
takes them once, as its item of ``system.stage_schedule``: a solve walks the
schedule of its step midpoints, which builds them for one ``snapshot_blocks``
block at a time, and every fixed-point sweep of an alpha=0 step reuses its
item.  The gradient's backward sweep walks the same schedule in reverse.

Both stage maps are symmetric, so stepping a trajectory with the opposite
time-step sign reproduces it (used by the reversibility tests).

States are (modes, particles) coefficients; any other shape raises
``PropagationError`` (``step`` compares only the shape, as its kinetic
half-step comes before any ``synthesize`` call).  A stack (B, modes,
particles) of alpha=1 start states is solved in lockstep: ``solve_forward``
of a stack makes one ``step`` call per time step for the whole stack and
returns the B trajectories, each bit-identical to the solve of its start state
alone, since every layer a step calls treats the stack items apart.  A single
start state is solved as the stack of one.  The alpha=0 stage stops its
fixed-point sweeps on the change of everything it is given, so an adjoint
solve takes one terminal state.

A solve returns the stored states and the L2 and H1 norms of each (the L2
norm feeds the blow-up guard), and nothing more.  Every solve checks its norms
against the exponential L2 envelope of ``l2_envelope`` and keeps what it
measured in the trajectory's ``meta``: the envelope
``l2_envelope_measured``/``l2_envelope_bound`` and the form ``constants``
(the ``bound_constants`` dict of its context, which readers reuse instead of
measuring the frozen-state sups again).  The form values B(psi, psi; u(t)) of
the stored states are left to the readers that want them, through
``form_values``, which evaluates them over blocks of snapshots.
"""

import numbers
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
    stage_schedule,
)

BLOWUP_FACTOR = 1.0e6
MAX_EXP_ARG = 690.0  # keep assembled envelope constants inside float64
FIXED_POINT_TOL = 1e-10  # relative sweep-to-sweep change that ends an alpha=0 stage
FIXED_POINT_MAX_ITER = 50  # sweeps before an alpha=0 stage gives up


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

    def export_diagnostics_csv(self, path, ctx):
        """Dump t, the L2/H1 norms and Re/Im of ``form_values`` in ctx, the solve's context."""
        form = form_values(ctx, self)
        table = np.column_stack((self.times, self.l2, self.h1, form.real, form.imag))
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


def _stage_potential(ctx, external, rho):
    """The external field plus (when switched on) the Kohn-Sham potential on the grid."""
    if ctx.potentials.has_ks:
        return external + ctx._ks_grid(rho)
    return external


def _potential_stage_fields(ctx, external, a):
    """Grid state psi, density rho and potential v of the half-kicked coefficients a."""
    psi = synthesize(ctx.basis, a)
    rho = density_from_grid(psi)
    return psi, rho, _stage_potential(ctx, external, rho)


def _potential_stage_forward(ctx, t_mid, dt, d, external):
    """Phase step of the alpha=1 stage on a state or a stack of states; ``external``
    is the field at t_mid, where the source is read."""
    psi, _, v = _potential_stage_fields(ctx, external, d)
    f = ctx.source_coefficients(t_mid)
    if f is None:
        psi = _kernels.phase_apply(psi, v, dt)
    else:
        f_grid = synthesize(ctx.basis, f)
        # midpoint density prediction: with a source the modulus is not conserved
        psi_half = psi - 0.5j * dt * (v[..., None] * psi + f_grid)
        v = _stage_potential(ctx, external, density_from_grid(psi_half))
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


def _potential_stage_adjoint(ctx, t_mid, dt, d, fields):
    """Implicit midpoint for the bounded part: y = d + dt*g((d+y)/2).

    ``fields`` is the (external, frozen) pair at t_mid, taken once per step,
    and the source at t_mid is evaluated once; each fixed-point sweep applies
    the bounded operator with those fields.
    """
    f = ctx.source_coefficients(t_mid)

    def g(z):
        h = _bounded_apply(ctx, fields, z)
        if f is not None:
            h = h + f
        return -1j * h

    scale = max(1.0, float(np.linalg.norm(d)))
    y = d + dt * g(d)
    for _ in range(FIXED_POINT_MAX_ITER):
        y_new = d + dt * g(0.5 * (d + y))
        if np.linalg.norm(y_new - y) <= FIXED_POINT_TOL * scale:
            return y_new
        y = y_new
    raise PropagationError(
        f"fixed-point iteration did not converge within {FIXED_POINT_MAX_ITER} sweeps"
        f" at t={t_mid}; a smaller time step (more steps) is the remedy"
    )


def step(ctx, t, dt, d, *, fields=None):
    """Second-order one-step map d(t) -> d(t+dt); dt may be negative.

    ``d`` is a state or a stack (B, modes, particles) of states, each item
    stepped as it would be alone.  For alpha=0 a stack holds one state: the
    fixed-point sweeps stop on the change of the whole stack, which is the
    change of each item only when there is one.

    ``fields`` is the (external, frozen) pair of the midpoint t + dt/2, its
    item of ``system.stage_schedule`` (frozen is None for alpha=1), as
    ``_solve`` hands it to every step; without it the step takes the pair
    from a schedule of that one midpoint.
    """
    stacked = np.ndim(d) == 3
    check_layout(np.shape(d), ctx.basis.size, PropagationError, stacked)
    if stacked and ctx.alpha == 0 and len(d) != 1:
        raise PropagationError(
            "an alpha=0 step takes one state: its fixed-point sweeps stop per state"
        )
    if dt == 0.0:
        return np.array(d, dtype=np.complex128, copy=True)
    d = np.asarray(d, dtype=np.complex128)
    half = _kinetic_phase(ctx, 0.5 * dt)
    d = half * d
    t_mid = t + 0.5 * dt
    if fields is None:
        (fields,) = stage_schedule(ctx, [t_mid])
    if ctx.alpha == 1:
        d = _potential_stage_forward(ctx, t_mid, dt, d, fields[0])
    else:
        d = _potential_stage_adjoint(ctx, t_mid, dt, d, fields)
    return half * d


def form_values(ctx, traj):
    """B(psi, psi; u(t)) of every stored state of the solve traj in ctx, evaluated
    over blocks of snapshots."""
    form = np.empty(len(traj.times), dtype=np.complex128)
    for block in snapshot_blocks(ctx.basis, len(traj.times)):
        psi = traj.states[block]
        form[block] = bilinear_B(ctx, traj.times[block], psi, psi)
    return form


def l2_envelope(ctx, traj):
    """The parts of the L2 Gronwall envelope of the solve traj in ctx: the factor
    exp((1 + 2(1-alpha) c0) T) with the exponent capped at ``MAX_EXP_ARG`` (c0 from
    ``traj.meta["constants"]``), the squared norm of the start state, and the
    coefficient norm ||F(t)||^2 at every stored time (zeros without a source)."""
    c0 = (1 - ctx.alpha) * traj.meta["constants"]["c0"]
    horizon = abs(float(traj.times[-1] - traj.times[0]))
    factor = float(np.exp(min((1.0 + 2.0 * c0) * horizon, MAX_EXP_ARG)))
    start_sq = float(traj.l2[0] if ctx.alpha == 1 else traj.l2[-1]) ** 2
    source_sq = np.zeros(len(traj.times))
    if ctx.source is not None:
        for i, t in enumerate(traj.times):
            f = ctx.source_coefficients(t)
            source_sq[i] = np.sum(f.real**2 + f.imag**2)
    return factor, start_sq, source_sq


def _check_envelope(ctx, traj):
    traj.meta["constants"] = bound_constants(ctx)
    factor, start_sq, source_sq = l2_envelope(ctx, traj)
    bound = factor * (start_sq + float(np.trapezoid(source_sq, traj.times)))
    measured = float(np.max(traj.l2**2))
    traj.meta["l2_envelope_measured"] = measured
    traj.meta["l2_envelope_bound"] = bound
    if measured > bound * 1.05 + 1e-300:
        raise PropagationError(
            f"norm growth violates the exponential envelope: {measured} > {bound}"
        )


def _solve(ctx, start, steps):
    """Step the stack of start states from 0 toward T (alpha=1) or toward 0 (alpha=0).

    ``start`` is a checked (B, modes, particles) stack (of one for alpha=0); the
    items are stepped in lockstep, one ``step`` call per time step, and the B
    trajectories are returned, each bit-identical to the solve of its item alone.
    Every state is stored at its place on the increasing time grid, and each
    item's states and norms are C-contiguous rows of one array.

    A blow-up raises the error that solving the items one at a time would raise
    first: that of the lowest item that blows up, with its last good time and its
    good states in time order.  So a blown-up item and every item after it leave
    the stack, the items before it run to the end and pass the envelope check
    first, and then its error is raised.
    """
    spec = ctx.basis.spec
    dt = spec.horizon / steps
    times = np.linspace(0.0, spec.horizon, steps + 1)
    states = np.empty((len(start), steps + 1) + start.shape[1:], dtype=np.complex128)
    l2, h1 = np.empty((2, len(start), steps + 1))
    forward = ctx.alpha == 1
    order = range(steps + 1) if forward else range(steps, -1, -1)
    h = dt if forward else -dt
    d = start
    states[:, order[0]] = d
    l2[:, order[0]], h1[:, order[0]] = norms(ctx.basis, d)
    guard = np.maximum(l2[:, order[0]], 1.0) * BLOWUP_FACTOR
    failure = None
    # each step's midpoint written as step writes it: t + 0.5 * dt
    mids = times[order[:-1]] + 0.5 * h
    for last, i, fields in zip(order, order[1:], stage_schedule(ctx, mids)):
        d = step(ctx, times[last], h, d, fields=fields)
        finite = np.isfinite(d).all(axis=(1, 2))
        ok = len(d) if finite.all() else int(finite.argmin())
        l2_i, h1_i = norms(ctx.basis, d[:ok])
        grown = l2_i > guard[:ok]
        live = int(grown.argmax()) if grown.any() else ok
        if live < len(d):
            if live < ok:
                why = f"norm exceeded {BLOWUP_FACTOR:g} x {'initial' if forward else 'terminal'}"
            else:
                why = "non-finite state"
            good = states[live, : last + 1] if forward else states[live, last:]
            failure = BlowUpError(f"{why} at t={times[i]}", times[last], good)
            d = d[:live]
        states[:live, i] = d
        l2[:live, i], h1[:live, i] = l2_i[:live], h1_i[:live]
        if not live:
            break
    trajs = []
    for b in range(len(d)):
        traj = Trajectory(times=times, states=states[b], l2=l2[b], h1=h1[b])
        _check_envelope(ctx, traj)
        trajs.append(traj)
    if failure is not None:
        raise failure
    return trajs


def _step_count(ctx, steps):
    """``steps``, or the spec's count when it is None, as a positive int."""
    steps = ctx.basis.spec.steps if steps is None else steps
    if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 1:
        raise PropagationError(f"the step count must be a positive integer, got {steps!r}")
    return int(steps)


def solve_forward(ctx, psi0, steps=None):
    """Integrate the alpha=1 problem from psi0 over [0, T].

    ``psi0`` is a (modes, particles) state, which gives its trajectory, or a
    stack (B, modes, particles) of states, which gives the list of their B
    trajectories, solved in lockstep; each equals the solve of its state alone.
    """
    if ctx.alpha != 1:
        raise PropagationError("solve_forward needs an alpha=1 context")
    steps = _step_count(ctx, steps)
    stacked = np.ndim(psi0) == 3
    d = _as_state(ctx.basis, psi0, PropagationError, stacked)
    trajs = _solve(ctx, d if stacked else d[None], steps)
    return trajs if stacked else trajs[0]


def solve_adjoint(ctx, terminal, steps=None):
    """Integrate the alpha=0 problem backward from the terminal state.

    Implemented as a negative-step solve in physical time; the returned
    trajectory is indexed forward (times increasing from 0 to T).  The time
    grid must be an integer refinement of the stored forward grid so the
    frozen-state interpolation error stays controlled.  The terminal state is
    one (modes, particles) state, not a stack: the fixed-point sweeps of a step
    stop per state.
    """
    if ctx.alpha != 0:
        raise PropagationError("solve_adjoint needs an alpha=0 context")
    spec = ctx.basis.spec
    steps = _step_count(ctx, steps)
    fwd_times = ctx.forward.times
    fwd_steps = len(fwd_times) - 1
    if abs(fwd_times[-1] - spec.horizon) > 1e-12 * max(1.0, spec.horizon):
        raise PropagationError("forward trajectory does not cover [0, T]")
    if steps % fwd_steps != 0:
        raise PropagationError(
            f"adjoint grid ({steps} steps) must be an integer refinement of the "
            f"forward grid ({fwd_steps} steps)"
        )
    d = _as_state(ctx.basis, terminal, PropagationError)
    return _solve(ctx, d[None], steps)[0]


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
