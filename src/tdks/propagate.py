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
external potential of u(t), for alpha=0 the frozen forward state's, and the
source) depend on the step midpoint only, so every step takes them once, as
its item of ``system.stage_schedule`` (a required argument), and reads no time
itself: a solve walks the schedule of its step midpoints, built one
``snapshot_blocks`` block at a time, and every fixed-point sweep of an alpha=0
step reuses its item.  The gradient's backward sweep walks the same schedule in
reverse, one ``step_vjp`` (the transpose of a source-free alpha=1 step) per item.

Both stage maps are symmetric, so stepping a trajectory with the opposite
time-step sign reproduces it (used by the reversibility tests).

States are (modes, particles) coefficients; any other shape raises
``PropagationError`` (``step`` compares only the shape, as its kinetic
half-step comes before any ``synthesize`` call).  A stack (B, modes,
particles) of alpha=1 start states is solved in lockstep: ``solve_forward``
of a stack makes one ``step`` call per time step for the whole stack and
returns the B trajectories, each bit-identical to the solve of its start state
alone, since every layer a step calls treats the stack items apart.  A
blow-up of any item ends the whole solve at that step, with the error of the
lowest item that fails there: the error that item's solve alone raises.  A
single start state is solved as the stack of one.  The alpha=0 stage stops its
fixed-point sweeps on the change of everything it is given, so an adjoint
solve takes one terminal state.

A solve returns the stored states and the L2 and H1 norms of each (the L2
norm feeds the blow-up guard), and nothing more.  Every solve checks its norms
against the exponential L2 envelope of ``l2_envelope`` and keeps what it
measured in the trajectory's ``meta``: the envelope
``l2_envelope_measured``/``l2_envelope_bound`` and the form ``constants``
(the ``bound_constants`` dict of its context, which readers reuse instead of
measuring the frozen-state sups again), and its ``ctx`` is the context of the
solve, so every reader takes the trajectory alone.  The form values
B(psi, psi; u(t)) of the stored states are left to the readers that want them,
through ``form_values``, which takes one ``system.stage_fields`` stack per block
of snapshots, as the forms do.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .domain import TdksError, _as_state, check_layout, finite_norms, project, synthesize
from .potentials import density_from_grid, hartree, vxc_rho_derivative
from .system import (
    _bounded_apply,
    bilinear_B,
    bound_constants,
    snapshot_blocks,
    stage_fields,
    stage_schedule,
)

BLOWUP_FACTOR = 1.0e6
MAX_EXP_ARG = 690.0  # keep assembled envelope constants inside float64
FIXED_POINT_TOL = 1e-10  # relative sweep-to-sweep change that ends an alpha=0 stage
FIXED_POINT_MAX_ITER = 50  # sweeps before an alpha=0 stage gives up


class PropagationError(TdksError, RuntimeError):
    pass


class BlowUpError(PropagationError):
    """Norm exceeded the blow-up guard; carries the last good time."""

    def __init__(self, message, t_last, partial=None):
        super().__init__(message)
        self.t_last = t_last
        self.partial = partial


@dataclass(eq=False)
class Trajectory:
    """Snapshots of a solve at every time of its context's grid (``times``, which
    ``_solve`` steps on), per-step diagnostics and its context."""

    states: np.ndarray  # (steps+1, modes, particles)
    l2: np.ndarray
    h1: np.ndarray
    ctx: object
    meta: dict = field(default_factory=dict)
    times: np.ndarray = field(init=False)

    def __post_init__(self):
        spec = self.ctx.basis.spec
        self.times = np.linspace(0.0, spec.horizon, spec.steps + 1)
        if len(self.states) != len(self.times):
            raise PropagationError(f"{len(self.states)} states on a grid of {spec.steps} steps")

    def state_at(self, t):
        """Linear interpolant at t (clamped to [0, T]) of the stored states; t may be (B,)."""
        times = self.times
        t = np.minimum(np.maximum(t, times[0]), times[-1])
        i = np.searchsorted(times[1:-1], t, side="right")  # t in [times[i], times[i + 1]]
        w = ((t - times[i]) / (times[i + 1] - times[i]))[..., None, None]
        return (1.0 - w) * self.states[i] + w * self.states[i + 1]

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
        """Dump t, the L2/H1 norms and Re/Im of ``form_values``."""
        form = form_values(self)
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


def _potential_stage_forward(ctx, dt, d, fields):
    """Phase step of the alpha=1 stage on a state or a stack of states; ``fields``
    is the (external, frozen, source) item of the step midpoint."""
    external, _, f = fields
    psi, _, v = _potential_stage_fields(ctx, external, d)
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


def _norm(x):
    """float(np.linalg.norm(x)) of a complex array, without its dispatch: the same
    expression, the flattened real and imaginary parts each dotted with itself."""
    x = x.ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _potential_stage_adjoint(ctx, t_mid, dt, d, fields):
    """Implicit midpoint for the bounded part: y = d + dt*g((d+y)/2).

    ``fields`` is the (external, frozen, source) item of t_mid, taken once per
    step; each fixed-point sweep applies the bounded operator and adds the
    source with those fields.  t_mid only names the step in the error.
    """
    f = fields[2]

    def g(z):
        h = _bounded_apply(ctx, fields, z)
        if f is not None:
            h = h + f
        return -1j * h

    # an iterate or a change that is not finite ends the stage at once, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, _norm(d))
        y = d + dt * g(d)
        change = 0.0 if np.isfinite(y).all() else math.inf  # the predictor's
        for _ in range(FIXED_POINT_MAX_ITER):
            if not math.isfinite(change):
                break
            y_new = d + dt * g(0.5 * (d + y))
            change = _norm(y_new - y)
            if change <= FIXED_POINT_TOL * scale:
                return y_new
            y = y_new
    why = "diverged"
    if math.isfinite(change):
        why = f"did not converge within {FIXED_POINT_MAX_ITER} sweeps"
    raise PropagationError(
        f"fixed-point iteration {why} at t={t_mid}; a smaller time step (more steps) is the remedy"
    )


def step(ctx, t, dt, d, fields):
    """Second-order one-step map d(t) -> d(t+dt); dt may be negative.

    ``d`` is a state or a stack (B, modes, particles) of states, each item
    stepped as it would be alone.  For alpha=0 a stack holds one state: the
    fixed-point sweeps stop on the change of the whole stack, which is the
    change of each item only when there is one.

    ``fields`` is the (external, frozen, source) item of the midpoint
    t + dt/2 in ``system.stage_schedule`` (frozen is None for alpha=1, source
    None without one), as ``_solve`` hands it to every step; t itself only
    names the step in an error.
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
    if ctx.alpha == 1:
        d = _potential_stage_forward(ctx, dt, d, fields)
    else:
        d = _potential_stage_adjoint(ctx, t + 0.5 * dt, dt, d, fields)
    return half * d


def step_vjp(ctx, dt, d, d_bar, fields):
    """Exact transpose under Re<., .> of the source-free alpha=1 ``step`` from d.

    ``d`` is the (modes, particles) state the step starts from, ``d_bar`` the
    cotangent of the state it ends at, and ``fields`` the step's item of
    ``system.stage_schedule``.  Returns the cotangent of d and the derivative
    with respect to u(t_mid).  The stage is recomputed from the half-kicked d;
    the kinetic half-steps transpose to their conjugate phase.  Grid cotangents
    stay unweighted: the transpose of project is weights * synthesize, and
    K.T @ (weights * r) = weights * (K @ r) because w(x_q - x_r) is symmetric,
    so the weights enter once, in the final project.
    """
    if ctx.alpha != 1 or fields[2] is not None:
        raise PropagationError("step_vjp transposes the source-free alpha=1 step only")
    half, back = _kinetic_phase(ctx, 0.5 * dt), _kinetic_phase(ctx, -0.5 * dt)
    psi, rho, v = _potential_stage_fields(ctx, fields[0], half * d)
    y = synthesize(ctx.basis, back * d_bar)
    phi = _kernels.phase_apply(psi, v, dt)
    # cotangent of v: d phi = -i dt dv phi pairs with y through Im(phi conj y)
    r = dt * (
        np.einsum("qj,qj->q", phi.imag, y.real) - np.einsum("qj,qj->q", phi.real, y.imag)
    )
    s = vxc_rho_derivative(ctx.potentials, rho, ctx.basis.spec.dimension) * r
    if ctx.potentials.include_hartree:
        s = s + hartree(ctx.kernel, r)
    a_bar = project(ctx.basis, _kernels.phase_apply(y, v, -dt) + 2.0 * s[:, None] * psi)
    return back * a_bar, float(ctx._vu @ (ctx.basis.weights * r))


def form_values(traj):
    """B(psi, psi; u(t)) of every stored state of the solve traj in its context,
    evaluated with one ``stage_fields`` stack per block of snapshots."""
    ctx = traj.ctx
    form = np.empty(len(traj.times), dtype=np.complex128)
    for block in snapshot_blocks(ctx.basis, len(traj.times)):
        psi = traj.states[block]
        form[block] = bilinear_B(ctx, stage_fields(ctx, traj.times[block]), psi, psi)
    return form


def l2_envelope(traj):
    """The parts of the L2 Gronwall envelope of the solve traj: the factor
    exp((1 + 2(1-alpha) c0) T) with the exponent capped at ``MAX_EXP_ARG`` (c0 from
    ``traj.meta["constants"]``), the squared norm of the start state, and the
    coefficient norm ||F(t)||^2 at every stored time (zeros without a source)."""
    ctx = traj.ctx
    c0 = (1 - ctx.alpha) * traj.meta["constants"]["c0"]
    factor = float(np.exp(min((1.0 + 2.0 * c0) * ctx.basis.spec.horizon, MAX_EXP_ARG)))
    start_sq = float(traj.l2[0] if ctx.alpha == 1 else traj.l2[-1]) ** 2
    source_sq = np.zeros(len(traj.times))
    if ctx.source is not None:
        for block in snapshot_blocks(ctx.basis, len(traj.times)):
            f = ctx.source_coefficients(traj.times[block])
            source_sq[block] = np.sum(f.real**2 + f.imag**2, axis=(1, 2))
    return factor, start_sq, source_sq


def _check_envelope(traj, constants):
    traj.meta["constants"] = dict(constants)
    factor, start_sq, source_sq = l2_envelope(traj)
    bound = factor * (start_sq + float(np.trapezoid(source_sq, traj.times)))
    measured = float(np.max(traj.l2**2))
    traj.meta["l2_envelope_measured"] = measured
    traj.meta["l2_envelope_bound"] = bound
    if measured > bound * 1.05 + 1e-300:
        raise PropagationError(
            f"norm growth violates the exponential envelope: {measured} > {bound}"
        )


def _solve(ctx, start):
    """Step the stack of start states from 0 toward T (alpha=1) or toward 0 (alpha=0)
    in the ``spec.steps`` steps of ctx.

    ``start`` is a checked (B, modes, particles) stack (of one for alpha=0); the
    items are stepped in lockstep, one ``step`` call per time step, and the B
    trajectories are returned, each bit-identical to the solve of its item alone.
    Every state is stored at its place on the increasing time grid, and each
    item's states and norms are C-contiguous rows of one array.

    A blow-up ends the solve at the first step where any item fails: it raises
    the ``BlowUpError`` of the lowest item that fails at that step, which is the
    error that item's solve alone raises, with its last good time and its good
    states in time order.  No envelope is checked then.
    """
    spec = ctx.basis.spec
    steps = spec.steps
    dt = spec.horizon / steps
    times = np.linspace(0.0, spec.horizon, steps + 1)
    states = np.empty((len(start), steps + 1) + start.shape[1:], dtype=np.complex128)
    l2, h1 = np.empty((2, len(start), steps + 1))
    forward = ctx.alpha == 1
    order = range(steps + 1) if forward else range(steps, -1, -1)
    h = dt if forward else -dt
    d = start
    states[:, order[0]] = d
    l2[:, order[0]], h1[:, order[0]] = finite_norms(ctx.basis, d)
    guard = np.maximum(l2[:, order[0]], 1.0) * BLOWUP_FACTOR
    # each step's midpoint written as step writes it: t + 0.5 * dt
    mids = times[order[:-1]] + 0.5 * h
    for last, i, fields in zip(order, order[1:], stage_schedule(ctx, mids)):
        d = step(ctx, times[last], h, d, fields)
        finite = np.isfinite(d).all(axis=(1, 2))
        ok = len(d) if finite.all() else int(finite.argmin())
        l2[:ok, i], h1[:ok, i] = finite_norms(ctx.basis, d[:ok])
        grown = l2[:ok, i] > guard[:ok]
        if grown.any() or ok < len(d):
            b = int(grown.argmax()) if grown.any() else ok
            if b < ok:
                why = f"norm exceeded {BLOWUP_FACTOR:g} x {'initial' if forward else 'terminal'}"
            else:
                why = "non-finite state"
            good = states[b, : last + 1] if forward else states[b, last:]
            raise BlowUpError(f"{why} at t={times[i]}", times[last], good)
        states[:, i] = d
    trajs, constants = [], bound_constants(ctx)
    for b in range(len(d)):
        traj = Trajectory(states=states[b], l2=l2[b], h1=h1[b], ctx=ctx)
        _check_envelope(traj, constants)
        trajs.append(traj)
    return trajs


def solve_forward(ctx, psi0):
    """Integrate the alpha=1 problem from psi0 over [0, T].

    ``psi0`` is a (modes, particles) state, which gives its trajectory, or a
    stack (B, modes, particles) of states, which gives the list of their B
    trajectories, solved in lockstep; each equals the solve of its state alone.
    """
    if ctx.alpha != 1:
        raise PropagationError("solve_forward needs an alpha=1 context")
    stacked = np.ndim(psi0) == 3
    d = _as_state(ctx.basis, psi0, PropagationError, stacked)
    trajs = _solve(ctx, d if stacked else d[None])
    return trajs if stacked else trajs[0]


def solve_adjoint(ctx, terminal):
    """Integrate the alpha=0 problem backward from the terminal state.

    Implemented as a negative-step solve in physical time; the returned
    trajectory is indexed forward (times increasing from 0 to T).  The terminal
    state is one (modes, particles) state, not a stack: the fixed-point sweeps
    of a step stop per state.
    """
    if ctx.alpha != 0:
        raise PropagationError("solve_adjoint needs an alpha=0 context")
    d = _as_state(ctx.basis, terminal, PropagationError)
    return _solve(ctx, d[None])[0]

