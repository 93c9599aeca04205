"""Objective evaluation, adjoint sources, reduced gradient, and descent loop.

The objective is

    J(u) = J1(state trajectory) + J2(final state) + nu * ||u||_H1(0,T)^2

with tracking-type J1 = int ||Psi - target(t)||_L2^2 dt and
J2 = ||Psi(T) - target_T||_L2^2.  Derivatives are taken with respect to the
real pairing Re<.,.>, matching the real channel pairing in the adjoint
coupling terms.  One forward solve plus one backward solve of the alpha=0
problem yields the reduced gradient

    dJ[du] = int Re<Vu * Lambda(t), P(t)> du(t) dt + 2 nu <u, du>_H1

where P solves the adjoint problem from P(T) = -i * (-2 (Lambda(T) - target_T)):
the -i rotation converts the real-pairing Riesz representative of the
terminal objective derivative into the state the backward equation evolves.
The convention is pinned once here and validated by the finite-difference
oracle in the test suite.

The raw gradient lives on the control sample grid; the descent direction is
its H1 Riesz representative, obtained from the tridiagonal discrete
(lumped trapezoid mass + stiffness) solve, whose mass weights are the ones
``ControlSignal.l2_norm_sq`` integrates with, so updates stay in the
admissible control space.  The matrix is diagonally dominant, so the solve
is an elimination without pivoting, with the bits of LAPACK's dgtsv.
"""

from dataclasses import dataclass, replace

import numpy as np

from .domain import TdksError, check_layout
from .propagate import solve_forward, step_vjp
from .signals import ControlSignal
from .system import stage_schedule

STEP_INITIAL = 1.0  # first trial step of the line search
STEP_GROW = 1.5  # growth of the step after an accepted one, up to 1e3 * STEP_INITIAL
GRAD_TOL = 1e-10  # H1 gradient norm below which the descent stops
ARMIJO_C1 = 1e-4  # sufficient-decrease fraction of the line search
MAX_HALVINGS = 30  # rejected step halvings before the line search gives up


class ControlError(TdksError, ValueError):
    pass


class LineSearchError(TdksError, RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Tracking objective configuration.

    ``j1``: "none" or "trajectory" (needs target_trajectory: callable (B,) times -> their
    stack of states, e.g. ``traj.state_at``); ``j2``: "none" or "terminal" (needs target_state).
    Target states are (modes, particles) coefficients; any other shape, or
    one that differs from the tracked trajectory's, raises ``ControlError``.
    ``nu`` weights the control H1 penalty and must be positive.
    """

    j1: str = "none"
    j2: str = "none"
    nu: float = 1.0
    target_state: np.ndarray = None
    target_trajectory: object = None

    def __post_init__(self):
        if self.j1 not in ("none", "trajectory"):
            raise ControlError("j1 must be 'none' or 'trajectory'")
        if self.j2 not in ("none", "terminal"):
            raise ControlError("j2 must be 'none' or 'terminal'")
        if not (self.nu > 0):
            raise ControlError("objective weight nu must be positive")
        if self.j1 == "trajectory" and self.target_trajectory is None:
            raise ControlError("trajectory tracking needs a target trajectory")
        if self.j2 == "terminal" and self.target_state is None:
            raise ControlError("terminal tracking needs a target state")
        if self.target_state is not None:
            target = np.asarray(self.target_state, dtype=np.complex128)
            check_layout(target.shape, None, ControlError)
            object.__setattr__(self, "target_state", target)


def _state_sq(d):
    return np.sum(d.real**2 + d.imag**2, axis=(-2, -1))


def _residual(spec, state, times=None):
    """Psi - target(t) of the J1 term for states at the (B,) times, or Psi - target_T of
    the J2 term when times is None; a target of another shape than the state raises."""
    target = spec.target_state if times is None else spec.target_trajectory(times)
    target = np.asarray(target, dtype=np.complex128)
    if target.shape != state.shape:
        raise ControlError(
            f"target of shape {target.shape} does not match the trajectory's {state.shape}"
        )
    return state - target


def evaluate_objective(spec, ctx, u, psi0):
    """The forward solve from psi0 under the control u, and J(u) of it: (traj, J)."""
    traj = solve_forward(replace(ctx, control=u), psi0)
    j1 = j2 = 0.0
    if spec.j1 == "trajectory":
        vals = _state_sq(_residual(spec, traj.states, traj.times))
        j1 = float(np.trapezoid(vals, traj.times))
    if spec.j2 == "terminal":
        j2 = float(_state_sq(_residual(spec, traj.states[-1])))
    return traj, j1 + j2 + spec.nu * u.h1_norm_sq


def adjoint_sources(spec, traj):
    """Terminal state and inhomogeneity provider for the backward problem.

    Both are real-pairing derivatives of the tracking terms: the terminal is
    -2 (Lambda(T) - target_T); the source is (B,) times -> 2 (Lambda(t) - target(t)).
    """
    final = traj.states[-1]
    if spec.j2 == "terminal":
        terminal = -2.0 * _residual(spec, final)
    else:
        terminal = np.zeros(final.shape, dtype=np.complex128)
    source = None
    if spec.j1 == "trajectory":
        _residual(spec, traj.states[-1:], traj.times[-1:])  # a mismatch raises before a solve

        def source(times):
            return 2.0 * _residual(spec, traj.state_at(times), times)

    return terminal, source


def _h1_riesz(u, raw, nu):
    """Add the derivative of nu * ||u||_H1^2 to raw (in place) and return the H1
    Riesz representative g of the sum: (diag(w) + S) g = raw, with w the lumped
    trapezoid weights ``ControlSignal.l2_norm_sq`` integrates with and S the
    tridiagonal forward-difference stiffness of ``derivative_norm_sq``.

    The solve is Gaussian elimination without row interchanges.  Every pivot it
    divides by is at least |off| = 1/dt, rounding included: the diagonal holds at
    least 1/dt on the first row and 2/dt on the inner ones, and eliminating a row
    takes at most |off| off the next pivot.  So LAPACK's dgtsv, which swaps rows
    only for a pivot smaller than |off|, runs exactly these operations in this
    order on the matrix (its back-solve's term for the zeroed second
    superdiagonal included), and g has its bits, signs of zero too.  Only the
    last pivot can round to 0, once dt/2 is lost against 1/dt (dt <= 1e-8);
    then the solve raises.
    """
    x, dt = u.samples, u.step
    w = np.full(x.size, dt)
    w[0] = w[-1] = 0.5 * dt
    diag = np.full(x.size, 2.0 / dt)
    diag[0] = diag[-1] = 1.0 / dt
    off = -1.0 / dt
    stiff_x = diag * x
    stiff_x[:-1] += off * x[1:]
    stiff_x[1:] += off * x[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        raw += 2.0 * nu * (w * x + stiff_x)
    if not np.all(np.isfinite(raw)):
        raise ControlError("the raw gradient is not finite: nu or the control is too large")
    d, g = (w + diag).tolist(), raw.tolist()
    for i in range(x.size - 1):
        fact = off / d[i]
        d[i + 1] -= fact * off
        g[i + 1] -= fact * g[i]
    if d[-1] == 0.0:
        raise ControlError(f"the H1 Riesz solve is singular: the control step {dt:g} is too small")
    g[-1] /= d[-1]
    g[-2] = (g[-2] - off * g[-1]) / d[-2]
    # dgtsv also subtracts its second superdiagonal, zeroed, times g[i + 2]: kept,
    # since it turns a -0.0 into +0.0
    for i in range(x.size - 3, -1, -1):
        g[i] = (g[i] - off * g[i + 1] - 0.0 * g[i + 2]) / d[i]
    return np.array(g)


def _forward_context(traj):
    """The context of traj, which the gradient needs to be a forward (alpha=1) solve."""
    if traj.ctx.alpha != 1:
        raise ControlError("the gradient needs a forward (alpha=1) solve: traj is not one")
    return traj.ctx


def backward_sweep(spec, traj):
    """Back-propagate the objective derivative through the integrator of the solve traj.

    This is the exact transpose of the splitting scheme, which doubles as a
    second-order integrator of the adjoint problem with the forward solution
    frozen: the backward state relates to the alpha=0 solution P by
    mu(t) = -i P(t) + O(dt^2).  Returns (coupling gradient per u sample on
    the control grid, backward states on the time grid).
    """
    ctx, times, states = _forward_context(traj), traj.times, traj.states
    steps = ctx.basis.spec.steps
    dt = ctx.basis.spec.horizon / steps

    omega = np.full(steps + 1, dt)
    omega[0] = omega[-1] = 0.5 * dt

    # the derivative of the J1 term at every stored state, added to mu there
    tracking = None
    if spec.j1 == "trajectory":
        tracking = 2.0 * omega[:, None, None] * _residual(spec, states, times)
    mu = np.zeros_like(states[-1])
    if spec.j2 == "terminal":
        mu = mu + 2.0 * _residual(spec, states[-1])
    g_mid = np.empty(steps)
    mu_path = np.empty_like(states)
    mu_path[-1] = mu = mu if tracking is None else mu + tracking[-1]
    # the step midpoints of the solve, in reverse, as the solve's schedule takes them
    schedule = stage_schedule(ctx, (times[:-1] + 0.5 * dt)[::-1])
    for n, fields in zip(range(steps - 1, -1, -1), schedule):
        d_bar, g_mid[n] = step_vjp(ctx, dt, states[n], mu, fields)
        mu_path[n] = mu = d_bar if tracking is None else d_bar + tracking[n]

    g_samples = np.zeros(steps + 1)
    g_samples[:-1] += 0.5 * g_mid
    g_samples[1:] += 0.5 * g_mid
    return g_samples, mu_path


def reduced_gradient(spec, traj):
    """Gradient of J at u = traj.ctx.control: returns (H1 Riesz representative, raw gradient).

    The raw vector holds the exact discrete partial derivatives of J with
    respect to the control samples: the analytic derivative of the H1
    penalty plus the coupling term obtained by back-propagating through the
    integrator (the discrete counterpart of pairing Vu*Lambda with the
    solution of the alpha=0 problem).  It is what central finite differences
    of J converge to.  The returned signal is its H1 Riesz representative
    (see ``_h1_riesz``), the steepest-descent direction in the discrete H1
    metric.  ``traj`` is a forward solve under u, whose samples must be those
    of the solver grid: as many as its times, on the same horizon.
    """
    ctx = _forward_context(traj)
    u, steps = ctx.control, ctx.basis.spec.steps
    if u.samples.size != steps + 1:
        raise ControlError(
            f"control has {u.samples.size} samples but the solver grid has {steps + 1}"
        )
    horizon = ctx.basis.spec.horizon
    if abs(u.horizon - horizon) > 1e-12 * horizon:
        raise ControlError(
            f"control has horizon {u.horizon!r} but the solver grid has {horizon!r}"
        )
    if ctx.source is not None:
        raise ControlError("the controlled forward problem carries no inhomogeneity")
    raw, _ = backward_sweep(spec, traj)
    smooth = _h1_riesz(u, raw, spec.nu)
    return ControlSignal(samples=smooth, horizon=u.horizon), raw


def optimize(spec, ctx, u0, psi0, iters=20):
    """Armijo-backtracking gradient descent on J; returns (u*, history).

    At most ``iters`` iterations, stopping early once the H1 gradient norm
    falls below ``GRAD_TOL``.  history rows: (J, H1 gradient norm, step size
    tried first); J is monotone non-increasing by construction.  Raises
    LineSearchError after ``MAX_HALVINGS`` rejected halvings of a step, and
    ControlError when J(u0) or a raw gradient is not finite.
    """
    if iters < 1:
        raise ControlError("need at least one descent iteration")

    u = u0
    traj, j_val = evaluate_objective(spec, ctx, u, psi0)
    if not np.isfinite(j_val):
        raise ControlError(f"J(u0) is {j_val}: nu or the control is too large")
    history = []
    s = STEP_INITIAL
    for _ in range(iters):
        smooth, raw = reduced_gradient(spec, traj)
        gnorm = float(np.sqrt(max(raw @ smooth.samples, 0.0)))
        history.append((j_val, gnorm, s))
        if gnorm < GRAD_TOL:
            break
        direction = -smooth.samples
        slope = float(raw @ direction)
        accepted = False
        for _half in range(MAX_HALVINGS + 1):
            cand = ControlSignal(samples=u.samples + s * direction, horizon=u.horizon)
            traj_new, j_new = evaluate_objective(spec, ctx, cand, psi0)
            if j_new <= j_val + ARMIJO_C1 * s * slope:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            raise LineSearchError(f"line search failed after {MAX_HALVINGS} halvings")
        u, traj, j_val = cand, traj_new, j_new
        s = min(s * STEP_GROW, STEP_INITIAL * 1e3)
    return u, history
