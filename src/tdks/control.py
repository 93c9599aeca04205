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
(mass + stiffness) solve, so updates stay in the admissible control space.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .propagate import (
    _kinetic_phase,
    _potential_stage_fields,
    _potential_stage_vjp,
    solve_forward,
)
from .signals import ControlSignal

ARMIJO_C1 = 1e-4  # sufficient-decrease fraction of the line search
MAX_HALVINGS = 30  # rejected step halvings before the line search gives up


class ControlError(ValueError):
    pass


class LineSearchError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Tracking objective configuration.

    ``j1``: "none" or "trajectory" (needs target_trajectory: callable t -> state,
    e.g. ``traj.state_at``); ``j2``: "none" or "terminal" (needs target_state).
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
            object.__setattr__(
                self, "target_state", np.asarray(self.target_state, dtype=np.complex128)
            )

    def target_at(self, t):
        return np.asarray(self.target_trajectory(t), dtype=np.complex128)


def _state_sq(d):
    return float(np.sum(d.real**2 + d.imag**2))


def _objective_parts(spec, ctx, u, traj):
    j1 = 0.0
    if spec.j1 == "trajectory":
        vals = np.empty(len(traj.times))
        for i, t in enumerate(traj.times):
            vals[i] = _state_sq(traj.states[i] - spec.target_at(t))
        j1 = float(np.trapezoid(vals, traj.times))
    j2 = 0.0
    if spec.j2 == "terminal":
        j2 = _state_sq(traj.states[-1] - spec.target_state)
    reg = spec.nu * u.h1_norm_sq
    return j1, j2, reg


def evaluate_objective(spec, ctx, u, psi0):
    """J(u) with a fresh forward solve from psi0 under the control u."""
    traj = solve_forward(ctx.with_control(u), psi0)
    j1, j2, reg = _objective_parts(spec, ctx, u, traj)
    return j1 + j2 + reg


def adjoint_sources(spec, traj):
    """Terminal state and inhomogeneity provider for the backward problem.

    Both are real-pairing derivatives of the tracking terms: the terminal is
    -2 (Lambda(T) - target_T); the source is t -> 2 (Lambda(t) - target(t)).
    """
    m, n = traj.states.shape[1:]
    if spec.j2 == "terminal":
        terminal = -2.0 * (traj.states[-1] - spec.target_state)
    else:
        terminal = np.zeros((m, n), dtype=np.complex128)
    if spec.j1 == "trajectory":

        def source(t):
            return 2.0 * (traj.state_at(t) - spec.target_at(t))

    else:
        source = None
    return terminal, source


def _h1_matrices(n_samples, dt):
    """Trapezoid mass weights, hat-function mass matrix (banded), and the
    forward-difference stiffness matrix (banded), all on the sample grid."""
    w = np.full(n_samples, dt)
    w[0] = w[-1] = 0.5 * dt
    # banded storage (upper, diag, lower) for solve_banded
    mass_diag = np.full(n_samples, 4.0 * dt / 6.0)
    mass_diag[0] = mass_diag[-1] = 2.0 * dt / 6.0
    mass_off = np.full(n_samples - 1, dt / 6.0)
    stiff_diag = np.full(n_samples, 2.0 / dt)
    stiff_diag[0] = stiff_diag[-1] = 1.0 / dt
    stiff_off = np.full(n_samples - 1, -1.0 / dt)
    return w, (mass_diag, mass_off), (stiff_diag, stiff_off)


def _tridiag_matvec(diag, off, x):
    y = diag * x
    y[:-1] += off * x[1:]
    y[1:] += off * x[:-1]
    return y


def _riesz_solve(w, stiff, raw):
    diag = w + stiff[0]
    off = stiff[1]
    ab = np.zeros((3, raw.size))
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, raw)


def backward_sweep(spec, ctx, traj):
    """Back-propagate the objective derivative through the integrator.

    This is the exact transpose of the splitting scheme, which doubles as a
    second-order integrator of the adjoint problem with the forward solution
    frozen: the backward state relates to the alpha=0 solution P by
    mu(t) = -i P(t) + O(dt^2).  Returns (coupling gradient per u sample on
    the control grid, backward states on the time grid).
    """
    dt = float(traj.times[1] - traj.times[0])
    steps = len(traj.times) - 1

    omega = np.full(steps + 1, dt)
    omega[0] = omega[-1] = 0.5 * dt

    mu = np.zeros_like(traj.states[-1])
    if spec.j2 == "terminal":
        mu = mu + 2.0 * (traj.states[-1] - spec.target_state)
    if spec.j1 == "trajectory":
        mu = mu + 2.0 * omega[-1] * (
            traj.states[-1] - spec.target_at(traj.times[-1])
        )
    g_mid = np.empty(steps)
    mu_path = np.empty_like(traj.states)
    mu_path[-1] = mu
    ahead, back = _kinetic_phase(ctx, 0.5 * dt), _kinetic_phase(ctx, -0.5 * dt)
    for n in range(steps - 1, -1, -1):
        t_mid = traj.times[n] + 0.5 * dt
        # recompute the stage from the stored state, then pull mu back through
        # the kinetic half-steps (their transpose is the conjugate phase)
        fields = _potential_stage_fields(ctx, t_mid, ahead * traj.states[n])
        a_bar, g_mid[n] = _potential_stage_vjp(ctx, dt, *fields, back * mu)
        mu = back * a_bar
        if spec.j1 == "trajectory":
            mu = mu + 2.0 * omega[n] * (traj.states[n] - spec.target_at(traj.times[n]))
        mu_path[n] = mu

    g_samples = np.zeros(steps + 1)
    g_samples[:-1] += 0.5 * g_mid
    g_samples[1:] += 0.5 * g_mid
    return g_samples, mu_path


def reduced_gradient(spec, ctx, u, psi0, forward_traj=None):
    """Gradient of J at u: returns (H1 Riesz representative, raw sample gradient).

    The raw vector holds the exact discrete partial derivatives of J with
    respect to the control samples: the analytic derivative of the H1
    penalty plus the coupling term obtained by back-propagating through the
    integrator (the discrete counterpart of pairing Vu*Lambda with the
    solution of the alpha=0 problem).  It is what central finite differences
    of J converge to.  The returned signal solves
    (mass + stiffness) g_smooth = raw, the steepest-descent direction in the
    discrete H1 metric.
    """
    steps = ctx.basis.spec.steps
    if u.samples.size != steps + 1:
        raise ControlError(
            f"control has {u.samples.size} samples but the solver grid has {steps + 1}"
        )
    if ctx.source is not None:
        raise ControlError("the controlled forward problem carries no inhomogeneity")
    ctx_u = ctx.with_control(u)
    traj = forward_traj if forward_traj is not None else solve_forward(ctx_u, psi0)
    raw, _ = backward_sweep(spec, ctx_u, traj)

    dt = u.step
    w, _, stiff = _h1_matrices(u.samples.size, dt)
    raw += 2.0 * spec.nu * (w * u.samples + _tridiag_matvec(stiff[0], stiff[1], u.samples))
    smooth = _riesz_solve(w, stiff, raw)
    return ControlSignal(samples=smooth, horizon=u.horizon), raw


def optimize(spec, ctx, u0, psi0, iters=20, step_rule=None):
    """Armijo-backtracking gradient descent on J; returns (u*, history).

    ``step_rule`` may set the first step size ``initial``, the stopping
    gradient norm ``grad_tol`` and the step growth ``grow`` after an accepted
    step.  history rows: (J, H1 gradient norm, accepted step size); J is
    monotone non-increasing by construction.  Raises LineSearchError after
    ``MAX_HALVINGS`` rejected halvings of a step.
    """
    rule = {"initial": 1.0, "grad_tol": 1e-10, "grow": 1.5}
    unknown = set(step_rule or {}) - set(rule)
    if unknown:
        raise ControlError(f"step_rule: unknown key {sorted(unknown)[0]!r}")
    rule.update(step_rule or {})
    if iters < 1:
        raise ControlError("need at least one descent iteration")

    u = u0
    traj = solve_forward(ctx.with_control(u), psi0)
    j1, j2, reg = _objective_parts(spec, ctx, u, traj)
    j_val = j1 + j2 + reg
    history = []
    s = float(rule["initial"])
    for _ in range(iters):
        smooth, raw = reduced_gradient(spec, ctx, u, psi0, forward_traj=traj)
        gnorm = float(np.sqrt(max(raw @ smooth.samples, 0.0)))
        history.append((j_val, gnorm, s))
        if gnorm < rule["grad_tol"]:
            break
        direction = -smooth.samples
        slope = float(raw @ direction)
        accepted = False
        for _half in range(MAX_HALVINGS + 1):
            cand = ControlSignal(samples=u.samples + s * direction, horizon=u.horizon)
            traj_new = solve_forward(ctx.with_control(cand), psi0)
            j1, j2, reg = _objective_parts(spec, ctx, cand, traj_new)
            j_new = j1 + j2 + reg
            if j_new <= j_val + ARMIJO_C1 * s * slope:
                accepted = True
                break
            s *= 0.5
        if not accepted:
            raise LineSearchError(f"line search failed after {MAX_HALVINGS} halvings")
        u, traj, j_val = cand, traj_new, j_new
        s = min(s * float(rule["grow"]), float(rule["initial"]) * 1e3)
    return u, history
