from dataclasses import replace

import numpy as np
import pytest

from tdks import (
    ControlSignal,
    LineSearchError,
    ObjectiveSpec,
    SystemContext,
    adjoint_sources,
    evaluate_objective,
    optimize,
    random_coefficients,
    reduced_gradient,
    solve_adjoint,
    solve_forward,
    zero_control,
)
from tdks import control
from tdks.control import ControlError, backward_sweep
from tdks.domain import grid_inner, synthesize
from tdks.system import snapshot_blocks

from conftest import (
    at_every_time,
    backward_sweep_per_step,
    h1_riesz_banded,
    make_setup,
    unit_state,
)


def coupling_density(ctx, traj_fwd, traj_adj):
    """Continuous-adjoint oracle: g(t_i) = Re<Vu * Lambda(t_i), P(t_i)> on the shared grid."""
    assert traj_fwd.states.shape == traj_adj.states.shape
    out = np.empty(len(traj_fwd.times))
    for i in range(len(traj_fwd.times)):
        lam = synthesize(ctx.basis, traj_fwd.states[i])
        p = synthesize(ctx.basis, traj_adj.states[i])
        out[i] = grid_inner(ctx.basis, ctx._vu[:, None] * lam, p).real
    return out


@pytest.fixture(scope="module")
def control_setup():
    basis, pot, kernel = make_setup(
        lengths=(3.0,),
        grid=(32,),
        modes=(8,),
        steps=100,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    return ctx, psi0


def test_objective_zero_control_no_tracking(control_setup):
    ctx, psi0 = control_setup
    spec = ObjectiveSpec(nu=1.0)
    val = evaluate_objective(spec, ctx, zero_control(1.0, 100), psi0)[1]
    assert val == 0.0


def test_objective_self_target_leaves_regularisation(control_setup):
    ctx, psi0 = control_setup
    u = ControlSignal(samples=0.3 * np.sin(np.linspace(0, 4, 101)), horizon=1.0)
    traj = solve_forward(replace(ctx, control=u), psi0)
    spec = ObjectiveSpec(
        j1="trajectory",
        j2="terminal",
        nu=0.7,
        target_state=traj.states[-1],
        target_trajectory=traj.state_at,
    )
    val = evaluate_objective(spec, ctx, u, psi0)[1]
    assert abs(val - 0.7 * u.h1_norm_sq) < 1e-12


def test_objective_analytic_ramp():
    basis, pot, kernel = make_setup(
        lengths=(3.0,), grid=(16,), modes=(4,), steps=1000
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    u = ControlSignal(samples=np.linspace(0.0, 1.0, 1001), horizon=1.0)
    spec = ObjectiveSpec(nu=1.0)
    val = evaluate_objective(spec, ctx, u, unit_state(basis, 0))[1]
    assert abs(val - 4.0 / 3.0) < 1e-6


def test_adjoint_sources_trivial_and_perfect_hit(control_setup):
    ctx, psi0 = control_setup
    traj = solve_forward(ctx, psi0)
    term, src = adjoint_sources(ObjectiveSpec(nu=1.0), traj)
    assert np.abs(term).max() == 0 and src is None
    term, _ = adjoint_sources(
        ObjectiveSpec(j2="terminal", nu=1.0, target_state=traj.states[-1]), traj
    )
    assert np.abs(term).max() == 0


def test_terminal_derivative_matches_directional_difference(control_setup):
    ctx, psi0 = control_setup
    traj = solve_forward(ctx, psi0)
    target = unit_state(ctx.basis, 1)
    spec = ObjectiveSpec(j2="terminal", nu=1.0, target_state=target)
    term, _ = adjoint_sources(spec, traj)
    rng = np.random.default_rng(0)
    final = traj.states[-1]

    def j2(state):
        return float(np.sum(np.abs(state - target) ** 2))

    for _ in range(3):
        delta = random_coefficients(ctx.basis, 1, rng, 1.0)
        eps = 1e-6
        fd = (j2(final + eps * delta) - j2(final - eps * delta)) / (2 * eps)
        pairing = -float(np.sum(delta.real * term.real + delta.imag * term.imag))
        assert abs(fd - pairing) / max(abs(fd), 1e-12) < 1e-5


def test_gradient_pure_regularisation_is_exact(control_setup):
    ctx, psi0 = control_setup
    spec = ObjectiveSpec(nu=0.3)
    u = ControlSignal(samples=np.cos(np.linspace(0, 2, 101)), horizon=1.0)
    smooth, raw = reduced_gradient(spec, solve_forward(replace(ctx, control=u), psi0))
    # Riesz representative of the quadratic penalty gradient is 2*nu*u itself
    assert np.abs(smooth.samples - 2 * spec.nu * u.samples).max() < 1e-10

    zero = solve_forward(replace(ctx, control=zero_control(1.0, 100)), psi0)
    smooth0, raw0 = reduced_gradient(spec, zero)
    assert np.abs(raw0).max() == 0 and np.abs(smooth0.samples).max() == 0


def test_gradient_matches_finite_differences(control_setup):
    ctx, psi0 = control_setup
    target = unit_state(ctx.basis, 1)
    spec = ObjectiveSpec(j2="terminal", nu=1e-2, target_state=target)
    rng = np.random.default_rng(42)
    u = ControlSignal(samples=rng.normal(0.0, 0.3, 101), horizon=1.0)
    _, raw = reduced_gradient(spec, solve_forward(replace(ctx, control=u), psi0))
    for idx in (0, 33, 77, 100):
        eps = 3e-5
        up, dn = u.samples.copy(), u.samples.copy()
        up[idx] += eps
        dn[idx] -= eps
        jp = evaluate_objective(spec, ctx, ControlSignal(up, 1.0), psi0)[1]
        jm = evaluate_objective(spec, ctx, ControlSignal(dn, 1.0), psi0)[1]
        fd = (jp - jm) / (2 * eps)
        assert abs(fd - raw[idx]) / max(abs(fd), 1e-12) < 1e-6


def test_gradient_grid_mismatch_rejected(control_setup):
    ctx, psi0 = control_setup
    traj = solve_forward(replace(ctx, control=zero_control(1.0, 55)), psi0)
    with pytest.raises(ControlError):
        reduced_gradient(ObjectiveSpec(nu=1.0), traj)


def test_a_control_on_another_horizon_than_the_solver_grid_is_rejected():
    # the sweep puts each step's derivative on samples n and n + 1, which are the
    # step's ends only when the control samples the solver grid
    basis, pot, kernel = make_setup(
        grid=(16,), modes=(4,), steps=20, control_shape={"kind": "dipole", "amplitude": 1.0}
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    spec = ObjectiveSpec(j2="terminal", nu=1e-2, target_state=unit_state(basis, 1))
    samples = 0.3 * np.sin(np.linspace(0.0, 3.0, 21))
    for horizon in (1.0, 1.0 + 1e-13):
        u = ControlSignal(samples=samples, horizon=horizon)
        reduced_gradient(spec, solve_forward(replace(ctx, control=u), psi0))
    u = ControlSignal(samples=samples, horizon=2.0)
    traj = solve_forward(replace(ctx, control=u), psi0)
    with pytest.raises(ControlError, match="control has horizon 2.0 but the solver grid has 1.0"):
        reduced_gradient(spec, traj)
    with pytest.raises(ControlError, match="horizon"):
        optimize(spec, ctx, u, psi0, iters=1)


def test_optimize_zero_gradient_start(control_setup):
    ctx, psi0 = control_setup
    u, hist = optimize(ObjectiveSpec(nu=1.0), ctx, zero_control(1.0, 100), psi0, iters=5)
    assert len(hist) == 1
    assert np.abs(u.samples).max() == 0


def test_optimize_pure_regularisation_geometric(control_setup, monkeypatch):
    ctx, psi0 = control_setup
    spec = ObjectiveSpec(nu=1.0)
    u0 = ControlSignal(samples=np.sin(np.linspace(0, 3, 101)), horizon=1.0)
    monkeypatch.setattr(control, "STEP_INITIAL", 0.4)
    monkeypatch.setattr(control, "STEP_GROW", 1.0)
    u, hist = optimize(spec, ctx, u0, psi0, iters=10)
    j_vals = [h[0] for h in hist]
    assert all(b < a for a, b in zip(j_vals, j_vals[1:]))
    # accepted step 0.4 contracts u by (1 - 2*nu*0.4) = 0.2 each iteration
    assert np.linalg.norm(u.samples) < 1e-5 * np.linalg.norm(u0.samples)


def test_optimize_tracking_decreases_objective_by_half(control_setup):
    basis, pot, kernel = make_setup(
        lengths=(3.0,),
        grid=(32,),
        modes=(8,),
        steps=100,
        confinement={"kind": "well", "depth": -2.0, "width_fraction": 0.6},
        control_shape={"kind": "dipole", "amplitude": 1.0},
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    target = np.zeros((basis.size, 1), dtype=np.complex128)
    target[0, 0] = np.sqrt(0.8)
    target[1, 0] = np.sqrt(0.2)
    spec = ObjectiveSpec(j2="terminal", nu=1e-3, target_state=target)
    _, hist = optimize(spec, ctx, zero_control(1.0, 100), psi0, iters=20)
    j_vals = [h[0] for h in hist]
    assert all(b <= a for a, b in zip(j_vals, j_vals[1:]))
    assert j_vals[-1] < 0.5 * j_vals[0]


def test_optimize_line_search_failure(control_setup, monkeypatch):
    ctx, psi0 = control_setup
    spec = ObjectiveSpec(nu=1.0)
    u0 = ControlSignal(samples=np.sin(np.linspace(0, 3, 101)), horizon=1.0)
    monkeypatch.setattr(control, "STEP_INITIAL", 1e12)
    monkeypatch.setattr(control, "STEP_GROW", 1.0)
    with pytest.raises(LineSearchError):
        optimize(spec, ctx, u0, psi0, iters=2)


def test_backward_sweep_integrates_the_adjoint_problem(control_setup):
    # the gradient back-propagation is a second-order scheme for the alpha=0
    # problem: its state equals -i * solve_adjoint(...) up to O(dt^2)
    from tdks import solve_adjoint

    ctx, psi0 = control_setup
    basis = ctx.basis
    target = unit_state(basis, 1)
    spec = ObjectiveSpec(j2="terminal", nu=1e-2, target_state=target)
    rng = np.random.default_rng(12)
    u = ControlSignal(samples=rng.normal(0.0, 0.3, basis.spec.steps + 1), horizon=1.0)
    traj = solve_forward(replace(ctx, control=u), psi0)
    _, mu_path = backward_sweep(spec, traj)

    terminal, source = adjoint_sources(spec, traj)
    actx = SystemContext(
        basis=basis,
        potentials=ctx.potentials,
        alpha=0,
        forward=traj,
        kernel=ctx.kernel,
        control=u,
        source=source,
    )
    adj = solve_adjoint(actx, -1j * terminal)
    scale = np.abs(adj.states).max()
    assert np.abs(mu_path - (-1j) * adj.states).max() < 2e-2 * scale

    # and the continuous coupling quadrature approximates the discrete one
    g_cont = coupling_density(ctx, traj, adj)
    g_disc, _ = backward_sweep(spec, traj)
    dt = u.step
    w = np.full(u.samples.size, dt)
    w[0] = w[-1] = 0.5 * dt
    assert np.abs(g_disc - w * g_cont).max() < 2e-2 * np.abs(w * g_cont).max()


def test_objective_spec_validation():
    with pytest.raises(ControlError):
        ObjectiveSpec(nu=0.0)
    with pytest.raises(ControlError):
        ObjectiveSpec(j1="trajectory", nu=1.0)
    with pytest.raises(ControlError):
        ObjectiveSpec(j2="terminal", nu=1.0)
    with pytest.raises(ControlError):
        ObjectiveSpec(j1="sometimes", nu=1.0)
    with pytest.raises(ControlError, match="j2 must be 'none' or 'terminal'"):
        ObjectiveSpec(j2="bogus")


@pytest.mark.parametrize("target", ["target_state", "target_trajectory"])
def test_a_target_of_another_shape_than_the_trajectory_raises(control_setup, target):
    ctx, psi0 = control_setup
    traj = solve_forward(ctx, psi0)
    wrong = np.zeros((ctx.basis.size, 2), dtype=np.complex128)  # two particles, not one
    if target == "target_state":
        spec = ObjectiveSpec(j2="terminal", target_state=wrong)
    else:
        spec = ObjectiveSpec(j1="trajectory", target_trajectory=at_every_time(wrong))
    with pytest.raises(ControlError, match="does not match"):
        evaluate_objective(spec, ctx, zero_control(1.0, 100), psi0)
    with pytest.raises(ControlError, match="does not match"):
        adjoint_sources(spec, traj)
    with pytest.raises(ControlError, match="does not match"):
        backward_sweep(spec, traj)


@pytest.mark.parametrize("target", ["fixed", "moving"])
def test_adjoint_source_items_equal_their_single_time_residuals(control_setup, target):
    ctx, psi0 = control_setup
    u = ControlSignal(samples=0.4 * np.sin(np.linspace(0.0, 5.0, 101)), horizon=1.0)
    traj = solve_forward(replace(ctx, control=u), psi0)
    if target == "fixed":
        fixed = unit_state(ctx.basis, 2)
        target_at, tracked = (lambda t: fixed), at_every_time(fixed)
    else:
        moving = solve_forward(ctx, unit_state(ctx.basis, 1))
        target_at = tracked = moving.state_at
    spec = ObjectiveSpec(j1="trajectory", target_trajectory=tracked)
    times = np.concatenate([
        [0.0, 1.0, 0.123456789, 0.5 + 1e-13, 0.999],  # the ends and times off the grid
        0.5 * (traj.times[:-1] + traj.times[1:]),  # the step midpoints
    ])
    _, source = adjoint_sources(spec, traj)
    stack = source(times)
    assert stack.shape == (len(times),) + psi0.shape
    for t, item in zip(times, stack):
        assert np.array_equal(item, 2 * (traj.state_at(t) - target_at(t)))


def test_backward_sweep_matches_per_step_oracle(control_setup):
    # j1 tracks a moving target and j2 a fixed one under a nonzero control; the
    # sweep's 100 midpoints come in two blocks of the stage schedule (62 and 38)
    ctx, psi0 = control_setup
    assert [b.stop - b.start for b in snapshot_blocks(ctx.basis, 100)] == [62, 38]
    u = ControlSignal(samples=0.4 * np.sin(np.linspace(0.0, 5.0, 101)), horizon=1.0)
    ctx_u = replace(ctx, control=u)
    traj = solve_forward(ctx_u, psi0)
    moving = solve_forward(ctx, unit_state(ctx.basis, 1))
    spec = ObjectiveSpec(
        j1="trajectory",
        j2="terminal",
        nu=1.0,
        target_state=unit_state(ctx.basis, 2),
        target_trajectory=moving.state_at,
    )
    g, mu = backward_sweep(spec, traj)
    g_oracle, mu_oracle = backward_sweep_per_step(spec, ctx_u, traj)
    assert np.abs(g).max() > 0
    assert np.array_equal(g, g_oracle)
    assert np.array_equal(mu, mu_oracle)


@pytest.mark.parametrize("steps", [1, 2, 3, 100, 2000, 100000])
def test_h1_riesz_solve_has_the_bits_of_the_banded_lapack_solve(steps):
    # dt from 1e-10 to 1e8; right-hand sides spanning 1e-8 to 1e8 with exact zeros of
    # both signs, under zero and nonzero controls; below some dt both solves are singular
    rng = np.random.default_rng(steps)
    singular = []
    for dt in sorted([*10.0 ** np.arange(-10, 9), 5e-9, 1.5e-8]):
        for scale in (0.0, 1.0):
            x = scale * rng.standard_normal(steps + 1) * 10.0 ** rng.uniform(-8, 8, steps + 1)
            raw = rng.standard_normal(steps + 1) * 10.0 ** rng.uniform(-8, 8, steps + 1)
            raw[rng.random(steps + 1) < 1 / 3] = 0.0
            raw[rng.random(steps + 1) < 1 / 6] = -0.0
            u = ControlSignal(samples=x, horizon=dt * steps)
            try:
                got = control._h1_riesz(u, raw, 0.5)  # raw becomes the right-hand side
            except ControlError as exc:
                assert "singular" in str(exc)
                got = None
            try:
                want = h1_riesz_banded(u.step, raw)
            except np.linalg.LinAlgError:
                want = None
            assert (got is None) == (want is None), (steps, dt)
            singular.append(got is None)
            if got is not None:
                assert np.array_equal(got, want), (steps, dt)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (steps, dt)
    assert 0 < sum(singular) < len(singular)
    # a right-hand side of -0.0 throughout (nu = 0 adds -0.0 under a negative control):
    # dgtsv's back-solve also subtracts its zeroed second superdiagonal times g[i + 2],
    # which turns -0.0 into +0.0
    u = ControlSignal(samples=np.full(steps + 1, -0.75), horizon=1.0)
    got = control._h1_riesz(u, np.full(steps + 1, -0.0), 0.0)
    want = h1_riesz_banded(u.step, np.full(steps + 1, -0.0))
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(got).sum() == min(steps + 1, 2)


def test_misuse_of_the_gradient_and_the_descent_raises_a_control_error(control_setup):
    ctx, psi0 = control_setup
    spec = ObjectiveSpec(nu=1.0)
    u = zero_control(1.0, ctx.basis.spec.steps)
    sourced = replace(ctx, source=at_every_time(np.zeros_like(psi0)))
    traj = solve_forward(replace(sourced, control=u), psi0)
    with pytest.raises(ControlError, match="controlled forward problem carries no inhomogeneity"):
        reduced_gradient(spec, traj)
    with pytest.raises(ControlError, match="need at least one descent iteration"):
        optimize(spec, ctx, u, psi0, iters=0)


def test_the_gradient_refuses_an_adjoint_solve(control_setup):
    # an alpha=0 trajectory used to end in step_vjp's error, which names neither the
    # gradient nor the trajectory
    ctx, psi0 = control_setup
    spec = ObjectiveSpec(j2="terminal", target_state=psi0)
    adj = solve_adjoint(replace(ctx, alpha=0, forward=solve_forward(ctx, psi0)), psi0)
    for gradient in (reduced_gradient, backward_sweep):
        with pytest.raises(ControlError, match=r"gradient needs a forward \(alpha=1\) solve"):
            gradient(spec, adj)
