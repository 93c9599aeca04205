import csv
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from tdks import (
    BlowUpError,
    ControlSignal,
    PropagationError,
    adjoint_context,
    bilinear_B,
    bound_constants,
    form_values,
    forward_context,
    hartree,
    ks_potential,
    potentials,
    project,
    propagate,
    random_coefficients,
    rhs,
    solve_adjoint,
    solve_forward,
    step,
    synthesize,
    vxc_rho_derivative,
    zero_control,
)
from tdks.propagate import (
    _potential_stage_fields,
    _potential_stage_forward,
    _potential_stage_vjp,
    write_csv,
)
from tdks.signals import SignalError
from tdks.system import FrozenFields, frozen_fields, snapshot_blocks

from conftest import (
    adjoint_solve_per_sweep,
    frozen_trajectory,
    galerkin_matrix,
    make_setup,
    unit_state,
)


@pytest.fixture(scope="module")
def free_setup():
    return make_setup(
        grid=(48,),
        modes=(16,),
        steps=400,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )


def test_free_single_mode_phase_oracle(free_setup):
    basis, pot, _ = free_setup
    ctx = forward_context(basis, pot)
    k = 6
    traj = solve_forward(ctx, unit_state(basis, k))
    expect = np.exp(-1j * basis.eigenvalues[k] * basis.spec.horizon)
    assert abs(traj.states[-1][k, 0] - expect) < 1e-8
    assert np.abs(traj.l2 - 1.0).max() < 1e-12


def test_zero_initial_state_stays_zero(free_setup):
    basis, pot, _ = free_setup
    ctx = forward_context(basis, pot)
    traj = solve_forward(ctx, np.zeros((basis.size, 1)))
    assert np.abs(traj.states).max() == 0


def test_nonlinear_norm_conservation():
    basis, pot, kernel = make_setup(grid=(48,), modes=(12,), steps=600)
    ctx = forward_context(basis, pot, kernel=kernel)
    psi0 = np.zeros((basis.size, 1), dtype=np.complex128)
    psi0[0, 0], psi0[1, 0], psi0[2, 0] = 0.9, 0.3, 0.1j
    psi0 /= np.linalg.norm(psi0)
    traj = solve_forward(ctx, psi0)
    drift = np.abs(traj.l2**2 - traj.l2[0] ** 2).max() / traj.l2[0] ** 2
    assert drift < 1e-6


def test_step_identity_at_small_dt():
    basis, pot, kernel = make_setup(grid=(32,), modes=(8,))
    ctx = forward_context(basis, pot, kernel=kernel)
    rng = np.random.default_rng(0)
    d = random_coefficients(basis, 1, rng, 1.0)
    assert np.abs(step(ctx, 0.0, 0.0, d) - d).max() == 0
    speed = np.linalg.norm(rhs(ctx, 0.0, d))
    for eps in (1e-4, 1e-5, 1e-6):
        moved = np.linalg.norm(step(ctx, 0.0, eps, d) - d)
        assert moved < 1.5 * speed * eps


def _cosine_ctx(amplitude, modes=8, grid=32):
    basis, pot, _ = make_setup(
        grid=(grid,),
        modes=(modes,),
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )
    v = amplitude * np.cos(2 * np.pi * basis.nodes[:, 0])
    from tdks import PotentialConfig

    pot = PotentialConfig(
        coulomb_softening=0.1,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
        confinement=v,
    )
    return forward_context(basis, pot), v


def test_richardson_order_two_against_exponential_oracle():
    ctx, v = _cosine_ctx(1.5)
    basis = ctx.basis
    h_matrix = galerkin_matrix(basis, v)
    d0 = unit_state(basis, 0)
    exact = expm(-1j * h_matrix) @ d0

    def err(steps):
        d = d0.copy()
        dt = 1.0 / steps
        for i in range(steps):
            d = step(ctx, i * dt, dt, d)
        return np.linalg.norm(d - exact)

    e = {s: err(s) for s in (125, 250, 500)}
    assert 3.5 < e[125] / e[250] < 4.5
    assert 3.5 < e[250] / e[500] < 4.5


def test_constant_potential_exponential_map_oracle():
    ctx, v = _cosine_ctx(0.05)
    basis = ctx.basis
    h_matrix = galerkin_matrix(basis, v)
    d0 = unit_state(basis, 0, amplitude=np.sqrt(0.5))
    d0[1, 0] = np.sqrt(0.5)
    horizon = 0.2
    exact = expm(-1j * h_matrix * horizon) @ d0
    d = d0.copy()
    dt = horizon / 1000
    for i in range(1000):
        d = step(ctx, i * dt, dt, d)
    assert np.linalg.norm(d - exact) < 1e-8


def test_adjoint_frozen_state_matches_real_linear_exponential():
    basis, pot, kernel = make_setup(
        grid=(32,),
        modes=(5,),
        particles=2,
        horizon=0.5,
        steps=200,
        confinement={"kind": "harmonic", "amplitude": 2.0},
    )
    rng = np.random.default_rng(5)
    lam = random_coefficients(basis, 2, rng, 1.0)
    frozen = frozen_trajectory(lam, basis.spec.horizon)
    actx = adjoint_context(basis, pot, forward=frozen, kernel=kernel)

    dim = basis.size * 2
    gen = np.zeros((2 * dim, 2 * dim))
    for i in range(dim):
        for shift, part in ((0, 1.0), (dim, 1.0j)):
            e = np.zeros((basis.size, 2), dtype=np.complex128)
            e[i // 2, i % 2] = part
            r = rhs(actx, 0.0, e).reshape(-1)
            gen[:dim, i + shift] = r.real
            gen[dim:, i + shift] = r.imag
    term = random_coefficients(basis, 2, rng, 1.0)
    z_term = np.concatenate([term.reshape(-1).real, term.reshape(-1).imag])
    z0 = expm(-0.5 * gen) @ z_term
    exact0 = (z0[:dim] + 1j * z0[dim:]).reshape(basis.size, 2)

    errs = {}
    for steps in (200, 400):
        adj = solve_adjoint(actx, term, steps=steps)
        errs[steps] = np.linalg.norm(adj.states[0] - exact0)
    assert errs[200] < 5e-4
    assert 3.0 < errs[200] / errs[400] < 5.0


def test_adjoint_trivial_cases():
    basis, pot, kernel = make_setup(grid=(32,), modes=(6,), steps=100)
    ctx = forward_context(basis, pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel)
    adj = solve_adjoint(actx, np.zeros((basis.size, 1)))
    assert np.abs(adj.states).max() == 0

    # frozen zero forward: the coupling terms vanish and the flow is the
    # linear external one, here compared against its exponential oracle
    frozen_zero = frozen_trajectory(np.zeros((basis.size, 1)), basis.spec.horizon)
    zero_fwd = adjoint_context(basis, pot, forward=frozen_zero, kernel=kernel)
    term = unit_state(basis, 1)
    adj = solve_adjoint(zero_fwd, term, steps=400)
    h_matrix = galerkin_matrix(basis, np.zeros(basis.node_count))
    z = expm(1j * h_matrix * basis.spec.horizon) @ term  # backward linear flow
    assert np.linalg.norm(adj.states[0] - z) < 1e-8


def test_adjoint_requires_refined_grid():
    basis, pot, kernel = make_setup(grid=(32,), modes=(6,), steps=100)
    ctx = forward_context(basis, pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel)
    with pytest.raises(PropagationError):
        solve_adjoint(actx, unit_state(basis, 0), steps=150)
    solve_adjoint(actx, unit_state(basis, 0), steps=200)


def test_time_reversal_consistency():
    basis, pot, kernel = make_setup(grid=(32,), modes=(8,), particles=1, steps=150)
    ctx = forward_context(basis, pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    traj = solve_forward(ctx, psi0)
    # the nonlinear stage is symmetric up to the anti-aliasing truncation
    dt = traj.times[1] - traj.times[0]
    for i in (10, 75, 149):
        back = step(ctx, traj.times[i + 1], -dt, traj.states[i + 1])
        assert np.abs(back - traj.states[i]).max() < 1e-6

    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel)
    adj = solve_adjoint(actx, psi0)
    for i in (5, 80):
        fwd = step(actx, adj.times[i], dt, adj.states[i])
        assert np.abs(fwd - adj.states[i + 1]).max() < 1e-8


def test_adjoint_gronwall_envelope_metadata():
    basis, pot, kernel = make_setup(
        grid=(32,), modes=(6,), steps=150, confinement={"kind": "harmonic", "amplitude": 1.0}
    )
    ctx = forward_context(basis, pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    target = unit_state(basis, 2)

    def source(t):
        return 2.0 * (traj.state_at(t) - target)

    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel, source=source)
    adj = solve_adjoint(actx, -2.0 * (traj.states[-1] - target))
    assert adj.meta["l2_envelope_measured"] <= adj.meta["l2_envelope_bound"]
    assert adj.meta["constants"]["c0"] > 0


def test_solves_store_the_constants_of_their_context():
    # readers take the constants from meta instead of measuring them again, so
    # they must equal what bound_constants measures afresh on the same context
    basis, pot, kernel = make_setup(
        grid=(32,),
        modes=(6,),
        particles=2,
        steps=60,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
    )
    u = ControlSignal(samples=0.5 * np.sin(np.linspace(0.0, 3.0, 61)), horizon=1.0)
    ctx = forward_context(basis, pot, kernel=kernel, control=u)
    psi0 = random_coefficients(basis, 2, np.random.default_rng(8), 1.0)
    traj = solve_forward(ctx, psi0)
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel, control=u)
    adj = solve_adjoint(actx, psi0)
    for solve, solve_ctx in ((traj, ctx), (adj, actx)):
        assert solve.meta["constants"] == bound_constants(solve_ctx)
    assert adj.meta["constants"]["c0"] > 0 and traj.meta["constants"]["c0"] == 0.0


def test_solve_form_values_match_single_calls():
    # form_values walks blocks of snapshots of the stored solve; 61 snapshots of
    # 33 nodes x 2 particles make one full block of 31 and a short one of 30
    basis, pot, kernel = make_setup(
        grid=(32,),
        modes=(6,),
        particles=2,
        steps=60,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
    )
    u = ControlSignal(samples=0.5 * np.sin(np.linspace(0.0, 3.0, 61)), horizon=1.0)
    ctx = forward_context(basis, pot, kernel=kernel, control=u)
    psi0 = random_coefficients(basis, 2, np.random.default_rng(9), 1.0)
    traj = solve_forward(ctx, psi0)
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel, control=u)
    adj = solve_adjoint(actx, psi0)
    for solve, solve_ctx in ((traj, ctx), (adj, actx)):
        form = [bilinear_B(solve_ctx, t, d, d) for t, d in zip(solve.times, solve.states)]
        values = form_values(solve_ctx, solve)
        assert np.array_equal(values.real, np.real(form))
        assert np.array_equal(values.imag, np.imag(form))


def test_solve_makes_no_form_value_call(monkeypatch):
    # a solve returns its states and norms only; the form values are evaluated by
    # form_values, one bilinear_B call per block of snapshots, for the readers
    # that ask for them
    calls = []

    def counted(*args):
        calls.append(args)
        return bilinear_B(*args)

    monkeypatch.setattr(propagate, "bilinear_B", counted)
    basis, pot, kernel = make_setup(grid=(32,), modes=(6,), particles=2, steps=40)
    ctx = forward_context(basis, pot, kernel=kernel)
    psi0 = random_coefficients(basis, 2, np.random.default_rng(5), 1.0)
    traj = solve_forward(ctx, psi0)
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel)
    adj = solve_adjoint(actx, psi0)
    assert calls == []
    form_values(actx, adj)
    assert len(calls) == len(snapshot_blocks(basis, len(adj.times))) == 2


def test_stored_trajectory_diagnostics_run_in_bounded_memory():
    # the form values and the constants of a 2,001-snapshot alpha=0 solve in
    # 1-d (each input stack holds 1 MB of states) evaluate block by block: one
    # whole stack of grid values would take 4.2 MB at once
    basis, pot, kernel = make_setup(
        lengths=(3.0,), grid=(64,), modes=(16,), particles=2, steps=2000
    )
    rng = np.random.default_rng(4)

    def snapshots():
        return np.stack([random_coefficients(basis, 2, rng, 1.0) for _ in range(2001)])

    times = np.linspace(0.0, 1.0, 2001)
    forward = SimpleNamespace(times=times, states=snapshots())
    actx = adjoint_context(basis, pot, forward=forward, kernel=kernel)
    states = snapshots()
    kernel.row_sum_max  # cached on first use; not part of the pass
    tracemalloc.start()
    try:
        form_values(actx, SimpleNamespace(times=times, states=states))
        bound_constants(actx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def refined_adjoint(lengths, grid, modes, fwd_steps):
    """An alpha=0 context under a nonzero control whose frozen state is a
    forward solve of ``fwd_steps`` steps, and its terminal state; the adjoint
    grid refines it twice."""
    basis, pot, kernel = make_setup(
        lengths=lengths,
        grid=grid,
        modes=modes,
        particles=2,
        steps=2 * fwd_steps,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
    )
    u = ControlSignal(samples=0.5 * np.sin(np.linspace(0.0, 3.0, 11)), horizon=1.0)
    rng = np.random.default_rng(len(grid))
    psi0 = random_coefficients(basis, 2, rng, 1.0)
    traj = solve_forward(forward_context(basis, pot, kernel=kernel, control=u), psi0, fwd_steps)
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel, control=u)
    return actx, random_coefficients(basis, 2, rng, 1.0)


def spy_step_fields(monkeypatch):
    """Record the (midpoint, fields) of every ``propagate.step`` call into the returned list."""
    seen, step_one = [], propagate.step

    def spy(ctx, t, dt, d, *, fields=None):
        seen.append((t + 0.5 * dt, fields))
        return step_one(ctx, t, dt, d, fields=fields)

    monkeypatch.setattr(propagate, "step", spy)
    return seen


# (lengths, grid, modes, fwd_steps) of ``refined_adjoint``: a dense and an FFT Hartree apply
REFINED_CASES = [
    pytest.param((3.0,), (32,), (6,), 20, id="1d-dense"),
    pytest.param((3.0,) * 3, (16,) * 3, (2,) * 3, 2, id="3d-fft"),  # 17^3 nodes
]


@pytest.mark.parametrize("lengths, grid, modes, fwd_steps", REFINED_CASES)
def test_adjoint_steps_get_the_fields_of_their_midpoint(monkeypatch, lengths, grid, modes,
                                                        fwd_steps):
    actx, terminal = refined_adjoint(lengths, grid, modes, fwd_steps)
    steps = actx.basis.spec.steps
    assert (actx.kernel.matrix is None) == (len(grid) == 3)
    if len(grid) == 1:
        assert [b.stop - b.start for b in snapshot_blocks(actx.basis, steps)] == [31, 9]
    seen = spy_step_fields(monkeypatch)
    solve_adjoint(actx, terminal)
    times = np.linspace(0.0, 1.0, steps + 1)
    assert [t_mid for t_mid, _ in seen] == [t + 0.5 * -(1.0 / steps) for t in times[:0:-1]]
    for t_mid, (external, frozen) in seen:
        assert np.array_equal(external, actx.external_at(t_mid))
        want = frozen_fields(actx, actx.lambda_at(t_mid))
        for name in FrozenFields._fields:
            assert np.array_equal(getattr(frozen, name), getattr(want, name)), name


@pytest.mark.parametrize("lengths, grid, modes, fwd_steps", REFINED_CASES)
def test_forward_steps_get_the_fields_of_their_midpoint(monkeypatch, lengths, grid, modes,
                                                        fwd_steps):
    # the forward solve walks the same stage schedule: the external field of each
    # step's own midpoint, with no frozen fields
    actx, psi0 = refined_adjoint(lengths, grid, modes, fwd_steps)
    ctx = forward_context(actx.basis, actx.potentials, kernel=actx.kernel, control=actx.control)
    steps = ctx.basis.spec.steps
    seen = spy_step_fields(monkeypatch)
    solve_forward(ctx, psi0)
    times = np.linspace(0.0, 1.0, steps + 1)
    assert [t_mid for t_mid, _ in seen] == [t + 0.5 * (1.0 / steps) for t in times[:-1]]
    for t_mid, (external, frozen) in seen:
        assert np.array_equal(external, ctx.external_at(t_mid))
        assert frozen is None


@pytest.mark.parametrize("with_source", [False, True], ids=["homogeneous", "source"])
def test_adjoint_solve_matches_per_sweep_oracle(with_source):
    actx, terminal = refined_adjoint((3.0,), (32,), (6,), 20)
    if with_source:
        f = random_coefficients(actx.basis, 2, np.random.default_rng(3), 0.5)
        actx = replace(actx, source=lambda t: np.cos(3.0 * t) * f)
    adj = solve_adjoint(actx, terminal)
    states, form = adjoint_solve_per_sweep(actx, terminal, actx.basis.spec.steps)
    assert np.array_equal(adj.states, states)
    values = form_values(actx, adj)
    assert np.array_equal(values.real, form.real)
    assert np.array_equal(values.imag, form.imag)


def test_long_adjoint_solve_holds_one_block_of_step_fields():
    # 1,000 alpha=0 steps on 65 nodes x 2 particles: the step fields come in
    # blocks of 15 midpoints (about 60 kB) and the solve peaks near 0.6 MB; a
    # solve holding every midpoint's fields at once peaks near 7 MB
    basis, pot, kernel = make_setup(
        lengths=(3.0,), grid=(64,), modes=(4,), particles=2, steps=1000
    )
    rng = np.random.default_rng(5)
    states = np.stack([random_coefficients(basis, 2, rng, 1.0) for _ in range(101)])
    forward = SimpleNamespace(times=np.linspace(0.0, 1.0, 101), states=states)
    actx = adjoint_context(basis, pot, forward=forward, kernel=kernel)
    terminal = random_coefficients(basis, 2, rng, 1.0)
    kernel.row_sum_max  # cached on first use; not part of the solve
    tracemalloc.start()
    try:
        solve_adjoint(actx, terminal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("with_source", [False, True], ids=["homogeneous", "source"])
@pytest.mark.parametrize("lengths, grid, modes, fwd_steps", REFINED_CASES)
def test_stacked_forward_solve_matches_single_solves(lengths, grid, modes, fwd_steps,
                                                     with_source):
    # every item of a lockstep solve is its own solve, bit for bit
    actx, _ = refined_adjoint(lengths, grid, modes, fwd_steps)
    basis = actx.basis
    ctx = forward_context(basis, actx.potentials, kernel=actx.kernel, control=actx.control)
    if with_source:
        f = random_coefficients(basis, 2, np.random.default_rng(4), 0.5)
        ctx = replace(ctx, source=lambda t: np.cos(3.0 * t) * f)
    rng = np.random.default_rng(6)
    starts = np.stack([random_coefficients(basis, 2, rng, r) for r in (1.0, 0.3, 2.0)])
    trajs = solve_forward(ctx, starts)
    assert isinstance(trajs, list) and len(trajs) == len(starts)
    for start, traj in zip(starts, trajs):
        alone = solve_forward(ctx, start)
        for name in ("times", "states", "l2", "h1"):
            got = getattr(traj, name)
            assert np.array_equal(got, getattr(alone, name)), name
            assert got.flags.c_contiguous, name
        assert traj.meta == alone.meta


@pytest.mark.parametrize("scales", [(1e3, 1.0, 3e5), (1e3, 1.0, -1.0)], ids=["one", "two"])
def test_stacked_blowup_raises_the_error_of_the_second_item_alone(scales):
    # a unit start trips the guard after a few steps, a large one does not: the
    # third item runs to the end or blows up at the same step as the second, and
    # either way the second item's own error is raised, as solving the items one
    # at a time would
    basis, pot, _ = make_setup(
        grid=(16,),
        modes=(4,),
        steps=10,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )
    src = unit_state(basis, 0, amplitude=5.2e6)
    ctx = forward_context(basis, pot, source=lambda t: src)
    starts = np.stack([c * unit_state(basis, 0) for c in scales])
    solve_forward(ctx, starts[0])
    with pytest.raises(BlowUpError) as alone:
        solve_forward(ctx, starts[1])
    with pytest.raises(BlowUpError) as stacked:
        solve_forward(ctx, starts)
    assert str(stacked.value) == str(alone.value)
    assert stacked.value.t_last == alone.value.t_last
    assert np.array_equal(stacked.value.partial, alone.value.partial)


def test_adjoint_solve_takes_one_terminal_state():
    actx, terminal = refined_adjoint((3.0,), (32,), (6,), 20)
    with pytest.raises(PropagationError, match="not \\(modes, particles\\)"):
        solve_adjoint(actx, np.stack([terminal, terminal]))
    with pytest.raises(PropagationError, match="fixed-point sweeps stop per state"):
        step(actx, 1.0, -0.01, np.stack([terminal, terminal]))


@pytest.mark.parametrize("steps", [0, -3, 2.5, "4", True])
def test_solves_reject_a_step_count_that_is_not_a_positive_integer(steps):
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=4)
    ctx = forward_context(basis, pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    with pytest.raises(PropagationError, match="positive integer"):
        solve_forward(ctx, psi0, steps=steps)
    actx = adjoint_context(basis, pot, forward=solve_forward(ctx, psi0), kernel=kernel)
    with pytest.raises(PropagationError, match="positive integer"):
        solve_adjoint(actx, psi0, steps=steps)
    assert len(solve_forward(ctx, psi0, steps=np.int64(8)).times) == 9


def test_blowup_guard_trips_on_absurd_source():
    basis, pot, _ = make_setup(
        grid=(16,),
        modes=(4,),
        steps=10,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )
    src = unit_state(basis, 0, amplitude=1e8)
    ctx = forward_context(basis, pot, source=lambda t: src)
    with pytest.raises(BlowUpError) as exc:
        solve_forward(ctx, unit_state(basis, 0))
    assert exc.value.t_last >= 0.0


@pytest.mark.parametrize("direction", ["forward", "adjoint"])
def test_blowup_carries_the_good_states_in_time_order(direction):
    basis, pot, _ = make_setup(
        grid=(16,),
        modes=(4,),
        steps=10,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )
    src = unit_state(basis, 0, amplitude=5.2e6)  # trips the guard after a few steps
    start = unit_state(basis, 0)
    forward = direction == "forward"
    if forward:
        ctx, solve = forward_context(basis, pot, source=lambda t: src), solve_forward
    else:
        traj = solve_forward(forward_context(basis, pot), start)
        ctx = adjoint_context(basis, pot, forward=traj, source=lambda t: src)
        solve = solve_adjoint
    with pytest.raises(BlowUpError) as exc:
        solve(ctx, start)

    # replay the solve one step at a time up to the first state past the guard
    steps = basis.spec.steps
    times = np.linspace(0.0, basis.spec.horizon, steps + 1)
    sign = 1 if forward else -1
    index, good = (0 if forward else steps), [start]
    while True:
        d = step(ctx, times[index], sign * basis.spec.horizon / steps, good[-1])
        if np.linalg.norm(d) > propagate.BLOWUP_FACTOR:
            break
        good.append(d)
        index += sign
    assert 1 < len(good) < steps
    assert exc.value.t_last == times[index]
    expect = np.stack(good if forward else good[::-1])
    assert np.array_equal(exc.value.partial, expect)


def test_fixed_point_divergence_reported():
    basis, pot, kernel = make_setup(
        grid=(16,),
        modes=(4,),
        steps=1,
        confinement={"kind": "harmonic", "amplitude": 300.0},
    )
    ctx = forward_context(basis, pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel)
    with pytest.raises(PropagationError, match="fixed-point.*more steps"):
        solve_adjoint(actx, unit_state(basis, 0), steps=1)


def test_trajectory_export(tmp_path):
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=5)
    ctx = forward_context(basis, pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    p1 = tmp_path / "traj.csv"
    p2 = tmp_path / "diag.csv"
    traj.export_csv(p1)
    traj.export_diagnostics_csv(p2, ctx)
    lines = p1.read_text().strip().splitlines()
    assert len(lines) == 7  # header + 6 snapshots
    assert lines[0].split(",")[:3] == ["t", "re_d_k0_p0", "im_d_k0_p0"]
    head = p2.read_text().splitlines()[0]
    assert head == "t,l2_norm,h1_norm,re_b,im_b"


def test_write_csv_bytes_equal_csv_writer(tmp_path):
    header = ["iteration", "objective", "grad_h1_norm", "step"]
    special = [-0.0, 5e-324, 1e16, 1e-5, float("nan"), float("inf"), -float("inf"), 0.1]
    rows = [[i, v, -v, v / 3.0] for i, v in enumerate(special)]
    rows += [[7, *np.random.default_rng(2).standard_normal(3).tolist()]]
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    written = tmp_path / "written.csv"
    write_csv(written, header, iter(rows))
    assert written.read_bytes() == oracle.read_bytes()


def test_control_signal_h1_machinery():
    # ramp u(t) = t on [0, 1]: |u|_L2^2 = 1/3, |u'|_L2^2 = 1
    n = 1000
    u = ControlSignal(samples=np.linspace(0.0, 1.0, n + 1), horizon=1.0)
    assert abs(u.h1_norm_sq - 4.0 / 3.0) < 1e-6
    assert abs(u.value(0.25) - 0.25) < 1e-12
    assert u.sup == 1.0
    assert zero_control(2.0, 10).h1_norm == 0.0
    with pytest.raises(SignalError):
        ControlSignal(samples=np.array([1.0]), horizon=1.0)
    with pytest.raises(SignalError):
        ControlSignal(samples=np.array([1.0, np.nan]), horizon=1.0)
    with pytest.raises(SignalError):
        ControlSignal(samples=np.zeros(5), horizon=0.0)


def _stage_tangent(ctx, t_mid, dt, a, da, du):
    """Tangent-linear map of the source-free potential stage, written out directly."""
    dim = ctx.basis.spec.dimension
    psi, dpsi = synthesize(ctx.basis, a), synthesize(ctx.basis, da)
    rho = np.sum(np.abs(psi) ** 2, axis=1)
    drho = 2.0 * np.sum((np.conj(psi) * dpsi).real, axis=1)
    v = ctx.external_at(t_mid) + ks_potential(ctx.potentials, ctx.kernel, rho, dim)
    dv = du * ctx._vu + vxc_rho_derivative(ctx.potentials, rho, dim) * drho
    dv = dv + hartree(ctx.kernel, drho)
    phase = np.exp(-1j * dt * v)[:, None]
    return project(ctx.basis, phase * dpsi - 1j * dt * dv[:, None] * phase * psi)


@pytest.mark.parametrize(
    "dimension, dense_max_nodes",
    [
        pytest.param(1, None, id="1"),  # 25 nodes: dense Hartree apply
        pytest.param(2, None, id="2"),  # 625 nodes: FFT Hartree apply
        pytest.param(1, 0, id="1-fft"),
        pytest.param(2, 10**4, id="2-dense"),
    ],
)
def test_potential_stage_vjp_dot_product(monkeypatch, dimension, dense_max_nodes):
    if dense_max_nodes is not None:
        monkeypatch.setattr(potentials, "DENSE_MAX_NODES", dense_max_nodes)
    basis, pot, kernel = make_setup(
        lengths=(3.0,) * dimension,
        grid=(24,) * dimension,
        modes=(6,) * dimension,
        particles=2,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
    )
    steps, u0, t_mid, dt = basis.spec.steps, 0.3, 0.4, 0.05

    def ctx_at(u):
        return forward_context(
            basis, pot, kernel=kernel, control=ControlSignal(np.full(steps + 1, u), 1.0)
        )

    ctx = ctx_at(u0)
    assert (kernel.matrix is None) == (basis.node_count > potentials.DENSE_MAX_NODES)
    rng = np.random.default_rng(dimension)
    a, x, y = (random_coefficients(basis, 2, rng, 1.0) for _ in range(3))
    du = 0.7

    def stage(u, d):
        c = ctx_at(u)
        return _potential_stage_forward(c, t_mid, dt, d, c.external_at(t_mid))

    # the oracle is the stage's derivative ...
    eps = 1e-6
    fd = (stage(u0 + eps * du, a + eps * x) - stage(u0 - eps * du, a - eps * x)) / (2 * eps)
    jx = _stage_tangent(ctx, t_mid, dt, a, x, du)
    assert np.abs(fd - jx).max() < 1e-6 * np.abs(jx).max()

    # ... and the VJP is its exact transpose under Re<., .>
    a_bar, u_bar = _potential_stage_vjp(
        ctx, dt, *_potential_stage_fields(ctx, ctx.external_at(t_mid), a), y
    )
    lhs = float(np.sum(jx * np.conj(y)).real)
    rhs_ = float(np.sum(x * np.conj(a_bar)).real) + du * u_bar
    assert abs(lhs - rhs_) <= 1e-12 * abs(lhs)
