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
    ObjectiveSpec,
    PropagationError,
    SystemContext,
    bilinear_B,
    adjoint_sources,
    bound_constants,
    build_basis,
    build_coulomb_kernel,
    form_values,
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
from tdks.propagate import Trajectory, _norm, step_vjp, write_csv
from tdks.signals import SignalError
from tdks.system import (
    FrozenFields,
    SystemError,
    frozen_fields,
    snapshot_blocks,
    stage_fields,
    stage_schedule,
)

from conftest import (
    adjoint_solve_per_sweep,
    at_every_time,
    control_value_at,
    galerkin_matrix,
    interpolate_state_at,
    make_setup,
    stored_trajectory,
    unit_state,
    with_steps,
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
    ctx = SystemContext(basis=basis, potentials=pot)
    k = 6
    traj = solve_forward(ctx, unit_state(basis, k))
    expect = np.exp(-1j * basis.eigenvalues[k] * basis.spec.horizon)
    assert abs(traj.states[-1][k, 0] - expect) < 1e-8
    assert np.abs(traj.l2 - 1.0).max() < 1e-12


def test_zero_initial_state_stays_zero(free_setup):
    basis, pot, _ = free_setup
    ctx = SystemContext(basis=basis, potentials=pot)
    traj = solve_forward(ctx, np.zeros((basis.size, 1)))
    assert np.abs(traj.states).max() == 0


def test_nonlinear_norm_conservation():
    basis, pot, kernel = make_setup(grid=(48,), modes=(12,), steps=600)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = np.zeros((basis.size, 1), dtype=np.complex128)
    psi0[0, 0], psi0[1, 0], psi0[2, 0] = 0.9, 0.3, 0.1j
    psi0 /= np.linalg.norm(psi0)
    traj = solve_forward(ctx, psi0)
    drift = np.abs(traj.l2**2 - traj.l2[0] ** 2).max() / traj.l2[0] ** 2
    assert drift < 1e-6


def test_step_identity_at_small_dt():
    basis, pot, kernel = make_setup(grid=(32,), modes=(8,))
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
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
    return SystemContext(basis=basis, potentials=pot), v


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
    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    frozen = stored_trajectory(fwd, [lam, lam])
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=frozen, kernel=kernel)

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
        adj = solve_adjoint(with_steps(actx, steps), term)
        errs[steps] = np.linalg.norm(adj.states[0] - exact0)
    assert errs[200] < 5e-4
    assert 3.0 < errs[200] / errs[400] < 5.0


def test_adjoint_trivial_cases():
    basis, pot, kernel = make_setup(grid=(32,), modes=(6,), steps=100)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel)
    adj = solve_adjoint(actx, np.zeros((basis.size, 1)))
    assert np.abs(adj.states).max() == 0

    # frozen zero forward: the coupling terms vanish and the flow is the
    # linear external one, here compared against its exponential oracle
    frozen_zero = stored_trajectory(ctx, np.zeros((2, basis.size, 1)))
    zero_fwd = SystemContext(
        basis=basis, potentials=pot, alpha=0, forward=frozen_zero, kernel=kernel
    )
    term = unit_state(basis, 1)
    adj = solve_adjoint(with_steps(zero_fwd, 400), term)
    h_matrix = galerkin_matrix(basis, np.zeros(basis.node_count))
    z = expm(1j * h_matrix * basis.spec.horizon) @ term  # backward linear flow
    assert np.linalg.norm(adj.states[0] - z) < 1e-8


def test_adjoint_requires_refined_grid():
    basis, pot, kernel = make_setup(grid=(32,), modes=(6,), steps=100)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel)
    with pytest.raises(SystemError, match="must be an integer refinement"):
        with_steps(actx, 150)
    solve_adjoint(with_steps(actx, 200), unit_state(basis, 0))


def test_time_reversal_consistency():
    basis, pot, kernel = make_setup(grid=(32,), modes=(8,), particles=1, steps=150)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    traj = solve_forward(ctx, psi0)
    # the nonlinear stage is symmetric up to the anti-aliasing truncation
    dt = traj.times[1] - traj.times[0]
    for i in (10, 75, 149):
        back = step(ctx, traj.times[i + 1], -dt, traj.states[i + 1])
        assert np.abs(back - traj.states[i]).max() < 1e-6

    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel)
    adj = solve_adjoint(actx, psi0)
    for i in (5, 80):
        fwd = step(actx, adj.times[i], dt, adj.states[i])
        assert np.abs(fwd - adj.states[i + 1]).max() < 1e-8


def test_adjoint_gronwall_envelope_metadata():
    basis, pot, kernel = make_setup(
        grid=(32,), modes=(6,), steps=150, confinement={"kind": "harmonic", "amplitude": 1.0}
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    target = unit_state(basis, 2)

    def source(t):
        return 2.0 * (traj.state_at(t) - target)

    actx = SystemContext(
        basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel, source=source
    )
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
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel, control=u)
    psi0 = random_coefficients(basis, 2, np.random.default_rng(8), 1.0)
    traj = solve_forward(ctx, psi0)
    actx = SystemContext(
        basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel, control=u
    )
    adj = solve_adjoint(actx, psi0)
    for solve, solve_ctx in ((traj, ctx), (adj, actx)):
        assert solve.ctx is solve_ctx
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
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel, control=u)
    psi0 = random_coefficients(basis, 2, np.random.default_rng(9), 1.0)
    traj = solve_forward(ctx, psi0)
    actx = SystemContext(
        basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel, control=u
    )
    adj = solve_adjoint(actx, psi0)
    for solve, solve_ctx in ((traj, ctx), (adj, actx)):
        form = [bilinear_B(solve_ctx, t, d, d) for t, d in zip(solve.times, solve.states)]
        values = form_values(solve)
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
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = random_coefficients(basis, 2, np.random.default_rng(5), 1.0)
    traj = solve_forward(ctx, psi0)
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel)
    adj = solve_adjoint(actx, psi0)
    assert calls == []
    form_values(adj)
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

    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    forward = stored_trajectory(fwd, snapshots())
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=forward, kernel=kernel)
    stored = stored_trajectory(actx, snapshots())
    kernel.row_sum_max  # cached on first use; not part of the pass
    tracemalloc.start()
    try:
        form_values(stored)
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
    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel, control=u)
    traj = solve_forward(with_steps(fwd, fwd_steps), psi0)
    actx = SystemContext(
        basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel, control=u
    )
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
    for t_mid, (external, frozen, _) in seen:
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
    ctx = SystemContext(
        basis=actx.basis, potentials=actx.potentials, kernel=actx.kernel, control=actx.control
    )
    steps = ctx.basis.spec.steps
    seen = spy_step_fields(monkeypatch)
    solve_forward(ctx, psi0)
    times = np.linspace(0.0, 1.0, steps + 1)
    assert [t_mid for t_mid, _ in seen] == [t + 0.5 * (1.0 / steps) for t in times[:-1]]
    for t_mid, (external, frozen, _) in seen:
        assert np.array_equal(external, ctx.external_at(t_mid))
        assert frozen is None


def test_time_arrays_give_the_single_time_values_item_by_item():
    # a refined adjoint grid (forward 20 steps, adjoint 40) under a control of 10 steps
    actx, _ = refined_adjoint((3.0,), (32,), (6,), 20)
    traj, u = actx.forward, actx.control
    adj = np.linspace(0.0, 1.0, 41)
    times = np.concatenate([
        [-0.7, -1e-300, 0.0, 1.0, 1.0 + 1e-12, 3.5],  # clamped, and the ends
        traj.times, 0.5 * (traj.times[:-1] + traj.times[1:]),  # forward samples, midpoints
        u.times, 0.5 * (u.times[:-1] + u.times[1:]),  # control samples and midpoints
        adj, adj[:-1] + 0.5 * (1.0 / 40),  # adjoint grid and its step midpoints
    ])
    forms = {
        "value": u.value,
        "external_at": actx.external_at,
        "lambda_at": actx.lambda_at,
        "state_at": traj.state_at,
    }
    for name, form in forms.items():
        stack = form(times)
        assert len(stack) == len(times) and len(form(times[:0])) == 0, name
        for t, item in zip(times, stack):
            assert np.array_equal(item, form(float(t))), (name, t)
            assert np.array_equal(item, form(t)), (name, t)
    # a single time gives what the one-time formulas give, a float for the control
    for t in times:
        one = u.value(float(t))
        assert type(one) is float and one == control_value_at(u, float(t))
        want = interpolate_state_at(traj.times, traj.states, float(t))
        assert np.array_equal(traj.state_at(float(t)), want)
        assert np.array_equal(actx.external_at(float(t)), actx._v0 + one * actx._vu)


@pytest.mark.parametrize("alpha", [0, 1])
def test_stage_fields_take_one_control_and_frozen_state_call_per_block(monkeypatch, alpha):
    actx, start = refined_adjoint((3.0,), (32,), (6,), 20)
    ctx = actx
    if alpha == 1:
        ctx = SystemContext(
            basis=actx.basis, potentials=actx.potentials, kernel=actx.kernel, control=actx.control
        )
    calls = {"value": 0, "lambda_at": 0}
    for cls, name in ((ControlSignal, "value"), (SystemContext, "lambda_at")):

        def counted(self, t, one=getattr(cls, name), name=name):
            calls[name] += 1
            return one(self, t)

        monkeypatch.setattr(cls, name, counted)
    stage_fields(ctx, np.linspace(0.0, 1.0, 7))
    assert calls == {"value": 1, "lambda_at": 1 - alpha}
    calls.update(value=0, lambda_at=0)
    # a solve builds its fields one block of step midpoints at a time: 31 and 9
    blocks = len(snapshot_blocks(ctx.basis, ctx.basis.spec.steps))
    assert blocks == 2
    (solve_forward if alpha == 1 else solve_adjoint)(ctx, start)
    assert calls == {"value": blocks, "lambda_at": (1 - alpha) * blocks}


def test_tracking_source_is_read_once_per_block_of_times(monkeypatch):
    actx, terminal = refined_adjoint((3.0,), (32,), (6,), 20)
    target = at_every_time(unit_state(actx.basis, 2, particles=2))
    spec = ObjectiveSpec(j1="trajectory", target_trajectory=target)
    actx = replace(actx, source=adjoint_sources(spec, actx.forward)[1])
    sizes, one = [], SystemContext.source_coefficients

    def counted(self, times):
        sizes.append(np.size(times))
        return one(self, times)

    monkeypatch.setattr(SystemContext, "source_coefficients", counted)
    solve_adjoint(actx, terminal)
    # the schedule reads the 40 step midpoints in blocks of 31 and 9, then the
    # envelope the 41 stored times in blocks of 31 and 10
    assert sizes == [31, 9, 31, 10]


@pytest.mark.parametrize("with_source", [False, True], ids=["homogeneous", "source"])
def test_adjoint_solve_matches_per_sweep_oracle(with_source):
    actx, terminal = refined_adjoint((3.0,), (32,), (6,), 20)
    if with_source:
        f = random_coefficients(actx.basis, 2, np.random.default_rng(3), 0.5)
        actx = replace(actx, source=lambda t: np.cos(3.0 * t)[:, None, None] * f)
    adj = solve_adjoint(actx, terminal)
    states, form = adjoint_solve_per_sweep(actx, terminal, actx.basis.spec.steps)
    assert np.array_equal(adj.states, states)
    values = form_values(adj)
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
    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    forward = stored_trajectory(fwd, states)
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=forward, kernel=kernel)
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
    ctx = SystemContext(
        basis=basis, potentials=actx.potentials, kernel=actx.kernel, control=actx.control
    )
    if with_source:
        f = random_coefficients(basis, 2, np.random.default_rng(4), 0.5)
        ctx = replace(ctx, source=lambda t: np.cos(3.0 * t)[:, None, None] * f)
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


def test_a_stacked_solve_measures_its_constants_once(monkeypatch):
    actx, _ = refined_adjoint((3.0,), (32,), (6,), 20)
    ctx = SystemContext(
        basis=actx.basis, potentials=actx.potentials, kernel=actx.kernel, control=actx.control
    )
    calls, measure = [], propagate.bound_constants

    def counted(c):
        calls.append(c)
        return measure(c)

    monkeypatch.setattr(propagate, "bound_constants", counted)
    rng = np.random.default_rng(6)
    starts = np.stack([random_coefficients(ctx.basis, 2, rng, r) for r in (1.0, 0.3, 2.0)])
    trajs = solve_forward(ctx, starts)
    assert calls == [ctx]
    # each trajectory holds its own copy of the one measurement
    first, second, third = (traj.meta["constants"] for traj in trajs)
    assert first == second == third == measure(ctx)
    assert first is not second and second is not third and first is not third


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
    ctx = SystemContext(basis=basis, potentials=pot, source=at_every_time(src))
    starts = np.stack([c * unit_state(basis, 0) for c in scales])
    solve_forward(ctx, starts[0])
    with pytest.raises(BlowUpError) as alone:
        solve_forward(ctx, starts[1])
    with pytest.raises(BlowUpError) as stacked:
        solve_forward(ctx, starts)
    assert str(stacked.value) == str(alone.value)
    assert stacked.value.t_last == alone.value.t_last
    assert np.array_equal(stacked.value.partial, alone.value.partial)


def test_stacked_blowup_raises_at_the_first_step_any_item_fails():
    # the first item's larger start raises its guard, so it blows up a step after
    # the second; the stacked solve stops at the second item's step with its error
    basis, pot, _ = make_setup(
        grid=(16,),
        modes=(4,),
        steps=10,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )
    src = unit_state(basis, 0, amplitude=8e6)
    ctx = SystemContext(basis=basis, potentials=pot, source=at_every_time(src))
    starts = np.stack([c * unit_state(basis, 0) for c in (1.5, 1.0, 3.0)])
    with pytest.raises(BlowUpError) as first:
        solve_forward(ctx, starts[0])
    with pytest.raises(BlowUpError) as second:
        solve_forward(ctx, starts[1])
    assert second.value.t_last < first.value.t_last
    with pytest.raises(BlowUpError) as stacked:
        solve_forward(ctx, starts)
    assert str(stacked.value) == str(second.value)
    assert stacked.value.t_last == second.value.t_last
    assert np.array_equal(stacked.value.partial, second.value.partial)


def test_adjoint_solve_takes_one_terminal_state():
    actx, terminal = refined_adjoint((3.0,), (32,), (6,), 20)
    with pytest.raises(PropagationError, match="not \\(modes, particles\\)"):
        solve_adjoint(actx, np.stack([terminal, terminal]))
    with pytest.raises(PropagationError, match="fixed-point sweeps stop per state"):
        step(actx, 1.0, -0.01, np.stack([terminal, terminal]))


def test_a_solve_takes_the_step_count_of_its_spec():
    # DomainSpec takes any positive integer count, numpy's too; it is the only count
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=np.int64(8))
    assert basis.spec.steps == 8
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    assert np.array_equal(traj.times, np.linspace(0.0, 1.0, 9))
    adj = solve_adjoint(with_steps(replace(ctx, alpha=0, forward=traj), 16), traj.states[-1])
    assert np.array_equal(adj.times, np.linspace(0.0, 1.0, 17))


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
    ctx = SystemContext(basis=basis, potentials=pot, source=at_every_time(src))
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
        ctx = SystemContext(basis=basis, potentials=pot, source=at_every_time(src))
        solve = solve_forward
    else:
        traj = solve_forward(SystemContext(basis=basis, potentials=pot), start)
        ctx = SystemContext(
            basis=basis, potentials=pot, alpha=0, forward=traj, source=at_every_time(src)
        )
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
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel)
    with pytest.raises(PropagationError, match="fixed-point.*more steps"):
        solve_adjoint(actx, unit_state(basis, 0))


def test_the_adjoint_stage_norm_is_numpys_bit_for_bit():
    # the fixed-point sweeps' scale and change skip np.linalg.norm's dispatch, not its sums
    rng = np.random.default_rng(34)
    cases = [np.zeros((1, 4, 1), np.complex128), np.zeros((3, 6, 2), np.complex128)]
    for _ in range(1000):
        shape = tuple(int(k) for k in rng.integers(1, [4, 40, 3], endpoint=True))
        magnitude = 10.0 ** rng.choice([-300, -299, -150, 0, 100, 149, 150])
        x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * magnitude
        cases.append(x if rng.random() < 0.8 else np.asfortranarray(x))
    assert sum(len(x) == 1 for x in cases) > 100
    mismatched = [i for i, x in enumerate(cases) if _norm(x) != float(np.linalg.norm(x))]
    assert mismatched == []


def test_a_non_finite_predictor_ends_the_adjoint_stage_before_any_sweep(monkeypatch):
    # the predictor d + dt g(d) overflows: it was swept on, warned and ended in a DomainError
    basis, pot, kernel = make_setup(
        grid=(16,), modes=(4,), steps=4, confinement={"kind": "harmonic", "amplitude": 1e160}
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    adjoint = replace(ctx, alpha=0, forward=solve_forward(ctx, unit_state(basis, 0)))
    applies = []
    apply = propagate._bounded_apply
    monkeypatch.setattr(propagate, "_bounded_apply", lambda *a: applies.append(1) or apply(*a))
    with pytest.raises(PropagationError) as exc:
        solve_adjoint(adjoint, unit_state(basis, 1, amplitude=1e150))
    assert str(exc.value) == (
        "fixed-point iteration diverged at t=0.875; a smaller time step (more steps) is the remedy"
    )
    assert len(applies) == 1


def test_trajectory_export(tmp_path):
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=5)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    p1 = tmp_path / "traj.csv"
    p2 = tmp_path / "diag.csv"
    traj.export_csv(p1)
    traj.export_diagnostics_csv(p2)
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


def _step_tangent(ctx, t_mid, dt, d, dd, du):
    """Tangent-linear map of the source-free alpha=1 step from d, written out directly:
    the potential stage's between the two exact kinetic half-steps."""
    dim = ctx.basis.spec.dimension
    half = np.exp(-0.5j * dt * ctx.basis.eigenvalues)[:, None]
    psi, dpsi = synthesize(ctx.basis, half * d), synthesize(ctx.basis, half * dd)
    rho = np.sum(np.abs(psi) ** 2, axis=1)
    drho = 2.0 * np.sum((np.conj(psi) * dpsi).real, axis=1)
    v = ctx.external_at(t_mid) + ks_potential(ctx.potentials, ctx.kernel, rho, dim)
    dv = du * ctx._vu + vxc_rho_derivative(ctx.potentials, rho, dim) * drho
    dv = dv + hartree(ctx.kernel, drho)
    phase = np.exp(-1j * dt * v)[:, None]
    return half * project(ctx.basis, phase * dpsi - 1j * dt * dv[:, None] * phase * psi)


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
        return SystemContext(
            basis=basis,
            potentials=pot,
            kernel=kernel,
            control=ControlSignal(np.full(steps + 1, u), 1.0),
        )

    ctx = ctx_at(u0)
    assert (kernel.matrix is None) == (basis.node_count > potentials.DENSE_MAX_NODES)
    rng = np.random.default_rng(dimension)
    d, x, y = (random_coefficients(basis, 2, rng, 1.0) for _ in range(3))
    du = 0.7

    # the oracle is the derivative of step itself in d and u ...
    eps = 1e-6
    fwd, bwd = (step(ctx_at(u0 + e * du), t_mid - 0.5 * dt, dt, d + e * x) for e in (eps, -eps))
    jx = _step_tangent(ctx, t_mid, dt, d, x, du)
    assert np.abs((fwd - bwd) / (2 * eps) - jx).max() < 1e-6 * np.abs(jx).max()

    # ... and step_vjp is its exact transpose under Re<., .>
    (fields,) = stage_schedule(ctx, [t_mid])
    d_bar, u_bar = step_vjp(ctx, dt, d, y, fields)
    lhs = float(np.sum(jx * np.conj(y)).real)
    rhs_ = float(np.sum(x * np.conj(d_bar)).real) + du * u_bar
    assert abs(lhs - rhs_) <= 1e-12 * abs(lhs)


def test_step_vjp_transposes_the_source_free_forward_step_only():
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=4)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    d = unit_state(basis, 0)
    sourced = replace(ctx, source=at_every_time(d))
    adjoint = replace(ctx, alpha=0, forward=stored_trajectory(ctx, [d, d]))
    for c in (sourced, adjoint):
        (fields,) = stage_schedule(c, [0.125])
        with pytest.raises(PropagationError, match="source-free alpha=1 step only"):
            step_vjp(c, 0.25, d, d, fields)


def test_solves_reject_the_other_problem_and_a_short_forward_trajectory():
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=4)
    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    adj = replace(fwd, alpha=0, forward=solve_forward(fwd, psi0))
    with pytest.raises(PropagationError, match="solve_forward needs an alpha=1 context"):
        solve_forward(adj, psi0)
    with pytest.raises(PropagationError, match="solve_adjoint needs an alpha=0 context"):
        solve_adjoint(fwd, psi0)
    half = replace(fwd, basis=replace(basis, spec=replace(basis.spec, horizon=0.5)))
    with pytest.raises(SystemError, match=r"forward trajectory does not cover \[0, T\]"):
        replace(adj, forward=stored_trajectory(half, [psi0, psi0]))
    # one stored time, a grid that starts late, and times that do not increase: no
    # trajectory has such times, so the adjoint context refuses them as its forward
    for times in ([1.0], [0.5, 1.0], [1.0, 0.0, 1.0]):
        stored = SimpleNamespace(times=np.array(times), states=np.stack([psi0] * len(times)))
        with pytest.raises(SystemError, match="needs the stored forward trajectory"):
            replace(adj, forward=stored)


def test_a_stored_forward_off_the_adjoint_grid_is_refused():
    # a 20-step adjoint over forward times [0, 0.37, 1] passed the refinement check
    # (20 % 2 == 0), though 0.37 is on no refined grid: only a solve is a frozen state
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=20)
    psi0 = unit_state(basis, 0)
    stored = SimpleNamespace(times=np.array([0.0, 0.37, 1.0]), states=np.stack([psi0] * 3))
    with pytest.raises(SystemError, match="needs the stored forward trajectory"):
        SystemContext(basis=basis, potentials=pot, alpha=0, forward=stored, kernel=kernel)


def test_an_adjoint_solve_is_not_a_frozen_state():
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=4)
    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    adj = replace(fwd, alpha=0, forward=solve_forward(fwd, psi0))
    with pytest.raises(SystemError, match="needs the stored forward trajectory"):
        replace(adj, forward=solve_adjoint(adj, psi0))


@pytest.fixture(scope="module")
def ramp_forward():
    """A 20-step forward solve under the ramp control u(t) = t through a dipole field."""
    basis, pot, kernel = make_setup(
        grid=(16,), modes=(4,), steps=20, control_shape={"kind": "dipole", "amplitude": 1.0}
    )
    u = ControlSignal(np.linspace(0, 1, 21), 1.0)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel, control=u)
    return solve_forward(ctx, unit_state(basis, 0))


def test_an_adjoint_context_without_a_control_takes_its_forward_solves(ramp_forward):
    # such a context took the zero signal: the adjoint of a solve under u was solved at u = 0
    fwd = ramp_forward.ctx
    actx = SystemContext(
        basis=fwd.basis, potentials=fwd.potentials, kernel=fwd.kernel, alpha=0, forward=ramp_forward
    )
    assert actx.control is fwd.control
    terminal = unit_state(fwd.basis, 1)
    want = solve_adjoint(replace(fwd, alpha=0, forward=ramp_forward), terminal)
    assert np.array_equal(solve_adjoint(actx, terminal).states, want.states)


@pytest.mark.parametrize(
    "case", ["zero-control", "hartree-off", "other-kernel", "six-modes", "other-lengths"]
)
def test_an_adjoint_context_off_its_forward_solve_is_refused(ramp_forward, case):
    # each solved, or failed only in the solve, with a context its forward was not solved in
    fwd = ramp_forward.ctx
    spec = fwd.basis.spec
    name, parts = {
        "zero-control": ("control", {"control": zero_control(1.0, 20)}),
        "hartree-off": (
            "potentials",
            {"potentials": replace(fwd.potentials, include_hartree=False), "kernel": None},
        ),
        "other-kernel": ("kernel", {"kernel": build_coulomb_kernel(fwd.basis, 0.1)}),
        "six-modes": ("basis", {"basis": build_basis(spec, (6,))}),
        "other-lengths": ("basis", {"basis": build_basis(replace(spec, lengths=(2.0,)), (4,))}),
    }[case]
    with pytest.raises(SystemError, match=f"^the adjoint does not share its forward solve's {name}$"):
        replace(fwd, alpha=0, forward=ramp_forward, **parts)


def test_a_trajectory_takes_its_times_from_its_context():
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), horizon=0.3, steps=7)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    traj = solve_forward(ctx, unit_state(basis, 0))
    assert np.array_equal(traj.times, np.linspace(0.0, 0.3, 8))
    with pytest.raises(PropagationError, match="^3 states on a grid of 7 steps$"):
        Trajectory(states=traj.states[:3], l2=traj.l2[:3], h1=traj.h1[:3], ctx=ctx)
    # readers take T and dt = T / steps from the spec: the grid's own ends and spacing
    for horizon in (0.3, 1.0, 2.5, 7.0):
        for steps in range(1, 400):
            t = np.linspace(0.0, horizon, steps + 1)
            assert t[-1] == horizon and t[1] - t[0] == horizon / steps


def test_a_non_finite_state_ends_the_solve_at_its_last_good_time(monkeypatch):
    # every step from t >= 0.5 gives NaN coefficients: the step from 0.5 is the first to fail
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=10)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    start = unit_state(basis, 0)
    good = solve_forward(ctx, start).states[:6]
    real_step = propagate.step

    def poisoned(c, t, dt, d, **kwargs):
        out = real_step(c, t, dt, d, **kwargs)
        return out if t < 0.5 else np.full_like(out, np.nan)

    monkeypatch.setattr(propagate, "step", poisoned)
    with pytest.raises(BlowUpError, match="^non-finite state at t=0.6") as exc:
        solve_forward(ctx, start)
    assert exc.value.t_last == 0.5
    assert np.array_equal(exc.value.partial, good)


def test_norm_growth_beyond_the_envelope_raises(monkeypatch):
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=4)
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    # an envelope of half the start norm: the measured unit norm violates it
    monkeypatch.setattr(
        propagate, "l2_envelope", lambda traj: (1.0, 0.5, np.zeros(len(traj.times)))
    )
    with pytest.raises(PropagationError, match="violates the exponential envelope: .* > 0.5$"):
        solve_forward(ctx, unit_state(basis, 0))
