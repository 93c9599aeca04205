import itertools
from dataclasses import replace

import numpy as np
import pytest

from tdks import (
    ControlSignal,
    adjoint_D,
    bilinear_B,
    bound_constants,
    nonlinear_G,
    potentials,
    random_coefficients,
    rhs,
    solve_forward,
    synthesize,
)
from tdks.domain import project
from tdks.system import (
    BLOCK_GRID_VALUES,
    SystemContext,
    SystemError,
    _bounded_apply,
    coupling_potentials,
    frozen_fields,
    snapshot_blocks,
    stage_fields,
    stage_schedule,
)

from conftest import (
    bound_constants_per_snapshot,
    dense_basis_values,
    fields_at,
    make_setup,
    stored_trajectory,
    unit_state,
)


@pytest.fixture(scope="module")
def free_ctx():
    basis, pot, _ = make_setup(
        grid=(48,),
        modes=(16,),
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )
    return SystemContext(basis=basis, potentials=pot)


@pytest.fixture(scope="module")
def nonlinear_ctx():
    basis, pot, kernel = make_setup(grid=(48,), modes=(12,))
    return SystemContext(basis=basis, potentials=pot, kernel=kernel)


@pytest.fixture(scope="module")
def adjoint_pair():
    basis, pot, kernel = make_setup(
        grid=(32,),
        modes=(8,),
        particles=2,
        steps=200,
        confinement={"kind": "harmonic", "amplitude": 1.0},
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = np.zeros((basis.size, 2), dtype=np.complex128)
    psi0[0, 0] = 1.0
    psi0[1, 1] = 1.0
    traj = solve_forward(ctx, psi0)
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel)
    return ctx, actx, traj


def test_free_single_mode_rhs(free_ctx):
    d = unit_state(free_ctx.basis, 5)
    out = rhs(free_ctx, fields_at(free_ctx, 0.2), d[None])[0]
    expect = -1j * free_ctx.basis.eigenvalues[5] * d
    assert np.abs(out - expect).max() < 1e-12


def test_rhs_zero_state(nonlinear_ctx):
    zero = np.zeros((1, nonlinear_ctx.basis.size, 1))
    out = rhs(nonlinear_ctx, fields_at(nonlinear_ctx, 0.0), zero)
    assert np.abs(out).max() == 0


def test_rhs_norm_derivative_vanishes(nonlinear_ctx):
    rng = np.random.default_rng(1)
    fields = fields_at(nonlinear_ctx, 0.4)
    for _ in range(10):
        d = random_coefficients(nonlinear_ctx.basis, 1, rng, rng.uniform(0.3, 2.0))
        r = rhs(nonlinear_ctx, fields, d[None])[0]
        ddt = 2.0 * float(np.sum(r.real * d.real + r.imag * d.imag))
        assert abs(ddt) < 1e-10


def test_rhs_rejects_nonfinite(nonlinear_ctx):
    bad = np.full((1, nonlinear_ctx.basis.size, 1), np.nan, dtype=np.complex128)
    with pytest.raises(Exception):
        rhs(nonlinear_ctx, fields_at(nonlinear_ctx, 0.0), bad)


def test_bilinear_unit_mode_gives_eigenvalue(free_ctx):
    d = unit_state(free_ctx.basis, 0)[None]
    fields = fields_at(free_ctx, 0.0)
    (val,) = bilinear_B(free_ctx, fields, d, d)
    assert abs(val - free_ctx.basis.eigenvalues[0]) < 1e-10
    assert bilinear_B(free_ctx, fields, np.zeros_like(d), d) == [0]


def test_bilinear_imag_vanishes_forward(nonlinear_ctx):
    rng = np.random.default_rng(2)
    fields = fields_at(nonlinear_ctx, 0.1)
    for _ in range(10):
        d = random_coefficients(nonlinear_ctx.basis, 1, rng, 1.0)[None]
        assert abs(bilinear_B(nonlinear_ctx, fields, d, d)[0].imag) < 1e-10


def test_bilinear_sesquilinearity(nonlinear_ctx):
    rng = np.random.default_rng(3)
    a = random_coefficients(nonlinear_ctx.basis, 1, rng, 1.0)
    b = random_coefficients(nonlinear_ctx.basis, 1, rng, 1.0)
    c = random_coefficients(nonlinear_ctx.basis, 1, rng, 1.0)
    z = 0.7 - 1.2j
    fields = fields_at(nonlinear_ctx, 0.0)

    def form(x, y):
        return bilinear_B(nonlinear_ctx, fields, x[None], y[None])[0]

    lhs = form(z * a + b, c)
    rhs_val = z * form(a, c) + form(b, c)
    assert abs(lhs - rhs_val) < 1e-12
    lhs2 = form(a, z * b)
    assert abs(lhs2 - np.conj(z) * form(a, b)) < 1e-12


def test_adjoint_coupling_trivial_cases(adjoint_pair):
    _, actx, traj = adjoint_pair
    lam = actx.lambda_at(0.5)
    b = random_coefficients(actx.basis, 2, np.random.default_rng(4), 1.0)
    (d_h,), (d_xc,) = adjoint_D(actx, fields_at(actx, 0.5), 1j * lam[None], b[None])
    assert abs(d_h) < 1e-12 and abs(d_xc) < 1e-12

    basis, pot, kernel = make_setup(grid=(32,), modes=(8,), particles=2)
    zero_lam = np.zeros((8, 2))
    zero_fwd = stored_trajectory(
        SystemContext(basis=basis, potentials=pot, kernel=kernel), [zero_lam, zero_lam]
    )
    zero_ctx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=zero_fwd, kernel=kernel)
    rng = np.random.default_rng(5)
    a = random_coefficients(basis, 2, rng, 1.0)
    b = random_coefficients(basis, 2, rng, 1.0)
    (d_h,), (d_xc,) = adjoint_D(zero_ctx, fields_at(zero_ctx, 0.1), a[None], b[None])
    assert d_h == 0 and abs(d_xc) == 0


def test_adjoint_coupling_bound(adjoint_pair):
    _, actx, _ = adjoint_pair
    ing = bound_constants(actx)
    rng = np.random.default_rng(6)
    fields = fields_at(actx, 0.3)
    for _ in range(20):
        a = random_coefficients(actx.basis, 2, rng, rng.uniform(0.2, 2.0))
        b = random_coefficients(actx.basis, 2, rng, rng.uniform(0.2, 2.0))
        (d_h,), (d_xc,) = adjoint_D(actx, fields, a[None], b[None])
        bound = ing["c0"] * np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(d_h + d_xc) <= bound


def coupling_field(ctx, psi_g, frozen):
    """Adjoint coupling on the grid: (V_H(s) + dV*s) * lambda."""
    v_h, v_xc = coupling_potentials(ctx, psi_g, frozen)
    return (v_h + v_xc)[:, None] * frozen.grid


def dense_coupling_tables(ctx, t):
    """Materialised real-linear coupling map: D(d) = T_re @ Re(d) + T_im @ Im(d).

    Returns (t_re, t_im) of shape (modes*particles, modes*particles) complex,
    acting on the flattened coefficient vector.
    """
    m = ctx.basis.size
    n = ctx.basis.spec.particles
    frozen = frozen_fields(ctx, ctx.lambda_at(t))
    t_re = np.zeros((m * n, m * n), dtype=np.complex128)
    t_im = np.zeros((m * n, m * n), dtype=np.complex128)
    unit = np.zeros((m, n), dtype=np.complex128)
    for l in range(m):
        for j in range(n):
            for table, value in ((t_re, 1.0), (t_im, 1.0j)):
                unit[l, j] = value
                col = project(
                    ctx.basis,
                    coupling_field(ctx, synthesize(ctx.basis, unit), frozen),
                )
                table[:, l * n + j] = col.reshape(-1)
            unit[l, j] = 0.0
    return t_re, t_im


def apply_dense_coupling(tables, d):
    t_re, t_im = tables
    out = t_re @ d.real.reshape(-1) + t_im @ d.imag.reshape(-1)
    return out.reshape(d.shape)


def test_dense_coupling_tables_match_matrix_free(adjoint_pair):
    _, actx, _ = adjoint_pair
    tables = dense_coupling_tables(actx, 0.4)
    rng = np.random.default_rng(7)
    frozen = frozen_fields(actx, actx.lambda_at(0.4))
    for _ in range(5):
        d = random_coefficients(actx.basis, 2, rng, 1.0)
        dense = apply_dense_coupling(tables, d)
        free = project(actx.basis, coupling_field(actx, synthesize(actx.basis, d), frozen))
        assert np.abs(dense - free).max() < 1e-12


def test_adjoint_bilinear_matches_bounded_apply(adjoint_pair):
    # B(a, b) = sum_k lambda_k a_k conj(b_k) + <bounded part applied to a, b>
    _, actx, _ = adjoint_pair
    rng = np.random.default_rng(11)
    for t in (0.0, 0.37, 1.0):
        a = random_coefficients(actx.basis, 2, rng, rng.uniform(0.2, 2.0))
        b = random_coefficients(actx.basis, 2, rng, rng.uniform(0.2, 2.0))
        kin = np.sum(actx.basis.eigenvalues[:, None] * a * np.conj(b))
        (fields,) = stage_schedule(actx, [t])
        expect = kin + np.sum(_bounded_apply(actx, fields, a) * np.conj(b))
        (val,) = bilinear_B(actx, fields_at(actx, t), a[None], b[None])
        assert abs(val - expect) <= 1e-13 * abs(expect)


def test_nonlinear_g_zero_and_correlation_bound():
    basis, pot, _ = make_setup(
        grid=(32,), modes=(8,), include_hartree=False, include_exchange=False
    )
    ctx = SystemContext(basis=basis, potentials=pot)
    assert np.abs(nonlinear_G(ctx, np.zeros((basis.size, 1)))).max() == 0
    rng = np.random.default_rng(8)
    bound = pot.correlation_a / pot.correlation_b
    for _ in range(10):
        d = random_coefficients(basis, 1, rng, rng.uniform(0.05, 0.5))
        g = nonlinear_G(ctx, d)
        assert np.linalg.norm(g) <= bound * np.linalg.norm(d) + 1e-12


def test_nonlinear_g_local_lipschitz_ratio(nonlinear_ctx):
    rng = np.random.default_rng(9)

    def probe(radius, pairs):
        worst = 0.0
        for _ in range(pairs):
            a = random_coefficients(nonlinear_ctx.basis, 1, rng, rng.uniform(0.1, 1.0) * radius)
            b = random_coefficients(nonlinear_ctx.basis, 1, rng, rng.uniform(0.1, 1.0) * radius)
            gap = np.linalg.norm(a - b)
            if gap < 1e-14:
                continue
            worst = max(
                worst,
                np.linalg.norm(nonlinear_G(nonlinear_ctx, a) - nonlinear_G(nonlinear_ctx, b)) / gap,
            )
        return worst

    l1 = probe(1.0, 50)
    assert np.isfinite(l1)
    assert probe(1.0, 100) < 2.0 * l1
    assert probe(3.0, 50) > l1  # local constant grows with the ball


def test_project_f_zero_and_single_mode(nonlinear_ctx):
    assert nonlinear_ctx.source_coefficients(np.array([0.0])) is None

    basis = nonlinear_ctx.basis
    phi3 = dense_basis_values(basis)[2].astype(np.complex128)
    # a provider returns coefficients, so a grid-field inhomogeneity is projected in it
    ctx = SystemContext(
        basis=basis,
        potentials=nonlinear_ctx.potentials,
        kernel=nonlinear_ctx.kernel,
        source=lambda t: project(basis, np.repeat(phi3[None, :, None], len(t), axis=0)),
    )
    f = ctx.source_coefficients(np.array([0.7]))[0]
    expect = unit_state(basis, 2)
    assert np.abs(f - expect).max() < 1e-10


def test_project_f_matches_direct_quadrature(adjoint_pair):
    # tracking-objective source projected two ways
    ctx, _, traj = adjoint_pair
    basis = ctx.basis
    target = np.zeros((basis.size, 2), dtype=np.complex128)
    target[2, 0] = 1.0

    def source(t):
        return 2.0 * (traj.state_at(t) - target)

    src_ctx = SystemContext(
        basis=basis, potentials=ctx.potentials, kernel=ctx.kernel, source=source
    )
    t = 0.37
    f = src_ctx.source_coefficients(np.array([t]))[0]
    from tdks.domain import project

    direct = project(basis, synthesize(basis, 2.0 * (traj.state_at(t) - target)))
    assert np.abs(f - direct).max() < 1e-9


def test_context_validation():
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,))
    with pytest.raises(SystemError):
        SystemContext(basis=basis, potentials=pot, kernel=kernel, alpha=0)
    with pytest.raises(SystemError):
        SystemContext(basis=basis, potentials=pot, kernel=kernel, alpha=2)
    with pytest.raises(SystemError):
        SystemContext(basis=basis, potentials=pot, kernel=None, alpha=1)
    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    with pytest.raises(SystemError):
        adjoint_D(fwd, fields_at(fwd, 0.0), unit_state(basis, 0)[None], unit_state(basis, 1)[None])


def test_adjoint_context_rejects_a_callable_forward():
    # the frozen state comes only from a stored trajectory
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,))
    with pytest.raises(SystemError, match="stored forward trajectory"):
        SystemContext(
            basis=basis,
            potentials=pot,
            alpha=0,
            forward=lambda t: unit_state(basis, 0),
            kernel=kernel,
        )
    ctx = SystemContext(
        basis=basis,
        potentials=pot,
        alpha=0,
        forward=stored_trajectory(
            SystemContext(basis=basis, potentials=pot, kernel=kernel), [unit_state(basis, 0)] * 2
        ),
        kernel=kernel,
    )
    assert np.abs(ctx.lambda_at(0.3) - unit_state(basis, 0)).max() < 1e-15


def test_bound_constants_coercivity_and_boundedness(adjoint_pair):
    from tdks.domain import norms

    ctx, actx, traj = adjoint_pair
    u = ControlSignal(samples=0.5 * np.ones(actx.basis.spec.steps + 1), horizon=1.0)
    traj_u = solve_forward(replace(ctx, control=u), traj.states[0])
    actx_u = replace(traj_u.ctx, alpha=0, forward=traj_u)
    ing = bound_constants(actx_u)
    rng = np.random.default_rng(10)
    fields = fields_at(actx_u, 0.6)
    for _ in range(30):
        a = random_coefficients(actx_u.basis, 2, rng, rng.uniform(0.2, 2.0))
        b = random_coefficients(actx_u.basis, 2, rng, rng.uniform(0.2, 2.0))
        l2a, h1a = norms(actx_u.basis, a)
        _, h1b = norms(actx_u.basis, b)
        (val,) = bilinear_B(actx_u, fields, a[None], b[None])
        assert abs(val) <= ing["c1"] * h1a * h1b
        (diag,) = bilinear_B(actx_u, fields, a[None], a[None])
        assert h1a**2 - diag.real <= ing["c3"] * l2a**2
        assert abs(diag.imag) <= ing["c0"] * l2a**2


STACK_CASES = {
    "1d": ((3.0,), (16,), (4,)),
    "2d": ((3.0, 3.0), (8, 8), (3, 3)),
    "3d": ((3.0, 3.0, 3.0), (6, 6, 6), (2, 2, 2)),
}

# (dimension case, alpha, xc on, Hartree branch); the alpha=1 form reads
# neither the xc terms nor the kernel, so one alpha=1 case per dimension
STACK_VARIANTS = [(case, 1, True, "dense") for case in STACK_CASES] + [
    (case, 0, xc, branch)
    for case, xc, branch in itertools.product(STACK_CASES, (True, False), ("dense", "fft"))
]


def stacked_context(monkeypatch, case, alpha, xc, branch, snapshots):
    """A context under a nonzero control; for alpha=0 its forward trajectory
    holds ``snapshots`` random states on a uniform grid over [0, 1]."""
    lengths, grid, modes = STACK_CASES[case]
    if branch == "fft":
        monkeypatch.setattr(potentials, "DENSE_MAX_NODES", 0)
    basis, pot, kernel = make_setup(
        lengths=lengths,
        grid=grid,
        modes=modes,
        particles=2,
        steps=snapshots - 1,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
        include_exchange=xc,
        include_correlation=xc,
    )
    assert (kernel.matrix is None) == (branch == "fft")
    u = ControlSignal(samples=0.5 * np.sin(np.linspace(0.0, 3.0, 11)), horizon=1.0)
    rng = np.random.default_rng(len(grid) + 10 * alpha)
    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel, control=u)
    if alpha == 1:
        return fwd, rng
    states = np.stack([random_coefficients(basis, 2, rng, 1.0) for _ in range(snapshots)])
    fw = stored_trajectory(fwd, states)
    return SystemContext(
        basis=basis, potentials=pot, alpha=0, forward=fw, kernel=kernel, control=u
    ), rng


@pytest.mark.parametrize("case, alpha, xc, branch", STACK_VARIANTS)
def test_stacked_form_matches_single_calls(monkeypatch, case, alpha, xc, branch):
    ctx, rng = stacked_context(monkeypatch, case, alpha, xc, branch, snapshots=5)
    times = np.sort(rng.uniform(0.0, 1.0, 7))
    psi = np.stack([random_coefficients(ctx.basis, 2, rng, 1.0) for _ in times])
    phi = np.stack([random_coefficients(ctx.basis, 2, rng, 1.0) for _ in times])
    fields = stage_fields(ctx, times)

    def single(t, a, b):
        return bilinear_B(ctx, fields_at(ctx, t), a[None], b[None])[0]

    same = bilinear_B(ctx, fields, psi, psi)
    assert np.array_equal(same, [single(t, a, a) for t, a in zip(times, psi)])
    pair = bilinear_B(ctx, fields, psi, phi)
    assert np.array_equal(pair, [single(t, a, b) for t, a, b in zip(times, psi, phi)])


@pytest.mark.parametrize("case, alpha, xc, branch", STACK_VARIANTS)
def test_bound_constants_match_per_snapshot_oracle(monkeypatch, case, alpha, xc, branch):
    _, grid, _ = STACK_CASES[case]
    nodes = int(np.prod([m + 1 for m in grid]))
    block = max(1, BLOCK_GRID_VALUES // (nodes * 2))
    # two full blocks and a short last one
    ctx, _ = stacked_context(monkeypatch, case, alpha, xc, branch, snapshots=2 * block + 1)
    blocks = snapshot_blocks(ctx.basis, 2 * block + 1)
    assert [b.stop - b.start for b in blocks] == [block, block, 1]
    assert bound_constants(ctx) == bound_constants_per_snapshot(ctx)


# (dimension case, alpha, Hartree branch, source): every operator that takes a stack
OPERATOR_VARIANTS = list(itertools.product(STACK_CASES, (1, 0), ("dense", "fft"), (False, True)))


@pytest.mark.parametrize("case, alpha, branch, source", OPERATOR_VARIANTS)
def test_stacked_operators_match_single_calls(monkeypatch, case, alpha, branch, source):
    ctx, rng = stacked_context(monkeypatch, case, alpha, True, branch, snapshots=5)
    if source:
        f = random_coefficients(ctx.basis, 2, rng, 0.7)
        ctx = replace(ctx, source=lambda t: np.sin(3.0 * t)[:, None, None] * f)
    times = np.sort(rng.uniform(0.0, 1.0, 7))
    psi = np.stack([random_coefficients(ctx.basis, 2, rng, 1.0) for _ in times])
    phi = np.stack([random_coefficients(ctx.basis, 2, rng, 1.0) for _ in times])
    fields = stage_fields(ctx, times)
    single = [rhs(ctx, fields_at(ctx, t), d[None])[0] for t, d in zip(times, psi)]
    assert np.array_equal(rhs(ctx, fields, psi), single)
    single = [_bounded_apply(ctx, item, d) for item, d in zip(stage_schedule(ctx, times), psi)]
    assert np.array_equal(_bounded_apply(ctx, fields, psi), single)
    assert np.array_equal(nonlinear_G(ctx, psi), [nonlinear_G(ctx, d) for d in psi])
    if alpha == 0:
        d_h, d_xc = adjoint_D(ctx, fields, psi, phi)
        parts = [
            adjoint_D(ctx, fields_at(ctx, t), a[None], b[None]) for t, a, b in zip(times, psi, phi)
        ]
        assert np.array_equal(d_h, [p[0][0] for p in parts])
        assert np.array_equal(d_xc, [p[1][0] for p in parts])


@pytest.mark.parametrize("form", [rhs, bilinear_B, adjoint_D], ids=lambda form: form.__name__)
def test_the_forms_take_stacks_of_states_only(adjoint_pair, form):
    # a single (modes, particles) state is not promoted to a stack of one
    _, actx, _ = adjoint_pair
    d = unit_state(actx.basis, 0, particles=2)
    states = (d,) if form is rhs else (d, d)
    with pytest.raises(SystemError, match=r"are not \(B, modes, particles\)"):
        form(actx, fields_at(actx, 0.5), *states)


def test_a_field_of_another_node_count_is_rejected(nonlinear_ctx):
    pot = replace(nonlinear_ctx.potentials, confinement=np.zeros(5))
    with pytest.raises(SystemError, match="confinement field does not match the quadrature grid"):
        SystemContext(basis=nonlinear_ctx.basis, potentials=pot, kernel=nonlinear_ctx.kernel)
