import itertools
import tracemalloc

import numpy as np
import pytest

from tdks import (
    ControlSignal,
    ObjectiveSpec,
    adjoint_context,
    adjoint_sources,
    check_coefficient_lipschitz,
    check_coulomb_lp,
    check_energy_estimates,
    check_form_bounds,
    check_galerkin_convergence,
    check_hartree_lipschitz,
    check_potential_continuity,
    check_uniqueness_gronwall,
    forward_context,
    random_coefficients,
    solve_adjoint,
    solve_forward,
)
from tdks.domain import project
from tdks.system import snapshot_blocks
from tdks.verify import (
    EstimateReport,
    _ball_quadrature,
    _hartree_pair_ratios,
    _subsample_cells,
    probe_hartree_constant,
    probe_xc_lipschitz,
)

from conftest import (
    ball_quadrature_whole_grid,
    coefficient_pair_ratio,
    dual_norm_per_snapshot,
    form_bounds_per_pair,
    hartree_pair_ratio,
    make_setup,
    pair_ratios_per_pair,
    subsample_distances_pointwise,
    unit_state,
    xc_pair_ratio,
)


def test_coulomb_lp_closed_forms():
    r = check_coulomb_lp(3, 2, 1.0, 96)
    assert r.passed
    assert abs(r.ingredients["closed_form"] - 4 * np.pi) < 1e-12
    r = check_coulomb_lp(3, 1, 1.0, 64)
    assert r.passed
    assert abs(r.ingredients["closed_form"] - 2 * np.pi) < 1e-12
    # plain Monte-Carlo cross-check is well posed for p=1 (finite variance)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, size=(2_000_000, 3))
    d = np.linalg.norm(pts, axis=1)
    mask = d <= 1.0
    mc = 8.0 * np.mean(np.where(mask, 1.0 / np.where(mask, d, 1.0), 0.0))
    assert abs(mc / (2 * np.pi) - 1.0) < 0.01


def test_coulomb_lp_divergent_cases():
    r = check_coulomb_lp(3, 3, 1.0, 8)
    assert r.passed and r.detail == "flagged divergent"
    values = r.ingredients["values"]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] >= 2.0 * values[0]
    assert check_coulomb_lp(2, 2, 1.0, 6).passed
    assert check_coulomb_lp(1, 2, 1.0, 8).passed


def test_ball_quadrature_matches_oracle():
    # the slab walk adds the same numbers in the same order as the whole grid
    grid = itertools.product(
        (1, 2, 3), (0.5, 1, 2, 3), (4, 6, 7, 8, 33, 64), (True, False), (1.0, 0.7, 2.5)
    )
    cases = [*grid, (3, 2, 96, True, 1.0), (3, 1, 96, True, 1.0)]
    mismatched = []
    for n, p, res, refine, radius in cases:
        got = _ball_quadrature(n, p, radius, res, refine)
        if got != ball_quadrature_whole_grid(n, p, radius, res, refine):
            mismatched.append((n, p, res, refine, radius))
    assert len(cases) >= 432 and mismatched == []


@pytest.mark.parametrize("sub", [5, 11])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_subsample_distances_match_pointwise_oracle(n, sub):
    # per-axis squares added first axis first are the point-by-point sums, in order
    h = 0.37
    centers = np.random.default_rng([n, sub]).uniform(-2.0, 2.0, size=(60, n))
    assert (centers < 0).any()
    got = _subsample_cells(centers, h, n, sub)
    assert got.shape == (len(centers), sub**n)
    assert np.array_equal(got, subsample_distances_pointwise(centers, h, n, sub))


def test_ball_quadrature_runs_in_bounded_memory():
    # the divergence probe reaches a 128^3 grid; only one slab is ever held
    for args in [(3, 3, 1.0, 8), (3, 2, 1.0, 96)]:
        tracemalloc.start()
        try:
            check_coulomb_lp(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, (args, peak)


def test_coulomb_lp_rejects_bad_radius():
    with pytest.raises(ValueError):
        check_coulomb_lp(3, 2, 0.0)


def test_report_invariant():
    r = EstimateReport("x", "ref", measured=1.0, bound=1.0, tolerance=0.0, formula="f")
    assert r.passed
    r = EstimateReport("x", "ref", measured=1.001, bound=1.0, tolerance=0.0, formula="f")
    assert not r.passed
    r = EstimateReport("x", "ref", measured=1.04, bound=1.0, tolerance=0.05, formula="f")
    assert r.passed
    r = EstimateReport("x", "ref", measured=float("inf"), bound=1.0, tolerance=0.0, formula="f")
    assert not r.passed


@pytest.fixture(scope="module")
def desk():
    basis, pot, kernel = make_setup(
        lengths=(3.0,),
        grid=(32,),
        modes=(8,),
        steps=300,
        confinement={"kind": "harmonic", "amplitude": 1.0},
    )
    ctx = forward_context(basis, pot, kernel=kernel)
    return basis, pot, kernel, ctx


def test_hartree_lipschitz_stability(desk):
    basis, _, kernel, _ = desk
    r = check_hartree_lipschitz(basis, kernel, pairs=40, seed=3)
    assert r.passed
    assert r.ingredients["c_hat"] > 0
    # identical pair contributes nothing (skip path)
    rng = np.random.default_rng(0)
    d = random_coefficients(basis, 1, rng, 1.0)

    class TwinRng:
        def __init__(self, d):
            self.d = d
            self.calls = 0

        def uniform(self, a, b):
            return 1.0

        def standard_normal(self, shape):
            self.calls += 1
            return self.d.real if self.calls % 2 else self.d.imag

    assert probe_hartree_constant(basis, kernel, 1, TwinRng(d)) == 0.0
    c = probe_hartree_constant(basis, kernel, 1, np.random.default_rng(5))
    assert np.isfinite(c)


def test_hartree_lipschitz_scaling(desk):
    # scaled pairs stay under the same constant shape (cubic/cubic homogeneity)
    basis, _, kernel, _ = desk
    from tdks import norms, synthesize
    from tdks.potentials import hartree_pair_difference

    rng = np.random.default_rng(7)
    a = random_coefficients(basis, 1, rng, 0.8)
    b = random_coefficients(basis, 1, rng, 1.1)

    def ratio(x, y):
        _, h1x = norms(basis, x)
        _, h1y = norms(basis, y)
        num = hartree_pair_difference(basis, kernel, synthesize(basis, x), synthesize(basis, y))
        return num / ((h1x**2 + h1y**2) * np.linalg.norm(x - y))

    r1 = ratio(a, b)
    r2 = ratio(2 * a, 2 * b)
    assert np.isfinite(r1) and np.isfinite(r2)
    assert r2 < 4.0 * r1  # stays within the cubic/cubic scaling family


def test_energy_estimates_zero_solution(desk):
    basis, pot, kernel, ctx = desk
    traj = solve_forward(ctx, np.zeros((basis.size, 1)))
    reports = check_energy_estimates(traj, ctx, seed=0)
    for r in reports:
        assert r.measured == 0.0
        assert r.passed


def test_energy_estimates_free_mode():
    basis, pot, _ = make_setup(
        grid=(32,),
        modes=(8,),
        steps=200,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )
    ctx = forward_context(basis, pot)
    traj = solve_forward(ctx, unit_state(basis, 0))
    reports = {r.name: r for r in check_energy_estimates(traj, ctx, seed=0)}
    env = reports["l2-envelope-alpha1"]
    assert env.passed
    assert env.measured <= 1.0 + 1e-12  # norm conserved, envelope has e^T margin
    assert env.bound >= np.exp(1.0) * (1.0 - 1e-12)


def test_energy_estimates_nonlinear_and_adjoint(desk):
    basis, pot, kernel, ctx = desk
    psi0 = unit_state(basis, 0)
    traj = solve_forward(ctx, psi0)
    fwd_reports = check_energy_estimates(traj, ctx, seed=1)
    assert all(r.passed for r in fwd_reports)

    from tdks import adjoint_context, adjoint_sources, solve_adjoint, ObjectiveSpec

    target = np.zeros_like(psi0)
    spec_obj = ObjectiveSpec(
        j1="trajectory", j2="terminal", nu=1.0, target_state=target,
        target_trajectory=lambda t: target,
    )
    term, src = adjoint_sources(spec_obj, traj)
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel, source=src)
    adj = solve_adjoint(actx, term)
    adj_reports = check_energy_estimates(adj, actx, seed=1)
    assert all(r.passed for r in adj_reports)
    names = {r.name for r in adj_reports}
    assert "l2-envelope-alpha0" in names and "x-norm-bound-alpha0" in names


def test_uniqueness_gronwall_nonlinear(desk):
    basis, pot, kernel, ctx = desk
    base = solve_forward(ctx, unit_state(basis, 0))
    # the middle eps, 1e-3, is the one halved
    env, halving = check_uniqueness_gronwall(ctx, base, [1e-2, 1e-3, 5e-4], seed=2)
    assert env.passed and halving.passed
    assert 0.4 <= halving.ingredients["ratio"] <= 0.6


def test_uniqueness_rejects_tiny_eps(desk):
    _, _, _, ctx = desk
    with pytest.raises(ValueError):
        check_uniqueness_gronwall(ctx, solve_forward(ctx, unit_state(ctx.basis, 0)), [1e-12])


def test_uniqueness_rejects_an_empty_eps_list(desk):
    _, _, _, ctx = desk
    with pytest.raises(ValueError, match="at least one"):
        check_uniqueness_gronwall(ctx, solve_forward(ctx, unit_state(ctx.basis, 0)), [])


def test_gap_trivial_and_linear_cases():
    # identical data: deterministic solver gives identical trajectories
    basis, pot, kernel = make_setup(grid=(32,), modes=(6,), steps=100)
    ctx = forward_context(basis, pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    t1 = solve_forward(ctx, psi0)
    t2 = solve_forward(ctx, psi0)
    assert np.abs(t1.states - t2.states).max() == 0

    # free flow: the gap is an isometry invariant
    basis_f, pot_f, _ = make_setup(
        grid=(32,), modes=(6,), steps=100,
        include_hartree=False, include_exchange=False, include_correlation=False,
    )
    ctx_f = forward_context(basis_f, pot_f)
    rng = np.random.default_rng(3)
    delta = random_coefficients(basis_f, 1, rng, 1.0)
    a = solve_forward(ctx_f, psi0)
    b = solve_forward(ctx_f, psi0 + 1e-3 * delta)
    gap = np.sqrt(np.sum(np.abs(a.states - b.states) ** 2, axis=(1, 2)))
    assert np.abs(gap - gap[0]).max() < 1e-12 * gap[0] + 1e-15


def _convergence_builder(include_exchange=True, source_field=None):
    """builder(modes); ``source_field`` (t -> (nodes, 1) grid field) is projected
    onto each basis inside the source provider."""

    def builder(modes):
        basis, pot, kernel = make_setup(
            lengths=(3.0,),
            grid=(32,),
            modes=modes,
            steps=300,
            include_exchange=include_exchange,
            confinement={"kind": "harmonic", "amplitude": 1.0},
        )
        source = None
        if source_field is not None:

            def source(t):
                return project(basis, source_field(t))

        ctx = forward_context(basis, pot, kernel=kernel, source=source)
        return ctx, unit_state(basis, 0)

    return builder


def test_galerkin_convergence_invariant_subspace():
    def builder(modes):
        basis, pot, _ = make_setup(
            grid=(32,), modes=modes, steps=100,
            include_hartree=False, include_exchange=False, include_correlation=False,
        )
        return forward_context(basis, pot), unit_state(basis, 0)

    r = check_galerkin_convergence(builder, [[4], [6], [8]])
    assert r.passed and r.measured == 0.0


def test_galerkin_convergence_strictly_decreasing_468():
    r = check_galerkin_convergence(_convergence_builder(), [[4], [6], [8]])
    inc = r.ingredients["increments"]
    assert inc[1] < inc[0]


def test_galerkin_convergence_full_pass():
    r = check_galerkin_convergence(_convergence_builder(), [[4], [8], [12]])
    assert r.passed


def test_galerkin_convergence_with_inhomogeneity():
    basis_probe, _, _ = make_setup(lengths=(3.0,), grid=(32,), modes=(4,))

    def source_field(t):
        return (
            0.3
            * np.cos(2.0 * t)
            * np.sin(2 * np.pi * basis_probe.nodes[:, :1] / 3.0)
        ).astype(np.complex128)

    r = check_galerkin_convergence(
        _convergence_builder(source_field=source_field), [[4], [8], [12]]
    )
    assert r.passed


def test_galerkin_convergence_needs_three(desk):
    with pytest.raises(ValueError):
        check_galerkin_convergence(_convergence_builder(), [[4], [8]])


def test_potential_continuity(desk):
    basis, pot, kernel, _ = desk
    r = check_potential_continuity(basis, pot, kernel, seed=4)
    assert r.passed
    errors = r.ingredients["errors"]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-6


def test_coefficient_lipschitz(desk):
    _, _, _, ctx = desk
    stability, growth = check_coefficient_lipschitz(ctx, radius=1.0, pairs=60, seed=5)
    assert stability.passed and growth.passed
    assert stability.ingredients["l_hat"] > 0


def test_form_bounds_both_instances(desk):
    basis, pot, kernel, ctx = desk
    reports = check_form_bounds(ctx, t=0.0, count=60, seed=6)
    assert all(r.passed for r in reports)
    names = {r.name for r in reports}
    assert "form-imag-vanishes-alpha1" in names

    from tdks import adjoint_context

    traj = solve_forward(ctx, unit_state(basis, 0))
    actx = adjoint_context(basis, pot, forward=traj, kernel=kernel)
    reports0 = check_form_bounds(actx, t=0.5, count=60, seed=6)
    assert all(r.passed for r in reports0)
    names0 = {r.name for r in reports0}
    assert "coupling-form-bound" in names0 and "form-imag-bound-alpha0" in names0


def test_checks_are_reproducible(desk):
    basis, pot, kernel, ctx = desk
    a = check_form_bounds(ctx, t=0.0, count=30, seed=7)
    b = check_form_bounds(ctx, t=0.0, count=30, seed=7)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


ORACLE_SEEDS = (0, 1701)
# 33 nodes x 2 particles: snapshot blocks of 31 samples, so 40 span two blocks
ORACLE_COUNTS = (0, 1, 40)


def _oracle_instance(include_hartree):
    """{alpha: (context, solve)}: a forward solve under a nonzero control and the
    adjoint solve of a tracking objective, whose source is nonzero."""
    basis, pot, kernel = make_setup(
        lengths=(3.0,),
        grid=(32,),
        modes=(8,),
        particles=2,
        steps=40,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
        include_hartree=include_hartree,
    )
    assert [b.stop - b.start for b in snapshot_blocks(basis, 40)] == [31, 9]
    u = ControlSignal(samples=0.5 * np.sin(np.linspace(0.0, 3.0, 41)), horizon=1.0)
    ctx = forward_context(basis, pot, kernel=kernel, control=u)
    psi0 = unit_state(basis, 0, 2) + unit_state(basis, 1, 2, particle=1)
    traj = solve_forward(ctx, psi0)
    target = np.zeros_like(psi0)
    objective = ObjectiveSpec(
        j1="trajectory", j2="terminal", nu=1.0, target_state=target,
        target_trajectory=lambda t: target,
    )
    terminal, source = adjoint_sources(objective, traj)
    actx = adjoint_context(
        basis, pot, forward=traj, kernel=kernel, control=u, source=source
    )
    return {1: (ctx, traj), 0: (actx, solve_adjoint(actx, terminal))}


@pytest.fixture(scope="module")
def oracle_instances():
    return {hartree: _oracle_instance(hartree) for hartree in (True, False)}


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("count", ORACLE_COUNTS)
@pytest.mark.parametrize("alpha, hartree", [(1, True), (0, True), (0, False)])
def test_form_bounds_match_per_pair_oracle(oracle_instances, alpha, hartree, count, seed):
    ctx, _ = oracle_instances[hartree][alpha]
    t = 0.0 if alpha == 1 else 0.5
    reports = check_form_bounds(ctx, t=t, count=count, seed=seed)
    assert {r.name: r.measured for r in reports} == form_bounds_per_pair(ctx, t, count, seed)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("pairs", ORACLE_COUNTS)
def test_pair_probes_match_per_pair_oracle(oracle_instances, pairs, seed):
    ctx, _ = oracle_instances[True][1]
    basis, kernel = ctx.basis, ctx.kernel

    def oracle(stream, count, ratio, low, high, scale=1.0):
        rng = np.random.default_rng([seed, stream])
        return pair_ratios_per_pair(basis, rng, count, ratio, low, high, scale)

    hartree = oracle(11, 2 * pairs, hartree_pair_ratio(basis, kernel), 0.2, 2.0)
    rng = np.random.default_rng([seed, 11])
    assert _hartree_pair_ratios(basis, kernel, 2 * pairs, rng) == hartree
    xc = oracle(23, pairs, xc_pair_ratio(basis, ctx.potentials), 0.05, 1.0, 1.5)
    coefficient = oracle(71, 2 * pairs, coefficient_pair_ratio(ctx), 0.05, 1.0)
    wide = oracle(72, pairs, coefficient_pair_ratio(ctx), 0.05, 1.0, 4.0)

    def xc_probe(count):
        return probe_xc_lipschitz(basis, ctx.potentials, np.random.default_rng([seed, 23]), 1.5, count)

    if pairs == 0:  # no sample, no constant: the same error as one pair at a time
        for call in [
            lambda: check_hartree_lipschitz(basis, kernel, pairs=0, seed=seed),
            lambda: xc_probe(0),
            lambda: check_coefficient_lipschitz(ctx, radius=1.0, pairs=0, seed=seed),
        ]:
            with pytest.raises(ValueError):
                call()
        return
    report = check_hartree_lipschitz(basis, kernel, pairs=pairs, seed=seed)
    assert report.ingredients == {"c_hat": max(hartree[:pairs]), "c_hat_doubled": max(hartree)}
    assert xc_probe(pairs) == max(xc)
    stability, growth = check_coefficient_lipschitz(ctx, radius=1.0, pairs=pairs, seed=seed)
    l_base, l_doubled = max(coefficient[:pairs]), max(coefficient)
    assert stability.ingredients == {"l_hat": l_base, "l_hat_doubled": l_doubled, "radius": 1.0}
    assert growth.ingredients == {"l_hat": l_doubled, "l_hat_wide": max(wide), "radius": 1.0}


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
@pytest.mark.parametrize("alpha", [1, 0])
def test_energy_estimates_match_per_snapshot_oracle(oracle_instances, alpha, seed):
    # the 41 stored snapshots span two blocks; the alpha=0 solve carries a source
    ctx, traj = oracle_instances[True][alpha]
    basis = ctx.basis
    rng = np.random.default_rng([seed, 23])
    radius = 1.1 * float(traj.l2.max())
    probed_l = max(pair_ratios_per_pair(
        basis, rng, 40, xc_pair_ratio(basis, ctx.potentials), 0.05, 1.0, radius
    ))
    probed_cu = max(pair_ratios_per_pair(
        basis, rng, 40, hartree_pair_ratio(basis, ctx.kernel), 0.2, 2.0
    ))
    reports = {r.name: r for r in check_energy_estimates(traj, ctx, seed=seed)}
    monitor = reports[f"dual-norm-monitor-alpha{alpha}"]
    assert monitor.measured == dual_norm_per_snapshot(ctx, traj)
    assert monitor.ingredients["probed_xc_lipschitz"] == probed_l
    assert monitor.ingredients["probed_hartree_constant"] == probed_cu


@pytest.mark.parametrize("alpha", [1, 0])
def test_l2_envelope_report_reads_the_solve_guard(oracle_instances, alpha):
    # the report restates the envelope the solve checked; the alpha=0 solve carries
    # a source, whose norms enter the bound
    ctx, traj = oracle_instances[True][alpha]
    reports = {r.name: r for r in check_energy_estimates(traj, ctx, seed=0)}
    report = reports[f"l2-envelope-alpha{alpha}"]
    assert report.measured == traj.meta["l2_envelope_measured"]
    assert report.bound == traj.meta["l2_envelope_bound"]
    c0 = (1 - alpha) * traj.meta["constants"]["c0"]
    start = traj.l2[0] if alpha == 1 else traj.l2[-1]
    source_sq = [0.0] * len(traj.times)
    if ctx.source is not None:
        source_sq = [np.sum(np.abs(ctx.source_coefficients(t)) ** 2) for t in traj.times]
    data = start**2 + np.trapezoid(source_sq, traj.times)
    horizon = traj.times[-1] - traj.times[0]
    assert report.bound == pytest.approx(np.exp((1.0 + 2.0 * c0) * horizon) * data, rel=1e-12)
    assert report.measured == np.max(traj.l2**2)
