"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values.  Tolerances and instance sizes are fixed here;
nothing is calibrated at run time.
"""

import json
import time
from dataclasses import replace

import numpy as np
from scipy.linalg import expm

from tdks import (
    ControlSignal,
    ObjectiveSpec,
    PotentialConfig,
    SystemContext,
    adjoint_sources,
    bilinear_B,
    bound_constants,
    check_coulomb_lp,
    check_energy_estimates,
    check_galerkin_convergence,
    check_hartree_lipschitz,
    check_uniqueness_gronwall,
    evaluate_objective,
    norms,
    random_coefficients,
    reduced_gradient,
    solve_adjoint,
    solve_forward,
    step,
)
from tdks.cli import _reports_payload, default_config, run_verification_suite

from conftest import at_every_time, galerkin_matrix, make_setup, unit_state


def _verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_norm_conservation():
    basis, pot, kernel = make_setup(
        lengths=(3.0,), grid=(48,), modes=(16,), steps=2000, horizon=1.0
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = np.zeros((basis.size, 1), dtype=np.complex128)
    psi0[0, 0], psi0[1, 0], psi0[2, 0] = 0.9, 0.3, 0.1j
    psi0 /= np.linalg.norm(psi0)
    t0 = time.perf_counter()
    traj = solve_forward(ctx, psi0)
    elapsed = time.perf_counter() - t0
    drift = float(np.abs(traj.l2**2 - traj.l2[0] ** 2).max() / traj.l2[0] ** 2)
    ok = drift <= 1e-6 and elapsed < 10.0
    _verdict(1, ok, f"norm conservation: drift {drift:.3e} (<=1e-6), {elapsed:.2f}s (<10s)")


def test_criterion_02_free_mode_phase_and_order():
    t0 = time.perf_counter()
    basis, pot, _ = make_setup(
        grid=(48,),
        modes=(16,),
        steps=400,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
    )
    ctx = SystemContext(basis=basis, potentials=pot)
    k = 6
    traj = solve_forward(ctx, unit_state(basis, k))
    phase_err = abs(
        traj.states[-1][k, 0] - np.exp(-1j * basis.eigenvalues[k] * basis.spec.horizon)
    )

    # non-commuting constant potential for the order probe (the free flow is
    # exact under splitting, so its Richardson ratio is 0/0 noise)
    basis_o, _, _ = make_setup(grid=(32,), modes=(8,))
    v = 1.5 * np.cos(2 * np.pi * basis_o.nodes[:, 0])
    pot_o = PotentialConfig(
        coulomb_softening=0.1,
        include_hartree=False,
        include_exchange=False,
        include_correlation=False,
        confinement=v,
    )
    ctx_o = SystemContext(basis=basis_o, potentials=pot_o)
    exact = expm(-1j * galerkin_matrix(basis_o, v)) @ unit_state(basis_o, 0)

    def err(steps):
        d = unit_state(basis_o, 0)
        dt = 1.0 / steps
        for i in range(steps):
            d = step(ctx_o, i * dt, dt, d)
        return np.linalg.norm(d - exact)

    r1 = err(125) / err(250)
    r2 = err(250) / err(500)
    elapsed = time.perf_counter() - t0
    ok = phase_err <= 1e-8 and 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5 and elapsed < 5.0
    _verdict(
        2,
        ok,
        f"free phase err {phase_err:.2e} (<=1e-8), Richardson ratios "
        f"{r1:.2f}, {r2:.2f} (in [3.5,4.5]), {elapsed:.2f}s (<5s)",
    )


def test_criterion_03_coulomb_closed_form_and_divergence():
    t0 = time.perf_counter()
    conv = check_coulomb_lp(3, 2, 1.0, 96)
    div = check_coulomb_lp(3, 3, 1.0, 8)
    elapsed = time.perf_counter() - t0
    quad = conv.ingredients["quadrature"]
    ok = conv.passed and div.passed and elapsed < 30.0
    _verdict(
        3,
        ok,
        f"ball quadrature {quad:.4f} vs 4*pi={4*np.pi:.4f} "
        f"(dev {conv.measured * 100:.2f}% <= 1%), p=3 {div.detail}, {elapsed:.1f}s (<30s)",
    )


def _default_instance():
    basis, pot, kernel = make_setup(
        lengths=(3.0,),
        grid=(32,),
        modes=(8,),
        steps=400,
        horizon=1.0,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    return basis, pot, kernel, ctx, unit_state(basis, 0)


def test_criterion_04_energy_envelopes():
    basis, pot, kernel, ctx, psi0 = _default_instance()
    traj = solve_forward(ctx, psi0)
    fwd = {r.name: r for r in check_energy_estimates(traj, seed=0)}

    target = np.zeros_like(psi0)
    spec_obj = ObjectiveSpec(
        j1="trajectory",
        j2="terminal",
        nu=1.0,
        target_state=target,
        target_trajectory=at_every_time(target),
    )
    terminal, source = adjoint_sources(spec_obj, traj)
    actx = SystemContext(
        basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel, source=source
    )
    adj = solve_adjoint(actx, terminal)
    back = {r.name: r for r in check_energy_estimates(adj, seed=0)}

    graded = [
        fwd["l2-envelope-alpha1"],
        fwd["h1-sup-bound-alpha1"],
        fwd["x-norm-bound-alpha1"],
        back["l2-envelope-alpha0"],
        back["h1-sup-bound-alpha0"],
        back["x-norm-bound-alpha0"],
    ]
    violations = [r.name for r in graded if not r.passed]
    ok = not violations
    worst = max(r.measured / r.bound for r in graded)
    _verdict(
        4,
        ok,
        f"energy envelopes (L2, H1-sup, X-norm) x (forward, adjoint with F!=0): "
        f"{len(violations)} violations at 5% tolerance, worst measured/bound {worst:.3f}",
    )


def test_criterion_05_uniqueness_gronwall():
    t0 = time.perf_counter()
    basis, pot, kernel, ctx, psi0 = _default_instance()
    envelope, halving = check_uniqueness_gronwall(
        solve_forward(ctx, psi0), [1e-2, 1e-3, 1e-4], seed=0
    )
    elapsed = time.perf_counter() - t0
    ratio = halving.ingredients["ratio"]
    ok = envelope.passed and halving.passed and elapsed < 60.0
    _verdict(
        5,
        ok,
        f"perturbation gap within exp envelope (max ratio {envelope.measured:.3f} <= 1), "
        f"halving ratio {ratio:.3f} in [0.4,0.6], {elapsed:.1f}s (<60s)",
    )


def test_criterion_06_galerkin_convergence():
    def solve(modes):
        basis, pot, kernel = make_setup(
            lengths=(3.0,),
            grid=(32,),
            modes=modes,
            steps=400,
            confinement={"kind": "harmonic", "amplitude": 1.0},
        )
        ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
        return solve_forward(ctx, unit_state(basis, 0))

    report = check_galerkin_convergence(solve, [[4], [8], [12]])
    inc = report.ingredients["increments"]
    ok = report.passed
    _verdict(
        6,
        ok,
        f"Y-norm increments {inc[0]:.3e} -> {inc[1]:.3e} strictly decreasing, "
        f"final/first {report.measured:.3f} < 0.1",
    )


def test_criterion_07_lipschitz_probe_stability():
    basis, pot, kernel, ctx, _ = _default_instance()
    hart = check_hartree_lipschitz(basis, kernel, pairs=100, seed=0)

    rng_a = np.random.default_rng([0, 71])
    rng_b = np.random.default_rng([0, 71])

    from tdks import nonlinear_G

    def probe(count, rng):
        best = 0.0
        for _ in range(count):
            a = random_coefficients(basis, 1, rng, rng.uniform(0.05, 1.0))
            b = random_coefficients(basis, 1, rng, rng.uniform(0.05, 1.0))
            gap = np.linalg.norm(a - b)
            if gap < 1e-14:
                continue
            best = max(best, np.linalg.norm(nonlinear_G(ctx, a) - nonlinear_G(ctx, b)) / gap)
        return best

    l_100 = probe(100, rng_a)
    l_200 = probe(200, rng_b)
    coef_ratio = l_200 / l_100
    ok = hart.passed and np.isfinite(l_100) and l_100 > 0 and coef_ratio < 2.0
    _verdict(
        7,
        ok,
        f"hartree pair constant stable ({hart.ingredients['c_hat']:.3f}, doubling x{hart.measured:.3f}), "
        f"nonlinearity constant stable ({l_100:.3f}, doubling x{coef_ratio:.3f}), both < 2x over >=100 pairs",
    )


def test_criterion_08_adjoint_gradient_finite_differences():
    t0 = time.perf_counter()
    basis, pot, kernel = make_setup(
        lengths=(3.0,),
        grid=(32,),
        modes=(8,),
        steps=200,
        horizon=1.0,
        confinement={"kind": "harmonic", "amplitude": 1.0},
        control_shape={"kind": "dipole", "amplitude": 1.0},
    )
    ctx = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    psi0 = unit_state(basis, 0)
    target = unit_state(basis, 1)
    spec_obj = ObjectiveSpec(j2="terminal", nu=1e-2, target_state=target)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(3):
        u = ControlSignal(samples=rng.normal(0.0, 0.4, 201), horizon=1.0)
        _, raw = reduced_gradient(spec_obj, solve_forward(replace(ctx, control=u), psi0))
        for idx in rng.choice(201, size=5, replace=False):
            best = np.inf
            for eps in (1e-3, 3e-4, 1e-4, 3e-5, 1e-5):
                up, dn = u.samples.copy(), u.samples.copy()
                up[idx] += eps
                dn[idx] -= eps
                jp = evaluate_objective(spec_obj, ctx, ControlSignal(up, 1.0), psi0)[1]
                jm = evaluate_objective(spec_obj, ctx, ControlSignal(dn, 1.0), psi0)[1]
                fd = (jp - jm) / (2 * eps)
                best = min(best, abs(fd - raw[idx]) / max(abs(fd), 1e-14))
            worst = max(worst, best)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 120.0
    _verdict(
        8,
        ok,
        f"adjoint gradient vs central differences: worst plateau rel err {worst:.2e} "
        f"(<=1e-4) over 3 controls x 5 samples, {elapsed:.1f}s (<120s)",
    )


def test_criterion_09_form_bounds_on_random_states():
    basis, pot, kernel, ctx, psi0 = _default_instance()
    traj = solve_forward(ctx, psi0)
    actx = SystemContext(basis=basis, potentials=pot, alpha=0, forward=traj, kernel=kernel)
    ing1 = bound_constants(ctx)
    ing0 = bound_constants(actx)
    rng = np.random.default_rng(99)
    violations = 0
    worst_im1 = 0.0
    for _ in range(100):
        a = random_coefficients(basis, 1, rng, rng.uniform(0.2, 2.0))
        l2a, h1a = norms(basis, a)
        d1 = bilinear_B(ctx, 0.3, a, a)
        worst_im1 = max(worst_im1, abs(d1.imag))
        if abs(d1.imag) > 1e-10:
            violations += 1
        if h1a**2 - d1.real > ing1["c3"] * l2a**2:
            violations += 1
        d0 = bilinear_B(actx, 0.3, a, a)
        if abs(d0.imag) > ing0["c0"] * l2a**2:
            violations += 1
        if h1a**2 - d0.real > ing0["c3"] * l2a**2:
            violations += 1
    ok = violations == 0
    _verdict(
        9,
        ok,
        f"form bounds over 100 random states: |Im B|<=c0|a|^2 (alpha=0), "
        f"Im B = {worst_im1:.1e} (<=1e-10, alpha=1), coercivity with c3: {violations} violations",
    )


def test_criterion_10_verify_determinism():
    cfg = default_config()
    a = json.dumps(_reports_payload(run_verification_suite(cfg)), sort_keys=True, indent=2)
    b = json.dumps(_reports_payload(run_verification_suite(cfg)), sort_keys=True, indent=2)
    failed = [r["name"] for r in json.loads(a) if r["asserted"] and not r["passed"]]
    ok = a.encode() == b.encode() and not failed
    _verdict(
        10,
        ok,
        f"two verification-suite runs with seed {cfg['seed']}: byte-identical reports "
        f"({len(a)} bytes), asserted failures: {failed or 'none'}",
    )
