"""Executable checks for the inequality structure of the evolution problem.

Every check measures a quantity on a concrete finite instance and compares
it against a bound whose constant is assembled from the corresponding proof
recipe using measured ingredient norms (grid sup norms, kernel row sums,
control sups) - never fitted to the data, so a violation would actually
falsify the inequality.  Two constants have no constructive recipe (the
Hartree pair constant and the local Lipschitz constant of the exchange
term); those are probed empirically on seeded samples and the substitution
is recorded in the report ingredients with a ``probed_`` prefix.

Reports carry the invariant  passed == (measured <= bound * (1 + tolerance)).
"""

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .domain import grid_norm, norms, random_coefficients, synthesize
from .potentials import density_from_grid, hartree_pair_difference, ks_potential
from .propagate import _source_norms_sq, solve_forward
from .system import bilinear_B, adjoint_D, bound_constants, nonlinear_G, rhs

MAX_EXP_ARG = 690.0  # keep assembled envelope constants inside float64


@dataclass
class EstimateReport:
    """Pass/fail record for one inequality check."""

    name: str
    reference: str
    measured: float
    bound: float
    tolerance: float
    passed: bool
    formula: str
    ingredients: dict = field(default_factory=dict)
    samples: int = 0
    asserted: bool = True
    detail: str = ""

    def to_dict(self):
        d = asdict(self)
        d["ingredients"] = {k: _jsonable(v) for k, v in d["ingredients"].items()}
        d["measured"] = _jsonable(d["measured"])
        d["bound"] = _jsonable(d["bound"])
        return d


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating, np.integer)):
        v = float(v)
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def make_report(
    name,
    reference,
    measured,
    bound,
    tolerance,
    formula,
    ingredients=None,
    samples=0,
    asserted=True,
    detail="",
):
    measured = float(measured)
    bound = float(bound)
    passed = bool(measured <= bound * (1.0 + tolerance))
    return EstimateReport(
        name=name,
        reference=reference,
        measured=measured,
        bound=bound,
        tolerance=float(tolerance),
        passed=passed,
        formula=formula,
        ingredients=dict(ingredients or {}),
        samples=int(samples),
        asserted=asserted,
        detail=detail,
    )


def _safe_exp(x):
    return math.exp(min(x, MAX_EXP_ARG))


# ---------------------------------------------------------------------------
# Coulomb kernel integrability
# ---------------------------------------------------------------------------


def _subsample_cells(centers, h, n, sub):
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    smesh = np.meshgrid(*([offs] * n), indexing="ij")
    shifts = np.stack([m.reshape(-1) for m in smesh], axis=1) * h
    pts = centers[:, None, :] + shifts[None, :, :]
    return np.sqrt((pts**2).sum(axis=2))


def _ball_quadrature(n, p, radius, resolution, refine_origin=True):
    """Midpoint quadrature of |x|^-p over the ball of the given radius.

    The singular origin sits on a cell corner of the even grid, so no
    evaluation point ever hits it.  Sphere-cut cells count with a
    subsampled inside fraction.  With ``refine_origin`` the near-origin
    cells (where the integrand curvature dominates the error) are also
    subsampled; the divergence probe turns this off so that refinement
    exposes the unbounded growth of the plain rule.  The rule is symmetric
    under reflection of each axis, so only the cells of the positive octant
    are evaluated and their sum counts 2^n times.
    """
    res = int(resolution)
    if res % 2:
        res += 1
    h = 2.0 * radius / res
    axis = (np.arange(res // 2) + 0.5) * h
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    centers = np.stack([m.reshape(-1) for m in mesh], axis=1)
    dist = np.sqrt((centers**2).sum(axis=1))
    half_diag = 0.5 * h * math.sqrt(n)
    core = (dist < 3.0 * h) if refine_origin else np.zeros(dist.shape, dtype=bool)
    inside = (dist <= radius - half_diag) & ~core
    boundary = (~inside) & ~core & (dist < radius + half_diag)
    cell = h**n
    total = float(np.sum(dist[inside] ** (-p))) * cell

    if np.any(core):
        d = _subsample_cells(centers[core], h, n, 11)
        total += float(np.sum(d**(-p))) * cell / d.shape[1]
    if np.any(boundary):
        d = _subsample_cells(centers[boundary], h, n, 5)
        frac = (d <= radius).mean(axis=1)
        vals = dist[boundary] ** (-p)
        total += float(np.sum(vals * frac)) * cell
    return total * 2**n


def check_coulomb_lp(n, p, radius=1.0, resolution=128):
    """Integrability of |x|^-p over a ball: closed form for n > p, divergence
    under refinement for n <= p."""
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    if n > p:
        quad = _ball_quadrature(n, p, radius, resolution)
        closed = (
            n
            * math.pi ** (n / 2.0)
            / math.gamma(n / 2.0 + 1.0)
            * radius ** (n - p)
            / (n - p)
        )
        rel = abs(quad / closed - 1.0)
        return make_report(
            name=f"coulomb-lp-n{n}-p{p}",
            reference="coulomb-kernel-integrability",
            measured=rel,
            bound=0.01,
            tolerance=0.0,
            formula="|quadrature/closed - 1| <= 0.01, closed = n*pi^(n/2)/Gamma(n/2+1) * R^(n-p)/(n-p)",
            ingredients={
                "quadrature": quad,
                "closed_form": closed,
                "resolution": resolution,
            },
            detail=f"ball radius {radius}, midpoint grid {resolution}^{n}",
        )
    values = []
    res = int(resolution)
    for _ in range(5):
        values.append(_ball_quadrature(n, p, radius, res, refine_origin=False))
        res *= 2
    increasing = all(b > a for a, b in zip(values, values[1:]))
    measured = 2.0 * values[0] / values[-1] if increasing else float("inf")
    return make_report(
        name=f"coulomb-lp-n{n}-p{p}",
        reference="coulomb-kernel-integrability",
        measured=measured,
        bound=1.0,
        tolerance=0.0,
        formula="divergent: strictly increasing under refinement and last >= 2 * first",
        ingredients={"values": values, "start_resolution": resolution},
        detail="flagged divergent" if measured <= 1.0 else "divergence not established",
    )


# ---------------------------------------------------------------------------
# Probed constants (no constructive recipe exists for these)
# ---------------------------------------------------------------------------


def _max_pair_ratio(basis, particles, rng, pairs, ratio, low, high, scale=1.0):
    """Largest ratio(a, b, |a - b|) over seeded random coefficient pairs whose
    L2 norms are uniform(low, high) * scale; pairs closer than 1e-14 are skipped."""
    best = 0.0
    for _ in range(pairs):
        a = random_coefficients(basis, particles, rng, rng.uniform(low, high) * scale)
        b = random_coefficients(basis, particles, rng, rng.uniform(low, high) * scale)
        gap = float(np.linalg.norm(a - b))
        if gap < 1e-14:
            continue
        best = max(best, ratio(a, b, gap))
    return best


def probe_hartree_constant(basis, kernel, particles, pairs, rng):
    """Empirical constant in the Hartree pair bound
    ||V_H(a)a - V_H(b)b|| <= C (||a||_H1^2 + ||b||_H1^2) ||a - b||."""

    def ratio(a, b, gap):
        _, h1a = norms(basis, a)
        _, h1b = norms(basis, b)
        num = hartree_pair_difference(
            basis, kernel, synthesize(basis, a), synthesize(basis, b)
        )
        return num / ((h1a**2 + h1b**2) * gap)

    return _max_pair_ratio(basis, particles, rng, pairs, ratio, 0.2, 2.0)


def probe_xc_lipschitz(basis, config, rng, radius, pairs, particles=1):
    """Empirical local Lipschitz constant of the enabled local terms:
    ||(V_x+V_c)(a)a - (V_x+V_c)(b)b|| <= L ||a - b|| on the L2 ball."""
    n = basis.spec.dimension
    local = replace(config, include_hartree=False)

    def ratio(a, b, gap):
        ga, gb = synthesize(basis, a), synthesize(basis, b)
        va = ks_potential(local, None, density_from_grid(ga), n)
        vb = ks_potential(local, None, density_from_grid(gb), n)
        return grid_norm(basis, va[:, None] * ga - vb[:, None] * gb) / gap

    return _max_pair_ratio(basis, particles, rng, pairs, ratio, 0.05, 1.0, radius)


def _probed_constants(ctx, rng, radius):
    """(probed xc Lipschitz constant on the L2 ball of the radius, probed Hartree
    pair constant or 0 without Hartree), 40 seeded pairs each."""
    particles = ctx.basis.spec.particles
    probed_l = probe_xc_lipschitz(
        ctx.basis, ctx.potentials, rng, radius, pairs=40, particles=particles
    )
    probed_cu = 0.0
    if ctx.potentials.include_hartree:
        probed_cu = probe_hartree_constant(ctx.basis, ctx.kernel, particles, 40, rng)
    return probed_l, probed_cu


def check_hartree_lipschitz(basis, kernel, particles=1, pairs=30, seed=0):
    """Stability of the probed Hartree pair constant under sample doubling."""
    rng = np.random.default_rng([seed, 11])
    base = probe_hartree_constant(basis, kernel, particles, pairs, rng)
    rng2 = np.random.default_rng([seed, 11])
    doubled = probe_hartree_constant(basis, kernel, particles, 2 * pairs, rng2)
    measured = doubled / base if base > 0 else float("inf")
    return make_report(
        name="hartree-pair-lipschitz",
        reference="hartree-pair-bound",
        measured=measured,
        bound=2.0,
        tolerance=0.0,
        formula="C_hat(2*pairs)/C_hat(pairs) < 2 with nested seeded samples",
        ingredients={"c_hat": base, "c_hat_doubled": doubled},
        samples=2 * pairs,
        detail=f"{pairs} then {2 * pairs} random state pairs",
    )


# ---------------------------------------------------------------------------
# Energy estimates along a trajectory
# ---------------------------------------------------------------------------


def check_energy_estimates(traj, ctx, seed=0):
    """Envelope checks along one solve: L2 envelope, quadratic-form bound,
    H1 sup bound, time-integrated H1 bound (all asserted), and the discrete
    dual-norm surrogate (monitored: the sup is truncated to the basis).

    ``traj`` is a solve in ``ctx``; its ``meta["constants"]`` supply the
    form constants."""
    ing = traj.meta["constants"]
    alpha = ctx.alpha
    horizon = float(traj.times[-1] - traj.times[0])
    ctilde0 = (1 - alpha) * ing["c0"]
    start_sq = float(traj.l2[0] ** 2 if alpha == 1 else traj.l2[-1] ** 2)
    source_sq = _source_norms_sq(ctx, traj.times)
    f_y_sq = float(np.trapezoid(source_sq, traj.times))
    f_sup_sq = float(np.max(source_sq))
    data = start_sq + f_y_sq

    rng = np.random.default_rng([seed, 23])
    probed_l, probed_cu = _probed_constants(ctx, rng, 1.1 * float(traj.l2.max()))
    k_corr = (
        ctx.potentials.correlation_a / ctx.potentials.correlation_b
        if ctx.potentials.include_correlation
        else 0.0
    )

    shared = dict(ing)
    shared.update(
        start_norm_sq=start_sq,
        source_y_norm_sq=f_y_sq,
        source_sup_sq=f_sup_sq,
        probed_xc_lipschitz=probed_l,
        probed_hartree_constant=probed_cu,
        correlation_sup=k_corr,
        horizon=horizon,
    )

    env = _safe_exp((1.0 + 2.0 * ctilde0) * horizon)
    reports = []
    reports.append(
        make_report(
            name=f"l2-envelope-alpha{alpha}",
            reference="gronwall-l2-envelope",
            measured=float(np.max(traj.l2**2)),
            bound=env * data,
            tolerance=0.05,
            formula="max_t |Psi|^2 <= exp((1+2*(1-alpha)*c0)*T) * (start^2 + |F|_Y^2)",
            ingredients=shared,
        )
    )

    c_form = (alpha * (probed_l + k_corr) + 0.5) * env * data + 0.5 * f_sup_sq
    reports.append(
        make_report(
            name=f"form-value-bound-alpha{alpha}",
            reference="quadratic-form-value-bound",
            measured=float(np.max(traj.re_b)),
            bound=c_form,
            tolerance=0.05,
            formula="max_t Re B <= (alpha*(L+a/b)+1/2)*env*(data) + sup_t|F(t)|^2/2",
            ingredients=shared,
        )
    )

    c1_bound = c_form + ing["c3"] * env * data
    reports.append(
        make_report(
            name=f"h1-sup-bound-alpha{alpha}",
            reference="h1-sup-envelope",
            measured=float(np.max(traj.h1**2)),
            bound=c1_bound,
            tolerance=0.05,
            formula="sup_t |Psi|_H1^2 <= form_bound + c3 * env * (data)",
            ingredients=shared,
        )
    )

    k_prime = alpha * (probed_cu * c1_bound + probed_l + k_corr)
    growth = 1.0 + ctilde0 + ing["c3"] + k_prime
    x_bound = (1.0 + growth * horizon * env) * f_y_sq + (
        growth * env * horizon + 0.5
    ) * start_sq
    x_measured = float(np.trapezoid(traj.h1**2, traj.times))
    reports.append(
        make_report(
            name=f"x-norm-bound-alpha{alpha}",
            reference="time-integrated-h1-bound",
            measured=x_measured,
            bound=x_bound,
            tolerance=0.05,
            formula="int |Psi|_H1^2 <= (1+g*T*env)*|F|_Y^2 + (g*env*T + 1/2)*start^2, "
            "g = 1 + c0~ + c3 + K'",
            ingredients=dict(shared, k_prime=k_prime),
        )
    )

    # dual norm of the time derivative, truncated to the basis (monitored)
    dual_sq = np.empty(len(traj.times))
    chain_sq = np.empty(len(traj.times))
    inv_w = 1.0 / (1.0 + ctx.basis.eigenvalues)
    for i, t in enumerate(traj.times):
        dstate = rhs(ctx, t, traj.states[i])
        dual_sq[i] = float(
            np.sum(inv_w[:, None] * (dstate.real**2 + dstate.imag**2))
        )
        chain = ing["c1"] * traj.h1[i] + k_prime * traj.l2[i] + np.sqrt(source_sq[i])
        chain_sq[i] = chain**2
    reports.append(
        make_report(
            name=f"dual-norm-monitor-alpha{alpha}",
            reference="time-derivative-dual-bound",
            measured=float(np.trapezoid(dual_sq, traj.times)),
            bound=float(np.trapezoid(chain_sq, traj.times)),
            tolerance=0.05,
            formula="int sum_k |d'_k|^2/(1+lambda_k) <= int (c1*|Psi|_H1 + alpha*K~*|Psi| + |F|)^2",
            ingredients=dict(shared, k_prime=k_prime),
            asserted=False,
            detail="basis-truncated dual norm; a violation would still falsify",
        )
    )
    return reports


# ---------------------------------------------------------------------------
# Uniqueness / perturbation decay
# ---------------------------------------------------------------------------


def check_uniqueness_gronwall(ctx, base, eps_list, seed=0, halving_eps=None):
    """Perturbation-growth envelope and first-order scaling of the gap.

    ``base`` is the forward solve in ``ctx`` from psi0 = ``base.states[0]``;
    the check solves from psi0 + eps*delta for every eps.  The gap must stay
    under the exponential envelope with the rate assembled from probed
    Lipschitz constants and the measured H1 diagnostics, and halving eps
    must roughly halve the gap (ratio within [0.4, 0.6]).
    """
    eps_list = sorted(float(e) for e in eps_list)
    if eps_list[0] < 1e-9:
        raise ValueError("perturbation below integrator resolution; use eps >= 1e-9")
    rng = np.random.default_rng([seed, 37])
    delta = random_coefficients(ctx.basis, ctx.basis.spec.particles, rng, 1.0)

    psi0 = base.states[0]
    radius = 1.5 * float(base.l2.max()) + max(eps_list)
    probed_l, probed_cu = _probed_constants(ctx, rng, radius)

    halving = float(halving_eps) if halving_eps else eps_list[len(eps_list) // 2]
    solve_at = sorted(set(eps_list) | {halving, 0.5 * halving})
    worst = 0.0
    gaps_at_t = {}
    for eps in solve_at:
        pert = solve_forward(ctx, psi0 + eps * delta)
        gap = np.sqrt(np.sum(np.abs(pert.states - base.states) ** 2, axis=(1, 2)))
        gaps_at_t[eps] = gap
        theta = 2.0 * (probed_cu * (base.h1**2 + pert.h1**2) + probed_l)
        integral = np.concatenate(
            [[0.0], np.cumsum(0.5 * (theta[1:] + theta[:-1]) * np.diff(base.times))]
        )
        envelope = np.exp(0.5 * np.minimum(integral, MAX_EXP_ARG)) * eps
        ratio = np.max(gap[1:] / envelope[1:])
        worst = max(worst, float(ratio))

    g_full = gaps_at_t[halving][-1]
    g_half = gaps_at_t[0.5 * halving][-1]
    ratio = g_half / g_full if g_full > 0 else float("inf")

    envelope_report = make_report(
        name="uniqueness-envelope",
        reference="perturbation-gronwall-envelope",
        measured=worst,
        bound=1.0,
        tolerance=0.0,
        formula="gap(t) <= exp(int theta/2) * eps * |delta|, theta from probed constants",
        ingredients={
            "eps_list": eps_list,
            "probed_xc_lipschitz": probed_l,
            "probed_hartree_constant": probed_cu,
        },
        samples=len(eps_list),
    )
    halving_report = make_report(
        name="uniqueness-halving",
        reference="perturbation-first-order-scaling",
        measured=abs(ratio - 0.5),
        bound=0.1,
        tolerance=0.0,
        formula="gap(eps/2)/gap(eps) within [0.4, 0.6] at t = T",
        ingredients={"eps": halving, "ratio": float(ratio)},
    )
    return [envelope_report, halving_report]


# ---------------------------------------------------------------------------
# Basis refinement convergence
# ---------------------------------------------------------------------------


def _pad_states(states, src_basis, dst_basis):
    """Zero-pad coefficients from a coarser nested basis into a finer one."""
    lookup = {tuple(idx): i for i, idx in enumerate(dst_basis.mode_indices)}
    rows = [lookup[tuple(idx)] for idx in src_basis.mode_indices]
    out = np.zeros(states.shape[:1] + (dst_basis.size,) + states.shape[2:], dtype=states.dtype)
    out[:, rows] = states
    return out


def check_galerkin_convergence(builder, mode_lists):
    """Y-norm increments between solves at nested mode counts must decrease
    strictly, with the final increment below 10 percent of the first.

    ``builder(modes_per_axis)`` returns (ctx, psi0) on a common grid.
    """
    if len(mode_lists) < 3:
        raise ValueError("need at least three nested mode counts")
    solves = []
    for modes in mode_lists:
        ctx, psi0 = builder(tuple(modes))
        traj = solve_forward(ctx, psi0)
        solves.append((ctx.basis, traj))
    increments = []
    for (b_lo, t_lo), (b_hi, t_hi) in zip(solves, solves[1:]):
        padded = _pad_states(t_lo.states, b_lo, b_hi)
        diff_sq = np.sum(np.abs(t_hi.states - padded) ** 2, axis=(1, 2))
        increments.append(float(np.sqrt(np.trapezoid(diff_sq, t_hi.times))))
    if all(v < 1e-12 for v in increments):
        measured = 0.0  # invariant subspace: increments vanish to roundoff
    else:
        decreasing = all(b < a for a, b in zip(increments, increments[1:]))
        measured = (
            increments[-1] / increments[0] if decreasing and increments[0] > 0 else float("inf")
        )
    return make_report(
        name="galerkin-convergence",
        reference="basis-refinement-convergence",
        measured=measured,
        bound=0.1,
        tolerance=0.0,
        formula="increments |Psi_m' - Psi_m|_Y strictly decreasing, last < 0.1 * first",
        ingredients={"increments": increments, "modes": [list(m) for m in mode_lists]},
        detail="Y norm via zero-padded coefficient embedding",
    )


# ---------------------------------------------------------------------------
# Continuity and local Lipschitz probes
# ---------------------------------------------------------------------------


def check_potential_continuity(basis, config, kernel, seed=0, particles=1):
    """V(Psi_n)Psi_n -> V(Psi)Psi in L2 along a geometric perturbation schedule."""
    rng = np.random.default_rng([seed, 53])
    base = random_coefficients(basis, particles, rng, 1.0)
    direction = random_coefficients(basis, particles, rng, 1.0)
    n = basis.spec.dimension
    g_base = synthesize(basis, base)
    v_base = ks_potential(config, kernel, density_from_grid(g_base), n)
    errors = []
    for k in range(25):
        pert = base + 0.5 * 2.0**-k * direction
        g = synthesize(basis, pert)
        v = ks_potential(config, kernel, density_from_grid(g), n)
        errors.append(
            grid_norm(basis, v[:, None] * g - v_base[:, None] * g_base)
        )
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    measured = errors[-1] if monotone else float("inf")
    return make_report(
        name="potential-continuity",
        reference="coupling-potential-l2-continuity",
        measured=measured,
        bound=1e-6,
        tolerance=0.0,
        formula="|V(Psi_n)Psi_n - V(Psi)Psi| decreases monotonically below 1e-6",
        ingredients={"errors": errors},
        samples=len(errors),
    )


def check_coefficient_lipschitz(ctx, radius=1.0, pairs=100, seed=0):
    """Local Lipschitz behaviour of the projected nonlinearity G on coefficient
    balls: stable ratio under sample doubling, growing with the ball radius."""
    particles = ctx.basis.spec.particles

    def ratio(a, b, gap):
        return float(np.linalg.norm(nonlinear_G(ctx, a) - nonlinear_G(ctx, b))) / gap

    def probe(r, count, rng):
        return _max_pair_ratio(ctx.basis, particles, rng, count, ratio, 0.05, 1.0, r)

    l_base = probe(radius, pairs, np.random.default_rng([seed, 71]))
    l_doubled = probe(radius, 2 * pairs, np.random.default_rng([seed, 71]))
    l_wide = probe(4.0 * radius, pairs, np.random.default_rng([seed, 72]))
    stability = make_report(
        name="coefficient-lipschitz-stability",
        reference="projected-nonlinearity-local-lipschitz",
        measured=l_doubled / l_base if l_base > 0 else float("inf"),
        bound=2.0,
        tolerance=0.0,
        formula="L(2*pairs)/L(pairs) < 2 with nested seeded samples",
        ingredients={"l_hat": l_base, "l_hat_doubled": l_doubled, "radius": radius},
        samples=2 * pairs,
    )
    growth = make_report(
        name="coefficient-lipschitz-growth",
        reference="projected-nonlinearity-local-lipschitz",
        measured=l_doubled / l_wide if l_wide > 0 else float("inf"),
        bound=1.0,
        tolerance=0.0,
        formula="L(radius) <= L(4*radius): the constant is local, growing with the ball",
        ingredients={"l_hat": l_doubled, "l_hat_wide": l_wide, "radius": radius},
        samples=2 * pairs,
    )
    return [stability, growth]


# ---------------------------------------------------------------------------
# Quadratic form bounds on random states
# ---------------------------------------------------------------------------


def check_form_bounds(ctx, t=0.0, count=100, seed=0):
    """Sesquilinear-form inequalities on random states: |B| boundedness,
    coercivity with the assembled c3, the imaginary-part bound, and (alpha=0)
    the coupling-form bound with the assembled c0."""
    ing = bound_constants(ctx)
    rng = np.random.default_rng([seed, 97])
    particles = ctx.basis.spec.particles
    ratio_b = 0.0
    ratio_coerce = -float("inf")
    worst_im = 0.0
    ratio_d = 0.0
    for _ in range(count):
        a = random_coefficients(ctx.basis, particles, rng, rng.uniform(0.2, 2.0))
        b = random_coefficients(ctx.basis, particles, rng, rng.uniform(0.2, 2.0))
        l2a, h1a = norms(ctx.basis, a)
        _, h1b = norms(ctx.basis, b)
        val = bilinear_B(ctx, t, a, b)
        ratio_b = max(ratio_b, abs(val) / (ing["c1"] * h1a * h1b))
        diag = bilinear_B(ctx, t, a, a)
        ratio_coerce = max(
            ratio_coerce, (h1a**2 - diag.real) / (ing["c3"] * l2a**2)
        )
        if ctx.alpha == 1:
            worst_im = max(worst_im, abs(diag.imag))
        else:
            c0_den = ing["c0"] if ing["c0"] > 0 else float("inf")
            worst_im = max(worst_im, abs(diag.imag) / (c0_den * l2a**2))
            d_h, d_xc = adjoint_D(ctx, t, a, b)
            ratio_d = max(ratio_d, abs(d_h + d_xc) / (c0_den * l2a * np.linalg.norm(b)))
    reports = [
        make_report(
            name=f"form-boundedness-alpha{ctx.alpha}",
            reference="form-h1-boundedness",
            measured=ratio_b,
            bound=1.0,
            tolerance=0.0,
            formula="|B(a,b)| <= c1 |a|_H1 |b|_H1, c1 = 1 + (1-alpha)(c0 + |V(L)|_inf) + |V0|_inf + sup|u| |Vu|_inf",
            ingredients=ing,
            samples=count,
        ),
        make_report(
            name=f"form-coercivity-alpha{ctx.alpha}",
            reference="form-garding-coercivity",
            measured=ratio_coerce,
            bound=1.0,
            tolerance=0.0,
            formula="|a|_H1^2 - Re B(a,a) <= c3 |a|^2, c3 = 1 + (1-alpha)(c0 + |V(L)|_inf) + |V0|_inf + sup|u| |Vu|_inf",
            ingredients=ing,
            samples=count,
        ),
    ]
    if ctx.alpha == 1:
        reports.append(
            make_report(
                name="form-imag-vanishes-alpha1",
                reference="form-imaginary-part",
                measured=worst_im,
                bound=1e-10,
                tolerance=0.0,
                formula="Im B(a,a) == 0 up to quadrature roundoff for the forward form",
                ingredients=ing,
                samples=count,
            )
        )
    else:
        reports.append(
            make_report(
                name="form-imag-bound-alpha0",
                reference="form-imaginary-part",
                measured=worst_im,
                bound=1.0,
                tolerance=0.0,
                formula="|Im B(a,a)| <= c0 |a|^2",
                ingredients=ing,
                samples=count,
            )
        )
        reports.append(
            make_report(
                name="coupling-form-bound",
                reference="coupling-form-l2-bound",
                measured=ratio_d,
                bound=1.0,
                tolerance=0.0,
                formula="|D(a,b)| <= c0 |a| |b|, c0 = 2N^2 sup|dV/drho * rho_L| + 2N^(3/2) |w|_L1 |L|_inf^2",
                ingredients=ing,
                samples=count,
            )
        )
    return reports
