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

from .domain import carry_modes, grid_norm, norms, random_coefficients, synthesize
from .potentials import density_from_grid, hartree_pair_difference, ks_potential
from .propagate import MAX_EXP_ARG, form_values, l2_envelope, solve_forward
from .system import adjoint_D, bilinear_B, bound_constants, nonlinear_G, rhs, snapshot_blocks


@dataclass
class EstimateReport:
    """Pass/fail record for one inequality check; ``passed`` is computed as
    measured <= bound * (1 + tolerance)."""

    name: str
    reference: str
    measured: float
    bound: float
    tolerance: float
    passed: bool = field(init=False)
    formula: str
    ingredients: dict = field(default_factory=dict)
    samples: int = 0
    asserted: bool = True
    detail: str = ""

    def __post_init__(self):
        self.measured = float(self.measured)
        self.bound = float(self.bound)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.measured <= self.bound * (1.0 + self.tolerance))
        self.ingredients = dict(self.ingredients)
        self.samples = int(self.samples)

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


# ---------------------------------------------------------------------------
# Coulomb kernel integrability
# ---------------------------------------------------------------------------


def _subsample_cells(centers, h, n, sub):
    """Distances from the origin of the sub^n midpoint subsamples of each cell, as
    (cells, sub^n), the subsamples in row-major order of their per-axis offsets.

    Each axis is squared once, as (cells, sub) values of (center + offset)^2, and
    the axes are added by broadcasting, first axis first: ((x^2 + y^2) + z^2).
    Those are the sums, taken in the same order, of squaring every subsample point
    and summing over its axes, so the distances are bit-identical to that.
    """
    shifts = ((np.arange(sub) + 0.5) / sub - 0.5) * h
    cells = len(centers)
    total = None
    for k in range(n):
        sq = ((centers[:, k, None] + shifts) ** 2).reshape((cells,) + (1,) * k + (sub,))
        total = sq if total is None else total[..., None] + sq
    return np.sqrt(total.reshape(cells, -1))


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

    The octant is walked one slab of the first axis at a time, so the peak
    memory is that of one slab's cells and sphere-cut subsamples, not of
    the whole grid.  Each slab's per-cell values are kept and every sum is
    taken once over them in row-major cell order: the numbers added, and
    their order, are those of the whole-grid rule, so the result is
    bit-identical to it.  The subsample distances come from per-axis squares
    (``_subsample_cells``): the same sums as squaring every subsample point,
    taken in the same order.
    """
    res = int(resolution)
    if res % 2:
        res += 1
    h = 2.0 * radius / res
    axis = (np.arange(res // 2) + 0.5) * h
    mesh = np.meshgrid(*([axis] * (n - 1)), indexing="ij")
    rest = np.stack([m.reshape(-1) for m in mesh], axis=1) if n > 1 else np.empty((1, 0))
    half_diag = 0.5 * h * math.sqrt(n)
    cell = h**n
    inside_vals, core_centers, boundary_vals = [], [], []
    for x in axis:
        centers = np.column_stack((np.full(len(rest), x), rest))
        dist = np.sqrt((centers**2).sum(axis=1))
        core = (dist < 3.0 * h) if refine_origin else np.zeros(dist.shape, dtype=bool)
        inside = (dist <= radius - half_diag) & ~core
        boundary = (~inside) & ~core & (dist < radius + half_diag)
        inside_vals.append(dist[inside] ** (-p))
        core_centers.append(centers[core])
        if np.any(boundary):
            d = _subsample_cells(centers[boundary], h, n, 5)
            frac = (d <= radius).mean(axis=1)
            boundary_vals.append(dist[boundary] ** (-p) * frac)
    total = float(np.sum(np.concatenate(inside_vals))) * cell

    core_centers = np.concatenate(core_centers)
    if len(core_centers):
        d = _subsample_cells(core_centers, h, n, 11)
        total += float(np.sum(d**(-p))) * cell / d.shape[1]
    if boundary_vals:
        total += float(np.sum(np.concatenate(boundary_vals))) * cell
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
        return EstimateReport(
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
    return EstimateReport(
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


def _random_pairs(basis, rng, count, low, high, scale=1.0):
    """``count`` seeded pairs of random coefficient states, stacked as a and b
    (count, modes, particles), whose L2 norms are uniform(low, high) * scale;
    each pair draws a's norm, a, b's norm and b, in that order."""
    particles = basis.spec.particles
    a = np.empty((count, basis.size, particles), dtype=np.complex128)
    b = np.empty_like(a)
    for i in range(count):
        a[i] = random_coefficients(basis, particles, rng, rng.uniform(low, high) * scale)
        b[i] = random_coefficients(basis, particles, rng, rng.uniform(low, high) * scale)
    return a, b


def _pair_ratios(basis, rng, pairs, ratio, low, high, scale=1.0):
    """Ratio of each seeded random coefficient pair, in draw order, whose L2 norms
    are uniform(low, high) * scale; a pair closer than 1e-14 gives 0.

    The pairs are drawn one ``snapshot_blocks`` block at a time.  ``ratio(a, b,
    gaps)`` then takes the stacks of the block's pairs that are not that close
    and the list of their gaps |a - b|, and returns the list of their ratios.
    """
    out = []
    for block in snapshot_blocks(basis, pairs):
        a, b = _random_pairs(basis, rng, block.stop - block.start, low, high, scale)
        gaps = [float(np.linalg.norm(x - y)) for x, y in zip(a, b)]
        kept = [i for i, gap in enumerate(gaps) if gap >= 1e-14]
        ratios = [0.0] * len(gaps)
        if kept:
            for i, r in zip(kept, ratio(a[kept], b[kept], [gaps[i] for i in kept])):
                ratios[i] = r
        out.extend(ratios)
    return out


def _hartree_pair_ratios(basis, kernel, pairs, rng):
    def ratio(a, b, gaps):
        _, h1a = norms(basis, a)
        _, h1b = norms(basis, b)
        num = hartree_pair_difference(
            basis, kernel, synthesize(basis, a), synthesize(basis, b)
        )
        # on Python floats, as one pair at a time: a float power calls pow, while
        # an array power by 2 squares
        return [
            n / ((x**2 + y**2) * gap)
            for n, x, y, gap in zip(num.tolist(), h1a.tolist(), h1b.tolist(), gaps)
        ]

    return _pair_ratios(basis, rng, pairs, ratio, 0.2, 2.0)


def probe_hartree_constant(basis, kernel, pairs, rng):
    """Empirical constant in the Hartree pair bound
    ||V_H(a)a - V_H(b)b|| <= C (||a||_H1^2 + ||b||_H1^2) ||a - b||."""
    return max(_hartree_pair_ratios(basis, kernel, pairs, rng))


def probe_xc_lipschitz(basis, config, rng, radius, pairs):
    """Empirical local Lipschitz constant of the enabled local terms:
    ||(V_x+V_c)(a)a - (V_x+V_c)(b)b|| <= L ||a - b|| on the L2 ball."""
    n = basis.spec.dimension
    local = replace(config, include_hartree=False)

    def ratio(a, b, gaps):
        ga, gb = synthesize(basis, a), synthesize(basis, b)
        va = ks_potential(local, None, density_from_grid(ga), n)
        vb = ks_potential(local, None, density_from_grid(gb), n)
        num = grid_norm(basis, va[..., None] * ga - vb[..., None] * gb)
        return [x / gap for x, gap in zip(num.tolist(), gaps)]

    return max(_pair_ratios(basis, rng, pairs, ratio, 0.05, 1.0, radius))


def _probed_constants(ctx, rng, radius):
    """(probed xc Lipschitz constant on the L2 ball of the radius, probed Hartree
    pair constant or 0 without Hartree), 40 seeded pairs each."""
    probed_l = probe_xc_lipschitz(ctx.basis, ctx.potentials, rng, radius, pairs=40)
    probed_cu = 0.0
    if ctx.potentials.include_hartree:
        probed_cu = probe_hartree_constant(ctx.basis, ctx.kernel, 40, rng)
    return probed_l, probed_cu


def check_hartree_lipschitz(basis, kernel, pairs=30, seed=0):
    """Stability of the probed Hartree pair constant under sample doubling: one
    pass of 2*pairs draws, whose first ``pairs`` draws give the base constant."""
    rng = np.random.default_rng([seed, 11])
    ratios = _hartree_pair_ratios(basis, kernel, 2 * pairs, rng)
    base, doubled = max(ratios[:pairs]), max(ratios)
    measured = doubled / base if base > 0 else float("inf")
    return EstimateReport(
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

    ``traj`` is a solve in ``ctx``; its ``meta`` supplies the form constants and
    the L2 envelope the solve checked, and every other bound uses the envelope
    factor of ``l2_envelope``."""
    ing = traj.meta["constants"]
    alpha = ctx.alpha
    horizon = float(traj.times[-1] - traj.times[0])
    ctilde0 = (1 - alpha) * ing["c0"]
    env, start_sq, source_sq = l2_envelope(ctx, traj)
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

    reports = []
    reports.append(
        EstimateReport(
            name=f"l2-envelope-alpha{alpha}",
            reference="gronwall-l2-envelope",
            measured=traj.meta["l2_envelope_measured"],
            bound=traj.meta["l2_envelope_bound"],
            tolerance=0.05,
            formula="max_t |Psi|^2 <= exp((1+2*(1-alpha)*c0)*T) * (start^2 + |F|_Y^2)",
            ingredients=shared,
        )
    )

    c_form = (alpha * (probed_l + k_corr) + 0.5) * env * data + 0.5 * f_sup_sq
    reports.append(
        EstimateReport(
            name=f"form-value-bound-alpha{alpha}",
            reference="quadratic-form-value-bound",
            measured=float(np.max(form_values(ctx, traj).real)),
            bound=c_form,
            tolerance=0.05,
            formula="max_t Re B <= (alpha*(L+a/b)+1/2)*env*(data) + sup_t|F(t)|^2/2",
            ingredients=shared,
        )
    )

    c1_bound = c_form + ing["c3"] * env * data
    reports.append(
        EstimateReport(
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
        EstimateReport(
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
    for block in snapshot_blocks(ctx.basis, len(traj.times)):
        dstate = rhs(ctx, traj.times[block], traj.states[block])
        terms = inv_w[:, None] * (dstate.real**2 + dstate.imag**2)
        dual_sq[block] = np.sum(terms.reshape(len(terms), -1), axis=-1)
    for i in range(len(traj.times)):  # scalar powers, as in the hartree probe
        chain = ing["c1"] * traj.h1[i] + k_prime * traj.l2[i] + np.sqrt(source_sq[i])
        chain_sq[i] = chain**2
    reports.append(
        EstimateReport(
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


def check_uniqueness_gronwall(ctx, base, eps_list, seed=0):
    """Perturbation-growth envelope and first-order scaling of the gap.

    ``base`` is the forward solve in ``ctx`` from psi0 = ``base.states[0]``;
    the check solves from psi0 + eps*delta for every eps, all in one stacked
    ``solve_forward``.  The gap must stay under the exponential envelope with
    the rate assembled from probed Lipschitz constants and the measured H1
    diagnostics, and halving the middle eps of the sorted list must roughly
    halve the gap (ratio within [0.4, 0.6]).
    """
    eps_list = sorted(float(e) for e in eps_list)
    if not eps_list:
        raise ValueError("need at least one perturbation size")
    if eps_list[0] < 1e-9:
        raise ValueError("perturbation below integrator resolution; use eps >= 1e-9")
    rng = np.random.default_rng([seed, 37])
    delta = random_coefficients(ctx.basis, ctx.basis.spec.particles, rng, 1.0)

    psi0 = base.states[0]
    radius = 1.5 * float(base.l2.max()) + max(eps_list)
    probed_l, probed_cu = _probed_constants(ctx, rng, radius)

    halving = eps_list[len(eps_list) // 2]
    solve_at = sorted(set(eps_list) | {halving, 0.5 * halving})
    perts = solve_forward(ctx, np.stack([psi0 + eps * delta for eps in solve_at]))
    worst = 0.0
    gaps_at_t = {}
    for eps, pert in zip(solve_at, perts):
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

    envelope_report = EstimateReport(
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
    halving_report = EstimateReport(
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
        padded = carry_modes(t_lo.states, b_lo, b_hi)
        diff_sq = np.sum(np.abs(t_hi.states - padded) ** 2, axis=(1, 2))
        increments.append(float(np.sqrt(np.trapezoid(diff_sq, t_hi.times))))
    if all(v < 1e-12 for v in increments):
        measured = 0.0  # invariant subspace: increments vanish to roundoff
    else:
        decreasing = all(b < a for a, b in zip(increments, increments[1:]))
        measured = (
            increments[-1] / increments[0] if decreasing and increments[0] > 0 else float("inf")
        )
    return EstimateReport(
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


def check_potential_continuity(basis, config, kernel, seed=0):
    """V(Psi_n)Psi_n -> V(Psi)Psi in L2 along a geometric perturbation schedule."""
    rng = np.random.default_rng([seed, 53])
    particles = basis.spec.particles
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
    return EstimateReport(
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
    balls: stable ratio under sample doubling (one pass of 2*pairs draws, whose
    first ``pairs`` give the base constant), growing with the ball radius."""
    def ratio(a, b, gaps):
        diff = nonlinear_G(ctx, a) - nonlinear_G(ctx, b)
        return [float(np.linalg.norm(d)) / gap for d, gap in zip(diff, gaps)]

    def probe(r, count, rng):
        return _pair_ratios(ctx.basis, rng, count, ratio, 0.05, 1.0, r)

    ratios = probe(radius, 2 * pairs, np.random.default_rng([seed, 71]))
    l_base, l_doubled = max(ratios[:pairs]), max(ratios)
    l_wide = max(probe(4.0 * radius, pairs, np.random.default_rng([seed, 72])))
    stability = EstimateReport(
        name="coefficient-lipschitz-stability",
        reference="projected-nonlinearity-local-lipschitz",
        measured=l_doubled / l_base if l_base > 0 else float("inf"),
        bound=2.0,
        tolerance=0.0,
        formula="L(2*pairs)/L(pairs) < 2 with nested seeded samples",
        ingredients={"l_hat": l_base, "l_hat_doubled": l_doubled, "radius": radius},
        samples=2 * pairs,
    )
    growth = EstimateReport(
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
    c0_den = ing["c0"] if ing["c0"] > 0 else float("inf")
    ratio_b = 0.0
    ratio_coerce = -float("inf")
    worst_im = 0.0
    ratio_d = 0.0
    for block in snapshot_blocks(ctx.basis, count):
        a, b = _random_pairs(ctx.basis, rng, block.stop - block.start, 0.2, 2.0)
        times = np.full(len(a), float(t))
        l2a, h1a = (v.tolist() for v in norms(ctx.basis, a))
        h1b = norms(ctx.basis, b)[1].tolist()
        vals = bilinear_B(ctx, times, a, b).tolist()
        diags = bilinear_B(ctx, times, a, a).tolist()
        if ctx.alpha == 0:
            d_h, d_xc = adjoint_D(ctx, times, a, b)
            d_sum = (d_h + d_xc).tolist()
        # per pair on Python scalars: a complex abs and float powers as one pair alone
        for i, (val, diag) in enumerate(zip(vals, diags)):
            ratio_b = max(ratio_b, abs(val) / (ing["c1"] * h1a[i] * h1b[i]))
            ratio_coerce = max(
                ratio_coerce, (h1a[i] ** 2 - diag.real) / (ing["c3"] * l2a[i] ** 2)
            )
            if ctx.alpha == 1:
                worst_im = max(worst_im, abs(diag.imag))
            else:
                worst_im = max(worst_im, abs(diag.imag) / (c0_den * l2a[i] ** 2))
                ratio_d = max(
                    ratio_d, abs(d_sum[i]) / (c0_den * l2a[i] * np.linalg.norm(b[i]))
                )
    reports = [
        EstimateReport(
            name=f"form-boundedness-alpha{ctx.alpha}",
            reference="form-h1-boundedness",
            measured=ratio_b,
            bound=1.0,
            tolerance=0.0,
            formula="|B(a,b)| <= c1 |a|_H1 |b|_H1, c1 = 1 + (1-alpha)(c0 + |V(L)|_inf) + |V0|_inf + sup|u| |Vu|_inf",
            ingredients=ing,
            samples=count,
        ),
        EstimateReport(
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
            EstimateReport(
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
            EstimateReport(
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
            EstimateReport(
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
