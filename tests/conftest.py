import importlib
import inspect
import math
import pkgutil
from dataclasses import replace
from functools import reduce

import numpy as np
from scipy.linalg import solve_banded

import tdks
from tdks import (
    DomainSpec,
    PotentialConfig,
    build_basis,
    build_coulomb_kernel,
    sample_field,
)
from tdks.domain import grid_norm, norms, project, random_coefficients, synthesize
from tdks.potentials import _cell_average, density_from_grid, hartree_pair_difference, ks_potential
from tdks.propagate import FIXED_POINT_MAX_ITER, FIXED_POINT_TOL, Trajectory, step_vjp
from tdks.system import (
    adjoint_D,
    bilinear_B,
    bound_constants,
    coupling_potentials,
    frozen_fields,
    nonlinear_G,
    rhs,
    stage_fields,
    stage_schedule,
)


def fields_at(ctx, t):
    """The ``stage_fields`` stack of the one time t, which the forms take with a
    stack of one state."""
    return stage_fields(ctx, np.array([float(t)]))


def midpoint_fields(ctx, t, dt):
    """The ``stage_schedule`` item of the step from t over dt, which ``step`` takes:
    that of its midpoint t + dt/2, as a solve computes it."""
    return next(stage_schedule(ctx, [t + 0.5 * dt]))


def tdks_exception_classes():
    """Every ``Exception`` subclass that a module of the tdks package defines."""
    found = []
    for info in pkgutil.iter_modules(tdks.__path__):
        module = importlib.import_module(f"tdks.{info.name}")
        found += [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, Exception) and cls.__module__ == module.__name__
        ]
    return found


def make_setup(
    lengths=(1.0,),
    grid=(48,),
    particles=1,
    horizon=1.0,
    steps=400,
    modes=(16,),
    softening=0.1,
    confinement=None,
    control_shape=None,
    **pot_kwargs,
):
    """One-call construction of (basis, potentials, kernel) for 1-d tests."""
    spec = DomainSpec(
        dimension=len(lengths),
        lengths=lengths,
        grid=grid,
        particles=particles,
        horizon=horizon,
        steps=steps,
    )
    basis = build_basis(spec, modes)

    def field(preset):
        params = {k: v for k, v in preset.items() if k != "kind"}
        return sample_field(basis, preset["kind"], params)

    v0 = field(confinement) if confinement else None
    vu = field(control_shape) if control_shape else None
    pot = PotentialConfig(
        coulomb_softening=softening if len(lengths) == 1 else 0.0,
        confinement=v0,
        control_shape=vu,
        **pot_kwargs,
    )
    kernel = None
    if pot.include_hartree:
        kernel = build_coulomb_kernel(basis, pot.coulomb_softening)
    return basis, pot, kernel


def dense_basis_values(basis):
    """Oracle (modes, nodes) table: values[k, q] = phi_k at node q.

    The row-major outer product of the per-axis sine tables (modes and nodes
    both first axis slowest); in 1-d it is the single axis table itself.
    """

    def combine(a, b):
        out = a[:, None, :, None] * b[None, :, None, :]
        return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])

    return reduce(combine, basis.axis_tables)


def galerkin_matrix(basis, v_field):
    """Independent assembly of the m x m Hamiltonian for a static potential."""
    values = dense_basis_values(basis)
    return np.diag(basis.eigenvalues) + (values * (basis.weights * v_field)) @ values.T


def dense_coulomb_rows(basis, softening, rows=None):
    """Oracle rows K[q, :] = w(x_q - x_r) * weight_r (all rows by default).

    Assembled pair by pair from the node coordinates, independently of the
    offset table; the self pair gets the cell average of w.
    """
    rows = np.arange(basis.node_count) if rows is None else np.asarray(rows)
    diff = basis.nodes[rows, None, :] - basis.nodes[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff) + float(softening) ** 2
    self_pairs = (np.arange(rows.size), rows)
    d2[self_pairs] = 1.0  # placeholder, fixed below
    w = 1.0 / np.sqrt(d2)
    w[self_pairs] = _cell_average(basis.spec.spacings, softening)
    return w * basis.weights[None, :]


def hartree_full_inverse(kernel, rho):
    """Oracle for the FFT branch of ``hartree``: the full ``irfftn`` of the
    padded product, cropped to the nodes."""
    shape = kernel.nodes_per_axis
    stack = rho.shape[:-1]
    padded = tuple(2 * (m - 1) for m in shape)
    axes = tuple(range(-len(shape), 0))
    x = np.fft.rfftn((kernel.weights * rho).reshape(stack + shape), s=padded, axes=axes)
    out = np.fft.irfftn(x * kernel.spectrum, s=padded, axes=axes)
    return out[(...,) + tuple(slice(0, m) for m in shape)].reshape(stack + (-1,))


def unit_state(basis, mode, particles=1, particle=0, amplitude=1.0):
    d = np.zeros((basis.size, particles), dtype=np.complex128)
    d[mode, particle] = amplitude
    return d


def at_every_time(value):
    """A source or tracking target that gives ``value`` at every one of the (B,)
    times it is asked for, as a (B,) + value.shape stack."""
    return lambda times: np.broadcast_to(value, (len(times),) + np.shape(value))


def control_value_at(u, t):
    """Oracle for ``ControlSignal.value`` at one time: u at t clamped to [0, T]."""
    return float(np.interp(min(max(t, 0.0), u.horizon), u.times, u.samples))


def interpolate_state_at(times, states, t):
    """Oracle for ``interpolate_states`` at one time: the linear interpolant of the
    interval holding t clamped to the grid, the last interval at the end."""
    t = float(min(max(t, times[0]), times[-1]))
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(max(i, 0), len(times) - 2)
    w = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - w) * states[i] + w * states[i + 1]


def with_steps(ctx, steps):
    """The context ctx on a spec of ``steps`` time steps, over the same basis tables; a
    solve takes the step count of its context's spec."""
    spec = replace(ctx.basis.spec, steps=steps)
    return replace(ctx, basis=replace(ctx.basis, spec=spec))


def stored_trajectory(ctx, states):
    """The ``Trajectory`` of the given states on ``with_steps(ctx, len(states) - 1)``,
    with their norms as l2 and h1: a solve of ctx as a reader sees it, without the
    stepping.  With an alpha=1 ctx it is a frozen state for an alpha=0 context, e.g.
    the one that stays at lam for ``[lam, lam]``."""
    states = np.asarray(states, dtype=np.complex128)
    l2, h1 = norms(ctx.basis, states)
    return Trajectory(states=states, l2=l2, h1=h1, ctx=with_steps(ctx, len(states) - 1))


def bound_constants_per_snapshot(ctx):
    """Oracle for ``bound_constants``: the frozen-state sups taken one stored
    forward snapshot at a time, with the same assembly of the constants."""
    ing = {
        "v0_sup": float(np.max(np.abs(ctx._v0))),
        "vu_sup": float(np.max(np.abs(ctx._vu))),
        "u_sup": ctx.control.sup,
        "particles": float(ctx.basis.spec.particles),
        "kernel_l1": 0.0,
        "lambda_sup": 0.0,
        "dv_rho_sup": 0.0,
        "v_lambda_sup": 0.0,
    }
    c0 = 0.0
    if ctx.alpha == 0:
        if ctx.potentials.include_hartree:
            ing["kernel_l1"] = ctx.kernel.row_sum_max
        for lam_g, rho, v_lam, dv in (frozen_fields(ctx, lam) for lam in ctx.forward.states):
            ing["lambda_sup"] = max(ing["lambda_sup"], float(np.abs(lam_g).max()))
            ing["dv_rho_sup"] = max(ing["dv_rho_sup"], float(np.abs(dv * rho).max()))
            ing["v_lambda_sup"] = max(ing["v_lambda_sup"], float(np.abs(v_lam).max()))
        n_part = ctx.basis.spec.particles
        ing["c0_xc"] = 2.0 * n_part**2 * ing["dv_rho_sup"]
        ing["c0_h"] = 2.0 * n_part**1.5 * ing["kernel_l1"] * ing["lambda_sup"] ** 2
        c0 = ing["c0_xc"] + ing["c0_h"]
    coupling = c0 + ing["v_lambda_sup"]
    ext = ing["v0_sup"] + ing["u_sup"] * ing["vu_sup"]
    ing["c0"] = c0
    ing["c1"] = 1.0 + coupling + ext
    ing["c3"] = 1.0 + coupling + ext
    return ing


def adjoint_solve_per_sweep(ctx, terminal, steps):
    """Oracle for ``solve_adjoint``: every fixed-point sweep of a step evaluates
    the external potential and the frozen fields at the step midpoint again.

    Returns the states on the increasing time grid and the form values
    B(d, d) of each stored state, one ``bilinear_B`` call on a stack of one per state.
    """
    basis = ctx.basis
    h = -basis.spec.horizon / steps
    times = np.linspace(0.0, basis.spec.horizon, steps + 1)
    half = np.exp(-1j * basis.eigenvalues * (0.5 * h))[:, None]
    states = np.empty((steps + 1,) + np.shape(terminal), dtype=np.complex128)
    states[steps] = terminal

    def bounded(t_mid, z):
        psi = synthesize(basis, z)
        frozen = frozen_fields(ctx, ctx.lambda_at(t_mid))
        fld = ctx.external_at(t_mid)[:, None] * psi
        fld += frozen.potential[:, None] * psi
        v_h, v_xc = coupling_potentials(ctx, psi, frozen)
        fld += (v_h + v_xc)[:, None] * frozen.grid
        return project(basis, fld)

    for last in range(steps, 0, -1):
        t_mid = times[last] + 0.5 * h
        f = ctx.source_coefficients(np.array([t_mid]))

        def g(z):
            v = bounded(t_mid, z)
            return -1j * (v if f is None else v + f[0])

        d = half * states[last]
        scale = max(1.0, float(np.linalg.norm(d)))
        y = d + h * g(d)
        for _ in range(FIXED_POINT_MAX_ITER):
            y_new = d + h * g(0.5 * (d + y))
            done = np.linalg.norm(y_new - y) <= FIXED_POINT_TOL * scale
            y = y_new
            if done:
                break
        else:
            raise AssertionError(f"oracle sweeps did not converge at t={t_mid}")
        states[last - 1] = half * y
    form = np.array(
        [bilinear_B(ctx, fields_at(ctx, t), d[None], d[None])[0] for t, d in zip(times, states)]
    )
    return states, form


def backward_sweep_per_step(spec, ctx, traj):
    """Oracle for ``control.backward_sweep``: every step reads its external field
    from ``ctx.external_at`` at its own midpoint, and every tracking term forms
    its residual from the spec's targets in place.

    Returns the coupling gradient per control sample and the backward states.
    """
    dt = float(traj.times[1] - traj.times[0])
    steps = len(traj.times) - 1
    omega = np.full(steps + 1, dt)
    omega[0] = omega[-1] = 0.5 * dt
    mu = np.zeros_like(traj.states[-1])
    if spec.j2 == "terminal":
        mu = mu + 2.0 * (traj.states[-1] - spec.target_state)
    if spec.j1 == "trajectory":
        target = spec.target_trajectory(traj.times[-1:])[0]
        mu = mu + 2.0 * omega[-1] * (traj.states[-1] - target)
    g_mid = np.empty(steps)
    mu_path = np.empty_like(traj.states)
    mu_path[-1] = mu
    for n in range(steps - 1, -1, -1):
        fields = (ctx.external_at(traj.times[n] + 0.5 * dt), None, None)
        mu, g_mid[n] = step_vjp(ctx, dt, traj.states[n], mu, fields)
        if spec.j1 == "trajectory":
            target = spec.target_trajectory(traj.times[n : n + 1])[0]
            mu = mu + 2.0 * omega[n] * (traj.states[n] - target)
        mu_path[n] = mu
    g_samples = np.zeros(steps + 1)
    g_samples[:-1] += 0.5 * g_mid
    g_samples[1:] += 0.5 * g_mid
    return g_samples, mu_path


def subsample_distances_pointwise(centers, h, n, sub):
    """Oracle for ``verify._subsample_cells``: every subsample point is formed, squared
    and summed over its axes, (cells, sub^n)."""
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    smesh = np.meshgrid(*([offs] * n), indexing="ij")
    shifts = np.stack([m.reshape(-1) for m in smesh], axis=1) * h
    pts = centers[:, None, :] + shifts[None, :, :]
    return np.sqrt((pts**2).sum(axis=2))


def ball_quadrature_whole_grid(n, p, radius, resolution, refine_origin=True):
    """Oracle for ``verify._ball_quadrature``: the same midpoint rule over the
    whole positive octant at once, each sum taken over all its cells, with the
    subsample distances formed point by point."""
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
        d = subsample_distances_pointwise(centers[core], h, n, 11)
        total += float(np.sum(d**(-p))) * cell / d.shape[1]
    if np.any(boundary):
        d = subsample_distances_pointwise(centers[boundary], h, n, 5)
        frac = (d <= radius).mean(axis=1)
        vals = dist[boundary] ** (-p)
        total += float(np.sum(vals * frac)) * cell
    return total * 2**n


def pair_ratios_per_pair(basis, rng, pairs, ratio, low, high, scale=1.0):
    """Oracle for ``verify._pair_ratios``: each pair is drawn, and its
    ratio(a, b, gap) evaluated by single operator calls, before the next."""
    particles = basis.spec.particles
    out = []
    for _ in range(pairs):
        a = random_coefficients(basis, particles, rng, rng.uniform(low, high) * scale)
        b = random_coefficients(basis, particles, rng, rng.uniform(low, high) * scale)
        gap = float(np.linalg.norm(a - b))
        out.append(ratio(a, b, gap) if gap >= 1e-14 else 0.0)
    return out


def potential_continuity_per_perturbation(basis, config, kernel, seed):
    """Oracle for the ``errors`` of ``verify.check_potential_continuity``: each of the
    25 perturbations is synthesized and evaluated by single calls before the next."""
    rng = np.random.default_rng([seed, 53])
    particles = basis.spec.particles
    base = random_coefficients(basis, particles, rng, 1.0)
    direction = random_coefficients(basis, particles, rng, 1.0)
    n = basis.spec.dimension
    g_base = synthesize(basis, base)
    v_base = ks_potential(config, kernel, density_from_grid(g_base), n)
    errors = []
    for k in range(25):
        g = synthesize(basis, base + 0.5 * 2.0**-k * direction)
        v = ks_potential(config, kernel, density_from_grid(g), n)
        errors.append(grid_norm(basis, v[:, None] * g - v_base[:, None] * g_base))
    return errors


def hartree_pair_ratio(basis, kernel):
    """The single-pair ratio of the Hartree pair probe."""

    def ratio(a, b, gap):
        _, h1a = norms(basis, a)
        _, h1b = norms(basis, b)
        num = hartree_pair_difference(basis, kernel, synthesize(basis, a), synthesize(basis, b))
        return num / ((h1a**2 + h1b**2) * gap)

    return ratio


def xc_pair_ratio(basis, config):
    """The single-pair ratio of the xc Lipschitz probe."""
    n = basis.spec.dimension
    local = replace(config, include_hartree=False)

    def ratio(a, b, gap):
        ga, gb = synthesize(basis, a), synthesize(basis, b)
        va = ks_potential(local, None, density_from_grid(ga), n)
        vb = ks_potential(local, None, density_from_grid(gb), n)
        return grid_norm(basis, va[:, None] * ga - vb[:, None] * gb) / gap

    return ratio


def coefficient_pair_ratio(ctx):
    """The single-pair ratio of the projected-nonlinearity Lipschitz probe."""

    def ratio(a, b, gap):
        return float(np.linalg.norm(nonlinear_G(ctx, a) - nonlinear_G(ctx, b))) / gap

    return ratio


def form_bounds_per_pair(ctx, t, count, seed):
    """Oracle for the measured values of ``verify.check_form_bounds``, by report
    name: each pair is drawn and evaluated by calls on stacks of one before the next,
    with the constants of ``bound_constants`` and the fields of t evaluated afresh."""
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
        val = complex(bilinear_B(ctx, fields_at(ctx, t), a[None], b[None])[0])
        ratio_b = max(ratio_b, abs(val) / (ing["c1"] * h1a * h1b))
        diag = complex(bilinear_B(ctx, fields_at(ctx, t), a[None], a[None])[0])
        ratio_coerce = max(ratio_coerce, (h1a**2 - diag.real) / (ing["c3"] * l2a**2))
        if ctx.alpha == 1:
            worst_im = max(worst_im, abs(diag.imag))
        else:
            c0_den = ing["c0"] if ing["c0"] > 0 else float("inf")
            worst_im = max(worst_im, abs(diag.imag) / (c0_den * l2a**2))
            d_h, d_xc = adjoint_D(ctx, fields_at(ctx, t), a[None], b[None])
            d_sum = complex((d_h + d_xc)[0])
            ratio_d = max(ratio_d, abs(d_sum) / (c0_den * l2a * np.linalg.norm(b)))
    alpha = ctx.alpha
    measured = {
        f"form-boundedness-alpha{alpha}": ratio_b,
        f"form-coercivity-alpha{alpha}": ratio_coerce,
    }
    if alpha == 1:
        measured["form-imag-vanishes-alpha1"] = worst_im
    else:
        measured["form-imag-bound-alpha0"] = worst_im
        measured["coupling-form-bound"] = ratio_d
    return measured


def form_value_per_snapshot(ctx, traj):
    """Oracle for the measured value of the form-value bound of
    ``verify.check_energy_estimates``: max Re B(psi, psi), one ``bilinear_B`` call
    on a stack of one per stored snapshot."""
    form = [
        bilinear_B(ctx, fields_at(ctx, t), d[None], d[None])[0]
        for t, d in zip(traj.times, traj.states)
    ]
    return float(np.max(np.real(form)))


def dual_norm_per_snapshot(ctx, traj):
    """Oracle for the measured value of the dual-norm monitor of
    ``verify.check_energy_estimates``: one ``rhs`` call on a stack of one per stored
    snapshot."""
    inv_w = 1.0 / (1.0 + ctx.basis.eigenvalues)
    dual_sq = np.empty(len(traj.times))
    for i, t in enumerate(traj.times):
        dstate = rhs(ctx, fields_at(ctx, t), traj.states[i][None])[0]
        dual_sq[i] = float(np.sum(inv_w[:, None] * (dstate.real**2 + dstate.imag**2)))
    return float(np.trapezoid(dual_sq, traj.times))


def h1_riesz_banded(dt, rhs):
    """Oracle for the solve of ``control._h1_riesz``: its system, assembled apart,
    handed to ``scipy.linalg.solve_banded`` as a (1, 1) band, which LAPACK's dgtsv
    solves.  A singular system raises ``numpy.linalg.LinAlgError``."""
    ab = np.zeros((3, rhs.size))  # banded (upper, diagonal, lower)
    ab[0, 1:] = ab[2, :-1] = -1.0 / dt
    ab[1] = dt + 2.0 / dt
    ab[1, [0, -1]] = 0.5 * dt + 1.0 / dt
    return solve_banded((1, 1), ab, rhs)
