import tracemalloc

import numpy as np
import pytest

from tdks import (
    DomainSpec,
    PotentialConfig,
    PotentialError,
    build_basis,
    build_coulomb_kernel,
    correlation,
    density,
    density_from_grid,
    exchange,
    grid_inner,
    hartree,
    potentials,
    random_coefficients,
    sample_field,
    synthesize,
    vxc_rho_derivative,
)

from conftest import dense_coulomb_rows, hartree_full_inverse, make_setup, unit_state


def exchange_apply(config, rho, psi_grid):
    """Exchange potential applied to every grid channel of psi."""
    return exchange(config, rho)[:, None] * np.asarray(psi_grid)


def external(config, u_value):
    """External potential V0 + u * Vu on the grid."""
    v0 = config.confinement
    vu = config.control_shape
    if v0 is None and vu is None:
        raise PotentialError("external potential needs at least one grid field")
    if v0 is None:
        v0 = np.zeros_like(vu)
    if vu is None:
        vu = np.zeros_like(v0)
    return v0 + float(u_value) * vu


@pytest.fixture(scope="module")
def setup_1d():
    return make_setup(grid=(48,), modes=(16,))


def test_density_zero_state(setup_1d):
    basis, _, _ = setup_1d
    assert np.all(density(basis, np.zeros((basis.size, 1))) == 0)


def test_density_unit_mode_integrates_to_one(setup_1d):
    basis, _, _ = setup_1d
    rho = density(basis, unit_state(basis, 0))
    assert rho.min() >= 0
    assert abs(np.sum(basis.weights * rho) - 1.0) < 1e-9


def test_density_two_particles_additive(setup_1d):
    basis, _, _ = setup_1d
    d = np.zeros((basis.size, 2), dtype=np.complex128)
    d[0, 0] = 1.0
    d[1, 1] = 1.0
    rho = density(basis, d)
    assert abs(np.sum(basis.weights * rho) - 2.0) < 1e-9


def test_hartree_zero(setup_1d):
    basis, _, kernel = setup_1d
    assert np.all(hartree(kernel, np.zeros(basis.node_count)) == 0)


def test_hartree_point_density_gives_kernel_column(setup_1d):
    basis, _, kernel = setup_1d
    q0 = basis.node_count // 3
    rho = np.zeros(basis.node_count)
    rho[q0] = 1.0 / basis.weights[q0]  # unit integral concentrated on one node
    vh = hartree(kernel, rho)
    column = dense_coulomb_rows(basis, kernel.softening)[:, q0] / basis.weights[q0]
    assert np.abs(vh - column).max() < 1e-12


def test_hartree_positive_for_nonnegative_density(setup_1d):
    basis, _, kernel = setup_1d
    rng = np.random.default_rng(0)
    rho = density(basis, random_coefficients(basis, 2, rng, 1.0))
    assert hartree(kernel, rho).min() >= 0


def test_hartree_kernel_symmetry(setup_1d):
    basis, _, kernel = setup_1d
    rng = np.random.default_rng(1)
    r1 = density(basis, random_coefficients(basis, 1, rng, 1.0))
    r2 = density(basis, random_coefficients(basis, 1, rng, 0.7))
    lhs = np.sum(basis.weights * hartree(kernel, r1) * r2)
    rhs = np.sum(basis.weights * r1 * hartree(kernel, r2))
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)


def test_hartree_3d_uniform_density_monte_carlo_oracle():
    spec = DomainSpec(dimension=3, lengths=(1.0,) * 3, grid=(14,) * 3, particles=1)
    basis = build_basis(spec, (4,) * 3)
    kernel = build_coulomb_kernel(basis, 0.0)
    rho0 = 0.7
    vh = hartree(kernel, np.full(basis.node_count, rho0))
    center = int(np.argmin(((basis.nodes - 0.5) ** 2).sum(axis=1)))
    rng = np.random.default_rng(99)
    samples = rng.random((1_200_000, 3))
    mc = rho0 * np.mean(1.0 / np.linalg.norm(samples - basis.nodes[center], axis=1))
    assert abs(vh[center] / mc - 1.0) < 0.02


def test_kernel_dimension_policy():
    spec1 = DomainSpec(dimension=1, lengths=(1.0,), grid=(16,), particles=1)
    b1 = build_basis(spec1, (4,))
    with pytest.raises(PotentialError):
        build_coulomb_kernel(b1, 0.0)
    spec2 = DomainSpec(dimension=2, lengths=(1.0, 1.0), grid=(8, 8), particles=1)
    b2 = build_basis(spec2, (3, 3))
    with pytest.raises(PotentialError):
        build_coulomb_kernel(b2, 0.1)
    kernel = build_coulomb_kernel(b2, 0.0)
    columns = np.column_stack([hartree(kernel, e) for e in np.eye(b2.node_count)])
    assert np.isfinite(columns).all() and columns.min() >= 0


KERNEL_CASES = {
    "1d-softened": ((1.0,), (48,), 0.1),
    "2d": ((3.0, 3.0), (16, 16), 0.0),
    "3d": ((3.0, 3.0, 3.0), (8, 8, 8), 0.0),
    "3d-anisotropic": ((3.0, 2.5, 2.0), (10, 8, 6), 0.0),
}


@pytest.mark.parametrize("branch", ["dense", "fft"])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_branches_match_dense_oracle(monkeypatch, case, branch):
    lengths, grid, softening = KERNEL_CASES[case]
    spec = DomainSpec(dimension=len(grid), lengths=lengths, grid=grid, particles=1)
    basis = build_basis(spec, (2,) * len(grid))
    limit = basis.node_count if branch == "dense" else basis.node_count - 1
    monkeypatch.setattr(potentials, "DENSE_MAX_NODES", limit)
    kernel = build_coulomb_kernel(basis, softening)
    assert (kernel.matrix is None) == (branch == "fft")

    oracle = dense_coulomb_rows(basis, softening)
    rng = np.random.default_rng(0)
    rho = rng.random(basis.node_count)
    expect = oracle @ rho
    assert np.abs(hartree(kernel, rho) - expect).max() <= 1e-13 * np.abs(expect).max()
    # a stack of densities gives exactly the stack of the single applies
    stack = rng.random((3, basis.node_count))
    assert np.array_equal(hartree(kernel, stack), np.stack([hartree(kernel, r) for r in stack]))
    row_sum_max = oracle.sum(axis=1).max()
    assert abs(kernel.row_sum_max - row_sum_max) <= 1e-13 * row_sum_max


def test_kernel_large_grid_never_builds_dense_matrix():
    # 33^3 nodes: the dense matrix would take about 10 GB
    spec = DomainSpec(dimension=3, lengths=(3.0, 3.0, 3.0), grid=(32, 32, 32), particles=1)
    basis = build_basis(spec, (2, 2, 2))
    rho = np.random.default_rng(11).random(basis.node_count)
    tracemalloc.start()
    try:
        kernel = build_coulomb_kernel(basis, 0.0)
        vh = hartree(kernel, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.matrix is None
    assert peak < 100e6
    rows = [0, 1234, basis.node_count // 2, basis.node_count - 1]
    expect = dense_coulomb_rows(basis, 0.0, rows) @ rho
    assert np.abs(vh[rows] - expect).max() <= 1e-13 * np.abs(expect).max()


HARTREE_FFT_CASES = {
    "1d-forced": ((1.0,), (48,), 0.1),
    "2d-33^2": ((3.0, 3.0), (32, 32), 0.0),
    "3d-17^3": ((3.0, 3.0, 3.0), (16, 16, 16), 0.0),
    "3d-17x13x11": ((3.0, 2.5, 2.0), (16, 12, 10), 0.0),
}


@pytest.mark.parametrize("case", sorted(HARTREE_FFT_CASES))
def test_hartree_fft_branch_equals_full_inverse(monkeypatch, case):
    lengths, grid, softening = HARTREE_FFT_CASES[case]
    spec = DomainSpec(dimension=len(grid), lengths=lengths, grid=grid, particles=1)
    basis = build_basis(spec, (2,) * len(grid))
    monkeypatch.setattr(potentials, "DENSE_MAX_NODES", basis.node_count - 1)
    kernel = build_coulomb_kernel(basis, softening)
    assert kernel.matrix is None
    rng = np.random.default_rng(3)
    for rho in (rng.random(basis.node_count), rng.random((3, basis.node_count))):
        assert np.array_equal(hartree(kernel, rho), hartree_full_inverse(kernel, rho))


def test_hartree_fft_apply_runs_in_bounded_memory():
    # 32^3 cells (33^3 nodes): the full padded inverse peaks at about 8.7 MB
    spec = DomainSpec(dimension=3, lengths=(3.0, 3.0, 3.0), grid=(32, 32, 32), particles=1)
    basis = build_basis(spec, (2, 2, 2))
    kernel = build_coulomb_kernel(basis, 0.0)
    rho = np.random.default_rng(5).random(basis.node_count)
    hartree(kernel, rho)
    tracemalloc.start()
    try:
        hartree(kernel, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_hartree_rejects_mismatched_density(setup_1d):
    basis, _, kernel = setup_1d
    with pytest.raises(PotentialError, match="nodes but kernel expects"):
        hartree(kernel, np.zeros(basis.node_count + 1))


def test_exchange_constant_and_zero_density(setup_1d):
    basis, pot, _ = setup_1d
    ones = np.ones(basis.node_count)
    assert np.abs(exchange(pot, ones) - pot.exchange_c).max() < 1e-14
    assert np.all(exchange(pot, np.zeros(basis.node_count)) == 0)


def test_exchange_derivative_identity(setup_1d):
    # d(V_x)/drho * rho == beta * V_x pointwise
    basis, _, _ = setup_1d
    pot = PotentialConfig(coulomb_softening=0.1, include_correlation=False)
    rng = np.random.default_rng(2)
    rho = density(basis, random_coefficients(basis, 1, rng, 1.0)) + 0.01
    dv = vxc_rho_derivative(pot, rho, 1)
    assert np.abs(dv * rho - pot.exchange_beta * exchange(pot, rho)).max() < 1e-12


def test_exchange_apply_shapes(setup_1d):
    basis, pot, _ = setup_1d
    rng = np.random.default_rng(3)
    d = random_coefficients(basis, 2, rng, 1.0)
    psi = synthesize(basis, d)
    rho = density_from_grid(psi)
    out = exchange_apply(pot, rho, psi)
    assert out.shape == psi.shape
    assert np.abs(out - exchange(pot, rho)[:, None] * psi).max() == 0


def test_correlation_zero_limit_and_bound(setup_1d):
    basis, pot, _ = setup_1d
    assert np.all(correlation(pot, np.zeros(basis.node_count), 1) == 0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        rho = density(basis, random_coefficients(basis, 2, rng, rng.uniform(0.1, 5.0)))
        vc = correlation(pot, rho, 1)
        assert np.abs(vc).max() <= pot.correlation_a / pot.correlation_b + 1e-15


def test_correlation_closed_form_3d():
    # rho = 3/(4 pi) gives ball radius 1, so V_c = -a/(1+b)
    pot = PotentialConfig(coulomb_softening=0.0)
    rho = np.full(5, 3.0 / (4.0 * np.pi))
    vc = correlation(pot, rho, 3)
    expect = -pot.correlation_a / (1.0 + pot.correlation_b)
    assert np.abs(vc - expect).max() < 1e-12


def test_vxc_derivative_zero_density_product(setup_1d):
    basis, pot, _ = setup_1d
    rho = np.zeros(basis.node_count)
    dv = vxc_rho_derivative(pot, rho, 1)
    assert np.all(dv * rho == 0)


def test_vxc_derivative_finite_difference_oracle(setup_1d):
    basis, pot, _ = setup_1d
    rng = np.random.default_rng(6)
    rho = density(basis, random_coefficients(basis, 1, rng, 1.0)) + 0.05
    dv = vxc_rho_derivative(pot, rho, 1)
    eps = 1e-6
    up = exchange(pot, rho + eps) + correlation(pot, rho + eps, 1)
    dn = exchange(pot, rho - eps) + correlation(pot, rho - eps, 1)
    fd = (up - dn) / (2 * eps)
    assert np.abs(dv / fd - 1.0).max() < 1e-6


def test_external_zero_control_and_linearity(setup_1d):
    basis, _, _ = setup_1d
    v0 = sample_field(basis, "harmonic", {"amplitude": 2.0})
    vu = sample_field(basis, "dipole", {"amplitude": 1.0})
    pot = PotentialConfig(coulomb_softening=0.1, confinement=v0, control_shape=vu)
    assert np.abs(external(pot, 0.0) - v0).max() == 0
    pot_b = PotentialConfig(coulomb_softening=0.1, control_shape=vu)
    assert np.abs(external(pot_b, 1.0) - vu).max() == 0
    lhs = external(pot, 0.4) + external(pot, -1.1) - v0
    assert np.abs(lhs - external(pot, 0.4 - 1.1)).max() < 1e-12


def test_exchange_local_lipschitz_surrogate(setup_1d):
    # bounded grid pairs with a stable ratio; the constant grows with the radius
    basis, _, _ = setup_1d
    pot = PotentialConfig(coulomb_softening=0.1, include_correlation=False, include_hartree=False)
    rng = np.random.default_rng(8)

    def probe(radius, pairs):
        worst = 0.0
        for _ in range(pairs):
            a = synthesize(basis, random_coefficients(basis, 1, rng, rng.uniform(0.1, 1.0) * radius))
            b = synthesize(basis, random_coefficients(basis, 1, rng, rng.uniform(0.1, 1.0) * radius))
            num = exchange_apply(pot, density_from_grid(a), a) - exchange_apply(
                pot, density_from_grid(b), b
            )
            gap = np.sqrt(np.sum(basis.weights * np.abs(a - b).sum(axis=1) ** 2))
            l2 = np.sqrt(np.sum(basis.weights[:, None] * np.abs(num) ** 2))
            worst = max(worst, l2 / gap)
        return worst

    l_small = probe(1.0, 40)
    l_small_more = probe(1.0, 80)
    assert np.isfinite(l_small) and l_small > 0
    assert l_small_more < 2.0 * l_small
    assert probe(4.0, 40) > l_small


def test_potential_config_validation():
    with pytest.raises(PotentialError):
        PotentialConfig(exchange_c=+1.0)
    with pytest.raises(PotentialError):
        PotentialConfig(exchange_beta=1.0)
    with pytest.raises(PotentialError):
        PotentialConfig(correlation_a=-0.1)
    with pytest.raises(PotentialError):
        PotentialConfig(coulomb_softening=-0.1)
    with pytest.raises(PotentialError):
        PotentialConfig(confinement=np.array([1.0, np.inf]))


def test_sample_field_presets_and_errors(setup_1d):
    basis, _, _ = setup_1d
    assert np.all(sample_field(basis, "zero") == 0)
    well = sample_field(basis, "well", {"depth": -3.0, "width_fraction": 0.5})
    assert well.min() == -3.0 and well.max() == 0.0
    dip = sample_field(basis, "dipole", {"amplitude": 2.0})
    assert abs(dip[0] + 1.0 * 2.0 * 0.5) < 1e-12  # left edge of a unit box
    arr = sample_field(basis, "array", {"values": list(range(basis.node_count))})
    assert arr[3] == 3.0
    with pytest.raises(PotentialError):
        sample_field(basis, "array", {"values": [1.0, 2.0]})
    with pytest.raises(PotentialError):
        sample_field(basis, "nope")
    with pytest.raises(PotentialError):
        sample_field(basis, "harmonic", {"amplitude": 1.0, "bogus": 2})


def test_grid_inner_conjugation_convention(setup_1d):
    basis, _, _ = setup_1d
    rng = np.random.default_rng(9)
    f = rng.standard_normal((basis.node_count, 1)) + 1j * rng.standard_normal(
        (basis.node_count, 1)
    )
    g = rng.standard_normal((basis.node_count, 1)) + 1j * rng.standard_normal(
        (basis.node_count, 1)
    )
    assert abs(grid_inner(basis, 2j * f, g) - 2j * grid_inner(basis, f, g)) < 1e-12
    assert abs(grid_inner(basis, f, 2j * g) - (-2j) * grid_inner(basis, f, g)) < 1e-12
