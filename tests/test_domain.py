import dataclasses
import tracemalloc

import numpy as np
import pytest

from tdks import (
    DomainError,
    DomainSpec,
    build_basis,
    density_from_grid,
    grid_norm,
    norms,
    project,
    random_coefficients,
    synthesize,
)
from tdks.domain import check_modes

from conftest import dense_basis_values, unit_state


def basis_1d(grid=64, modes=16, length=1.0):
    spec = DomainSpec(dimension=1, lengths=(length,), grid=(grid,), particles=1)
    return build_basis(spec, (modes,))


def test_eigenvalue_matches_second_difference_quotient():
    basis = basis_1d()
    phi = dense_basis_values(basis)[0]
    h = 1.0 / 64
    mid = slice(10, 50)
    lap = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / h**2
    measured = -lap[mid] / phi[1:-1][mid]
    assert np.allclose(measured, np.pi**2, rtol=2e-3)
    assert abs(basis.eigenvalues[0] - np.pi**2) < 1e-12


def test_gram_matrix_is_identity():
    basis = basis_1d()
    values = dense_basis_values(basis)
    gram = (values * basis.weights) @ values.T
    assert np.abs(gram - np.eye(basis.size)).max() < 1e-10


def test_2d_eigenvalue_analytic():
    spec = DomainSpec(dimension=2, lengths=(1.0, 2.0), grid=(12, 12), particles=1)
    basis = build_basis(spec, (3, 3))
    k11 = int(np.where((basis.mode_indices == [1, 1]).all(axis=1))[0][0])
    assert abs(basis.eigenvalues[k11] - np.pi**2 * (1.0 + 0.25)) < 1e-12
    values = dense_basis_values(basis)
    gram = (values * basis.weights) @ values.T
    assert np.abs(gram - np.eye(basis.size)).max() < 1e-10


def test_modes_exceeding_grid_rejected():
    spec = DomainSpec(dimension=1, lengths=(1.0,), grid=(16,), particles=1)
    with pytest.raises(DomainError):
        build_basis(spec, (9,))


def test_mode_counts_must_be_positive_integers():
    # a numpy integer is a count; a fraction is not truncated to one
    spec = DomainSpec(dimension=1, lengths=(1.0,), grid=(16,), particles=1)
    with pytest.raises(DomainError, match="positive integers"):
        check_modes(spec, [2.7])
    assert check_modes(spec, [np.int64(3)]) == (3,)


def test_synthesize_zero_and_single_mode():
    basis = basis_1d()
    assert np.all(synthesize(basis, np.zeros((basis.size, 1))) == 0)
    field = synthesize(basis, unit_state(basis, 0))
    assert np.abs(field[:, 0] - dense_basis_values(basis)[0]).max() < 1e-14


def test_project_synthesize_round_trip():
    # project o synthesize is the identity on the span, in every dimension
    rng = np.random.default_rng(11)
    for lengths, grid, modes in [
        ((1.0,), (64,), (16,)),
        ((1.0, 2.0), (16, 12), (8, 5)),
        ((3.0, 2.5, 2.0), (12, 10, 8), (6, 5, 4)),
    ]:
        spec = DomainSpec(dimension=len(lengths), lengths=lengths, grid=grid, particles=2)
        basis = build_basis(spec, modes)
        d = random_coefficients(basis, 2, rng, 1.7)
        back = project(basis, synthesize(basis, d))
        assert np.abs(back - d).max() < 1e-13


TRANSFORM_CASES = {
    "1d": ((1.0,), (64,), (16,)),
    "2d": ((2.0, 3.0), (16, 20), (6, 8)),
    "3d": ((3.0, 3.0, 3.0), (12, 12, 12), (5, 5, 5)),
    "3d-anisotropic": ((3.0, 2.5, 2.0), (16, 12, 10), (6, 5, 4)),
}


@pytest.mark.parametrize("case", list(TRANSFORM_CASES))
def test_transforms_match_dense_oracle(case):
    lengths, grid, modes = TRANSFORM_CASES[case]
    spec = DomainSpec(dimension=len(lengths), lengths=lengths, grid=grid, particles=3)
    basis = build_basis(spec, modes)
    oracle = dense_basis_values(basis)
    w = basis.weights
    rng = np.random.default_rng(21)
    d = random_coefficients(basis, 3, rng, 1.3)
    f = rng.standard_normal((basis.node_count, 3)) + 1j * rng.standard_normal((basis.node_count, 3))
    r = rng.standard_normal((basis.node_count, 2))

    real_multi = project(basis, r)
    real_single = project(basis, r[:, 0])
    assert real_multi.dtype == np.float64 and real_multi.shape == (basis.size, 2)
    assert real_single.dtype == np.float64 and real_single.shape == (basis.size,)

    d_f, f_f = np.asfortranarray(d), np.asfortranarray(f)  # column-major inputs
    pairs = [
        (synthesize(basis, d), oracle.T @ d),
        (synthesize(basis, d_f), oracle.T @ d_f),
        (project(basis, f), oracle @ (w[:, None] * f)),
        (project(basis, f_f), oracle @ (w[:, None] * f_f)),
        (real_multi, oracle @ (w[:, None] * r)),
        (real_single, (oracle @ (w[:, None] * r[:, :1]))[:, 0]),
    ]
    for got, want in pairs:
        assert got.shape == want.shape
        if len(lengths) == 1:
            # one axis: the same single product as the dense table, bit for bit
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    # a stack of states is synthesized, and its density taken, item by item exactly
    stack = np.stack([random_coefficients(basis, 3, rng, 1.0) for _ in range(5)])
    grids = synthesize(basis, stack)
    assert np.array_equal(grids, np.stack([synthesize(basis, s) for s in stack]))
    density = np.stack([density_from_grid(g) for g in grids])
    assert np.array_equal(density_from_grid(grids), density)


@pytest.mark.parametrize("case", list(TRANSFORM_CASES))
def test_stacked_projections_and_norms_match_single_calls(case):
    lengths, grid, modes = TRANSFORM_CASES[case]
    spec = DomainSpec(dimension=len(lengths), lengths=lengths, grid=grid, particles=3)
    basis = build_basis(spec, modes)
    rng = np.random.default_rng(22)
    states = np.stack([random_coefficients(basis, 3, rng, 1.3) for _ in range(5)])
    shape = (5, basis.node_count, 3)
    fields = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(project(basis, fields), [project(basis, f) for f in fields])
    real = fields.real.copy()
    assert np.array_equal(project(basis, real), [project(basis, f) for f in real])
    l2, h1 = norms(basis, states)
    assert np.array_equal(l2, [norms(basis, d)[0] for d in states])
    assert np.array_equal(h1, [norms(basis, d)[1] for d in states])
    assert np.array_equal(grid_norm(basis, fields), [grid_norm(basis, f) for f in fields])


@pytest.mark.parametrize("case", list(TRANSFORM_CASES))
def test_empty_stacks_transform_to_empty_stacks(case):
    # a stack of no items (an empty list of output times) keeps its shape rule
    lengths, grid, modes = TRANSFORM_CASES[case]
    spec = DomainSpec(dimension=len(lengths), lengths=lengths, grid=grid, particles=3)
    basis = build_basis(spec, modes)
    grids = synthesize(basis, np.zeros((0, basis.size, 3), dtype=np.complex128))
    assert grids.shape == (0, basis.node_count, 3) and grids.dtype == np.complex128
    for dtype in (np.float64, np.complex128):
        coeff = project(basis, np.zeros((0, basis.node_count, 3), dtype=dtype))
        assert coeff.shape == (0, basis.size, 3) and coeff.dtype == dtype


def test_large_grid_never_builds_dense_table():
    # 32^3 cells (35,937 nodes) with 16^3 modes: a dense table would be ~1.18 GB
    spec = DomainSpec(dimension=3, lengths=(3.0, 3.0, 3.0), grid=(32, 32, 32), particles=2)
    rng = np.random.default_rng(12)
    tracemalloc.start()
    try:
        basis = build_basis(spec, (16, 16, 16))
        d = random_coefficients(basis, 2, rng, 1.0)
        back = project(basis, synthesize(basis, d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.abs(back - d).max() < 1e-13
    dense_entries = basis.size * basis.node_count
    for field in dataclasses.fields(basis):
        value = getattr(basis, field.name)
        for part in value if isinstance(value, tuple) else (value,):
            assert np.size(part) < dense_entries, field.name


def test_project_single_mode_field():
    basis = basis_1d()
    coeff = project(basis, dense_basis_values(basis)[2].astype(np.complex128))
    expect = np.zeros(basis.size)
    expect[2] = 1.0
    assert np.abs(coeff - expect).max() < 1e-10


def test_project_out_of_span_mode_vanishes():
    # a mode one past the basis, still resolvable on the grid
    basis = basis_1d(grid=64, modes=16)
    x = basis.nodes[:, 0]
    extra = np.sqrt(2.0) * np.sin(17 * np.pi * x)
    coeff = project(basis, extra.astype(np.complex128))
    assert np.abs(coeff).max() < 1e-10


def test_project_linearity():
    basis = basis_1d()
    rng = np.random.default_rng(3)
    f = rng.standard_normal(basis.node_count) + 1j * rng.standard_normal(basis.node_count)
    g = rng.standard_normal(basis.node_count) + 1j * rng.standard_normal(basis.node_count)
    a, b = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = project(basis, a * f + b * g)
    rhs = a * project(basis, f) + b * project(basis, g)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_norms_zero_and_single_mode_with_gradient_oracle():
    basis = basis_1d()
    l2, h1 = norms(basis, np.zeros((basis.size, 1)))
    assert l2 == 0 and h1 == 0

    k = 4
    l2, h1 = norms(basis, unit_state(basis, k))
    assert abs(l2 - 1.0) < 1e-12
    # oracle: quadrature of the analytic gradient of the tabulated mode
    x = basis.nodes[:, 0]
    kk = basis.mode_indices[k, 0]
    grad = np.sqrt(2.0) * kk * np.pi * np.cos(kk * np.pi * x)
    grad_sq = np.sum(basis.weights * grad**2)
    assert abs(h1 - np.sqrt(1.0 + grad_sq)) < 1e-10


def test_norm_scaling_homogeneity():
    basis = basis_1d()
    rng = np.random.default_rng(5)
    d = random_coefficients(basis, 1, rng, 0.8)
    l2, h1 = norms(basis, d)
    l2b, h1b = norms(basis, 2.0 * d)
    assert abs(l2b - 2 * l2) < 1e-12 and abs(h1b - 2 * h1) < 1e-10


def test_parseval_random_states():
    basis = basis_1d()
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = random_coefficients(basis, 2, rng, rng.uniform(0.1, 3.0))
        l2, _ = norms(basis, d)
        assert abs(grid_norm(basis, synthesize(basis, d)) - l2) < 1e-9


def test_eigen_relation_via_gradient_quadrature():
    basis = basis_1d()
    values = dense_basis_values(basis)
    x = basis.nodes[:, 0]
    for k in range(basis.size):
        kk = basis.mode_indices[k, 0]
        grad = np.sqrt(2.0) * kk * np.pi * np.cos(kk * np.pi * x)
        ratio = np.sum(basis.weights * grad**2) / np.sum(
            basis.weights * values[k] ** 2
        )
        assert abs(ratio / basis.eigenvalues[k] - 1.0) < 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dimension=4, lengths=(1.0,) * 4, grid=(8,) * 4),
        dict(dimension=1, lengths=(-1.0,), grid=(8,)),
        dict(dimension=1, lengths=(1.0,), grid=(7,)),
        dict(dimension=1, lengths=(1.0,), grid=(2,)),
        dict(dimension=2, lengths=(1.0,), grid=(8, 8)),
        dict(dimension=1, lengths=(1.0,), grid=(8,), particles=0),
        dict(dimension=1, lengths=(1.0,), grid=(8,), horizon=0.0),
        dict(dimension=1, lengths=(1.0,), grid=(8,), steps=2.5),
        dict(dimension=1, lengths=(1.0,), grid=(8,), steps=True),
        dict(dimension=1, lengths=(1.0,), grid=(8,), particles=1.5),
        dict(dimension=True, lengths=(1.0,), grid=(8,)),
        dict(dimension=1.0, lengths=(1.0,), grid=(8,)),
        dict(dimension=1, lengths=(1.0,), grid=(32.5,)),
        dict(dimension=1, lengths=(1.0,), grid=(8,), steps=0),
        dict(dimension=1, lengths=(1.0,), grid=(8,), steps=-3),
        dict(dimension=1, lengths=(1.0,), grid=(8,), steps="4"),
    ],
)
def test_domain_spec_validation(kwargs):
    defaults = dict(dimension=1, lengths=(1.0,), grid=(8,), particles=1, horizon=1.0, steps=10)
    defaults.update(kwargs)
    with pytest.raises(DomainError):
        DomainSpec(**defaults)


def test_a_time_step_whose_kinetic_phase_overflows_is_refused():
    # the largest eigenvalue (4 pi)^2 of the 8-cell grid times dt = 1e308 / 4 is not finite
    with pytest.raises(DomainError, match="^time step too long for the grid: its kinetic phase"):
        DomainSpec(dimension=1, lengths=(1.0,), grid=(8,), horizon=1e308, steps=4)
    # a finite product is accepted, and more steps bring 1e308 back within range
    DomainSpec(dimension=1, lengths=(1.0,), grid=(8,), horizon=1e305, steps=1)
    DomainSpec(dimension=1, lengths=(1.0,), grid=(8,), horizon=1e308, steps=10**4)


def test_coefficient_shape_mismatch_rejected():
    basis = basis_1d()
    with pytest.raises(DomainError):
        synthesize(basis, np.zeros((basis.size + 1, 1)))
    with pytest.raises(DomainError):
        project(basis, np.zeros(basis.node_count + 3))
    with pytest.raises(DomainError):
        norms(basis, np.full((basis.size, 1), np.nan))
