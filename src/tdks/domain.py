"""Box domain, Dirichlet sine basis, quadrature grid, and coefficient algebra.

The basis functions are tensor products of sine modes,

    phi_k(x) = prod_i sqrt(2/L_i) * sin(k_i * pi * x_i / L_i),   k_i >= 1,

which are L2-orthonormal and H1_0-orthogonal on the box, with Laplacian
eigenvalues lambda_k = sum_i (k_i*pi/L_i)^2.  Quadrature is the uniform
tensor trapezoid rule on all (M_i+1) nodes per axis; boundary nodes carry
half weight and every basis function vanishes there, so products of
resolvable sine modes are integrated exactly (discrete sine orthogonality).

States are stored as complex coefficient matrices ``d`` of shape
``(modes, particles)``; grid fields are arrays of shape ``(nodes,)`` or
``(nodes, particles)`` (real dtype for real-valued fields).

Because the basis is a tensor product, only the per-axis sine tables
``(modes_i, nodes_i)`` are stored (sum_i modes_i * nodes_i entries), and
``synthesize`` / ``project`` contract the coefficient or field tensor one
axis at a time (sum factorization, Orszag 1980): one small product per
axis in place of one O(modes * nodes) product.  No (modes x nodes) table
is ever formed.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np


class DomainError(ValueError):
    """Raised for invalid domain or basis parameters."""


@dataclass(frozen=True)
class DomainSpec:
    """Box domain, particle count, and time horizon for one run.

    ``grid`` counts uniform cells per axis (nodes per axis = grid+1); it must
    be even so the node set is symmetric about the box center.  Dimensions
    1 and 2 are supported alongside the physical n=3 for cheap test cases.
    """

    dimension: int
    lengths: tuple
    grid: tuple
    particles: int = 1
    horizon: float = 1.0
    steps: int = 100

    def __post_init__(self):
        n = self.dimension
        if n not in (1, 2, 3):
            raise DomainError(f"dimension must be 1, 2 or 3, got {n}")
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        object.__setattr__(self, "grid", tuple(int(v) for v in self.grid))
        if len(self.lengths) != n or len(self.grid) != n:
            raise DomainError("lengths and grid must each have one entry per dimension")
        if any(v <= 0 for v in self.lengths):
            raise DomainError("edge lengths must be positive")
        if any(m < 4 for m in self.grid):
            raise DomainError("need at least 4 grid cells per axis")
        if any(m % 2 for m in self.grid):
            raise DomainError("grid cells per axis must be even")
        if self.particles < 1:
            raise DomainError("particle count must be >= 1")
        if not (self.horizon > 0):
            raise DomainError("time horizon must be positive")
        if self.steps < 1:
            raise DomainError("need at least one time step")

    @property
    def volume(self):
        return float(np.prod(self.lengths))

    @property
    def spacings(self):
        return tuple(l / m for l, m in zip(self.lengths, self.grid))


@dataclass(frozen=True, eq=False)
class SpectralBasis:
    """Sine basis on the quadrature grid, tabulated one axis at a time.

    ``axis_tables[i][j, q]`` holds sqrt(2/L_i) * sin((j+1) * pi * x_q / L_i)
    at node q of axis i.  The basis function phi_k is the product of one row
    per axis; modes and nodes are both flattened lexicographically by
    multi-index (first axis slowest).  The tables hold
    sum_i modes_i * nodes_i entries, and ``synthesize`` / ``project`` apply
    them axis by axis instead of forming the (modes x nodes) product table.
    """

    spec: DomainSpec
    modes_per_axis: tuple
    mode_indices: np.ndarray  # (modes, dimension) int, entries start at 1
    eigenvalues: np.ndarray  # (modes,)
    nodes: np.ndarray  # (nodes, dimension)
    weights: np.ndarray  # (nodes,)
    axis_tables: tuple  # per axis (modes_i, nodes_i)
    node_tables: tuple  # per axis (nodes_i, modes_i), transposed views of axis_tables

    @property
    def size(self):
        return self.mode_indices.shape[0]

    @property
    def node_count(self):
        return self.weights.shape[0]


def build_basis(spec, modes_per_axis):
    """Construct the sine basis with the given mode counts per axis.

    Modes above grid/2 per axis are rejected: they are the anti-aliasing
    margin the pseudo-spectral nonlinearity relies on.
    """
    modes = tuple(int(k) for k in modes_per_axis)
    if len(modes) != spec.dimension:
        raise DomainError("modes_per_axis must have one entry per dimension")
    if any(k < 1 for k in modes):
        raise DomainError("need at least one mode per axis")
    for k, m in zip(modes, spec.grid):
        if k > m // 2:
            raise DomainError(
                f"{k} modes exceed the resolvable limit {m // 2} for a grid of {m} cells"
            )

    axis_nodes = [np.linspace(0.0, l, m + 1) for l, m in zip(spec.lengths, spec.grid)]
    axis_weights = []
    for l, m in zip(spec.lengths, spec.grid):
        w = np.full(m + 1, l / m)
        w[0] *= 0.5
        w[-1] *= 0.5
        axis_weights.append(w)

    axis_tables = []
    for l, k_max, x in zip(spec.lengths, modes, axis_nodes):
        k = np.arange(1, k_max + 1)
        axis_tables.append(np.sqrt(2.0 / l) * np.sin(np.outer(k, np.pi * x / l)))

    weights = reduce(np.multiply.outer, axis_weights).reshape(-1)

    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)

    kmesh = np.meshgrid(*[np.arange(1, k + 1) for k in modes], indexing="ij")
    mode_indices = np.stack([m.reshape(-1) for m in kmesh], axis=1)
    eigenvalues = np.zeros(mode_indices.shape[0])
    for axis, l in enumerate(spec.lengths):
        eigenvalues += (mode_indices[:, axis] * np.pi / l) ** 2

    return SpectralBasis(
        spec=spec,
        modes_per_axis=modes,
        mode_indices=mode_indices,
        eigenvalues=eigenvalues,
        nodes=nodes,
        weights=weights,
        axis_tables=tuple(axis_tables),
        node_tables=tuple(t.T for t in axis_tables),
    )


def _as_state(basis, d):
    d = np.asarray(d, dtype=np.complex128)
    if d.ndim == 1:
        d = d[:, None]
    if d.shape[-2] != basis.size:
        raise DomainError(
            f"coefficient rows {d.shape[-2]} do not match basis size {basis.size}"
        )
    if not np.all(np.isfinite(d)):
        raise DomainError("coefficients contain non-finite entries")
    return d


def _along_axes(tables, a):
    """Apply ``tables[i]`` (out_i, in_i) along axis i of a flattened tensor.

    ``a`` is (prod in_i, channels) with the tensor axes first-axis-slowest,
    or a stack (B, prod in_i, channels) of such tensors; the result is
    (prod out_i, channels), or its stack, in the same order and dtype.  One
    axis is the plain matrix product.  Otherwise each step is one matmul
    broadcast over the stack and the axes already contracted, with complex
    input split into real and imaginary channels so that every product is
    real.  Each stack item goes through the same products as it would alone.
    """
    if len(tables) == 1:
        return tables[0] @ a
    split = a.dtype == np.complex128
    if split:
        a = np.ascontiguousarray(a).view(np.float64)
    stack, width = a.shape[:-2], a.shape[-1]
    lead = math.prod(stack)
    for t in tables:
        out, inner = t.shape
        a = np.matmul(t, a.reshape(lead, inner, -1))
        lead *= out
    a = a.reshape(stack + (-1, width))
    return a.view(np.complex128) if split else a


def synthesize(basis, d):
    """Evaluate the represented wave functions on the grid: (nodes, particles).

    A stack (B, modes, particles) of states gives the stack (B, nodes,
    particles) of their grid values, each equal to its own single call.
    """
    d = _as_state(basis, d)
    return _along_axes(basis.node_tables, d)


def project(basis, field):
    """Quadrature projection <field, phi_k> onto every basis mode.

    Accepts single-channel (nodes,) or multi-channel (nodes, particles)
    fields and preserves that shape convention in the result; real fields
    give real coefficients.
    """
    field = np.asarray(field)
    single = field.ndim == 1
    if single:
        field = field[:, None]
    if field.shape[0] != basis.node_count:
        raise DomainError(
            f"field has {field.shape[0]} nodes, expected {basis.node_count}"
        )
    coeff = _along_axes(basis.axis_tables, basis.weights[:, None] * field)
    return coeff[:, 0] if single else coeff


def norms(basis, d):
    """(L2, H1) norms of the represented state, computed in coefficient space."""
    d = _as_state(basis, d)
    sq = (d.real**2 + d.imag**2).sum(axis=1)
    l2 = float(np.sqrt(sq.sum()))
    h1 = float(np.sqrt(((1.0 + basis.eigenvalues) * sq).sum()))
    return l2, h1


def grid_norm(basis, field):
    """Quadrature L2 norm of a grid field (any channel count)."""
    field = np.asarray(field)
    mag = np.abs(field) ** 2
    if mag.ndim > 1:
        mag = mag.sum(axis=tuple(range(1, mag.ndim)))
    return float(np.sqrt(np.sum(basis.weights * mag)))


def grid_inner(basis, f, g):
    """Quadrature inner product <f, g> (conjugation on g), summed over channels.

    Stacks (B, nodes, channels) of fields give the (B,) array of the
    products of their items; each item's sum runs along one contiguous row,
    in the order of its single call.
    """
    f = np.atleast_2d(np.asarray(f).T).T
    g = np.atleast_2d(np.asarray(g).T).T
    terms = basis.weights[:, None] * f * np.conj(g)
    sums = np.sum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)
    return sums if sums.ndim else complex(sums)


def random_coefficients(basis, particles, rng, l2_norm=1.0):
    """I.i.d. complex-Gaussian coefficients rescaled to the requested L2 norm."""
    d = rng.standard_normal((basis.size, particles)) + 1j * rng.standard_normal(
        (basis.size, particles)
    )
    current = np.sqrt((d.real**2 + d.imag**2).sum())
    return d * (l2_norm / current)
