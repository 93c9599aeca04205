"""Box domain, Dirichlet sine basis, quadrature grid, and coefficient algebra.

The basis functions are tensor products of sine modes,

    phi_k(x) = prod_i sqrt(2/L_i) * sin(k_i * pi * x_i / L_i),   k_i >= 1,

which are L2-orthonormal and H1_0-orthogonal on the box, with Laplacian
eigenvalues lambda_k = sum_i (k_i*pi/L_i)^2.  Quadrature is the uniform
tensor trapezoid rule on all (M_i+1) nodes per axis; boundary nodes carry
half weight and every basis function vanishes there, so products of
resolvable sine modes are integrated exactly (discrete sine orthogonality).

Coefficient data has one layout: a state is a complex ``(modes, particles)``
array, a stack of states adds one leading axis, and any other shape is
rejected by ``check_layout``, never promoted.  Grid fields are
``(nodes, particles)`` (or stacks); scalar fields such as potentials and
densities are ``(nodes,)`` (real dtype for real-valued fields).

Because the basis is a tensor product, only the per-axis sine tables
``(modes_i, nodes_i)`` are stored (sum_i modes_i * nodes_i entries), and
``synthesize`` / ``project`` contract the coefficient or field tensor one
axis at a time (sum factorization, Orszag 1980): one small product per
axis in place of one O(modes * nodes) product.  No (modes x nodes) table
is ever formed.
"""

import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np


class TdksError(Exception):
    """Base of every exception class tdks defines: inputs the theory does not admit,
    and solves that fail.  ``tdks.cli.main`` ends each one in a single ``error:``
    line.  Each subclass also derives from ``ValueError`` or ``RuntimeError``."""


class DomainError(TdksError, ValueError):
    """Raised for invalid domain or basis parameters."""


def is_count(value):
    """Whether value is a positive integer: a ``numbers.Integral`` (so also a numpy
    integer) that is not a bool.  Every count of the domain and of a basis obeys it."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


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
        if not is_count(n) or n > 3:
            raise DomainError(f"dimension must be 1, 2 or 3, got {n!r}")
        if not all(map(is_count, self.grid)):
            raise DomainError(f"grid cells per axis must be positive integers, got {self.grid!r}")
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
        # the largest eigenvalue a basis on the grid resolves, sum_i ((grid_i/2)*pi/L_i)^2;
        # Python floats, whose x * x overflows to inf where x ** 2 would raise
        k_top = [m // 2 * math.pi / l for l, m in zip(self.lengths, self.grid)]
        lam_top = sum(k * k for k in k_top)
        if not math.isfinite(lam_top):
            raise DomainError("edge lengths too short for the grid: its eigenvalues overflow")
        if not is_count(self.particles):
            raise DomainError(
                f"the particle count must be a positive integer, got {self.particles!r}"
            )
        if not (self.horizon > 0):
            raise DomainError("time horizon must be positive")
        if not is_count(self.steps):
            raise DomainError(f"the step count must be a positive integer, got {self.steps!r}")
        # the kinetic phase of a step is exp(-i lambda_k dt), and dt = horizon / steps
        if not math.isfinite(lam_top * (self.horizon / self.steps)):
            raise DomainError("time step too long for the grid: its kinetic phase overflows")

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


def check_modes(spec, modes_per_axis):
    """The mode counts per axis as a tuple of ints, or DomainError.

    Each axis takes 1 to grid/2 modes: the modes above grid/2 are the
    anti-aliasing margin the pseudo-spectral nonlinearity relies on.
    """
    modes = tuple(modes_per_axis)
    if len(modes) != spec.dimension:
        raise DomainError("need one mode count per dimension")
    if not all(map(is_count, modes)):
        raise DomainError(f"mode counts per axis must be positive integers, got {modes!r}")
    modes = tuple(map(int, modes))
    for k, m in zip(modes, spec.grid):
        if k > m // 2:
            raise DomainError(
                f"{k} modes exceed the resolvable limit {m // 2} for a grid of {m} cells"
            )
    return modes


def build_basis(spec, modes_per_axis):
    """Construct the sine basis with the mode counts per axis that check_modes allows."""
    modes = check_modes(spec, modes_per_axis)

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
        mode_indices=mode_indices,
        eigenvalues=eigenvalues,
        nodes=nodes,
        weights=weights,
        axis_tables=tuple(axis_tables),
        node_tables=tuple(t.T for t in axis_tables),
    )


def check_layout(shape, modes, error=DomainError, stack=False):
    """Raise ``error`` unless ``shape`` is (modes, particles), or with ``stack``
    (B, modes, particles); ``modes=None`` accepts any mode count."""
    if len(shape) != 2 + stack or modes is not None and shape[-2] != modes:
        want = "(B, modes, particles)" if stack else "(modes, particles)"
        count = "" if modes is None else f" with {modes} modes"
        raise error(f"coefficients of shape {tuple(shape)} are not {want}{count}")


def _as_state(basis, d, error=DomainError, stack=False):
    """Finite complex coefficients in the layout of ``check_layout``, or ``error``."""
    d = np.asarray(d, dtype=np.complex128)
    check_layout(d.shape, basis.size, error, stack)
    if not np.isfinite(d).all():
        raise error("coefficients contain non-finite entries")
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
    # explicit sizes: a reshape cannot infer a -1 axis of an empty stack
    lead, rest, nodes = math.prod(stack), a.shape[-2] * width, 1
    for t in tables:
        out, inner = t.shape
        rest //= inner
        a = np.matmul(t, a.reshape(lead * nodes, inner, rest))
        nodes *= out
    a = a.reshape(stack + (nodes, width))
    return a.view(np.complex128) if split else a


def synthesize(basis, d):
    """Evaluate the represented wave functions on the grid: (nodes, particles).

    A stack (B, modes, particles) of states gives the stack (B, nodes,
    particles) of their grid values, each equal to its own single call.
    """
    d = _as_state(basis, d, stack=np.ndim(d) == 3)
    return _along_axes(basis.node_tables, d)


def project(basis, field):
    """Quadrature projection <field, phi_k> onto every basis mode.

    Accepts single-channel (nodes,) or multi-channel (nodes, particles)
    fields and preserves that shape convention in the result; real fields
    give real coefficients.  A stack (B, nodes, particles) of fields gives
    the stack (B, modes, particles) of their projections, each equal to its
    own single call.
    """
    field = np.asarray(field)
    single = field.ndim == 1
    if single:
        field = field[:, None]
    if field.ndim > 3 or field.shape[-2] != basis.node_count:
        raise DomainError(
            f"field of shape {field.shape} does not have {basis.node_count} nodes"
        )
    coeff = _along_axes(basis.axis_tables, basis.weights[:, None] * field)
    return coeff[:, 0] if single else coeff


def norms(basis, d):
    """(L2, H1) norms of the represented state, computed in coefficient space.

    A stack (B, modes, particles) of states gives the two (B,) arrays of
    their norms, each item equal to its own single call.
    """
    d = _as_state(basis, d, stack=np.ndim(d) == 3)
    l2, h1 = finite_norms(basis, d)
    return (l2, h1) if d.ndim == 3 else (float(l2), float(h1))


def finite_norms(basis, d):
    """``norms`` of a state or stack already known to be finite complex coefficients in
    its layout, without checking it again: (B,) arrays for a stack, 0-d ones for a state."""
    sq = (d.real**2 + d.imag**2).sum(axis=-1)
    l2 = np.sqrt(sq.sum(axis=-1))
    h1 = np.sqrt(((1.0 + basis.eigenvalues) * sq).sum(axis=-1))
    return l2, h1


def grid_norm(basis, field):
    """Quadrature L2 norm of a grid field: (nodes,) or (nodes, channels).

    A stack (B, nodes, channels) of fields gives the (B,) array of their
    norms, each item equal to its own single call.
    """
    field = np.asarray(field)
    mag = np.abs(field) ** 2
    if mag.ndim > 1:
        mag = mag.sum(axis=-1)
    norm = np.sqrt(np.sum(basis.weights * mag, axis=-1))
    return norm if field.ndim == 3 else float(norm)


def grid_inner(basis, f, g):
    """Quadrature inner product <f, g> (conjugation on g), summed over channels.

    ``f`` and ``g`` are (nodes, channels) fields.  Stacks (B, nodes,
    channels) of fields give the (B,) array of the products of their items;
    each item's sum runs along one contiguous row, in the order of its single
    call.
    """
    if np.ndim(f) < 2 or np.ndim(g) < 2:
        raise DomainError("grid_inner takes (nodes, channels) fields or stacks of them")
    terms = basis.weights[:, None] * f * np.conj(g)
    sums = np.sum(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)
    return sums if sums.ndim else complex(sums)


def carry_modes(d, src, dst):
    """Coefficients d on the basis src (a state or a stack) carried to the basis dst
    by mode multi-index: a mode both bases hold keeps its value, any other is 0."""
    keys = list(map(tuple, src.mode_indices.tolist()))
    rows = {k: j for j, k in enumerate(map(tuple, dst.mode_indices.tolist()))}
    shared = [i for i, k in enumerate(keys) if k in rows]
    out = np.zeros(d.shape[:-2] + (dst.size, d.shape[-1]), dtype=d.dtype)
    out[..., [rows[keys[i]] for i in shared], :] = d[..., shared, :]
    return out


def random_coefficients(basis, particles, rng, l2_norm=1.0):
    """I.i.d. complex-Gaussian coefficients rescaled to the requested L2 norm."""
    d = rng.standard_normal((basis.size, particles)) + 1j * rng.standard_normal(
        (basis.size, particles)
    )
    current = np.sqrt((d.real**2 + d.imag**2).sum())
    return d * (l2_norm / current)
