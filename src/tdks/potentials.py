"""Density and the Hartree / exchange / correlation / external potentials.

The coupling potential is the LDA-style sum

    V(rho) = V_H(rho) + V_x(rho) + V_c(rho),
    V_H(x) = integral of rho(y) * w(x-y) dy,      w(x) = 1/|x|,
    V_x    = c * rho**beta                        (c < 0, 0 < beta < 1),
    V_c    = -a / (r_s(rho) + b)                  (Wigner form),

with r_s the radius of the n-ball of volume 1/rho.  V_H is the trapezoid
quadrature sum over the uniform grid, which depends on a node pair only
through its per-axis index offset, so the Coulomb kernel is stored as the
table of w over those offsets (see ``CoulombKernel``).  The singular value
at offset 0 is replaced by the analytic cell average of w over one grid
cell, which keeps second-order accuracy.  In one dimension w is not
integrable, so a softened kernel 1/sqrt(x^2 + softening^2) with
softening > 0 is required there.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import grid_norm, synthesize

DEFAULT_EXCHANGE_C = -((3.0 / math.pi) ** (1.0 / 3.0))
DEFAULT_EXCHANGE_BETA = 1.0 / 3.0
DEFAULT_WIGNER_A = 0.44
DEFAULT_WIGNER_B = 7.8

# grids with at most this many nodes apply K as a gathered dense matrix (7-40
# microseconds per call); larger ones use the FFT convolution, which never
# allocates a (nodes x nodes) array.  Measured with the pruned inverse (numpy
# 2.4, 2 vCPUs), the FFT wins from about 450 nodes in 1-d and 530 in 2-d; in 3-d
# the dense matrix still wins at 9^3 nodes (38 against 64 us) and the FFT at
# 11^3 (91 against 221 us)
DENSE_MAX_NODES = 512


class PotentialError(ValueError):
    """Raised for unphysical potential parameters or mismatched grids."""


@dataclass(frozen=True, eq=False)
class PotentialConfig:
    """Parameters of the coupling potential plus the external fields.

    ``confinement`` (V0) and ``control_shape`` (Vu) are grid fields or None
    for identically zero.  The include_* switches select which coupling
    terms enter V; the physical defaults enable all three.
    """

    exchange_c: float = DEFAULT_EXCHANGE_C
    exchange_beta: float = DEFAULT_EXCHANGE_BETA
    correlation_a: float = DEFAULT_WIGNER_A
    correlation_b: float = DEFAULT_WIGNER_B
    coulomb_softening: float = 0.0
    include_hartree: bool = True
    include_exchange: bool = True
    include_correlation: bool = True
    confinement: np.ndarray = None
    control_shape: np.ndarray = None

    def __post_init__(self):
        if not (self.exchange_c < 0):
            raise PotentialError("exchange prefactor must be a negative constant")
        if not (0.0 < self.exchange_beta < 1.0):
            raise PotentialError("exchange exponent must lie strictly in (0, 1)")
        if not (self.correlation_a > 0 and self.correlation_b > 0):
            raise PotentialError("Wigner correlation parameters must be positive")
        if self.coulomb_softening < 0:
            raise PotentialError("Coulomb softening must be >= 0")
        for name in ("confinement", "control_shape"):
            field = getattr(self, name)
            if field is not None:
                field = np.asarray(field, dtype=np.float64)
                if not np.all(np.isfinite(field)):
                    raise PotentialError(f"{name} field must be finite everywhere")
                object.__setattr__(self, name, field)

    @property
    def has_ks(self):
        """Whether any density-dependent (Hartree, exchange, correlation) term is on."""
        return self.include_hartree or self.include_exchange or self.include_correlation


@dataclass(frozen=True, eq=False)
class CoulombKernel:
    """Hartree quadrature operator K[q, r] = w(x_q - x_r) * weight_r.

    On the uniform grid, w(x_q - x_r) depends only on the per-axis index
    offsets of q and r, so K is block Toeplitz and fixed by the offset table
    of w.  Grids of at most ``DENSE_MAX_NODES`` nodes hold K itself in
    ``matrix``, gathered from that table.  Larger grids hold ``spectrum``,
    the (real) FFT of the table embedded circulantly on 2*grid points per
    axis, and apply K as an exact zero-padded (free-space) convolution whose
    inverse transform computes only the rows that reach a node (see
    ``hartree``); their ``matrix`` is None.
    """

    softening: float
    dimension: int
    nodes_per_axis: tuple
    weights: np.ndarray
    matrix: np.ndarray = None
    spectrum: np.ndarray = None

    @property
    def node_count(self):
        return self.weights.shape[0]

    @cached_property
    def row_sum_max(self):
        """Largest row sum of K (every entry is positive), computed once on first use."""
        return float(hartree(self, np.ones(self.node_count)).max())


def _corner_integral(half_widths):
    """Integral of 1/|x| over the box [0,a]x[0,b](x[0,c]) at whose corner it is singular."""
    if len(half_widths) == 2:
        a, b = half_widths
        return a * math.asinh(b / a) + b * math.asinh(a / b)
    a, b, c = half_widths
    r = math.sqrt(a * a + b * b + c * c)
    return (
        b * c * math.asinh(a / math.hypot(b, c))
        + c * a * math.asinh(b / math.hypot(c, a))
        + a * b * math.asinh(c / math.hypot(a, b))
        - 0.5 * a * a * math.atan2(b * c, a * r)
        - 0.5 * b * b * math.atan2(c * a, b * r)
        - 0.5 * c * c * math.atan2(a * b, c * r)
    )


def _cell_average(spacings, softening):
    """Average of the kernel over one grid cell centred on the singularity."""
    if len(spacings) == 1:
        h = spacings[0]
        return 2.0 * math.asinh(h / (2.0 * softening)) / h
    halves = [h / 2.0 for h in spacings]
    total = (2 ** len(spacings)) * _corner_integral(halves)
    return total / math.prod(spacings)


def _offset_table(spacings, softening, offsets):
    """w at the per-axis index offsets ``offsets[i]`` (non-negative), as an n-d table.

    The entry at offset 0 is the cell average (the raw value is singular
    for softening == 0).
    """
    n = len(offsets)
    d2 = float(softening) ** 2
    for axis, (o, h) in enumerate(zip(offsets, spacings)):
        x = (o * h).reshape((-1,) + (1,) * (n - 1 - axis))
        d2 = x * x + d2
    origin = (0,) * n
    d2[origin] = 1.0  # placeholder, overwritten below
    table = 1.0 / np.sqrt(d2)
    table[origin] = _cell_average(spacings, softening)
    return table


def build_coulomb_kernel(basis, softening=0.0):
    """Build the Coulomb kernel for the basis quadrature grid.

    A (nodes x nodes) array is allocated only for grids of at most
    ``DENSE_MAX_NODES`` nodes.
    """
    n = basis.spec.dimension
    if n == 1:
        if softening <= 0:
            raise PotentialError(
                "1/|x| is not integrable in one dimension; set coulomb_softening > 0"
            )
    elif softening != 0.0:
        raise PotentialError(
            "softening is a 1-d regularisation; the exact kernel is used for n >= 2"
        )
    spacings = basis.spec.spacings
    shape = tuple(m + 1 for m in basis.spec.grid)
    matrix = spectrum = None
    if basis.node_count <= DENSE_MAX_NODES:
        table = _offset_table(spacings, softening, [np.arange(m) for m in shape])
        index = np.indices(shape).reshape(n, -1)
        matrix = table[tuple(np.abs(i[:, None] - i[None, :]) for i in index)]
        matrix *= basis.weights[None, :]
    else:
        # circulant embedding on 2*cells points per axis: slot j holds offset
        # min(j, 2*cells - j); the one slot two offsets share (+-cells) holds
        # the same value for both, so the wrapped convolution is the linear one
        folded = [np.minimum(np.arange(2 * m), np.arange(2 * m, 0, -1)) for m in basis.spec.grid]
        # the table is even in every axis, so its spectrum is real
        spectrum = np.fft.rfftn(_offset_table(spacings, softening, folded)).real
    return CoulombKernel(
        softening=softening,
        dimension=n,
        nodes_per_axis=shape,
        weights=basis.weights,
        matrix=matrix,
        spectrum=spectrum,
    )


def density(basis, d):
    """Grid density rho(x_q) = sum_j |psi_j(x_q)|^2 of a coefficient state."""
    return density_from_grid(synthesize(basis, d))


def density_from_grid(psi):
    """Particle-summed |psi|^2 of already-synthesized grid channels
    (nodes, particles), or of a stack (B, nodes, particles) of them."""
    psi = np.asarray(psi, dtype=np.complex128)
    return np.einsum("...qj,...qj->...q", psi.real, psi.real) + np.einsum(
        "...qj,...qj->...q", psi.imag, psi.imag
    )


def hartree(kernel, rho):
    """V_H = K @ rho on the grid nodes.

    ``rho`` is (nodes,) or a stack (B, nodes) of densities; a stack gives
    the (B, nodes) stack of potentials, each equal to its own single call.

    Small grids multiply by ``kernel.matrix``.  Larger ones convolve on the
    zero-padded grid of 2*cells points per axis: ``rfftn`` of weight*rho,
    times ``kernel.spectrum`` in place, then the inverse one axis at a time,
    in place, with each leading axis cut to its first m rows (the rows that
    reach a node) before the next one is transformed, and the last axis by
    ``irfft`` (an output-pruned inverse).  The result is bit-identical to cropping the
    full ``irfftn`` of the padded product, with under half its temporaries.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape[-1] != kernel.node_count:
        raise PotentialError(
            f"density has {rho.shape[-1]} nodes but kernel expects {kernel.node_count}"
        )
    if kernel.matrix is not None:
        return np.matmul(kernel.matrix, rho[..., None])[..., 0]
    # linear convolution of the offset table with weight*rho, read at the nodes
    shape = kernel.nodes_per_axis
    stack = rho.shape[:-1]
    padded = tuple(2 * (m - 1) for m in shape)
    axes = tuple(range(-len(shape), 0))
    x = np.fft.rfftn((kernel.weights * rho).reshape(stack + shape), s=padded, axes=axes)
    x *= kernel.spectrum
    # irfftn's axis order: each 1-d transform kept is one that irfftn runs
    for axis, m in zip(axes[:-1], shape):
        x = np.fft.ifft(x, axis=axis, out=x)[(..., slice(0, m)) + (slice(None),) * (-axis - 1)]
    out = np.fft.irfft(x, padded[-1], axis=-1)
    return out[..., : shape[-1]].reshape(stack + (-1,))


def exchange(config, rho):
    rho = np.maximum(np.asarray(rho, dtype=np.float64), 0.0)
    return config.exchange_c * rho**config.exchange_beta


def _ball_radius_prefactor(dimension):
    # r_s = prefactor * rho**(-1/n): radius of the n-ball of volume 1/rho
    n = dimension
    return (math.gamma(n / 2.0 + 1.0) / math.pi ** (n / 2.0)) ** (1.0 / n)


def correlation(config, rho, dimension):
    """Wigner correlation -a/(r_s + b), written rationally so rho -> 0 gives 0."""
    rho = np.maximum(np.asarray(rho, dtype=np.float64), 0.0)
    cn = _ball_radius_prefactor(dimension)
    y = rho ** (1.0 / dimension)
    return -config.correlation_a * y / (cn + config.correlation_b * y)


def vxc_rho_derivative(config, rho, dimension):
    """Pointwise d(V_x + V_c)/d rho, honouring the include switches.

    The raw derivative diverges as rho -> 0 for the exchange part; nodes with
    rho == 0 return 0 so that every product derivative*rho stays finite and
    exact in the limit (the combination the adjoint coupling terms use).
    """
    rho = np.maximum(np.asarray(rho, dtype=np.float64), 0.0)
    out = np.zeros_like(rho)
    pos = rho > 0.0
    if config.include_exchange:
        out[pos] += (
            config.exchange_c
            * config.exchange_beta
            * rho[pos] ** (config.exchange_beta - 1.0)
        )
    if config.include_correlation:
        cn = _ball_radius_prefactor(dimension)
        a, b = config.correlation_a, config.correlation_b
        y = rho[pos] ** (1.0 / dimension)
        out[pos] += -a * cn * y / (dimension * rho[pos] * (cn + b * y) ** 2)
    return out


def ks_potential(config, kernel, rho, dimension):
    """Total coupling potential V_H + V_x + V_c per the include switches."""
    v = np.zeros_like(np.asarray(rho, dtype=np.float64))
    if config.include_hartree:
        if kernel is None:
            raise PotentialError("Hartree term requested but no Coulomb kernel supplied")
        v += hartree(kernel, rho)
    if config.include_exchange:
        v += exchange(config, rho)
    if config.include_correlation:
        v += correlation(config, rho, dimension)
    return v


_PRESETS = ("zero", "harmonic", "well", "dipole", "array")


def sample_field(basis, kind, params=None):
    """Sample a named analytic potential shape (or explicit array) on the grid."""
    params = dict(params or {})
    nodes = basis.nodes
    lengths = np.asarray(basis.spec.lengths)
    center = lengths / 2.0
    if kind == "zero":
        return np.zeros(basis.node_count)
    if kind == "harmonic":
        amplitude = float(params.pop("amplitude", 1.0))
        field = amplitude * ((nodes - center) ** 2).sum(axis=1)
    elif kind == "well":
        depth = float(params.pop("depth", -1.0))
        fraction = float(params.pop("width_fraction", 0.5))
        inside = np.all(np.abs(nodes - center) <= fraction * lengths / 2.0, axis=1)
        field = np.where(inside, depth, 0.0)
    elif kind == "dipole":
        amplitude = float(params.pop("amplitude", 1.0))
        field = amplitude * (nodes[:, 0] - center[0])
    elif kind == "array":
        values = params.pop("values", None)
        path = params.pop("path", None)
        if values is None and path is None:
            raise PotentialError("array field preset needs 'values' or 'path'")
        field = np.asarray(values if values is not None else np.load(path), dtype=np.float64)
        field = field.reshape(-1)
        if field.shape[0] != basis.node_count:
            raise PotentialError(
                f"array field has {field.shape[0]} values, grid has {basis.node_count} nodes"
            )
    else:
        raise PotentialError(f"unknown field preset {kind!r}; choose from {_PRESETS}")
    if params:
        raise PotentialError(f"unused field parameters for {kind!r}: {sorted(params)}")
    return field


def potential_sup(basis, field):
    """Grid sup-norm used when assembling bound constants."""
    return float(np.max(np.abs(field))) if field is not None else 0.0


def hartree_pair_difference(basis, kernel, psi, ups):
    """||V_H(psi)psi - V_H(ups)ups||_L2 on the grid, for Lipschitz probes."""
    rho_p = density_from_grid(psi)
    rho_u = density_from_grid(ups)
    diff = hartree(kernel, rho_p)[:, None] * psi - hartree(kernel, rho_u)[:, None] * ups
    return grid_norm(basis, diff)
