"""Workload definitions: a seed and a size give one fixed CLI call.

Every workload keeps its shapes and step counts fixed; the seed only draws
the initial-state coefficients, the control samples and the config seed
(``verify`` runs the default config, so there only the config seed, which
seeds the suite's probes), so run time depends on the workload and not on
the seed.
"""

import itertools
import math

import numpy as np

DEFAULT_SEED = 0  # reference artifacts in reference/ belong to this seed
HELD_OUT_SEED = 1701  # never used while tuning; re-check claimed gains on it

WORKLOADS = ("fwd3d", "adj1d", "opt2d", "verify")

# per workload: subcommand, geometry and run length at full and tiny size
_SHAPES = {
    "fwd3d": {
        "subcommand": "simulate",
        "full": {"dimension": 3, "grid": 16, "modes": 6, "particles": 2, "steps": 100},
        "tiny": {"dimension": 3, "grid": 8, "modes": 4, "particles": 2, "steps": 40},
    },
    "adj1d": {
        "subcommand": "adjoint",
        "full": {"dimension": 1, "grid": 64, "modes": 16, "particles": 2, "steps": 2000},
        "tiny": {"dimension": 1, "grid": 16, "modes": 4, "particles": 2, "steps": 40},
    },
    "opt2d": {
        "subcommand": "optimize",
        "full": {"dimension": 2, "grid": 32, "modes": 8, "particles": 1, "steps": 100,
                 "iterations": 5},
        "tiny": {"dimension": 2, "grid": 8, "modes": 3, "particles": 1, "steps": 10,
                 "iterations": 3},
    },
    # the default config, whose instance sizes the suite fixes; a drawn initial
    # state can fail form-value-bound-alpha1, so none is drawn
    "verify": {"subcommand": "verify", "full": {}},
}

LENGTH = 3.0
HORIZON = 1.0


def subcommand(workload):
    return _SHAPES[workload]["subcommand"]


def shape(workload, size="full"):
    """Geometry and run length: dimension, grid, modes, particles, steps[, iterations].

    Empty for ``verify``; a workload without a tiny size runs its full size.
    """
    shapes = _SHAPES[workload]
    return shapes.get(size, shapes["full"])


def _mode_norms_sq(dimension, modes):
    """|k|^2 of every mode, flattened lexicographically (first axis slowest)."""
    grid = itertools.product(range(1, modes + 1), repeat=dimension)
    return np.array([sum(k * k for k in idx) for idx in grid], dtype=np.float64)


def initial_coefficients(rng, dimension, modes, particles):
    """Random unit-norm states weighted toward low modes, as [modes][particles][re, im]."""
    k2 = _mode_norms_sq(dimension, modes)
    decay = np.exp(-(k2 - dimension) / 4.0)[:, None]
    re = rng.standard_normal((k2.size, particles)) * decay
    im = rng.standard_normal((k2.size, particles)) * decay
    norm = np.sqrt((re**2 + im**2).sum(axis=0))
    values = np.stack([re / norm, im / norm], axis=-1)
    return values.tolist()


def control_samples(rng, steps):
    """steps+1 samples of a sine with seeded amplitude, frequency and phase."""
    amplitude = rng.uniform(0.5, 1.0)
    cycles = rng.uniform(1.0, 2.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    t = np.linspace(0.0, HORIZON, steps + 1)
    return (amplitude * np.sin(2.0 * math.pi * cycles * t / HORIZON + phase)).tolist()


def build_config(workload, seed, size="full"):
    """The JSON config (as a dict) for one run of a workload."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(WORKLOADS)}")
    if workload == "verify":
        return {"seed": int(seed)}
    shape = _SHAPES[workload][size]
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    dim = shape["dimension"]
    state = {
        "kind": "coefficients",
        "values": initial_coefficients(rng, dim, shape["modes"], shape["particles"]),
    }
    config = {
        "seed": int(seed),
        "domain": {
            "dimension": dim,
            "lengths": [LENGTH] * dim,
            "grid": [shape["grid"]] * dim,
            "particles": shape["particles"],
            "horizon": HORIZON,
            "steps": shape["steps"],
        },
        "basis": {"modes": [shape["modes"]] * dim},
        "initial_state": state,
        "control": {"kind": "samples", "values": control_samples(rng, shape["steps"])},
    }
    if dim >= 2:
        config["potentials"] = {"coulomb_softening": 0.0}
    if workload in ("adj1d", "opt2d"):
        config["objective"] = {"j2": "terminal", "target_state": {"kind": "lowest_modes"}}
    if workload == "opt2d":
        config["optimize"] = {"iterations": shape["iterations"]}
    return config
