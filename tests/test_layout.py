"""Coefficient data has one layout, (modes, particles): a (modes,) array is
rejected with the error class of the module it is passed to, never promoted."""

import json
from dataclasses import replace

import numpy as np
import pytest

from tdks import (
    DomainError,
    ObjectiveSpec,
    PropagationError,
    SystemContext,
    adjoint_D,
    bilinear_B,
    grid_inner,
    nonlinear_G,
    norms,
    rhs,
    solve_adjoint,
    solve_forward,
    step,
    synthesize,
)
from tdks.cli import ConfigError, parse_config, run
from tdks.control import ControlError
from tdks.system import SystemError

from conftest import (
    at_every_time,
    fields_at,
    make_setup,
    midpoint_fields,
    stored_trajectory,
    unit_state,
)


@pytest.fixture(scope="module")
def contexts():
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=4)
    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    lam = unit_state(basis, 0)
    adj = SystemContext(
        basis=basis,
        potentials=pot,
        alpha=0,
        forward=stored_trajectory(fwd, [lam, lam]),
        kernel=kernel,
    )
    return basis, fwd, adj


CASES = {
    "synthesize": (DomainError, lambda b, f, a, d: synthesize(b, d)),
    "norms": (DomainError, lambda b, f, a, d: norms(b, d)),
    "step": (
        PropagationError,
        lambda b, f, a, d: step(f, 0.0, 0.25, d, midpoint_fields(f, 0.0, 0.25)),
    ),
    "solve_forward": (PropagationError, lambda b, f, a, d: solve_forward(f, d)),
    "solve_adjoint": (PropagationError, lambda b, f, a, d: solve_adjoint(a, d)),
    # the forms take stacks: a stack of one of d, or (-stacked) d itself, not promoted
    "rhs": (SystemError, lambda b, f, a, d: rhs(f, fields_at(f, 0.0), d[None])),
    "bilinear_B": (
        SystemError,
        lambda b, f, a, d: bilinear_B(f, fields_at(f, 0.0), d[None], d[None]),
    ),
    "bilinear_B-stacked": (
        SystemError,
        lambda b, f, a, d: bilinear_B(f, fields_at(f, 0.0), d, d),
    ),
    "nonlinear_G": (SystemError, lambda b, f, a, d: nonlinear_G(f, d)),
    "adjoint_D": (
        SystemError,
        lambda b, f, a, d: adjoint_D(a, fields_at(a, 0.0), d[None], d[None]),
    ),
    "target_state": (ControlError, lambda b, f, a, d: ObjectiveSpec(j2="terminal", target_state=d)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_modes_only_state_is_rejected_not_promoted(contexts, name):
    basis, fwd, adj = contexts
    error, call = CASES[name]
    d = unit_state(basis, 0)[:, 0]  # (modes,)
    with pytest.raises(error, match="modes, particles"):
        call(basis, fwd, adj, d)


def test_cli_initial_state_file_of_modes_only_is_rejected(tmp_path):
    path = tmp_path / "state.npy"
    np.save(path, np.eye(4, dtype=np.complex128)[0])  # (modes,)
    cfg = parse_config(
        json.dumps(
            {
                "domain": {"lengths": [3.0], "grid": [16], "steps": 4},
                "basis": {"modes": [4]},
                "initial_state": {"kind": "file", "path": str(path)},
            }
        )
    )
    with pytest.raises(ConfigError, match="initial_state.path"):
        run(cfg, "simulate", tmp_path / "out", quiet=True)


@pytest.mark.parametrize("layout", ["grid field", "modes only"])
def test_a_source_must_return_modes_by_particles_coefficients(contexts, layout):
    basis, fwd, _ = contexts
    value = np.ones((basis.node_count, 1)) if layout == "grid field" else np.ones(basis.size)
    ctx = SystemContext(
        basis=basis, potentials=fwd.potentials, kernel=fwd.kernel, source=at_every_time(value)
    )
    with pytest.raises(SystemError, match="modes, particles"):
        ctx.source_coefficients(np.array([0.0]))


@pytest.mark.parametrize("solve", ["forward", "adjoint"])
def test_a_non_finite_source_is_a_system_error_naming_its_time(solve):
    # NaN from t = 0.5 on: the forward solve reads the step midpoints upward, so its
    # first NaN is at 0.525; the adjoint reads them downward from 0.975, all in one block
    basis, pot, kernel = make_setup(grid=(16,), modes=(4,), steps=20)
    value = unit_state(basis, 0)

    def source(times):
        return np.where(times >= 0.5, np.nan, 1.0)[:, None, None] * value

    fwd = SystemContext(basis=basis, potentials=pot, kernel=kernel)
    if solve == "forward":
        with pytest.raises(SystemError, match="^source is not finite at t=0.525$"):
            solve_forward(replace(fwd, source=source), value)
    else:
        adj = replace(fwd, alpha=0, forward=solve_forward(fwd, value), source=source)
        with pytest.raises(SystemError, match="^source is not finite at t=0.975$"):
            solve_adjoint(adj, value)


@pytest.mark.parametrize("name", ["rhs", "bilinear_B", "nonlinear_G", "adjoint_D"])
def test_a_non_finite_state_is_rejected_by_every_operator(contexts, name):
    basis, fwd, adj = contexts
    error, call = CASES[name]
    d = unit_state(basis, 0)
    d[1, 0] = np.nan
    with pytest.raises(error, match="non-finite"):
        call(basis, fwd, adj, d)


def test_grid_inner_rejects_single_channel_fields(contexts):
    basis = contexts[0]
    f = np.ones(basis.node_count)
    with pytest.raises(DomainError):
        grid_inner(basis, f, f)
