"""Configuration parsing, run orchestration, and deterministic artifacts.

The configuration is a single JSON object; every key has a default, unknown
keys are rejected with their path, and physics constraints are reported
with the offending key.  Artifacts are reproducible byte for byte from
(config, seed): floats are written with shortest-roundtrip repr, JSON with
sorted keys, and no timestamps or wall-clock data enter any file.
"""

import argparse
import copy
import itertools
import json
import reprlib
import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .control import ObjectiveSpec, adjoint_sources, optimize
from .domain import (
    DomainError,
    DomainSpec,
    TdksError,
    build_basis,
    carry_modes,
    check_modes,
    project,
    synthesize,
)
from .potentials import (
    FIELD_PRESETS,
    PotentialConfig,
    PotentialError,
    build_coulomb_kernel,
    check_softening,
    density_from_grid,
    sample_field,
)
from .propagate import solve_adjoint, solve_forward, write_csv
from .signals import ControlSignal, SignalError, zero_control
from .system import SystemContext
from .verify import (
    check_coefficient_lipschitz,
    check_coulomb_lp,
    check_energy_estimates,
    check_form_bounds,
    check_galerkin_convergence,
    check_hartree_lipschitz,
    check_potential_continuity,
    check_uniqueness_gronwall,
)


class ConfigError(TdksError, ValueError):
    pass


# preset kinds, each with the forms of its optional parameters; a field preset takes
# those of potentials.FIELD_PRESETS (array values or a number), and an array a .npy path
_FIELD_PRESETS = {
    kind: {key: np.ndarray if default is None else float for key, default in params.items()}
    for kind, params in FIELD_PRESETS.items()
}
_FIELD_PRESETS["array"]["path"] = str
_STATE_PRESETS = {
    "lowest_modes": {},
    "coefficients": {"values": np.ndarray},
    "bump": {"powers": [int]},
    "file": {"path": str},
}
_CONTROL_PRESETS = {
    "zero": {},
    "samples": {"values": np.ndarray},
    "sine": {"amplitude": float, "cycles": float},
    "file": {"path": str},
}

# The configuration schema.  A dict is a section, which takes the default of
# each key it leaves out (all of them when given as null).  A tuple is a key:
# (default, form[, rule, message]).  A value must take the key's JSON form and
# pass its rule; null is taken only where the default is null.  Forms:
#   int, float, bool, str    an integer, a finite number (or integer), a boolean, a string
#   [form]                   a list of values in that form
#   (choice, ...)            one of these strings
#   np.ndarray               finite numbers, none a boolean: one, or any nesting
#   {kind: {key: form}}      a preset: an object with a "kind" and that kind's keys
# DomainSpec, domain.check_modes, PotentialConfig and potentials.check_softening
# state the rules on the domain, the mode counts and the potential constants.
_SCHEMA = {
    "domain": {
        "dimension": (1, int),
        "lengths": ([3.0], [float]),
        "grid": ([32], [int]),
        "particles": (1, int),
        "horizon": (1.0, float),
        "steps": (400, int),
    },
    "basis": {"modes": ([8], [int])},
    "potentials": {
        "exchange_c": (PotentialConfig.exchange_c, float),
        "exchange_beta": (PotentialConfig.exchange_beta, float),
        "correlation_a": (PotentialConfig.correlation_a, float),
        "correlation_b": (PotentialConfig.correlation_b, float),
        "coulomb_softening": (0.1, float),
        "include_hartree": (True, bool),
        "include_exchange": (True, bool),
        "include_correlation": (True, bool),
        "confinement": ({"kind": "harmonic", "amplitude": 1.0}, _FIELD_PRESETS),
        "control_shape": ({"kind": "dipole", "amplitude": 1.0}, _FIELD_PRESETS),
    },
    "initial_state": ({"kind": "lowest_modes"}, _STATE_PRESETS),
    "control": ({"kind": "zero"}, _CONTROL_PRESETS),
    "objective": {
        "j1": ("none", ("none", "trajectory")),
        "j2": ("none", ("none", "terminal")),
        "nu": (1.0, float, lambda v: v > 0, "the weight must be positive"),
        "target_state": (None, _STATE_PRESETS),
    },
    "seed": (1234, int, lambda v: v >= 0, "must be >= 0"),
    "output_dir": ("runs/out", str),
    "output": {"density_times": (None, [float])},
    "converge": {
        "mode_list": (
            None,
            [[int]],
            lambda v: len(v) >= 3,
            "need at least three nested mode counts",
        ),
    },
    "optimize": {"iterations": (20, int, lambda v: v >= 1, "must be >= 1")},
}

_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}

# a value of the wrong form is echoed to its top level only, with at most six items of at
# most about 40 characters each, so a value of any size or depth gives one short line
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 1


def _echo_key(key):
    """An unknown key as given when it is short and printable; else cut and escaped by
    _ECHO, so a key of any length or content gives one short line."""
    return key if key.isprintable() and len(key) <= _ECHO.maxstring else _ECHO.repr(key)


def _name(form):
    return f"a list, each {_name(form[0])}" if isinstance(form, list) else _NAMES[form]


def _has_form(value, form):
    if isinstance(form, list):
        return type(value) is list and all(_has_form(v, form[0]) for v in value)
    if form is float:
        # NaN, +-inf and integers beyond the float range fail the comparison
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is form


def _check(where, value, form, rule=None, message=None):
    """Raise a ConfigError under the key path where unless value has its form and rule."""
    if isinstance(form, dict):  # a preset: its kind, then each parameter it gives
        if not isinstance(value, dict) or "kind" not in value:
            raise ConfigError(f"{where}: expected an object with a 'kind' key")
        kind = value["kind"]
        if not isinstance(kind, str) or kind not in form:
            raise ConfigError(
                f"{where}.kind: unknown preset {_ECHO.repr(kind)}; choose from {sorted(form)}"
            )
        extra = value.keys() - form[kind].keys() - {"kind"}
        if extra:
            raise ConfigError(f"{where}.{_echo_key(min(extra))}: unknown key for preset {kind!r}")
        for key, param_form in form[kind].items():
            if key in value:
                _check(f"{where}.{key}", value[key], param_form)
    elif isinstance(form, tuple):
        if value not in form:
            raise ConfigError(f"{where}: must be {' or '.join(map(repr, form))}")
    elif form is np.ndarray:
        try:
            numbers = np.asarray(value)
        except ValueError:  # a ragged nesting
            raise ConfigError(f"{where}: expected numbers") from None
        # strings, booleans and mixed objects: numpy holds none of them as int or float
        if numbers.dtype.kind not in "iuf":
            raise ConfigError(f"{where}: expected numbers")
        # but it holds a boolean among numbers as 0 or 1, so the values are scanned for one
        if numbers.ndim:
            flat = value
            for _ in range(numbers.ndim - 1):
                flat = itertools.chain.from_iterable(flat)
            if bool in set(map(type, flat)):
                raise ConfigError(f"{where}: expected numbers")
        if not np.isfinite(numbers).all():
            raise ConfigError(f"{where}: values must be finite")
    elif not _has_form(value, form):
        raise ConfigError(f"{where}: expected {_name(form)}, got {_ECHO.repr(value)}")
    if rule is not None and not rule(value):
        raise ConfigError(f"{where}: {message}")


def _walk(where, schema, given):
    """Check a section against its schema and fill in, in place, the keys it
    leaves out; a list or object default is filled in as a fresh copy."""
    if given is None:
        given = {}
    elif not isinstance(given, dict):
        raise ConfigError(f"{where}: expected an object")
    prefix = f"{where}." if where else ""
    unknown = given.keys() - schema.keys()
    if unknown:
        raise ConfigError(f"{prefix}{_echo_key(min(unknown))}: unknown key")
    for key, entry in schema.items():
        if isinstance(entry, dict):
            given[key] = _walk(prefix + key, entry, given.get(key))
        elif key not in given:
            default = entry[0]
            given[key] = copy.deepcopy(default) if isinstance(default, (list, dict)) else default
        elif not (given[key] is None and entry[0] is None):
            _check(prefix + key, given[key], *entry[1:])
    return given


@contextmanager
def _under(prefix, *errors):
    """Re-raise the given errors as one ConfigError whose message starts with prefix."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{prefix}{exc}") from None


_FILE_ERRORS = (OSError, TypeError, ValueError)


def _load_numbers(where, path, kinds="iuf"):
    """The array in the .npy file at path; a ConfigError under the key path where
    unless its dtype kind is one of kinds (booleans are none of them)."""
    with _under(f"{where}: ", *_FILE_ERRORS):
        values = np.asarray(np.load(path))
    if values.dtype.kind not in kinds:
        raise ConfigError(f"{where}: expected numbers")
    return values


def parse_config(text):
    """Parse and validate a JSON config; returns the resolved dict, every default filled in."""
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config nests too deeply to read: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    config = _walk("", _SCHEMA, data)

    with _under("domain: ", DomainError):
        spec = DomainSpec(**config["domain"])
    with _under("basis.modes: ", DomainError):
        check_modes(spec, config["basis"]["modes"])
    if config["converge"]["mode_list"] is None:
        # per axis, 1/3, 2/3 and all of top = min(3m/2, grid/2) modes, rounded up; lowest_modes
        # fills the last axis first, so the first rung holds the particles that the second does
        top = [min(3 * m // 2, g // 2) for m, g in zip(config["basis"]["modes"], spec.grid)]
        ladder = [[-(-k * i // 3) for k in top] for i in (1, 2, 3)]
        ladder[0][-1] = max(ladder[0][-1], min(spec.particles, ladder[1][-1]))
        config["converge"]["mode_list"] = ladder
    with _under("converge.mode_list: ", DomainError):
        rungs = [check_modes(spec, entry) for entry in config["converge"]["mode_list"]]
    # the Y-norm increments pad each solve into the next basis
    if any(k > m for lo, hi in zip(rungs, rungs[1:]) for k, m in zip(lo, hi)):
        raise ConfigError("converge.mode_list: the mode counts per axis must not decrease")
    _potential_config(config["potentials"], spec.dimension)
    # the trajectory covers [0, T] only
    outside = [t for t in config["output"]["density_times"] or () if not 0.0 <= t <= spec.horizon]
    if outside:
        raise ConfigError(
            f"output.density_times: {outside[0]!r} is not a time in [0, {spec.horizon!r}]"
        )
    return config


def _potential_config(pot, dimension, **fields):
    """PotentialConfig of the potentials section, whose softening must suit the dimension;
    each rule's message starts with the name of its key."""
    constants = {k: v for k, v in pot.items() if k not in ("confinement", "control_shape")}
    with _under("potentials.", PotentialError):
        potentials = PotentialConfig(**constants, **fields)
        check_softening(dimension, potentials.coulomb_softening, potentials.include_hartree)
    return potentials


def emit_config(config):
    """Canonical JSON text of the config and of every JSON artifact; parse(emit(c)) == c."""
    return json.dumps(config, sort_keys=True, indent=2) + "\n"


def default_config():
    return parse_config("{}")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _build_instruments(config):
    """The basis, the potential config and, when the Hartree term is on, the Coulomb
    kernel, which depends on the grid only and so serves every basis on it."""
    basis = build_basis(DomainSpec(**config["domain"]), config["basis"]["modes"])
    fields = {}
    for name in ("confinement", "control_shape"):
        where = f"potentials.{name}"
        params = dict(config["potentials"][name])
        # an array preset's file is read only when no values are given inline
        path = params.pop("path", None)
        if path is not None and "values" not in params:
            params["values"] = _load_numbers(f"{where}.path", path)
        # a field that overflows is not finite, which PotentialConfig then refuses
        with _under(f"{where}: ", PotentialError), np.errstate(over="ignore", invalid="ignore"):
            fields[name] = sample_field(basis, params.pop("kind"), params)
    potentials = _potential_config(config["potentials"], basis.spec.dimension, **fields)
    kernel = None
    if potentials.include_hartree:
        kernel = build_coulomb_kernel(basis, potentials.coulomb_softening)
    return basis, potentials, kernel


def _forward_problem(basis, potentials, kernel, preset, control=None):
    """The forward context on the basis and the initial state of the state preset."""
    ctx = SystemContext(basis=basis, potentials=potentials, kernel=kernel, control=control)
    return ctx, _build_state(basis, preset)


def _build_state(basis, preset, where="initial_state"):
    """The (modes, particles) state of a state preset at the key path where."""
    kind = preset["kind"]
    n = basis.spec.particles
    if kind == "lowest_modes":
        d = np.zeros((basis.size, n), dtype=np.complex128)
        for j in range(n):
            if j >= basis.size:
                raise ConfigError(f"{where}: more particles than basis modes")
            d[j, j] = 1.0
        return d
    if kind == "coefficients":
        values = np.asarray(preset["values"], dtype=np.float64)
        if values.shape != (basis.size, n, 2):
            raise ConfigError(f"{where}.values: expected shape ({basis.size}, {n}, 2) [re, im]")
        return values[..., 0] + 1j * values[..., 1]
    if kind == "bump":
        powers = preset.get("powers", list(range(2, 2 + n)))
        if len(powers) != n:
            raise ConfigError(f"{where}.powers: need one power per particle")
        if min(powers) < 0:
            raise ConfigError(f"{where}.powers: must be >= 0")
        x = basis.nodes
        lengths = np.asarray(basis.spec.lengths)
        shape = np.ones(basis.node_count)
        for axis, l in enumerate(lengths):
            shape = shape * np.sin(np.pi * x[:, axis] / l)
        fields = np.stack([shape**p for p in powers], axis=1).astype(np.complex128)
        d = project(basis, fields)
        return d / np.sqrt((d.real**2 + d.imag**2).sum(axis=0))
    # the kind is "file"
    where = f"{where}.path"
    d = _load_numbers(where, preset["path"], "iufc").astype(np.complex128)
    if d.shape != (basis.size, n):
        raise ConfigError(f"{where}: expected shape ({basis.size}, {n})")
    if not np.all(np.isfinite(d)):
        raise ConfigError(f"{where}: values must be finite")
    return d


def _build_control(preset, horizon, steps):
    kind = preset["kind"]
    if kind == "zero":
        return zero_control(horizon, steps)
    if kind == "sine":
        amp = float(preset.get("amplitude", 1.0))
        cycles = float(preset.get("cycles", 1.0))
        t = np.linspace(0.0, horizon, steps + 1)
        # a phase that overflows gives non-finite samples, which the signal rejects
        with _under("control: ", SignalError), np.errstate(over="ignore", invalid="ignore"):
            return ControlSignal(
                samples=amp * np.sin(2.0 * np.pi * cycles * t / horizon), horizon=horizon
            )
    if kind == "samples":
        values, where = preset["values"], "control.values"
    else:  # the kind is "file", checked as inline values are
        where = "control.path"
        with _under(f"{where}: ", *_FILE_ERRORS, RecursionError):
            values = json.loads(Path(preset["path"]).read_text())
        _check(where, values, np.ndarray)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size != steps + 1:
        raise ConfigError(f"{where}: expected a flat list of {steps + 1} samples")
    with _under(f"{where}: ", SignalError):
        return ControlSignal(samples=values, horizon=horizon)


def _objective_from_config(config, basis, purpose):
    obj = config["objective"]
    if obj["j1"] == "none" and obj["j2"] == "none":
        raise ConfigError(f"objective: {purpose} needs a tracking objective (j1 or j2)")
    if obj["target_state"] is None:
        raise ConfigError("objective.target_state: tracking needs a target state")
    target = _build_state(basis, obj["target_state"], "objective.target_state")
    return ObjectiveSpec(
        **dict(obj, target_state=target),
        # CLI runs track the fixed target state, at every time for j1
        target_trajectory=lambda times: np.broadcast_to(target, (len(times),) + target.shape),
    )


# ---------------------------------------------------------------------------
# Artifact writers (deterministic bytes)
# ---------------------------------------------------------------------------


def _write_json(path, payload):
    Path(path).write_text(emit_config(payload))


def _reports_payload(reports):
    return [r.to_dict() for r in sorted(reports, key=lambda r: r.name)]


def _print_report_table(reports, quiet):
    if quiet:
        return
    width = max(len(r.name) for r in reports)
    for r in sorted(reports, key=lambda rr: rr.name):
        status = "PASS" if r.passed else "FAIL"
        gate = "asserted" if r.asserted else "monitored"
        print(
            f"{status}  {r.name:<{width}}  measured={r.measured:.6g}  "
            f"bound={r.bound:.6g}  tol={r.tolerance:g}  [{gate}]"
        )


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------


def _run_simulate(config, out, quiet, mode):
    """The forward solve, followed for mode "adjoint" by the backward solve."""
    basis, potentials, kernel = _build_instruments(config)
    steps = basis.spec.steps
    control = _build_control(config["control"], basis.spec.horizon, steps)
    fwd_ctx, psi0 = _forward_problem(basis, potentials, kernel, config["initial_state"], control)
    if mode == "adjoint":  # a bad objective or target file fails before any solve
        objective = _objective_from_config(config, basis, "the adjoint run")

    traj = solve_forward(fwd_ctx, psi0)
    if mode == "adjoint":
        terminal, source = adjoint_sources(objective, traj)
        adj_ctx = replace(traj.ctx, alpha=0, forward=traj, source=source)
        main = solve_adjoint(adj_ctx, terminal)
        traj.export_csv(out / "forward_trajectory.csv")
        traj.export_diagnostics_csv(out / "forward_diagnostics.csv")
    else:
        main = traj

    main.export_csv(out / "trajectory.csv")
    main.export_diagnostics_csv(out / "diagnostics.csv")
    density_times = config["output"]["density_times"]
    if density_times is None:
        density_times = [basis.spec.horizon]
    header = [f"x{i}" for i in range(basis.spec.dimension)] + ["weight", "rho"]
    rho = density_from_grid(synthesize(basis, main.state_at(np.array(density_times, float))))
    for i, rho_t in enumerate(rho):
        table = np.column_stack((basis.nodes, basis.weights, rho_t))
        write_csv(out / f"density_{i}.csv", header, map(np.ndarray.tolist, table))
    summary = {
        "mode": mode,
        "l2_initial": float(main.l2[0]),
        "l2_final": float(main.l2[-1]),
        "l2_envelope_measured": main.meta.get("l2_envelope_measured"),
        "l2_envelope_bound": main.meta.get("l2_envelope_bound"),
        "max_h1_sq": float(np.max(main.h1**2)),
        "constants": {k: float(v) for k, v in main.meta["constants"].items()},
    }
    _write_json(out / "summary.json", summary)
    if not quiet:
        drift = np.max(np.abs(main.l2**2 - main.l2[0] ** 2)) / max(main.l2[0] ** 2, 1e-300)
        print(f"{mode} solve: {steps} steps, max |l2^2 - l2(0)^2| / l2(0)^2 = {drift:.3e}")
    return 0


def run_verification_suite(config):
    """The default check suite on canonical desk-scale instances.

    Instances derive from the config's potential constants and seed; sizes
    are fixed so the suite stays fast and reproducible.
    """
    import numpy.random  # numpy 2 loads it on first use: here, outside every traced check

    seed = config["seed"]
    basis, potentials, kernel = _build_instruments(config)
    fwd_ctx, psi0 = _forward_problem(basis, potentials, kernel, config["initial_state"])
    # the Hartree pair bound belongs to the Coulomb kernel, so it is probed on the
    # grid's kernel also when the run's potential leaves the Hartree term out
    pair_kernel = kernel
    if pair_kernel is None:
        with _under("potentials.", PotentialError):
            pair_kernel = build_coulomb_kernel(basis, potentials.coulomb_softening)

    reports = []
    reports.extend(check_coulomb_lp(3, (2, 1), 1.0, 96))  # one walk of the ball's cells
    reports.append(check_coulomb_lp(3, 3, 1.0, 8))
    reports.append(check_hartree_lipschitz(basis, pair_kernel, pairs=50, seed=seed))

    traj = solve_forward(fwd_ctx, psi0)
    reports.extend(check_energy_estimates(traj, seed=seed))
    reports.extend(check_form_bounds(traj, t=0.0, count=100, seed=seed))

    # adjoint instance with a nonzero inhomogeneity from a tracking objective
    objective = ObjectiveSpec(
        j1="trajectory",
        j2="terminal",
        nu=1.0,
        target_state=np.zeros_like(psi0),
        target_trajectory=lambda times: np.zeros((len(times),) + psi0.shape, psi0.dtype),
    )
    terminal, source = adjoint_sources(objective, traj)
    adj_ctx = replace(traj.ctx, alpha=0, forward=traj, source=source)
    adj = solve_adjoint(adj_ctx, terminal)
    reports.extend(check_energy_estimates(adj, seed=seed))
    reports.extend(check_form_bounds(adj, t=0.5 * basis.spec.horizon, count=100, seed=seed))

    reports.extend(check_uniqueness_gronwall(traj, [1e-2, 1e-3, 1e-4], seed=seed))

    # every rung starts from lowest_modes under zero control, so with a lowest_modes start
    # the rung of the basis's own mode counts is the base solve: same context, same start
    solve = _galerkin_solver(basis, potentials, kernel, {"kind": "lowest_modes"})
    reused = None
    if config["initial_state"]["kind"] == "lowest_modes":
        reused = tuple(config["basis"]["modes"])

    def solve_rung(modes):
        return traj if modes == reused else solve(modes)

    reports.append(check_galerkin_convergence(solve_rung, config["converge"]["mode_list"]))
    reports.append(check_potential_continuity(basis, potentials, kernel, seed=seed))
    reports.extend(check_coefficient_lipschitz(fwd_ctx, radius=1.0, pairs=100, seed=seed))
    return reports


def _run_verify(config, out, quiet):
    reports = run_verification_suite(config)
    _write_json(out / "reports.json", _reports_payload(reports))
    _print_report_table(reports, quiet)
    failed = [r for r in reports if r.asserted and not r.passed]
    if failed and not quiet:
        print(f"{len(failed)} asserted check(s) failed")
    return 1 if failed else 0


def _galerkin_solver(basis, potentials, kernel, preset):
    """solve(modes) -> the zero-control forward solve on the rung of those modes;
    every rung shares the grid of basis, so it shares the one Coulomb kernel.  A
    lowest_modes or bump state is built on each rung; a coefficients or file state
    belongs to basis, so it is built there once and carried to each rung."""
    given = None
    if preset["kind"] in ("coefficients", "file"):
        given = _build_state(basis, preset)

    def solve(modes):
        rung = build_basis(basis.spec, modes)
        if given is None:
            return solve_forward(*_forward_problem(rung, potentials, kernel, preset))
        ctx = SystemContext(basis=rung, potentials=potentials, kernel=kernel)
        return solve_forward(ctx, carry_modes(given, basis, rung))

    return solve


def _run_converge(config, out, quiet):
    basis, potentials, kernel = _build_instruments(config)
    solve_rung = _galerkin_solver(basis, potentials, kernel, config["initial_state"])
    report = check_galerkin_convergence(solve_rung, config["converge"]["mode_list"])
    _write_json(out / "reports.json", _reports_payload([report]))
    _print_report_table([report], quiet)
    return 0 if report.passed else 1


def _run_optimize(config, out, quiet):
    basis, potentials, kernel = _build_instruments(config)
    steps = basis.spec.steps
    control = _build_control(config["control"], basis.spec.horizon, steps)
    objective = _objective_from_config(config, basis, "optimisation")
    ctx, psi0 = _forward_problem(basis, potentials, kernel, config["initial_state"], control)
    u_star, history = optimize(
        objective, ctx, control, psi0, iters=config["optimize"]["iterations"]
    )
    write_csv(
        out / "optimize_history.csv",
        ["iteration", "objective", "grad_h1_norm", "step"],
        [[i, *map(float, row)] for i, row in enumerate(history)],
    )
    _write_json(
        out / "control_optimized.json",
        {"horizon": basis.spec.horizon, "samples": [float(v) for v in u_star.samples]},
    )
    if not quiet:
        print(
            f"optimize: J {history[0][0]:.6g} -> {history[-1][0]:.6g} "
            f"in {len(history)} iterations"
        )
    return 0


_SUBCOMMANDS = {
    "simulate": partial(_run_simulate, mode="forward"),
    "adjoint": partial(_run_simulate, mode="adjoint"),
    "verify": _run_verify,
    "converge": _run_converge,
    "optimize": _run_optimize,
}


def run(config, subcommand, out_dir, quiet=False):
    """Validate, execute, and write artifacts; returns the exit status."""
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    status = _SUBCOMMANDS[subcommand](config, out, quiet)
    _write_json(out / "config.echo.json", config)
    return status


def main(argv=None):
    """The tdks command line; returns the exit status.  Any ``TdksError`` or
    ``OSError`` ends the run in one ``error:`` line on stderr and status 1."""
    parser = argparse.ArgumentParser(
        prog="tdks",
        description="Spectral-Galerkin simulator and verification harness for "
        "coupled nonlinear Schrodinger systems with control",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config path")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text() if args.config else "{}"
        config = parse_config(text)
        if args.seed is not None:
            _check("--seed", args.seed, *_SCHEMA["seed"][1:])
            config["seed"] = args.seed
        out_dir = args.out if args.out else Path(config["output_dir"]) / args.subcommand
        return run(config, args.subcommand, out_dir, quiet=args.quiet)
    except (TdksError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
