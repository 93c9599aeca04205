"""Configuration parsing, run orchestration, and deterministic artifacts.

The configuration is a single JSON object; every key has a default, unknown
keys are rejected with their path, and physics constraints are reported
with the offending key.  Artifacts are reproducible byte for byte from
(config, seed): floats are written with shortest-roundtrip repr, JSON with
sorted keys, and no timestamps or wall-clock data enter any file.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .control import ControlError, LineSearchError, ObjectiveSpec, adjoint_sources, optimize
from .domain import DomainError, DomainSpec, build_basis, project, synthesize
from .potentials import (
    PotentialConfig,
    PotentialError,
    build_coulomb_kernel,
    density_from_grid,
    sample_field,
)
from .propagate import (
    PropagationError,
    adjoint_context,
    forward_context,
    solve_adjoint,
    solve_forward,
    write_csv,
)
from .signals import ControlSignal, SignalError
from .system import SystemError as SystemContextError
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


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "domain": {
        "dimension": 1,
        "lengths": [3.0],
        "grid": [32],
        "particles": 1,
        "horizon": 1.0,
        "steps": 400,
    },
    "basis": {"modes": [8]},
    "potentials": {
        "exchange_c": -((3.0 / np.pi) ** (1.0 / 3.0)),
        "exchange_beta": 1.0 / 3.0,
        "correlation_a": 0.44,
        "correlation_b": 7.8,
        "coulomb_softening": 0.1,
        "include_hartree": True,
        "include_exchange": True,
        "include_correlation": True,
        "confinement": {"kind": "harmonic", "amplitude": 1.0},
        "control_shape": {"kind": "dipole", "amplitude": 1.0},
    },
    "integrator": {"fixed_point_tol": 1e-10, "fixed_point_max_iter": 50},
    "initial_state": {"kind": "lowest_modes"},
    "control": {"kind": "zero"},
    "objective": {
        "j1": "none",
        "j2": "none",
        "nu": 1.0,
        "target_state": None,
    },
    "mode": "forward",
    "seed": 1234,
    "output_dir": "runs/out",
    "output": {"density_times": None},
    "converge": {"mode_list": [[4], [8], [12]]},
    "optimize": {"iterations": 20, "step_initial": 1.0, "grad_tol": 1e-10},
}

_FIELD_PRESET_KEYS = {
    "zero": set(),
    "harmonic": {"amplitude"},
    "well": {"depth", "width_fraction"},
    "dipole": {"amplitude"},
    "array": {"values", "path"},
}

_STATE_PRESET_KEYS = {
    "lowest_modes": set(),
    "coefficients": {"values"},
    "bump": {"powers"},
    "file": {"path"},
}

_CONTROL_PRESET_KEYS = {
    "zero": set(),
    "samples": {"values"},
    "sine": {"amplitude", "cycles"},
    "file": {"path"},
}

_LIST_PRESET_KEYS = {"values", "powers"}  # every other numeric preset parameter is a scalar


def _merge_section(path, defaults, given):
    if given is None:
        given = {}
    if not isinstance(given, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}: unknown key")
    out = {}
    for key, default in defaults.items():
        out[key] = given.get(key, default)
        # a key whose default is a number, a boolean or a list of them takes only that
        # form; checked here, before anything converts or allocates with the value
        if not _has_form(out[key], default):
            raise ConfigError(f"{path}.{key}: expected the type of {default!r}, got {out[key]!r}")
    return out


# the JSON types a value may have, by the type of its default (an integer is a
# number); a default of any other type takes any value
_FORMS = {bool: (bool,), int: (int,), float: (int, float)}


def _has_form(value, like):
    """Whether value has the form of like: its JSON type, or a list of values in
    the form of like[0]."""
    if isinstance(like, list):
        return isinstance(value, list) and all(_has_form(v, like[0]) for v in value)
    return type(value) in _FORMS.get(type(like), (type(value),))


def _check_preset(path, value, allowed):
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(f"{path}: expected an object with a 'kind' key")
    kind = value["kind"]
    if kind not in allowed:
        raise ConfigError(f"{path}.kind: unknown preset {kind!r}; choose from {sorted(allowed)}")
    extra = set(value) - {"kind"} - allowed[kind]
    if extra:
        raise ConfigError(f"{path}.{sorted(extra)[0]}: unknown key for preset {kind!r}")
    # every parameter but a file path is finite numbers, converted here before any run;
    # only the list parameters may hold more than one
    for key in sorted(set(value) - {"kind", "path"}):
        try:
            numbers = np.asarray(value[key], dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigError(f"{path}.{key}: expected numbers") from None
        if numbers.ndim and key not in _LIST_PRESET_KEYS:
            raise ConfigError(f"{path}.{key}: expected a number, not a list")
        if not np.all(np.isfinite(numbers)):
            raise ConfigError(f"{path}.{key}: values must be finite")
    return dict(value)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated run configuration; ``raw`` is the fully resolved JSON dict."""

    raw: dict = field(repr=False)

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.raw == other.raw

    @property
    def seed(self):
        return int(self.raw["seed"])


def parse_config(text):
    """Parse and validate a JSON config, filling all defaults explicitly."""
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown key")

    raw = {}
    preset_sections = {"control", "initial_state"}  # taken wholesale, keys vary by kind
    for section, defaults in _DEFAULTS.items():
        if section in preset_sections:
            raw[section] = data.get(section, defaults)
        elif isinstance(defaults, dict):
            raw[section] = _merge_section(section, defaults, data.get(section))
        else:
            raw[section] = data.get(section, defaults)

    dom = raw["domain"]
    spec = _domain_spec(dom)

    modes = raw["basis"]["modes"]
    if len(modes) != spec.dimension:
        raise ConfigError("basis.modes: need one mode count per dimension")
    for k, m in zip(modes, spec.grid):
        if int(k) > m // 2:
            raise ConfigError(
                f"basis.modes: {k} modes exceed the resolvable limit {m // 2} for {m} grid cells"
            )

    pot = raw["potentials"]
    if not (pot["exchange_c"] < 0):
        raise ConfigError(
            "potentials.exchange_c: the exchange prefactor must be a negative constant"
        )
    if not (0.0 < pot["exchange_beta"] < 1.0):
        raise ConfigError("potentials.exchange_beta: exponent must lie strictly in (0, 1)")
    if not (pot["correlation_a"] > 0 and pot["correlation_b"] > 0):
        raise ConfigError("potentials.correlation_a/b: Wigner parameters must be positive")
    if pot["coulomb_softening"] < 0:
        raise ConfigError("potentials.coulomb_softening: must be >= 0")
    if spec.dimension == 1 and pot["include_hartree"] and pot["coulomb_softening"] <= 0:
        raise ConfigError(
            "potentials.coulomb_softening: the 1-d Coulomb kernel is not integrable; "
            "set a positive softening"
        )
    if spec.dimension >= 2 and pot["coulomb_softening"] != 0:
        raise ConfigError(
            "potentials.coulomb_softening: the exact kernel is used for n >= 2; set 0"
        )
    _check_preset("potentials.confinement", pot["confinement"], _FIELD_PRESET_KEYS)
    _check_preset("potentials.control_shape", pot["control_shape"], _FIELD_PRESET_KEYS)

    integ = raw["integrator"]
    if not (integ["fixed_point_tol"] > 0):
        raise ConfigError("integrator.fixed_point_tol: must be positive")
    if integ["fixed_point_max_iter"] < 1:
        raise ConfigError("integrator.fixed_point_max_iter: must be >= 1")

    _check_preset("initial_state", raw["initial_state"], _STATE_PRESET_KEYS)
    _check_preset("control", raw["control"], _CONTROL_PRESET_KEYS)

    obj = raw["objective"]
    if obj["j1"] not in ("none", "trajectory"):
        raise ConfigError("objective.j1: must be 'none' or 'trajectory'")
    if obj["j2"] not in ("none", "terminal"):
        raise ConfigError("objective.j2: must be 'none' or 'terminal'")
    if not (obj["nu"] > 0):
        raise ConfigError("objective.nu: the weight must be positive")
    if obj["target_state"] is not None:
        _check_preset("objective.target_state", obj["target_state"], _STATE_PRESET_KEYS)

    if raw["mode"] not in ("forward", "adjoint"):
        raise ConfigError("mode: must be 'forward' or 'adjoint'")
    if not _has_form(raw["seed"], 0):
        raise ConfigError(f"seed: expected an integer, got {raw['seed']!r}")
    times = raw["output"]["density_times"]
    if times is not None and not _has_form(times, [0.0]):
        raise ConfigError(f"output.density_times: expected a list of numbers, got {times!r}")
    ml = raw["converge"]["mode_list"]
    if len(ml) < 3:
        raise ConfigError("converge.mode_list: need at least three nested mode counts")

    return RunConfig(raw=_canonical(raw))


def _domain_spec(dom):
    try:
        return DomainSpec(
            dimension=dom["dimension"],
            lengths=tuple(dom["lengths"]),
            grid=tuple(dom["grid"]),
            particles=dom["particles"],
            horizon=dom["horizon"],
            steps=dom["steps"],
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"domain: {exc}") from exc


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(obj[k]) for k in obj}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def emit_config(config):
    """Canonical JSON text of the resolved config; parse(emit(c)) == c."""
    return json.dumps(config.raw, sort_keys=True, indent=2) + "\n"


def default_config():
    return parse_config("{}")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def _build_instruments(config):
    raw = config.raw
    basis = build_basis(_domain_spec(raw["domain"]), tuple(raw["basis"]["modes"]))
    pot = raw["potentials"]
    v0_spec = dict(pot["confinement"])
    vu_spec = dict(pot["control_shape"])
    v0 = sample_field(basis, v0_spec.pop("kind"), v0_spec)
    vu = sample_field(basis, vu_spec.pop("kind"), vu_spec)
    potentials = PotentialConfig(
        exchange_c=pot["exchange_c"],
        exchange_beta=pot["exchange_beta"],
        correlation_a=pot["correlation_a"],
        correlation_b=pot["correlation_b"],
        coulomb_softening=pot["coulomb_softening"],
        include_hartree=pot["include_hartree"],
        include_exchange=pot["include_exchange"],
        include_correlation=pot["include_correlation"],
        confinement=v0,
        control_shape=vu,
    )
    return basis, potentials


def _coulomb_kernel(basis, potentials):
    """The Coulomb kernel of the basis grid, or None without the Hartree term."""
    if not potentials.include_hartree:
        return None
    return build_coulomb_kernel(basis, potentials.coulomb_softening)


def _build_state(basis, preset):
    kind = preset["kind"]
    n = basis.spec.particles
    if kind == "lowest_modes":
        d = np.zeros((basis.size, n), dtype=np.complex128)
        for j in range(n):
            if j >= basis.size:
                raise ConfigError("initial_state: more particles than basis modes")
            d[j, j] = 1.0
        return d
    if kind == "coefficients":
        values = np.asarray(preset["values"], dtype=np.float64)
        if values.shape != (basis.size, n, 2):
            raise ConfigError(
                f"initial_state.values: expected shape ({basis.size}, {n}, 2) [re, im]"
            )
        return values[..., 0] + 1j * values[..., 1]
    if kind == "bump":
        powers = preset.get("powers") or list(range(2, 2 + n))
        if not _has_form(powers, [0]):
            raise ConfigError(f"initial_state.powers: expected integers, got {powers!r}")
        if len(powers) != n:
            raise ConfigError("initial_state.powers: need one power per particle")
        x = basis.nodes
        lengths = np.asarray(basis.spec.lengths)
        shape = np.ones(basis.node_count)
        for axis, l in enumerate(lengths):
            shape = shape * np.sin(np.pi * x[:, axis] / l)
        fields = np.stack([shape**p for p in powers], axis=1).astype(np.complex128)
        d = project(basis, fields)
        nrm = np.sqrt((d.real**2 + d.imag**2).sum())
        return d / nrm
    if kind == "file":
        d = np.asarray(np.load(preset["path"]), dtype=np.complex128)
        if d.shape != (basis.size, n):
            raise ConfigError(f"initial_state.file: expected shape ({basis.size}, {n})")
        return d
    raise ConfigError(f"initial_state.kind: unknown preset {kind!r}")


def _build_control(preset, horizon, steps):
    kind = preset["kind"]
    if kind == "zero":
        return ControlSignal(samples=np.zeros(steps + 1), horizon=horizon)
    if kind == "samples":
        values = np.asarray(preset["values"], dtype=np.float64)
        if values.size != steps + 1:
            raise ConfigError(f"control.values: expected {steps + 1} samples")
        return ControlSignal(samples=values, horizon=horizon)
    if kind == "sine":
        amp = float(preset.get("amplitude", 1.0))
        cycles = float(preset.get("cycles", 1.0))
        t = np.linspace(0.0, horizon, steps + 1)
        return ControlSignal(
            samples=amp * np.sin(2.0 * np.pi * cycles * t / horizon), horizon=horizon
        )
    if kind == "file":
        values = np.asarray(json.loads(Path(preset["path"]).read_text()), dtype=np.float64)
        if values.size != steps + 1:
            raise ConfigError(f"control.file: expected {steps + 1} samples")
        return ControlSignal(samples=values, horizon=horizon)
    raise ConfigError(f"control.kind: unknown preset {kind!r}")


def _objective_from_config(config, basis, purpose):
    obj = config.raw["objective"]
    if obj["j1"] == "none" and obj["j2"] == "none":
        raise ConfigError(f"objective: {purpose} needs a tracking objective (j1 or j2)")
    target = None
    if obj["target_state"] is not None:
        target = _build_state(basis, obj["target_state"])
    return ObjectiveSpec(
        j1=obj["j1"],
        j2=obj["j2"],
        nu=obj["nu"],
        target_state=target,
        # CLI runs track the fixed target state, at every time for j1
        target_trajectory=None if target is None else lambda t: target,
    )


# ---------------------------------------------------------------------------
# Artifact writers (deterministic bytes)
# ---------------------------------------------------------------------------


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


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


def _run_simulate(config, out, quiet):
    basis, potentials = _build_instruments(config)
    kernel = _coulomb_kernel(basis, potentials)
    steps = basis.spec.steps
    control = _build_control(config.raw["control"], basis.spec.horizon, steps)
    psi0 = _build_state(basis, config.raw["initial_state"])
    tol = config.raw["integrator"]["fixed_point_tol"]
    max_iter = config.raw["integrator"]["fixed_point_max_iter"]

    fwd_ctx = forward_context(basis, potentials, kernel=kernel, control=control)
    traj = solve_forward(fwd_ctx, psi0)
    mode = config.raw["mode"]
    if mode == "adjoint":
        objective = _objective_from_config(config, basis, "the adjoint run")
        terminal, source = adjoint_sources(objective, traj)
        adj_ctx = adjoint_context(
            basis, potentials, forward=traj, kernel=kernel, control=control, source=source
        )
        main = solve_adjoint(
            adj_ctx, terminal, fixed_point_tol=tol, fixed_point_max_iter=max_iter
        )
        traj.export_csv(out / "forward_trajectory.csv")
        traj.export_diagnostics_csv(out / "forward_diagnostics.csv")
    else:
        main = traj

    main.export_csv(out / "trajectory.csv")
    main.export_diagnostics_csv(out / "diagnostics.csv")
    density_times = config.raw["output"]["density_times"]
    if density_times is None:
        density_times = [basis.spec.horizon]
    header = [f"x{i}" for i in range(basis.spec.dimension)] + ["weight", "rho"]
    for i, t in enumerate(density_times):
        rho = density_from_grid(synthesize(basis, main.state_at(float(t))))
        table = np.column_stack((basis.nodes, basis.weights, rho))
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
    seed = config.seed
    basis, potentials = _build_instruments(config)
    kernel = _coulomb_kernel(basis, potentials)
    psi0 = _build_state(basis, config.raw["initial_state"])

    reports = []
    reports.append(check_coulomb_lp(3, 2, 1.0, 96))
    reports.append(check_coulomb_lp(3, 1, 1.0, 96))
    reports.append(check_coulomb_lp(3, 3, 1.0, 8))
    reports.append(
        check_hartree_lipschitz(basis, kernel, basis.spec.particles, pairs=50, seed=seed)
    )

    fwd_ctx = forward_context(basis, potentials, kernel=kernel)
    traj = solve_forward(fwd_ctx, psi0)
    reports.extend(check_energy_estimates(traj, fwd_ctx, seed=seed))
    reports.extend(check_form_bounds(fwd_ctx, t=0.0, count=100, seed=seed))

    # adjoint instance with a nonzero inhomogeneity from a tracking objective
    objective = ObjectiveSpec(
        j1="trajectory",
        j2="terminal",
        nu=1.0,
        target_state=np.zeros_like(psi0),
        target_trajectory=lambda t: np.zeros_like(psi0),
    )
    terminal, source = adjoint_sources(objective, traj)
    adj_ctx = adjoint_context(
        basis, potentials, forward=traj, kernel=kernel, source=source
    )
    adj = solve_adjoint(adj_ctx, terminal)
    reports.extend(check_energy_estimates(adj, adj_ctx, seed=seed))
    reports.extend(check_form_bounds(adj_ctx, t=0.5 * basis.spec.horizon, count=100, seed=seed))

    reports.extend(
        check_uniqueness_gronwall(
            fwd_ctx, traj, [1e-2, 1e-3, 1e-4], seed=seed, halving_eps=1e-3
        )
    )

    builder = _galerkin_builder(basis.spec, potentials, {"kind": "lowest_modes"})
    reports.append(
        check_galerkin_convergence(builder, config.raw["converge"]["mode_list"])
    )
    reports.append(
        check_potential_continuity(
            basis, potentials, kernel, seed=seed, particles=basis.spec.particles
        )
    )
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


def _galerkin_builder(spec, potentials, preset):
    """builder(modes) -> (forward context, initial state from preset) on that basis."""

    def builder(modes):
        basis = build_basis(spec, modes)
        ctx = forward_context(basis, potentials, kernel=_coulomb_kernel(basis, potentials))
        return ctx, _build_state(basis, preset)

    return builder


def _run_converge(config, out, quiet):
    basis, potentials = _build_instruments(config)
    builder = _galerkin_builder(basis.spec, potentials, config.raw["initial_state"])
    report = check_galerkin_convergence(builder, config.raw["converge"]["mode_list"])
    _write_json(out / "reports.json", _reports_payload([report]))
    _print_report_table([report], quiet)
    return 0 if report.passed else 1


def _run_optimize(config, out, quiet):
    basis, potentials = _build_instruments(config)
    kernel = _coulomb_kernel(basis, potentials)
    steps = basis.spec.steps
    control = _build_control(config.raw["control"], basis.spec.horizon, steps)
    objective = _objective_from_config(config, basis, "optimisation")
    psi0 = _build_state(basis, config.raw["initial_state"])
    ctx = forward_context(basis, potentials, kernel=kernel, control=control)
    opts = config.raw["optimize"]
    u_star, history = optimize(
        objective,
        ctx,
        control,
        psi0,
        iters=opts["iterations"],
        step_rule={"initial": opts["step_initial"], "grad_tol": opts["grad_tol"]},
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
    "simulate": _run_simulate,
    "adjoint": _run_simulate,
    "verify": _run_verify,
    "converge": _run_converge,
    "optimize": _run_optimize,
}


# failures reported as one "error:" line and exit status 1 instead of a traceback
_RUN_ERRORS = (
    ConfigError,
    OSError,
    PropagationError,
    ControlError,
    LineSearchError,
    SystemContextError,
    DomainError,
    PotentialError,
    SignalError,
)


def run(config, subcommand, out_dir, quiet=False):
    """Validate, execute, and write artifacts; returns the exit status."""
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if subcommand == "adjoint":
        config = RunConfig(raw={**config.raw, "mode": "adjoint"})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    status = _SUBCOMMANDS[subcommand](config, out, quiet)
    (out / "config.echo.json").write_text(emit_config(config))
    return status


def main(argv=None):
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
            config = RunConfig(raw={**config.raw, "seed": int(args.seed)})
        out_dir = args.out if args.out else Path(config.raw["output_dir"]) / args.subcommand
        return run(config, args.subcommand, out_dir, quiet=args.quiet)
    except _RUN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
