import json

import numpy as np
import pytest

from tdks.cli import ConfigError, emit_config, main, parse_config, run


def test_minimal_config_gets_defaults():
    cfg = parse_config("{}")
    assert cfg.raw["domain"]["dimension"] == 1
    assert cfg.raw["potentials"]["exchange_beta"] == pytest.approx(1.0 / 3.0)
    assert cfg.raw["seed"] == 1234
    # every default is recorded explicitly in the echo
    echoed = json.loads(emit_config(cfg))
    assert echoed == cfg.raw


def test_config_round_trip():
    cfg = parse_config('{"domain": {"steps": 123}, "seed": 7}')
    again = parse_config(emit_config(cfg))
    assert again == cfg
    assert again.raw["domain"]["steps"] == 123


def test_preset_sections_accept_kind_parameters():
    cfg = parse_config(
        json.dumps(
            {
                "control": {"kind": "sine", "amplitude": 0.3, "cycles": 2},
                "initial_state": {"kind": "bump", "powers": [3]},
                "potentials": {
                    "confinement": {"kind": "well", "depth": -2.0, "width_fraction": 0.6}
                },
            }
        )
    )
    assert cfg.raw["control"]["amplitude"] == 0.3
    assert parse_config(emit_config(cfg)) == cfg
    with pytest.raises(ConfigError, match="control"):
        parse_config('{"control": {"kind": "sine", "wavelength": 2}}')


def test_positive_exchange_constant_rejected():
    with pytest.raises(ConfigError, match="negative constant"):
        parse_config('{"potentials": {"exchange_c": 1.0}}')


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('{"potentials": {"exchange_beta": 1.5}}', "exchange_beta"),
        ('{"objective": {"nu": 0.0}}', "nu"),
        ('{"objective": {"nu": -2.0}}', "nu"),
        ('{"potentials": {"correlation_a": -1.0}}', "correlation"),
        ('{"bogus": 1}', "bogus"),
        ('{"domain": {"bogus": 1}}', "domain.bogus"),
        ('{"domain": {"grid": [7]}}', "domain"),
        ('{"basis": {"modes": [99]}}', "basis.modes"),
        ('{"potentials": {"coulomb_softening": 0.0}}', "coulomb_softening"),
        ('{"control": {"kind": "wavelet"}}', "control.kind"),
        ("{not json", "JSON"),
        ('{"basis": {"modes": ["x"]}}', "basis.modes"),
        ('{"domain": {"steps": 2.5}}', "domain.steps"),
        ('{"domain": {"grid": [32.5]}}', "domain.grid"),
        ('{"domain": {"grid": 32}}', "domain.grid"),
        ('{"domain": {"dimension": 1.0}}', "domain.dimension"),
        ('{"domain": {"particles": true}}', "domain.particles"),
        ('{"integrator": {"fixed_point_max_iter": 2.5}}', "integrator.fixed_point_max_iter"),
        ('{"optimize": {"iterations": "5"}}', "optimize.iterations"),
        ('{"converge": {"mode_list": [[4], [8.5], [12]]}}', "converge.mode_list"),
        ('{"seed": true}', "seed"),
        ('{"seed": 1.5}', "seed"),
    ],
)
def test_config_violations_name_the_key(text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(text)


def _fast_config(**over):
    base = {
        "domain": {"lengths": [3.0], "grid": [16], "horizon": 0.5, "steps": 50},
        "basis": {"modes": [4]},
        "seed": 11,
    }
    base.update(over)
    return parse_config(json.dumps(base))


def test_simulate_writes_artifacts(tmp_path):
    cfg = _fast_config()
    status = run(cfg, "simulate", tmp_path / "out", quiet=True)
    assert status == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert {
        "config.echo.json",
        "trajectory.csv",
        "diagnostics.csv",
        "density_0.csv",
        "summary.json",
    } <= names
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["l2_envelope_measured"] <= summary["l2_envelope_bound"]


def test_simulate_free_config_conserves_l2_column(tmp_path):
    cfg = _fast_config(
        potentials={
            "include_hartree": False,
            "include_exchange": False,
            "include_correlation": False,
            "confinement": {"kind": "zero"},
            "control_shape": {"kind": "zero"},
        }
    )
    run(cfg, "simulate", tmp_path / "out", quiet=True)
    rows = (tmp_path / "out" / "diagnostics.csv").read_text().strip().splitlines()[1:]
    l2 = np.array([float(r.split(",")[1]) for r in rows])
    assert np.abs(l2 - l2[0]).max() < 1e-9


def test_adjoint_subcommand(tmp_path):
    cfg = _fast_config(
        objective={"j2": "terminal", "target_state": {"kind": "lowest_modes"}}
    )
    status = run(cfg, "adjoint", tmp_path / "out", quiet=True)
    assert status == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert "forward_trajectory.csv" in names and "trajectory.csv" in names


@pytest.mark.parametrize(
    "subcommand,artifacts",
    [
        ("adjoint", {"forward_trajectory.csv", "trajectory.csv", "summary.json"}),
        ("optimize", {"optimize_history.csv", "control_optimized.json"}),
    ],
)
def test_trajectory_tracking_runs_from_the_cli(tmp_path, subcommand, artifacts):
    # j1 tracks the configured target state at every time
    cfg = _fast_config(
        objective={"j1": "trajectory", "target_state": {"kind": "lowest_modes"}},
        optimize={"iterations": 2},
    )
    status = run(cfg, subcommand, tmp_path / "out", quiet=True)
    assert status == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert artifacts | {"config.echo.json"} <= names


def test_adjoint_requires_objective(tmp_path):
    with pytest.raises(ConfigError, match="objective"):
        run(_fast_config(), "adjoint", tmp_path / "out", quiet=True)


def test_corrupt_config_exits_nonzero_without_artifacts(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"potentials": {"exchange_c": 2.0}}')
    out = tmp_path / "never"
    status = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    assert not out.exists()


def test_non_integer_count_is_one_error_line_and_no_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "fractional.json"
    cfg_path.write_text('{"domain": {"steps": 2.5}}')
    out = tmp_path / "out"
    out.mkdir()
    status = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: domain.steps")
    assert list(out.iterdir()) == []


NAN = float("nan")


@pytest.mark.parametrize(
    "config,key",
    [
        ({"potentials": {"exchange_c": "x"}}, "potentials.exchange_c"),
        ({"objective": {"nu": "x"}}, "objective.nu"),
        ({"integrator": {"fixed_point_tol": "x"}}, "integrator.fixed_point_tol"),
        (
            {"control": {"kind": "samples", "values": ["x", 0]}, "domain": {"steps": 1}},
            "control.values",
        ),
        ({"initial_state": {"kind": "coefficients", "values": "abc"}}, "initial_state.values"),
        ({"output": {"density_times": ["x"]}}, "output.density_times"),
        (
            {"control": {"kind": "samples", "values": [NAN, 0]}, "domain": {"steps": 1}},
            "control.values",
        ),
        ({"control": {"kind": "sine", "amplitude": NAN}}, "control.amplitude"),
        ({"initial_state": {"kind": "bump", "powers": [1.5]}}, "initial_state.powers"),
        ({"potentials": {"include_hartree": "false"}}, "potentials.include_hartree"),
        (
            {"potentials": {"confinement": {"kind": "harmonic", "amplitude": [1, 2]}}},
            "potentials.confinement.amplitude",
        ),
        (
            {"potentials": {"control_shape": {"kind": "dipole", "amplitude": [1.0]}}},
            "potentials.control_shape.amplitude",
        ),
        (
            {"potentials": {"confinement": {"kind": "well", "depth": [1, 2]}}},
            "potentials.confinement.depth",
        ),
        (
            {"potentials": {"confinement": {"kind": "well", "width_fraction": [0.5]}}},
            "potentials.confinement.width_fraction",
        ),
        ({"control": {"kind": "sine", "amplitude": [1, 2]}}, "control.amplitude"),
        ({"control": {"kind": "sine", "cycles": [1, 2]}}, "control.cycles"),
        ({"output": {"density_times": [5.0, -2.0]}}, "output.density_times"),
        ({"output": {"density_times": [0.5, -0.25]}}, "output.density_times"),
        ({"output": {"density_times": [NAN]}}, "output.density_times"),
        ({"output": {"density_times": [float("inf")]}}, "output.density_times"),
    ],
)
def test_bad_config_value_is_one_error_line_naming_the_key(tmp_path, capsys, config, key):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    status = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}")
    assert list(out.iterdir()) == []


def test_solver_failure_exits_nonzero_without_artifacts(tmp_path, capsys):
    # one fixed-point sweep per step cannot converge: the adjoint solve fails
    cfg_path = tmp_path / "starved.json"
    cfg_path.write_text(
        json.dumps(
            {
                "domain": {"lengths": [3.0], "grid": [16], "particles": 2, "steps": 40},
                "basis": {"modes": [4]},
                "objective": {"j2": "terminal", "target_state": {"kind": "lowest_modes"}},
                "integrator": {"fixed_point_max_iter": 1},
            }
        )
    )
    out = tmp_path / "out"
    status = main(["adjoint", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: fixed-point iteration")
    assert list(out.iterdir()) == []


def test_converge_subcommand(tmp_path):
    cfg = _fast_config(
        domain={"lengths": [3.0], "grid": [32], "horizon": 0.5, "steps": 150},
        basis={"modes": [4]},
        converge={"mode_list": [[4], [8], [12]]},
    )
    status = run(cfg, "converge", tmp_path / "out", quiet=True)
    assert status == 0
    reports = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert reports[0]["name"] == "galerkin-convergence" and reports[0]["passed"]


def test_optimize_subcommand(tmp_path):
    cfg = _fast_config(
        objective={
            "j2": "terminal",
            "nu": 0.001,
            "target_state": {
                "kind": "coefficients",
                "values": [[[0.8, 0.0]], [[0.6, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]],
            },
        },
        potentials={"control_shape": {"kind": "dipole", "amplitude": 1.0}},
        optimize={"iterations": 3, "step_initial": 1.0, "grad_tol": 1e-12},
    )
    status = run(cfg, "optimize", tmp_path / "out", quiet=True)
    assert status == 0
    hist = (tmp_path / "out" / "optimize_history.csv").read_text().strip().splitlines()
    assert hist[0] == "iteration,objective,grad_h1_norm,step"
    j = [float(r.split(",")[1]) for r in hist[1:]]
    assert j[-1] <= j[0]
    control = json.loads((tmp_path / "out" / "control_optimized.json").read_text())
    assert len(control["samples"]) == 51


def test_simulate_deterministic_artifacts(tmp_path):
    cfg = _fast_config()
    run(cfg, "simulate", tmp_path / "a", quiet=True)
    run(cfg, "simulate", tmp_path / "b", quiet=True)
    for name in ("trajectory.csv", "diagnostics.csv", "summary.json", "config.echo.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_main_entry_verify_smoke(tmp_path):
    # tiny smoke of CLI wiring; the full default suite runs in the acceptance tests
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"domain": {"lengths": [3.0], "grid": [16], "horizon": 0.3, "steps": 30},
                                    "basis": {"modes": [4]}}))
    status = main([
        "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet",
        "--seed", "5",
    ])
    assert status == 0
    echoed = json.loads((tmp_path / "o" / "config.echo.json").read_text())
    assert echoed["seed"] == 5
