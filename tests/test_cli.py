import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from tdks import TdksError, cli, project, propagate, verify
from tdks.cli import _SCHEMA, ConfigError, default_config, emit_config, main, parse_config, run
from tdks.propagate import BlowUpError

from conftest import tdks_exception_classes


def test_minimal_config_gets_defaults():
    cfg = parse_config("{}")
    assert cfg["domain"]["dimension"] == 1
    assert cfg["potentials"]["exchange_beta"] == pytest.approx(1.0 / 3.0)
    assert cfg["seed"] == 1234
    # every default is recorded explicitly in the echo
    echoed = json.loads(emit_config(cfg))
    assert echoed == cfg


def test_config_round_trip():
    cfg = parse_config('{"domain": {"steps": 123}, "seed": 7}')
    again = parse_config(emit_config(cfg))
    assert again == cfg
    assert again["domain"]["steps"] == 123


@pytest.mark.parametrize(
    "domain,modes",
    [
        ({"dimension": 2, "lengths": [3.0, 3.0], "grid": [16, 16]}, [4, 4]),
        ({"dimension": 3, "lengths": [3.0] * 3, "grid": [8] * 3}, [2] * 3),
    ],
)
def test_config_round_trip_beyond_1d(domain, modes):
    # the echo writes out the converge.mode_list derived for the domain, which parses again
    given = {"domain": domain, "basis": {"modes": modes}, "potentials": {"coulomb_softening": 0}}
    cfg = parse_config(json.dumps(given))
    assert parse_config(emit_config(cfg)) == cfg


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
    assert cfg["control"]["amplitude"] == 0.3
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


def test_density_output_evaluates_every_time_at_once(tmp_path):
    # each density file is the one a run of its time alone writes; in 2-d the one
    # stacked synthesize goes through the per-axis products
    base = {
        "domain": {"dimension": 2, "lengths": [3.0, 3.0], "grid": [8, 8], "particles": 2,
                   "horizon": 0.5, "steps": 10},
        "basis": {"modes": [3, 3]},
        "potentials": {"coulomb_softening": 0.0},
        "control": {"kind": "sine"},
    }
    times = [0.0, 0.025, 0.13, 0.5, 0.05, 0.05]

    def densities(label, density_times):
        config = parse_config(json.dumps(dict(base, output={"density_times": density_times})))
        assert run(config, "simulate", tmp_path / label, quiet=True) == 0
        files = sorted((tmp_path / label).glob("density_*.csv"))
        return [(tmp_path / label / f"density_{i}.csv").read_bytes() for i in range(len(files))]

    together = densities("all", times)
    assert len(together) == len(times)
    for i, t in enumerate(times):
        assert together[i] == densities(f"one{i}", [t])[0]
    assert densities("none", []) == []


def test_long_horizon_summary_holds_a_finite_envelope_bound(tmp_path):
    # exp((1 + 2 c~0) T) overflows at T = 1e6; the envelope caps its exponent at
    # MAX_EXP_ARG, so the bound stays a finite float and the summary valid JSON
    cfg = _fast_config(domain={"lengths": [3.0], "grid": [16], "horizon": 1e6, "steps": 10})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(cfg, "simulate", tmp_path / "out", quiet=True) == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    text = (tmp_path / "out" / "summary.json").read_text()
    summary = json.loads(text, parse_constant=reject)
    assert summary["l2_envelope_bound"] == np.exp(propagate.MAX_EXP_ARG) * summary["l2_initial"] ** 2


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
        ({"integrator": {}}, "integrator: unknown key"),
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
        ({"initial_state": {"kind": "file", "path": 5}}, "initial_state.path"),
        ({"initial_state": {"kind": "file", "path": "TMP/text.npy"}}, "initial_state.path"),
        (
            {"potentials": {"confinement": {"kind": "array", "path": "TMP/text.npy"}}},
            "potentials.confinement.path",
        ),
        ({"control": {"kind": "file", "path": "TMP/broken.json"}}, "control.path"),
        ({"control": {"kind": "file", "path": "TMP/strings.json"}}, "control.path"),
        ({"potentials": {"coulomb_softening": float("inf")}}, "potentials.coulomb_softening"),
        ({"mode": "adjoint"}, "mode: unknown key"),
        ({"domain": {"horizon": float("inf")}}, "domain.horizon"),
        ({"optimize": {"step_initial": 1.0}}, "optimize.step_initial: unknown key"),
        ({"optimize": {"grad_tol": 1e-10}}, "optimize.grad_tol: unknown key"),
        ({"optimize": {"iterations": 0}}, "optimize.iterations"),
        (
            {"control": {"kind": "file", "path": "TMP/nan.json"}, "domain": {"steps": 1}},
            "control.path",
        ),
        ({"initial_state": {"kind": "file", "path": "TMP/nan.npy"}}, "initial_state.path"),
        ({"initial_state": {"kind": "file", "path": "TMP/wide.npy"}}, "initial_state.path"),
        (
            {
                "objective": {
                    "j2": "terminal",
                    "target_state": {"kind": "file", "path": "TMP/nan.npy"},
                }
            },
            "objective.target_state.path",
        ),
        ({"objective": {"j1": "trajectory"}}, "objective.target_state:"),
        ({"objective": {"j2": "terminal"}}, "objective.target_state:"),
        (
            {"control": {"kind": "samples", "values": [[0.0, 1.0]]}, "domain": {"steps": 1}},
            "control.values",
        ),
        ({"converge": {"mode_list": [[8], [6], [4]]}}, "converge.mode_list"),
        ({"converge": {"mode_list": [[4], [8], [12, 2]]}}, "converge.mode_list"),
        ({"converge": {"mode_list": [[4], [8], [40]]}}, "converge.mode_list"),
        ({"seed": -1}, "seed"),
        ({"initial_state": {"kind": "bump", "powers": [-1]}}, "initial_state.powers"),
        (
            {"objective": {"j2": "terminal", "target_state": {"kind": "bump", "powers": [-1]}}},
            "objective.target_state.powers",
        ),
        ({"potentials": {"coulomb_softening": 1e155}}, "potentials.coulomb_softening"),
        ({"potentials": {"coulomb_softening": 10**200}}, "potentials.coulomb_softening"),
        ({"control": {"kind": "sine", "amplitude": "2"}}, "control.amplitude"),
        ({"control": {"kind": "sine", "amplitude": True}}, "control.amplitude"),
        (
            {"potentials": {"confinement": {"kind": "harmonic", "amplitude": "3"}}},
            "potentials.confinement.amplitude",
        ),
        (
            {"initial_state": {"kind": "coefficients", "values": [[["1", "0"]]] * 8}},
            "initial_state.values",
        ),
        (
            {"initial_state": {"kind": "coefficients", "values": [[[True, False]]] * 8}},
            "initial_state.values",
        ),
        ({"control": {"kind": "sine", "cycles": 1e308}}, "control:"),
        (
            {"control": {"kind": "samples", "values": [0.5, True, 0.0]}, "domain": {"steps": 2}},
            "control.values: expected numbers",
        ),
        (
            {"control": {"kind": "samples", "values": [0, 1, False]}, "domain": {"steps": 2}},
            "control.values: expected numbers",
        ),
        (
            {
                "initial_state": {
                    "kind": "coefficients",
                    "values": [[[1.0, 0.0]]] * 7 + [[[True, 0.0]]],
                }
            },
            "initial_state.values: expected numbers",
        ),
        (
            {"potentials": {"confinement": {"kind": "array", "values": [0.0] * 32 + [False]}}},
            "potentials.confinement.values: expected numbers",
        ),
        (
            {"control": {"kind": "file", "path": "TMP/bool.json"}, "domain": {"steps": 3}},
            "control.path: expected numbers",
        ),
        (
            {"potentials": {"confinement": {"kind": "array", "path": "TMP/bool33.npy"}}},
            "potentials.confinement.path: expected numbers",
        ),
        (
            {"potentials": {"confinement": {"kind": "array", "path": "TMP/arrays.npz"}}},
            "potentials.confinement.path: expected numbers",
        ),
        (
            {"initial_state": {"kind": "file", "path": "TMP/bool.npy"}},
            "initial_state.path: expected numbers",
        ),
        (
            {
                "objective": {
                    "j2": "terminal",
                    "target_state": {"kind": "file", "path": "TMP/bool.npy"},
                }
            },
            "objective.target_state.path: expected numbers",
        ),
        (
            {"control": {"kind": "samples", "values": [[1, 2], [3, 4]]}, "domain": {"steps": 3}},
            "control.values: expected a flat list of 4 samples",
        ),
        (
            {"control": {"kind": "file", "path": "TMP/nested.json"}, "domain": {"steps": 3}},
            "control.path: expected a flat list of 4 samples",
        ),
        # a small value of the wrong type is echoed in full
        ({"seed": 2.5}, "seed: expected an integer, got 2.5"),
        ({"seed": "x"}, "seed: expected an integer, got 'x'"),
        ([], "config root must be a JSON object"),
        ({"domain": 3}, "domain: expected an object"),
        (
            {"initial_state": {"kind": "coefficients", "values": [[1, 2], [3]]}},
            "initial_state.values: expected numbers",
        ),
        (
            {"domain": {"particles": 3}, "basis": {"modes": [2]}},
            "initial_state: more particles than basis modes",
        ),
        (
            {"initial_state": {"kind": "coefficients", "values": [[[1.0, 0.0]]]}},
            "initial_state.values: expected shape (8, 1, 2)",
        ),
        (
            {"potentials": {"confinement": {"kind": "array"}}},
            "potentials.confinement: array field preset needs 'values'",
        ),
        # an explicit empty list is not the default: it gives no power to the particle
        (
            {"initial_state": {"kind": "bump", "powers": []}},
            "initial_state.powers: need one power per particle",
        ),
    ],
)
def test_bad_config_value_is_one_error_line_naming_the_key(tmp_path, capsys, config, key):
    # files that preset paths name as TMP/...: none holds what its preset reads
    # (the default basis has 8 modes and 1 particle)
    (tmp_path / "text.npy").write_text("not an array")
    (tmp_path / "broken.json").write_text("[0.0, 1.0")
    (tmp_path / "strings.json").write_text('["a", "b"]')
    (tmp_path / "nan.json").write_text("[NaN, 0.0]")
    np.save(tmp_path / "nan.npy", np.full((8, 1), np.nan))
    np.save(tmp_path / "wide.npy", np.zeros((8, 2)))
    # booleans where numbers belong (the default grid has 33 nodes), and an archive
    (tmp_path / "bool.json").write_text("[1, 2, true, 4]")
    (tmp_path / "nested.json").write_text("[[1, 2], [3, 4]]")
    np.save(tmp_path / "bool33.npy", np.ones(33, dtype=bool))
    np.save(tmp_path / "bool.npy", np.ones((8, 1), dtype=bool))
    np.savez(tmp_path / "arrays.npz", values=np.zeros(33))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config).replace("TMP", tmp_path.as_posix()))
    out = tmp_path / "out"
    out.mkdir()
    # only the adjoint and optimize runs read the objective, only the converge and
    # verify runs the mode list
    subcommand = "adjoint" if "objective" in config else "simulate"
    subcommand = "converge" if "converge" in config else subcommand
    status = main([subcommand, "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "site, start",
    [("config", "error: config nests too deeply"), ("control file", "error: control.path: ")],
    ids=["config", "control-file"],
)
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, site, start):
    # 100,000 nested brackets: the JSON decoder gives up with a RecursionError
    nested = "[" * 100_000 + "]" * 100_000
    cfg_path = tmp_path / "cfg.json"
    if site == "config":
        cfg_path.write_text('{"seed": ' + nested + "}")
    else:
        (tmp_path / "control.json").write_text(nested)
        path = (tmp_path / "control.json").as_posix()
        cfg_path.write_text(json.dumps({"control": {"kind": "file", "path": path}}))
    out = tmp_path / "out"
    out.mkdir()
    status = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start)
    assert "Traceback" not in err[0]
    assert list(out.iterdir()) == []


def _nested_900_deep():
    value = 0
    for _ in range(900):
        value = [value]
    return value


@pytest.mark.parametrize(
    "config, start",
    [
        ({"seed": [0] * 200_000}, "error: seed:"),
        ({"seed": _nested_900_deep()}, "error: seed:"),
        ({"control": {"kind": "z" * 200_000}}, "error: control.kind: unknown preset"),
        # the eigenvalue (16 pi / 1e-300)^2 of the 32-cell grid overflows
        ({"domain": {"lengths": [1e-300]}}, "error: domain: edge lengths"),
        (
            {"potentials": {"confinement": {"kind": "harmonic", "amplitude": 1e308}}},
            "error: potentials.confinement:",
        ),
        # an unknown key that is long or not printable is echoed cut and escaped
        (
            {"domain": {"z" * 200_000: 1}},
            "error: domain.'zzzzzzzzzzzz...zzzzzzzzzzzzz': unknown key",
        ),
        ({"domain": {"a\nb": 1}}, "error: domain.'a\\nb': unknown key"),
        (
            {"initial_state": {"kind": "lowest_modes", "z" * 200_000: 1}},
            "error: initial_state.'zzzzzzzzzzzz...zzzzzzzzzzzzz': unknown key for preset",
        ),
        (
            {"initial_state": {"kind": "lowest_modes", "x\ny": 1}},
            "error: initial_state.'x\\ny': unknown key for preset",
        ),
        # dt = 1e308 / 4 times the largest eigenvalue overflows the kinetic phase
        ({"domain": {"horizon": 1e308, "steps": 4}}, "error: domain: time step too long"),
    ],
    ids=[
        "long-seed", "deep-seed", "long-kind", "tiny-length", "huge-amplitude",
        "long-key", "newline-key", "long-preset-key", "newline-preset-key", "huge-horizon",
    ],
)
def test_huge_or_overflowing_value_is_one_short_error_line(tmp_path, capsys, config, start):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning is a second line
        status = main(["simulate", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(start)
    assert len(err[0].encode()) <= 200
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("horizon", [1e6, 1e12])
def test_a_diverging_adjoint_stage_is_one_short_error_line(tmp_path, capsys, horizon):
    # the fixed-point iterates of a step of dt = horizon / 4 overflow: at 1e6 their change,
    # at 1e12 an iterate; both warned, and 1e12 ended in a DomainError naming no stage
    config = {
        "domain": {"steps": 4, "horizon": horizon},
        "objective": {"j2": "terminal", "target_state": {"kind": "lowest_modes"}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning is a second line
        status = main(["adjoint", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: fixed-point iteration diverged at t={0.875 * horizon}; "
        "a smaller time step (more steps) is the remedy"
    ]
    assert list(out.iterdir()) == []


def test_a_verify_whose_dual_norm_chain_overflows_is_one_short_error_line(tmp_path, capsys):
    # the energy checks of the forward solve square a dual-norm chain past 1e154, which
    # warned of an overflow in a scalar power before the adjoint stage diverged
    config = {
        "domain": {"steps": 4, "horizon": 1e12},
        "objective": {"j2": "terminal", "target_state": {"kind": "lowest_modes"}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning is a second line
        status = main(["verify", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "error: fixed-point iteration diverged at t=875000000000.0; "
        "a smaller time step (more steps) is the remedy"
    ]
    assert list(out.iterdir()) == []


def test_every_tdks_exception_class_is_a_tdks_error():
    classes = tdks_exception_classes()
    assert len(classes) >= 9
    for cls in classes:
        assert issubclass(cls, TdksError), cls
        # and keeps the builtin base that callers catch it by
        assert cls is TdksError or issubclass(cls, (ValueError, RuntimeError)), cls


@pytest.mark.parametrize(
    "cls", tdks_exception_classes(), ids=lambda cls: f"{cls.__module__}.{cls.__name__}"
)
def test_every_tdks_error_ends_in_one_error_line(tmp_path, capsys, monkeypatch, cls):
    def fail(config, out, quiet):
        raise cls("boom", 0.0) if issubclass(cls, BlowUpError) else cls("boom")

    monkeypatch.setitem(cli._SUBCOMMANDS, "simulate", fail)
    out = tmp_path / "out"
    status = main(["simulate", "--out", str(out), "--quiet"])
    assert status == 1
    assert capsys.readouterr().err.splitlines() == ["error: boom"]
    assert list(out.iterdir()) == []


def test_singular_riesz_solve_is_one_error_line(tmp_path, capsys):
    # dt = 1e-9: the mass term dt/2 is lost against 1/dt, and the last pivot of the
    # H1 Riesz solve rounds to 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "domain": {"lengths": [3.0], "grid": [16], "horizon": 1e-6, "steps": 1000},
        "basis": {"modes": [4]},
        "objective": {"j2": "terminal", "target_state": {"kind": "lowest_modes"}},
        "control": {"kind": "sine", "amplitude": 0.5},
        "optimize": {"iterations": 2},
    }))
    out = tmp_path / "out"
    out.mkdir()
    status = main(["optimize", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the H1 Riesz solve is singular")
    assert list(out.iterdir()) == []


def test_negative_seed_flag_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    status = main(["verify", "--seed", "-1", "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --seed")
    assert not out.exists()


def _domain(dimension, grid, particles=1):
    return {
        "dimension": dimension,
        "lengths": [3.0] * dimension,
        "grid": [grid] * dimension,
        "particles": particles,
    }


@pytest.mark.parametrize(
    "domain,modes,ladder",
    [
        (_domain(1, 32), [8], [[4], [8], [12]]),
        (_domain(3, 16, 2), [6] * 3, [[3] * 3, [6] * 3, [8] * 3]),  # grid/2 caps the top rung
        (_domain(2, 32), [8] * 2, [[4] * 2, [8] * 2, [12] * 2]),
        (_domain(1, 64, 2), [16], [[8], [16], [24]]),
        (_domain(3, 8, 2), [4] * 3, [[2] * 3, [3] * 3, [4] * 3]),  # no rung repeats another
        (_domain(1, 32, 4), [6], [[4], [6], [9]]),  # the first rung holds the four particles
    ],
    ids=["default", "fwd3d", "opt2d", "adj1d", "fwd3d-tiny", "1d-4-particles"],
)
def test_mode_list_is_derived_from_the_basis(domain, modes, ladder):
    potentials = {"coulomb_softening": 0.1 if domain["dimension"] == 1 else 0}
    given = {"domain": domain, "basis": {"modes": modes}, "potentials": potentials}
    cfg = parse_config(json.dumps(given))
    assert cfg["converge"]["mode_list"] == ladder
    assert parse_config(emit_config(cfg)) == cfg


@pytest.mark.parametrize("subcommand", ["verify", "converge"])
@pytest.mark.parametrize("dimension", [2, 3])
def test_verify_and_converge_run_beyond_1d_on_the_derived_mode_list(
    tmp_path, capsys, subcommand, dimension
):
    cfg_path = tmp_path / "cfg.json"
    domain = dict(_domain(dimension, 8), horizon=0.2, steps=20)
    given = {"domain": domain, "basis": {"modes": [3] * dimension},
             "potentials": {"coulomb_softening": 0}}
    cfg_path.write_text(json.dumps(given))
    out = tmp_path / "out"
    status = main([subcommand, "--config", str(cfg_path), "--out", str(out), "--quiet"])
    reports = json.loads((out / "reports.json").read_text())
    assert status == (1 if any(r["asserted"] and not r["passed"] for r in reports) else 0)
    assert capsys.readouterr().err == ""
    (galerkin,) = [r for r in reports if r["name"] == "galerkin-convergence"]
    assert galerkin["ingredients"]["modes"] == [[2] * dimension, [3] * dimension, [4] * dimension]


@pytest.mark.parametrize("output_dir", [5, None])
def test_output_dir_takes_only_a_string(tmp_path, monkeypatch, capsys, output_dir):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"output_dir": output_dir}))
    status = main(["simulate", "--config", "cfg.json", "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: output_dir")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_defaults_are_not_shared_between_configs():
    expected = emit_config(parse_config("{}"))
    first = parse_config("{}")
    first["domain"]["lengths"].append(9.0)
    first["potentials"]["confinement"]["amplitude"] = 7.0
    first["converge"]["mode_list"][0].append(5)
    assert emit_config(parse_config("{}")) == expected


def _nest(path, value):
    for key in reversed(path):
        value = {key: value}
    return value


def _wrong_type(form):
    return 5 if form is str else "x"


def _wrong_type_configs(schema=_SCHEMA, where=()):
    """(config, key path) for each leaf key of the schema, preset parameters
    included, given a value of the wrong JSON type."""
    for key, entry in schema.items():
        path = where + (key,)
        if isinstance(entry, dict):
            yield from _wrong_type_configs(entry, path)
            continue
        form = entry[1]
        yield _nest(path, _wrong_type(form)), ".".join(path)
        if isinstance(form, dict):  # a preset: each parameter inside an object of its kind
            for kind, params in form.items():
                for param, param_form in params.items():
                    preset = {"kind": kind, param: _wrong_type(param_form)}
                    yield _nest(path, preset), ".".join(path + (param,))


# Leaf keys the schema has dropped, each after the case of the key it followed there, with
# the key that the "unknown key" error of a config still setting it names.  Every case keeps
# its number.
_DROPPED = {
    "potentials.control_shape.path": [
        ("integrator.fixed_point_tol", "integrator"),
        ("integrator.fixed_point_max_iter", "integrator"),
    ],
    "objective.target_state.path": [("mode", "mode")],
    "optimize.iterations": [
        ("optimize.step_initial", "optimize.step_initial"),
        ("optimize.grad_tol", "optimize.grad_tol"),
    ],
}
_REFUSED_AS = {key: named for dropped in _DROPPED.values() for key, named in dropped}


def _leaf_key_configs():
    for config, key in _wrong_type_configs():
        yield config, key
        for dropped, _ in _DROPPED.get(key, ()):
            yield _nest(dropped.split("."), "x"), dropped


@pytest.mark.parametrize("config,key", list(_leaf_key_configs()))
def test_every_leaf_key_rejects_a_value_of_the_wrong_json_type(config, key):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(config))
    if key in _REFUSED_AS:
        assert str(err.value) == f"{_REFUSED_AS[key]}: unknown key"
    else:
        assert str(err.value).startswith(f"{key}:")


def test_readme_default_config_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == default_config()


def test_solver_failure_exits_nonzero_without_artifacts(tmp_path, capsys, monkeypatch):
    # one fixed-point sweep per step cannot converge: the adjoint solve fails
    monkeypatch.setattr(propagate, "FIXED_POINT_MAX_ITER", 1)
    cfg_path = tmp_path / "starved.json"
    cfg_path.write_text(
        json.dumps(
            {
                "domain": {"lengths": [3.0], "grid": [16], "particles": 2, "steps": 40},
                "basis": {"modes": [4]},
                "objective": {"j2": "terminal", "target_state": {"kind": "lowest_modes"}},
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


@pytest.mark.parametrize(
    "config, solved",
    [
        ({}, [4, 12]),
        ({"initial_state": {"kind": "bump"}}, [4, 8, 12]),
        ({"basis": {"modes": [12]}}, [6, 11, 16]),
    ],
    ids=["default", "bump", "modes-12"],
)
def test_verify_reuses_its_base_solve_only_as_the_rung_it_equals(monkeypatch, config, solved):
    # every rung starts from lowest_modes under zero control, as the base solve does with
    # a lowest_modes start, so the default suite's rung [8] of [[4], [8], [12]] is its base
    # solve; a bump start, or modes [12] off the ladder [[6], [11], [16]], solves every rung
    config = parse_config(json.dumps(config))
    sizes, reports = [], []
    real_solve, real_check = cli.solve_forward, cli.check_galerkin_convergence

    def spy_solve(ctx, psi0):
        sizes.append(ctx.basis.size)
        return real_solve(ctx, psi0)

    def spy_check(solve, mode_lists):
        sizes.clear()  # the base solve comes before the check
        reports.append(real_check(solve, mode_lists))
        return reports[-1]

    monkeypatch.setattr(cli, "solve_forward", spy_solve)
    monkeypatch.setattr(cli, "check_galerkin_convergence", spy_check)
    cli.run_verification_suite(config)
    assert sizes == solved
    basis, potentials, kernel = cli._build_instruments(config)
    every_rung = cli._galerkin_solver(basis, potentials, kernel, {"kind": "lowest_modes"})
    fresh = real_check(every_rung, config["converge"]["mode_list"])
    assert len(reports) == 1 and reports[0].to_dict() == fresh.to_dict()


@pytest.mark.parametrize("kind", ["coefficients", "file"])
def test_converge_carries_a_given_state_to_every_rung(tmp_path, monkeypatch, kind):
    # the state belongs to basis.modes, the middle rung of [[3], [6], [9]]: that rung
    # starts from it exactly, the coarser one from its first 3 modes and the finer
    # one from it padded with zeros
    state = np.random.default_rng(6).standard_normal((6, 1, 2)) @ [1.0, 1j]
    preset = {"kind": "file", "path": str(tmp_path / "psi0.npy")}
    np.save(preset["path"], state)
    if kind == "coefficients":
        preset = {"kind": kind, "values": np.stack([state.real, state.imag], -1).tolist()}
    starts, solve = [], cli.solve_forward

    def spy(ctx, psi0):
        starts.append(psi0)
        return solve(ctx, psi0)

    monkeypatch.setattr(cli, "solve_forward", spy)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "domain": {"lengths": [3.0], "grid": [32], "horizon": 0.5, "steps": 150},
        "basis": {"modes": [6]},
        "initial_state": preset,
    }))
    out = tmp_path / "out"
    status = main(["converge", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    (report,) = json.loads((out / "reports.json").read_text())
    assert status == (0 if report["passed"] else 1)
    assert report["ingredients"]["modes"] == [[3], [6], [9]]
    assert np.array_equal(starts[1], state)
    assert np.array_equal(starts[0], state[:3])
    assert np.array_equal(starts[2], np.concatenate([state, np.zeros((3, 1))]))


@pytest.mark.parametrize("dimension, powers", [(1, None), (2, [2, 4])], ids=["1-default", "2"])
def test_bump_state_has_unit_orbitals_on_every_rung(tmp_path, monkeypatch, dimension, powers):
    # converge builds the bump on each rung's basis: every particle's column there is
    # the projected sine-power bump of its power divided by its own L2 norm; left out,
    # the powers are 2, 3, ...
    starts, solve = [], cli.solve_forward

    def spy(ctx, psi0):
        starts.append((ctx.basis, psi0))
        return solve(ctx, psi0)

    monkeypatch.setattr(cli, "solve_forward", spy)
    preset = {"kind": "bump"} if powers is None else {"kind": "bump", "powers": powers}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "domain": {"dimension": dimension, "lengths": [3.0] * dimension,
                   "grid": [12] * dimension, "particles": 2, "horizon": 0.1, "steps": 10},
        "basis": {"modes": [4] * dimension},
        "potentials": {"coulomb_softening": 0.1 if dimension == 1 else 0.0},
        "initial_state": preset,
    }))
    out = tmp_path / "out"
    status = main(["converge", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    (report,) = json.loads((out / "reports.json").read_text())
    assert status == (0 if report["passed"] else 1)
    rungs = [[len(t) for t in b.axis_tables] for b, _ in starts]
    assert rungs == report["ingredients"]["modes"]
    for basis, psi0 in starts:
        bump = np.prod(np.sin(np.pi * basis.nodes / 3.0), axis=1)
        for j, p in enumerate(powers or [2, 3]):
            column = project(basis, (bump**p)[:, None].astype(np.complex128))[:, 0]
            assert np.allclose(psi0[:, j], column / np.linalg.norm(column), rtol=0, atol=1e-14)


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
        optimize={"iterations": 3},
    )
    status = run(cfg, "optimize", tmp_path / "out", quiet=True)
    assert status == 0
    hist = (tmp_path / "out" / "optimize_history.csv").read_text().strip().splitlines()
    assert hist[0] == "iteration,objective,grad_h1_norm,step"
    j = [float(r.split(",")[1]) for r in hist[1:]]
    assert j[-1] <= j[0]
    control = json.loads((tmp_path / "out" / "control_optimized.json").read_text())
    assert len(control["samples"]) == 51


@pytest.mark.parametrize(
    "control,fault",
    [({"kind": "zero"}, "the raw gradient"), ({"kind": "sine", "amplitude": 0.3}, "J(u0)")],
    ids=["gradient", "objective"],
)
def test_optimize_with_an_overflowing_objective_is_one_error_line(tmp_path, capsys, control,
                                                                  fault):
    # nu = 1e308 overflows the H1 penalty: in J itself under a nonzero control, and
    # under the zero one in the gradient's penalty derivative 2 nu (M + S) u, as 2 nu
    # is inf
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "domain": {"lengths": [3.0], "grid": [16], "horizon": 0.5, "steps": 50},
        "basis": {"modes": [4]},
        "control": control,
        "objective": {"j2": "terminal", "nu": 1e308, "target_state": {"kind": "lowest_modes"}},
    }))
    out = tmp_path / "out"
    status = main(["optimize", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {fault}")
    assert list(out.iterdir()) == []


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


def test_verify_without_hartree_probes_the_grid_kernel(tmp_path, capsys):
    # the Hartree pair bound belongs to the Coulomb kernel, not to the switch
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"potentials": {"include_hartree": False}}))
    names = {}
    for label, config in (("default", []), ("no-hartree", ["--config", str(cfg_path)])):
        out = tmp_path / label
        status = main(["verify", *config, "--out", str(out), "--quiet"])
        reports = json.loads((out / "reports.json").read_text())
        assert status == (1 if any(r["asserted"] and not r["passed"] for r in reports) else 0)
        names[label] = [r["name"] for r in reports]
    assert capsys.readouterr().err == ""
    assert names["no-hartree"] == names["default"]


@pytest.mark.parametrize("subcommand", ["verify", "converge"])
def test_coulomb_kernel_is_built_once_per_run(tmp_path, monkeypatch, subcommand):
    # the kernel depends on the grid only, so the run's forward problem and every
    # Galerkin rung share the one built with the instruments
    calls, build = [], cli.build_coulomb_kernel

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "build_coulomb_kernel", counted)
    assert main([subcommand, "--out", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 1


def test_an_unknown_subcommand_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="unknown subcommand 'bogus'"):
        run(default_config(), "bogus", tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "subcommand", ["simulate", "adjoint", "verify", "verify-failing", "converge", "optimize"]
)
def test_quiet_changes_only_what_is_printed(tmp_path, capsys, monkeypatch, subcommand):
    # the same artifacts and status either way; a quiet run prints nothing, a verbose one
    # its report table in reports.json order, its solve's drift or its descent's summary
    forced_failure = subcommand == "verify-failing"
    if forced_failure:
        subcommand = "verify"
        failing = verify.EstimateReport(
            "hartree-lipschitz", "ref", measured=2.0, bound=1.0, tolerance=0.0, formula="f"
        )
        monkeypatch.setattr(cli, "check_hartree_lipschitz", lambda *a, **k: failing)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "domain": {"lengths": [3.0], "grid": [16], "horizon": 0.2, "steps": 20},
        "basis": {"modes": [4]},
        "control": {"kind": "sine", "amplitude": 0.3},
        "objective": {"j2": "terminal", "target_state": {"kind": "lowest_modes"}},
        "optimize": {"iterations": 2},
    }))

    def run_cli(label, *flags):
        out = tmp_path / label
        status = main([subcommand, "--config", str(cfg_path), "--out", str(out), *flags])
        printed = capsys.readouterr()
        assert printed.err == ""
        return status, {f.name: f.read_bytes() for f in out.iterdir()}, printed.out.splitlines()

    status, files, quiet_lines = run_cli("quiet", "--quiet")
    assert quiet_lines == []
    verbose_status, verbose_files, lines = run_cli("verbose")
    assert (verbose_status, verbose_files) == (status, files)
    if subcommand in ("simulate", "adjoint"):
        mode = "forward" if subcommand == "simulate" else "adjoint"
        assert len(lines) == 1
        assert lines[0].startswith(f"{mode} solve: 20 steps, max |l2^2 - l2(0)^2| / l2(0)^2 = ")
    elif subcommand == "optimize":
        rows = files["optimize_history.csv"].decode().splitlines()[1:]
        first, last = (float(row.split(",")[1]) for row in (rows[0], rows[-1]))
        assert lines == [f"optimize: J {first:.6g} -> {last:.6g} in {len(rows)} iterations"]
    else:
        reports = json.loads(files["reports.json"])
        table = [tuple(line.split()[:2]) for line in lines[: len(reports)]]
        assert table == [("PASS" if r["passed"] else "FAIL", r["name"]) for r in reports]
        failed = sum(r["asserted"] and not r["passed"] for r in reports)
        assert status == (1 if failed else 0)
        assert failed or not forced_failure
        # verify alone counts its failed checks
        tail = [f"{failed} asserted check(s) failed"] if failed and subcommand == "verify" else []
        assert lines[len(reports) :] == tail
