"""Experiment runner: configs, outputs, determinism, exit codes."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from geochaos import geometry
from geochaos.cli import (
    ConfigError,
    ExperimentConfig,
    _bloch_samples,
    build_parser,
    main,
    run_experiment,
)
from geochaos.generators import pauli_generators


def test_config_validation():
    cfg = ExperimentConfig(experiment="nope")
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig(experiment="iho-response", time_grid=(3.0, 1.0, 5))
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig(experiment="iho-response", time_grid=(0.0, 1.0, 1))
    with pytest.raises(ConfigError):
        cfg.validate()


def test_iho_response_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="iho-response",
                           parameters={"omega": 2.0},
                           time_grid=(0.0, 3.0, 7), output=tmp_path / "run")
    report = run_experiment(cfg)
    assert report.passed
    csv = (tmp_path / "run" / "response.csv").read_text().splitlines()
    assert csv[0] == "t,r_xx,r_xp,r_px,r_pp,s_1,s_2"
    assert len(csv) == 8
    doc = json.loads((tmp_path / "run" / "report.json").read_text())
    assert doc["passed"] is True
    assert doc["experiment"] == "iho-response"


def test_report_determinism(tmp_path):
    def run(tag):
        cfg = ExperimentConfig(experiment="otoc-check",
                               parameters={"omega": 1.0},
                               time_grid=(0.0, 5.0, 6),
                               output=tmp_path / tag, seed=5)
        run_experiment(cfg)
        return (tmp_path / tag / "report.json").read_bytes()

    assert run("a") == run("b")


def test_state_response_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="state-response",
                           parameters={"omega": 1.0, "system": "iho"},
                           time_grid=(0.0, 5.0, 6), output=tmp_path / "sr")
    report = run_experiment(cfg)
    assert report.passed


def test_lyapunov_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="lyapunov",
                           parameters={"system": "iho", "omega": 1.0,
                                       "window": (5.0, 10.0)},
                           time_grid=(0.0, 5.0, 11), output=tmp_path / "ly")
    report = run_experiment(cfg)
    assert report.passed
    assert abs(report.parameters["lambdas"][0] - 1.0) <= 0.01
    traj = (tmp_path / "ly" / "trajectory.csv").read_text().splitlines()
    assert traj[0].startswith("t,z1,z2,j11")
    assert len(traj) >= 12


def test_sweep_experiment_parallel(tmp_path):
    cfg = ExperimentConfig(
        experiment="sweep",
        parameters={"experiment": "iho-response", "param": "omega",
                    "values": [0.5, 1.0, 2.0]},
        time_grid=(0.0, 3.0, 4), output=tmp_path / "sweep", jobs=3)
    report = run_experiment(cfg)
    assert report.passed
    for i in range(3):
        assert (tmp_path / "sweep" / f"point_{i:03d}" / "report.json").exists()


def test_sweep_needs_valid_target():
    cfg = ExperimentConfig(experiment="sweep",
                           parameters={"experiment": "sweep", "param": "omega",
                                       "values": [1.0]})
    with pytest.raises(ConfigError):
        run_experiment(cfg)


def test_cli_exit_codes(tmp_path, capsys):
    out = tmp_path / "cli"
    assert main(["iho-response", "--omega", "1", "--t-grid", "0:3:4",
                 "--output", str(out)]) == 0
    # invalid window: exit 2
    assert main(["lyapunov", "--window", "10:5",
                 "--output", str(tmp_path / "w")]) == 2
    # bad grid syntax: exit 2
    assert main(["iho-response", "--t-grid", "0-5-3",
                 "--output", str(tmp_path / "g")]) == 2
    # no experiment: exit 2
    assert main([]) == 2


@pytest.mark.parametrize("case", [
    "window", "sweep_values", "missing_config", "malformed_config",
    "fractional_grid_count", "text_grid_start", "parameters_not_object"])
def test_cli_parse_errors_exit_2(tmp_path, case):
    out = str(tmp_path / "out")
    bad_grid = tmp_path / "grid.json"
    bad_grid.write_text(json.dumps({"experiment": "iho-response",
                                    "time_grid": [0, 3, 4.5], "output": out}))
    text_grid = tmp_path / "text_grid.json"
    text_grid.write_text(json.dumps({"experiment": "iho-response",
                                     "time_grid": ["a", 3, 5], "output": out}))
    bad_params = tmp_path / "params.json"
    bad_params.write_text(json.dumps({"experiment": "lyapunov",
                                      "parameters": [1.0], "output": out}))
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{experiment: ")
    argv = {
        "window": ["lyapunov", "--window", "a:b", "--output", out],
        "sweep_values": ["sweep", "--experiment", "lyapunov", "--param", "omega",
                         "--values", "1,x", "--output", out],
        "missing_config": ["--config", str(tmp_path / "absent.json")],
        "malformed_config": ["--config", str(malformed)],
        "fractional_grid_count": ["--config", str(bad_grid)],
        "text_grid_start": ["--config", str(text_grid)],
        "parameters_not_object": ["--config", str(bad_params)],
    }[case]
    assert main(argv) == 2


@pytest.mark.parametrize("experiment,key,value", [
    ("lyapunov", "system", "quartic"),
    ("lyapunov", "system", "nope"),
    ("state-response", "system", "quartic"),
    ("state-response", "system", "nope"),
    ("otoc-check", "systems", ["iho", "quartic"]),
    ("otoc-check", "systems", 5),
])
def test_cli_config_system_must_be_quadratic(tmp_path, capsys, experiment, key, value):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps({"experiment": experiment,
                                    "parameters": {key: value},
                                    "output": str(tmp_path / "out")}))
    assert main(["--config", str(cfg_file)]) == 2
    assert "system" in capsys.readouterr().err


def test_cli_pipeline_failure_exit_code(tmp_path):
    clash = tmp_path / "file"
    clash.write_text("occupied")
    code = main(["iho-response", "--output", str(clash / "sub"),
                 "--t-grid", "0:2:3"])
    assert code == 1


def test_cli_config_file(tmp_path):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps({
        "experiment": "iho-response",
        "parameters": {"omega": 1.5},
        "time_grid": [0.0, 2.0, 5],
        "output": str(tmp_path / "fromcfg"),
        "seed": 2,
    }))
    assert main(["--config", str(cfg_file)]) == 0
    doc = json.loads((tmp_path / "fromcfg" / "report.json").read_text())
    assert doc["parameters"]["omega"] == 1.5


def test_parser_covers_experiments():
    parser = build_parser()
    args = parser.parse_args(["qubit-geodesic", "--z-weight", "2.0"])
    assert args.experiment == "qubit-geodesic"
    assert args.z_weight == 2.0


def test_bloch_samples_match_expm_reference():
    # the qubit-geodesic defaults: start state +x, 65 samples, a 64-interval
    # path (here seeded controls), one expm per interval and per sample
    gens = pauli_generators()
    psi0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
    n_int, n_samples = geometry.SolverConfig().n_intervals, 65
    values = np.random.default_rng(2).normal(size=(n_int, 3)) * 2.0
    path = geometry.ProtocolPath(tuple(gens.labels), values)
    fields = np.tensordot(values, gens.matrices(), axes=(1, 0))
    ds = 1.0 / n_int
    cum = [np.eye(2, dtype=complex)]
    for k in range(n_int):
        cum.append(expm(-1j * ds * fields[k]) @ cum[-1])
    expect = []
    for s in np.linspace(0.0, 1.0, n_samples):
        k = min(int(s / ds), n_int - 1)
        u = expm(-1j * (s - k * ds) * fields[k]) @ cum[k]
        expect.append(geometry.bloch_vector(u @ psi0))
    got = _bloch_samples(path, gens, psi0, n_samples)
    assert np.abs(got - np.array(expect)).max() <= 1e-12
