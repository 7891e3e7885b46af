"""Experiment runner: configs, outputs, determinism, exit codes."""

import builtins
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import geochaos
from geochaos import geometry
from geochaos.cli import (
    ConfigError,
    ExperimentConfig,
    _bloch_samples,
    _config_from_args,
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


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--system", "free"],
    ["lyapunov", "--system", "harmonic", "--omega", "0.5"],
    ["lyapunov", "--system", "iho", "--omega", "2"],
    ["qubit-geodesic", "--separation", "1.2"],
    ["qubit-geodesic", "--separation", "2.0"],
], ids=["free", "harmonic_0.5", "iho_2", "separation_1.2", "separation_2.0"])
def test_cli_checks_accept_correct_results(tmp_path, argv):
    # free and harmonic fits over 5:10 read ~0.1, not their t -> infinity
    # rate 0; below the crossover the weighted qubit geodesic stays in plane
    assert main(argv + ["--output", str(tmp_path / "out")]) == 0


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
    "fractional_grid_count", "text_grid_start", "parameters_not_object",
    "negative_z_weight", "zero_z_weight", "infinite_z_weight", "zero_separation",
    "pi_separation", "one_sample"])
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
    one_sample = tmp_path / "one_sample.json"
    one_sample.write_text(json.dumps({"experiment": "qubit-geodesic",
                                      "parameters": {"n_samples": 1}, "output": out}))
    argv = {
        "window": ["lyapunov", "--window", "a:b", "--output", out],
        "sweep_values": ["sweep", "--experiment", "lyapunov", "--param", "omega",
                         "--values", "1,x", "--output", out],
        "missing_config": ["--config", str(tmp_path / "absent.json")],
        "malformed_config": ["--config", str(malformed)],
        "fractional_grid_count": ["--config", str(bad_grid)],
        "text_grid_start": ["--config", str(text_grid)],
        "parameters_not_object": ["--config", str(bad_params)],
        "negative_z_weight": ["qubit-geodesic", "--z-weight", "-1", "--output", out],
        "zero_z_weight": ["qubit-geodesic", "--z-weight", "0", "--output", out],
        "infinite_z_weight": ["qubit-geodesic", "--z-weight", "inf", "--output", out],
        "zero_separation": ["qubit-geodesic", "--separation", "0", "--output", out],
        "pi_separation": ["qubit-geodesic", "--separation", str(math.pi),
                          "--output", out],
        "one_sample": ["--config", str(one_sample)],
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


_SWEEP = {"experiment": "iho-response", "param": "omega"}


@pytest.mark.parametrize("bad,name", [
    (["otoc-check", "--omega", "-1"], "omega"),
    (["state-response", "--omega", "0"], "omega"),
    (["iho-response", "--t-grid", "0:inf:5"], "time grid"),
    ({"experiment": "iho-response", "parameters": {"omega": "abc"}}, "omega"),
    ({"experiment": "lyapunov", "parameters": {"window": 5}}, "window"),
    ({"experiment": "lyapunov", "parameters": {"window": [5, "x"]}}, "window"),
    ({"experiment": "qubit-geodesic", "parameters": {"n_samples": "x"}}, "n_samples"),
    ({"experiment": "qubit-geodesic", "parameters": {"n_samples": 2.7}}, "n_samples"),
    ({"experiment": "iho-response", "parameters": {"omaga": 3}}, "omaga"),
    ({"experiment": "otoc-check", "parameters": {"systems": []}}, "systems"),
    ({"experiment": "sweep", "parameters": {**_SWEEP, "values": "abc"}}, "values"),
    ({"experiment": "sweep", "parameters": {**_SWEEP, "values": [1.0, "x"]}}, "omega"),
    ({"experiment": "sweep", "parameters": {**_SWEEP, "values": [1.0], "base": 5}}, "base"),
    ({"experiment": "sweep", "parameters": {**_SWEEP, "param": "omaga", "values": [1.0]}},
     "omaga"),
    ({"experiment": "sweep", "parameters": {**_SWEEP, "values": [1, -1]}}, "omega"),
    ({"experiment": "iho-response", "jobs": 2}, "jobs"),
    ({"experiment": "iho-response", "omega": 2.0}, "omega"),
    ({"experiment": "iho-response", "seed": 2.7}, "seed"),
    ({"experiment": "iho-response", "seed": True}, "seed"),
    (["qubit-geodesic", "--seed", "-1"], "seed"),
    ({"experiment": ["iho-response"]}, "experiment"),
    ({"experiment": "iho-response", "parameters": {"omega": True}}, "omega"),
], ids=["otoc_negative_omega", "state_zero_omega", "infinite_grid_end", "text_omega",
        "scalar_window", "text_window_end", "text_sample_count", "fractional_sample_count",
        "misspelt_parameter", "empty_systems", "text_sweep_values", "text_sweep_value",
        "scalar_sweep_base", "misspelt_sweep_param", "negative_sweep_point",
        "config_jobs_key", "config_top_level_parameter", "fractional_seed", "boolean_seed",
        "negative_seed", "experiment_not_a_string", "boolean_omega"])
def test_bad_configuration_exits_2_before_writing(tmp_path, capsys, bad, name):
    out = tmp_path / "out"
    if isinstance(bad, dict):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"time_grid": [0, 1, 3], "output": str(out), **bad}))
        argv = ["--config", str(cfg_file)]
    else:
        argv = bad + ["--output", str(out)]
    assert main(argv) == 2
    assert name in capsys.readouterr().err
    # no report.json, and for a sweep no point_* directory
    assert not out.exists()


def test_readme_command_lines_validate(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = section.split("```bash\n", 1)[1].split("```", 1)[0]
    (tmp_path / "experiment.json").write_text(
        section.split("```json\n", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GEOCHAOS_OUTPUT", raising=False)
    lines = [shlex.split(line.removeprefix("python -m "))
             for line in commands.splitlines() if line.strip()]
    assert len(lines) >= 8
    for words in lines:
        assert words[0] == "geochaos"
        _config_from_args(build_parser().parse_args(words[1:])).validate()


def test_python_m_geochaos(tmp_path):
    src = str(Path(geochaos.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("GEOCHAOS_OUTPUT", None)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "geochaos", *argv], env=env,
                              capture_output=True).returncode

    assert run("iho-response", "--t-grid", "0:1:3", "--output", str(tmp_path / "ok")) == 0
    assert run("otoc-check", "--omega", "-1", "--output", str(tmp_path / "bad")) == 2


def test_cli_pipeline_failure_exit_code(tmp_path):
    clash = tmp_path / "file"
    clash.write_text("occupied")
    code = main(["iho-response", "--output", str(clash / "sub"),
                 "--t-grid", "0:2:3"])
    assert code == 1


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_rerun_into_same_output_is_byte_identical(tmp_path):
    configs = {
        "ly": dict(experiment="lyapunov", time_grid=(0.0, 5.0, 11)),
        "sw": dict(experiment="sweep", time_grid=(0.0, 3.0, 4),
                   parameters={"experiment": "lyapunov", "param": "omega",
                               "values": [1.0, 2.0]}),
    }
    for tag, kwargs in configs.items():
        out = tmp_path / tag
        run_experiment(ExperimentConfig(output=out, **kwargs))
        first = _files(out)
        run_experiment(ExperimentConfig(output=out, **kwargs))
        assert _files(out) == first
    assert len(_files(tmp_path / "ly")) == 3  # two CSVs and report.json
    assert len(_files(tmp_path / "sw")) == 7


def test_rerun_replaces_a_longer_stale_file(tmp_path):
    def cfg(out):
        return ExperimentConfig(experiment="iho-response", time_grid=(0.0, 3.0, 4),
                                output=out)

    run_experiment(cfg(tmp_path / "fresh"))
    stale = tmp_path / "stale"
    stale.mkdir()
    (stale / "response.csv").write_text("stale\n" * 1000)
    run_experiment(cfg(stale))
    assert _files(stale) == _files(tmp_path / "fresh")


def test_rerun_opens_no_existing_file_for_writing(tmp_path, monkeypatch):
    # truncating an existing file costs a disk flush on close on ext4; a
    # rerun unlinks each output and writes a new file
    cfg = dict(experiment="sweep", time_grid=(0.0, 3.0, 4), output=tmp_path / "sw",
               parameters={"experiment": "iho-response", "param": "omega",
                           "values": [1.0, 2.0]})
    run_experiment(ExperimentConfig(**cfg))
    written = []

    def guard(file, mode):
        if any(c in mode for c in "wax+"):
            assert not os.path.lexists(file), f"{file} opened with {mode!r}"
            written.append(Path(file).relative_to(tmp_path / "sw"))

    path_open, open_ = Path.open, builtins.open

    def patched_path_open(self, mode="r", *args, **kwargs):
        guard(self, mode)
        return path_open(self, mode, *args, **kwargs)

    def patched_open(file, mode="r", *args, **kwargs):
        guard(file, mode)
        return open_(file, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", patched_path_open)
    monkeypatch.setattr(builtins, "open", patched_open)
    run_experiment(ExperimentConfig(**cfg))
    monkeypatch.undo()
    assert sorted(map(str, written)) == sorted(_files(tmp_path / "sw"))


def test_rerun_replaces_a_symlinked_output_file(tmp_path):
    target = tmp_path / "elsewhere.csv"
    target.write_text("keep\n")
    out = tmp_path / "run"
    out.mkdir()
    (out / "response.csv").symlink_to(target)
    run_experiment(ExperimentConfig(experiment="iho-response",
                                    time_grid=(0.0, 3.0, 4), output=out))
    assert not (out / "response.csv").is_symlink()
    assert (out / "response.csv").read_text().startswith("t,r_xx")
    assert target.read_text() == "keep\n"


@pytest.mark.parametrize("via", ["flag", "environment", "config_file"])
def test_output_naming_a_file_exits_2(tmp_path, monkeypatch, capsys, via):
    clash = tmp_path / "file"
    clash.write_text("occupied")
    argv = ["iho-response", "--t-grid", "0:2:3"]
    monkeypatch.delenv("GEOCHAOS_OUTPUT", raising=False)
    if via == "flag":
        argv += ["--output", str(clash)]
    elif via == "environment":
        monkeypatch.setenv("GEOCHAOS_OUTPUT", str(clash))
    else:
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"experiment": "iho-response",
                                        "time_grid": [0, 2, 3], "output": str(clash)}))
        argv = ["--config", str(cfg_file)]
    assert main(argv) == 2
    assert "not a directory" in capsys.readouterr().err
    assert clash.read_text() == "occupied"


def test_sweep_point_naming_a_file_exits_2_before_writing(tmp_path):
    out = tmp_path / "sw"
    out.mkdir()
    (out / "point_001").write_text("occupied")
    assert main(["sweep", "--experiment", "iho-response", "--param", "omega",
                 "--values", "1,2", "--t-grid", "0:2:3", "--output", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["point_001"]


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
