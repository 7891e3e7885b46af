"""Experiment runner: named pipelines, sweeps, CSV/JSON emission.

Each experiment writes CSV series (header row, 15 significant digits), a
``report.json`` with inputs, residuals and built-in invariant checks, and
optional plot-sample files.  Reports are deterministic for a given config
and seed: no timestamps, sorted keys.  A rerun into the same output
replaces each file with a new one (see ``_write``).

Every experiment declares its parameters once, in ``EXPERIMENTS``: a default
and a check that converts a raw value (from JSON or a command-line flag)
and rejects a bad one.  ``ExperimentConfig.validate`` applies the table, so
the runners receive checked values.

Exit codes: 0 success, 1 pipeline failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import classical, geometry, otoc, response
from .generators import heisenberg_generators, pauli_generators

# the phase-space pipelines need an exact flow_matrix(t)
QUADRATIC_SYSTEMS = ("iho", "harmonic", "free")
# the keys a JSON config file may hold
CONFIG_KEYS = ("experiment", "parameters", "time_grid", "output", "seed")


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


@dataclass
class ExperimentConfig:
    experiment: str
    parameters: dict = field(default_factory=dict)
    time_grid: tuple[float, float, int] = (0.0, 5.0, 11)
    output: Path = Path("geochaos-out")
    seed: int = 0
    jobs: int = 1  # unused: sweeps run serially; kept for callers that pass jobs=

    def validate(self) -> dict:
        """Check the config; return the experiment's checked parameters.

        The time grid is converted in place.  A sweep checks every point
        against its target's table, and every point's output, here, so a
        bad point fails before any point runs.
        """
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        try:
            self.time_grid = _time_grid(self.time_grid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"time grid: {exc}") from None
        _check_output(Path(self.output))
        params = _check_parameters(self.experiment, self.parameters)
        if self.experiment == "sweep":
            for i, point in enumerate(_sweep_points(params)):
                _check_parameters(params["experiment"], point)
                _check_output(Path(self.output) / f"point_{i:03d}")
        return params

    def times(self) -> np.ndarray:
        t0, t1, n = self.time_grid
        return np.linspace(t0, t1, n)


@dataclass
class ExperimentReport:
    experiment: str
    parameters: dict
    seed: int
    outputs: list[str]
    checks: list[dict]

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": self.parameters,
            "seed": self.seed,
            "outputs": sorted(self.outputs),
            "checks": self.checks,
            "passed": self.passed,
        }


def _check_output(out: Path) -> None:
    """Refuse an output that exists and is not a directory, before anything
    is written; mkdir would refuse it later, as a pipeline failure."""
    if out.exists() and not out.is_dir():
        raise ConfigError(f"output {str(out)!r} exists and is not a directory")


def _write(path: Path, text: str) -> None:
    """Write ``text`` as a new file at ``path``, replacing what is there.

    The old file, or a symlink in its place, is unlinked, not truncated: on
    ext4 (``auto_da_alloc``) closing a file truncated to zero flushes it to
    disk, which cost 46-89 ms per file on a rerun into the same output.
    """
    path.unlink(missing_ok=True)
    path.write_text(text)


def _csv(header: list[str], rows) -> str:
    """CSV text: a header row, then rows at 15 significant digits."""
    lines = [",".join(header)] + [",".join(f"{v:.15g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _check(name: str, value: float, tol: float, larger_is_pass: bool = False) -> dict:
    passed = value > tol if larger_is_pass else value <= tol
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "passed": bool(passed)}


# ---------------------------------------------------------------------------
# parameter checks: each converts a raw value and raises ValueError or
# TypeError, with the reason, when the value is bad


def _number(value) -> float:
    """float(value), refusing a JSON boolean, which float() reads as 0 or 1."""
    if isinstance(value, bool):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def _open_interval(low: float, high: float) -> Callable[[Any], float]:
    def check(value) -> float:
        x = _number(value)
        if not low < x < high:
            raise ValueError(f"must lie in ({low:g}, {high:g}), got {value!r}")
        return x
    return check


_POSITIVE = _open_interval(0.0, math.inf)


def _time_grid(value) -> tuple[float, float, int]:
    """A time grid start:end:npoints (flag text) or three numbers."""
    parts = value.split(":") if isinstance(value, str) else value
    t0, t1, n = [_number(v) for v in parts]
    if not (math.inf > t1 > t0 >= 0.0 and n.is_integer() and n >= 2):
        raise ValueError(f"must be [start, end, npoints] with inf > end > start >= 0 "
                         f"and an integer npoints >= 2, got {value!r}")
    return t0, t1, int(n)


def _window(value) -> tuple[float, float]:
    """A fit window t_min:t_max (flag text) or a pair of numbers."""
    parts = value.split(":") if isinstance(value, str) else value
    bounds = [_number(v) for v in parts]
    if len(bounds) != 2 or not math.inf > bounds[1] > bounds[0] >= 0.0:
        raise ValueError(f"must be [t_min, t_max] with inf > t_max > t_min >= 0, "
                         f"got {value!r}")
    return bounds[0], bounds[1]


def _system(value) -> str:
    if value not in QUADRATIC_SYSTEMS:
        raise ValueError(f"needs a quadratic system, one of {list(QUADRATIC_SYSTEMS)}; "
                         f"got {value!r}")
    return value


def _systems(value) -> list[str]:
    if not isinstance(value, (list, tuple)) or not value:
        raise TypeError(f"must be a non-empty list of system names, got {value!r}")
    return [_system(v) for v in value]


def _sample_count(value) -> int:
    x = _number(value)
    if not (x.is_integer() and x >= 2):
        raise ValueError(f"must be an integer >= 2, got {value!r}")
    return int(x)


def _sweep_target(value) -> str:
    if value == "sweep" or value not in EXPERIMENTS:
        raise ValueError(f"must name an experiment other than sweep, got {value!r}")
    return value


def _name(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must name a parameter of the swept experiment, got {value!r}")
    return value


def _values(value) -> list:
    """Comma-separated numbers (flag text) or a non-empty list."""
    if isinstance(value, str):
        value = [float(v) for v in value.split(",")]
    if not isinstance(value, (list, tuple)) or not value:
        raise TypeError(f"must be a non-empty list, got {value!r}")
    return list(value)


class Param(NamedTuple):
    """One experiment parameter; ``flag`` is its flag's argparse type, or
    None for a parameter set only from a config file."""

    default: Any
    check: Callable[[Any], Any]
    flag: Callable[[str], Any] | None = None


def _check_parameters(experiment: str, raw) -> dict:
    """Every parameter of the experiment, defaulted and checked."""
    if not isinstance(raw, dict):
        raise ConfigError("parameters must be a JSON object")
    table = EXPERIMENTS[experiment].parameters
    for name in raw:
        if name not in table:
            raise ConfigError(f"unknown {experiment} parameter {name!r}; "
                              f"expected one of {list(table)}")
    checked = {}
    for name, param in table.items():
        try:
            checked[name] = param.check(raw.get(name, param.default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{experiment} parameter {name!r}: {exc}") from None
    return checked


def _sweep_points(params: dict) -> list[dict]:
    """The target's raw parameters at each sweep value."""
    return [{**params["base"], params["param"]: v} for v in params["values"]]


# ---------------------------------------------------------------------------
# individual experiments


def _run_iho_response(cfg: ExperimentConfig, p: dict, out: Path) -> ExperimentReport:
    omega = p["omega"]
    gens = heisenberg_generators()
    ham = classical.inverted_oscillator(omega)
    rows = []
    worst = 0.0
    for t in cfg.times():
        r = response.unitary_response_matrix(ham, gens, float(t))
        ana = classical.iho_response_analytic(omega, float(t))
        err = np.abs(r.entries - ana.entries) / np.maximum(1.0, np.abs(ana.entries))
        worst = max(worst, float(err.max()))
        sp = response.response_spectrum(r)
        rows.append([t, *r.entries.ravel(), *sp.eigenvalues])
    csv = out / "response.csv"
    _write(csv, _csv(["t", "r_xx", "r_xp", "r_px", "r_pp", "s_1", "s_2"], rows))
    checks = [_check("analytic_parity_rel_err", worst, 1e-6)]
    return ExperimentReport(cfg.experiment, {"omega": omega},
                            cfg.seed, [csv.name], checks)


def _run_lyapunov(cfg: ExperimentConfig, p: dict, out: Path) -> ExperimentReport:
    system, omega, (t0, t1) = p["system"], p["omega"], p["window"]
    ham = classical.hamiltonian_from_name(system, omega=omega)
    gens = heisenberg_generators()
    times = np.linspace(t0, t1, max(cfg.time_grid[2], 11))
    spectra = [response.response_spectrum(
        response.unitary_response_matrix(ham, gens, float(t))) for t in times]
    est = response.lyapunov_spectrum(spectra, (t0, t1))
    bench = classical.classical_lyapunov(
        ham, np.array([1.0, 0.5]), t_total=max(60.0, 4 * t1))
    rows = [[sp.time, *sp.eigenvalues] for sp in spectra]
    csv = out / "spectrum.csv"
    _write(csv, _csv(["t", "s_1", "s_2"], rows))
    traj = classical.evolve_flow(ham, np.array([1.0, 0.5]), t1,
                                 n_samples=max(cfg.time_grid[2], 11))
    traj_csv = out / "trajectory.csv"
    # t, coordinates and row-major Jacobian entries per sample
    _write(traj_csv, _csv(["t", "z1", "z2", "j11", "j12", "j21", "j22"],
                          [[t, *z, *jac.ravel()] for t, z, jac
                           in zip(traj.times, traj.points, traj.jacobians)]))
    if system == "iho":
        # the hyperbolic window measures the t -> infinity rate
        checks = [_check("response_exponents_vs_expected",
                         float(np.abs(est.lambdas - [omega, -omega]).max()), 0.01),
                  _check("response_vs_classical_benchmark",
                         float(np.abs(est.lambdas - bench.lambdas).max()), 0.02)]
    else:
        # S(t) grows like t (free) or oscillates (harmonic), so a finite
        # window does not fit the rate 0: compare with the same fit of the
        # closed-form response S(t)^T
        closed = [response.ResponseMatrix(
            flavor="unitary", entries=classical._oscillator_flow(system, omega, float(t)).T,
            time=float(t), labels=("x", "p")) for t in times]
        expected = response.lyapunov_spectrum(
            [response.response_spectrum(r) for r in closed], (t0, t1)).lambdas
        checks = [_check("response_exponents_vs_expected",
                         float(np.abs(est.lambdas - expected).max()), 0.05)]
    checks.append(_check("pairing_sum", float(abs(est.lambdas[0] + est.lambdas[-1])),
                         max(2 * est.residual, 1e-8)))
    return ExperimentReport(cfg.experiment,
                            {"system": system, "omega": omega,
                             "window": [t0, t1],
                             "lambdas": est.lambdas.tolist(),
                             "classical": bench.lambdas.tolist()},
                            cfg.seed, [csv.name, traj_csv.name], checks)


def _run_otoc_check(cfg: ExperimentConfig, p: dict, out: Path) -> ExperimentReport:
    omega, systems = p["omega"], p["systems"]
    gens = heisenberg_generators()
    rows = []
    worst = 0.0
    worst_avg = 0.0
    for name in systems:
        ham = classical.hamiltonian_from_name(name, omega=omega)
        transfer = otoc.transfer_matrix(gens)
        for t in cfg.times():
            ru = response.unitary_response_matrix(ham, gens, float(t))
            omat = otoc.otoc_matrix(ham, gens, float(t))
            resid = otoc.check_correspondence(ru, transfer, omat)
            lhs, rhs = otoc.averaged_otoc_identity(
                classical.GaussianWignerState.vacuum(), ham, gens, float(t))
            # scale-relative: the identity is exact, but the two sides are
            # independent float products of entries growing like exp(4 w t)
            avg_gap = float(np.abs(lhs - rhs).max() / max(1.0, np.abs(lhs).max()))
            worst = max(worst, resid)
            worst_avg = max(worst_avg, avg_gap)
            block = otoc._costed_block(omat, ru.labels)
            rows.append([t, resid, avg_gap, *block.imag.ravel()])
    csv = out / "otoc.csv"
    _write(csv, _csv(["t", "residual", "averaged_gap",
                      "o_xx_im", "o_xp_im", "o_px_im", "o_pp_im"], rows))
    checks = [
        _check("correspondence_residual", worst, 1e-10),
        _check("averaged_identity_gap", worst_avg, 1e-10),
    ]
    return ExperimentReport(cfg.experiment, {"omega": omega, "systems": systems},
                            cfg.seed, [csv.name], checks)


def _run_qubit_geodesic(cfg: ExperimentConfig, p: dict, out: Path) -> ExperimentReport:
    """Bloch-sampled minimal protocols between two fixed near-antipodal states.

    Under isotropic weights the optimal trace is a great circle; penalising
    the z generator bends it off that plane once the separation is large
    enough that the in-plane z rotation is no longer the shortest path.
    """
    gens = pauli_generators()
    angle, penalty, n_samples = p["separation"], p["z_weight"], p["n_samples"]
    # two equatorial Bloch vectors an `angle` apart: the direct rotation
    # between them is z-generated, which the weighted metric penalises
    psi_a = np.array([1.0, 1.0]) / math.sqrt(2.0)  # +x axis
    psi_b = np.array([np.exp(-1j * angle / 2), np.exp(1j * angle / 2)]) / math.sqrt(2.0)
    normal = np.cross(geometry.bloch_vector(psi_a), geometry.bloch_vector(psi_b))
    normal /= np.linalg.norm(normal)
    solver = geometry.SolverConfig(seed=cfg.seed)
    outputs = []
    margins = {}
    lengths = {}
    for tag, weights in (
        ("isotropic", geometry.CostWeights({"sigma_x": 1.0, "sigma_y": 1.0,
                                            "sigma_z": 1.0})),
        ("weighted", geometry.CostWeights({"sigma_x": 1.0, "sigma_y": 1.0,
                                           "sigma_z": penalty})),
    ):
        geo = geometry.state_complexity(psi_a, psi_b, gens, weights, solver)
        samples = _bloch_samples(geo.path, gens, psi_a, n_samples)
        margins[tag] = float(np.abs(samples @ normal).max())
        lengths[tag] = geo.length
        csv = out / f"geodesic_{tag}.csv"
        _write(csv, _csv(["sigma", "bloch_x", "bloch_y", "bloch_z"],
                         [[s, *xyz] for s, xyz in
                          zip(np.linspace(0, 1, n_samples), samples)]))
        outputs.append(csv.name)
    # two feasible weighted paths: the in-plane z rotation, and the pi
    # rotation about the in-plane bisector; a geodesic shorter than the z
    # rotation must leave the plane, and one that is not must stay in it
    z_rotation = math.sqrt(penalty) * angle / 2
    leaves = lengths["weighted"] < z_rotation - 1e-6
    checks = [
        _check("isotropic_great_circle_margin", margins["isotropic"], 1e-6),
        _check("weighted_length_over_feasible_paths",
               lengths["weighted"] - min(z_rotation, math.pi / 2), 1e-6),
        _check("weighted_plane_deviation", margins["weighted"],
               1e-3 if leaves else 1e-6, larger_is_pass=leaves),
    ]
    return ExperimentReport(cfg.experiment,
                            {"separation": angle, "z_weight": penalty},
                            cfg.seed, outputs, checks)


def _bloch_samples(path: geometry.ProtocolPath, gens, psi0: np.ndarray,
                   n_samples: int) -> np.ndarray:
    """Bloch vectors of the state carried along a protocol path."""
    n_int = path.n_intervals
    ds = 1.0 / n_int
    controls = np.stack([path.control(g.label) for g in gens], axis=1)
    fields = np.tensordot(controls, gens.matrices(), axes=(1, 0))
    steps = geometry._exp_hermitian(ds * fields)
    # products up to each interval boundary: cum[k] = A_{k-1} ... A_0
    cum = np.concatenate([np.eye(gens.dim, dtype=complex)[None],
                          geometry._ordered_prefixes(steps)])
    s = np.linspace(0.0, 1.0, n_samples)
    k = np.minimum((s / ds).astype(int), n_int - 1)
    frac = s - k * ds
    states = (geometry._exp_hermitian(frac[:, None, None] * fields[k]) @ cum[k]) @ psi0
    return np.array([geometry.bloch_vector(psi) for psi in states])


def _run_state_response(cfg: ExperimentConfig, p: dict, out: Path) -> ExperimentReport:
    system, omega = p["system"], p["omega"]
    ham = classical.hamiltonian_from_name(system, omega=omega)
    gens = heisenberg_generators()
    state = classical.GaussianWignerState.vacuum()
    rows = []
    worst = 0.0
    for t in cfg.times():
        r = response.state_response_matrix(state, ham, gens, float(t))
        jac = classical.jacobian_matrix(ham, state.mean, float(t))
        gap = float(np.abs(r.entries - jac).max())
        worst = max(worst, gap)
        rows.append([t, *r.entries.ravel(), gap])
    csv = out / "state_response.csv"
    _write(csv, _csv(["t", "r_xx", "r_xp", "r_px", "r_pp", "jacobian_gap"], rows))
    checks = [_check("tangent_map_bridge", worst, 1e-6)]
    return ExperimentReport(cfg.experiment, {"system": system, "omega": omega},
                            cfg.seed, [csv.name], checks)


def _run_sweep(cfg: ExperimentConfig, p: dict, out: Path) -> ExperimentReport:
    """Run the target once per value, one point after another."""
    checks = []
    outputs = []
    for i, (value, point) in enumerate(zip(p["values"], _sweep_points(p))):
        rep = run_experiment(ExperimentConfig(
            experiment=p["experiment"], parameters=point, time_grid=cfg.time_grid,
            output=out / f"point_{i:03d}", seed=cfg.seed))
        outputs.append(f"point_{i:03d}/report.json")
        checks.append({"name": f"point_{i:03d}[{p['param']}={value}]",
                       "value": 0.0 if rep.passed else 1.0, "tolerance": 0.0,
                       "passed": rep.passed})
    return ExperimentReport(cfg.experiment,
                            {"experiment": p["experiment"], "param": p["param"],
                             "values": p["values"]},
                            cfg.seed, outputs, checks)


class Experiment(NamedTuple):
    run: Callable[[ExperimentConfig, dict, Path], ExperimentReport]
    help: str
    parameters: dict[str, Param]


# the one table of experiments, with each one's parameters
EXPERIMENTS: dict[str, Experiment] = {
    "iho-response": Experiment(
        _run_iho_response, "hyperbolic response matrix vs the analytic form",
        {"omega": Param(1.0, _POSITIVE, float)}),
    "lyapunov": Experiment(
        _run_lyapunov, "exponents from the response spectrum + benchmark",
        {"system": Param("iho", _system, str),
         "omega": Param(1.0, _POSITIVE, float),
         "window": Param((5.0, 10.0), _window, str)}),
    "otoc-check": Experiment(
        _run_otoc_check, "commutator-response correspondence residuals",
        {"omega": Param(1.0, _POSITIVE, float),
         "systems": Param(QUADRATIC_SYSTEMS, _systems)}),
    # at separation 0 and pi the great circle through the two states is
    # not unique
    "qubit-geodesic": Experiment(
        _run_qubit_geodesic, "Bloch samples of weighted qubit geodesics",
        {"separation": Param(2.6, _open_interval(0.0, math.pi), float),
         "z_weight": Param(1.5, _POSITIVE, float),
         "n_samples": Param(65, _sample_count)}),
    "state-response": Experiment(
        _run_state_response, "Gaussian state response vs the tangent map",
        {"system": Param("iho", _system, str),
         "omega": Param(1.0, _POSITIVE, float)}),
    # each point runs the target with base plus {param: value}
    "sweep": Experiment(
        _run_sweep, "run an experiment over a parameter list",
        {"experiment": Param(None, _sweep_target, str),
         "param": Param(None, _name, str),
         "values": Param(None, _values, str),
         "base": Param({}, dict)}),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute a named experiment, writing data files and report.json."""
    params = cfg.validate()
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    report = EXPERIMENTS[cfg.experiment].run(cfg, params, out)
    _write(out / "report.json",
           json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    return report


# ---------------------------------------------------------------------------
# command line


def _config_from_file(path: Path) -> ExperimentConfig:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable file or malformed JSON
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {str(path)!r} must hold a JSON object")
    for key in doc:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r} in {str(path)!r}; "
                              f"expected some of {list(CONFIG_KEYS)}")
    try:
        cfg = ExperimentConfig(**doc)
        cfg.output = Path(cfg.output)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config {str(path)!r}: {exc}") from None
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geochaos",
        description="complexity-geometry chaos diagnostics experiment runner")
    parser.add_argument("--config", type=Path,
                        help="JSON experiment config (overrides other flags)")
    sub = parser.add_subparsers(dest="experiment")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=Path)
    common.add_argument("--seed", type=int)
    common.add_argument("--t-grid", help="time grid start:end:npoints")
    for name, experiment in EXPERIMENTS.items():
        p = sub.add_parser(name, parents=[common], help=experiment.help)
        # the sweep's --experiment flag overwrites args.experiment
        p.set_defaults(command=name)
        for key, param in experiment.parameters.items():
            if param.flag is not None:
                p.add_argument("--" + key.replace("_", "-"), type=param.flag)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        return _config_from_file(Path(args.config))
    command = getattr(args, "command", None)
    if command is None:
        raise ConfigError("no experiment given (see --help)")
    flags = vars(args)
    params = {key: flags[key] for key in EXPERIMENTS[command].parameters
              if flags.get(key) is not None}
    output = args.output or Path(f"geochaos-{command}")
    cfg = ExperimentConfig(experiment=command, parameters=params,
                           output=Path(os.environ.get("GEOCHAOS_OUTPUT", output)))
    if args.t_grid is not None:
        cfg.time_grid = args.t_grid
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failure contract
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return 1
    status = "ok" if report.passed else "CHECK FAILED"
    for c in report.checks:
        mark = "pass" if c["passed"] else "FAIL"
        print(f"[{mark}] {c['name']}: {c['value']:.3g} (tol {c['tolerance']:.3g})")
    print(f"{cfg.experiment}: {status}; report in {cfg.output}/report.json")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
