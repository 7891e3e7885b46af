"""Experiment runner: named pipelines, sweeps, CSV/JSON emission.

Each experiment writes CSV series (header row, 15 significant digits), a
``report.json`` with inputs, residuals and built-in invariant checks, and
optional plot-sample files.  Reports are deterministic for a given config
and seed: no timestamps, sorted keys.

Exit codes: 0 success, 1 pipeline failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import classical, geometry, otoc, response
from .generators import heisenberg_generators, pauli_generators

EXPERIMENTS = ("iho-response", "lyapunov", "otoc-check", "qubit-geodesic",
               "state-response", "sweep")
# the phase-space pipelines need an exact flow_matrix(t)
QUADRATIC_SYSTEMS = ("iho", "harmonic", "free")


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


@dataclass
class ExperimentConfig:
    experiment: str
    parameters: dict = field(default_factory=dict)
    time_grid: tuple[float, float, int] = (0.0, 5.0, 11)
    output: Path = Path("geochaos-out")
    seed: int = 0
    jobs: int = 1

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        try:
            t0, t1, n = self.time_grid
            ordered = t1 > t0 >= 0.0
        except (TypeError, ValueError):
            raise ConfigError("time grid must be numbers [start, end, npoints]") from None
        if not isinstance(n, int):
            raise ConfigError(f"time grid point count must be an integer, got {n!r}")
        if not ordered:
            raise ConfigError("time grid must satisfy t_end > t_start >= 0")
        if n < 2:
            raise ConfigError("time grid needs at least 2 points")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if not isinstance(self.parameters, dict):
            raise ConfigError("parameters must be a JSON object")
        if self.experiment in ("lyapunov", "state-response"):
            systems = [self.parameters.get("system", "iho")]
        elif self.experiment == "otoc-check":
            systems = self.parameters.get("systems", QUADRATIC_SYSTEMS)
            if not isinstance(systems, (list, tuple)):
                raise ConfigError("otoc-check systems must be a list of names")
        else:
            systems = []
        for name in systems:
            if name not in QUADRATIC_SYSTEMS:
                raise ConfigError(f"{self.experiment} needs a quadratic system, "
                                  f"one of {list(QUADRATIC_SYSTEMS)}; got {name!r}")

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


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.15g}" for v in row) + "\n")


def _check(name: str, value: float, tol: float, larger_is_pass: bool = False) -> dict:
    passed = value > tol if larger_is_pass else value <= tol
    return {"name": name, "value": float(value), "tolerance": float(tol),
            "passed": bool(passed)}


# ---------------------------------------------------------------------------
# individual experiments


def _run_iho_response(cfg: ExperimentConfig, out: Path) -> ExperimentReport:
    omega = float(cfg.parameters.get("omega", 1.0))
    if omega <= 0:
        raise ConfigError("omega must be positive")
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
    _write_csv(csv, ["t", "r_xx", "r_xp", "r_px", "r_pp", "s_1", "s_2"], rows)
    checks = [_check("analytic_parity_rel_err", worst, 1e-6)]
    return ExperimentReport(cfg.experiment, {"omega": omega},
                            cfg.seed, [csv.name], checks)


def _run_lyapunov(cfg: ExperimentConfig, out: Path) -> ExperimentReport:
    system = cfg.parameters.get("system", "iho")
    omega = float(cfg.parameters.get("omega", 1.0))
    window = cfg.parameters.get("window", (5.0, 10.0))
    if omega <= 0:
        raise ConfigError("omega must be positive")
    ham = classical.hamiltonian_from_name(system, omega=omega)
    gens = heisenberg_generators()
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0 >= 0.0:
        raise ConfigError("window must satisfy t_max > t_min >= 0")
    times = np.linspace(t0, t1, max(cfg.time_grid[2], 11))
    spectra = [response.response_spectrum(
        response.unitary_response_matrix(ham, gens, float(t))) for t in times]
    est = response.lyapunov_spectrum(spectra, (t0, t1))
    bench = classical.classical_lyapunov(
        ham, np.array([1.0, 0.5]), t_total=max(60.0, 4 * t1))
    rows = [[sp.time, *sp.eigenvalues] for sp in spectra]
    csv = out / "spectrum.csv"
    _write_csv(csv, ["t", "s_1", "s_2"], rows)
    traj = classical.evolve_flow(ham, np.array([1.0, 0.5]), t1,
                                 n_samples=max(cfg.time_grid[2], 11))
    traj_csv = out / "trajectory.csv"
    traj.to_csv(traj_csv)
    if system == "iho":
        # the hyperbolic window measures the t -> infinity rate
        checks = [_check("response_exponents_vs_expected",
                         float(np.abs(est.lambdas - [omega, -omega]).max()), 0.01),
                  _check("response_vs_classical_benchmark",
                         float(np.abs(est.lambdas - bench.lambdas).max()), 0.02)]
    else:
        # S(t) grows like t (free) or oscillates (harmonic), so a finite
        # window does not fit the rate 0: compare with the same fit of the
        # closed-form S(t)
        closed = [classical._flow_response_analytic(system, omega, float(t)) for t in times]
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


def _run_otoc_check(cfg: ExperimentConfig, out: Path) -> ExperimentReport:
    omega = float(cfg.parameters.get("omega", 1.0))
    systems = cfg.parameters.get("systems", QUADRATIC_SYSTEMS)
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
    _write_csv(csv, ["t", "residual", "averaged_gap",
                     "o_xx_im", "o_xp_im", "o_px_im", "o_pp_im"], rows)
    checks = [
        _check("correspondence_residual", worst, 1e-10),
        _check("averaged_identity_gap", worst_avg, 1e-10),
    ]
    return ExperimentReport(cfg.experiment,
                            {"omega": omega, "systems": list(systems)},
                            cfg.seed, [csv.name], checks)


def _run_qubit_geodesic(cfg: ExperimentConfig, out: Path) -> ExperimentReport:
    """Bloch-sampled minimal protocols between two fixed near-antipodal states.

    Under isotropic weights the optimal trace is a great circle; penalising
    the z generator bends it off that plane once the separation is large
    enough that the in-plane z rotation is no longer the shortest path.
    """
    gens = pauli_generators()
    angle = float(cfg.parameters.get("separation", 2.6))
    penalty = float(cfg.parameters.get("z_weight", 1.5))
    n_samples = int(cfg.parameters.get("n_samples", 65))
    # at 0 and pi the great circle through the two states is not unique
    if not 0.0 < angle < math.pi:
        raise ConfigError("separation must lie in (0, pi)")
    if not 0.0 < penalty < math.inf:
        raise ConfigError("z_weight must be finite and > 0")
    if n_samples < 2:
        raise ConfigError("n_samples must be >= 2")
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
        _write_csv(csv, ["sigma", "bloch_x", "bloch_y", "bloch_z"],
                   [[s, *xyz] for s, xyz in
                    zip(np.linspace(0, 1, n_samples), samples)])
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


def _run_state_response(cfg: ExperimentConfig, out: Path) -> ExperimentReport:
    omega = float(cfg.parameters.get("omega", 1.0))
    system = cfg.parameters.get("system", "iho")
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
    _write_csv(csv, ["t", "r_xx", "r_xp", "r_px", "r_pp", "jacobian_gap"], rows)
    checks = [_check("tangent_map_bridge", worst, 1e-6)]
    return ExperimentReport(cfg.experiment, {"system": system, "omega": omega},
                            cfg.seed, [csv.name], checks)


def _run_sweep(cfg: ExperimentConfig, out: Path) -> ExperimentReport:
    target = cfg.parameters.get("experiment")
    param = cfg.parameters.get("param")
    values = cfg.parameters.get("values")
    if target in (None, "sweep") or target not in EXPERIMENTS:
        raise ConfigError("sweep needs a valid target experiment")
    if not param or not values:
        raise ConfigError("sweep needs 'param' and a list of 'values'")

    def run_point(i_v):
        i, v = i_v
        sub_params = dict(cfg.parameters.get("base", {}))
        sub_params[param] = v
        sub = ExperimentConfig(experiment=target, parameters=sub_params,
                               time_grid=cfg.time_grid,
                               output=out / f"point_{i:03d}", seed=cfg.seed)
        return i, run_experiment(sub)

    points = list(enumerate(values))
    if cfg.jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(run_point, points))
    else:
        results = [run_point(p) for p in points]
    results.sort(key=lambda r: r[0])
    checks = []
    outputs = []
    for i, rep in results:
        outputs.append(f"point_{i:03d}/report.json")
        checks.append({"name": f"point_{i:03d}[{param}={values[i]}]",
                       "value": 0.0 if rep.passed else 1.0, "tolerance": 0.0,
                       "passed": rep.passed})
    return ExperimentReport(cfg.experiment,
                            {"experiment": target, "param": param,
                             "values": list(values)},
                            cfg.seed, outputs, checks)


_RUNNERS = {
    "iho-response": _run_iho_response,
    "lyapunov": _run_lyapunov,
    "otoc-check": _run_otoc_check,
    "qubit-geodesic": _run_qubit_geodesic,
    "state-response": _run_state_response,
    "sweep": _run_sweep,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute a named experiment, writing data files and report.json."""
    cfg.validate()
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    report = _RUNNERS[cfg.experiment](cfg, out)
    with (out / "report.json").open("w") as fh:
        json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


# ---------------------------------------------------------------------------
# command line


def _parse_numbers(text: str, what: str, form: str, kinds) -> tuple:
    """Colon-separated numbers converted by kinds, e.g. a time grid start:end:npoints."""
    parts = text.split(":")
    if len(parts) != len(kinds):
        raise ConfigError(f"{what} must be {form}")
    try:
        return tuple(kind(part) for kind, part in zip(kinds, parts))
    except ValueError:
        raise ConfigError(f"bad {what} {text!r}") from None


def _parse_values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad sweep values {text!r}") from None


def _config_from_file(path: Path) -> ExperimentConfig:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable file or malformed JSON
        raise ConfigError(f"cannot read config {str(path)!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {str(path)!r} must hold a JSON object")
    try:
        return ExperimentConfig(
            experiment=doc.get("experiment", ""),
            parameters=doc.get("parameters", {}),
            time_grid=tuple(doc.get("time_grid", (0.0, 5.0, 11))),
            output=Path(doc.get("output", "geochaos-out")),
            seed=int(doc.get("seed", 0)),
            jobs=int(doc.get("jobs", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config {str(path)!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geochaos",
        description="complexity-geometry chaos diagnostics experiment runner")
    parser.add_argument("--config", type=Path,
                        help="JSON experiment config (overrides other flags)")
    sub = parser.add_subparsers(dest="experiment")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=Path, default=None)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--t-grid", type=str, default="0:5:11",
                        help="time grid start:end:npoints")

    p = sub.add_parser("iho-response", parents=[common],
                       help="hyperbolic response matrix vs the analytic form")
    p.add_argument("--omega", type=float, default=1.0)

    p = sub.add_parser("lyapunov", parents=[common],
                       help="exponents from the response spectrum + benchmark")
    p.add_argument("--system", choices=QUADRATIC_SYSTEMS, default="iho")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--window", type=str, default="5:10")

    p = sub.add_parser("otoc-check", parents=[common],
                       help="commutator-response correspondence residuals")
    p.add_argument("--omega", type=float, default=1.0)

    p = sub.add_parser("qubit-geodesic", parents=[common],
                       help="Bloch samples of weighted qubit geodesics")
    p.add_argument("--separation", type=float, default=2.6)
    p.add_argument("--z-weight", type=float, default=1.5)

    p = sub.add_parser("state-response", parents=[common],
                       help="Gaussian state response vs the tangent map")
    p.add_argument("--system", choices=QUADRATIC_SYSTEMS, default="iho")
    p.add_argument("--omega", type=float, default=1.0)

    p = sub.add_parser("sweep", parents=[common],
                       help="run an experiment over a parameter list")
    p.add_argument("--experiment", dest="target", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated parameter values")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    if args.config is not None:
        return _config_from_file(Path(args.config))
    if not args.experiment:
        raise ConfigError("no experiment given (see --help)")
    params: dict = {}
    for key in ("omega", "system", "separation"):
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if hasattr(args, "z_weight"):
        params["z_weight"] = args.z_weight
    if hasattr(args, "window"):
        params["window"] = _parse_numbers(args.window, "window", "t_min:t_max",
                                          (float, float))
    if args.experiment == "sweep":
        params = {"experiment": args.target, "param": args.param,
                  "values": _parse_values(args.values)}
    output = args.output or Path(f"geochaos-{args.experiment}")
    output = Path(os.environ.get("GEOCHAOS_OUTPUT", output))
    grid = _parse_numbers(args.t_grid, "time grid", "start:end:npoints",
                          (float, float, int))
    return ExperimentConfig(experiment=args.experiment, parameters=params,
                            time_grid=grid, output=output, seed=args.seed,
                            jobs=args.jobs)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        cfg.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
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
