"""Experiment driver: config validation, dataset pipeline, solver, artifacts.

Subcommands: synth, run, baseline, gradcheck, dpcheck.  Every run writes a
manifest (config hash, seeds, versions) so artifacts reproduce bit-exactly.
Exit codes: 0 success, 1 check/validation failure, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisSpec, zero_coefficients
from .dataset import Dataset, bootstrap, dither, load_csv, save_csv
from .dynamics import integrate_adjoint
from .model import ModelOracle, phi_value
from .sga import ProblemData, SolverConfig, SolverReport, cost, forward, solve
from .verify import (check_coefficient_gradient, check_dp_identity,
                     check_rk4_order)


class ConfigError(ValueError):
    pass


# -- config schema ---------------------------------------------------------

_SECTIONS = {"data", "model", "control", "solver", "output"}

_KEYS = {
    "data": {"source", "m_train", "m_val", "replacement", "noise_level",
             "seed_bootstrap_train", "seed_bootstrap_val", "seed_dither"},
    "source": {"kind", "path", "d", "m", "noise", "seed", "theta_scale",
               "amplitude", "frequency"},
    "model": {"family", "degree", "include_bias", "hidden", "theta0"},
    "control": {"eps", "t_final", "steps", "basis", "n_basis", "u_max"},
    "solver": {"gamma0", "eps_tol", "max_iters", "line_search", "init"},
    "output": {"dir", "artifacts"},
}

_DEFAULTS_SOLVER = {"gamma0": 0.5, "eps_tol": 1e-6, "max_iters": 50,
                    "line_search": "backtracking", "init": "zeros"}


def _reject_unknown(section: str, obj: dict, allowed: set) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")


def _require(section: str, obj: dict, key: str):
    if key not in obj:
        raise ConfigError(f"missing required field {section}.{key}")
    return obj[key]


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown("config", cfg, _SECTIONS)
    for sec in ("data", "model", "control"):
        if sec not in cfg:
            raise ConfigError(f"missing required section {sec!r}")
        if not isinstance(cfg[sec], dict):
            raise ConfigError(f"section {sec!r} must be an object")
        _reject_unknown(sec, cfg[sec], _KEYS[sec])
    for sec in ("solver", "output"):
        if sec in cfg:
            _reject_unknown(sec, cfg[sec], _KEYS[sec])
    if "source" in cfg["data"]:
        _reject_unknown("data.source", cfg["data"]["source"], _KEYS["source"])
    _validate_control(cfg["control"])
    return cfg


def _validate_control(control: dict) -> None:
    # compact control set, fixed horizon, small perturbation parameter
    u_max = _require("control", control, "u_max")
    if not u_max > 0:
        raise ConfigError("control.u_max must be > 0 (compact control set)")
    t_final = _require("control", control, "t_final")
    if not t_final > 0:
        raise ConfigError("control.t_final must be > 0")
    eps = _require("control", control, "eps")
    if not (0 < eps <= 1.0):
        raise ConfigError("control.eps must lie in (0, 1]")


# -- dataset pipeline ------------------------------------------------------

def synth_dataset(source: dict) -> Dataset:
    """Generate a synthetic regression dataset from a generator spec."""
    kind = _require("data.source", source, "kind")
    m = int(_require("data.source", source, "m"))
    if m < 1:
        raise ConfigError("data.source.m must be >= 1")
    d = int(source.get("d", 1))
    if d < 1:
        raise ConfigError("data.source.d must be >= 1")
    noise = float(source.get("noise", 0.0))
    rng = np.random.default_rng(int(source.get("seed", 0)))
    x = rng.standard_normal((m, d))
    if kind == "linear":
        theta_true = float(source.get("theta_scale", 1.0)) * rng.standard_normal(d)
        y = x @ theta_true
    elif kind == "sinusoid":
        amp = float(source.get("amplitude", 1.0))
        freq = float(source.get("frequency", 1.0))
        y = amp * np.sin(freq * x.sum(axis=1))
    else:
        raise ConfigError(f"unknown generator kind {kind!r}")
    if noise > 0:
        y = y + noise * rng.standard_normal(m)
    return Dataset(x, y, tag="original")


def build_data(data_cfg: dict, seed_override: int | None = None) -> ProblemData:
    source = _require("data", data_cfg, "source")
    if source.get("kind") == "csv":
        z0 = load_csv(_require("data.source", source, "path"))
    else:
        z0 = synth_dataset(source)
    m_train = int(_require("data", data_cfg, "m_train"))
    m_val = int(_require("data", data_cfg, "m_val"))
    replacement = bool(data_cfg.get("replacement", True))
    noise_level = float(data_cfg.get("noise_level", 0.05))
    off = 0 if seed_override is None else seed_override
    s_tr = int(data_cfg.get("seed_bootstrap_train", 1)) + off
    s_va = int(data_cfg.get("seed_bootstrap_val", 2)) + off
    s_di = int(data_cfg.get("seed_dither", 3)) + off
    z1 = bootstrap(z0, m_train, replacement, s_tr, tag="train")
    z2 = bootstrap(z0, m_val, replacement, s_va, tag="validation")
    z1d = dither(z1, noise_level, s_di)
    return ProblemData(z1, z1d, z2)


def build_oracle(model_cfg: dict, d: int) -> ModelOracle:
    family = _require("model", model_cfg, "family")
    if family == "linear_features":
        return ModelOracle(family, d, degree=int(model_cfg.get("degree", 1)),
                           include_bias=bool(model_cfg.get("include_bias", False)))
    if family == "mlp_tanh":
        return ModelOracle(family, d, hidden=int(model_cfg.get("hidden", 4)))
    raise ConfigError(f"unknown model family {family!r}")


def build_solver_config(cfg: dict) -> SolverConfig:
    control = cfg["control"]
    solver = {**_DEFAULTS_SOLVER, **cfg.get("solver", {})}
    t_final = float(control["t_final"])
    basis = BasisSpec(control.get("basis", "legendre_shifted"),
                      int(control.get("n_basis", 4)), t_final)
    theta0 = cfg["model"].get("theta0")
    if theta0 is not None and theta0 != "zeros":
        theta0 = np.asarray(theta0, dtype=float)
    else:
        theta0 = None
    init = solver["init"]
    if init not in ("zeros",) and not isinstance(init, list):
        raise ConfigError("solver.init must be 'zeros' or a coefficient matrix")
    c0 = np.asarray(init, dtype=float) if isinstance(init, list) else None
    if solver["line_search"] != "backtracking":
        raise ConfigError("solver.line_search must be 'backtracking'")
    try:
        return SolverConfig(
            eps=float(control["eps"]),
            t_final=t_final,
            steps=int(control.get("steps", 200)),
            basis=basis,
            u_max=float(control["u_max"]),
            gamma0=float(solver["gamma0"]),
            eps_tol=float(solver["eps_tol"]),
            max_iters=int(solver["max_iters"]),
            theta0=theta0,
            c0=c0,
        )
    except ValueError as exc:
        raise ConfigError(str(exc))


# -- artifact emission -----------------------------------------------------

def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_matrix_csv(path: Path, mat: np.ndarray, header: list[str]) -> None:
    lines = [",".join(header)]
    for row in np.atleast_2d(mat):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_nodes_csv(path: Path, grid, vals: np.ndarray, name: str) -> None:
    header = ["t"] + [f"{name}{i+1}" for i in range(vals.shape[1])]
    _write_matrix_csv(path, np.column_stack([grid.nodes, vals]), header)


def _emit_run(out: Path, cfg: dict, seed_override, report: SolverReport,
              null_cost: float, traj, adj=None) -> None:
    """Write the artifacts output.artifacts names (all by default) and the
    manifest; adjoint.csv only when an adjoint is given."""
    wanted = cfg.get("output", {}).get("artifacts")

    def want(name):
        return wanted is None or name in wanted

    if want("report.json"):
        _write_json(out / "report.json", report.to_dict())
    if want("metrics.json"):
        _write_json(out / "metrics.json", {
            "cost_null_control": null_cost,
            "cost_final": report.final_cost,
            "improvement": null_cost - report.final_cost,
            "iterations": len(report.iterations),
            "converged": report.converged,
            "stop_reason": report.stop_reason,
        })
    if want("coeffs.csv"):
        c = report.final_coeffs.c
        _write_matrix_csv(out / "coeffs.csv", c,
                          [f"c{j+1}" for j in range(c.shape[1])])
    if want("theta_star.csv"):
        _write_matrix_csv(out / "theta_star.csv", report.theta_star[None, :],
                          [f"theta{i+1}" for i in range(len(report.theta_star))])
    if want("trajectory.csv"):
        _write_nodes_csv(out / "trajectory.csv", traj.grid, traj.theta_nodes,
                         "theta")
    if adj is not None and want("adjoint.csv"):
        _write_nodes_csv(out / "adjoint.csv", adj.grid, adj.p_nodes, "p")
    _write_json(out / "manifest.json", {
        "config_hash": _config_hash(cfg),
        "config": cfg,
        "seed_override": seed_override,
        "versions": {"sgaflow": __version__, "numpy": np.__version__},
    })


# -- subcommands -----------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    source = _require("data", cfg["data"], "source")
    if args.seed is not None:
        source = {**source, "seed": args.seed}
    ds = synth_dataset(source)
    out = Path(args.out or "dataset.csv")
    if out.is_dir():
        out = out / "dataset.csv"
    save_csv(ds, out)
    if not args.quiet:
        print(f"wrote {out} (m={ds.m}, d={ds.d})")
    return 0


def _pipeline(args):
    cfg = load_config(args.config)
    data = build_data(cfg["data"], args.seed)
    oracle = build_oracle(cfg["model"], data.z_train.d)
    config = build_solver_config(cfg)
    out = Path(args.out or cfg.get("output", {}).get("dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return cfg, data, oracle, config, out


def cmd_run(args) -> int:
    cfg, data, oracle, config, out = _pipeline(args)
    p = oracle.param_dim
    report = solve(oracle, config, data)
    # from the zero initial control, the first sweep's cost is the null
    # control's, computed the same way
    null_cost = (report.iterations[0].cost if config.c0 is None else
                 cost(oracle, zero_coefficients(p, config.basis, config.u_max),
                      config, data))
    traj = forward(oracle, report.final_coeffs, config, data)
    adj = integrate_adjoint(oracle, traj, report.final_coeffs, config.eps,
                            data.z_train, data.z_dith, data.z_val)
    _emit_run(out, cfg, args.seed, report, null_cost, traj, adj)
    if not args.quiet:
        print(f"J[0]={null_cost:.6e}  J[u*]={report.final_cost:.6e}  "
              f"iters={len(report.iterations)}  stop={report.stop_reason}")
    return 0


def cmd_baseline(args) -> int:
    """The null control as a zero-iteration run."""
    cfg, data, oracle, config, out = _pipeline(args)
    coeffs = zero_coefficients(oracle.param_dim, config.basis, config.u_max)
    traj = forward(oracle, coeffs, config, data)
    j0 = phi_value(oracle, traj.theta_final, data.z_val)
    report = SolverReport([], coeffs, traj.theta_final, j0, False, "baseline")
    _emit_run(out, cfg, args.seed, report, j0, traj)
    if not args.quiet:
        print(f"J[0]={j0:.6e}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg, data, oracle, config, out = _pipeline(args)
    tol = 1e-5 if oracle.family == "linear_features" else 1e-3
    reports = [
        check_coefficient_gradient(oracle, config, data, tol=tol),
        check_rk4_order(oracle, config, data),
    ]
    _write_json(out / "gradcheck.json", [r.to_dict() for r in reports])
    ok = all(r.passed for r in reports)
    if not args.quiet:
        for r in reports:
            print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} "
                  f"(err={r.max_rel_err:.3e}, tol={r.tol:.1e})")
    return 0 if ok else 1


def cmd_dpcheck(args) -> int:
    cfg, data, oracle, config, out = _pipeline(args)
    if oracle.param_dim > 3:
        print(f"dpcheck refused: p <= 3 required, got p={oracle.param_dim}",
              file=sys.stderr)
        return 1
    report = check_dp_identity(oracle, config, data)
    _write_json(out / "dpcheck.json", report.to_dict())
    if not args.quiet:
        print(f"{report.name}: {'PASS' if report.passed else 'FAIL'} "
              f"(err={report.max_rel_err:.3e}, tol={report.tol:.1e})")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgaflow",
        description="Optimal-control training via successive Galerkin approximation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("synth", cmd_synth), ("run", cmd_run),
                     ("baseline", cmd_baseline), ("gradcheck", cmd_gradcheck),
                     ("dpcheck", cmd_dpcheck)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=None,
                        help="override the config seeds")
        sp.add_argument("--quiet", action="store_true")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
