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

_ARTIFACTS = ("report.json", "metrics.json", "coeffs.csv", "theta_star.csv",
              "trajectory.csv", "adjoint.csv", "manifest.json")

_DEFAULTS_SOLVER = {"gamma0": 0.5, "eps_tol": 1e-6, "max_iters": 50,
                    "line_search": "backtracking", "init": "zeros"}


def _reject_unknown(section: str, obj, allowed: set) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {sorted(unknown)}")


def _require(section: str, obj: dict, key: str):
    if key not in obj:
        raise ConfigError(f"missing required field {section}.{key}")
    return obj[key]


_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max


def _number(section: str, obj: dict, key: str, default=_REQUIRED,
            integer: bool = False):
    """obj[key], or default when the key is absent, as a float, or as an int
    if integer; ConfigError naming the key for anything but a finite JSON
    number, or a JSON integer where integer."""
    if key not in obj and default is not _REQUIRED:
        return default
    v = _require(section, obj, key)
    if integer:
        ok = type(v) is int
    else:
        ok = type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX
    if not ok:
        want = "an integer" if integer else "a finite number"
        raise ConfigError(f"{section}.{key} must be {want}, got {v!r}")
    return v if integer else float(v)


def _typed(section: str, obj: dict, key: str, kind: type,
           default=_REQUIRED):
    """obj[key], or default when the key is absent; ConfigError naming the
    key unless it is a JSON value of type kind, bool or str."""
    if key not in obj and default is not _REQUIRED:
        return default
    v = _require(section, obj, key)
    if type(v) is not kind:
        want = "true or false" if kind is bool else "a string"
        raise ConfigError(f"{section}.{key} must be {want}, got {v!r}")
    return v


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    _reject_unknown("config root", cfg, _SECTIONS)
    for sec in ("data", "model", "control"):
        if sec not in cfg:
            raise ConfigError(f"missing required section {sec!r}")
    for sec in cfg:
        _reject_unknown(sec, cfg[sec], _KEYS[sec])
    if "source" in cfg["data"]:
        _reject_unknown("data.source", cfg["data"]["source"], _KEYS["source"])
    _validate_control(cfg["control"])
    artifacts = cfg.get("output", {}).get("artifacts", [])
    if not (isinstance(artifacts, list)
            and all(a in _ARTIFACTS for a in artifacts)):
        raise ConfigError(f"output.artifacts must be a list of names from "
                          f"{list(_ARTIFACTS)}, got {artifacts!r}")
    return cfg


def _validate_control(control: dict) -> None:
    # compact control set, fixed horizon, small perturbation parameter
    if not _number("control", control, "u_max") > 0:
        raise ConfigError("control.u_max must be > 0 (compact control set)")
    if not _number("control", control, "t_final") > 0:
        raise ConfigError("control.t_final must be > 0")
    if not 0 < _number("control", control, "eps") <= 1.0:
        raise ConfigError("control.eps must lie in (0, 1]")


# -- dataset pipeline ------------------------------------------------------

def synth_dataset(source: dict) -> Dataset:
    """Generate a synthetic regression dataset from a generator spec."""
    kind = _require("data.source", source, "kind")
    m = _number("data.source", source, "m", integer=True)
    if m < 1:
        raise ConfigError("data.source.m must be >= 1")
    d = _number("data.source", source, "d", 1, integer=True)
    if d < 1:
        raise ConfigError("data.source.d must be >= 1")
    noise = _number("data.source", source, "noise", 0.0)
    rng = np.random.default_rng(
        _number("data.source", source, "seed", 0, integer=True))
    x = rng.standard_normal((m, d))
    if kind == "linear":
        scale = _number("data.source", source, "theta_scale", 1.0)
        y = x @ (scale * rng.standard_normal(d))
    elif kind == "sinusoid":
        amp = _number("data.source", source, "amplitude", 1.0)
        freq = _number("data.source", source, "frequency", 1.0)
        y = amp * np.sin(freq * x.sum(axis=1))
    else:
        raise ConfigError(f"unknown generator kind {kind!r}")
    if noise > 0:
        y = y + noise * rng.standard_normal(m)
    return Dataset(x, y, tag="original")


def build_data(data_cfg: dict, seed_override: int | None = None) -> ProblemData:
    source = _require("data", data_cfg, "source")
    if source.get("kind") == "csv":
        z0 = load_csv(_typed("data.source", source, "path", str))
    else:
        z0 = synth_dataset(source)
    m_train = _number("data", data_cfg, "m_train", integer=True)
    m_val = _number("data", data_cfg, "m_val", integer=True)
    replacement = _typed("data", data_cfg, "replacement", bool, True)
    noise_level = _number("data", data_cfg, "noise_level", 0.05)
    off = 0 if seed_override is None else seed_override

    def seed(key: str, default: int) -> int:
        return _number("data", data_cfg, key, default, integer=True) + off

    z1 = bootstrap(z0, m_train, replacement, seed("seed_bootstrap_train", 1),
                   tag="train")
    z2 = bootstrap(z0, m_val, replacement, seed("seed_bootstrap_val", 2),
                   tag="validation")
    z1d = dither(z1, noise_level, seed("seed_dither", 3))
    return ProblemData(z1, z1d, z2)


def build_oracle(model_cfg: dict, d: int) -> ModelOracle:
    family = _require("model", model_cfg, "family")
    if family == "linear_features":
        return ModelOracle(family, d,
                           degree=_number("model", model_cfg, "degree", 1,
                                          integer=True),
                           include_bias=_typed("model", model_cfg,
                                               "include_bias", bool, False))
    if family == "mlp_tanh":
        return ModelOracle(family, d, hidden=_number("model", model_cfg,
                                                     "hidden", 4,
                                                     integer=True))
    raise ConfigError(f"unknown model family {family!r}")


def build_solver_config(cfg: dict) -> SolverConfig:
    control = cfg["control"]
    solver = {**_DEFAULTS_SOLVER, **cfg.get("solver", {})}
    basis = BasisSpec(control.get("basis", "legendre_shifted"),
                      _number("control", control, "n_basis", 4, integer=True),
                      _number("control", control, "t_final"))
    theta0 = cfg["model"].get("theta0")
    theta0 = (None if theta0 in (None, "zeros")
              else np.asarray(theta0, dtype=float))
    if cfg["model"]["family"] == "mlp_tanh" and (theta0 is None
                                                 or not theta0.any()):
        raise ConfigError(
            "model.theta0 = 0 is a saddle of the mlp_tanh loss: D = (grad "
            "J~0)^2 vanishes there on W1, b1 and w2, so only b2 could be "
            "trained; give a non-zero model.theta0")
    init = solver["init"]
    if init not in ("zeros",) and not isinstance(init, list):
        raise ConfigError("solver.init must be 'zeros' or a coefficient matrix")
    c0 = np.asarray(init, dtype=float) if isinstance(init, list) else None
    if solver["line_search"] != "backtracking":
        raise ConfigError("solver.line_search must be 'backtracking'")
    try:
        return SolverConfig(
            eps=_number("control", control, "eps"),
            steps=_number("control", control, "steps", 200, integer=True),
            basis=basis,
            u_max=_number("control", control, "u_max"),
            gamma0=_number("solver", solver, "gamma0"),
            eps_tol=_number("solver", solver, "eps_tol"),
            max_iters=_number("solver", solver, "max_iters", integer=True),
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
    wanted = cfg.get("output", {}).get("artifacts", _ARTIFACTS)
    if "report.json" in wanted:
        _write_json(out / "report.json", report.to_dict())
    if "metrics.json" in wanted:
        _write_json(out / "metrics.json", {
            "cost_null_control": null_cost,
            "cost_final": report.final_cost,
            "improvement": null_cost - report.final_cost,
            "iterations": len(report.iterations),
            "converged": report.converged,
            "stop_reason": report.stop_reason,
        })
    if "coeffs.csv" in wanted:
        c = report.final_coeffs.c
        _write_matrix_csv(out / "coeffs.csv", c,
                          [f"c{j+1}" for j in range(c.shape[1])])
    if "theta_star.csv" in wanted:
        _write_matrix_csv(out / "theta_star.csv", report.theta_star[None, :],
                          [f"theta{i+1}" for i in range(len(report.theta_star))])
    if "trajectory.csv" in wanted:
        _write_nodes_csv(out / "trajectory.csv", traj.grid, traj.theta_nodes,
                         "theta")
    if adj is not None and "adjoint.csv" in wanted:
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
