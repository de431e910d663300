"""Experiment driver: config schema, dataset pipeline, solver, artifacts.

Subcommands: synth, run, baseline, gradcheck, dpcheck.  _SCHEMA is the one
table a config is checked against.  --seed replaces data.source.seed for
synth; the other commands add it to the bootstrap and dither seeds.  Every
run writes a manifest (config hash, seeds, versions) so artifacts reproduce
bit-exactly.  Exit codes: 0 success, 1 check/validation failure (naming the
key or path), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import BasisSpec
from .dataset import Dataset, bootstrap, dither, load_csv, save_csv
from .dynamics import integrate_adjoint
from .model import ModelOracle
from .sga import (Problem, ProblemData, SolverConfig, SolverReport, cost,
                  forward, solve)
from .verify import (check_coefficient_gradient, check_dp_identity,
                     check_rk4_order, verdict)


class ConfigError(ValueError):
    pass


# -- config schema ---------------------------------------------------------
# One table: section -> key -> (kind, default), each section under the
# prefix of its keys' dotted names ("" for the top level).  A kind is a
# (description, predicate) pair over the JSON value; _and narrows one by a
# constraint.
# load_config checks each value present once, and the build_* functions
# read through _reader, which supplies the default or names a missing key.
# Names and counts are checked here, so their errors name the key; the
# other bounds that BasisSpec, SolverConfig, ModelOracle, bootstrap and
# dither enforce, and checks that need p or n (theta0's length, init's
# shape, the finiteness of both), stay with them.

_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max
_ARTIFACTS = ("report.json", "metrics.json", "coeffs.csv", "theta_star.csv",
              "trajectory.csv", "adjoint.csv", "manifest.json")


def _numbers(v) -> bool:
    # by type, as a JSON true is a Python bool and so an int
    return type(v) is list and {*map(type, v)} <= {int, float}


def _one_of(*names: str):
    return (f"one of {list(names)}", lambda v: v in names)


def _and(kind, want: str, ok):
    return (f"{kind[0]} {want}", lambda v: kind[1](v) and ok(v))


_SECTION = ("a JSON object", None)   # checked against its own table
_INT = ("an integer", lambda v: type(v) is int)
_NUM = ("a finite number", lambda v: type(v) in (int, float)
        and -_FLOAT_MAX <= v <= _FLOAT_MAX)
_BOOL = ("true or false", lambda v: type(v) is bool)
_STR = ("a string", lambda v: type(v) is str)
_VECTOR = ('"zeros" or a list of numbers',
           lambda v: v == "zeros" or _numbers(v))
_MATRIX = ('"zeros" or a list of equal-length lists of numbers',
           lambda v: v == "zeros" or type(v) is list
           and all(_numbers(r) and len(r) == len(v[0]) for r in v))
_NAMES = (f"a list of names from {list(_ARTIFACTS)}",
          lambda v: type(v) is list and all(a in _ARTIFACTS for a in v))

_COUNT = _and(_INT, ">= 1", lambda v: v >= 1)
_SEED = _and(_INT, ">= 0", lambda v: v >= 0)

_SCHEMA = {
    "": {"data": (_SECTION, _REQUIRED), "model": (_SECTION, _REQUIRED),
         "control": (_SECTION, _REQUIRED), "solver": (_SECTION, {}),
         "output": (_SECTION, {})},
    "data.": {"source": (_SECTION, _REQUIRED), "m_train": (_INT, _REQUIRED),
              "m_val": (_INT, _REQUIRED), "replacement": (_BOOL, True),
              "noise_level": (_NUM, 0.05), "seed_bootstrap_train": (_SEED, 1),
              "seed_bootstrap_val": (_SEED, 2), "seed_dither": (_SEED, 3)},
    "data.source.": {
        "kind": (_one_of("linear", "sinusoid", "csv"), _REQUIRED),
        "path": (_STR, _REQUIRED),                # read for kind csv only
        "m": (_COUNT, _REQUIRED),                 # read for generators only
        "d": (_COUNT, 1), "noise": (_and(_NUM, ">= 0", lambda v: v >= 0), 0.0),
        "seed": (_SEED, 0), "theta_scale": (_NUM, 1.0),
        "amplitude": (_NUM, 1.0), "frequency": (_NUM, 1.0)},
    "model.": {"family": (_one_of("linear_features", "mlp_tanh"), _REQUIRED),
               "degree": (_COUNT, 1), "include_bias": (_BOOL, False),
               "hidden": (_INT, 4), "theta0": (_VECTOR, "zeros")},
    # compact control set, fixed horizon, small perturbation parameter
    "control.": {"eps": (_and(_NUM, "in (0, 1]", lambda v: 0 < v <= 1),
                         _REQUIRED),
                 "t_final": (_NUM, _REQUIRED), "steps": (_COUNT, 200),
                 "basis": (_one_of("legendre_shifted", "fourier"),
                           "legendre_shifted"), "n_basis": (_COUNT, 4),
                 "u_max": (_and(_NUM, "> 0", lambda v: v > 0), _REQUIRED)},
    "solver.": {"gamma0": (_NUM, 0.5), "eps_tol": (_NUM, 1e-6),
                "max_iters": (_COUNT, 50),
                "line_search": (_one_of("backtracking"), "backtracking"),
                "init": (_MATRIX, "zeros")},
    "output.": {"dir": (_STR, "out"), "artifacts": (_NAMES, _ARTIFACTS)},
}


def _walk(prefix: str, obj) -> None:
    """Check obj, the section under prefix, against _SCHEMA[prefix]."""
    if type(obj) is not dict:
        raise ConfigError(f"{prefix[:-1] or 'config'} must be a JSON object")
    table = _SCHEMA[prefix]
    for key, v in obj.items():
        spec = table.get(key)
        if spec is None:
            raise ConfigError(f"unknown key {prefix}{key}")
        kind = spec[0]
        if kind is _SECTION:
            _walk(f"{prefix}{key}.", v)
        elif not kind[1](v):
            raise ConfigError(f"{prefix}{key} must be {kind[0]}, got {v!r}")


def _reader(obj: dict, prefix: str):
    """key -> obj[key], obj being the section under prefix as load_config
    checked it, or the schema's default; a number as a float."""
    table = _SCHEMA[prefix]

    def get(key: str):
        kind, default = table[key]
        v = obj.get(key, default)
        if v is _REQUIRED:
            raise ConfigError(f"missing required field {prefix}{key}")
        return float(v) if kind is _NUM else v
    return get


def _section(cfg: dict, name: str):
    """The _reader of cfg's top-level section name."""
    return _reader(_reader(cfg, "")(name), name + ".")


def load_config(path) -> dict:
    """The JSON config at path, unchanged, once checked against _SCHEMA."""
    with open(path, "rb") as fh:   # json detects UTF-8, -16 or -32
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}")
    _walk("", cfg)
    return cfg


# -- dataset pipeline ------------------------------------------------------

def synth_dataset(source: dict) -> Dataset:
    """Generate a synthetic regression dataset from a generator spec."""
    get = _reader(source, "data.source.")
    kind = get("kind")
    if kind == "csv":
        raise ConfigError("data.source.kind 'csv' names no generator")
    m, d, noise = get("m"), get("d"), get("noise")
    rng = np.random.default_rng(get("seed"))
    x = rng.standard_normal((m, d))
    if kind == "linear":
        y = x @ (get("theta_scale") * rng.standard_normal(d))
    else:
        y = get("amplitude") * np.sin(get("frequency") * x.sum(axis=1))
    if noise > 0:
        y = y + noise * rng.standard_normal(m)
    return Dataset(x, y, tag="original")


def build_data(data_cfg: dict, seed_override: int | None = None) -> ProblemData:
    get = _reader(data_cfg, "data.")
    source = _reader(get("source"), "data.source.")
    z0 = (load_csv(source("path")) if source("kind") == "csv"
          else synth_dataset(get("source")))
    replacement = get("replacement")
    off = 0 if seed_override is None else seed_override

    def seed(key):
        s = get(key) + off
        if s < 0:
            raise ConfigError(f"data.{key} must be >= 0 after --seed {off} "
                              f"is added, got {s}")
        return s
    z1 = bootstrap(z0, get("m_train"), replacement,
                   seed("seed_bootstrap_train"), tag="train")
    z2 = bootstrap(z0, get("m_val"), replacement,
                   seed("seed_bootstrap_val"), tag="validation")
    z1d = dither(z1, get("noise_level"), seed("seed_dither"))
    return ProblemData(z1, z1d, z2)


def build_oracle(model_cfg: dict, d: int) -> ModelOracle:
    get = _reader(model_cfg, "model.")
    return ModelOracle(get("family"), d, degree=get("degree"),
                       include_bias=get("include_bias"), hidden=get("hidden"))


def build_solver_config(cfg: dict) -> SolverConfig:
    control, model, solver = (_section(cfg, s)
                              for s in ("control", "model", "solver"))
    theta0 = model("theta0")
    theta0 = None if theta0 == "zeros" else np.asarray(theta0, dtype=float)
    if model("family") == "mlp_tanh" and (theta0 is None or not theta0.any()):
        raise ConfigError(
            "model.theta0 = 0 is a saddle of the mlp_tanh loss: D = (grad "
            "J~0)^2 vanishes there on W1, b1 and w2, so only b2 could be "
            "trained; give a non-zero model.theta0")
    init = solver("init")
    return SolverConfig(
        eps=control("eps"), steps=control("steps"),
        basis=BasisSpec(control("basis"), control("n_basis"),
                        control("t_final")),
        u_max=control("u_max"), gamma0=solver("gamma0"),
        eps_tol=solver("eps_tol"), max_iters=solver("max_iters"),
        theta0=theta0,
        c0=None if init == "zeros" else np.asarray(init, dtype=float),
    )


# -- artifact emission -----------------------------------------------------

def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write(path: Path, text: str) -> None:
    """Every artifact is written here, which makes its directory first, so a
    command that fails before writing leaves no directory behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, obj) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_matrix_csv(path: Path, mat: np.ndarray, header: list[str]) -> None:
    lines = [",".join(header)]
    for row in np.atleast_2d(mat):
        lines.append(",".join(repr(float(v)) for v in row))
    _write(path, "\n".join(lines) + "\n")


def _write_nodes_csv(path: Path, grid, vals: np.ndarray, name: str) -> None:
    header = ["t"] + [f"{name}{i+1}" for i in range(vals.shape[1])]
    _write_matrix_csv(path, np.column_stack([grid.nodes, vals]), header)


def _emit_run(out: Path, cfg: dict, seed_override, report: SolverReport,
              null_cost: float, traj, adj=None) -> None:
    """Write the artifacts output.artifacts names (all by default) and the
    manifest; adjoint.csv only when an adjoint is given."""
    wanted = _section(cfg, "output")("artifacts")
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
        c = report.final_coeffs
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
    source = _section(cfg, "data")("source")
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"data.source.seed must be >= 0, got --seed "
                              f"{args.seed}")
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
    """(config dict, its Problem, output directory) of a command's args."""
    cfg = load_config(args.config)
    root = _reader(cfg, "")
    data = build_data(root("data"), args.seed)
    problem = Problem(build_oracle(root("model"), data.z_train.d),
                      build_solver_config(cfg), data)
    return cfg, problem, Path(args.out or _section(cfg, "output")("dir"))


def cmd_run(args) -> int:
    cfg, problem, out = _pipeline(args)
    report = solve(problem)
    # from the zero initial control, the first iteration's cost is the null
    # control's, computed the same way
    null_cost = (report.iterations[0].cost if problem.config.c0 is None else
                 cost(problem, np.zeros(report.final_coeffs.shape)))
    traj = forward(problem, report.final_coeffs)
    adj = integrate_adjoint(problem.oracle, traj, problem.data.z_val,
                            problem.val)
    _emit_run(out, cfg, args.seed, report, null_cost, traj, adj)
    if not args.quiet:
        print(f"J[0]={null_cost:.6e}  J[u*]={report.final_cost:.6e}  "
              f"iters={len(report.iterations)}  stop={report.stop_reason}")
    return 0


def cmd_baseline(args) -> int:
    """The null control as a zero-iteration run."""
    cfg, problem, out = _pipeline(args)
    c = np.zeros((problem.oracle.param_dim, problem.config.basis.n))
    traj = forward(problem, c)
    j0 = problem.val.value(traj.theta_final)
    report = SolverReport([], c, traj.theta_final, j0, "baseline")
    _emit_run(out, cfg, args.seed, report, j0, traj)
    if not args.quiet:
        print(f"J[0]={j0:.6e}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg, problem, out = _pipeline(args)
    reports = [check_coefficient_gradient(problem), check_rk4_order(problem)]
    _write_json(out / "gradcheck.json", [r.to_dict() for r in reports])
    return verdict(reports, args.quiet)


def cmd_dpcheck(args) -> int:
    cfg, problem, out = _pipeline(args)
    report = check_dp_identity(problem)
    _write_json(out / "dpcheck.json", report.to_dict())
    return verdict([report], args.quiet)


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
                        help="synth: replaces data.source.seed; other "
                        "commands: added to the bootstrap and dither seeds")
        sp.add_argument("--quiet", action="store_true")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
