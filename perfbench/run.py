#!/usr/bin/env python3
"""sgaflow benchmark: drives ``sgaflow.cli.main`` in-process, one workload pass
at a time, and checks every pass's outputs.

    python3 perfbench/run.py --workload linear-solve --seed 0 --seconds 40 --trace 0

Load: a closed loop with one caller.  One process runs one pass after another
until the next pass, if it took PASS_MARGIN times as long as the longest so
far, would end after ``--seconds``; at least one pass always runs.  BLAS is
pinned to one thread.  The seed offsets the config's bootstrap and dither
seeds (the CLI's own ``--seed``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: the median
over the passes of the pass wall time at a fixed machine speed (speed.py),
the fastest of the set-ups repeated through the run, and the process's peak
RSS.
``--trace 1`` runs the passes under span tracing (tracing.py) and prints the
per-layer metrics, each the median over the passes.  ``--workload all`` runs
every workload in turn, each in its own process.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it record the environment and every pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {  # name -> (CLI subcommand, config)
    "linear-solve": ("run", ROOT / "configs" / "linear.json"),
    "mlp-solve": ("run", HERE / "configs" / "mlp.json"),
    "linear-gradcheck": ("gradcheck", ROOT / "configs" / "linear.json"),
}
REFERENCE = json.loads((HERE / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# One set-up takes a fraction of a millisecond, and on a shared machine its
# time sits at one of two levels about 2x apart for seconds at a time, so the
# median of one run flips between levels from run to run.  setup_s is the
# fastest set-up of windows spread over the run: one before each pass and one
# after the last.  Dividing each window's median set-up by the window's
# slowdown (speed.py) spread more: 0.10 to 0.30 of the median over ten runs.
SETUP_WINDOW_S = 0.3
# a pass can take 1.2x as long as the one before it on the shared machine;
# the margin keeps a run within --seconds
PASS_MARGIN = 1.25
# numpy is imported inside functions: it must load after these are pinned
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def canary() -> float:
    """Seconds for a fixed pure-Python loop: shows drift in machine speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def time_setups(cli, config_path: Path, seed: int, times: list):
    """Repeat the CLI's set-up calls for SETUP_WINDOW_S, appending each
    one's seconds to `times`; return the last results."""
    end = time.perf_counter() + SETUP_WINDOW_S
    while True:
        t0 = time.perf_counter()
        cfg = cli.load_config(config_path)
        data = cli.build_data(cfg["data"], seed)
        oracle = cli.build_oracle(cfg["model"], data.z_train.d)
        config = cli.build_solver_config(cfg)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            return cfg, data, oracle, config


def zero_rows_of_g(oracle, config, data) -> int:
    """Rows of G that are exactly zero at the initial control."""
    import numpy as np
    from sgaflow.sga import sweep
    _, _, grad = sweep(oracle, config.initial_coefficients(oracle.param_dim),
                       config, data)
    return int(np.sum(np.all(grad == 0.0, axis=1)))


def validation_mse(cfg: dict, theta, z_val) -> float:
    """Validation cost of theta, computed independently of sgaflow.model."""
    import numpy as np
    model = cfg["model"]
    x, y = z_val.x, z_val.y
    if model["family"] == "linear_features":
        deg = int(model.get("degree", 1))
        cols = [x**k for k in range(1, deg + 1)]
        if model.get("include_bias", False):
            cols.append(np.ones((x.shape[0], 1)))
        pred = np.concatenate(cols, axis=1) @ theta
    else:
        h, d = int(model.get("hidden", 4)), x.shape[1]
        w1 = theta[:h * d].reshape(h, d)
        b1, w2 = theta[h * d:h * d + h], theta[h * d + h:h * d + 2 * h]
        pred = np.tanh(x @ w1.T + b1) @ w2 + theta[-1]
    return float(np.mean((pred - y) ** 2))


def check_solve(workload: str, out: Path, seed: int, cfg: dict, data):
    """Problems with a `run` pass's artifacts, and its validation cost."""
    import numpy as np
    ref = REFERENCE[workload]
    met = json.loads((out / "metrics.json").read_text())
    report = json.loads((out / "report.json").read_text())
    problems = []
    val, null = met["cost_final"], met["cost_null_control"]
    if not all(math.isfinite(v) for v in (val, null)):
        problems.append(f"non-finite cost {val} / {null}")
    elif val > null:
        problems.append(f"cost_final {val} > cost_null_control {null}")
    if (met["stop_reason"], met["iterations"]) != (ref["stop_reason"],
                                                   ref["iterations"]):
        problems.append(f"stop {met['stop_reason']} after "
                        f"{met['iterations']} iterations")
    theta = np.asarray(report["theta_star"], dtype=float)
    if not np.all(np.isfinite(theta)):
        problems.append("non-finite theta_star")
    else:
        mse = validation_mse(cfg, theta, data.z_val)
        if not abs(mse - val) <= 1e-9 * abs(val):
            problems.append(f"cost_final {val} != validation MSE {mse}")
    # at the reference seed the answer must match to 0.1% of the solver's
    # improvement over the null control
    if seed == ref["seed"]:
        tol = 1e-3 * (ref["cost_null_control"] - ref["val_cost"])
        if not abs(val - ref["val_cost"]) <= tol:
            problems.append(f"val_cost {val!r} != reference "
                            f"{ref['val_cost']!r} (tol {tol:.2e})")
    return problems, {"val_cost": val}


def check_gradcheck(out: Path):
    """Problems with a `gradcheck` pass's report, and its gradient error."""
    reports = json.loads((out / "gradcheck.json").read_text())
    names = [r["name"] for r in reports]
    problems = []
    if names != ["coefficient_gradient_vs_fd", "rk4_order"]:
        problems.append(f"unexpected checks {names}")
    for r in reports:
        if not (r["passed"] and math.isfinite(r["max_rel_err"])):
            problems.append(f"{r['name']} failed: err={r['max_rel_err']}")
    return problems, {"grad_rel_err": reports[0]["max_rel_err"]}


def run_pass(main, workload: str, seed: int, cfg: dict, data):
    """One call of the CLI entry point `main` in a fresh output directory.

    Returns (wall seconds, list of problems, quality values).
    """
    command, config_path = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out = Path(tmp)
        argv = [command, "--config", str(config_path), "--out", str(out),
                "--seed", str(seed), "--quiet"]
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is a failed pass, not a lost run
            traceback.print_exc()
            return time.perf_counter() - t0, [f"raised {exc!r}"], {}
        wall = time.perf_counter() - t0
        if rc != 0:
            return wall, [f"exit code {rc}"], {}
        try:
            if command == "run":
                return (wall,) + check_solve(workload, out, seed, cfg, data)
            return (wall,) + check_gradcheck(out)
        except (OSError, LookupError, TypeError, ValueError) as exc:
            return wall, [f"unreadable artifacts: {exc!r}"], {}


def run_workload(args) -> int:
    if not (ROOT / "src" / "sgaflow" / "__init__.py").is_file():
        print(f"error: no sgaflow sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    from sgaflow import cli
    import speed
    import tracing

    units = {key: {m["name"]: m["unit"] for m in SPEC[key]}
             for key in ("end_to_end", "per_layer")}
    print("env " + json.dumps(environment()), flush=True)
    seed = args.seed
    config_path = WORKLOADS[args.workload][1]
    setup_times = []
    cfg, data, oracle, config = time_setups(cli, config_path, seed,
                                            setup_times)

    gate = []
    if cfg["model"]["family"] == "mlp_tanh":
        zero_rows = zero_rows_of_g(oracle, config, data)
        if zero_rows:
            gate.append(f"{zero_rows} of {oracle.param_dim} rows of G are "
                        f"zero at the initial control")
    if args.trace:
        from sgaflow.model import loss_gradient
        call_cost = tracing.call_cost(loss_gradient, (
            oracle, config.initial_theta(oracle.param_dim), data.z_train))
    walls, raw_walls, slowdowns, layers, quality = [], [], [], [], {}
    attempted = failed = 0
    longest = 0.0
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        if attempted:
            time_setups(cli, config_path, seed, setup_times)
        canary_s = canary()
        if args.trace:
            tracer = tracing.Tracer()
            main = tracer.wrap(tracing.ROOT_SPAN, cli.main)
            with tracing.installed(tracer):
                wall, problems, q = run_pass(main, args.workload, seed, cfg,
                                             data)
            layers.append(tracing.layer_metrics(tracer, wall, canary_s,
                                                call_cost))
        else:
            sampler = speed.Sampler()

            def main(argv):
                with sampler:
                    return cli.main(argv)

            wall, problems, q = run_pass(main, args.workload, seed, cfg, data)
            raw_walls.append(wall)
            if sampler.samples:
                slowdowns.append(sampler.slowdown())
                wall = sampler.at_reference_speed(wall)
            else:  # only a pass that failed at once ends before a sample
                slowdowns.append(math.nan)
        walls.append(wall)
        problems = gate + problems
        attempted += 1
        failed += bool(problems)
        quality.update(q)
        print(f"pass {attempted}: "
              + (f"traced wall {wall:.3f} s" if args.trace else
                 f"wall {raw_walls[-1]:.3f} s, slowdown "
                 f"{slowdowns[-1]:.3f}, at reference speed {wall:.3f} s")
              + f", canary {canary_s:.4f} s"
              + (", FAILED: " + "; ".join(problems) if problems else ", ok"),
              flush=True)
        now = time.perf_counter()
        longest = max(longest, now - t_pass)
        if now - start + PASS_MARGIN * longest > args.seconds:
            break
    time_setups(cli, config_path, seed, setup_times)
    setup_s = min(setup_times)

    if args.trace:
        metrics = {}
        for name in units["per_layer"]:
            vals = [layer[name] for layer in layers]
            # counts repeat exactly, so their median is one of them
            metrics[name] = (statistics.median_low(vals)
                             if isinstance(vals[0], int)
                             else statistics.median(vals))
        kind = "per_layer"
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
        kind = "end_to_end"
        summary = [f"wall_s median {statistics.median(walls):.4f} s, "
                   f"max {max(walls):.4f} s, n={len(walls)}",
                   f"measured wall median "
                   f"{statistics.median(raw_walls):.4f} s, "
                   f"max {max(raw_walls):.4f} s",
                   f"setup_s {setup_s:.6f} s",
                   f"peak_rss_mb {peak_rss_mb:.1f} MB"]
        summary += [f"{k} {v!r}" for k, v in sorted(quality.items())]
        summary.append(f"failed_share {failed / attempted:.3f} "
                       f"({failed}/{attempted})")
        print(f"{args.workload} seed {seed}: " + " | ".join(summary))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units[kind].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    rc = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        rc = rc or proc.returncode
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
