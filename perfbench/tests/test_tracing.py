"""Self-tests of the benchmark's span tracing and of its refusal to run
without the program's sources.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
from sgaflow import cli  # noqa: E402

STEPS = 5


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced `run` of a tiny linear config; (tracer, wall seconds)."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = {
        "data": {"source": {"kind": "linear", "d": 2, "m": 20, "seed": 0},
                 "m_train": 10, "m_val": 10},
        "model": {"family": "linear_features"},
        "control": {"eps": 0.1, "t_final": 1.0, "steps": STEPS,
                    "basis": "legendre_shifted", "n_basis": 2, "u_max": 5.0},
        "solver": {"max_iters": 2},
    }
    path = tmp / "tiny.json"
    path.write_text(json.dumps(cfg))
    tracer = tracing.Tracer()
    main = tracer.wrap(tracing.ROOT_SPAN, cli.main)
    with tracing.installed(tracer):
        t0 = time.perf_counter()
        rc = main(["run", "--config", str(path), "--out", str(tmp / "out"),
                   "--quiet"])
        wall = time.perf_counter() - t0
    assert rc == 0
    return tracer, wall


def test_wrappers_install_at_every_import_site_and_restore():
    mods = tracing.sgaflow_modules()
    originals = {(home, attr): getattr(mods[home], attr)
                 for _, home, attr in tracing.SPANS}

    def bindings(fn):
        return [(name, key) for name, mod in mods.items()
                for key, val in vars(mod).items() if val is fn]

    sites = {spec: bindings(fn) for spec, fn in originals.items()}
    with tracing.installed(tracing.Tracer()):
        assert mods["sgaflow.dynamics"].loss_gradient is not originals[
            "sgaflow.model", "loss_gradient"]
        assert mods["sgaflow.sga"].integrate_forward is not originals[
            "sgaflow.dynamics", "integrate_forward"]
        assert mods["sgaflow.cli"].solve is not originals["sgaflow.sga",
                                                         "solve"]
        for (home, attr), fn in originals.items():
            left = bindings(fn)
            if home in tracing.LEAF_MODULES:
                assert left == [(home, attr)]
            else:
                assert left == []
    for spec, fn in originals.items():
        assert bindings(fn) == sites[spec]


def test_rhs_calls_per_integration(traced_run):
    tracer, _ = traced_run
    n_fwd = tracer.calls("dynamics.integrate_forward")
    n_adj = tracer.calls("dynamics.integrate_adjoint")
    assert n_fwd > 0 and n_adj > 0
    # quarter-step RK4 forward, half-step RK4 backward
    assert tracer.calls("dynamics.forward_rhs") == 16 * STEPS * n_fwd
    assert tracer.calls("dynamics.adjoint_rhs") == 8 * STEPS * n_adj


def test_self_times_non_negative_and_cover_wall(traced_run):
    tracer, wall = traced_run
    selfs = {name: stat[2] for name, stat in tracer.stats.items()}
    assert all(s >= 0.0 for s in selfs.values()), selfs
    assert sum(selfs.values()) >= 0.95 * wall


def test_layer_metrics_name_every_per_layer_metric(traced_run):
    tracer, wall = traced_run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = tracing.layer_metrics(tracer, wall, 0.1, 1e-6)
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["sga.iterations"] == 2
    assert metrics["cli.post_solve_integrations"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "linear-solve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
