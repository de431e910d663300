"""Span tracing for the benchmark's traced run.

Every function in SPANS is wrapped at each sgaflow module namespace that binds
it, so a call from one module into another becomes a span, and so do calls
inside one module above the model layer (``sga.solve`` -> ``sga.sweep``,
``dynamics.integrate_forward`` -> ``dynamics.forward_rhs``).  The model
module's own calls (the finite-difference HVP's two gradients, ``phi_*`` ->
``loss_*``) are part of the oracle call they serve and are not patched.

A span records its call count, inclusive time and self time (inclusive time
minus the time of the spans it called), and the number of calls on each
parent -> child edge.  None of the traced functions recurses, so inclusive
times never count an interval twice.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import time
from contextlib import contextmanager

ROOT_SPAN = "cli.main"

# (span name, defining module, attribute)
SPANS = (
    ("model.loss_gradient", "sgaflow.model", "loss_gradient"),
    ("model.loss_hvp", "sgaflow.model", "loss_hvp"),
    ("basis.eval_control", "sgaflow.basis", "eval_control"),
    ("basis.project_admissible", "sgaflow.basis", "project_admissible"),
    ("dynamics.integrate_forward", "sgaflow.dynamics", "integrate_forward"),
    ("dynamics.integrate_adjoint", "sgaflow.dynamics", "integrate_adjoint"),
    ("dynamics.forward_rhs", "sgaflow.dynamics", "forward_rhs"),
    ("dynamics.adjoint_rhs", "sgaflow.dynamics", "adjoint_rhs"),
    ("sga.solve", "sgaflow.sga", "solve"),
    ("sga.sweep", "sgaflow.sga", "sweep"),
    ("sga.cost", "sgaflow.sga", "cost"),
    ("sga.coefficient_gradient", "sgaflow.sga", "coefficient_gradient"),
    ("verify.check_coefficient_gradient", "sgaflow.verify",
     "check_coefficient_gradient"),
    ("verify.check_rk4_order", "sgaflow.verify", "check_rk4_order"),
    ("dataset.bootstrap", "sgaflow.dataset", "bootstrap"),
    ("dataset.dither", "sgaflow.dataset", "dither"),
    ("cli.load_config", "sgaflow.cli", "load_config"),
    ("cli.build_data", "sgaflow.cli", "build_data"),
    ("cli.build_oracle", "sgaflow.cli", "build_oracle"),
    ("cli.build_solver_config", "sgaflow.cli", "build_solver_config"),
)
LEAF_MODULES = {"sgaflow.model"}
# spans whose (first argument, result) pairs the layer metrics read
KEEP = {"basis.project_admissible", "sga.solve",
        "verify.check_coefficient_gradient", "verify.check_rk4_order"}


class Tracer:
    """In-memory span statistics for one workload pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, incl_s, self_s]
        self.edges: dict[tuple, int] = {}  # (parent, child) -> calls
        self.kept: dict[str, list] = {}    # name -> [(first arg, result)]
        self._stack: list[list] = []       # [name, time spent in children]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        kept = self.kept.setdefault(name, []) if name in KEEP else None
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                edges[parent, name] = edges.get((parent, name), 0) + 1
            if kept is not None:
                kept.append((args[0] if args else None, out))
            return out

        return wrapper

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def incl(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def edge(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)


def sgaflow_modules() -> dict:
    import sgaflow
    mods = {"sgaflow": sgaflow}
    for info in pkgutil.iter_modules(sgaflow.__path__):
        name = f"sgaflow.{info.name}"
        mods[name] = importlib.import_module(name)
    return mods


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding of every SPANS function; restore them on exit.

    Yields the list of (module, attribute, original) patches made.
    """
    mods = sgaflow_modules()
    patches = []
    try:
        for span, home, attr in SPANS:
            orig = getattr(mods[home], attr)
            wrapped = tracer.wrap(span, orig)
            for mname, mod in mods.items():
                if mname == home and home in LEAF_MODULES:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        patches.append((mod, key, orig))
        yield patches
    finally:
        for mod, key, orig in reversed(patches):
            setattr(mod, key, orig)


def call_cost(fn, args: tuple, blocks: int = 100, n: int = 200) -> float:
    """Median extra seconds one traced call of fn(*args) costs over a plain
    call, from alternating blocks of n plain and n traced calls."""
    traced = Tracer().wrap("calibration", fn)
    diffs = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        t1 = time.perf_counter()
        for _ in range(n):
            traced(*args)
        t2 = time.perf_counter()
        diffs.append(((t2 - t1) - (t1 - t0)) / n)
    return statistics.median(diffs)


def layer_metrics(tracer: Tracer, pass_s: float, canary_s: float,
                  call_cost_s: float) -> dict:
    """Per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
    t = tracer
    m = {}
    for span in ("model.loss_gradient", "model.loss_hvp", "basis.eval_control",
                 "basis.project_admissible", "dynamics.integrate_forward",
                 "dynamics.integrate_adjoint", "dynamics.forward_rhs",
                 "dynamics.adjoint_rhs"):
        m[f"{span}.calls"] = t.calls(span)
        m[f"{span}.self_s"] = t.self_s(span)
    m["basis.projection_events"] = sum(
        out is not arg for arg, out in t.kept.get("basis.project_admissible", []))
    n_fwd = t.calls("dynamics.integrate_forward")
    m["dynamics.s_per_forward_integration"] = (
        t.incl("dynamics.integrate_forward") / n_fwd if n_fwd else 0.0)

    reports = [out for _, out in t.kept.get("sga.solve", [])]
    iterations = sum(len(r.iterations) for r in reports)
    accepted = sum(rec.gamma > 0 for r in reports for rec in r.iterations)
    # the Armijo line search is the only caller of cost() inside solve();
    # with line_search 'none' there are no trials and no backtracks
    trials = t.edge("sga.solve", "sga.cost")
    m["sga.iterations"] = iterations
    m["sga.backtracks"] = trials - accepted if trials else 0
    m["sga.armijo_accept_ratio"] = accepted / trials if trials else 0.0
    m["sga.forward_per_iter"] = n_fwd / iterations if iterations else 0.0
    for span in ("sga.solve", "sga.sweep", "sga.cost",
                 "sga.coefficient_gradient"):
        m[f"{span}.calls"] = t.calls(span)
        m[f"{span}.s"] = t.incl(span)
    m["sga.val_cost"] = reports[-1].final_cost if reports else 0.0

    grad_checks = [out for _, out in
                   t.kept.get("verify.check_coefficient_gradient", [])]
    order_checks = [out for _, out in t.kept.get("verify.check_rk4_order", [])]
    m["verify.check_coefficient_gradient.s"] = t.incl(
        "verify.check_coefficient_gradient")
    m["verify.check_rk4_order.s"] = t.incl("verify.check_rk4_order")
    m["verify.fd_cost_evals"] = t.edge("verify.check_coefficient_gradient",
                                       "sga.cost")
    m["verify.grad_rel_err"] = (grad_checks[-1].max_rel_err
                                if grad_checks else 0.0)
    m["verify.rk4_order_err"] = (order_checks[-1].max_rel_err
                                 if order_checks else 0.0)

    for span in ("dataset.bootstrap", "dataset.dither", "cli.load_config",
                 "cli.build_data"):
        m[f"{span}.s"] = t.incl(span)
    m["cli.post_solve_integrations"] = (
        t.edge(ROOT_SPAN, "dynamics.integrate_forward")
        + t.edge(ROOT_SPAN, "dynamics.integrate_adjoint"))
    m["cli.self_s"] = t.self_s(ROOT_SPAN)

    m["machine.canary_s"] = canary_s
    m["trace.pass_s"] = pass_s
    total_calls = sum(stat[0] for stat in t.stats.values())
    m["trace.overhead_share"] = total_calls * call_cost_s / pass_s
    return m
