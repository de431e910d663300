import json
from pathlib import Path

import numpy as np
import pytest
from sgaflow import cli
from sgaflow.model import loss_gradient

from conftest import warnings_as_errors


def base_config(**overrides):
    cfg = {
        "data": {
            "source": {"kind": "linear", "d": 2, "m": 60, "noise": 0.0,
                       "seed": 0},
            "m_train": 40, "m_val": 40, "replacement": True,
            "noise_level": 0.05,
            "seed_bootstrap_train": 1, "seed_bootstrap_val": 2,
            "seed_dither": 3,
        },
        "model": {"family": "linear_features", "degree": 1},
        "control": {"eps": 0.1, "t_final": 1.0, "steps": 50,
                    "basis": "legendre_shifted", "n_basis": 3, "u_max": 5.0},
        "solver": {"gamma0": 0.5, "eps_tol": 1e-6, "max_iters": 5,
                   "line_search": "backtracking", "init": "zeros"},
    }
    for key, val in overrides.items():
        cfg[key] = val
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def quad_config():
    # p=1 problem whose training loss is 0.5*theta^2 (x=1/sqrt(2), y=0)
    cfg = base_config()
    cfg["data"]["source"] = {"kind": "csv", "path": None}
    return cfg


def write_quad_csv(tmp_path):
    path = tmp_path / "quad.csv"
    path.write_text("x1,y\n" + f"{2**-0.5},0.0\n" * 3)
    return path


class TestSynth:
    def test_noiseless_linear_targets_are_exact(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "data.csv"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        from sgaflow.dataset import load_csv
        ds = load_csv(out)
        assert ds.m == 60 and ds.d == 2
        # noiseless linear generator: y must be an exact linear map of x
        theta, *_ = np.linalg.lstsq(ds.x, ds.y, rcond=None)
        np.testing.assert_allclose(ds.x @ theta, ds.y, atol=1e-12)

    def test_same_seed_gives_identical_files(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["synth", "--config", str(cfg), "--out", str(a), "--quiet"])
        cli.main(["synth", "--config", str(cfg), "--out", str(b), "--quiet"])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_size_rejected(self, tmp_path):
        c = base_config()
        c["data"]["source"]["m"] = 0
        cfg = write_config(tmp_path, c)
        assert cli.main(["synth", "--config", str(cfg), "--quiet"]) == 1

    def test_negative_noise_rejected(self, tmp_path, capsys):
        # the generator would skip a noise < 0 as if it were 0
        c = base_config()
        c["data"]["source"]["noise"] = -1
        cfg = write_config(tmp_path, c)
        out = tmp_path / "data.csv"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 1
        assert ("data.source.noise must be a finite number >= 0"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_sinusoid_matches_its_formula(self, noise):
        # y = a sin(f sum_j x_j) + noise N(0, 1), x drawn first from the
        # seed's generator and the noise after it, as the mlp-solve
        # workload's data are made
        source = {"kind": "sinusoid", "m": 2000, "d": 3, "seed": 7,
                  "amplitude": 1.5, "frequency": 0.8, "noise": noise}
        ds = cli.synth_dataset(source)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2000, 3))
        clean = 1.5 * np.sin(0.8 * (x[:, 0] + x[:, 1] + x[:, 2]))
        np.testing.assert_array_equal(ds.x, x)
        np.testing.assert_allclose(ds.y, clean + noise
                                   * rng.standard_normal(2000), atol=1e-14)
        if noise > 0:
            z = (ds.y - clean) / noise
            assert abs(z.mean()) < 0.1 and abs(z.std() - 1.0) < 0.1
        again = cli.synth_dataset(source)
        np.testing.assert_array_equal(again.y, ds.y)
        other = cli.synth_dataset({**source, "seed": 8})
        assert not np.array_equal(other.x, ds.x)

    def test_noise_added_to_linear_targets(self):
        source = {"kind": "linear", "m": 50, "d": 2, "seed": 3,
                  "noise": 0.5}
        noisy = cli.synth_dataset(source)
        clean = cli.synth_dataset({**source, "noise": 0.0})
        np.testing.assert_array_equal(noisy.x, clean.x)
        rng = np.random.default_rng(3)
        rng.standard_normal((50, 2))
        rng.standard_normal(2)
        np.testing.assert_allclose(noisy.y - clean.y,
                                   0.5 * rng.standard_normal(50), atol=1e-14)

    def test_seed_replaces_the_sources(self, tmp_path):
        c = base_config()
        c["data"]["source"]["seed"] = 5
        cfg5 = write_config(tmp_path, c, "five.json")
        cfg = write_config(tmp_path, base_config())
        a, b, z = (tmp_path / f"{n}.csv" for n in ("a", "b", "z"))
        assert cli.main(["synth", "--config", str(cfg), "--seed", "5",
                         "--out", str(a), "--quiet"]) == 0
        cli.main(["synth", "--config", str(cfg5), "--out", str(b), "--quiet"])
        cli.main(["synth", "--config", str(cfg5), "--seed", "0", "--out",
                  str(z), "--quiet"])
        assert a.read_bytes() == b.read_bytes()
        assert z.read_bytes() != b.read_bytes()
        ref = tmp_path / "ref.csv"
        cli.main(["synth", "--config", str(cfg), "--out", str(ref),
                  "--quiet"])
        assert z.read_bytes() == ref.read_bytes()

    def test_directory_out_gets_dataset_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "data"
        out.mkdir()
        assert cli.main(["synth", "--config", str(cfg), "--out",
                         str(out)]) == 0
        assert (out / "dataset.csv").exists()
        assert f"wrote {out / 'dataset.csv'} (m=60, d=2)" in (
            capsys.readouterr().out)

    @pytest.mark.parametrize("text", ["{not json", "", '{"data": 1,}'])
    def test_invalid_json_names_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(cli.ConfigError, match="is not valid JSON"):
            cli.load_config(path)
        assert cli.main(["synth", "--config", str(path), "--quiet"]) == 1
        assert f"error: {path} is not valid JSON" in capsys.readouterr().err

    def test_csv_source_names_no_generator(self, tmp_path, capsys):
        c = base_config()
        c["data"]["source"] = {"kind": "csv",
                               "path": str(write_quad_csv(tmp_path))}
        out = tmp_path / "out.csv"
        assert cli.main(["synth", "--config", str(write_config(tmp_path, c)),
                         "--out", str(out)]) == 1
        assert "names no generator" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_metrics_show_baseline_dominance(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["cost_final"] <= metrics["cost_null_control"]
        for name in ("report.json", "coeffs.csv", "trajectory.csv",
                     "manifest.json", "theta_star.csv"):
            assert (out / name).exists()

    def test_missing_field_names_it(self, tmp_path, capsys):
        c = base_config()
        del c["control"]["u_max"]
        cfg = write_config(tmp_path, c)
        assert cli.main(["run", "--config", str(cfg), "--quiet"]) == 1
        assert "u_max" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        c = base_config()
        c["control"]["bogus_knob"] = 1
        cfg = write_config(tmp_path, c)
        assert cli.main(["run", "--config", str(cfg), "--quiet"]) == 1
        assert "bogus_knob" in capsys.readouterr().err

    def test_line_search_other_than_backtracking_rejected(self, tmp_path,
                                                          capsys):
        c = base_config()
        c["solver"]["line_search"] = "none"
        cfg = write_config(tmp_path, c)
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 1
        assert "solver.line_search" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_init_is_a_validation_error(self, tmp_path, capsys):
        c = base_config()
        c["solver"]["init"] = [[float("nan"), 0.0, 0.0], [0.0, 0.0, 0.0]]
        cfg = write_config(tmp_path, c)
        assert "NaN" in cfg.read_text()
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 1
        assert "C has non-finite" in capsys.readouterr().err

    def test_init_whose_control_overflows_is_a_validation_error(
            self, tmp_path, capsys):
        # finite entries of 1e308 overflow the control's grid max to inf,
        # which the projection would read as a scale of 0 and zero the
        # rows; entries of 1e300 are rescaled
        c = base_config()
        c["solver"]["init"] = [[1e308] * 3, [1e308] * 3]
        with warnings_as_errors():
            assert cli.main(["run", "--config",
                             str(write_config(tmp_path, c)), "--out",
                             str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "c0" in err and "overflows float64" in err
        assert not (tmp_path / "out").exists()

    def test_csv_artifacts_read_back_bitwise(self, tmp_path):
        cfg = base_config()
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_config(tmp_path, cfg)),
                         "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        theta_star = np.array(report["theta_star"])

        def read(name):
            return np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)

        np.testing.assert_array_equal(read("coeffs.csv"),
                                      report["final_coeffs"])
        np.testing.assert_array_equal(read("theta_star.csv"), [theta_star])
        nodes = np.linspace(0.0, 1.0, cfg["control"]["steps"] + 1)
        traj, adj = read("trajectory.csv"), read("adjoint.csv")
        for table in (traj, adj):
            np.testing.assert_array_equal(table[:, 0], nodes)
        np.testing.assert_array_equal(traj[-1, 1:], theta_star)
        # the costate ends at -grad Phi(theta_star)
        data = cli.build_data(cfg["data"])
        oracle = cli.build_oracle(cfg["model"], data.z_val.d)
        np.testing.assert_array_equal(
            adj[-1, 1:], -loss_gradient(oracle, theta_star, data.z_val))

    @pytest.mark.parametrize("theta0", [None, "zeros", [0.0] * 17],
                             ids=["absent", "zeros", "zero-list"])
    @pytest.mark.parametrize("command", ["run", "gradcheck"])
    def test_mlp_from_zero_theta0_refused(self, tmp_path, capsys, command,
                                          theta0):
        # hidden 4 on d = 2 gives p = 17; at theta0 = 0 only b2 would move
        model = {"family": "mlp_tanh", "hidden": 4}
        if theta0 is not None:
            model["theta0"] = theta0
        cfg = write_config(tmp_path, base_config(model=model))
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 1
        assert "saddle" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("artifacts", [["theta.csv"], "report.json"],
                             ids=["mistyped", "string"])
    def test_unknown_artifacts_rejected(self, tmp_path, capsys, artifacts):
        # a mistyped name would write only the manifest, and a string
        # would be matched by substring
        c = base_config()
        c["output"] = {"artifacts": artifacts}
        cfg = write_config(tmp_path, c)
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 1
        assert "output.artifacts" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["solver", "output", "data.source"])
    def test_section_that_is_not_an_object_rejected(self, tmp_path, capsys,
                                                    section):
        # each list passes the unknown-key check, as its items are keys
        c = base_config()
        if section == "data.source":
            c["data"]["source"] = ["kind"]
        else:
            c[section] = ["dir"]
        cfg = write_config(tmp_path, c)
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 1
        assert f"{section} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("control", "eps", "0.1"), ("control", "t_final", None),
        ("control", "t_final", float("inf")), ("control", "steps", 2.5),
        ("solver", "max_iters", True), ("data", "m_train", 10.9),
        ("data.source", "seed", 1.0), ("model", "degree", "2"),
        ("data", "replacement", "false"), ("model", "include_bias", "no"),
        ("model", "include_bias", 1)],
        ids=["eps-string", "t_final-null", "t_final-inf", "steps-float",
             "max_iters-bool", "m_train-float", "seed-float",
             "degree-string", "replacement-string", "include_bias-string",
             "include_bias-int"])
    def test_number_of_wrong_type_rejected(self, tmp_path, capsys, section,
                                           key, value):
        # a float or a bool where an integer is meant would be truncated,
        # and bool() would read any non-empty string, "false" too, as true
        c = base_config()
        obj = c["data"]["source"] if section == "data.source" else c[section]
        obj[key] = value
        cfg = write_config(tmp_path, c)
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 1
        assert f"{section}.{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", [0, None, ["data.csv"]],
                             ids=["int", "null", "list"])
    def test_csv_path_of_wrong_type_rejected(self, tmp_path, capsys, path):
        # open(0) would read the CSV from standard input, and close it
        c = base_config()
        c["data"]["source"] = {"kind": "csv", "path": path}
        cfg = write_config(tmp_path, c)
        assert cli.main(["run", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--quiet"]) == 1
        assert ("data.source.path must be a string"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli.main(["run", "--config", str(cfg), "--out", str(out1), "--quiet"])
        cli.main(["run", "--config", str(cfg), "--out", str(out2), "--quiet"])
        for name in ("metrics.json", "coeffs.csv", "report.json",
                     "trajectory.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_contains_config_hash_and_versions(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        cli.main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["config_hash"]) == 64
        assert "numpy" in manifest["versions"]


class TestBaseline:
    def test_matches_runs_null_control_cost(self, tmp_path):
        # from zeros, run reads the null-control cost off its first sweep;
        # from a non-zero init, it integrates the null control itself
        for init in ("zeros", [[0.3, -0.2, 0.1], [-0.1, 0.2, 0.0]]):
            c = base_config()
            c["solver"]["init"] = init
            cfg = write_config(tmp_path, c)
            out_r, out_b = tmp_path / "r", tmp_path / "b"
            cli.main(["run", "--config", str(cfg), "--out", str(out_r),
                      "--quiet"])
            cli.main(["baseline", "--config", str(cfg), "--out", str(out_b),
                      "--quiet"])
            m_run = json.loads((out_r / "metrics.json").read_text())
            m_base = json.loads((out_b / "metrics.json").read_text())
            assert m_base["cost_final"] == m_run["cost_null_control"]
            first = json.loads((out_r / "report.json").read_text())[
                "iterations"][0]["cost"]
            assert (first == m_run["cost_null_control"]) == (init == "zeros")

    def test_writes_the_named_artifacts_and_no_adjoint(self, tmp_path):
        c = base_config()
        c["output"] = {"artifacts": ["theta_star.csv", "adjoint.csv"]}
        cfg = write_config(tmp_path, c)
        out = tmp_path / "b"
        assert cli.main(["baseline", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        assert sorted(f.name for f in out.iterdir()) == ["manifest.json",
                                                         "theta_star.csv"]

    def test_eps_is_irrelevant_without_control(self, tmp_path):
        outs = []
        for i, eps in enumerate((0.05, 0.9)):
            c = base_config()
            c["control"]["eps"] = eps
            cfg = write_config(tmp_path, c, name=f"c{i}.json")
            out = tmp_path / f"b{i}"
            cli.main(["baseline", "--config", str(cfg), "--out", str(out),
                      "--quiet"])
            outs.append(json.loads((out / "metrics.json").read_text()))
        assert outs[0]["cost_final"] == outs[1]["cost_final"]

    def test_prints_the_null_control_cost(self, tmp_path, capsys):
        out = tmp_path / "b"
        assert cli.main(["baseline", "--config",
                         str(write_config(tmp_path, base_config())), "--out",
                         str(out)]) == 0
        j0 = json.loads((out / "metrics.json").read_text())["cost_final"]
        assert capsys.readouterr().out == f"J[0]={j0:.6e}\n"

    def test_divergent_initial_state_reports_runtime_failure(self, tmp_path,
                                                             capsys,
                                                             monkeypatch):
        c = base_config()
        c["model"]["theta0"] = [1e9, 1e9]
        cfg = write_config(tmp_path, c)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["baseline", "--config", str(cfg), "--quiet"]) == 2
        assert "diverged" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGradcheck:
    def test_passes_on_linear_task(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert cli.main(["gradcheck", "--config", str(cfg), "--out",
                         str(out), "--quiet"]) == 0
        reports = json.loads((out / "gradcheck.json").read_text())
        assert all(r["passed"] for r in reports)

    def test_corrupted_adjoint_fails(self, tmp_path, monkeypatch):
        import sgaflow.sga as sga_mod
        real = sga_mod.integrate_adjoint

        def flipped(*args, **kwargs):
            adj = real(*args, **kwargs)
            from dataclasses import replace
            return replace(adj, p_half=-adj.p_half)

        monkeypatch.setattr(sga_mod, "integrate_adjoint", flipped)
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert cli.main(["gradcheck", "--config", str(cfg), "--out",
                         str(out), "--quiet"]) == 1

    def test_flow_that_does_not_move_is_refused(self, tmp_path, capsys):
        # zero targets and no dither from theta0 = 0: theta and p stay 0, so
        # G and every difference of the coefficient check, which runs first,
        # are 0 (a pass by the error's floor), and the order check took
        # log(0) and wrote a NaN
        c = base_config()
        c["data"]["source"]["theta_scale"] = 0
        c["data"]["noise_level"] = 0
        out = tmp_path / "out"
        with warnings_as_errors():
            assert cli.main(["gradcheck", "--config",
                             str(write_config(tmp_path, c)), "--out",
                             str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: coefficient gradient check: G and the cost "
                       "differences at probe 0 are all 0, so they test "
                       "nothing\n")
        assert not out.exists()


class TestDpcheck:
    def test_high_dimensional_model_passes(self, tmp_path):
        # a p = 17 tanh network, checked along DIRECTIONS directions
        cfg = write_config(tmp_path, base_config(
            model={"family": "mlp_tanh", "hidden": 4, "theta0": [0.1] * 17}))
        out = tmp_path / "out"
        assert cli.main(["dpcheck", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        report = json.loads((out / "dpcheck.json").read_text())
        assert report["passed"]
        assert len(report["details"][0]["costate_slopes"]) == 4

    def test_passes_on_small_quadratic(self, tmp_path):
        path = write_quad_csv(tmp_path)
        c = base_config()
        c["data"]["source"] = {"kind": "csv", "path": str(path)}
        c["data"]["m_train"] = 3
        c["data"]["m_val"] = 3
        c["model"]["theta0"] = [1.0]
        c["solver"]["max_iters"] = 15
        c["control"]["n_basis"] = 2
        c["control"]["steps"] = 100
        cfg = write_config(tmp_path, c)
        out = tmp_path / "out"
        assert cli.main(["dpcheck", "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 0
        report = json.loads((out / "dpcheck.json").read_text())
        assert report["passed"]


# The JSON types each config key accepts, written out here rather than read
# from cli's schema, so the matrix below is an independent oracle.
ACCEPTED = {
    "data": "object", "model": "object", "control": "object",
    "solver": "object", "output": "object",
    "data.source": "object", "data.m_train": "number", "data.m_val": "number",
    "data.replacement": "bool", "data.noise_level": "number",
    "data.seed_bootstrap_train": "number", "data.seed_bootstrap_val": "number",
    "data.seed_dither": "number",
    "data.source.kind": "string", "data.source.path": "string",
    "data.source.m": "number", "data.source.d": "number",
    "data.source.noise": "number", "data.source.seed": "number",
    "data.source.theta_scale": "number", "data.source.amplitude": "number",
    "data.source.frequency": "number",
    "model.family": "string", "model.degree": "number",
    "model.include_bias": "bool", "model.hidden": "number",
    "model.theta0": "string list",
    "control.eps": "number", "control.t_final": "number",
    "control.steps": "number", "control.basis": "string",
    "control.n_basis": "number", "control.u_max": "number",
    "solver.gamma0": "number", "solver.eps_tol": "number",
    "solver.max_iters": "number", "solver.line_search": "string",
    "solver.init": "string list",
    "output.dir": "string", "output.artifacts": "list",
}

JSON_VALUES = {"object": {"a": 1}, "list": [1], "string": "a", "null": None,
               "bool": True, "number": 1}


def set_key(cfg: dict, key: str, value) -> dict:
    *sections, last = key.split(".")
    obj = cfg
    for s in sections:
        obj = obj.setdefault(s, {})
    obj[last] = value
    return cfg


def schema_keys() -> set:
    return {prefix + key for prefix, table in cli._SCHEMA.items()
            for key in table}


RUN = ["run"]

# one value of each JSON type a key does not accept, then values of an
# accepted type and the wrong shape: a nested theta0 would be raveled, a
# true entry of init read as 1.0, and a ragged init end in a traceback;
# then negative seeds, which numpy refuses without naming the key, set in
# the config or made by --seed (synth's replaces data.source.seed, run's is
# added to the bootstrap and dither seeds, data.seed_bootstrap_train first);
# then unknown names and zero counts, which ModelOracle, BasisSpec and
# SolverConfig refuse without naming the key
WRONG_VALUES = [
    pytest.param(key, JSON_VALUES[kind], RUN, id=f"{key}-{kind}")
    for key, ok in ACCEPTED.items() for kind in JSON_VALUES
    if kind not in ok.split()] + [
    pytest.param("model.theta0", [[0.1], [0.2]], RUN, id="theta0-nested"),
    pytest.param("solver.init", [[True, 0, 0], [0, 0, 0]], RUN,
                 id="init-bool"),
    pytest.param("solver.init", [[0, 0, 0], [0, 0]], RUN, id="init-ragged")
] + [pytest.param(f"data.{key}", -5, RUN, id=f"{key}-negative")
     for key in ("source.seed", "seed_bootstrap_train", "seed_bootstrap_val",
                 "seed_dither")] + [
    pytest.param("data.seed_bootstrap_train", 1, ["run", "--seed", "-10"],
                 id="run-seed-negative"),
    pytest.param("data.source.seed", 0, ["synth", "--seed", "-1"],
                 id="synth-seed-negative"),
    pytest.param("model.family", "cnn", RUN, id="family-unknown"),
    pytest.param("control.basis", "cheb", RUN, id="basis-unknown")
] + [pytest.param(key, 0, RUN, id=f"{key}-zero")
     for key in ("control.steps", "control.n_basis", "model.degree",
                 "solver.max_iters")]


class TestConfigSchema:
    @pytest.mark.parametrize("key,value,command", WRONG_VALUES)
    def test_wrong_value_names_key(self, tmp_path, capsys, key, value,
                                   command):
        cfg = write_config(tmp_path, set_key(base_config(), key, value))
        out = tmp_path / "out"
        assert cli.main([*command, "--config", str(cfg), "--out", str(out),
                         "--quiet"]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_matrix_covers_every_key(self):
        assert set(ACCEPTED) == schema_keys()

    @pytest.mark.parametrize("where", ["--config", "data.source.path",
                                       "--out", "output.dir"])
    def test_unusable_path_names_it(self, tmp_path, capsys, where):
        # a directory where a file is read, a file where a directory is made
        folder, file = tmp_path / "folder", tmp_path / "file"
        folder.mkdir()
        file.write_text("x")
        c = base_config()
        if where == "data.source.path":
            c["data"]["source"] = {"kind": "csv", "path": str(folder)}
        elif where == "output.dir":
            c["output"] = {"dir": str(file)}
        argv = ["run", "--config", str(write_config(tmp_path, c)), "--quiet"]
        if where == "--config":
            argv[2] = str(folder)
        elif where == "--out":
            argv += ["--out", str(file)]
        bad = folder if where in ("--config", "data.source.path") else file
        assert cli.main(argv) == 1
        assert repr(str(bad)) in capsys.readouterr().err

    def test_readme_config_table_lists_every_key(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = [line for line in readme.read_text().splitlines()
                if line.startswith("| `")]
        named = {line.split("`")[1] for line in rows}
        assert schema_keys() <= named
