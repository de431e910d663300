import json

import numpy as np
from sgaflow import cli
from sgaflow.model import phi_gradient


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
            adj[-1, 1:], -phi_gradient(oracle, theta_star, data.z_val))

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

    def test_divergent_initial_state_reports_runtime_failure(self, tmp_path,
                                                             capsys):
        c = base_config()
        c["model"]["theta0"] = [1e9, 1e9]
        cfg = write_config(tmp_path, c)
        assert cli.main(["baseline", "--config", str(cfg), "--quiet"]) == 2
        assert "diverged" in capsys.readouterr().err


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


class TestDpcheck:
    def test_refuses_high_dimensional_model(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(
            model={"family": "mlp_tanh", "hidden": 4}))
        assert cli.main(["dpcheck", "--config", str(cfg), "--quiet"]) == 1
        assert "p <= 3" in capsys.readouterr().err

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
