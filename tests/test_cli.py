import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nssm
from nssm import cli
from nssm import io as nio
from nssm.cli import main
from nssm.gaussmodel import fit_gaussian
from nssm.lgss import FilterRun
from nssm.diagnostics import stability_report
from nssm.io import (read_matrix_csv, read_panel_csv, read_weight_csv,
                     sha256_file, write_panel_csv)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def sim_config(tmp_path):
    cfg = {
        "model": "gaussian",
        "T": 40,
        "sigma2": 0.25,
        "graph": {"kind": "sbm", "n_nodes": 8,
                  "params": {"block_sizes": [4, 4], "p_in": 0.8,
                             "p_out": 0.2}},
        "coeffs": {"init": [0.1, 0.3, 0.3], "rw_sd": [0.0, 0.005, 0.005]},
    }
    return write_json(tmp_path / "sim.json", cfg)


@pytest.fixture
def fit_config(tmp_path):
    cfg = {"model": "gaussian", "p": 1, "sigma2": 0.25, "q0": 1e-4}
    return write_json(tmp_path / "fit.json", cfg)


@pytest.fixture
def poisson_sim(tmp_path):
    """Directory of a simulated 30 x 6 Poisson panel and its network."""
    sim_cfg = write_json(tmp_path / "sim.json", {
        "model": "poisson", "T": 30,
        "graph": {"kind": "sbm", "n_nodes": 6,
                  "params": {"block_sizes": [3, 3], "p_in": 0.9,
                             "p_out": 0.3}},
        "coeffs": {"init": [0.2, 0.1, 0.1], "rw_sd": [0.0, 0.0, 0.0]},
    })
    sim_out = tmp_path / "sim"
    assert run_cli(["simulate", "--config", sim_cfg,
                    "--out", str(sim_out), "--seed", "4"]) == 0
    return sim_out


def run_cli(argv):
    return main(argv)


class TestPipeline:
    def test_simulate_fit_evaluate_round_trip(self, tmp_path, sim_config,
                                              fit_config, capsys):
        sim_out = tmp_path / "sim"
        assert run_cli(["simulate", "--config", sim_config,
                        "--out", str(sim_out), "--seed", "1"]) == 0
        panel = read_panel_csv(sim_out / "panel.csv")
        assert panel.shape == (40, 8)
        w = read_matrix_csv(sim_out / "weight.csv")
        assert np.allclose(w.sum(axis=1), 1.0)

        fit_out = tmp_path / "fit"
        assert run_cli(["fit", "--config", fit_config,
                        "--out", str(fit_out), "--seed", "1",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")]) == 0
        means = read_matrix_csv(fit_out / "filtered_means.csv",
                                has_header=True)
        assert means.shape == (39, 3)

        eval_cfg = write_json(tmp_path / "eval.json",
                              {"model": "gaussian", "p": 1, "sigma2": 0.25,
                               "horizons": [1, 2], "n_origins": 4})
        eval_out = tmp_path / "eval"
        assert run_cli(["evaluate", "--config", eval_cfg,
                        "--out", str(eval_out), "--seed", "1",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")]) == 0
        text = capsys.readouterr().out
        assert "MAE" in text and "MSE" in text
        lines = (eval_out / "report.csv").read_text().splitlines()
        assert lines[0] == "origin,horizon,node,metric,value"
        # 4 origins x 2 horizons x 8 nodes x 2 metrics
        assert len(lines) - 1 == 4 * 2 * 8 * 2

    def test_manifest_chain_links_by_checksum(self, tmp_path, sim_config,
                                              fit_config):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "3"])
        fit_out = tmp_path / "fit"
        run_cli(["fit", "--config", fit_config, "--out", str(fit_out),
                 "--seed", "3", "--panel", str(sim_out / "panel.csv"),
                 "--weight", str(sim_out / "weight.csv")])
        manifest = json.loads((fit_out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        panel_path = str(sim_out / "panel.csv")
        assert manifest["inputs"][panel_path] == sha256_file(panel_path)
        assert manifest["versions"]["nssm"] == nssm.__version__
        assert {"python", "numpy", "scipy"} <= set(manifest["versions"])

    def test_forecast_gaussian(self, tmp_path, sim_config, fit_config):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "2"])
        fc_cfg = write_json(tmp_path / "fc.json",
                            {"model": "gaussian", "p": 1, "sigma2": 0.25,
                             "horizon": 4})
        fc_out = tmp_path / "fc"
        assert run_cli(["forecast", "--config", fc_cfg,
                        "--out", str(fc_out), "--seed", "2",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")]) == 0
        mat = read_matrix_csv(fc_out / "forecast_means.csv")
        assert mat.shape == (4, 8)
        assert np.all(np.isfinite(mat))

    def test_poisson_forecast_with_draws(self, tmp_path, poisson_sim):
        fc_cfg = write_json(tmp_path / "fc.json",
                            {"model": "poisson", "p": 1, "horizon": 2,
                             "S": 50})
        fc_out = tmp_path / "fc"
        assert run_cli(["forecast", "--config", fc_cfg,
                        "--out", str(fc_out), "--seed", "4",
                        "--panel", str(poisson_sim / "panel.csv"),
                        "--weight", str(poisson_sim / "weight.csv"),
                        "--dump-draws"]) == 0
        draws = np.load(fc_out / "draws.npz")
        assert draws["counts_h1"].shape == (50, 6)

    def test_stabilizer_enabled_false_is_false(self, tmp_path, poisson_sim):
        # {"enabled": false} and false both mean StabilizerConfig.disabled().
        outs = []
        for name, stab in (("off", False), ("enabled_false", {"enabled": False})):
            cfg = write_json(tmp_path / f"{name}.json",
                             {"model": "poisson", "p": 1, "horizon": 3,
                              "S": 40, "stabilizer": stab})
            outs.append(tmp_path / name)
            assert run_cli(["forecast", "--config", cfg,
                            "--out", str(outs[-1]), "--seed", "4",
                            "--panel", str(poisson_sim / "panel.csv"),
                            "--weight", str(poisson_sim / "weight.csv"),
                            "--dump-draws"]) == 0
        off, named = outs
        assert ((off / "forecast_means.csv").read_bytes()
                == (named / "forecast_means.csv").read_bytes())
        a, b = np.load(off / "draws.npz"), np.load(named / "draws.npz")
        for key in a.files:
            assert np.array_equal(a[key], b[key])

    def test_diagnose(self, tmp_path, sim_config, fit_config, capsys):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "5"])
        diag_out = tmp_path / "diag"
        assert run_cli(["diagnose", "--config", fit_config,
                        "--out", str(diag_out), "--seed", "5",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")]) == 0
        assert "spectral radius" in capsys.readouterr().out
        table = read_matrix_csv(diag_out / "stability.csv", has_header=True)
        assert table.shape[1] == 3
        assert (diag_out / "breaks.csv").exists()


    def test_simulate_fit_diagnose_sbm_n50(self, tmp_path, capsys):
        # Seed 205 of this N = 50 SBM panel gave close top singular values
        # that stalled a power-iteration operator norm (exit 3).
        sim_cfg = write_json(tmp_path / "sim.json", {
            "model": "gaussian", "T": 200, "sigma2": 0.25,
            "graph": {"kind": "sbm", "n_nodes": 50,
                      "params": {"block_sizes": [25, 25], "p_in": 0.3,
                                 "p_out": 0.05}},
            "coeffs": {"init": [0.1, 0.3, 0.3], "rw_sd": [0.0, 0.005, 0.005]},
        })
        model_cfg = write_json(tmp_path / "model.json", {
            "model": "gaussian", "p": 1, "sigma2": 0.25, "q0": 1e-4})
        sim_out = tmp_path / "sim"
        data = ["--panel", str(sim_out / "panel.csv"),
                "--weight", str(sim_out / "weight.csv"), "--seed", "205"]
        assert run_cli(["simulate", "--config", sim_cfg, "--out", str(sim_out),
                        "--seed", "205"]) == 0
        assert run_cli(["fit", "--config", model_cfg,
                        "--out", str(tmp_path / "fit")] + data) == 0
        assert run_cli(["diagnose", "--config", model_cfg,
                        "--out", str(tmp_path / "diag")] + data) == 0
        assert "max op norm 0.6658" in capsys.readouterr().out


    def test_gaussian_lag2_forecast_and_evaluate(self, tmp_path, sim_config):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "2"])
        data = ["--seed", "2", "--panel", str(sim_out / "panel.csv"),
                "--weight", str(sim_out / "weight.csv")]
        cfg = {"model": "gaussian", "p": 2, "sigma2": 0.25}
        fc_out = tmp_path / "fc"
        assert run_cli(["forecast", "--config",
                        write_json(tmp_path / "fc.json", {**cfg, "horizon": 4}),
                        "--out", str(fc_out), *data]) == 0
        mat = read_matrix_csv(fc_out / "forecast_means.csv")
        assert mat.shape == (4, 8)
        assert np.all(np.isfinite(mat))
        eval_out = tmp_path / "eval"
        eval_cfg = {**cfg, "horizons": [1, 2], "n_origins": 3}
        assert run_cli(["evaluate", "--config",
                        write_json(tmp_path / "eval.json", eval_cfg),
                        "--out", str(eval_out), *data]) == 0
        lines = (eval_out / "report.csv").read_text().splitlines()
        assert len(lines) - 1 == 3 * 2 * 8 * 2

    def test_diagnose_lag2_reports_b1(self, tmp_path, sim_config):
        # For p = 2, diagnose reports B_1 = beta W + beta' I from the
        # columns of W Y_{t-1} and Y_{t-1}, which are columns 1 and 3.
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "5"])
        data = ["--seed", "5", "--panel", str(sim_out / "panel.csv"),
                "--weight", str(sim_out / "weight.csv")]
        cfg = write_json(tmp_path / "fit.json",
                         {"model": "gaussian", "p": 2, "sigma2": 0.25})
        fit_out, diag_out = tmp_path / "fit", tmp_path / "diag"
        assert run_cli(["fit", "--config", cfg, "--out", str(fit_out),
                        *data]) == 0
        assert run_cli(["diagnose", "--config", cfg, "--out", str(diag_out),
                        *data]) == 0
        header = (fit_out / "filtered_means.csv").read_text().splitlines()[0]
        assert header.split(",")[1::2] == ["WY_lag_1", "Y_lag_1"]
        means = read_matrix_csv(fit_out / "filtered_means.csv",
                                has_header=True)
        rep = stability_report(means[:, 1], means[:, 3],
                               read_weight_csv(sim_out / "weight.csv"))
        table = read_matrix_csv(diag_out / "stability.csv", has_header=True)
        assert np.array_equal(table, np.column_stack(
            [rep.op_norms, rep.spectral_radii, rep.coefficient_proxy]))


    def test_diagnose_lag2_solves_one_n_by_n_eigenproblem(
            self, tmp_path, sim_config, monkeypatch):
        # The radii of B_1 and of the VAR(2) companion at every t come from
        # one eigendecomposition of W; each t adds N 2 x 2 companions.
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "5"])
        cfg = write_json(tmp_path / "fit.json",
                         {"model": "gaussian", "p": 2, "sigma2": 0.25})
        shapes, eigvals = [], np.linalg.eigvals

        def recording(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", recording)
        assert run_cli(["diagnose", "--config", cfg,
                        "--out", str(tmp_path / "diag"), "--seed", "5",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")]) == 0
        assert shapes == [(8, 8)] + [(8, 2, 2)] * 38

    def test_evaluate_fits_the_panel_once(self, tmp_path, sim_config,
                                          monkeypatch):
        # rolling_eval reuses the pass that evaluate has already fitted.
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "3"])
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_gaussian(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_gaussian", counted)
        cfg = write_json(tmp_path / "eval.json",
                         {"model": "gaussian", "sigma2": 0.25,
                          "horizons": [1, 2], "n_origins": 3})
        assert run_cli(["evaluate", "--config", cfg,
                        "--out", str(tmp_path / "eval"), "--seed", "3",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")]) == 0
        assert len(calls) == 1

    def test_diagnose_lag2_takes_contraction_from_companion(
            self, tmp_path, capsys, monkeypatch):
        # B_1 = 0.05 W + 0.05 I has norm 0.1 on the row-normalized complete
        # graph on 4 nodes, but with 0.95 I on lag 2 the VAR(2) has
        # companion spectral radius 1.026: not a contraction.
        w = np.full((4, 4), 1.0 / 3.0) - np.eye(4) / 3.0
        nio.write_matrix_csv(tmp_path / "weight.csv", w)
        write_panel_csv(tmp_path / "panel.csv",
                        np.random.default_rng(0).standard_normal((12, 4)))
        theta = np.tile([0.0, 0.05, 0.0, 0.05, 0.95], (10, 1))
        covs = np.broadcast_to(np.eye(5), (10, 5, 5))
        monkeypatch.setattr(cli, "fit_gaussian", lambda *_: FilterRun(
            theta, covs, theta, covs, np.zeros(10), t0=2))
        cfg = write_json(tmp_path / "fit.json",
                         {"model": "gaussian", "p": 2, "sigma2": 0.25})
        assert run_cli(["diagnose", "--config", cfg,
                        "--out", str(tmp_path / "diag"),
                        "--panel", str(tmp_path / "panel.csv"),
                        "--weight", str(tmp_path / "weight.csv")]) == 0
        out = capsys.readouterr().out
        assert "max op norm 0.1000" in out
        assert "max companion spectral radius 1.0260" in out
        assert "contraction=True" not in out
        assert "contraction=False" in out


class TestDeterminism:
    def test_same_config_seed_byte_identical(self, tmp_path, sim_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(out_a), "--seed", "7"])
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(out_b), "--seed", "7"])
        for name in ("panel.csv", "weight.csv", "paths.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_different_seed_differs(self, tmp_path, sim_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(out_a), "--seed", "7"])
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(out_b), "--seed", "8"])
        assert (out_a / "panel.csv").read_bytes() != \
            (out_b / "panel.csv").read_bytes()


class TestConfigErrors:
    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(["simulate", "--config", str(bad),
                        "--out", str(tmp_path / "o"), "--seed", "0"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "JSON" in err["message"]

    def test_missing_key_named_in_message(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {"model": "gaussian"})
        code = run_cli(["simulate", "--config", cfg,
                        "--out", str(tmp_path / "o"), "--seed", "0"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "'graph'" in err["message"]

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_cli(["simulate", "--config", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "o"), "--seed", "0"])
        assert code == 2

    def test_unknown_model(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {
            "model": "weibull", "T": 10,
            "graph": {"kind": "sbm", "n_nodes": 4,
                      "params": {"block_sizes": [2, 2], "p_in": 1.0,
                                 "p_out": 0.0}},
        })
        code = run_cli(["simulate", "--config", cfg,
                        "--out", str(tmp_path / "o"), "--seed", "0"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "weibull" in err["message"]

    @pytest.mark.parametrize("change, word", [
        ({"coeffs": {"sparse_jumps": {"rate": 0.5, "low": float("nan")}}},
         "low"),
        ({"coeffs": {"sparse_jumps": {"rate": 0.5, "high": float("nan")}}},
         "high"),
        ({"coeffs": {"sparse_jumps": {"rate": 0.5, "indices": [7]}}},
         "indices"),
        ({"burn_in": -5}, "burn_in"),
    ], ids=["nan_low", "nan_high", "bad_index", "negative_burn_in"])
    def test_bad_simulation_setting_exit_2(self, tmp_path, capsys, change,
                                           word):
        cfg = {"model": "gaussian", "T": 20,
               "graph": {"kind": "sbm", "n_nodes": 6,
                         "params": {"block_sizes": [3, 3], "p_in": 0.9,
                                    "p_out": 0.1}},
               **change}
        out = tmp_path / "o"
        code = run_cli(["simulate", "--config", write_json(tmp_path / "c.json", cfg),
                        "--out", str(out), "--seed", "0"])
        assert code == 2
        assert word in json.loads(capsys.readouterr().err)["message"]
        assert not (out / "panel.csv").exists()

    @pytest.mark.parametrize("change", [
        {"burn_in": [1]}, {"T": [20]}, {"T": float("inf")}, {"coeffs": [0.1]},
    ], ids=["burn_in_list", "T_list", "T_infinite", "coeffs_list"])
    def test_wrongly_typed_simulation_value_exit_2(self, tmp_path, capsys,
                                                   sim_config, change):
        cfg = {**json.loads(Path(sim_config).read_text()), **change}
        out = tmp_path / "o"
        code = run_cli(["simulate", "--config",
                        write_json(tmp_path / "c.json", cfg),
                        "--out", str(out), "--seed", "0"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert next(iter(change)) in err["message"]
        assert not (out / "panel.csv").exists()

    @pytest.mark.parametrize("command, change", [
        ("simulate", {"graph": {"kind": "sbm", "n_nodes": 8,
                                "params": {"p_in": 0.8, "p_out": 0.2}}}),
        ("simulate", {"graph": {"kind": "sbm", "n_nodes": 8, "params": [1]}}),
        ("simulate", {"graph": {"kind": "sbm", "n_nodes": 8,
                                "params": {"block_sizes": [4, 4], "p_in": "x",
                                           "p_out": 0.2}}}),
        ("simulate", {"graph": {"kind": "scale_free", "n_nodes": 8,
                                "params": {"m_attach": 2.5}}}),
        ("simulate", {"coeffs": {"init": {"a": 1}}}),
        ("simulate", {"coeffs": {"sparse_jumps": [1]}}),
        ("evaluate", {"origins": 5}),
        ("evaluate", {"origins": [[1]]}),
        ("evaluate", {"origins": [0.5, 1.7]}),
        ("evaluate", {"n_origins": 0}),
        ("evaluate", {"horizons": [1.5, 2.9]}),
    ], ids=["sbm_no_block_sizes", "params_list", "p_in_string",
            "m_attach_fraction", "init_dict", "sparse_jumps_list",
            "origins_number", "origins_nested", "origins_fractional",
            "no_origins", "horizons_fractional"])
    def test_malformed_setting_exit_2(self, tmp_path, capsys, sim_config,
                                      command, change):
        out = tmp_path / "o"
        if command == "simulate":
            cfg = {**json.loads(Path(sim_config).read_text()), **change}
            data = []
        else:
            sim_out = tmp_path / "sim"
            run_cli(["simulate", "--config", sim_config,
                     "--out", str(sim_out), "--seed", "0"])
            cfg = {"model": "gaussian", "p": 1, "sigma2": 0.25,
                   "horizons": [1], **change}
            data = ["--panel", str(sim_out / "panel.csv"),
                    "--weight", str(sim_out / "weight.csv")]
        code = run_cli([command, "--config",
                        write_json(tmp_path / "c.json", cfg),
                        "--out", str(out), "--seed", "0", *data])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (out / "panel.csv").exists()
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command, change", [
        ("fit", {"sigma2": [0.25]}), ("forecast", {"horizon": {"h": 2}}),
        ("evaluate", {"horizons": 4}),
    ], ids=["fit_sigma2", "forecast_horizon", "evaluate_horizons"])
    def test_wrongly_typed_model_value_exit_2(self, tmp_path, capsys,
                                              sim_config, command, change):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        cfg = write_json(tmp_path / "c.json", {"model": "gaussian", **change})
        code = run_cli([command, "--config", cfg,
                        "--out", str(tmp_path / "o"), "--seed", "0",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert next(iter(change)) in err["message"]

    @pytest.mark.parametrize("command, change, key", [
        ("simulate", {"T": 20.7}, "T"),
        ("simulate", {"burn_in": 2.5}, "burn_in"),
        ("simulate", {"graph": {"kind": "sbm", "n_nodes": 8.5,
                                "params": {"block_sizes": [4, 4], "p_in": 0.8,
                                           "p_out": 0.2}}}, "n_nodes"),
        ("forecast", {"p": 1.5}, "p"),
        ("forecast", {"covariates": 0.5}, "covariates"),
        ("forecast", {"horizon": 2.5}, "horizon"),
        ("forecast", {"horizon": True}, "horizon"),
        ("forecast", {"model": "poisson", "S": 300.9}, "S"),
        ("evaluate", {"n_origins": 3.5}, "n_origins"),
        ("irf", {"horizon": 3.5}, "horizon"),
        ("irf", {"shock_node": 1.5}, "shock_node"),
        ("perturb", {"kind": "rewire_degseq", "iters": 2.5}, "iters"),
    ], ids=["T", "burn_in", "n_nodes", "p", "covariates", "horizon",
            "horizon_bool", "S", "n_origins", "irf_horizon", "shock_node",
            "iters"])
    def test_fractional_integer_exit_2(self, tmp_path, capsys, sim_config,
                                       poisson_sim, command, change, key):
        # A fraction (or a bool) where an integer belongs is a config
        # error, not a number to truncate.
        sim_out = tmp_path / "sim"
        if command == "simulate":
            cfg = {**json.loads(Path(sim_config).read_text()), **change}
            data = []
        else:
            run_cli(["simulate", "--config", sim_config,
                     "--out", str(sim_out), "--seed", "0"])
            cfg = {"model": "gaussian", "horizon": 2, "horizons": [1],
                   "beta1": 0.3, "beta2": 0.4, **change}
            data_dir = poisson_sim if cfg["model"] == "poisson" else sim_out
            data = ["--weight", str(data_dir / "weight.csv")]
            if command in ("forecast", "evaluate"):
                data += ["--panel", str(data_dir / "panel.csv")]
        out = tmp_path / "o"
        code = run_cli([command, "--config",
                        write_json(tmp_path / "c.json", cfg),
                        "--out", str(out), "--seed", "0", *data])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert f"{key!r}" in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["fit", "forecast", "evaluate",
                                         "diagnose"])
    def test_covariates_exit_2(self, tmp_path, capsys, sim_config, command):
        # The CLI reads no covariate file, so a recipe with covariate
        # columns could only fail later, for want of Z.
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        data = ["--seed", "0", "--panel", str(sim_out / "panel.csv"),
                "--weight", str(sim_out / "weight.csv")]
        cfg = write_json(tmp_path / "c.json",
                         {"model": "gaussian", "covariates": 2})
        out = tmp_path / "o"
        assert run_cli([command, "--config", cfg, "--out", str(out),
                        *data]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "'covariates'" in err["message"]
        assert "no covariate input" in err["message"]
        assert list(out.iterdir()) == []
        cfg = write_json(tmp_path / "c.json",
                         {"model": "gaussian", "covariates": 0})
        assert run_cli([command, "--config", cfg, "--out", str(out),
                        *data]) == 0

    def test_empty_horizons_exit_2(self, tmp_path, capsys, sim_config):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        cfg = write_json(tmp_path / "c.json",
                         {"model": "gaussian", "horizons": []})
        out = tmp_path / "o"
        code = run_cli(["evaluate", "--config", cfg, "--out", str(out),
                        "--seed", "0", "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "horizons" in err["message"]
        assert not (out / "report.csv").exists()

    def test_bad_sigma2(self, tmp_path, capsys, sim_config):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        cfg = write_json(tmp_path / "c.json",
                         {"model": "gaussian", "sigma2": -1.0})
        code = run_cli(["fit", "--config", cfg,
                        "--out", str(tmp_path / "o"), "--seed", "0",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")])
        assert code == 2
        assert "sigma2" in json.loads(capsys.readouterr().err)["message"]


    def test_negative_eta_max_exit_2(self, tmp_path, capsys, poisson_sim):
        cfg = write_json(tmp_path / "c.json",
                         {"model": "poisson", "p": 1, "horizon": 2, "S": 10,
                          "stabilizer": {"eta_max": -1}})
        code = run_cli(["forecast", "--config", cfg,
                        "--out", str(tmp_path / "o"), "--seed", "0",
                        "--panel", str(poisson_sim / "panel.csv"),
                        "--weight", str(poisson_sim / "weight.csv")])
        assert code == 2
        assert "eta_max" in json.loads(capsys.readouterr().err)["message"]

    def test_origin_before_first_observation_exit_2(self, tmp_path, capsys,
                                                   sim_config):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        cfg = write_json(tmp_path / "c.json",
                         {"model": "gaussian", "p": 1, "sigma2": 0.25,
                          "horizons": [1], "origins": [0, 10]})
        code = run_cli(["evaluate", "--config", cfg,
                        "--out", str(tmp_path / "o"), "--seed", "0",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")])
        assert code == 2
        assert "origin 0" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("key", ["q0", "q1", "P0_scale", "m0_scale"])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, sim_config, key):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        cfg = write_json(tmp_path / "c.json", {"model": "gaussian", "p": 1,
                                               "sigma2": 0.25, key: np.nan})
        code = run_cli(["fit", "--config", cfg,
                        "--out", str(tmp_path / "o"), "--seed", "0",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (tmp_path / "o" / "filtered_means.csv").exists()

    @pytest.mark.parametrize("setting", [
        {"sigma2": np.nan},
        {"coeffs": {"init": [0.1, np.nan, 0.3]}},
        {"coeffs": {"rw_sd": [0.0, np.nan, 0.005]}},
        {"coeffs": {"c": np.nan}},
    ], ids=["sigma2", "init", "rw_sd", "c"])
    def test_nan_simulation_setting_exit_2(self, tmp_path, capsys, sim_config,
                                           setting):
        cfg = json.loads(Path(sim_config).read_text())
        for key, value in setting.items():
            cfg[key] = {**cfg[key], **value} if key == "coeffs" else value
        code = run_cli(["simulate", "--config",
                        write_json(tmp_path / "c.json", cfg),
                        "--out", str(tmp_path / "o"), "--seed", "0"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (tmp_path / "o" / "panel.csv").exists()

    @pytest.mark.parametrize("drop, repeat", [(4, None), (None, 2)],
                             ids=["gap", "repeat"])
    def test_panel_times_not_consecutive_exit_2(self, tmp_path, capsys,
                                                sim_config, fit_config,
                                                drop, repeat):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        header, *rows = (sim_out / "panel.csv").read_text().splitlines()[:11]
        rows = [row for t, row in enumerate(rows) if t != drop]
        if repeat is not None:
            rows.append(rows[repeat])
        panel_csv = tmp_path / "panel.csv"
        panel_csv.write_text("\n".join([header] + rows) + "\n")
        code = run_cli(["fit", "--config", fit_config,
                        "--out", str(tmp_path / "o"), "--seed", "0",
                        "--panel", str(panel_csv),
                        "--weight", str(sim_out / "weight.csv")])
        assert code == 2
        assert "times" in json.loads(capsys.readouterr().err)["message"]

    def test_overflowing_forecast_exit_3(self, tmp_path, capsys, sim_config):
        # Coefficients (40, 40, 40) held by a tiny prior and Q: the
        # forecast grows by a factor 80 a step and overflows long before
        # h = 300. That is a numerical failure, not a config error.
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        cfg = write_json(tmp_path / "c.json", {
            "model": "gaussian", "p": 1, "sigma2": 0.25, "q0": 1e-12,
            "m0_scale": 40.0, "P0_scale": 1e-12, "horizon": 300})
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(["forecast", "--config", cfg,
                            "--out", str(tmp_path / "o"), "--seed", "0",
                            "--panel", str(sim_out / "panel.csv"),
                            "--weight", str(sim_out / "weight.csv")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numerical"
        assert "not finite" in err["message"]
        assert not (tmp_path / "o" / "forecast_means.csv").exists()

    def test_overflowing_forecast_stderr_is_one_json_line(self, tmp_path,
                                                          sim_config):
        # The overflow is reported once, as the structured error; numpy's
        # overflow warnings on the way there are not printed.
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        cfg = write_json(tmp_path / "c.json", {
            "model": "gaussian", "p": 1, "sigma2": 0.25, "q0": 1e-12,
            "m0_scale": 40.0, "P0_scale": 1e-12, "horizon": 300})
        out = run_python(["-m", "nssm.cli", "forecast", "--config", cfg,
                          "--out", str(tmp_path / "o"), "--seed", "0",
                          "--panel", str(sim_out / "panel.csv"),
                          "--weight", str(sim_out / "weight.csv")])
        assert out.returncode == 3
        lines = out.stderr.splitlines()
        assert len(lines) == 1, out.stderr
        assert json.loads(lines[0])["error"] == "numerical"


class TestInputErrors:
    """A malformed panel or weight CSV, or a weight matrix of another size
    than the panel, is a config error for every command that reads them."""

    DATA_COMMANDS = ["fit", "forecast", "evaluate", "diagnose"]

    @staticmethod
    def malformed(case, panel_csv):
        header, *rows = panel_csv.read_text().splitlines()
        if case == "header_only":
            return [header], "no time row"
        if case == "no_node_column":
            times = [row.split(",")[0] for row in rows]
            return ["time"] + times, "no node column"
        rows[5] = rows[5].rsplit(",", 1)[0]
        return [header] + rows, "line 7 has"

    @pytest.mark.parametrize("model", ["gaussian", "poisson"])
    @pytest.mark.parametrize("command", DATA_COMMANDS)
    @pytest.mark.parametrize("case", ["header_only", "no_node_column",
                                      "ragged_row"])
    def test_malformed_panel_exit_2(self, tmp_path, capsys, sim_config,
                                    poisson_sim, model, command, case):
        if model == "gaussian":
            sim_out = tmp_path / "sim_g"
            run_cli(["simulate", "--config", sim_config,
                     "--out", str(sim_out), "--seed", "0"])
        else:
            sim_out = poisson_sim
        lines, message = self.malformed(case, sim_out / "panel.csv")
        panel_csv = tmp_path / "bad_panel.csv"
        panel_csv.write_text("\n".join(lines) + "\n")
        cfg = write_json(tmp_path / "c.json", {"model": model, "S": 20})
        out = tmp_path / "o"
        code = run_cli([command, "--config", cfg, "--out", str(out),
                        "--seed", "0", "--panel", str(panel_csv),
                        "--weight", str(sim_out / "weight.csv")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert message in err["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("model", ["gaussian", "poisson"])
    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_weight_size_mismatch_exit_2(self, tmp_path, capsys, sim_config,
                                         poisson_sim, model, command):
        if model == "gaussian":
            sim_out = tmp_path / "sim_g"
            run_cli(["simulate", "--config", sim_config,
                     "--out", str(sim_out), "--seed", "0"])
        else:
            sim_out = poisson_sim
        weight_csv = tmp_path / "weight2.csv"
        weight_csv.write_text("0.0,1.0\n1.0,0.0\n")
        cfg = write_json(tmp_path / "c.json", {"model": model, "S": 20})
        out = tmp_path / "o"
        code = run_cli([command, "--config", cfg, "--out", str(out),
                        "--seed", "0", "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(weight_csv)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "but W has 2 nodes" in err["message"]
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("command", DATA_COMMANDS + ["irf", "perturb"])
    @pytest.mark.parametrize("case", ["ragged_row", "blank_line"])
    def test_malformed_weight_exit_2(self, tmp_path, capsys, sim_config,
                                     command, case):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "0"])
        lines = (sim_out / "weight.csv").read_text().splitlines()
        if case == "ragged_row":
            lines[5] = lines[5].rsplit(",", 1)[0]
            message = "line 6 has 7 fields, its first row 8"
        else:
            lines.insert(3, "")
            message = "line 4 has 0 fields, its first row 8"
        weight_csv = tmp_path / "bad_weight.csv"
        weight_csv.write_text("\n".join(lines) + "\n")
        cfg = write_json(tmp_path / "c.json", {"model": "gaussian"})
        out = tmp_path / "o"
        data = ["--weight", str(weight_csv)]
        if command in self.DATA_COMMANDS:
            data += ["--panel", str(sim_out / "panel.csv")]
        code = run_cli([command, "--config", cfg, "--out", str(out),
                        "--seed", "0", *data])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert message in err["message"]
        assert list(out.iterdir()) == []


class TestPanelCsv:
    def test_round_trip_in_any_row_order(self, tmp_path):
        panel = np.random.default_rng(0).standard_normal((6, 3))
        write_panel_csv(tmp_path / "p.csv", panel)
        assert np.array_equal(read_panel_csv(tmp_path / "p.csv"), panel)
        header, *rows = (tmp_path / "p.csv").read_text().splitlines()
        (tmp_path / "q.csv").write_text("\n".join([header] + rows[::-1]))
        assert np.array_equal(read_panel_csv(tmp_path / "q.csv"), panel)

    @pytest.mark.parametrize("times", [[0, 1, 3], [0, 1, 1, 2], [1, 2, 3]])
    def test_times_must_be_0_to_t_minus_1(self, tmp_path, times):
        rows = [f"{t},0.5" for t in times]
        (tmp_path / "p.csv").write_text("\n".join(["time,node_0"] + rows))
        with pytest.raises(ValueError, match="times"):
            read_panel_csv(tmp_path / "p.csv")

    @pytest.mark.parametrize("text, message", [
        ("", "header"),
        ("\ntime,node_0\n0,0.5\n", "header"),
        ("time,node_0,node_1\n", "no time row"),
        ("time\n0\n1\n", "no node column"),
        ("time,node_0,node_1\n0,0.5,1.5\n1,0.5\n", "line 3 has 2 fields"),
        ("time,node_0\n0,0.5,1.5\n", "line 2 has 3 fields"),
        ("time,node_0\n0,0.5\n\n1,0.5\n", "line 3 has 0 fields"),
    ], ids=["empty", "blank_first_line", "header_only", "no_node_column",
            "short_row", "long_row", "blank_row"])
    def test_malformed_panel_rejected(self, tmp_path, text, message):
        (tmp_path / "p.csv").write_text(text)
        with pytest.raises(ValueError, match=message):
            read_panel_csv(tmp_path / "p.csv")


class TestIrfAndPerturb:
    def test_irf_outputs(self, tmp_path, sim_config):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "6"])
        cfg = write_json(tmp_path / "irf.json",
                         {"horizon": 3, "beta1": 0.3, "beta2": 0.4,
                          "shock_node": 1})
        out = tmp_path / "irf"
        assert run_cli(["irf", "--config", cfg, "--out", str(out),
                        "--seed", "6",
                        "--weight", str(sim_out / "weight.csv")]) == 0
        total = read_matrix_csv(out / "irf_total.csv")
        contribs = read_matrix_csv(out / "irf_contributions.csv")
        assert total.shape == (1, 8)
        # hop contributions sum to the total response
        assert np.allclose(contribs.sum(axis=0), total[0], atol=1e-12)

    def test_perturb_permutation_preserves_row_sums(self, tmp_path,
                                                    sim_config):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "9"])
        cfg = write_json(tmp_path / "p.json", {"kind": "permute_labels"})
        out = tmp_path / "pert"
        assert run_cli(["perturb", "--config", cfg, "--out", str(out),
                        "--seed", "9",
                        "--weight", str(sim_out / "weight.csv")]) == 0
        w = read_matrix_csv(out / "weight_perturbed.csv")
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_perturb_unknown_kind_exit_2(self, tmp_path, sim_config, capsys):
        sim_out = tmp_path / "sim"
        run_cli(["simulate", "--config", sim_config,
                 "--out", str(sim_out), "--seed", "9"])
        cfg = write_json(tmp_path / "p.json", {"kind": "tornado"})
        code = run_cli(["perturb", "--config", cfg,
                        "--out", str(tmp_path / "o"), "--seed", "9",
                        "--weight", str(sim_out / "weight.csv")])
        assert code == 2


def run_python(args, **env_vars):
    """Run ``python args`` in a fresh interpreter that imports this
    checkout's nssm, with ``env_vars`` set in its environment (a None
    value unsets the variable); returns the completed process."""
    src = str(Path(nssm.__file__).resolve().parents[1])
    env = dict(os.environ)
    for name, value in env_vars.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, timeout=120)


def loaded_after_import(module):
    """The modules a fresh interpreter has loaded after ``import module``."""
    code = f"import sys, {module}; print(*sys.modules)"
    out = run_python(["-c", code])
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def loaded_by_cli_import(module):
    """Whether a fresh interpreter has ``module`` loaded after
    ``import nssm.cli``."""
    return module in loaded_after_import("nssm.cli")


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes about 1 s to import; only the scoring functions
    # of evalharness need it, and they import it when called.
    assert not loaded_by_cli_import("scipy.stats")


def test_import_leaves_scipy_special_out():
    # scipy.special is most of scipy's import cost; the Poisson log-pmf
    # of fit_poisson is numpy, and evalharness.score imports logsumexp
    # when called.
    assert not loaded_by_cli_import("scipy.special")


def test_poisson_forecast_leaves_scipy_sparse_out():
    # The draw blocks' W products are plain numpy: importing scipy.sparse
    # alone adds about 20 MB of resident memory, against a peak near
    # 90 MB for a whole Poisson rolling evaluation at N = 552.
    code = (
        "import sys, numpy as np\n"
        "from nssm.design import DesignRecipe\n"
        "from nssm.graph import WeightMatrix\n"
        "from nssm.lgss import StateNoiseSpec\n"
        "from nssm.poissonmodel import (PoissonSpec, StabilizerConfig,\n"
        "                               fit_poisson, mc_forecast)\n"
        "w = WeightMatrix(np.roll(np.eye(8), 1, axis=1))\n"
        "panel = np.random.default_rng(0).poisson(2.0, (20, 8))\n"
        "spec = PoissonSpec(DesignRecipe(),\n"
        "                   StateNoiseSpec.constant(1e-4 * np.eye(3)))\n"
        "ens = mc_forecast(fit_poisson(panel, w, spec), spec, 3, 5,\n"
        "                  StabilizerConfig(), 0)\n"
        "print(len(ens), 'scipy.sparse' in sys.modules)\n")
    out = run_python(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["3", "False"]


def test_import_leaves_networkx_out():
    # nssm does not depend on networkx; simulate draws its scale-free
    # graphs itself.
    assert not loaded_by_cli_import("networkx")


class TestImportGraph:
    """The package root holds only the version, and each module loads
    only the nssm modules it imports."""

    @staticmethod
    def package(loaded):
        return {m for m in loaded if m == "nssm" or m.startswith("nssm.")}

    def test_package_root_loads_nothing(self):
        loaded = loaded_after_import("nssm")
        assert self.package(loaded) == {"nssm"}
        assert "numpy" not in loaded

    def test_tensorcp_loads_lgss_alone(self):
        assert self.package(loaded_after_import("nssm.tensorcp")) == {
            "nssm", "nssm.lgss", "nssm.tensorcp"}

    def test_evalharness_leaves_poissonmodel_out(self):
        # Only tail_metrics reads poissonmodel's explosion threshold, and
        # it imports it when called.
        assert "nssm.poissonmodel" not in loaded_after_import("nssm.evalharness")


class TestBlasThreads:
    """A CLI process runs OpenBLAS on one thread unless the user set
    OPENBLAS_NUM_THREADS, and its manifest records the value; importing
    nssm.cli sets nothing."""

    ENTRIES = {
        "module": ["-m", "nssm.cli"],
        # The console script's entry function, called as its wrapper does.
        "console": ["-c", "import sys; from nssm.console import main; "
                          "sys.exit(main())"],
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("user, recorded", [(None, "1"), ("2", "2")])
    def test_manifest_records_the_count(self, tmp_path, sim_config, entry,
                                        user, recorded):
        out = tmp_path / "sim"
        proc = run_python(self.ENTRIES[entry] + [
            "simulate", "--config", sim_config, "--out", str(out)],
            OPENBLAS_NUM_THREADS=user)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["openblas_num_threads"] == recorded

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="counts threads in /proc/self/task")
    @pytest.mark.parametrize("call", [
        "runpy.run_module('nssm.cli', run_name='__main__', alter_sys=True)",
        "sys.exit(nssm.console.main())",
    ], ids=["module", "console"])
    def test_command_runs_no_pool_thread(self, tmp_path, sim_config, call):
        # numpy's OpenBLAS reads the count when it loads, so each entry
        # point must set it first; the command then runs on its own thread.
        code = ("import os, runpy, sys, nssm.console\n"
                "try:\n"
                f"    {call}\n"
                "finally:\n"
                "    print(len(os.listdir('/proc/self/task')))\n")
        out = run_python(["-c", code, "simulate", "--config", sim_config,
                          "--out", str(tmp_path / "sim")],
                         OPENBLAS_NUM_THREADS=None)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1"]

    def test_import_sets_nothing(self):
        code = "import os, nssm.cli; print('OPENBLAS_NUM_THREADS' in os.environ)"
        out = run_python(["-c", code], OPENBLAS_NUM_THREADS=None)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False"]
