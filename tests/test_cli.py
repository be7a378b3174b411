import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nssm
from nssm.cli import main
from nssm.io import read_matrix_csv, read_panel_csv, sha256_file


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
        assert "numpy" in manifest["versions"]

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

    def test_poisson_forecast_with_draws(self, tmp_path):
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
        fc_cfg = write_json(tmp_path / "fc.json",
                            {"model": "poisson", "p": 1, "horizon": 2,
                             "S": 50})
        fc_out = tmp_path / "fc"
        assert run_cli(["forecast", "--config", fc_cfg,
                        "--out", str(fc_out), "--seed", "4",
                        "--panel", str(sim_out / "panel.csv"),
                        "--weight", str(sim_out / "weight.csv"),
                        "--dump-draws"]) == 0
        draws = np.load(fc_out / "draws.npz")
        assert draws["counts_h1"].shape == (50, 6)

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


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes about 1 s to import; only the scoring functions
    # of evalharness need it, and they import it when called.
    src = str(Path(nssm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = "import sys, nssm.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
