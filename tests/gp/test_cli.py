"""`repro gp train/predict` run in-process, reports validated end to end."""

import json

import pytest

from repro.__main__ import main
from repro.obs import load_report, validate_report

ARGS = ["--kernel", "sqexp", "--n", "300", "--nb", "100", "--leaf-size", "40",
        "--eps", "1e-6", "--length", "0.4", "--noise", "0.05"]


class TestTrain:
    def test_cold_then_warm_train(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        rc = main(["gp", "train", *ARGS, "--store", store])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(cold)" in out
        assert "factorised" in out
        assert "relative residual" in out

        rc = main(["gp", "train", *ARGS, "--store", store])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(warm)" in out
        assert "store hit" in out

    def test_train_profile_report_validates(self, tmp_path, capsys):
        path = tmp_path / "train.json"
        rc = main(["gp", "train", *ARGS, "--profile", str(path)])
        assert rc == 0
        report = load_report(path)
        assert validate_report(report) == []
        gp = report["gp"]
        assert gp["kernel"] == "sqexp"
        assert gp["n_train"] == 300 and gp["n_test"] == 0
        assert gp["train_seconds"] > 0


class TestPredictService:
    def test_served_predict_batches_and_validates(self, tmp_path, capsys):
        path = tmp_path / "predict.json"
        rc = main([
            "gp", "predict", *ARGS, "--store", str(tmp_path / "store"),
            "--n-test", "24", "--profile", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "batching" in out
        assert "posterior" in out
        report = load_report(path)
        assert validate_report(report) == []
        gp = report["gp"]
        assert gp["n_test"] == 24
        assert gp["predict_throughput_rps"] > 0
        assert gp["batch_width_mean"] > 1.0  # panels actually coalesced
        assert gp["mean_rmse"] < 3 * 0.05
        assert 0.0 <= gp["var_min"] <= gp["var_max"]
        assert report["service"]["requests"]["completed"] == 24

    def test_predict_reuses_trained_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["gp", "train", *ARGS, "--store", store]) == 0
        capsys.readouterr()
        rc = main(["gp", "predict", *ARGS, "--store", store, "--n-test", "8"])
        assert rc == 0
        assert "posterior" in capsys.readouterr().out


class TestPredictDirect:
    def test_direct_pcg_profile_has_krylov(self, tmp_path, capsys):
        path = tmp_path / "pcg.json"
        rc = main([
            "gp", "predict", *ARGS, "--direct", "--pcg", "--pcg-rtol", "1e-10",
            "--n-test", "16", "--profile", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pcg" in out and "converged" in out
        report = load_report(path)
        assert validate_report(report) == []
        krylov = report["gp"]["krylov"]
        assert krylov["converged"] is True
        assert krylov["iterations"] > 0
        # Instrumentation captured the ambient krylov counters too.
        counters = report["counters"]["counters"]
        assert counters["krylov.solves"] == 1
        assert counters["krylov.solves.pcg"] == 1

    def test_pcg_without_direct_rejected(self, capsys):
        rc = main(["gp", "predict", *ARGS, "--pcg"])
        assert rc == 2
        assert "--direct" in capsys.readouterr().err


class TestParser:
    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main(["gp"])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            main(["gp", "train", "--kernel", "laplace"])

    def test_report_is_json_on_disk(self, tmp_path):
        path = tmp_path / "r.json"
        assert main(["gp", "train", *ARGS, "--profile", str(path)]) == 0
        assert isinstance(json.loads(path.read_text()), dict)
