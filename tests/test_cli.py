import json

import pytest

from elastab.cli import main
from elastab.config import load_config, parse_text_config

BOUNDS_CFG = {
    "material": {"rho": 1.0, "mu": 1.0},
    "domain": {"d": 3, "ell": 1.0, "shape": "ball"},
    "robin": {"choice": "shear"},
    "omega": [0.5, 1.0],
    "lambda_over_mu": [0.0, 1.0],
}

SWEEP_CFG_TEXT = """
# annulus probe
geometry.r_in = 0.5
geometry.ell = 1.0
material.rho = 1.0
material.mu = 1.0
robin.choice = shear
kappa_s = [1.0]
lambda_over_mu = [1.0]
order = 2
"""


@pytest.fixture
def bounds_cfg(tmp_path):
    p = tmp_path / "bounds.json"
    p.write_text(json.dumps(BOUNDS_CFG))
    return p


class TestConfig:
    def test_text_and_json_equivalent(self, tmp_path):
        text = """
        material.rho = 1.0
        material.mu = 2.5
        omega = [1.0, 2.0]
        robin.choice = shear
        flag = true
        """
        doc = parse_text_config(text)
        assert doc == {
            "material": {"rho": 1.0, "mu": 2.5},
            "omega": [1.0, 2.0],
            "robin": {"choice": "shear"},
            "flag": True,
        }
        p = tmp_path / "cfg.txt"
        p.write_text(text)
        assert load_config(p) == doc

    def test_malformed_text(self):
        from elastab.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_text_config("just a line without equals")

    def test_malformed_json(self, tmp_path):
        from elastab.errors import ConfigError

        p = tmp_path / "bad.json"
        p.write_text("{not valid json")
        with pytest.raises(ConfigError):
            load_config(p)


class TestBoundsCommand:
    def test_csv_output(self, bounds_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(bounds_cfg), "--out-dir", str(out)]) == 0
        lines = (out / "bounds.csv").read_text().strip().splitlines()
        assert lines[0].startswith("omega,kappa_s,lambda_over_mu")
        assert len(lines) == 1 + 2 * 2  # header + omega x ratio grid
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "bounds"
        assert "bounds.csv" in manifest["outputs"]

    def test_json_mirrors_csv(self, bounds_cfg, tmp_path):
        out_c = tmp_path / "c"
        out_j = tmp_path / "j"
        main(["bounds", "--config", str(bounds_cfg), "--out-dir", str(out_c)])
        main(["bounds", "--config", str(bounds_cfg), "--out-dir", str(out_j), "--format", "json"])
        rows = json.loads((out_j / "bounds.json").read_text())
        csv_lines = (out_c / "bounds.csv").read_text().strip().splitlines()
        assert len(rows) == len(csv_lines) - 1
        header = csv_lines[0].split(",")
        first = dict(zip(header, csv_lines[1].split(",")))
        assert float(first["fundamental"]) == pytest.approx(rows[0]["fundamental"])

    def test_malformed_config_exits_2_without_outputs(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"material": {"rho": 1.0}}))  # missing keys
        out = tmp_path / "nothing"
        assert main(["bounds", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()

    def test_missing_file_exits_2(self, tmp_path):
        out = tmp_path / "nothing"
        code = main(["bounds", "--config", str(tmp_path / "absent.json"), "--out-dir", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unknown_flag_exits_2(self, bounds_cfg):
        assert main(["bounds", "--config", str(bounds_cfg), "--bogus"]) == 2


class TestDeterminism:
    def test_bounds_bytes_identical(self, bounds_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["bounds", "--config", str(bounds_cfg), "--out-dir", str(a), "--seed", "7"])
        main(["bounds", "--config", str(bounds_cfg), "--out-dir", str(b), "--seed", "7"])
        assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()

    def test_identity_check_all_suites_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code = main(["identity-check", "--suite", "all", "--seed", "7", "--out-dir", str(d)])
            assert code == 0
        assert (a / "identity_report.json").read_bytes() == (b / "identity_report.json").read_bytes()

    def test_fem_sweep_bytes_identical(self, tmp_path):
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT)
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(d), "--seed", "3"]) == 0
        assert (a / "fem_sweep.csv").read_bytes() == (b / "fem_sweep.csv").read_bytes()

    def test_greens_bytes_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            code = main(
                ["greens-verify", "--omega", "1.0", "--grid-n", "8", "--n-sources", "2",
                 "--seed", "5", "--out-dir", str(d)]
            )
            assert code == 0
        assert (a / "greens_report.json").read_bytes() == (b / "greens_report.json").read_bytes()


class TestGreensCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "g"
        code = main(
            ["greens-verify", "--omega", "1.5", "--grid-n", "8", "--n-sources", "2",
             "--out-dir", str(out)]
        )
        assert code == 0
        rep = json.loads((out / "greens_report.json").read_text())
        for key in ("kappa_s", "ratio", "bound", "slack", "grid_consistency"):
            assert key in rep
        assert rep["slack"] >= 0.0

    def test_bad_arguments_exit_2(self, tmp_path):
        out = tmp_path / "g"
        assert main(["greens-verify", "--omega", "-1.0", "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--omega", "nan"],
            ["--omega", "inf"],
            ["--omega", "1.0", "--lam", "nan"],
            ["--omega", "1.0", "--rho", "inf"],
            ["--omega", "1.0", "--mu", "nan"],
            ["--omega", "1.0", "--ell", "inf"],
            ["--omega", "1.0", "--n-sources", "0"],
        ],
        ids=["omega-nan", "omega-inf", "lam-nan", "rho-inf", "mu-nan", "ell-inf", "no-sources"],
    )
    def test_invalid_input_exits_2_without_report(self, flags, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["greens-verify", *flags, "--grid-n", "8", "--out-dir", str(out)]) == 2
        assert not (out / "greens_report.json").exists()
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_exits_1_without_report(self, tmp_path, capsys):
        # finite inputs whose ratios overflow (omega^2 = 1e200 * ...)
        out = tmp_path / "g"
        code = main(["greens-verify", "--omega", "1e100", "--grid-n", "8", "--n-sources", "1",
                     "--out-dir", str(out)])
        assert code == 1
        assert not (out / "greens_report.json").exists()
        err = capsys.readouterr().err
        assert "not JSON compliant" in err and "Traceback" not in err


class TestFemSweepCommand:
    def test_rows_and_manifest(self, tmp_path):
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT)
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
        lines = (out / "fem_sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mesh_stats"]["rows"] == 1

    def test_json_mirrors_csv(self, tmp_path):
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT)
        out_c, out_j = tmp_path / "c", tmp_path / "j"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out_c)]) == 0
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out_j),
                     "--format", "json"]) == 0
        rows = json.loads((out_j / "fem_sweep.json").read_text())
        csv_lines = (out_c / "fem_sweep.csv").read_text().strip().splitlines()
        header = csv_lines[0].split(",")
        first = dict(zip(header, csv_lines[1].split(",")))
        assert float(first["c_emp"]) == pytest.approx(rows[0]["c_emp"])
        assert int(first["n_dofs"]) == rows[0]["n_dofs"]
        assert set(rows[0]) == set(header)

    def test_manifest_records_certificates(self, tmp_path):
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT)
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
        header = (out / "fem_sweep.csv").read_text().splitlines()[0].split(",")
        assert "lanczos_steps" not in header and "ritz_residual" not in header
        [est] = json.loads((out / "manifest.json").read_text())["estimates"]
        assert est["kappa_s"] == 1.0 and est["lanczos_steps"] >= 1
        assert 0.0 <= est["ritz_residual"] <= 1e-8

    @pytest.mark.parametrize(
        "line,env",
        [
            ("kappa_s = [-2]", None),
            ("kappa_s = [NaN]", None),
            ("order = 3", None),
            ("material.mu = 0", None),
            ("lambda_over_mu = [-5]", None),
            ("geometry.r_in = 1.5", None),
            ("geometry = 5", None),
            ("order = 2", "two"),
            ("order = 2", "0"),
        ],
        ids=["kappa-negative", "kappa-nan", "order-3", "mu-zero", "lambda-negative",
             "r_in-outside", "geometry-scalar", "threads-word", "threads-zero"],
    )
    def test_invalid_input_exits_2_without_output(self, line, env, tmp_path, capsys, monkeypatch):
        if env is not None:
            monkeypatch.setenv("ELASTAB_THREADS", env)
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT + line + "\n")
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    def test_omega_list_with_zero_mu_exits_2(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"material": {"mu": 0.0}, "omega": [1.0]}))
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()


class TestIdentityCheckCommand:
    def test_all_suites_listed(self):
        from elastab.cli import _SUITES

        assert set(_SUITES) == {"garding", "rellich", "mass", "morawetz", "korn", "robin", "chain"}

    def test_suite_passes_and_reports(self, tmp_path):
        out = tmp_path / "i"
        assert main(["identity-check", "--suite", "robin", "--out-dir", str(out)]) == 0
        reports = json.loads((out / "identity_report.json").read_text())
        assert reports and all(r["passed"] for r in reports)
