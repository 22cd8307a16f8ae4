import ast
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import elastab

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

    @pytest.mark.parametrize(
        "change",
        [
            {"omega": [-1.0]},
            {"omega": [float("nan")]},
            {"omega": [1.0, float("inf")]},
            {"material": {"rho": 1.0, "mu": 0}},
            {"material": {"rho": -1.0, "mu": 1.0}},
            {"material": {"rho": 1.0, "mu": float("inf")}},
            {"lambda_over_mu": [-5.0]},
            {"lambda_over_mu": [float("nan")]},
            {"domain": {"d": 4}},
            {"domain": {"shape": "cube"}},
            {"domain": 5},
            {"robin": {"choice": "custom", "alpha_t": 0.0, "alpha_n": 1.0}},
            {"robin": {"choice": "nonsense"}},
            {"constants": {"c_general": 0.5}},
            {"constants": {"c_general": float("nan")}},
            {"material": {"rho": 1.0, "mu": 5e-324}, "omega": [0.0]},
            {"omega": [1e300], "domain": {"ell": 1e10}},
        ],
        ids=["omega-negative", "omega-nan", "omega-inf", "mu-zero", "rho-negative", "mu-inf",
             "lambda-negative", "lambda-nan", "dimension-4", "shape-cube", "domain-scalar",
             "alpha-zero", "robin-unknown", "c_general-below-1", "c_general-nan",
             "kappa-nan", "kappa-inf"],
    )
    def test_invalid_input_exits_2_without_output(self, change, tmp_path, capsys):
        cfg = tmp_path / "bounds.json"
        cfg.write_text(json.dumps({**BOUNDS_CFG, **change}))
        out = tmp_path / "b"
        assert main(["bounds", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    def test_zero_frequency_in_2d_writes_a_zero_bound(self, tmp_path):
        cfg = tmp_path / "bounds.json"
        cfg.write_text(json.dumps({"material": {"rho": 1, "mu": 1}, "omega": [0.0],
                                   "domain": {"d": 2}}))
        out = tmp_path / "b"
        assert main(["bounds", "--config", str(cfg), "--out-dir", str(out)]) == 0
        with open(out / "bounds.csv") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["simple_robin"]) == 0.0

    def test_manifest_times_the_evaluation(self, bounds_cfg, tmp_path, monkeypatch):
        import elastab.cli as cli

        table = cli.bounds_table
        monkeypatch.setattr(cli, "bounds_table", lambda cfg: time.sleep(0.05) or table(cfg))
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(bounds_cfg), "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["stages"]["evaluate"] >= 0.05


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

    def test_package_reads_no_environment_and_starts_no_threads(self):
        # argv, config and seed are a run's whole input
        banned_modules = ("threading", "concurrent", "multiprocessing")
        found = []
        for path in sorted(Path(elastab.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                    if node.module == "os":
                        modules += [f"os.{alias.name}" for alias in node.names]
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "os"):
                    modules = [f"os.{node.attr}"]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {m}" for m in modules
                          if m.split(".")[0] in banned_modules or m in ("os.environ", "os.getenv")]
        assert found == []


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

    @pytest.mark.parametrize("ell", ["4.5e13", "1e300", "9e-41", "5e-324"])
    def test_ell_out_of_range_exits_2_naming_the_range(self, ell, tmp_path, capsys):
        out = tmp_path / "g"
        assert main(["greens-verify", "--omega", "1", "--ell", ell, "--grid-n", "8",
                     "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--ell must lie in [1e-40, 1e+13]" in err and "Traceback" not in err

    def test_largest_ell_keeps_the_ratio(self, tmp_path):
        # at kappa_s = 2 the ratio does not depend on ell
        ratios = []
        for ell in (1.0, 1e13):
            out = tmp_path / str(ell)
            assert main(["greens-verify", "--omega", str(2.0 / ell), "--ell", str(ell),
                         "--grid-n", "8", "--n-sources", "1", "--out-dir", str(out)]) == 0
            ratios.append(json.loads((out / "greens_report.json").read_text())["ratio"])
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)

    @pytest.mark.parametrize("kappa", [2.0, 20.0])
    def test_smallest_ell_keeps_the_ratio(self, kappa, tmp_path):
        # the self-cell series are in powers of k a: no power of omega or of
        # ell alone overflows or underflows
        reports = []
        for ell in (1.0, 1e-13, 1e-40):
            out = tmp_path / f"{kappa}-{ell}"
            assert main(["greens-verify", "--omega", str(kappa / ell), "--ell", str(ell),
                         "--grid-n", "8", "--n-sources", "1", "--out-dir", str(out)]) == 0
            reports.append(json.loads((out / "greens_report.json").read_text()))
        for rep in reports[1:]:
            for key in ("ratio", "scalar_ratio_max", "elastic_ratio_max", "grid_consistency"):
                assert rep[key] == pytest.approx(reports[0][key], rel=1e-9)

    @pytest.mark.parametrize("flags", [["--grid-n", "200"], ["--grid-n", "8", "--n-sources", "100000"]],
                             ids=["grid", "sources"])
    def test_over_memory_budget_exits_2_before_building(self, flags, tmp_path, capsys,
                                                        monkeypatch):
        from elastab import greens

        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(greens, "ball_grid", no_grid)
        out = tmp_path / "g"
        assert main(["greens-verify", "--omega", "2", *flags, "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "GiB budget" in err and "Traceback" not in err

    def test_memory_budget_clears_the_defaults_and_test_sizes(self):
        from elastab import cli, greens

        # the defaults (also the benchmark's) and the largest CLI sizes of the
        # tests; acceptance criteria 1-2 verify 20 sources on a 25-grid
        for grid_n, n_sources in ((16, 3), (8, 2)):
            assert greens.verify_bytes(cli._fine_grid_n(grid_n), n_sources) <= greens.MEMORY_BUDGET
        assert cli._fine_grid_n(16) == 21
        assert greens.verify_bytes(25, 20) <= greens.MEMORY_BUDGET

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_memory_estimate_tracks_peak_rss(self, tmp_path):
        # the budget's model against the peak resident memory of one run in a
        # fresh interpreter (grid_n = 24, three sources: a 62^3 fine lattice);
        # VmHWM, unlike ru_maxrss, starts afresh at exec
        script = textwrap.dedent("""
            from elastab import cli, greens

            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))

            before = peak_kb()
            cli.greens_report(2.0, 1.0, 1.0, 1.0, 1.0, 24, 3, 0)
            print((peak_kb() - before) * 1024 / greens.verify_bytes(cli._fine_grid_n(24), 3))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(elastab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert 0.4 <= float(proc.stdout) <= 1.6

    def test_memory_error_exits_1_without_traceback(self, tmp_path, capsys, monkeypatch):
        from elastab import cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "greens_report", exhausted)
        out = tmp_path / "g"
        assert main(["greens-verify", "--omega", "2", "--grid-n", "8", "--out-dir", str(out)]) == 1
        assert not (out / "greens_report.json").exists()
        err = capsys.readouterr().err
        assert "out of memory" in err and "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_exits_1_without_report(self, tmp_path, capsys):
        # finite inputs whose ratios overflow (omega^2 = 1e200 * ...); past
        # 1e154 omega^2 itself overflows
        for omega in ("1e100", "1e160", "1e200"):
            out = tmp_path / omega
            code = main(["greens-verify", "--omega", omega, "--grid-n", "8", "--n-sources", "1",
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
        from elastab import fem

        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT)
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
        header = (out / "fem_sweep.csv").read_text().splitlines()[0].split(",")
        assert "lanczos_steps" not in header and "ritz_residual" not in header
        assert not {"factor", "lu_nnz", "top_mode"} & set(header)
        [est] = json.loads((out / "manifest.json").read_text())["estimates"]
        assert est["kappa_s"] == 1.0 and est["lanczos_steps"] >= 1
        assert 0.0 <= est["ritz_residual"] <= 1e-8
        [row] = csv.DictReader((out / "fem_sweep.csv").read_text().splitlines())
        n_theta = int(row["n_theta"])
        assert set(est["factor"]) == {"lu_nnz"} and est["factor"]["lu_nnz"] > 0
        assert set(est["first_solve"]) == {"residual", "backward_error"}
        assert 0.0 <= est["first_solve"]["residual"] <= 1e-8
        assert 0.0 < est["first_solve"]["backward_error"] <= 1e-14
        # the angular mode m in 0..n_theta/2 whose block holds the top value
        sweep_cfg = fem.SweepConfig()
        material = sweep_cfg.material(1.0)
        mesh = fem.resolution_mesh(sweep_cfg, 1.0)
        in_process = fem.empirical_constant(mesh, material, sweep_cfg.robin(material), 1.0)
        assert est["top_mode"] == in_process.top_mode and 0 <= est["top_mode"] <= n_theta // 2

    @pytest.mark.parametrize(
        "line",
        [
            "kappa_s = [-2]",
            "kappa_s = [NaN]",
            "order = 3",
            "order = 1.5",
            "order = true",
            'force = "false"',
            "material.mu = 0",
            "lambda_over_mu = [-5]",
            "geometry.r_in = 1.5",
            "geometry = 5",
            "robin.choice = nonsense",
        ],
        ids=["kappa-negative", "kappa-nan", "order-3", "order-fraction", "order-bool",
             "force-string", "mu-zero", "lambda-negative",
             "r_in-outside", "geometry-scalar", "robin-unknown"],
    )
    def test_invalid_input_exits_2_without_output(self, line, tmp_path, capsys):
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT + line + "\n")
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize("kappa", ["1e3", "1e300"])
    def test_mesh_over_node_budget_exits_2_before_building(self, kappa, tmp_path, capsys,
                                                           monkeypatch):
        from elastab import fem

        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built")

        monkeypatch.setattr(fem._mesh, "build_annulus_mesh", no_mesh)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kappa_s": [1.0, float(kappa)]}))
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{fem.NODE_BUDGET}-node budget" in err and "Traceback" not in err

    def test_node_budget_clears_the_benchmark_meshes(self):
        # the annulus workload's largest row, kappa_s = 32 at order 2
        from elastab import fem

        cfg = fem.SweepConfig(kappa_s=(32.0,))
        cfg.validate()
        assert fem.resolution_mesh(cfg, 32.0).n_nodes <= fem.NODE_BUDGET

    @pytest.mark.parametrize("alpha", [0.02, 1.0])
    def test_custom_robin_rows_use_the_simple_robin_theorem(self, alpha, tmp_path):
        # alpha = 0.02 is far from pressure matching: the realistic bound
        # (12.79 at kappa_s = 2) sits below c_emp (16.92), the simple-Robin
        # theorem for that impedance does not; at alpha = 1 it is the ideal
        # obstacle bound
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kappa_s": [2.0], "robin": {
            "choice": "custom", "alpha_t": alpha, "alpha_n": alpha}}))
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
        [row] = csv.DictReader((out / "fem_sweep.csv").read_text().splitlines())
        bound = float(row["applicable_bound"])
        assert float(row["slack"]) == pytest.approx(bound - float(row["c_emp"]), rel=1e-12)
        if alpha == 1.0:
            assert bound == pytest.approx(float(row["bound_ideal_full"]), rel=1e-12)
        else:
            assert float(row["bound_realistic"]) < float(row["c_emp"]) < bound

    def test_failed_estimate_writes_empty_cells_and_null_diagnostics(self, tmp_path, monkeypatch):
        from elastab import fem
        from elastab.errors import SolverError

        def fails(*args, **kwargs):
            raise SolverError("solve residual 2e-08 above 1e-08")

        monkeypatch.setattr(fem, "empirical_constant", fails)
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT)
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 1
        [row] = csv.DictReader((out / "fem_sweep.csv").read_text().splitlines())
        assert row["c_emp"] == row["slack"] == ""
        assert row["error"] == "solve residual 2e-08 above 1e-08"
        [est] = json.loads((out / "manifest.json").read_text())["estimates"]
        assert est["lanczos_steps"] is None and est["ritz_residual"] is None
        assert est["top_mode"] is None
        assert est["factor"] == {"lu_nnz": None}
        assert est["first_solve"] == {"residual": None, "backward_error": None}

    def test_nearly_incompressible_row_solves(self, tmp_path):
        # lambda/mu = 1e8: the relative residual of the first solve is ~4e-8,
        # its backward error ~5e-17, and the row is a finite c_emp
        cfg = tmp_path / "sweep.txt"
        cfg.write_text(SWEEP_CFG_TEXT.replace("kappa_s = [1.0]", "kappa_s = [8]")
                       .replace("lambda_over_mu = [1.0]", "lambda_over_mu = [1e8]"))
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out), "--seed", "3"]) == 0
        [row] = csv.DictReader((out / "fem_sweep.csv").read_text().splitlines())
        assert row["error"] == "" and float(row["lambda_over_mu"]) == 1e8
        assert math.isfinite(float(row["c_emp"]))
        [est] = json.loads((out / "manifest.json").read_text())["estimates"]
        assert 0.0 < est["first_solve"]["backward_error"] <= 1e-14

    @pytest.mark.parametrize(
        "doc,fields",
        [
            ({"kappa_s": [1.0]}, {"kappa_s": (1.0,)}),
            ({"omega": [2.0], "material": {"rho": 4.0}}, {"rho": 4.0, "kappa_s": (4.0,)}),
            (
                {"kappa_s": [2.0], "robin": {"alpha_t": 0.5}},
                {"kappa_s": (2.0,), "robin_choice": "custom", "alpha_t": 0.5},
            ),
            (
                {
                    "geometry": {"r_in": 0.25, "ell": 2.0},
                    "material": {"rho": 2.0, "mu": 8.0},
                    "lambda_over_mu": [1, 100],
                    "robin": {"choice": "custom", "alpha_t": 0.5, "alpha_n": 3},
                    "order": 1,
                    "points_per_wavelength": 12,
                    "force": True,
                    "kappa_s": [1, 2],
                    "omega": [5.0],
                },
                {
                    "r_in": 0.25, "ell": 2.0, "rho": 2.0, "mu": 8.0,
                    "lambda_over_mu": (1.0, 100.0), "kappa_s": (1.0, 2.0),
                    "robin_choice": "custom", "alpha_t": 0.5, "alpha_n": 3.0,
                    "order": 1, "points_per_wavelength": 12.0, "force": True,
                },
            ),
        ],
        ids=["kappa-only", "omega-and-rho", "robin-without-choice", "every-key"],
    )
    def test_sweep_config_keeps_the_field_defaults(self, doc, fields):
        from elastab import fem
        from elastab.cli import sweep_config_from

        assert sweep_config_from(doc, seed=3) == fem.SweepConfig(seed=3, **fields)

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

    def test_manifest_times_each_suite(self, tmp_path):
        from elastab.cli import _SUITES

        def run(suite):
            out = tmp_path / suite
            assert main(["identity-check", "--suite", suite, "--seed", "3", "--out-dir", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            return manifest["stages"], json.loads((out / "identity_report.json").read_text())

        stages, reports = run("all")
        assert set(stages) == {"import", *_SUITES}
        # the report does not depend on how the stages are cut
        singles = []
        for name in _SUITES:
            one_stage, one_reports = run(name)
            assert set(one_stage) == {"import", name}
            singles.extend(one_reports)
        assert singles == reports


class TestFormatFlag:
    @pytest.mark.parametrize("argv", [
        ["greens-verify", "--omega", "1.0", "--format", "csv"],
        ["identity-check", "--suite", "robin", "--format", "json"],
    ], ids=["greens-verify", "identity-check"])
    def test_json_report_commands_refuse_the_flag(self, argv, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert not out.exists()
        assert "--format" in capsys.readouterr().err


class TestColdStart:
    def test_numpy_only_subcommands_never_import_scipy(self, bounds_cfg, tmp_path):
        # a fresh interpreter: bounds and greens-verify load no scipy module,
        # and fem-sweep, which needs scipy, still runs after them
        sweep_cfg = tmp_path / "sweep.txt"
        sweep_cfg.write_text(SWEEP_CFG_TEXT)
        code = textwrap.dedent(
            f"""
            import sys
            from elastab import cli
            assert cli.main(["greens-verify", "--omega", "1.0", "--grid-n", "8",
                             "--n-sources", "1", "--out-dir", {str(tmp_path / "g")!r}]) == 0
            assert cli.main(["bounds", "--config", {str(bounds_cfg)!r},
                             "--out-dir", {str(tmp_path / "b")!r}]) == 0
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
            assert cli.main(["fem-sweep", "--config", {str(sweep_cfg)!r},
                             "--out-dir", {str(tmp_path / "s")!r}]) == 0
            assert "scipy.sparse.linalg" in sys.modules
            """
        )
        src = str(Path(elastab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "s" / "fem_sweep.csv").exists()


# fuzzed inputs: mostly plausible values, plus non-finite, negative, huge,
# tiny, wrongly typed and missing ones
def _mostly(valid, fuzzed):
    """``valid`` on most draws, ``fuzzed`` on the rest, so that many
    documents are valid or break in one place (hypothesis favours small
    integers, and 0 to 3 pick ``valid``)."""
    return st.integers(0, 4).flatmap(lambda i: fuzzed if i == 4 else valid)


_SCALAR = st.one_of(
    st.floats(), st.integers(min_value=-3, max_value=5), st.text(max_size=3), st.none(), st.booleans()
)
_FIELD = _mostly(st.floats(min_value=0.0, max_value=10.0), _SCALAR)
_LIST = _mostly(st.lists(_FIELD, min_size=1, max_size=3), _SCALAR)
_BOUNDS_DOC = st.fixed_dictionaries(
    {"material": st.fixed_dictionaries({"rho": _FIELD, "mu": _FIELD}), "omega": _LIST},
    optional={
        "lambda_over_mu": _LIST,
        "domain": st.fixed_dictionaries({}, optional={
            "d": _mostly(st.sampled_from([2, 3]), _SCALAR), "ell": _FIELD,
            "shape": st.sampled_from(["ball", "annulus", "cube"]), "r_in": _FIELD,
        }),
        "robin": st.fixed_dictionaries({}, optional={
            "choice": st.sampled_from(["shear", "pressure", "custom", "x"]),
            "alpha_t": _FIELD, "alpha_n": _FIELD,
        }),
        "constants": st.fixed_dictionaries({}, optional={"c_general": _FIELD}),
    },
)
# fem-sweep documents: every _SWEEP_FIELDS key and kappa_s or omega; the
# valid ranges keep kappa_s <= 4 (omega ell / theta_s <= 1 * 2 / 0.5)
def _within(lo, hi):
    return _mostly(st.floats(lo, hi), _SCALAR)


def _list_within(lo, hi):
    return _mostly(st.lists(_within(lo, hi), min_size=1, max_size=2), _SCALAR)


_SWEEP_OPTIONAL = {
    "geometry": st.fixed_dictionaries({}, optional={"r_in": _within(0.1, 0.9), "ell": _within(1.0, 2.0)}),
    "material": st.fixed_dictionaries({}, optional={"rho": _within(0.5, 2.0), "mu": _within(0.5, 2.0)}),
    "lambda_over_mu": _list_within(0.0, 1e4),
    "robin": st.fixed_dictionaries({}, optional={
        "choice": st.sampled_from(["shear", "pressure", "custom", "x"]),
        "alpha_t": _FIELD, "alpha_n": _FIELD,
    }),
    "order": _mostly(st.sampled_from([1, 2]), _SCALAR),
    "points_per_wavelength": _within(4.0, 12.0),
    "force": _mostly(st.booleans(), _SCALAR),
}
_SWEEP_DOC = st.one_of(
    st.fixed_dictionaries({"kappa_s": _list_within(0.5, 4.0)}, optional=_SWEEP_OPTIONAL),
    st.fixed_dictionaries({"omega": _list_within(0.1, 1.0)}, optional=_SWEEP_OPTIONAL),
)
_GREENS_FLAGS = st.fixed_dictionaries(
    {"--omega": _FIELD},
    optional={flag: _FIELD for flag in ("--rho", "--mu", "--lam", "--ell")},
)


def _run_cli(argv):
    """(exit code, stderr) of an in-process run; an escaping exception fails
    the test with its traceback."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_contract(code, err, out, result):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert not out.exists()
    if code == 0:
        assert result.exists()
        # non-finite values never reach a table
        if result.suffix == ".csv":
            for line in result.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    assert cell.lower() not in ("nan", "inf", "-inf")


class TestCliFuzz:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=_BOUNDS_DOC)
    @example(doc={"material": {"rho": 1.0, "mu": 1.0}, "omega": [1e200]})  # kappa**2 overflows
    @example(doc={"material": {"rho": 1.0, "mu": 1.0}, "omega": [1e300],
                  "domain": {"ell": 1e10}})  # kappa_s = inf
    @example(doc={"material": {"rho": 1.0, "mu": 1.0}, "omega": [1.0],
                  "constants": {"c_general": math.nan}})
    @example(doc={"material": {"rho": 1, "mu": 1}, "omega": [0.0],
                  "domain": {"d": 2}})  # the simple-Robin bound is exactly 0
    @example(doc={"material": {"rho": 1, "mu": 5e-324}, "omega": [0.0]})  # kappa_s = 0 * inf
    @example(doc={"material": {"rho": 1, "mu": 1e-320}, "omega": [0.0]})
    def test_bounds_documents(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "bounds.json"
            cfg.write_text(json.dumps(doc))
            out = Path(tmp) / "out"
            code, err = _run_cli(["bounds", "--config", str(cfg), "--out-dir", str(out)])
            _assert_contract(code, err, out, out / "bounds.csv")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(doc=_SWEEP_DOC)
    @example(doc={"kappa_s": [1e3]})  # over the node budget
    @example(doc={"kappa_s": [1.0], "points_per_wavelength": 1e300})
    @example(doc={"omega": [1.0], "material": {"rho": 1e300, "mu": 1.0}})  # kappa_s = inf
    @example(doc={"kappa_s": [2.0], "lambda_over_mu": [1e308], "robin": {"choice": "pressure"}})
    @example(doc={"kappa_s": [1.0], "geometry": {"r_in": 0.5, "ell": 0.5}})
    @example(doc={"kappa_s": [2.0], "points_per_wavelength": 0.5, "force": True, "order": 1})
    def test_sweep_documents(self, doc):
        # a 10,000-node budget keeps every fuzzed row cheap (kappa_s ~ 25 at
        # 10 points per wavelength); larger meshes take the over-budget exit
        from elastab import fem

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(fem, "NODE_BUDGET", 10_000)
            cfg = Path(tmp) / "sweep.json"
            cfg.write_text(json.dumps(doc))
            out = Path(tmp) / "out"
            code, err = _run_cli(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)])
            _assert_contract(code, err, out, out / "fem_sweep.csv")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=_GREENS_FLAGS)
    @example(values={"--omega": 1.0, "--ell": 4.5e13})  # the self-cell series overflows
    def test_greens_flags(self, values):
        flags = [f"{flag}={value}" for flag, value in values.items()]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, err = _run_cli(["greens-verify", *flags, "--grid-n", "8", "--n-sources", "1",
                                  "--out-dir", str(out)])
            _assert_contract(code, err, out, out / "greens_report.json")
