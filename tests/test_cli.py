import ast
import contextlib
import csv
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import elastab

from elastab.cli import main
from elastab.config import load_config, parse_text_config
from elastab.errors import SingularityError

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
            {"domain": {"d": 2.5}},
            {"domain": {"d": 2.9}},
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
             "lambda-negative", "lambda-nan", "dimension-4", "dimension-2.5", "dimension-2.9",
             "shape-cube", "domain-scalar",
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


class TestDocumentKeys:
    @pytest.mark.parametrize(
        "command,doc,key",
        [
            ("fem-sweep", {"kappa_s": [2.0], "lamda_over_mu": [1e4]}, "lamda_over_mu"),
            ("fem-sweep", {"kappa_s": [2.0], "robin": {"choise": "pressure"}}, "robin.choise"),
            ("fem-sweep", {"kappa_s": [2.0], "geometry": {"r_in": 0.5, "el": 2.0}}, "geometry.el"),
            ("fem-sweep", {"kappa_s": [2.0], "materials": {"mu": 2.0}}, "materials"),
            ("fem-sweep", {"kappa_s": [2.0], "force": True}, "force"),  # a key no longer read
            ("bounds", {**BOUNDS_CFG, "domian": {"d": 2}}, "domian"),
            ("bounds", {**BOUNDS_CFG, "domain": {"d": 2, "shap": "ball"}}, "domain.shap"),
            ("bounds", {**BOUNDS_CFG, "material": {"rho": 1.0, "mu": 1.0, "lamda": 2.0}},
             "material.lamda"),
            ("bounds", {**BOUNDS_CFG, "constants": {"c_genral": 2.0}}, "constants.c_genral"),
        ],
        ids=["sweep-top", "sweep-robin", "sweep-geometry", "sweep-block", "sweep-force",
             "bounds-top", "bounds-domain", "bounds-material", "bounds-constants"],
    )
    def test_misspelt_key_exits_2_naming_it(self, command, doc, key, tmp_path, capsys):
        # a key no reader looks at would be ignored while the manifest
        # echoes it: lamda_over_mu = [1e4] would run lambda/mu = 1
        cfg = tmp_path / "doc.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error" in err and repr(key) in err and "Traceback" not in err

    def test_every_read_key_is_accepted(self):
        import elastab.cli as cli

        sweep = {
            "geometry": {"r_in": 0.5, "ell": 1.0}, "material": {"rho": 1.0, "mu": 1.0},
            "lambda_over_mu": [1.0], "order": 2, "points_per_wavelength": 10.0,
            "robin": {"choice": "custom", "alpha_t": 1.0, "alpha_n": 2.0},
        }
        for frequencies in ({"kappa_s": [1.0]}, {"omega": [1.0]}):
            assert cli.sweep_config_from({**sweep, **frequencies}, 0).alpha_n == 2.0
        bounds = {
            **BOUNDS_CFG, "domain": {"d": 2, "ell": 1.0, "shape": "annulus", "r_in": 0.5},
            "constants": {"c_general": 2.0},
            "robin": {"choice": "custom", "alpha_t": 1.0, "alpha_n": 2.0},
        }
        assert len(cli.bounds_table(bounds)[1]) == 4


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

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_greens_bytes_identical_at_any_worker_count(self, workers, tmp_path, monkeypatch):
        # the worker count is the one input beyond argv, config and seed, and
        # it reaches the manifest only
        from elastab import greens

        argv = ["greens-verify", "--omega", "2", "--grid-n", "8", "--n-sources", "3", "--seed", "1"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(argv + ["--out-dir", str(a)]) == 0
        monkeypatch.setattr(greens, "worker_count", lambda *args: workers)
        assert main(argv + ["--out-dir", str(b)]) == 0
        assert (a / "greens_report.json").read_bytes() == (b / "greens_report.json").read_bytes()
        assert json.loads((b / "manifest.json").read_text())["workers"] == workers

    def test_manifest_records_the_worker_count_the_sweep_ran_on(self, tmp_path, monkeypatch):
        # a count that would differ between two calls (a changed CPU
        # affinity, say) is taken once, so the manifest records the one used
        from elastab import greens

        counts, used = itertools.count(1), []
        real = greens._run_parallel

        def run_parallel(jobs, workers):
            used.append(workers)
            return real(jobs, workers)

        monkeypatch.setattr(greens, "worker_count", lambda *args: next(counts))
        monkeypatch.setattr(greens, "_run_parallel", run_parallel)
        out = tmp_path / "g"
        assert main(["greens-verify", "--omega", "2", "--grid-n", "8", "--out-dir", str(out)]) == 0
        assert set(used) == {json.loads((out / "manifest.json").read_text())["workers"]}

    def test_package_reads_no_environment_and_threads_only_in_greens(self):
        # argv, config and seed are a run's whole input; greens runs its jobs
        # on threads, whose count the test above shows the results ignore
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
        assert [f for f in found if not (f.startswith("greens.py:") and f.endswith(" threading"))] == []


class TestBenchmarkTraceTargets:
    def test_every_trace_target_exists(self):
        # a renamed attribute would blank one of the benchmark's per-layer
        # metrics without failing anything; the only targets allowed absent
        # are the three stale ones the next benchmark change removes
        tree = ast.parse((Path(__file__).resolve().parent.parent / "bench" / "tracer.py").read_text())
        found = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                 and node.targets[0].id in ("TARGETS", "FACTOR_TARGET")}
        targets = [target[:2] for target in found["TARGETS"]] + [found["FACTOR_TARGET"][:2]]
        assert len(targets) > 20
        absent = {f"{module}.{attr}" for module, attr in targets
                  if not hasattr(importlib.import_module(module), attr)}
        assert absent <= {
            "elastab.greens.quad", "elastab.fem.build_annulus_mesh", "elastab.fem.boundary_load",
        }
        # fem.boundary_load left the package; its span keeps a present target
        boundary = {f"{module}.{attr}" for module, attr, name in found["TARGETS"] if name == "fem.boundary"}
        assert "elastab.fem.evaluate_boundary" in boundary - absent


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

    def test_over_memory_budget_exits_2_before_building(self, tmp_path, capsys, monkeypatch):
        from elastab import greens

        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(greens, "ball_grid", no_grid)
        out = tmp_path / "g"
        assert main(["greens-verify", "--omega", "2", "--grid-n", "200", "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "GiB budget" in err and "Traceback" not in err

    def test_grid_that_fits_one_worker_only_runs_on_one(self, tmp_path, monkeypatch):
        # a budget between the estimates at one and at two workers: the run
        # is not refused, it takes one worker and writes the same bytes
        from elastab import greens

        argv = ["greens-verify", "--omega", "2", "--grid-n", "8", "--n-sources", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setattr(greens, "_cores", lambda: 2)
        assert main(argv + ["--out-dir", str(a)]) == 0
        assert json.loads((a / "manifest.json").read_text())["workers"] == 2
        monkeypatch.setattr(greens, "MEMORY_BUDGET", greens.verify_bytes((8, 12), 2) - 1)
        assert greens.verify_bytes((8, 12), 1) <= greens.MEMORY_BUDGET
        assert main(argv + ["--out-dir", str(b)]) == 0
        assert json.loads((b / "manifest.json").read_text())["workers"] == 1
        assert (a / "greens_report.json").read_bytes() == (b / "greens_report.json").read_bytes()

    def test_memory_budget_clears_the_defaults_and_test_sizes(self):
        from elastab import cli, greens

        # the defaults (also the benchmark's) and the largest CLI grid of the
        # tests, on two workers; acceptance criteria 1-2 verify a 20- and a
        # 25-grid.  The largest grid accepted on one worker is 90.
        assert cli._fine_grid_n(16) == 21
        for grid_ns in ((16, 21), (8, 12), (20, 25)):
            assert greens.verify_bytes(grid_ns, 2) <= greens.MEMORY_BUDGET
        for grid_n, fits in ((90, True), (91, False)):
            grid_ns = (grid_n, cli._fine_grid_n(grid_n))
            assert (greens.verify_bytes(grid_ns, 1) <= greens.MEMORY_BUDGET) is fits

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    @pytest.mark.parametrize("n_sources", [1, 10])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_estimate_tracks_peak_rss(self, workers, n_sources, tmp_path):
        # the budget's model against the peak resident memory of one run in a
        # fresh interpreter (grid_n = 24: a 48^3 and a 62^3 lattice), on one
        # worker and on two, with one source and with ten; VmHWM, unlike
        # ru_maxrss, starts afresh at exec
        script = textwrap.dedent(f"""
            from elastab import cli, greens

            def peak_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))

            greens.worker_count = lambda *args: {workers}
            before = peak_kb()
            cli.greens_report(2.0, 1.0, 1.0, 1.0, 1.0, 24, {n_sources}, 0)
            grid_ns = (24, cli._fine_grid_n(24))
            print((peak_kb() - before) * 1024 / greens.verify_bytes(grid_ns, {workers}))
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

    @pytest.mark.parametrize("target, error, message", [
        ("_convolve", MemoryError, "elastab: out of memory"),
        ("_kernel_spectrum", MemoryError, "elastab: out of memory"),
        ("_convolve", SingularityError("kernel evaluated at r = 0"), "elastab: kernel evaluated at r = 0"),
    ])
    def test_job_error_exits_1_without_report(self, target, error, message, tmp_path, capsys,
                                              monkeypatch):
        # an error raised in a job on a worker thread ends the run as it
        # would on the calling thread, and leaves no thread behind
        from elastab import greens

        real = getattr(greens, target)
        calls = itertools.count(1)

        def failing(*args):
            if next(calls) == 2:
                raise error
            return real(*args)

        monkeypatch.setattr(greens, target, failing)
        monkeypatch.setattr(greens, "worker_count", lambda *args: 2)
        before = set(threading.enumerate())
        out = tmp_path / "g"
        assert main(["greens-verify", "--omega", "2", "--grid-n", "8", "--out-dir", str(out)]) == 1
        assert set(threading.enumerate()) == before
        assert not (out / "greens_report.json").exists()
        err = capsys.readouterr().err
        assert err.strip() == message

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
        # the modes Lanczos ran and those proven below c_emp, with the shift
        # tau that proves them
        assert est["modes"] == {
            "run": len(in_process.modes_run),
            "certified": len(in_process.modes_certified),
            "tau": in_process.tau,
        }
        assert est["modes"]["run"] + est["modes"]["certified"] == n_theta // 2 + 1
        assert est["modes"]["certified"] >= 1 and 1.0 / est["modes"]["tau"] <= float(row["c_emp"])

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
             "force-unknown-key", "mu-zero", "lambda-negative",
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

    def test_thin_annulus_that_cannot_be_meshed_exits_2_before_solving(self, tmp_path, capsys,
                                                                        monkeypatch):
        # at order 2 the smallest resolution mesh (2 x 24) inverts a cell for
        # r_in/ell >= 0.95; kappa_s = 4 meshes (2 x 32), and its row is not
        # solved before the mesh of kappa_s = 1 is refused
        from elastab import fem

        def no_estimate(*args, **kwargs):
            raise AssertionError("a row was solved")

        monkeypatch.setattr(fem, "empirical_constant", no_estimate)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kappa_s": [4.0, 1.0], "geometry": {"r_in": 0.95}}))
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert "kappa_s = 1.0: the 2 x 24 order-2 resolution mesh" in err
        assert "r_in/ell = 0.95" in err

    def test_thin_annulus_meshes_at_order_1(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"kappa_s": [1.0], "geometry": {"r_in": 0.95}, "order": 1}))
        out = tmp_path / "s"
        assert main(["fem-sweep", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert (out / "fem_sweep.csv").exists()

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
        assert est["modes"] == {"run": None, "certified": None, "tau": None}
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
                    "kappa_s": [1, 2],
                    "omega": [5.0],
                },
                {
                    "r_in": 0.25, "ell": 2.0, "rho": 2.0, "mu": 8.0,
                    "lambda_over_mu": (1.0, 100.0), "kappa_s": (1.0, 2.0),
                    "robin_choice": "custom", "alpha_t": 0.5, "alpha_n": 3.0,
                    "order": 1, "points_per_wavelength": 12.0,
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
        # a fresh interpreter: importing the CLI and running bounds and
        # greens-verify load no scipy, concurrent or logging module, and
        # fem-sweep, which needs scipy, still runs after them
        sweep_cfg = tmp_path / "sweep.txt"
        sweep_cfg.write_text(SWEEP_CFG_TEXT)
        # importing the CLI loads only the modules every subcommand needs,
        # and greens-verify adds only greens
        code = textwrap.dedent(
            f"""
            import sys
            from elastab import cli

            def package():
                return sorted(m for m in sys.modules if m.split(".")[0] == "elastab")

            assert package() == ["elastab", "elastab.cli", "elastab.errors", "elastab.mesh"], package()
            assert cli.main(["greens-verify", "--omega", "1.0", "--grid-n", "8",
                             "--n-sources", "1", "--out-dir", {str(tmp_path / "g")!r}]) == 0
            assert package() == [
                "elastab", "elastab.cli", "elastab.errors", "elastab.greens", "elastab.mesh"
            ], package()
            assert cli.main(["bounds", "--config", {str(bounds_cfg)!r},
                             "--out-dir", {str(tmp_path / "b")!r}]) == 0
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
            # the worker threads are threading's: concurrent.futures would
            # load logging, a cold-start cost of every run
            unwanted = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "logging"))
            assert not unwanted, unwanted
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
    "geometry": st.fixed_dictionaries({}, optional={"r_in": _within(0.1, 0.99), "ell": _within(1.0, 2.0)}),
    "material": st.fixed_dictionaries({}, optional={"rho": _within(0.5, 2.0), "mu": _within(0.5, 2.0)}),
    "lambda_over_mu": _list_within(0.0, 1e4),
    "robin": st.fixed_dictionaries({}, optional={
        "choice": st.sampled_from(["shear", "pressure", "custom", "x"]),
        "alpha_t": _FIELD, "alpha_n": _FIELD,
    }),
    "order": _mostly(st.sampled_from([1, 2]), _SCALAR),
    "points_per_wavelength": _within(4.0, 12.0),
}
_SWEEP_DOC = st.one_of(
    st.fixed_dictionaries({"kappa_s": _list_within(0.5, 4.0)}, optional=_SWEEP_OPTIONAL),
    st.fixed_dictionaries({"omega": _list_within(0.1, 1.0)}, optional=_SWEEP_OPTIONAL),
)
# the keys each document kind is read by: a block's keys, or None for a value
_BOUNDS_READ = {
    "material": {"rho", "mu"}, "omega": None, "lambda_over_mu": None,
    "domain": {"d", "ell", "shape", "r_in"}, "robin": {"choice", "alpha_t", "alpha_n"},
    "constants": {"c_general"},
}
_SWEEP_READ = {
    "kappa_s": None, "omega": None, "geometry": {"r_in", "ell"}, "material": {"rho", "mu"},
    "lambda_over_mu": None, "robin": {"choice", "alpha_t", "alpha_n"}, "order": None,
    "points_per_wavelength": None,
}


@st.composite
def _with_unknown_key(draw, docs, read):
    """(document, dotted key): a document from ``docs`` with one key that no
    reader looks at (``read``), at the top level or inside a block, which
    is made when the document has none; the key is a read key of that level
    with one character inserted, dropped or replaced."""
    doc = dict(draw(docs))
    places = [None] + [block for block, keys in read.items() if keys and isinstance(doc.get(block, {}), dict)]
    place = draw(st.sampled_from(places))
    names = set(read) if place is None else read[place]
    base = draw(st.sampled_from(sorted(names)))
    at = draw(st.integers(0, len(base)))
    edit = draw(st.sampled_from(["insert", "drop", "replace"]))
    char = draw(st.sampled_from("abcdefghijklmnopqrstuvwxyz_"))
    tail = base[at:] if edit == "insert" else base[at + 1 :]
    name = base[:at] + (char if edit != "drop" else "") + tail
    assume(name and name not in names)
    value = draw(_SCALAR)
    if place is None:
        doc[name] = value
        return doc, name
    doc[place] = {**doc.get(place, {}), name: value}
    return doc, f"{place}.{name}"


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
    @example(doc={"material": {"rho": 1, "mu": 1}, "omega": [0.0],
                  "robin": {"alpha_t": 1.0, "alpha_n": 1.1125369292536007e-308}})  # chi = inf
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
    @example(doc={"kappa_s": [2.0], "points_per_wavelength": 0.5, "order": 1})
    @example(doc={"kappa_s": [1.0], "geometry": {"r_in": 0.95}})  # the mesh inverts a cell
    @example(doc={"kappa_s": [1.0], "material": {"rho": 1.0, "mu": 1.7714368066207214e-249}})
    @example(doc={"omega": [1.0], "material": {"rho": 2.0, "mu": 5e-324}})  # sqrt(mu/rho) = 0
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

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.one_of(
        st.tuples(st.just("bounds"), _with_unknown_key(_BOUNDS_DOC, _BOUNDS_READ)),
        st.tuples(st.just("fem-sweep"), _with_unknown_key(_SWEEP_DOC, _SWEEP_READ)),
    ))
    def test_unknown_key_exits_2_naming_it(self, case):
        # a misspelt key anywhere in a valid or broken document: exit 2, no
        # output, and the dotted key in the message, before any row is solved
        from elastab import fem

        command, (doc, key) = case
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(fem, "NODE_BUDGET", 10_000)
            cfg = Path(tmp) / "doc.json"
            cfg.write_text(json.dumps(doc))
            out = Path(tmp) / "out"
            code, err = _run_cli([command, "--config", str(cfg), "--out-dir", str(out)])
        assert code == 2 and not out.exists()
        assert "configuration error" in err and repr(key) in err and "Traceback" not in err

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
