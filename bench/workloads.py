"""The benchmark's workloads: inputs made from the seed, the tasks of one
round, and the checks that decide whether a task failed.

A round is a closed loop: one client runs the workload's tasks back to back
through the package's public entry points (``elastab.cli.main`` and the
public functions of ``greens``).  Every lookup goes through the module
attribute at call time, so the traced run's wrappers see the calls.

A task fails when it raises, when a CLI call exits with a code other than 0,
or when an output falls outside its reference.  References that depend on
the seed come from the independent oracle in ``oracle.py``; the others are
the seed commit's outputs, stored in ``reference.json``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from elastab import cli, greens

import oracle

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

# the workload definitions; see NOTES.md for why each was chosen
OMEGA = 2.0
GRID_N = 16
FINE_GRID_N = 21  # what greens-verify derives from GRID_N: max(n + 4, round(1.3 n))
N_SOURCES = 3
ANNULUS_SWEEP = {"kappa_s": [16, 24, 32], "lambda_over_mu": [1.0], "robin": {"choice": "shear"}, "order": 2}
AUDIT_SWEEP = {
    "kappa_s": [1, 2, 4],
    "lambda_over_mu": [1.0, 1e2, 1e4],
    "robin": {"choice": "shear"},
    "order": 2,
}
AUDIT_BOUNDS = {
    "material": {"rho": 1.0, "mu": 1.0},
    "omega": [0.5, 1.0, 2.0, 4.0, 8.0],
    "lambda_over_mu": [1.0, 1e2, 1e4],
}

# relative tolerances; each admits the ROADMAP item-1 prototypes (1.4e-15,
# 1.2e-14) and the item-2 estimator (the probe reads ~6e-5 low today)
RTOL_GREENS = 1e-9
RTOL_MULTIPLIER = 1e-7
RTOL_C_EMP = 1e-3
RTOL_BOUNDS = 1e-12


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    out_dir: Path | None = None  # set for CLI tasks; its bytes count as output


@dataclass
class Workload:
    name: str
    tasks: list
    sizes: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)  # seed-dependent reference, see attach_oracle


def _close(value, ref, rtol) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def _cli_task(name: str, out_dir: Path, argv: list, check) -> Task:
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = argv + ["--out-dir", str(out_dir)]
    return Task(name, lambda: cli.main(argv), lambda rc: check(rc, out_dir), out_dir)


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg))
    return path


def check_greens_report(rc, out_dir: Path, ref: dict) -> list:
    problems = [] if rc == 0 else [f"greens-verify exit code {rc}"]
    report = json.loads((out_dir / "greens_report.json").read_text())
    if report["passed"] is not True:
        problems.append("greens-verify report not passed")
    expected = {"grid_n": GRID_N, "fine_grid_n": FINE_GRID_N, "n_sources": N_SOURCES}
    problems += [f"{k} = {report[k]}, expected {v}" for k, v in expected.items() if report[k] != v]
    for key in ("ratio", "scalar_ratio_max", "elastic_ratio_max", "grid_consistency"):
        if not _close(report[key], ref[key], RTOL_GREENS):
            problems.append(f"{key} = {report[key]!r}, reference {ref[key]!r}")
    return problems


def check_multiplier(value, ref: float, bound: float) -> list:
    problems = []
    if not _close(value, ref, RTOL_MULTIPLIER):
        problems.append(f"multiplier norm {value!r}, reference {ref!r}")
    if not value <= bound:
        problems.append(f"multiplier norm {value!r} above 2 + 8 k_s ell = {bound!r}")
    return problems


def check_sweep(rc, out_dir: Path, ref_rows: list) -> list:
    """Every row present with the exact dof count, solved, nonnegative slack,
    and c_emp near the seed commit's value."""
    problems = [] if rc == 0 else [f"fem-sweep exit code {rc}"]
    with open(out_dir / "fem_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(ref_rows):
        return problems + [f"{len(rows)} sweep rows, expected {len(ref_rows)}"]
    for row, ref in zip(rows, ref_rows):
        label = f"kappa_s={row['kappa_s']} lambda/mu={row['lambda_over_mu']}"
        if float(row["kappa_s"]) != ref["kappa_s"] or float(row["lambda_over_mu"]) != ref["lambda_over_mu"]:
            problems.append(f"row {label} out of order")
        if int(row["n_dofs"]) != ref["n_dofs"]:
            problems.append(f"{label}: n_dofs {row['n_dofs']}, expected {ref['n_dofs']}")
        if row["refused"] != "false" or row["error"]:
            problems.append(f"{label}: refused={row['refused']} error={row['error']!r}")
            continue
        if not float(row["slack"]) >= 0.0:
            problems.append(f"{label}: slack {row['slack']}")
        if not _close(float(row["c_emp"]), ref["c_emp"], RTOL_C_EMP):
            problems.append(f"{label}: c_emp {row['c_emp']}, reference {ref['c_emp']!r}")
    return problems


def check_identities(rc, out_dir: Path, ref_count: int) -> list:
    problems = [] if rc == 0 else [f"identity-check exit code {rc}"]
    reports = json.loads((out_dir / "identity_report.json").read_text())
    if len(reports) != ref_count:
        problems.append(f"{len(reports)} identity reports, expected {ref_count}")
    problems += [f"identity {r['name']} failed" for r in reports if r["passed"] is not True]
    return problems


def check_bounds(rc, out_dir: Path, ref: dict) -> list:
    problems = [] if rc == 0 else [f"bounds exit code {rc}"]
    with open(out_dir / "bounds.csv", newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != ref["header"] or len(table) - 1 != len(ref["rows"]):
        return problems + ["bounds table shape differs from the reference"]
    for row, ref_row in zip(table[1:], ref["rows"]):
        for col, cell, expected in zip(ref["header"], row, ref_row):
            if isinstance(expected, bool):
                ok = cell == ("true" if expected else "false")
            else:
                ok = _close(float(cell), expected, RTOL_BOUNDS) if expected else float(cell) == 0.0
            if not ok:
                problems.append(f"bounds {col} = {cell}, reference {expected!r} (row {row[:3]})")
    return problems


def build_inputs(name: str, seed: int, out: Path, reference: dict = REFERENCE) -> Workload:
    """The workload's tasks with their inputs written under ``out``; what the
    program receives is fully determined by ``seed``."""
    s = ["--seed", str(seed)]
    if name == "whole-space":
        k = greens.WaveNumbers.from_material(1.0, 1.0, 1.0, OMEGA)
        mult = reference["whole_space"]["multiplier"]
        expected: dict = {}
        return Workload(
            name,
            [
                _cli_task(
                    "greens-verify",
                    out / "greens",
                    ["greens-verify", "--omega", str(OMEGA)] + s,
                    lambda rc, d: check_greens_report(rc, d, expected),
                ),
                Task(
                    "multiplier",
                    lambda: greens.fourier_multiplier_norm(k, 1.0, tol=1e-8),
                    lambda v: check_multiplier(v, mult, 2.0 + 8.0 * k.k_s),
                ),
            ],
            expected=expected,
        )
    if name == "annulus":
        cfg = _write_config(out / "annulus.json", ANNULUS_SWEEP)
        ref = reference["annulus"]["rows"]
        return Workload(
            name,
            [_cli_task("fem-sweep", out / "sweep", ["fem-sweep", "--config", str(cfg)] + s,
                       lambda rc, d: check_sweep(rc, d, ref))],
            {"dofs": [r["n_dofs"] for r in ref]},
        )
    if name == "audit":
        sweep_cfg = _write_config(out / "audit_sweep.json", AUDIT_SWEEP)
        bounds_cfg = _write_config(out / "audit_bounds.json", AUDIT_BOUNDS)
        ref = reference["audit"]
        return Workload(
            name,
            [
                _cli_task("identity-check", out / "identities", ["identity-check", "--suite", "all"] + s,
                          lambda rc, d: check_identities(rc, d, ref["identity_reports"])),
                _cli_task("fem-sweep", out / "sweep", ["fem-sweep", "--config", str(sweep_cfg)] + s,
                          lambda rc, d: check_sweep(rc, d, ref["sweep_rows"])),
                _cli_task("bounds", out / "bounds", ["bounds", "--config", str(bounds_cfg)] + s,
                          lambda rc, d: check_bounds(rc, d, ref["bounds"])),
            ],
            {"dofs": [r["n_dofs"] for r in ref["sweep_rows"]]},
        )
    raise ValueError(f"unknown workload {name!r}")


def attach_oracle(workload: Workload, seed: int) -> None:
    """Compute the seed-dependent whole-space reference.  It is not part of
    set-up: users of the program never pay for it."""
    if workload.name != "whole-space":
        return
    sources = greens.random_ball_sources(1.0, N_SOURCES, seed)
    ref = oracle.whole_space_reference(sources, 1.0, GRID_N, FINE_GRID_N, 1.0, 1.0, 1.0, OMEGA)
    workload.expected.update(ref)
    workload.sizes.update(grid_nodes=ref["nodes"], fine_grid_nodes=ref["fine_nodes"])
