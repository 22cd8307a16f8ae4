"""Command-line entry point.

Four subcommands:

    bounds          closed-form stability constants for a configuration,
                    one CSV row per (omega, lambda/mu) pair
    greens-verify   whole-space fundamental-solution bound check on a
                    midpoint ball grid (JSON report)
    fem-sweep       empirical resolvent constants on the annulus probe
                    against the applicable closed-form bounds (CSV)
    identity-check  numerical audit suites for the integration-by-parts
                    identities and inequalities (JSON report)

Exit codes: 0 full pass, 1 any bound/identity violation or a result that
overflows (non-finite values are never written), 2 usage or configuration
error (in which case no output file is written).  Every run writes a
``manifest.json`` next to its outputs with the tool version, the
configuration echo, the seed, per-stage wall-clock, and output digests;
result files themselves are byte-deterministic under a fixed seed.

``bounds`` and ``greens-verify`` need numpy only.  Importing the CLI
loads only ``errors`` and ``mesh`` of the package: each subcommand imports
the modules it uses when it runs (``fem`` and ``identities``, which load
scipy, only on the ``fem-sweep`` and ``identity-check`` paths), and every
call resolves through the module attribute.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, ElastabError
from .mesh import build_annulus_mesh

__all__ = ["main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_scalar(obj):
    """The Python scalar of a numpy scalar, for ``json.dumps``, which calls
    this for every value it cannot encode itself (np.float64 is a float and
    never reaches it)."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload) -> None:
    """Write strict JSON; a non-finite value is an error and writes nothing."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False, default=_json_scalar)
    except ValueError as exc:
        raise ElastabError(f"{path.name} not written: {exc}") from exc
    path.write_text(text + "\n")


def _write_csv(path: Path, header, rows) -> None:
    """Write the table; a non-finite value is an error and writes nothing."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            elif math.isfinite(v):
                cells.append(_fmt(v))
            else:
                raise ElastabError(f"{path.name} not written: non-finite value {v!r}")
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _write_table(out_dir: Path, stem: str, fmt: str, header, rows) -> Path:
    """Write ``<stem>.csv``, or ``<stem>.json`` with one object per row."""
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{stem}.{fmt}"
    if fmt == "json":
        _write_json(out, [dict(zip(header, row)) for row in rows])
    else:
        _write_csv(out, header, rows)
    return out


class _Manifest:
    def __init__(self, subcommand: str, config_echo: dict, seed: int):
        self.data = {
            "tool": "elastab",
            "version": __version__,
            "subcommand": subcommand,
            "config": config_echo,
            "seed": seed,
            "stages": {},
            "outputs": {},
        }

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        self.data["stages"][name] = time.perf_counter() - t0

    def finish(self, out_dir: Path, out: Path) -> None:
        """Record the digest of the result file ``out`` and write the manifest."""
        self.data["outputs"][out.name] = "sha256:" + hashlib.sha256(out.read_bytes()).hexdigest()
        _write_json(out_dir / "manifest.json", self.data)


def _refuse_unknown_keys(cfg: dict, known, command: str) -> None:
    """ConfigError naming the first key of the document, as a dotted path,
    that ``command`` does not read (``known``: the dotted paths it reads).
    The keys of a block are checked when the block is a table; a block of
    another type is left to the reader, which refuses it."""
    blocks = {path.partition(".")[0] for path in known if "." in path}
    for key, value in cfg.items():
        nested = key in blocks and isinstance(value, dict)
        for path in [f"{key}.{sub}" for sub in value] if nested else [key]:
            if path not in known and path not in blocks:
                raise ConfigError(f"{command} does not read the key {path!r}")


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

# the dotted key paths a bounds document may hold
_BOUNDS_KEYS = frozenset({
    "material.rho", "material.mu", "omega", "lambda_over_mu",
    "domain.d", "domain.ell", "domain.shape", "domain.r_in",
    "constants.c_general", "robin.choice", "robin.alpha_t", "robin.alpha_n",
})

def _bounds_inputs(cfg: dict):
    """(domain, multiplier, constants, [(omega, ratio, groups)]) of a
    ``bounds`` document; ConfigError unless every value is finite and in
    range, every domain object can be built from it and every derived
    group is finite (a subnormal mu can make kappa_s 0 * inf, a subnormal
    alpha_n chi and c_rob inf), or a key the document does not use."""
    from . import bounds as bnd, core

    _refuse_unknown_keys(cfg, _BOUNDS_KEYS, "bounds")
    try:
        mat_cfg = cfg["material"]
        dom_cfg = cfg.get("domain", {})
        rho = float(mat_cfg["rho"])
        mu = float(mat_cfg["mu"])
        omegas = [float(w) for w in cfg["omega"]]
        ratios = [float(r) for r in cfg.get("lambda_over_mu", [1.0])]
        d = _integer(dom_cfg.get("d", 3))
        ell = float(dom_cfg.get("ell", 1.0))
        shape = dom_cfg.get("shape", "ball")
        r_in = dom_cfg.get("r_in")
        c_general = cfg.get("constants", {}).get("c_general")
        # fem-sweep's rule: a robin block without a choice is custom
        robin_cfg = cfg.get("robin", {"choice": "shear"})
        choice = robin_cfg.get("choice", "custom")
        alphas = [float(robin_cfg.get(key, 1.0)) for key in ("alpha_t", "alpha_n")]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bounds configuration invalid: {exc}") from exc
    if not (math.isfinite(rho) and rho > 0.0 and math.isfinite(mu) and mu > 0.0):
        raise ConfigError(f"material rho and mu must be finite and positive, got {rho!r}, {mu!r}")
    for name, values in (("omega", omegas), ("lambda_over_mu", ratios)):
        for i, value in enumerate(values):
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name}[{i}] must be finite and >= 0, got {value!r}")
    try:
        domain = core.DomainSpec(d=d, ell=ell, shape=shape, r_in=r_in)
        mult = core.multiplier_for(domain)
        constants = bnd.GenericConstants(c_general=c_general)
        cases = []
        for omega in omegas:
            for ratio in ratios:
                material = core.MaterialField.constant(rho, mu, ratio * mu)
                robin = core.RobinSpec.for_choice(choice, material, *alphas)
                groups = core.derive_groups(material, domain, robin, omega, mult)
                for name, value in groups.as_dict().items():
                    if not math.isfinite(value):
                        raise ValueError(f"{name} = {value!r} not finite at omega={omega!r}")
                cases.append((omega, ratio, groups))
    except (AttributeError, TypeError, ValueError, ElastabError) as exc:
        raise ConfigError(f"bounds configuration invalid: {exc}") from exc
    return domain, mult, constants, cases


def bounds_table(cfg: dict):
    """(header, rows) of every applicable closed-form bound, one row per
    (omega, lambda/mu) pair; ConfigError for an invalid document."""
    from . import bounds as bnd

    domain, mult, constants, cases = _bounds_inputs(cfg)
    d = domain.d
    header = [
        "omega", "kappa_s", "lambda_over_mu",
        "simple_robin", "obstacle_ideal_full", "obstacle_ideal_simplified",
        "obstacle_realistic", "general_robin", "general_robin_symbolic", "fundamental",
    ]
    rows = []
    for omega, ratio, groups in cases:
        simple = bnd.stability_simple_robin(groups, mult, d)
        ideal = bnd.bound_obstacle_ideal(groups.kappa_s, d)
        realistic = bnd.bound_obstacle_realistic(groups.kappa_s, ratio)
        general = bnd.bound_general_robin(groups.kappa_s, constants)
        rows.append(
            [
                omega, groups.kappa_s, ratio,
                simple.bound_value, ideal.full, ideal.simplified,
                realistic, general.bound_value, general.symbolic,
                bnd.bound_fundamental(groups.kappa_s),
            ]
        )
    return header, rows


def _run_bounds(args) -> int:
    from .config import load_config

    cfg = load_config(args.config)
    manifest = _Manifest("bounds", cfg, args.seed)
    with manifest.stage("evaluate"):
        header, rows = bounds_table(cfg)
    out_dir = Path(args.out_dir)
    manifest.finish(out_dir, _write_table(out_dir, "bounds", args.format, header, rows))
    return 0


# ---------------------------------------------------------------------------
# greens-verify
# ---------------------------------------------------------------------------

def _fine_grid_n(grid_n: int) -> int:
    """Cells per axis of the second grid of the two-grid check."""
    return max(grid_n + 4, int(round(grid_n * 1.3)))


def greens_report(
    omega: float, rho: float, mu: float, lam: float, ell: float,
    grid_n: int, n_sources: int, seed: int, workers: int | None = None,
) -> dict:
    from . import greens

    sources = greens.random_ball_sources(ell, n_sources, seed)
    grid, fine = greens.ball_grid(ell, grid_n), greens.ball_grid(ell, _fine_grid_n(grid_n))
    reports, reports_f = greens.verify_fundamental_sweep(
        [grid, fine], sources, rho, mu, lam, omega, workers
    )
    consistency = max(
        abs(a.ratio - b.ratio) / b.ratio if b.ratio > 0 else 0.0
        for a, b in zip(reports, reports_f)
    )
    worst = max(reports, key=lambda r: r.ratio)
    scalar_max = max(max(r.scalar_ratios) for r in reports)
    elastic_max = max(r.elastic_ratio for r in reports)
    return {
        "kappa_s": worst.kappa_s,
        "ratio": worst.ratio,
        "bound": worst.bound,
        "slack": worst.slack,
        "grid_consistency": consistency,
        "scalar_ratio_max": scalar_max,
        "scalar_bound": worst.scalar_bound,
        "elastic_ratio_max": elastic_max,
        "elastic_bound": worst.elastic_bound,
        "grid_n": grid_n,
        "fine_grid_n": fine.n,
        "n_sources": n_sources,
        "per_source": [r.as_dict() for r in reports],
        "passed": bool(
            worst.slack >= 0.0
            and scalar_max <= worst.scalar_bound * (1.0 + 0.02)
            and elastic_max <= worst.elastic_bound * (1.0 + 0.02)
        ),
    }


# The ratios are scale-invariant: with the self-cell and near-field series
# in powers of the dimensionless i k a, a scan at fixed kappa_s (1e-3 to 64,
# grid_n 8 to 40) finds them equal to 1e-14 for every ell from 1e-42 to 1e44.
# Below ~1e-44 the squared norms (cell volume h^3 times |u|^2, ~ell^7) become
# subnormal and the ratios drift, then vanish.  The floor keeps two decades
# of margin; the cap is conservative.
_GREENS_ELL_MIN = 1e-40
_GREENS_ELL_MAX = 1e13


def _run_greens(args) -> int:
    from . import greens

    params = (args.omega, args.rho, args.mu, args.lam, args.ell)
    if not all(math.isfinite(x) for x in params):
        raise ConfigError("greens-verify needs finite omega, rho, mu, lam and ell")
    if args.omega <= 0 or args.rho <= 0 or args.mu <= 0 or args.lam < 0 or args.ell <= 0:
        raise ConfigError("greens-verify needs omega, rho, mu, ell > 0 and lam >= 0")
    if not _GREENS_ELL_MIN <= args.ell <= _GREENS_ELL_MAX:
        raise ConfigError(
            f"--ell must lie in [{_GREENS_ELL_MIN:g}, {_GREENS_ELL_MAX:g}], got {args.ell!r}"
        )
    if args.grid_n < 8:
        raise ConfigError("grid size too small (need >= 8 cells per axis)")
    if args.n_sources < 1:
        raise ConfigError("greens-verify needs at least one source (--n-sources >= 1)")
    grid_ns = (args.grid_n, _fine_grid_n(args.grid_n))
    need = greens.verify_bytes(grid_ns, 1)
    if need > greens.MEMORY_BUDGET:
        raise ConfigError(
            f"--grid-n {args.grid_n} needs about {need / 2**30:.1f} GiB, "
            f"above the {greens.MEMORY_BUDGET / 2**30:g} GiB budget"
        )
    out_dir = Path(args.out_dir)
    manifest = _Manifest(
        "greens-verify",
        {
            "omega": args.omega, "rho": args.rho, "mu": args.mu, "lam": args.lam,
            "ell": args.ell, "grid_n": args.grid_n, "n_sources": args.n_sources,
        },
        args.seed,
    )
    workers = greens.worker_count(grid_ns, args.n_sources)
    manifest.data["workers"] = workers
    with manifest.stage("verify"):
        report = greens_report(
            args.omega, args.rho, args.mu, args.lam, args.ell,
            args.grid_n, args.n_sources, args.seed, workers,
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "greens_report.json"
    _write_json(out, report)
    manifest.finish(out_dir, out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# fem-sweep
# ---------------------------------------------------------------------------

def _integer(value) -> int:
    """An integral number as an int; ValueError for a fraction or a bool."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


# document key path -> the SweepConfig field it sets and the conversion of
# its value; a key the document leaves out keeps the field's default
_SWEEP_FIELDS = {
    "geometry.r_in": ("r_in", float),
    "geometry.ell": ("ell", float),
    "material.rho": ("rho", float),
    "material.mu": ("mu", float),
    "lambda_over_mu": ("lambda_over_mu", lambda ratios: tuple(float(r) for r in ratios)),
    "robin.choice": ("robin_choice", lambda choice: choice),
    "robin.alpha_t": ("alpha_t", float),
    "robin.alpha_n": ("alpha_n", float),
    "order": ("order", _integer),
    "points_per_wavelength": ("points_per_wavelength", float),
}


def sweep_config_from(cfg: dict, seed: int) -> fem.SweepConfig:
    """The sweep configuration of a document; ConfigError unless every value
    is finite and in range and every key is one it reads (``_SWEEP_FIELDS``,
    ``kappa_s``, ``omega``)."""
    from . import fem

    _refuse_unknown_keys(cfg, {*_SWEEP_FIELDS, "kappa_s", "omega"}, "fem-sweep")
    try:
        given = {}
        for path, (name, convert) in _SWEEP_FIELDS.items():
            block, _, key = path.rpartition(".")
            node = cfg.get(block, {}) if block else cfg
            if key in node.keys():  # AttributeError for a block that is not a table
                given[name] = convert(node[key])
        if "robin" in cfg:  # a robin block without a choice is custom
            given.setdefault("robin_choice", "custom")
        sweep_cfg = fem.SweepConfig(kappa_s=(), seed=seed, **given)
        kappas = cfg.get("kappa_s")
        if kappas is None:
            sweep_cfg.validate()  # theta_s below needs rho, mu > 0
            theta = sweep_cfg.material(1.0).theta_s_min  # the same at every lambda/mu
            kappas = [float(w) * sweep_cfg.ell / theta for w in cfg["omega"]]
        sweep_cfg = dataclasses.replace(sweep_cfg, kappa_s=tuple(float(k) for k in kappas))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"fem-sweep configuration invalid: {exc}") from exc
    sweep_cfg.validate()
    return sweep_cfg


_SWEEP_HEADER = [
    "omega", "kappa_s", "lambda_over_mu", "c_emp",
    "bound_ideal_full", "bound_ideal_simplified", "bound_realistic",
    "applicable_bound", "slack", "points_per_wavelength",
    "n_r", "n_theta", "n_dofs", "refused", "error",
]


def _run_fem_sweep(args) -> int:
    from . import fem
    from .config import load_config

    cfg = load_config(args.config)
    sweep_cfg = sweep_config_from(cfg, args.seed)
    out_dir = Path(args.out_dir)
    manifest = _Manifest("fem-sweep", cfg, args.seed)
    with manifest.stage("sweep"):
        rows = fem.sweep(sweep_cfg)
    # a row without an error writes "" in its error cell, in JSON too
    table = [
        [getattr(r, name) if name != "error" else r.error or "" for name in _SWEEP_HEADER]
        for r in rows
    ]
    out = _write_table(out_dir, "fem_sweep", args.format, _SWEEP_HEADER, table)
    manifest.data["mesh_stats"] = {
        "rows": len(rows),
        "max_dofs": max((r.n_dofs for r in rows), default=0),
    }
    # solver diagnostics live here so the result files stay byte-deterministic
    manifest.data["estimates"] = [
        {
            "kappa_s": r.kappa_s,
            "lambda_over_mu": r.lambda_over_mu,
            "lanczos_steps": getattr(r.estimate, "steps", None),
            "ritz_residual": getattr(r.estimate, "ritz_residual", None),
            "top_mode": getattr(r.estimate, "top_mode", None),
            "factor": {"lu_nnz": getattr(r.estimate, "lu_nnz", None)},
            "modes": {
                "run": None if r.estimate is None else len(r.estimate.modes_run),
                "certified": None if r.estimate is None else len(r.estimate.modes_certified),
                "tau": getattr(r.estimate, "tau", None),
            },
            "first_solve": {
                "residual": getattr(r.estimate, "solve_residual", None),
                "backward_error": getattr(r.estimate, "backward_error", None),
            },
        }
        for r in rows
    ]
    manifest.finish(out_dir, out)
    violated = any(
        (r.slack is not None and r.slack < 0.0) or (r.error and not r.refused)
        for r in rows
    )
    return 1 if violated else 0


# ---------------------------------------------------------------------------
# identity-check
# ---------------------------------------------------------------------------

def _probe_solves(seed: int, count: int):
    from . import core, fem

    material = core.MaterialField.constant(1.0, 1.0, 1.0)
    robin = core.RobinSpec.shear_matched(material)
    mesh = build_annulus_mesh(0.5, 1.0, 4, 32, order=2)
    system = fem.assemble(mesh, material, robin, omega=2.0)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f = rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(size=(mesh.n_nodes, 2))
        out.append((fem.solve(system, f), system, f))
    return out


def _suite_garding(seed: int):
    from . import identities as idn

    reports = []
    for result, system, f in _probe_solves(seed, 10):
        reports.extend(idn.garding_audit(result, system, f))
    return reports


def _domain(shape: str, d: int = 2):
    """The unit disk or ball (``shape`` "ball") or the annulus r_in = 0.5 of
    the identity suites, built when a suite runs."""
    from . import core

    return core.DomainSpec(d=d, ell=1.0, shape=shape, r_in=0.5 if shape == "annulus" else None)


_VANISH_INNER = [((2, 0), 1.0), ((0, 2), 1.0), ((0, 0), -0.25)]  # r^2 - r_in^2


def _suite_rellich(seed: int):
    from . import core, fields, identities as idn

    annulus = _domain("annulus")
    mat2 = core.MaterialField.constant(1.0, 1.5, 2.0)
    reports = []
    for k in range(3):
        v = fields.random_polynomial(2, 3, seed=seed + k)
        reports.append(idn.rellich_audit(v, annulus, mat2, tol=1e-8))
    v3 = fields.random_polynomial(3, 2, seed=seed + 10)
    reports.append(idn.rellich_audit(v3, _domain("ball", 3), mat2, order=v3.exact_order, tol=1e-8))
    reports.append(
        idn.rellich_audit(fields.plane_shear_wave(2, 2.0), annulus, mat2, order=32, tol=1e-6)
    )
    reports.append(
        idn.rellich_audit(fields.plane_pressure_wave(2, 1.0), annulus, mat2, order=32, tol=1e-6)
    )
    return reports


def _rho_radial():
    from . import core

    prof = core.radial_profile(lambda r: 1.0 + r**2, 1.0, 2.0, derivative=lambda r: 2.0 * r)
    return core.MaterialField.radial(prof, core.constant_profile(1.0), core.constant_profile(1.0))


def _suite_mass(seed: int):
    from . import fields, identities as idn

    mat = _rho_radial()
    annulus = _domain("annulus")
    reports = [
        idn.mass_identity_audit(fields.constant_field([1.0, 2.0]), _domain("ball"), mat, tol=1e-8),
        idn.mass_identity_audit(fields.random_polynomial(2, 3, seed=seed), annulus, mat, tol=1e-8),
        idn.mass_identity_audit(
            fields.RadialBumpField([0.7, 0.0], 0.15, [1.0, 1.0j]), annulus, mat, order=48, tol=1e-6
        ),
    ]
    return reports


def _suite_morawetz(seed: int):
    from . import core, fem, fields, identities as idn

    annulus = _domain("annulus")
    mat = core.MaterialField.constant(1.0, 1.5, 2.0)
    reports = []
    for k in range(3):
        u = fields.random_polynomial(2, 2, seed=seed + k).multiply_scalar_polynomial(_VANISH_INNER)
        reports.append(idn.morawetz_audit(u, annulus, mat, omega=1.0 + k, tol=1e-6))
    rho_mat = core.MaterialField.radial(
        core.radial_profile(lambda r: 1.0 + 0.5 * r**2, 1.0, 1.5, derivative=lambda r: r),
        core.constant_profile(1.5),
        core.constant_profile(2.0),
    )
    u = fields.random_polynomial(2, 2, seed=seed + 50).multiply_scalar_polynomial(_VANISH_INNER)
    reports.append(idn.morawetz_audit(u, annulus, rho_mat, omega=2.0, tol=1e-6))
    # discrete side: the gap measures strong-form consistency of u_h
    material = core.MaterialField.constant(1.0, 1.0, 1.0)
    robin = core.RobinSpec.shear_matched(material)
    mesh = build_annulus_mesh(0.5, 1.0, 6, 64, order=2)
    system = fem.assemble(mesh, material, robin, omega=2.0)
    f = fields.random_polynomial(2, 2, seed=seed).value(mesh.nodes)
    result = fem.solve(system, f)
    reports.append(idn.morawetz_audit_discrete(result, system, f))
    return reports


def _suite_korn(seed: int):
    from . import core, fields, identities as idn

    disk, annulus = _domain("ball"), _domain("annulus")
    mat = core.MaterialField.constant(1.0, 1.0, 1.0)
    robin = core.RobinSpec.from_alpha(1.0, 2.0, mat)
    groups = core.derive_groups(mat, disk, robin, omega=2.0)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(20):
        c = rng.uniform(-0.4, 0.4, size=2)
        bump = fields.RadialBumpField(c, rng.uniform(0.1, 0.3), rng.normal(size=2) + 1j * rng.normal(size=2))
        basic, weighted = idn.korn_audit(bump, disk, robin, groups, mat, order=32)
        reports.extend([basic, weighted])
    groups_a = core.derive_groups(mat, annulus, robin, omega=2.0)
    for k in range(3):
        v = fields.random_polynomial(2, 1, seed=seed + k).multiply_scalar_polynomial(_VANISH_INNER)
        basic, weighted = idn.korn_audit(v, annulus, robin, groups_a, mat)
        reports.extend([basic, weighted])
    return reports


def _suite_robin(seed: int):
    from . import core, fields, identities as idn

    disk = _domain("ball")
    mat = core.MaterialField.constant(1.0, 1.0, 1.0)
    robin = core.RobinSpec.from_alpha(1.0, 2.0, mat)
    tangential = fields.PolynomialField(2, [(0, (0, 1), -1.0), (1, (1, 0), 1.0)])
    reports = [
        idn.robin_identity_audit(fields.constant_field([1.0 + 0.5j, -0.3]), disk, robin, tol=1e-8),
        idn.robin_identity_audit(tangential, disk, robin, tol=1e-8),
    ]
    for k in range(3):
        v = fields.random_polynomial(2, 2, seed=seed + k)
        reports.append(idn.robin_identity_audit(v, disk, robin, tol=1e-8))
    return reports


def _suite_chain(seed: int):
    from . import core, fem, identities as idn

    annulus = _domain("annulus")
    material = core.MaterialField.constant(1.0, 1.0, 1.0)
    robin = core.RobinSpec.shear_matched(material)
    mult = core.multiplier_for(annulus)
    reports = []
    for kappa in (1.0, 2.0):
        cfg = fem.SweepConfig(kappa_s=(kappa,), lambda_over_mu=(1.0,))
        mesh = fem.resolution_mesh(cfg, kappa)
        system = fem.assemble(mesh, material, robin, omega=kappa)
        groups = core.derive_groups(material, annulus, robin, omega=kappa, mult=mult)
        rng = np.random.default_rng(seed + int(kappa))
        f = rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(size=(mesh.n_nodes, 2))
        result = fem.solve(system, f)
        chain = idn.estimate_chain_audit(result, system, f, groups, mult)
        reports.extend(chain.links)
    return reports


_SUITES = {
    "garding": _suite_garding,
    "rellich": _suite_rellich,
    "mass": _suite_mass,
    "morawetz": _suite_morawetz,
    "korn": _suite_korn,
    "robin": _suite_robin,
    "chain": _suite_chain,
}


def _run_identity_check(args) -> int:
    out_dir = Path(args.out_dir)
    manifest = _Manifest("identity-check", {"suite": args.suite}, args.seed)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    # timed apart, so no suite's stage depends on whether it ran first
    with manifest.stage("import"):
        from . import fem, fields, identities  # noqa: F401  (fem and identities load scipy)
    reports = []
    # one monomial table per point set for the whole run, released with it
    with fields.shared_tables():
        for name in names:
            with manifest.stage(name):
                reports.extend(_SUITES[name](args.seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "identity_report.json"
    _write_json(out, [r.as_dict() for r in reports])
    manifest.finish(out_dir, out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elastab",
        description="stability laboratory for time-harmonic elastodynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, table=False):
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        if table:  # the JSON reports have one format
            p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("bounds", help="closed-form stability constants")
    p.add_argument("--config", required=True)
    common(p, table=True)
    p.set_defaults(func=_run_bounds)

    p = sub.add_parser("greens-verify", help="fundamental-solution bound check")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--ell", type=float, default=1.0)
    p.add_argument("--grid-n", type=int, default=16)
    p.add_argument("--n-sources", type=int, default=3)
    common(p)
    p.set_defaults(func=_run_greens)

    p = sub.add_parser("fem-sweep", help="empirical resolvent constants on the annulus")
    p.add_argument("--config", required=True)
    common(p, table=True)
    p.set_defaults(func=_run_fem_sweep)

    p = sub.add_parser("identity-check", help="identity and inequality audits")
    p.add_argument(
        "--suite",
        default="all",
        choices=sorted(_SUITES) + ["all"],
    )
    common(p)
    p.set_defaults(func=_run_identity_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"elastab: configuration error: {exc}", file=sys.stderr)
        return 2
    except ElastabError as exc:
        print(f"elastab: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # in-range inputs whose float arithmetic overflows
        print(f"elastab: numeric overflow: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("elastab: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
