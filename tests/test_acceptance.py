"""Acceptance gate: each test runs one criterion at its stated tolerance and
prints one PASS/FAIL line (run with -s or -rA to see the lines for passing
criteria as well).

Criterion 7 checks that the annulus probe grows with frequency the way the
continuous problem does, and not by the quadratic ``1 + kappa_s^2`` law.  Its
log-log slope of ``c_emp`` over kappa_s in [2, 8] must match the slope of the
independent spectral oracle of ``spectral_oracle`` (computed at run time)
to within ``(ln 1.01 + ln 1.02) / ln 4 ~= 0.0215``, the slope budget implied
by the 1% (kappa_s = 2) and 2% (kappa_s = 8) agreement that the oracle tests
already assert; and it must stay strictly below the slope of the quadratic
law on the same window, ``ln(65/5) / ln 4 ~= 1.850``.

The gate used to be ``slope <= 1.3``.  No correct program can reach that in
this window: at low frequency ``c_emp ~ kappa_s^2`` (omega^2 times the static
resolvent) and the approach to the linear law of the paper's bound is slow
(c_emp / kappa_s = 0.19, 0.36, 0.63, 0.77 at kappa_s = 2, 8, 16, 32).  The
oracle's slope over [2, 8] is 1.4703 and moves by 3e-8 when its radial
elements are doubled; the probe's slope converges to it under mesh refinement
(1.4709, 1.4707, 1.4704 at resolution_margin 1.1, 2, 3); and any program that
passes the two oracle-agreement tests has a slope of at least 1.449.  The old
gate also passed broken programs: halving the impedance term of the system
matrix gives a slope of 1.06, and using omega^1.8 instead of omega^2 in the
empirical constant gives 1.27.  Both fail the two-sided check.
"""

import json
import math
import time

import numpy as np
import pytest

from elastab import bounds, core, fem, fields, greens
from elastab import identities as idn
from elastab.cli import main as cli_main
from elastab.mesh import build_annulus_mesh
from greens_oracle import hessian_radial
from spectral_oracle import annulus_constant_oracle

RHO, MU = 1.0, 1.0
ELL = 1.0


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status} {detail}", flush=True)


# ---------------------------------------------------------------------------
# criteria 1-2: fundamental-solution sweep
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fundamental_sweep():
    lam = 1.0
    theta_s = math.sqrt(MU / RHO)
    sources = greens.random_ball_sources(ELL, 20, seed=42)
    grids = [greens.ball_grid(ELL, n) for n in (20, 25)]
    t0 = time.perf_counter()
    out = {}
    for kappa in (0.5, 1.0, 2.0, 4.0):
        omega = kappa * theta_s / ELL
        out[kappa] = greens.verify_fundamental_sweep(grids, sources, RHO, MU, lam, omega)
    return out, time.perf_counter() - t0


def test_criterion_01_fundamental_bound(fundamental_sweep):
    sweep, elapsed = fundamental_sweep
    violations = 0
    worst_consistency = 0.0
    for kappa, (reports, reports_fine) in sweep.items():
        for a, b in zip(reports, reports_fine):
            if a.ratio > a.bound:
                violations += 1
            worst_consistency = max(worst_consistency, abs(a.ratio - b.ratio) / b.ratio)
    ok = violations == 0 and worst_consistency <= 0.02 and elapsed <= 600.0
    _report(
        1, "fundamental-solution bound", ok,
        f"(violations={violations}, two-grid={worst_consistency:.4%}, {elapsed:.0f}s)",
    )
    assert violations == 0
    assert worst_consistency <= 0.02
    assert elapsed <= 600.0


def test_criterion_02_scalar_part_bound(fundamental_sweep):
    sweep, _ = fundamental_sweep
    worst_margin = 0.0
    for kappa, (reports, _fine) in sweep.items():
        for rep in reports:
            worst_margin = max(worst_margin, max(rep.scalar_ratios) / rep.scalar_bound)
    ok = worst_margin <= 1.02
    _report(2, "acoustic-part bound", ok, f"(max ratio/bound = {worst_margin:.4f})")
    assert worst_margin <= 1.02


def test_criterion_03_fourier_multiplier_bound():
    triples = []
    for lam_ratio in (0.0, 1.0, 1e3):
        for kappa in (0.5, 1.0, 2.0):
            k = greens.WaveNumbers.from_material(1.0, 1.0, lam_ratio, kappa / ELL)
            triples.append((k, ELL))
    k_extra = greens.WaveNumbers.from_material(1.0, 1.0, 1.0, 4.0 / ELL)
    triples.append((k_extra, ELL))
    assert len(triples) == 10
    worst = 0.0
    for k, ell in triples:
        m_hat = greens.fourier_multiplier_norm(k, ell, tol=1e-8)
        bound = 2.0 + 8.0 * k.k_s * ell
        worst = max(worst, m_hat / bound)
    ok = worst <= 1.0
    _report(3, "cos-transform multiplier bound", ok, f"(max norm/bound = {worst:.4f})")
    assert worst <= 1.0


def test_criterion_04_kernel_correctness():
    lam = 5.0
    rho, mu = 1.3, 2.0
    rng = np.random.default_rng(100)
    # Hessian against centered finite differences at 100 points
    k = 2.0
    step = 1e-5

    def h(x):
        r = np.linalg.norm(x)
        return np.exp(1j * k * r) / r

    # unit-scale radii: the stated step (1e-5) and tolerance (1e-6) pair is
    # meaningful where the difference quotient's roundoff floor
    # (~1e-6 r^2 / 2 relative) stays below the tolerance
    worst_hess = 0.0
    for _ in range(100):
        y = rng.normal(size=3)
        y *= rng.uniform(0.4, 1.1) / np.linalg.norm(y)
        hess = hessian_radial(k, y)
        fd = np.zeros((3, 3), complex)
        for i in range(3):
            for j in range(3):
                ei, ej = np.zeros(3), np.zeros(3)
                ei[i], ej[j] = step, step
                fd[i, j] = (
                    h(y + ei + ej) - h(y + ei - ej) - h(y - ei + ej) + h(y - ei - ej)
                ) / (4 * step**2)
        worst_hess = max(worst_hess, float(np.abs(hess - fd).max() / np.abs(hess).max()))

    # PDE residual at 50 points with 4th-order stencils
    omega = 3.0
    e = np.array([1.0, 0.5, -0.2])

    def u(x):
        return greens.green_tensor(x, rho, mu, lam, omega) @ e

    def fd4(fun, x, i, s):
        ei = np.zeros(3)
        ei[i] = s
        return (-fun(x + 2 * ei) + 8 * fun(x + ei) - 8 * fun(x - ei) + fun(x - 2 * ei)) / (12 * s)

    worst_pde = 0.0
    s = 0.008
    for _ in range(50):
        x = rng.normal(size=3)
        x *= rng.uniform(0.8, 1.5) / np.linalg.norm(x)
        lap = np.zeros(3, complex)
        for i in range(3):
            ei = np.zeros(3)
            ei[i] = s
            lap += (-u(x + 2 * ei) + 16 * u(x + ei) - 30 * u(x) + 16 * u(x - ei) - u(x - 2 * ei)) / (
                12 * s**2
            )

        def div_u(z):
            return np.array([sum(fd4(u, z, i, s)[i] for i in range(3))])

        grad_div = np.array([fd4(div_u, x, i, s)[0] for i in range(3)])
        residual = -rho * omega**2 * u(x) - mu * lap - (mu + lam) * grad_div
        scale = max(
            np.abs(rho * omega**2 * u(x)).max(),
            np.abs(mu * lap).max(),
            np.abs((mu + lam) * grad_div).max(),
        )
        worst_pde = max(worst_pde, float(np.abs(residual).max() / scale))

    # zero-frequency regression against the independent Poisson-form Kelvin oracle
    def kelvin_oracle(y):
        nu = lam / (2.0 * (lam + mu))
        r = np.linalg.norm(y)
        pref = rho / (16.0 * math.pi * mu * (1.0 - nu))
        return pref * ((3.0 - 4.0 * nu) * np.eye(3) / r + np.outer(y, y) / r**3)

    worst_kelvin = 0.0
    for _ in range(20):
        y = rng.normal(size=3)
        g0 = greens.green_tensor(y, rho, mu, lam, omega=0.0)
        oracle = kelvin_oracle(y)
        worst_kelvin = max(worst_kelvin, float(np.abs(g0 - oracle).max() / np.abs(oracle).max()))

    ok = worst_hess <= 1e-6 and worst_pde <= 1e-4 and worst_kelvin <= 1e-8
    _report(
        4, "kernel correctness", ok,
        f"(hessian={worst_hess:.2e}, pde={worst_pde:.2e}, kelvin={worst_kelvin:.2e})",
    )
    assert worst_hess <= 1e-6
    assert worst_pde <= 1e-4
    assert worst_kelvin <= 1e-8


def test_criterion_05_identity_suite():
    material = core.MaterialField.constant(1.0, 1.0, 1.0)
    robin = core.RobinSpec.shear_matched(material)
    mesh = build_annulus_mesh(0.5, 1.0, 4, 32, order=2)
    system = fem.assemble(mesh, material, robin, omega=2.0)
    rng = np.random.default_rng(55)
    worst_garding = 0.0
    for _ in range(10):
        f = rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(size=(mesh.n_nodes, 2))
        res = fem.solve(system, f)
        r_re, r_im = idn.garding_audit(res, system, f)
        worst_garding = max(worst_garding, r_re.rel_gap, r_im.rel_gap)

    annulus = core.DomainSpec(d=2, ell=1.0, shape="annulus", r_in=0.5)
    disk = core.DomainSpec(d=2, ell=1.0, shape="ball")
    mat = core.MaterialField.constant(1.0, 1.5, 2.0)
    vanish = [((2, 0), 1.0), ((0, 2), 1.0), ((0, 0), -0.25)]

    worst_poly = 0.0
    for seed in range(3):
        v = fields.random_polynomial(2, 3, seed=seed)
        worst_poly = max(worst_poly, idn.rellich_audit(v, annulus, mat).rel_gap)
        worst_poly = max(worst_poly, idn.mass_identity_audit(v, annulus, mat).rel_gap)
        worst_poly = max(
            worst_poly,
            idn.robin_identity_audit(
                fields.random_polynomial(2, 2, seed=seed), disk,
                core.RobinSpec.from_alpha(1.0, 2.0, mat),
            ).rel_gap,
        )
        u = fields.random_polynomial(2, 2, seed=seed).multiply_scalar_polynomial(vanish)
        worst_poly = max(worst_poly, idn.morawetz_audit(u, annulus, mat, omega=2.0).rel_gap)

    worst_trig = 0.0
    for wave in (fields.plane_shear_wave(2, 2.0), fields.plane_pressure_wave(2, 1.0)):
        worst_trig = max(worst_trig, idn.rellich_audit(wave, annulus, mat, order=32).rel_gap)
        worst_trig = max(worst_trig, idn.mass_identity_audit(wave, annulus, mat, order=32).rel_gap)

    rob = core.RobinSpec.from_alpha(1.0, 1.0, mat)
    groups = core.derive_groups(mat, disk, rob, omega=2.0)
    korn_ok = True
    min_slack = math.inf
    for i in range(100):
        bump = fields.RadialBumpField(
            rng.uniform(-0.4, 0.4, size=2), rng.uniform(0.1, 0.3),
            rng.normal(size=2) + 1j * rng.normal(size=2),
        )
        basic, weighted = idn.korn_audit(bump, disk, rob, groups, mat, order=32)
        korn_ok = korn_ok and basic.passed and weighted.passed
        min_slack = min(min_slack, basic.slack, weighted.slack)

    ok = worst_garding <= 1e-10 and worst_poly <= 1e-8 and worst_trig <= 1e-6 and korn_ok
    _report(
        5, "identity suite", ok,
        f"(garding={worst_garding:.1e}, poly={worst_poly:.1e}, trig={worst_trig:.1e}, "
        f"korn min slack={min_slack:.3f})",
    )
    assert worst_garding <= 1e-10
    assert worst_poly <= 1e-8
    assert worst_trig <= 1e-6
    assert korn_ok


def test_criterion_06_bound_formulas():
    full, simplified = bounds.bound_obstacle_ideal(1.0, 3)
    exact_ok = full == 7.0625 and simplified == 8.0 and bounds.bound_fundamental(0.0) == 4.0
    dominance_ok = True
    for d in (2, 3):
        for k in range(13):
            kappa = 2.0**k / 16.0
            f_, s_ = bounds.bound_obstacle_ideal(kappa, d)
            dominance_ok = dominance_ok and f_ <= s_ + 1e-12
    rng = np.random.default_rng(77)
    qrb_ok = True
    for _ in range(1000):
        a, b, c = rng.uniform(1e-3, 1e3, size=3)
        x = (b + math.sqrt(b * b + 4 * a * c)) / (2 * a)
        qrb_ok = qrb_ok and a * x <= bounds.quadratic_root_bound(a, b, c) * (1 + 1e-12)
    ok = exact_ok and dominance_ok and qrb_ok
    _report(6, "bound formulas", ok, f"(exact={exact_ok}, dominance={dominance_ok}, qrb={qrb_ok})")
    assert exact_ok and dominance_ok and qrb_ok


# ---------------------------------------------------------------------------
# criteria 7-9: finite-element probe
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def frequency_sweep():
    cfg = fem.SweepConfig(
        kappa_s=(1.0, 2.0, 4.0, 8.0), lambda_over_mu=(1.0,),
        robin_choice="shear", order=2, points_per_wavelength=10.0, seed=0,
    )
    t0 = time.perf_counter()
    rows = fem.sweep(cfg)
    return cfg, rows, time.perf_counter() - t0


def test_criterion_07_frequency_scaling(frequency_sweep):
    cfg, rows, elapsed = frequency_sweep
    per_row_ok = all(
        (not r.refused) and r.c_emp is not None and r.c_emp <= r.bound_ideal_full
        and r.points_per_wavelength >= 10.0
        for r in rows
    )
    by_kappa = {r.kappa_s: r.c_emp for r in rows}
    lo, hi = 2.0, 8.0
    window = math.log(hi / lo)
    slope = math.log(by_kappa[hi] / by_kappa[lo]) / window
    oracle_slope = math.log(annulus_constant_oracle(hi) / annulus_constant_oracle(lo)) / window
    # the oracle tests pin the probe to 1% at kappa_s = 2 and 2% at kappa_s = 8
    tol = (math.log(1.01) + math.log(1.02)) / window
    quadratic_slope = math.log((1.0 + hi**2) / (1.0 + lo**2)) / window
    matches = abs(slope - oracle_slope) <= tol
    sub_quadratic = slope < quadratic_slope
    ok = per_row_ok and matches and sub_quadratic and elapsed <= 900.0
    _report(
        7, "frequency scaling", ok,
        f"(rows<=bound: {per_row_ok}, slope[2,8]={slope:.4f}, oracle={oracle_slope:.4f} "
        f"+/- {tol:.4f}, quadratic law={quadratic_slope:.3f}, {elapsed:.0f}s)",
    )
    assert per_row_ok
    assert elapsed <= 900.0
    assert matches, (
        f"probe slope {slope:.4f} over kappa_s in [2,8] differs from the continuous "
        f"problem's {oracle_slope:.4f} by more than {tol:.4f}"
    )
    assert sub_quadratic, (
        f"probe slope {slope:.4f} is not below the quadratic law's {quadratic_slope:.3f}"
    )


def test_criterion_08_incompressibility_robustness():
    ratios = (1.0, 1e2, 1e4)
    cs = []
    for lam_ratio in ratios:
        cfg = fem.SweepConfig(
            kappa_s=(2.0,), lambda_over_mu=(lam_ratio,), robin_choice="shear",
            order=2, n_theta_min=48, resolution_margin=2.0,
        )
        row = fem.sweep(cfg)[0]
        assert not row.refused
        cs.append(row.c_emp)
    spread = max(cs) / min(cs)

    realistic_ok = True
    margins = []
    for lam_ratio in ratios:
        cfg = fem.SweepConfig(
            kappa_s=(2.0,), lambda_over_mu=(lam_ratio,), robin_choice="pressure",
            order=2, n_theta_min=48, resolution_margin=2.0,
        )
        row = fem.sweep(cfg)[0]
        realistic_ok = realistic_ok and row.c_emp is not None and row.c_emp <= row.bound_realistic
        margins.append(row.c_emp / row.bound_realistic)
    ok = spread <= 1.25 and realistic_ok
    _report(
        8, "incompressibility robustness", ok,
        f"(max/min={spread:.4f}, realistic margins={[f'{m:.3f}' for m in margins]})",
    )
    assert spread <= 1.25
    assert realistic_ok


def test_criterion_09_estimate_chain(frequency_sweep):
    cfg, rows, _ = frequency_sweep
    material = core.MaterialField.constant(RHO, MU, 1.0)
    robin = core.RobinSpec.shear_matched(material)
    domain = core.DomainSpec(d=2, ell=ELL, shape="annulus", r_in=0.5)
    mult = core.multiplier_for(domain)
    all_ok = True
    min_slack = math.inf
    rng = np.random.default_rng(99)
    for row in rows:
        mesh = build_annulus_mesh(0.5, ELL, row.n_r, row.n_theta, cfg.order)
        system = fem.assemble(mesh, material, robin, row.omega)
        groups = core.derive_groups(material, domain, robin, row.omega, mult)
        f = rng.normal(size=(mesh.n_nodes, 2)) + 1j * rng.normal(size=(mesh.n_nodes, 2))
        result = fem.solve(system, f)
        chain = idn.estimate_chain_audit(result, system, f, groups, mult)
        all_ok = all_ok and chain.passed
        min_slack = min(min_slack, *(link.slack for link in chain.links))
    _report(9, "estimate-chain slack", all_ok, f"(min link slack={min_slack:.4f})")
    assert all_ok
    assert min_slack >= 0.0


def test_criterion_10_determinism(tmp_path):
    bounds_cfg = tmp_path / "bounds.json"
    bounds_cfg.write_text(
        json.dumps(
            {
                "material": {"rho": 1.0, "mu": 1.0},
                "domain": {"d": 3, "ell": 1.0, "shape": "ball"},
                "robin": {"choice": "shear"},
                "omega": [1.0, 2.0],
                "lambda_over_mu": [1.0],
            }
        )
    )
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(
        json.dumps(
            {
                "geometry": {"r_in": 0.5, "ell": 1.0},
                "material": {"rho": 1.0, "mu": 1.0},
                "robin": {"choice": "shear"},
                "kappa_s": [1.0],
                "lambda_over_mu": [1.0],
                "order": 2,
            }
        )
    )
    runs = {
        "bounds": (["bounds", "--config", str(bounds_cfg)], "bounds.csv"),
        "greens": (
            ["greens-verify", "--omega", "1.0", "--grid-n", "8", "--n-sources", "2"],
            "greens_report.json",
        ),
        "fem": (["fem-sweep", "--config", str(sweep_cfg)], "fem_sweep.csv"),
        "identity": (["identity-check", "--suite", "garding"], "identity_report.json"),
    }
    ok = True
    for name, (argv, outfile) in runs.items():
        d1, d2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        code1 = cli_main(argv + ["--seed", "7", "--out-dir", str(d1)])
        code2 = cli_main(argv + ["--seed", "7", "--out-dir", str(d2)])
        same = (d1 / outfile).read_bytes() == (d2 / outfile).read_bytes()
        ok = ok and same and code1 == code2 == 0
    _report(10, "determinism", ok, "(byte-identical outputs across all subcommands)")
    assert ok
