#!/usr/bin/env python3
"""Empirical resolvent constants of the annulus probe.

Builds the 2D finite-element system (inner Dirichlet obstacle, outer
absorbing circle), measures omega^2 times the largest singular value of
the discrete solution map in density-weighted norms, and compares the
result with the closed-form constants.  Also demonstrates the
incompressibility robustness that motivates the whole construction.
"""

import numpy as np

from elastab import core, fem
from elastab.bounds import bound_obstacle_ideal
from elastab.mesh import build_annulus_mesh

material = core.MaterialField.constant(1.0, 1.0, 1.0)
robin = core.RobinSpec.shear_matched(material)

# --- one probe in detail -----------------------------------------------------
mesh = build_annulus_mesh(r_in=0.5, ell=1.0, n_r=4, n_theta=32, order=2)
print(f"annulus mesh: {mesh.n_cells} cells, {mesh.n_nodes} nodes (order 2, "
      f"curved boundary edges)")
print(f"points per shear wavelength at omega = 2: "
      f"{mesh.points_per_wavelength(2.0, 1.0):.1f}")

est = fem.empirical_constant(mesh, material, robin, omega=2.0)
c, history = est.c_emp, est.history
print(f"\nLanczos on the rho-weighted normal operator: "
      f"{len(history)} steps to a certified top Ritz value")
print("  Ritz estimates (nondecreasing):", ", ".join(f"{h:.5f}" for h in history[:6]), "...")
print(f"  empirical constant at kappa_s = 2: {c:.5f}")
print(f"  closed-form ceiling:              {bound_obstacle_ideal(2.0, d=2).full:.5f}")

# --- frequency scaling --------------------------------------------------------
print("\nfrequency sweep (shear-matched impedance):")
cfg = fem.SweepConfig(kappa_s=(1.0, 2.0, 4.0, 8.0, 16.0), lambda_over_mu=(1.0,))
rows = fem.sweep(cfg)
print(f"{'kappa_s':>8} {'C_emp':>9} {'bound':>9} {'slack':>9} {'ppw':>6} {'dofs':>7}")
for r in rows:
    print(f"{r.kappa_s:>8.1f} {r.c_emp:>9.4f} {r.bound_ideal_full:>9.3f} "
          f"{r.slack:>9.3f} {r.points_per_wavelength:>6.1f} {r.n_dofs:>7}")
pairs = list(zip(rows, rows[1:]))
print("\nfrequency-doubling ratios C(2w)/C(w):",
      ", ".join(f"{b.c_emp / a.c_emp:.2f}" for a, b in pairs))
print("(a quadratic law would give 4.0 per doubling; the measured ratios "
      "oscillate below that through the quasi-resonance crossover while the "
      "closed-form ceiling grows linearly)")

# --- incompressibility robustness ---------------------------------------------
print("\nnearly incompressible media at kappa_s = 2 (order-2 basis avoids "
      "volumetric locking):")
cs = []
for ratio in (1.0, 1e2, 1e4):
    cfg = fem.SweepConfig(
        kappa_s=(2.0,), lambda_over_mu=(ratio,), n_theta_min=48, resolution_margin=2.0
    )
    row = fem.sweep(cfg)[0]
    cs.append(row.c_emp)
    print(f"  lambda/mu = {ratio:>7g}: C_emp = {row.c_emp:.5f}")
print(f"max/min across six orders of magnitude in lambda/mu: "
      f"{max(cs) / min(cs):.4f}")
