#!/usr/bin/env python3
"""Whole-space elastodynamics by the fundamental solution.

Evaluates the 3D tensor kernel, convolves random volumetric loads on a
midpoint ball grid, and measures the stability ratio omega^2 ||u|| / ||f||
against the closed-form 4 + 17 kappa_s, including the acoustic-part and
elastic-part splits.  Desk-scale grids keep the runtime in seconds.
"""

import numpy as np

from elastab import greens

rho, mu, lam, ell = 1.0, 1.0, 1.0, 1.0

# --- the kernel itself -----------------------------------------------------
y = np.array([0.6, -0.2, 0.3])
g = greens.green_tensor(y, rho, mu, lam, omega=2.0)
print("tensor kernel at a sample offset (omega = 2):")
print(np.array2string(g, precision=4, suppress_small=True))
print("symmetric:", np.allclose(g, g.T), " even:",
      np.allclose(g, greens.green_tensor(-y, rho, mu, lam, 2.0)))

k0 = greens.kelvin_tensor(y, rho, mu, lam)
print("\nzero-frequency limit matches the elastostatic (Kelvin) tensor:",
      np.allclose(greens.green_tensor(y, rho, mu, lam, 0.0), k0))

# --- convolution and the stability ratio -----------------------------------
grid = greens.ball_grid(ell, 16)
print(f"\nmidpoint grid: {grid.nodes.shape[0]} nodes inside the unit ball "
      f"(16^3 bounding box, h = {grid.h:.4f})")

sources = greens.random_ball_sources(ell, 5, seed=2024)

print(f"\n{'kappa_s':>8} {'max ratio':>10} {'bound':>8} {'acoustic part':>14} "
      f"{'elastic part':>13}")
for kappa in (0.5, 1.0, 2.0, 4.0):
    omega = kappa  # theta_s = ell = 1
    (reports,) = greens.verify_fundamental_sweep([grid], sources, rho, mu, lam, omega)
    worst = max(reports, key=lambda r: r.ratio)
    print(f"{kappa:>8.1f} {worst.ratio:>10.4f} {worst.bound:>8.1f} "
          f"{max(max(r.scalar_ratios) for r in reports):>7.4f} <= {kappa:<5.1f}"
          f"{max(r.elastic_ratio for r in reports):>7.4f} <= {4 + 16 * kappa:.0f}")

# --- the cos-transform certificate for the elastic part ---------------------
print("\ncos-transform multiplier norm of the truncated difference kernel "
      "(certifies the elastic part):")
for ratio in (0.0, 1.0, 1000.0):
    k = greens.WaveNumbers.from_material(rho, mu, ratio * mu, 1.0)
    m_hat = greens.fourier_multiplier_norm(k, ell)
    print(f"  lambda/mu = {ratio:>6g}: m_hat = {m_hat:.4f} <= "
          f"{2 + 8 * k.k_s * ell:.1f}")

print("\nthe ratios stay far below the bounds and are uniform in lambda/mu: "
      "the pressure wavenumber vanishes in the incompressible limit.")
