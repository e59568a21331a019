"""Convergence under refinement.

Noise-free case: the linear scheme against the exact heat solution, showing
second order in h with dt ~ h^2. Stochastic case: coupled-seed refinement
(fine Wiener increments drawn first, summed pairwise for coarser levels) so
that consecutive-level path differences are meaningful per sample.
"""

import numpy as np

from sgdm import build_gd, build_uniform_interval, refine
from sgdm.analysis import deterministic_errors, run_levels
from sgdm.flux import linear_diffusion, p_laplace
from sgdm.noise import make_noise
from sgdm.scheme import SpaceTimeGD


def sin_u0(x):
    return np.sin(np.pi * np.atleast_2d(x)[:, 0])


print("deterministic heat benchmark (p=2, no noise, dt ~ h^2):")
sgds = []
for n in (8, 16, 32):
    gd = build_gd(build_uniform_interval(n, 0.0, 1.0), "p1")
    sgds.append(SpaceTimeGD(gd, 0.1, round(0.1 * n**2)))
silent = make_noise([[0.0], [1.0]], 1, f0="zero")
exact = lambda t, x: np.exp(-np.pi**2 * t) * np.sin(np.pi * x[:, 0])
errs = deterministic_errors(sgds, linear_diffusion(), silent, sin_u0, exact)
for sgd, err in zip(sgds, errs):
    print(f"  h = 1/{sgd.gd.mesh.n_cells:2d}  max-in-time L2 error = {err:.3e}")
orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
print(f"  observed orders: {['%.2f' % o for o in orders]}")

print("\ncoupled-seed stochastic study (p=3, tanh noise, 48 samples):")
mesh = build_uniform_interval(8, 0.0, 1.0)
levels = []
for lvl in range(4):
    levels.append(SpaceTimeGD(build_gd(mesh, "p1"), 0.5, 8 * 2**lvl))
    mesh = refine(mesh)
noise = make_noise([[0.0], [1.0]], 8, f0="tanh")
energy_only = dict(translate_ells=(), dual_ells=(), with_martingale=False)
_, stats = run_levels(levels, p_laplace(3.0), noise, sin_u0, 515, 48, energy_only)
for i, st in enumerate(stats):
    print(f"  levels {i}->{i + 1}: E ||Pi u_c - Pi u_f||_(L^3, space-time) = {st.mean:.4f} +- {st.se:.4f}")
print("  (decreasing differences: the paths form a Cauchy sequence under the common noise)")
