"""Randomized verification of the structure assumptions.

The solver theory needs the flux to be coercive, growth-bounded and monotone,
and the noise operator to satisfy a quadratic growth bound. Both are checked
by sampling; a violating model is flagged, as the planted examples show.
"""

import numpy as np

from sgdm import build_gd, build_uniform_interval
from sgdm.flux import custom_flux, linear_diffusion, p_laplace, probe_assumptions, regularized_p_laplace
from sgdm.noise import growth_check, make_noise, sample_increment

print("flux probes (100000 samples each):")
for name, model in [
    ("p-Laplace p=1.5", p_laplace(1.5)),
    ("p-Laplace p=3  ", p_laplace(3.0)),
    ("regularized 2.5", regularized_p_laplace(2.5)),
    ("linear         ", linear_diffusion()),
]:
    rep = probe_assumptions(model, 100_000, rng_seed=1)
    print(
        f"  {name}: pass={rep.passed}  tight c1={rep.tight_c1:.4f}"
        f"  tight c2={rep.tight_c2:.4f} (declared {model.c2:.4f})"
    )

bad = custom_flux(2.0, lambda x, y: -y)
rep = probe_assumptions(bad, 10_000, rng_seed=1)
print(f"  planted anti-monotone flux: monotonicity violations = {rep.monotonicity_violations}")

print("\nnoise growth checks on a 16-cell interval space:")
gd = build_gd(build_uniform_interval(16, 0.0, 1.0), "p1")
for f0 in ("zero", "constant", "tanh", "identity"):
    noise = make_noise(gd.mesh.bounding_box, 8, f0=f0)
    rep = growth_check(noise, gd, trials=2000, amplitude=4.0, rng_seed=2)
    print(f"  f0 = {f0:9s} F1 = {noise.F1:7.3f} F2 = {noise.F2:5.2f}  pass = {rep.passed}")

unbounded = make_noise(gd.mesh.bounding_box, 8, f0=lambda s: s**2, F1=1.0, F2=1.0)
rep = growth_check(unbounded, gd, trials=2000, amplitude=50.0, rng_seed=3)
print(f"  planted unbounded f0(s)=s^2: violations = {rep.violations}")

print("\nincrement sampling is reproducible and counter-keyed:")
noise = make_noise(gd.mesh.bounding_box, 4, f0="tanh")
a = sample_increment(noise, 123, 0, 1, 0.01)
b = sample_increment(noise, 123, 0, 1, 0.01)
c = sample_increment(noise, 123, 0, 2, 0.01)
print(f"  same stream twice: identical = {np.array_equal(a, b)}")
print(f"  next time index:   identical = {np.array_equal(a, c)} (expected False)")
