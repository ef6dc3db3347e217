"""Estimating error-correction models and moving between representations.

Simulates a 4-dimensional system with two cointegrating relations, fits
models across the whole rank range, and shows:

* the reduced-rank eigenvalues separating signal ranks from noise ranks,
* recovery of the true cointegrating space,
* the exact conversions between the error-correction and levels-VAR forms,
* the two limit cases (r = 0 random-walk world, r = d stationary VAR world).
"""

import numpy as np

from windvecm import (
    DeterministicSpec,
    cointegrated_spec,
    fit_var,
    fit_vecm,
    generate,
    var_to_vecm,
    vecm_to_var,
)

CONST = DeterministicSpec.CONSTANT

# ---------------------------------------------------------------------------
# Simulate: d = 4 series sharing 2 stochastic trends (rank 2)
# ---------------------------------------------------------------------------
spec = cointegrated_spec(d=4, r_true=2, n_obs=2000, seed=7)
print("companion root moduli:", np.round(spec.root_moduli, 3))
print("unit roots:", int(np.sum(np.isclose(spec.root_moduli, 1.0))), "(= d - r_true)")
panel = generate(spec)

# ---------------------------------------------------------------------------
# The eigenvalue spectrum tells the rank story: two large, two near zero
# ---------------------------------------------------------------------------
model = fit_vecm(panel, p=2, r=2, det=CONST)
print("\nJohansen eigenvalues:", np.round(model.eigenvalues, 4))

# the cosines of the principal angles are the singular values of Qa' Qb
qa, qb = np.linalg.qr(model.beta)[0], np.linalg.qr(spec.beta)[0]
cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
angle = np.degrees(np.arccos(min(cosines.min(), 1.0)))
print(f"largest principal angle to the true space: {angle:.2f} degrees")
print("loadings alpha:")
print(np.round(model.alpha, 3))

# ---------------------------------------------------------------------------
# Exact conversions: VECM -> VAR -> VECM is the identity
# ---------------------------------------------------------------------------
levels = vecm_to_var(model)
print("\nlevels representation: phi_1 and phi_2 shapes",
      [m.shape for m in levels.phi])
back = var_to_vecm(levels)
print("max roundtrip error on Pi:",
      float(np.abs(back.pi - model.pi).max()))

# ---------------------------------------------------------------------------
# Limit cases collapse to familiar models
# ---------------------------------------------------------------------------
rw = fit_vecm(panel, p=1, r=0, det=DeterministicSpec.NONE)
print("\nr=0, p=1: phi_1 of the implied VAR is the identity ->",
      np.array_equal(vecm_to_var(rw).phi[0], np.eye(4)))

full = fit_vecm(panel, p=2, r=4, det=CONST)
plain = fit_var(panel, 2, CONST)
gap = max(
    float(np.abs(a - b).max())
    for a, b in zip(vecm_to_var(full).phi, plain.phi)
)
print(f"r=d coefficients match the plain VAR to {gap:.2e}")
