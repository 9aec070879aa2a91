#!/usr/bin/env python3
"""Build the hard logistic-regression datasets and look inside them."""

import numpy as np

from hardlogit import build_instance, build_w, export, profile, profile_metadata

np.set_printoptions(precision=3, suppress=True, linewidth=120)

# The building block: a k x k operator with two nonzeros per row (one +1 on
# an anti-diagonal, one -1 next to it) and a lone +1 in the corner.
w = build_w(5)
print("W (k=5):")
print(w.dense())
print("W @ ones      =", w.apply(np.ones(5)), " (all mass lands on the last coordinate)")
print("W @ (1..5)/10 =", w.apply(np.arange(1.0, 6.0) / 10), " (a scaled ramp becomes constant)")

# Stacking scaled copies of W with mirrored labels gives the dataset.  The
# four-block form is symmetric under negating the features, which pins the
# optimal intercept of the fitted classifier at zero.
inst = build_instance(6, sigma=1.3, zeta=1.0, variant="fourblock")
print(f"\nfour-block instance: {inst.n_rows} rows x {inst.k} features")
print("labels:", inst.labels.astype(int))
A = inst.dense()
print("A' b   =", A.T @ inst.labels, " (only the last feature sees the labels)")

# W'W = tridiag(-1, [2,...,2,1], -1), so ||A|| is known exactly.
print(f"\n||A|| = 2*sqrt(sum s_i^2)*cos(pi/(2k+1)) = {inst.a_norm():.6f}")
print(f"largest singular value of dense A         = {np.linalg.norm(A, 2):.6f}")
print(f"row-structure bound 4*sqrt(2(sigma^2+zeta^2)) = {inst.spectral_norm_bound():.6f}")

# A ramp maps to constant blocks: W (1..6) = 1.
print("\nA @ (1..6) head:", (A @ np.arange(1.0, 7.0))[:8])

# The half-size variant drops the mirrored blocks.
small = build_instance(3, 1.3, 1.0, "twoblock")
print(f"\ntwo-block instance: {small.n_rows} rows x {small.k} features")
print(small.dense())

# One export call per format writes the data file and, beside it, its
# .meta.json sidecar; the analytic entries come from the closed-form profile.
extra = profile_metadata(profile(inst))
print()
for fmt in ("csv", "libsvm"):
    sidecar = export(inst, fmt, f"demo_dataset.{fmt}", extra)
    print(f"wrote demo_dataset.{fmt} and {sidecar}")
print(sidecar.read_text().strip())
