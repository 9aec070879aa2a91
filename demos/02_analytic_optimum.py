#!/usr/bin/env python3
"""The closed-form optimum: the scaling root c, the ramp minimizer, and the
per-coordinate gap constant that powers the lower bounds."""

import numpy as np

from hardlogit import (
    build_instance,
    c_bracket,
    constant_c_ratio,
    invariants,
    loss,
    profile,
    solve_c,
    subspace_gap,
)

sigma, zeta = 1.3, 1.0

# c solves sigma*tanh(sigma*c) + zeta*tanh(zeta*c) = sigma - zeta.
c = solve_c(sigma, zeta)
residual = sigma * np.tanh(sigma * c) + zeta * np.tanh(zeta * c) - (sigma - zeta)
lo, hi = c_bracket(sigma, zeta)
print(f"c = {c:.15f}  (residual {residual:.1e}, bracket [{lo:.4f}, {hi:.4f}])")

# The minimizer is the ramp c*(1, 2, ..., k); its value has a closed form.
inst = build_instance(8, sigma, zeta)
prof = profile(inst)
resp = loss(inst, prof.x_star)
print(f"\nk = {inst.k}:  f* = {prof.f_star:.12f}")
print(f"direct evaluation at x*:  {resp.value:.12f}")
print(f"gradient sup-norm at x*:  {np.max(np.abs(resp.gradient)):.2e}")
print(f"||x*||^2 = {prof.xstar_norm_sq:.6f}  (= c^2 k(k+1)(2k+1)/6)")

# With an intercept in the model, (x*, 0) is still optimal.
intercept = invariants.optimum([(inst, prof)])[2]
print(f"{intercept.name} at (x*, 0): {intercept.detail}")

# Freezing the leading coordinates at zero costs a fixed amount per frozen
# coordinate; that amount, relative to c^2 sigma^2, is the ratio constant.
print(f"\nper-coordinate gap floor: {constant_c_ratio(sigma, zeta):.6f}")
for t in (2, 4, 6, 8):
    print(f"  min over last-{t}-coordinate subspace minus f*: "
          f"{subspace_gap(inst.k, t, sigma, zeta):.6f}")
