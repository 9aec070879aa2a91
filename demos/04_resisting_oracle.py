#!/usr/bin/env python3
"""The rotation adversary: trapping methods that leave the gradient span.

A method may probe outside the span of returned gradients (our denseprobe
does exactly that).  The adversary answers each query with a freshly
rotated dataset that (a) leaves every past answer untouched and (b) folds
the new query into a low-dimensional trap.  The rotation is kept as the
Householder reflectors it took (``final.U`` is a ``Rotation``; ``dense()``
multiplies them out).  The final rotation is a single fixed dataset the
method cannot distinguish from what it experienced, so replaying against
it asks at the very points the adversary placed and reproduces the run;
that replay is where the run's trace comes from.
"""

import numpy as np

from hardlogit import (
    adversarial_run,
    bound_general,
    build_instance,
    data_direction_residual,
    invariants,
    loss,
    profile,
)

sigma, zeta = 1.3, 1.0
T = 10

print(f"adversarial budget: T = {T} oracle queries, dimension k = {4 * T + 2}\n")
for name in ("gd", "agd", "denseprobe"):
    inst = build_instance(4 * T + 2, sigma, zeta)
    prof = profile(inst)  # rotation keeps c, x* and f*; the optimum moves to U'x*
    trace, deviation, final, oracle = adversarial_run(name, inst, T, prof.x_star)
    z_star = final.U.apply_t(prof.x_star)

    gap = trace.values[-1] - prof.f_star
    lb = bound_general(T, final.a_norm(), prof.xstar_norm_sq)
    rotation_size = np.max(np.abs(final.U.dense() - np.eye(final.k)))

    print(f"{name}:")
    print(f"  gap {gap:.6f} > lower bound {lb.gap:.6f} "
          f"({gap / lb.gap:.2f}x margin)")
    print(f"  ||x_T - z*||^2 / ||x_0 - z*||^2 = "
          f"{trace.dist_sq[-1] / prof.xstar_norm_sq:.4f}  (> 1/8)")
    print(f"  reflections taken: {len(final.U)} of {len(oracle.points) - 1} steps; "
          f"rotation distance from identity: {rotation_size:.3e}"
          + ("  (span methods never force a real rotation)" if rotation_size < 1e-9 else ""))
    print(f"  label direction preserved: |U'A'b - A'b| = "
          f"{data_direction_residual(final):.1e}")
    print(f"  optimal value unchanged by rotation: "
          f"f(z*) - f* = {loss(final, z_star).value - prof.f_star:.2e}")
    print(f"  replay against the frozen final dataset matches: "
          f"{invariants.replay_matches(deviation).passed}\n")

print("Even the span-violating probe ends far from the optimum: no"
      "\ndeterministic first-order method escapes the 1/sqrt(eps) oracle cost.")
