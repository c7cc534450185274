#!/usr/bin/env python3
"""Solve the game for a few lottery sets and watch p_n approach 1/2.

The mover at pile size k picks a lottery over take-counts 1..m, observes
the draw, and removes that many objects; whoever takes the last object
loses.  With no pure moves available (eta < 1), the first-mover advantage
washes out as the pile grows.
"""
import math

from bachet_lottery import (
    GameSpec,
    compute_conditions,
    drop_constants,
    finite_set,
    solve,
    truncated_simplex,
)
from bachet_lottery.analysis import envelope_bound

SETS = {
    "single fair coin {(0.5, 0.5)}": finite_set([[0.5, 0.5]]),
    "mirrored pair {(0.9, 0.1), (0.1, 0.9)}": finite_set([[0.9, 0.1], [0.1, 0.9]]),
    "truncated simplex eps=0.05, m=3": truncated_simplex([0.05, 0.05, 0.05]),
}

N = 5000

for label, K in SETS.items():
    cond = compute_conditions(K)
    dc = drop_constants(cond.eta, cond.nu)
    vt = solve(GameSpec(N, K.m, K))

    print(f"\n=== {label} ===")
    print(f"eta = {cond.eta:.4f}  nu = {cond.nu:.4f}  contraction delta = {dc.delta:.6f}")
    print("  k        p_k        |p_k - 1/2|   geometric envelope")
    for k in (1, 2, 5, 10, 50, 200, 1000, N):
        env = envelope_bound(k, dc.delta, K.m)
        print(f"{k:5d}  {vt.p(k):.8f}   {abs(vt.p(k) - 0.5):.3e}     {env:.3e}")

    n_star = 1 + 3 * K.m * math.ceil(math.log(2e-3) / math.log(dc.delta))
    tail_max = max(abs(vt.p(k) - 0.5) for k in range(n_star, N + 1))
    print(f"beyond n = {n_star}, max |p_n - 1/2| = {tail_max:.2e} (guaranteed < 1e-3)")
