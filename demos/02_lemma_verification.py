#!/usr/bin/env python3
"""Run every inequality check behind the convergence proof on one table.

Each check scans a solved table for one proved inequality (monotone
window maxima, forbidden long winning runs, the corridor bound, the
contraction drops, the geometric envelope).  All of them must come back
with zero violations; the most binding slack shows how tight each bound
gets in practice.
"""
from bachet_lottery import (
    GameSpec,
    compute_conditions,
    deviation_series,
    drop_constants,
    solve,
    truncated_simplex,
)
from bachet_lottery.analysis import DEFAULT_KAPPA_GRID, run_checks

K = truncated_simplex([0.05, 0.05])
spec = GameSpec(10_000, 2, K)

cond = compute_conditions(K)
dc = drop_constants(cond.eta, cond.nu)
vt = solve(spec)
ds = deviation_series(vt)

print(f"n = {spec.n}, m = {spec.m}, eta = {cond.eta}, nu = {cond.nu}")
print(f"tau* = {dc.tau:.6f}, delta = {dc.delta:.6f}\n")
print(f"{'check':28s} {'applied':>8s} {'violations':>10s} {'min slack':>12s}")

reports = run_checks(ds, dc, DEFAULT_KAPPA_GRID)
for rep in reports:
    slack = "n/a" if rep.checked == 0 else f"{rep.min_slack:.2e}"
    print(f"{rep.lemma_id:28s} {rep.checked:8d} {rep.violation_count:10d} {slack:>12s}")

assert all(rep.ok for rep in reports)
print("\nall inequality checks clean (slack tolerance 1e-9)")
