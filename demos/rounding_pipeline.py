"""
Relax, round, repeat: the LP pipeline
=====================================

For min dispersion the program below relaxes an assignment ILP, then rounds
the fractional rows with a dependent scheme that keeps every row summing to
one while preserving marginals in expectation.
"""

from fractions import Fraction

import numpy as np

from diverse_medians import (
    Budget,
    build_ilp,
    context_from_strings,
    dependent_round,
    lp_min_dispersion,
    solve_lp_relaxation,
    word_str,
)

ctx = context_from_strings(["aaaa", "bbbb", "cccc"])
budget = Budget.make(0, ctx.opt)

model = build_ilp(ctx, budget, k=3)
print(f"model: {model.n_vars} vars, {model.constraint_count()} constraints")
frac, lp_value = solve_lp_relaxation(model)
print("lp_value (= 2t~) =", lp_value)
print("candidate 0 fractional rows:\n", np.round(frac[0], 3))

# Dependent rounding walks cycles/paths of fractional entries, shifting
# probability mass until every entry is integral. Row sums stay exact.
mat = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]])
for seed in range(3):
    print(f"seed {seed}:", dependent_round(mat, seed).tolist())

cands, report = lp_min_dispersion(ctx, budget, k=3, delta=Fraction(1, 4),
                                  eta=Fraction(1, 8), seed=0)
print("rounded picks:", [word_str(s) for s in cands.members],
      "minDp =", cands.min_dispersion())
print("report:", report)
