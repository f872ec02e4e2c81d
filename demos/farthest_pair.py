"""
Two medians as far apart as possible
====================================

The diameter objective asks for two budget-feasible strings at maximum
Hamming distance. The fast path never enumerates the pool; this script
checks it against the brute-force oracle anyway.
"""

from fractions import Fraction

import numpy as np

from diverse_medians import (
    Budget,
    approx_diameter_pair,
    approx_median_pool,
    brute_diameter,
    context_from_strings,
    exact_diameter_pair,
    median_cost,
)

# Exact route: with zero budget the answer is just the number of tied
# columns, realized by two complementary tie picks.
ctx = context_from_strings(["acac", "caca", "aacc", "ccaa"])
res = exact_diameter_pair(ctx)
print("tie columns:", int((ctx.majority_sizes >= 2).sum()), "-> exact diameter", res.diameter)
print("  pair:", "".join(res.pair[0]), "".join(res.pair[1]))

# Budgeted route: the pair splits its deviations over disjoint index sets,
# chosen by a greedy sweep plus a subset-sum style repair step.
rng = np.random.default_rng(2)
rows = ["".join(rng.choice(list("ab"), size=9)) for _ in range(7)]
ctx = context_from_strings(rows, alphabet="ab")
budget = Budget.make(Fraction(1, 2), ctx.opt)

res = approx_diameter_pair(ctx, budget)
pool = approx_median_pool(ctx, budget)  # a code matrix, one row per candidate
oracle = brute_diameter(pool)
print(f"budgeted diameter = {res.diameter} via {res.branch}; "
      f"oracle over {pool.n} candidates = {oracle}")
assert res.diameter == oracle
assert all(median_cost(ctx, s) <= (1 + budget.epsilon) * ctx.opt for s in res.pair)
