"""
k strings with large total spread (sum dispersion)
==================================================

Exact layout on tied columns, then the budgeted density greedy for cases
where enumeration is hopeless.
"""

from fractions import Fraction

from diverse_medians import (
    Budget,
    brute_sumdp_k,
    context_from_strings,
    exact_median_pool,
    sum_dispersion,
    sum_dispersion_approx_k,
    sum_dispersion_exact_k,
    word_str,
)
from diverse_medians.cli import dispatch

# On tied columns the optimum splits the k picks as evenly as possible over
# each tie set -- that per-column layout is provably the global maximum.
ctx = context_from_strings(["ax", "bx", "cx"], alphabet="abcx")
cs = sum_dispersion_exact_k(ctx, 5)
print("exact k=5 layout:", [word_str(s) for s in cs.members])
print("  sumDp =", sum_dispersion(cs.members),
      " oracle =", brute_sumdp_k(exact_median_pool(ctx), 5))

# Budgeted version: spend the eps budget where the dispersion gained per
# unit of cost (the density) is highest.
rows = ["aaaaaaaa", "aaaabbbb", "bbbbaaaa", "abababab"]
ctx = context_from_strings(rows, alphabet="ab")
budget = Budget.make(Fraction(1, 2), ctx.opt)
cs, value = sum_dispersion_approx_k(ctx, budget, 3)
print("density greedy k=3:", [word_str(s) for s in cs.members], "-> sumDp", value)

# The CLI's "auto" walk reports which regime it used.
cs, tag = dispatch(ctx, budget, "sum-dispersion", 3, Fraction(1, 4))
print("dispatch picked:", tag, "-> sumDp", sum_dispersion(cs.members))
