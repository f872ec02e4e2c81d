"""
Medians, budgets, and candidate pools
=====================================

Walks the core objects end to end: build a context from strings, read off
the majority-character median, then relax the cost budget and watch the
candidate pool grow.
"""

from fractions import Fraction

from diverse_medians import (
    Budget,
    context_from_strings,
    enumerate_approx_medians,
    enumerate_exact_medians,
    is_approx_median,
    median_cost,
)

rows = ["banana", "bonobo", "banana", "gazebo"]  # duplicates are fine
ctx = context_from_strings(rows)
print("dataset:", rows)
print("inferred alphabet:", "".join(ctx.alphabet))

# w picks the most frequent character per index (alphabet order breaks ties);
# its cost is the best possible, by a term-by-term argument over columns.
print("median w =", "".join(ctx.w), " cost =", ctx.opt)
for s in rows:
    print(f"  H-sum({s}) = {median_cost(ctx, s)}")

# Budgets are exact rationals: eps = 1/3 means cost <= (1+1/3) * opt, decided
# without ever touching floats.
for eps in (Fraction(0), Fraction(1, 6), Fraction(1, 3)):
    budget = Budget.make(eps, ctx.opt)
    pool = enumerate_approx_medians(ctx, budget)
    print(f"eps = {eps}: {len(pool)} candidates within budget "
          f"(floor = {budget.floor})")
    assert all(is_approx_median(ctx, budget, s) for s in pool)

# With ties, even eps = 0 gives more than one exact median.
tied = context_from_strings(["ab", "ba"])
print("tied instance medians:",
      ["".join(s) for s in enumerate_exact_medians(tied)])
