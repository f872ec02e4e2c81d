"""
k strings that are pairwise far apart (min dispersion)
======================================================

The bottleneck objective: maximize the smallest pairwise distance. Shows
the DP on small alphabets, the sampler on wide tied instances, and the
coding-theory certificate that caps what is achievable.
"""

from fractions import Fraction

from diverse_medians import (
    Budget,
    SampleConfig,
    approx_median_pool,
    bound_certificate,
    brute_mindp_k,
    context_from_strings,
    min_disp_dp_exact,
    sample_exact_medians,
)
from diverse_medians.cli import STRATEGY_TABLE, dispatch
from diverse_medians.mindisp import plotkin_certificate

ctx = context_from_strings(["abb", "bab", "bba", "aaa"], alphabet="ab")
cs = min_disp_dp_exact(ctx, 2)
pool = approx_median_pool(ctx, Budget.make(0, ctx.opt))  # the exact medians
print("DP minDp =", cs.min_dispersion(), "| brute =", brute_mindp_k(pool, 2),
      "| picks:", ["".join(s) for s in cs.members])

# 40 tied binary columns: enumeration would visit 2^40 strings, uniform
# sampling gets within (1-delta) of the tie mass with failure prob eta.
wide = context_from_strings(["0" * 40, "1" * 40], alphabet="01")
cfg = SampleConfig(k=4, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=0)
cs = sample_exact_medians(wide, cfg)
print("sampled k=4 on 40 tie columns: minDp =", cs.min_dispersion(), "(floor 10)")

# The generalized Plotkin bound certifies impossibility: no 4 words over
# these tie sets can be pairwise farther than the certificate allows.
cert = bound_certificate(wide, Budget.make(0, wide.opt), t=25)
print("certificate: plotkin_sum =", cert.plotkin_sum,
      "-> max code size at t=25:", cert.max_code_size)
print("binary sanity:", plotkin_certificate((2,) * 8, 5).max_code_size, "== 5")

# The CLI's "auto" walk returns the candidate set and the tag of the
# strategy it ran; the strategy table holds each tag's guarantee, cost class
# and engine. At eps = 0 (B = 0) the exact-median rows apply.
result, strategy = dispatch(
    wide, Budget.make(0, wide.opt), "min-dispersion", 4, Fraction(1, 2), Fraction(1, 8),
    seed=1,
)
print("dispatcher chose:", strategy, "-> minDp", result.min_dispersion())
row = STRATEGY_TABLE["min-dispersion", "exact", strategy]
print("  guarantee:", row.guarantee, "| cost class:", row.cost_class)
