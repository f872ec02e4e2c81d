from fractions import Fraction

import pytest

from diverse_medians import (
    Budget,
    CapExceeded,
    DEFAULT_LIMITS,
    EnumerationLimits,
    InternalError,
    SampleConfig,
    ValidationError,
    approx_diameter_pair,
    bound_certificate,
    brute_mindp_k,
    context_from_strings,
    enumerate_approx_medians,
    enumerate_exact_medians,
    greedy_dispersion,
    hamming,
    is_approx_median,
    median_cost,
    min_disp_dp_approx,
    min_disp_dp_exact,
    min_dispersion_dispatch_approx,
    min_dispersion_dispatch_exact,
    plotkin_bound,
    sample_approx_medians,
    sample_exact_medians,
    tstar_upper_bound,
)
from diverse_medians.mindisp import _check_dp_state, _diameter_at_least

from conftest import random_rows


# --- DP engines ---------------------------------------------------------------


def test_dp_exact_matches_brute(rng):
    for _ in range(40):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        for k in (2, 3):
            val, cands = min_disp_dp_exact(ctx.freq, k)
            pool = enumerate_exact_medians(ctx.freq, DEFAULT_LIMITS)
            assert val == brute_mindp_k(pool, k, DEFAULT_LIMITS)
            assert cands.min_dispersion() == val
            assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_dp_approx_matches_brute(rng):
    for _ in range(30):
        rows = random_rows(rng, sigma="abc", d=int(rng.integers(1, 5)))
        ctx = context_from_strings(rows, alphabet="abc")
        eps = Fraction(int(rng.integers(0, 3)), 2)
        b = Budget.make(eps, ctx.opt)
        for k in (2, 3):
            val, cands = min_disp_dp_approx(ctx, b, k)
            pool = enumerate_approx_medians(ctx, b, DEFAULT_LIMITS)
            assert val == brute_mindp_k(pool, k, DEFAULT_LIMITS)
            assert all(is_approx_median(ctx, b, s) for s in cands.members)


def test_dp_state_invariant_violation_is_an_internal_error():
    with pytest.raises(InternalError):
        _check_dp_state((0, 3), None, column=2, cost_cap=None)
    with pytest.raises(InternalError):
        _check_dp_state((1,), (0, 5), column=2, cost_cap=4)
    _check_dp_state((0, 2), (0, 4), column=2, cost_cap=4)


def test_dp_state_cap():
    rows = ["a" * 20, "b" * 20]  # 2^20 exact medians, k=3 pair vectors blow up
    ctx = context_from_strings(rows, alphabet="ab")
    with pytest.raises(CapExceeded):
        min_disp_dp_exact(ctx.freq, 3, limits=EnumerationLimits(max_states=100))


# --- samplers -------------------------------------------------------------------


def test_trial_count_arithmetic():
    mk = lambda eta: SampleConfig(k=2, delta=Fraction(1, 2), eta=eta, seed=0).trials
    assert mk(Fraction(1, 2)) == 1
    assert mk(Fraction(1, 3)) == 2
    assert mk(Fraction(1, 8)) == 3
    assert mk(Fraction(1, 9)) == 4
    assert mk(Fraction(9, 10)) == 1  # ceil never drops below one trial


def test_sample_config_validation():
    with pytest.raises(ValidationError):
        SampleConfig(k=1, delta=Fraction(1, 2), eta=Fraction(1, 2), seed=0)
    with pytest.raises(ValidationError):
        SampleConfig(k=2, delta=Fraction(0), eta=Fraction(1, 2), seed=0)
    with pytest.raises(ValidationError):
        SampleConfig(k=2, delta=Fraction(1, 2), eta=Fraction(2), seed=0)


def test_exact_sampler_members_are_exact_medians(rng):
    for seed in range(10):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        cfg = SampleConfig(k=3, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=seed)
        cands, val = sample_exact_medians(ctx.freq, cfg)
        assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)
        assert cands.min_dispersion() == val


def test_approx_sampler_cost_class(rng):
    for seed in range(10):
        rows = random_rows(rng, sigma="ab", n=6)
        ctx = context_from_strings(rows, alphabet="ab")
        b = Budget.make(Fraction(1, 2), ctx.opt)
        cfg = SampleConfig(k=3, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=seed)
        cands, _ = sample_approx_medians(ctx, approx_diameter_pair(ctx, b), cfg)
        cap = (1 + 2 * b.epsilon) * ctx.opt  # mixes are (1+2eps)-approximate
        assert all(Fraction(median_cost(ctx, s)) <= cap for s in cands.members)


def test_samplers_are_seed_deterministic():
    ctx = context_from_strings(["ab" * 5, "ba" * 5], alphabet="ab")
    cfg = SampleConfig(k=4, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=7)
    a = sample_exact_medians(ctx.freq, cfg)
    b = sample_exact_medians(ctx.freq, cfg)
    assert a[0].members == b[0].members and a[1] == b[1]
    other = SampleConfig(k=4, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=8)
    c = sample_exact_medians(ctx.freq, other)
    assert a[0].members != c[0].members or a[1] != c[1]


# --- greedy ----------------------------------------------------------------------


def test_greedy_k2_returns_farthest_pair(rng):
    for _ in range(20):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        pool = enumerate_exact_medians(ctx.freq, DEFAULT_LIMITS)
        cs = greedy_dispersion(pool, 2, ctx.freq)
        best = max(
            hamming(a, b) for i, a in enumerate(pool) for b in pool[i:]
        )
        assert cs.min_dispersion() == best


def test_greedy_half_guarantee(rng):
    for _ in range(25):
        rows = random_rows(rng, sigma="ab", d=int(rng.integers(2, 6)))
        ctx = context_from_strings(rows, alphabet="ab")
        pool = enumerate_exact_medians(ctx.freq, DEFAULT_LIMITS)
        k = 3
        cs = greedy_dispersion(pool, k, ctx.freq)
        tstar = brute_mindp_k(pool, k, DEFAULT_LIMITS)
        assert 2 * cs.min_dispersion() >= tstar


# --- bounds ----------------------------------------------------------------------


def test_plotkin_bound_cases():
    # B = 2 for four binary coordinates
    assert plotkin_bound((2, 2, 2, 2), 2) == 16  # t == B: 2 * sum sizes
    assert plotkin_bound((2, 2, 2, 2), 3) == 3  # floor(3 / (3 - 2))
    assert plotkin_bound((2, 2, 2, 2), 4) == 2
    assert plotkin_bound((2, 2, 2, 2), 1) is None  # below B: inapplicable
    assert plotkin_bound((3, 3), 2) == 3  # B = 4/3, floor(2 / (2/3))
    assert plotkin_bound((5,), 1) == 5  # B = 4/5: floor(1 / (1/5)), the full column
    assert plotkin_bound((2, 2), 1) == 8  # t == B exactly: 2 * sum of sizes


def test_plotkin_bound_validation():
    with pytest.raises(ValidationError):
        plotkin_bound((0, 2), 1)
    with pytest.raises(ValidationError):
        plotkin_bound((2, 2), -1)


def test_tstar_upper_bound_exact_fraction():
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    assert tstar_upper_bound(ctx, b) == Fraction(4 * 3 * 2, 2 * 3)  # 4(1+eps)opt/n


def test_bound_certificate_fields():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    b = Budget.make(0, ctx.opt)
    cert = bound_certificate(ctx, b, t=2)
    assert cert.alphabet_sizes == (2, 2)
    assert cert.plotkin_sum == Fraction(1)
    assert cert.max_code_size == 2  # floor(2 / (2 - 1))
    assert cert.tstar_upper == Fraction(4 * 2, 2)


def test_diameter_threshold_is_boundary_exact():
    # with delta=1/2, k=4, add=1: D* >= (4/delta^2)(2 log2 k + 1) = 80 exactly
    assert _diameter_at_least(80, Fraction(1, 2), 4, add=1)
    assert not _diameter_at_least(79, Fraction(1, 2), 4, add=1)


# --- dispatchers ------------------------------------------------------------------


def test_exact_dispatch_dp_branch():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    cands, tag = min_dispersion_dispatch_exact(
        ctx.freq, 2, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "dp"
    assert cands.min_dispersion() == 2


def test_dispatchers_read_max_states_from_limits():
    # the same instances take the DP branch under the default limits; a state
    # cap of 1 rules the DP out, so both dispatchers fall through to greedy
    one = EnumerationLimits(max_states=1)
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    _, tag = min_dispersion_dispatch_exact(
        ctx.freq, 2, Fraction(1, 2), Fraction(1, 8), seed=0, limits=one
    )
    assert tag == "greedy"
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    _, tag = min_dispersion_dispatch_approx(
        ctx, b, 2, Fraction(1, 2), Fraction(1, 8), seed=0, limits=one
    )
    assert tag == "greedy"
    with pytest.raises(CapExceeded):
        min_disp_dp_approx(ctx, b, 2, limits=one)


def test_exact_dispatch_sample_branch():
    rows = ["a" * 90, "b" * 90]  # 90 ties >= threshold for delta=1/2, k=4
    ctx = context_from_strings(rows, alphabet="ab")
    cands, tag = min_dispersion_dispatch_exact(
        ctx.freq, 4, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "sample"
    assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_exact_dispatch_greedy_branch():
    rows = ["ab", "ba", "aa", "bb"]  # 2 tie columns, small diameter
    ctx = context_from_strings(rows, alphabet="ab")
    cands, tag = min_dispersion_dispatch_exact(
        ctx.freq, 3, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "greedy"


def test_exact_dispatch_sample_fallback_branch():
    # k*delta = 3/2 skips the DP; D* = 40 sits below the sampling threshold
    # (~67 for delta=1/2, k=3); 2^40 medians blow the enumeration cap.
    rows = ["a" * 40, "b" * 40]
    ctx = context_from_strings(rows, alphabet="ab")
    cands, tag = min_dispersion_dispatch_exact(
        ctx.freq, 3, Fraction(1, 2), Fraction(1, 8), seed=0,
        limits=EnumerationLimits(10**4, 10**7, 10**7),
    )
    assert tag == "sample_fallback"
    assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_approx_dispatch_dp_branch():
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    cands, tag = min_dispersion_dispatch_approx(
        ctx, b, 2, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "dp"


def test_approx_dispatch_sample_branch():
    rows = ["1" * 60] * 6 + ["0" * 60] * 4
    ctx = context_from_strings(rows, alphabet="01")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    cands, tag = min_dispersion_dispatch_approx(
        ctx, b, 5, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    # D* = 60 > 4/delta^2 = 16 -> mixing sampler
    assert tag == "sample"
    cap = (1 + 2 * b.epsilon) * ctx.opt
    assert all(Fraction(median_cost(ctx, s)) <= cap for s in cands.members)


def test_approx_dispatch_sample_branch_computes_the_diameter_once(monkeypatch):
    import diverse_medians.mindisp as mindisp

    calls = []

    def counting(ctx, budget):
        calls.append(1)
        return approx_diameter_pair(ctx, budget)

    monkeypatch.setattr(mindisp, "approx_diameter_pair", counting)
    ctx = context_from_strings(["1" * 60] * 6 + ["0" * 60] * 4, alphabet="01")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    _, tag = min_dispersion_dispatch_approx(
        ctx, b, 5, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "sample"
    assert len(calls) == 1


def test_approx_dispatch_greedy_branch(rng):
    rows = ["ab", "ba", "aa"]
    ctx = context_from_strings(rows, alphabet="ab")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    cands, tag = min_dispersion_dispatch_approx(
        ctx, b, 3, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "greedy"


def test_approx_dispatch_never_returns_lpround(rng):
    # the LP pipeline runs only under its own name (lpround.lp_min_dispersion);
    # past DP and greedy the dispatcher always ends at the mixing sampler
    rows = ["aaaa", "bbbb", "cccc"]
    ctx = context_from_strings(rows, alphabet="abc")
    b = Budget.make(0, ctx.opt)
    # k * delta > 1 and D* * delta^2 > 4 push past DP and greedy
    _, tag = min_dispersion_dispatch_approx(ctx, b, 3, Fraction(3, 4), Fraction(1, 8), seed=0)
    assert tag in ("sample", "greedy")
    for _ in range(10):
        rows = random_rows(rng, sigma="abc", d=int(rng.integers(2, 6)))
        ctx = context_from_strings(rows, alphabet="abc")
        b = Budget.make(Fraction(int(rng.integers(1, 3)), 2), ctx.opt)
        for k, delta in ((2, Fraction(1, 2)), (3, Fraction(3, 4)), (4, Fraction(1, 2))):
            _, tag = min_dispersion_dispatch_approx(ctx, b, k, delta, Fraction(1, 8), seed=0)
            assert tag in ("dp", "greedy", "sample")
