import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    approx_median_pool,
    context_from_strings,
    greedy_dispersion,
    hamming,
    is_approx_median,
    median_cost,
    min_disp_dp_approx,
    min_disp_dp_exact,
    sample_approx_medians,
    sample_exact_medians,
    tstar_upper_bound,
)
from diverse_medians import cli, core, diameter, mindisp
from diverse_medians.mindisp import _diameter_at_least, plotkin_certificate

from conftest import random_rows, reference_context


# --- DP engines ---------------------------------------------------------------


def test_dp_exact_matches_brute(rng):
    for _ in range(40):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        for k in (2, 3):
            cands = min_disp_dp_exact(ctx, k)
            pool = approx_median_pool(ctx, Budget.make(0, ctx.opt), DEFAULT_LIMITS)
            assert cands.min_dispersion() == brute_mindp_k(pool, k, DEFAULT_LIMITS)
            assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_dp_approx_matches_brute(rng):
    for _ in range(30):
        rows = random_rows(rng, sigma="abc", d=int(rng.integers(1, 5)))
        ctx = context_from_strings(rows, alphabet="abc")
        eps = Fraction(int(rng.integers(0, 3)), 2)
        b = Budget.make(eps, ctx.opt)
        for k in (2, 3):
            cands = min_disp_dp_approx(ctx, b, k)
            pool = approx_median_pool(ctx, b, DEFAULT_LIMITS)
            assert cands.min_dispersion() == brute_mindp_k(pool, k, DEFAULT_LIMITS)
            assert all(is_approx_median(ctx, b, s) for s in cands.members)


def test_dp_state_invariant_violation_is_an_internal_error(monkeypatch):
    # a final state whose digits disagree with the members walked back to, by
    # one in a single distance or cost digit, is caught
    ctx = context_from_strings(["aab", "abb", "bab", "bba", "aaa"], alphabet="ab")
    budget = Budget.make(1, ctx.opt)
    min_disp_dp_approx(ctx, budget, 3)  # the kernel's own state passes
    kernel = mindisp._dp_kernel
    for part in (0, 1):
        for at in range(3):
            def off_by_one(*args, part=part, at=at):
                dist, cost, codes = kernel(*args)
                digits = [list(dist), list(cost)]
                digits[part][at] += 1
                return tuple(digits[0]), tuple(digits[1]), codes

            monkeypatch.setattr(mindisp, "_dp_kernel", off_by_one)
            with pytest.raises(InternalError):
                min_disp_dp_approx(ctx, budget, 3)

    # all-zero distances are checked by comparing every member to the first,
    # and these members differ
    def zero_distances(*args):
        dist, cost, codes = kernel(*args)
        assert len(np.unique(codes, axis=0)) > 1
        return (0,) * len(dist), cost, codes

    monkeypatch.setattr(mindisp, "_dp_kernel", zero_distances)
    with pytest.raises(InternalError):
        min_disp_dp_approx(ctx, budget, 3)


# The dict DPs the array kernel replaced, kept as references: each layer is a
# dict from state tuple to (parent state, assignment), filled state by state
# and pattern by pattern.


def dict_dp_exact(ctx, k):
    majority_sets = reference_context(ctx.dataset.strings, ctx.alphabet)["majority_sets"]
    pairs = list(combinations(range(k), 2))
    layers = [{(0,) * len(pairs): None}]
    for i in range(ctx.d):
        patterns = {}
        for assign in product(majority_sets[i], repeat=k):
            inc = tuple(int(assign[r] != assign[s]) for r, s in pairs)
            patterns.setdefault(inc, assign)
        nxt = {}
        for key in layers[-1]:
            for inc, assign in patterns.items():
                nk = tuple(a + b for a, b in zip(key, inc))
                if nk not in nxt:
                    nxt[nk] = (key, assign)
        layers.append(nxt)
    best_key = max(layers[-1], key=lambda s: (min(s), s))
    return min(best_key), walk_back(layers, best_key, k, ctx.d)


def dict_dp_approx(ctx, budget, k):
    ref = reference_context(ctx.dataset.strings, ctx.alphabet)
    cap = budget.floor
    pairs = list(combinations(range(k), 2))
    layers = [{((0,) * len(pairs), (0,) * k): None}]
    for i in range(ctx.d):
        patterns = {}
        for assign in product(ctx.alphabet, repeat=k):
            inc = tuple(int(assign[r] != assign[s]) for r, s in pairs)
            add = tuple(ref["per_char_cost"][i].get(a, 0) for a in assign)
            patterns.setdefault((inc, add), assign)
        nxt = {}
        for key in layers[-1]:
            dist, cost = key
            for (inc, add), assign in patterns.items():
                nc = tuple(a + b for a, b in zip(cost, add))
                if any(c > cap for c in nc):
                    continue
                nk = (tuple(a + b for a, b in zip(dist, inc)), nc)
                if nk not in nxt:
                    nxt[nk] = (key, assign)
        layers.append(nxt)
    best_key = max(layers[-1], key=lambda s: (min(s[0]), s))
    return min(best_key[0]), walk_back(layers, best_key, k, ctx.d)


def walk_back(layers, key, k, d):
    columns = []
    for i in range(d, 0, -1):
        key, assign = layers[i][key]
        columns.append(assign)
    columns.reverse()
    return tuple(tuple(col[r] for col in columns) for r in range(k))


@st.composite
def dp_instances(draw, sigmas):
    """Rows over the first |sigma| letters whose columns are unanimous, tied
    between a few symbols, or uniform random."""
    alphabet = "abcdefghijklmnopqrst"[: draw(st.sampled_from(sigmas))]
    n = draw(st.integers(2, 6))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["unanimous", "tie", "random"]))
        if kind == "unanimous":
            col = [draw(st.sampled_from(alphabet))] * n
        elif kind == "tie":
            syms = draw(st.lists(st.sampled_from(alphabet), min_size=2,
                                 max_size=min(n, len(alphabet)), unique=True))
            col = draw(st.permutations([syms[r % len(syms)] for r in range(n)]))
        else:
            col = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
        cols.append(col)
    rows = ["".join(col[r] for col in cols) for r in range(n)]
    return context_from_strings(rows, alphabet=alphabet)


@settings(max_examples=120, deadline=None)
@given(dp_instances((2, 4, 20)), st.sampled_from([2, 3, 4]))
def test_dp_exact_matches_dict_reference(ctx, k):
    cands = min_disp_dp_exact(ctx, k)
    assert (cands.min_dispersion(), cands.members) == dict_dp_exact(ctx, k)


EPSILONS = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]


def small_budget_case(ctx):
    """(ctx, 4, eps) with an eps whose budget B = floor(eps * opt) is at most 1."""
    fits = [eps for eps in EPSILONS if Budget.make(eps, ctx.opt).floor <= 1]
    return st.tuples(st.just(ctx), st.just(4), st.sampled_from(fits))


# the dict reference walks |alphabet|^k assignments per column and carries
# (B+1)^k cost digits per state, so k = 4 runs over two symbols at every
# eps, and over four symbols only at B <= 1 (eps = 0 always qualifies)
@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.tuples(dp_instances((2, 4, 20)), st.sampled_from([2, 3]), st.sampled_from(EPSILONS)),
        st.tuples(dp_instances((2,)), st.just(4), st.sampled_from(EPSILONS)),
        dp_instances((4,)).flatmap(small_budget_case),
    )
)
def test_dp_approx_matches_dict_reference(case):
    ctx, k, eps = case
    b = Budget.make(eps, ctx.opt)
    try:
        cands = min_disp_dp_approx(ctx, b, k)
    except CapExceeded:
        # only the precheck refuses, before any layer is built: T counts the
        # columns with two or more symbols of cost <= B
        per_char = reference_context(ctx.dataset.strings, ctx.alphabet)["per_char_cost"]
        top = sum(sum(c <= b.floor for c in costs.values()) >= 1 for costs in per_char)
        assert (ctx.d + 1) * (top + 1) ** (k * (k - 1) // 2) * (b.floor + 1) ** k > 10**7
        return
    assert (cands.min_dispersion(), cands.members) == dict_dp_approx(ctx, b, k)


def test_dp_blocks_keep_first_occurrence_order(monkeypatch):
    # one-state blocks: the dedup across blocks must still keep the first
    # (state, pattern) reaching each key
    monkeypatch.setattr(core, "BLOCK_BYTES", 1)
    ctx = context_from_strings(["abcab", "bcaba", "cabbc", "abcca"], alphabet="abc")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    for k in (2, 3):
        cands = min_disp_dp_exact(ctx, k)
        assert (cands.min_dispersion(), cands.members) == dict_dp_exact(ctx, k)
        cands = min_disp_dp_approx(ctx, b, k)
        assert (cands.min_dispersion(), cands.members) == dict_dp_approx(ctx, b, k)


def test_dp_key_past_63_bits_is_cap_exceeded():
    # (d+1)^6 pair digits at d = 1500 need more than 63 bits; a max_states
    # this large lets the precheck pass, and the key check refuses
    ctx = context_from_strings(["a" * 1500, "b" * 1500], alphabet="ab")
    with pytest.raises(CapExceeded, match="63 bits"):
        min_disp_dp_exact(ctx, 4, limits=EnumerationLimits(max_states=10**40))


def test_dp_skips_columns_with_one_admissible_symbol():
    # one tie column in 20000: the other columns leave the layer as it is, so
    # the DP does no array work on them (1.5 s when it did)
    d = 20000
    ctx = context_from_strings(["A" * d, "C" + "A" * (d - 1)], alphabet="AC")
    t0 = time.perf_counter()
    cands = min_disp_dp_exact(ctx, 4, limits=EnumerationLimits(max_states=10**40))
    elapsed = time.perf_counter() - t0
    assert (cands.min_dispersion(), cands.members) == dict_dp_exact(ctx, 4)
    assert elapsed < 0.3, f"{elapsed:.2f} s"


def test_dp_without_a_tie_column_at_k_20000():
    # k copies of w: the state check compares each member to the first, where
    # one distances_to vector per member took 12 s
    ctx = context_from_strings(["abca", "abca", "abcb"], alphabet="abc")
    t0 = time.perf_counter()
    cands = min_disp_dp_exact(ctx, 20_000)
    elapsed = time.perf_counter() - t0
    assert cands.min_dispersion() == 0 and set(cands.members) == {ctx.w}
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_dp_approx_memory_and_time_bound():
    # every column a 4-way tie at eps = 0: up to 36^3 live states per layer
    d = 35
    ctx = context_from_strings(["a" * d, "b" * d, "c" * d, "d" * d], alphabet="abcd")
    b = Budget.make(0, ctx.opt)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        cands = min_disp_dp_approx(ctx, b, 3)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cands.min_dispersion() == d  # three symbols per column differ
    # the dict layers peaked at 59 MiB and took 3.5 s here; the arrays need 5 MiB
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_dp_state_cap():
    rows = ["a" * 20, "b" * 20]  # 2^20 exact medians, k=3 pair vectors blow up
    ctx = context_from_strings(rows, alphabet="ab")
    with pytest.raises(CapExceeded):
        min_disp_dp_exact(ctx, 3, limits=EnumerationLimits(max_states=100))


# --- samplers -------------------------------------------------------------------


def test_trial_count_arithmetic():
    mk = lambda eta: SampleConfig(k=2, delta=Fraction(1, 2), eta=eta, seed=0).trials
    assert mk(Fraction(1, 2)) == 1
    assert mk(Fraction(1, 3)) == 2
    assert mk(Fraction(1, 8)) == 3
    assert mk(Fraction(1, 9)) == 4
    assert mk(Fraction(9, 10)) == 1  # ceil never drops below one trial


def doubling_trials(eta):
    """N = ceil(log2(1/eta)), at least 1, by doubling until 2^N * q >= p for
    1/eta = p/q: the count before it became a formula."""
    inv = 1 / eta
    n = 1
    while (1 << n) * inv.denominator < inv.numerator:
        n += 1
    return n


def test_trial_count_matches_doubling(rng):
    mk = lambda eta: SampleConfig(k=2, delta=Fraction(1, 2), eta=eta, seed=0).trials
    etas = []
    for _ in range(5000):
        q = int(rng.integers(2, 10**6))
        etas.append(Fraction(int(rng.integers(1, q)), q))
    # around powers of two, where the ceiling steps
    etas += [Fraction(1, 2**j + s) for j in range(1, 70) for s in (-1, 0, 1) if 2**j + s > 1]
    etas += [Fraction(2**j - 1, 2**(2 * j)) for j in range(1, 70)]
    for digits in (10, 1000, 4299):  # eta = 10^-digits and a ragged fraction that small
        etas += [Fraction(1, 10**digits), Fraction(7, 3 * 10**digits + 1)]
    for eta in etas:
        assert mk(eta) == doubling_trials(eta), eta


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
        cands = sample_exact_medians(ctx, cfg)
        assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_approx_sampler_cost_class(rng):
    for seed in range(10):
        rows = random_rows(rng, sigma="ab", n=6)
        ctx = context_from_strings(rows, alphabet="ab")
        b = Budget.make(Fraction(1, 2), ctx.opt)
        cfg = SampleConfig(k=3, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=seed)
        cands = sample_approx_medians(ctx, approx_diameter_pair(ctx, b), cfg)
        cap = (1 + 2 * b.epsilon) * ctx.opt  # mixes are (1+2eps)-approximate
        assert all(Fraction(median_cost(ctx, s)) <= cap for s in cands.members)


def test_samplers_are_seed_deterministic():
    ctx = context_from_strings(["ab" * 5, "ba" * 5], alphabet="ab")
    cfg = SampleConfig(k=4, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=7)
    a = sample_exact_medians(ctx, cfg)
    b = sample_exact_medians(ctx, cfg)
    assert a.members == b.members
    other = SampleConfig(k=4, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=8)
    c = sample_exact_medians(ctx, other)
    assert a.members != c.members


# The best-of-N pick the streaming core.best_trial replaced, kept as the
# reference: every trial drawn into one list, then the first with the largest
# min_distance; the draws are the samplers' own, one stream per trial.
def listed_pick_reference(cfg, draw):
    trials = [draw(np.random.default_rng([cfg.seed, t])) for t in range(cfg.trials)]
    values = [core.min_distance(codes) for codes in trials]
    return trials[max(range(len(values)), key=values.__getitem__)]


def exact_draw_reference(ctx, k):
    sizes, index = ctx.majority_sizes.tolist(), np.arange(ctx.d)[:, None]
    return lambda rng: ctx.rank[index, np.array([rng.integers(0, g, size=k) for g in sizes])].T


def approx_draw_reference(ctx, pair, k):
    (y, z), w = pair.codes, ctx.rank[:, 0]
    devs = np.flatnonzero(y != z)
    dev_sym = np.where(y[devs] != w[devs], y[devs], z[devs])

    def draw(rng):
        coins = rng.integers(0, 2, size=(k, len(devs)))
        codes = np.tile(w, (k, 1))
        codes[:, devs] = np.where(coins != 0, dev_sym, w[devs])
        return codes

    return draw


@pytest.mark.parametrize("trials", [1, 7, 100])
def test_samplers_pick_what_the_listed_trials_picked(rng, trials):
    for seed in range(8):
        rows = random_rows(rng, n=int(rng.integers(2, 6)), d=int(rng.integers(2, 9)),
                           sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        pair = approx_diameter_pair(ctx, Budget.make(Fraction(1, 2), ctx.opt))
        k = int(rng.integers(2, 6))
        cfg = SampleConfig(k=k, delta=Fraction(1, 2), eta=Fraction(1, 2**trials), seed=seed)
        assert cfg.trials == trials
        assert np.array_equal(sample_exact_medians(ctx, cfg).codes,
                              listed_pick_reference(cfg, exact_draw_reference(ctx, k)))
        assert np.array_equal(sample_approx_medians(ctx, pair, cfg).codes,
                              listed_pick_reference(cfg, approx_draw_reference(ctx, pair, k)))


def test_samplers_hold_a_bounded_number_of_trials(rng):
    # 500 trials of k = 128 members over d = 32 columns: holding every trial
    # takes 500 * k * d bytes; one draw works on its (d, k) int64 picks or
    # (k, d) coins, 8 * k * d bytes each, and the peak stays within four of those
    d, k = 32, 128
    ctx = context_from_strings(random_rows(rng, n=4, d=d, sigma="ab"), alphabet="ab")
    pair = approx_diameter_pair(ctx, Budget.make(Fraction(1, 2), ctx.opt))
    cfg = SampleConfig(k=k, delta=Fraction(1, 2), eta=Fraction(1, 2**500), seed=3)
    for run in (lambda: sample_exact_medians(ctx, cfg),
                lambda: sample_approx_medians(ctx, pair, cfg)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * k * d, f"peak {peak / (k * d):.0f} k*d bytes"


# --- greedy ----------------------------------------------------------------------


def test_greedy_k2_returns_farthest_pair(rng):
    for _ in range(20):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        pool = approx_median_pool(ctx, Budget.make(0, ctx.opt), DEFAULT_LIMITS)
        cs = greedy_dispersion(pool, 2, ctx)
        words = pool.strings
        best = max(
            hamming(a, b) for i, a in enumerate(words) for b in words[i:]
        )
        assert cs.min_dispersion() == best


def test_greedy_half_guarantee(rng):
    for _ in range(25):
        rows = random_rows(rng, sigma="ab", d=int(rng.integers(2, 6)))
        ctx = context_from_strings(rows, alphabet="ab")
        pool = approx_median_pool(ctx, Budget.make(0, ctx.opt), DEFAULT_LIMITS)
        k = 3
        cs = greedy_dispersion(pool, k, ctx)
        tstar = brute_mindp_k(pool, k, DEFAULT_LIMITS)
        assert 2 * cs.min_dispersion() >= tstar


# --- bounds ----------------------------------------------------------------------


def test_plotkin_bound_cases():
    def bound(sizes, t):
        return plotkin_certificate(sizes, t).max_code_size

    # B = 2 for four binary coordinates
    assert bound((2, 2, 2, 2), 2) == 16  # t == B: 2 * sum sizes
    assert bound((2, 2, 2, 2), 3) == 3  # floor(3 / (3 - 2))
    assert bound((2, 2, 2, 2), 4) == 2
    assert bound((2, 2, 2, 2), 1) is None  # below B: inapplicable
    assert bound((3, 3), 2) == 3  # B = 4/3, floor(2 / (2/3))
    assert bound((5,), 1) == 5  # B = 4/5: floor(1 / (1/5)), the full column
    assert bound((2, 2), 1) == 8  # t == B exactly: 2 * sum of sizes


def test_plotkin_bound_validation():
    with pytest.raises(ValidationError):
        plotkin_certificate((0, 2), 1)
    with pytest.raises(ValidationError):
        plotkin_certificate((2, 2), -1)


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


def test_diameter_threshold_matches_the_literal_powers():
    # the test decides 2^a >= k^c without forming either power; on this grid
    # every branch runs: both brackets, a power of two k, and the Decimal loop
    for dstar, (p, q), k, add in product(range(0, 40, 3), [(1, 2), (2, 3), (3, 4), (1, 1)],
                                         range(1, 13), (0, 1)):
        a, c = dstar * p * p - 4 * add * q * q, 8 * q * q
        expected = a >= 0 and 2**a >= k**c
        assert _diameter_at_least(dstar, Fraction(p, q), k, add) == expected, (dstar, p, q, k)
    # k = 2^200 + 1, a = 200c = 1600: a*ln(2) - c*ln(k) is about -5e-60, so the
    # precision doubles before its sign is sure
    k = 2**200 + 1
    for dstar in (1600, 1601):
        assert _diameter_at_least(dstar, Fraction(1), k, 0) == (2**dstar >= k**8)


# --- dispatchers ------------------------------------------------------------------


def test_exact_dispatch_dp_branch():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    cands, tag = cli.dispatch(
        ctx, Budget.make(0, ctx.opt), "min-dispersion",
        2, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "dp"
    assert cands.min_dispersion() == 2


def test_dispatchers_read_max_states_from_limits():
    # the same instances take the DP branch under the default limits; a state
    # cap of 1 rules the DP out, so both dispatchers fall through to greedy
    one = EnumerationLimits(max_states=1)
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    _, tag = cli.dispatch(
        ctx, Budget.make(0, ctx.opt), "min-dispersion",
        2, Fraction(1, 2), Fraction(1, 8), seed=0, limits=one
    )
    assert tag == "greedy"
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    _, tag = cli.dispatch(
        ctx, b, "min-dispersion", 2, Fraction(1, 2), Fraction(1, 8), seed=0, limits=one
    )
    assert tag == "greedy"
    with pytest.raises(CapExceeded):
        min_disp_dp_approx(ctx, b, 2, limits=one)


def test_exact_dispatch_sample_branch():
    rows = ["a" * 90, "b" * 90]  # 90 ties >= threshold for delta=1/2, k=4
    ctx = context_from_strings(rows, alphabet="ab")
    cands, tag = cli.dispatch(
        ctx, Budget.make(0, ctx.opt), "min-dispersion",
        4, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "sample"
    assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_exact_dispatch_greedy_branch():
    rows = ["ab", "ba", "aa", "bb"]  # 2 tie columns, small diameter
    ctx = context_from_strings(rows, alphabet="ab")
    cands, tag = cli.dispatch(
        ctx, Budget.make(0, ctx.opt), "min-dispersion",
        3, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "greedy"


def test_exact_dispatch_sample_fallback_branch():
    # k*delta = 3/2 skips the DP; D* = 40 sits below the sampling threshold
    # (~67 for delta=1/2, k=3); 2^40 medians blow the enumeration cap.
    rows = ["a" * 40, "b" * 40]
    ctx = context_from_strings(rows, alphabet="ab")
    cands, tag = cli.dispatch(
        ctx, Budget.make(0, ctx.opt), "min-dispersion",
        3, Fraction(1, 2), Fraction(1, 8), seed=0,
        limits=EnumerationLimits(10**4, 10**7, 10**7),
    )
    assert tag == "sample_fallback"
    assert all(median_cost(ctx, s) == ctx.opt for s in cands.members)


def test_approx_dispatch_dp_branch():
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    cands, tag = cli.dispatch(
        ctx, b, "min-dispersion", 2, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "dp"


def test_approx_dispatch_sample_branch():
    rows = ["1" * 60] * 6 + ["0" * 60] * 4
    ctx = context_from_strings(rows, alphabet="01")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    cands, tag = cli.dispatch(
        ctx, b, "min-dispersion", 5, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    # D* = 60 > 4/delta^2 = 16 -> mixing sampler
    assert tag == "sample"
    cap = (1 + 2 * b.epsilon) * ctx.opt
    assert all(Fraction(median_cost(ctx, s)) <= cap for s in cands.members)


def test_approx_dispatch_sample_branch_computes_the_diameter_once(monkeypatch):
    calls = []

    def counting(ctx, budget):
        calls.append(1)
        return approx_diameter_pair(ctx, budget)

    monkeypatch.setattr(diameter, "approx_diameter_pair", counting)
    ctx = context_from_strings(["1" * 60] * 6 + ["0" * 60] * 4, alphabet="01")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    _, tag = cli.dispatch(
        ctx, b, "min-dispersion", 5, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "sample"
    assert len(calls) == 1


def test_approx_dispatch_greedy_branch(rng):
    rows = ["ab", "ba", "aa"]
    ctx = context_from_strings(rows, alphabet="ab")
    b = Budget.make(Fraction(1, 2), ctx.opt)
    cands, tag = cli.dispatch(
        ctx, b, "min-dispersion", 3, Fraction(1, 2), Fraction(1, 8), seed=0
    )
    assert tag == "greedy"


def test_approx_dispatch_never_returns_lpround(rng):
    # the LP pipeline runs only under its own name (--strategy lp); past DP
    # and greedy the walk always ends at a sampler
    rows = ["aaaa", "bbbb", "cccc"]
    ctx = context_from_strings(rows, alphabet="abc")
    b = Budget.make(0, ctx.opt)
    # k * delta > 1 skips the DP; at eps = 0 the exact-median rules apply
    _, tag = cli.dispatch(ctx, b, "min-dispersion", 3, Fraction(3, 4), Fraction(1, 8), seed=0)
    assert tag in ("sample", "greedy", "sample_fallback")
    for _ in range(10):
        rows = random_rows(rng, sigma="abc", d=int(rng.integers(2, 6)))
        ctx = context_from_strings(rows, alphabet="abc")
        b = Budget.make(Fraction(int(rng.integers(1, 3)), 2), ctx.opt)
        for k, delta in ((2, Fraction(1, 2)), (3, Fraction(3, 4)), (4, Fraction(1, 2))):
            _, tag = cli.dispatch(ctx, b, "min-dispersion", k, delta, Fraction(1, 8), seed=0)
            assert tag in ("dp", "greedy", "sample")
