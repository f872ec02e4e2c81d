import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_medians import (
    Budget,
    CapExceeded,
    Dataset,
    EnumerationLimits,
    approx_median_pool,
    brute_diameter,
    brute_max_code_size,
    brute_mindp_k,
    brute_sumdp_k,
    context_from_strings,
    enumerate_approx_medians,
    enumerate_exact_medians,
    hamming,
    median_cost,
)
from diverse_medians.oracle import DEFAULT_LIMITS, pairwise_hamming_matrix

from conftest import pool_contexts, random_rows, reference_context, tie_columns_rows


def words(strs):
    return {tuple(s) for s in strs}


def test_exact_enumeration_examples():
    ctx = context_from_strings(["aa", "ab", "ba", "bb"], alphabet="ab")
    pool = enumerate_exact_medians(ctx, DEFAULT_LIMITS)
    assert words(["aa", "ab", "ba", "bb"]) == set(pool)

    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    assert len(enumerate_exact_medians(ctx, DEFAULT_LIMITS)) == 4

    ctx = context_from_strings(["abc", "abc", "abd"], alphabet="abcd")
    assert set(enumerate_exact_medians(ctx, DEFAULT_LIMITS)) == {ctx.w}


def test_exact_pool_members_are_medians(rng):
    for _ in range(25):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        for s in enumerate_exact_medians(ctx, DEFAULT_LIMITS):
            assert median_cost(ctx, s) == ctx.opt


def test_approx_matches_exact_at_zero_budget(rng):
    for _ in range(25):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        b = Budget.make(0, ctx.opt)
        assert set(enumerate_approx_medians(ctx, b, DEFAULT_LIMITS)) == set(
            enumerate_exact_medians(ctx, DEFAULT_LIMITS)
        )


def test_approx_pool_against_full_space_filter(rng):
    # double enumeration: DFS pool == brute filter of the whole product space
    for _ in range(30):
        sigma = "ab" if rng.integers(0, 2) else "abc"
        rows = random_rows(rng, d=int(rng.integers(1, 5)), sigma=sigma)
        ctx = context_from_strings(rows, alphabet=sigma)
        eps = Fraction(int(rng.integers(0, 4)), 2)
        b = Budget.make(eps, ctx.opt)
        pool = set(enumerate_approx_medians(ctx, b, DEFAULT_LIMITS))
        cap = (1 + eps) * ctx.opt
        ref = {
            s
            for s in product(sigma, repeat=ctx.d)
            if Fraction(median_cost(ctx, s)) <= cap
        }
        assert pool == ref


def test_approx_pool_closed_under_direct_cost_refilter(rng):
    for _ in range(15):
        rows = random_rows(rng, sigma="ab")
        ctx = context_from_strings(rows, alphabet="ab")
        b = Budget.make(Fraction(1, 2), ctx.opt)
        pool = enumerate_approx_medians(ctx, b, DEFAULT_LIMITS)
        strings = ctx.dataset.strings
        for s in pool:
            # the median objective by its definition, independent of median_cost
            assert b.within(sum(hamming(x, s) for x in strings) - ctx.opt)


# The tuple-emitting enumerators the code-matrix pools replaced, kept as
# their references: a product over the majority sets, and a depth-first walk
# over every index with an explicit stack.


def product_exact_medians(ctx, limits):
    majority_sets = reference_context(ctx.dataset.strings, ctx.alphabet)["majority_sets"]
    size = 1
    for gamma in majority_sets:
        size *= len(gamma)
        if size > limits.max_candidates:
            raise CapExceeded("pool over max_candidates", "max_candidates")
    return [tuple(p) for p in product(*majority_sets)]


def stack_approx_medians(ctx, budget, limits):
    ref = reference_context(ctx.dataset.strings, ctx.alphabet)
    cap = budget.floor
    choices = []
    for i in range(ctx.d):
        opts = [(0, ref["w"][i])] + [(c, a) for a, c in ref["per_char_cost"][i].items()]
        opts.sort(key=lambda ca: (ca[0], ctx.alphabet.index(ca[1])))
        choices.append(opts)
    pool, prefix = [], []
    spent, todo = [0], [iter(choices[0])]
    last = ctx.d - 1
    while todo:
        i = len(prefix)
        for cost, a in todo[i]:
            used = spent[i] + cost
            if used > cap:
                break
            if i < last:
                prefix.append(a)
                spent.append(used)
                todo.append(iter(choices[i + 1]))
                break
            pool.append((*prefix, a))
            if len(pool) > limits.max_candidates:
                raise CapExceeded("pool over max_candidates", "max_candidates")
        if len(prefix) == i:
            todo.pop()
            spent.pop()
            if prefix:
                prefix.pop()
    return pool


def decoded_or_cap(build, *args):
    try:
        pool = build(*args)
    except CapExceeded:
        return "CapExceeded"
    return list(pool.strings) if isinstance(pool, Dataset) else pool


@settings(max_examples=300, deadline=None)
@given(
    pool_contexts(),
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
    st.integers(1, 3000),
)
def test_pools_match_the_tuple_references(ctx, eps, max_candidates):
    limits = EnumerationLimits(max_candidates=max_candidates)
    b = Budget.make(eps, ctx.opt)
    for pool, reference, args in (
        (lambda ctx, limits: approx_median_pool(ctx, Budget.make(0, ctx.opt), limits),
         product_exact_medians, (ctx, limits)),
        (approx_median_pool, stack_approx_medians, (ctx, b, limits)),
    ):
        want = decoded_or_cap(reference, *args)
        assert decoded_or_cap(pool, *args) == want  # contents and order, or the cap
        if want != "CapExceeded":
            built = pool(*args)
            assert built.alphabet == ctx.alphabet
            assert built.codes.dtype == np.min_scalar_type(len(ctx.alphabet))
    assert decoded_or_cap(enumerate_exact_medians, ctx, limits) == decoded_or_cap(
        product_exact_medians, ctx, limits)
    assert decoded_or_cap(enumerate_approx_medians, ctx, b, limits) == decoded_or_cap(
        stack_approx_medians, ctx, b, limits)


def pool_cases():
    """(name, build, cells, seconds): the pools of the memory test."""
    ties = context_from_strings(tie_columns_rows())
    zero = Budget.make(0, ties.opt)
    # a...a, a...a, b...b at d = 120: each b costs 1, B = 2 admits every
    # string with at most two b's, 1 + 120 + 7140 = 7261 rows
    d = 120
    few = context_from_strings(["a" * d, "a" * d, "b" * d])
    two = Budget.make(Fraction(2, few.opt), few.opt)
    assert two.floor == 2
    return [
        ("exact, 16 tie columns", lambda: approx_median_pool(ties, zero), 2**16 * 1000, 1.0),
        ("approx at eps=0, 16 tie columns", lambda: approx_median_pool(ties, zero),
         2**16 * 1000, 2.0),
        ("approx at B=2, d=120", lambda: approx_median_pool(few, two), 7261 * d, None),
    ]


@pytest.mark.parametrize("case", range(3), ids=["exact", "approx-eps0", "approx-B2"])
def test_pools_stay_within_two_bytes_per_cell(case):
    # a pool is its code matrix, one byte per cell here, plus O(p) integers:
    # no list of tuples of str (8.05 bytes per cell for the exact pool)
    name, build, cells, seconds = pool_cases()[case]
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        pool = build()
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pool.n * pool.d == cells
    assert peak < 2 * cells, f"{name}: {peak / cells:.2f} bytes per cell"
    if seconds is not None:
        assert elapsed < seconds, f"{name}: {elapsed:.2f} s"


def recursive_approx_medians(ctx, budget, limits):
    """The recursive enumerator the stack version replaced, as its reference:
    one call per index, so it fails past the recursion limit."""
    ref = reference_context(ctx.dataset.strings, ctx.alphabet)
    cap = budget.floor
    choices = []
    for i in range(ctx.d):
        opts = [(0, ref["w"][i])] + [(c, a) for a, c in ref["per_char_cost"][i].items()]
        opts.sort(key=lambda ca: (ca[0], ctx.alphabet.index(ca[1])))
        choices.append(opts)
    pool, prefix = [], []

    def dfs(i, used):
        if i == ctx.d:
            pool.append(tuple(prefix))
            if len(pool) > limits.max_candidates:
                raise CapExceeded("pool over max_candidates", "max_candidates")
            return
        for cost, a in choices[i]:
            if used + cost > cap:
                break
            prefix.append(a)
            dfs(i + 1, used + cost)
            prefix.pop()

    dfs(0, 0)
    return pool


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["ab", "abcd", "abcdefghijklmnopqrst"]).flatmap(
        lambda sigma: st.tuples(
            st.just(sigma),
            st.integers(1, 6).flatmap(
                lambda d: st.lists(st.text(sigma, min_size=d, max_size=d),
                                   min_size=2, max_size=6)
            ),
        )
    ),
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
)
def test_approx_enumeration_matches_recursive_reference(case, eps):
    sigma, rows = case
    ctx = context_from_strings(rows, alphabet=sigma)
    b = Budget.make(eps, ctx.opt)
    limits = EnumerationLimits(max_candidates=2000)
    try:
        want = recursive_approx_medians(ctx, b, limits)
    except CapExceeded:
        with pytest.raises(CapExceeded):
            enumerate_approx_medians(ctx, b, limits)
        return
    assert enumerate_approx_medians(ctx, b, limits) == want  # contents and order


def test_approx_enumeration_past_the_recursion_limit():
    d = 3000
    ctx = context_from_strings(["A" * d, "A" * d, "C" * d], alphabet="AC")
    assert enumerate_approx_medians(ctx, Budget.make(0, ctx.opt)) == [("A",) * d]


def test_enumeration_caps():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    tiny = EnumerationLimits(max_candidates=3, max_tuples=10, max_states=10)
    with pytest.raises(CapExceeded):
        enumerate_exact_medians(ctx, tiny)
    with pytest.raises(CapExceeded):
        enumerate_approx_medians(ctx, Budget.make(0, ctx.opt), tiny)


def test_brute_trio_examples():
    pool = Dataset.from_strings(["aa", "ab", "bb"])
    assert brute_diameter(pool) == 2
    assert brute_sumdp_k(pool, 2) == 2
    assert brute_mindp_k(pool, 2) == 2

    ctx = context_from_strings(["aa", "ab", "ba", "bb"], alphabet="ab")
    four = approx_median_pool(ctx, Budget.make(0, ctx.opt), DEFAULT_LIMITS)
    assert brute_diameter(four) == 2

    single = Dataset.from_strings(["ab"])
    assert brute_diameter(single) == 0
    assert brute_sumdp_k(single, 2) == 0
    assert brute_mindp_k(single, 2) == 0


def test_brute_sumdp_allows_repetition():
    # k=3 from a 2-string pool: best multiset repeats one string -> 2 pairs apart
    pool = Dataset.from_strings(["aa", "bb"])
    assert brute_sumdp_k(pool, 3) == 4
    # minDp over subsets is degenerate at 0 for pool < k
    assert brute_mindp_k(pool, 3) == 0


def test_brute_generic_k_matches_pairwise_reasoning(rng):
    for _ in range(10):
        rows = random_rows(rng, n=4, d=4, sigma="ab")
        pool = Dataset.from_strings(sorted(set(rows)))
        dmat = pairwise_hamming_matrix(pool)
        k = min(3, pool.n)
        got = brute_mindp_k(pool, k, DEFAULT_LIMITS)
        if k < 2 or pool.n < k:
            continue
        from itertools import combinations

        want = max(
            min(dmat[i, j] for i, j in combinations(sub, 2))
            for sub in combinations(range(pool.n), k)
        )
        assert got == want


@pytest.mark.parametrize("k", [4, 5])
def test_brute_mindp_general_k_matches_an_inline_search(k, rng):
    # the k-subset branch for k >= 4, against max-min over hamming directly;
    # a pool of k - 1 strings has no k-subset, value 0
    from itertools import combinations

    for p in (k - 1, k, k + 1, k + 3):
        for _ in range(4):
            words = random_rows(rng, n=p, d=5, sigma="abc")
            pool = Dataset.from_strings(words, alphabet="abc")
            want = max((min(hamming(a, b) for a, b in combinations(sub, 2))
                        for sub in combinations(words, k)), default=0)
            assert brute_mindp_k(pool, k) == want


def test_brute_tuple_caps():
    pool = Dataset.from_strings([f"{i:04b}" for i in range(16)])
    with pytest.raises(CapExceeded):
        brute_diameter(pool, EnumerationLimits(10**5, 5, 10**5))
    with pytest.raises(CapExceeded):
        brute_sumdp_k(pool, 3, EnumerationLimits(10**5, 5, 10**5))
    with pytest.raises(CapExceeded):
        brute_mindp_k(pool, 3, EnumerationLimits(10**5, 5, 10**5))


def test_max_code_size_examples():
    assert brute_max_code_size((2, 2, 2, 2), 3, DEFAULT_LIMITS) == 2
    assert brute_max_code_size((2, 2, 2, 2), 0, DEFAULT_LIMITS) == 16
    assert brute_max_code_size((2, 2, 2, 2), 5, DEFAULT_LIMITS) == 1
    assert brute_max_code_size((3, 3), 1, DEFAULT_LIMITS) == 9
    # size-1 coordinates contribute nothing to distance
    assert brute_max_code_size((1, 2, 2, 2, 2, 1), 3, DEFAULT_LIMITS) == 2


def test_max_code_size_known_values():
    # binary length 6, distance 3: 8 codewords (shortened Hamming)
    assert brute_max_code_size((2,) * 6, 3, DEFAULT_LIMITS) == 8
    # ternary length 4, distance 3: 9 codewords
    assert brute_max_code_size((3,) * 4, 3, DEFAULT_LIMITS) == 9


def test_max_code_size_cap():
    with pytest.raises(CapExceeded):
        brute_max_code_size((3,) * 10, 3, EnumerationLimits(100, 100, 100))


def test_max_code_size_newly_reachable_values():
    # MDS code of length 4 over 5 symbols: 5^(4-3+1)
    assert brute_max_code_size((5,) * 4, 3, DEFAULT_LIMITS) == 25
    assert brute_max_code_size((3,) * 7, 5, DEFAULT_LIMITS) == 10
    assert brute_max_code_size((2,) * 10, 5, DEFAULT_LIMITS) == 12


def _size_tuples(limit):
    """Every non-decreasing tuple of alphabet sizes >= 2 with product <= limit."""
    out = []

    def rec(prefix, prod):
        for g in range(prefix[-1] if prefix else 2, limit // prod + 1):
            out.append(prefix + (g,))
            rec(prefix + (g,), prod * g)

    rec((), 1)
    return out


def _reference_max_code_size(sizes, t):
    """The search before symmetry breaking below the root, kept as the
    reference: root orbits (support weight per alphabet-size class) in
    descending degree order, and greedy-coloring branch and bound on bitsets
    below each root representative. The adjacency comes from the full
    distance matrix, which is small at the sizes the tests use."""
    sizes = [g for g in sizes if g > 1]
    d = len(sizes)
    if t <= 1:
        return int(np.prod(sizes))
    if t > d:
        return 1
    points = np.array(list(product(*(range(g) for g in sizes))), dtype=np.int16)
    cand = points[(points != 0).sum(axis=1) >= t]
    n = len(cand)
    if n == 0:
        return 1
    far = (cand[:, None, :] != cand[None, :, :]).sum(axis=2) >= t
    adj = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
           for row in far]
    support = cand != 0
    weights = np.stack([support[:, [i for i, g in enumerate(sizes) if g == c]].sum(axis=1)
                        for c in sorted(set(sizes))], axis=1)
    orbits = {}
    for v, key in enumerate(map(tuple, weights.tolist())):
        orbits.setdefault(key, []).append(v)
    root_orbits = sorted(orbits.values(), key=lambda o: -adj[o[0]].bit_count())

    best = 0
    for start in sorted(range(n), key=lambda v: -adj[v].bit_count())[:8]:
        size, rest = 1, adj[start]
        while rest:
            size += 1
            rest &= adj[(rest & -rest).bit_length() - 1]
        best = max(best, size)

    def expand(mask, size):
        nonlocal best
        order, bound, color, rest = [], [], 0, mask
        while rest:
            color += 1
            q = rest
            while q:
                v = (q & -q).bit_length() - 1
                q &= ~adj[v] & ~(1 << v)
                rest &= ~(1 << v)
                order.append(v)
                bound.append(color)
        for idx in range(len(order) - 1, -1, -1):
            if size + bound[idx] <= best:
                return
            v = order[idx]
            if mask & adj[v]:
                expand(mask & adj[v], size + 1)
            best = max(best, size + 1)
            mask &= ~(1 << v)

    remaining = (1 << n) - 1
    for orbit in root_orbits:
        if adj[orbit[0]] & remaining:
            expand(adj[orbit[0]] & remaining, 1)
        best = max(best, 1)
        for v in orbit:
            remaining &= ~(1 << v)
    return 1 + best


def test_max_code_size_matches_the_reference_search():
    cases = _size_tuples(3**5) + [(2, 3, 3, 4, 4)]
    assert len(cases) > 100
    for sizes in cases:
        for t in range(len(sizes) + 2):
            assert brute_max_code_size(sizes, t, DEFAULT_LIMITS) == \
                _reference_max_code_size(sizes, t), (sizes, t)
    # the order of the coordinates does not change the value
    for t in range(1, 7):
        assert brute_max_code_size((4, 1, 2, 3, 4, 3), t, DEFAULT_LIMITS) == \
            _reference_max_code_size((2, 3, 3, 4, 4), t)
