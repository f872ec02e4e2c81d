"""Streaming pool engines against their matrix-based references.

`greedy_dispersion` and `sum_dispersion_small_dstar` stream their distances
(core.FarthestPairs / core.distances_to) over a pool's code matrix. The
references below are the engines as they were when they built the full
p x p matrix with `pairwise_hamming_matrix` over a list of strings; the
streaming engines must pick the same members in the same order, ties
included, and stay memory-bounded.
"""

import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_medians import (
    Budget,
    CapExceeded,
    Dataset,
    ValidationError,
    approx_median_pool,
    build_context,
    context_from_strings,
    greedy_dispersion,
    sum_dispersion_small_dstar,
)
from diverse_medians.core import BLOCK_BYTES, FarthestPairs, distances_to
from diverse_medians.oracle import pairwise_hamming_matrix

from conftest import pool_contexts


def greedy_reference(pool, k):
    """Max-min greedy on the full distance matrix: member indices."""
    if len(pool) == 1 or k == 1:
        return [0] * k
    dmat = pairwise_hamming_matrix(Dataset.from_strings(pool))
    i, j = divmod(int(np.argmax(dmat)), len(pool))  # row-major first maximum
    chosen = [min(i, j), max(i, j)]
    while len(chosen) < k:
        chosen.append(int(np.argmax(dmat[:, chosen].min(axis=1))))
    return chosen


def sum_reference(pool, k):
    """Farthest-pair matching, then max-sum insertion on the full matrix."""
    if len(pool) == 1 or k == 1:
        return [0] * k
    dmat = pairwise_hamming_matrix(Dataset.from_strings(pool)).astype(np.int64)
    p = len(pool)
    avail = np.ones(p, dtype=bool)
    chosen = []
    while k - len(chosen) >= 2 and avail.sum() >= 2:
        sub = np.where(avail[:, None] & avail[None, :], dmat, -1)
        i, j = divmod(int(np.argmax(sub)), p)
        if i == j:
            break
        chosen.extend(sorted((i, j)))
        avail[i] = avail[j] = False
    while len(chosen) < k:
        chosen.append(int(np.argmax(dmat[:, chosen].sum(axis=1))))
    return chosen


def random_pool(rng, sigma, d, p, distinct):
    draws = rng.integers(0, len(sigma), size=(p, d))
    if distinct:
        draws = np.unique(draws, axis=0)
    return ["".join(sigma[c] for c in row) for row in draws]


def sparse_pool(rng, d, p):
    """Strings off "a"*d in at most two columns. Distances stay below the
    number of varying columns, so FarthestPairs has to scan every block."""
    pool = []
    for _ in range(p):
        word = ["a"] * d
        for i in rng.choice(d, size=2, replace=False):
            word[i] = "acgt"[rng.integers(0, 4)]
        pool.append("".join(word))
    return pool


def pools(rng):
    """(pool, alphabet): edge cases, then seeded tie-dense pools."""
    yield ["ab"], "ab"  # one string
    yield ["abba"] * 5, "ab"  # all identical
    yield ["aab", "aab", "bba", "bba", "aab"], "ab"  # duplicates only
    yield ["ab", "ab", "ab", "ba"], "ab"  # one distinct pair, rest copies
    dup = random_pool(rng, "acgt", 3, 12, distinct=False)
    yield dup + dup[:6], "acgt"  # duplicated tail
    for sigma in ("ab", "acgt"):
        for d in range(1, 7):
            for _ in range(4):
                p = int(rng.integers(1, 40))
                yield random_pool(rng, sigma, d, p, distinct=bool(rng.integers(0, 2))), sigma
    for d in (4, 5, 6):
        yield sparse_pool(rng, d, 30), "acgt"
    # constant columns 0, 2 and 5 around three random ones
    yield ["c" + s[0] + "g" + s[1:] + "a" for s in random_pool(rng, "acgt", 3, 25, False)], "acgt"


def check_pool(pool, alphabet):
    ctx = context_from_strings(pool, alphabet=alphabet)
    codes = Dataset.from_strings(pool, alphabet=alphabet)
    p = len(pool)
    for k in sorted({1, 2, 3, p, p + 3}):
        want = [pool[i] for i in greedy_reference(pool, k)]
        got = greedy_dispersion(codes, k, ctx).members
        assert list(got) == [tuple(s) for s in want], (pool, k, "min")
        want = [pool[i] for i in sum_reference(pool, k)]
        got = sum_dispersion_small_dstar(ctx, k, codes).members
        assert list(got) == [tuple(s) for s in want], (pool, k, "sum")


def test_streaming_engines_match_matrix_references():
    rng = np.random.default_rng(20260401)
    checked = 0
    for pool, alphabet in pools(rng):
        check_pool(pool, alphabet)
        checked += 1
    assert checked == 5 + 2 * 6 * 4 + 3 + 1


@settings(max_examples=150, deadline=None)
@given(
    pool_contexts(),
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.integers(1, 6),
)
def test_engines_pick_from_enumerated_pools_as_the_references_do(ctx, eps, k):
    # the pool as a code matrix straight from enumeration, against the
    # references on the same pool decoded to strings
    try:
        pool = approx_median_pool(ctx, Budget.make(eps, ctx.opt))
    except CapExceeded:
        return
    if pool.n > 400:
        return  # keep the p x p references cheap
    words = list(pool.strings)
    want = [words[i] for i in greedy_reference(words, k)]
    assert list(greedy_dispersion(pool, k, ctx).members) == want
    want = [words[i] for i in sum_reference(words, k)]
    assert list(sum_dispersion_small_dstar(ctx, k, pool).members) == want


def test_farthest_pair_blocks_keep_the_first_maximum(monkeypatch):
    import diverse_medians.core as core

    rng = np.random.default_rng(7)
    for trial in range(40):
        if trial % 4 < 2:
            pool = random_pool(rng, "acgt", 5, 30, distinct=False)
        else:
            pool = sparse_pool(rng, 6, 30)
        codes = Dataset.from_strings(pool).codes
        dmat = pairwise_hamming_matrix(Dataset.from_strings(pool))
        rows = np.arange(30) if trial % 2 else np.flatnonzero(rng.integers(0, 2, size=30))
        sub = dmat[np.ix_(rows, rows)]
        want = divmod(int(np.argmax(sub)), len(rows))
        assert FarthestPairs(codes[rows]).pair() == want
        # one-row blocks: the first maximum has to survive block boundaries
        monkeypatch.setattr(core, "BLOCK_BYTES", 1)
        assert FarthestPairs(codes[rows]).pair() == want
        monkeypatch.undo()
        for i in rows[:3]:
            assert distances_to(codes, i).tolist() == dmat[i].tolist()


@pytest.mark.parametrize("engine", ["greedy_dispersion", "sum_dispersion_small_dstar"])
def test_pool_engines_stay_memory_bounded(engine):
    # 6000 distinct strings would need a 144 MB int32 distance matrix (and
    # 288 MB more for an int64 copy); the streaming engines need a few MB.
    rng = np.random.default_rng(11)
    ints = np.sort(rng.choice(4**16, size=6000, replace=False))
    digits = (ints[:, None] // 4 ** np.arange(15, -1, -1)) % 4
    pool = sorted("".join("ACGT"[c] for c in row) for row in digits)
    ctx = context_from_strings(pool[:50] + pool[-50:], alphabet="ACGT")
    pool = Dataset.from_strings(pool, alphabet="ACGT")
    k = 8
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        if engine == "greedy_dispersion":
            cands = greedy_dispersion(pool, k, ctx)
        else:
            cands = sum_dispersion_small_dstar(ctx, k, pool)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cands.k == k
    # X (1.5 MiB here) fits one chunk: X plus one block of products, both
    # within BLOCK_BYTES, and a copy of the codes at most
    bound = 2 * BLOCK_BYTES + pool.n * pool.d
    assert peak < bound, f"{engine} peaked at {peak / 2**20:.2f} MiB"
    assert elapsed < 10.0, f"{engine} took {elapsed:.2f}s"


# --- the inner-product kernel against the column-sum scans it replaced -------


def column_sum_farthest_pair(codes, rows, block_bytes):
    """FarthestPairs.pair as a per-column mismatch sum over row blocks: the
    row-major first maximum over rows x rows, diagonal included."""
    varying = np.flatnonzero(codes.min(axis=0) != codes.max(axis=0))
    cols = codes[np.ix_(rows, varying)].T
    cols = np.ascontiguousarray(cols[(cols != cols[:, :1]).any(axis=1)])  # (v, m)
    m = cols.shape[1]
    bound = cols.shape[0]
    dtype = np.min_scalar_type(bound)
    step = max(1, block_bytes // (m * dtype.itemsize))
    best, first = -1, (0, 0)
    for lo in range(0, m, step):
        block = np.zeros((min(step, m - lo), m - lo), dtype=dtype)
        for col in cols:
            block += col[lo : lo + step, None] != col[lo:]
        flat = int(block.argmax())
        if block.flat[flat] > best:
            best = int(block.flat[flat])
            r, c = divmod(flat, m - lo)
            first = (lo + r, lo + c)
            if best == bound:
                break
    return int(rows[first[0]]), int(rows[first[1]])


def per_round_small_dstar(codes, k, block_bytes):
    """sum_dispersion_small_dstar with one full column-sum scan per matching
    round: the chosen pool indices."""
    p = len(codes)
    if p == 1 or k == 1:
        return [0] * k
    avail = np.ones(p, dtype=bool)
    chosen = []
    while k - len(chosen) >= 2 and avail.sum() >= 2:
        i, j = column_sum_farthest_pair(codes, np.flatnonzero(avail), block_bytes)
        if i == j:
            break
        chosen.extend(sorted((i, j)))
        avail[i] = avail[j] = False
    gains = np.zeros(p, dtype=np.int64)
    for c in chosen:
        gains += distances_to(codes, c)
    while len(chosen) < k:
        chosen.append(int(np.argmax(gains)))
        gains += distances_to(codes, chosen[-1])
    return chosen


@st.composite
def kernel_pools(draw):
    """(codes, alphabet size, rows): up to 40 strings of length <= 7 over 2 to
    5 symbols, with copies, constant columns, hubs (one string that is every
    other string's farthest partner) and a nonempty ascending row subset."""
    sigma = draw(st.integers(2, 5))
    d = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["random", "copies", "hub"]))
    word = st.lists(st.integers(0, sigma - 1), min_size=d, max_size=d)
    words = draw(st.lists(word, min_size=1, max_size=40))
    if shape == "copies":
        words = [words[i % 3] for i in range(len(words))] if len(words) > 3 else words * 4
    elif shape == "hub":
        # strings near all-0 and one or two near all-1: the hubs are everyone's partner
        near = draw(st.lists(st.integers(0, d - 1), min_size=len(words), max_size=len(words)))
        words = [[int(c == i) for c in range(d)] for i in near]
        hubs = draw(st.lists(st.integers(0, len(words)), min_size=1, max_size=2))
        for h in hubs:
            words.insert(h, [1] * d)
    codes = np.array(words, dtype=np.uint8)
    for c in draw(st.lists(st.integers(0, d), max_size=2)):  # constant columns
        codes = np.insert(codes, c, draw(st.integers(0, sigma - 1)), axis=1)
    keep = draw(st.lists(st.booleans(), min_size=len(codes), max_size=len(codes)))
    rows = np.flatnonzero(keep)
    if not len(rows):
        rows = np.arange(len(codes))
    return codes, max(sigma, 2), rows


@settings(max_examples=100, deadline=None)
@given(kernel_pools(), st.sampled_from([1, 2**22]))
def test_inner_product_kernel_matches_the_column_sums(case, block_bytes):
    import diverse_medians.core as core

    codes, sigma, rows = case
    want = column_sum_farthest_pair(codes, rows, 2**22)
    with mock.patch.object(core, "BLOCK_BYTES", block_bytes):
        sub = codes[rows]
        pairs = FarthestPairs(sub)
        i, j = pairs.pair()
        assert (int(rows[i]), int(rows[j])) == want
        # each computed row: its maximum and first argmax over the upper triangle
        dist = (sub[:, None, :] != sub[None, :, :]).sum(axis=2)
        done = np.flatnonzero(pairs.far >= 0)
        assert done.tolist() == list(range(len(done)))  # a prefix, in pool order
        for q in done:
            assert pairs.far[q] == dist[q, q:].max()
            assert pairs.partner[q] == q + int(dist[q, q:].argmax())
        if len(done) < len(rows):  # the scan stopped at the largest possible distance
            assert pairs.far.max() == (sub.min(axis=0) != sub.max(axis=0)).sum()
        pool = Dataset(codes=codes, alphabet=tuple("abcdefgh"[:sigma]))
        ctx = build_context(Dataset(codes=codes[rows], alphabet=pool.alphabet))
        for k in (2, 3, 5, len(codes) + 2):
            got = sum_dispersion_small_dstar(ctx, k, pool).codes
            assert got.tolist() == codes[per_round_small_dstar(codes, k, 2**22)].tolist()


def test_kept_partners_recompute_only_the_rows_that_lost_theirs():
    # every string is at most 1 from "aaaa" but the last, "bbbb", which is the
    # farthest partner of each; taking the first pair leaves every other row
    # without its partner
    pool = ["aaaa", "baaa", "abaa", "aaba", "aaab", "caaa", "acaa", "bbbb"]
    codes = Dataset.from_strings(pool, alphabet="abc").codes
    pairs = FarthestPairs(codes)
    stale = []
    while pairs.avail.sum() >= 2:
        live = np.flatnonzero(pairs.avail)
        want = column_sum_farthest_pair(codes, live, 2**22)
        got = pairs.pair()
        assert got == want
        if got[0] == got[1]:
            break
        pairs.take(*got)
        stale.append(int((pairs.far[pairs.avail] < 0).sum()))
    assert stale[0] == len(pool) - 2  # the first pair took the hub of every row


@pytest.mark.parametrize("engine", ["greedy_dispersion", "sum_dispersion_small_dstar"])
def test_pool_engines_stay_memory_bounded_over_a_wide_alphabet(engine):
    # |Σ| = 20 over 200 columns: the one-hot matrix of all (column, symbol)
    # pairs would be 4000 x 4000 float32, 64 MB; it is built in chunks of at
    # most 4 MiB
    rng = np.random.default_rng(12)
    alphabet = tuple("abcdefghijklmnopqrst")
    codes = rng.integers(0, 20, size=(4000, 200)).astype(np.uint8)
    pool = Dataset(codes=codes, alphabet=alphabet)
    ctx = build_context(Dataset(codes=codes[:50], alphabet=alphabet))
    present = sum(len(np.unique(col)) for col in codes.T)
    assert 4000 * present * 4 > 32 * 2**20
    tracemalloc.start()
    try:
        if engine == "greedy_dispersion":
            cands = greedy_dispersion(pool, 8, ctx)
        else:
            cands = sum_dispersion_small_dstar(ctx, 8, pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cands.k == 8
    # a block of products, one chunk of X, that chunk's products and their
    # operands, each within BLOCK_BYTES, and two copies of the codes at most
    bound = 4 * BLOCK_BYTES + 2 * pool.n * pool.d
    assert peak < bound, f"{engine} peaked at {peak / 2**20:.2f} MiB"


# --- the shared fill: early stop and input checks ----------------------------


def counted_distance_passes(monkeypatch):
    """Wrap distances_to at every module attribute bound to it; returns the
    list that records one entry per pass."""
    import diverse_medians.core as core
    import diverse_medians.mindisp as mindisp
    import diverse_medians.sumdisp as sumdisp

    real, calls = core.distances_to, []

    def counting(codes, r):
        calls.append(r)
        return real(codes, r)

    for mod in (core, mindisp, sumdisp):
        if getattr(mod, "distances_to", None) is real:
            monkeypatch.setattr(mod, "distances_to", counting)
    return calls


def test_min_greedy_stops_its_distance_passes_once_every_string_is_chosen(monkeypatch):
    # a pool of 2 at k = 20,000: after the farthest pair every string sits at
    # distance 0 from a chosen one, and the other 19,998 picks are row 0
    words = ["ab", "ba"]
    ctx = context_from_strings(words, alphabet="ab")
    pool = Dataset.from_strings(words, alphabet="ab")
    calls = counted_distance_passes(monkeypatch)
    assert greedy_dispersion(pool, 20_000, ctx).k == 20_000
    assert len(calls) == 2
    # the reference gathers every chosen column per pick: 20 s at k = 20,000
    got = greedy_dispersion(pool, 2_000, ctx).members
    assert len(calls) == 4
    assert list(got) == [tuple(words[i]) for i in greedy_reference(words, 2_000)]


def test_sum_greedy_stops_its_distance_passes_on_a_pool_of_copies(monkeypatch):
    # every summed distance is 0 from the first pick on
    words = ["abba"] * 6
    ctx = context_from_strings(words + ["baab"], alphabet="ab")
    pool = Dataset.from_strings(words, alphabet="ab")
    k = 1_000
    calls = counted_distance_passes(monkeypatch)
    got = sum_dispersion_small_dstar(ctx, k, pool).members
    assert len(calls) == 1
    assert list(got) == [tuple(words[i]) for i in sum_reference(words, k)]


def tie_pool(ties):
    """Two rows of 100 columns that differ on `ties` of them: the context and
    its pool of 2^ties exact medians."""
    ctx = context_from_strings(["a" * 100, "a" * (100 - ties) + "b" * ties])
    return ctx, approx_median_pool(ctx, Budget.make(0, ctx.opt))


def test_sum_greedy_makes_one_distance_pass_per_pool_string_past_the_pool(monkeypatch):
    # a pool of 1,024 at k = 20,000: the matching rounds take every string
    # and the fill picks strings again, each of whose distance vector is kept
    ctx, pool = tie_pool(10)
    calls = counted_distance_passes(monkeypatch)
    assert sum_dispersion_small_dstar(ctx, 20_000, pool).k == 20_000
    assert len(calls) <= pool.n == 1_024


@pytest.mark.parametrize("block_bytes", [1, BLOCK_BYTES])
def test_sum_greedy_past_the_pool_matches_the_reference(block_bytes, monkeypatch):
    # a memo of one vector (every repeat computed again) and of all of them
    import diverse_medians.core as core

    monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    ctx, pool = tie_pool(6)
    words = pool.strings
    got = sum_dispersion_small_dstar(ctx, 200, pool).members
    assert list(got) == [words[i] for i in sum_reference(words, 200)]


@pytest.mark.parametrize("engine", ["greedy_dispersion", "sum_dispersion_small_dstar"])
def test_pool_engines_refuse_an_empty_pool_and_k_below_1(engine):
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    pool = Dataset.from_strings(["ab", "ba"], alphabet="ab")
    empty = Dataset(codes=pool.codes[:0], alphabet=pool.alphabet)

    def run(pool, k):
        if engine == "greedy_dispersion":
            return greedy_dispersion(pool, k, ctx)
        return sum_dispersion_small_dstar(ctx, k, pool)

    with pytest.raises(ValidationError, match="candidate pool is empty"):
        run(empty, 2)
    with pytest.raises(ValidationError, match=r"k must be >= 1"):
        run(pool, 0)
