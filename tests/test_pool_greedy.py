"""Streaming pool engines against their matrix-based references.

`greedy_dispersion` and `sum_dispersion_small_dstar` stream their distances
(core.farthest_pair / core.distances_to) over a pool's code matrix. The
references below are the engines as they were when they built the full
p x p matrix with `pairwise_hamming_matrix` over a list of strings; the
streaming engines must pick the same members in the same order, ties
included, and stay memory-bounded.
"""

import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_medians import (
    Budget,
    CapExceeded,
    Dataset,
    approx_median_pool,
    context_from_strings,
    greedy_dispersion,
    sum_dispersion_small_dstar,
)
from diverse_medians.core import distances_to, farthest_pair
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
    number of varying columns, so farthest_pair has to scan every block."""
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
        r, c = divmod(int(np.argmax(sub)), len(rows))
        want = (int(rows[r]), int(rows[c]))
        assert farthest_pair(codes, rows) == want
        # one-row blocks: the first maximum has to survive block boundaries
        monkeypatch.setattr(core, "BLOCK_BYTES", 1)
        assert farthest_pair(codes, rows) == want
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
    assert peak < 32 * 2**20, f"{engine} peaked at {peak / 2**20:.1f} MB"
    assert elapsed < 10.0, f"{engine} took {elapsed:.2f}s"
