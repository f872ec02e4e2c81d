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
    CandidateSet,
    Dataset,
    ValidationError,
    build_context,
    context_from_strings,
    hamming,
    is_approx_median,
    is_exact_median,
    median_cost,
    min_dispersion,
    sum_dispersion,
)

from conftest import random_rows, reference_context


def brute_min_cost(rows, sigma):
    d = len(rows[0])
    return min(
        sum(sum(x != y for x, y in zip(s, row)) for row in rows)
        for s in product(sigma, repeat=d)
    )


def test_w_is_a_true_median_small_spaces(rng):
    for _ in range(60):
        sigma = "ab" if rng.integers(0, 2) else "abc"
        rows = random_rows(rng, d=int(rng.integers(1, 5)), sigma=sigma)
        ctx = context_from_strings(rows, alphabet=sigma)
        assert ctx.opt == brute_min_cost(rows, sigma)
        assert median_cost(ctx, ctx.w) == ctx.opt


def test_majority_tie_breaks_by_alphabet_order():
    ctx = context_from_strings(["ab", "ba"], alphabet="ab")
    assert ctx.w == ("a", "a")  # both columns tie a/b
    assert ctx.weight == (0, 0)
    assert ctx.w_hat == ("b", "b")


def test_w_hat_is_strict_second_choice():
    ctx = context_from_strings(["aa", "aa", "ab", "ba", "bc"], alphabet="abc")
    # column 0: a:3 b:2 -> hat b; column 1: a:3 b:1 c:1 -> hat b (alphabet tie-break)
    assert ctx.w == ("a", "a")
    assert ctx.w_hat == ("b", "b")
    assert ctx.weight == (1, 2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_offset_identity(data):
    # cost(s) == opt + sum of per-index deviation weights, for any s
    sigma = data.draw(st.sampled_from(["ab", "abc"]))
    d = data.draw(st.integers(1, 5))
    n = data.draw(st.integers(1, 7))
    rows = data.draw(
        st.lists(st.text(sigma, min_size=d, max_size=d), min_size=n, max_size=n)
    )
    s = data.draw(st.text(sigma, min_size=d, max_size=d))
    ctx = context_from_strings(rows, alphabet=sigma)
    direct = sum(hamming(s, row) for row in rows)
    offset = ctx.opt + sum(
        int(ctx.cost[i, sigma.index(a)]) for i, a in enumerate(s) if a != ctx.w[i]
    )
    assert direct == offset == median_cost(ctx, s)


def test_budget_threshold_is_exact_rational():
    b = Budget.make(Fraction(1, 3), 5)  # cap = 5/3
    assert b.within(1)
    assert not b.within(2)  # 2 > 5/3, and float(5/3) must not blur this
    assert b.within(3, mult=2)  # 3 <= 10/3
    assert not b.within(4, mult=2)
    assert b.floor == 1


def test_budget_epsilon_forms():
    assert Budget.make("1/2", 10).floor == 5
    assert Budget.make("0.25", 8).floor == 2
    assert Budget.make(0, 7).floor == 0
    with pytest.raises(ValidationError):
        Budget.make(Fraction(-1, 2), 4)


def test_budget_mult_scales_threshold_not_weight():
    # within(w, mult=m) decides w <= m * eps * opt via integer cross-multiplication
    b = Budget.make(Fraction(2, 7), 7)  # eps*opt = 2
    assert b.within(2) and not b.within(3)
    assert b.within(4, mult=2) and not b.within(5, mult=2)


def test_distance_helpers():
    assert hamming("abc", "abd") == 1
    assert hamming("aaa", "aaa") == 0
    assert sum_dispersion(["aa", "ab", "bb"]) == 1 + 2 + 1
    assert min_dispersion(["aa", "ab", "bb"]) == 1
    assert min_dispersion(["aa", "aa"]) == 0  # duplicates
    with pytest.raises(ValidationError):
        min_dispersion(["aa"])  # a single member has no pair


def test_candidate_set_column_identity(rng):
    # sum_dispersion via per-column counts must equal the direct pairwise sum
    for _ in range(40):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        members = [
            tuple(random_rows(rng, n=1, d=ctx.d, sigma="abc")[0])
            for _ in range(int(rng.integers(2, 6)))
        ]
        cs = CandidateSet.from_members(ctx, Dataset.from_strings(members, "abc").codes)
        assert cs.sum_dispersion() == sum_dispersion(members)
        assert cs.min_dispersion() == min_dispersion(members)


def test_median_predicates():
    ctx = context_from_strings(["aa", "ab", "ba"], alphabet="ab")
    assert ctx.w == ("a", "a") and ctx.opt == 2
    b = Budget.make(Fraction(1, 2), ctx.opt)
    assert is_exact_median(ctx, "aa")
    assert not is_exact_median(ctx, "ab")  # cost 3
    assert is_approx_median(ctx, b, "ab")  # 3 <= 3
    assert not is_approx_median(ctx, b, "bb")  # cost 4


def test_median_cost_rejects_foreign_symbols():
    ctx = context_from_strings(["ab", "ab"], alphabet="ab")
    with pytest.raises(ValidationError):
        median_cost(ctx, "ax")


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset.from_strings(["ab", "abc"])  # ragged
    with pytest.raises(ValidationError):
        Dataset.from_strings(["ab"], alphabet="aab")  # duplicate symbols
    with pytest.raises(ValidationError):
        Dataset.from_strings(["ab"], alphabet="a")  # b outside alphabet
    ds = Dataset.from_strings(["ba", "ab"])
    assert ds.alphabet == ("b", "a")  # inferred in first-occurrence order
    assert ds.alphabet_inferred


def test_single_symbol_alphabet_has_no_second_choice():
    with pytest.raises(ValidationError):
        build_context(Dataset.from_strings(["aa", "aa"], alphabet="a"))


# --- the code-matrix dataset against the loop-built reference -----------------


def reference_from_strings(strings, alphabet=None):
    """The loop-built ingest: (words, alphabet, inferred), or ValidationError."""
    words = tuple(tuple(s) for s in strings)
    if not words:
        raise ValidationError("empty dataset: at least one string required")
    d = len(words[0])
    if d < 1:
        raise ValidationError("strings must have length >= 1")
    for idx, word in enumerate(words):
        if len(word) != d:
            raise ValidationError(
                f"ragged dataset: string {idx + 1} has length {len(word)}, expected {d}"
            )
    if alphabet is not None:
        alpha = tuple(alphabet)
        if len(set(alpha)) != len(alpha):
            raise ValidationError("alphabet contains duplicate symbols")
        allowed = set(alpha)
        for idx, word in enumerate(words):
            for sym in word:
                if sym not in allowed:
                    raise ValidationError(
                        f"string {idx + 1} uses symbol {sym!r} outside the declared alphabet"
                    )
        return words, alpha, False
    seen = {}
    for word in words:
        for sym in word:
            seen.setdefault(sym, None)
    return words, tuple(seen), True


def outcome(fn):
    try:
        return "ok", fn()
    except ValidationError as exc:
        return "error", str(exc)


def coded_values(rows, alphabet):
    ds = Dataset.from_strings(rows, alphabet)
    assert ds.codes.shape == (ds.n, ds.d)
    assert ds.codes.dtype == (np.uint8 if len(ds.alphabet) <= 255 else np.uint16)
    values = dict(strings=ds.strings, alphabet=ds.alphabet, inferred=ds.alphabet_inferred)
    status, ctx = outcome(lambda: build_context(ds))
    if status == "error":
        return values, ctx
    # the reference's dicts, read off the arrays: nonzero counts and the costs
    # of the symbols other than w_i, in alphabet order; majority sets from rank
    alpha = ds.alphabet
    counts = ctx.counts.tolist()
    cost = ctx.cost.tolist()
    rank = ctx.rank.tolist()
    sizes = ctx.majority_sizes.tolist()
    assert ctx.counts.shape == ctx.cost.shape == ctx.rank.shape == (ds.d, len(alpha))
    return values, dict(
        counts=[[(a, c) for a, c in zip(alpha, row) if c] for row in counts],
        majority_sets=[tuple(alpha[a] for a in row[:g]) for row, g in zip(rank, sizes)],
        w=ctx.w, w_hat=ctx.w_hat, weight=ctx.weight,
        per_char_cost=[[(a, c) for j, (a, c) in enumerate(zip(alpha, row)) if j != ranks[0]]
                       for row, ranks in zip(cost, rank)],
        opt=ctx.opt,
    )


def reference_values(rows, alphabet):
    words, alpha, inferred = reference_from_strings(rows, alphabet)
    values = dict(strings=words, alphabet=alpha, inferred=inferred)
    status, ref = outcome(lambda: reference_context(words, alpha))
    if status == "error":
        return values, ref
    ref["counts"] = [list(c.items()) for c in ref["counts"]]
    ref["per_char_cost"] = [list(c.items()) for c in ref["per_char_cost"]]
    return values, ref


ALPHABETS = {
    "binary": "ab",
    "acgt": "ACGT",
    "sigma20": "ABCDEFGHIJKLMNOPQRST",
    "unicode": "aé∑\U0001F600",
    "wide300": "".join(chr(0x4E00 + j) for j in range(300)),
    "cells": ("AC", "GT", "A", "G", "é∑", "∑"),
}


@st.composite
def datasets(draw):
    """(rows, alphabet): rows as str or as tuples of cells, valid or not."""
    symbols = list(ALPHABETS[draw(st.sampled_from(sorted(ALPHABETS)))])
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 5))
    used = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=4, unique=True))
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(["random", "unanimous", "tied"]))
        if kind == "unanimous":
            cols.append([draw(st.sampled_from(used))] * n)
        elif kind == "tied":
            pair = draw(st.permutations(used))[:2]
            cols.append([pair[r % len(pair)] for r in range(n)])
        else:
            cols.append(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)))
    rows = [[cols[i][r] for i in range(d)] for r in range(n)]
    if draw(st.integers(0, 9)) == 0:  # a ragged row
        r = draw(st.integers(0, n - 1))
        rows[r] = rows[r] + [used[0]] if draw(st.booleans()) else rows[r][:-1]
    as_text = all(len(a) == 1 for a in used) and draw(st.booleans())
    rows = ["".join(row) for row in rows] if as_text else [tuple(row) for row in rows]
    mode = draw(st.sampled_from(["inferred", "declared", "subset", "duplicate", "one"]))
    if mode == "inferred":
        return rows, None
    shuffled = draw(st.permutations(symbols))
    if mode == "declared":
        return rows, shuffled
    if mode == "subset":  # may leave a used symbol out
        return rows, shuffled[: draw(st.integers(0, len(shuffled)))]
    if mode == "duplicate":
        return rows, shuffled + [shuffled[0]]
    return rows, [used[0]]  # one symbol: no second choice


@settings(max_examples=300, deadline=None)
@given(datasets())
def test_coded_dataset_matches_loop_reference(case):
    rows, alphabet = case
    got = outcome(lambda: coded_values(rows, alphabet))
    want = outcome(lambda: reference_values(rows, alphabet))
    assert got == want


@pytest.mark.parametrize("rows, alphabet", [
    (["ab", "ba", "ab", "bb"], None),  # tied and a 3:1 column
    (["aaa", "aaa"], "ab"),  # unanimous: second choice is the other symbol
    (["é∑\U0001F600", "∑∑é"], None),  # non-ASCII, inferred order
    ([("AC", "GT"), ("GT", "GT")], ("GT", "AC")),  # multi-character cells
    (["AG", "GA", "AA"], ("A", "AC", "G")),  # text rows: no character is "AC"
    (["".join(chr(0x4E00 + (r * 7 + i) % 300) for i in range(300)) for r in range(5)],
     [chr(0x4E00 + j) for j in range(300)]),  # 300 symbols: uint16 codes
    (["ab", "ab"], "ba"),  # declared order beats first occurrence
])
def test_coded_dataset_matches_loop_reference_examples(rows, alphabet):
    assert outcome(lambda: coded_values(rows, alphabet)) == outcome(
        lambda: reference_values(rows, alphabet))


def test_foreign_symbol_error_names_the_first_in_row_major_order():
    with pytest.raises(ValidationError, match=r"^string 2 uses symbol 'x' outside"):
        Dataset.from_strings(["ab", "bx", "yb"], alphabet="ab")
    with pytest.raises(ValidationError, match=r"^string 1 uses symbol 'CG' outside"):
        Dataset.from_strings([("AC", "CG"), ("TT", "AC")], alphabet=("AC", "GT"))


def test_dataset_compares_by_identity():
    a = Dataset.from_strings(["ab", "ba"])
    b = Dataset.from_strings(["ab", "ba"])
    assert a == a and a != b


def test_context_from_strings_memory_and_time_bound():
    # 4000 x 1000 over ACGT: a tuple per string would alone need 32 MB, and
    # so would an int64 index per cell; the code matrix needs 4 MB.
    n, d = 4000, 1000
    rng = np.random.default_rng(7)
    text = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, n * d)]
    text = text.tobytes().decode("ascii")
    rows = [text[r * d:(r + 1) * d] for r in range(n)]
    del text
    tracemalloc.start()
    try:
        start = time.perf_counter()
        ctx = context_from_strings(rows)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.n == n and ctx.d == d and ctx.opt > 0
    assert peak < 6 * n * d, f"peak {peak / 1e6:.1f} MB"
    assert elapsed < 2.0, f"{elapsed:.2f}s"
