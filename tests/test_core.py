import ast
import time
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

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

from diverse_medians import core
from diverse_medians.core import BLOCK_BYTES, row_blocks

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
    # sum_dispersion via per-column counts must equal the direct pairwise sum,
    # over uint8 codes and, past 255 symbols, uint16 codes
    for size, dtype in ((2, np.uint8), (20, np.uint8), (300, np.uint16)):
        sigma = "".join(chr(0x100 + s) for s in range(size))
        for _ in range(40):
            rows = random_rows(rng, sigma=sigma)
            ctx = context_from_strings(rows, alphabet=sigma)
            members = [
                tuple(random_rows(rng, n=1, d=ctx.d, sigma=sigma)[0])
                for _ in range(int(rng.integers(2, 6)))
            ]
            cs = CandidateSet.from_members(ctx, Dataset.from_strings(members, sigma).codes)
            assert cs.codes.dtype == dtype
            assert cs.sum_dispersion() == sum_dispersion(members)
            assert cs.min_dispersion() == min_dispersion(members)


def test_candidate_set_sum_dispersion_memory_bound():
    # k = 20,000 members of length 1,000: one block of offset codes at a
    # time, where an int64 index per cell took 8·k·d bytes
    k, d = 20_000, 1_000
    codes = np.random.default_rng(5).integers(0, 2, (k, d), dtype=np.uint8)
    ones = codes.sum(axis=0, dtype=np.int64)
    cs = CandidateSet(codes=codes, alphabet=("a", "b"))
    tracemalloc.start()
    try:
        value = cs.sum_dispersion()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == int((ones * (k - ones)).sum())
    assert peak < k * d + BLOCK_BYTES, f"peak {peak / 2**20:.1f} MiB"


def test_min_dispersion_of_repeated_members_is_zero_at_once():
    # 20,000 members: one distances_to pass per member took 6 s on 4 columns
    ctx = context_from_strings(["abca", "abcb", "abca", "bbcb"], alphabet="abc")
    copies = np.tile(ctx.rank[:, 0], (20_000, 1))
    grid = np.indices((3,) * 4).reshape(4, -1).T  # every word over abc once
    start = time.perf_counter()
    assert CandidateSet.from_members(ctx, copies).min_dispersion() == 0
    assert core.min_distance(np.concatenate((grid, grid[40:41]))) == 0
    assert core.min_distance(grid) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f} s"


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
    counts = core.symbol_counts(ds.codes, len(alpha)).tolist()
    cost = ctx.cost.tolist()
    rank = ctx.rank.tolist()
    sizes = ctx.majority_sizes.tolist()
    assert ctx.cost.shape == ctx.rank.shape == (ds.d, len(alpha))
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


def test_build_context_counts_a_wide_alphabet_in_little_time():
    # 4000 x 1000 over 300 symbols: one bool pass per symbol took 0.87 s
    n, d, sigma = 4000, 1000, 300
    codes = np.random.default_rng(3).integers(0, sigma, (n, d)).astype(np.uint16)
    dataset = Dataset(codes=codes, alphabet=tuple(f"s{j}" for j in range(sigma)))
    start = time.perf_counter()
    ctx = build_context(dataset)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.3, f"{elapsed:.2f} s"
    for i in (0, 517, d - 1):
        counts = np.bincount(codes[:, i], minlength=sigma)
        assert np.array_equal(ctx.cost[i], counts.max() - counts)


def test_build_context_keeps_only_its_cost_and_rank_tables():
    # 2 rows of 1,500 cells over 3,000 symbols: the count table becomes the
    # (int64) costs in place, so the traced peak is the costs, argsort's
    # int64 order and the uint16 ranks, and the context keeps costs and ranks
    d = 1_500
    dataset = Dataset.from_strings([[f"c{i}" for i in range(d)], [f"d{i}" for i in range(d)]])
    cells = d * len(dataset.alphabet)
    tracemalloc.start()
    try:
        ctx = build_context(dataset)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.opt == d and ctx.cost.shape == (d, 2 * d)
    assert peak <= 20 * cells, f"peak {peak / cells:.1f} bytes per cell"
    assert kept <= 12 * cells, f"kept {kept / cells:.1f} bytes per cell"


@pytest.mark.parametrize("block_bytes", [1, 100, 2**22])
def test_symbol_counts_match_one_pass_per_symbol(block_bytes, monkeypatch):
    # blocks of one row, of a few rows, and one block: the same table
    monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(11)
    for m, d, sigma in ((1, 1, 2), (7, 3, 2), (50, 4, 20), (30, 9, 300), (5, 0, 3)):
        codes = rng.integers(0, sigma, (m, d)).astype(np.min_scalar_type(sigma))
        want = np.stack([(codes == j).sum(axis=0) for j in range(sigma)], axis=1)
        got = core.symbol_counts(codes, sigma)
        assert got.dtype == np.int64 and np.array_equal(got, want.reshape(d, sigma))


@pytest.mark.parametrize("block_bytes", [1, 7, 64, 2**22])
def test_row_blocks_cover_every_row_once_within_the_budget(block_bytes, monkeypatch):
    # BLOCK_BYTES is read on the call, so patching core reaches every loop
    monkeypatch.setattr(core, "BLOCK_BYTES", block_bytes)
    for m in (0, 1, 5, 100, 1001):
        for row_bytes in (1, 3, 8, 64, 2**23):
            blocks = list(row_blocks(m, row_bytes))
            assert [r for s in blocks for r in range(m)[s]] == list(range(m))
            assert all(s.step is None for s in blocks)
            rows = [s.stop - s.start for s in blocks]
            cap = 1 if row_bytes > block_bytes else block_bytes // row_bytes
            assert all(1 <= n <= cap for n in rows)
            assert all(n == cap for n in rows[:-1])  # only the last block is short
    assert list(row_blocks(0, 8)) == []


def test_only_core_binds_block_bytes():
    # one knob: every other module takes its blocks from core.row_blocks
    binders = set()
    for path in Path(core.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [(a.asname or a.name).split(".")[-1] for a in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            if "BLOCK_BYTES" in names:
                binders.add(path.name)
    assert binders == {"core.py"}
