"""Acceptance suite: one test per criterion, pinned tolerances and budgets.

Run with `pytest -v tests/test_acceptance.py` to get one PASS/FAIL line per
criterion. Every test asserts its own wall-clock budget, so a slow
environment fails loudly instead of silently dragging.
"""

import json
import time
from fractions import Fraction
from itertools import count, product

import numpy as np
import pytest

import diverse_medians as dm
from diverse_medians import cli
from diverse_medians.mindisp import plotkin_certificate


def accept_rows(rng, n, d, sigma):
    return ["".join(rng.choice(list(sigma), size=d)) for _ in range(n)]


def tie_block(symbols, d):
    """n = len(symbols) rows whose every column ties across `symbols`."""
    return [s * d for s in symbols]


# --- 1 -----------------------------------------------------------------------


def test_criterion_01_median_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(500):
        sigma = "ab" if rng.random() < 0.5 else "abc"
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        rows = accept_rows(rng, n, d, sigma)
        ctx = dm.context_from_strings(rows, alphabet=sigma)
        # independent brute force: direct double sums over the whole space
        enc = {a: j for j, a in enumerate(sigma)}
        mat = np.array([[enc[c] for c in r] for r in rows])  # (n, d)
        words = np.array(list(product(range(len(sigma)), repeat=d)))  # (W, d)
        dists = (words[:, None, :] != mat[None, :, :]).sum(axis=(1, 2))
        assert dm.median_cost(ctx, ctx.w) == ctx.opt == int(dists.min())
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 1 overran its budget: {elapsed:.1f}s"


# --- 2 -----------------------------------------------------------------------


def test_criterion_02_offset_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    pairs = 0
    while pairs < 10_000:
        sigma = "ab" if rng.random() < 0.5 else "abc"
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        rows = accept_rows(rng, n, d, sigma)
        ctx = dm.context_from_strings(rows, alphabet=sigma)
        enc = {a: j for j, a in enumerate(sigma)}
        mat = np.array([[enc[c] for c in r] for r in rows])
        counts = [np.bincount(mat[:, i], minlength=len(sigma)) for i in range(d)]
        for _ in range(50):
            s = "".join(rng.choice(list(sigma), size=d))
            direct = int((mat != np.array([enc[c] for c in s])).sum())
            offset = ctx.opt + sum(
                int(counts[i][enc[ctx.w[i]]] - counts[i][enc[s[i]]])
                for i in range(d)
                if s[i] != ctx.w[i]
            )
            assert dm.median_cost(ctx, s) == direct == offset
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 2 overran its budget: {elapsed:.1f}s"


# --- 3 -----------------------------------------------------------------------


def test_criterion_03_approx_diameter_matches_brute():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    limits = dm.EnumerationLimits(10**4, 10**8, 10**7)
    checked = 0
    while checked < 200:
        sigma = "ab" if rng.random() < 0.5 else "abc"
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        rows = accept_rows(rng, n, d, sigma)
        ctx = dm.context_from_strings(rows, alphabet=sigma)
        eps = rng.choice([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
        budget = dm.Budget.make(eps, ctx.opt)
        try:
            pool = dm.approx_median_pool(ctx, budget, limits)
        except dm.CapExceeded:
            continue
        res = dm.approx_diameter_pair(ctx, budget)
        assert res.diameter == dm.brute_diameter(pool, limits)
        for endpoint in res.pair:
            assert dm.is_approx_median(ctx, budget, endpoint)
        checked += 1
    # a few large tie-rich pools, up to the 10^4 candidate ceiling
    for symbols, d in ((("a", "b", "c"), 8), (("a", "b"), 13)):
        ctx = dm.context_from_strings(tie_block(symbols, d))
        budget = dm.Budget.make(0, ctx.opt)
        pool = dm.approx_median_pool(ctx, budget, limits)
        assert pool.n <= 10**4
        res = dm.approx_diameter_pair(ctx, budget)
        assert res.diameter == dm.brute_diameter(pool, limits)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 3 overran its budget: {elapsed:.1f}s"


# --- 4 -----------------------------------------------------------------------


def test_criterion_04_min_diff_partition_optimal():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    for case in range(200):
        size = int(rng.integers(1, 19)) if case >= 4 else 18  # pin some worst cases
        weights = [int(x) for x in rng.integers(1, 51, size=size)]
        items = list(range(size))
        parts, sums = dm.min_diff_partition(items, weights)
        subset_sums = np.zeros(1, dtype=np.int64)
        for w in weights:
            subset_sums = np.concatenate([subset_sums, subset_sums + w])
        exhaustive = int(np.abs(sum(weights) - 2 * subset_sums).min())
        assert abs(sums[0] - sums[1]) == exhaustive
        assert sorted(parts[0] + parts[1]) == items
        assert sums[0] == sum(weights[i] for i in parts[0])
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 4 overran its budget: {elapsed:.1f}s"


# --- 5 -----------------------------------------------------------------------


def test_criterion_05_sum_dispersion_exact_construction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    # tie structures with at most 4 exact medians: one tie column of size
    # 2/3/4, or two tie columns of size 2
    structures = [((2,), 4), ((3,), 3), ((4,), 4), ((2, 2), 4), ((), 2)]
    for ties, n in structures * 6:
        d = int(rng.integers(max(len(ties), 1), 6))
        sigma = "abcd"
        base = accept_rows(rng, 1, d, "a")[0]
        cols = list(rng.choice(d, size=len(ties), replace=False))
        rows = []
        for r in range(n):
            row = list(base)
            for col, gamma in zip(cols, ties):
                row[col] = sigma[r % gamma]
            rows.append("".join(row))
        ctx = dm.context_from_strings(rows, alphabet=sigma)
        pool = dm.approx_median_pool(ctx, dm.Budget.make(0, ctx.opt))
        assert pool.n <= 4
        for k in range(2, 5):
            cs = dm.sum_dispersion_exact_k(ctx, k)
            assert dm.sum_dispersion(cs.members) == dm.brute_sumdp_k(pool, k)
            for i in range(d):
                col = [row[i] for row in rows]
                top = max(col.count(a) for a in sigma)
                gamma = sorted(a for a in sigma if col.count(a) == top)
                used = sorted(
                    [sum(1 for s in cs.members if s[i] == a) for a in gamma],
                    reverse=True,
                )
                q, r = divmod(k, len(gamma))
                assert used == [q + 1] * r + [q] * (len(gamma) - r)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 5 overran its budget: {elapsed:.1f}s"


# --- 6 -----------------------------------------------------------------------


def test_criterion_06_density_guarantees():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    limits = dm.EnumerationLimits(200, 10**7, 10**7)
    checked = 0
    while checked < 80:
        sigma = "ab" if rng.random() < 0.5 else "abc"
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        rows = accept_rows(rng, n, d, sigma)
        ctx = dm.context_from_strings(rows, alphabet=sigma)
        eps = rng.choice([Fraction(0), Fraction(1, 3), Fraction(1, 2)])
        budget = dm.Budget.make(eps, ctx.opt)
        try:
            pool = dm.approx_median_pool(ctx, budget, limits)
        except dm.CapExceeded:
            continue
        dstar = dm.brute_diameter(pool)
        for k in (2, 3):
            vstar = dm.brute_sumdp_k(pool, k)
            v = dm.sum_dispersion_approx_k(ctx, budget, k).sum_dispersion()
            if dstar > 0:
                assert Fraction(v) >= (1 - Fraction(4, dstar)) * vstar
            assert v >= vstar - (k - 1) * (k + 1)
            assert Fraction(vstar) >= Fraction((k - 1) * (k + 1), 4) * dstar
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 6 overran its budget: {elapsed:.1f}s"


# --- 7 -----------------------------------------------------------------------


def test_criterion_07_min_dispersion_dps_match_brute():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    limits = dm.EnumerationLimits(500, 10**8, 10**7)
    exact_cases = approx_cases = 0
    while exact_cases < 100:
        sigma = "ab" if rng.random() < 0.5 else "abc"
        n = int(rng.choice([2, 4, 6]))  # even counts make ties likely
        d = int(rng.integers(2, 6))
        rows = accept_rows(rng, n, d, sigma)
        ctx = dm.context_from_strings(rows, alphabet=sigma)
        try:
            pool = dm.approx_median_pool(ctx, dm.Budget.make(0, ctx.opt), limits)
        except dm.CapExceeded:
            continue
        k = int(rng.integers(2, 4))
        try:
            cs = dm.min_disp_dp_exact(ctx, k, limits=dm.EnumerationLimits(max_states=10**6))
        except dm.CapExceeded:
            continue
        assert cs.min_dispersion() == dm.brute_mindp_k(pool, k, limits)
        assert all(dm.is_exact_median(ctx, s) for s in cs.members)
        exact_cases += 1
    while approx_cases < 100:
        sigma = "ab" if rng.random() < 0.5 else "abc"
        n, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        rows = accept_rows(rng, n, d, sigma)
        ctx = dm.context_from_strings(rows, alphabet=sigma)
        eps = rng.choice([Fraction(1, 3), Fraction(1, 2)])
        budget = dm.Budget.make(eps, ctx.opt)
        try:
            pool = dm.approx_median_pool(ctx, budget, limits)
        except dm.CapExceeded:
            continue
        k = int(rng.integers(2, 4))
        try:
            cs = dm.min_disp_dp_approx(
                ctx, budget, k, limits=dm.EnumerationLimits(max_states=10**6))
        except dm.CapExceeded:
            continue
        assert cs.min_dispersion() == dm.brute_mindp_k(pool, k, limits)
        assert all(dm.is_approx_median(ctx, budget, s) for s in cs.members)
        approx_cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 7 overran its budget: {elapsed:.1f}s"


# --- 8 -----------------------------------------------------------------------


def test_criterion_08_sampler_bounds():
    t0 = time.perf_counter()
    exact_ctx = dm.context_from_strings(["0" * 40, "1" * 40], alphabet="01")
    approx_ctx = dm.context_from_strings(
        ["1" * 60] * 6 + ["0" * 60] * 4, alphabet="01"
    )
    approx_budget = dm.Budget.make(Fraction(1, 2), approx_ctx.opt)
    approx_diameter = dm.approx_diameter_pair(approx_ctx, approx_budget)
    exact_hits = approx_hits = 0
    for seed in range(100):
        cfg = dm.SampleConfig(k=4, delta=Fraction(1, 2), eta=Fraction(1, 8), seed=seed)
        cs = dm.sample_exact_medians(exact_ctx, cfg)
        assert all(dm.is_exact_median(exact_ctx, s) for s in cs.members)  # 100%
        if cs.min_dispersion() >= 10:  # (1 - delta) * 40 * (1/2)
            exact_hits += 1
        cs2 = dm.sample_approx_medians(approx_ctx, approx_diameter, cfg)
        cap = (1 + 2 * approx_budget.epsilon) * approx_ctx.opt
        assert all(
            Fraction(dm.median_cost(approx_ctx, s)) <= cap for s in cs2.members
        )  # 100%
        if cs2.min_dispersion() >= 15:  # (1 - delta) * D* / 2 with D* = 60
            approx_hits += 1
    assert exact_hits >= 80, f"exact sampler met its bound only {exact_hits}/100"
    assert approx_hits >= 80, f"approx sampler met its bound only {approx_hits}/100"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 8 overran its budget: {elapsed:.1f}s"


# --- 9 -----------------------------------------------------------------------


def test_criterion_09_plotkin_certificate():
    t0 = time.perf_counter()

    def size_tuples(limit):
        out = []

        def rec(prefix, prod, start):
            for s in count(start):
                if prod * s > limit:
                    return
                out.append(prefix + (s,))
                rec(prefix + (s,), prod * s, s)

        rec((), 1, 2)
        return out

    limits = dm.EnumerationLimits(10**6, 10**8, 10**7)
    applicable = 0
    binary_checked = 0
    for sizes in size_tuples(3**6):
        d = len(sizes)
        for t in range(1, d + 1):
            bound = plotkin_certificate(sizes, t).max_code_size
            if bound is None:
                continue
            applicable += 1
            assert dm.brute_max_code_size(sizes, t, limits) <= bound
            if set(sizes) == {2} and 2 * t > d:
                # classical binary form: t / (t - d/2), floored; the t == d/2
                # equality case takes a separate (2 * sum sizes) bound
                assert bound == int(Fraction(t) / (t - Fraction(d, 2)))
                binary_checked += 1
    assert applicable > 1000 and binary_checked > 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 9 overran its budget: {elapsed:.1f}s"


# --- 10 ----------------------------------------------------------------------


def test_criterion_10_tstar_upper_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    checked = 0
    while checked < 200:
        sigma = "ab" if rng.random() < 0.5 else "abc"
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        rows = accept_rows(rng, n, d, sigma)
        ctx = dm.context_from_strings(rows, alphabet=sigma)
        eps = rng.choice([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
        budget = dm.Budget.make(eps, ctx.opt)
        try:
            pool = dm.approx_median_pool(
                ctx, budget, dm.EnumerationLimits(2000, 10**7, 10**7)
            )
        except dm.CapExceeded:
            continue
        upper = dm.tstar_upper_bound(ctx, budget)
        if pool.n >= 2:
            assert Fraction(dm.brute_mindp_k(pool, 2)) <= upper
        if 3 <= pool.n <= 300:  # keep the k=3 brute force affordable
            assert Fraction(dm.brute_mindp_k(pool, 3)) <= upper
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 10 overran its budget: {elapsed:.1f}s"


# --- 11 ----------------------------------------------------------------------


def test_criterion_11_dependent_rounding():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    for trial in range(10_000):
        d, k = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        raw = rng.random((d, k)) + 1e-9
        mat = raw / raw.sum(axis=1, keepdims=True)
        out = dm.dependent_round(mat, seed=trial)
        assert (out.sum(axis=1) == 1).all()  # exact, not approximate
    fixed = [
        np.array([[0.2, 0.5, 0.3], [0.7, 0.1, 0.2], [0.25, 0.25, 0.5], [1 / 3, 1 / 3, 1 / 3]]),
        np.array([[0.9, 0.05, 0.05], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2], [0.5, 0.25, 0.25]]),
        np.array([[0.6, 0.3, 0.1], [0.15, 0.7, 0.15], [0.05, 0.45, 0.5], [0.8, 0.1, 0.1]]),
    ]
    for which, mat in enumerate(fixed):
        acc = np.zeros_like(mat)
        for s in range(10_000):
            acc += dm.dependent_round(mat, seed=[which, s])
        assert np.abs(acc / 10_000 - mat).max() < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 11 overran its budget: {elapsed:.1f}s"


# --- 12 ----------------------------------------------------------------------


def test_criterion_12_lp_pipeline():
    t0 = time.perf_counter()
    rng = np.random.default_rng(112)
    delta, eta = Fraction(1, 4), Fraction(1, 8)

    # lp_value dominates twice the brute-force optimum on tiny instances
    checked = 0
    while checked < 25:
        rows = accept_rows(rng, int(rng.integers(3, 7)), int(rng.integers(2, 5)), "abc")
        ctx = dm.context_from_strings(rows, alphabet="abc")
        eps = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1)])
        budget = dm.Budget.make(eps, ctx.opt)
        pool = dm.approx_median_pool(ctx, budget, dm.DEFAULT_LIMITS)
        if pool.n < 2:
            continue
        tstar = dm.brute_mindp_k(pool, 2, dm.DEFAULT_LIMITS)
        model = dm.build_ilp(ctx, budget, 2)
        _, lp_value = dm.solve_lp_relaxation(model)
        assert lp_value >= 2 * tstar - 1e-6
        checked += 1

    # statistical floor on tie-rich instances: the paper-strength regime needs
    # t* far beyond desk scale, so a 60%-of-50-seeds floor substitutes
    families = [  # (rows, k); binary alphabets cap k at 2
        (tie_block(("a", "b", "c"), 4), 3),
        (tie_block(("a", "b", "c"), 5), 3),
        (tie_block(("a", "b"), 6), 2),
        (tie_block(("a", "b", "c", "d"), 4), 3),
        (tie_block(("a", "b"), 8), 2),
    ]
    hits = runs = 0
    for rows, k in families:
        ctx = dm.context_from_strings(rows)
        budget = dm.Budget.make(0, ctx.opt)
        pool = dm.approx_median_pool(ctx, budget, dm.DEFAULT_LIMITS)
        tstar = dm.brute_mindp_k(pool, k, dm.DEFAULT_LIMITS)
        cap = (1 + budget.epsilon + delta) * ctx.opt
        for seed in range(10):
            cands, report = dm.lp_min_dispersion(ctx, budget, k, delta, eta, seed)
            for s in cands.members:  # feasibility in 100% of emissions
                assert Fraction(dm.median_cost(ctx, s)) <= cap
            assert report.lp_value >= 2 * tstar - 1e-6
            runs += 1
            if Fraction(cands.min_dispersion()) >= Fraction(tstar) / (2 + delta):
                hits += 1
    assert runs == 50
    assert hits >= 30, f"LP rounding met the dispersion floor only {hits}/50 times"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 12 overran its budget: {elapsed:.1f}s"


# --- 13 ----------------------------------------------------------------------


def test_criterion_13_cli_determinism_and_revalidation(tmp_path, capsys):
    t0 = time.perf_counter()
    data = tmp_path / "rows.txt"
    data.write_text("aaaa\nbbbb\ncccc\n")
    runs = {
        "exact": ["--objective", "min-dispersion", "--input", str(data), "--k", "3"],
        "approx": [
            "--objective", "min-dispersion", "--input", str(data),
            "--k", "3", "--epsilon", "1/2", "--strategy", "sample", "--seed", "7",
        ],
        "lp": [
            "--objective", "min-dispersion", "--input", str(data),
            "--k", "3", "--epsilon", "1/2", "--strategy", "lp", "--seed", "3",
        ],
        "median": ["--objective", "median", "--input", str(data)],
    }
    ctx = dm.context_from_strings(["aaaa", "bbbb", "cccc"])
    caps = {
        "exact": Fraction(ctx.opt),
        "approx": (1 + 2 * Fraction(1, 2)) * ctx.opt,
        "lp": (1 + Fraction(1, 2) + Fraction(1, 4)) * ctx.opt,
        "median": Fraction(ctx.opt),
    }
    for label, argv in runs.items():
        assert cli.main(argv) == 0
        out1 = capsys.readouterr().out
        assert cli.main(argv) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2, f"{label} run was not byte-identical"
        doc = json.loads(out1)
        for s in doc["strings"]:
            assert Fraction(dm.median_cost(ctx, s)) <= caps[label]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 13 overran its budget: {elapsed:.1f}s"
