import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_medians import (
    Budget,
    DEFAULT_LIMITS,
    Dataset,
    InfeasibleError,
    ValidationError,
    approx_median_pool,
    build_ilp,
    brute_mindp_k,
    context_from_strings,
    dependent_round,
    lp_min_dispersion,
    median_cost,
    solve_lp_relaxation,
)
from diverse_medians.lpround import _SNAP, _ROW_TOL

from conftest import random_rows


# --- model construction -----------------------------------------------------


def dense_reference(m):
    """The model entry by entry through u_index/z_index: the loop reference
    for the vectorized builder, as (A_ub, b_ub, A_eq)."""
    k, d, pairs = m.k, m.d, m.pairs
    rows_ub = 2 * k + 4 * len(pairs) * d * k + len(pairs)
    a_ub, b_ub = np.zeros((rows_ub, m.n_vars)), np.zeros(rows_ub)
    row = 0
    for r in range(k):  # deviation window: 0 <= sum u*c <= eps*opt
        for i in range(d):
            for j in range(k):
                a_ub[row, m.u_index(r, i, j)] = m.costs[i][j]
                a_ub[row + 1, m.u_index(r, i, j)] = -m.costs[i][j]
        b_ub[row] = float(m.epsilon * m.opt)
        row += 2
    for p, (r, rr) in enumerate(pairs):
        for i in range(d):
            for j in range(k):
                zi = m.z_index(p, i, j)
                ur, urr = m.u_index(r, i, j), m.u_index(rr, i, j)
                a_ub[row, zi], a_ub[row, ur], a_ub[row, urr] = 1, -1, -1
                a_ub[row + 1, zi], a_ub[row + 1, ur], a_ub[row + 1, urr] = -1, -1, 1
                a_ub[row + 2, zi], a_ub[row + 2, ur], a_ub[row + 2, urr] = -1, 1, -1
                a_ub[row + 3, zi], a_ub[row + 3, ur], a_ub[row + 3, urr] = 1, 1, 1
                b_ub[row + 3] = 2.0
                row += 4
    for p in range(len(pairs)):  # 2t - sum z <= 0
        a_ub[row, m.t_index] = 2.0
        for i in range(d):
            for j in range(k):
                a_ub[row, m.z_index(p, i, j)] = -1.0
        row += 1
    a_eq = np.zeros((k * d, m.n_vars))
    for r in range(k):
        for i in range(d):
            for j in range(k):
                a_eq[r * d + i, m.u_index(r, i, j)] = 1.0
    return a_ub, b_ub, a_eq


def test_cost_vector_example():
    # single column, counts a:3 b:1 -> ranked (a, b), costs (0, 2)
    ctx = context_from_strings(["a", "a", "a", "b"], alphabet="ab")
    m = build_ilp(ctx, Budget.make(0, ctx.opt), 2)
    assert m.ranked.tolist() == [[0, 1]]  # codes of a, b
    assert m.costs.tolist() == [[0, 2]]


def test_costs_start_zero_and_never_decrease(rng):
    for _ in range(20):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        m = build_ilp(ctx, Budget.make(Fraction(1, 2), ctx.opt), 3)
        for per_index in m.costs:
            assert per_index[0] == 0
            assert list(per_index) == sorted(per_index)


def test_unanimous_column_costs_full_n():
    ctx = context_from_strings(["ab", "ab", "ab"], alphabet="ab")
    m = build_ilp(ctx, Budget.make(1, ctx.opt), 2)
    assert m.costs.tolist() == [[0, 3], [0, 3]]


def test_constraint_count_formula_matches_built_model(rng):
    for _ in range(10):
        rows = random_rows(rng, sigma="abc")
        ctx = context_from_strings(rows, alphabet="abc")
        k = int(rng.integers(2, 4))
        m = build_ilp(ctx, Budget.make(Fraction(1, 2), ctx.opt), k)
        _, a_ub, b_ub, a_eq, b_eq, bounds = m.to_matrices()
        assert a_ub.shape[0] + a_eq.shape[0] == m.constraint_count()
        assert a_ub.shape[1] == a_eq.shape[1] == m.n_vars == len(bounds)
        ref_ub, ref_b_ub, ref_eq = dense_reference(m)
        assert np.array_equal(a_ub, ref_ub) and np.array_equal(a_eq, ref_eq)
        assert np.array_equal(b_ub, ref_b_ub) and np.array_equal(b_eq, np.ones(k * m.d))
        # nonzeros: 2 cost rows per candidate over the nonzero costs, 4 rows of
        # 3 per linearization, and one dispersion row of d*k z's plus t per pair
        npairs = k * (k - 1) // 2
        cost_nnz = sum(1 for per_index in m.costs for c in per_index if c)
        ub_nnz = 2 * k * cost_nnz + 12 * npairs * m.d * k + npairs * (1 + m.d * k)
        _, sp_ub, _, sp_eq, _, _ = m.matrices()
        assert np.count_nonzero(a_ub) == sp_ub.nnz == ub_nnz
        assert np.count_nonzero(a_eq) == sp_eq.nnz == k * m.d * k


def test_build_rejects_k_above_alphabet():
    ctx = context_from_strings(["ab", "ba", "aa"], alphabet="ab")
    with pytest.raises(ValidationError):
        build_ilp(ctx, Budget.make(1, ctx.opt), 3)


# --- relaxation ----------------------------------------------------------------


def test_zero_slack_forces_majority_assignment():
    ctx = context_from_strings(["a", "a", "a", "b"], alphabet="ab")
    m = build_ilp(ctx, Budget.make(0, ctx.opt), 2)
    frac, lp_value = solve_lp_relaxation(m)
    for r in range(2):
        assert frac[r][0, 0] == pytest.approx(1.0, abs=1e-7)
    assert lp_value == pytest.approx(0.0, abs=1e-7)


def test_sparse_solve_matches_dense_reference(rng):
    # reference: scipy's linprog on the loop-built dense model, unpacked
    # through u_index
    from scipy.optimize import linprog

    for _ in range(6):
        rows = random_rows(rng, sigma="abcd", d=int(rng.integers(1, 7)))
        ctx = context_from_strings(rows, alphabet="abcd")
        k = int(rng.integers(2, 5))
        m = build_ilp(ctx, Budget.make(Fraction(int(rng.integers(0, 4)), 2), ctx.opt), k)
        c, _, _, _, b_eq, bounds = m.to_matrices()
        a_ub, b_ub, a_eq = dense_reference(m)
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                      method="highs")
        assert res.status == 0
        frac, lp_value = solve_lp_relaxation(m)
        assert lp_value == 2.0 * float(res.x[m.t_index])
        for r in range(k):
            ref = np.array([[res.x[m.u_index(r, i, j)] for j in range(k)]
                            for i in range(m.d)])
            assert frac[r].tobytes() == ref.tobytes()


def test_opt_zero_instance_gives_lp_zero():
    ctx = context_from_strings(["ab", "ab", "ab"], alphabet="ab")
    m = build_ilp(ctx, Budget.make(Fraction(1, 2), 0), 2)
    _, lp_value = solve_lp_relaxation(m)
    assert lp_value == pytest.approx(0.0, abs=1e-7)


def test_lp_value_dominates_brute_tstar(rng):
    checked = 0
    while checked < 15:
        rows = random_rows(rng, sigma="abc", d=int(rng.integers(2, 5)))
        ctx = context_from_strings(rows, alphabet="abc")
        eps = Fraction(int(rng.integers(0, 3)), 2)
        b = Budget.make(eps, ctx.opt)
        pool = approx_median_pool(ctx, b, DEFAULT_LIMITS)
        if pool.n < 2:
            continue
        tstar = brute_mindp_k(pool, 2, DEFAULT_LIMITS)
        m = build_ilp(ctx, b, 2)
        _, lp_value = solve_lp_relaxation(m)
        assert lp_value >= 2 * tstar - 1e-6
        checked += 1


def test_exhaustive_model_space_solve_matches_oracle(rng):
    # stand-in for an integral solve: filter the ranked product space by the
    # exact cost window, then brute-force the best k-subset
    for _ in range(15):
        rows = random_rows(rng, sigma="abc", d=int(rng.integers(2, 4)))
        ctx = context_from_strings(rows, alphabet="abc")
        eps = Fraction(int(rng.integers(0, 3)), 2)
        b = Budget.make(eps, ctx.opt)
        k = 2
        m = build_ilp(ctx, b, k)
        cap = (1 + eps) * ctx.opt
        space = [
            s for s in product(*np.array(ctx.alphabet)[m.ranked].tolist())
            if ctx.opt <= median_cost(ctx, s) and Fraction(median_cost(ctx, s)) <= cap
        ]
        pool = approx_median_pool(ctx, b, DEFAULT_LIMITS)
        space = Dataset.from_strings(space, alphabet=ctx.alphabet)
        assert brute_mindp_k(space, k, DEFAULT_LIMITS) == brute_mindp_k(
            pool, k, DEFAULT_LIMITS
        )


# --- rounding --------------------------------------------------------------------


def _fractional_walk(mask):
    """Reference walk: a cycle, or a maximal path, over the True entries of
    mask, with the adjacency rebuilt from the whole mask."""
    d, k = mask.shape
    row_adj = [list(np.nonzero(mask[i])[0]) for i in range(d)]
    col_adj = [list(np.nonzero(mask[:, j])[0]) for j in range(k)]

    start = None  # prefer a degree-1 column: forces the maximal-path case
    for j in range(k):
        if len(col_adj[j]) == 1:
            start = ("c", j)
            break
    if start is None:
        for i in range(d):
            if row_adj[i]:
                start = ("r", i)
                break
    assert start is not None

    used = set()
    seen_at = {start: 0}
    walk = []
    vertex = start
    while True:
        side, idx = vertex
        nxt = None
        if side == "r":
            for j in row_adj[idx]:
                if (idx, j) not in used:
                    nxt = ("c", j)
                    edge = (idx, j)
                    break
        else:
            for i in col_adj[idx]:
                if (i, idx) not in used:
                    nxt = ("r", i)
                    edge = (i, idx)
                    break
        if nxt is None:
            return walk
        used.add(edge)
        walk.append(edge)
        if nxt in seen_at:
            return walk[seen_at[nxt]:]
        seen_at[nxt] = len(walk)
        vertex = nxt


def dependent_round_reference(frac, seed):
    """Reference rounding: snaps the whole matrix and rebuilds the adjacency
    at every step, O(d*k) numpy work per step."""
    arr = np.array(frac, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValidationError("expected a 2-D matrix")
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _ROW_TOL):
        raise ValidationError("matrix rows must each sum to 1")
    arr /= sums[:, None]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    while True:
        arr[np.abs(arr) <= _SNAP] = 0.0
        arr[np.abs(arr - 1.0) <= _SNAP] = 1.0
        mask = (arr > 0.0) & (arr < 1.0)
        if not mask.any():
            break
        walk = _fractional_walk(mask)
        m1, m2 = walk[0::2], walk[1::2]
        up1 = min(1.0 - arr[e] for e in m1)
        down2 = min((arr[e] for e in m2), default=np.inf)
        alpha = min(up1, down2)
        down1 = min(arr[e] for e in m1)
        up2 = min((1.0 - arr[e] for e in m2), default=np.inf)
        beta = min(down1, up2)
        if rng.random() < beta / (alpha + beta):
            for e in m1:
                arr[e] += alpha
            for e in m2:
                arr[e] -= alpha
        else:
            for e in m1:
                arr[e] -= beta
            for e in m2:
                arr[e] += beta
    return arr.astype(np.int64)


# row shapes of LP optima: spread mass, one 1, a two-way tie, and entries
# within _SNAP of 0 or of 1 that the first snap settles
ROW_KINDS = ("spread", "integral", "tie", "near0", "near1")


def _stochastic_row(gen, k, kind):
    row = np.zeros(k)
    a, b = gen.choice(k, size=2, replace=False)
    if kind == "spread":
        row = gen.random(k) * (gen.random(k) < 0.7)  # some exact zeros
        row[a] += 1e-3
    elif kind == "integral":
        row[a] = 1.0
    elif kind == "tie":
        row[a] = row[b] = 0.5
    elif kind == "near0":
        row = gen.random(k)
        row[a] = 1e-12
    else:
        row[:] = 1e-12 / (k - 1)
        row[a] = 1.0 - 1e-12
    return row / row.sum()


@st.composite
def stochastic_matrices(draw):
    d, k = draw(st.integers(1, 300)), draw(st.integers(2, 6))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=d, max_size=d))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([_stochastic_row(gen, k, kind) for kind in kinds])


seeds = st.one_of(st.integers(0, 2**64 - 1),
                  st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(stochastic_matrices(), seeds)
def test_rounding_matches_reference_bit_for_bit(mat, seed):
    out = dependent_round(mat, seed=seed)
    ref = dependent_round_reference(mat, seed=seed)
    assert out.dtype == ref.dtype == np.int64
    assert out.shape == ref.shape and np.array_equal(out, ref)


def test_rounding_matches_reference_on_lp_like_rows(rng):
    # wide rows at the upper end of the hypothesis range, every row kind mixed
    for trial in range(6):
        d, k = int(rng.integers(150, 301)), int(rng.integers(2, 7))
        mat = np.array([_stochastic_row(rng, k, ROW_KINDS[int(c)])
                        for c in rng.integers(0, len(ROW_KINDS), size=d)])
        seed = [trial, 7] if trial % 2 else trial
        assert np.array_equal(dependent_round(mat, seed=seed),
                              dependent_round_reference(mat, seed=seed))


def test_rounding_time_is_linear_in_the_walks():
    # the reference rebuilds a d-by-k adjacency per step: about 6 s here
    mat = np.random.default_rng(800).random((800, 4))
    mat /= mat.sum(axis=1, keepdims=True)
    t0 = time.perf_counter()
    out = dependent_round(mat, seed=1)
    elapsed = time.perf_counter() - t0
    assert (out.sum(axis=1) == 1).all()
    assert elapsed < 0.5, f"d=800, k=4 rounding took {elapsed:.2f}s"


def test_rounding_rows_always_sum_to_one(rng):
    for trial in range(300):
        d, k = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        raw = rng.random((d, k)) + 1e-9
        mat = raw / raw.sum(axis=1, keepdims=True)
        out = dependent_round(mat, seed=trial)
        assert out.shape == (d, k)
        assert set(np.unique(out)) <= {0, 1}
        assert (out.sum(axis=1) == 1).all()


def test_rounding_marginals_on_fixed_matrix():
    mat = np.array([[0.2, 0.5, 0.3], [0.7, 0.1, 0.2], [1 / 3, 1 / 3, 1 / 3]])
    acc = np.zeros_like(mat)
    n = 4000
    for s in range(n):
        acc += dependent_round(mat, seed=s)
    assert np.abs(acc / n - mat).max() < 0.03


def test_rounding_is_identity_on_integral_input():
    eye = np.eye(3)
    assert (dependent_round(eye, seed=0) == eye).all()


def test_rounding_snaps_near_integral_entries():
    mat = np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]])
    out = dependent_round(mat, seed=5)
    assert (out == np.eye(2)).all()


def test_rounding_rejects_non_stochastic_rows():
    with pytest.raises(ValidationError):
        dependent_round(np.array([[0.6, 0.6]]), seed=0)
    with pytest.raises(ValidationError):
        dependent_round(np.ones(3), seed=0)  # wrong rank


def test_rounding_deterministic_per_seed():
    mat = np.array([[0.5, 0.5], [0.25, 0.75]])
    a = dependent_round(mat, seed=42)
    assert (a == dependent_round(mat, seed=42)).all()


# --- full pipeline -----------------------------------------------------------------


def test_pipeline_on_tie_rich_instance():
    ctx = context_from_strings(["aaaa", "bbbb", "cccc"], alphabet="abc")
    b = Budget.make(0, ctx.opt)
    delta, eta = Fraction(1, 4), Fraction(1, 8)
    pool = approx_median_pool(ctx, b, DEFAULT_LIMITS)
    tstar = brute_mindp_k(pool, 3, DEFAULT_LIMITS)
    hits = 0
    for seed in range(10):
        cands, report = lp_min_dispersion(ctx, b, 3, delta, eta, seed)
        cap = (1 + b.epsilon + delta) * ctx.opt
        assert all(Fraction(median_cost(ctx, s)) <= cap for s in cands.members)
        assert report.trials == 3 and 1 <= report.kept <= 3
        assert report.lp_value >= 2 * tstar - 1e-6
        if Fraction(cands.min_dispersion()) >= Fraction(tstar) / (2 + delta):
            hits += 1
    assert hits > 5


def test_pipeline_opt_zero_returns_copies_of_w():
    ctx = context_from_strings(["ab", "ab", "ab"], alphabet="ab")
    cands, report = lp_min_dispersion(
        ctx, Budget.make(Fraction(1, 2), 0), 2, Fraction(1, 4), Fraction(1, 8), 0
    )
    assert all(s == ctx.w for s in cands.members)
    assert cands.min_dispersion() == 0
    assert report.kept == report.trials


def test_pipeline_raises_when_every_trial_overshoots():
    # lumpy deviation costs + a single trial: the rounding overshoots the
    # (1 + eps + delta) cap and the solver must say so instead of emitting
    rows = ["ccb", "cca", "aaa", "cca", "bca", "cab", "cab", "aca"]
    ctx = context_from_strings(rows, alphabet="abc")
    b = Budget.make(Fraction(1, 4), ctx.opt)
    with pytest.raises(InfeasibleError):
        lp_min_dispersion(ctx, b, 3, Fraction(1, 8), Fraction(1, 2), seed=2)


def test_pipeline_is_seed_deterministic():
    ctx = context_from_strings(["aab", "bba", "abb", "baa"], alphabet="ab")
    b = Budget.make(1, ctx.opt)
    one = lp_min_dispersion(ctx, b, 2, Fraction(1, 4), Fraction(1, 8), 3)
    two = lp_min_dispersion(ctx, b, 2, Fraction(1, 4), Fraction(1, 8), 3)
    assert one[0].members == two[0].members
    assert one[1] == two[1]
