import dataclasses
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverse_medians import (
    Budget,
    DEFAULT_LIMITS,
    Dataset,
    InfeasibleError,
    SampleConfig,
    SolverNotConverged,
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
from diverse_medians import lpround
from diverse_medians.core import min_distance
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
        (rows, _, vals), _, _, _ = m._triplets()
        ub_vals, eq_vals = vals[rows < a_ub.shape[0]], vals[rows >= a_ub.shape[0]]
        assert np.count_nonzero(a_ub) == np.count_nonzero(ub_vals) == ub_vals.size == ub_nnz
        assert np.count_nonzero(a_eq) == np.count_nonzero(eq_vals) == eq_vals.size == k * m.d * k


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


# (k, d, alphabet, symbol counts per column, cycled over d): the column shapes
# of the benchmark's `lp` inputs, at a d whose dense model stays small
LP_LIKE = (
    (4, 16, "acgt", [(4, 3, 2, 1), (5, 3, 1, 1), (3, 3, 2, 2), (4, 4, 1, 1), (5, 2, 2, 1)]),
    (5, 10, "abcdefghijklmnopqrst",
     [(3, 2, 2, 1, 1, 1), (4, 2, 1, 1, 1, 1), (2, 2, 2, 2, 1, 1), (3, 3, 1, 1, 1, 1)]),
    (3, 60, "acgt", [(4, 3, 2, 1), (5, 3, 1, 1), (3, 3, 2, 2), (4, 4, 1, 1), (5, 2, 2, 1)]),
    (2, 200, "01", [(6, 5), (7, 4), (8, 3), (9, 2)]),
)


@pytest.mark.parametrize("k, d, alphabet, shapes", LP_LIKE)
def test_vertex_is_scipys_on_lp_like_models(k, d, alphabet, shapes, rng):
    # the model handed to HiGHS directly and scipy's linprog on the dense
    # matrices reach the same vertex, bit for bit
    from scipy.optimize import linprog

    cols = []
    for i in range(d):
        counts = shapes[i % len(shapes)]
        symbols = rng.permutation(len(alphabet))[: len(counts)]
        cols.append(rng.permutation(np.repeat(symbols, counts)))
    rows = ["".join(alphabet[c] for c in row) for row in np.stack(cols, axis=1).tolist()]
    ctx = context_from_strings(rows, alphabet=alphabet)
    m = build_ilp(ctx, Budget.make(Fraction(1, 10), ctx.opt), k)
    c, a_ub, b_ub, a_eq, b_eq, bounds = m.to_matrices()
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    frac, lp_value = solve_lp_relaxation(m)
    assert frac.tobytes() == res.x[:m.n_u].reshape(m.k, m.d, m.k).tobytes()
    assert lp_value == 2.0 * float(res.x[m.t_index]) > 0


def test_negative_budget_is_infeasible_not_unconverged():
    # eps < 0 asks for sum u*c <= -opt < 0 while every cost is >= 0: HiGHS
    # proves infeasibility, which is no convergence failure
    ctx = context_from_strings(["abca", "bcab", "cabc", "aabb"], alphabet="abc")
    m = dataclasses.replace(build_ilp(ctx, Budget.make(0, ctx.opt), 2),
                            epsilon=Fraction(-1))
    assert ctx.opt > 0
    with pytest.raises(InfeasibleError) as exc:
        solve_lp_relaxation(m)
    assert type(exc.value) is InfeasibleError


@pytest.mark.parametrize("shift, fails", [(1e-6, True), (1e-12, False)])
def test_vertex_off_a_row_is_not_converged(shift, fails, monkeypatch):
    # HiGHS says optimal, but the vertex it hands back breaks the simplex row
    # of (r=0, i=0) by `shift`: past the 1e-9 check that is no solution
    ctx = context_from_strings(["abca", "bcab", "cabc", "aabb"], alphabet="abc")
    m = build_ilp(ctx, Budget.make(Fraction(1, 2), ctx.opt), 2)
    highs = lpround._highs

    def off_by_shift(*args):
        status, message, x = highs(*args)
        j = min(range(m.k), key=lambda j: x[m.u_index(0, 0, j)])  # stays within [0, 1]
        x[m.u_index(0, 0, j)] += shift
        return status, message, x

    monkeypatch.setattr(lpround, "_highs", off_by_shift)
    if fails:
        with pytest.raises(SolverNotConverged, match="misses a bound or a row"):
            solve_lp_relaxation(m)
    else:
        solve_lp_relaxation(m)


def run_python(code, *args):
    """Run code in a fresh interpreter that imports this package."""
    env = {**os.environ, "PYTHONPATH": str(Path(lpround.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env)


COEXIST = """
import sys
from fractions import Fraction
if sys.argv[1] == "scipy-first":
    import scipy.optimize
from diverse_medians import Budget, build_ilp, context_from_strings, solve_lp_relaxation
from diverse_medians.lpround import _highs_core
ctx = context_from_strings(["abcab", "bcaba", "cabcc", "aabbc", "ccaba"], alphabet="abc")
m = build_ilp(ctx, Budget.make(Fraction(1, 2), ctx.opt), 3)
frac, lp_value = solve_lp_relaxation(m)
import scipy.optimize
from scipy.optimize import linprog
assert _highs_core() is sys.modules["scipy.optimize._highspy._highs_wrapper"]._h
c, a_ub, b_ub, a_eq, b_eq, bounds = m.to_matrices()
res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
assert res.status == 0, res.message
assert frac.tobytes() == res.x[:m.n_u].reshape(m.k, m.d, m.k).tobytes()
assert lp_value == 2.0 * float(res.x[m.t_index]) > 0
print("same vertex")
"""


@pytest.mark.parametrize("order", ["solve-first", "scipy-first"])
def test_highs_binding_coexists_with_scipy_optimize(order):
    # the binding loaded by lpround and the one scipy.optimize imports are one
    # module in either order, and both paths reach the same vertex
    proc = run_python(COEXIST, order)
    assert "ImportError" not in proc.stderr and "already registered" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "same vertex"


def test_missing_highs_binding_names_the_scipy_it_needs():
    # a None entry makes importlib report scipy as not installed
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from diverse_medians import Budget, build_ilp, context_from_strings\n"
            "from diverse_medians import solve_lp_relaxation\n"
            "ctx = context_from_strings(['ab', 'ba'], alphabet='ab')\n"
            "solve_lp_relaxation(build_ilp(ctx, Budget.make(1, ctx.opt), 2))\n")
    proc = run_python(code)
    assert proc.returncode == 1
    assert "ImportError: the LP relaxation needs scipy>=1.15" in proc.stderr


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


def lp_value_reference(m):
    """The relaxation's value in exact arithmetic. Averaging an optimum over
    the k! orders of the candidates gives one u shared by all of them, so the
    value is a fractional knapsack over the columns by ascending second-rank
    cost c: a column is worth 2 at c/2 per candidate, out of the budget
    E = min(eps*opt, n*d); the first one that does not fit is worth 4E/c for
    what is left of E."""
    spare = min(m.epsilon * m.opt, Fraction(m.n * m.d))
    value = Fraction(0)
    for c in sorted(m.costs[:, 1].tolist()):
        if spare < Fraction(c, 2):
            return value + 4 * spare / c
        value, spare = value + 2, spare - Fraction(c, 2)
    return value


@st.composite
def lp_models(draw):
    sigma = "abcd"[:draw(st.integers(2, 4))]
    d = draw(st.integers(1, 8))
    row = st.text(alphabet=sigma, min_size=d, max_size=d)
    ctx = context_from_strings(draw(st.lists(row, min_size=2, max_size=7)), alphabet=sigma)
    eps = draw(st.one_of(st.just(Fraction(0)), st.just(Fraction(10**6)),
                         st.fractions(0, 10**6, max_denominator=100)))
    return build_ilp(ctx, Budget.make(eps, ctx.opt), draw(st.integers(2, len(sigma))))


@settings(max_examples=60, deadline=None)
@given(lp_models())
def test_lp_value_matches_the_exact_knapsack(m):
    assert abs(solve_lp_relaxation(m)[1] - lp_value_reference(m)) <= 1e-9


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(10**6)])
def test_lp_value_matches_the_exact_knapsack_at_bench_size(eps):
    # n = 10, d = 60, k = 4 over ACGT, the column profiles cycled as the
    # bench's lp-d60-k4 input cycles them: the same LP value, 118.4 at eps 1/10
    shapes = [(4, 3, 2, 1), (5, 3, 1, 1), (3, 3, 2, 2), (4, 4, 1, 1), (5, 2, 2, 1)]
    gen = np.random.default_rng(60)
    cols = [gen.permutation(np.repeat(np.arange(4), shapes[i % 5])) for i in range(60)]
    ctx = context_from_strings(["".join("ACGT"[c] for c in row) for row in np.array(cols).T],
                               alphabet="ACGT")
    m = build_ilp(ctx, Budget.make(eps, ctx.opt), 4)
    want = lp_value_reference(m)
    assert abs(solve_lp_relaxation(m)[1] - want) <= 1e-9
    if eps == Fraction(1, 10):
        assert want == Fraction(592, 5)


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


def kept_dict_reference(ctx, budget, k, delta, eta, seed):
    """The pick the streaming core.best_trial replaced, kept as the reference:
    every trial under the cost cap in a dict by trial number, then
    list(kept)[i] for the first i with the largest min_distance. Returns
    (members, kept, chosen_trial), or None when no trial is under the cap."""
    model = build_ilp(ctx, budget, k)
    frac, _ = solve_lp_relaxation(model)
    cap = (1 + budget.epsilon + delta) * ctx.opt
    kept = {}
    for trial in range(SampleConfig(k=k, delta=delta, eta=eta, seed=seed).trials):
        picks = [dependent_round(frac[r], seed=[seed, trial, r]) for r in range(k)]
        members = model.ranked[np.arange(ctx.d), np.argmax(picks, axis=2)]
        if all(Fraction(c) <= cap for c in ctx.costs_of(members).tolist()):
            kept[trial] = members
    if not kept:
        return None
    values = [min_distance(codes) for codes in kept.values()]
    chosen = list(kept)[max(range(len(values)), key=values.__getitem__)]
    return kept[chosen], len(kept), chosen


def test_pipeline_picks_what_the_kept_dict_picked():
    # lumpy deviation costs: at 100 trials from 19 to 87 pass the cost cap,
    # and at 1 or 7 trials some runs keep none
    rows = ["ccb", "cca", "aaa", "cca", "bca", "cab", "cab", "aca"]
    ctx = context_from_strings(rows, alphabet="abc")
    partial = infeasible = 0
    for eps, k, seed, trials in product((Fraction(1, 4), Fraction(1, 2)), (2, 3), range(3),
                                        (1, 7, 100)):
        b, delta, eta = Budget.make(eps, ctx.opt), Fraction(1, 8), Fraction(1, 2**trials)
        ref = kept_dict_reference(ctx, b, k, delta, eta, seed)
        if ref is None:
            infeasible += 1
            with pytest.raises(InfeasibleError):
                lp_min_dispersion(ctx, b, k, delta, eta, seed)
            continue
        cands, report = lp_min_dispersion(ctx, b, k, delta, eta, seed)
        assert np.array_equal(cands.codes, ref[0])
        assert (report.kept, report.chosen_trial) == ref[1:]
        partial += 0 < report.kept < report.trials
    assert partial >= 10 and infeasible >= 3


def test_pipeline_is_seed_deterministic():
    ctx = context_from_strings(["aab", "bba", "abb", "baa"], alphabet="ab")
    b = Budget.make(1, ctx.opt)
    one = lp_min_dispersion(ctx, b, 2, Fraction(1, 4), Fraction(1, 8), 3)
    two = lp_min_dispersion(ctx, b, 2, Fraction(1, 4), Fraction(1, 8), 3)
    assert one[0].members == two[0].members
    assert one[1] == two[1]
