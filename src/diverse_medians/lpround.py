"""LP rounding pipeline for min dispersion over approximate medians.

A string assignment problem: per candidate r and index i, pick one of the k
most frequent characters. The integer program maximizes t with the pairwise
difference counts constrained to >= 2t; its LP relaxation is solved once, and
bipartite dependent rounding turns each candidate's fractional row-stochastic
matrix into a 0/1 pick while preserving marginals exactly in expectation and
row sums exactly always.

The relaxation is handed to HiGHS's dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) through the pybind11 binding that scipy ships, loaded on its own:
an LP run imports neither scipy.optimize nor scipy.sparse, and no other run
loads any of scipy.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import PathFinder
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import (
    Budget,
    CandidateSet,
    InfeasibleError,
    MedianContext,
    SolverNotConverged,
    ValidationError,
    best_trial,
)
from .mindisp import SampleConfig, tstar_upper_bound

_SNAP = 1e-9  # entries this close to 0/1 are considered integral
_ROW_TOL = 1e-6  # acceptable row-sum drift on input matrices
_FEAS_TOL = 1e-9  # largest bound or row violation accepted from the LP solver
_HIGHS_CORE = "scipy.optimize._highspy._core"


@dataclass(frozen=True, eq=False)
class IlpModel:
    """The assignment program: variables u_{rij}, z_{(r,rhat)ij}, objective t.

    ranked[i, j] is the code of the (j+1)-th most frequent character at index
    i (ties by alphabet order, j=0 is the column majority): the first k
    columns of the context's rank table. costs[i, j] is its deviation weight,
    zero at j=0 and nondecreasing in j. Both are (d, k) arrays.
    """

    k: int
    n: int
    d: int
    opt: int
    epsilon: Fraction
    ranked: np.ndarray
    costs: np.ndarray

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(combinations(range(self.k), 2))

    @property
    def n_u(self) -> int:
        return self.k * self.d * self.k

    @property
    def n_z(self) -> int:
        return len(self.pairs) * self.d * self.k

    @property
    def n_vars(self) -> int:
        return self.n_u + self.n_z + 1

    def u_index(self, r: int, i: int, j: int) -> int:
        return (r * self.d + i) * self.k + j

    def z_index(self, p: int, i: int, j: int) -> int:
        return self.n_u + (p * self.d + i) * self.k + j

    @property
    def t_index(self) -> int:
        return self.n_vars - 1

    def constraint_count(self) -> int:
        """Closed form: 2k cost rows + kd simplex rows + 4*C(k,2)*d*k
        linearizations + C(k,2) dispersion rows."""
        npairs = len(self.pairs)
        return 2 * self.k + self.k * self.d + 4 * npairs * self.d * self.k + npairs

    def _triplets(self):
        """The program for a minimizing solver: its rows' nonzeros as
        row-major (rows, cols, vals), b_ub, the cost vector and the upper
        bounds (all lower bounds are 0). Rows below b_ub.size read A x <= b_ub,
        the k*d simplex rows after them A x = 1.

        Columns ascend within each row, and zero coefficients (a rank whose
        count ties the majority's, and every rank 0) are left out, so the
        triplets list exactly the nonzeros of the dense matrices.
        """
        k, dk, npairs = self.k, self.d * self.k, len(self.pairs)
        costs = self.costs.astype(float).ravel()  # indexed i*k + j
        nz = np.flatnonzero(costs)

        # deviation window per r: row 2r is sum u*c <= eps*opt, row 2r+1 is
        # -sum u*c <= 0 (vacuous, but part of the model)
        cost_rows = np.repeat(np.arange(2 * k), nz.size)
        cost_cols = np.tile(nz, 2 * k) + np.repeat(np.arange(k) * dk, 2 * nz.size)
        cost_vals = np.tile(np.concatenate([costs[nz], -costs[nz]]), k)

        # linearization: four rows per (pair, i, j) over the columns (u, u', z)
        # of candidates r < rr, which ascend in that order
        first, second = np.array(self.pairs).T
        q = np.arange(npairs * dk)  # z offset (p*d + i)*k + j
        ij = q % dk
        lin_cols = np.stack([first.repeat(dk) * dk + ij, second.repeat(dk) * dk + ij,
                             self.n_u + q], axis=1)
        lin_rows = np.repeat(2 * k + np.arange(4 * q.size), 3)
        lin_cols = np.repeat(lin_cols, 4, axis=0).ravel()
        signs = [[-1.0, -1.0, 1.0],  # z - u - u' <= 0
                 [-1.0, 1.0, -1.0],  # u' - u - z <= 0
                 [1.0, -1.0, -1.0],  # u - u' - z <= 0
                 [1.0, 1.0, 1.0]]  # z + u + u' <= 2
        lin_vals = np.tile(np.ravel(signs), q.size)

        # dispersion per pair: 2t - sum z <= 0
        disp_row0 = 2 * k + 4 * q.size
        disp_rows = np.repeat(disp_row0 + np.arange(npairs), dk + 1)
        disp_cols = np.concatenate(
            [self.n_u + q.reshape(npairs, dk),
             np.full((npairs, 1), self.t_index)], axis=1).ravel()
        disp_vals = np.tile(np.append(np.full(dk, -1.0), 2.0), npairs)

        # simplex: each (r, i) picks one rank
        u = np.arange(self.n_u)
        n_ub = disp_row0 + npairs
        triplets = (np.concatenate([cost_rows, lin_rows, disp_rows, n_ub + u // k]),
                    np.concatenate([cost_cols, lin_cols, disp_cols, u]),
                    np.concatenate([cost_vals, lin_vals, disp_vals, np.ones(self.n_u)]))
        b_ub = np.zeros(n_ub)
        # no assignment deviates by more than n*d, so the clamp keeps the
        # feasible set, and the bound stays a finite float at any eps
        b_ub[0:2 * k:2] = float(min(self.epsilon * self.opt, self.n * self.d))
        b_ub[2 * k + 3:disp_row0:4] = 2.0
        cost = np.zeros(self.n_vars)
        cost[self.t_index] = -1.0  # maximize t
        upper = np.ones(self.n_vars)
        upper[self.t_index] = float(self.d)
        return triplets, b_ub, cost, upper

    def to_matrices(self):
        """(c, A_ub, b_ub, A_eq, b_eq, bounds) for a minimizing solver, with
        A_ub and A_eq dense: the model as scipy.optimize.linprog takes it, for
        tests and small models."""
        (rows, cols, vals), b_ub, cost, upper = self._triplets()
        a = np.zeros((b_ub.size + self.k * self.d, self.n_vars))
        a[rows, cols] = vals
        bounds = [(0.0, x) for x in upper.tolist()]
        return cost, a[:b_ub.size], b_ub, a[b_ub.size:], np.ones(self.k * self.d), bounds


def build_ilp(ctx: MedianContext, budget: Budget, k: int) -> IlpModel:
    """Rank the top-k characters per index and assemble the program."""
    if k < 2:
        raise ValidationError("k must be >= 2")
    if k > len(ctx.alphabet):
        raise ValidationError(
            f"k={k} exceeds the alphabet size {len(ctx.alphabet)}; "
            "per-index character ranks would be undefined"
        )
    ranked = ctx.rank[:, :k]
    return IlpModel(
        k=k, n=ctx.n, d=ctx.d, opt=ctx.opt, epsilon=budget.epsilon,
        ranked=ranked, costs=np.take_along_axis(ctx.cost, ranked, axis=1),
    )


def _highs_core():
    """HiGHS's pybind11 binding as scipy ships it, loaded without running the
    scipy.optimize package (whose import, scipy.sparse included, costs more
    than most of the LP solves here).

    The module is created under scipy's own name and entered in sys.modules
    before it runs, so a later `import scipy.optimize` reuses it instead of
    initialising the extension again, which pybind11 refuses ("type ... is
    already registered").
    """
    core = sys.modules.get(_HIGHS_CORE)
    if core is not None:
        return core
    scipy = importlib.util.find_spec("scipy")
    where = [os.path.join(p, "optimize", "_highspy")
             for p in (scipy.submodule_search_locations or ())] if scipy else []
    found = PathFinder.find_spec("_core", where)
    if found is None:
        raise ImportError(f"the LP relaxation needs scipy>=1.15, which ships HiGHS "
                          f"as {_HIGHS_CORE}; it was not found")
    spec = importlib.util.spec_from_file_location(_HIGHS_CORE, found.origin)
    core = importlib.util.module_from_spec(spec)
    sys.modules[_HIGHS_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_HIGHS_CORE]
        raise
    return core


def _highs(cost, upper, row_lower, row_upper, start, index, value):
    """Minimize cost @ x subject to row_lower <= A x <= row_upper and
    0 <= x <= upper, with A row-wise (start, index, value): HiGHS's dual
    simplex after presolve, HiGHS's defaults otherwise, silent. These are the
    model and options scipy.optimize.linprog(method="highs") passes.

    Returns (model status, message, x), x None unless the status is optimal.
    """
    core = _highs_core()
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
    lp.num_row_ = lp.a_matrix_.num_row_ = row_upper.size
    lp.a_matrix_.format_ = core.MatrixFormat.kRowwise
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(cost.size)
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    options = core.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    highs = core._Highs()
    highs.passOptions(options)
    if highs.passModel(lp) == core.HighsStatus.kError:
        status = core.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    message = highs.modelStatusToString(status)
    if status != core.HighsModelStatus.kOptimal:
        return status, message, None
    return status, message, np.array(highs.getSolution().col_value)


def linprog(model: IlpModel) -> np.ndarray:
    """The relaxation's optimal vertex: x[v] for every variable index v.

    The model goes to HiGHS row-wise, as _triplets lists it, inequality rows
    first. A vertex HiGHS calls optimal must still meet every bound and row
    within _FEAS_TOL, checked against the model here.
    """
    core = _highs_core()
    (rows, cols, vals), b_ub, cost, upper = model._triplets()
    n_eq = model.k * model.d
    row_lower = np.concatenate([np.full(b_ub.size, -core.kHighsInf), np.ones(n_eq)])
    row_upper = np.concatenate([b_ub, np.ones(n_eq)])
    start = np.zeros(row_upper.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=row_upper.size), out=start[1:])
    status, message, x = _highs(cost, upper, row_lower, row_upper, start,
                                cols.astype(np.int32), vals)
    if status in (core.HighsModelStatus.kInfeasible, core.HighsModelStatus.kModelError):
        # The all-majority assignment (u_{ri1}=1, z=0, t=0) satisfies every
        # constraint, so infeasibility means the model was built wrong.
        raise InfeasibleError(f"LP reported infeasible: {message}")
    if x is None:
        raise SolverNotConverged(f"LP solver did not converge: {message}")
    ax = np.bincount(rows, weights=vals * x[cols], minlength=row_upper.size)
    if not (np.isfinite(x).all() and (x >= -_FEAS_TOL).all()
            and (x <= upper + _FEAS_TOL).all() and (ax >= row_lower - _FEAS_TOL).all()
            and (ax <= row_upper + _FEAS_TOL).all()):
        raise SolverNotConverged(
            f"HiGHS reported {message}, but its solution misses a bound or a row "
            f"by more than {_FEAS_TOL:g}")
    return x


def solve_lp_relaxation(model: IlpModel) -> tuple[np.ndarray, float]:
    """Optimal fractional assignment and lp_value = 2 * t-tilde, from HiGHS
    (see linprog).

    The assignment is a (k, d, k) array: u[r] is candidate r's d-by-k
    row-stochastic matrix of relaxed u values. The all-majority assignment is
    feasible in every model build_ilp makes, so InfeasibleError (HiGHS proved
    there is no feasible point) means a model built wrong, and
    SolverNotConverged means HiGHS stopped short of an optimal vertex that
    meets every bound and row within 1e-9.
    """
    x = linprog(model)
    # u[r, i, j] = x[u_index(r, i, j)]
    u = x[:model.n_u].reshape(model.k, model.d, model.k)
    return u, 2.0 * float(x[model.t_index])


def _walk(rows: list[list[int]], cols: list[list[int]], top: int) -> list[tuple[int, int]]:
    """A cycle, or a maximal path, over the strictly fractional entries.

    Vertices are rows (d side) and columns (k side); entries are edges, and
    rows[i] / cols[j] list the fractional entries of row i / column j in
    ascending order. The walk starts at the first degree-1 column, else at row
    `top`, the first row with a fractional entry. Rows always carry 0 or >= 2
    fractional entries (their sums are integral), so degree-1 vertices — and
    hence path endpoints — live on the column side, which has no sum to
    preserve.

    The walk stops when it comes back to a vertex, so the only used edge at the
    vertex it stands on is the one it arrived by: it leaves by the first entry
    of that vertex's list other than the one it came from.
    """
    start = next((j for j, adj in enumerate(cols) if len(adj) == 1), None)
    on_row = start is None
    v = top if on_row else start
    seen_rows: dict[int, int] = {}  # vertex -> walk length when reached
    seen_cols: dict[int, int] = {}
    (seen_rows if on_row else seen_cols)[v] = 0
    walk: list[tuple[int, int]] = []
    prev = -1
    while True:
        adj = rows[v] if on_row else cols[v]
        u = adj[0]
        if u == prev:
            if len(adj) == 1:
                return walk  # maximal path: stuck at a degree-exhausted vertex
            u = adj[1]
        walk.append((v, u) if on_row else (u, v))
        on_row = not on_row
        seen = seen_rows if on_row else seen_cols
        if u in seen:
            return walk[seen[u]:]  # closed a cycle; drop the tail
        seen[u] = len(walk)
        prev, v = v, u


def dependent_round(frac: Sequence[Sequence[float]] | np.ndarray, seed) -> np.ndarray:
    """Round a row-stochastic matrix to one 1 per row, preserving marginals.

    Repeatedly picks a cycle or maximal path among fractional entries, splits
    it into the two alternating matchings, and shifts mass one way or the
    other with the probabilities that keep every entry's expectation fixed.
    Each step lands at least one entry on 0 or 1. Row sums never move (paths
    end on the column side), so the output has exactly one 1 per row.

    A step costs time linear in its walk. The matrix is snapped once; after
    that only the entries on the walk move, so only they are snapped again,
    and an entry that lands on 0 or 1 leaves the per-row and per-column lists
    of fractional entries for good. The loop runs on Python floats, whose
    arithmetic is the same IEEE float64 arithmetic as numpy's.
    """
    arr = np.array(frac, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise ValidationError("expected a 2-D matrix")
    sums = arr.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _ROW_TOL):
        raise ValidationError("matrix rows must each sum to 1")
    arr /= sums[:, None]
    rng = np.random.default_rng(seed)
    arr[np.abs(arr) <= _SNAP] = 0.0
    arr[np.abs(arr - 1.0) <= _SNAP] = 1.0
    d, k = arr.shape
    rows: list[list[int]] = [[] for _ in range(d)]  # fractional columns, ascending
    cols: list[list[int]] = [[] for _ in range(k)]  # fractional rows, ascending
    ii, jj = np.nonzero((arr > 0.0) & (arr < 1.0))
    for i, j in zip(ii.tolist(), jj.tolist()):
        rows[i].append(j)
        cols[j].append(i)
    val = arr.tolist()
    top = 0  # first row with a fractional entry; rows only lose entries
    while True:
        while top < d and not rows[top]:
            top += 1
        if top == d:
            break
        walk = _walk(rows, cols, top)
        m1, m2 = walk[0::2], walk[1::2]
        up1 = min(1.0 - val[i][j] for i, j in m1)
        down2 = min((val[i][j] for i, j in m2), default=math.inf)
        alpha = min(up1, down2)
        down1 = min(val[i][j] for i, j in m1)
        up2 = min((1.0 - val[i][j] for i, j in m2), default=math.inf)
        beta = min(down1, up2)
        if rng.random() < beta / (alpha + beta):
            for i, j in m1:
                val[i][j] += alpha
            for i, j in m2:
                val[i][j] -= alpha
        else:
            for i, j in m1:
                val[i][j] -= beta
            for i, j in m2:
                val[i][j] += beta
        for i, j in walk:
            x = val[i][j]
            if abs(x) <= _SNAP:
                x = val[i][j] = 0.0
            elif abs(x - 1.0) <= _SNAP:
                x = val[i][j] = 1.0
            if not 0.0 < x < 1.0:
                rows[i].remove(j)
                del cols[j][bisect_left(cols[j], i)]
    return np.array(val, dtype=float).reshape(d, k).astype(np.int64)


@dataclass(frozen=True)
class LpReport:
    lp_value: float
    regime_plausible: bool
    trials: int
    kept: int
    chosen_trial: int


def _lp_plausible(t_up: Fraction, delta: Fraction, k: int, d: int) -> bool:
    """Necessary condition for the LP regime, from the t* upper bound.

    The regime needs t* >= ((8+4delta)/delta) * sqrt(d) * (2*log2(k) + 2);
    since t* <= t_up, the test uses t_up, squared to stay rational, with
    ceil(log2 k) on the right. Failing it proves the regime is out of reach.
    """
    lg = max(0, (k - 1).bit_length())  # ceil(log2 k)
    lhs = (t_up * delta) ** 2
    rhs = ((8 + 4 * delta) * (2 * lg + 2)) ** 2 * d
    return lhs >= rhs


def lp_min_dispersion(
    ctx: MedianContext,
    budget: Budget,
    k: int,
    delta: Fraction,
    eta: Fraction,
    seed: int,
) -> tuple[CandidateSet, LpReport]:
    """Solve the relaxation once, round N = ceil(log2(1/eta)) times, keep the
    best trial whose members all cost at most (1+eps+delta)*opt (exact check).
    Trial t rounds candidate r with seed [seed, t, r]; core.best_trial picks.

    Raises InfeasibleError when no trial passes the cost filter. The report
    says whether the guarantee's t* precondition was even plausible on this
    instance.
    """
    delta, eta = Fraction(delta), Fraction(eta)
    cfg = SampleConfig(k=k, delta=delta, eta=eta, seed=seed)  # validates ranges
    model = build_ilp(ctx, budget, k)
    frac, lp_value = solve_lp_relaxation(model)

    cap = (1 + budget.epsilon + delta) * ctx.opt  # exact rational threshold

    def draw(trial: int) -> np.ndarray | None:
        picks = [dependent_round(frac[r], seed=[seed, trial, r]) for r in range(k)]
        members = model.ranked[np.arange(ctx.d), np.argmax(picks, axis=2)]
        return members if int(ctx.costs_of(members).max()) <= cap else None

    chosen, members, kept = best_trial(cfg.trials, draw)
    if members is None:
        raise InfeasibleError(
            f"none of {cfg.trials} rounding trials met the (1+eps+delta) cost cap"
        )
    report = LpReport(
        lp_value=lp_value,
        regime_plausible=_lp_plausible(tstar_upper_bound(ctx, budget), delta, k, ctx.d),
        trials=cfg.trials,
        kept=kept,
        chosen_trial=chosen,
    )
    return CandidateSet.from_members(ctx, members), report
