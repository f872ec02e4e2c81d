"""k medians maximizing min dispersion.

Engines: exact dynamic programs over pairwise-distance states (with and
without a cost budget), best-of-N uniform samplers, farthest-point greedy
over an enumerated pool, and Plotkin-style certificates bounding what any
algorithm could achieve. The `auto` tests of the cli.STRATEGY_TABLE rows
pick an engine from (k, delta) and the instance's diameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_LIMITS,
    Budget,
    CandidateSet,
    Dataset,
    EnumerationLimits,
    FarthestPairs,
    InternalError,
    KeyWidthExceeded,
    MedianContext,
    SHOWN_DIGITS,
    ValidationError,
    best_by_min_distance,
    distances_to,
    pool_greedy,
    row_blocks,
)

if TYPE_CHECKING:  # an annotation only: a run without a diameter pair never loads it
    from .diameter import DiameterResult


def _check_dp_state(
    ctx: MedianContext, distances: Sequence[int], costs: Sequence[int], codes: np.ndarray
) -> None:
    """The DP's final state read off its key against the members it walked
    back to: their pairwise distances in combinations(range(k), 2) order, one
    distances_to vector per member, or, when every distance is 0, one check
    that every member equals the first; and each member's cost above opt."""
    k, at = len(codes), 0
    if len(distances) != k * (k - 1) // 2:
        raise InternalError("DP state: distances differ from the members'")
    if not np.any(distances):
        if not (codes == codes[0]).all():
            raise InternalError("DP state: distances differ from the members'")
    else:
        for r in range(k - 1):  # the pairs (r, s) with s > r
            row = distances_to(codes[r:], 0)[1:]
            if not np.array_equal(distances[at : at + len(row)], row):
                raise InternalError("DP state: distances differ from the members'")
            at += len(row)
    if tuple(costs) != tuple((ctx.costs_of(codes) - ctx.opt).tolist()):
        raise InternalError("DP state: costs differ from the members'")


@dataclass(frozen=True)
class SampleConfig:
    k: int
    delta: Fraction
    eta: Fraction
    seed: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValidationError("sampling needs k >= 2")
        if not 0 < self.delta < 1:
            raise ValidationError("delta must lie in (0, 1)")
        if not 0 < self.eta < 1:
            raise ValidationError("eta must lie in (0, 1)")

    @property
    def trials(self) -> int:
        """N = ceil(log2(1/eta)), at least 1 — exact integer arithmetic."""
        inv = 1 / self.eta
        n = 1
        while (1 << n) * inv.denominator < inv.numerator:
            n += 1
        return n


@dataclass(frozen=True)
class BoundCertificate:
    alphabet_sizes: tuple[int, ...]
    plotkin_sum: Fraction
    t: int
    max_code_size: int | None  # None = bound inapplicable at this t
    tstar_upper: Fraction | None = None  # None = no dataset to bound t* from


# ---------------------------------------------------------------------------
# DPs


def min_disp_dp_exact(
    ctx: MedianContext, k: int, *, limits: EnumerationLimits = DEFAULT_LIMITS
) -> tuple[int, CandidateSet]:
    """Exact max minDp over k-tuples of exact medians: min_disp_dp_approx at B = 0."""
    return min_disp_dp_approx(ctx, Budget.make(0, ctx.opt), k, limits=limits)


def min_disp_dp_approx(
    ctx: MedianContext,
    budget: Budget,
    k: int,
    *,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> tuple[int, CandidateSet]:
    """Exact max minDp over k-tuples of (1+eps)-approximate medians.

    State: the k(k-1)/2 pairwise distances accumulated column by column, and
    each candidate's deviation weight, capped at B = floor(eps * opt); every
    surviving final state is feasible by construction. Per-column
    assignments collapsing to the same increment pattern are interchangeable
    for the remaining columns, so only one representative per pattern
    transitions. With T the number of columns holding a second symbol of
    cost <= B, the precheck bounds every layer by
    (T+1)^(k(k-1)/2) * (B+1)^k <= max_states/(d+1) states. At B = 0 this is
    the exact-median DP.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    cap = budget.floor
    dist, cost, codes = _dp_kernel(ctx, cap, k, limits)
    _check_dp_state(ctx, dist, cost, codes)
    return int(np.min(dist)), CandidateSet.from_members(ctx, codes)


def _dp_kernel(
    ctx: MedianContext, cap: int, k: int, limits: EnumerationLimits
) -> tuple[Sequence[int], Sequence[int], np.ndarray]:
    """The DP behind min_disp_dp_approx, over int64 state keys.

    Column i offers its admissible symbols, those whose ``ctx.cost`` is at
    most `cap`: the first ones of ``ctx.rank[i]``. Each candidate carries a
    cost digit, the summed cost of its symbols, which may not pass `cap`. At
    cap 0 the admissible symbols are the majority set and every cost digit
    stays 0: the exact-median DP. Only the T columns with two or more
    admissible symbols can grow a distance: on any other column every
    candidate takes w_i and the layer is unchanged, so the DP skips it. The
    precheck refuses (d+1) * (T+1)^(k(k-1)/2) * (cap+1)^k > max_states in
    exact integers, decided from T, k and cap before any allocation.

    A state is one int64 in mixed radix: a digit of radix T+1 per pair
    distance, in combinations(range(k), 2) order, most significant first,
    then a digit of radix cap+1 per candidate cost. Numeric key order is then
    the order of the (distances, costs) tuples.

    Each layer lists its keys in order of first occurrence over (state,
    pattern) row-major, with each column's assignments in product order over
    its admissible symbols in alphabet order: the insertion order of a dict
    filled state by state, pattern by pattern. Extra memory is the live layer
    plus one block of candidate keys (core.BLOCK_BYTES), plus a parent index
    and a pattern id per state for the walk back.

    Returns the final state with the largest minimum distance (largest key on
    ties) as (distances, costs), and the (k, d) codes of the members reaching
    it. With no tie column the distances are one broadcast 0, so no C(k, 2)
    object is built.
    """
    d = ctx.d
    npairs = k * (k - 1) // 2
    admissible = (ctx.cost <= min(cap, ctx.n)).sum(axis=1)  # no cost exceeds n
    ties = np.flatnonzero(admissible >= 2)
    top = len(ties)
    # Keys stay below R = (T+1)^C(k,2) * (B+1)^k, and key + offset below 2R.
    # R >= 2^low; past 2^room it exceeds max_states and every amount stated in
    # digits, so 2^room stands in for it and R is never formed.
    low = npairs * ((top + 1).bit_length() - 1) + k * ((cap + 1).bit_length() - 1)
    room = max(limits.max_states.bit_length(), (10**SHOWN_DIGITS).bit_length())
    size = (top + 1) ** npairs * (cap + 1) ** k if low <= room else 1 << room
    limits.check("max_states", (d + 1) * size,
                 f"state space (d+1)*(T+1)^(k(k-1)/2)*(B+1)^k with T={top} tie columns")
    if size > 2**62:
        raise KeyWidthExceeded(
            f"DP state keys would need more than 63 bits ({top + 1}^{npairs} "
            f"distance digits); no max_states lets this DP run on this input"
        )
    # every candidate takes w_i on a column with one admissible symbol; the
    # others are read back from the DP steps
    codes = np.tile(ctx.rank[:, 0], (k, 1))
    if not top:  # no layer: the one state is C(k, 2) zero distances, k zero costs
        return np.broadcast_to(0, npairs), (0,) * k, codes
    pairs = list(combinations(range(k), 2))
    radices = [top + 1] * npairs + [cap + 1] * k
    weights = [1] * len(radices)
    for j in range(len(radices) - 2, -1, -1):
        weights[j] = weights[j + 1] * radices[j + 1]
    weights = np.array(weights, dtype=np.int64)
    w_dist, w_cost = weights[:npairs], weights[npairs:]
    keys = np.zeros(1, dtype=np.int64)
    steps: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    for i in ties.tolist():
        symbols = np.sort(ctx.rank[i, : admissible[i]])  # alphabet order
        # every assignment of k symbols, in product(symbols, repeat=k) order
        assign = symbols[np.indices((len(symbols),) * k).reshape(k, -1).T]
        offsets = sum((assign[:, r] != assign[:, s]) * w for (r, s), w in zip(pairs, w_dist))
        add = ctx.cost[i][assign]
        offsets = offsets + add @ w_cost
        # one pattern per distinct offset, represented by its first assignment
        offsets, rep = np.unique(offsets, return_index=True)
        order = np.argsort(rep)
        offsets, rep = offsets[order], rep[order]
        add = add[rep]
        live = len(keys)
        keys, first = _next_layer(keys, offsets, add, w_cost, cap)
        parent, pattern = np.divmod(first, len(offsets))
        steps.append((
            i,
            parent.astype(np.min_scalar_type(live)),
            pattern.astype(np.min_scalar_type(len(offsets))),
            assign[rep],
        ))

    mins = np.min([keys // w % (top + 1) for w in w_dist], axis=0)
    best = int(np.lexsort((keys, mins))[-1])
    key = int(keys[best])
    digits = tuple(key // int(w) % r for w, r in zip(weights, radices))
    for i, parent, pattern, assign in reversed(steps):
        codes[:, i] = assign[pattern[best]]
        best = int(parent[best])
    return digits[:npairs], digits[npairs:], codes


def _next_layer(
    keys: np.ndarray, offsets: np.ndarray, add: np.ndarray, w_cost: np.ndarray, cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One DP layer: the distinct keys `keys[s] + offsets[p]` in order of first
    occurrence over (s, p) row-major, with that flat index s * P + p.

    `add` (P, k) holds each pattern's cost digits; a candidate whose cost digit
    would pass `cap` is dropped.
    """
    npat = len(offsets)
    new = first = None
    for rows in row_blocks(len(keys), 8 * npat):
        block = keys[rows]
        fits = np.ones((len(block), npat), dtype=bool)
        for r, wt in enumerate(w_cost):
            fits &= (block // wt % (cap + 1))[:, None] <= cap - add[:, r]
        pos = np.flatnonzero(fits)
        cand, idx = np.unique((block[:, None] + offsets).ravel()[pos], return_index=True)
        idx = pos[idx] + rows.start * npat
        if new is None:
            new, first = cand, idx
        else:
            # the keys so far come first, so a repeat keeps its earlier index;
            # both runs are sorted, so the stable sort inside is one merge
            new, keep = np.unique(np.concatenate((new, cand)), return_index=True)
            first = np.concatenate((first, idx))[keep]
    order = np.argsort(first)
    return new[order], first[order]


# ---------------------------------------------------------------------------
# samplers


def _best_of_trials(
    ctx: MedianContext, cfg: SampleConfig, draw: Callable[[np.random.Generator], np.ndarray]
) -> tuple[CandidateSet, int]:
    """The best by minDp of N = cfg.trials (k, d) code matrices, trial t drawn
    from its own stream SeedSequence([seed, t]); ties to the earliest."""
    trials = [draw(np.random.default_rng([cfg.seed, t])) for t in range(cfg.trials)]
    best, val = best_by_min_distance(trials)
    return CandidateSet.from_members(ctx, trials[best]), val


def sample_exact_medians(ctx: MedianContext, cfg: SampleConfig) -> tuple[CandidateSet, int]:
    """Best of N trials of k uniform picks from each index's majority set.

    Every draw is an exact median by construction; only the dispersion is
    random. Target: (1 - delta) * sum_i (|Gamma_i| - 1)/|Gamma_i| whp.
    """
    sizes = ctx.majority_sizes.tolist()
    index = np.arange(ctx.d)[:, None]

    def draw(rng: np.random.Generator) -> np.ndarray:
        # picks[i, r]: candidate r's position in the majority set at index i
        picks = np.array([rng.integers(0, g, size=cfg.k) for g in sizes])
        return ctx.rank[index, picks].T

    return _best_of_trials(ctx, cfg, draw)


def sample_approx_medians(
    ctx: MedianContext, diameter: DiameterResult, cfg: SampleConfig
) -> tuple[CandidateSet, int]:
    """Best of N trials of coin-flip mixes of a maximum-diameter pair.

    `diameter` is approx_diameter_pair(ctx, budget), computed by the caller.
    Each candidate takes, at every index where the diameter pair deviates,
    either the deviating symbol or the majority symbol with probability 1/2.
    The two halves of the deviation set each fit one eps-budget, so every
    output is a (1+2eps)-approximate median deterministically.
    """
    y, z = diameter.codes
    w = ctx.rank[:, 0]
    devs = np.flatnonzero(y != z)
    dev_sym = np.where(y[devs] != w[devs], y[devs], z[devs])

    def draw(rng: np.random.Generator) -> np.ndarray:
        coins = rng.integers(0, 2, size=(cfg.k, len(devs)))
        codes = np.tile(w, (cfg.k, 1))
        codes[:, devs] = np.where(coins != 0, dev_sym, w[devs])
        return codes

    return _best_of_trials(ctx, cfg, draw)


# ---------------------------------------------------------------------------
# greedy over an enumerated pool


def greedy_dispersion(pool: Dataset, k: int, ctx: MedianContext) -> CandidateSet:
    """Farthest pair, then repeated farthest-point insertion (max-min greedy).

    Half the pool-restricted optimum. A pool smaller than k gets filled with
    duplicates (their min distance is 0, consistent with the multiset
    definition). The first pair is core.FarthestPairs(pool.codes).pair(),
    exact inner products over the pool's one-hot matrix. Memory is the
    pool's p*d code bytes, a copy of its varying columns and
    O(core.BLOCK_BYTES) for that kernel, plus core.pool_greedy's vector of each
    string's distance to its nearest chosen member. The k chosen rows are
    passed on as codes.
    """
    return pool_greedy(ctx, pool, k, np.minimum,
                       lambda codes: sorted(FarthestPairs(codes).pair()))


# ---------------------------------------------------------------------------
# certificates


def plotkin_certificate(
    alphabet_sizes: Sequence[int], t: int, tstar_upper: Fraction | None = None
) -> BoundCertificate:
    """Plotkin's code-size bound at pairwise distance >= t, with its inputs.

    With B = sum (g-1)/g over the per-index alphabet sizes (each >= 1): at
    t = B any code has at most 2 * sum(sizes) words; at t > B at most
    floor(t/(t-B)); below B the argument gives nothing (max_code_size None).
    """
    sizes = tuple(int(g) for g in alphabet_sizes)
    if any(g < 1 for g in sizes):
        raise ValidationError("alphabet sizes must be >= 1")
    if t < 0:
        raise ValidationError("t must be >= 0")
    b, q = sum((Fraction(g - 1, g) for g in sizes), Fraction(0)), Fraction(t)
    if q == b:
        bound = 2 * sum(sizes)
    elif q > b:
        bound = int(q / (q - b))  # floor of a positive rational
    else:
        bound = None
    return BoundCertificate(alphabet_sizes=sizes, plotkin_sum=b, t=t,
                            max_code_size=bound, tstar_upper=tstar_upper)


def plotkin_bound(alphabet_sizes: Sequence[int], t: int) -> int | None:
    """Code-size bound at pairwise distance >= t, or None when inapplicable
    (see plotkin_certificate)."""
    return plotkin_certificate(alphabet_sizes, t).max_code_size


def tstar_upper_bound(ctx: MedianContext, budget: Budget) -> Fraction:
    """Upper bound on the best achievable minDp: 4(1+eps)opt/n, exactly."""
    return 4 * (1 + budget.epsilon) * Fraction(ctx.opt, ctx.n)


def bound_certificate(ctx: MedianContext, budget: Budget, t: int) -> BoundCertificate:
    """The Plotkin certificate over the majority-set sizes, with tstar_upper."""
    return plotkin_certificate(ctx.majority_sizes.tolist(), t, tstar_upper_bound(ctx, budget))


# ---------------------------------------------------------------------------
# regime tests


def _diameter_at_least(dstar: int, delta: Fraction, k: int, add: int) -> bool:
    """Exact test of D* >= (4/delta^2) * (2*log2(k) + add).

    Equivalent to a >= c*log2(k) with a = D*p^2 - 4*add*q^2, c = 8q^2 for
    delta = p/q. The bit-length bracket settles almost every case; inside it
    a power of two k compares a with c*log2(k) in integers, and any other k
    the sign of a*ln(2) - c*ln(k), never 0, at a precision that doubles until
    it exceeds the rounding error. Neither 2^a nor k^c is formed.
    """
    p, q = delta.numerator, delta.denominator
    a = dstar * p * p - 4 * add * q * q
    c = 8 * q * q
    bits = k.bit_length()
    if a >= c * bits:
        return True  # log2 k < bit_length
    if a < c * (bits - 1):
        return False  # log2 k >= bit_length - 1
    if k & (k - 1) == 0:
        return a >= c * (bits - 1)
    prec = a.bit_length() // 3 + 30  # past the digits of a
    while True:
        with localcontext(Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN)):
            # ln is correctly rounded, and each rounding errs by under
            # 10^(1-prec) of a value below a + c*bits: a gap 100 times their
            # sum has the sign of the exact one
            gap = a * Decimal(2).ln() - c * Decimal(k).ln()
            if abs(gap) > (a + c * bits) * Decimal(10) ** (3 - prec):
                return gap > 0
        prec *= 2
