"""k medians maximizing sum dispersion.

Three engines share this module: a closed-form construction over the tie
structure (exact medians), a budgeted density-greedy for approximate medians
(modification ops sorted by gain/cost, longest feasible prefix assigned by a
cost-greedy pass), and a pairwise-sum greedy over an enumerated pool for
instances whose diameter is too small for the density analysis to bite.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .core import (
    Budget,
    CandidateSet,
    Dataset,
    FarthestPairs,
    MedianContext,
    ValidationError,
    distances_to,
)


def sum_dispersion_exact_k(ctx: MedianContext, k: int) -> CandidateSet:
    """k exact medians with maximum sum dispersion, by balanced tie layout.

    Per tie index the k symbols are spread as evenly as possible over the
    majority set: k mod g symbols appear floor(k/g)+1 times, the rest
    floor(k/g) times. Even spreading maximizes k^2 - sum of squared counts.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    base, q = np.divmod(k, ctx.majority_sizes)
    # member j takes the symbol at position pos[j] of the majority set (alphabet
    # order): the first q positions hold base+1 members each, the rest base
    j = np.arange(k)[:, None]
    wide = q * (base + 1)
    pos = np.where(j < wide, j // (base + 1), q + (j - wide) // np.maximum(base, 1))
    return CandidateSet.from_members(ctx, ctx.rank[np.arange(ctx.d), pos])


def build_oplist(ctx: MedianContext, k: int) -> np.ndarray:
    """All useful modification ops, densest first, as an (m, 6) int64 matrix
    with the columns index, symbol, target_count, majority_count, cost, key.

    An op sets candidate #target_count's symbol at index to symbol (a code).
    majority_count is how many candidates still hold the column majority
    symbol just before it runs; its sum-dispersion gain is majority_count -
    target_count, and its density is gain per unit cost (zero-cost ops count
    as infinitely dense).

    The k slots (majority_count = k..1) run as passes over the (d, |Σ|)
    table, one symbol column at a time: each slot gives every index still
    gaining the symbol of maximum density (ties: cheaper cost, then alphabet
    order; zero-cost ops compare by gain). Densities compare by integer
    cross-multiplication, g * c' against g' * c (each side at most k * n,
    far inside int64). An index drops out as soon as no conversion gains
    anything, which also keeps one op per (index, majority_count).

    The global order is density descending, then cost ascending, then index,
    symbol code, target_count: the distinct densities are ranked once, in
    exact arithmetic, and one lexsort orders the ops. Within one index the
    recorded finite densities strictly decrease, so the order never reorders
    a per-index chain. key numbers the distinct (cost, index, symbol) triples
    in the order cost_greedy_assign walks them: ascending cost, then index,
    then symbol *string* (not alphabet position).
    """
    d, sigma = ctx.cost.shape
    other = np.arange(sigma) != ctx.rank[:, :1]  # (d, sigma): every symbol but w_i
    counts = np.zeros((d, sigma), dtype=np.int64)  # ops so far per (index, symbol)
    live = np.arange(d)
    slots = [np.zeros((5, 0), dtype=np.int64)]
    for ell in range(k, 0, -1):
        gain, costs = ell - 1 - counts[live], ctx.cost[live].astype(np.int64)
        ok = other[live] & (gain >= 1)
        # best op so far per live index; gain 0 at cost 1 loses to every op
        bg = np.zeros(len(live), dtype=np.int64)
        bc = np.ones(len(live), dtype=np.int64)
        ba = np.full(len(live), -1, dtype=np.int64)
        for a in range(sigma):
            g, ca = gain[:, a], costs[:, a]
            cross = g * bc - bg * ca
            better = ok[:, a] & np.where(
                ca == 0,
                (bc > 0) | (g > bg),
                (bc > 0) & ((cross > 0) | ((cross == 0) & (ca < bc))),
            )
            bg[better], bc[better], ba[better] = g[better], ca[better], a
        hit = ba >= 0
        live, a, c = live[hit], ba[hit], bc[hit]
        if not len(live):
            break  # gains only shrink from here
        counts[live, a] += 1
        slots.append(np.stack([live, a, counts[live, a], np.full_like(live, ell), c]))
    index, symbol, target, majority, cost = np.concatenate(slots, axis=1)

    gain, paid = majority - target, cost > 0
    stride = int(cost.max(initial=0)) + 1
    pairs, pair_of = np.unique(gain[paid] * stride + cost[paid], return_inverse=True)
    dens = [Fraction(p // stride, p % stride) for p in pairs.tolist()]
    rank = {f: r for r, f in enumerate(sorted(set(dens), reverse=True))}
    dens_rank = np.zeros(len(cost), dtype=np.int64)
    dens_rank[paid] = np.array([rank[f] for f in dens], dtype=np.int64)[pair_of]

    by_string = np.empty(sigma, dtype=np.int64)
    by_string[sorted(range(sigma), key=ctx.alphabet.__getitem__)] = np.arange(sigma)
    walk = np.lexsort((by_string[symbol], index, cost))
    # one cost per (index, symbol), so a new triple is a new (index, symbol)
    step = np.ones(len(walk), dtype=np.int64)
    step[1:] = (np.diff(index[walk]) != 0) | (np.diff(symbol[walk]) != 0)
    key = np.empty(len(walk), dtype=np.int64)
    key[walk] = np.cumsum(step) - 1

    order = np.lexsort((target, symbol, index, cost, dens_rank, paid))
    return np.stack([index, symbol, target, majority, cost, key], axis=1)[order]


def cost_greedy_assign(
    ctx: MedianContext, budget: Budget, k: int, prefix: np.ndarray
) -> tuple[CandidateSet, bool]:
    """Realize an op-list prefix on k candidate strings, cheapest seats first.

    For each key (c, i, a) that it holds h times, the prefix wants h
    candidates carrying symbol a at index i, at cost c. The keys are walked
    in key order (ascending cost, then index, then symbol string); each
    assigns its h cheapest candidates, by (weight, seat), that still hold w_i
    at i and whose budget survives the surcharge. The walk stops at the first
    key that falls short and flags the prefix infeasible; the candidates it
    returns then carry only the keys seated before it.
    """
    index, symbol, _, _, cost, key = prefix.T
    need = np.bincount(key)
    keys = np.flatnonzero(need)
    row = np.empty(len(need), dtype=np.int64)
    row[key] = np.arange(len(key))  # one op of each key
    row = row[keys]

    # seat y sorts by weight * k + y, i.e. by (weight, seat), and its weight
    # plus a surcharge c stays within budget iff that key + c * k < limit
    limit = (budget.floor + 1) * k
    seat_key = list(range(k))
    seats = list(range(k))  # ascending seat_key
    holding = [(1 << k) - 1] * ctx.d  # per index, bit y set while seat y holds w_i
    w = ctx.rank[:, 0].tolist()
    members = [w[:] for _ in range(k)]  # codes, one list per candidate
    for c, i, a, h in zip(cost[row].tolist(), index[row].tolist(),
                          symbol[row].tolist(), need[keys].tolist()):
        mask, step = holding[i], c * k
        take = []
        for y in seats:
            if seat_key[y] + step >= limit:
                break  # every later seat is at least as heavy
            if mask >> y & 1:
                take.append(y)
                if len(take) == h:
                    break
        if len(take) < h:
            return CandidateSet.from_members(ctx, members), False
        for y in take:
            seat_key[y] += step
            mask ^= 1 << y
            members[y][i] = a
        holding[i] = mask
        if step:
            seats.sort(key=seat_key.__getitem__)
    return CandidateSet.from_members(ctx, members), True


def sum_dispersion_approx_k(
    ctx: MedianContext, budget: Budget, k: int
) -> tuple[CandidateSet, int]:
    """k approximate medians with (near-)maximum sum dispersion.

    Probes the whole op list first and keeps it when it is feasible.
    Otherwise binary-searches the longest feasible prefix over [0, m] and
    keeps the candidates of the last feasible probe (the empty prefix is
    always feasible).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    oplist = build_oplist(ctx, k)
    cands, feasible = cost_greedy_assign(ctx, budget, k, oplist)
    if feasible:
        return cands, cands.sum_dispersion()
    lo, hi = 0, len(oplist)
    best = None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        cands, feasible = cost_greedy_assign(ctx, budget, k, oplist[:mid])
        if feasible:
            lo, best = mid, cands
        else:
            hi = mid - 1
    if best is None:
        best, _ = cost_greedy_assign(ctx, budget, k, oplist[:0])
    return best, best.sum_dispersion()


def sum_dispersion_small_dstar(ctx: MedianContext, k: int, pool: Dataset) -> CandidateSet:
    """Greedy pairwise-sum pick of k pool members (duplicates fill shortfalls).

    Farthest-pair matching while two or more seats remain, then single
    insertions maximizing the summed distance to the chosen set. Half the
    optimum on every pool small enough to check exhaustively; no stronger
    claim is made. Each matching round picks the row-major first farthest
    pair of the available strings, from per-row farthest partners kept
    across rounds (core.FarthestPairs): after a pair is taken, only the rows
    whose partner it held are computed again. Memory is the pool's p*d code
    bytes, a copy of its varying columns and O(core.BLOCK_BYTES) for the
    inner-product kernel, plus vectors of p entries, one of them the summed
    distances for the insertions. The k chosen rows are passed on as codes.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if pool.n == 0:
        raise ValidationError("candidate pool is empty")
    if pool.n == 1 or k == 1:
        return CandidateSet.from_members(ctx, pool.codes[[0] * k])

    codes = pool.codes
    pairs = FarthestPairs(codes, np.arange(pool.n))
    chosen: list[int] = []
    while k - len(chosen) >= 2 and pairs.avail.sum() >= 2:
        i, j = pairs.pair()
        if i == j:  # only copies of one string left available; go to insertion
            break
        chosen.extend((i, j))
        pairs.take(i, j)
    gains = np.zeros(pool.n, dtype=np.int64)  # summed distance to the chosen
    for c in chosen:
        gains += distances_to(codes, c)
    while len(chosen) < k:
        chosen.append(int(np.argmax(gains)))  # duplicates allowed: argmax over all
        gains += distances_to(codes, chosen[-1])
    return CandidateSet.from_members(ctx, pool.codes[chosen])

