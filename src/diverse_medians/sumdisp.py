"""k medians maximizing sum dispersion.

Three engines share this module: a closed-form construction over the tie
structure (exact medians), a budgeted density-greedy for approximate medians
(modification ops sorted by gain/cost, longest feasible prefix assigned by a
cost-greedy pass), and a pairwise-sum greedy over an enumerated pool for
instances whose diameter is too small for the density analysis to bite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    Budget,
    CandidateSet,
    CapExceeded,
    Dataset,
    MedianContext,
    ValidationError,
    distances_to,
    farthest_pair,
)
from .diameter import approx_diameter_pair
from .oracle import DEFAULT_LIMITS, EnumerationLimits, approx_median_pool


@dataclass(frozen=True)
class ModOp:
    """One modification step: set candidate #target_count's symbol at index to
    symbol (a code over the context's alphabet).

    majority_count is how many candidates still hold the column majority
    symbol just before this op runs; the op's sum-dispersion gain is
    majority_count - target_count, and its density is gain per unit cost
    (zero-cost ops count as infinitely dense).
    """

    index: int
    symbol: int
    target_count: int
    majority_count: int
    cost: int

    @property
    def gain(self) -> int:
        return self.majority_count - self.target_count

    @property
    def density(self) -> Fraction | None:
        """Exact density, or None for the infinite (zero-cost) case."""
        if self.cost == 0:
            return None
        return Fraction(self.gain, self.cost)


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


def build_oplist(ctx: MedianContext, k: int) -> tuple[ModOp, ...]:
    """All useful modification ops, densest first.

    Per index we walk the k slots: with majority_count copies of the column
    majority left, the best conversion is the symbol with maximum density
    (ties: cheaper cost, then alphabet order; zero-cost ops compare by gain).
    Slots stop as soon as no conversion gains anything, which also dedupes
    (index, majority_count) pairs — each keeps only its max-density op.

    The global order is density descending, then cost ascending, then index,
    symbol code, target_count. Within one index the recorded finite densities
    strictly decrease, so the global sort never reorders a per-index chain.
    """
    sigma = len(ctx.alphabet)
    ops: list[ModOp] = []
    for i, (wi, costs) in enumerate(zip(ctx.rank[:, 0].tolist(), ctx.cost.tolist())):
        others = [a for a in range(sigma) if a != wi]
        counts = [0] * sigma
        for ell in range(k, 0, -1):
            best: tuple | None = None
            for a in others:
                gain = ell - (counts[a] + 1)
                if gain < 1:
                    continue
                c = costs[a]
                # rank: zero-cost tier first; inside a tier larger density wins,
                # then smaller cost, then alphabet order
                if c == 0:
                    key = (0, -gain, 0, a)
                else:
                    key = (1, -Fraction(gain, c), c, a)
                if best is None or key < best[0]:
                    best = (key, a, c)
            if best is None:
                break  # gains only shrink from here
            _, a, c = best
            counts[a] += 1
            ops.append(
                ModOp(index=i, symbol=a, target_count=counts[a], majority_count=ell, cost=c)
            )

    def sort_key(op: ModOp):
        if op.cost == 0:
            dens_rank: tuple = (0, Fraction(0))
        else:
            dens_rank = (1, -op.density)
        return (*dens_rank, op.cost, op.index, op.symbol, op.target_count)

    ops.sort(key=sort_key)
    return tuple(ops)


def cost_greedy_assign(
    ctx: MedianContext, budget: Budget, k: int, prefix: Sequence[ModOp]
) -> tuple[CandidateSet, bool]:
    """Realize an op-list prefix on k candidate strings, cheapest seats first.

    h[(c, i, a)] counts how many candidates the prefix wants carrying symbol a
    at index i, at cost c. Pairs are processed by ascending cost, then index,
    then symbol string (not alphabet position); each assigns its h cheapest
    candidates still holding w_i at i whose budget survives the surcharge.
    Falling short on any pair flags the prefix infeasible.
    """
    h: dict[tuple[int, int, int], int] = {}
    for op in prefix:
        key = (op.cost, op.index, op.symbol)
        h[key] = h.get(key, 0) + 1

    alpha = ctx.alphabet
    w = ctx.rank[:, 0].tolist()
    members = [w[:] for _ in range(k)]  # codes, one list per candidate
    weights = [0] * k  # deviation above opt, per candidate
    feasible = True
    for key in sorted(h, key=lambda cia: (cia[0], cia[1], alpha[cia[2]])):
        c, i, a = key
        wi = w[i]
        ranked = sorted(
            (y for y in range(k) if members[y][i] == wi and budget.within(weights[y] + c)),
            key=lambda y: (weights[y], y),
        )
        take = ranked[: h[key]]
        if len(take) < h[key]:
            feasible = False
        for y in take:
            members[y][i] = a
            weights[y] += c
    return CandidateSet.from_members(ctx, members), feasible


def sum_dispersion_approx_k(
    ctx: MedianContext, budget: Budget, k: int
) -> tuple[CandidateSet, int]:
    """k approximate medians with (near-)maximum sum dispersion.

    Binary-searches the longest feasible prefix of the op list (the empty
    prefix is always feasible).
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    oplist = build_oplist(ctx, k)
    m = len(oplist)

    def probe(j: int) -> tuple[CandidateSet, bool]:
        return cost_greedy_assign(ctx, budget, k, oplist[:j])

    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if probe(mid)[1]:
            lo = mid
        else:
            hi = mid - 1
    cands, _ = probe(lo)
    return cands, cands.sum_dispersion()


def sum_dispersion_small_dstar(ctx: MedianContext, k: int, pool: Dataset) -> CandidateSet:
    """Greedy pairwise-sum pick of k pool members (duplicates fill shortfalls).

    Farthest-pair matching while two or more seats remain, then single
    insertions maximizing the summed distance to the chosen set. Half the
    optimum on every pool small enough to check exhaustively; no stronger
    claim is made. Memory is the pool's p*d code bytes plus one distance
    block: each matching round streams farthest_pair over the available
    strings, and a running vector holds the summed distances for the
    insertions. The k chosen rows are passed on as codes.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if pool.n == 0:
        raise ValidationError("candidate pool is empty")
    if pool.n == 1 or k == 1:
        return CandidateSet.from_members(ctx, pool.codes[[0] * k])

    codes = pool.codes
    avail = np.ones(pool.n, dtype=bool)
    chosen: list[int] = []
    while k - len(chosen) >= 2 and avail.sum() >= 2:
        i, j = farthest_pair(codes, np.flatnonzero(avail))
        if i == j:  # only copies of one string left available; go to insertion
            break
        chosen.extend(sorted((i, j)))
        avail[i] = avail[j] = False
    gains = np.zeros(pool.n, dtype=np.int64)  # summed distance to the chosen
    for c in chosen:
        gains += distances_to(codes, c)
    while len(chosen) < k:
        chosen.append(int(np.argmax(gains)))  # duplicates allowed: argmax over all
        gains += distances_to(codes, chosen[-1])
    return CandidateSet.from_members(ctx, pool.codes[chosen])


def sum_dispersion_dispatch(
    ctx: MedianContext,
    budget: Budget,
    k: int,
    delta: Fraction,
    *,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> tuple[CandidateSet, str]:
    """Pick the right engine from the pool diameter: density when D* >= 4/delta.

    Returns the candidate set and the strategy tag: density, enumeration, or
    density_fallback when enumeration blows the candidate cap and the density
    engine runs anyway, with its unconditional (1 - 4/D*) bound.
    """
    if not 0 < delta:
        raise ValidationError("delta must be positive")
    dstar = approx_diameter_pair(ctx, budget).diameter
    if Fraction(dstar) >= Fraction(4) / Fraction(delta):
        cands, _ = sum_dispersion_approx_k(ctx, budget, k)
        return cands, "density"
    try:
        pool = approx_median_pool(ctx, budget, limits)
    except CapExceeded:
        cands, _ = sum_dispersion_approx_k(ctx, budget, k)
        return cands, "density_fallback"
    return sum_dispersion_small_dstar(ctx, k, pool), "enumeration"


def make_distinct(ctx: MedianContext, cands: CandidateSet) -> tuple[CandidateSet, bool]:
    """Optional post-pass: force pairwise-distinct members via tie indices.

    Stamps each member with a distinct bit pattern over ceil(log2 k) tie
    indices (majority symbol vs. first alternative — both cost 0, so every
    cost class is preserved). Returns (cands, False) untouched when the tie
    structure is too small to address k distinct patterns.
    """
    k = cands.k
    need = max(0, (k - 1).bit_length())
    ties = np.flatnonzero(ctx.majority_sizes >= 2)
    if len(ties) < need:
        return cands, False
    codes = cands.codes.copy()
    for b, i in enumerate(ties[:need].tolist()):
        codes[:, i] = np.where(np.arange(k) >> b & 1, ctx.rank[i, 1], ctx.rank[i, 0])
    return CandidateSet.from_members(ctx, codes), True
