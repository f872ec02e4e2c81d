"""Two maximally distant (approximate) medians.

The exact case reads the answer off the tie structure. The approximate case
sorts indices by deviation weight, fills two greedy budgets, and patches the
boundary with a minimum-difference partition when that lets one more index
join the pair's combined deviation set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Budget, Dataset, MedianContext, ValidationError


@dataclass(frozen=True, eq=False, kw_only=True)
class DiameterResult(Dataset):
    """The two strings, a ``Dataset`` of 2 rows over the context's alphabet
    (``pair`` decodes them: it is ``strings``), their distance and the
    branch that found them."""

    diameter: int
    branch: str  # "exact" | "greedy_SR" | "partitioned_T1T2"

    pair = Dataset.strings


def exact_diameter_pair(ctx: MedianContext) -> DiameterResult:
    """Most distant pair of exact medians: w vs. w flipped on every tie index.

    Flipping any subset of tie indices to alternative majority symbols stays
    an exact median, so the diameter is simply the number of tie indices.
    """
    ties = np.flatnonzero(ctx.majority_sizes >= 2)
    return DiameterResult(
        codes=_deviate(ctx, ties[:0], ties),  # on a tie index, rank[i, 1] is majority too
        alphabet=ctx.alphabet, diameter=len(ties), branch="exact",
    )


def min_diff_partition(
    T: Sequence[int], weights: Sequence[int]
) -> tuple[tuple[list[int], list[int]], tuple[int, int]]:
    """Split T into two parts with minimum weight-sum difference: returns the
    parts and their weight sums, the first sum at most the second.

    Classic subset-sum DP over target floor(total/2). The walk back decides
    item j by the bitset of sums reachable with the first j items; every
    ceil(sqrt(|T|))-th such row is kept and the rest recomputed per segment,
    so about 2*sqrt(|T|) rows are held, for twice the big-int work of one
    pass. weights[j] belongs to index T[j].
    """
    items = list(T)
    ws = [int(x) for x in weights]
    if len(items) != len(ws):
        raise ValidationError("weights must align with T")
    if any(x < 0 for x in ws):
        raise ValidationError("weights must be nonnegative")
    total = sum(ws)
    target = total // 2
    keep = (1 << (target + 1)) - 1  # sums beyond the target never help
    step = math.isqrt(max(len(ws) - 1, 0)) + 1  # ceil(sqrt(|T|)), at least 1
    kept = []  # rows 0, step, 2*step, ...
    row = 1
    for j, x in enumerate(ws):
        if j % step == 0:
            kept.append(row)
        row = (row | (row << x)) & keep
    best = row.bit_length() - 1  # largest achievable sum <= target
    part1: list[int] = []
    cur = best
    for lo in reversed(range(0, len(ws), step)):
        rows = [kept.pop()]  # the rows of the first lo, lo+1, ... items
        for x in ws[lo : lo + step - 1]:
            rows.append((rows[-1] | (rows[-1] << x)) & keep)
        for j in reversed(range(lo, min(lo + step, len(ws)))):
            if rows[j - lo] >> cur & 1:
                continue  # same sum reachable without item j
            part1.append(items[j])
            cur -= ws[j]
    part1.reverse()
    chosen = set(part1)
    part2 = [i for i in items if i not in chosen]
    return (part1, part2), (best, total - best)


def _deviate(ctx: MedianContext, first: Sequence[int], second: Sequence[int]) -> np.ndarray:
    """The (2, d) codes of two copies of w, the first switched to the second
    choice at the indices `first`, the second at the indices `second`."""
    codes = np.tile(ctx.rank[:, 0], (2, 1))
    codes[0, first] = ctx.rank[first, 1]
    codes[1, second] = ctx.rank[second, 1]
    return codes


def approx_diameter_pair(ctx: MedianContext, budget: Budget) -> DiameterResult:
    """Most distant pair of (1+eps)-approximate medians.

    Indices are sorted by second-choice weight (ascending, ties by index).
    S then R greedily absorb a prefix each while staying within the budget;
    the two deviation sets are disjoint, so the diameter is |S| + |R| — or
    |S| + |R| + 1 when the next index can be folded in by re-partitioning
    S + R + next into two budget-respecting halves.

    A weight sum fits the budget iff it is at most B = floor(eps * opt), so
    both prefixes are read off the prefix sums of the sorted weights.
    """
    d = ctx.d
    weight = ctx.cost[np.arange(d), ctx.rank[:, 1]]
    order = np.argsort(weight, kind="stable")
    acc = np.concatenate(([0], np.cumsum(weight[order])))
    # no prefix weighs more than n*d, so the clamp changes no comparison
    cap = min(budget.floor, ctx.n * d)
    s = int(np.searchsorted(acc, cap, side="right")) - 1
    taken = int(np.searchsorted(acc, acc[s] + cap, side="right")) - 1
    S, R = order[:s].tolist(), order[s:taken].tolist()

    if taken < d:
        T = S + R + [int(order[taken])]
        total = int(acc[taken + 1])
        if budget.within(total, mult=2):
            (part1, part2), (sum1, sum2) = min_diff_partition(T, weight[T].tolist())
            if budget.within(sum1) and budget.within(sum2):
                return DiameterResult(codes=_deviate(ctx, part1, part2), alphabet=ctx.alphabet,
                                      diameter=len(T), branch="partitioned_T1T2")

    return DiameterResult(codes=_deviate(ctx, S, R), alphabet=ctx.alphabet,
                          diameter=taken, branch="greedy_SR")
