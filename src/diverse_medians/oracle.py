"""Candidate pools and independent brute-force reference implementations.

Everything here is ground truth at desk scale: full enumerations and
exhaustive searches that the fast algorithms are tested against. Nothing in
this module calls the algorithms under test. The pools are (p, d) code
matrices (``Dataset``), built by ``exact_median_pool`` and
``approx_median_pool``; the greedy engines pick from the same pools the
brute-force searches scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

import numpy as np

from .core import (
    BLOCK_BYTES,
    Budget,
    CapExceeded,
    Dataset,
    MedianContext,
    Word,
)


@dataclass(frozen=True)
class EnumerationLimits:
    """Hard caps checked with exact arithmetic before any enumeration starts."""

    max_candidates: int = 10**5
    max_tuples: int = 10**7
    max_states: int = 10**7


DEFAULT_LIMITS = EnumerationLimits()


def exact_median_pool(
    ctx: MedianContext, limits: EnumerationLimits = DEFAULT_LIMITS
) -> Dataset:
    """All exact medians as one (p, d) code matrix over the context's alphabet.

    The rows are the Cartesian product of the per-index majority sets, last
    index fastest: a mixed-radix count over the tie columns, written into a
    broadcast of the codes of w.
    """
    sizes = ctx.majority_sizes.tolist()
    size = 1
    for g in sizes:
        size *= g
        if size > limits.max_candidates:
            raise CapExceeded(
                f"exact-median pool exceeds max_candidates={limits.max_candidates}"
            )
    codes = np.empty((size, ctx.d), dtype=ctx.rank.dtype)
    codes[:] = ctx.rank[:, 0]
    inner = size  # rows per digit of the tie column being written
    for i, g in enumerate(sizes):
        if g >= 2:
            inner //= g
            digits = codes.reshape(-1, g, inner, ctx.d)
            digits[:, :, :, i] = ctx.rank[i, :g, None]  # the majority set, alphabet order
    return Dataset(codes=codes, alphabet=ctx.alphabet)


def approx_median_pool(
    ctx: MedianContext,
    budget: Budget,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> Dataset:
    """All strings with cost <= (1+eps)*opt as one (p, d) code matrix over the
    context's alphabet.

    Rows come in the order of a budget-pruned depth-first walk that takes the
    symbols of each index in ``ctx.rank`` order (cost-ascending, alphabet
    order on ties). A column whose second-cheapest symbol costs more than
    B = floor(eps*opt) can only hold w_i, so every row starts as a copy of w
    and only the other columns are walked (see _walk_layers). Then each row's
    prefix is traced back up the layers, writing one column per layer.
    Besides the p*d code bytes this holds O(p) integers.
    """
    # no string deviates by more than n*d, so the clamp keeps the pool as it is
    cap = min(budget.floor, ctx.n * ctx.d)
    ranked = np.take_along_axis(ctx.cost, ctx.rank, axis=1)
    cols = np.flatnonzero(ranked[:, 1] <= cap)
    size, layers = _walk_layers(ranked[cols], cap, limits.max_candidates)
    codes = np.empty((size, ctx.d), dtype=ctx.rank.dtype)
    codes[:] = ctx.rank[:, 0]  # w
    node = np.arange(size)  # each row's prefix in the layer being traced
    for i, (width, branch, fans) in zip(cols[::-1], layers[::-1]):
        fan = np.ones(width, dtype=np.int64)
        fan[branch] = fans
        firsts = np.cumsum(fan)
        parent = np.searchsorted(firsts, node, side="right")
        firsts -= fan  # each prefix's first child in the layer below
        node -= firsts[parent]  # each row's rank among column i's symbols
        codes[:, i] = ctx.rank[i][node]
        node = parent
    return Dataset(codes=codes, alphabet=ctx.alphabet)


def _walk_layers(
    ranked: np.ndarray, cap: int, max_candidates: int
) -> tuple[int, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Breadth-first walk over the columns whose cost-ascending symbol costs
    are the rows of `ranked`, within total weight `cap`.

    Layer j lists the feasible prefixes over the first j columns in
    depth-first order. A prefix takes the first `fan` symbols of the next
    column, the ones that still fit (at least one: w_i costs 0). The walk is
    refused as soon as a layer holds more than max_candidates prefixes: no
    layer is larger than the last, which is the pool. Returns the pool size
    and, per column, the width of the layer before it, the prefixes there
    that take more than one symbol, and their fans. At most p - 1 prefixes
    branch in all, since each adds a prefix to the next layer.
    """
    spent = np.zeros(1, dtype=np.int64)  # weight of each prefix of the layer
    layers = []
    for costs in ranked:
        fan = np.searchsorted(costs, cap - spent, side="right")
        size = int(fan.sum())
        if size > max_candidates:
            raise CapExceeded(f"approx-median pool exceeds max_candidates={max_candidates}")
        branch = np.flatnonzero(fan > 1)
        layers.append((len(fan), branch, fan[branch]))
        parent = np.repeat(np.arange(len(fan)), fan)
        spent = spent[parent] + costs[np.arange(size) - (np.cumsum(fan) - fan)[parent]]
    return len(spent), layers


def enumerate_exact_medians(
    ctx: MedianContext, limits: EnumerationLimits = DEFAULT_LIMITS
) -> list[Word]:
    """All exact medians as tuples of symbols: exact_median_pool, decoded."""
    return list(exact_median_pool(ctx, limits).strings)


def enumerate_approx_medians(
    ctx: MedianContext,
    budget: Budget,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> list[Word]:
    """All (1+eps)-approximate medians as tuples of symbols: approx_median_pool,
    decoded."""
    return list(approx_median_pool(ctx, budget, limits).strings)


def pairwise_hamming_matrix(pool: Dataset) -> np.ndarray:
    """Full p x p distance matrix of a pool, for the brute-force oracles and
    tests only.

    Reads the pool's code matrix in row blocks of at most BLOCK_BYTES
    mismatches.
    The greedy engines stream their distances (core.farthest_pair and
    core.distances_to) and never call this.
    """
    arr = pool.codes
    p = arr.shape[0]
    out = np.zeros((p, p), dtype=np.int32)
    step = max(1, BLOCK_BYTES // max(1, p * arr.shape[1]))
    for lo in range(0, p, step):
        hi = min(p, lo + step)
        out[lo:hi] = (arr[lo:hi, None, :] != arr[None, :, :]).sum(axis=2)
    return out


def brute_diameter(pool: Dataset, limits: EnumerationLimits = DEFAULT_LIMITS) -> int:
    """Maximum pairwise Hamming distance over the pool."""
    p = pool.n
    if p == 0:
        raise ValueError("empty pool")
    if p == 1:
        return 0
    if math.comb(p, 2) > limits.max_tuples:
        raise CapExceeded(f"{math.comb(p, 2)} pairs exceed max_tuples={limits.max_tuples}")
    arr = pool.codes
    best = 0
    step = max(1, BLOCK_BYTES // max(1, p * arr.shape[1]))
    for lo in range(0, p, step):
        hi = min(p, lo + step)
        best = max(best, int((arr[lo:hi, None, :] != arr[None, :, :]).sum(axis=2).max()))
    return best


def brute_sumdp_k(
    pool: Dataset, k: int, limits: EnumerationLimits = DEFAULT_LIMITS
) -> int:
    """Exact max sum dispersion over k-multisets drawn from the pool."""
    p = pool.n
    if p == 0:
        raise ValueError("empty pool")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 0
    if math.comb(p + k - 1, k) > limits.max_tuples:
        raise CapExceeded(
            f"{math.comb(p + k - 1, k)} multisets exceed max_tuples={limits.max_tuples}"
        )
    dmat = pairwise_hamming_matrix(pool)
    if k == 2:
        return int(dmat.max())  # the (i,i) multiset contributes 0, never better
    if k == 3:
        best = 0
        for i in range(p):
            row_i = dmat[i]
            for j in range(i, p):
                tail = row_i[j:] + dmat[j, j:]
                best = max(best, int(dmat[i, j] + tail.max()))
        return best
    best = 0
    for combo in combinations_with_replacement(range(p), k):
        val = sum(dmat[a, b] for a, b in combinations(combo, 2))
        if val > best:
            best = val
    return int(best)


def brute_mindp_k(
    pool: Dataset, k: int, limits: EnumerationLimits = DEFAULT_LIMITS
) -> int:
    """Exact max min dispersion over k-subsets; 0 when the pool is too small.

    A pool smaller than k forces duplicates, and any duplicate pair has
    distance 0, so the degenerate value is 0 by definition.
    """
    p = pool.n
    if p == 0:
        raise ValueError("empty pool")
    if k < 2:
        raise ValueError("k must be >= 2 for min dispersion")
    if p < k:
        return 0
    if math.comb(p, k) > limits.max_tuples:
        raise CapExceeded(f"{math.comb(p, k)} subsets exceed max_tuples={limits.max_tuples}")
    dmat = pairwise_hamming_matrix(pool)
    if k == 2:
        return int(dmat.max())
    if k == 3:
        best = 0
        for i in range(p):
            for j in range(i + 1, p):
                if dmat[i, j] <= best:
                    continue
                tail = np.minimum(dmat[i, j + 1 :], dmat[j, j + 1 :])
                if tail.size:
                    best = max(best, min(int(dmat[i, j]), int(tail.max())))
        return best
    best = 0
    for combo in combinations(range(p), k):
        val = min(dmat[a, b] for a, b in combinations(combo, 2))
        if val > best:
            best = val
    return int(best)


def brute_max_code_size(
    alphabet_sizes: Sequence[int],
    t: int,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> int:
    """Maximum code size with pairwise distance >= t over the product space.

    Exhaustive in principle; in practice a branch-and-bound max-clique over
    the "distance >= t" graph, after normalizing so the all-first-symbol word
    is in the code (per-coordinate symbol relabeling preserves distances, so
    some maximum code contains it).
    """
    sizes = [int(g) for g in alphabet_sizes]
    if any(g < 1 for g in sizes):
        raise ValueError("alphabet sizes must be >= 1")
    space = 1
    for g in sizes:
        space *= g
        if space > limits.max_candidates:
            raise CapExceeded(
                f"product space exceeds max_candidates={limits.max_candidates}"
            )
    sizes = [g for g in sizes if g > 1]  # constant coordinates never separate
    d = len(sizes)
    if t <= 1:
        return space  # distinct tuples already differ somewhere
    if t > d:
        return 1
    points = np.array(list(product(*(range(g) for g in sizes))), dtype=np.int16)
    zero_dist = (points != 0).sum(axis=1)
    cand = points[zero_dist >= t]
    m = cand.shape[0]
    if m == 0:
        return 1
    adj = []
    for v in range(m):
        ok = ((cand != cand[v]).sum(axis=1) >= t)
        ok[v] = False
        # bit u of the row is ok[u]: little-endian bits and bytes
        adj.append(int.from_bytes(np.packbits(ok, bitorder="little").tobytes(), "little"))

    # Root symmetry reduction: relabeling symbols within a coordinate (fixing
    # symbol 0) and permuting coordinates of equal alphabet size both preserve
    # distances and the pinned zero word, and they permute the candidate set.
    # A candidate's orbit under that group is exactly "same support weight per
    # alphabet-size class", so the root loop needs one branch per weight
    # pattern; after a representative's branch closes, its whole orbit is
    # retired (any clique meeting the orbit maps to one through the rep).
    classes = sorted(set(sizes))
    class_cols = {g: [i for i, gi in enumerate(sizes) if gi == g] for g in classes}
    support = cand != 0
    keys = np.stack([support[:, class_cols[g]].sum(axis=1) for g in classes], axis=1)
    orbits: dict[tuple[int, ...], list[int]] = {}
    for v, key in enumerate(keys.tolist()):
        orbits.setdefault(tuple(key), []).append(v)
    root_orbits = sorted(
        orbits.values(), key=lambda o: -bin(adj[o[0]]).count("1")
    )
    return 1 + _max_clique(adj, root_orbits)


def _max_clique(adj: list[int], root_orbits: list[list[int]] | None = None) -> int:
    """Max clique size via greedy-coloring branch and bound on bitsets."""
    n = len(adj)
    if n == 0:
        return 0
    full = (1 << n) - 1

    # Warm start: greedy clique from each of a few densest vertices.
    best = 0
    by_degree = sorted(range(n), key=lambda v: -bin(adj[v]).count("1"))
    for start in by_degree[: min(8, n)]:
        size, cand = 1, adj[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            size += 1
            cand &= adj[v]
        best = max(best, size)

    def color_order(mask: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bound: list[int] = []
        color = 0
        rest = mask
        while rest:
            color += 1
            q = rest
            while q:
                v = (q & -q).bit_length() - 1
                bit = 1 << v
                q &= ~adj[v]
                q &= ~bit
                rest &= ~bit
                order.append(v)
                bound.append(color)
        return order, bound

    def expand(mask: int, size: int) -> None:
        """Grow the clique of `size` vertices by each vertex of `mask` in turn.

        Each call adds one vertex, so the recursion depth is the size of the
        clique being grown: at most the maximum clique size, itself at most
        the number of candidates.
        """
        nonlocal best
        order, bound = color_order(mask)
        for idx in range(len(order) - 1, -1, -1):
            if size + bound[idx] <= best:
                return
            v = order[idx]
            sub = mask & adj[v]
            if sub:
                expand(sub, size + 1)
            elif size + 1 > best:
                best = size + 1
            mask &= ~(1 << v)

    if root_orbits is None:
        expand(full, 0)
        return best

    remaining = full
    for orbit in root_orbits:
        rep = orbit[0]
        sub = adj[rep] & remaining
        if sub:
            expand(sub, 1)
        elif best == 0:
            best = 1
        for v in orbit:
            remaining &= ~(1 << v)
        if not remaining:
            break
    return best
