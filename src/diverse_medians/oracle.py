"""Candidate pools and independent brute-force reference implementations.

Everything here is ground truth at desk scale: full enumerations and
exhaustive searches that the fast algorithms are tested against. Nothing in
this module calls the algorithms under test. The pools are (p, d) code
matrices (``Dataset``), built by ``approx_median_pool`` (the exact medians
are its pool at B = 0); the greedy engines pick from the same pools the
brute-force searches scan.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (  # the limits live in core; oracle re-exports them
    DEFAULT_LIMITS,
    Budget,
    Dataset,
    EnumerationLimits,
    MedianContext,
    ValidationError,
    Word,
    row_blocks,
)


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
    cols = np.flatnonzero(ctx.cost[np.arange(ctx.d), ctx.rank[:, 1]] <= cap)
    size, layers = _walk_layers(ctx, cols, cap, limits)
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
    ctx: MedianContext, cols: np.ndarray, cap: int, limits: EnumerationLimits
) -> tuple[int, list[tuple[int, np.ndarray, np.ndarray]]]:
    """Breadth-first walk over the columns `cols` of the context, within
    total weight `cap`, each column's costs taken in rank order as it is reached.

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
    for costs in (ctx.cost[i, ctx.rank[i]] for i in cols):
        fan = np.searchsorted(costs, cap - spent, side="right")
        size = int(fan.sum())
        limits.check("max_candidates", size, "approx-median pool layer")
        branch = np.flatnonzero(fan > 1)
        layers.append((len(fan), branch, fan[branch]))
        parent = np.repeat(np.arange(len(fan)), fan)
        spent = spent[parent] + costs[np.arange(size) - (np.cumsum(fan) - fan)[parent]]
    return len(spent), layers


def enumerate_exact_medians(
    ctx: MedianContext, limits: EnumerationLimits = DEFAULT_LIMITS
) -> list[Word]:
    """All exact medians as tuples of symbols: enumerate_approx_medians at B = 0."""
    return enumerate_approx_medians(ctx, Budget.make(0, ctx.opt), limits)


def enumerate_approx_medians(
    ctx: MedianContext,
    budget: Budget,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> list[Word]:
    """All (1+eps)-approximate medians as tuples of symbols: approx_median_pool,
    decoded."""
    return list(approx_median_pool(ctx, budget, limits).strings)


def _distance_blocks(codes: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, D) per row block of an (m, d) code matrix (core.row_blocks): D
    holds the distances from those rows to every row, summed column by column
    in the smallest integer type that holds d."""
    m, d = codes.shape
    dtype = np.min_scalar_type(d)
    for rows in row_blocks(m, m * dtype.itemsize):
        block = np.zeros((rows.stop - rows.start, m), dtype=dtype)
        for col in codes.T:
            block += col[rows, None] != col
        yield rows, block


def pairwise_hamming_matrix(pool: Dataset) -> np.ndarray:
    """Full p x p distance matrix of a pool, for the brute-force oracles and
    tests only.

    The greedy engines stream their distances (core.FarthestPairs and
    core.distances_to) and never call this.
    """
    out = np.zeros((pool.n, pool.n), dtype=np.int32)
    for rows, block in _distance_blocks(pool.codes):
        out[rows] = block
    return out


def brute_diameter(pool: Dataset, limits: EnumerationLimits = DEFAULT_LIMITS) -> int:
    """Maximum pairwise Hamming distance over the pool."""
    p = pool.n
    if p == 0:
        raise ValidationError("empty pool")
    if p == 1:
        return 0
    limits.check("max_tuples", math.comb(p, 2), "pairs")
    return max(int(block.max()) for _, block in _distance_blocks(pool.codes))


def brute_sumdp_k(
    pool: Dataset, k: int, limits: EnumerationLimits = DEFAULT_LIMITS
) -> int:
    """Exact max sum dispersion over k-multisets drawn from the pool."""
    p = pool.n
    if p == 0:
        raise ValidationError("empty pool")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k == 1:
        return 0
    limits.check("max_tuples", math.comb(p + k - 1, k), f"{k}-multisets")
    if k == 2:
        return brute_diameter(pool, limits)  # the (i,i) multiset contributes 0, never better
    dmat = pairwise_hamming_matrix(pool)
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
        raise ValidationError("empty pool")
    if k < 2:
        raise ValidationError("k must be >= 2 for min dispersion")
    if p < k:
        return 0
    limits.check("max_tuples", math.comb(p, k), f"{k}-subsets")
    if k == 2:
        return brute_diameter(pool, limits)
    dmat = pairwise_hamming_matrix(pool)
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
    some maximum code contains it). max_candidates caps the product space.
    max_tuples caps both the C(m, 2) pairs of the m candidate words, checked
    in exact arithmetic before their m-bit adjacency rows (m^2/8 bytes in
    all) are built, and the nodes of the search.
    """
    sizes = [int(g) for g in alphabet_sizes]
    if any(g < 1 for g in sizes):
        raise ValidationError("alphabet sizes must be >= 1")
    if t < 0:
        raise ValidationError("t must be >= 0")
    space = 1
    for j, g in enumerate(sizes, 1):
        space *= g
        limits.check("max_candidates", space, f"product space of the first {j} sizes")
    # constant coordinates never separate; the order of the others does not
    # change the code size, so every permutation of the sizes runs one search
    sizes = sorted(g for g in sizes if g > 1)
    d = len(sizes)
    if t <= 1:
        return space  # distinct tuples already differ somewhere
    if t > d:
        return 1
    points = np.indices(sizes, dtype=np.int16).reshape(d, -1).T  # product order
    cand = points[(points != 0).sum(axis=1) >= t]
    limits.check("max_tuples", math.comb(cand.shape[0], 2), "candidate pairs")
    adj = _adjacency(cand, t)

    # Symmetry: relabeling symbols within a coordinate (fixing symbol 0) and
    # permuting coordinates of equal alphabet size preserve distances and the
    # pinned zero word, so they permute the candidates and the graph. A
    # candidate's orbit is its support weight per alphabet-size class.
    # `classes` is the (d, c) 0/1 indicator of each coordinate's class, so
    # `bools @ classes` counts each row's true entries per class.
    classes = (np.array(sizes)[:, None] == np.unique(sizes)).astype(np.int64)
    nonzero = cand != 0

    def stabiliser_orbits(r: int) -> list[int]:
        # Orbits under the maps that also fix candidate r: per class, count
        # the coordinates of supp(r) holding r's symbol, those of supp(r)
        # holding another nonzero symbol, and the nonzero ones outside supp(r).
        supp = nonzero[r]
        same = cand == cand[r]
        keys = np.hstack([
            (same & supp) @ classes,
            (nonzero & ~same & supp) @ classes,
            (nonzero & ~supp) @ classes,
        ])
        return _orbit_masks(keys)

    return 1 + _max_clique(adj, _orbit_masks(nonzero @ classes), stabiliser_orbits, limits)


def _adjacency(cand: np.ndarray, t: int) -> list[int]:
    """Row v of the "distance >= t" graph as an int whose bit u is set when
    candidates u and v differ in t coordinates or more: each distance block
    is thresholded and packed into little-endian bits."""
    width = (cand.shape[0] + 7) // 8
    adj: list[int] = []
    for _, block in _distance_blocks(cand):
        packed = np.packbits(block >= t, axis=1, bitorder="little").tobytes()
        adj.extend(int.from_bytes(packed[i : i + width], "little")
                   for i in range(0, len(packed), width))
    return adj


def _orbit_masks(keys: np.ndarray) -> list[int]:
    """One bitmask per distinct row of `keys`: the vertices sharing it."""
    order = np.lexsort(keys.T)
    starts = np.flatnonzero(np.r_[True, (np.diff(keys[order], axis=0) != 0).any(axis=1)])
    bits = np.zeros(len(keys), dtype=bool)
    masks = []
    for members in np.split(order, starts[1:]):
        bits[members] = True
        masks.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
        bits[members] = False
    return masks


def _max_clique(
    adj: list[int],
    root_orbits: list[int],
    stabiliser_orbits: Callable[[int], list[int]],
    limits: EnumerationLimits,
) -> int:
    """Max clique size via greedy-coloring branch and bound on bitsets.

    `root_orbits` are the orbits (as bitmasks) of a group of graph
    automorphisms, and `stabiliser_orbits(r)` those of the stabiliser of
    vertex r in it. The root branches on one representative r per orbit, in
    ascending degree order (Carraghan-Pardalos: small subproblems first),
    then retires the whole orbit: a clique meeting the orbit maps to one of
    the same size through r. Below r, the candidates P = adj[r] & remaining
    are a union of stabiliser orbits: adj[r] is invariant under the maps that
    fix r, and `remaining` under the whole group, being all vertices less
    whole root orbits. So a clique through r and some vertex of an orbit O
    of P maps, by a map fixing r, to one of the same size through r and O's
    representative, inside P. Branching on one representative per orbit and
    then retiring O from P loses no clique size, and P stays a union of
    orbits. The loop stops once 1 + colors(P) <= best.
    """
    roots = sorted(root_orbits, key=lambda o: adj[_first(o)].bit_count())
    best = 1
    for orbit in roots:  # warm start: a greedy clique from each representative
        size, cand = 1, adj[_first(orbit)]
        while cand:
            size += 1
            cand &= adj[_first(cand)]
        best = max(best, size)
    nodes = 0

    def color_order(mask: int, kmin: int) -> tuple[list[int], list[int]]:
        """Greedy coloring of `mask`; the vertices of colors >= kmin, with
        their colors. Vertices of lower colors would all be pruned."""
        order: list[int] = []
        bound: list[int] = []
        color = 0
        while mask:
            color += 1
            q = mask
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q &= ~adj[v]
                q ^= low
                mask ^= low
                if color >= kmin:
                    order.append(v)
                    bound.append(color)
        return order, bound

    def expand(mask: int, size: int) -> None:
        """Grow the clique of `size` vertices by each vertex of `mask` in turn.

        Each call adds one vertex, so the recursion depth is the size of the
        clique being grown: at most the maximum clique size, itself at most
        the number of candidates.
        """
        nonlocal best, nodes
        nodes += 1
        limits.check("max_tuples", nodes, "code-size search nodes")
        order, bound = color_order(mask, best - size + 1)
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

    remaining = (1 << len(adj)) - 1
    for orbit in roots:
        r = _first(orbit)
        below = adj[r] & remaining
        remaining &= ~orbit
        # largest subproblems first: good cliques early tighten the bound;
        # color_order(below, best) is empty once 1 + colors(below) <= best
        subs = stabiliser_orbits(r) if color_order(below, best)[0] else []
        for sub_orbit in sorted((o for o in subs if o & below),
                                key=lambda o: -(below & adj[_first(o)]).bit_count()):
            sub = below & adj[_first(sub_orbit)]
            if sub:
                expand(sub, 2)
            below &= ~sub_orbit
            if not color_order(below, best)[0]:
                break
    return best


def _first(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1
