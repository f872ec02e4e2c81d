"""Independent brute-force reference implementations.

Everything here is ground truth at desk scale: full enumerations and
exhaustive searches that the fast algorithms are tested against. Nothing in
this module calls the algorithms under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

import numpy as np

from .core import (
    Budget,
    CapExceeded,
    FrequencyTable,
    MedianContext,
    Word,
    _encode_pool,
)


@dataclass(frozen=True)
class EnumerationLimits:
    """Hard caps checked with exact arithmetic before any enumeration starts."""

    max_candidates: int = 10**5
    max_tuples: int = 10**7
    max_states: int = 10**7


DEFAULT_LIMITS = EnumerationLimits()


def enumerate_exact_medians(
    freq: FrequencyTable, limits: EnumerationLimits = DEFAULT_LIMITS
) -> list[Word]:
    """All exact medians: the Cartesian product of the per-index majority sets."""
    size = 1
    for gamma in freq.majority_sets:
        size *= len(gamma)
        if size > limits.max_candidates:
            raise CapExceeded(
                f"exact-median pool exceeds max_candidates={limits.max_candidates}"
            )
    return [tuple(p) for p in product(*freq.majority_sets)]


def enumerate_approx_medians(
    ctx: MedianContext,
    budget: Budget,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> list[Word]:
    """All strings with cost <= (1+eps)*opt, by budget-pruned DFS over indices.

    Per index the symbol choices are sorted cost-ascending (alphabet order on
    ties) so pruning cuts early and the output order is deterministic.
    """
    cap = budget.floor  # largest admissible total deviation weight
    choices: list[list[tuple[int, str]]] = []
    for i in range(ctx.d):
        opts = [(0, ctx.w[i])]
        for a in ctx.alphabet:
            if a != ctx.w[i]:
                opts.append((ctx.per_char_cost[i][a], a))
        opts.sort(key=lambda ca: (ca[0], ctx.alphabet.index(ca[1])))
        choices.append(opts)

    # depth-first with an explicit stack, so d is not bounded by the
    # recursion limit: todo[i] iterates the choices left at index i, and
    # spent[i] is the weight of prefix[:i]
    pool: list[Word] = []
    prefix: list[str] = []
    spent, todo = [0], [iter(choices[0])]
    last = ctx.d - 1
    while todo:
        i = len(prefix)
        for cost, a in todo[i]:
            used = spent[i] + cost
            if used > cap:
                break  # cost-ascending: nothing later fits either
            if i < last:
                prefix.append(a)
                spent.append(used)
                todo.append(iter(choices[i + 1]))
                break
            pool.append((*prefix, a))
            if len(pool) > limits.max_candidates:
                raise CapExceeded(
                    f"approx-median pool exceeds max_candidates={limits.max_candidates}"
                )
        if len(prefix) == i:  # no choice left at index i that fits: backtrack
            todo.pop()
            spent.pop()
            if prefix:
                prefix.pop()
    return pool


def pairwise_hamming_matrix(pool: Sequence[Word | str]) -> np.ndarray:
    """Full p x p distance matrix, for the brute-force oracles and tests only.

    The greedy engines stream their distances (core.farthest_pair and
    core.distances_to) and never call this.
    """
    arr = _encode_pool(pool)
    p = arr.shape[0]
    out = np.zeros((p, p), dtype=np.int32)
    step = max(1, 2**22 // max(1, p * arr.shape[1]))
    for lo in range(0, p, step):
        hi = min(p, lo + step)
        out[lo:hi] = (arr[lo:hi, None, :] != arr[None, :, :]).sum(axis=2)
    return out


def brute_diameter(
    pool: Sequence[Word | str], limits: EnumerationLimits = DEFAULT_LIMITS
) -> int:
    """Maximum pairwise Hamming distance over the pool."""
    p = len(pool)
    if p == 0:
        raise ValueError("empty pool")
    if p == 1:
        return 0
    if math.comb(p, 2) > limits.max_tuples:
        raise CapExceeded(f"{math.comb(p, 2)} pairs exceed max_tuples={limits.max_tuples}")
    arr = _encode_pool(pool)
    best = 0
    step = max(1, 2**22 // max(1, p * arr.shape[1]))
    for lo in range(0, p, step):
        hi = min(p, lo + step)
        best = max(best, int((arr[lo:hi, None, :] != arr[None, :, :]).sum(axis=2).max()))
    return best


def brute_sumdp_k(
    pool: Sequence[Word | str], k: int, limits: EnumerationLimits = DEFAULT_LIMITS
) -> int:
    """Exact max sum dispersion over k-multisets drawn from the pool."""
    p = len(pool)
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
    pool: Sequence[Word | str], k: int, limits: EnumerationLimits = DEFAULT_LIMITS
) -> int:
    """Exact max min dispersion over k-subsets; 0 when the pool is too small.

    A pool smaller than k forces duplicates, and any duplicate pair has
    distance 0, so the degenerate value is 0 by definition.
    """
    p = len(pool)
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
