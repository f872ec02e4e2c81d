"""k medians maximizing min dispersion.

Engines: exact dynamic programs over pairwise-distance states (with and
without a cost budget), best-of-N uniform samplers, farthest-point greedy
over an enumerated pool, and Plotkin-style certificates bounding what any
algorithm could achieve. Two dispatchers pick an engine from (k, delta) and
the instance's diameter, mirroring the regime split the guarantees need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from .core import (
    Budget,
    CandidateSet,
    CapExceeded,
    FrequencyTable,
    InternalError,
    MedianContext,
    ValidationError,
    Word,
    _encode_pool,
    distances_to,
    farthest_pair,
    min_dispersion,
)
from .diameter import DiameterResult, approx_diameter_pair
from .oracle import (
    DEFAULT_LIMITS,
    EnumerationLimits,
    enumerate_approx_medians,
    enumerate_exact_medians,
)


def _check_dp_state(
    distances: tuple[int, ...], costs: tuple[int, ...] | None, column: int,
    cost_cap: int | None,
) -> None:
    """A DP state after the first `column` indices: all pairwise distances so
    far, plus (approx variant only) each candidate's deviation cost."""
    if any(not 0 <= x <= column for x in distances):
        raise InternalError("DP state: distance outside [0, column]")
    if costs is not None:
        if cost_cap is None or any(not 0 <= c <= cost_cap for c in costs):
            raise InternalError("DP state: cost outside budget window")


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
    tstar_upper: Fraction


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


def _best_by_mindp(trials: list[list[Word]]) -> tuple[int, list[Word]]:
    """Max minDp, ties to the earliest trial."""
    best_val, best_members = -1, trials[0]
    for members in trials:
        val = min_dispersion(members)
        if val > best_val:
            best_val, best_members = val, members
    return best_val, best_members


# ---------------------------------------------------------------------------
# exact DPs


def min_disp_dp_exact(
    freq: FrequencyTable, k: int, *, limits: EnumerationLimits = DEFAULT_LIMITS
) -> tuple[int, CandidateSet]:
    """Exact max minDp over k-tuples from the exact-median product space.

    State: the k(k-1)/2 pairwise distances accumulated column by column.
    Per-column assignments collapsing to the same distance-increment pattern
    are interchangeable for the remaining columns, so only one representative
    per pattern transitions.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    d = freq.d
    pairs = list(combinations(range(k), 2))
    if (d + 1) ** (1 + len(pairs)) > limits.max_states:
        raise CapExceeded(
            f"state space (d+1)^(1+k(k-1)/2) exceeds max_states={limits.max_states}"
        )
    layers: list[dict[tuple[int, ...], tuple | None]] = [{(0,) * len(pairs): None}]
    for i in range(d):
        patterns: dict[tuple[int, ...], tuple[str, ...]] = {}
        for assign in product(freq.majority_sets[i], repeat=k):
            inc = tuple(int(assign[r] != assign[s]) for r, s in pairs)
            patterns.setdefault(inc, assign)
        nxt: dict[tuple[int, ...], tuple | None] = {}
        for key in layers[-1]:
            for inc, assign in patterns.items():
                nk = tuple(a + b for a, b in zip(key, inc))
                if nk not in nxt:
                    nxt[nk] = (key, assign)
                    if len(nxt) > limits.max_states:
                        raise CapExceeded(f"live states exceed max_states={limits.max_states}")
        layers.append(nxt)
    best_key = max(layers[-1], key=lambda s: (min(s), s))
    _check_dp_state(best_key, None, d, None)
    members = _walk_back(layers, best_key, k, d)
    return min(best_key), CandidateSet.from_members(freq, members)


def min_disp_dp_approx(
    ctx: MedianContext,
    budget: Budget,
    k: int,
    *,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> tuple[int, CandidateSet]:
    """Exact max minDp over k-tuples of (1+eps)-approximate medians.

    Extends the exact DP state with each candidate's deviation weight, capped
    at floor(eps * opt); every surviving final state is feasible by
    construction.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    d = ctx.d
    cap = budget.floor
    pairs = list(combinations(range(k), 2))
    if (d + 1) ** (1 + len(pairs)) * (cap + 1) ** k > limits.max_states:
        raise CapExceeded(
            f"state space (d+1)^(1+k(k-1)/2)*(B+1)^k exceeds max_states={limits.max_states}"
        )
    empty = ((0,) * len(pairs), (0,) * k)
    layers: list[dict[tuple, tuple | None]] = [{empty: None}]
    for i in range(d):
        patterns: dict[tuple, tuple[str, ...]] = {}
        for assign in product(ctx.alphabet, repeat=k):
            inc = tuple(int(assign[r] != assign[s]) for r, s in pairs)
            add = tuple(ctx.per_char_cost[i].get(a, 0) if a != ctx.w[i] else 0 for a in assign)
            patterns.setdefault((inc, add), assign)
        nxt: dict[tuple, tuple | None] = {}
        for key in layers[-1]:
            dist, cost = key
            for (inc, add), assign in patterns.items():
                nc = tuple(a + b for a, b in zip(cost, add))
                if any(c > cap for c in nc):
                    continue
                nk = (tuple(a + b for a, b in zip(dist, inc)), nc)
                if nk not in nxt:
                    nxt[nk] = (key, assign)
                    if len(nxt) > limits.max_states:
                        raise CapExceeded(f"live states exceed max_states={limits.max_states}")
        layers.append(nxt)
    best_key = max(layers[-1], key=lambda s: (min(s[0]), s))
    _check_dp_state(best_key[0], best_key[1], d, cap)
    members = _walk_back(layers, best_key, k, d)
    return min(best_key[0]), CandidateSet.from_members(ctx.freq, members)


def _walk_back(layers: list[dict], final_key, k: int, d: int) -> list[Word]:
    columns: list[tuple[str, ...]] = []
    key = final_key
    for i in range(d, 0, -1):
        prev_key, assign = layers[i][key]
        columns.append(assign)
        key = prev_key
    columns.reverse()
    return [tuple(col[r] for col in columns) for r in range(k)]


# ---------------------------------------------------------------------------
# samplers


def sample_exact_medians(freq: FrequencyTable, cfg: SampleConfig) -> tuple[CandidateSet, int]:
    """Best of N trials of k uniform picks from each index's majority set.

    Every draw is an exact median by construction; only the dispersion is
    random. Target: (1 - delta) * sum_i (|Gamma_i| - 1)/|Gamma_i| whp.
    """
    trials: list[list[Word]] = []
    for t in range(cfg.trials):
        rng = _trial_rng(cfg.seed, t)
        rows = [["" for _ in range(freq.d)] for _ in range(cfg.k)]
        for i, gamma in enumerate(freq.majority_sets):
            picks = rng.integers(0, len(gamma), size=cfg.k)
            for r in range(cfg.k):
                rows[r][i] = gamma[int(picks[r])]
        trials.append([tuple(row) for row in rows])
    val, members = _best_by_mindp(trials)
    return CandidateSet.from_members(freq, members), val


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
    y, z = diameter.pair
    devs = [i for i in range(ctx.d) if y[i] != z[i]]
    dev_sym = {i: (y[i] if y[i] != ctx.w[i] else z[i]) for i in devs}
    trials: list[list[Word]] = []
    for t in range(cfg.trials):
        rng = _trial_rng(cfg.seed, t)
        coins = rng.integers(0, 2, size=(cfg.k, len(devs)))
        members = []
        for r in range(cfg.k):
            word = list(ctx.w)
            for j, i in enumerate(devs):
                if coins[r, j]:
                    word[i] = dev_sym[i]
            members.append(tuple(word))
        trials.append(members)
    val, members = _best_by_mindp(trials)
    return CandidateSet.from_members(ctx.freq, members), val


# ---------------------------------------------------------------------------
# greedy over an enumerated pool


def greedy_dispersion(pool: Sequence[Word], k: int, freq: FrequencyTable) -> CandidateSet:
    """Farthest pair, then repeated farthest-point insertion (max-min greedy).

    Half the pool-restricted optimum. A pool smaller than k gets filled with
    duplicates (their min distance is 0, consistent with the multiset
    definition). Memory is O(p*d) plus one distance block: a running vector
    holds each string's distance to its nearest chosen member.
    """
    if not pool:
        raise ValidationError("candidate pool is empty")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if len(pool) == 1 or k == 1:
        return CandidateSet.from_members(freq, [pool[0]] * k)
    codes = _encode_pool(pool)
    chosen = sorted(farthest_pair(codes, np.arange(len(pool))))
    mins = np.minimum(distances_to(codes, chosen[0]), distances_to(codes, chosen[1]))
    while len(chosen) < k:
        chosen.append(int(np.argmax(mins)))  # ties: lowest pool index
        np.minimum(mins, distances_to(codes, chosen[-1]), out=mins)
    return CandidateSet.from_members(freq, [pool[i] for i in chosen])


# ---------------------------------------------------------------------------
# certificates


def plotkin_bound(alphabet_sizes: Sequence[int], t: int) -> int | None:
    """Code-size bound at pairwise distance >= t, or None when inapplicable.

    With B = sum (g-1)/g over the per-index alphabet sizes: at t = B any code
    has at most 2 * sum(sizes) words; at t > B at most floor(t/(t-B)); below
    B the argument gives nothing.
    """
    sizes = [int(g) for g in alphabet_sizes]
    if any(g < 1 for g in sizes):
        raise ValidationError("alphabet sizes must be >= 1")
    if t < 0:
        raise ValidationError("t must be >= 0")
    b = sum(Fraction(g - 1, g) for g in sizes)
    if Fraction(t) == b:
        return 2 * sum(sizes)
    if Fraction(t) > b:
        return int(Fraction(t) / (Fraction(t) - b))  # floor of a positive rational
    return None


def tstar_upper_bound(ctx: MedianContext, budget: Budget) -> Fraction:
    """Upper bound on the best achievable minDp: 4(1+eps)opt/n, exactly."""
    return 4 * (1 + budget.epsilon) * Fraction(ctx.opt, ctx.n)


def bound_certificate(ctx: MedianContext, budget: Budget, t: int) -> BoundCertificate:
    sizes = tuple(len(g) for g in ctx.freq.majority_sets)
    return BoundCertificate(
        alphabet_sizes=sizes,
        plotkin_sum=sum(Fraction(g - 1, g) for g in sizes),
        t=t,
        max_code_size=plotkin_bound(sizes, t),
        tstar_upper=tstar_upper_bound(ctx, budget),
    )


# ---------------------------------------------------------------------------
# dispatchers


def _diameter_at_least(dstar: int, delta: Fraction, k: int, add: int) -> bool:
    """Exact test of D* >= (4/delta^2) * (2*log2(k) + add).

    Equivalent to 2^(D*p^2 - 4*add*q^2) >= k^(8q^2) for delta = p/q; the
    bit-length bracket settles almost every case without the big powers.
    """
    p, q = delta.numerator, delta.denominator
    a = dstar * p * p - 4 * add * q * q
    c = 8 * q * q
    if a < 0:
        return False
    if k == 1:
        return True
    bits = k.bit_length()
    if a >= c * bits:
        return True  # log2 k < bit_length
    if a < c * (bits - 1):
        return False  # log2 k >= bit_length - 1
    return 2**a >= k**c


def min_dispersion_dispatch_exact(
    freq: FrequencyTable,
    k: int,
    delta: Fraction,
    eta: Fraction,
    seed: int,
    *,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> tuple[CandidateSet, str]:
    """Exact-median dispersion: DP when k <= 1/delta, else sample or greedy.

    The diameter scale deciding sample-vs-greedy is the tie-set size (the
    exact-median diameter). Returns the candidate set and the strategy tag:
    dp, sample, greedy, or sample_fallback when the pool is over the cap.
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    delta, eta = Fraction(delta), Fraction(eta)
    if k * delta <= 1:
        try:
            _, cands = min_disp_dp_exact(freq, k, limits=limits)
            return cands, "dp"
        except CapExceeded:
            pass  # fall through to the large-k regimes
    dstar = sum(1 for g in freq.majority_sets if len(g) >= 2)
    cfg = SampleConfig(k=k, delta=delta, eta=eta, seed=seed)
    if _diameter_at_least(dstar, delta, k, add=1):
        cands, _ = sample_exact_medians(freq, cfg)
        return cands, "sample"
    try:
        pool = enumerate_exact_medians(freq, limits)
    except CapExceeded:
        cands, _ = sample_exact_medians(freq, cfg)
        return cands, "sample_fallback"
    return greedy_dispersion(pool, k, freq), "greedy"


def min_dispersion_dispatch_approx(
    ctx: MedianContext,
    budget: Budget,
    k: int,
    delta: Fraction,
    eta: Fraction,
    seed: int,
    *,
    limits: EnumerationLimits = DEFAULT_LIMITS,
) -> tuple[CandidateSet, str]:
    """Approximate-median dispersion dispatcher.

    Resolution order across the guarantee regimes (which overlap and leave
    gaps): DP for small k; greedy over the enumerable pool when D* <= 4/delta^2;
    else the mixing sampler. Returns the candidate set and the strategy tag:
    dp, greedy or sample. The LP pipeline runs only when asked for by name
    (lpround.lp_min_dispersion).
    """
    if k < 2:
        raise ValidationError("k must be >= 2")
    delta, eta = Fraction(delta), Fraction(eta)
    if k * delta <= 1:
        try:
            _, cands = min_disp_dp_approx(ctx, budget, k, limits=limits)
            return cands, "dp"
        except CapExceeded:
            pass
    diameter = approx_diameter_pair(ctx, budget)
    cfg = SampleConfig(k=k, delta=delta, eta=eta, seed=seed)
    if Fraction(diameter.diameter) * delta**2 <= 4:
        try:
            pool = enumerate_approx_medians(ctx, budget, limits)
            return greedy_dispersion(pool, k, freq=ctx.freq), "greedy"
        except CapExceeded:
            pass
    cands, _ = sample_approx_medians(ctx, diameter, cfg)
    return cands, "sample"
