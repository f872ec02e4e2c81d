"""Foundational types and exact arithmetic for string datasets and medians.

Everything downstream (diameter pairs, dispersion maximizers, LP rounding,
oracles) builds on the objects here: the dataset, per-index frequency tables,
the most-frequent-character string ``w`` and its second-choice companion,
the optimal objective value ``opt``, exact rational deviation budgets, and
candidate sets with cached costs and per-index character counts.

All budget comparisons are exact integer comparisons (cross-multiplied
rationals); no float ever decides feasibility.

An enumerated pool of candidate strings is a ``Dataset`` too: its (p, d)
code matrix over the context's alphabet, decoded only for the strings an
engine returns. The pool kernels at the end (``farthest_pair``,
``distances_to``) give the greedy engines Hamming distances over that matrix
without ever holding a pool-by-pool matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Symbol = str
Word = tuple[Symbol, ...]


class ValidationError(ValueError):
    """Invalid dataset, parameters, or strings."""


class CapExceeded(RuntimeError):
    """An enumeration or DP would exceed its configured size cap."""


class KeyWidthExceeded(CapExceeded):
    """A DP's state keys would not fit in 63 bits: no size cap lets it run."""


class InfeasibleError(RuntimeError):
    """No feasible solution (e.g. every rounding trial filtered out)."""


class SolverNotConverged(InfeasibleError):
    """The LP solver stopped without an optimal solution."""


class InternalError(RuntimeError):
    """A violated internal invariant: a bug in this package, not in the input."""


def as_word(s: Sequence[Symbol] | str) -> Word:
    """Normalize a plain string or symbol sequence to a tuple of symbols."""
    if isinstance(s, tuple):
        return s
    return tuple(s)


def word_str(word: Word) -> str:
    """Join a word for display when all symbols are single characters."""
    return "".join(word)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n strings of uniform length d over an ordered alphabet.

    The strings are held as one (n, d) code matrix: ``codes[r, i]`` is the
    alphabet position of string r's symbol at index i, stored as ``uint8``
    (``uint16`` when the alphabet has more than 255 symbols), so a dataset
    takes about n·d bytes. Datasets compare by identity.
    """

    codes: np.ndarray
    alphabet: tuple[Symbol, ...]
    alphabet_inferred: bool = False

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def d(self) -> int:
        return self.codes.shape[1]

    @property
    def strings(self) -> tuple[Word, ...]:
        """The strings as tuples of symbols, decoded on each access."""
        return self.decode(slice(None))

    def decode(self, rows: slice | Sequence[int]) -> tuple[Word, ...]:
        """The strings at `rows` (a slice or a sequence of indices, repeats
        allowed) as tuples of symbols."""
        symbols = np.array(self.alphabet, dtype=object)
        return tuple(map(tuple, symbols[self.codes[rows]].tolist()))

    @classmethod
    def from_strings(
        cls,
        strings: Iterable[Sequence[Symbol] | str],
        alphabet: Sequence[Symbol] | None = None,
    ) -> "Dataset":
        rows = list(strings)
        if not rows:
            raise ValidationError("empty dataset: at least one string required")
        d = len(rows[0])
        if d < 1:
            raise ValidationError("strings must have length >= 1")
        for idx, row in enumerate(rows):
            if len(row) != d:
                raise ValidationError(
                    f"ragged dataset: string {idx + 1} has length {len(row)}, expected {d}"
                )
        alpha = None if alphabet is None else tuple(alphabet)
        if alpha is not None and len(set(alpha)) != len(alpha):
            raise ValidationError("alphabet contains duplicate symbols")
        if all(isinstance(row, str) for row in rows):
            codes, symbols = _encode_text("".join(rows), alpha)
        else:
            codes, symbols = _encode_cells(rows, alpha)
        codes = codes.reshape(len(rows), d)
        # a symbol outside a declared alphabet is coded len(alpha), above all others
        if alpha is not None and codes.max() == len(alpha):
            r, i = divmod(int((codes == len(alpha)).argmax()), d)
            raise ValidationError(
                f"string {r + 1} uses symbol {as_word(rows[r])[i]!r} outside the declared alphabet"
            )
        return cls(codes=codes, alphabet=symbols, alphabet_inferred=alpha is None)


def _encode_text(
    text: str, alphabet: tuple[Symbol, ...] | None
) -> tuple[np.ndarray, tuple[Symbol, ...]]:
    """Codes of every character of `text`, through a table indexed by code point.

    An inferred alphabet lists the characters that occur in order of their
    first occurrence (documented in the CLI output). With a declared one, a character outside it (or a
    multi-character symbol, which no single character can match) is coded
    len(alphabet).
    """
    if text.isascii():
        points = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    top = int(points.max())
    if alphabet is None:
        present = np.zeros(top + 1, dtype=bool)
        present[points] = True
        alphabet = tuple(sorted(map(chr, np.flatnonzero(present).tolist()), key=text.find))
    table = np.full(top + 1, len(alphabet), dtype=np.min_scalar_type(len(alphabet)))
    for j, a in enumerate(alphabet):
        if isinstance(a, str) and len(a) == 1 and ord(a) <= top:
            table[ord(a)] = j
    return table[points], alphabet


def _encode_cells(
    rows: list[Sequence[Symbol]], alphabet: tuple[Symbol, ...] | None
) -> tuple[np.ndarray, tuple[Symbol, ...]]:
    """Codes of every cell of `rows` by dict lookup (symbols of any length).

    Same coding as ``_encode_text``: first-occurrence order when inferred,
    len(alphabet) for a cell outside a declared alphabet.
    """
    if alphabet is None:
        code: dict[Symbol, int] = {}
        flat = [code.setdefault(a, len(code)) for row in rows for a in row]
        alphabet = tuple(code)
    else:
        code = {a: j for j, a in enumerate(alphabet)}
        flat = [code.get(a, len(alphabet)) for row in rows for a in row]
    return np.array(flat, dtype=np.min_scalar_type(len(alphabet))), alphabet


@dataclass(frozen=True)
class FrequencyTable:
    """Per-index symbol counts and majority sets.

    ``majority_sets[i]`` lists every symbol attaining the maximum count at
    index i, in global symbol order; ties there are what make multiple exact
    medians possible.
    """

    counts: tuple[dict[Symbol, int], ...]
    majority_sets: tuple[tuple[Symbol, ...], ...]
    n: int
    d: int
    alphabet: tuple[Symbol, ...]

    def count(self, i: int, a: Symbol) -> int:
        return self.counts[i].get(a, 0)

    def direct_cost(self, word: Word) -> int:
        """Median objective of `word` straight from the definition.

        Sum over indices of (n - count of word's symbol there); this is the
        double-sum Sum_x H(x, word) folded by columns and is deliberately
        independent of the offset formula in median_cost.
        """
        return sum(self.n - self.counts[i].get(word[i], 0) for i in range(self.d))

    @property
    def tie_set(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.d) if len(self.majority_sets[i]) >= 2)


@dataclass(frozen=True)
class MedianContext:
    """The mfc string w, its second-choice companion, opt, and deviation costs."""

    dataset: Dataset
    freq: FrequencyTable
    w: Word
    w_hat: Word
    opt: int
    # weight[i] = count(w_i) - count(w_hat_i), the cheapest nonzero deviation at i
    # (0 exactly on tie indices).
    weight: tuple[int, ...]
    # per_char_cost[i][a] = count(w_i) - count(a) for every alphabet symbol a != w_i.
    per_char_cost: tuple[dict[Symbol, int], ...]

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    @property
    def alphabet(self) -> tuple[Symbol, ...]:
        return self.dataset.alphabet

    def char_cost(self, i: int, a: Symbol) -> int:
        """Objective increase from placing symbol a at index i instead of w_i."""
        if a == self.w[i]:
            return 0
        return self.per_char_cost[i][a]


def build_context(dataset: Dataset) -> MedianContext:
    """Build frequency tables, w, the second-choice string, opt, and costs.

    Tie-breaks everywhere use the dataset's alphabet order, so the result is
    deterministic. When an index is unanimous (count n), the second choice is
    fixed to the first other alphabet symbol; its weight n can never be picked
    up by any budgeted greedy, it just keeps the structure total.

    Every quantity comes from one (d, |Σ|) count array, built with one pass
    over the code matrix per symbol; only the public dicts and tuples are
    assembled per index, in O(d·|Σ|).
    """
    alpha = dataset.alphabet
    if len(alpha) < 2:
        raise ValidationError("alphabet needs at least 2 symbols to define a second choice")
    counts = np.empty((dataset.d, len(alpha)), dtype=np.int64)
    for j in range(len(alpha)):
        counts[:, j] = (dataset.codes == j).sum(axis=0)

    col_counts: list[dict[Symbol, int]] = []
    majority: list[tuple[Symbol, ...]] = []
    w: list[Symbol] = []
    w_hat: list[Symbol] = []
    weight: list[int] = []
    per_char: list[dict[Symbol, int]] = []
    for row in counts.tolist():
        best = max(row)
        wi = alpha[row.index(best)]  # first maximum: alphabet order breaks ties
        # Second choice: max count among the other symbols (count 0 allowed),
        # ties again by alphabet order, so the first other symbol when unanimous.
        rest = dict(zip(alpha, row))
        del rest[wi]
        rest_best = max(rest.values())
        col_counts.append({a: c for a, c in zip(alpha, row) if c})
        majority.append(tuple(a for a, c in zip(alpha, row) if c == best))
        w.append(wi)
        w_hat.append(next(a for a, c in rest.items() if c == rest_best))
        weight.append(best - rest_best)
        per_char.append({a: best - c for a, c in rest.items()})
    freq = FrequencyTable(
        counts=tuple(col_counts),
        majority_sets=tuple(majority),
        n=dataset.n,
        d=dataset.d,
        alphabet=alpha,
    )
    return MedianContext(
        dataset=dataset,
        freq=freq,
        w=tuple(w),
        w_hat=tuple(w_hat),
        opt=sum(dataset.n - c[a] for c, a in zip(col_counts, w)),
        weight=tuple(weight),
        per_char_cost=tuple(per_char),
    )


def context_from_strings(
    strings: Iterable[Sequence[Symbol] | str],
    alphabet: Sequence[Symbol] | None = None,
) -> MedianContext:
    return build_context(Dataset.from_strings(strings, alphabet))


@dataclass(frozen=True)
class Budget:
    """Exact rational deviation budget eps paired with its integer threshold.

    A deviation weight W (= cost - opt) satisfies the budget iff
    threshold_den * W <= threshold_num, i.e. W <= eps * opt exactly.
    """

    epsilon: Fraction
    opt: int
    threshold_num: int  # p * opt
    threshold_den: int  # q

    @classmethod
    def make(cls, epsilon: Fraction | int | str, opt: int) -> "Budget":
        eps = Fraction(epsilon)
        if eps < 0:
            raise ValidationError("epsilon must be nonnegative")
        if opt < 0:
            raise ValidationError("opt must be nonnegative")
        return cls(
            epsilon=eps,
            opt=opt,
            threshold_num=eps.numerator * opt,
            threshold_den=eps.denominator,
        )

    def within(self, weight: int, mult: int = 1) -> bool:
        """Exact test weight <= mult * eps * opt (mult=2 for the doubled budget)."""
        return self.threshold_den * weight <= mult * self.threshold_num

    @property
    def floor(self) -> int:
        """Largest integer weight that satisfies the budget."""
        return self.threshold_num // self.threshold_den


def hamming(s: Word | str, t: Word | str) -> int:
    s, t = as_word(s), as_word(t)
    if len(s) != len(t):
        raise ValidationError(f"length mismatch: {len(s)} vs {len(t)}")
    return sum(1 for a, b in zip(s, t) if a != b)


def sum_dispersion(members: Sequence[Word | str]) -> int:
    """Sum of pairwise Hamming distances over an (ordered) multiset."""
    words = [as_word(m) for m in members]
    total = 0
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            total += hamming(words[i], words[j])
    return total


def min_dispersion(members: Sequence[Word | str]) -> int:
    """Minimum pairwise Hamming distance; duplicates yield 0."""
    words = [as_word(m) for m in members]
    if len(words) < 2:
        raise ValidationError("min_dispersion needs at least 2 members")
    best = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            h = hamming(words[i], words[j])
            if best is None or h < best:
                best = h
                if best == 0:
                    return 0
    return best


def median_cost(ctx: MedianContext, s: Word | str) -> int:
    """Objective of s via the offset formula: opt plus per-deviation costs."""
    word = as_word(s)
    if len(word) != ctx.d:
        raise ValidationError(f"length mismatch: {len(word)} vs d={ctx.d}")
    total = ctx.opt
    for i, a in enumerate(word):
        if a != ctx.w[i]:
            try:
                total += ctx.per_char_cost[i][a]
            except KeyError:
                raise ValidationError(f"symbol {a!r} at index {i} not in alphabet") from None
    return total


def is_approx_median(ctx: MedianContext, budget: Budget, s: Word | str) -> bool:
    return budget.within(median_cost(ctx, s) - ctx.opt)


def is_exact_median(ctx: MedianContext, s: Word | str) -> bool:
    word = as_word(s)
    return len(word) == ctx.d and all(
        word[i] in ctx.freq.majority_sets[i] for i in range(ctx.d)
    )


@dataclass(frozen=True)
class CandidateSet:
    """Ordered multiset of k candidate strings with cached costs and counts.

    char_counts[i] maps each symbol appearing at index i to the number of
    members carrying it; per index the values sum to k. Duplicate members are
    legal (several constructions use them on purpose).
    """

    members: tuple[Word, ...]
    costs: tuple[int, ...]
    char_counts: tuple[dict[Symbol, int], ...]

    @classmethod
    def from_members(cls, freq: FrequencyTable, members: Sequence[Word | str]) -> "CandidateSet":
        words = tuple(as_word(m) for m in members)
        if not words:
            raise ValidationError("candidate set needs at least one member")
        for word in words:
            if len(word) != freq.d:
                raise ValidationError("candidate length mismatch")
        counts: list[dict[Symbol, int]] = []
        for i in range(freq.d):
            col: dict[Symbol, int] = {}
            for word in words:
                col[word[i]] = col.get(word[i], 0) + 1
            counts.append(col)
        costs = tuple(freq.direct_cost(word) for word in words)
        return cls(members=words, costs=costs, char_counts=tuple(counts))

    @property
    def k(self) -> int:
        return len(self.members)

    def sum_dispersion(self) -> int:
        # Column identity: pairs differing at i = (k^2 - sum of squared counts)/2;
        # always an integer since sum of counts = k and l^2 = l (mod 2).
        k = self.k
        total = 0
        for col in self.char_counts:
            total += (k * k - sum(c * c for c in col.values())) // 2
        return total

    def min_dispersion(self) -> int:
        return min_dispersion(self.members)


# ---------------------------------------------------------------------------
# streaming distance kernels over an integer-coded pool

# Byte budget of one row block of distances in farthest_pair.
BLOCK_BYTES = 2**22


def farthest_pair(codes: np.ndarray, rows: np.ndarray) -> tuple[int, int]:
    """Farthest pair among the pool strings `rows` (ascending indices).

    Returns the row-major first maximum of the distance matrix restricted to
    rows x rows, diagonal included: what argmax over that matrix picks, so a
    pool of copies gives (rows[0], rows[0]). Distances are built one block of
    rows at a time, at most BLOCK_BYTES each, summing the per-column
    mismatches in the smallest unsigned type that holds their count.

    Only the columns on which the rows differ are read: a column where all
    rows agree adds 0 to every distance. They are picked from a copy, for
    `rows`, of the columns on which the pool's strings differ, never from a
    copy of whole rows. A block of rows [lo, hi) only needs its distances to
    the rows from lo on: the matrix is symmetric, so a maximum left of the
    diagonal at (i, j) also sits at (j, i), which comes first in row-major
    order and is in this block or an earlier one.
    """
    varying = np.flatnonzero(codes.min(axis=0) != codes.max(axis=0))
    cols = codes[np.ix_(rows, varying)].T
    cols = np.ascontiguousarray(cols[(cols != cols[:, :1]).any(axis=1)])  # (v, m)
    m = cols.shape[1]
    # no distance exceeds the number of columns left; reaching it means no
    # later block can hold a strictly larger distance
    bound = cols.shape[0]
    dtype = np.min_scalar_type(bound)
    step = max(1, BLOCK_BYTES // (m * dtype.itemsize))
    best, first = -1, (0, 0)
    for lo in range(0, m, step):
        block = np.zeros((min(step, m - lo), m - lo), dtype=dtype)
        for col in cols:
            block += col[lo : lo + step, None] != col[lo:]
        flat = int(block.argmax())
        if block.flat[flat] > best:
            best = int(block.flat[flat])
            r, c = divmod(flat, m - lo)
            first = (lo + r, lo + c)
            if best == bound:
                break
    return int(rows[first[0]]), int(rows[first[1]])


def distances_to(codes: np.ndarray, r: int) -> np.ndarray:
    """Hamming distances from pool string r to every pool string, as one
    vector, comparing one block of rows (at most BLOCK_BYTES) at a time."""
    out = np.empty(len(codes), dtype=np.min_scalar_type(codes.shape[1]))
    step = max(1, BLOCK_BYTES // codes.shape[1])
    for lo in range(0, len(codes), step):
        (codes[lo : lo + step] != codes[r]).sum(axis=1, dtype=out.dtype, out=out[lo : lo + step])
    return out
