"""Foundational types and exact arithmetic for string datasets and medians.

Everything downstream (diameter pairs, dispersion maximizers, LP rounding,
oracles) builds on the objects here: the integer-coded dataset, the median
context (one (d, |Σ|) table of symbol counts, with the deviation costs and
the per-index symbol ranks that give ``w``, its second-choice companion and
``opt``), exact rational deviation budgets, and candidate sets.

All budget comparisons are exact integer comparisons (cross-multiplied
rationals); no float ever decides feasibility.

Strings stay symbol codes from ingest to the k picks: an enumerated pool of
candidate strings is a ``Dataset`` (its (p, d) code matrix over the
context's alphabet), and so are the members of a candidate set, decoded only
when read as symbols. The pool kernels at the end (``farthest_pair``,
``distances_to``) give the greedy engines Hamming distances over that matrix
without ever holding a pool-by-pool matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Symbol = str
Word = tuple[Symbol, ...]


class ValidationError(ValueError):
    """Invalid dataset, parameters, or strings."""


class CapExceeded(RuntimeError):
    """An enumeration or DP would exceed its configured size cap; ``knob``
    names the ``EnumerationLimits`` field that sets that cap."""

    def __init__(self, message: str, knob: str | None):
        super().__init__(message)
        self.knob = knob


class KeyWidthExceeded(CapExceeded):
    """A DP's state keys would not fit in 63 bits: no size cap lets it run."""

    def __init__(self, message: str):
        super().__init__(message, None)


class InfeasibleError(RuntimeError):
    """No feasible solution (e.g. every rounding trial filtered out)."""


class SolverNotConverged(InfeasibleError):
    """The LP solver stopped without an optimal solution."""


class InternalError(RuntimeError):
    """A violated internal invariant: a bug in this package, not in the input."""


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
        symbols = np.array(self.alphabet, dtype=object)
        return tuple(map(tuple, symbols[self.codes].tolist()))

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
                f"string {r + 1} uses symbol {rows[r][i]!r} outside the declared alphabet"
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


@dataclass(frozen=True, eq=False)
class MedianContext:
    """A dataset's (d, |Σ|) symbol-count table and everything the median space
    derives from it, all indexed by symbol code.

    ``counts[i, a]`` is how many strings hold symbol a at index i, and
    ``cost[i, a] = max(counts[i]) - counts[i, a]`` is the objective increase
    from placing a at index i instead of w_i: 0 exactly on the majority set.
    ``rank[i]`` lists the symbols at index i by ascending cost, alphabet order
    on ties, so ``rank[i, 0]`` is w_i, the most frequent symbol, and
    ``rank[i, 1]`` the second choice w_hat_i; the majority set at i is
    ``rank[i, :g_i]`` with g_i = ``majority_sizes[i]``, in alphabet order.
    Tie-breaks everywhere use the dataset's alphabet order, so all of it is
    deterministic. Contexts compare by identity.
    """

    dataset: Dataset
    counts: np.ndarray
    cost: np.ndarray
    rank: np.ndarray
    opt: int

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d

    @property
    def alphabet(self) -> tuple[Symbol, ...]:
        return self.dataset.alphabet

    @property
    def majority_sizes(self) -> np.ndarray:
        """Size of the majority set at every index (2 or more on tie indices)."""
        return (self.cost == 0).sum(axis=1)

    @cached_property
    def w(self) -> Word:
        """The most-frequent-symbol string, an exact median."""
        return self._decode(self.rank[:, 0])

    @cached_property
    def w_hat(self) -> Word:
        """The second-choice string."""
        return self._decode(self.rank[:, 1])

    @cached_property
    def weight(self) -> tuple[int, ...]:
        """weight[i] = count(w_i) - count(w_hat_i), the cheapest nonzero
        deviation at i (0 exactly on tie indices)."""
        return tuple(self.cost[np.arange(self.d), self.rank[:, 1]].tolist())

    def _decode(self, codes: np.ndarray) -> Word:
        return tuple(self.alphabet[a] for a in codes.tolist())

    def encode(self, s: Sequence[Symbol] | str) -> np.ndarray:
        """The codes of a string of length d over the context's alphabet."""
        if len(s) != self.d:
            raise ValidationError(f"length mismatch: {len(s)} vs d={self.d}")
        return Dataset.from_strings([s], self.alphabet).codes[0]


def build_context(dataset: Dataset) -> MedianContext:
    """Count every symbol at every index, in one pass over the code matrix per
    symbol, and derive costs, ranks and opt from that table.

    When an index is unanimous (count n), the second choice is the first
    other alphabet symbol; its weight n can never be picked up by any
    budgeted greedy, it just keeps the structure total.
    """
    if len(dataset.alphabet) < 2:
        raise ValidationError("alphabet needs at least 2 symbols to define a second choice")
    counts = np.empty((dataset.d, len(dataset.alphabet)), dtype=np.int64)
    for j in range(len(dataset.alphabet)):
        counts[:, j] = (dataset.codes == j).sum(axis=0)
    best = counts.max(axis=1)
    cost = best[:, None] - counts
    rank = np.argsort(cost, axis=1, kind="stable").astype(dataset.codes.dtype)
    return MedianContext(dataset=dataset, counts=counts, cost=cost, rank=rank,
                         opt=int((dataset.n - best).sum()))


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


def hamming(s: Sequence[Symbol] | str, t: Sequence[Symbol] | str) -> int:
    if len(s) != len(t):
        raise ValidationError(f"length mismatch: {len(s)} vs {len(t)}")
    return sum(1 for a, b in zip(s, t) if a != b)


def sum_dispersion(members: Sequence[Sequence[Symbol] | str]) -> int:
    """Sum of pairwise Hamming distances over an (ordered) multiset."""
    total = 0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            total += hamming(members[i], members[j])
    return total


def min_dispersion(members: Sequence[Sequence[Symbol] | str]) -> int:
    """Minimum pairwise Hamming distance; duplicates yield 0."""
    if len(members) < 2:
        raise ValidationError("min_dispersion needs at least 2 members")
    best = None
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            h = hamming(members[i], members[j])
            if best is None or h < best:
                best = h
                if best == 0:
                    return 0
    return best


def median_cost(ctx: MedianContext, s: Sequence[Symbol] | str) -> int:
    """Objective of s via the offset formula: opt plus per-deviation costs."""
    return ctx.opt + int(ctx.cost[np.arange(ctx.d), ctx.encode(s)].sum())


def is_approx_median(ctx: MedianContext, budget: Budget, s: Sequence[Symbol] | str) -> bool:
    return budget.within(median_cost(ctx, s) - ctx.opt)


def is_exact_median(ctx: MedianContext, s: Sequence[Symbol] | str) -> bool:
    """True when s has length d and a majority symbol at every index."""
    try:
        return median_cost(ctx, s) == ctx.opt
    except ValidationError:
        return False


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Ordered multiset of k candidate strings with cached costs.

    The members are a (k, d) code matrix over the context's alphabet, held as
    a ``Dataset`` like a pool; ``members`` decodes them. Duplicate members are
    legal (several constructions use them on purpose).
    """

    dataset: Dataset
    costs: tuple[int, ...]

    @classmethod
    def from_members(
        cls, ctx: MedianContext, codes: np.ndarray | Sequence[Sequence[int]]
    ) -> "CandidateSet":
        """The candidate set whose member r has the symbol codes ``codes[r]``
        (a (k, d) matrix over the context's alphabet); costs are gathered
        from ``ctx.cost``."""
        codes = np.asarray(codes, dtype=ctx.dataset.codes.dtype)
        if codes.ndim != 2 or len(codes) == 0:
            raise ValidationError("candidate set needs at least one member")
        if codes.shape[1] != ctx.d:
            raise ValidationError("candidate length mismatch")
        costs = ctx.opt + ctx.cost[np.arange(ctx.d), codes].sum(axis=1)
        return cls(dataset=Dataset(codes=codes, alphabet=ctx.alphabet), costs=tuple(costs.tolist()))

    @property
    def codes(self) -> np.ndarray:
        return self.dataset.codes

    @property
    def members(self) -> tuple[Word, ...]:
        return self.dataset.strings

    @property
    def k(self) -> int:
        return self.dataset.n

    def sum_dispersion(self) -> int:
        # Column identity: pairs differing at i = (k^2 - sum of squared counts)/2,
        # where the counts are how many members carry each symbol at i; always
        # an integer since the counts sum to k and l^2 = l (mod 2).
        k, d = self.codes.shape
        sigma = len(self.dataset.alphabet)
        flat = (self.codes + np.arange(d) * sigma).ravel()
        counts = np.bincount(flat, minlength=d * sigma).astype(np.int64)
        return (k * k * d - int((counts * counts).sum())) // 2

    def min_dispersion(self) -> int:
        return min_distance(self.codes)


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


def min_distance(codes: np.ndarray) -> int:
    """Minimum Hamming distance between two rows of a code matrix (two rows
    or more; a repeated row gives 0), one distances_to vector per row."""
    if len(codes) < 2:
        raise ValidationError("min_dispersion needs at least 2 members")
    return min(int(distances_to(codes[r:], 0)[1:].min()) for r in range(len(codes) - 1))


def distances_to(codes: np.ndarray, r: int) -> np.ndarray:
    """Hamming distances from pool string r to every pool string, as one
    vector, comparing one block of rows (at most BLOCK_BYTES) at a time."""
    out = np.empty(len(codes), dtype=np.min_scalar_type(codes.shape[1]))
    step = max(1, BLOCK_BYTES // codes.shape[1])
    for lo in range(0, len(codes), step):
        (codes[lo : lo + step] != codes[r]).sum(axis=1, dtype=out.dtype, out=out[lo : lo + step])
    return out
