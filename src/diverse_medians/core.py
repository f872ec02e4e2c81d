"""Foundational types and exact arithmetic for string datasets and medians.

Everything downstream (diameter pairs, dispersion maximizers, LP rounding,
oracles) builds on the objects here: the integer-coded dataset, the median
context (the (d, |Σ|) table of deviation costs and the per-index symbol
ranks that give ``w``, its second-choice companion and ``opt``), exact
rational deviation budgets, the enumeration caps, and candidate sets.

All budget comparisons are exact integer comparisons (cross-multiplied
rationals); no float ever decides feasibility.

Strings stay symbol codes from ingest to the k picks: an enumerated pool of
candidate strings is a ``Dataset`` (its (p, d) code matrix over the
context's alphabet), and so are a candidate set and a diameter pair, decoded
only when read as symbols, all through one decoder (``decode``). The pool
kernels at the end (``FarthestPairs``, ``distances_to``) give the greedy
engines Hamming distances over that matrix without ever holding a
pool-by-pool matrix. ``FarthestPairs`` lays out the pool's one-hot matrix once and reads
farthest partners off float inner products of its 0/1 rows, integers that
every BLAS sums exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from decimal import Decimal
from functools import cached_property, lru_cache, reduce
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Symbol = str
Word = tuple[Symbol, ...]


class ValidationError(ValueError):
    """Invalid dataset, parameters, or strings."""


class CapExceeded(RuntimeError):
    """An enumeration or DP would exceed its configured size cap; ``knob``
    names the ``EnumerationLimits`` field that sets that cap, or is None when
    no cap lets it run (a DP whose state keys would not fit in 63 bits)."""

    def __init__(self, message: str, knob: str | None):
        super().__init__(message)
        self.knob = knob


class InfeasibleError(RuntimeError):
    """No feasible solution (e.g. every rounding trial filtered out)."""


class SolverNotConverged(InfeasibleError):
    """The LP solver stopped without an optimal solution."""


class InternalError(RuntimeError):
    """A violated internal invariant: a bug in this package, not in the input."""


@dataclass(frozen=True)
class EnumerationLimits:
    """Hard caps checked with exact arithmetic before any enumeration starts.
    Each is at least 1; a CapExceeded names the field it hit as its knob."""

    max_candidates: int = 10**5
    max_tuples: int = 10**7
    max_states: int = 10**7

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValidationError(f"{f.name} must be >= 1")

    def check(self, knob: str, amount: int, what: str) -> None:
        """Refuse `what` when `amount` exceeds the cap of the field `knob`,
        compared in exact integers; the message states both (see _stated)."""
        cap = getattr(self, knob)
        if amount > cap:
            raise CapExceeded(f"{what}: {_stated(amount)} exceeds {knob}={_stated(cap)}", knob)


DEFAULT_LIMITS = EnumerationLimits()

# str() refuses an int of more than this many digits (CPython's default
# sys.get_int_max_str_digits()). A longer flag is refused, a longer cap
# amount is stated by its size, and str(Decimal(n)) prints longer results.
SHOWN_DIGITS = 4300


def _stated(n: int) -> str:
    """n >= 0 in decimal, or past SHOWN_DIGITS digits as "2^b or more" with
    b = n.bit_length() - 1, which stays true of any amount n bounds from below."""
    return str(Decimal(n)) if n < 10**SHOWN_DIGITS else f"2^{n.bit_length() - 1} or more"

# Byte budget of one block of rows (row_blocks) or one one-hot chunk (FarthestPairs).
BLOCK_BYTES = 2**22


def row_blocks(m: int, row_bytes: int) -> Iterator[slice]:
    """Rows 0..m-1 as consecutive slices of at least one row and at most
    BLOCK_BYTES at `row_bytes` per row, BLOCK_BYTES read on the call."""
    step = max(1, BLOCK_BYTES // max(1, row_bytes))
    return (slice(lo, min(lo + step, m)) for lo in range(0, m, step))


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
        return tuple(map(tuple, decode(self.codes, self.alphabet)))

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


def decode(codes: np.ndarray, alphabet: Sequence[Symbol]) -> list:
    """Every row of an (m, d) code matrix as symbols: a string when every
    symbol is one character, else a list of symbols. Rows are decoded one
    block of at most BLOCK_BYTES at a time: never the whole matrix as
    symbols. The one decoder: the CLI renders its documents with it, and
    ``Dataset.strings`` and ``MedianContext.w`` read their tuples off it."""
    m, d = codes.shape
    joined = all(isinstance(a, str) and len(a) == 1 for a in alphabet)
    if joined:
        points = np.array([ord(a) for a in alphabet], dtype=np.uint32)
    else:
        symbols = np.array(alphabet, dtype=object)
    out: list = []
    for rows in row_blocks(m, 8 * d):
        block = codes[rows]
        if joined:  # one text of the block's rows, cut into rows
            text = points[block].tobytes().decode("utf-32-le", "surrogatepass")
            out.extend(text[j : j + d] for j in range(0, len(text), d))
        else:
            out.extend(symbols[block].tolist())
    return out


@dataclass(frozen=True, eq=False)
class MedianContext:
    """A dataset's (d, |Σ|) deviation costs and symbol ranks, and everything
    the median space derives from them, all indexed by symbol code.

    ``cost[i, a]`` is how many more strings hold w_i than a at index i: the
    objective increase from placing a at index i instead of w_i, 0 exactly
    on the majority set. ``rank[i]`` lists the symbols at index i by
    ascending cost, alphabet order on ties, so ``rank[i, 0]`` is w_i, the
    most frequent symbol, and ``rank[i, 1]`` the second choice w_hat_i; the
    majority set at i is ``rank[i, :g_i]`` with g_i = ``majority_sizes[i]``,
    in alphabet order. Tie-breaks everywhere use the dataset's alphabet
    order, so all of it is deterministic. A context holds its dataset rather
    than being one, so it is never taken for a pool. Contexts compare by
    identity.
    """

    dataset: Dataset
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

    @cached_property
    def majority_sizes(self) -> np.ndarray:
        """Size of the majority set at every index (2 or more on tie indices)."""
        return (self.cost == 0).sum(axis=1)

    @cached_property
    def w(self) -> Word:
        """The most-frequent-symbol string, an exact median."""
        return tuple(decode(self.rank[None, :, 0], self.alphabet)[0])

    @cached_property
    def w_hat(self) -> Word:
        """The second-choice string."""
        return tuple(decode(self.rank[None, :, 1], self.alphabet)[0])

    @cached_property
    def weight(self) -> tuple[int, ...]:
        """weight[i] = count(w_i) - count(w_hat_i), the cheapest nonzero
        deviation at i (0 exactly on tie indices)."""
        return tuple(self.cost[np.arange(self.d), self.rank[:, 1]].tolist())

    def costs_of(self, codes: np.ndarray) -> np.ndarray:
        """The objective of every row of an (m, d) code matrix, gathering the
        costs of one block of rows (at most BLOCK_BYTES) at a time."""
        cols = np.arange(self.d)
        out = np.empty(len(codes), dtype=np.int64)
        for rows in row_blocks(len(codes), 8 * self.d):
            out[rows] = self.cost[cols, codes[rows]].sum(axis=1)
        return self.opt + out

    def encode(self, s: Sequence[Symbol] | str) -> np.ndarray:
        """The codes of a string of length d over the context's alphabet."""
        if len(s) != self.d:
            raise ValidationError(f"length mismatch: {len(s)} vs d={self.d}")
        return Dataset.from_strings([s], self.alphabet).codes[0]


def symbol_counts(codes: np.ndarray, sigma: int) -> np.ndarray:
    """The (d, sigma) int64 table of how many rows of an (m, d) code matrix,
    every code below sigma, hold each symbol at each index: one np.bincount
    of index*sigma + code per block of columns (row_blocks at 8*max(m, sigma)
    bytes a column), O(m*d) time whatever sigma. The one per-index count."""
    m, d = codes.shape
    counts = np.empty((d, sigma), dtype=np.int64)
    offsets = np.arange(d, dtype=np.int64) * sigma
    for cols in row_blocks(d, 8 * max(m, sigma)):
        ids = codes[:, cols] + offsets[: cols.stop - cols.start]
        counts[cols] = np.bincount(ids.ravel(), minlength=ids.shape[1] * sigma).reshape(-1, sigma)
    return counts


def build_context(dataset: Dataset) -> MedianContext:
    """Count every symbol at every index (symbol_counts), turn that table into
    the costs in place, and derive ranks and opt from it.

    When an index is unanimous (count n), the second choice is the first
    other alphabet symbol; its weight n can never be picked up by any
    budgeted greedy, it just keeps the structure total.
    """
    if len(dataset.alphabet) < 2:
        raise ValidationError("alphabet needs at least 2 symbols to define a second choice")
    cost = symbol_counts(dataset.codes, len(dataset.alphabet))
    best = cost.max(axis=1)
    np.subtract(best[:, None], cost, out=cost)
    rank = np.empty(cost.shape, dtype=dataset.codes.dtype)
    for rows in row_blocks(len(cost), 8 * cost.shape[1]):  # argsort's int64 order per block
        rank[rows] = np.argsort(cost[rows], axis=1, kind="stable")
    return MedianContext(dataset=dataset, cost=cost, rank=rank,
                         opt=int((dataset.n - best).sum()))


def context_from_strings(
    strings: Iterable[Sequence[Symbol] | str],
    alphabet: Sequence[Symbol] | None = None,
) -> MedianContext:
    return build_context(Dataset.from_strings(strings, alphabet))


@dataclass(frozen=True)
class Budget:
    """Exact rational deviation budget eps over an instance of optimum opt.

    A deviation weight W (= cost - opt) satisfies the budget iff
    W <= eps * opt, decided as q * W <= p * opt for eps = p/q.
    """

    epsilon: Fraction
    opt: int

    @classmethod
    def make(cls, epsilon: Fraction | int | str, opt: int) -> "Budget":
        eps = Fraction(epsilon)
        if eps < 0:
            raise ValidationError("epsilon must be nonnegative")
        if opt < 0:
            raise ValidationError("opt must be nonnegative")
        return cls(epsilon=eps, opt=opt)

    def within(self, weight: int, mult: int = 1) -> bool:
        """Exact test weight <= mult * eps * opt (mult=2 for the doubled budget)."""
        return self.epsilon.denominator * weight <= mult * self.epsilon.numerator * self.opt

    @property
    def floor(self) -> int:
        """Largest integer weight that satisfies the budget."""
        return self.epsilon.numerator * self.opt // self.epsilon.denominator


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
    return int(ctx.costs_of(ctx.encode(s)[None])[0])


def is_approx_median(ctx: MedianContext, budget: Budget, s: Sequence[Symbol] | str) -> bool:
    return budget.within(median_cost(ctx, s) - ctx.opt)


def is_exact_median(ctx: MedianContext, s: Sequence[Symbol] | str) -> bool:
    """True when s has length d and a majority symbol at every index."""
    try:
        return median_cost(ctx, s) == ctx.opt
    except ValidationError:
        return False


@dataclass(frozen=True, eq=False)
class CandidateSet(Dataset):
    """Ordered multiset of k candidate strings: a ``Dataset`` of k rows over
    the context's alphabet, like a pool. ``members`` decodes them (it is
    ``strings``) and ``k`` counts them (it is ``n``). Duplicate members are
    legal (several constructions use them on purpose).
    """

    members = Dataset.strings
    k = Dataset.n

    @classmethod
    def from_members(
        cls, ctx: MedianContext, codes: np.ndarray | Sequence[Sequence[int]]
    ) -> "CandidateSet":
        """The candidate set whose member r has the symbol codes ``codes[r]``
        (a (k, d) matrix over the context's alphabet)."""
        codes = np.asarray(codes, dtype=ctx.rank.dtype)
        if codes.ndim != 2 or len(codes) == 0:
            raise ValidationError("candidate set needs at least one member")
        if codes.shape[1] != ctx.d:
            raise ValidationError("candidate length mismatch")
        return cls(codes=codes, alphabet=ctx.alphabet)

    def sum_dispersion(self) -> int:
        # Column identity: pairs differing at i = (k^2 - sum of squared counts)/2,
        # where the counts are how many members carry each symbol at i; always
        # an integer since the counts sum to k and l^2 = l (mod 2).
        k, d = self.codes.shape
        counts = symbol_counts(self.codes, len(self.alphabet))
        return (k * k * d - int(np.vdot(counts, counts))) // 2

    def min_dispersion(self) -> int:
        return min_distance(self.codes)


# ---------------------------------------------------------------------------
# streaming distance kernels over an integer-coded pool


class FarthestPairs:
    """Farthest pairs of a shrinking set of available pool strings (all of
    them at first), round after round.

    Row q's maximum is the largest distance from string q to an available
    string s >= q, and its partner the first s at that distance; s = q
    counts, so a row whose later strings are all copies of it is its own
    partner at distance 0. Each row's maximum and partner are kept between
    rounds. Taking a pair (i, j) leaves every row whose partner is neither i
    nor j with the same maximum and the same first argmax, so only the rows
    whose partner was i or j are computed again. Rows are computed lazily,
    in pool order, one block at a time, up to the first block in which a row
    reaches v, the number of columns on which the pool differs: no distance
    exceeds it, so a row after that block cannot be the first to hold the
    maximum.

    Distances are exact inner products. X is the one-hot matrix over the
    (column, symbol present) pairs of those v columns, so each string has v
    ones and the distance between strings a and b is v - X_a . X_b. Every
    term is 0 or 1, so every partial sum is an integer at most v: exact in
    float32 below 2^24 (float64 beyond) whatever the BLAS summation order.
    The products run as blocked X[block] @ X[from the block's first row on].T,
    with the taken strings masked.

    The layout is worked out once per pool. Memory besides the codes: the
    copy of the columns that vary over the pool (p*v bytes), and
    O(BLOCK_BYTES) for the rest. X is built one chunk of at most BLOCK_BYTES
    at a time (at least one column); a pool whose X fits one chunk builds it
    once, on the first pair(). A block of inner products holds at most
    BLOCK_BYTES (at least one row).
    """

    def __init__(self, codes: np.ndarray):
        p = len(codes)
        cols = codes[:, np.flatnonzero(codes.min(axis=0) != codes.max(axis=0))]
        # X's column f is cols[:, col_of[f]] == sym_of[f], one per symbol present
        col_of, sym_of = np.nonzero(symbol_counts(cols, int(cols.max(initial=0)) + 1))
        self.v = cols.shape[1]
        self.dtype = dtype = np.dtype(np.float32 if self.v < 2**24 else np.float64)
        width = max(1, BLOCK_BYTES // (p * dtype.itemsize))
        # no varying column leaves one empty chunk, whose products are all 0
        self.chunks = range(0, max(len(col_of), 1), width)
        # rows per block: the same byte budget, and 16 blocks or more where
        # the rows allow it, since a block's own square is computed whole and
        # then masked below its diagonal
        self.step = min(width, max(32, p // 16))

        @lru_cache(maxsize=1)  # the chunk built last: all of X when it fits one
        def onehot(f: int) -> np.ndarray:
            return (cols[:, col_of[f : f + width]] == sym_of[f : f + width]).astype(dtype)

        self.onehot = onehot
        self.avail = np.ones(p, dtype=bool)
        self.far = np.full(p, -1, dtype=np.int64)  # -1: taken or not computed
        self.partner = np.zeros(p, dtype=np.int64)

    def pair(self) -> tuple[int, int]:
        """The row-major first maximum of the distance matrix over the
        available strings, diagonal included, what argmax over that matrix
        picks, so a pool of copies gives (0, 0): the first row whose maximum
        is the global maximum, and its partner (a maximum left of the
        diagonal at (i, j) also sits at (j, i), which comes first)."""
        todo = np.flatnonzero(self.avail & (self.far < 0))
        p = len(self.avail)
        buf = np.empty(min(self.step, len(todo)) * p, dtype=self.dtype)  # every block's products
        for lo in range(0, len(todo), self.step):
            q = todo[lo : lo + self.step]
            start = int(q[0])
            inner = buf[: len(q) * (p - start)].reshape(len(q), p - start)
            for f in self.chunks:
                x = self.onehot(f)
                if f:
                    inner += x[q] @ x[start:].T
                else:
                    np.matmul(x[q], x[start:].T, out=inner)
            # s < q lies left of the diagonal; only the first q[-1] - start columns hold any
            w = int(q[-1]) - start
            inner[:, :w][np.arange(w) < (q - start)[:, None]] = np.inf
            inner[:, ~self.avail[start:]] = np.inf
            s = inner.argmin(axis=1)  # most agreement: the first farthest partner
            self.far[q] = self.v - inner[np.arange(len(q)), s].astype(np.int64)
            self.partner[q] = start + s
            if self.far[q].max() == self.v:
                break
        i = int(self.far.argmax())
        return i, int(self.partner[i])

    def take(self, i: int, j: int) -> None:
        """Make strings i and j unavailable; the rows whose partner was one
        of them are computed again by the next pair()."""
        self.avail[[i, j]] = False
        self.far[[i, j]] = -1
        self.far[self.avail & ((self.partner == i) | (self.partner == j))] = -1


def min_distance(codes: np.ndarray, floor: int = -1) -> int:
    """Minimum Hamming distance between two rows of a code matrix (two rows
    or more): 0 at once when a row repeats, else one distances_to vector per
    row. Once the running minimum is at most `floor` it is returned at once,
    an upper bound then, not the minimum (the default -1 scans every row)."""
    if len(codes) < 2:
        raise ValidationError("min_dispersion needs at least 2 members")
    if len(set(map(bytes, codes))) < len(codes):  # np.unique(axis=0) sorts far slower
        return 0
    low = codes.shape[1]
    for r in range(len(codes) - 1):
        low = min(low, int(distances_to(codes[r:], 0)[1:].min()))
        if low <= floor:
            break
    return low


def best_trial(trials: int, draw: Callable[[int], np.ndarray | None]) -> tuple:
    """Every best-of-N-trials engine's pick, holding two trials at most: of the
    code matrices draw(0), ..., draw(trials - 1), None skipped, the first with
    the largest min_distance, as (t, codes, count not None) or (-1, None, 0)."""
    chosen, best, value, admitted = -1, None, -1, 0
    for t, codes in enumerate(map(draw, range(trials))):
        if codes is not None:
            admitted += 1
            here = min_distance(codes, floor=value)  # a tie keeps the earlier
            if here > value:
                chosen, best, value = t, codes, here
    return chosen, best, admitted


def distances_to(codes: np.ndarray, r: int) -> np.ndarray:
    """Hamming distances from pool string r to every pool string, as one
    vector, comparing one block of rows (at most BLOCK_BYTES) at a time."""
    out = np.empty(len(codes), dtype=np.min_scalar_type(codes.shape[1]))
    for rows in row_blocks(len(codes), codes.shape[1]):
        (codes[rows] != codes[r]).sum(axis=1, dtype=out.dtype, out=out[rows])
    return out


def pool_greedy(ctx: MedianContext, pool: Dataset, k: int, fold: np.ufunc,
                pairs: int) -> CandidateSet:
    """k pool rows: up to min(pairs, k // 2) farthest pairs of the strings
    not yet taken (FarthestPairs), stopping early at a pair of copies or
    when fewer than two strings are left (row 0 alone if none is taken),
    then one at a time the first row with the largest `fold` (np.minimum or
    np.add) of its distances to the chosen. Once that is 0 for every row it
    stays 0 (a sum of 0 means every row equals row 0): the rows still
    missing are row 0, added with no more pass. A row picked again (the sum
    fold past p picks) reuses its distance vector from a memo of at most
    BLOCK_BYTES of vectors."""
    if pool.n == 0:
        raise ValidationError("candidate pool is empty")
    if k < 1:
        raise ValidationError("k must be >= 1")
    codes = pool.codes
    vector_bytes = pool.n * np.min_scalar_type(pool.d).itemsize
    dist = lru_cache(maxsize=max(1, BLOCK_BYTES // vector_bytes))(
        lambda r: distances_to(codes, r))
    chosen = []
    if pool.n > 1 and k > 1:
        far = FarthestPairs(codes)
        while len(chosen) < 2 * min(pairs, k // 2) and far.avail.sum() >= 2:
            i, j = far.pair()
            if i == j:  # only copies of one string left available
                break
            chosen.extend((i, j))
            far.take(i, j)
    chosen = chosen or [0]
    value = reduce(fold, (dist(r).astype(np.int64) for r in chosen))
    while len(chosen) < k and value.any():
        chosen.append(int(value.argmax()))  # ties: lowest pool index
        fold(value, dist(chosen[-1]), out=value)
    return CandidateSet.from_members(ctx, codes[chosen + [0] * (k - len(chosen))])
