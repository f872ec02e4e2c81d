import numpy as np
import pytest
from hypothesis import strategies as st

from diverse_medians import ValidationError, context_from_strings


def random_rows(rng, n=None, d=None, sigma="abc"):
    """n uniform-random strings of length d over sigma."""
    n = n if n is not None else int(rng.integers(2, 9))
    d = d if d is not None else int(rng.integers(1, 7))
    return [
        "".join(sigma[int(rng.integers(0, len(sigma)))] for _ in range(d))
        for _ in range(n)
    ]


@pytest.fixture
def rng():
    # One fixed master seed for the whole suite keeps failures reproducible.
    return np.random.default_rng(20260816)


def tie_columns_rows(d=1000, ties=16):
    """Four binary rows of length d with `ties` 2-2 tie columns spread over
    them: 2**ties exact medians. The other columns are unanimous or 3-1."""
    cols = []
    for i in range(d):
        if i % 62 == 0 and i < 62 * ties:
            cols.append("aabb")
        elif i % 3 == 0:
            cols.append("aaaa")
        else:
            cols.append("".join("b" if r == i % 4 else "a" for r in range(4)))
    return ["".join(col[r] for col in cols) for r in range(4)]


# alphabets for pool tests: |Σ| in {2, 4, 20}, multi-character symbols (as
# CSV cells give them), and 300 symbols, whose codes need uint16
POOL_ALPHABETS = (
    tuple("ab"),
    tuple("acgt"),
    tuple("abcdefghijklmnopqrst"),
    ("ala", "gly", "ser", "thr"),
    tuple(f"s{j}" for j in range(300)),
)


@st.composite
def pool_contexts(draw):
    """A context over one of POOL_ALPHABETS: up to 6 rows of length <= 6,
    drawn from at most 5 of its symbols (so that ties occur)."""
    alphabet = draw(st.sampled_from(POOL_ALPHABETS))
    used = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=5, unique=True))
    d = draw(st.integers(1, 6))
    row = st.lists(st.sampled_from(used), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=2, max_size=6))
    return context_from_strings(rows, alphabet=alphabet)


def reference_context(words, alpha):
    """The loop-built context: one dict of counts per column."""
    order = {a: j for j, a in enumerate(alpha)}
    n, d = len(words), len(words[0])
    counts, majority, w, w_hat, weight, per_char = [], [], [], [], [], []
    for i in range(d):
        col = {}
        for word in words:
            col[word[i]] = col.get(word[i], 0) + 1
        col = dict(sorted(col.items(), key=lambda kv: order[kv[0]]))
        counts.append(col)
        best = max(col.values())
        gamma_i = tuple(a for a in col if col[a] == best)
        majority.append(gamma_i)
        wi = gamma_i[0]
        w.append(wi)
        rest_best = 0
        for a, c in col.items():
            if a != wi and c > rest_best:
                rest_best = c
        if rest_best > 0:
            hat = next(a for a, c in col.items() if a != wi and c == rest_best)
        else:
            if len(alpha) < 2:
                raise ValidationError(
                    "alphabet needs at least 2 symbols to define a second choice"
                )
            hat = next(a for a in alpha if a != wi)
        w_hat.append(hat)
        weight.append(best - rest_best)
        per_char.append({a: best - col.get(a, 0) for a in alpha if a != wi})
    opt = sum(n - counts[i][w[i]] for i in range(d))
    return dict(counts=counts, majority_sets=majority, w=tuple(w), w_hat=tuple(w_hat),
                weight=tuple(weight), per_char_cost=per_char, opt=opt)
