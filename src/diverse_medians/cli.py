"""Command-line front end: dataset ingestion, strategy dispatch, JSON output.

One run produces one JSON document (schema "diverse-medians/1") on standard
output, or at --output. Diagnostics go to standard error only. Identical
(config, seed, input) triples produce byte-identical documents; wall time is
therefore only embedded when --timing asks for it.

Exit codes: 0 success, 2 validation error, 3 enumeration/state cap exceeded,
4 infeasible or solver nonconvergence, 5 internal error (a violated invariant).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    BLOCK_BYTES,
    Budget,
    CandidateSet,
    CapExceeded,
    Dataset,
    InfeasibleError,
    InternalError,
    MedianContext,
    ValidationError,
    build_context,
    median_cost,
)
from .diameter import DiameterResult, approx_diameter_pair, exact_diameter_pair
from .lpround import lp_min_dispersion
from .mindisp import (
    BoundCertificate,
    SampleConfig,
    _diameter_at_least,
    bound_certificate,
    greedy_dispersion,
    min_disp_dp_approx,
    plotkin_bound,
    sample_approx_medians,
    sample_exact_medians,
)
from .oracle import (
    DEFAULT_LIMITS,
    EnumerationLimits,
    approx_median_pool,
    brute_diameter,
    brute_max_code_size,
    brute_mindp_k,
    brute_sumdp_k,
    exact_median_pool,
)
from .sumdisp import (
    sum_dispersion_approx_k,
    sum_dispersion_exact_k,
    sum_dispersion_small_dstar,
)

SCHEMA = "diverse-medians/1"

OBJECTIVES = ("median", "diameter", "sum-dispersion", "min-dispersion", "bound", "oracle")
STRATEGIES = ("auto", "dp", "greedy", "sample", "lp", "exact-construction")
FORMATS = ("lines", "fasta", "csv")
ORACLE_OPS = ("exact-medians", "approx-medians", "diameter", "sumdp", "mindp",
              "max-code-size")

# Cost class -> (label appended to the guarantee, a, b): every member costs at
# most (1 + a*eps + b*delta) * opt. Members are re-checked against it.
COST_CLASSES = {
    "exact": ("cost == opt", 0, 0),
    "approx": ("cost <= (1+eps)*opt", 1, 0),
    "mix": ("cost <= (1+2*eps)*opt", 2, 0),
    "lp": ("cost <= (1+eps+delta)*opt", 1, 1),
}


class Strategy(NamedTuple):
    """A STRATEGY_TABLE row; the engine maps the run's _Job to a CandidateSet."""

    guarantee: str
    cost_class: str
    engine: Callable[["_Job"], CandidateSet]


def _lp(j: "_Job") -> CandidateSet:
    cands, report = lp_min_dispersion(j.ctx, j.budget, j.k, j.delta, j.eta, j.seed)
    j.doc["lp_report"] = asdict(report)
    return cands


# (objective, regime, strategy tag) -> Strategy. The regime is "exact" at
# eps == 0 and "approx" above it; an "any" row holds in both. The engines call
# the approximate entry points, whose pools at eps == 0 (B = 0) are the exact
# medians, and look them up by module-global name when they run, so patching
# cli.<name> reaches them.
STRATEGY_TABLE = {
    ("sum-dispersion", "any", "exact-construction"): Strategy(
        "exact optimum sumDp over exact medians", "exact",
        lambda j: sum_dispersion_exact_k(j.ctx, j.k)),
    ("sum-dispersion", "any", "greedy"): Strategy(
        "farthest-pair + max-gain insertion; value >= optimum / 2", "approx",
        lambda j: sum_dispersion_small_dstar(j.ctx, j.k, j.pool())),
    ("sum-dispersion", "any", "density"): Strategy(
        "value >= (1 - delta) * optimum", "approx",
        lambda j: sum_dispersion_approx_k(j.ctx, j.budget, j.k)[0]),
    ("sum-dispersion", "any", "enumeration"): Strategy(
        "value >= optimum / 2", "approx",
        lambda j: sum_dispersion_small_dstar(j.ctx, j.k, j.pool())),
    ("sum-dispersion", "any", "density_fallback"): Strategy(
        "pool enumeration over cap; density value >= (1 - 4/D*) * optimum", "approx",
        lambda j: sum_dispersion_approx_k(j.ctx, j.budget, j.k)[0]),
    ("min-dispersion", "exact", "dp"): Strategy(
        "exact optimum minDp over exact medians", "exact",
        lambda j: min_disp_dp_approx(j.ctx, j.budget, j.k, limits=j.limits)[1]),
    ("min-dispersion", "exact", "greedy"): Strategy(
        "minDp >= t_star/2", "exact",
        lambda j: greedy_dispersion(j.pool(), j.k, j.ctx)),
    ("min-dispersion", "exact", "sample"): Strategy(
        "minDp >= (1-2*delta)*t_star with probability >= 1-eta", "exact",
        lambda j: sample_exact_medians(j.ctx, j.cfg)[0]),
    ("min-dispersion", "exact", "sample_fallback"): Strategy(
        "enumeration over cap; sampler lower bound (1-delta)*plotkin_sum only", "exact",
        lambda j: sample_exact_medians(j.ctx, j.cfg)[0]),
    ("min-dispersion", "approx", "dp"): Strategy(
        "exact optimum minDp over (1+eps)-approximate medians", "approx",
        lambda j: min_disp_dp_approx(j.ctx, j.budget, j.k, limits=j.limits)[1]),
    ("min-dispersion", "approx", "greedy"): Strategy(
        "minDp >= t_star/2; members are (1+eps)-approximate", "approx",
        lambda j: greedy_dispersion(j.pool(), j.k, j.ctx)),
    ("min-dispersion", "approx", "sample"): Strategy(
        "minDp >= (1-delta)/2*t_star with probability >= 1-eta; "
        "members are (1+2*eps)-approximate", "mix",
        lambda j: sample_approx_medians(j.ctx, j.diameter, j.cfg)[0]),
    ("min-dispersion", "any", "lpround"): Strategy(
        "minDp >= (1-delta)/2*t_star with probability >= 1-eta; "
        "members are (1+eps+delta)-approximate", "lp", _lp),
}

# --strategy names each objective takes besides "auto", and the tag each runs
NAMED_STRATEGIES = {
    "sum-dispersion": {"exact-construction": "exact-construction", "greedy": "greedy"},
    "min-dispersion": {"dp": "dp", "greedy": "greedy", "sample": "sample", "lp": "lpround"},
}

# (objective, regime) -> the ordered rules "auto" walks: (applies, tag). The
# first rule that applies and whose engine raises no CapExceeded wins; the
# last rule always applies. The LP pipeline runs only when named.
RULES = {
    ("sum-dispersion", "any"): (
        (lambda j: j.diameter.diameter >= 4 / j.delta, "density"),
        (lambda j: True, "enumeration"),
        (lambda j: True, "density_fallback"),
    ),
    ("min-dispersion", "exact"): (
        (lambda j: j.k * j.delta <= 1, "dp"),
        # the exact-median diameter is the number of tie columns
        (lambda j: _diameter_at_least(int((j.ctx.majority_sizes >= 2).sum()),
                                      j.delta, j.k, add=1), "sample"),
        (lambda j: True, "greedy"),
        (lambda j: True, "sample_fallback"),
    ),
    ("min-dispersion", "approx"): (
        (lambda j: j.k * j.delta <= 1, "dp"),
        (lambda j: j.diameter.diameter * j.delta**2 <= 4, "greedy"),
        (lambda j: True, "sample"),
    ),
}


def _regime(epsilon: Fraction) -> str:
    """"exact" at eps == 0, "approx" above it."""
    return "exact" if epsilon == 0 else "approx"


def _check_strategy(objective: str, strategy: str) -> None:
    """Refuse a strategy the objective does not take, naming the ones it does."""
    allowed = ["auto", *NAMED_STRATEGIES.get(objective, ())]
    if strategy not in allowed:
        raise ValidationError(
            f"strategy {strategy!r} does not apply to objective "
            f"{objective!r}; allowed: {', '.join(allowed)}"
        )


def _lookup(table: dict, objective: str, epsilon: Fraction, *rest: str):
    key = (objective, _regime(epsilon), *rest)
    return table[key] if key in table else table[(objective, "any", *rest)]


class _Job:
    """What the rules and engines of one dispersion run read. The diameter
    pair, the pool and the sampler's config are built on first use, so a run
    computes approx_diameter_pair at most once."""

    def __init__(self, ctx, budget, k, delta, eta, seed, limits, doc):
        self.ctx, self.budget, self.k, self.limits, self.doc = ctx, budget, k, limits, doc
        self.delta, self.eta, self.seed = Fraction(delta), Fraction(eta), seed

    @cached_property
    def diameter(self) -> DiameterResult:
        return approx_diameter_pair(self.ctx, self.budget)

    @cached_property
    def cfg(self) -> SampleConfig:
        return SampleConfig(k=self.k, delta=self.delta, eta=self.eta, seed=self.seed)

    def pool(self) -> Dataset:
        return approx_median_pool(self.ctx, self.budget, self.limits)


def dispatch(
    ctx: MedianContext,
    budget: Budget,
    objective: str,
    k: int,
    delta: Fraction = Fraction(1, 4),
    eta: Fraction = Fraction(1, 8),
    seed: int = 0,
    *,
    strategy: str = "auto",
    limits: EnumerationLimits = DEFAULT_LIMITS,
    doc: dict | None = None,
) -> tuple[CandidateSet, str]:
    """k strings for a "sum-dispersion" or "min-dispersion" objective, and the
    tag of the STRATEGY_TABLE row that made them.

    A named strategy runs its tag's row. "auto" walks RULES for the objective
    and regime. Engines add their reports (the LP's "lp_report") to `doc`.
    """
    if objective not in NAMED_STRATEGIES:
        raise ValidationError(
            f"objective {objective!r} has no dispersion strategy; "
            f"dispatch takes: {', '.join(NAMED_STRATEGIES)}"
        )
    _check_strategy(objective, strategy)
    if objective == "min-dispersion" and k < 2:
        raise ValidationError("k must be >= 2")
    if k > limits.max_candidates:  # a result holds no more strings than a pool may
        raise CapExceeded(f"k={k} exceeds max_candidates={limits.max_candidates}",
                          "max_candidates")
    job = _Job(ctx, budget, k, delta, eta, seed, limits, {} if doc is None else doc)
    if strategy != "auto":
        tag = NAMED_STRATEGIES[objective][strategy]
        return _lookup(STRATEGY_TABLE, objective, budget.epsilon, tag).engine(job), tag
    if objective == "sum-dispersion" and not job.delta > 0:
        raise ValidationError("delta must be positive")
    if objective == "min-dispersion":
        job.cfg  # checks delta and eta before any rule runs
    for applies, tag in _lookup(RULES, objective, budget.epsilon):
        if applies(job):
            try:
                return _lookup(STRATEGY_TABLE, objective, budget.epsilon, tag).engine(job), tag
            except CapExceeded as exc:
                refused = exc
    raise refused


@dataclass(frozen=True)
class RunConfig:
    input: str | None
    format: str
    objective: str
    epsilon: Fraction
    k: int
    delta: Fraction
    eta: Fraction
    strategy: str
    seed: int
    alphabet: tuple[str, ...] | None
    output: str | None
    timing: bool
    t: int | None
    sizes: tuple[int, ...] | None
    oracle_op: str | None
    limits: EnumerationLimits


def parse_rational(text: str) -> Fraction:
    """Exact rational from "p/q" or a decimal literal ("0.25" -> 1/4)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {text!r}") from exc


def _parse_alphabet(text: str) -> tuple[str, ...]:
    """Comma-separated symbol list, or one symbol per character."""
    if "," in text:
        symbols = tuple(s for s in (c.strip() for c in text.split(",")) if s)
    else:
        symbols = tuple(text)
    if not symbols:
        raise ValidationError("empty alphabet")
    return symbols


# ---------------------------------------------------------------------------
# ingestion: each parser returns (label, row) pairs, and ingest names a bad
# row by its label


def _ingest_lines(text: str) -> list[tuple[str, str]]:
    return [(f"line {lineno}", line)
            for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.rstrip())]


def _ingest_fasta(text: str) -> list[tuple[str, str]]:
    records: list[tuple[str, list[str]]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            records.append((line[1:].strip() or f"record {len(records) + 1}", []))
        else:
            if not records:
                raise ValidationError("sequence data before the first '>' header")
            records[-1][1].append(line)
    return [(f"record {name!r}", "".join(chunks)) for name, chunks in records]


def _ingest_csv(text: str, alphabet: tuple[str, ...] | None) -> list[tuple[str, list[str]]]:
    rows = [[cell.strip() for cell in row] for row in csv.reader(text.splitlines())
            if any(cell.strip() for cell in row)]
    # Header heuristic: drop row 1 when it can't be data — either a cell falls
    # outside the explicit alphabet while later rows don't, or (inferred
    # alphabet) some first-row cell never appears again anywhere.
    if len(rows) > 1:
        first, rest = rows[0], rows[1:]
        if alphabet is not None:
            allowed = set(alphabet)
            if any(c not in allowed for c in first) and all(
                c in allowed for row in rest for c in row
            ):
                rows = rest
        else:
            seen_later = {c for row in rest for c in row}
            if any(c not in seen_later for c in first):
                rows = rest
    return [(f"row {idx}", row) for idx, row in enumerate(rows, start=1)]


def ingest(path: str, fmt: str, alphabet: tuple[str, ...] | None = None) -> Dataset:
    """Read a dataset file. Ragged inputs are rejected naming the offender.

    A UTF-8 byte order mark at the start of the file is skipped.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc

    if fmt == "lines":
        rows = _ingest_lines(text)
    elif fmt == "fasta":
        rows = _ingest_fasta(text)
    elif fmt == "csv":
        rows = _ingest_csv(text, alphabet)
    else:
        raise ValidationError(f"unknown format {fmt!r}")
    if not rows:
        raise ValidationError(f"{path}: no {fmt} data")
    width = len(rows[0][1])
    for label, row in rows:
        if not row:  # only a FASTA record can be empty
            raise ValidationError(f"{path}: {label} is empty")
        if len(row) != width:
            raise ValidationError(f"{path}: {label} has length {len(row)}, expected {width}")
    return Dataset.from_strings([row for _, row in rows], alphabet=alphabet)


# ---------------------------------------------------------------------------
# document assembly


def _render_word(codes: np.ndarray, alphabet: tuple[str, ...]) -> list:
    """Every row of an (m, d) code matrix as the document shows it: a string
    when every symbol is one character, else a list of symbols. Rows are
    decoded one block of at most BLOCK_BYTES at a time: never the whole
    matrix as symbols."""
    m, d = codes.shape
    step = max(1, BLOCK_BYTES // (8 * d))
    joined = all(len(a) == 1 for a in alphabet)
    if joined:
        points = np.array([ord(a) for a in alphabet], dtype=np.uint32)
    else:
        symbols = np.array(alphabet, dtype=object)
    out: list = []
    for lo in range(0, m, step):
        block = codes[lo : lo + step]
        if joined:  # one text of the block's rows, cut into rows
            text = points[block].tobytes().decode("utf-32-le", "surrogatepass")
            out.extend(text[j : j + d] for j in range(0, len(text), d))
        else:
            out.extend(symbols[block].tolist())
    return out


def _fraction_str(x: Fraction) -> str:
    return str(Fraction(x))


def _revalidate(ctx: MedianContext, strings: list, cap: Fraction) -> list[int]:
    """Re-encode every rendered string, recompute its cost from scratch and
    enforce its cost class."""
    costs = []
    for s in strings:
        c = median_cost(ctx, s)
        if c > cap:
            raise InternalError(
                f"internal error: emitted string costs {c}, above its declared cap {cap}"
            )
        costs.append(c)
    return costs


def _emit(doc: dict, ctx: MedianContext, codes: np.ndarray, cap: Fraction) -> None:
    """Render the rows of `codes` as doc["strings"], and cost exactly that
    text into doc["costs"]."""
    doc["strings"] = _render_word(codes, ctx.alphabet)
    doc["costs"] = _revalidate(ctx, doc["strings"], cap)


def _class_cap(cls: str, config: RunConfig, opt: int) -> tuple[Fraction, str]:
    """(exact cap on each member's cost, label) for a cost class."""
    label, a, b = COST_CLASSES[cls]
    return (1 + a * config.epsilon + b * config.delta) * opt, label


def _certificates(cert: BoundCertificate) -> dict:
    return {
        "alphabet_sizes": list(cert.alphabet_sizes),
        "plotkin_sum": _fraction_str(cert.plotkin_sum),
        "t": cert.t,
        "max_code_size": cert.max_code_size,
        "tstar_upper": _fraction_str(cert.tstar_upper),
    }


def run(config: RunConfig) -> dict:
    """Execute one configured run and return the result document as a dict."""
    if config.objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {config.objective!r}")
    _check_strategy(config.objective, config.strategy)

    doc: dict = {
        "schema": SCHEMA,
        "config": {
            "input": config.input,
            "format": config.format,
            "objective": config.objective,
            "epsilon": _fraction_str(config.epsilon),
            "k": config.k,
            "delta": _fraction_str(config.delta),
            "eta": _fraction_str(config.eta),
            "strategy": config.strategy,
            "seed": config.seed,
            "alphabet": list(config.alphabet) if config.alphabet else None,
            "t": config.t,
            "sizes": list(config.sizes) if config.sizes else None,
            "oracle_op": config.oracle_op,
        },
    }

    # bound with explicit sizes, and the max-code-size oracle, need no dataset
    if config.objective == "bound" and config.sizes is not None:
        if config.t is None:
            raise ValidationError("objective=bound requires --t")
        b = sum(Fraction(g - 1, g) for g in config.sizes)
        doc["certificates"] = {
            "alphabet_sizes": list(config.sizes),
            "plotkin_sum": _fraction_str(b),
            "t": config.t,
            "max_code_size": plotkin_bound(config.sizes, config.t),
        }
        doc["objective_value"] = doc["certificates"]["max_code_size"]
        doc["guarantee"] = "any code with pairwise distance >= t has at most this many words (null = bound inapplicable)"
        return doc
    if config.objective == "oracle" and config.oracle_op == "max-code-size":
        if config.sizes is None or config.t is None:
            raise ValidationError("oracle max-code-size requires --sizes and --t")
        value = brute_max_code_size(config.sizes, config.t, config.limits)
        doc["objective_value"] = value
        doc["guarantee"] = "exhaustive search; exact maximum code size"
        return doc

    if config.input is None:
        raise ValidationError(f"objective={config.objective} requires --input")
    dataset = ingest(config.input, config.format, config.alphabet)
    ctx = build_context(dataset)
    budget = Budget.make(config.epsilon, ctx.opt)
    w = ctx.rank[None, :, 0]  # the (1, d) codes of w

    doc["dataset"] = {
        "n": dataset.n,
        "d": dataset.d,
        "alphabet": list(dataset.alphabet),
        "alphabet_inferred": dataset.alphabet_inferred,
    }
    doc["opt"] = ctx.opt
    doc["w"] = _render_word(w, ctx.alphabet)[0]

    if config.objective == "median":
        _emit(doc, ctx, w, Fraction(ctx.opt))
        doc["objective_value"] = ctx.opt
        doc["guarantee"] = "exact optimum: per-index majority minimizes the distance sum"
        return doc

    if config.objective == "diameter":
        regime = _regime(config.epsilon)  # each regime names a cost class too
        cap, cls = _class_cap(regime, config, ctx.opt)
        if regime == "exact":
            res = exact_diameter_pair(ctx)
            doc["guarantee"] = f"exact diameter over exact medians; {cls}"
        else:
            res = approx_diameter_pair(ctx, budget)
            doc["guarantee"] = (
                f"exact diameter over (1+eps)-approximate medians "
                f"(branch: {res.branch}); {cls}"
            )
        _emit(doc, ctx, res.dataset.codes, cap)
        doc["dstar"] = res.diameter
        doc["objective_value"] = res.diameter
        doc["branch"] = res.branch
        return doc

    if config.objective in NAMED_STRATEGIES:
        cands, tag = dispatch(ctx, budget, config.objective, config.k, config.delta,
                              config.eta, config.seed, strategy=config.strategy,
                              limits=config.limits, doc=doc)
        row = _lookup(STRATEGY_TABLE, config.objective, config.epsilon, tag)
        cap, label = _class_cap(row.cost_class, config, ctx.opt)
        _emit(doc, ctx, cands.codes, cap)
        doc["strategy_tag"] = tag
        doc["guarantee"] = f"{row.guarantee}; {label}"
        if config.objective == "sum-dispersion":
            doc["objective_value"] = cands.sum_dispersion()
        else:
            doc["objective_value"] = cands.min_dispersion()
            doc["certificates"] = _certificates(
                bound_certificate(ctx, budget, t=doc["objective_value"]))
        return doc

    if config.objective == "bound":
        if config.t is None:
            raise ValidationError("objective=bound requires --t")
        cert = bound_certificate(ctx, budget, config.t)
        doc["certificates"] = _certificates(cert)
        doc["objective_value"] = cert.max_code_size
        doc["guarantee"] = "code-size cap at pairwise distance >= t (null = bound inapplicable); tstar_upper caps achievable minDp"
        return doc

    # oracle (max-code-size handled above)
    if config.oracle_op is None:
        raise ValidationError("objective=oracle requires --oracle-op")
    if config.oracle_op not in ORACLE_OPS:
        raise ValidationError(f"unknown oracle op {config.oracle_op!r}")
    if config.oracle_op == "exact-medians":
        pool = exact_median_pool(ctx, config.limits)
    else:
        pool = approx_median_pool(ctx, budget, config.limits)
    if config.oracle_op in ("exact-medians", "approx-medians"):
        doc["strings"] = _render_word(pool.codes, ctx.alphabet)
        doc["objective_value"] = pool.n
    else:
        doc["pool_size"] = pool.n
        if config.oracle_op == "diameter":
            doc["objective_value"] = brute_diameter(pool, config.limits)
        elif config.oracle_op == "sumdp":
            doc["objective_value"] = brute_sumdp_k(pool, config.k, config.limits)
        else:
            doc["objective_value"] = brute_mindp_k(pool, config.k, config.limits)
    doc["guarantee"] = "exhaustive search; exact value"
    return doc


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diverse-medians",
        description="Hamming medians and diverse near-median string sets.",
    )
    p.add_argument("--input", "-i", help="dataset file")
    p.add_argument("--format", choices=FORMATS, default="lines",
                   help="input format (default: lines)")
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.add_argument("--epsilon", default="0", metavar="P/Q",
                   help="approximation budget, rational or decimal (default 0)")
    p.add_argument("--k", type=int, default=2, help="solution set size (default 2)")
    p.add_argument("--delta", default="1/4", metavar="P/Q",
                   help="dispersion slack parameter (default 1/4)")
    p.add_argument("--eta", default="1/8", metavar="P/Q",
                   help="failure probability for sampled strategies (default 1/8)")
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")
    p.add_argument("--seed", type=int, default=0, help="RNG seed in [0, 2^64) (default 0)")
    p.add_argument("--alphabet",
                   help="explicit symbols: one per character, or comma-separated")
    p.add_argument("--output", "-o", help="write the document here instead of stdout")
    p.add_argument("--timing", action="store_true",
                   help="embed wall time in the document (breaks byte-identity)")
    p.add_argument("--t", type=int, help="distance threshold for bound/oracle runs")
    p.add_argument("--sizes", metavar="G1,G2,...",
                   help="per-index alphabet sizes for bound/max-code-size runs")
    p.add_argument("--max-candidates", type=int, default=DEFAULT_LIMITS.max_candidates,
                   help="enumeration cap on candidate pools")
    p.add_argument("--max-tuples", type=int, default=DEFAULT_LIMITS.max_tuples,
                   help="cap on brute-force tuple combinations")
    p.add_argument("--max-states", type=int, default=DEFAULT_LIMITS.max_states,
                   help="cap on DP state space")
    p.add_argument("--oracle-op", choices=ORACLE_OPS,
                   help="which brute-force computation to run (objective=oracle)")
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    sizes = None
    if args.sizes is not None:
        try:
            sizes = tuple(int(x) for x in args.sizes.split(",") if x.strip())
        except ValueError as exc:
            raise ValidationError(f"bad --sizes: {args.sizes!r}") from exc
        if not sizes:
            raise ValidationError("empty --sizes")
    if not 0 <= args.seed < 2 ** 64:
        raise ValidationError("seed must lie in [0, 2^64)")
    if args.k < 1:
        raise ValidationError("k must be >= 1")
    limits = EnumerationLimits(
        max_candidates=args.max_candidates,
        max_tuples=args.max_tuples,
        max_states=args.max_states,
    )
    return RunConfig(
        input=args.input,
        format=args.format,
        objective=args.objective,
        epsilon=parse_rational(args.epsilon),
        k=args.k,
        delta=parse_rational(args.delta),
        eta=parse_rational(args.eta),
        strategy=args.strategy,
        seed=args.seed,
        alphabet=_parse_alphabet(args.alphabet) if args.alphabet else None,
        output=args.output,
        timing=args.timing,
        t=args.t,
        sizes=sizes,
        oracle_op=args.oracle_op,
        limits=limits,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = _config_from_args(args)
        doc = run(config)
    except ValidationError as exc:
        print(f"diverse-medians: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"diverse-medians: {exc}", file=sys.stderr)
        if exc.knob is None:  # KeyWidthExceeded: no cap lets the DP run
            print("hint: pick --strategy auto, greedy or sample, or a smaller --k",
                  file=sys.stderr)
        else:
            print(f"hint: raise --{exc.knob.replace('_', '-')}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"diverse-medians: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:  # InternalError, or any other fault of this package
        print(f"diverse-medians: {exc}", file=sys.stderr)
        return 5
    elapsed = time.perf_counter() - started
    if config.timing:
        doc["wall_time_s"] = round(elapsed, 6)
    text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if config.output:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"diverse-medians: {config.objective} done in {elapsed:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
