"""Command-line front end: dataset ingestion, strategy dispatch, JSON output.

One run produces one JSON document (schema "diverse-medians/1") on standard
output, or at --output. Diagnostics go to standard error only. Identical
(config, seed, input) triples produce byte-identical documents; wall time is
therefore only embedded when --timing asks for it.

Exit codes: 0 success, 2 validation error, 3 enumeration/state cap exceeded
or an allocation the machine refused, 4 infeasible or solver nonconvergence,
5 internal error (a violated invariant), 6 standard output closed by its
reader before the document was written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, fields
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from importlib import import_module
from types import ModuleType
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

import numpy as np

from .core import (
    DEFAULT_LIMITS,
    Budget,
    CandidateSet,
    CapExceeded,
    Dataset,
    EnumerationLimits,
    InfeasibleError,
    InternalError,
    MedianContext,
    SHOWN_DIGITS,
    ValidationError,
    build_context,
    context_from_strings,
    decode as _render_word,  # the one decoder; bench/tracing.py times renders by this name
    row_blocks,
)

if TYPE_CHECKING:  # annotations only; the engine modules load on dispatch
    from .diameter import DiameterResult
    from .mindisp import BoundCertificate, SampleConfig


def _module(name: str) -> ModuleType:
    """The package module `name` (diameter, lpround, mindisp, oracle,
    sumdisp), imported on first use, so a run loads only the engines it
    reaches. Callers look engines up on it when they run, so a patched
    module attribute is the one that runs."""
    return import_module(f".{name}", __package__)


SCHEMA = "diverse-medians/1"

OBJECTIVES = ("median", "diameter", "sum-dispersion", "min-dispersion", "bound", "oracle")
DISPERSION = ("sum-dispersion", "min-dispersion")  # the objectives dispatch runs
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
    """A STRATEGY_TABLE row: the engine maps the run's _Job to a CandidateSet;
    `name` is the --strategy that runs it, `auto` its test in the auto walk."""

    guarantee: str
    cost_class: str
    engine: Callable[["_Job"], CandidateSet]
    name: str | None = None
    auto: Callable[["_Job"], bool] | None = None


def _lp(j: "_Job") -> CandidateSet:
    cands, report = _module("lpround").lp_min_dispersion(j.ctx, j.budget, j.k, j.delta,
                                                         j.eta, j.seed)
    j.doc["lp_report"] = asdict(report)
    return cands


# (objective, regime, strategy tag) -> Strategy. The regime is "exact" at
# eps == 0 and "approx" above it; an "any" row holds in both. "auto" walks the
# rows in table order (see dispatch). The engines call the approximate entry
# points, whose pools at eps == 0 (B = 0) are the exact medians, and look them
# up in their module when they run (see _module).
STRATEGY_TABLE = {
    ("sum-dispersion", "any", "exact-construction"): Strategy(
        "exact optimum sumDp over exact medians", "exact",
        lambda j: _module("sumdisp").sum_dispersion_exact_k(j.ctx, j.k),
        name="exact-construction"),
    ("sum-dispersion", "any", "greedy"): Strategy(
        "farthest-pair + max-gain insertion; value >= optimum / 2", "approx",
        lambda j: _module("sumdisp").sum_dispersion_small_dstar(j.ctx, j.k, j.pool()),
        name="greedy"),
    ("sum-dispersion", "any", "density"): Strategy(
        "value >= (1 - delta) * optimum", "approx",
        lambda j: _module("sumdisp").sum_dispersion_approx_k(j.ctx, j.budget, j.k),
        auto=lambda j: j.diameter.diameter >= 4 / j.delta),
    ("sum-dispersion", "any", "enumeration"): Strategy(
        "value >= optimum / 2", "approx",
        lambda j: _module("sumdisp").sum_dispersion_small_dstar(j.ctx, j.k, j.pool()),
        auto=lambda j: True),
    ("sum-dispersion", "any", "density_fallback"): Strategy(
        "pool enumeration over cap; density value >= (1 - 4/D*) * optimum", "approx",
        lambda j: _module("sumdisp").sum_dispersion_approx_k(j.ctx, j.budget, j.k),
        auto=lambda j: True),
    # the approx rows come first, so the names read dp, greedy, sample, lp
    ("min-dispersion", "approx", "dp"): Strategy(
        "exact optimum minDp over (1+eps)-approximate medians", "approx",
        lambda j: _module("mindisp").min_disp_dp_approx(j.ctx, j.budget, j.k, limits=j.limits),
        name="dp", auto=lambda j: j.k * j.delta <= 1),
    ("min-dispersion", "approx", "greedy"): Strategy(
        "minDp >= t_star/2; members are (1+eps)-approximate", "approx",
        lambda j: _module("mindisp").greedy_dispersion(j.pool(), j.k, j.ctx),
        name="greedy", auto=lambda j: j.diameter.diameter * j.delta**2 <= 4),
    ("min-dispersion", "approx", "sample"): Strategy(
        "minDp >= (1-delta)/2*t_star with probability >= 1-eta; "
        "members are (1+2*eps)-approximate", "mix",
        lambda j: _module("mindisp").sample_approx_medians(j.ctx, j.diameter, j.cfg),
        name="sample", auto=lambda j: True),
    ("min-dispersion", "exact", "dp"): Strategy(
        "exact optimum minDp over exact medians", "exact",
        lambda j: _module("mindisp").min_disp_dp_approx(j.ctx, j.budget, j.k, limits=j.limits),
        name="dp", auto=lambda j: j.k * j.delta <= 1),
    ("min-dispersion", "exact", "sample"): Strategy(
        "minDp >= (1-2*delta)*t_star with probability >= 1-eta", "exact",
        lambda j: _module("mindisp").sample_exact_medians(j.ctx, j.cfg),
        # the exact-median diameter is the number of tie columns
        name="sample", auto=lambda j: _module("mindisp")._diameter_at_least(
            int((j.ctx.majority_sizes >= 2).sum()), j.delta, j.k, add=1)),
    ("min-dispersion", "exact", "greedy"): Strategy(
        "minDp >= t_star/2", "exact",
        lambda j: _module("mindisp").greedy_dispersion(j.pool(), j.k, j.ctx),
        name="greedy", auto=lambda j: True),
    ("min-dispersion", "exact", "sample_fallback"): Strategy(
        "enumeration over cap; sampler lower bound (1-delta)*plotkin_sum only", "exact",
        lambda j: _module("mindisp").sample_exact_medians(j.ctx, j.cfg), auto=lambda j: True),
    ("min-dispersion", "any", "lpround"): Strategy(
        "minDp >= (1-delta)/2*t_star with probability >= 1-eta; "
        "members are (1+eps+delta)-approximate", "lp", _lp, name="lp"),
}


def _names(rows) -> tuple[str, ...]:
    """"auto" and the --strategy names of `rows`, in table order."""
    return ("auto", *dict.fromkeys(row.name for row in rows if row.name))


STRATEGIES = _names(STRATEGY_TABLE.values())


def _regime(epsilon: Fraction) -> str:
    """"exact" at eps == 0, "approx" above it."""
    return "exact" if epsilon == 0 else "approx"


def _rows(objective: str, epsilon: Fraction) -> list[tuple[str, Strategy]]:
    """(tag, row) for each row of `objective` that holds at `epsilon`, in table order."""
    return [(tag, row) for (obj, regime, tag), row in STRATEGY_TABLE.items()
            if obj == objective and regime in (_regime(epsilon), "any")]


def _check_strategy(objective: str, strategy: str) -> None:
    """Refuse a strategy the objective does not take, naming the ones it does."""
    allowed = _names(row for (obj, *_), row in STRATEGY_TABLE.items() if obj == objective)
    if strategy not in allowed:
        raise ValidationError(
            f"strategy {strategy!r} does not apply to objective "
            f"{objective!r}; allowed: {', '.join(allowed)}"
        )


def _check_dispersion(objective: str, strategy: str, k: int, delta: Fraction,
                      eta: Fraction, limits: EnumerationLimits) -> None:
    """Refuse a dispersion run's bad parameters, whatever the strategy, before
    any engine runs: min dispersion takes k >= 2 and delta, eta in (0, 1) (the
    sampler's own checks), sum dispersion delta > 0."""
    if objective not in DISPERSION:
        raise ValidationError(
            f"objective {objective!r} has no dispersion strategy; "
            f"dispatch takes: {', '.join(DISPERSION)}"
        )
    _check_strategy(objective, strategy)
    if objective == "min-dispersion" and k < 2:
        raise ValidationError("k must be >= 2")
    limits.check("max_candidates", k, "k")  # a result holds no more strings than a pool may
    if objective == "sum-dispersion" and not delta > 0:
        raise ValidationError("delta must be positive")
    if objective == "min-dispersion":
        _module("mindisp").SampleConfig(k=k, delta=delta, eta=eta, seed=0)


class _Job:
    """What the rules and engines of one dispersion run read. The diameter
    pair, the pool and the sampler's config are built on first use, so a run
    computes approx_diameter_pair at most once."""

    def __init__(self, ctx, budget, k, delta, eta, seed, limits, doc):
        self.ctx, self.budget, self.k, self.limits, self.doc = ctx, budget, k, limits, doc
        self.delta, self.eta, self.seed = Fraction(delta), Fraction(eta), seed

    @cached_property
    def diameter(self) -> DiameterResult:
        return _module("diameter").approx_diameter_pair(self.ctx, self.budget)

    @cached_property
    def cfg(self) -> SampleConfig:
        return _module("mindisp").SampleConfig(k=self.k, delta=self.delta, eta=self.eta,
                                               seed=self.seed)

    def pool(self) -> Dataset:
        return _module("oracle").approx_median_pool(self.ctx, self.budget, self.limits)


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

    A named strategy runs the row of that name and lets its CapExceeded
    through. "auto" runs the first row whose test holds and whose engine
    raises no CapExceeded; the last test always holds, and the LP row has
    none. Engines add their reports (the LP's "lp_report") to `doc`.
    """
    _check_dispersion(objective, strategy, k, Fraction(delta), Fraction(eta), limits)
    job = _Job(ctx, budget, k, delta, eta, seed, limits, {} if doc is None else doc)
    for tag, row in _rows(objective, budget.epsilon):
        if strategy == row.name:
            return row.engine(job), tag
        if strategy == "auto" and row.auto and row.auto(job):
            try:
                return row.engine(job), tag
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


def parse_rational(text: str, flag: str = "the number") -> Fraction:
    """Exact rational from "p/q" or a decimal literal ("0.25" -> 1/4), refused
    when its numerator or denominator has more than SHOWN_DIGITS digits.

    A literal m·10^e with |e| above SHOWN_DIGITS + len(literal) is decided
    before Fraction would form 10^e: read at exponent 0 (each exponent digit
    made 0), it is valid exactly when the literal is, and 0 exactly when m is.
    A nonzero m then has at most len(literal) digits, so the numerator (e > 0)
    or the denominator (e < 0) is past SHOWN_DIGITS digits.
    """
    literal = text.strip()
    cut = max(literal.rfind("e"), literal.rfind("E")) + 1  # 0: no exponent
    try:
        far = cut > 0 and abs(int(literal[cut:])) > SHOWN_DIGITS + len(literal)
        value = Fraction(literal[:cut] + re.sub(r"\d", "0", literal[cut:]) if far else literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {text!r}") from exc
    if far and value or max(abs(value.numerator), value.denominator) >= 10**SHOWN_DIGITS:
        raise ValidationError(f"{flag} has a numerator or denominator of more than "
                              f"{SHOWN_DIGITS} digits")
    return value


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc

    if fmt == "lines":
        rows = _ingest_lines(text)
    elif fmt == "fasta":
        rows = _ingest_fasta(text)
    elif fmt == "csv":
        try:
            rows = _ingest_csv(text, alphabet)
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            raise ValidationError(f"{path}: {exc}") from exc
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


def _revalidate(ctx: MedianContext, strings: list, cap: Fraction) -> list[int]:
    """Re-encode the rendered strings one row block at a time, recompute their
    costs from the counts and enforce their cost class."""
    costs: list[int] = []
    for rows in row_blocks(len(strings), 8 * ctx.d):
        codes = Dataset.from_strings(strings[rows], ctx.alphabet).codes
        if codes.shape[1] != ctx.d:
            raise InternalError(f"internal error: emitted strings have length "
                                f"{codes.shape[1]}, not d={ctx.d}")
        costs.extend(ctx.costs_of(codes).tolist())
    if max(costs) > cap:
        raise InternalError(
            f"internal error: emitted string costs {max(costs)}, above its declared cap {cap}"
        )
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


def _shown(value):
    """A RunConfig or BoundCertificate value as the document shows it; a
    Fraction as str() writes it, through Decimal, which has no digit limit."""
    if isinstance(value, Fraction):
        num, den = (str(Decimal(n)) for n in value.as_integer_ratio())
        return num if den == "1" else f"{num}/{den}"
    if isinstance(value, tuple):
        return list(value) or None
    return value


def _certificates(cert: BoundCertificate) -> dict:
    """Every field of the certificate; one from --sizes alone has no tstar_upper."""
    shown = {f.name: _shown(getattr(cert, f.name)) for f in fields(cert)}
    if cert.tstar_upper is None:
        del shown["tstar_upper"]
    return shown


def run(config: RunConfig) -> dict:
    """Execute one configured run and return the result document as a dict.
    Every flag is checked before the dataset is read."""
    objective, op = config.objective, config.oracle_op
    if objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {objective!r}")
    _check_strategy(objective, config.strategy)
    if objective == "bound" and config.t is None:
        raise ValidationError("objective=bound requires --t")
    if objective == "oracle":
        if op is None:
            raise ValidationError("objective=oracle requires --oracle-op")
        if op not in ORACLE_OPS:
            raise ValidationError(f"unknown oracle op {op!r}")
        if op == "max-code-size" and (config.sizes is None or config.t is None):
            raise ValidationError("oracle max-code-size requires --sizes and --t")
        if op == "mindp" and config.k < 2:
            raise ValidationError("k must be >= 2 for min dispersion")
    # bound with explicit sizes, and the max-code-size oracle, need no dataset
    sized_bound = objective == "bound" and config.sizes is not None
    code_size_oracle = objective == "oracle" and op == "max-code-size"
    if not (sized_bound or code_size_oracle):  # a dataset run: check every flag it reads
        if config.input is None:
            raise ValidationError(f"objective={objective} requires --input")
        Budget.make(config.epsilon, 0)  # eps >= 0
        if config.alphabet is not None:  # distinct, at least 2; one per row: 1 x |Σ| tables
            declared = context_from_strings(zip(config.alphabet), config.alphabet)
        if objective in DISPERSION:
            _check_dispersion(objective, config.strategy, config.k, config.delta,
                              config.eta, config.limits)
        if config.strategy == "lp" and config.alphabet is not None:  # k <= |alphabet|
            _module("lpround").build_ilp(declared, Budget.make(config.epsilon, 0), config.k)
        if objective == "bound":
            _module("mindisp").plotkin_certificate((), config.t)  # t >= 0

    # the document shows every field but where it goes, its wall time and the caps
    doc: dict = {
        "schema": SCHEMA,
        "config": {f.name: _shown(getattr(config, f.name)) for f in fields(config)
                   if f.name not in ("output", "timing", "limits")},
    }
    if sized_bound:
        doc["certificates"] = _certificates(
            _module("mindisp").plotkin_certificate(config.sizes, config.t))
        doc["objective_value"] = doc["certificates"]["max_code_size"]
        doc["guarantee"] = "any code with pairwise distance >= t has at most this many words (null = bound inapplicable)"
        return doc
    if code_size_oracle:
        doc["objective_value"] = _module("oracle").brute_max_code_size(
            config.sizes, config.t, config.limits)
        doc["guarantee"] = "exhaustive search; exact maximum code size"
        return doc

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
            res = _module("diameter").exact_diameter_pair(ctx)
            doc["guarantee"] = f"exact diameter over exact medians; {cls}"
        else:
            res = _module("diameter").approx_diameter_pair(ctx, budget)
            doc["guarantee"] = (
                f"exact diameter over (1+eps)-approximate medians "
                f"(branch: {res.branch}); {cls}"
            )
        _emit(doc, ctx, res.codes, cap)
        doc["dstar"] = res.diameter
        doc["objective_value"] = res.diameter
        doc["branch"] = res.branch
        return doc

    if config.objective in DISPERSION:
        cands, tag = dispatch(ctx, budget, config.objective, config.k, config.delta,
                              config.eta, config.seed, strategy=config.strategy,
                              limits=config.limits, doc=doc)
        row = dict(_rows(config.objective, config.epsilon))[tag]
        cap, label = _class_cap(row.cost_class, config, ctx.opt)
        _emit(doc, ctx, cands.codes, cap)
        doc["strategy_tag"] = tag
        doc["guarantee"] = f"{row.guarantee}; {label}"
        if config.objective == "sum-dispersion":
            doc["objective_value"] = cands.sum_dispersion()
        else:
            doc["objective_value"] = cands.min_dispersion()
            doc["certificates"] = _certificates(
                _module("mindisp").bound_certificate(ctx, budget, t=doc["objective_value"]))
        return doc

    if config.objective == "bound":
        cert = _module("mindisp").bound_certificate(ctx, budget, config.t)
        doc["certificates"] = _certificates(cert)
        doc["objective_value"] = cert.max_code_size
        doc["guarantee"] = "code-size cap at pairwise distance >= t (null = bound inapplicable); tstar_upper caps achievable minDp"
        return doc

    # oracle (max-code-size handled above)
    oracle = _module("oracle")
    if config.oracle_op == "exact-medians":  # the exact medians are the pool at B = 0
        budget = Budget.make(0, ctx.opt)
    pool = oracle.approx_median_pool(ctx, budget, config.limits)
    if config.oracle_op in ("exact-medians", "approx-medians"):
        doc["strings"] = _render_word(pool.codes, ctx.alphabet)
        doc["objective_value"] = pool.n
    else:
        doc["pool_size"] = pool.n
        if config.oracle_op == "diameter":
            doc["objective_value"] = oracle.brute_diameter(pool, config.limits)
        elif config.oracle_op == "sumdp":
            doc["objective_value"] = oracle.brute_sumdp_k(pool, config.k, config.limits)
        else:
            doc["objective_value"] = oracle.brute_mindp_k(pool, config.k, config.limits)
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
    rationals = {name: parse_rational(getattr(args, name), f"--{name}")
                 for name in ("epsilon", "delta", "eta")}
    # every other field, and each cap, takes the flag of its own name as is
    parsed = {
        **rationals,
        "limits": EnumerationLimits(**{f.name: getattr(args, f.name)
                                       for f in fields(EnumerationLimits)}),
        "alphabet": _parse_alphabet(args.alphabet) if args.alphabet else None,
        "sizes": sizes,
    }
    flags = vars(args)
    return RunConfig(**{f.name: parsed.get(f.name, flags.get(f.name)) for f in fields(RunConfig)})


def _say(*lines: str) -> None:
    """Print diagnostic lines to stderr, the first under the program's name;
    a closed stderr drops them and leaves the exit code as it is."""
    try:
        print(f"diverse-medians: {lines[0]}", *lines[1:], sep="\n", file=sys.stderr)
    except BrokenPipeError:
        # Python flushes stderr once more at exit: give that flush nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        config = _config_from_args(args)
        doc = run(config)
    except ValidationError as exc:
        _say(str(exc))
        return 2
    except CapExceeded as exc:
        if exc.knob is None:  # DP keys past 63 bits: no cap lets the DP run
            _say(str(exc), "hint: pick --strategy auto, greedy or sample, or a smaller --k")
        else:
            _say(str(exc), f"hint: raise --{exc.knob.replace('_', '-')}")
        return 3
    except MemoryError as exc:  # an allocation the machine refused
        _say(f"not enough memory: {exc}")
        return 3
    except InfeasibleError as exc:
        _say(str(exc))
        return 4
    except RuntimeError as exc:  # InternalError, or any other fault of this package
        _say(str(exc))
        return 5
    elapsed = time.perf_counter() - started
    if config.timing:
        doc["wall_time_s"] = round(elapsed, 6)
    text = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _say(f"cannot write {config.output}: {exc}")
            return 2
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader closed the pipe before the document
            # Python flushes stdout once more at exit: give that flush nowhere to fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            _say("standard output closed before the document was written")
            return 6
    _say(f"{config.objective} done in {elapsed:.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
