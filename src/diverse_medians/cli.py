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
from typing import Sequence

import numpy as np

from .core import (
    BLOCK_BYTES,
    Budget,
    CandidateSet,
    CapExceeded,
    Dataset,
    InfeasibleError,
    InternalError,
    KeyWidthExceeded,
    MedianContext,
    ValidationError,
    Word,
    build_context,
    median_cost,
    word_str,
)
from .diameter import approx_diameter_pair, exact_diameter_pair
from .lpround import lp_min_dispersion
from .mindisp import (
    BoundCertificate,
    bound_certificate,
    greedy_dispersion,
    min_disp_dp_approx,
    min_disp_dp_exact,
    min_dispersion_dispatch_approx,
    min_dispersion_dispatch_exact,
    plotkin_bound,
    sample_approx_medians,
    sample_exact_medians,
    SampleConfig,
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
    sum_dispersion_dispatch,
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

# (objective, regime, strategy tag) -> (guarantee, cost class). The regime is
# "exact" at eps == 0 and "approx" above it; an "any" row holds in both.
STRATEGY_TABLE = {
    ("sum-dispersion", "any", "exact-construction"):
        ("exact optimum sumDp over exact medians", "exact"),
    ("sum-dispersion", "any", "greedy"):
        ("farthest-pair + max-gain insertion; value >= optimum / 2", "approx"),
    ("sum-dispersion", "any", "density"): ("value >= (1 - delta) * optimum", "approx"),
    ("sum-dispersion", "any", "enumeration"): ("value >= optimum / 2", "approx"),
    ("sum-dispersion", "any", "density_fallback"):
        ("pool enumeration over cap; density value >= (1 - 4/D*) * optimum", "approx"),
    ("min-dispersion", "exact", "dp"): ("exact optimum minDp over exact medians", "exact"),
    ("min-dispersion", "exact", "greedy"): ("minDp >= t_star/2", "exact"),
    ("min-dispersion", "exact", "sample"):
        ("minDp >= (1-2*delta)*t_star with probability >= 1-eta", "exact"),
    ("min-dispersion", "exact", "sample_fallback"):
        ("enumeration over cap; sampler lower bound (1-delta)*plotkin_sum only", "exact"),
    ("min-dispersion", "approx", "dp"):
        ("exact optimum minDp over (1+eps)-approximate medians", "approx"),
    ("min-dispersion", "approx", "greedy"):
        ("minDp >= t_star/2; members are (1+eps)-approximate", "approx"),
    ("min-dispersion", "approx", "sample"):
        ("minDp >= (1-delta)/2*t_star with probability >= 1-eta; "
         "members are (1+2*eps)-approximate", "mix"),
    ("min-dispersion", "any", "lpround"):
        ("minDp >= (1-delta)/2*t_star with probability >= 1-eta; "
         "members are (1+eps+delta)-approximate", "lp"),
}


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
# ingestion


def _ingest_lines(text: str) -> list[tuple[int, str]]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if line:
            rows.append((lineno, line))
    return rows


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
    return [(name, "".join(chunks)) for name, chunks in records]


def _ingest_csv(text: str, alphabet: tuple[str, ...] | None) -> list[list[str]]:
    rows = [[cell.strip() for cell in row] for row in csv.reader(text.splitlines())
            if any(cell.strip() for cell in row)]
    if not rows:
        return rows
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
    return rows


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
        if not rows:
            raise ValidationError(f"{path}: no data lines")
        width = len(rows[0][1])
        for lineno, line in rows:
            if len(line) != width:
                raise ValidationError(
                    f"{path}: line {lineno} has length {len(line)}, expected {width}"
                )
        strings: Sequence = [line for _, line in rows]
    elif fmt == "fasta":
        records = _ingest_fasta(text)
        if not records:
            raise ValidationError(f"{path}: no FASTA records")
        width = len(records[0][1])
        for name, seq in records:
            if not seq:
                raise ValidationError(f"{path}: record {name!r} is empty")
            if len(seq) != width:
                raise ValidationError(
                    f"{path}: record {name!r} has length {len(seq)}, expected {width}"
                )
        strings = [seq for _, seq in records]
    elif fmt == "csv":
        rows2 = _ingest_csv(text, alphabet)
        if not rows2:
            raise ValidationError(f"{path}: no data rows")
        width = len(rows2[0])
        for idx, row in enumerate(rows2, start=1):
            if len(row) != width:
                raise ValidationError(
                    f"{path}: row {idx} has {len(row)} cells, expected {width}"
                )
        strings = [tuple(row) for row in rows2]
    else:
        raise ValidationError(f"unknown format {fmt!r}")

    return Dataset.from_strings(strings, alphabet=alphabet)


# ---------------------------------------------------------------------------
# document assembly


def _render_word(word: Word, joined: bool):
    return word_str(word) if joined else list(word)


def _render_pool(pool: Dataset, joined: bool) -> list:
    """Every pool string rendered as _render_word would, decoded one block of
    at most BLOCK_BYTES of rows at a time: never the whole pool as symbols."""
    step = max(1, BLOCK_BYTES // (8 * pool.d))
    if joined:
        points = np.array([ord(a) for a in pool.alphabet], dtype=np.uint32)
    else:
        symbols = np.array(pool.alphabet, dtype=object)
    out: list = []
    for lo in range(0, pool.n, step):
        block = pool.codes[lo : lo + step]
        if joined:  # one text of the block's rows, cut into rows
            text = points[block].tobytes().decode("utf-32-le", "surrogatepass")
            out.extend(text[j : j + pool.d] for j in range(0, len(text), pool.d))
        else:
            out.extend(symbols[block].tolist())
    return out


def _fraction_str(x: Fraction) -> str:
    return str(Fraction(x))


def _revalidate(ctx: MedianContext, members: Sequence[Word], cap: Fraction) -> list[int]:
    """Recompute every member's cost from scratch and enforce its cost class."""
    costs = []
    for s in members:
        c = median_cost(ctx, s)
        if Fraction(c) > cap:
            raise InternalError(
                f"internal error: emitted string costs {c}, above its declared cap {cap}"
            )
        costs.append(c)
    return costs


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


# ---------------------------------------------------------------------------
# engines: (objective, strategy) -> call returning (CandidateSet, tag). Each
# looks its engine up by module-global name when it runs, so patching
# cli.<engine> reaches it.


def _sum_auto(ctx, budget, c, doc):
    return sum_dispersion_dispatch(ctx, budget, c.k, c.delta, limits=c.limits)


def _sum_exact_construction(ctx, budget, c, doc):
    return sum_dispersion_exact_k(ctx, c.k), "exact-construction"


def _sum_greedy(ctx, budget, c, doc):
    pool = approx_median_pool(ctx, budget, c.limits)
    return sum_dispersion_small_dstar(ctx, c.k, pool), "greedy"


def _min_auto(ctx, budget, c, doc):
    if c.epsilon == 0:
        return min_dispersion_dispatch_exact(ctx, c.k, c.delta, c.eta, c.seed,
                                             limits=c.limits)
    return min_dispersion_dispatch_approx(ctx, budget, c.k, c.delta, c.eta, c.seed,
                                          limits=c.limits)


def _min_dp(ctx, budget, c, doc):
    if c.epsilon == 0:
        _, cands = min_disp_dp_exact(ctx, c.k, limits=c.limits)
    else:
        _, cands = min_disp_dp_approx(ctx, budget, c.k, limits=c.limits)
    return cands, "dp"


def _min_greedy(ctx, budget, c, doc):
    if c.epsilon == 0:
        pool = exact_median_pool(ctx, c.limits)
    else:
        pool = approx_median_pool(ctx, budget, c.limits)
    return greedy_dispersion(pool, c.k, ctx), "greedy"


def _min_sample(ctx, budget, c, doc):
    cfg = SampleConfig(k=c.k, delta=c.delta, eta=c.eta, seed=c.seed)
    if c.epsilon == 0:
        cands, _ = sample_exact_medians(ctx, cfg)
    else:
        cands, _ = sample_approx_medians(ctx, approx_diameter_pair(ctx, budget), cfg)
    return cands, "sample"


def _min_lp(ctx, budget, c, doc):
    cands, report = lp_min_dispersion(ctx, budget, c.k, c.delta, c.eta, c.seed)
    doc["lp_report"] = asdict(report)
    return cands, "lpround"


ENGINES = {
    ("sum-dispersion", "auto"): _sum_auto,
    ("sum-dispersion", "exact-construction"): _sum_exact_construction,
    ("sum-dispersion", "greedy"): _sum_greedy,
    ("min-dispersion", "auto"): _min_auto,
    ("min-dispersion", "dp"): _min_dp,
    ("min-dispersion", "greedy"): _min_greedy,
    ("min-dispersion", "sample"): _min_sample,
    ("min-dispersion", "lp"): _min_lp,
}


def run(config: RunConfig) -> dict:
    """Execute one configured run and return the result document as a dict."""
    if config.objective not in OBJECTIVES:
        raise ValidationError(f"unknown objective {config.objective!r}")
    allowed = [s for o, s in ENGINES if o == config.objective] or ["auto"]
    if config.strategy not in allowed:
        raise ValidationError(
            f"strategy {config.strategy!r} does not apply to objective "
            f"{config.objective!r}; allowed: {', '.join(allowed)}"
        )

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
    joined = all(len(a) == 1 for a in dataset.alphabet)

    doc["dataset"] = {
        "n": dataset.n,
        "d": dataset.d,
        "alphabet": list(dataset.alphabet),
        "alphabet_inferred": dataset.alphabet_inferred,
    }
    doc["opt"] = ctx.opt
    doc["w"] = _render_word(ctx.w, joined)

    if config.objective == "median":
        doc["strings"] = [_render_word(ctx.w, joined)]
        doc["costs"] = _revalidate(ctx, [ctx.w], Fraction(ctx.opt))
        doc["objective_value"] = ctx.opt
        doc["guarantee"] = "exact optimum: per-index majority minimizes the distance sum"
        return doc

    if config.objective == "diameter":
        if config.epsilon == 0:
            res = exact_diameter_pair(ctx)
            cap, cls = _class_cap("exact", config, ctx.opt)
            doc["guarantee"] = f"exact diameter over exact medians; {cls}"
        else:
            res = approx_diameter_pair(ctx, budget)
            cap, cls = _class_cap("approx", config, ctx.opt)
            doc["guarantee"] = (
                f"exact diameter over (1+eps)-approximate medians "
                f"(branch: {res.branch}); {cls}"
            )
        doc["strings"] = [_render_word(s, joined) for s in res.pair]
        doc["costs"] = _revalidate(ctx, list(res.pair), cap)
        doc["dstar"] = res.diameter
        doc["objective_value"] = res.diameter
        doc["branch"] = res.branch
        return doc

    if (config.objective, config.strategy) in ENGINES:
        cands, tag = ENGINES[config.objective, config.strategy](ctx, budget, config, doc)
        regime = "exact" if config.epsilon == 0 else "approx"
        guarantee, cls = (STRATEGY_TABLE.get((config.objective, regime, tag))
                          or STRATEGY_TABLE[config.objective, "any", tag])
        cap, label = _class_cap(cls, config, ctx.opt)
        doc["strings"] = [_render_word(s, joined) for s in cands.members]
        doc["costs"] = _revalidate(ctx, cands.members, cap)
        doc["strategy_tag"] = tag
        doc["guarantee"] = f"{guarantee}; {label}"
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
        doc["strings"] = _render_pool(pool, joined)
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
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed (default 0)")
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
    if not -(2 ** 63) <= args.seed < 2 ** 64:
        raise ValidationError("seed does not fit in 64 bits")
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
        if isinstance(exc, KeyWidthExceeded):
            print("hint: pick --strategy auto, greedy or sample, or a smaller --k",
                  file=sys.stderr)
        else:
            print("hint: raise --max-candidates/--max-tuples/--max-states, or pick "
                  "--strategy sample", file=sys.stderr)
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
