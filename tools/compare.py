"""Byte identity of CLI runs between a git revision and the working tree.

    python3 tools/compare.py --base <rev> [--configs N] [--seed S]

Exports the `src/` of <rev> with `git archive` into a temporary directory
(offline), draws N seeded CLI configurations, and runs each one in a fresh
process in both trees, over the same input files in the same work directory.
It compares the document bytes (standard output, or the --output file), the
exit code and standard error, with the number in the "done in ...s" line
masked. Every differing configuration is printed with a one-line diff.

The draw covers every objective, --strategy, regime (eps = 0 and eps > 0),
input format and oracle op, small --max-* caps, bad flags and bad inputs,
inputs of more than 300 symbols, and a (d, |Σ|) table of 4.5 million cells
(2 rows of 1,500 cells over 3,000 symbols). Its first configurations are one
recipe per STRATEGY_TABLE row; --timing is never drawn, since it embeds a
wall time.

Exit status 1 when a configuration differs, or when the working tree's
documents did not reach every STRATEGY_TABLE row (raise N); 2 when <rev>
cannot be exported; 0 otherwise.
No difference is ever allowed: a change that moves documents lists the
differences this prints.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300

# golden-style rows, written next to the seeded inputs
SMALL = {
    "tour.txt": "abca\nabcb\nabca\nbbcb\n",
    "ties.txt": "aaaa\nbbbb\ncccc\n",
    "pairs.txt": "ab\nba\n",
    "pairs3.txt": "ab\nba\naa\n",
    "pairs4.txt": "ab\nba\naa\nbb\n",
    "stripes.txt": ("1" * 60 + "\n") * 6 + ("0" * 60 + "\n") * 4,
    "ab40.txt": "a" * 40 + "\n" + "b" * 40 + "\n",
    "ab90.txt": "a" * 90 + "\n" + "b" * 90 + "\n",
    "greek.txt": "αααααααα\n" * 3 + "ββββββββ\nγγγγγγγγ\n",
    "cells.csv": ("GT,AC,GT,AC,AC,AC\nAC,GT,AC,AC,GT,AC\nAC,GT,AC,GT,GT,AC\n"
                  "AC,GT,TT,GT,GT,AC\nTT,GT,AC,AC,GT,GT\n"),
    "lumpy.txt": "ccb\ncca\naaa\ncca\nbca\ncab\ncab\naca\n",
}
SUM = ["--objective", "sum-dispersion"]
MIN = ["--objective", "min-dispersion"]
ORACLE = ["--objective", "oracle", "--oracle-op"]
# the first configurations, whose flags win over the seed and eta drawn for
# them: one per STRATEGY_TABLE row (its tag in the comment), then every
# oracle op, every format, the other objectives and exit code 4, then both
# pool greedies at a k above their pool (4 exact medians), past the fill's
# early stop
RECIPES = [
    SUM + ["--input", "ties.txt", "--k", "3", "--strategy", "exact-construction"],
    SUM + ["--input", "ties.txt", "--k", "3", "--strategy", "greedy", "--epsilon", "1/2"],
    SUM + ["--input", "stripes.txt", "--k", "3", "--epsilon", "1/2"],  # density
    SUM + ["--input", "ties.txt", "--k", "3"],  # enumeration
    SUM + ["--input", "ties.txt", "--k", "2", "--max-candidates", "10"],  # density_fallback
    MIN + ["--input", "pairs.txt", "--k", "2", "--delta", "1/2"],  # dp
    MIN + ["--input", "pairs4.txt", "--k", "3", "--delta", "1/2"],  # greedy
    MIN + ["--input", "ab90.txt", "--k", "4", "--delta", "1/2"],  # sample
    MIN + ["--input", "ab40.txt", "--k", "3", "--delta", "1/2",
           "--max-candidates", "10000"],  # sample_fallback
    MIN + ["--input", "pairs3.txt", "--k", "2", "--delta", "1/2", "--epsilon", "1/2"],  # dp
    MIN + ["--input", "pairs3.txt", "--k", "3", "--delta", "1/2",
           "--epsilon", "1/2"],  # greedy
    MIN + ["--input", "stripes.txt", "--k", "5", "--delta", "1/2",
           "--epsilon", "1/2"],  # sample
    MIN + ["--input", "ties.txt", "--k", "3", "--strategy", "lp", "--epsilon", "1/2"],  # lpround
    ORACLE + ["exact-medians", "--input", "ties.txt"],
    ORACLE + ["approx-medians", "--input", "tour.txt", "--epsilon", "1/2"],
    ORACLE + ["diameter", "--input", "tour.txt", "--epsilon", "1/2"],
    ORACLE + ["sumdp", "--input", "tour.txt", "--epsilon", "1/2", "--k", "3"],
    ORACLE + ["mindp", "--input", "ties.txt", "--epsilon", "1/2", "--k", "2"],
    ORACLE + ["max-code-size", "--sizes", "2,2", "--t", "1"],
    ["--objective", "median", "--input", "cells.csv", "--format", "csv"],
    ["--objective", "median", "--input", "rand.fa", "--format", "fasta"],
    ["--objective", "median", "--input", "wide3000.csv", "--format", "csv"],
    ["--objective", "diameter", "--input", "han.txt"],
    ["--objective", "diameter", "--input", "wide.csv", "--format", "csv", "--epsilon", "1/4"],
    ["--objective", "bound", "--input", "tour.txt", "--t", "2"],
    ["--objective", "bound", "--sizes", "2,2,2,2", "--t", "3"],
    SUM + ["--input", "han.txt", "--k", "4", "--epsilon", "1/2"],
    MIN + ["--input", "lumpy.txt", "--k", "3", "--strategy", "lp", "--epsilon", "1/4",
           "--delta", "1/8", "--eta", "1/2", "--seed", "2"],  # no trial in the cost cap
    SUM + ["--input", "pairs.txt", "--k", "9", "--strategy", "greedy"],
    MIN + ["--input", "pairs.txt", "--k", "9", "--strategy", "greedy"],
]

EPSILONS = ["0", "0", "0", "1/4", "1/2", "1", "3/2", "0.1", "1/100"]
DELTAS = ["1/8", "1/4", "1/2", "3/4", "0.3"]
ETAS = ["1/8", "1/2", "1/100", "0.9"]
CAPS = {"--max-candidates": [2, 3, 10, 100, 1000], "--max-tuples": [1, 10, 1000],
        "--max-states": [1, 100, 10000]}
ORACLE_OPS = ["exact-medians", "approx-medians", "diameter", "sumdp", "mindp"]
# bad flags and inputs, and odd valid ones, each appended after a drawn
# configuration: argparse keeps a flag's last value
BAD = [
    ["--epsilon", "0e10000000"], ["--epsilon", "4e-3"],
    ["--delta", "0"], ["--delta", "2"], ["--eta", "0"], ["--eta", "half"],
    ["--epsilon=-1/2"], ["--epsilon", "1e5000"], ["--epsilon", "1e10000000"],
    ["--delta", "1e-10000000"], ["--eta", "1e-4300"], ["--k", "0"], ["--k", "1"],
    ["--k", "x"], ["--seed=-1"], ["--alphabet", ","], ["--alphabet", "a"],
    ["--alphabet", "a,a"], ["--sizes", "2,x"], ["--sizes", ","], ["--sizes", "0,2"],
    ["--t=-1"], ["--max-states", "0"], ["--strategy", "dp"],
    ["--strategy", "exact-construction"], ["--input", "missing.txt"],
    ["--input", "headless.fa", "--format", "fasta"], ["--input", "ragged.txt"],
    ["--input", "latin1.txt"], ["--input", "empty.txt"], ["--input", "foreign.txt",
                                                          "--alphabet", "ab"],
    ["--output", "no/such/dir.json"],
]


def write_inputs(rng: np.random.Generator, work: Path) -> dict[str, tuple[str, str]]:
    """Write every input file into `work`; return the good ones by name, as
    (format, its symbols in a seeded order, as --alphabet takes them)."""
    files = dict(SMALL)
    acgt = np.array(list("ACGT"))
    rand = ["".join(row) for row in acgt[rng.integers(0, 4, (10, 30))]]
    files["rand.txt"] = "\n".join(rand) + "\n"
    files["rand.fa"] = "".join(f">r{r}\n{row[:15]}\n{row[15:]}\n" for r, row in enumerate(rand))
    # more than 300 symbols (uint16 codes): every one of 320 occurs
    han = np.array([chr(0x4E00 + j) for j in range(320)])
    cells = np.concatenate((rng.permutation(320), rng.integers(0, 320, 160))).reshape(6, 80)
    files["han.txt"] = "\n".join("".join(row) for row in han[cells]) + "\n"
    cells = np.concatenate((rng.permutation(350), rng.integers(0, 350, 5))).reshape(5, 71)
    files["wide.csv"] = "\n".join(",".join(f"s{c}" for c in row) for row in cells) + "\n"
    # a wide cost table for the median recipe: every cell its own symbol
    files["wide3000.csv"] = "".join(",".join(f"{c}{i}" for i in range(1500)) + "\n"
                                    for c in "cd")
    files.update({"headless.fa": "ACGT\n>r\nACGT\n", "ragged.txt": "ab\nabc\n",
                  "empty.txt": "", "foreign.txt": "ab\nbc\n"})
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    (work / "latin1.txt").write_bytes("ab\nbé\n".encode("latin-1"))
    good = {}
    for name in (*SMALL, "rand.txt", "rand.fa", "han.txt", "wide.csv"):
        fmt = {".fa": "fasta", ".csv": "csv"}.get(Path(name).suffix, "lines")
        if fmt == "csv":
            symbols = set(re.split("[,\n]", files[name])) - {""}
        else:  # a FASTA file holds the symbols of its lines twin
            symbols = set(files[name.replace(".fa", ".txt")]) - {"\n"}
        good[name] = (fmt, ("," if fmt == "csv" else "").join(rng.permutation(sorted(symbols))))
    return good


def draw(rng: np.random.Generator, i: int, inputs: dict) -> list[str]:
    """Configuration i: the recipe of row i first, then free draws."""
    pick = lambda seq: seq[int(rng.integers(len(seq)))]  # noqa: E731
    seed = ["--seed", str(pick([0, 1, 7, int(rng.integers(2**63)) * 2 + 1]))]
    if i < len(RECIPES):
        return [*seed, "--eta", pick(ETAS), *RECIPES[i]]
    objective = pick(["median", "diameter", "sum-dispersion", "sum-dispersion",
                      "min-dispersion", "min-dispersion", "min-dispersion", "bound", "oracle"])
    name = pick(sorted(inputs))
    fmt, symbols = inputs[name]
    argv = ["--objective", objective, "--input", name, "--epsilon", pick(EPSILONS), *seed]
    if fmt != "lines" or rng.random() < 0.2:
        argv += ["--format", fmt]
    if rng.random() < 0.2:
        argv += ["--alphabet", symbols]
    if objective in ("sum-dispersion", "min-dispersion"):
        names = {"sum-dispersion": ["auto", "auto", "exact-construction", "greedy"],
                 "min-dispersion": ["auto", "auto", "dp", "greedy", "sample", "lp"]}[objective]
        argv += ["--strategy", pick(names), "--k", str(pick([2, 2, 3, 4, 5])),
                 "--delta", pick(DELTAS), "--eta", pick(ETAS)]
        if name not in SMALL:  # a pool of 10^5 strings keeps a greedy busy for minutes
            argv += ["--max-candidates", "2000"]
    elif objective == "bound":
        argv += ["--t", str(pick([0, 1, 2, 3, 5]))]
        if rng.random() < 0.3:  # no dataset
            argv = ["--objective", "bound", "--sizes", pick(["2,2,2", "2,3,4", "3,3,3,3"]),
                    "--t", str(pick([1, 2, 3]))]
    elif objective == "oracle":
        if rng.random() < 0.15:
            argv = ["--objective", "oracle", "--oracle-op", "max-code-size",
                    "--sizes", pick(["2,2,2", "3,3,3", "2,3,2,2"]), "--t", str(pick([1, 2, 3]))]
        else:
            if name not in SMALL:  # the brute-force ops enumerate every approximate median
                argv[argv.index("--input") + 1] = name = pick(sorted(SMALL))
                argv += ["--format", inputs[name][0]]
            argv += ["--oracle-op", pick(ORACLE_OPS), "--k", str(pick([2, 3]))]
    for flag, values in CAPS.items():
        if rng.random() < 0.1:
            argv += [flag, str(pick(values))]
    if rng.random() < 0.1:
        argv += ["--output", f"out{i}.json"]
    if rng.random() < 0.15:
        argv += pick(BAD)
    return argv


def run(tree: Path, argv: list[str], work: Path) -> tuple[int | str, str, str]:
    """(exit code, document, masked stderr) of one CLI process of `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        proc = subprocess.run([sys.executable, "-m", "diverse_medians.cli", *argv], cwd=work,
                              env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    doc = proc.stdout.decode("utf-8", "replace")
    if "--output" in argv:
        out = work / argv[len(argv) - 1 - argv[::-1].index("--output") + 1]
        if out.is_file():
            doc += "[--output file]\n" + out.read_text(encoding="utf-8")
            out.unlink()
    err = re.sub(r"done in \d+\.\d+s", "done in ?s", proc.stderr.decode("utf-8", "replace"))
    return proc.returncode, doc, err


def first_difference(base: tuple, head: tuple) -> str:
    """A one-line diff: the first stream that differs, at its first line."""
    if base[0] != head[0]:
        return f"exit code {base[0]} != {head[0]}"
    for what, a, b in (("document", base[1], head[1]), ("stderr", base[2], head[2])):
        if a != b:
            lines = zip(a.splitlines() + [""], b.splitlines() + [""])
            at, (x, y) = next((n, p) for n, p in enumerate(lines, 1) if p[0] != p[1])
            return f"{what} line {at}: {x[:100]!r} != {y[:100]!r}"
    return ""


def reached_row(doc: str, table: dict) -> tuple | None:
    """The STRATEGY_TABLE key of a dispersion document, as the golden tests
    resolve it."""
    doc = doc.split("[--output file]\n")[-1]
    try:
        parsed = json.loads(doc)
    except ValueError:
        return None
    if "strategy_tag" not in parsed:
        return None
    objective, tag = parsed["config"]["objective"], parsed["strategy_tag"]
    regime = "exact" if Fraction(parsed["config"]["epsilon"]) == 0 else "approx"
    return next((key for key in ((objective, regime, tag), (objective, "any", tag))
                 if key in table), None)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--configs", type=int, default=100, help="configurations (default 100)")
    p.add_argument("--seed", type=int, default=1, help="seed of the draw (default 1)")
    args = p.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from diverse_medians.cli import STRATEGY_TABLE

    with tempfile.TemporaryDirectory() as tmp:
        base, work = Path(tmp, "base"), Path(tmp, "work")
        work.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 capture_output=True)
        if archive.returncode:
            print(f"cannot export {args.base}: {archive.stderr.decode().strip()}")
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(base, filter="data")
        rng = np.random.default_rng(args.seed)
        inputs = write_inputs(rng, work)
        differ, reached, codes = 0, set(), {}
        for i in range(args.configs):
            argv = draw(rng, i, inputs)
            old, new = run(base, argv, work), run(ROOT, argv, work)
            codes[new[0]] = codes.get(new[0], 0) + 1
            reached.add(reached_row(new[1], STRATEGY_TABLE))
            if old != new:
                differ += 1
                print(f"config {i}: {' '.join(argv)}\n    {first_difference(old, new)}")
    missed = sorted(set(STRATEGY_TABLE) - reached)
    for key in missed:
        print(f"no document reached STRATEGY_TABLE row {key}")
    shown = ", ".join(f"{code}: {count}" for code, count in sorted(codes.items(), key=str))
    print(f"{args.configs} configurations against {args.base} (seed {args.seed}): "
          f"{differ} differ; exit codes {shown}; "
          f"{len(STRATEGY_TABLE) - len(missed)}/{len(STRATEGY_TABLE)} table rows reached")
    return 1 if differ or missed else 0


if __name__ == "__main__":
    sys.exit(main())
