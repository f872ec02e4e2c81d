"""Seeded inputs and job lists for the benchmark workloads.

A workload is a list of CLI jobs over input files that are generated from the
workload seed. The program only ever sees the files. Every job names the
strategy tag it must reach, so a job that silently drifts onto another path
counts as failed, and carries the size of its largest dense allocation for
the pre-flight memory check.

Inputs come in two kinds:

* random: every cell drawn uniformly from the alphabet (``bulk``);
* profiled: every column has a fixed multiset of symbol counts, laid out in
  a fixed column order; the seed picks which symbol holds which count and
  which rows hold it. Costs, pool sizes, DP state spaces and LP models are
  then the same size for every seed, while the strings, and so the
  documents, differ. That keeps run-to-run spread down on the
  enumerating workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

ACGT = "ACGT"
BINARY = "01"
SIGMA20 = "ABCDEFGHIJKLMNOPQRST"


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]  # CLI arguments; input paths are relative to the work dir
    input: str | None  # input file name, or None for dataset-free jobs
    fmt: str  # input format as passed to --format
    tag: str | None  # strategy_tag the document must carry, when it has one
    dense_bytes: int  # largest dense allocation the job makes
    value: int | None = None  # known objective value, for dataset-free jobs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], list[Job]]  # (seed, work dir) -> jobs


# ---------------------------------------------------------------------------
# input generation


def _rng(seed: int, stream: int) -> np.random.Generator:
    # One stream per input file, so adding an input leaves the others alone.
    return np.random.default_rng([seed, stream])


def _write(path: Path, codes: np.ndarray, alphabet: str, fmt: str) -> None:
    table = np.frombuffer(alphabet.encode("ascii"), dtype=np.uint8)
    chars = table[codes]
    if fmt == "lines":
        n = chars.shape[0]
        out = np.empty((n, chars.shape[1] + 1), dtype=np.uint8)
        out[:, :-1] = chars
        out[:, -1] = ord("\n")
        path.write_bytes(out.tobytes())
    else:  # fasta, wrapped at 60 columns
        parts = []
        for r, row in enumerate(chars):
            parts.append(f">seq{r + 1}\n".encode("ascii"))
            for lo in range(0, row.size, 60):
                parts.append(row[lo:lo + 60].tobytes() + b"\n")
        path.write_bytes(b"".join(parts))


def random_codes(seed: int, stream: int, n: int, d: int, sigma: int) -> np.ndarray:
    return _rng(seed, stream).integers(0, sigma, size=(n, d), dtype=np.uint8)


def profiled_codes(seed: int, stream: int, n: int, profile: list[tuple[int, ...]],
                   sigma: int) -> np.ndarray:
    """n rows whose column i carries the symbol counts profile[i]."""
    rng = _rng(seed, stream)
    cols = []
    for counts in profile:
        assert sum(counts) == n and len(counts) <= sigma
        symbols = rng.permutation(sigma)[: len(counts)]
        col = np.repeat(symbols, counts).astype(np.uint8)
        cols.append(rng.permutation(col))
    return np.stack(cols, axis=1)


def _costs(counts: tuple[int, ...], sigma: int) -> list[int]:
    padded = list(counts) + [0] * (sigma - len(counts))
    return [max(padded) - c for c in padded]


def profile_opt(n: int, profile: list[tuple[int, ...]]) -> int:
    return sum(n - max(c) for c in profile)


def pool_size(profile: list[tuple[int, ...]], sigma: int, budget: int) -> int:
    """Number of strings whose summed deviation cost stays within budget."""
    ways = [1] + [0] * budget
    for counts in profile:
        nxt = [0] * (budget + 1)
        for c in _costs(counts, sigma):
            for b in range(budget + 1 - c):
                nxt[b + c] += ways[b]
        ways = nxt
    return sum(ways)


def exact_pool_size(profile: list[tuple[int, ...]]) -> int:
    size = 1
    for counts in profile:
        size *= counts.count(max(counts))
    return size


def dp_state_bytes(d: int, k: int, budget: int) -> int:
    """8 bytes per state of the approx DP's precheck bound (d+1)^(1+C(k,2)) (B+1)^k."""
    return (d + 1) ** (1 + comb(k, 2)) * (budget + 1) ** k * 8


def lp_dense_bytes(k: int, d: int) -> int:
    """Bytes of the dense A_ub the LP model builds: rows * cols * 8."""
    pairs = comb(k, 2)
    rows = 2 * k + 4 * pairs * d * k + pairs
    cols = k * d * k + pairs * d * k + 1
    return rows * cols * 8


# ---------------------------------------------------------------------------
# workloads


def _expand(spec: str, shapes: dict[str, tuple[int, ...]]) -> list[tuple[int, ...]]:
    return [shapes[ch] for ch in spec]


def build_bulk(seed: int, work: Path) -> list[Job]:
    a = random_codes(seed, 1, 4000, 1000, 4)
    b = random_codes(seed, 2, 2000, 400, 2)
    c = random_codes(seed, 3, 2000, 300, 20)
    _write(work / "a.txt", a, ACGT, "lines")
    _write(work / "b.fa", b, BINARY, "fasta")
    _write(work / "c.txt", c, SIGMA20, "lines")
    eps = "1/100"
    s = str(seed)

    def size(arr):
        return arr.size * 8

    return [
        # no --alphabet: the ingest path infers it
        Job("median-a", ("--objective", "median", "--input", "a.txt"),
            "a.txt", "lines", None, size(a)),
        Job("sumdisp-density-a-k8",
            ("--objective", "sum-dispersion", "--input", "a.txt", "--alphabet", ACGT,
             "--epsilon", eps, "--k", "8"),
            "a.txt", "lines", "density", size(a)),
        Job("diameter-b",
            ("--objective", "diameter", "--input", "b.fa", "--format", "fasta",
             "--alphabet", BINARY, "--epsilon", eps),
            "b.fa", "fasta", None, size(b)),
        Job("sumdisp-density-b-k16",
            ("--objective", "sum-dispersion", "--input", "b.fa", "--format", "fasta",
             "--alphabet", BINARY, "--epsilon", eps, "--k", "16"),
            "b.fa", "fasta", "density", size(b)),
        Job("sumdisp-exact-c-k8",
            ("--objective", "sum-dispersion", "--strategy", "exact-construction",
             "--input", "c.txt", "--alphabet", SIGMA20, "--k", "8"),
            "c.txt", "lines", "exact-construction", size(c)),
        Job("mindisp-sample-c-k8",
            ("--objective", "min-dispersion", "--input", "c.txt", "--alphabet", SIGMA20,
             "--epsilon", eps, "--k", "8", "--seed", s),
            "c.txt", "lines", "sample", size(c)),
    ]


# Column shapes for the pool inputs (symbol counts per column, largest first).
POOL5 = {"t": (2, 2, 1), "a": (3, 1, 1), "b": (2, 1, 1, 1), "e": (3, 2)}
POOL6 = {"t": (3, 3), "a": (4, 1, 1), "b": (3, 2, 1), "c": (5, 1), "e": (4, 2),
         "f": (2, 2, 1, 1)}
P1 = _expand("tttaaabbbeee", POOL5)  # n=5, budget 3: 3503 approx medians
P2 = _expand("ttaaabbbbceef", POOL6)  # n=6, budget 5: 4032 approx medians
P3 = _expand("ttaaabbb", POOL5)  # n=5, budget 3: DP at k=3
P4 = [(2, 2)] * 12 + [(3, 1)] * 4  # n=4 binary: 2^12 exact medians
MAX_CODE_SIZE = (
    # (sizes, t, value): A_3(6, 4) = 18 and A_4(5, 3) = 64 from coding tables
    ((3,) * 6, 4, 18),
    ((4,) * 5, 3, 64),
)


def build_pool(seed: int, work: Path) -> list[Job]:
    inputs = ((1, "p1.txt", 5, P1), (2, "p2.txt", 6, P2), (3, "p3.txt", 5, P3))
    for stream, name, n, profile in inputs:
        _write(work / name, profiled_codes(seed, stream, n, profile, 4), ACGT, "lines")
    _write(work / "p4.txt", profiled_codes(seed, 4, 4, P4, 2), BINARY, "lines")
    s = str(seed)

    def approx(name, profile, n, budget, *args):
        eps = f"{budget}/{profile_opt(n, profile)}"
        return ("--input", name, "--alphabet", ACGT, "--epsilon", eps) + args

    p1, p2 = pool_size(P1, 4, 3), pool_size(P2, 4, 5)
    p4 = exact_pool_size(P4)
    jobs = [
        Job("mindisp-greedy-p1-k8",
            ("--objective", "min-dispersion") + approx("p1.txt", P1, 5, 3, "--k", "8",
                                                       "--seed", s),
            "p1.txt", "lines", "greedy", p1 * p1 * 8),
        Job("sumdisp-pool-p2-k8",
            ("--objective", "sum-dispersion") + approx("p2.txt", P2, 6, 5, "--k", "8"),
            "p2.txt", "lines", "enumeration", p2 * p2 * 8),
        Job("mindisp-dp-p3-k3",
            ("--objective", "min-dispersion", "--strategy", "dp")
            + approx("p3.txt", P3, 5, 3, "--k", "3"),
            "p3.txt", "lines", "dp", dp_state_bytes(len(P3), 3, 3)),
        # eps = 0 and k*delta = 1: the DP precheck refuses (17^7 > 10^7 states)
        # and greedy runs over the exact pool
        Job("mindisp-exact-greedy-p4-k4",
            ("--objective", "min-dispersion", "--input", "p4.txt", "--alphabet", BINARY,
             "--k", "4", "--seed", s),
            "p4.txt", "lines", "greedy", p4 * p4 * 8),
    ]
    for sizes, t, value in MAX_CODE_SIZE:
        space = int(np.prod(sizes))
        jobs.append(Job(
            f"max-code-size-{sizes[0]}^{len(sizes)}-t{t}",
            ("--objective", "oracle", "--oracle-op", "max-code-size",
             "--sizes", ",".join(map(str, sizes)), "--t", str(t)),
            None, "lines", None, space * len(sizes) * 8, value))
    return jobs


# LP inputs: (stream, file, n, d, k, alphabet, column shapes cycled over d)
LP4 = [(4, 3, 2, 1), (5, 3, 1, 1), (3, 3, 2, 2), (4, 4, 1, 1), (5, 2, 2, 1)]
LP20 = [(3, 2, 2, 1, 1, 1), (4, 2, 1, 1, 1, 1), (2, 2, 2, 2, 1, 1), (3, 3, 1, 1, 1, 1)]
LP2 = [(6, 5), (7, 4), (8, 3), (9, 2)]
LP_JOBS = (
    (1, "l1.txt", 10, 60, 4, ACGT, LP4),
    (2, "l2.txt", 10, 40, 5, SIGMA20, LP20),
    (3, "l3.txt", 10, 240, 3, ACGT, LP4),  # rounding is a large share here
    (4, "l4.txt", 11, 800, 2, BINARY, LP2),  # integral LP vertex: rounding ~0
)


def build_lp(seed: int, work: Path) -> list[Job]:
    jobs = []
    for stream, name, n, d, k, alphabet, shapes in LP_JOBS:
        profile = [shapes[i % len(shapes)] for i in range(d)]
        codes = profiled_codes(seed, stream, n, profile, len(alphabet))
        _write(work / name, codes, alphabet, "lines")
        jobs.append(Job(
            f"lp-d{d}-k{k}",
            ("--objective", "min-dispersion", "--strategy", "lp", "--input", name,
             "--alphabet", alphabet, "--epsilon", "1/10", "--k", str(k),
             "--seed", str(seed)),
            name, "lines", "lpround", lp_dense_bytes(k, d)))
    return jobs


WORKLOADS = {
    "bulk": Workload(
        "bulk",
        "large random inputs with cheap engines: ingest, build_context, op-list "
        "and start-up dominate; bypasses pool and LP code",
        build_bulk),
    "pool": Workload(
        "pool",
        "small tie-rich inputs whose dispatchers enumerate pools of ~3.5k-4k "
        "strings: enumeration, p x p distances, DP and code-size search",
        build_pool),
    "lp": Workload(
        "lp",
        "LP relaxation and dependent rounding: dense model build, HiGHS solve "
        "and rounding; at k=2 rounding is ~0",
        build_lp),
}
