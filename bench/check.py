"""Independent check of one CLI document against the raw input rows.

Uses only the standard library and numpy, never ``diverse_medians``: column
counts, opt, every emitted string's median cost, and the sum / min
dispersion or diameter are recomputed here from the input file, and the
cost class the document declares in its guarantee is enforced in exact
arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

SCHEMA = "diverse-medians/1"

# Cost-class labels the CLI appends to its guarantee, as the factor on opt
# that every emitted string must stay within (None: cost must equal opt).
COST_CLASSES = {
    "cost == opt": lambda eps, delta: None,
    "cost <= (1+eps)*opt": lambda eps, delta: 1 + eps,
    "cost <= (1+2*eps)*opt": lambda eps, delta: 1 + 2 * eps,
    "cost <= (1+eps+delta)*opt": lambda eps, delta: 1 + eps + delta,
}


class Rows:
    """An input file as an (n, d) matrix of byte codes plus its column counts."""

    def __init__(self, path: Path, fmt: str):
        data = path.read_bytes()
        if fmt == "fasta":
            seqs: list[bytes] = []
            for line in data.split(b"\n"):
                line = line.strip()
                if line.startswith(b">"):
                    seqs.append(b"")
                elif line:
                    seqs[-1] += line
        else:
            seqs = [line for line in (raw.rstrip() for raw in data.split(b"\n")) if line]
        self.codes = np.frombuffer(b"".join(seqs), dtype=np.uint8).reshape(len(seqs), -1)
        self.n, self.d = self.codes.shape
        self.counts = np.zeros((self.d, 256), dtype=np.int64)
        for sym in np.unique(self.codes):
            self.counts[:, sym] = (self.codes == sym).sum(axis=0)
        self.opt = int((self.n - self.counts.max(axis=1)).sum())

    def cost(self, word: str) -> int:
        codes = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
        return int((self.n - self.counts[np.arange(self.d), codes]).sum())


def _hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def check_document(text: str, job, rows: Rows | None) -> list[str]:
    """Problems found in one job's document; empty when it is correct."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    if doc.get("schema") != SCHEMA:
        return [f"schema {doc.get('schema')!r}"]
    if job.tag is not None and doc.get("strategy_tag") != job.tag:
        return [f"strategy_tag {doc.get('strategy_tag')!r}, expected {job.tag!r}"]
    if job.value is not None:
        value = doc.get("objective_value")
        return [] if value == job.value else [f"objective_value {value}, expected {job.value}"]

    problems = []
    config = doc["config"]
    objective = config["objective"]
    if doc.get("opt") != rows.opt:
        problems.append(f"opt {doc.get('opt')}, recomputed {rows.opt}")
    strings = doc.get("strings", [])
    want = {"median": 1, "diameter": 2}.get(objective, config["k"])
    if len(strings) != want:
        return problems + [f"{len(strings)} strings, expected {want}"]
    symbols = set(doc["dataset"]["alphabet"])
    for s in strings:
        if len(s) != rows.d or not set(s) <= symbols:
            return problems + [f"malformed string {s[:40]!r}"]
    costs = [rows.cost(s) for s in strings]
    if doc.get("costs") != costs:
        problems.append(f"costs {doc.get('costs')}, recomputed {costs}")

    guarantee = doc.get("guarantee", "")
    label = next((lab for lab in COST_CLASSES if guarantee.endswith(lab)), None)
    if objective == "median":
        factor = None
    elif label is None:
        return problems + [f"no cost class in guarantee {guarantee!r}"]
    else:
        eps, delta = Fraction(config["epsilon"]), Fraction(config["delta"])
        factor = COST_CLASSES[label](eps, delta)
    for c in costs:
        if (c != rows.opt) if factor is None else (c > factor * rows.opt):
            problems.append(f"cost {c} outside its class ({label or 'cost == opt'}, "
                            f"opt {rows.opt})")

    dists = [_hamming(a, b) for a, b in combinations(strings, 2)]
    expected = {
        "median": rows.opt,
        "diameter": dists[0] if dists else None,
        "sum-dispersion": sum(dists),
        "min-dispersion": min(dists) if dists else None,
    }[objective]
    if doc.get("objective_value") != expected:
        problems.append(f"objective_value {doc.get('objective_value')}, "
                        f"recomputed {expected}")
    if objective == "diameter" and doc.get("dstar") != expected:
        problems.append(f"dstar {doc.get('dstar')}, recomputed {expected}")
    return problems
