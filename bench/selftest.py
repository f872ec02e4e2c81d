"""Fast self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that generating a workload twice from one seed gives byte-identical
inputs (and another seed different ones), that the pre-flight size check
passes every job and refuses an oversized one, that one in-process pass of
every workload reaches every job path with no failed job, and that two traced
passes give identical per-layer counts. Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import SRC, Checker, physical_ram, preflight, traced_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
# Every engine path the job lists must reach, as strategy tags and as the
# call counters of the layers that implement them.
TAGS = {"density", "exact-construction", "sample", "greedy", "enumeration", "dp",
        "lpround"}
CALLS = ("sumdisp.build_oplist_calls", "sumdisp.small_dstar_calls", "mindisp.dp_calls",
         "mindisp.greedy_calls", "mindisp.sample_calls", "oracle.max_code_size_calls",
         "lpround.linprog_calls", "lpround.dependent_round_calls")


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def main() -> int:
    if not (SRC / "diverse_medians" / "cli.py").is_file():
        print(f"selftest: no program sources at {SRC}", file=sys.stderr)
        return 2
    errors: list[str] = []
    tags: set[str] = set()
    calls: dict[str, int] = {}
    tmp_root = BENCH / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
                dirs = [Path(tmp) / sub for sub in ("a", "b", "c")]
                for d in dirs:
                    d.mkdir()
                jobs = workload.build(SEED, dirs[0])
                workload.build(SEED, dirs[1])
                workload.build(SEED + 1, dirs[2])
                if digest_dir(dirs[0]) != digest_dir(dirs[1]):
                    errors.append(f"{name}: one seed gave different inputs")
                if digest_dir(dirs[0]) == digest_dir(dirs[2]):
                    errors.append(f"{name}: two seeds gave the same inputs")
                tags |= {job.tag for job in jobs if job.tag}
                if preflight(jobs):
                    errors.append(f"{name}: pre-flight refuses {preflight(jobs)}")

                check = Checker(name, SEED, dirs[0], record=False)
                counts = []
                for _ in range(2):
                    tracer, _, failed = traced_pass(jobs, dirs[0], check)
                    if failed:
                        errors.append(f"{name}: {failed} of {len(jobs)} jobs failed")
                    counts.append(dict(tracer.counts))
                if counts[0] != counts[1]:
                    diff = {k for k in counts[0] | counts[1]
                            if counts[0].get(k) != counts[1].get(k)}
                    errors.append(f"{name}: traced counts differ: {sorted(diff)}")
                for k in CALLS:
                    calls[k] = calls.get(k, 0) + counts[0].get(k, 0)
                print(f"selftest: {name}: {len(jobs)} jobs, 2 traced passes")
    finally:
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    oversized = replace(jobs[0], dense_bytes=physical_ram())
    if preflight([oversized]) != [oversized.name]:
        errors.append("pre-flight accepts a job as large as physical RAM")
    if TAGS - tags:
        errors.append(f"job lists miss paths: {sorted(TAGS - tags)}")
    errors += [f"no call reached {k}" for k in CALLS if not calls.get(k)]
    for e in errors:
        print(f"selftest FAIL: {e}", file=sys.stderr)
    if not errors:
        print("selftest: all checks passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
