"""Seeded end-to-end benchmark of the diverse-medians CLI.

    python3 bench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from --seed into a temporary directory, then
runs its job list as a closed loop: one client, one ``diverse-medians``
process at a time, passes back to back until --seconds of jobs have run.
Every document is checked independently (bench/check.py) and against the
sha256 recorded for that job and seed, if any (bench/digests.json).

--trace 0 prints the end-to-end metrics:
  batch_s      one pass over the job list: the sum over jobs of each job's
               median wall time across passes;
  setup_s      median over all job runs of wall time minus the run time the
               CLI reports on stderr (start-up, imports, parsing, JSON write);
  peak_rss_mb  largest max-RSS of any job process (wait4 on our children).
--trace 1 instead calls ``cli.main`` in-process for each job in three passes,
untraced, traced (bench/tracing.py) and untraced again, and prints per-layer
self times and counts, and both pass totals (their difference is the tracing
overhead). cli.import_s is timed in fresh processes.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

from check import Rows, check_document  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BASELINE_SEED = 1  # baseline.json's traced run; digests.json covers both seeds
HELDOUT_SEED = 2  # kept back for confirming a claimed gain
RAM_SHARE = 8  # refuse a job whose largest dense allocation exceeds RAM / 8
JOB_TIMEOUT_S = 120
DIGESTS = BENCH / "digests.json"
DONE_RE = re.compile(rb"done in ([0-9.]+)s")
# What the `diverse-medians` console script runs.
ENTRY = "import sys; from diverse_medians.cli import main; sys.exit(main())"


def physical_ram() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def preflight(jobs) -> list[str]:
    """Names of jobs whose largest dense allocation is too big for this machine."""
    limit = physical_ram() // RAM_SHARE
    return [job.name for job in jobs if job.dense_bytes > limit]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], work: Path, env, out: Path, err: Path):
    """Run one process to completion: (wall s, exit code, max RSS bytes)."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024


class Checker:
    """Independent check plus recorded digest, with parsed inputs cached."""

    def __init__(self, workload: str, seed: int, work: Path, record: bool):
        self.work = work
        self.rows: dict[str, Rows] = {}
        self.record = record
        self.all = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.digests = self.all.setdefault(workload, {}).setdefault(str(seed), {})

    def __call__(self, job, rc: int, text: bytes) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if job.input is not None and job.input not in self.rows:
            self.rows[job.input] = Rows(self.work / job.input, job.fmt)
        problems = check_document(text.decode("utf-8"), job, self.rows.get(job.input))
        digest = hashlib.sha256(text).hexdigest()
        if job.name not in self.digests:
            if self.record and not problems:
                self.digests[job.name] = digest
        elif self.digests[job.name] != digest:
            problems.append("document differs from the recorded digest")
        return problems

    def save(self) -> None:
        DIGESTS.write_text(json.dumps(self.all, indent=1, sort_keys=True) + "\n")


def closed_loop(jobs, work: Path, seconds: float, check: Checker) -> dict:
    env = child_env()
    # One untimed start-up first: compiles bytecode and warms the file cache.
    run_child([sys.executable, "-c", "import diverse_medians.cli"], work, env,
              work / "warm.out", work / "warm.err")
    walls: dict[str, list[float]] = {job.name: [] for job in jobs}
    setups: list[float] = []
    peak = attempted = failed = 0
    measured = 0.0
    while measured < seconds:
        for job in jobs:
            out, err = work / f"{job.name}.out", work / f"{job.name}.err"
            wall, rc, rss = run_child([sys.executable, "-c", ENTRY, *job.argv],
                                      work, env, out, err)
            measured += wall
            attempted += 1
            walls[job.name].append(wall)
            peak = max(peak, rss)
            done = DONE_RE.search(err.read_bytes())
            if done:
                setups.append(wall - float(done.group(1)))
            problems = check(job, rc, out.read_bytes())
            if problems:
                failed += 1
                print(f"FAIL {job.name}: {'; '.join(problems)}", file=sys.stderr)
    batch = sum(statistics.median(w) for w in walls.values())
    metrics = {
        "batch_s": {"value": batch, "unit": "s"},
        # no setups means every job failed, which `failed` already reports
        "setup_s": {"value": statistics.median(setups or [0.0]), "unit": "s"},
        "peak_rss_mb": {"value": peak / 2**20, "unit": "MB"},
    }
    passes = attempted // len(jobs)
    print(f"{passes} passes of {len(jobs)} jobs in {measured:.2f}s", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def import_probe(work: Path, repeats: int = 3) -> tuple[float, int]:
    """Median time of `import diverse_medians.cli` in a fresh process, and
    whether scipy is loaded afterwards."""
    code = ("import sys, time; t = time.perf_counter(); import diverse_medians.cli; "
            "print(time.perf_counter() - t, int('scipy' in sys.modules))")
    env = child_env()
    times, loaded = [], 0
    for _ in range(repeats):
        out = work / "probe.out"
        _, rc, _ = run_child([sys.executable, "-c", code], work, env, out,
                             work / "probe.err")
        if rc != 0:
            raise RuntimeError("import diverse_medians.cli failed")
        t, flag = out.read_text().split()
        times.append(float(t))
        loaded = int(flag)
    return statistics.median(times), loaded


def load_program():
    """Import the package from src/: (cli module, every module the tracer patches)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from diverse_medians import cli, core, diameter, lpround, mindisp, oracle, sumdisp

    return cli, [cli, core, diameter, lpround, mindisp, oracle, sumdisp]


def in_process_pass(jobs, work: Path, cli, check: Checker, tracer=None) -> tuple[float, int]:
    """Call cli.main once per job; returns (summed wall s, failed count)."""
    total, failed = 0.0, 0
    cwd = os.getcwd()
    os.chdir(work)  # job arguments name their inputs relative to the work dir
    try:
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    rc = cli.main(list(job.argv))
                else:
                    tracer.job = job.name
                    rc = tracer.run("cli.main", lambda: cli.main(list(job.argv)))
            total += time.perf_counter() - start
            problems = check(job, rc, out.getvalue().encode("utf-8"))
            if problems:
                failed += 1
                print(f"FAIL {job.name} (in-process): {'; '.join(problems)}",
                      file=sys.stderr)
    finally:
        os.chdir(cwd)
    return total, failed


def traced_pass(jobs, work: Path, check: Checker):
    """One in-process pass with the tracer installed: (tracer, wall s, failed)."""
    from tracing import Tracer

    cli, modules = load_program()
    tracer = Tracer(modules)
    tracer.install()
    try:
        total, failed = in_process_pass(jobs, work, cli, check, tracer)
    finally:
        tracer.uninstall()
    return tracer, total, failed


def traced_run(jobs, work: Path, check: Checker, spans_out: Path) -> dict:
    import_s, scipy_loaded = import_probe(work)
    cli, _ = load_program()
    # Untraced passes on both sides of the traced one; the first also absorbs
    # first-call costs, so the faster of the two is the reference.
    first_s, failed_1 = in_process_pass(jobs, work, cli, check)
    tracer, traced_s, failed_t = traced_pass(jobs, work, check)
    second_s, failed_2 = in_process_pass(jobs, work, cli, check)
    untraced_s = min(first_s, second_s)
    layer = tracer.metrics()
    layer.update({"cli.import_s": import_s, "cli.scipy_loaded": scipy_loaded,
                  "trace.untraced_s": untraced_s, "trace.traced_s": traced_s})
    print(f"tracing overhead: {traced_s - untraced_s:+.3f}s on {untraced_s:.3f}s "
          f"untraced", file=sys.stderr)
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps(
        [dict(zip(("name", "start", "end", "parent", "job"), s)) for s in tracer.spans]))
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in units}
    return {"attempted": 3 * len(jobs), "failed": failed_1 + failed_t + failed_2,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=BASELINE_SEED)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="record digests.json entries missing for this seed")
    args = p.parse_args(argv)
    if not (SRC / "diverse_medians" / "cli.py").is_file():
        print(f"bench: no program sources at {SRC}", file=sys.stderr)
        return 2

    tmp_root = BENCH / ".tmp"
    tmp_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            work = Path(tmp)
            jobs = WORKLOADS[args.workload].build(args.seed, work)
            refused = preflight(jobs)
            if refused:
                print(f"bench: refusing jobs above RAM/{RAM_SHARE}: {', '.join(refused)}",
                      file=sys.stderr)
                return 2
            check = Checker(args.workload, args.seed, work, args.record)
            if args.trace:
                spans = BENCH / "out" / f"spans-{args.workload}-{args.seed}.json"
                result = traced_run(jobs, work, check, spans)
            else:
                result = closed_loop(jobs, work, args.seconds, check)
            if args.record:
                check.save()
    finally:
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    attempted, failed = result["attempted"], result["failed"]
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.4g} ratio ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
