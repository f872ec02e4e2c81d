import csv
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from diverse_medians import (
    Budget,
    CandidateSet,
    DEFAULT_LIMITS,
    Dataset,
    ValidationError,
    cli,
    context_from_strings,
    core,
    oracle,
    sumdisp,
)

from conftest import tie_columns_rows


def make_config(**kw):
    base = dict(
        input=None,
        format="lines",
        objective="median",
        epsilon=Fraction(0),
        k=1,
        delta=Fraction(1, 4),
        eta=Fraction(1, 2),
        strategy="auto",
        seed=0,
        alphabet=None,
        output=None,
        timing=False,
        t=None,
        sizes=None,
        oracle_op=None,
        limits=DEFAULT_LIMITS,
    )
    base.update(kw)
    return cli.RunConfig(**base)


@pytest.fixture
def ties_path(tmp_path):
    p = tmp_path / "ties.txt"
    p.write_text("aaaa\nbbbb\ncccc\n")
    return str(p)


# known witness: a single rounding trial overshoots the cost cap (exit 4)
LUMPY_ROWS = "ccb\ncca\naaa\ncca\nbca\ncab\ncab\naca\n"


# --- parsing helpers ---------------------------------------------------------


def test_parse_rational_accepts_fractions_and_decimals():
    assert cli.parse_rational("1/2") == Fraction(1, 2)
    assert cli.parse_rational("0.25") == Fraction(1, 4)
    assert cli.parse_rational("2") == Fraction(2)


def test_parse_rational_rejects_garbage():
    with pytest.raises(ValidationError):
        cli.parse_rational("half")


def test_parse_alphabet_modes():
    assert cli._parse_alphabet("abc") == ("a", "b", "c")
    assert cli._parse_alphabet("a,b,c") == ("a", "b", "c")
    assert cli._parse_alphabet("AC,GT") == ("AC", "GT")


def test_render_word_joins_only_single_char_symbols():
    codes = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    assert cli._render_word(codes, ("a", "b")) == ["ab", "bb"]
    assert cli._render_word(codes, ("AC", "GT")) == [["AC", "GT"], ["GT", "GT"]]


# --- ingestion ----------------------------------------------------------------


def test_ingest_lines(tmp_path):
    p = tmp_path / "rows.txt"
    p.write_text("ab\n\nab\ncb\n")  # blank line is skipped
    ds = cli.ingest(str(p), "lines")
    assert ds.n == 3 and ds.d == 2
    assert ds.alphabet == ("a", "b", "c")
    assert ds.alphabet_inferred


def test_ingest_skips_a_utf8_byte_order_mark(tmp_path):
    p = tmp_path / "bom.txt"
    p.write_bytes("\ufeffACGT\nACGA\nACGT".encode("utf-8"))
    ds = cli.ingest(str(p), "lines")
    assert ds.n == 3 and ds.d == 4
    assert ds.alphabet == ("A", "C", "G", "T")  # the BOM is not a symbol


def test_ingest_lines_ragged_names_the_line(tmp_path):
    p = tmp_path / "rag.txt"
    p.write_text("ab\nabc\n")
    with pytest.raises(ValidationError, match="line 2"):
        cli.ingest(str(p), "lines")


@pytest.mark.parametrize("fmt, text, message", [
    ("lines", "ab\nabc\n", "line 2 has length 3, expected 2"),
    ("fasta", ">r1\nab\n>r2\nabc\n", "record 'r2' has length 3, expected 2"),
    ("fasta", ">r1\nab\n>r2\n>r3\nab\n", "record 'r2' is empty"),
    ("csv", "a,b\nb,a,a\n", "row 2 has length 3, expected 2"),
])
def test_ingest_names_the_bad_row_in_every_format(tmp_path, fmt, text, message):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(ValidationError, match=message):
        cli.ingest(str(p), fmt)


def test_ingest_empty_file_is_an_error(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("\n\n")
    with pytest.raises(ValidationError):
        cli.ingest(str(p), "lines")


def test_ingest_fasta_concatenates_wrapped_records(tmp_path):
    p = tmp_path / "x.fasta"
    p.write_text(">r1 some description\nab\nca\n>r2\nbbca\n")
    ds = cli.ingest(str(p), "fasta")
    assert ds.n == 2 and ds.d == 4
    assert ds.strings[0] == ("a", "b", "c", "a")


def test_ingest_fasta_errors_name_the_record(tmp_path):
    p = tmp_path / "bad.fasta"
    p.write_text(">r1\nab\n>r2\nabc\n")
    with pytest.raises(ValidationError, match="r2"):
        cli.ingest(str(p), "fasta")


def test_csv_header_dropped_when_cells_never_reappear(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("p1,p2\na,b\nb,a\n")
    ds = cli.ingest(str(p), "csv")
    assert ds.n == 2 and ds.strings[0] == ("a", "b")


def test_csv_first_row_kept_when_cells_recur(tmp_path):
    p = tmp_path / "nh.csv"
    p.write_text("a,b\nb,a\na,b\n")
    ds = cli.ingest(str(p), "csv")
    assert ds.n == 3


def test_csv_explicit_alphabet_header_rule(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("pos1,pos2\na,b\nb,a\n")
    ds = cli.ingest(str(p), "csv", alphabet=("a", "b"))
    assert ds.n == 2  # header cells fall outside the alphabet
    p2 = tmp_path / "e2.csv"
    p2.write_text("a,b\nb,a\n")
    ds2 = cli.ingest(str(p2), "csv", alphabet=("a", "b"))
    assert ds2.n == 2  # first row is data: nothing outside the alphabet


# --- run() documents ----------------------------------------------------------


def test_run_median_document(ties_path):
    doc = cli.run(make_config(input=ties_path, objective="median"))
    assert doc["schema"] == "diverse-medians/1"
    assert doc["w"] == "aaaa"  # every column ties; alphabet order wins
    assert doc["opt"] == doc["objective_value"] == 8
    assert doc["costs"] == [8]
    assert doc["dataset"] == {
        "alphabet": ["a", "b", "c"],
        "alphabet_inferred": True,
        "d": 4,
        "n": 3,
    }


def test_run_diameter_document(ties_path):
    doc = cli.run(make_config(input=ties_path, objective="diameter", k=2))
    assert doc["objective_value"] == 4
    assert doc["branch"] == "exact"
    assert len(doc["strings"]) == 2


def test_run_sum_dispersion_document(ties_path):
    doc = cli.run(make_config(input=ties_path, objective="sum-dispersion", k=3))
    assert doc["objective_value"] == 12
    assert doc["strategy_tag"] == "enumeration"
    assert all(c == 8 for c in doc["costs"])


def test_run_sum_dispersion_exact_construction(ties_path):
    doc = cli.run(
        make_config(
            input=ties_path,
            objective="sum-dispersion",
            k=3,
            strategy="exact-construction",
        )
    )
    assert doc["objective_value"] == 12


def test_run_min_dispersion_document_carries_certificates(ties_path):
    doc = cli.run(make_config(input=ties_path, objective="min-dispersion", k=3))
    assert doc["objective_value"] == 4
    certs = doc["certificates"]
    assert certs["alphabet_sizes"] == [3, 3, 3, 3]
    assert certs["plotkin_sum"] == "8/3"
    assert certs["max_code_size"] == 3
    assert certs["tstar_upper"] == "32/3"


def test_run_min_dispersion_lp_strategy_reports(ties_path):
    doc = cli.run(
        make_config(
            input=ties_path,
            objective="min-dispersion",
            k=3,
            epsilon=Fraction(1, 2),
            strategy="lp",
            seed=4,
        )
    )
    assert doc["strategy_tag"] == "lpround"
    rep = doc["lp_report"]
    assert rep["lp_value"] == pytest.approx(8.0)
    assert rep["trials"] == 1 and rep["kept"] == 1


def test_run_bound_document_needs_no_input():
    doc = cli.run(make_config(objective="bound", sizes=(2, 2, 2, 2), t=3))
    assert doc["objective_value"] == 3
    assert doc["certificates"]["plotkin_sum"] == "2"
    assert "dataset" not in doc


def test_run_oracle_mindp(ties_path):
    doc = cli.run(
        make_config(
            input=ties_path,
            objective="oracle",
            oracle_op="mindp",
            k=2,
            epsilon=Fraction(1, 2),
        )
    )
    assert doc["objective_value"] == 4
    assert doc["pool_size"] == 81


def test_run_oracle_max_code_size_needs_no_input():
    doc = cli.run(
        make_config(objective="oracle", oracle_op="max-code-size", sizes=(2, 2), t=1)
    )
    assert doc["objective_value"] == 4


def test_run_rejects_strategy_objective_mismatch(ties_path):
    with pytest.raises(ValidationError, match="does not apply"):
        cli.run(make_config(input=ties_path, objective="median", strategy="greedy"))


def test_run_rejects_unknown_oracle_op(ties_path):
    with pytest.raises(ValidationError):
        cli.run(make_config(input=ties_path, objective="oracle", oracle_op="median"))


# --- entry point ---------------------------------------------------------------


def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_success_roundtrips_as_json(ties_path, capsys):
    code, out, err = run_main(
        ["--objective", "median", "--input", ties_path], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "diverse-medians/1"
    assert "done in" in err


def test_main_output_is_byte_identical_across_runs(ties_path, capsys):
    argv = [
        "--objective", "min-dispersion", "--input", ties_path,
        "--k", "3", "--epsilon", "1/2", "--strategy", "sample", "--seed", "9",
    ]
    _, out1, _ = run_main(argv, capsys)
    _, out2, _ = run_main(argv, capsys)
    assert out1 == out2
    assert out1.endswith("\n")


def test_main_timing_embeds_wall_time(ties_path, capsys):
    code, out, _ = run_main(
        ["--objective", "median", "--input", ties_path, "--timing"], capsys
    )
    assert code == 0
    assert isinstance(json.loads(out)["wall_time_s"], float)


def test_main_output_flag_writes_file_and_silences_stdout(
    ties_path, tmp_path, capsys
):
    target = tmp_path / "doc.json"
    code, out, _ = run_main(
        ["--objective", "median", "--input", ties_path, "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["w"] == "aaaa"


def test_main_missing_input_exits_2(capsys):
    code, _, err = run_main(
        ["--objective", "median", "--input", "/nonexistent/rows.txt"], capsys
    )
    assert code == 2
    assert err.strip()


def test_main_cap_exceeded_exits_3_with_hint(ties_path, capsys):
    code, _, err = run_main(
        [
            "--objective", "oracle", "--oracle-op", "exact-medians",
            "--input", ties_path, "--max-candidates", "2",
        ],
        capsys,
    )
    assert code == 3
    assert "max-candidates" in err


def test_main_max_states_caps_both_dps(ties_path, capsys):
    # --max-states reaches the DP whichever way it is called; without the cap
    # each of these runs returns a DP document
    base = ["--objective", "min-dispersion", "--input", ties_path, "--k", "2",
            "--delta", "1/2"]
    for extra in (["--strategy", "dp"], ["--strategy", "dp", "--epsilon", "1/2"]):
        assert run_main(base + extra, capsys)[0] == 0
        code, _, err = run_main(base + extra + ["--max-states", "10"], capsys)
        assert code == 3 and "max_states=10" in err
    code, out, _ = run_main(base + ["--max-states", "10"], capsys)
    assert code == 0 and json.loads(out)["strategy_tag"] != "dp"


def test_main_lp_infeasible_exits_4(tmp_path, capsys):
    p = tmp_path / "lumpy.txt"
    p.write_text(LUMPY_ROWS)
    code, _, err = run_main(
        [
            "--objective", "min-dispersion", "--strategy", "lp",
            "--input", str(p), "--epsilon", "1/4", "--delta", "1/8",
            "--eta", "1/2", "--k", "3", "--seed", "2",
        ],
        capsys,
    )
    assert code == 4
    assert "cost cap" in err


def test_main_cost_cap_violation_exits_5(ties_path, capsys, monkeypatch):
    # an engine that emits a string above its cost class is a bug, not an
    # infeasible instance: exit 5, not 4
    real = sumdisp.sum_dispersion_exact_k

    def broken(ctx, k):
        cands = real(ctx, k)
        members = list(cands.members)
        members[0] = tuple("z" if a == "a" else "a" for a in members[0])
        return CandidateSet.from_members(ctx, Dataset.from_strings(members, ctx.alphabet).codes)

    monkeypatch.setattr(sumdisp, "sum_dispersion_exact_k", broken)
    code, _, err = run_main(
        ["--objective", "sum-dispersion", "--strategy", "exact-construction",
         "--input", ties_path, "--alphabet", "abcz", "--k", "2"],
        capsys,
    )
    assert code == 5
    assert "internal error" in err


def test_main_stray_runtime_error_exits_5(ties_path, capsys, monkeypatch):
    # only InfeasibleError means "no solution": any other RuntimeError from
    # an engine is a fault of this package and exits 5 with its message
    def broken(ctx, k):
        raise RuntimeError("stray fault")

    monkeypatch.setattr(sumdisp, "sum_dispersion_exact_k", broken)
    code, _, err = run_main(
        ["--objective", "sum-dispersion", "--strategy", "exact-construction",
         "--input", ties_path, "--k", "2"],
        capsys,
    )
    assert code == 5
    assert "stray fault" in err


@pytest.fixture
def long_rows_path(tmp_path):
    # d = 1500 is past the recursion limit of a one-call-per-index enumerator
    p = tmp_path / "long.txt"
    p.write_text("A" * 1500 + "\n" + "A" * 1500 + "\n" + "C" * 1500 + "\n")
    return str(p)


def test_main_enumerates_long_rows_with_defaults(long_rows_path, capsys):
    code, out, err = run_main(
        ["--objective", "sum-dispersion", "--input", long_rows_path], capsys
    )
    assert code == 0, err
    assert json.loads(out)["strategy_tag"] == "enumeration"
    code, out, err = run_main(
        ["--objective", "min-dispersion", "--strategy", "greedy", "--epsilon", "1/100000",
         "--input", long_rows_path],
        capsys,
    )
    assert code == 0, err
    assert json.loads(out)["strategy_tag"] == "greedy"


def test_main_dp_key_past_63_bits_exits_3(long_rows_path, tmp_path, capsys):
    argv = ["--objective", "min-dispersion", "--strategy", "dp", "--k", "4",
            "--max-states", str(10**40), "--input"]
    # 1500 tie columns: 1501^6 per key is past 63 bits
    ties = tmp_path / "ties1500.txt"
    ties.write_text("A" * 1500 + "\n" + "C" * 1500 + "\n")
    code, _, err = run_main(argv + [str(ties)], capsys)
    assert code == 3
    assert "63 bits" in err
    # no --max-states lets this DP run, so the hint does not offer one
    hint = err[err.index("hint:"):]
    assert "--max-states" not in hint and "--strategy" in hint
    # no tie column: the distance digits have radix 1 and the keys fit
    code, out, err = run_main(argv + [long_rows_path], capsys)
    assert code == 0, err
    assert json.loads(out)["strategy_tag"] == "dp"


def test_main_dp_precheck_counts_tie_columns_only(long_rows_path, capsys):
    # no tie column in 1500: every layer holds one state, within the default
    # max_states, whatever d is
    code, out, err = run_main(
        ["--objective", "min-dispersion", "--strategy", "dp", "--k", "4",
         "--input", long_rows_path],
        capsys,
    )
    assert code == 0, err
    assert json.loads(out)["strategy_tag"] == "dp"


def test_main_rejects_oversized_seed(ties_path, capsys):
    code, _, _ = run_main(
        ["--objective", "median", "--input", ties_path, "--seed", str(2**64)],
        capsys,
    )
    assert code == 2


def test_main_rejects_negative_seed_before_any_rng(ties_path, capsys):
    # numpy's SeedSequence takes no negative entropy; the sampler and the LP
    # used to end in a traceback with exit 1
    for strategy in ("sample", "lp"):
        code, _, err = run_main(
            ["--objective", "min-dispersion", "--input", ties_path, "--k", "2",
             "--strategy", strategy, "--seed", "-1"],
            capsys,
        )
        assert code == 2 and "seed" in err


def test_main_oracle_bad_arguments_exit_2(ties_path, capsys):
    for argv in (
        ["--objective", "oracle", "--oracle-op", "mindp", "--input", ties_path, "--k", "1"],
        ["--objective", "oracle", "--oracle-op", "max-code-size", "--sizes", "0,2",
         "--t", "1"],
    ):
        code, _, err = run_main(argv, capsys)
        assert code == 2, err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["--objective", "bound", "--sizes", "0,2", "--t", "1"], "alphabet sizes must be >= 1"),
    (["--objective", "median", "--input", "{tmp}/latin1.txt"],
     "cannot read {tmp}/latin1.txt: 'utf-8' codec can't decode"),
    (["--objective", "median", "--format", "csv", "--input", "{tmp}/wide.csv"],
     "{tmp}/wide.csv: field larger than field limit"),
    (["--objective", "median", "--input", "{tmp}/rows.txt", "--output", "{tmp}/no/x.json"],
     "cannot write {tmp}/no/x.json"),
    (["--objective", "oracle", "--input", "{tmp}/missing.txt"],
     "objective=oracle requires --oracle-op"),
    # each flag below is refused before the missing input is read
    (["--objective", "min-dispersion", "--input", "{tmp}/missing.txt", "--epsilon=-1/2"],
     "epsilon must be nonnegative"),
    (["--objective", "median", "--input", "{tmp}/missing.txt", "--epsilon=-1/2"],
     "epsilon must be nonnegative"),
    (["--objective", "min-dispersion", "--input", "{tmp}/missing.txt", "--delta", "2"],
     "delta must lie in (0, 1)"),
    (["--objective", "min-dispersion", "--input", "{tmp}/missing.txt", "--eta", "0"],
     "eta must lie in (0, 1)"),
    (["--objective", "min-dispersion", "--input", "{tmp}/missing.txt", "--k", "1"],
     "k must be >= 2"),
    (["--objective", "sum-dispersion", "--strategy", "greedy", "--input", "{tmp}/missing.txt",
      "--delta", "0"], "delta must be positive"),
    (["--objective", "median", "--input", "{tmp}/missing.txt", "--alphabet", "a,a"],
     "alphabet contains duplicate symbols"),
    (["--objective", "median", "--input", "{tmp}/missing.txt", "--alphabet", "a"],
     "alphabet needs at least 2 symbols"),
    (["--objective", "bound", "--input", "{tmp}/missing.txt", "--t", "-1"], "t must be >= 0"),
], ids=["bound-size-0", "non-utf8-input", "csv-cell-over-limit", "output-dir-missing",
        "oracle-op-missing", "epsilon", "epsilon-median", "delta", "eta", "k-min",
        "delta-sum-greedy", "alphabet-duplicate", "alphabet-single", "t"])
def test_main_bad_input_exits_2_naming_it(argv, named, tmp_path, capsys):
    (tmp_path / "latin1.txt").write_bytes("ab\nb\u00e9\n".encode("latin-1"))
    (tmp_path / "wide.csv").write_text("a" * (csv.field_size_limit() + 1) + "\n")
    (tmp_path / "rows.txt").write_text("ab\nbb\n")
    code, _, err = run_main([a.format(tmp=tmp_path) for a in argv], capsys)
    assert code == 2 and named.format(tmp=tmp_path) in err, err
    assert "Traceback" not in err


def test_main_min_dispersion_checks_k_before_any_named_strategy(ties_path, monkeypatch,
                                                               capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("the pool was built before k was checked")

    monkeypatch.setattr(oracle, "approx_median_pool", no_pool)
    for strategy in ("dp", "greedy", "sample", "lp"):
        code, _, err = run_main(
            ["--objective", "min-dispersion", "--input", ties_path, "--k", "1",
             "--strategy", strategy],
            capsys,
        )
        assert code == 2 and "k must be >= 2" in err, (strategy, err)


def test_dispatch_rejects_a_strategy_the_objective_does_not_take():
    ctx = context_from_strings(["aab", "abb"], alphabet="ab")
    with pytest.raises(ValidationError, match="allowed: auto, exact-construction, greedy"):
        cli.dispatch(ctx, Budget.make(0, ctx.opt), "sum-dispersion", 2, strategy="dp")


def test_dispatch_rejects_an_objective_without_dispersion_strategies():
    ctx = context_from_strings(["aab", "abb"], alphabet="ab")
    for objective in ("diameter", "median", "bogus"):
        with pytest.raises(ValidationError, match="dispatch takes: sum-dispersion, min-dispersion"):
            cli.dispatch(ctx, Budget.make(0, ctx.opt), objective, 2)


def test_main_max_code_size_product_refusal_hints_max_candidates(capsys):
    code, _, err = run_main(
        ["--objective", "oracle", "--oracle-op", "max-code-size", "--sizes",
         ",".join(["3"] * 11), "--t", "3"],
        capsys,
    )
    assert code == 3
    assert err.splitlines()[-1] == "hint: raise --max-candidates"


@pytest.mark.parametrize("length, t, max_tuples, refusal", [
    (10, 4, 10**5, "candidate pairs"),  # 359,128 pairs: refused before the search
    (8, 3, 30_000, "nodes"),  # 23,871 pairs pass; proving A(8, 3) = 20 takes more nodes
], ids=["pairs", "nodes"])
def test_main_max_code_size_search_exits_3_under_max_tuples(length, t, max_tuples, refusal):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "diverse_medians.cli", "--objective", "oracle",
         "--oracle-op", "max-code-size", "--sizes", ",".join(["2"] * length),
         "--t", str(t), "--max-tuples", str(max_tuples)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert refusal in proc.stderr
    # an oracle run takes no --strategy; only --max-tuples lifts these caps
    assert proc.stderr.splitlines()[-1] == "hint: raise --max-tuples"


def test_main_refuses_k_above_max_candidates_before_any_engine(ties_path, capsys):
    # a result holds no more strings than a pool may; these two used to die
    # allocating k rows, with a traceback and exit 1
    for argv in (["--objective", "sum-dispersion", "--strategy", "exact-construction"],
                 ["--objective", "min-dispersion", "--strategy", "sample"]):
        for path in (ties_path, ties_path + ".missing"):  # refused before the input is read
            code, _, err = run_main(argv + ["--input", path, "--k", str(10**13)], capsys)
            assert code == 3, err
            assert "max_candidates=100000" in err
            assert err.splitlines()[-1] == "hint: raise --max-candidates"
        capped = argv + ["--input", ties_path, "--max-candidates", "3"]
        assert run_main(capped + ["--k", "3"], capsys)[0] == 0
        assert run_main(capped + ["--k", "4"], capsys)[0] == 3


def test_main_lp_at_a_huge_epsilon_runs_the_clamped_model(tmp_path, capsys):
    # eps * opt past the float range used to overflow building the LP; the
    # bound is clamped at n*d, where it already admits every assignment
    p = tmp_path / "lumpy.txt"
    p.write_text(LUMPY_ROWS)
    base = ["--objective", "min-dispersion", "--strategy", "lp", "--k", "2",
            "--input", str(p)]
    code, out, err = run_main(base + ["--epsilon", "1e400"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    at_nd = Fraction(doc["dataset"]["n"] * doc["dataset"]["d"], doc["opt"])
    code, out, err = run_main(base + ["--epsilon", str(at_nd)], capsys)
    assert code == 0, err
    same_model = json.loads(out)
    assert same_model["strings"] == doc["strings"]
    for key in ("lp_value", "kept", "chosen_trial"):  # regime_plausible reads eps
        assert same_model["lp_report"][key] == doc["lp_report"][key]


def test_main_refuses_caps_below_one(tmp_path, capsys):
    # a tie-free input has a 1-row pool, which a cap of 0 used to let through
    p = tmp_path / "rows.txt"
    p.write_text("ab\nab\n")
    for knob in ("max-candidates", "max-tuples", "max-states"):
        for value in ("0", "-1"):
            code, _, err = run_main(
                ["--objective", "oracle", "--oracle-op", "exact-medians", "--input", str(p),
                 f"--{knob}", value],
                capsys,
            )
            assert code == 2 and f"{knob.replace('-', '_')} must be >= 1" in err, err


def test_main_named_dp_over_max_states_hints_max_states(ties_path, capsys):
    code, _, err = run_main(
        ["--objective", "min-dispersion", "--strategy", "dp", "--input", ties_path,
         "--k", "2", "--delta", "1/2", "--max-states", "10"],
        capsys,
    )
    assert code == 3 and "max_states=10" in err
    assert err.splitlines()[-1] == "hint: raise --max-states"


def test_main_costs_the_emitted_text(tmp_path, capsys, monkeypatch):
    # the cost check re-encodes the strings the document carries: a renderer
    # that corrupts one symbol is caught (exit 5) even though the codes the
    # engine returned are fine
    p = tmp_path / "rows.txt"
    p.write_text("ab\nab\nab\n")
    real = cli._render_word

    def corrupt(codes, alphabet):
        out = real(codes, alphabet)
        out[0] = "b" + out[0][1:]  # w = "ab" becomes "bb", 3 above opt
        return out

    monkeypatch.setattr(cli, "_render_word", corrupt)
    for argv in (["--objective", "median"], ["--objective", "diameter"],
                 ["--objective", "sum-dispersion", "--strategy", "exact-construction"]):
        code, _, err = run_main(argv + ["--input", str(p)], capsys)
        assert code == 5 and "internal error" in err, (argv, err)


def test_main_refuses_emitted_text_of_the_wrong_length(tmp_path, capsys, monkeypatch):
    # a renderer that adds a symbol to every row is an internal error (exit 5)
    p = tmp_path / "rows.txt"
    p.write_text("ab\nab\nab\n")
    real = cli._render_word
    monkeypatch.setattr(cli, "_render_word",
                        lambda codes, alphabet: [w + "a" for w in real(codes, alphabet)])
    code, _, err = run_main(["--objective", "median", "--input", str(p)], capsys)
    assert code == 5 and "emitted strings have length 3, not d=2" in err, err


def test_main_min_dispersion_auto_checks_delta_and_eta_before_the_dp(tmp_path, capsys):
    # k * delta <= 1 fires the DP rule, which needs neither; the checks still
    # run, whatever the strategy, and before the input is read
    rows = tmp_path / "rows.txt"
    rows.write_text("ab\nba\n")
    base = ["--objective", "min-dispersion", "--input", str(rows), "--k", "2"]
    assert json.loads(run_main(base, capsys)[1])["strategy_tag"] == "dp"
    missing = ["--objective", "min-dispersion", "--input", str(tmp_path / "missing.txt"),
               "--k", "2"]
    for head in (base, missing):
        for strategy in ("auto", "dp", "greedy", "sample", "lp"):
            for extra, message in ((["--delta", "0"], "delta"), (["--delta", "-1"], "delta"),
                                   (["--eta", "0"], "eta"), (["--eta", "5"], "eta")):
                argv = head + ["--strategy", strategy] + extra
                code, _, err = run_main(argv, capsys)
                assert code == 2 and f"{message} must lie in (0, 1)" in err, (argv, err)


def test_console_script_help_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "diverse_medians.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "diverse" in proc.stdout


def test_importing_the_cli_loads_no_engine_module():
    # the engines load on dispatch; every public name still imports from the package
    code = (
        "import sys, json\n"
        "import diverse_medians.cli\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.split('.')[0] in ('diverse_medians', 'scipy'))\n"
        "import diverse_medians\n"
        "names = {}\n"
        "exec('from diverse_medians import *', names)\n"
        "homes = {n: getattr(sys.modules[v.__module__], n) is v\n"
        "         for n, v in names.items() if n in diverse_medians.__all__\n"
        "         and hasattr(v, '__module__')}\n"
        "print(json.dumps([loaded, sorted(set(diverse_medians.__all__) - set(names)),\n"
        "                  sorted(n for n, ok in homes.items() if not ok)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, missing, misplaced = json.loads(proc.stdout)
    assert loaded == ["diverse_medians", "diverse_medians.cli", "diverse_medians.core"]
    assert missing == [] and misplaced == []


def test_main_exits_6_without_traceback_when_the_reader_closes_early(ties_path):
    # the reader closes its end of the pipe before the document arrives, so
    # the first write fails (a write already blocked on a full pipe fails the
    # same way on its next chunk)
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diverse_medians.cli", "--objective", "oracle",
             "--oracle-op", "exact-medians", "--input", ties_path],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 6, proc.stderr
    assert proc.stderr == (
        "diverse-medians: standard output closed before the document was written\n")


@pytest.mark.parametrize("argv, code", [
    (["--objective", "median", "--output", "{tmp}/doc.json"], 0),
    (["--objective", "min-dispersion", "--delta", "2"], 2),
], ids=["success", "validation-error"])
def test_main_keeps_its_exit_code_when_stderr_is_closed(argv, code, ties_path, tmp_path):
    # the reader of standard error is gone before the run prints its first
    # line; stderr keeps Python's default buffering, whose flush at exit
    # would fail again
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diverse_medians.cli", "--input", ties_path,
             *(a.format(tmp=tmp_path) for a in argv)],
            stdout=subprocess.PIPE, stderr=write_end, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code and proc.stdout == ""
    if code == 0:
        assert json.loads((tmp_path / "doc.json").read_text())["objective_value"] == 8


def test_scipy_loads_only_when_the_lp_runs(ties_path):
    code = (
        "import sys, io, contextlib, json\n"
        "loaded = []\n"
        "def scipy_modules():\n"
        "    loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "import diverse_medians\n"
        "scipy_modules()\n"
        "import diverse_medians.cli as cli\n"
        "scipy_modules()\n"
        "for argv in (['--objective', 'median'],\n"
        "             ['--objective', 'min-dispersion', '--strategy', 'lp', '--k', '3',\n"
        "              '--epsilon', '1/2', '--seed', '4']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv + ['--input', sys.argv[1]]) == 0\n"
        "    scipy_modules()\n"
        "print(json.dumps(loaded))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, ties_path], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    *before, after_lp = json.loads(proc.stdout)
    # import, cli import and the median run load no scipy module at all
    assert before == [[], [], []]
    # the LP run loads HiGHS's binding alone: not scipy.optimize, not scipy.sparse
    assert "scipy.optimize._highspy._core" in after_lp
    assert "scipy.optimize" not in after_lp and "scipy.sparse" not in after_lp


@pytest.mark.parametrize("objective, seconds, digest", [
    ("min-dispersion", 4.0, "d1f04939235e0c1fac338997a63e3c53ec348e3609a81df0ebe0894743cf2bb4"),
    ("sum-dispersion", 8.0, "e26305dd306263ca3cb08e711ef46534072c5990f2dad2311bde7bfdc403d711"),
], ids=["min-dispersion", "sum-dispersion"])
def test_main_greedy_over_a_65536_string_pool(objective, seconds, digest, tmp_path,
                                              monkeypatch, capsys):
    # 16 binary tie columns in 1000: the greedy picks k = 4 of 2^16 exact
    # medians, under the default max_candidates. The digests are those of the
    # documents from list-of-tuples pools (10.1 s and 14.6 s on the machine
    # that recorded them); the config records the input path, hence the chdir.
    monkeypatch.chdir(tmp_path)
    Path("rows.txt").write_text("\n".join(tie_columns_rows()) + "\n")
    t0 = time.perf_counter()
    code, _, err = run_main(
        ["--objective", objective, "--strategy", "greedy", "--k", "4",
         "--input", "rows.txt", "--output", "doc.json"], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert json.loads(Path("doc.json").read_text())["strategy_tag"] == "greedy"
    assert hashlib.sha256(Path("doc.json").read_bytes()).hexdigest() == digest
    assert elapsed < seconds, f"{objective}: {elapsed:.2f} s"


def test_oracle_pool_renders_block_by_block(tmp_path):
    # 2^16 exact medians of length 1000, a 65.5 MB code matrix: decoding the
    # whole pool into tuples of symbols before rendering peaked at 1,007 MB
    path = tmp_path / "rows.txt"
    path.write_text("\n".join(tie_columns_rows()) + "\n")
    config = make_config(input=str(path), objective="oracle", oracle_op="exact-medians")
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        doc = cli.run(config)
        elapsed = time.perf_counter() - t0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200e6, f"peak {peak / 1e6:.0f} MB"
    assert elapsed < 3.0, f"{elapsed:.2f} s"
    ctx = context_from_strings(tie_columns_rows())
    pool = oracle.approx_median_pool(ctx, Budget.make(0, ctx.opt))
    assert doc["objective_value"] == pool.n == 2**16
    symbols = np.array(pool.alphabet)  # decoded by a fixed-width string view per block
    for lo in range(0, pool.n, 4096):
        rows = symbols[pool.codes[lo : lo + 4096]].view(f"<U{pool.d}").ravel()
        assert doc["strings"][lo : lo + 4096] == rows.tolist()


@pytest.mark.parametrize("alphabet", [
    ("a", "b", "c"),
    ("\x00", "é", "\U0001F600"),  # a trailing NUL, a two-byte and an astral symbol
    ("AC", "GT", "T"),  # multi-character symbols render as lists
])
def test_render_pool_matches_render_word_across_blocks(alphabet, monkeypatch):
    rng = np.random.default_rng(3)
    pool = Dataset(codes=rng.integers(0, 3, size=(50, 7)).astype(np.uint8),
                   alphabet=alphabet)
    joined = all(len(a) == 1 for a in alphabet)
    # an independent decode: Dataset.strings runs through the decoder under test
    rows = np.array(alphabet, dtype=object)[pool.codes].tolist()
    monkeypatch.setattr(core, "BLOCK_BYTES", 8 * 7 * 3)  # blocks of 3 rows
    assert cli._render_word(pool.codes, alphabet) == [
        "".join(s) if joined else s for s in rows]


def test_every_traced_name_resolves_in_the_package():
    # bench/tracing.py wraps package functions by name and stops at the
    # first name it cannot find; install and remove its tracer over the
    # modules the bench loads
    import importlib.util

    from diverse_medians import core, diameter, lpround, mindisp, oracle, sumdisp

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = [cli, core, diameter, lpround, mindisp, oracle, sumdisp]
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer(modules)
    try:
        tracer.install()
        patched = {attr for _, attr, _ in tracer._undo}
    finally:
        tracer.uninstall()
    names = {name for _, fns, _ in tracing.LAYERS for name in fns}
    assert {n.split(".")[-1] for n in names} - {"dumps"} | {"json"} <= patched
    assert [dict(vars(m)) for m in modules] == before
