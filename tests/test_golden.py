"""Golden CLI documents: one sha256 per reachable path of `cli.run`.

Each case writes its rows to `rows.txt` in a fresh directory and runs the CLI
there with `--input rows.txt`, so the embedded input path is the same on
every machine. A changed digest means a changed document: byte-identity for
the same config, seed and input is part of the CLI's contract.
"""

import hashlib
import json

import pytest

from diverse_medians import cli

ROWS = {
    "tour": "abca\nabcb\nabca\nbbcb\n",
    "ties": "aaaa\nbbbb\ncccc\n",
    "pairs": "ab\nba\n",
    "pairs3": "ab\nba\naa\n",
    "pairs4": "ab\nba\naa\nbb\n",
    "wide": ("1" * 60 + "\n") * 6 + ("0" * 60 + "\n") * 4,
    "ab40": "a" * 40 + "\n" + "b" * 40 + "\n",
    "ab90": "a" * 90 + "\n" + "b" * 90 + "\n",
    "csv": "AC,GT,AC\nGT,GT,AC\nAC,AC,GT\n",
    # symbol order TT < GT < AC by string, GT < AC < TT by first occurrence
    "csv6": ("GT,AC,GT,AC,AC,AC\nAC,GT,AC,AC,GT,AC\nAC,GT,AC,GT,GT,AC\n"
             "AC,GT,TT,GT,GT,AC\nTT,GT,AC,AC,GT,GT\n"),
    "flat": "aaaaaaaa\n" * 3 + "bbbbbbbb\ncccccccc\n",
    "greek": "αααααααα\n" * 3 + "ββββββββ\nγγγγγγγγ\n",
    "none": None,
}

MIN = ["--objective", "min-dispersion"]
SUM = ["--objective", "sum-dispersion"]
ORACLE = ["--objective", "oracle", "--oracle-op"]

# (case id, rows, argv without --input, strategy_tag the document must carry)
CASES = [
    ("median", "tour", ["--objective", "median"], None),
    ("median-csv", "csv", ["--objective", "median", "--format", "csv"], None),
    ("diameter-exact", "tour", ["--objective", "diameter"], None),
    ("diameter-approx", "tour", ["--objective", "diameter", "--epsilon", "1/2"], None),
    ("sum-exact-construction", "ties",
     SUM + ["--k", "3", "--strategy", "exact-construction"], "exact-construction"),
    ("sum-greedy", "ties", SUM + ["--k", "3", "--strategy", "greedy", "--epsilon", "1/2"],
     "greedy"),
    # k = 6: three farthest-pair rounds over the 81-string pool, past the one of k = 3
    ("sum-greedy-rounds", "ties", SUM + ["--k", "6", "--strategy", "greedy", "--epsilon", "1/2"],
     "greedy"),
    ("sum-density", "wide", SUM + ["--k", "3", "--epsilon", "1/2"], "density"),
    ("sum-enumeration", "ties", SUM + ["--k", "3"], "enumeration"),
    ("sum-density-fallback", "ties", SUM + ["--k", "2", "--max-candidates", "10"],
     "density_fallback"),
    ("min-exact-dp", "pairs", MIN + ["--k", "2", "--delta", "1/2"], "dp"),
    ("min-exact-greedy", "pairs4", MIN + ["--k", "3", "--delta", "1/2"], "greedy"),
    ("min-exact-sample", "ab90", MIN + ["--k", "4", "--delta", "1/2"], "sample"),
    ("min-exact-sample-fallback", "ab40",
     MIN + ["--k", "3", "--delta", "1/2", "--max-candidates", "10000"], "sample_fallback"),
    ("min-approx-dp", "pairs3", MIN + ["--k", "2", "--delta", "1/2", "--epsilon", "1/2"],
     "dp"),
    ("min-approx-greedy", "pairs3",
     MIN + ["--k", "3", "--delta", "1/2", "--epsilon", "1/2"], "greedy"),
    ("min-approx-sample", "wide", MIN + ["--k", "5", "--delta", "1/2", "--epsilon", "1/2"],
     "sample"),
    ("min-exact-strategy-dp", "tour", MIN + ["--k", "3", "--strategy", "dp"], "dp"),
    ("min-exact-strategy-greedy", "tour", MIN + ["--k", "3", "--strategy", "greedy"],
     "greedy"),
    ("min-exact-strategy-sample", "tour",
     MIN + ["--k", "3", "--strategy", "sample", "--seed", "5"], "sample"),
    ("min-approx-strategy-dp", "tour",
     MIN + ["--k", "3", "--strategy", "dp", "--epsilon", "1/2"], "dp"),
    ("min-approx-strategy-greedy", "tour",
     MIN + ["--k", "3", "--strategy", "greedy", "--epsilon", "1/2"], "greedy"),
    ("min-approx-strategy-sample", "tour",
     MIN + ["--k", "3", "--strategy", "sample", "--epsilon", "1/2", "--seed", "5"], "sample"),
    ("min-approx-lp", "ties",
     MIN + ["--k", "3", "--strategy", "lp", "--epsilon", "1/2", "--seed", "4"], "lpround"),
    ("min-exact-lp", "tour", MIN + ["--k", "2", "--strategy", "lp", "--seed", "4"],
     "lpround"),
    ("bound-dataset", "tour", ["--objective", "bound", "--t", "2"], None),
    ("bound-sizes", "none", ["--objective", "bound", "--sizes", "2,2,2,2", "--t", "3"], None),
    ("oracle-exact-medians", "ties", ORACLE + ["exact-medians"], None),
    ("oracle-approx-medians", "tour", ORACLE + ["approx-medians", "--epsilon", "1/2"], None),
    ("oracle-diameter", "tour", ORACLE + ["diameter", "--epsilon", "1/2"], None),
    ("oracle-sumdp", "tour", ORACLE + ["sumdp", "--epsilon", "1/2", "--k", "3"], None),
    ("oracle-mindp", "ties", ORACLE + ["mindp", "--epsilon", "1/2", "--k", "2"], None),
    ("oracle-max-code-size", "none", ORACLE + ["max-code-size", "--sizes", "2,2", "--t", "1"],
     None),
    # equal-cost ops at one index are assigned in symbol-string order (b before
    # c), not in the order of the declared alphabet
    ("sum-density-string-order", "flat",
     SUM + ["--k", "4", "--epsilon", "1", "--delta", "1", "--alphabet", "cba"], "density"),
    ("sum-density-greek", "greek",
     SUM + ["--k", "4", "--epsilon", "1", "--delta", "1", "--alphabet", "γβα"], "density"),
    ("oracle-approx-medians-greek", "greek",
     ORACLE + ["approx-medians", "--epsilon", "1/4", "--alphabet", "γβα"], None),
    ("sum-density-csv", "csv6",
     SUM + ["--format", "csv", "--k", "3", "--epsilon", "1", "--delta", "1"], "density"),
    ("sum-enumeration-csv", "csv6", SUM + ["--format", "csv", "--k", "3", "--epsilon", "1/4"],
     "enumeration"),
    ("min-approx-strategy-dp-csv", "csv6",
     MIN + ["--format", "csv", "--k", "3", "--strategy", "dp", "--epsilon", "1/4"], "dp"),
    ("oracle-approx-medians-csv", "csv6",
     ORACLE + ["approx-medians", "--format", "csv", "--epsilon", "1/4"], None),
]

DIGESTS = {
    "median":
        "a30fc72808f224ddddd81fe145ad2f8a45b767d79113e8a79eba113b135aeedd",
    "median-csv":
        "35e02fe3a640f7f1072ed202552af9c52cfaeed7d97891383bb0ff6d7edcecfe",
    "diameter-exact":
        "d1e4ec7dbc5cb0ca312634bc0cd6800397313cba863e3d25109670770e8908b8",
    "diameter-approx":
        "df0e9993861af660bbda8e2105738fd71328e88b7836f519dbb40dc13712787f",
    "sum-exact-construction":
        "0e716dbae6b1b9b5187fa90a020dafb5453723f859cb4f7f5cb4c91e786721f9",
    "sum-greedy":
        "84c577564c84dc19218cdf208a834629e73c4179865a6f6f52200d3b5a387a0a",
    "sum-greedy-rounds":
        "06e2d6fdb0405f5522ac789247e580b6f3ef0f2dc0af6366eedab6e1b9895a1c",
    "sum-density":
        "ac3b972160c25cdab2012e8b4a604c64cc3b1f5baab4a19894ba1aa8527ff568",
    "sum-enumeration":
        "dae795e74c8a2c883e23ede6c133305711f17191d1360c77a4d89dac9fbe5b6e",
    "sum-density-fallback":
        "61dd1858065fbf3c95c86309d98c28282b6aa174a6b04871e81c15f7581b6dfd",
    "min-exact-dp":
        "bed6de00611302c53ff325c250fbf2718f24c89125a9385394113054e5dcfbe4",
    "min-exact-greedy":
        "7ae9f106eaf0a00b4bbcd84fee9202f3d9652de1b35c5110b43352623a663b0c",
    "min-exact-sample":
        "babd8d4cddd358fa93b9ece23ee6f55ba57f8a23499c772d205a44ec5befa3c6",
    # labelled "cost == opt": see test_exact_sample_fallback_is_labelled_exact
    "min-exact-sample-fallback":
        "03dee333268d3da604a6f4dce29788af30cd68d253f007dd8d3ed59cf89de48e",
    "min-approx-dp":
        "051eb976978b845f4314ff6b9bc80007c2de76634155b3c6cf173bf3a37587bd",
    "min-approx-greedy":
        "11fc8758eb734e3ab521346d32a4764c420b427692e0741716cc3a250aa98531",
    "min-approx-sample":
        "4aa7f2381264b59e599612a7790d78ec0a49b8483ceb6868296f5e138ce1fee0",
    "min-exact-strategy-dp":
        "9ecee485fd3de6b03834fb30cbb79e569c7c843258edeb518e218ba52b6f768e",
    "min-exact-strategy-greedy":
        "a585471c269e8aa779ab82ffc6ff28eceee45b67747c43c642091b55f09145b2",
    "min-exact-strategy-sample":
        "8c16ff0b33ad09290bf2685d68082f4d4788742c283f03ca53cb6a4755ba7054",
    "min-approx-strategy-dp":
        "9fb19e64ded10e7e1849552352e845131796422d46122bb97b319d5df2e898aa",
    "min-approx-strategy-greedy":
        "d7fd714909e056e7e981ca5c1aaf83183f8d5fa171afc12a011afbeddceeb986",
    "min-approx-strategy-sample":
        "e682c843acdfa8b03da6a43f00b8b6fc3cab6a5c1543e6b25e69627129384150",
    "min-approx-lp":
        "3ac14f578c5537365f9fdd9085152967c403e9b8b2cde46c8d72614750b1bdd1",
    "min-exact-lp":
        "feaed116fc68383f855fab02a05aa465bff99e96dc4940bf2128d5785faf949b",
    "bound-dataset":
        "f0aa5e034b6c347f288fcdb8a06582c644033e1a3ebb4f08ce35e67e3241bacf",
    "bound-sizes":
        "4633ce686bfff0fcd59a6e657f979d531d4a54c225ddf43335b20168b19acaca",
    "oracle-exact-medians":
        "c0fae736eb43e71ada88405f512ff474dd289766ac99c25ff57bca7ef0663cea",
    "oracle-approx-medians":
        "fc18f1eb2f9415c2d83231480f604d3f0278e868d031da3a214760083420c89c",
    "oracle-diameter":
        "9b8ae4d320f9f0552c98eaffc2b619633161492eab8a17ff1a09d8dfd6d280e2",
    "oracle-sumdp":
        "e332388aef400f8869e539b41756e326bbccf4dc0b4f150e6b56d4da215db3dc",
    "oracle-mindp":
        "ac6d6cc7fe8d0c77000c91f857486e04b5c792f4df6359ad34d7e3d7ec59cb6e",
    "oracle-max-code-size":
        "1e7f1eaf5c1eac022efb9e43ab2f060315bb8d3627b8b1927f2ff72f06d011da",
    "sum-density-string-order":
        "c25ffdd8109a4818ce59de9a44ed690ae7ff558c98a8d8857cdb16189e15d1da",
    "sum-density-greek":
        "fa16af9bde1840684ae834fa8e004495de3c7a43b1c0b098dfecd5b67489268b",
    "oracle-approx-medians-greek":
        "10bd76d6a5752b06b36ec9e5f72bdc803ddeb58d6c4b70a9c6a773cfde1d4570",
    "sum-density-csv":
        "a6ae0535aab49f8d83a3318e6e0d237ef9541d386214e2253575f7ac060a2c32",
    "sum-enumeration-csv":
        "bc3106f5ef933a929f0489de886acae8af991cb0200a7da743b079f902885558",
    "min-approx-strategy-dp-csv":
        "db29b47f8bc8127e6e251e3dc50d5d7db30b427d60f67b49d8ba9a08eb85a5ad",
    "oracle-approx-medians-csv":
        "2574b63674615b4049eb2c1bf15f1c579f1f202eec65158a150d5d1de26fc7a4",
}


def run_case(rows_key, argv, tmp_path, monkeypatch, capsys):
    """The document the CLI prints for this case, run from a fresh directory."""
    monkeypatch.chdir(tmp_path)
    rows = ROWS[rows_key]
    if rows is not None:
        (tmp_path / "rows.txt").write_text(rows, encoding="utf-8")
        argv = argv + ["--input", "rows.txt"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return out


@pytest.mark.parametrize("case, rows_key, argv, tag", CASES, ids=[c[0] for c in CASES])
def test_cli_document_digest(case, rows_key, argv, tag, tmp_path, monkeypatch, capsys):
    out = run_case(rows_key, argv, tmp_path, monkeypatch, capsys)
    assert json.loads(out).get("strategy_tag") == tag
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[case]


def test_exact_sample_fallback_is_labelled_exact(tmp_path, monkeypatch, capsys):
    # at eps=0 the fallback sampler draws exact medians, so its cost class is
    # "exact", the same as the sampler's under the tag "sample"
    argv = dict((c[0], c[2]) for c in CASES)["min-exact-sample-fallback"]
    doc = json.loads(run_case("ab40", argv, tmp_path, monkeypatch, capsys))
    assert doc["strategy_tag"] == "sample_fallback"
    assert doc["guarantee"].endswith("; cost == opt")
    assert set(doc["costs"]) == {doc["opt"]}


def test_every_tag_has_exactly_one_table_row():
    # the tags the CLI cases above reach, per (objective, regime), against the
    # table's rows: each reached tag resolves to one row, and no row is dead
    reached = set()
    for _, _, argv, tag in CASES:
        if tag is None:
            continue
        objective = argv[argv.index("--objective") + 1]
        eps = argv[argv.index("--epsilon") + 1] if "--epsilon" in argv else "0"
        regime = "exact" if eps == "0" else "approx"
        rows = [key for key in ((objective, regime, tag), (objective, "any", tag))
                if key in cli.STRATEGY_TABLE]
        assert len(rows) == 1, (objective, regime, tag, rows)
        reached.add(rows[0])
    assert reached == set(cli.STRATEGY_TABLE)
    assert {row.cost_class for row in cli.STRATEGY_TABLE.values()} == set(cli.COST_CLASSES)
    # every row runs by its name or from the walk, and every --strategy name
    # an objective accepts runs one row in both regimes
    assert all(row.name or row.auto for row in cli.STRATEGY_TABLE.values())
    for objective in cli.DISPERSION:
        names = {row.name for (obj, _, _), row in cli.STRATEGY_TABLE.items()
                 if obj == objective and row.name}
        for regime in ("exact", "approx"):
            for name in names:
                rows = [key for key, row in cli.STRATEGY_TABLE.items()
                        if key[:2] in ((objective, regime), (objective, "any"))
                        and row.name == name]
                assert len(rows) == 1, (objective, regime, name, rows)
