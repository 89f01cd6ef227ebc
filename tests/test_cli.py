"""Command-line behaviors: outputs, exit codes, round trips."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from soembed import constructions, golden
from soembed.cli import build_parser, main
from soembed.gf2 import parse_matrix, random_full_rank_matrix

HAMMING = "0000111\n0011001\n0101010\n1001011\n"
SO_DEMO = "00001111110\n01110011111\n10110100011\n"


@pytest.fixture
def hamming_file(tmp_path):
    p = tmp_path / "hamming.txt"
    p.write_text(HAMMING)
    return str(p)


def test_check_not_so(hamming_file, capsys):
    assert main(["check", hamming_file]) == 1
    out = capsys.readouterr().out
    assert "not self-orthogonal" in out
    assert "n=7 k=4 rank=4" in out


def test_check_so(tmp_path, capsys):
    p = tmp_path / "so.txt"
    p.write_text(SO_DEMO)
    assert main(["check", str(p)]) == 0
    assert "self-orthogonal" in capsys.readouterr().out


def test_check_parse_error(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing\n")
    assert main(["check", str(p)]) == 2


def test_check_tall_matrix_capped(tmp_path, capsys):
    # the column profile would need 2**40 counts: refused before allocating
    rng = random.Random(40)
    p = tmp_path / "tall.txt"
    p.write_text("".join(f"{rng.getrandbits(40):040b}\n" for _ in range(40)))
    assert main(["check", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k <= 24" in captured.err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/matrix.txt"]) == 2


def test_embed_hamming(hamming_file, capsys):
    assert main(["embed", hamming_file]) == 0
    out = capsys.readouterr().out
    assert "[8,4,4]" in out
    assert "h14@4rows" in out


def test_embed_json_round_trip(hamming_file, capsys):
    assert main(["embed", hamming_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    m = parse_matrix(data["output"])
    assert (m.k, m.n) == (4, 8)
    assert data["so_verified"] is True
    assert data["added"] == [{"level_rows": 4, "index": 14}]


def test_embed_already_so(tmp_path, capsys):
    p = tmp_path / "so.txt"
    p.write_text(SO_DEMO)
    assert main(["embed", str(p)]) == 0
    assert "already self-orthogonal; 0 columns added" in capsys.readouterr().out


def test_embed_policy_flags(tmp_path, capsys):
    p = tmp_path / "eye.txt"
    p.write_text("0001\n0010\n0100\n1000\n")
    assert main(["embed", str(p), "--policy-s0", "15", "--tie4", "difference"]) == 0
    assert "[8,4,4]" in capsys.readouterr().out


def test_embed_rank_deficient_exit(tmp_path, capsys):
    p = tmp_path / "thin.txt"
    p.write_text("011\n011\n")
    assert main(["embed", str(p)]) == 3
    assert main(["embed", str(p), "--allow-rank-deficient"]) == 0


def test_embed_policy_below_dimension_4(tmp_path, capsys):
    p = tmp_path / "so3.txt"
    p.write_text(SO_DEMO)
    assert main(["embed", str(p), "--policy-s0", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dimension-4 step" in captured.err


def test_embed_policy_at_peel(tmp_path, capsys):
    p = tmp_path / "g95.txt"
    p.write_text(golden.G_9_5.to_text())
    assert main(["embed", str(p), "--json"]) == 0
    default = json.loads(capsys.readouterr().out)
    assert main(["embed", str(p), "--tie4", "difference", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["policy"] == {"s0": None, "tie4": "difference"}
    assert data["added_count"] == default["added_count"]
    assert data["so_verified"] is True


def _assert_failed_cleanly(code, capsys):
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_embed_zero_code_prints_nothing(tmp_path, capsys):
    p = tmp_path / "zero.txt"
    p.write_text("00\n00\n")
    code = main(["embed", str(p), "--allow-rank-deficient"])
    _assert_failed_cleanly(code, capsys)


def test_embed_past_rank_cap_prints_nothing(tmp_path, capsys):
    # embedding works at any rank; the distance refuses rank > RANK_CAP = 40
    p = tmp_path / "tall.txt"
    p.write_text(random_full_rank_matrix(random.Random(41), 41, 60).to_text())
    _assert_failed_cleanly(main(["embed", str(p)]), capsys)


def test_dmin(hamming_file, capsys):
    assert main(["dmin", hamming_file]) == 0
    assert "dmin=3" in capsys.readouterr().out


def test_dmin_past_rank_cap(tmp_path, capsys):
    # the refusal names the work, not a library argument the CLI lacks
    p = tmp_path / "tall.txt"
    p.write_text(random_full_rank_matrix(random.Random(41), 41, 50).to_text())
    assert main(["dmin", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rank 41 > RANK_CAP = 40: 2^41 codewords\n"


def test_formula(capsys):
    assert main(["formula", "--n", "44", "--k", "5", "--so"]) == 0
    assert "20 (conjectured" in capsys.readouterr().out
    assert main(["formula", "--n", "7", "--k", "4", "--so"]) == 1
    assert main(["formula", "--n", "3", "--k", "4", "--so"]) == 3


def test_table_csv(capsys):
    assert main(["table", "--k", "4", "--from", "8", "--to", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,value,status,source"
    assert lines[1].startswith("8,4,exact")


def test_table_md_markers(capsys):
    assert main(
        ["table", "--k", "5", "--from", "43", "--to", "45", "--format", "md"]
    ) == 0
    out = capsys.readouterr().out
    assert "| 43 | 20 |" in out
    assert "| 44 | 20† |" in out


def test_build(capsys):
    assert main(["build", "--n", "23", "--k", "4", "--so"]) == 0
    out = capsys.readouterr().out
    assert "[23,4,12]" in out
    built = parse_matrix("\n".join(out.splitlines()[1:]))
    assert (built.k, built.n) == (4, 23)


BUILD_SHA256 = {
    "--n 29 --k 4": "90309b1664dcc3a01343c4ccd98c331d9b5c8d623a898b6033513a77cf0d8182",
    "--n 36 --k 4 --so": "72c111eeb1c44995f84932972c4edf52f830bc68c7b8b5f16e950f23a2a9e25c",
    "--n 46 --k 5 --so": "1f530657b4f4ba99ac59cef37da144fb8f00d3f6918c80bd62d4aa3a10f9547d",
    "--n 23 --k 4 --so": "c0f55de10746051b0a40f9f95b5f83c6da79b3c5d4c0f24665e164fbcb6be0ef",
}


@pytest.mark.parametrize("args", sorted(BUILD_SHA256))
def test_build_output_pinned(args, capsys):
    # the digests of the output built from the seed files the recipes replaced
    assert main(["build", *args.split()]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BUILD_SHA256[args]


def test_build_missing_seed(capsys):
    assert main(["build", "--n", "34", "--k", "5", "--so"]) == 1
    assert "no self-orthogonal seed of length 34" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, code, message",
    [
        ("--n 100 --k 30", 3, "formulas cover 1 <= k <= 5 only"),
        ("--n 7 --k 4 --so", 1, "no [7,4] self-orthogonal code exists"),
    ],
)
def test_build_checks_formula_before_seed(args, code, message, capsys):
    assert main(["build", *args.split()]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_build_failing_recipe(monkeypatch, capsys):
    # a recipe whose matrix misses the declared distance is refused
    recipes = constructions._recipes()
    recipes[7, 3, True] = ("tampered", lambda: constructions._columns(3, [1, 1, 2, 2, 4, 4, 0]))
    monkeypatch.setattr(constructions, "_REGISTRY", constructions.SeedRegistry(recipes))
    assert main(["build", "--n", "14", "--k", "3", "--so"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed distance differs from declared" in captured.err


def test_oracle_min_embed(hamming_file, capsys):
    assert main(["oracle", "min-embed", hamming_file]) == 0
    assert "minimum columns to append: 1" in capsys.readouterr().out


def test_oracle_enumerate(capsys):
    assert main(["oracle", "enumerate", "--n", "10", "--k", "2", "--so"]) == 0
    assert "best distance: 6" in capsys.readouterr().out
    assert main(["oracle", "enumerate", "--n", "7", "--k", "4", "--so"]) == 1


@pytest.mark.parametrize("so", [False, True])
def test_oracle_enumerate_distance_past_255(so, capsys):
    # d >= 256 once n >= 384 at k = 2; the search must not cap weights at 255
    so_flag = ["--so"] if so else []
    assert main(["oracle", "enumerate", "--n", "384", "--k", "2", *so_flag]) == 0
    assert "best distance: 256" in capsys.readouterr().out
    assert main(["formula", "--n", "384", "--k", "2", *so_flag]) == 0
    assert capsys.readouterr().out.startswith("256 (exact")


ELL_1_TO_14 = ", ".join(f"{i}: 1" for i in range(1, 15))
ELL_2_TO_13 = ", ".join(f"{i}: 1" for i in range(2, 14))
ELL_4_TO_12 = ", ".join(f"{i}: 1" for i in range(4, 13))


ENUMERATE_PINS = [
    (["--n", "380", "--k", "2"],
     "best distance: 253\n"
     "witness profile: zero_count=0 ell={1: 127, 2: 127, 3: 126}\n"),
    (["--n", "380", "--k", "2", "--so"],
     "best distance: 252\n"
     "witness profile: zero_count=0 ell={1: 128, 2: 128, 3: 124}\n"),
    (["--n", "14", "--k", "4"],
     "best distance: 7\n"
     f"witness profile: zero_count=0 ell={{{ELL_1_TO_14}}}\n"),
    (["--n", "13", "--k", "4", "--so"],
     "best distance: 4\n"
     "witness profile: zero_count=1 ell={2: 2, 3: 2, 4: 2, 5: 2, 8: 4}\n"),
    (["--n", "38", "--k", "3"],
     "best distance: 21\n"
     "witness profile: zero_count=0 "
     "ell={1: 5, 2: 6, 3: 6, 4: 6, 5: 6, 6: 5, 7: 4}\n"),
    # the points the Griesmer level skip, the projected-gap prune and the
    # parity-orbit skip shorten most, with the witnesses found before them
    (["--n", "12", "--k", "4"],
     "best distance: 6\n"
     f"witness profile: zero_count=0 ell={{{ELL_2_TO_13}}}\n"),
    (["--n", "11", "--k", "4"],
     "best distance: 5\n"
     f"witness profile: zero_count=0 ell={{1: 1, 2: 1, {ELL_4_TO_12}}}\n"),
    (["--n", "10", "--k", "4"],
     "best distance: 4\n"
     "witness profile: zero_count=0 "
     "ell={2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 3, 9: 1}\n"),
    (["--n", "6", "--k", "4"],
     "best distance: 2\n"
     "witness profile: zero_count=0 ell={2: 1, 3: 1, 4: 1, 5: 1, 8: 2}\n"),
    (["--n", "30", "--k", "3"],
     "best distance: 16\n"
     "witness profile: zero_count=0 "
     "ell={1: 2, 2: 6, 3: 6, 4: 6, 5: 6, 6: 2, 7: 2}\n"),
    (["--n", "34", "--k", "3"],
     "best distance: 19\n"
     "witness profile: zero_count=0 "
     "ell={1: 5, 2: 5, 3: 5, 4: 5, 5: 5, 6: 5, 7: 4}\n"),
    (["--n", "12", "--k", "4", "--so"],
     "best distance: 4\n"
     "witness profile: zero_count=0 ell={2: 2, 3: 2, 4: 2, 5: 2, 8: 4}\n"),
]


@pytest.mark.parametrize(
    "args, out",
    ENUMERATE_PINS,
    ids=["-".join(a.lstrip("-") for a in args) for args, _ in ENUMERATE_PINS],
)
def test_oracle_enumerate_witness_pinned(args, out, capsys):
    # the first witness the search finds, not only its distance
    assert main(["oracle", "enumerate", *args]) == 0
    assert capsys.readouterr().out == out


def test_oracle_enumerate_domain(capsys):
    assert main(["oracle", "enumerate", "--n", "10", "--k", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "supports 1 <= k <= 4" in captured.err


def test_oracle_claims(capsys):
    assert main(["oracle", "claims414"]) == 0
    assert capsys.readouterr().out == (
        "tight 3+4 patterns: 2450, worst appended 4\n"
        "tight 3+3 and 2+4 patterns: 3430, worst appended 5\n"
        "within the five-column bound\n"
    )


def test_oracle_random(capsys):
    args = ["oracle", "random", "--n", "6", "--k", "3", "--trials", "200",
            "--seed", "2", "--target", "2"]
    assert main(args) == 0
    assert "best distance found: 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "n, k", [("10", "0"), ("10", "-1"), ("-3", "3")]
)
def test_oracle_random_domain(n, k, capsys):
    args = ["oracle", "random", "--n", n, "--k", k, "--trials", "5", "--seed", "1"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k >= 1 and n >= 0" in captured.err


def test_oracle_random_negative_trials(capsys):
    args = ["oracle", "random", "--n", "5", "--k", "3", "--trials", "-4", "--seed", "1"]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trials >= 1" in captured.err


@pytest.mark.parametrize("target", ["0", "-3"])
def test_oracle_random_target_below_one(target, capsys):
    # the same seed reaches 20 with --target 20; a target of 0 would stop
    # every climb at once and print 14 with exit 0
    args = ["oracle", "random", "--n", "40", "--k", "5", "--trials", "100",
            "--seed", "5040", "--target", target]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "target >= 1" in captured.err


@pytest.mark.parametrize("n, k", [("10", "0"), ("-5", "3"), ("2", "3")])
def test_build_domain(n, k, capsys):
    assert main(["build", "--n", n, "--k", k]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 1 <= k <= n" in captured.err


def test_verify_examples(capsys):
    assert main(["verify-examples"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9 and "FAIL" not in out


def test_tables_dump(capsys):
    assert main(["tables", "--dump"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["classes"]) == 15
    assert data["classes"][14]["eight"] == [1, 2, 4, 7, 8, 11, 13, 14]


# sha256 of `so-embed tables --dump` when the tables were written out by hand
TABLES_DUMP_SHA256 = "cbf56f6fc25ed80cdcf1d0ab9ef63932229585170ee5dc70826a8d29a8090467"


def test_tables_dump_pinned(capsys):
    assert main(["tables", "--dump"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == TABLES_DUMP_SHA256


# sha256 of `so-embed table --k K --from S --to 400 --format md`, S the first
# length with a self-orthogonal code, as the residue-set formulas printed it;
# for k = 5, with the row n = 10 corrected from 4 to 2 (see dso_opt)
TABLE_MD_SHA256 = {
    1: (2, "58a65dbca5ecde6c5f7be9be7a8a3f8b5c397289c5e30f187e30eb69fd980ec6"),
    2: (4, "ca1f861c9dfe0a0405ceb81a345a4a1dee1bcbc5269cdd299f1c097c97ea18b8"),
    3: (6, "30b0aacb0f68ed2b029ff3f257ac3c157a91635ac41bfcdb5188bb98cf91f208"),
    4: (8, "15733b9bdfea1b6975af0f2e01fe282d7e06be7b95e0a48c8a0e96c19f192317"),
    5: (10, "fc881a4926bf6e8c1a06178e23e037cecd5d248a72f5873455587cd76f02b484"),
}


@pytest.mark.parametrize("k", sorted(TABLE_MD_SHA256))
def test_table_md_pinned(k, capsys):
    start, digest = TABLE_MD_SHA256[k]
    args = ["table", "--k", str(k), "--from", str(start), "--to", "400"]
    assert main(args + ["--format", "md"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


# sha256 of `so-embed table --k 5 --from 10 --to 200 --format csv`, also
# checked against the installed package in CI
TABLE5_CSV_SHA256 = "5f0c3aaeb72e13cd4f48232c9a3682a89633ff60591e1c35e3b739e555748e06"


def test_table5_csv_pinned(capsys):
    args = ["table", "--k", "5", "--from", "10", "--to", "200", "--format", "csv"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "10,2,exact,dim5-so-formula"
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE5_CSV_SHA256


@pytest.mark.parametrize("k, start", [(1, 1), (4, 4)])
def test_table_from_no_code_length(k, start, capsys):
    # lengths with no self-orthogonal code are skipped, not fatal: the table
    # is the one that starts at the first length with a code
    args = ["table", "--k", str(k), "--from", str(start), "--to", "400"]
    assert main(args + ["--format", "md"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == TABLE_MD_SHA256[k][1]


def test_table_without_any_code_length(capsys):
    assert main(["table", "--k", "4", "--from", "4", "--to", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no [n,4] self-orthogonal code exists" in captured.err


def test_closed_output_pipe_exits_2_quietly():
    # a reader that stops after one line, as `| head -n 1` does; 650 KB of
    # csv outgrows the pipe buffer, so the writer meets the closed pipe
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    argv = ["table", "--k", "4", "--from", "4", "--to", "20000", "--format", "csv"]
    with subprocess.Popen(
        [sys.executable, "-m", "soembed.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline() == b"n,value,status,source\n"
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 2


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_reused_parser_keeps_no_state(hamming_file, capsys):
    calls = [
        ["formula", "--n", "44", "--k", "5", "--so"],
        ["formula", "--n", "44", "--k", "5"],
        ["embed", "--json", hamming_file],
        ["embed", hamming_file],
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(argv))
    reused = [run(argv) for argv in calls]
    assert reused == fresh
    assert fresh[0] != fresh[1] and fresh[2] != fresh[3]
