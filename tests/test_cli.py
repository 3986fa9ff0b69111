import argparse
import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from palinwidth import cli
from palinwidth.cli import group_from_def, main
from palinwidth.decompose import find_reversal_asymmetric_relation

F2_DEF = '{"kind":"free","rank":2,"names":["y1","y2"]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_pw_exact_klein_four(capsys):
    code, report = run_json(capsys, "pw-exact", "--group", "Z2xZ2")
    assert code == 0
    assert report["width"] == 2
    assert report["histogram"] == {"0": 1, "1": 2, "2": 1}
    assert report["witness"]["word"] == "a*b"


def test_pw_exact_extend_gens(capsys):
    code, report = run_json(
        capsys, "pw-exact", "--group", "S3", "--extend-gens", "c=s*t"
    )
    assert code == 0
    assert report["width"] == 1


def test_find_relation_bs(capsys):
    code, report = run_json(capsys, "find-relation", "--group", "BS(1,2)")
    assert code == 0
    assert report["relation"] == "a^-1*b*a*b^-2"
    assert report["reverse_value"] != "1"


def test_find_relation_s3(capsys):
    code, report = run_json(capsys, "find-relation", "--group", "S3")
    assert code == 0
    assert report["extra_generator"] == {"name": "c", "value_word": "s*t"}


def test_decompose_abelian_top(capsys):
    code, report = run_json(
        capsys,
        "decompose", "--top", "Z^2", "--base", F2_DEF,
        "--mode", "abelian-top", "--word", "y1*y2", "--exps", "2,-1",
    )
    assert code == 0
    assert report["count"] == 4
    assert report["verified"] is True
    assert report["bound_formula"] == "2n"


def test_decompose_shifted(capsys):
    code, report = run_json(
        capsys,
        "decompose", "--top", '{"kind":"free_abelian","rank":1,"names":["x"]}',
        "--base", "S3", "--mode", "shifted",
        "--commutators", '[{"position": "x^2", "pairs": [["s", "t"]]}]',
        "--a-top", "x^-1",
    )
    assert code == 0
    assert report["verified"] is True
    assert report["count"] <= 8


def test_decompose_shifted_over_a_rank_one_free_top_and_verify(capsys, tmp_path):
    # F1 is the infinite cyclic top written as a free group: its generator x1 has infinite order
    code, out = run(
        capsys,
        "decompose", "--top", "F1", "--base", '{"kind":"free","names":["y1","y2"]}',
        "--mode", "shifted", "--commutators", '[{"position":"x1^2","pairs":[["y1","y2"]]}]',
        "--a-top", "x1",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verified"] is True
    assert (report["count"], report["bound"], report["bound_formula"]) == (8, 8, "r+7n")
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, verify_report = run_json(capsys, "verify", "--report", str(report_path))
    assert code == 0 and verify_report["verified"] is True


def test_decompose_finite_top_and_verify_round_trip(capsys, tmp_path):
    code, out = run(
        capsys,
        "decompose", "--top", "S3", "--base", F2_DEF,
        "--mode", "finite-top", "--word", "y1*t*y2^-1*s*y1^2",
    )
    assert code == 0
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    report = json.loads(out)
    assert report["verified"] is True

    code, verify_report = run_json(capsys, "verify", "--report", str(report_path))
    assert code == 0
    assert verify_report["verified"] is True

    tampered = dict(report)
    tampered["factors"] = ["y1*y1"] + report["factors"][1:]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(tampered))
    code, bad_report = run_json(capsys, "verify", "--report", str(bad_path))
    assert code == 1
    assert bad_report["verified"] is False


_ONE_REPORT_PER_MODE = {
    "abelian-top": ["--top", "Z^2", "--base", F2_DEF, "--exps", "2,-1", "--word", "y1*y2"],
    "shifted": ["--top", '{"kind":"free_abelian","rank":1,"names":["x"]}', "--base", "S3",
                "--commutators", '[{"position": "x^2", "pairs": [["s", "t"]]}]', "--a-top", "x"],
    "derived": ["--top", "S3", "--base", F2_DEF, "--a-top", "s",
                "--commutators", '[{"position": "t", "pairs": [["y1", "y2"]]}]'],
    "finite-top": ["--top", "S3", "--base", F2_DEF, "--word", "t*y1^2*s*y2^-1*t^-1*y1"],
}


@pytest.mark.parametrize("mode", cli.MODES)
@pytest.mark.parametrize(
    "edit", [{"bound": 1000, "bound_formula": "anything"}, {"bound_formula": "anything"}, "bound+1"],
    ids=["bound-and-formula", "formula", "bound+1"],
)
def test_verify_recomputes_the_bound_from_the_inputs(capsys, tmp_path, mode, edit):
    # a report's bound and formula are the construction's, worked out again
    # from its inputs: an edited bound is refused even when the count fits it
    code, out = run(capsys, "decompose", "--mode", mode, *_ONE_REPORT_PER_MODE[mode])
    report = json.loads(out)
    assert code == 0 and report["verified"] is True
    path = tmp_path / "report.json"
    path.write_text(out)
    code, again = run(capsys, "verify", "--report", str(path))
    assert code == 0 and json.loads(again)["verified"] is True
    edited = {**report, **({"bound": report["bound"] + 1} if edit == "bound+1" else edit)}
    path.write_text(json.dumps(edited))
    code, refusal = run_json(capsys, "verify", "--report", str(path))
    assert code == 1
    claim = (
        f"bound {edited['bound']} ({edited['bound_formula']}),"
        f" its inputs give {report['bound']} ({report['bound_formula']})"
    )
    assert refusal == {"command": "verify", "failure": f"ClaimMismatch: report claims {claim}"}


@pytest.mark.parametrize("edit", [{"bound": 0}, {"count": 99}], ids=["bound-0", "count-99"])
def test_verify_refuses_a_count_or_bound_its_factors_contradict(capsys, tmp_path, edit):
    # the factors still certify, but the report's own count and bound must agree with them
    code, out = run(
        capsys,
        "decompose", "--top", "S3", "--base", F2_DEF,
        "--mode", "finite-top", "--word", "t*y1^2*s*y2^-1*t^-1*y1",
    )
    report = json.loads(out)
    listed = len(report["factors"])
    assert code == 0 and report["count"] == listed and report["bound"] > 0
    edited = {**report, **edit}
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edited))
    code, refusal = run_json(capsys, "verify", "--report", str(path))
    assert code == 1
    claim = f"{edited['count']} factors within bound {edited['bound']} and lists {listed}"
    assert refusal == {"command": "verify", "failure": f"ClaimMismatch: report claims {claim}"}


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--top", "Z^2", "--base", F2_DEF,
         "--mode", "abelian-top", "--word", "y1*y2^-1", "--exps", "2,-3",
         "--word-b", "y2"],
        ["decompose", "--top", '{"kind":"free_abelian","rank":1,"names":["x"]}',
         "--base", "S3", "--mode", "shifted",
         "--commutators", '[{"position": "x^-1", "pairs": [["s*t", "t"]]}]',
         "--a-top", "x"],
        ["decompose", "--top", "S3", "--base", F2_DEF, "--mode", "derived",
         "--commutators", '[{"position": "s", "pairs": [["y1", "y2*y1"]]}]',
         "--a-top", "t"],
        ["decompose", "--top", "S3", "--base", F2_DEF, "--mode", "finite-top",
         "--word", "t*y1^2*s*y2^-1*t^-1*y1"],
    ],
    ids=["abelian-top", "shifted", "derived", "finite-top"],
)
def test_every_mode_reverifies(capsys, tmp_path, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, verify_report = run_json(capsys, "verify", "--report", str(path))
    assert code == 0 and verify_report["verified"] is True


def test_extended_group_definition_round_trips(capsys):
    code, first = run_json(capsys, "pw-exact", "--group", "S3", "--extend-gens", "c=s*t")
    assert code == 0
    definition = first["group"]
    assert definition["extra_generator"] == {"name": "c", "value_word": "s*t"}
    code, again = run_json(capsys, "pw-exact", "--group", json.dumps(definition))
    assert code == 0
    assert again["width"] == first["width"]
    assert again["group"] == definition
    code, report = run_json(
        capsys, "decompose", "--top", json.dumps(definition), "--base", F2_DEF,
        "--word", "y1*c*y2",
    )
    assert code == 0 and report["verified"] is True
    assert report["top"] == definition


def test_decompose_derived_mode(capsys):
    code, report = run_json(
        capsys,
        "decompose", "--top", "S3", "--base", F2_DEF,
        "--mode", "derived",
        "--commutators", '[{"position": "t", "pairs": [["y1", "y2"], ["y2", "y1*y2"]]}]',
        "--a-top", "t^-1",
    )
    assert code == 0
    assert report["verified"] is True
    assert report["relation_used"]["relation"] == "s*t*c"


def test_decompose_explicit_relation(capsys):
    # a three-generated S3 has a native asymmetric relation: s*t*u = 1 while
    # its reverse evaluates to a 3-cycle
    top = '{"kind":"finite","generators":{"s":[2,1,3],"t":[2,3,1],"u":[3,2,1]}}'
    code, report = run_json(
        capsys,
        "decompose", "--top", top, "--base", F2_DEF,
        "--mode", "derived", "--relation", "s*t*u",
        "--commutators", '[{"position": "t", "pairs": [["y1", "y2"]]}]',
    )
    assert code == 0
    assert report["verified"] is True
    assert report["relation_used"]["relation"] == "s*t*u"
    assert report["relation_used"]["extra_generator"] is None


@pytest.mark.parametrize("argv", [
    ["--top", "Z^2", "--base", "F2", "--mode", "abelian-top", "--exps", "1,0", "--word", "x1",
     "--relation", "a*b"],
    ["--top", "Z^2", "--base", "F2", "--mode", "abelian-top", "--exps", "1,0", "--word", "x1",
     "--relation", ""],
    ["--top", "Z", "--base", "S3", "--mode", "shifted", "--relation", "auto"],
], ids=["abelian-top-word", "abelian-top-empty", "shifted-auto"])
def test_decompose_refuses_a_relation_on_a_mode_that_takes_none(capsys, argv):
    assert main(["decompose", *argv]) == 2
    captured = capsys.readouterr()
    mode = argv[argv.index("--mode") + 1]
    assert captured.out == "" and captured.err == f"error: {mode} mode takes no relation\n"


@pytest.mark.parametrize("argv, option", [
    (["--top", "Z^2", "--base", "F2", "--mode", "abelian-top", "--exps", "1,0", "--word", "x1",
      "--commutators", "garbage", "--a-top", "nonsense"], "--commutators"),
    (["--top", "Z", "--base", "S3", "--mode", "shifted", "--commutators", "[]", "--a-top", "t1",
      "--word", "s"], "--word"),
    (["--top", "S3", "--base", F2_DEF, "--mode", "derived", "--commutators", "[]",
      "--word", "not a word", "--exps", "x,y"], "--word"),
    (["--top", "S3", "--base", F2_DEF, "--mode", "finite-top", "--word", "s*y1", "--exps", "1,2",
      "--commutators", "[]", "--a-top", "t", "--word-b", "x2"], "--word-b"),
    (["--top", "S3", "--base", F2_DEF, "--mode", "finite-top", "--a-top", "t"], "--a-top"),
], ids=["abelian-top", "shifted", "derived", "finite-top", "finite-top-a-top"])
def test_decompose_refuses_an_option_its_mode_does_not_read(capsys, argv, option):
    assert main(["decompose", *argv]) == 2
    captured = capsys.readouterr()
    mode = argv[argv.index("--mode") + 1]
    assert captured.out == "" and captured.err == f"error: {mode} mode takes no {option}\n"


@pytest.mark.parametrize("relation", ["auto", ""])
def test_auto_and_empty_relation_ask_the_construction_to_search(capsys, relation):
    for argv in (
        ["--mode", "finite-top", "--word", "y1*s*y2*s*y1^-1*y2^-1"],
        ["--mode", "derived", "--commutators", '[{"position": "t", "pairs": [["y1", "y2"]]}]'],
    ):
        argv = ["decompose", "--top", "S3", "--base", F2_DEF, *argv]
        code, out = run(capsys, *argv, "--relation", relation)
        assert code == 0 and json.loads(out)["relation_used"]["relation"] == "s*t*c"
        assert out == run(capsys, *argv)[1]


@pytest.mark.parametrize("mode", ["derived", "finite-top"])
@pytest.mark.parametrize("relation", [[], ["--relation", "t1"]], ids=["auto", "word"])
def test_a_relation_mode_over_an_infinite_top_exits_2(capsys, mode, relation):
    assert main(["decompose", "--top", "Z", "--base", "F2", "--mode", mode, *relation]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def decompose_and_verify(capsys, tmp_path, *argv) -> dict:
    """The decompose report of argv, after `verify` has passed it."""
    code, out = run(capsys, "decompose", *argv)
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, verify_report = run_json(capsys, "verify", "--report", str(path))
    assert code == 0 and verify_report["verified"] is True
    return json.loads(out)


def test_derived_positions_are_read_over_the_named_top(capsys):
    # c extends S3 for the construction only: it names no position
    code = main([
        "decompose", "--top", "S3", "--base", F2_DEF, "--mode", "derived",
        "--commutators", '[{"position": "c", "pairs": [["y1", "y2"]]}]',
    ])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "unknown generator 'c'" in captured.err


@pytest.mark.parametrize("inputs", [
    ["--mode", "finite-top", "--word", "s*c*t*y2^-1*s*c^-1*y2"],
    ["--mode", "derived", "--commutators", '[{"position": "t", "pairs": [["c", "y2"]]}]',
     "--a-top", "s"],
], ids=["finite-top", "derived"])
def test_the_extension_takes_a_name_fresh_for_the_product(capsys, tmp_path, inputs):
    # the base names c, so S3's extension by s*t is named c2
    base = '{"kind":"free","names":["c","y2"]}'
    report = decompose_and_verify(capsys, tmp_path, "--top", "S3", "--base", base, *inputs)
    assert report["relation_used"] == {
        "relation": "s*t*c2", "extra_generator": {"name": "c2", "value_word": "s*t"},
    }


def test_a_top_named_c_over_a_base_named_c2_is_extended_by_c3(capsys, tmp_path):
    top = '{"kind":"finite","generators":{"c":[2,1,3],"t":[2,3,1]}}'
    base = '{"kind":"free","names":["c2","y"]}'
    report = decompose_and_verify(capsys, tmp_path, "--top", top, "--base", base,
                                  "--word", "c*c2*t*y")
    assert report["relation_used"] == {
        "relation": "c*t*c3", "extra_generator": {"name": "c3", "value_word": "c*t"},
    }


def test_a_top_named_c_is_extended_by_c2(capsys, tmp_path):
    top = '{"kind":"finite","generators":{"c":[2,1,3],"t":[2,3,1]}}'
    code, report = run_json(capsys, "find-relation", "--group", top)
    assert code == 0 and report["relation"] == "c*t*c2"
    assert report["extra_generator"] == {"name": "c2", "value_word": "c*t"}
    for inputs in (
        ["--word", "c*y1*t*y2^-1*c*y1^-1*y2"],
        ["--mode", "derived", "--commutators", '[{"position": "c", "pairs": [["y1", "y2"]]}]'],
    ):
        report = decompose_and_verify(capsys, tmp_path, "--top", top, "--base", F2_DEF, *inputs)
        assert report["relation_used"]["extra_generator"]["name"] == "c2"


def test_verify_refuses_a_relation_on_a_mode_that_takes_none(capsys, tmp_path):
    # an abelian-top report forged to spell z as a generator c = z of a stored relation
    code, report = run_json(
        capsys, "decompose", "--top", "Z/4", "--base", "F1", "--mode", "abelian-top",
        "--exps", "1", "--word", "x1",
    )
    assert code == 0
    report["relation_used"] = {
        "relation": "z*c^-1", "extra_generator": {"name": "c", "value_word": "z"},
    }
    report["factors"] = [factor.replace("z", "c") for factor in report["factors"]]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    assert main(["verify", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "abelian-top mode takes no relation" in captured.err


def test_verify_checks_a_stored_relation_as_a_construction_does(capsys, tmp_path):
    code, report = run_json(
        capsys, "decompose", "--top", "S3", "--base", '{"kind":"free","names":["y1","y2"]}',
        "--word", "s*y1*t*y2^-1*s*y1^-1",
    )
    assert code == 0 and report["relation_used"]["relation"] == "s*t*c"
    report["relation_used"]["relation"] = "s*t"  # not a relation of S3
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(report))
    code, refusal = run_json(capsys, "verify", "--report", str(path))
    assert code == 1
    failure = "InvalidWitness: witness word is not a relation"
    assert refusal == {"command": "verify", "failure": failure}


def test_verify_refuses_a_derived_report_without_its_relation(capsys, tmp_path):
    argv = _ONE_REPORT_PER_MODE["derived"]
    code, report = run_json(capsys, "decompose", "--mode", "derived", *argv)
    assert code == 0
    del report["relation_used"]
    path = tmp_path / "stripped.json"
    path.write_text(json.dumps(report))
    assert main(["verify", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "derived mode needs a relation" in captured.err


@pytest.mark.parametrize("names, word, extended", [
    (["y1", "y2"], "s*y1*t*y2^-1*s*y1^-1", ["s", "t", "c"]),
    (["c", "y2"], "s*c*t*y2^-1*s*c^-1*y2", ["s", "t", "c2"]),
], ids=["y1-y2", "c-y2"])
def test_the_claim_is_over_the_product_the_construction_took(names, word, extended):
    top, base = cli.load_group("S3"), group_from_def({"kind": "free", "names": names})
    witness = find_reversal_asymmetric_relation(top)
    run, claim = cli._mode_calls("finite-top", {"word": word}, top, base, witness)
    product = claim()[0]
    assert product is run().meta["wreath"]
    assert list(product.top.alphabet.names) == extended


_BENCH_GROUPS = {
    "abelian-top": ("Z^2", F2_DEF),
    "shifted": ('{"kind":"free_abelian","rank":1,"names":["x"]}', "S3"),
    "derived": ("S3", F2_DEF),
    "finite-top": ("S3", F2_DEF),
}


@pytest.mark.parametrize("mode", cli.MODES)
def test_seeded_reports_of_every_mode_verify(capsys, tmp_path, mode):
    # the inputs `bench` draws, written as decompose argv, stored and read back by verify
    top_text, base_text = _BENCH_GROUPS[mode]
    top, base = cli.load_group(top_text), cli.load_group(base_text)
    flags = {"exps": "--exps", "word": "--word", "word_b": "--word-b",
             "commutators": "--commutators", "a_top": "--a-top"}
    for seed in range(10):
        inputs = cli._bench_inputs(mode, random.Random(seed), top, base)
        argv = ["--top", top_text, "--base", base_text, "--mode", mode]
        for key, value in inputs.items():  # `--exps=-4,4`: a bare -4,4 reads as an option
            argv.append(f"{flags[key]}={','.join(map(str, value)) if key == 'exps' else value}")
        decompose_and_verify(capsys, tmp_path, *argv)


def test_commutators_from_a_file_are_kept_in_the_report(capsys, tmp_path):
    # verify reads the data from the report, so the file may change or go
    data = tmp_path / "commutators.json"
    data.write_text('[{"position": "t", "pairs": [["y1", "y2"]]}]\n')
    code, out = run(
        capsys, "decompose", "--top", "S3", "--base", F2_DEF, "--mode", "derived",
        "--commutators", f"@{data}",
    )
    assert code == 0 and json.loads(out)["inputs"]["commutators"] == data.read_text()
    data.unlink()
    report = tmp_path / "report.json"
    report.write_text(out)
    code, verify_report = run_json(capsys, "verify", "--report", str(report))
    assert code == 0 and verify_report["verified"] is True


def test_abelian_product_definition(capsys):
    top = (
        '{"kind":"abelian_product","free_rank":1,"free_names":["x"],'
        '"finite":{"kind":"finite","generators":{"u":[2,1]}}}'
    )
    code, report = run_json(
        capsys,
        "decompose", "--top", top, "--base", "S3", "--mode", "shifted",
        "--commutators", '[{"position": "x*u", "pairs": [["s", "t"]]}]',
        "--a-top", "x^2",
    )
    assert code == 0
    assert report["verified"] is True


def test_group_file_loading(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text('{"kind":"finite","generators":{"s":[2,1,3],"t":[2,3,1]}}')
    code, report = run_json(capsys, "pw-exact", "--group", str(path))
    assert code == 0
    assert report["width"] == 2


RELATION_GROUPS = "relation search needs a finite group or a Baumslag-Solitar handle"


def test_input_errors_exit_2(capsys, tmp_path):
    assert main(["pw-exact", "--group", "nosuchpreset"]) == 2
    assert main(["decompose", "--top", "Z^2", "--base", F2_DEF,
                 "--mode", "abelian-top", "--word", "y1*$", "--exps", "1,1"]) == 2
    assert main(["decompose", "--top", "Z^2", "--base", F2_DEF,
                 "--mode", "abelian-top", "--word", "y1"]) == 2
    # counts are non-negative integers
    assert main(["bench", "--samples", "-3"]) == 2
    assert main(["bench", "--samples", "three"]) == 2
    # a word is refused once its letter count passes the parser's limit, before it is built
    for word in ("y1^99999999999", "y1^600000*y2^-600000"):
        assert main(["decompose", "--top", "S3", "--base", F2_DEF,
                     "--mode", "finite-top", "--word", word]) == 2
    assert capsys.readouterr().out == ""
    # a Latin square with identity 0 that is not associative: a loop, not a group
    loop = [[0, 1, 2, 3, 4], [1, 2, 0, 4, 3], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 0, 3, 1, 2]]
    loop_def = json.dumps({"kind": "finite", "generators": {"a": 1, "b": 3}, "table": loop})
    assert main(["pw-exact", "--group", loop_def]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and len(err.strip().splitlines()) == 1
    # an unknown preset is echoed cut short, however long the argument
    assert main(["pw-exact", "--group", "[" * 5000 + "]" * 5000]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1 and len(err) < 100
    # an exponent that is no integer, a top without generators, an extension without a
    # word, a report verify cannot check, a finite-top report over a base that is not free,
    # a report of an unknown mode (with a relation_used block and without), and a relation
    # search over an infinite group that is not Baumslag-Solitar
    pw_report, finite_top_report = tmp_path / "pw.json", tmp_path / "finite-top.json"
    code, out = run(capsys, "pw-exact", "--group", "S3")
    assert code == 0
    pw_report.write_text(out)
    code, report = run_json(capsys, "decompose", "--top", "S3", "--base", F2_DEF,
                            "--word", "s*y1*t*y2^-1*s*y1^-1")
    assert code == 0
    bogus_report, bogus_bare_report = tmp_path / "bogus.json", tmp_path / "bogus-bare.json"
    bogus = {**report, "mode": "bogus"}  # with its relation_used block, then without
    bogus_report.write_text(json.dumps(bogus))
    del bogus["relation_used"]
    bogus_bare_report.write_text(json.dumps(bogus))
    # factors that each pass the letter limit's check, and together pass the limit
    long_factors_report = tmp_path / "long-factors.json"
    long_factors_report.write_text(json.dumps({**report, "factors": ["y1^600000"] * 2}))
    report["base"] = {"kind": "free_abelian", "names": ["y1", "y2"]}
    finite_top_report.write_text(json.dumps(report))
    long_pair = ["y1^300000", "y2^-300000"]
    for argv, message in [
        (["decompose", "--top", "Z^2", "--base", F2_DEF, "--mode", "abelian-top",
          "--word", "y1", "--exps", "1,a"], "bad exponent list '1,a'"),
        (["decompose", "--top", "Z^0", "--base", F2_DEF, "--mode", "abelian-top",
          "--word", "y1", "--exps", ""], "top group has no generators"),
        (["pw-exact", "--group", "S3", "--extend-gens", "c"], "--extend-gens wants name=word"),
        (["pw-exact", "--group", "F2"], "pw-exact needs a finite group"),
        (["pw-exact", "--group", '{"kind":"finite","generators":{}}'],
         "at least one permutation generator required"),
        (["pw-exact", "--group", '{"kind":"finite","generators":{"a":[2,1],"b":[1,2,3]}}'],
         "generator 'b' is not a permutation of 1..2"),
        (["verify", "--report", str(pw_report)], "verify wants a decompose report"),
        (["verify", "--report", str(finite_top_report)], "free base required"),
        (["verify", "--report", str(bogus_report)], "unknown mode 'bogus'"),
        (["verify", "--report", str(bogus_bare_report)], "unknown mode 'bogus'"),
        (["find-relation", "--group", "Z"], RELATION_GROUPS),
        (["find-relation", "--group", "F2"], RELATION_GROUPS),
        # the letter limit: a relator, a report's factors together, a commutator block
        # together, and abelian-top's factors (each sandwich holds its word twice)
        (["find-relation", "--group", "BS(1,1000001)"], "1000004 letters pass the limit of 1000000"),
        (["verify", "--report", str(long_factors_report)],
         "1200000 letters pass the limit of 1000000"),
        (["decompose", "--top", "F1", "--base", F2_DEF, "--mode", "shifted", "--commutators",
          json.dumps([{"position": "1", "pairs": [long_pair, long_pair]}])],
         "1200000 letters pass the limit of 1000000"),
        (["decompose", "--top", "Z^3", "--base", F2_DEF, "--mode", "abelian-top",
          "--word", "y1^200000", "--exps", "1,1,1"], "1600006 letters pass the limit of 1000000"),
        (["decompose", *ABELIAN_TOP, "--exps", "1000000,0"],
         "2000004 letters pass the limit of 1000000"),
    ]:
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.strip().splitlines() == [f"error: {message}"]


ABELIAN_TOP = ["--top", "Z^2", "--base", F2_DEF, "--mode", "abelian-top", "--word", "y1"]


@pytest.mark.parametrize(
    "exps, extra",
    [("1000001,0", []), ("-600000,400001", []), ("500001,0", ["--word-b", "y2"])],
    ids=["one", "summed", "doubled-by-word-b"],
)
def test_abelian_top_exponents_over_the_letter_limit_exit_2(capsys, tmp_path, exps, extra):
    # the power words would spell more top letters than a parsed word may hold
    # (t^2 doubles every exponent); refused at once by decompose and by verify
    start = time.perf_counter()
    assert main(["decompose", *ABELIAN_TOP, f"--exps={exps}", *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and len(err.strip().splitlines()) == 1
    assert "limit" in err
    code, report = run_json(capsys, "decompose", *ABELIAN_TOP, "--exps", "1,0", *extra)
    assert code == 0
    report["inputs"]["exps"] = [int(e) for e in exps.split(",")]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["verify", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and "limit" in err
    assert time.perf_counter() - start < 5


def test_abelian_top_exponents_at_the_letter_limit_are_taken():
    top, base = cli.load_group("Z^2"), cli.load_group(F2_DEF)
    for inputs in (
        {"exps": [1000000, 0], "word": "y1"},
        {"exps": [-250000, 250000], "word": "y1", "word_b": "y2"},
    ):
        run, target = cli._mode_calls("abelian-top", inputs, top, base, None)
        assert callable(run) and callable(target)


def test_decompose_refuses_factors_past_the_letter_limit(capsys, monkeypatch):
    # its 7 input letters are within the limit and its 80 factor letters are not:
    # decompose writes nothing, so verify can read every report decompose writes
    argv = ["decompose", "--top", "F1", "--base", F2_DEF, "--mode", "shifted",
            "--commutators", '[{"position": "x1", "pairs": [["y1^3", "y2^3"]]}]']
    monkeypatch.setattr("palinwidth.words.MAX_PARSED_LETTERS", 80)
    code, report = run_json(capsys, *argv)
    assert code == 0 and report["count"] == 7
    monkeypatch.setattr("palinwidth.words.MAX_PARSED_LETTERS", 79)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.strip().splitlines() == ["error: 80 letters pass the limit of 79"]


def test_cyclic_preset_over_the_size_limit_exits_2_at_once(capsys):
    # refused by its order, before the closure runs
    start = time.perf_counter()
    assert main(["pw-exact", "--group", "Z/20001"]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "20000" in err


def test_group_over_the_closure_limit_exits_2(capsys):
    # lamp(2,12) has 49,152 elements; its order is refused before anything is built
    assert main(["pw-exact", "--group", "lamp(2,12)"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "order 2^12*12 exceeds 20000 elements" in err


@pytest.mark.parametrize("name", ["lamp(300,300)", "lamp(20000,2)"])
def test_large_lamplighter_presets_exit_2_at_once(capsys, name):
    # lamp(300,300) would need about 14 GB of permutations before the closure refused it
    start = time.perf_counter()
    assert main(["pw-exact", "--group", name]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "exceeds 20000 elements" in err


# nested past the interpreter's recursion limit; on the extra-generator chain
# either the JSON decoder or the group definition reader overflows first,
# depending on how deep the stack already is
DEEP_OBJECT = '{"a":' * 5000 + "1" + "}" * 5000
DEEP_LIST = "[" * 5000 + "]" * 5000
EXTRA_GENERATOR_CHAIN = '{"preset":"S3"}'
for _level in range(990):
    EXTRA_GENERATOR_CHAIN = (
        f'{{"base":{EXTRA_GENERATOR_CHAIN},"extra_generator":{{"name":"c{_level}","value_word":"s"}}}}'
    )

REPORT_WITHOUT_INPUTS = {
    "command": "decompose", "mode": "finite-top",
    "top": {"preset": "S3"}, "base": json.loads(F2_DEF), "factors": [],
}


@pytest.mark.parametrize(
    "argv, files",
    [
        (["pw-exact", "--group", '{"kind":"abelian_product"}'], {}),
        (["decompose", "--top", "Z", "--base", F2_DEF, "--mode", "shifted",
          "--commutators", '[{"pairs": [["y1", "y2"]]}]'], {}),
        (["decompose", "--top", "Z", "--base", F2_DEF, "--mode", "shifted",
          "--commutators", '{"a":1}'], {}),
        (["pw-exact", "--group", '{"kind":"finite","generators":{"s":[2,1,"x"]}}'], {}),
        (["pw-exact", "--group", "{dir}/group.json"], {"group.json": "[1]"}),
        (["pw-exact", "--group", '{"preset": 5}'], {}),
        (["pw-exact", "--group", '{"kind":"free","rank":"2"}'], {}),
        (["pw-exact", "--group", '{"base":{"preset":"S3"},"extra_generator":{"name":"c"}}'], {}),
        (["verify", "--report", "{dir}/report.json"],
         {"report.json": json.dumps(REPORT_WITHOUT_INPUTS)}),
        (["pw-exact", "--group", DEEP_OBJECT], {}),
        (["pw-exact", "--group", "{dir}/group.json"], {"group.json": DEEP_OBJECT}),
        (["pw-exact", "--group", EXTRA_GENERATOR_CHAIN], {}),
        (["decompose", "--top", DEEP_OBJECT, "--base", F2_DEF, "--word", "y1"], {}),
        (["decompose", "--top", "Z", "--base", F2_DEF, "--mode", "shifted",
          "--commutators", DEEP_LIST], {}),
        (["verify", "--report", "{dir}/report.json"], {"report.json": DEEP_LIST}),
        (["decompose", "--top", "S3", "--base", '{"kind":"free","rank":-3}',
          "--mode", "finite-top", "--word", "s*t"], {}),
        (["decompose", "--top", "S3", "--base", '{"kind":"free","rank":true}',
          "--mode", "finite-top", "--word", "s*t"], {}),
        (["pw-exact", "--group", '{"kind":"finite","generators":{"g":true},"table":[[0,1],[1,0]]}'],
         {}),
        (["decompose", "--top", "Z", "--base", F2_DEF, "--mode", "shifted",
          "--commutators", "[1]"], {}),
        (["decompose", "--top", "Z", "--base", F2_DEF, "--mode", "shifted",
          "--commutators", '[{"position": "t1", "pairs": [["y1"]]}]'], {}),
        (["decompose", "--top", "Z", "--base", F2_DEF, "--mode", "shifted", "--commutators",
          '[{"position": "t1", "pairs": [["y1", "y2"]]}, {"position": "t1", "pairs": [["y2", "y1"]]}]'],
         {}),
        (["decompose", "--top", "S3", "--base", F2_DEF, "--mode", "derived", "--commutators",
          '[{"position": "t", "pairs": [["y1", "y2"]]}, {"position": "t", "pairs": [["y2", "y1"]]}]'],
         {}),
        (["pw-exact", "--group", '{"kind":"abelian_product","free_rank":1,"finite":{"preset":"Z"}}'],
         {}),
        (["pw-exact", "--group",
          '{"kind":"abelian_product","free_rank":2,"free_names":["u"],"finite":{"preset":"Z/2"}}'],
         {}),
        (["pw-exact", "--group",
          '{"base":{"preset":"F2"},"extra_generator":{"name":"c","value_word":"a"}}'], {}),
        (["pw-exact", "--group", '{"kind":"finite","generators":{},"table":[]}'], {}),
    ],
    ids=[
        "abelian-product-without-parts", "site-without-position", "commutators-not-a-list",
        "image-not-an-integer", "group-file-not-an-object", "preset-not-a-string",
        "rank-not-an-integer", "extra-generator-without-value-word", "report-without-inputs",
        "group-nested-inline", "group-nested-in-file", "extra-generator-chain",
        "top-nested-inline", "commutators-nested", "report-nested", "rank-negative",
        "rank-a-boolean", "generator-a-boolean", "commutators-site-not-an-object",
        "pair-not-two-words", "shifted-position-twice", "derived-position-twice",
        "abelian-product-finite-part-infinite", "free-names-short",
        "extra-generator-over-a-free-group", "finite-table-empty",
    ],
)
def test_malformed_json_exits_2(capsys, tmp_path, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main([arg.format(dir=tmp_path) if "{dir}" in arg else arg for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "group",
    [
        "F100000000",
        "Z^100000000",
        '{"kind":"free","rank":100000000}',
        '{"kind":"free_abelian","rank":100000000}',
        '{"kind":"abelianized_free","rank":100000000}',
        '{"kind":"abelian_product","free_rank":100000000,"finite":{"preset":"Z/2"}}',
    ],
)
def test_rank_over_the_limit_exits_2_before_building_names(capsys, group):
    # 10^8 generator names would take gigabytes; the rank is refused first
    assert main(["pw-exact", "--group", group]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "rank 100000000 exceeds" in err


def test_readme_group_definitions_load():
    # every object in README's "Group definitions" block loads, so the
    # documented examples keep to the rules group_from_def enforces
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("### Group definitions", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    decoder = json.JSONDecoder()
    text = block.strip()
    definitions = []
    while text:
        definition, end = decoder.raw_decode(text)
        definitions.append(definition)
        text = text[end:].lstrip()
    assert definitions
    for definition in definitions:
        assert group_from_def(definition).source_def == definition



def test_readme_commands_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").strip().splitlines()
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "palinwidth", line
        target = None
        if ">" in argv:
            at = argv.index(">")
            argv, target = argv[:at], argv[at + 1]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0, (line, out.getvalue())
        if target is not None:
            (tmp_path / target).write_text(out.getvalue())


# group definitions from the real key vocabulary, small enough for pw-exact
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 6), st.sampled_from(["", "x", "S3", "2"]),
    st.just([]), st.just({}),
)
_names = st.lists(st.sampled_from(["s", "t", "u", "y1", "c", "1x"]), max_size=3)
_images = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.lists(st.one_of(st.integers(-1, 6), st.just("x")), max_size=4),
    _junk,
)
_tables = st.one_of(
    st.sampled_from([[[0]], [[0, 1], [1, 0]], [[0, 1], [0, 1]]]),
    st.lists(st.one_of(st.lists(st.integers(-1, 3), max_size=3), _junk), max_size=3),
    _junk,
)


def _definitions(children):
    return st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["free", "free_abelian", "abelianized_free"])},
                              optional={"rank": st.one_of(st.integers(-1, 6), _junk),
                                        "names": st.one_of(_names, _junk)}),
        st.fixed_dictionaries({"kind": st.just("finite")},
                              optional={"generators": st.one_of(
                                            st.dictionaries(st.sampled_from(["s", "t", "u", "1x"]),
                                                            st.one_of(_images, st.integers(-1, 3)),
                                                            max_size=3),
                                            _junk),
                                        "table": _tables}),
        st.fixed_dictionaries({"kind": st.just("abelian_product")},
                              optional={"free_rank": st.one_of(st.integers(-1, 6), _junk),
                                        "free_names": st.one_of(_names, _junk),
                                        "finite": st.one_of(children, _junk)}),
        st.fixed_dictionaries({"extra_generator": st.one_of(
                                   st.fixed_dictionaries({}, optional={
                                       "name": st.one_of(st.sampled_from(["c", "s", "1x"]), _junk),
                                       "value_word": st.one_of(
                                           st.sampled_from(["s*t", "t", "1", "q", "s^"]), _junk)}),
                                   _junk)},
                              optional={"base": st.one_of(children, _junk)}),
        st.fixed_dictionaries({"kind": _junk}),
    )


_leaves = st.one_of(
    st.fixed_dictionaries({"preset": st.one_of(
        st.sampled_from(["S3", "D4", "Q8", "Z2xZ2", "Z/3", "lamp(2,2)", "Z", "Z^2", "F2",
                         "BS(1,2)", "nope"]),
        _junk)}),
    st.fixed_dictionaries({"kind": st.just("finite"),
                           "generators": st.fixed_dictionaries({"s": _images, "t": _images})}),
)


@settings(max_examples=100, deadline=None)
@given(definition=st.recursive(_leaves, _definitions, max_leaves=4))
def test_any_group_definition_keeps_the_exit_contract(definition):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["pw-exact", "--group", json.dumps(definition)])
    assert code in (0, 1, 2)
    if code == 1:
        assert "failure" in json.loads(out.getvalue())
    if code == 2:
        assert len(err.getvalue().strip().splitlines()) == 1


def test_decomposition_failure_exits_1(capsys):
    # abelian top: no asymmetric relation exists, reported as a failure block
    code, out = run(
        capsys,
        "decompose", "--top", "Z2xZ2", "--base", F2_DEF,
        "--mode", "finite-top", "--word", "y1",
    )
    assert code == 1
    assert "AbelianGroup" in out
    # a top the construction cannot use is a failure block as well
    shifted = ["--mode", "shifted", "--commutators", '[{"position": "1", "pairs": [["y1", "y2"]]}]']
    for top, args, failure in [
        ("S3", ["--mode", "abelian-top", "--exps", "1,1", "--word", "y1"], "NotAbelian"),
        ("S3", shifted, "NotAbelian"),
        ("Z/4", shifted, "NoInfiniteOrderGenerator"),
    ]:
        code, out = run(capsys, "decompose", "--top", top, "--base", F2_DEF, *args)
        assert code == 1
        assert json.loads(out)["failure"].startswith(f"{failure}: ")
    # the same abelian top over a base that is not free: an input error,
    # found before the relation search could fail on the top
    code, out = run(
        capsys,
        "decompose", "--top", "Z2xZ2", "--base", "S3",
        "--mode", "finite-top", "--word", "a",
    )
    assert code == 2


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_1_without_a_traceback(fmt):
    # `palinwidth pw-exact --group S3 | (exec 0<&-; true)`: the reader is gone
    # before the report is written, here closed before the process starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "palinwidth.cli", "--format", fmt, "pw-exact", "--group", "S3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: stdout closed before the report was written"]


def fresh_and_in_process(capsys, *argv) -> tuple[int, int, str]:
    """Exit codes of one CLI call in a new interpreter and in this one, and the stdout they share.

    The in-process suite imports every module, so only a new process shows
    a module that a subcommand fails to import for itself.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "palinwidth.cli", *argv],
        capture_output=True, env=env, timeout=120,
    )
    code, out = run(capsys, *argv)
    assert done.stdout == out.encode()
    return done.returncode, code, out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["pw-exact", "--group", "S3"], 0),
        (["find-relation", "--group", "Q8"], 0),
        (["bench", "--samples", "1"], 0),
        (["pw-exact", "--group", '{"kind":"abelian_product"}'], 2),
    ],
)
def test_fresh_process_matches_in_process(capsys, argv, expected):
    assert fresh_and_in_process(capsys, *argv)[:2] == (expected, expected)


def test_fresh_decompose_report_verifies(capsys, tmp_path):
    argv = ["decompose", "--top", "S3", "--base", F2_DEF, "--mode", "finite-top",
            "--word", "s*y1*t*y2^-1*s*y1^-1", "--relation", "auto"]
    *codes, out = fresh_and_in_process(capsys, *argv)
    assert codes == [0, 0]
    report = tmp_path / "report.json"
    report.write_text(out)
    assert fresh_and_in_process(capsys, "verify", "--report", str(report))[:2] == (0, 0)


def test_deterministic_output(capsys):
    outputs = []
    for _ in range(2):
        code, out = run(capsys, "bench", "--samples", "2", "--seed", "5")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_bench_text_format(capsys):
    code, out = run(capsys, "--format", "text", "bench", "--samples", "1", "--seed", "0")
    assert code == 0
    assert "suite" in out and "margin" in out


def test_bench_rows_verified(capsys):
    code, report = run_json(capsys, "bench", "--samples", "3", "--seed", "1")
    assert code == 0
    assert all(row["verified"] for row in report["rows"])
    assert all(row["count"] <= row["bound"] for row in report["rows"])


def test_bench_runs_each_mode_through_the_decompose_path(capsys, monkeypatch):
    modes = []

    def recording(mode, *args):
        modes.append(mode)
        return real(mode, *args)

    real = cli._mode_calls
    monkeypatch.setattr(cli, "_mode_calls", recording)
    code, report = run_json(capsys, "bench", "--samples", "2")
    assert code == 0 and len(report["rows"]) == 2 * len(cli.MODES)
    assert modes == [mode for mode in cli.MODES for _ in range(2)]


def test_mode_and_suite_choices_come_from_one_list():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def choices(subcommand, dest):
        return next(a.choices for a in sub.choices[subcommand]._actions if a.dest == dest)

    assert list(choices("decompose", "mode")) == list(cli.MODES)
    assert list(choices("bench", "suite")) == ["all", *cli.MODES]
