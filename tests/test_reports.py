"""Byte-identity of CLI reports.

Each case pins the SHA-256 of one invocation's stdout.  A refactor that
keeps behaviour must keep every digest; a change that alters a report on
purpose updates the digest and says why.  Timing goes to stderr and is
not pinned.
"""
import contextlib
import hashlib
import io
import json

import pytest

from palinwidth.cli import main

F2_DEF = '{"kind":"free","rank":2,"names":["y1","y2"]}'
X_DEF = '{"kind":"free_abelian","rank":1,"names":["x"]}'
S3_TABLE = (
    '{"kind":"finite","generators":{"s":1,"t":3},"table":'
    "[[0,1,2,3,4,5],[1,0,4,5,2,3],[2,3,0,1,5,4],[3,2,5,4,0,1],[4,5,1,0,3,2],[5,4,3,2,1,0]]}"
)
TORSION_TOP = (
    '{"kind":"abelian_product","free_rank":1,"free_names":["x"],'
    '"finite":{"kind":"finite","generators":{"u":[2,1]}}}'
)
RELABELLED_S5 = '{"kind":"finite","generators":{"v":[3,4,5,1,2],"w":[1,5,3,4,2]}}'
EXTRA_GENERATOR_DEF = (
    '{"base":{"preset":"D4"},"extra_generator":{"name":"c","value_word":"r*s"}}'
)
FINITE_TOP = [
    "decompose", "--top", "S3", "--base", F2_DEF,
    "--mode", "finite-top", "--word", "t*y1^2*s*y2^-1*t^-1*y1",
]
# 150 letters over F2 wr lamp(2,3): relation=auto adds the extra generator c
LONG_FINITE_TOP = [
    "decompose", "--top", "lamp(2,3)", "--base", F2_DEF, "--mode", "finite-top", "--word",
    "y1^2*y2^-1*y2*y2*y2^3*y1*y*y1^-1*y1^3*y^3*y1*y^-2*y1*y^-2*z^2*y2^-2*y1*y1^-1*y1^2*z^-1"
    "*y2^2*y^-2*y1^-2*z^-1*z*y1*y2*y1^-1*y1^2*y2*y^3*y2^3*z^2*y2*y2^3*z^2*z^2*z*y^2*y1*z^3"
    "*y2^-2*y1^2*z*y1*z^-2*z*z^2*z*z^2*y^3*y1*y^-2*z*y*z^3*y^-1*y2^2*z^2*y2^3*y2^2*y1*z*y^2"
    "*y1^-2*y2*y*y2^3*z^-1*z^2*y2*y2*y*y2^2*y^2*y^-1*y2*y2*y2*y2^-1*y1*z^-1*y2*y2*y2^-2*y^2"
    "*z^3*z^3*y1*y2*y2^3*z",
]

CASES = {
    "pw-exact": ["pw-exact", "--group", "D4"],
    "pw-exact-extend-gens": ["pw-exact", "--group", "S3", "--extend-gens", "c=s*t"],
    "pw-exact-table": ["pw-exact", "--group", S3_TABLE],
    "pw-exact-text": ["--format", "text", "pw-exact", "--group", "lamp(2,3)"],
    "pw-exact-q8": ["pw-exact", "--group", "Q8"],
    "pw-exact-padded-cyclic": ["pw-exact", "--group", "Z/05"],
    "pw-exact-cyclic-12": ["pw-exact", "--group", "Z/12"],
    "pw-exact-extra-generator-def": ["pw-exact", "--group", EXTRA_GENERATOR_DEF],
    "pw-exact-lamp-2-5": ["pw-exact", "--group", "lamp(2,5)"],
    "pw-exact-lamp-3-3": ["pw-exact", "--group", "lamp(3,3)"],
    "pw-exact-relabelled-s5": ["pw-exact", "--group", RELABELLED_S5],
    "find-relation-s3": ["find-relation", "--group", "S3"],
    "find-relation-q8": ["find-relation", "--group", "Q8"],
    "find-relation-lamp": ["find-relation", "--group", "lamp(2,3)"],
    "find-relation-bs": ["find-relation", "--group", "BS(1,2)"],
    "find-relation-bs-padded": ["find-relation", "--group", "BS(01,2)"],
    "find-relation-bs-2-3": ["find-relation", "--group", "BS(2,3)"],
    "find-relation-bs-minus-2-3": ["find-relation", "--group", "BS(-2,3)"],
    "decompose-finite-top": FINITE_TOP,
    "decompose-abelian-top": [
        "decompose", "--top", "Z^2", "--base", F2_DEF, "--mode", "abelian-top",
        "--word", "y1*y2^-1", "--exps", "2,-3",
    ],
    "decompose-pair": [
        "decompose", "--top", "Z^2", "--base", F2_DEF, "--mode", "abelian-top",
        "--word", "y1*y2^-1", "--exps", "2,-3", "--word-b", "y2",
    ],
    "decompose-shifted": [
        "decompose", "--top", X_DEF, "--base", "S3", "--mode", "shifted",
        "--commutators", '[{"position": "x^-1", "pairs": [["s*t", "t"]]}]', "--a-top", "x",
    ],
    "decompose-shifted-torsion": [
        "decompose", "--top", TORSION_TOP, "--base", "S3", "--mode", "shifted",
        "--commutators", '[{"position": "x*u", "pairs": [["s", "t"]]}]', "--a-top", "x^2*u",
    ],
    "decompose-derived": [
        "decompose", "--top", "S3", "--base", F2_DEF, "--mode", "derived",
        "--commutators", '[{"position": "t", "pairs": [["y1", "y2"], ["y2", "y1*y2"]]}]',
        "--a-top", "t^-1",
    ],
    "decompose-text": ["--format", "text", *FINITE_TOP],
    "decompose-finite-top-long": LONG_FINITE_TOP,
    "verify": ["verify", "--report", "report.json"],  # the finite-top report, written first
    # the same report with its last factor dropped: the product no longer matches
    "verify-dropped-factor": ["verify", "--report", "dropped.json"],
    "verify-finite-top-long": ["verify", "--report", "long.json"],  # written first
    "bench": ["bench", "--samples", "3"],
    "bench-text": ["--format", "text", "bench", "--samples", "3", "--seed", "7"],
}

# SHA-256 of each case's stdout
DIGESTS = {
    "bench": "718dc7f89c05e717920c621c3fffbecb04fd4fc536ac531ce00664b7a027d860",
    "bench-text": "c0a531d4bbecf3384e6d94592379afeff7cdc3216be5a8f0a7e516d3406aaac6",
    "decompose-abelian-top": "186d8d73691edc5ef653e2dc8accb70ec39ede57ec37c51031c6b5d9da7002a4",
    "decompose-derived": "7c77d0bca9afe6e19af6fe1dd1959080582a7390be03d225f3aa7b703b01241a",
    "decompose-finite-top-long": "5fad43457c87243c45efb972a6dd6ea6edb519a6f52a8566a6707a689882d6a4",
    "decompose-finite-top": "9fcc501b07f3d9ce3c4ed1b8a84f431c08200c7f4cf967d56ba5aec2c415b35d",
    "decompose-pair": "5fa861a1d036f7d3908d416590a7ec387471614fde12ecfc85d1267465a6d826",
    "decompose-shifted": "0ce1c29c0bd95d667969038570c52e2eb092e3c507469e4b82adeb21c0936d23",
    "decompose-shifted-torsion": "2cf05a7becb8b95b1a9bdb42c139655641f327ce554a4746ca108e3b7c24acbd",
    "decompose-text": "a0b6c3e6b4b2bac31d7df9e9213b15504549c8ea7836ba92b88d9f0bcffef67c",
    "find-relation-bs": "a212d60224c56b683aeef0ad0428daf69b8d80af1c6af002ee47968d2f006dac",
    "find-relation-bs-2-3": "7aadae23862bd451ea56480d1e65c58d19aaa61401bfbf7fea4f2001cd61a464",
    "find-relation-bs-minus-2-3": "f7f86d9be37bd83955416bafd76d2e3c7dde0b49efa8c44f3fa671fb84bfbe60",
    "find-relation-bs-padded": "a212d60224c56b683aeef0ad0428daf69b8d80af1c6af002ee47968d2f006dac",
    "find-relation-lamp": "9841af647fe280e8fe90e11de1802d86cac71c20397276b0f2801eb8aee2e4c7",
    "find-relation-q8": "69fcc59dcdafa4cad5923c973314293c50a2e70be558bc31aefae010e3ff9032",
    "find-relation-s3": "feff5dcdf06d81eaf7df798d6535e74269d8d16fd765fdaf03b49420740feec9",
    "pw-exact": "1b8647cc2cca937e5df4f672cd2dd9414a0fa396f7078a79c295c3b1dc9fb4a8",
    "pw-exact-cyclic-12": "b455fcb35eee417d465c6188089fdd2718d951cc25be802d7935cc9d706625b1",
    "pw-exact-extend-gens": "161f0f094513fd6de708c810d800ccfa30d3d6bbe99098dcb15f56dab156e013",
    "pw-exact-extra-generator-def": "a7080acfb55dba5ce234045b9765efc2d18b2f702aafb0e2299030e2c405aaaa",
    "pw-exact-lamp-2-5": "6ef2bf8c4882880862a6e023c24483179cf8d07b9c77d318a6b112d706eeb8db",
    "pw-exact-lamp-3-3": "1b99362451d84d6f1b99e20d4b2ebc76f0d50c13e7cf3f96b383363017f13643",
    "pw-exact-padded-cyclic": "08c467bd2e664147a906e6e835924acf88821eeaca435246df4cdd42df42885c",
    "pw-exact-q8": "9bf13ef1de04df4f01145e39df27bbd9a78d0262706a0be0063bfc8c87a142c0",
    "pw-exact-relabelled-s5": "cadb53393efadbde7179738adff10f141f0886d24133c18ce4e4d0dd4b4762a0",
    "pw-exact-table": "f4a4e3210ea70d2dbe4ee1699496584102abc582877c4f2c32dbc7e7ff8475ee",
    "pw-exact-text": "7833019a1bacebd090bb8b2ed1a2c52952cd19d4944f51338694d1285aaa8636",
    "verify": "d9bddc5dab0133ad9eba5e517c500424ff2f5e37bc0821ad00a3249b8d06c1fa",
    "verify-finite-top-long": "a344569f6dba36bc3d21b1754d87d822cee246b85abd6af5cfe6c67757e295ba",
    "verify-dropped-factor": "ddd24586004f5f786bb36ced74d09d3b8367fd2604acdbfeb7a38cdac95aab61",
}


# cases whose report is a failure, with the exit code it comes with
EXIT_CODES = {"verify-dropped-factor": 1}


def stdout_of(argv: list, expected_code: int = 0) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == expected_code, (argv, out.getvalue())
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_pinned(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if case == "verify":
        (tmp_path / "report.json").write_text(stdout_of(FINITE_TOP))
    if case == "verify-finite-top-long":
        (tmp_path / "long.json").write_text(stdout_of(LONG_FINITE_TOP))
    if case == "verify-dropped-factor":
        report = json.loads(stdout_of(FINITE_TOP))
        report["factors"].pop()
        (tmp_path / "dropped.json").write_text(json.dumps(report))
    assert digest(stdout_of(CASES[case], EXIT_CODES.get(case, 0))) == DIGESTS[case]
