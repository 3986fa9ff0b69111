"""The independent checker accepts real results and rejects tampered ones.

    PYTHONPATH=src python -m pytest perfbench
"""
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checker as ck  # noqa: E402
import workloads  # noqa: E402
from palinwidth import cli  # noqa: E402
from palinwidth.decompose import decompose_full_finite_top  # noqa: E402
from palinwidth.groups import FreeGroup  # noqa: E402
from palinwidth.oracle import exact_palindromic_width, oracle_for  # noqa: E402
from palinwidth.words import Word  # noqa: E402
from palinwidth.wreath import WreathProduct  # noqa: E402

S4_DEF = {"kind": "finite", "generators": {"s": [2, 1, 3, 4], "t": [2, 3, 4, 1]}}


def _finite_top_result(seed=3, length=60):
    """A real finite-top factorization over F2 wr S3, with the checker's target."""
    top = cli.group_from_def({"preset": "S3"})
    wreath = WreathProduct(top, FreeGroup(names=["y1", "y2"]))
    rng = random.Random(seed)
    letters = [(rng.randrange(4), rng.choice((1, -1))) for _ in range(length)]
    fact = decompose_full_finite_top(wreath, Word(wreath.alphabet, letters))
    model = ck.WreathModel(ck.model_of({"preset": "S3"})[0], ck.FreeModel(["y1", "y2"]))
    target = model.evaluate([(wreath.alphabet.names[i], s) for i, s in letters])
    name, value = fact.meta["witness"].extra_generator
    model = model.extended(name, str(top.element_word(value)))
    return model, target, [str(w) for w in fact.factors], fact.bound_claimed


def _oracle_result(definition):
    group = cli.group_from_def(definition)
    report = exact_palindromic_width(group)
    factors = [str(w) for w in oracle_for(group).decompose(report.witness)]
    reference = ck.FiniteReference(*ck.model_of(definition))
    return reference, group.size, report.width, str(group.element_word(report.witness)), factors


def test_real_factorization_passes():
    model, target, factors, bound = _finite_top_result()
    ck.check_factors(model.evaluate, target, factors, bound)


def test_dropped_factor_is_rejected():
    model, target, factors, bound = _finite_top_result()
    longest = max(range(len(factors)), key=lambda i: len(factors[i]))
    with pytest.raises(ck.CheckError, match="differs from the target"):
        ck.check_factors(model.evaluate, target, factors[:longest] + factors[longest + 1:], bound)


def test_flipped_letter_is_rejected():
    model, target, factors, bound = _finite_top_result()
    i = max(range(len(factors)), key=lambda k: len(factors[k]))
    letters = list(ck.parse_word(factors[i]))
    name, sign = letters[0]
    letters[0] = (name, -sign)
    tampered = factors[:i] + [ck.format_word(letters)] + factors[i + 1:]
    with pytest.raises(ck.CheckError, match="not a palindrome"):
        ck.check_factors(model.evaluate, target, tampered, bound)


def test_flipped_centre_letter_is_rejected():
    # flipping the centre keeps a palindrome, so the product must catch it
    model, target, factors, bound = _finite_top_result()
    i = next(k for k, f in enumerate(factors) if len(ck.parse_word(f)) % 2 == 1)
    letters = list(ck.parse_word(factors[i]))
    middle = len(letters) // 2
    name, sign = letters[middle]
    letters[middle] = (name, -sign)
    tampered = factors[:i] + [ck.format_word(letters)] + factors[i + 1:]
    with pytest.raises(ck.CheckError, match="differs from the target"):
        ck.check_factors(model.evaluate, target, tampered, bound)


def test_count_over_bound_is_rejected():
    model, target, factors, _ = _finite_top_result()
    with pytest.raises(ck.CheckError, match="exceed the bound"):
        ck.check_factors(model.evaluate, target, factors, len(factors) - 1)


@pytest.mark.parametrize(
    "definition",
    [{"preset": "S3"}, {"preset": "Q8"}, {"preset": "lamp(2,3)"}, S4_DEF,
     {"base": {"preset": "D4"}, "extra_generator": {"name": "c", "value_word": "r*s"}}],
)
def test_real_width_passes_and_wrong_width_is_rejected(definition):
    reference, order, width, witness, factors = _oracle_result(definition)
    reference.check_width(order, width, witness, factors)
    with pytest.raises(ck.CheckError, match="width"):
        reference.check_width(order, width + 1, witness, factors)
    if width > 1:
        with pytest.raises(ck.CheckError, match="width"):
            reference.check_width(order, width - 1, witness, factors[:-1])


def test_witness_below_the_width_is_rejected():
    reference, order, width, _, _ = _oracle_result({"preset": "S3"})
    with pytest.raises(ck.CheckError, match="witness needs"):
        reference.check_width(order, width, "s", ["s"])


def test_relation_checks():
    reference = ck.FiniteReference(*ck.model_of({"preset": "S3"}))
    extra = {"name": "c", "value_word": "s*t"}
    reference.check_relation("s*t*c", extra)  # what find-relation reports for S3
    with pytest.raises(ck.CheckError, match="reverse of relation"):
        reference.check_relation("s^2", None)
    with pytest.raises(ck.CheckError, match="reverse of relation"):
        reference.check_relation("t^3", None)
    with pytest.raises(ck.CheckError, match="not trivial"):
        reference.check_relation("s*t", None)


def test_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(0)
    for degree in (3, 4, 5):
        definition = workloads._symmetric_def(rng, degree)
        model, expected = ck.model_of(definition)
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation([i - 1 for i in p]) for p in definition["generators"].values()]
        )
        assert expected == group.order()
        assert ck.FiniteReference(model, expected).order == group.order()
    d4 = ck.model_of({"preset": "D4"})
    assert ck.FiniteReference(*d4).order == combinatorics.named_groups.DihedralGroup(4).order()


@pytest.mark.parametrize("m,k", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_lamplighter_orders(m, k):
    reference = ck.FiniteReference(*ck.model_of({"preset": f"lamp({m},{k})"}))
    assert reference.order == m**k * k


def test_word_syntax_round_trip():
    letters = ck.parse_word("x^-2 * y*x^3")
    assert letters == (("x", -1), ("x", -1), ("y", 1), ("x", 1), ("x", 1), ("x", 1))
    assert ck.parse_word(ck.format_word(letters)) == letters
    assert ck.parse_word("1") == ()
