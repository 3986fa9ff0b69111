import dataclasses
import random

import pytest

from palinwidth import (
    FiniteGroup,
    FreeGroup,
    Word,
    build_pair_automaton,
    decompose_top_element,
    exact_palindromic_width,
    is_palindrome,
    naive_palindromic_elements,
    oracle_for,
    palindrome_set,
    reverse,
    verify_factorization,
)
from palinwidth import presets
from palinwidth.errors import NotGenerated
from palinwidth.oracle import palindrome_width_bfs

SMALL_PRESETS = ["Z2xZ2", "S3", "D4", "Q8", "Z/5", "lamp(2,2)", "lamp(3,2)", "lamp(2,3)"]


def test_trivial_group_automaton():
    trivial = presets.cyclic(1, "e_gen")
    automaton = build_pair_automaton(trivial)
    assert len(automaton.order) == 1
    assert exact_palindromic_width(trivial).width == 0


def test_abelian_pairs_are_diagonal():
    for name in ("Z2xZ2", "Z/5"):
        group = presets.get(name)
        automaton = build_pair_automaton(group)
        assert all(g == g_star for g, g_star in automaton.order)


def test_pair_witnesses_evaluate_correctly():
    S3 = presets.symmetric_3()
    automaton = build_pair_automaton(S3)
    for pair in automaton.order:
        u = automaton.witness(pair)
        assert S3.evaluate(u) == pair[0]
        assert S3.evaluate(reverse(u)) == pair[1]
        assert len(u) == automaton.depths[pair]


def test_klein_four_width_by_hand():
    # palindromic elements of Z/2 x Z/2 are exactly {e, a, b}: u c u = c
    k4 = presets.klein_four()
    pal = oracle_for(k4).palindromes.witnesses
    assert sorted(pal) == [0, 1, 2]
    report = exact_palindromic_width(k4)
    assert report.width == 2
    ab = k4.evaluate(Word.parse(k4.alphabet, "a*b"))
    assert report.witness == ab
    assert report.histogram() == {0: 1, 1: 2, 2: 1}


def test_palindrome_witnesses_are_sound():
    for name in SMALL_PRESETS:
        group = presets.get(name)
        pal = palindrome_set(build_pair_automaton(group))
        for element, word in pal.witnesses.items():
            assert is_palindrome(word) is not None
            assert group.evaluate(word) == element


@pytest.mark.parametrize("name", ["S3+c", "D4", "lamp(2,3)", "Z/5"])
def test_palindrome_witnesses_are_shortest(name):
    # independent oracle: every u.c.reverse(u) with u up to the automaton's depth
    group = presets.get(name.removesuffix("+c"))
    if name.endswith("+c"):
        group = group.with_extra_generator("c", group.evaluate(Word.parse(group.alphabet, "s*t")))
    oracle = oracle_for(group)
    letters = [Word(group.alphabet, [(i, s)]) for i in range(len(group.alphabet)) for s in (1, -1)]
    halves = level = [Word(group.alphabet)]
    for _ in range(max(oracle.automaton.depths.values())):
        level = [u * letter for u in level for letter in letters]
        halves = halves + level
    shortest: dict[int, int] = {}
    for u in halves:
        for core in [Word(group.alphabet)] + letters:
            word = u * core * reverse(u)
            element = group.evaluate(word)
            shortest[element] = min(shortest.get(element, len(word)), len(word))
    witnesses = oracle.palindromes.witnesses
    assert {e: len(w) for e, w in witnesses.items()} == shortest


class _CountingOrder(tuple):
    """An automaton's pair order that counts the pairs a scan takes from it."""

    def __iter__(self):
        self.taken = 0
        for pair in super().__iter__():
            self.taken += 1
            yield pair


def test_palindrome_set_stops_once_every_element_has_a_witness():
    S5 = FiniteGroup.from_permutations({"s": [2, 1, 3, 4, 5], "t": [2, 3, 4, 5, 1]})
    group = S5.with_extra_generator("c", S5.evaluate(Word.parse(S5.alphabet, "s*t")))
    automaton = build_pair_automaton(group)
    order = _CountingOrder(automaton.order)
    witnesses = palindrome_set(dataclasses.replace(automaton, order=order)).witnesses
    assert len(witnesses) == group.size
    last_level = len(list(witnesses.values())[-1]) // 2
    within = sum(1 for pair in automaton.order if automaton.depths[pair] <= last_level)
    # the scan reads one pair past the last level to see that level end, no more
    assert order.taken <= within + 1 < len(automaton.order)


def test_automaton_matches_naive_enumeration():
    for name in SMALL_PRESETS:
        group = presets.get(name)
        automaton_elements = frozenset(oracle_for(group).palindromes.witnesses)
        assert automaton_elements == naive_palindromic_elements(group), name


def test_width_bounded_by_max_geodesic_length():
    for name in SMALL_PRESETS:
        group = presets.get(name)
        assert exact_palindromic_width(group).width <= group.geodesics().max_length


def test_s3_has_no_asymmetric_relation_over_two_generators():
    # frozen from the exhaustive pair search: every relation of S3 over
    # {s, t} reverses to a relation, so the extension by c is required
    S3 = presets.symmetric_3()
    assert oracle_for(S3).asymmetric_relation() is None


def test_decompose_top_element():
    S3 = presets.symmetric_3()
    assert decompose_top_element(S3, S3.identity()) == []
    s = S3.evaluate(Word.parse(S3.alphabet, "s"))
    factors = decompose_top_element(S3, s)
    assert len(factors) == 1 and S3.evaluate(factors[0]) == s
    report = exact_palindromic_width(S3)
    witness_factors = decompose_top_element(S3, report.witness)
    assert len(witness_factors) == report.width
    certificate = verify_factorization(S3, report.witness, witness_factors)
    assert certificate.valid


def test_decompose_top_element_everywhere():
    for name in SMALL_PRESETS:
        group = presets.get(name)
        report = exact_palindromic_width(group)
        for element in group.elements():
            factors = decompose_top_element(group, element)
            assert len(factors) <= report.width
            assert verify_factorization(group, element, factors).valid


def test_generating_set_monotonicity():
    # width over an enlarged generating set never grows
    extras = {"S3": "s*t", "D4": "r^2", "Q8": "i^2"}
    for name, extra_word in extras.items():
        group = presets.get(name)
        value = group.evaluate(Word.parse(group.alphabet, extra_word))
        bigger = group.with_extra_generator("w_extra", value)
        assert (
            exact_palindromic_width(bigger).width
            <= exact_palindromic_width(group).width
        )


def test_quotient_width_bound():
    # finite quotients never have larger width: D4 -> Z2xZ2, Q8 -> Z2xZ2, S3 -> Z/2
    pairs = [
        ("D4", "Z2xZ2"),
        ("Q8", "Z2xZ2"),
    ]
    for source_name, target_name in pairs:
        source = presets.get(source_name)
        target = presets.get(target_name)
        assert (
            exact_palindromic_width(target).width
            <= exact_palindromic_width(source).width
        )


def test_width_bfs_not_generated():
    k4 = presets.klein_four()
    # moves {identity, a} cannot reach b
    with pytest.raises(NotGenerated):
        palindrome_width_bfs(k4, {0: Word(k4.alphabet), 1: Word.parse(k4.alphabet, "a")})


def test_verify_factorization_cases():
    S3 = presets.symmetric_3()
    ok = verify_factorization(S3, S3.identity(), [])
    assert ok.valid and ok.product_matches
    bad = verify_factorization(S3, S3.identity(), [Word.parse(S3.alphabet, "s*t")])
    assert not bad.valid and bad.reason == "NotPalindrome" and bad.failing_index == 0
    mismatch = verify_factorization(
        S3, S3.identity(), [Word.parse(S3.alphabet, "s")]
    )
    assert not mismatch.valid and mismatch.reason == "ProductMismatch"
    wrong_alphabet = verify_factorization(
        S3, S3.identity(), [Word.parse(FreeGroup(1).alphabet, "x1")]
    )
    assert not wrong_alphabet.valid and wrong_alphabet.reason == "AlphabetMismatch"


def test_random_products_of_palindromes_verify():
    rng = random.Random(12)
    S3 = presets.symmetric_3()
    pal = oracle_for(S3).palindromes.witnesses
    for _ in range(50):
        chosen = [rng.choice(list(pal.values())) for _ in range(rng.randint(0, 4))]
        target = S3.identity()
        for word in chosen:
            target = S3.multiply(target, S3.evaluate(word))
        assert verify_factorization(S3, target, chosen).valid
