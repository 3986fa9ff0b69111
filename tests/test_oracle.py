import random

import pytest
from hypothesis import given, settings, strategies as st

from palinwidth import (
    FiniteGroup,
    FreeGroup,
    Word,
    WreathProduct,
    build_pair_automaton,
    exact_palindromic_width,
    find_reversal_asymmetric_relation,
    is_palindrome,
    oracle_for,
    palindrome_set,
    reverse,
    verify_factorization,
)
from palinwidth import presets
from palinwidth.cli import group_from_def
from palinwidth.errors import NotGenerated
from palinwidth.groups import BreadthFirst
from palinwidth.oracle import PalindromeOracle, palindrome_width_bfs
from helpers import naive_palindromic_elements

SMALL_PRESETS = ["Z2xZ2", "S3", "D4", "Q8", "Z/5", "lamp(2,2)", "lamp(3,2)", "lamp(2,3)"]


def test_trivial_group_automaton():
    trivial = presets.cyclic(1, "e_gen")
    automaton = build_pair_automaton(trivial).run()
    assert len(automaton.order) == 1
    assert exact_palindromic_width(trivial).width == 0


def test_abelian_pairs_are_diagonal():
    for name in ("Z2xZ2", "Z/5"):
        group = presets.get(name)
        automaton = build_pair_automaton(group).run()
        assert len(automaton.order) == group.size
        assert all(g == g_star for g, g_star in automaton.order)


def test_pair_witnesses_evaluate_correctly():
    S3 = presets.symmetric_3()
    automaton = build_pair_automaton(S3)
    for pair in automaton:  # read lazily: every pair is discovered on the way
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
            assert is_palindrome(word)
            assert group.evaluate(word) == element


@pytest.mark.parametrize("name", ["S3+c", "D4", "lamp(2,3)", "Z/5"])
def test_palindrome_witnesses_are_shortest(name):
    # independent oracle: every u.c.reverse(u) with u up to the automaton's depth
    group = presets.get(name.removesuffix("+c"))
    if name.endswith("+c"):
        group = group.with_extra_generator("c", group.evaluate(Word.parse(group.alphabet, "s*t")))
    oracle = oracle_for(group)
    witnesses = oracle.palindromes.witnesses  # read before the search is run to completion
    letters = [Word(group.alphabet, [(i, s)]) for i in range(len(group.alphabet)) for s in (1, -1)]
    halves = level = [Word(group.alphabet)]
    for _ in range(max(oracle.automaton.run().depths.values())):
        level = [u * letter for u in level for letter in letters]
        halves = halves + level
    shortest: dict[int, int] = {}
    for u in halves:
        for core in [Word(group.alphabet)] + letters:
            word = u * core * reverse(u)
            element = group.evaluate(word)
            shortest[element] = min(shortest.get(element, len(word)), len(word))
    assert {e: len(w) for e, w in witnesses.items()} == shortest


def symmetric_5() -> FiniteGroup:
    return FiniteGroup.from_permutations({"s": [2, 1, 3, 4, 5], "t": [2, 3, 4, 5, 1]})


def symmetric_4() -> FiniteGroup:
    return FiniteGroup.from_permutations({"s": [2, 1, 3, 4], "t": [2, 3, 4, 1]})


def with_c(group: FiniteGroup) -> FiniteGroup:
    """The group with c = (first generator)(second generator, or the first again) added."""
    first, second = (group.generator_indices * 2)[:2]
    return group.with_extra_generator("c", group.multiply(first, second))


def within_depth(automaton, depth: int) -> int:
    """Pairs of a completed automaton at most depth steps from the start."""
    return sum(1 for d in automaton.depths.values() if d <= depth)


def test_palindrome_set_stops_once_every_element_has_a_witness():
    group = with_c(symmetric_5())
    automaton = build_pair_automaton(group)
    witnesses = palindrome_set(automaton).witnesses
    assert len(witnesses) == group.size
    last_level = len(list(witnesses.values())[-1]) // 2
    full = build_pair_automaton(group).run()
    # the scan discovers one pair past the last level to see that level end, no more
    assert len(automaton.order) <= within_depth(full, last_level) + 1 < len(full.order)


ORACLE_GROUPS = {
    **{name: lambda name=name: presets.get(name) for name in SMALL_PRESETS + ["lamp(2,4)"]},
    "S4": symmetric_4,
    "S5": symmetric_5,
}


@pytest.mark.parametrize(
    "name",
    sorted(ORACLE_GROUPS) + [name + "+c" for name in sorted(ORACLE_GROUPS) if name != "Z/5"],
)
def test_lazy_oracle_matches_completed_search(name):
    group = ORACLE_GROUPS[name.removesuffix("+c")]()
    if name.endswith("+c"):
        group = with_c(group)
    completed = PalindromeOracle(group)
    completed.automaton.run()
    relation_first = PalindromeOracle(group)
    relation_first.asymmetric_relation()
    palindromes_first = PalindromeOracle(group)
    expected_witnesses = list(completed.palindromes.witnesses.items())
    expected_width = completed.width()
    expected_relation = completed.asymmetric_relation()
    for oracle in (palindromes_first, relation_first):
        assert list(oracle.palindromes.witnesses.items()) == expected_witnesses
        assert oracle.width() == expected_width  # width, witness and every distance
        assert oracle.asymmetric_relation() == expected_relation


def test_relation_search_discovers_only_the_pairs_it_needs():
    group = with_c(symmetric_5())
    oracle = PalindromeOracle(group)
    relation = oracle.asymmetric_relation()
    full = build_pair_automaton(group).run()
    assert len(full.order) == 7200
    assert len(oracle.automaton.order) <= within_depth(full, len(relation) + 1)
    # with no asymmetric relation over their own generators, the search
    # extends by c and stops at the first relation of the extension
    for group, states in ((symmetric_5(), 7200), (presets.get("lamp(2,5)"), 2560)):
        witness = find_reversal_asymmetric_relation(group)
        assert witness.extra_generator is not None
        automaton = oracle_for(witness.group).automaton
        full = build_pair_automaton(witness.group).run()
        assert len(full.order) == states
        assert len(automaton.order) <= within_depth(full, len(witness.relation) + 1)
        assert len(automaton.order) * 20 < states


def test_automaton_matches_naive_enumeration():
    # the +c extensions read the automaton only until every element has a witness
    for name in SMALL_PRESETS:
        for group in (presets.get(name), with_c(presets.get(name))):
            automaton_elements = frozenset(oracle_for(group).palindromes.witnesses)
            assert automaton_elements == naive_palindromic_elements(group), name


def relabelled_symmetric(n: int, seed: int) -> FiniteGroup:
    """S_n on a transposition and an n-cycle, points renamed by a seeded shuffle as in oracle-cold."""
    rename = list(range(1, n + 1))
    random.Random(seed).shuffle(rename)  # point p is renamed rename[p - 1]

    def renamed(images: list[int]) -> list[int]:
        moved = [0] * n
        for point, image in enumerate(images, 1):
            moved[rename[point - 1] - 1] = rename[image - 1]
        return moved

    transposition = [2, 1] + list(range(3, n + 1))
    cycle = list(range(2, n + 1)) + [1]
    generators = {"s": renamed(transposition), "t": renamed(cycle)}
    return group_from_def({"kind": "finite", "generators": generators})


STOPPED_GROUPS = {
    **{
        name: lambda name=name: presets.get(name)
        for name in SMALL_PRESETS + ["lamp(2,4)", "lamp(3,3)", "lamp(2,5)"]
    },
    "S4": lambda: relabelled_symmetric(4, 7),
    "S5": lambda: relabelled_symmetric(5, 7),
}


@pytest.mark.parametrize("name", sorted(STOPPED_GROUPS) + [name + "+c" for name in sorted(STOPPED_GROUPS)])
def test_searches_stop_at_the_group_order(name, monkeypatch):
    group = STOPPED_GROUPS[name.removesuffix("+c")]()
    if name.endswith("+c"):
        group = with_c(group)
        # an extension's geodesics come from the letter search, stopped at |G|
        values = group.letter_values()
        letters = BreadthFirst(0, list(values), lambda x, letter: group.multiply(x, values[letter]))
        letters.run()
        assert group.geodesics() == tuple(
            Word(group.alphabet, letters.path(x)) for x in group.elements()
        )
    witnesses = oracle_for(group).palindromes.witnesses
    moves = [m for m in witnesses if not group.is_identity(m)]
    completed = BreadthFirst(group.identity(), moves, group.multiply).run()
    steps = []
    multiply = group.multiply
    monkeypatch.setattr(group, "multiply", lambda a, b: steps.append(a) or multiply(a, b))
    stopped = palindrome_width_bfs(group, witnesses)
    assert len(stopped.order) == group.size
    assert stopped.order == completed.order
    assert stopped.parents == completed.parents and stopped.depths == completed.depths
    # the completed search expands all |G| nodes; the stopped one never expands the last
    assert 0 < len(steps) <= (group.size - 1) * len(moves)


@pytest.mark.parametrize("name", ["S5+c", "lamp(2,5)"])
def test_witness_words_are_built_only_when_read(name):
    group = STOPPED_GROUPS[name.removesuffix("+c")]()
    if name.endswith("+c"):
        group = with_c(group)
    report = exact_palindromic_width(group)
    oracle = oracle_for(group)
    witnesses = oracle.palindromes.witnesses
    assert len(witnesses) > report.width and len(witnesses._words) == 0
    factors = oracle.decompose(report.witness)
    assert verify_factorization(group, report.witness, factors).valid
    assert 0 < len(witnesses._words) <= report.width
    automaton = oracle.automaton
    for element, (pair, centre) in witnesses._sources.items():
        u = automaton.witness(pair)
        core = Word(group.alphabet, [centre] if centre is not None else [])
        assert witnesses[element] == u * core * reverse(u)
    assert len(witnesses._words) == len(witnesses)


def test_width_bounded_by_max_geodesic_length():
    for name in SMALL_PRESETS:
        group = presets.get(name)
        assert exact_palindromic_width(group).width <= max(map(len, group.geodesics()))


def test_s3_has_no_asymmetric_relation_over_two_generators():
    # frozen from the exhaustive pair search: every relation of S3 over
    # {s, t} reverses to a relation, so the extension by c is required
    S3 = presets.symmetric_3()
    assert oracle_for(S3).asymmetric_relation() is None


def test_oracle_decompose():
    S3 = presets.symmetric_3()
    oracle = oracle_for(S3)
    assert oracle.decompose(S3.identity()) == []
    s = S3.evaluate(Word.parse(S3.alphabet, "s"))
    factors = oracle.decompose(s)
    assert len(factors) == 1 and S3.evaluate(factors[0]) == s
    report = exact_palindromic_width(S3)
    witness_factors = oracle.decompose(report.witness)
    assert len(witness_factors) == report.width
    certificate = verify_factorization(S3, report.witness, witness_factors)
    assert certificate.valid


def test_oracle_decompose_everywhere():
    for name in SMALL_PRESETS:
        group = presets.get(name)
        report = exact_palindromic_width(group)
        for element in group.elements():
            factors = oracle_for(group).decompose(element)
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
    assert ok.valid and ok.to_dict()["product_matches"]
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


def reference_certificate(group, target, factors) -> tuple:
    """(valid, centers, failing_index, reason) from is_palindrome and a fold of evaluate.

    Each centre is named here from the factor's middle letter.
    """
    centers = []
    for i, factor in enumerate(factors):
        if factor.alphabet != group.alphabet:
            return False, tuple(centers), i, "AlphabetMismatch"
        if not is_palindrome(factor):
            return False, tuple(centers), i, "NotPalindrome"
        center = None
        if len(factor) % 2:
            index, sign = factor.letters[len(factor) // 2]
            center = group.alphabet.names[index] + ("" if sign == 1 else "^-1")
        centers.append(center)
    product = group.identity()
    for factor in factors:
        product = group.multiply(product, group.evaluate(factor))
    if not group.equal(product, target):
        return False, tuple(centers), None, "ProductMismatch"
    return True, tuple(centers), None, None


@st.composite
def _factor_lists(draw, alphabet, foreign):
    """Palindromes, some with one letter's sign flipped, and maybe one foreign palindrome."""
    letter = st.tuples(st.integers(0, len(alphabet) - 1), st.sampled_from((1, -1)))
    factors = []
    for _ in range(draw(st.integers(0, 6))):
        half = draw(st.lists(letter, max_size=4))
        letters = half + draw(st.lists(letter, max_size=1)) + half[::-1]
        if letters and draw(st.booleans()):
            i = draw(st.integers(0, len(letters) - 1))
            letters[i] = (letters[i][0], -letters[i][1])
        factors.append(Word(alphabet, letters))
    if draw(st.booleans()):
        factors.insert(draw(st.integers(0, len(factors))), Word.parse(foreign, "s*t^-1*s"))
    return factors


F2_WR_S3 = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_factorization_matches_its_reference(data):
    # the certificate reads each factor's palindrome test and centre off its letters
    wreath = F2_WR_S3
    factors = data.draw(_factor_lists(wreath.alphabet, wreath.top.alphabet))
    target = wreath.identity()
    if data.draw(st.booleans()):
        for factor in factors:
            if factor.alphabet == wreath.alphabet:
                target = wreath.multiply(target, wreath.evaluate(factor))
    got = verify_factorization(wreath, target, factors)
    expected = reference_certificate(wreath, target, factors)
    assert (got.valid, got.centers, got.failing_index, got.reason) == expected
