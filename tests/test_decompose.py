import random

import pytest

import palinwidth.decompose as decompose_module
from palinwidth import (
    AbelianProductGroup,
    AbelianizedFreeGroup,
    CommutatorData,
    CommutatorSite,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    PairAutomaton,
    RelationWitness,
    Word,
    WreathProduct,
    abelianize,
    commutator_word,
    decompose_abelian_element,
    decompose_commutator_abelian_top,
    decompose_commutator_pair,
    decompose_derived_wreath,
    decompose_finite_top_abelianized,
    decompose_full_finite_top,
    decompose_shifted_commutators,
    exact_palindromic_width,
    express_in_derived,
    find_reversal_asymmetric_relation,
    invert,
    is_palindrome,
    oracle_for,
    push_factorization,
    quotient_map,
    relabel,
    reverse,
    sandwich,
    verify_factorization,
)
from palinwidth import presets
from palinwidth.errors import (
    AbelianGroup,
    GroupDefinitionError,
    InvalidWitness,
    NoInfiniteOrderGenerator,
    NoValidShift,
    NotAbelian,
    PalinwidthError,
    ReverseNotTrivial,
)
from helpers import random_word


def f2z2():
    return WreathProduct(FreeAbelianGroup(2), FreeGroup(names=["y1", "y2"]))


def f2z1():
    return WreathProduct(FreeAbelianGroup(1), FreeGroup(names=["y1", "y2"]))


def s3_wreath():
    s3 = presets.symmetric_3()
    witness = find_reversal_asymmetric_relation(s3)
    return WreathProduct(witness.group, FreeGroup(names=["y1", "y2"])), witness


# ---------------------------------------------------------------------------
# abelian elements


def test_abelian_element_examples():
    Z2 = FreeAbelianGroup(2)
    empty = decompose_abelian_element(Z2, (0, 0))
    assert empty.factors == () and empty.verified
    fact = decompose_abelian_element(Z2, (3, -2))
    assert [str(w) for w in fact.factors] == ["t1^3", "t2^-2"]
    assert fact.verified


def test_abelian_element_random_rank_5():
    Z5 = FreeAbelianGroup(5)
    rng = random.Random(13)
    for _ in range(50):
        vector = tuple(rng.randint(-6, 6) for _ in range(5))
        fact = decompose_abelian_element(Z5, vector)
        assert fact.count <= 5 and fact.verified


def test_abelian_element_product_handle():
    group = AbelianProductGroup(1, presets.cyclic(4, "u"), free_names=["x"])
    rng = random.Random(14)
    for _ in range(50):
        value = group.evaluate(random_word(rng, group.alphabet, 10))
        fact = decompose_abelian_element(group, value)
        assert fact.count <= 2 and fact.verified


ABELIAN_BACKENDS = {
    "Z^3": lambda: FreeAbelianGroup(3),
    "abelianized F2": lambda: AbelianizedFreeGroup(2),
    "Z^2 x K4": lambda: AbelianProductGroup(2, presets.klein_four()),
    "K4": presets.klein_four,
    "Z/6": lambda: presets.cyclic(6),
    "F1": lambda: FreeGroup(1),
    "BS(1,1)": lambda: presets.baumslag_solitar(1, 1),
    "Z/3 wr Z^0": lambda: WreathProduct(FreeAbelianGroup(0), presets.cyclic(3, "y")),
    "Z/1 wr Z/3": lambda: WreathProduct(presets.cyclic(3, "z"), presets.cyclic(1, "e")),
}


@pytest.mark.parametrize("name", list(ABELIAN_BACKENDS))
def test_abelian_element_every_backend(name):
    # one power word per generator, its exponent the word's exponent sum
    group = ABELIAN_BACKENDS[name]()
    assert group.is_abelian()
    rng = random.Random(15)
    for _ in range(40):
        word = random_word(rng, group.alphabet, 12)
        fact = decompose_abelian_element(group, group.evaluate(word))
        assert fact.verified and fact.count <= len(group.alphabet) == fact.bound_claimed
        for factor in fact.factors:
            [(_, exponent)] = factor.blocks()
            assert exponent and len(factor) == abs(exponent)
    first = group.evaluate(Word.from_blocks(group.alphabet, [(0, 1)]))
    assert [str(w) for w in decompose_abelian_element(group, first).factors] == [
        group.alphabet.names[0]
    ]


@pytest.mark.parametrize(
    "group",
    [presets.symmetric_3(), FreeGroup(2), WreathProduct(presets.cyclic(3, "z"), presets.cyclic(2, "y"))],
    ids=["S3", "F2", "Z/2 wr Z/3"],
)
def test_abelian_element_refuses_non_abelian(group):
    with pytest.raises(NotAbelian):
        decompose_abelian_element(group, group.identity())


# ---------------------------------------------------------------------------
# commutators over abelian tops


def test_commutator_abelian_top_even_structure():
    wreath = f2z2()
    a = Word.parse(wreath.alphabet, "y1*y2^-1")
    fact = decompose_commutator_abelian_top(wreath, a, [3, -2])
    assert fact.count == 4 and fact.verified
    expected = [
        sandwich(invert(a), Word.parse(wreath.alphabet, "t2^2")),
        sandwich(reverse(a), Word.parse(wreath.alphabet, "t1^-3")),
        Word.parse(wreath.alphabet, "t1^3"),
        Word.parse(wreath.alphabet, "t2^-2"),
    ]
    assert list(fact.factors) == expected
    t_word = Word.parse(wreath.alphabet, "t1^3*t2^-2")
    assert wreath.equal(fact.target, wreath.evaluate(commutator_word(a, t_word)))


def test_commutator_abelian_top_odd_structure():
    wreath = f2z1()
    a = Word.parse(wreath.alphabet, "y2*y1")
    fact = decompose_commutator_abelian_top(wreath, a, [4])
    assert fact.count == 3 and fact.verified
    assert fact.factors[1] == reverse(a) * a


def test_commutator_abelian_top_empty_base_word():
    wreath = f2z2()
    fact = decompose_commutator_abelian_top(wreath, Word(wreath.alphabet), [2, 5])
    assert fact.verified
    assert wreath.is_identity(fact.target)


def test_commutator_abelian_top_errors():
    wreath = f2z2()
    with pytest.raises(GroupDefinitionError):
        decompose_commutator_abelian_top(wreath, Word(wreath.alphabet), [1])
    top_word = Word.parse(wreath.alphabet, "t1")
    with pytest.raises(GroupDefinitionError):
        decompose_commutator_abelian_top(wreath, top_word, [1, 0])


def test_commutator_pair():
    wreath = f2z2()
    a = Word.parse(wreath.alphabet, "y1")
    b = Word.parse(wreath.alphabet, "y2*y1")
    fact = decompose_commutator_pair(wreath, a, b, [1, -2])
    assert fact.count <= 8 and fact.verified


def test_commutator_pair_trivial_words():
    wreath = f2z2()
    empty = Word(wreath.alphabet)
    fact = decompose_commutator_pair(wreath, empty, empty, [2, 1])
    assert wreath.is_identity(fact.target) and fact.verified


# ---------------------------------------------------------------------------
# relation search


def test_relation_bs12():
    witness = find_reversal_asymmetric_relation(presets.get("BS(1,2)"))
    assert str(witness.relation) == "a^-1*b*a*b^-2"
    assert witness.extra_generator is None
    group = witness.group
    assert not group.is_identity(witness.reverse_value)


def test_relation_abelian_refused():
    with pytest.raises(AbelianGroup):
        find_reversal_asymmetric_relation(presets.get("Z2xZ2"))
    with pytest.raises(AbelianGroup):
        find_reversal_asymmetric_relation(presets.get("BS(1,1)"))


def test_relation_bs_equal_exponents_refused():
    # the defining relator, the search's only candidate, reverses to a relation
    for name in ["BS(2,2)", "BS(2,-2)", "BS(1,-1)", "BS(-1,1)"]:
        with pytest.raises(InvalidWitness, match=r"reverses to a relation when \|n\| = \|m\|"):
            find_reversal_asymmetric_relation(presets.get(name))


def test_relation_s3_requires_extension():
    # frozen from the exhaustive search: S3 over {s, t} has no asymmetric
    # relation, the extension c = s*t yields the 3-letter witness s*t*c
    S3 = presets.symmetric_3()
    witness = find_reversal_asymmetric_relation(S3)
    assert witness.extra_generator is not None
    name, value = witness.extra_generator
    assert name == "c"
    assert value == S3.evaluate(Word.parse(S3.alphabet, "s*t"))
    assert str(witness.relation) == "s*t*c"
    group = witness.group
    assert group.is_identity(group.evaluate(witness.relation))
    assert not group.is_identity(group.evaluate(reverse(witness.relation)))


def test_relation_search_reuses_the_extended_top():
    # one extended handle per (name, element), so its cached oracle is reused
    S3 = presets.symmetric_3()
    first = find_reversal_asymmetric_relation(S3)
    second = find_reversal_asymmetric_relation(S3)
    assert first.extra_generator is not None
    assert first.group is second.group


def test_relation_q8():
    # Q8 is non-abelian; either an immediate witness or one after extension
    witness = find_reversal_asymmetric_relation(presets.quaternion_8())
    group = witness.group
    assert group.is_identity(group.evaluate(witness.relation))
    assert not group.is_identity(group.evaluate(reverse(witness.relation)))


@pytest.mark.parametrize(
    "name", ["S3", "D4", "Q8", "lamp(2,2)", "lamp(2,3)", "lamp(3,2)", "lamp(3,3)", "lamp(2,5)"]
)
def test_the_extension_by_c_has_a_relation_of_at_most_3_letters(name):
    # with c = x*y for the first non-commuting generators x, y, x*y*c^-1 is a
    # relation and c^-1*y*x = [y, x] is not, so the exact search always finds one
    group = presets.get(name)
    x, y = group.non_commuting_pair()
    extended = group.with_extra_generator("c", group.multiply(x, y))
    relation = oracle_for(extended).asymmetric_relation()
    assert relation is not None and len(relation) <= 3
    assert extended.is_identity(extended.evaluate(relation))
    assert not extended.is_identity(extended.evaluate(reverse(relation)))


# ---------------------------------------------------------------------------
# derived wreath (single-palindrome construction)


def base_words(wreath, *texts):
    return tuple(Word.parse(wreath.base.alphabet, t) for t in texts)


def test_derived_wreath_empty():
    wreath, witness = s3_wreath()
    fact = decompose_derived_wreath(
        wreath, CommutatorData(()), wreath.top.identity(), witness
    )
    assert fact.factors == () and fact.verified


def test_derived_wreath_single_commutator():
    wreath, witness = s3_wreath()
    f, g = base_words(wreath, "y1", "y2")
    data = CommutatorData((CommutatorSite(wreath.top.identity(), ((f, g),)),))
    fact = decompose_derived_wreath(wreath, data, wreath.top.identity(), witness)
    assert fact.count == 1 and fact.verified
    carrier = fact.factors[0]
    assert is_palindrome(carrier)
    value = wreath.evaluate(carrier)
    expected = wreath.base.evaluate(commutator_word(f, g))
    assert wreath.top.is_identity(value.top)
    assert wreath.base.equal(value.base[wreath.top.identity()], expected)


def test_derived_wreath_reverse_of_carrier_is_trivial():
    wreath, witness = s3_wreath()
    rng = random.Random(15)
    for _ in range(25):
        positions = rng.sample(range(wreath.top.size), rng.randint(1, 3))
        sites = tuple(
            CommutatorSite(
                p,
                tuple(
                    (random_word(rng, wreath.base.alphabet, 4),
                     random_word(rng, wreath.base.alphabet, 4))
                    for _ in range(rng.randint(1, 2))
                ),
            )
            for p in positions
        )
        fact = decompose_derived_wreath(
            wreath, CommutatorData(sites), rng.randrange(wreath.top.size), witness
        )
        assert fact.verified
        assert fact.count <= fact.bound_claimed


def counted_products(monkeypatch) -> list:
    """Record every Word product from here on; chained products copy the whole prefix each time."""
    products = []

    def counting(self, other):
        products.append(other)
        return Word(self.alphabet, self.letters + other.letters)

    monkeypatch.setattr(Word, "__mul__", counting)
    return products


def test_carrier_is_joined_once(monkeypatch):
    # h = prod_site pos^-1 (prod_pair f^-1 r^-1 g^-1 r f r^-1 g r) pos, built as one
    # letter list; so are the shifted construction's kappa_j and tau_j, pushed
    # words and element words
    wreath, witness = s3_wreath()
    f, g = base_words(wreath, "y1*y2", "y2^-1")
    data = CommutatorData((CommutatorSite(2, ((f, g),)), CommutatorSite(4, ((g, f), (f, f)))))
    r = relabel(witness.relation, wreath.alphabet)
    expected = Word(wreath.alphabet)
    for site in data.sites:
        position = relabel(wreath.top.element_word(site.position), wreath.alphabet)
        inner = Word(wreath.alphabet)
        for a, b in site.pairs:
            a, b = relabel(a, wreath.alphabet), relabel(b, wreath.alphabet)
            inner = inner * invert(a) * invert(r) * invert(b) * r * a * invert(r) * b * r
        expected = expected * invert(position) * inner * position

    shifted = sz_wreath()
    s, t = base_words(shifted, "s", "t")
    # positions 1 and 4 collide with the first shifts (see test_shifted_retries_on_collision)
    shifted_data = CommutatorData((CommutatorSite((1,), ((s, t), (t, s))), CommutatorSite((4,), ((t, s),))))
    conjugated = []  # kappa_j and tau_j as chained products
    for j in range(shifted_data.max_pairs()):
        for which in (0, 1):
            out = Word(shifted.alphabet)
            for site in shifted_data.sites:
                if j < len(site.pairs):
                    position = relabel(shifted.top.element_word(site.position), shifted.alphabet)
                    out = out * invert(position) * relabel(site.pairs[j][which], shifted.alphabet) * position
            conjugated.append(out)

    hom = quotient_map(FreeGroup(2), presets.symmetric_3(), ["s*t", "t^-1"])
    source_word = Word.parse(hom.source.alphabet, "x1*x2^-1*x1^2")
    expected_pushed = Word(hom.target.alphabet)
    for index, sign in source_word.letters:
        image = hom.images[index]
        expected_pushed = expected_pushed * (image if sign > 0 else invert(image))

    lamp = wreath.base.evaluate(Word.parse(wreath.base.alphabet, "y1*y2^-1"))
    element = wreath.element(3, [(p, lamp) for p in range(1, 5)])
    # top word, then each lamp conjugated to its position p.top, in canonical order
    expected_element_word = relabel(wreath.top.element_word(element.top), wreath.alphabet)
    for position in sorted(wreath.top.multiply(p, element.top) for p in element.base):
        conj = relabel(wreath.top.element_word(position), wreath.alphabet)
        value_word = relabel(wreath.base.element_word(lamp), wreath.alphabet)
        expected_element_word = expected_element_word * invert(conj) * value_word * conj

    products = counted_products(monkeypatch)
    assert decompose_module._carrier(wreath, data, witness) == expected
    assert hom.push_word(source_word) == expected_pushed
    assert wreath.element_word(element) == expected_element_word
    assert products == []
    fact = decompose_shifted_commutators(shifted, shifted_data, (0,))
    # three per commutator word of the target, then only the four sandwiches
    # per commutator index, two products each, per attempt
    pairs = sum(len(site.pairs) for site in shifted_data.sites)
    attempts = fact.meta["retries"] + 1
    assert len(products) == 3 * pairs + 2 * 4 * shifted_data.max_pairs() * attempts
    assert fact.verified and fact.meta["retries"] >= 1
    _, q, y = fact.meta["shift"]

    def power(exponent):
        return Word.letter(shifted.alphabet, "x", exponent)

    for j in range(shifted_data.max_pairs()):
        kappa, tau = conjugated[2 * j], conjugated[2 * j + 1]
        first, _, third, _, fifth, _, seventh = fact.factors[7 * j:7 * j + 7]
        assert first == sandwich(invert(kappa), power(-q))
        assert third == sandwich(invert(tau), power(-y))
        assert fifth == sandwich(reverse(kappa), power(q))
        assert seventh == sandwich(reverse(tau), power(y))


def test_derived_wreath_bound_is_width_plus_one():
    wreath, witness = s3_wreath()
    width = exact_palindromic_width(wreath.top).width
    f, g = base_words(wreath, "y1*y2", "y2^-1")
    data = CommutatorData((CommutatorSite(2, ((f, g),)),))
    for top_value in wreath.top.elements():
        fact = decompose_derived_wreath(wreath, data, top_value, witness)
        assert fact.count <= width + 1
        assert fact.bound_claimed == width + 1


def count_certificates(monkeypatch) -> list:
    calls = []

    def counting(*args):
        calls.append(args)
        return verify_factorization(*args)

    monkeypatch.setattr(decompose_module, "verify_factorization", counting)
    return calls


def test_each_reported_result_is_certified_once(monkeypatch):
    # the final certificate covers the cursor walk and the carrier palindrome,
    # so neither is certified on its own first
    wreath, witness = s3_wreath()
    f, g = base_words(wreath, "y1*y2", "y2^-1")
    data = CommutatorData((CommutatorSite(2, ((f, g),)), CommutatorSite(4, ((g, f), (f, f)))))
    calls = count_certificates(monkeypatch)
    fact = decompose_derived_wreath(wreath, data, 3, witness)
    assert fact.verified and len(calls) == 1
    narrow = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    for text in ("1", "y1", "y1*s*y2*s*y1^-1*y2^-1", "t*y1^2*s*y2^-1*t^-1*y1*y2*s*y1^-1*t"):
        calls.clear()
        fact = decompose_full_finite_top(narrow, Word.parse(narrow.alphabet, text), witness)
        assert fact.verified and len(calls) == 1
        assert calls[0][1] is fact.target
    # the top powers that open a shifted factorization are not certified on their own
    shifted = sz_wreath()
    f, g = base_words(shifted, "s", "t")
    calls.clear()
    data = CommutatorData((CommutatorSite((2,), ((f, g),)),))
    fact = decompose_shifted_commutators(shifted, data, (3,))
    assert fact.verified and fact.meta["retries"] == 0 and len(calls) == 1


def test_derived_wreath_rejects_bad_witness():
    wreath, _ = s3_wreath()
    bogus = RelationWitness(
        group=wreath.top,
        relation=Word.parse(wreath.top.alphabet, "s*s"),
    )
    with pytest.raises(InvalidWitness):
        decompose_derived_wreath(wreath, CommutatorData(()), 0, bogus)


def test_derived_wreath_reverse_check_guards_bad_relations(monkeypatch):
    # force a relation whose reverse is also a relation through validation:
    # the f- and g-blocks land on one position and stop cancelling, so the
    # reverse-evaluation guard fires
    wreath, witness = s3_wreath()
    monkeypatch.setattr(decompose_module, "_validate_witness", lambda top, w: None)
    broken = RelationWitness(
        group=witness.group,
        relation=Word.parse(witness.group.alphabet, "s*s"),
    )
    f, g = base_words(wreath, "y1", "y2")
    data = CommutatorData((CommutatorSite(0, ((f, g),)),))
    with pytest.raises(ReverseNotTrivial):
        decompose_derived_wreath(wreath, data, 0, broken)


# ---------------------------------------------------------------------------
# shifted commutators


def sz_wreath():
    return WreathProduct(FreeAbelianGroup(1, names=["x"]), presets.symmetric_3())


def test_shifted_single_commutator():
    wreath = sz_wreath()
    f, g = base_words(wreath, "s", "t")
    data = CommutatorData((CommutatorSite((2,), ((f, g),)),))
    fact = decompose_shifted_commutators(wreath, data, (3,))
    assert fact.verified
    assert fact.count == 8  # one top power plus seven shifted factors
    assert fact.bound_claimed == 1 + 7


def test_shifted_empty_data():
    wreath = sz_wreath()
    fact = decompose_shifted_commutators(wreath, CommutatorData(()), (-2,))
    assert [str(w) for w in fact.factors] == ["x^-2"]
    assert fact.verified


def test_shifted_retries_on_collision(monkeypatch):
    # position 1 collides with the first two shifts (y - a = a at q=1, y=2
    # and q - a = a at q=2, y=4), so at least two retries are needed
    wreath = sz_wreath()
    f, g = base_words(wreath, "s", "t")
    data = CommutatorData((CommutatorSite((1,), ((f, g),)),))
    fact = decompose_shifted_commutators(wreath, data, (0,))
    assert fact.verified
    assert fact.meta["retries"] >= 1
    monkeypatch.setattr(decompose_module, "MAX_SHIFT_RETRIES", 0)
    with pytest.raises(NoValidShift):
        decompose_shifted_commutators(wreath, data, (0,))


def test_shifted_needs_infinite_order_generator():
    finite_top = WreathProduct(presets.cyclic(3, "z"), presets.symmetric_3())
    with pytest.raises(NoInfiniteOrderGenerator):
        decompose_shifted_commutators(finite_top, CommutatorData(()), finite_top.top.identity())
    trivial_top = WreathProduct(FreeGroup(0), presets.symmetric_3())
    with pytest.raises(NoInfiniteOrderGenerator):
        decompose_shifted_commutators(trivial_top, CommutatorData(()), trivial_top.top.identity())


def test_shifted_abelian_product_top():
    top = AbelianProductGroup(1, presets.cyclic(2, "u"), free_names=["x"])
    wreath = WreathProduct(top, presets.symmetric_3())
    f, g = base_words(wreath, "s", "t*s")
    position = top.evaluate(Word.parse(top.alphabet, "x^-1*u"))
    data = CommutatorData((CommutatorSite(position, ((f, g),)),))
    fact = decompose_shifted_commutators(wreath, data, top.identity())
    assert fact.verified and fact.count <= 2 + 7


# ---------------------------------------------------------------------------
# finite tops


def z2s3_wreath():
    return WreathProduct(
        presets.symmetric_3(), AbelianizedFreeGroup(names=["y1", "y2"])
    )


def test_finite_top_abelianized_identity():
    wreath = z2s3_wreath()
    fact = decompose_finite_top_abelianized(wreath, wreath.identity())
    assert fact.factors == () and fact.verified


def test_finite_top_abelianized_single_lamp():
    wreath = z2s3_wreath()
    element = wreath.lamp(wreath.top.identity(), (1, 0))
    fact = decompose_finite_top_abelianized(wreath, element)
    assert fact.count == 1 and fact.verified
    assert str(fact.factors[0]) == "y1"


def test_finite_top_abelianized_random():
    wreath = z2s3_wreath()
    rng = random.Random(16)
    for _ in range(30):
        element = wreath.element(
            rng.randrange(6),
            [
                (p, (rng.randint(-3, 3), rng.randint(-3, 3)))
                for p in rng.sample(range(6), rng.randint(0, 6))
            ],
        )
        fact = decompose_finite_top_abelianized(wreath, element)
        assert fact.verified and fact.count <= fact.bound_claimed


def test_finite_top_abelianized_refuses_other_factors():
    infinite_top = WreathProduct(FreeAbelianGroup(1), AbelianizedFreeGroup(names=["y1", "y2"]))
    with pytest.raises(GroupDefinitionError, match="finite top required"):
        decompose_finite_top_abelianized(infinite_top, infinite_top.identity())
    free_base = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    with pytest.raises(GroupDefinitionError, match="vector-valued base required"):
        decompose_finite_top_abelianized(free_base, free_base.identity())


def test_commutator_target_refuses_a_top_word():
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    top_word = Word.parse(wreath.top.alphabet, "s")
    (base_word,) = base_words(wreath, "y1")
    data = CommutatorData((CommutatorSite(0, ((top_word, base_word),)),))
    with pytest.raises(GroupDefinitionError, match="commutator arguments must be base words"):
        decompose_module.commutator_target(wreath, data, 0)


def test_full_finite_top_trivial_cases():
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    empty = decompose_full_finite_top(wreath, Word(wreath.alphabet))
    assert empty.factors == () and empty.verified
    single = decompose_full_finite_top(wreath, Word.parse(wreath.alphabet, "y1"))
    assert single.count == 1 and single.verified
    assert single.meta["derived_factors"] == 0


def test_full_finite_top_random():
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    rng = random.Random(17)
    for _ in range(10):
        word = random_word(rng, wreath.alphabet, 30)
        fact = decompose_full_finite_top(wreath, word)
        assert fact.verified
        assert fact.count <= 2 * (2 * 6 + 1) + 1


def test_full_finite_top_long_lamp_has_a_linear_carrier():
    # the lamp y1^k*y2*y1^-k*y2^-1 is one commutator, so the carrier palindrome
    # grows by 4 letters per unit of k (twice in h, twice in reverse(h))
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    first = None
    for k in (1, 10, 100, 1000):
        word = Word.parse(wreath.alphabet, f"t*y1^{k}*y2*y1^-{k}*y2^-1")
        fact = decompose_full_finite_top(wreath, word)
        assert fact.verified and fact.meta["derived_factors"] == 1
        assert verify_factorization(fact.meta["wreath"], fact.target, fact.factors).valid
        first = first or len(fact.factors[-1])
        assert len(fact.factors[-1]) == first + 4 * (k - 1)


def test_full_finite_top_refuses_a_witness_over_another_group():
    # D4 extended by c = s*t gives the relation s*t*c; over an S3 top it used
    # to certify the word's value in D4 wr F2 (top 7) instead of S3 wr F2 (top 3)
    d4 = FiniteGroup.from_permutations([("s", [2, 3, 4, 1]), ("t", [3, 2, 1, 4])])
    witness = find_reversal_asymmetric_relation(d4)
    assert str(witness.relation) == "s*t*c" and witness.group.size == 8
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    word = Word.parse(wreath.alphabet, "s*y1*t*y2*s^-1")
    with pytest.raises(InvalidWitness):
        decompose_full_finite_top(wreath, word, witness)
    # the same top under another handle, and its extension by c, are accepted
    for group in (presets.symmetric_3(), s3_wreath()[1].group):
        other = find_reversal_asymmetric_relation(group)
        fact = decompose_full_finite_top(wreath, word, other)
        assert fact.verified and fact.target.top == wreath.evaluate(word).top


def test_full_finite_top_evaluates_the_word_and_the_certificate_only(monkeypatch):
    # finite-top evaluates its input and its certificate, derived its certificate:
    # the cursor walk returns its own value and reverse(h) is read on refusal only
    calls = []
    evaluate = WreathProduct.evaluate
    monkeypatch.setattr(WreathProduct, "evaluate", lambda self, w: calls.append(w) or evaluate(self, w))
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    witness = find_reversal_asymmetric_relation(wreath.top)
    rng = random.Random(22)
    words = [Word(wreath.alphabet), Word.parse(wreath.alphabet, "y1^-1*y2^-1*y1*y2")]
    for word in words + [random_word(rng, wreath.alphabet, 30) for _ in range(10)]:
        for given in (None, witness):
            calls.clear()
            assert decompose_full_finite_top(wreath, word, given).verified
            assert len(calls) == 2
    wide, witness = s3_wreath()
    f, g = base_words(wide, "y1", "y2")
    calls.clear()
    data = CommutatorData((CommutatorSite(0, ((f, g),)), CommutatorSite(2, ((g, f),))))
    assert decompose_derived_wreath(wide, data, 3, witness).verified
    assert len(calls) == 1


def test_full_finite_top_builds_its_per_top_state_once(monkeypatch):
    # relation=auto: the relation search, the extension by c and the wreath product
    # over it belong to the top handle, so only the first call builds any of them
    wreath = WreathProduct(
        FiniteGroup.from_permutations({"s": [2, 1, 3, 4], "t": [2, 3, 4, 1]}),
        FreeGroup(names=["y1", "y2"]),
    )
    built = []

    def counted(method, what):
        return lambda self, *args: built.append(what) or method(self, *args)

    monkeypatch.setattr(FiniteGroup, "__init__", counted(FiniteGroup.__init__, FiniteGroup))
    monkeypatch.setattr(WreathProduct, "__init__", counted(WreathProduct.__init__, WreathProduct))
    monkeypatch.setattr(PairAutomaton, "__iter__", counted(PairAutomaton.__iter__, PairAutomaton))
    rng = random.Random(23)
    for call in range(10):
        built.clear()
        fact = decompose_full_finite_top(wreath, random_word(rng, wreath.alphabet, 40, 20))
        assert fact.verified and fact.meta["witness"].extra_generator is not None
        assert (PairAutomaton in built) if call == 0 else built == []


def test_full_finite_top_reverse_check_guards_bad_relations(monkeypatch):
    # the finite-top twin of test_derived_wreath_reverse_check_guards_bad_relations:
    # s*s reverses to a relation, so the carrier of a non-trivial residual
    # does not reverse to 1, the certificate is refused and the guard names why
    monkeypatch.setattr(decompose_module, "_validate_witness", lambda top, w: None)
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    broken = RelationWitness(group=wreath.top, relation=Word.parse(wreath.top.alphabet, "s*s"))
    with pytest.raises(ReverseNotTrivial):
        decompose_full_finite_top(wreath, Word.parse(wreath.alphabet, "y1^-1*y2^-1*y1*y2"), broken)
    # a trivial residual needs no carrier, so the same witness certifies
    fact = decompose_full_finite_top(wreath, Word.parse(wreath.alphabet, "s*y1*t*y2^-1"), broken)
    assert fact.verified and fact.meta["derived_factors"] == 0


def test_a_witness_is_checked_where_a_caller_passes_it(monkeypatch):
    # the relation search's own witness is exact and is not checked again;
    # a witness a caller passes is checked once per call
    checked = []
    validate = decompose_module._validate_witness
    monkeypatch.setattr(
        decompose_module, "_validate_witness", lambda top, w: checked.append(w) or validate(top, w)
    )
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    word = Word.parse(wreath.alphabet, "y1^-1*y2^-1*y1*y2*s")
    assert decompose_full_finite_top(wreath, word).verified and checked == []
    witness = find_reversal_asymmetric_relation(wreath.top)
    assert decompose_full_finite_top(wreath, word, witness).verified and checked == [witness]
    not_a_relation = witness._replace(relation=Word.parse(witness.group.alphabet, "s*t"))
    with pytest.raises(InvalidWitness, match="not a relation"):
        decompose_full_finite_top(wreath, word, not_a_relation)
    derived, derived_witness = s3_wreath()
    f, g = base_words(derived, "y1", "y2")
    checked.clear()
    data = CommutatorData((CommutatorSite(0, ((f, g),)),))
    fact = decompose_derived_wreath(derived, data, 0, derived_witness)
    assert fact.verified and checked == [derived_witness]


def random_non_abelian_s4(rng):
    while True:
        group = FiniteGroup.from_permutations([(n, rng.sample(range(1, 5), 4)) for n in "uv"])
        if not group.is_abelian():
            return group


def test_derived_wreath_takes_the_product_over_the_named_top_or_the_witness_top():
    # positions and top values are element indices, which an extension shares
    # with its top, so both products give the same factorization over the witness's top
    rng = random.Random(25)
    base = FreeGroup(names=["y1", "y2"])
    tops = (presets.symmetric_3(), presets.dihedral_4(), presets.get("lamp(2,3)"))
    for top in tops + (random_non_abelian_s4(rng),):
        witness = find_reversal_asymmetric_relation(top)
        named, wide = WreathProduct(top, base), WreathProduct(witness.group, base)
        for _ in range(8):
            sites = tuple(
                CommutatorSite(position, tuple(
                    (random_word(rng, base.alphabet, 4), random_word(rng, base.alphabet, 4))
                    for _ in range(rng.randint(1, 2))
                ))
                for position in rng.sample(range(top.size), rng.randint(0, 3))
            )
            top_value = rng.randrange(top.size)
            facts = [
                decompose_derived_wreath(product, CommutatorData(sites), top_value, witness)
                for product in (named, wide)
            ]
            # the named product takes the search's witness, over an extended top or not
            assert facts[0].verified and facts[0].meta["witness"] is witness
            first, second = (
                ([str(w) for w in f.factors], f.bound_claimed, f.bound_formula,
                 f.certificate.to_dict())
                for f in facts
            )
            assert first == second


def test_an_extension_takes_a_name_fresh_for_the_product():
    # S3 is extended by c = s*t, and here c names a base generator: the
    # construction extends the top again by c2, with the relation's letters kept
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["c", "y2"]))
    search = find_reversal_asymmetric_relation(wreath.top)
    assert search.extra_generator[0] == "c"
    word = Word.parse(wreath.alphabet, "s*c*t*y2^-1*s*c^-1*y2*c^-1*y2^-1*c*y2")
    f, g = base_words(wreath, "c", "y2")
    data = CommutatorData((CommutatorSite(2, ((f, g),)),))
    for fact in (
        decompose_full_finite_top(wreath, word),
        decompose_full_finite_top(wreath, word, search),
        decompose_derived_wreath(wreath, data, 1, search),
    ):
        witness = fact.meta["witness"]
        assert fact.verified and witness.extra_generator == ("c2", search.extra_generator[1])
        assert str(witness.relation) == "s*t*c2"
        # the carrier interleaves the relation, so it spells c2
        assert fact.factors[-1].alphabet.names == ("s", "t", "c2", "c", "y2")
        assert "c2" in str(fact.factors[-1])


def test_full_finite_top_abelian_top_rejected():
    wreath = WreathProduct(presets.klein_four(), FreeGroup(names=["y1", "y2"]))
    with pytest.raises(AbelianGroup):
        decompose_full_finite_top(wreath, Word(wreath.alphabet))


def test_full_finite_top_over_dihedral():
    wreath = WreathProduct(presets.dihedral_4(), FreeGroup(names=["y1", "y2"]))
    maxlen = max(map(len, presets.dihedral_4().geodesics()))
    rng = random.Random(20)
    for _ in range(10):
        word = random_word(rng, wreath.alphabet, 24)
        fact = decompose_full_finite_top(wreath, word)
        assert fact.verified
        assert fact.count <= maxlen * (2 * 8 + 1) + 1


def test_full_finite_top_rank_one_base():
    # d = 1: the residual is always trivial and cursor moves can dominate
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1"]))
    rng = random.Random(21)
    for _ in range(20):
        word = random_word(rng, wreath.alphabet, 24)
        fact = decompose_full_finite_top(wreath, word)
        assert fact.verified
        assert fact.meta["derived_factors"] == 0
        assert fact.count <= fact.bound_claimed


def test_full_finite_top_bound_is_stated_up_front():
    # the claim is the cursor walk's bound plus the derived palindrome, the
    # same for every word and every base rank, including d = 1
    wreath = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1"]))
    for text in ("1", "y1", "s*y1*t*y1^-1*s^-1*y1^2*t"):
        fact = decompose_full_finite_top(wreath, Word.parse(wreath.alphabet, text))
        top = fact.meta["wreath"].top
        maxlen = max(map(len, top.geodesics()))
        assert fact.bound_claimed == maxlen * (top.size + 1) + 1 * top.size + 1
        assert fact.bound_formula == "maxlen*(|top|+1) + d*|top| + 1"


def _residual_sites_by_product(wide: WreathProduct, target) -> tuple:
    """Reference for the cursor walk's residual: the deposits as a wreath element A,
    then one site per lamp of A^-1.target, in the top's canonical order."""
    deposits = []
    for position, value in target.base.items():
        exponents = abelianize(wide.base.element_word(value))
        word = Word.from_blocks(wide.base.alphabet, [(i, e) for i, e in enumerate(exponents) if e])
        deposits.append((position, wide.base.evaluate(word)))
    residual = wide.multiply(wide.inverse(wide.element(target.top, deposits)), target)
    assert wide.top.is_identity(residual.top)
    return tuple(
        CommutatorSite(position, tuple(express_in_derived(residual.base[position])))
        for position in wide.support(residual)
    )


@pytest.mark.parametrize("case", [f"{name}{c}" for c in ("", "+c") for name in ("S3", "D4", "Q8", "lamp(2,3)")])
def test_full_finite_top_residual_matches_the_product_reference(case):
    # the walk takes each deposit off its lamp's word; the product A^-1.target gives
    # the same sites, so the same carrier; y1^2*y2 is its own deposit and leaves no site
    wreath = WreathProduct(_finite_top(case), FreeGroup(names=["y1", "y2"]))
    rng = random.Random(24)
    words = [Word.parse(wreath.alphabet, "y1^2*y2")]
    words += [random_word(rng, wreath.alphabet, 200, 20) for _ in range(12)]
    site_counts = []
    for word in words:
        fact = decompose_full_finite_top(wreath, word)
        wide, witness = fact.meta["wreath"], fact.meta["witness"]
        sites = _residual_sites_by_product(wide, fact.target)
        assert fact.verified
        assert fact.meta["carrier"] == decompose_module._carrier(wide, CommutatorData(sites), witness)
        site_counts.append(len(sites))
    assert site_counts[0] == 0 and max(site_counts) > 0


def _finite_top(case: str) -> FiniteGroup:
    """A preset, its +c extension (c = first * last letter), or a renumbered D4 table."""
    if case == "D4-table":
        d4 = presets.dihedral_4()
        perm = [0] + random.Random(16).sample(range(1, d4.size), d4.size - 1)
        table = [[0] * d4.size for _ in range(d4.size)]
        for a in d4.elements():
            for b in d4.elements():
                table[perm[a]][perm[b]] = perm[d4.multiply(a, b)]
        generators = [perm[g] for g in d4.generator_indices]
        return FiniteGroup.from_table(list(d4.alphabet.names), table, generators)
    name, extended = case.removesuffix("+c"), case.endswith("+c")
    top = presets.get(name)
    if extended:
        first, last = top.alphabet.names[0], top.alphabet.names[-1]
        value = top.evaluate(Word.parse(top.alphabet, f"{first}*{last}"))
        top = top.with_extra_generator("c", value)
    return top


_FINITE_PRESETS = ["S3", "D4", "Q8", "Z2xZ2", "Z/5", "Z/12", "lamp(2,2)", "lamp(2,3)",
                   "lamp(2,4)", "lamp(3,3)"]


@pytest.mark.parametrize(
    "case", _FINITE_PRESETS + [f"{name}+c" for name in _FINITE_PRESETS] + ["D4-table", "Z/1"]
)
def test_cursor_walk_bound_reads_the_longest_geodesic(case):
    # the last element the breadth-first search finds is a deepest one
    top = _finite_top(case)
    maxlen = max(map(len, top.geodesics()))
    assert top.max_word_length() == maxlen
    for rank in (1, 2, 3):
        bound = decompose_module._cursor_walk_bound(top, rank)
        assert bound == maxlen * (top.size + 1) + rank * top.size


def test_full_finite_top_degenerate_bound_fallback():
    # every element a single letter (maxlen 1) and d = 1: moves dominate
    # deposits and the construction exceeds maxlen*(d*|top|+1)+1 = 8, which
    # the stated bound maxlen*(|top|+1) + d*|top| + 1 covers
    from palinwidth import FiniteGroup

    s3_all = FiniteGroup.from_permutations(
        [
            ("p12", [2, 1, 3]),
            ("p123", [2, 3, 1]),
            ("p132", [3, 1, 2]),
            ("p13", [3, 2, 1]),
            ("p23", [1, 3, 2]),
        ]
    )
    assert max(map(len, s3_all.geodesics())) == 1
    wreath = WreathProduct(s3_all, FreeGroup(names=["y1"]))
    y = wreath.base.evaluate(Word.parse(wreath.base.alphabet, "y1"))
    element = wreath.element(3, [(p, y) for p in range(6)])
    word = wreath.element_word(element)
    fact = decompose_full_finite_top(wreath, word)
    assert fact.verified
    assert fact.count > 1 * (1 * 6 + 1) + 1
    assert fact.bound_formula == "maxlen*(|top|+1) + d*|top| + 1"


# ---------------------------------------------------------------------------
# quotient push-forward


def test_push_factorization():
    F = FreeGroup(2)
    rng = random.Random(18)
    targets = [presets.klein_four(), presets.symmetric_3()]
    images = {4: ["a", "b"], 6: ["s", "t"]}
    for target_group in targets:
        hom = quotient_map(F, target_group, images[target_group.size])
        for _ in range(25):
            factors = []
            for _ in range(rng.randint(0, 4)):
                u = random_word(rng, F.alphabet, 5)
                core = random_word(rng, F.alphabet, 1)
                factors.append(sandwich(u, core))
            target = F.identity()
            for word in factors:
                target = F.multiply(target, F.evaluate(word))
            fact = decompose_module.PalindromeFactorization(
                factors=tuple(factors),
                target=target,
                bound_claimed=len(factors),
                bound_formula="ad hoc",
                certificate=verify_factorization(F, target, factors),
            )
            assert fact.verified
            pushed = push_factorization(hom, fact)
            assert pushed.verified and pushed.count == fact.count



def free_factorization():
    F = FreeGroup(2)
    factors = (Word.parse(F.alphabet, "x1*x2*x1"),)
    target = F.evaluate(factors[0])
    return factors, target, verify_factorization(F, target, factors)


def test_factorization_refuses_more_factors_than_its_bound():
    factors, target, certificate = free_factorization()
    with pytest.raises(PalinwidthError, match="2 factors exceed claimed bound 1"):
        decompose_module.PalindromeFactorization(factors * 2, target, 1, "ad hoc", certificate)
    fact = decompose_module.PalindromeFactorization(factors, target, 1, "ad hoc", certificate)
    with pytest.raises(PalinwidthError, match="exceed claimed bound"):
        fact._replace(factors=factors * 2)
    with pytest.raises(PalinwidthError, match="exceed claimed bound"):
        fact._replace(bound_claimed=0)
    assert fact._replace(bound_formula="one").bound_formula == "one"


def test_factorization_is_immutable_with_a_fresh_meta_each():
    factors, target, certificate = free_factorization()
    fact = decompose_module.PalindromeFactorization(factors, target, 1, "ad hoc", certificate)
    with pytest.raises(AttributeError):
        fact.factors = ()
    with pytest.raises(AttributeError):
        fact.note = "extra"
    again = decompose_module.PalindromeFactorization(factors, target, 1, "ad hoc", certificate)
    assert fact.meta == again.meta == {} and fact.meta is not again.meta
    assert fact == again and fact.count == 1 and fact.verified


def test_push_factorization_from_a_finite_group():
    # Z/4 -> Z/2 through b is a homomorphism, so a^3 = a^-1 pushes to b^-1 = b
    z4, z2 = presets.cyclic(4, "a"), presets.cyclic(2, "b")
    hom = quotient_map(z4, z2, ["b"])
    factors = (Word.parse(z4.alphabet, "a^-1"),)
    target = z4.evaluate(Word.parse(z4.alphabet, "a^3"))
    fact = decompose_module.PalindromeFactorization(
        factors, target, 1, "ad hoc", verify_factorization(z4, target, factors)
    )
    pushed = push_factorization(hom, fact)
    assert pushed.verified and [str(w) for w in pushed.factors] == ["b^-1"]
    assert pushed.target == z2.evaluate(Word.parse(z2.alphabet, "b"))

def test_push_factorization_from_a_wreath_product():
    # a finite-top factorization over F2 wr S3, whose top the relation search
    # extends by c, pushed onto A5 wr S3(+c): top letters fixed, y1 -> a, y2 -> b
    source = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    a5 = FiniteGroup.from_permutations([("a", [2, 3, 4, 5, 1]), ("b", [2, 3, 1, 4, 5])])
    assert a5.size == 60
    rng = random.Random(20)
    for _ in range(5):
        fact = decompose_full_finite_top(source, random_word(rng, source.alphabet, 12))
        wide = fact.meta["wreath"]
        assert wide.top.alphabet.names == ("s", "t", "c")
        target = WreathProduct(wide.top, a5)
        hom = quotient_map(wide, target, ["s", "t", "c", "a", "b"])
        pushed = push_factorization(hom, fact)
        assert pushed.verified
        assert pushed.count == fact.count and pushed.bound_claimed == fact.bound_claimed
        # any word for an element has the image of the element's own word
        word = random_word(rng, wide.alphabet, 12)
        assert target.equal(hom.image_of_element(wide.evaluate(word)), hom.image_of_word(word))
    # a lamp y1 at position s goes to the lamp a at position s
    s = wide.top.evaluate(Word.parse(wide.top.alphabet, "s"))
    image = hom.image_of_element(wide.evaluate(Word.parse(wide.alphabet, "s^-1*y1*s")))
    assert target.equal(image, target.lamp(s, a5.evaluate(Word.parse(a5.alphabet, "a"))))


# ---------------------------------------------------------------------------
# finite wreath products


def test_finite_wreath_oracle_factors_certify_symbolically():
    # Z/2 wr Z/2 materialised whole: the oracle's factors for the word's
    # element certify against the symbolic evaluation of the same word
    wreath = WreathProduct(presets.cyclic(2, "z"), presets.cyclic(2, "y"))
    finite = wreath.as_finite_group()
    oracle = oracle_for(finite)
    rng = random.Random(19)
    for _ in range(10):
        word = random_word(rng, wreath.alphabet, 8)
        factors = oracle.decompose(finite.evaluate(word))
        assert verify_factorization(wreath, wreath.evaluate(word), factors).valid
