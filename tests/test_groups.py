import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from palinwidth import (
    AbelianProductGroup,
    AbelianizedFreeGroup,
    BaumslagSolitar,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    Word,
    abelianize,
    invert,
    is_palindrome,
    quotient_map,
    reduce_free,
    reverse,
)
from palinwidth import presets
from palinwidth.errors import AlphabetMismatch, GroupDefinitionError
from palinwidth.groups import MAX_GROUP_SIZE
from helpers import random_word


def test_free_evaluate():
    F = FreeGroup(2)
    assert F.evaluate(Word.parse(F.alphabet, "x1*x1^-1")) == F.identity()
    u = Word.parse(F.alphabet, "x1*x2*x2^-1*x2")
    assert F.evaluate(u) == Word.parse(F.alphabet, "x1*x2")


def test_free_equality_via_reduction():
    F = FreeGroup(2)
    rng = random.Random(3)
    for _ in range(200):
        u = F.evaluate(random_word(rng, F.alphabet, 20))
        v = F.evaluate(random_word(rng, F.alphabet, 20))
        same = F.equal(u, v)
        assert same == (not reduce_free(u * invert(v)).letters)


def test_free_abelian_evaluate():
    Z2 = FreeAbelianGroup(2)
    assert Z2.evaluate(Word.parse(Z2.alphabet, "t1*t2*t1")) == (2, 1)
    assert Z2.multiply((1, 0), (0, 1)) == (1, 1)
    assert Z2.inverse(Z2.identity()) == Z2.identity()


def test_finite_s3_squares():
    S3 = presets.symmetric_3()
    s = S3.evaluate(Word.parse(S3.alphabet, "s"))
    assert S3.multiply(s, s) == S3.identity()
    # permutation composition checked by hand: st maps 1->3, ts maps 1->1
    st = S3.evaluate(Word.parse(S3.alphabet, "s*t"))
    ts = S3.evaluate(Word.parse(S3.alphabet, "t*s"))
    assert st != ts
    assert S3.payloads[st] == (2, 1, 0)
    assert S3.payloads[ts] == (0, 2, 1)


def test_evaluate_is_multiplicative():
    rng = random.Random(4)
    backends = [
        FreeGroup(3),
        FreeAbelianGroup(3),
        AbelianizedFreeGroup(2),
        presets.symmetric_3(),
        presets.quaternion_8(),
    ]
    for group in backends:
        for _ in range(1000):
            u = random_word(rng, group.alphabet, 12)
            v = random_word(rng, group.alphabet, 12)
            assert group.equal(
                group.evaluate(u * v),
                group.multiply(group.evaluate(u), group.evaluate(v)),
            )


def test_abelianize():
    F = FreeGroup(2)
    assert abelianize(Word.parse(F.alphabet, "x1*x2*x1^-1")) == (0, 1)
    assert abelianize(Word.parse(F.alphabet, "x1^-1*x2^-1*x1*x2")) == (0, 0)
    assert abelianize(Word.parse(F.alphabet, "x1^3")) == (3, 0)


def test_geodesics_identity_and_z2():
    Z2 = presets.cyclic(2, "a")
    table = Z2.geodesics()
    assert table.lengths[Z2.identity()] == 0
    assert table.lengths[1] == 1
    assert Z2.evaluate(table.words[1]) == 1


def test_geodesics_s3_bfs():
    # by hand: e, s, t, t^2 have lengths 0,1,1,1; st and ts need 2 letters
    S3 = presets.symmetric_3()
    table = S3.geodesics()
    assert sorted(table.lengths) == [0, 1, 1, 1, 2, 2]
    assert table.max_length == 2
    for element in S3.elements():
        assert S3.evaluate(table.words[element]) == element
        assert len(table.words[element]) == table.lengths[element]


def test_geodesic_lengths_match_brute_force():
    # independent oracle: enumerate every word up to the diameter
    S3 = presets.symmetric_3()
    letters = [(i, s) for i in range(2) for s in (1, -1)]
    shortest = {S3.identity(): 0}
    level = [Word(S3.alphabet)]
    for length in range(1, S3.geodesics().max_length + 1):
        level = [w * Word(S3.alphabet, [l]) for w in level for l in letters]
        for word in level:
            shortest.setdefault(S3.evaluate(word), length)
    assert [shortest[e] for e in S3.elements()] == list(S3.geodesics().lengths)


def test_finite_table_validation():
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["g"], [[0, 1], [1, 1]], [1])
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["g"], [[1, 0], [0, 1]], [1])
    # every row a permutation, but column 1 repeats an entry
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["g"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]], [1])
    # ragged: the second row is too long
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["g"], [[0, 1], [1, 0, 0]], [1])
    # Z/2 x Z/2 with only one generator declared: closure too small
    k4 = presets.klein_four()
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["a"], k4._table, [k4.generator_indices[0]])


def test_finite_from_table_round_trip():
    S3 = presets.symmetric_3()
    again = FiniteGroup.from_table(
        list(S3.alphabet.names), S3._table, list(S3.generator_indices)
    )
    assert again.size == 6
    assert again.geodesics().max_length == 2


def test_with_extra_generator():
    S3 = presets.symmetric_3()
    st = S3.evaluate(Word.parse(S3.alphabet, "s*t"))
    bigger = S3.with_extra_generator("c", st)
    assert bigger.alphabet.names == ("s", "t", "c")
    assert bigger.evaluate(Word.parse(bigger.alphabet, "c")) == st
    assert bigger.geodesics().max_length <= S3.geodesics().max_length


def test_extra_generator_shares_the_checked_table():
    S3 = presets.symmetric_3()
    bigger = S3.with_extra_generator("c", 5)
    assert bigger._table is S3._table
    assert bigger._inv is S3._inv
    assert bigger.payloads is S3.payloads
    assert S3.with_extra_generator("c", 5) is bigger
    with pytest.raises(GroupDefinitionError):
        S3.with_extra_generator("c", 6)


def test_closure_stops_at_the_size_limit():
    # lamp(2,12) has 2^12 * 12 = 49,152 elements: the closure refuses it
    # once it passes the limit, before any Cayley table is built
    with pytest.raises(GroupDefinitionError, match=f"closure exceeded {MAX_GROUP_SIZE} elements"):
        presets.get("lamp(2,12)")


def _direct_table(group: FiniteGroup, mul) -> list[list[int]]:
    """The Cayley table from one payload product per cell."""
    index = {payload: i for i, payload in enumerate(group.payloads)}
    return [[index[mul(a, b)] for b in group.payloads] for a in group.payloads]


_SYMMETRIC = {
    f"S{n}": {"s": [2, 1] + list(range(3, n + 1)), "t": list(range(2, n + 1)) + [1]}
    for n in (4, 5)
}


@pytest.mark.parametrize(
    "name",
    ["S3", "D4", "Q8", "Z2xZ2", "Z/5", "lamp(2,2)", "lamp(2,3)", "lamp(3,3)", "lamp(2,5)", "S4", "S5"],
)
def test_action_table_matches_direct_products(name, monkeypatch):
    # keep the payload product each build hands to from_elements; the last
    # one is the group's own (a lamplighter builds its top and base first)
    build = FiniteGroup.from_elements.__func__
    products = []

    def spy(cls, names, identity, generators, mul, inv, **options):
        products.append(mul)
        return build(cls, names, identity, generators, mul, inv, **options)

    monkeypatch.setattr(FiniteGroup, "from_elements", classmethod(spy))
    if name in _SYMMETRIC:
        group = FiniteGroup.from_permutations(_SYMMETRIC[name])
    else:
        group = presets.get(name)
    assert group._table == _direct_table(group, products[-1])


def _compose(p: tuple, q: tuple) -> tuple:
    """p then q, as maps of 0..n-1."""
    return tuple(q[i] for i in p)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.permutations(list(range(1, n + 1))), min_size=2, max_size=3)
    )
)
def test_action_table_matches_direct_products_for_random_permutations(images):
    group = FiniteGroup.from_permutations([(f"g{i}", p) for i, p in enumerate(images)])
    assert group._table == _direct_table(group, _compose)


def test_abelian_product():
    group = AbelianProductGroup(1, presets.cyclic(4, "u"), free_names=["x"])
    assert group.is_abelian()
    value = group.evaluate(Word.parse(group.alphabet, "x^3*u^2*x^-1"))
    assert value == ((2,), group.finite.evaluate(Word.parse(group.finite.alphabet, "u^2")))
    assert group.equal(group.evaluate(group.element_word(value)), value)
    assert group.infinite_order_generator_index() == 0
    with pytest.raises(GroupDefinitionError):
        AbelianProductGroup(1, presets.symmetric_3())


def test_quotient_map_basics():
    F = FreeGroup(2)
    K4 = presets.klein_four()
    hom = quotient_map(F, K4, ["a", "b"])
    assert hom.image_of_word(Word(F.alphabet)) == K4.identity()
    pal = Word.parse(F.alphabet, "x1*x2*x1")
    pushed = hom.push_word(pal)
    assert str(pushed) == "a*b*a"
    assert is_palindrome(pushed) is not None
    commutator = Word.parse(F.alphabet, "x1^-1*x2^-1*x1*x2")
    assert hom.image_of_word(commutator) == K4.identity()


def test_quotient_map_is_homomorphism():
    F = FreeGroup(2)
    S3 = presets.symmetric_3()
    hom = quotient_map(F, S3, ["s", "t"])
    rng = random.Random(5)
    for _ in range(100):
        u = random_word(rng, F.alphabet, 15)
        v = random_word(rng, F.alphabet, 15)
        assert hom.image_of_word(u * v) == S3.multiply(
            hom.image_of_word(u), hom.image_of_word(v)
        )


def test_alphabet_mismatch_raises():
    F = FreeGroup(2)
    Z = FreeAbelianGroup(1)
    with pytest.raises(AlphabetMismatch):
        F.evaluate(Word.parse(Z.alphabet, "t1"))
    with pytest.raises(AlphabetMismatch):
        quotient_map(F, Z, ["t1", Word.parse(F.alphabet, "x1")])


# Baumslag-Solitar: pinch reduction cross-checked against the faithful
# affine representation of BS(1,2): a acts as x -> 2x, b as x -> x+1.


def _affine_eval(word: Word):
    images = {0: (Fraction(2), Fraction(0)), 1: (Fraction(1), Fraction(1))}
    value = (Fraction(1), Fraction(0))
    for index, sign in word.letters:
        scale, shift = images[index]
        if sign < 0:
            scale, shift = 1 / scale, -shift / scale
        value = (value[0] * scale, scale * value[1] + shift)
    return value


def test_bs_relation_and_reverse():
    bs = BaumslagSolitar(1, 2)
    relation = bs.relation()
    assert str(relation) == "a^-1*b*a*b^-2"
    assert bs.is_trivial(relation)
    assert not bs.is_trivial(reverse(relation))
    assert _affine_eval(relation) == (Fraction(1), Fraction(0))
    assert _affine_eval(reverse(relation)) != (Fraction(1), Fraction(0))


def test_bs_triviality_matches_affine_model():
    bs = BaumslagSolitar(1, 2)
    rng = random.Random(6)
    for _ in range(200):
        word = random_word(rng, bs.alphabet, 14)
        assert bs.is_trivial(word) == (_affine_eval(word) == (Fraction(1), Fraction(0)))


def test_bs_flags():
    assert BaumslagSolitar(1, 1).is_abelian()
    assert not BaumslagSolitar(2, 3).is_abelian()
    with pytest.raises(GroupDefinitionError):
        BaumslagSolitar(0, 2)
