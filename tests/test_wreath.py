import random

import pytest
from hypothesis import given, settings, strategies as st

from palinwidth import (
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    Word,
    WreathProduct,
    invert,
    presets,
    relabel,
    reverse,
)
from palinwidth.errors import AlphabetMismatch, GroupDefinitionError
from palinwidth.groups import Group
from palinwidth.oracle import exact_palindromic_width
from helpers import random_word


def lamplighter_wreath():
    return WreathProduct(presets.cyclic(3, "z"), presets.cyclic(2, "y"))


def s3_free_wreath():
    return WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))


def test_name_disjointness_enforced():
    with pytest.raises(GroupDefinitionError):
        WreathProduct(FreeAbelianGroup(1, names=["a"]), FreeGroup(names=["a", "b"]))


def test_baumslag_solitar_top_refused():
    # a^-1 b^-1 a y a^-1 b a and b^-2 y b^2 put y at a^-1*b*a and at b^2,
    # equal in BS(1,2) but different as lamp keys
    bs = presets.get("BS(1,2)")
    left = bs.evaluate(Word.parse(bs.alphabet, "a^-1*b*a"))
    right = bs.evaluate(Word.parse(bs.alphabet, "b^2"))
    assert bs.equal(left, right) and left != right
    with pytest.raises(GroupDefinitionError):
        WreathProduct(bs, FreeGroup(names=["y"]))


def test_wreath_product_top_refused():
    # wreath elements hash by identity, so two evaluations of one lamp
    # position would key two different lamps
    inner = WreathProduct(presets.cyclic(2, "u"), presets.cyclic(2, "w"))
    with pytest.raises(GroupDefinitionError, match="wreath-product top"):
        WreathProduct(inner, presets.cyclic(3, "y"))


def test_conjugation_places_lamp_at_position():
    # the convention test: a^-1 f a puts the lamp at the value of a
    from palinwidth import invert

    for wreath, top_word in [(lamplighter_wreath(), "z"), (s3_free_wreath(), "s*t")]:
        conj = relabel(Word.parse(wreath.top.alphabet, top_word), wreath.alphabet)
        a = wreath.top.evaluate(Word.parse(wreath.top.alphabet, top_word))
        base_letter = Word.letter(wreath.alphabet, len(wreath.top.alphabet))
        word = invert(conj) * base_letter * conj
        value = wreath.evaluate(word)
        assert wreath.top.is_identity(value.top)
        assert set(value.base) == {a}
        assert wreath.base.equal(value.base[a], wreath.base.letter_value(0, 1))



def test_placed_puts_a_base_word_at_each_position():
    wreath = s3_free_wreath()
    base_word = Word.parse(wreath.alphabet, "y1^2*y2^-1")
    lamp = wreath.base.evaluate(relabel(base_word, wreath.base.alphabet))
    for position in wreath.top.elements():
        word = Word(wreath.alphabet, wreath.placed(position, base_word.letters))
        assert wreath.equal(wreath.evaluate(word), wreath.lamp(position, lamp))
        conjugator = relabel(wreath.top.element_word(position), wreath.alphabet)
        assert word == invert(conjugator) * base_word * conjugator

def test_top_only_word_has_empty_base():
    wreath = lamplighter_wreath()
    value = wreath.evaluate(Word.parse(wreath.alphabet, "z^2"))
    assert value.base == {}
    assert value.top == wreath.top.evaluate(Word.parse(wreath.top.alphabet, "z^2"))


def test_commutator_of_base_and_top_letter():
    # [f, a] = f^-1 a^-1 f a has support of size two with values f^-1 and f
    wreath = lamplighter_wreath()
    word = Word.parse(wreath.alphabet, "y^-1*z^-1*y*z")
    value = wreath.evaluate(word)
    a = wreath.top.evaluate(Word.parse(wreath.top.alphabet, "z"))
    f = wreath.base.letter_value(0, 1)
    assert wreath.top.is_identity(value.top)
    assert set(value.base) == {wreath.top.identity(), a}
    assert value.base[wreath.top.identity()] == wreath.base.inverse(f)
    assert value.base[a] == f


def test_multiply_identity_and_cancellation():
    wreath = s3_free_wreath()
    rng = random.Random(7)
    g = wreath.evaluate(random_word(rng, wreath.alphabet, 12))
    assert wreath.equal(wreath.multiply(g, wreath.identity()), g)
    assert wreath.is_identity(wreath.multiply(g, wreath.inverse(g)))
    f = wreath.base.evaluate(Word.parse(wreath.base.alphabet, "y1*y2"))
    lamp = wreath.lamp(2, f)
    anti = wreath.lamp(2, wreath.base.inverse(f))
    assert wreath.is_identity(wreath.multiply(lamp, anti))


def test_disjoint_supports_union():
    wreath = s3_free_wreath()
    f = wreath.base.evaluate(Word.parse(wreath.base.alphabet, "y1"))
    g = wreath.base.evaluate(Word.parse(wreath.base.alphabet, "y2^2"))
    product = wreath.multiply(wreath.lamp(1, f), wreath.lamp(3, g))
    assert set(product.base) == {1, 3}


def letter_by_letter(wreath, word):
    """The fold of multiply over letter_value: one letter at a time."""
    value = wreath.identity()
    for index, sign in word.letters:
        value = wreath.multiply(value, wreath.letter_value(index, sign))
    return value


# a lamp cancelled to the identity, then a deposit at that position again
CANCEL_AND_REDEPOSIT = {
    "lamplighter": ["y*z^3*y^-1*y", "z*y*z^-1*z*y*y*z^2*y*z^-3"],
    "S3 free": ["y1*s^2*y1^-1*t^3*y2", "s*y1*y2*s*t^3*s*y2^-1*y1^-1*s*t*y1"],
    "BS(1,2)": ["a*z^3*a^-1*b", "z*a^-1*b*a*b^-2*z^-1*z*b"],
    "S3 free abelian": ["y1*s^2*y1^-1*y2", "t*y1*y2*t^3*y2^-1*y1^-1*t^-1*y1"],
    "F2 wr Z^2": ["y1*t1*t1^-1*y1^-1*y2", "t1*y1*t2*t1^-1*t2^-1*t1*y1^-1*t2*t2^-1*y2^2"],
}


def test_evaluate_multiplicative():
    # lamps are evaluated once per position, from that position's letters;
    # over BS(1,2), a^-1*b*a*b^-2 is trivial without reducing freely to 1
    rng = random.Random(8)
    wreaths = {
        "lamplighter": lamplighter_wreath(),
        "S3 free": s3_free_wreath(),
        "BS(1,2)": WreathProduct(presets.cyclic(3, "z"), presets.get("BS(1,2)")),
        "S3 free abelian": WreathProduct(
            presets.symmetric_3(), FreeAbelianGroup(2, names=["y1", "y2"])
        ),
        "F2 wr Z^2": WreathProduct(FreeAbelianGroup(2), FreeGroup(names=["y1", "y2"])),
    }
    for name, wreath in wreaths.items():
        words = [Word.parse(wreath.alphabet, text) for text in CANCEL_AND_REDEPOSIT[name]]
        words += [random_word(rng, wreath.alphabet, 28) for _ in range(200)]
        for word in words:
            value = wreath.evaluate(word)
            assert not any(wreath.base.is_identity(lamp) for lamp in value.base.values())
            assert wreath.equal(value, letter_by_letter(wreath, word))
            cut = rng.randint(0, len(word))
            u = Word(wreath.alphabet, word.letters[:cut])
            v = Word(wreath.alphabet, word.letters[cut:])
            assert wreath.equal(value, wreath.multiply(wreath.evaluate(u), wreath.evaluate(v)))
        first = wreath.evaluate(words[0])
        assert len(first.base) == 1 and wreath.top.is_identity(first.top)


def test_product_support_containment():
    wreath = lamplighter_wreath()
    rng = random.Random(9)
    for _ in range(100):
        g = wreath.evaluate(random_word(rng, wreath.alphabet, 10))
        h = wreath.evaluate(random_word(rng, wreath.alphabet, 10))
        product = wreath.multiply(g, h)
        shift = wreath.top.inverse(g.top)
        translated = {wreath.top.multiply(p, shift) for p in h.base}
        assert set(product.base) <= set(g.base) | translated


def test_element_word_round_trip():
    rng = random.Random(10)
    for wreath in (lamplighter_wreath(), s3_free_wreath()):
        assert wreath.element_word(wreath.identity()) == Word(wreath.alphabet)
        for _ in range(50):
            g = wreath.evaluate(random_word(rng, wreath.alphabet, 20))
            word = wreath.element_word(g)
            assert wreath.equal(wreath.evaluate(word), g)
            # the top's word, then one conjugated lamp per position, in canonical order
            expected = list(relabel(wreath.top.element_word(g.top), wreath.alphabet).letters)
            positions = sorted(
                (wreath.top.multiply(p, g.top) for p in g.base), key=wreath.top.canonical_key
            )
            for position in positions:
                conj = relabel(wreath.top.element_word(position), wreath.alphabet)
                value = g.base[wreath.top.multiply(position, wreath.top.inverse(g.top))]
                expected += invert(conj).letters
                expected += relabel(wreath.base.element_word(value), wreath.alphabet).letters
                expected += conj.letters
            assert list(word.letters) == expected


def test_element_word_single_lamp_at_identity():
    wreath = s3_free_wreath()
    f = wreath.base.evaluate(Word.parse(wreath.base.alphabet, "y1"))
    word = wreath.element_word(wreath.lamp(wreath.top.identity(), f))
    assert str(word) == "y1"


def test_abelian_pair_reverse_same_value_does_not_hold_in_wreath():
    # the wreath of two abelian groups is not abelian: reversal moves lamps
    wreath = lamplighter_wreath()
    word = Word.parse(wreath.alphabet, "z^-1*y*z")
    assert not wreath.equal(wreath.evaluate(word), wreath.evaluate(reverse(word)))


def test_as_finite_group():
    finite = lamplighter_wreath().as_finite_group()
    assert isinstance(finite, FiniteGroup)
    assert finite.size == 2 ** 3 * 3
    assert finite.alphabet.names == ("z", "y")
    small = WreathProduct(presets.cyclic(2, "z"), presets.cyclic(2, "y")).as_finite_group()
    assert small.size == 8
    with pytest.raises(GroupDefinitionError):
        s3_free_wreath().as_finite_group()


def test_alphabet_check_on_evaluate():
    wreath = s3_free_wreath()
    with pytest.raises(AlphabetMismatch):
        wreath.evaluate(Word.parse(FreeGroup(2).alphabet, "x1"))


def test_wreath_evaluation_matches_finite_materialisation():
    # dual route: symbolic wreath arithmetic against the enumerated table,
    # over Z/2 wr Z/3, S3 wr Z/2 and Z/2 wr S3
    s3 = presets.symmetric_3()
    rng = random.Random(20)
    for top, base in [(presets.cyclic(3, "z"), presets.cyclic(2, "y")),
                      (presets.cyclic(2, "z"), s3), (s3, presets.cyclic(2, "y"))]:
        wreath = WreathProduct(top, base)
        finite = wreath.as_finite_group()
        for _ in range(200):
            word = random_word(rng, wreath.alphabet, 16)
            symbolic = wreath.evaluate(word)
            # a payload is the integer t + k·Σ value·m^p over the lamps,
            # with k = |top|, m = |base| and all as element indices
            code = symbolic.top + top.size * sum(
                value * base.size**p for p, value in symbolic.base.items()
            )
            assert finite.payloads[finite.evaluate(word)] == code


def _action_permutations(wreath: WreathProduct) -> list:
    """Each generator's permutation of the points (p, x) of top x base, 1-based.

    (phi, a) moves (p, x) to (p·a, x·phi(p)), a faithful right action; the
    point (p, x) is number p·|base| + x + 1.
    """
    top, base = wreath.top, wreath.base
    generators = []
    for i, name in enumerate(wreath.alphabet.names):
        g = wreath.letter_value(i, 1)
        generators.append((name, [
            top.multiply(p, g.top) * base.size + base.multiply(x, g.base.get(p, 0)) + 1
            for p in top.elements() for x in base.elements()
        ]))
    return generators


@pytest.mark.parametrize(
    "top, base",
    [(presets.symmetric_3(), presets.cyclic(2, "y")),
     (presets.cyclic(2, "z"), presets.symmetric_3()),
     (presets.cyclic(3, "z"), presets.cyclic(3, "y"))],
    ids=["Z2-wr-S3", "S3-wr-Z2", "Z3-wr-Z3"],
)
def test_materialisation_matches_the_permutation_group_of_its_action(top, base):
    # an independent build: the permutation group of the action on top x base,
    # closed by from_permutations, has the same table, inverses and geodesics
    wreath = WreathProduct(top, base)
    finite = wreath.as_finite_group()
    reference = FiniteGroup.from_permutations(_action_permutations(wreath))
    assert finite._table == reference._table
    assert finite._inv == reference._inv
    assert finite.geodesics() == reference.geodesics()


@pytest.mark.parametrize(
    "top, m, order, width",
    [("S3", 2, 384, 3), ("S3", 3, 4374, 4), ("D4", 2, 2048, 3), ("Q8", 2, 2048, 3)],
)
def test_exact_widths_of_small_finite_wreath_products(top, m, order, width):
    finite = WreathProduct(presets.get(top), presets.cyclic(m, "y")).as_finite_group()
    assert finite.size == order
    assert exact_palindromic_width(finite).width == width


def test_an_order_one_wreath_product_materialises():
    trivial = FiniteGroup.from_table([], [[0]], [])
    finite = WreathProduct(trivial, trivial).as_finite_group()
    assert finite.size == 1 and finite.alphabet.names == ()
    assert finite._table == ((0,),) and finite._inv == (0,)
    assert finite.geodesics() == (Word(finite.alphabet),)


# base over top: a free base (evaluate_reduced returns the reduced word) and
# finite and one-relator bases (the default evaluate_reduced, their evaluate)
def s3_plus_c() -> FiniteGroup:
    """S3 over {s, t, c = s*t}: an extension, sharing S3's table and element indices."""
    s3 = presets.symmetric_3()
    return s3.with_extra_generator("c", s3.evaluate(Word.parse(s3.alphabet, "s*t")))


FOLD_WREATHS = {
    "F2 wr S3": lambda: WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"])),
    "F2 wr (S3+c)": lambda: WreathProduct(s3_plus_c(), FreeGroup(names=["y1", "y2"])),
    "F2 wr Z^2": lambda: WreathProduct(FreeAbelianGroup(2), FreeGroup(names=["y1", "y2"])),
    "S3 wr Z": lambda: WreathProduct(FreeAbelianGroup(1, names=["x"]), presets.symmetric_3()),
    "Z/3 wr Z/4": lambda: WreathProduct(presets.cyclic(4, "z"), presets.cyclic(3, "y")),
    "Z/2 wr S3": lambda: WreathProduct(presets.symmetric_3(), presets.cyclic(2, "y")),
    "BS(1,2) wr Z/3": lambda: WreathProduct(presets.cyclic(3, "z"), presets.get("BS(1,2)")),
}


@st.composite
def _split_cancel_words(draw, wreath):
    """Words whose chunks are single letters or b . u . v . u^-1 . b^-1, with b a base
    letter and u a nonempty top word: b and b^-1 meet at one position in different
    runs, and cancel there whenever v's top letters multiply to 1."""
    split, size = len(wreath.top.alphabet), len(wreath.alphabet)
    sign = st.sampled_from((1, -1))
    any_letter = st.tuples(st.integers(0, size - 1), sign)
    top_word = st.lists(st.tuples(st.integers(0, split - 1), sign), min_size=1, max_size=3)
    letters = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            letters += draw(st.lists(any_letter, max_size=4))
            continue
        index, b = draw(st.integers(split, size - 1)), draw(sign)
        u = draw(top_word)
        inner = draw(st.lists(any_letter, max_size=3))
        letters += [(index, b), *u, *inner, *((i, -e) for i, e in reversed(u)), (index, -b)]
    return Word(wreath.alphabet, letters)


@pytest.mark.parametrize("name", FOLD_WREATHS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_evaluate_matches_the_generic_fold(name, data):
    # the kernel, which cancels inverse letters at a position as it deposits
    # them, against Group.evaluate: multiply folded over the letters' values
    wreath = FOLD_WREATHS[name]()
    word = data.draw(_split_cancel_words(wreath))
    value = wreath.evaluate(word)
    assert not any(wreath.base.is_identity(lamp) for lamp in value.base.values())
    assert wreath.equal(value, Group.evaluate(wreath, word))


def test_widened_keeps_one_handle_per_extension_and_shares_elements():
    # an extension shares the top's table and element indices: a word's value over
    # the narrow handle is its relabelled value over the widened one
    narrow = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))
    top = narrow.top
    extension = top.with_extra_generator("c", top.evaluate(Word.parse(top.alphabet, "s*t")))
    wide = narrow.widened(extension)
    assert narrow.widened(extension) is wide and wide.top is extension
    word = random_word(random.Random(5), narrow.alphabet, 40)
    assert wide.equal(narrow.evaluate(word), wide.evaluate(relabel(word, wide.alphabet)))
    with pytest.raises(GroupDefinitionError):
        narrow.widened(presets.dihedral_4())
