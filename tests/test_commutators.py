import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from palinwidth import (
    FiniteGroup,
    FreeGroup,
    Word,
    commutator_closure,
    commutator_word,
    express_in_derived,
    invert,
    reduce_free,
)
from palinwidth import presets
from palinwidth.errors import NotInDerivedSubgroup
from helpers import random_zero_sum_word

F = FreeGroup(2)


def fw(text: str) -> Word:
    return Word.parse(F.alphabet, text)


def test_commutator_word():
    assert commutator_word(fw("x1"), fw("x2")) == fw("x1^-1*x2^-1*x1*x2")
    assert reduce_free(commutator_word(fw("x1*x2"), fw("1"))) == fw("1")
    assert reduce_free(commutator_word(fw("x1*x2"), fw("x1*x2"))) == fw("1")


def _check_expression(word: Word):
    pairs = express_in_derived(word)
    product = Word(word.alphabet)
    for u, v in pairs:
        product = product * commutator_word(u, v)
    assert reduce_free(product * invert(word)) == Word(word.alphabet)
    assert len(pairs) <= math.ceil(len(reduce_free(word)) / 2)
    return pairs


def test_express_single_commutator():
    pairs = _check_expression(fw("x1^-1*x2^-1*x1*x2"))
    assert pairs == [(fw("x1"), fw("x2"))]


def test_express_empty():
    assert express_in_derived(fw("1")) == []


def test_express_mixed_word():
    _check_expression(fw("x1*x2*x1^-1*x2*x1*x2^-2*x1^-1"))


def test_express_rejects_nonzero_sums():
    with pytest.raises(NotInDerivedSubgroup):
        express_in_derived(fw("x1*x2"))


def test_express_random_words():
    rng = random.Random(11)
    for _ in range(100):
        word = random_zero_sum_word(rng, F.alphabet, 36)
        _check_expression(word)


def _letters(rank: int):
    return st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))


@st.composite
def _zero_sum_words(draw, rank: int) -> Word:
    """A random word of F_rank': letters followed by a shuffle of their inverses."""
    half = draw(st.lists(_letters(rank), max_size=30))
    tail = draw(st.permutations([(index, -sign) for index, sign in half]))
    return Word(FreeGroup(rank).alphabet, half + tail)


@st.composite
def _conjugated_commutators(draw, rank: int) -> Word:
    """A random product of conjugated commutators c^-1 [a, b] c in F_rank."""
    alphabet = FreeGroup(rank).alphabet
    words = st.lists(_letters(rank), max_size=6).map(lambda letters: Word(alphabet, letters))
    product = Word(alphabet)
    for c, a, b in draw(st.lists(st.tuples(words, words, words), max_size=4)):
        product = product * invert(c) * commutator_word(a, b) * c
    return product


@settings(max_examples=200, deadline=None)
@given(
    word=st.sampled_from((2, 3)).flatmap(
        lambda rank: st.one_of(_zero_sum_words(rank), _conjugated_commutators(rank))
    )
)
def test_express_property_in_derived_subgroups(word):
    # the product of the pairs reduces to the word, in at most ceil(len/2) pairs
    _check_expression(word)


def test_express_block_is_one_pair():
    # the block x1^k is peeled at once: one pair, not k pairs repeating the rest
    k = 2000
    word = fw(f"x1^{k}*x2*x1^-{k}*x2^-1")
    pairs = express_in_derived(word)
    assert len(pairs) == 1
    assert len(commutator_word(*pairs[0])) == 2 * k + 2
    _check_expression(word)


def test_alternating_5_is_perfect():
    a5 = FiniteGroup.from_permutations(
        [("u", [2, 3, 4, 5, 1]), ("v", [2, 3, 1, 4, 5])]
    )
    assert a5.size == 60
    assert commutator_closure(a5) == frozenset(a5.elements())


def test_s3_commutator_closure_is_a3():
    S3 = presets.symmetric_3()
    assert len(commutator_closure(S3)) == 3
