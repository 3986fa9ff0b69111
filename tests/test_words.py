import random

import pytest
from hypothesis import given, settings, strategies as st

from palinwidth import (
    Alphabet,
    FreeGroup,
    Word,
    invert,
    is_palindrome,
    reduce_free,
    relabel,
    reverse,
    sandwich,
)
from palinwidth import presets
from palinwidth.commutators import commutator_word, express_in_derived
from palinwidth.decompose import _cursor_walk
from palinwidth.errors import AlphabetMismatch, NotAPalindrome, WordSyntaxError
from palinwidth.oracle import verify_factorization
from palinwidth.wreath import WreathProduct

AB = Alphabet(["x1", "x2", "x3", "x4"])


def w(text: str) -> Word:
    return Word.parse(AB, text)


def test_words_module_holds_no_record_base():
    import palinwidth.words

    assert not hasattr(palinwidth.words, "Record")


def test_reverse_examples():
    assert reverse(w("x1*x2^-1")) == w("x2^-1*x1")
    assert reverse(w("1")) == w("1")
    assert reverse(w("x1*x2*x1")) == w("x1*x2*x1")


def test_reverse_keeps_letter_signs():
    word = w("x1^2*x2^-3*x1")
    assert reverse(word) == w("x1*x2^-3*x1^2")


def test_invert_examples():
    assert invert(w("x1*x2")) == w("x2^-1*x1^-1")
    assert invert(w("1")) == w("1")
    assert reduce_free(w("x1*x2") * invert(w("x1*x2"))) == w("1")


def test_reduce_free_examples():
    assert reduce_free(w("x1*x1^-1")) == w("1")
    assert reduce_free(w("x1*x2*x2^-1*x1")) == w("x1*x1")
    already = w("x1*x2*x1^-1")
    assert reduce_free(already) == already


def test_reduce_free_idempotent_and_shorter():
    rng = random.Random(1)
    for _ in range(200):
        word = Word(AB, [(rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.randint(0, 40))])
        reduced = reduce_free(word)
        assert reduce_free(reduced) == reduced
        assert len(reduced) <= len(word)


def _centers(*words: Word) -> tuple:
    """The centres the factorization certificate names for palindromes over AB."""
    free = FreeGroup(names=AB.names)
    target = free.evaluate(Word(AB, [x for word in words for x in word.letters]))
    return verify_factorization(free, target, words).centers


def test_palindrome_certificate():
    assert is_palindrome(w("x1^2*x2*x1^2"))
    assert _centers(w("x1^2*x2*x1^2")) == ("x2",)


def test_palindrome_negative_and_empty():
    assert not is_palindrome(w("x1*x2"))
    assert is_palindrome(w("1"))
    assert _centers(w("1")) == (None,)


def test_power_words_are_palindromes():
    for k in range(-6, 7):
        assert is_palindrome(Word.from_blocks(AB, [("x1", k)]))


def test_palindrome_is_literal_not_up_to_reduction():
    # reduces to x2, a palindrome, but the literal sequence is not symmetric
    word = w("x1*x1^-1*x2")
    assert not is_palindrome(word)


def test_sandwich():
    assert sandwich(w("x1*x2"), w("x3")) == w("x1*x2*x3*x2*x1")
    assert sandwich(w("1"), w("x3*x1*x3")) == w("x3*x1*x3")
    a = w("x1*x2^-1*x2")
    assert sandwich(a, w("1")) == a * reverse(a)
    assert is_palindrome(sandwich(a, w("1")))
    with pytest.raises(NotAPalindrome):
        sandwich(w("x1"), w("x1*x2"))
    with pytest.raises(AlphabetMismatch):
        sandwich(w("x1"), Word.parse(Alphabet(["y1"]), "y1"))


def test_reverse_laws_random():
    rng = random.Random(2)
    for _ in range(300):
        u = Word(AB, [(rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.randint(0, 30))])
        v = Word(AB, [(rng.randrange(4), rng.choice((1, -1))) for _ in range(rng.randint(0, 30))])
        assert reverse(reverse(u)) == u
        assert reverse(u * v) == reverse(v) * reverse(u)
        assert invert(reverse(u)) == reverse(invert(u))
        assert is_palindrome(sandwich(u, Word(AB)))


def test_block_storage_flattens_identically():
    assert Word.from_blocks(AB, [("x1", 2), ("x1", 1)]) == Word.from_blocks(AB, [("x1", 3)])
    assert Word.from_blocks(AB, [("x1", 1), ("x1", -1)]) == w("x1*x1^-1")
    word = w("x1^3*x2^-2")
    assert word.blocks() == [(0, 3), (1, -2)]
    assert Word.from_blocks(AB, word.blocks()) == word


def test_parse_and_format():
    assert str(w("x1^-2 * x2 * x1")) == "x1^-2*x2*x1"
    assert w("x1^-2 x2 x1") == w("x1^-2*x2*x1")
    assert w("  ") == Word(AB)
    assert w("1") == Word(AB)
    assert Word.parse(AB, str(w("x1^4*x3^-1*x1"))) == w("x1^4*x3^-1*x1")


def test_parse_errors_carry_column():
    with pytest.raises(WordSyntaxError) as info:
        Word.parse(AB, "x1*$")
    assert info.value.column == 4
    with pytest.raises(WordSyntaxError):
        Word.parse(AB, "x1*zz")


def test_alphabet_mixing_is_an_error():
    other = Alphabet(["y1"])
    with pytest.raises(AlphabetMismatch):
        w("x1") * Word.parse(other, "y1")


def test_relabel_by_name():
    bigger = Alphabet(["z", "x1", "x2", "x3", "x4"])
    word = w("x1*x4^-1")
    moved = relabel(word, bigger)
    assert str(moved) == "x1*x4^-1"
    assert moved.alphabet == bigger
    with pytest.raises(AlphabetMismatch):
        relabel(Word.parse(Alphabet(["q"]), "q"), AB)
    # a name the target lacks is refused only in a word that uses it, and the kept
    # letter map refuses it again
    wider = Alphabet(["x2", "q", "x1"])
    assert relabel(Word.parse(wider, "x2*x1^-1"), AB) == w("x2*x1^-1")
    for _ in range(2):
        with pytest.raises(AlphabetMismatch, match="unknown generator 'q'"):
            relabel(Word.parse(wider, "x1*q^-1"), AB)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])
    with pytest.raises(ValueError):
        Alphabet(["2bad"])
    with pytest.raises(AlphabetMismatch, match="^unknown generator 'q'$"):
        Word.from_blocks(Alphabet(["a"]), [("q", 1)])
    # a power word past the letter limit is refused before it is built, however it is made
    with pytest.raises(WordSyntaxError, match="^1000001 letters pass the limit of 1000000$"):
        Word.letter(AB, 0, 1_000_001)
    with pytest.raises(WordSyntaxError, match="^1200000 letters pass the limit of 1000000$"):
        Word.from_blocks(AB, [(0, 600_000), (1, -600_000)])


@pytest.mark.parametrize(
    "letter, message",
    [
        ((4, 1), "letter index 4 out of range"),
        ((-1, 1), "letter index -1 out of range"),
        ((0, 0), "letter sign must be \\+1 or -1, got 0"),
        ((0, 2), "letter sign must be \\+1 or -1, got 2"),
    ],
    ids=["index-past-end", "index-minus-one", "sign-0", "sign-2"],
)
def test_public_constructor_refuses_bad_letters(letter, message):
    # the only check on letters from outside the package: derived words skip it
    with pytest.raises(ValueError, match=message):
        Word(AB, [(0, 1), letter])


@pytest.mark.parametrize("index", [4, -1])
def test_from_blocks_refuses_indices_outside_the_alphabet(index):
    with pytest.raises(ValueError, match=f"letter index {index} out of range"):
        Word.from_blocks(AB, [(index, 2)])


_letters = st.tuples(st.integers(0, len(AB) - 1), st.sampled_from((1, -1)))
_words = st.lists(_letters, max_size=24).map(lambda letters: Word(AB, letters))


# s, t, y1, y2: four letters, so a word over AB names the same letter indices here
S3_WR_F2 = WreathProduct(presets.symmetric_3(), FreeGroup(names=["y1", "y2"]))


def _rechecked(word: Word) -> Word:
    """The same letters through the public, checking constructor."""
    return Word(word.alphabet, word.letters)


@settings(max_examples=200, deadline=None)
@given(u=_words, v=_words, k=st.integers(-3, 3))
def test_derived_words_equal_their_checked_rebuild(u, v, k):
    # every operation that builds a word from checked words' letters, without
    # a second check, gives exactly what the checking constructor would
    bigger = Alphabet(["z", "x4", "x3", "x2", "x1"])
    core = u * reverse(u)
    derived = [
        u * v, u**k, reverse(u), invert(u), reduce_free(u * v), relabel(u, bigger),
        sandwich(v, core), commutator_word(u, v),
    ]
    for a, b in express_in_derived(u * v * invert(reverse(u * v))):
        derived += [a, b]
    # the cursor walk's geodesic move letters and power-word deposits
    derived += _cursor_walk(S3_WR_F2, S3_WR_F2.evaluate(Word(S3_WR_F2.alphabet, (u * v).letters)))
    for word in derived:
        assert type(word.letters) is tuple
        assert word == _rechecked(word)
        assert hash(word) == hash(_rechecked(word))


def test_verify_refuses_a_factor_over_another_alphabet():
    # the same names in another order would give other letters if concatenated
    group = FreeGroup(names=AB.names)
    shuffled = Alphabet(["x2", "x1", "x3", "x4"])
    factors = [w("x1*x2*x1"), Word.parse(shuffled, "x3")]
    target = group.evaluate(w("x1*x2*x1*x3"))
    certificate = verify_factorization(group, target, factors)
    assert not certificate.valid
    assert (certificate.reason, certificate.failing_index) == ("AlphabetMismatch", 1)
    assert verify_factorization(group, target, [factors[0], w("x3")]).valid
