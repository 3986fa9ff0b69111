"""Shared generators for randomized property tests, and independent references."""
import random
from typing import Optional

from palinwidth import FiniteGroup, Word, invert, reduce_free, sandwich


def random_word(rng: random.Random, alphabet, max_len: int, min_len: int = 0) -> Word:
    length = rng.randint(min_len, max_len)
    return Word(
        alphabet,
        [(rng.randrange(len(alphabet)), rng.choice((1, -1))) for _ in range(length)],
    )


def random_zero_sum_word(rng: random.Random, alphabet, max_len: int) -> Word:
    """Random word with zero exponent sum for every generator."""
    half = random_word(rng, alphabet, max_len // 2)
    tail = list(invert(half).letters)
    rng.shuffle(tail)
    return reduce_free(half * Word(alphabet, tail))


def random_palindrome(rng: random.Random, alphabet, max_half: int) -> Word:
    u = random_word(rng, alphabet, max_half)
    if rng.random() < 0.5:
        core = Word(alphabet)
    else:
        core = Word(alphabet, [(rng.randrange(len(alphabet)), rng.choice((1, -1)))])
    return sandwich(u, core)


def naive_palindromic_elements(
    group: FiniteGroup, max_half_length: Optional[int] = None
) -> frozenset[int]:
    """Evaluate every palindromic word up to length 2*cutoff+1, level by level.

    Plain level sets, no predecessor bookkeeping: level k holds the
    (value, reversed value) evaluations of all words of length exactly k.
    Independent of the pair automaton in palinwidth.oracle that it checks.
    """
    if max_half_length is None:
        max_half_length = group.size
    letter_values = [
        group.letter_value(index, sign)
        for index in range(len(group.alphabet))
        for sign in (1, -1)
    ]
    elements: set[int] = set()
    level = {(group.identity(), group.identity())}
    for _ in range(max_half_length + 1):
        for g, g_star in level:
            elements.add(group.multiply(g, g_star))
            for value in letter_values:
                elements.add(group.multiply(group.multiply(g, value), g_star))
        level = {
            (group.multiply(g, value), group.multiply(value, g_star))
            for g, g_star in level
            for value in letter_values
        }
    return frozenset(elements)
