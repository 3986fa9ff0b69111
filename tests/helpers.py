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


def restart_loop_is_trivial(n: int, m: int, w: Word) -> bool:
    """Reference triviality test in BS(n, m) = <a, b | a^-1 b^n a = b^m>.

    The earlier restart-loop pinch reduction, kept to check the one-pass
    reduction against: reduce freely, write the word in syllables
    b^k0 a^e1 b^k1 ..., then repeatedly pinch the first a^-1 b^(qn) a
    (to b^(qm)) or a b^(qm) a^-1 (to b^(qn)) and rescan from the start.
    """
    w = reduce_free(w)
    syllables: list[list] = [["b", 0]]
    for index, sign in w.letters:
        if index == 0:
            syllables.append(["a", sign])
            syllables.append(["b", 0])
        else:
            syllables[-1][1] += sign
    changed = True
    while changed:
        changed = False
        for i in range(len(syllables) - 2):
            kind, e1 = syllables[i]
            if kind != "a":
                continue
            _, k = syllables[i + 1]
            e2 = syllables[i + 2][1]
            if syllables[i + 2][0] != "a" or e2 != -e1:
                continue
            if e1 == -1 and k % n == 0:
                new_exp = k // n * m
            elif e1 == 1 and k % m == 0:
                new_exp = k // m * n
            else:
                continue
            syllables[i - 1][1] += new_exp + syllables[i + 3][1]
            del syllables[i : i + 4]
            changed = True
            break
    return len(syllables) == 1 and syllables[0][1] == 0
