"""Words over signed generator alphabets.

A word is a flat sequence of signed letters.  Reversal, formal inversion
and the palindrome test all read the literal letter sequence; free
reduction is the only operation that rewrites it.  Palindromes are never
detected "up to reduction": reduction can destroy palindromicity, so the
test always reads the unreduced word.

Letters are checked once, where they enter: Word(alphabet, letters),
Word.parse and Word.from_blocks refuse an index outside the alphabet or
a sign other than +1 or -1.  A word built from the letters of checked
words over the same alphabet (products, powers, reversal, inversion,
free reduction, slices, relabelling by name) can hold no letter they
did not, so it is made by Word._unchecked without a second check.
"""
from __future__ import annotations

import re
from typing import Iterable

from .errors import AlphabetMismatch, NotAPalindrome, WordSyntaxError

Letter = tuple[int, int]  # (generator index, sign), sign in {+1, -1}

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Alphabet:
    """Ordered list of distinct generator names; each name has a formal inverse.

    The order is part of the identity of the alphabet: it fixes shortlex
    tie-breaking and report determinism everywhere downstream.
    """

    __slots__ = ("names", "_index", "_hash", "_maps")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for name in names:
            if not isinstance(name, str) or not _NAME.fullmatch(name):
                raise ValueError(f"bad generator name: {name!r}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names!r}")
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}
        self._hash = hash(names)  # kept, so that keying a dict by an alphabet is O(1)
        self._maps: dict[Alphabet, dict[Letter, Letter]] = {}  # relabel's letter maps, by source

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlphabetMismatch(f"unknown generator {name!r}") from None

    def extend(self, names: Iterable[str]) -> "Alphabet":
        return Alphabet(self.names + tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Alphabet({list(self.names)!r})"


class Word:
    """Immutable word over an alphabet.

    Equality and palindrome checks are defined on the flat letter sequence,
    so how a word was split into power blocks never matters.  Words over
    different alphabets cannot be concatenated (hard error) to prevent
    silent index confusion when a generating set is extended.
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        n = len(alphabet)
        for index, sign in letters:
            if not 0 <= index < n:
                raise ValueError(f"letter index {index} out of range for {alphabet!r}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign!r}")
        self.alphabet = alphabet
        self.letters = letters

    @classmethod
    def _unchecked(cls, alphabet: Alphabet, letters: Iterable[Letter]) -> "Word":
        """Word(alphabet, letters) without the check, for letters taken from checked words."""
        word = object.__new__(cls)
        word.alphabet = alphabet
        word.letters = tuple(letters)
        return word

    @classmethod
    def from_blocks(cls, alphabet: Alphabet, blocks: Iterable[tuple[str | int, int]]) -> "Word":
        letters: list[Letter] = []
        for gen, exponent in blocks:
            index = alphabet.index(gen) if isinstance(gen, str) else gen
            if exponent == 0:
                continue
            sign = 1 if exponent > 0 else -1
            letters.extend([(index, sign)] * abs(exponent))
        return cls(alphabet, letters)

    @classmethod
    def letter(cls, alphabet: Alphabet, gen: str | int, exponent: int = 1) -> "Word":
        return cls.from_blocks(alphabet, [(gen, exponent)])

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        return _parse(alphabet, text)

    def blocks(self) -> list[tuple[int, int]]:
        """Maximal runs as (generator index, signed exponent)."""
        out: list[tuple[int, int]] = []
        for index, sign in self.letters:
            if out and out[-1][0] == index and (out[-1][1] > 0) == (sign > 0):
                out[-1] = (index, out[-1][1] + sign)
            else:
                out.append((index, sign))
        return out

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self.alphabet != other.alphabet:
            raise AlphabetMismatch(
                f"cannot concatenate words over {self.alphabet!r} and {other.alphabet!r}"
            )
        return Word._unchecked(self.alphabet, self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return invert(self) ** (-k)
        return Word._unchecked(self.alphabet, self.letters * k)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet.names, self.letters))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for index, exponent in self.blocks():
            name = self.alphabet.names[index]
            parts.append(name if exponent == 1 else f"{name}^{exponent}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Word({self})"


def letter_name(names: tuple[str, ...], letter: Letter) -> str:
    """A signed letter as text: its generator's name, with ^-1 when inverted."""
    index, sign = letter
    return names[index] if sign > 0 else f"{names[index]}^-1"


def reverse(w: Word) -> Word:
    """The word with its letters taken in the opposite order.

    Each letter keeps its own sign; only the order flips.  Involutive.
    """
    return Word._unchecked(w.alphabet, w.letters[::-1])


def invert(w: Word) -> Word:
    """Formal inverse: reversed order, flipped signs."""
    return Word._unchecked(w.alphabet, [(i, -s) for i, s in reversed(w.letters)])


def reduce_free(w: Word) -> Word:
    """The unique freely reduced word; idempotent, length non-increasing."""
    stack: list[Letter] = []
    for index, sign in w.letters:
        if stack and stack[-1] == (index, -sign):
            stack.pop()
        else:
            stack.append((index, sign))
    if len(stack) == len(w.letters):
        return w
    return Word._unchecked(w.alphabet, stack)


def is_palindrome(w: Word) -> bool:
    """Whether w equals reverse(w) letter for letter (no reduction).

    The empty word is a palindrome.  A palindrome of odd length has its
    centre letter at len(w) // 2; verify_factorization names it.
    """
    return w.letters == w.letters[::-1]


def sandwich(u: Word, p: Word) -> Word:
    """u . p . reverse(u); a palindrome whenever p is one (enforced)."""
    if u.alphabet != p.alphabet:
        raise AlphabetMismatch("sandwich parts must share one alphabet")
    if not is_palindrome(p):
        raise NotAPalindrome(f"core {p} is not a palindrome")
    return u * p * reverse(u)


def relabel(w: Word, alphabet: Alphabet) -> Word:
    """The same word over another alphabet, letters matched by name.

    The letter map from w's alphabet is built once and kept on the target.
    A letter whose name the target lacks raises AlphabetMismatch, and only
    when the word uses it.
    """
    source = w.alphabet
    letters = alphabet._maps.get(source)
    if letters is None:
        index = alphabet._index
        letters = alphabet._maps[source] = {
            (i, sign): (index[name], sign)
            for i, name in enumerate(source.names) if name in index for sign in (1, -1)
        }
    try:
        return Word._unchecked(alphabet, map(letters.__getitem__, w.letters))
    except KeyError as missing:
        raise AlphabetMismatch(f"unknown generator {source.names[missing.args[0][0]]!r}") from None


MAX_PARSED_LETTERS = 1_000_000  # a parsed word is refused before it grows past this

_TOKEN = re.compile(
    r"\s*(?:(?P<star>\*)|(?P<one>1)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)(?:\^(?P<exp>-?\d+))?)"
)


def _parse(alphabet: Alphabet, text: str) -> Word:
    """Parse `x^-2 * y * x` style syntax; `*` and whitespace both separate."""
    letters: list[Letter] = []
    text = text.rstrip()
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == match.start():
            raise WordSyntaxError(f"unexpected character {text[pos]!r}", column=pos + 1)
        if match.group("name") is not None:
            name = match.group("name")
            if name not in alphabet:
                raise WordSyntaxError(
                    f"unknown generator {name!r}", column=match.start("name") + 1
                )
            exponent = int(match.group("exp")) if match.group("exp") else 1
            if len(letters) + abs(exponent) > MAX_PARSED_LETTERS:
                raise WordSyntaxError(
                    f"word longer than {MAX_PARSED_LETTERS} letters", column=match.start("name") + 1
                )
            index = alphabet.index(name)
            if exponent:
                sign = 1 if exponent > 0 else -1
                letters.extend([(index, sign)] * abs(exponent))
        pos = match.end()
    return Word(alphabet, letters)
