"""Exact ground truth for finite groups.

Palindrome representability is decided by reachability in the pair
automaton tracking (value of u, value of reverse(u)) over all words u;
every palindromic word has the shape u.c.reverse(u) with c empty or a
single signed letter, so the reachable pairs describe all palindromic
elements exactly.  The automaton expands on demand, and its two readers
stop early: the palindrome set once every element has a witness, the
relation search at the first pair (1, x != 1).  The palindrome set reads
the automaton level by level (no centre before each centre in letter
order, '+' before '-'), so the first word to reach an element is a
shortest one; the set records its pair and centre, and builds the word
only when it is read.  Width is then a breadth-first search where one
step multiplies by any palindrome-representable element, stopped at the
|G|-th element.  All three searches, like the letter search behind a
table's geodesics, run on groups.BreadthFirst and read the Cayley table
directly; discovery order does not depend on how far a search was read,
so neither do the answers.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from itertools import chain, groupby
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import NotGenerated
from .groups import BreadthFirst, FiniteGroup, Group
from .words import Letter, Word, is_palindrome, letter_name

Pair = tuple[int, int]
Source = tuple[Pair, Optional[Letter]]  # pair of u and centre of a witness u.c.reverse(u)


class PairAutomaton(BreadthFirst):
    """Reachable (value, reversed value) pairs with predecessor links.

    The search behind it expands on demand, so a reader that stops early
    leaves the rest of the |G|^2 pairs undiscovered.
    """

    def __init__(self, group: FiniteGroup):
        table = group._table
        # per letter x: its column (g -> g.x), shared with the group's other readers, and its
        # row, read at column[0] = 1.x, the letter's value
        moves = {x: (column, table[column[0]]) for x, column in group.letter_columns.items()}

        def step(pair: Pair, letter) -> Pair:
            column, row = moves[letter]
            return column[pair[0]], row[pair[1]]

        super().__init__((0, 0), list(moves), step)
        self.group = group

    def witness(self, pair: Pair) -> Word:
        """Shortest word u with (eval(u), eval(reverse(u))) = pair."""
        return Word(self.group.alphabet, self.path(pair))


def build_pair_automaton(group: FiniteGroup) -> PairAutomaton:
    """Fixed point of (g, g*) -> (g.x, x.g*) over all signed letters, found as it is read."""
    return PairAutomaton(group)


class Witnesses(Mapping):
    """Read-only map from element to its shortest palindromic word u.c.reverse(u).

    Keys keep the order palindrome_set found them in.  Each word is built
    from the automaton's parent links on its first read, then cached.
    """

    def __init__(self, automaton: PairAutomaton, sources: dict[int, Source]):
        self._automaton = automaton
        self._sources = sources
        self._words: dict[int, Word] = {}

    def __getitem__(self, element: int) -> Word:
        word = self._words.get(element)
        if word is None:
            pair, centre = self._sources[element]
            u = self._automaton.path(pair)
            core = [centre] if centre is not None else []
            word = self._words[element] = Word(self._automaton.group.alphabet, u + core + u[::-1])
        return word

    def __iter__(self) -> Iterator[int]:
        return iter(self._sources)

    def __len__(self) -> int:
        return len(self._sources)


class PalindromeSet(NamedTuple):
    """Palindrome-representable elements with shortest palindromic witnesses."""

    witnesses: Witnesses


def palindrome_set(automaton: PairAutomaton) -> PalindromeSet:
    """Every palindromic element with a shortest witness u.c.reverse(u).

    One pass over the automaton's depth levels, shortest words first: in
    each level every pair with no centre (length 2d), then every pair with
    each centre in letter order, '+' before '-' (length 2d+1).  The first
    word to reach an element is its witness; its pair and centre are
    recorded, and the word is built only if it is read.  The scan stops
    once every element of the group has a witness, so the automaton is
    expanded at most one pair past the last level read.
    """
    group = automaton.group
    table = group._table
    centres = list(group.letter_columns.items())

    def candidates(level: list[Pair]):
        for pair in level:
            yield table[pair[0]][pair[1]], pair, None
        for pair in level:
            g, g_star = pair
            for centre, column in centres:
                yield table[column[g]][g_star], pair, centre

    sources: dict[int, Source] = {}
    for _, level in groupby(automaton, key=automaton.depths.__getitem__):
        for element, pair, centre in candidates(list(level)):
            if element not in sources:
                sources[element] = (pair, centre)
                if len(sources) == group.size:
                    return PalindromeSet(Witnesses(automaton, sources))
    return PalindromeSet(Witnesses(automaton, sources))


class WidthReport(NamedTuple):
    width: int
    witness: int
    distances: tuple[int, ...]

    def histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.distances:
            out[d] = out.get(d, 0) + 1
        return out


def palindrome_width_bfs(group: FiniteGroup, moves: dict) -> BreadthFirst:
    """The search from the identity where one step right-multiplies by a move.

    It stops once all |G| elements are found, and raises NotGenerated when
    some element stays unreachable.
    """
    move_items = [m for m in moves if not group.is_identity(m)]
    search = BreadthFirst(group.identity(), move_items, group.multiply).run(group.size)
    if len(search.order) != group.size:
        raise NotGenerated("palindromic elements do not generate the group")
    return search


class PalindromeOracle:
    """Automaton, palindrome set and width search for one handle, each built on first read."""

    def __init__(self, group: FiniteGroup):
        self.group = group

    @cached_property
    def automaton(self) -> PairAutomaton:
        return build_pair_automaton(self.group)

    @cached_property
    def palindromes(self) -> PalindromeSet:
        return palindrome_set(self.automaton)

    @cached_property
    def _width_bfs(self) -> BreadthFirst:
        return palindrome_width_bfs(self.group, self.palindromes.witnesses)

    def width(self) -> WidthReport:
        depths = self._width_bfs.depths
        distances = [depths[x] for x in self.group.elements()]
        top = max(distances)
        witness = distances.index(top)
        return WidthReport(width=top, witness=witness, distances=tuple(distances))

    def decompose(self, a: int) -> list[Word]:
        """At most width palindromic words multiplying to the element."""
        witnesses = self.palindromes.witnesses
        return [witnesses[move] for move in self._width_bfs.path(a)]

    @cached_property
    def _asymmetric(self) -> Optional[Word]:
        """Word of the first pair (1, x != 1) in discovery order, if any.

        The automaton is expanded up to that pair, and in full only when
        there is none.
        """
        identity = self.group.identity()
        best = next(
            (pair for pair in self.automaton if pair[0] == identity and pair[1] != identity),
            None,
        )
        return None if best is None else self.automaton.witness(best)

    def asymmetric_relation(self) -> Optional[Word]:
        """Shortest word r with r = 1 but reverse(r) != 1, if any; searched once per handle."""
        return self._asymmetric


def oracle_for(group: FiniteGroup) -> PalindromeOracle:
    cached = getattr(group, "_palindrome_oracle", None)
    if cached is None:
        cached = PalindromeOracle(group)
        group._palindrome_oracle = cached
    return cached


def exact_palindromic_width(group: FiniteGroup) -> WidthReport:
    """Exact width by palindrome-move BFS; errors if not generated."""
    return oracle_for(group).width()


class FactorizationCertificate(NamedTuple):
    """Machine-checkable result of verifying factors against a target."""

    valid: bool
    centers: tuple[Optional[str], ...]
    failing_index: Optional[int] = None
    reason: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "product_matches": self.valid,  # the product is compared once every factor passed
            "centers": list(self.centers),
            "failing_index": self.failing_index,
            "reason": self.reason,
        }


def verify_factorization(group: Group, target, factors: Sequence[Word]) -> FactorizationCertificate:
    """Check every factor is a structural palindrome and the product matches.

    The group is any backend, a wreath product included; the product is one
    evaluation of the concatenated factors.  The reported reason is
    AlphabetMismatch or NotPalindrome with the first failing index, or
    ProductMismatch.
    """
    alphabet = group.alphabet
    names = alphabet.names
    centers: list[Optional[str]] = []
    for i, factor in enumerate(factors):
        if factor.alphabet is not alphabet and factor.alphabet != alphabet:
            return _refused(centers, "AlphabetMismatch", i)
        if not is_palindrome(factor):
            return _refused(centers, "NotPalindrome", i)
        letters = factor.letters
        centers.append(letter_name(names, letters[len(letters) // 2]) if len(letters) % 2 else None)
    # every factor is over the group's alphabet (checked above)
    letters = chain.from_iterable(factor.letters for factor in factors)
    product = group.evaluate(Word._unchecked(alphabet, letters))
    if not group.equal(product, target):
        return _refused(centers, "ProductMismatch")
    return FactorizationCertificate(valid=True, centers=tuple(centers))


def _refused(centers: list, reason: str, index: Optional[int] = None) -> FactorizationCertificate:
    return FactorizationCertificate(False, tuple(centers), index, reason)
