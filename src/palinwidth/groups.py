"""Concrete group backends with one evaluation contract.

Every backend has decidable equality and evaluates words homomorphically:
finite groups (Cayley table or permutation generators), free groups,
free abelian groups, abelianized free groups, a free-abelian x finite-abelian
product for infinite abelian groups with torsion, and the Baumslag-Solitar
one-relator family for relation experiments.  Every finite group's table,
explicit or built by closure, is certified from its generator action by one
function, _certified_table.  A closure reads that action one element at a
time (a permutation product in C for permutation groups) and keeps it as its
letter columns; an explicit table reads its letter columns off its rows and
is certified in its own indices; an extension reads its new letter's two.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import AlphabetMismatch, GroupDefinitionError
from .words import Alphabet, Letter, Word, invert, reduce_free, relabel

MAX_GROUP_SIZE = 20000  # default limit on a finite group's elements and on a free rank


class BreadthFirst:
    """Breadth-first search from start, where one step is step(node, move).

    The search expands on demand: iterating it discovers nodes only as far
    as the reader goes, and run() takes it to completion or to a node
    count.  Moves are tried in the same order at every node, so they must
    be a collection rather than a one-shot iterator; discovery order does
    not depend on how far the search was read.  order holds the nodes
    discovered so far, parents[node] = (previous node, move) with None at
    start, and depths[node] = number of steps from start; all three grow
    as it runs.
    """

    def __init__(self, start: Any, moves: Collection, step: Callable[[Any, Any], Any]):
        self.order = [start]
        self.parents = {start: None}
        self.depths = {start: 0}
        self._discoveries = self._search(self.order, self.parents, self.depths, moves, step)

    @staticmethod
    def _search(order: list, parents: dict, depths: dict, moves: Collection, step) -> Iterator:
        """The search loop; yields once per newly discovered node."""
        for node in order:  # the list grows behind the cursor: it is the queue
            depth = depths[node] + 1
            for move in moves:
                successor = step(node, move)
                if successor not in parents:
                    parents[successor] = (node, move)
                    depths[successor] = depth
                    order.append(successor)
                    yield True

    def __iter__(self) -> Iterator:
        """Every node in discovery order, discovering each only when it is reached."""
        order = self.order
        index = 0
        while index < len(order) or next(self._discoveries, False):
            yield order[index]
            index += 1

    def run(self, nodes: Optional[int] = None) -> "BreadthFirst":
        """Discover nodes until none is left or `nodes` are discovered (|G| over a group)."""
        while len(self.order) != nodes and next(self._discoveries, False):
            pass
        return self

    def path(self, node: Any) -> list:
        """The moves from start to an already discovered node, in order."""
        parents = self.parents
        moves = []
        while (link := parents[node]) is not None:
            node, move = link
            moves.append(move)
        moves.reverse()
        return moves


class Group:
    """Shared backend contract: immutable handle, value-like elements."""

    alphabet: Alphabet
    source_def: Optional[dict] = None  # set by presets.get and cli.group_from_def only

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def equal(self, a, b) -> bool:
        return a == b

    def is_identity(self, a) -> bool:
        return self.equal(a, self.identity())

    def letter_value(self, index: int, sign: int):
        raise NotImplementedError

    def letter_values(self) -> dict[Letter, Any]:
        """Every signed letter's element, in alphabet order with '+' before '-'."""
        return {
            (index, sign): self.letter_value(index, sign)
            for index in range(len(self.alphabet))
            for sign in (1, -1)
        }

    def evaluate(self, word: Word):
        """The element a word spells; a word over another alphabet is refused."""
        if word.alphabet != self.alphabet:
            raise AlphabetMismatch(
                f"word over {word.alphabet!r} fed to group over {self.alphabet!r}"
            )
        return self._evaluate(word)

    def _evaluate(self, word: Word):
        """evaluate's arithmetic, for a word over this group's alphabet."""
        value = self.identity()
        for index, sign in word.letters:
            value = self.multiply(value, self.letter_value(index, sign))
        return value

    def evaluate_reduced(self, word: Word):
        """evaluate for a freely reduced word, which a backend may read faster."""
        return self.evaluate(word)

    def element_word(self, a) -> Word:
        """A canonical representative word for the element."""
        raise NotImplementedError

    def canonical_key(self, a):
        """Sort key fixing a deterministic order on elements."""
        raise NotImplementedError

    def is_abelian(self) -> bool:
        raise NotImplementedError

    def infinite_order_generator_index(self) -> Optional[int]:
        """The index of a generator of infinite order, or None when none is known."""
        return None


class FiniteGroup(Group):
    """Finite group as an element list (index 0 = identity) plus Cayley table.

    The table is a tuple of int tuples, shared with every extension
    (with_extra_generator); CPython's collector stops tracking such tuples
    after one pass, so a full collection does not walk its |G|² entries.

    Every table is certified from its generator action by _certified_table,
    and a group has at most MAX_GROUP_SIZE elements.  A group synthesised
    from generators (from_elements) takes breadth-first discovery order:
    generators in alphabet order, positive sign before negative.  An
    explicit table (from_table) keeps its given order.  Either way the
    letter columns are the certified action, and the search that reached
    every element is kept as the geodesic tree.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        rows: Sequence[tuple[int, ...]],
        inverses: Sequence[int],
        generator_indices: Sequence[int],
        payloads: Optional[Sequence[Any]],
        columns: Sequence[tuple[int, ...]],
    ):
        """Take on a certified table and its letter columns g -> g.x, in letter_values order."""
        self.alphabet = alphabet
        self.size = len(rows)
        self._table = tuple(rows)
        self._inv = tuple(inverses)
        self.generator_indices = tuple(generator_indices)
        self.payloads = tuple(payloads) if payloads is not None else None
        # (order, parents) of a search over signed letter numbers, built once (see _search_tree)
        self._tree: Optional[tuple[Sequence[int], Any]] = None
        self._words: dict[int, Word] = {}  # element -> its geodesic, built on first read
        self.letter_columns: dict[Letter, tuple] = dict(zip(self.letter_values(), columns))
        self._extensions: dict[tuple[str, int], FiniteGroup] = {}

    @classmethod
    def from_elements(
        cls, names: Sequence[str], identity: Any, step: Callable[[Any], Iterable[Any]]
    ) -> "FiniteGroup":
        """Closure of abstract payloads under the generator action; BFS order.

        step(x) gives x times every signed letter m, in alphabet order with
        '+' before '-', so step(identity) gives the letters themselves.  The
        search asks for all 2k successors of an element at once, and looks
        them up in one pass.  It records that action as indices,
        action[m][x] = index of items[x] times letter m, and the link
        (x, m) that first reached each element: a shortlex geodesic tree,
        from which _certified_table fills the table.  The closure stays a
        loop of its own so that it stops at MAX_GROUP_SIZE before any table.
        """
        index = {identity: 0}
        items = [identity]
        successors: list[list] = []  # successors[x][m] = index of items[x] times letter m
        links: list[tuple[int, int]] = []  # (x, m) for items[1], items[2], ...
        get = index.get
        for x, payload in enumerate(items):  # items grows behind the cursor
            products = list(step(payload))
            row = list(map(get, products))
            if None in row:
                for m, y in enumerate(products):
                    if row[m] is None:  # new, unless an earlier letter of this row found it
                        row[m] = j = index.setdefault(y, len(items))
                        if j == len(items):
                            items.append(y)
                            links.append((x, m))
                if len(items) > MAX_GROUP_SIZE:
                    raise GroupDefinitionError(f"closure exceeded {MAX_GROUP_SIZE} elements")
            successors.append(row)
        action = list(zip(*successors))  # the letter columns the group is built with
        if len(successors[0]) != 2 * len(names):
            raise GroupDefinitionError("step must give one product per signed letter")
        tree = (range(len(items)), [None, *links])
        rows, inverses = _certified_table(names, action, *tree)
        group = cls(Alphabet(names), rows, inverses, successors[0][::2], items, action)
        group._tree = tree
        return group

    @classmethod
    def from_permutations(
        cls, generators: "dict[str, Sequence[int]] | Iterable[tuple[str, Sequence[int]]]"
    ) -> "FiniteGroup":
        """Generators as one-line permutation images, 1-based.

        A payload p holds 0-based images; p times q is itemgetter(*p)(q), one C call.
        """
        items = list(generators.items()) if isinstance(generators, dict) else list(generators)
        if not items:
            raise GroupDefinitionError("at least one permutation generator required")
        degree = len(items[0][1])
        letters = []
        for name, images in items:
            images = list(images)
            if sorted(images) != list(range(1, degree + 1)):
                raise GroupDefinitionError(
                    f"generator {name!r} is not a permutation of 1..{degree}"
                )
            inverse = sorted(range(degree), key=images.__getitem__)  # points in image order
            letters += [tuple(i - 1 for i in images), tuple(inverse)]
        # itemgetter(0) returns a scalar: below degree 2, range(degree) is the only payload
        step = (lambda p: letters) if degree <= 1 else (lambda p: map(itemgetter(*p), letters))
        return cls.from_elements([name for name, _ in items], tuple(range(degree)), step)

    @classmethod
    def from_table(
        cls,
        names: Sequence[str],
        table: Sequence[Sequence[int]],
        generator_indices: Sequence[int],
    ) -> "FiniteGroup":
        """Certify an explicit table in its own indices, O(|G|²) lookups.

        One letter search over its letter columns checks generation and is
        kept as the geodesic tree; each given row must equal its certified row.
        """
        alphabet = Alphabet(names)
        size = len(table)
        if not 0 < size <= MAX_GROUP_SIZE:
            raise GroupDefinitionError(f"a table has 1 to {MAX_GROUP_SIZE} rows, not {size}")
        # the letter search indexes columns directly, where a -1 would wrap around
        if any(len(row) != size for row in table) or not (
            0 <= min(map(min, table)) and max(map(max, table)) < size
        ):
            raise GroupDefinitionError(
                f"the table must be {size} rows of {size} entries in 0..{size - 1}"
            )
        if any(not 0 <= g < size or 0 not in table[g] for g in generator_indices):
            raise GroupDefinitionError("each generator must be an element whose row holds 0")
        letters = [h for g in generator_indices for h in (g, table[g].index(0))]
        action = [tuple(map(itemgetter(v), table)) for v in letters]
        search = BreadthFirst(0, range(len(action)), lambda x, m: action[m][x]).run(size)
        if len(search.order) != size:
            raise GroupDefinitionError("generators do not generate the group")
        tree = (search.order, search.parents)
        rows, inverses = _certified_table(alphabet.names, action, *tree)
        if any(tuple(given) != row for given, row in zip(table, rows)):
            raise GroupDefinitionError("the table is not the product its generators act by")
        group = cls(alphabet, rows, inverses, generator_indices, None, action)
        group._tree = tree
        return group

    def with_extra_generator(self, name: str, element_index: int) -> "FiniteGroup":
        """Same group, generating set extended by one named element.

        One handle per extension, so its cached oracle is built once.  It
        shares this group's checked table and letter columns and reads the
        new letter's two; the old generators still generate, so no check runs.
        """
        if not 0 <= element_index < self.size:
            raise GroupDefinitionError(f"element index {element_index} out of range")
        key = (name, element_index)
        if key not in self._extensions:
            table, inverses = self._table, self._inv
            new = (element_index, inverses[element_index])
            self._extensions[key] = FiniteGroup(
                self.alphabet.extend([name]), table, inverses,
                self.generator_indices + (element_index,), self.payloads,
                [*self.letter_columns.values(), *(tuple(map(itemgetter(v), table)) for v in new)],
            )
        return self._extensions[key]

    def identity(self) -> int:
        return 0

    def multiply(self, a: int, b: int) -> int:
        return self._table[a][b]

    def inverse(self, a: int) -> int:
        return self._inv[a]

    def letter_value(self, index: int, sign: int) -> int:
        g = self.generator_indices[index]
        return g if sign > 0 else self._inv[g]

    def extends(self, other: "FiniteGroup") -> bool:
        """Whether this is other's table with other's generators, names and elements, first."""
        k = len(other.alphabet)
        return (
            self._table == other._table
            and self.alphabet.names[:k] == other.alphabet.names
            and self.generator_indices[:k] == other.generator_indices
        )

    def _search_tree(self) -> tuple[Sequence[int], Any]:
        """(order, parents) of the letter search from 0, parents[y] = (x, letter number).

        A closure or a table keeps the search its certificate read; an
        extension, whose alphabet is new, searches again, stopped at |G|.
        """
        if self._tree is None:
            columns = list(self.letter_columns.values())
            search = BreadthFirst(0, range(len(columns)), lambda x, m: columns[m][x])
            self._tree = search.run(self.size).order, search.parents
        return self._tree

    def geodesics(self) -> tuple[Word, ...]:
        """Every element's shortlex geodesic word (element_word), in element order."""
        return tuple(map(self.element_word, self.elements()))

    def element_word(self, a: int) -> Word:
        """a's shortlex geodesic from the letter search; alphabet order, '+' before '-'.

        Built on its first read by extending the word of a's nearest ancestor
        in the search tree that has one, keeping the word of each step.
        """
        words = self._words
        word = words.get(a)
        if word is None:
            parents = self._search_tree()[1]
            chain = []  # a and its ancestors below the nearest one with a word
            node = a
            while node not in words and parents[node] is not None:
                chain.append(node)
                node = parents[node][0]
            word = words.get(node)
            if word is None:  # node is the identity, the root
                word = words[node] = Word._unchecked(self.alphabet, ())
            for node in reversed(chain):
                m = parents[node][1]
                # letter number m is generator m // 2, '+' for even m (see letter_values)
                word = words[node] = Word._unchecked(
                    self.alphabet, word.letters + ((m // 2, 1 - 2 * (m % 2)),)
                )
        return word

    def max_word_length(self) -> int:
        """The longest element word: breadth-first search finds a deepest element last."""
        return len(self.element_word(self._search_tree()[0][-1]))

    def canonical_key(self, a: int) -> int:
        return a

    def non_commuting_pair(self) -> Optional[tuple[int, int]]:
        """The first two generators, in alphabet order, that do not commute; None when all do."""
        gens, table = self.generator_indices, self._table
        pairs = ((g, h) for i, g in enumerate(gens) for h in gens[i + 1:])
        return next(((g, h) for g, h in pairs if table[g][h] != table[h][g]), None)

    def is_abelian(self) -> bool:
        return self.non_commuting_pair() is None

    def elements(self) -> range:
        return range(self.size)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.size}, gens={list(self.alphabet.names)})"


def _certified_table(names: Sequence[str], action: Sequence[tuple], order, parents) -> tuple:
    """(rows, inverses): the Cayley table of a generator action, certified.

    action[m][x] is the index of element x times signed letter m, in
    letter_values order, with 0 the identity.  (order, parents) is the
    tree of a letter search from 0 that reached every index: order lists
    them as discovered, and parents[b] = (x, m) links b = x·m to the
    element x it was first reached from.  A closure's indices are its
    discovery order; an explicit table keeps its own.

    With e_m = action[m][0], the index of letter m, left[m] (c -> e_m·c)
    follows the tree: left[m][x·m'] = action[m'][left[m][x]].  Row b of
    the table, for b = x·m, is row x after left[m], and b's inverse is
    left[m⁻¹][x⁻¹].  That is |G|² integer lookups and no payload products.

    Certificate, O(|G|·k²) for k generators:
      (a) each action[m] is a permutation, and action[m⁻¹] sends e_m
          to 0;
      (b) each left[m] commutes with each action[m'].
    Proof: (c) row b sends 0 to b, so the identity's orbit under the
    left[m] is every element.  For the link b = x·m, row b is row x
    after left[m].  Row x is a composition of left maps, so by (b) it
    commutes with action[m], and row_x(0) = x by induction from row 0,
    the identity; hence row_b(0) = row_x(e_m) = action[m](row_x(0)) =
    action[m](x) = b.  An s in the group generated by the actions that
    fixes 0 and commutes with a map φ also fixes φ(0).  By (b) and (c)
    the stabiliser of 0 is trivial, so the action is regular and the
    table is a group's Cayley table.
    """
    size = len(order)
    signed = [f"{name}{sign}" for name in names for sign in ("", "^-1")]
    for m, moved in enumerate(action):
        if len(set(moved)) != size:
            raise GroupDefinitionError(f"{signed[m]} does not act as a permutation")
        if action[m ^ 1][moved[0]] != 0:
            raise GroupDefinitionError(f"inv({names[m // 2]}) does not invert it")
    steps = [(b, *parents[b]) for b in order[1:]]  # (b, x, m) with b = x·m
    # itemgetter(*f)(g) is g after f, as a tuple: composition at C speed
    after_action = [itemgetter(*moved) for moved in action]
    left, after_left = [], []
    for m, moved in enumerate(action):
        row = [moved[0]] * size
        for b, x, n in steps:
            row[b] = action[n][row[x]]
        after_row = itemgetter(*row)
        if any(after_action[n](row) != after_row(action[n]) for n in range(len(action))):
            raise GroupDefinitionError(
                f"not a group product: left multiplication by {signed[m]}"
                " does not commute with the generator action"
            )
        left.append(row)
        after_left.append(after_row)
    rows = [tuple(range(size))] * size  # row 0, the identity's, until the tree reaches b
    inverses = [0] * size
    for b, x, m in steps:
        rows[b] = after_left[m](rows[x])
        inverses[b] = left[m ^ 1][inverses[x]]
    return rows, inverses


class _ReducedWords(Group):
    """Arithmetic on freely reduced words, shared by free and one-relator groups.

    Deliberately defines no canonical_key: reduced words are canonical in a
    free group only, so each subclass decides that for itself.
    """

    def identity(self) -> Word:
        return Word(self.alphabet)

    def multiply(self, a: Word, b: Word) -> Word:
        return reduce_free(a * b)

    def inverse(self, a: Word) -> Word:
        return invert(a)

    def letter_value(self, index: int, sign: int) -> Word:
        return Word(self.alphabet, [(index, sign)])

    def _evaluate(self, word: Word) -> Word:
        return reduce_free(word)

    def element_word(self, a: Word) -> Word:
        return a


def _numbered(prefix: str, rank: Optional[int], what: str) -> tuple[str, ...]:
    """Generator names prefix1..prefix<rank>.

    A rank over MAX_GROUP_SIZE is refused before any name is built, so a
    mistyped rank fails at once instead of building millions of names.
    """
    if rank is None or rank < 0:
        raise GroupDefinitionError(f"{what} needs a non-negative rank or names")
    if rank > MAX_GROUP_SIZE:
        raise GroupDefinitionError(f"{what} rank {rank} exceeds {MAX_GROUP_SIZE} generators")
    return tuple(f"{prefix}{i + 1}" for i in range(rank))


class FreeGroup(_ReducedWords):
    """Free group; elements are freely reduced words."""

    def __init__(self, rank: Optional[int] = None, names: Optional[Sequence[str]] = None):
        if names is None:
            names = _numbered("x", rank, "free group")
        self.alphabet = Alphabet(names)
        self.rank = len(self.alphabet)

    def is_identity(self, a: Word) -> bool:
        """A reduced word is the identity exactly when it is empty."""
        return not a.letters

    def evaluate_reduced(self, word: Word) -> Word:
        return word  # a freely reduced word is already its element

    def canonical_key(self, a: Word):
        return a.letters

    def is_abelian(self) -> bool:
        return self.rank <= 1

    def infinite_order_generator_index(self) -> Optional[int]:
        return 0 if self.rank else None

    def __repr__(self) -> str:
        return f"FreeGroup({list(self.alphabet.names)})"


class FreeAbelianGroup(Group):
    """Free abelian group; elements are integer exponent vectors."""

    _default_prefix = "t"

    def __init__(self, rank: Optional[int] = None, names: Optional[Sequence[str]] = None):
        if names is None:
            names = _numbered(self._default_prefix, rank, "free abelian group")
        self.alphabet = Alphabet(names)
        self.rank = len(self.alphabet)

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def multiply(self, a, b) -> tuple[int, ...]:
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a) -> tuple[int, ...]:
        return tuple(-x for x in a)

    def letter_value(self, index: int, sign: int) -> tuple[int, ...]:
        return tuple(sign if i == index else 0 for i in range(self.rank))

    def _evaluate(self, word: Word) -> tuple[int, ...]:
        return abelianize(word)

    def element_word(self, a) -> Word:
        return Word.from_blocks(self.alphabet, [(i, e) for i, e in enumerate(a) if e])

    def canonical_key(self, a):
        return a

    def is_abelian(self) -> bool:
        return True

    def infinite_order_generator_index(self) -> Optional[int]:
        return 0 if self.rank else None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.alphabet.names)})"


class AbelianizedFreeGroup(FreeAbelianGroup):
    """Abelianization of a free group, kept as its own backend tag.

    Same arithmetic as FreeAbelianGroup; generator names default to the
    free-group convention so words relabel cleanly between the two.
    """

    _default_prefix = "x"


def abelianize(word: Word) -> tuple[int, ...]:
    """Exponent sums per generator; zero exactly on the derived subgroup."""
    sums = [0] * len(word.alphabet)
    for index, sign in word.letters:
        sums[index] += sign
    return tuple(sums)


class AbelianProductGroup(Group):
    """Free abelian part times a finite abelian part.

    Models finitely generated infinite abelian groups with torsion; the
    infinite-order generators are the free part, listed first.
    """

    def __init__(
        self,
        free_rank: int,
        finite: FiniteGroup,
        free_names: Optional[Sequence[str]] = None,
    ):
        if not finite.is_abelian():
            raise GroupDefinitionError("finite part must be abelian")
        if free_names is None:
            free_names = _numbered("t", free_rank, "abelian product")
        if len(free_names) != free_rank:
            raise GroupDefinitionError("one name per free generator required")
        self.free_rank = free_rank
        self.finite = finite
        self.alphabet = Alphabet(tuple(free_names) + finite.alphabet.names)

    def identity(self):
        return ((0,) * self.free_rank, 0)

    def multiply(self, a, b):
        return (
            tuple(x + y for x, y in zip(a[0], b[0])),
            self.finite.multiply(a[1], b[1]),
        )

    def inverse(self, a):
        return (tuple(-x for x in a[0]), self.finite.inverse(a[1]))

    def letter_value(self, index: int, sign: int):
        if index < self.free_rank:
            vec = tuple(sign if i == index else 0 for i in range(self.free_rank))
            return (vec, 0)
        return ((0,) * self.free_rank, self.finite.letter_value(index - self.free_rank, sign))

    def element_word(self, a) -> Word:
        free_part = Word.from_blocks(
            self.alphabet, [(i, e) for i, e in enumerate(a[0]) if e]
        )
        finite_part = relabel(self.finite.element_word(a[1]), self.alphabet)
        return free_part * finite_part

    def canonical_key(self, a):
        return (a[0], a[1])

    def is_abelian(self) -> bool:
        return True

    def infinite_order_generator_index(self) -> Optional[int]:
        return 0 if self.free_rank else None

    def __repr__(self) -> str:
        return f"AbelianProductGroup(Z^{self.free_rank} x order-{self.finite.size})"


class BaumslagSolitar(_ReducedWords):
    """One-relator family <a, b | a^-1 b^n a = b^m>.

    Elements are freely reduced words; equality is decided by pinch
    reduction, which is exact for this presentation.
    """

    def __init__(self, n: int, m: int):
        if n == 0 or m == 0:
            raise GroupDefinitionError("both exponents must be nonzero")
        self.n = n
        self.m = m
        self.alphabet = Alphabet(("a", "b"))

    def equal(self, a: Word, b: Word) -> bool:
        return self.is_trivial(self.multiply(a, invert(b)))

    def is_trivial(self, w: Word) -> bool:
        # One pass: the stack holds b^k0 a^e1 b^k1 ... as [a-exponent, b-exponent]
        # pairs.  a^-e closing a^e b^k pops the pair when the pinch a^-1 b^(qn) a ->
        # b^(qm) or a b^(qm) a^-1 -> b^(qn) applies (q = 0 is free cancellation).
        # The stack stays pinch-free, so by Britton's lemma it ends at [[0, 0]]
        # exactly when the word is trivial.
        stack = [[0, 0]]  # the first a-exponent is a placeholder
        for index, sign in w.letters:
            if index:
                stack[-1][1] += sign
                continue
            e, k = stack[-1]
            over, under = (self.n, self.m) if e < 0 else (self.m, self.n)
            if e == -sign and k % over == 0:
                stack.pop()
                stack[-1][1] += k // over * under
            else:
                stack.append([sign, 0])
        return stack == [[0, 0]]

    def is_abelian(self) -> bool:
        return self.n == 1 and self.m == 1

    def relation(self) -> Word:
        """The defining relator a^-1 b^n a b^-m."""
        return Word.from_blocks(self.alphabet, [("a", -1), ("b", self.n), ("a", 1), ("b", -self.m)])

    def __repr__(self) -> str:
        return f"BaumslagSolitar({self.n}, {self.m})"


class Homomorphism(
    NamedTuple("Homomorphism", [("source", Group), ("target", Group), ("images", tuple)])
):
    """Letter substitution between two groups, wreath products included.

    The images are checked to define a homomorphism, or GroupDefinitionError
    is raised: any images do from a free group; from a free abelian group
    they must commute pairwise; from a finite group, image(x.m) must equal
    image(x).image(m) for every element x and generator m, which makes the
    image of an element, that of its element word, a homomorphism.  A wreath
    product must fix its top letters, mapping onto a wreath product over the
    same top handle, and its base letters must define such a map between the
    bases.  Any other source is refused.  Single-letter images keep the
    exact letter pattern, so palindromic words stay palindromic.  Immutable
    and hashable; building one, _replace included, runs the checks.
    """

    __slots__ = ()

    def __new__(cls, source: Group, target: Group, images: tuple[Word, ...]):
        self = super().__new__(cls, source, target, images)
        if any(image.alphabet != target.alphabet for image in images):
            raise AlphabetMismatch("image word is not over the target alphabet")
        if len(images) != len(source.alphabet):
            raise GroupDefinitionError("one image per source generator required")
        if isinstance(source, FreeAbelianGroup):
            values = [target.evaluate(image) for image in images]
            if any(
                not target.equal(target.multiply(g, h), target.multiply(h, g))
                for g in values
                for h in values
            ):
                raise GroupDefinitionError("the images of a free abelian group must commute")
        elif isinstance(source, FiniteGroup):
            values = [target.evaluate(image) for image in images]
            image = [self.image_of_element(x) for x in source.elements()]
            if any(
                not target.equal(image[source.multiply(x, g)], target.multiply(image[x], value))
                for x in source.elements()
                for g, value in zip(source.generator_indices, values)
            ):
                raise GroupDefinitionError("the images do not satisfy the source's relations")
        elif not isinstance(source, FreeGroup):
            self._check_wreath()
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks as well

    def _check_wreath(self) -> None:
        from .wreath import WreathProduct  # wreath.py imports this module

        source, target = self.source, self.target
        if not isinstance(source, WreathProduct):
            raise GroupDefinitionError(f"cannot check a homomorphism from {source!r}")
        if not (isinstance(target, WreathProduct) and target.top is source.top):
            raise GroupDefinitionError("a wreath product maps onto one over the same top handle")
        split = len(source.top.alphabet)
        # the shared top comes first in both alphabets, so its letters keep their indices
        if any(image.letters != ((i, 1),) for i, image in enumerate(self.images[:split])):
            raise GroupDefinitionError("a wreath product's top letters must map to themselves")
        base_images = []
        for image in self.images[split:]:
            if any(index < split for index, _ in image.letters):
                raise GroupDefinitionError("a base letter must map to a word over the target base")
            base_images.append(relabel(image, target.base.alphabet))
        Homomorphism(source.base, target.base, tuple(base_images))

    def push_word(self, w: Word) -> Word:
        if w.alphabet != self.source.alphabet:
            raise AlphabetMismatch("word is not over the source alphabet")
        letters: list = []
        for index, sign in w.letters:
            image = self.images[index]
            letters += image.letters if sign > 0 else invert(image).letters
        return Word(self.target.alphabet, letters)

    def image_of_word(self, w: Word):
        return self.target.evaluate(self.push_word(w))

    def image_of_element(self, a):
        return self.image_of_word(self.source.element_word(a))


def quotient_map(
    source: Group, target: Group, images: Sequence["Word | str"]
) -> Homomorphism:
    """Homomorphism sending each source generator to a target word."""
    words = tuple(
        Word.parse(target.alphabet, im) if isinstance(im, str) else im for im in images
    )
    return Homomorphism(source=source, target=target, images=words)
