"""Restricted wreath products base-by-top.

An element is a finite-support map from top-group positions to base-group
values plus a top component.  Convention, fixed once and tested: evaluating
a word left to right with running top prefix u, a base letter deposits its
value at position u^-1.  Consequently the word  a^-1 . f . a  (a a top
letter, f a base letter) places the lamp f at the position of a, and the
product law is

    (phi, a) . (psi, b) = (p -> phi(p) * psi(p*a), a*b).

Evaluation collects each position's base letters in word order, cancelling
inverse neighbours as they are deposited, and has the base group evaluate
each position's reduced word once (evaluate_reduced); identity lamps are
dropped.  A finite top steps through its letter columns, the one table its
handle built, and any other top multiplies by its signed letter values; the
wreath handle reads whichever its top steps by, and maps its base letters,
when it is built.  A run of base letters computes its position once.

A wreath product meets the same Group contract as its factors, so anything
that takes a group (certificates, homomorphisms, push-forwards) takes one
too.  placed(p, w) writes the conjugation p^-1 . w . p that puts a base
word's value at position p; the element word and every construction place
their lamps through it.  The element word is the top's word followed by
each lamp's base word, placed, positions in the top's canonical order.
Over finite factors, as_finite_group builds the whole product by
FiniteGroup.from_wreath, from the factors' letter columns.
"""
from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from .errors import GroupDefinitionError
from .groups import BaumslagSolitar, FiniteGroup, Group
from .words import Alphabet, Letter, Word, relabel


class WreathElement:
    __slots__ = ("top", "base")

    def __init__(self, top: Any, base: dict):
        self.top = top
        self.base = base

    def __repr__(self) -> str:
        return f"WreathElement(top={self.top!r}, base={self.base!r})"


class WreathProduct(Group):
    """Handle for base wr top over the combined generating set.

    The combined alphabet lists the top generators first, then the base
    generators; the two name sets must be disjoint.  Lamps are keyed by the
    top element as given, so the top's elements must be canonical: a
    Baumslag-Solitar top, whose equal elements can differ as words, is
    refused, and so is a wreath-product top, whose elements hash by identity.
    """

    def __init__(self, top: Group, base: Group):
        if isinstance(top, (BaumslagSolitar, WreathProduct)):
            kind = "Baumslag-Solitar" if isinstance(top, BaumslagSolitar) else "wreath-product"
            raise GroupDefinitionError(f"a {kind} top has no canonical elements to key lamps by")
        overlap = set(top.alphabet.names) & set(base.alphabet.names)
        if overlap:
            raise GroupDefinitionError(
                f"top and base share generator names: {sorted(overlap)}"
            )
        self.top = top
        self.base = base
        self.alphabet = Alphabet(top.alphabet.names + base.alphabet.names)
        self._split = len(top.alphabet)
        # what evaluate reads per letter: a finite top's letter columns, or any other top's
        # letter values; each base letter and its inverse over the base's
        self._top_columns = top.letter_columns if isinstance(top, FiniteGroup) else None
        self._top_values = top.letter_values() if self._top_columns is None else None
        self._base_letters = {
            (self._split + i, sign): ((i, sign), (i, -sign))
            for i in range(len(base.alphabet)) for sign in (1, -1)
        }
        self._widened: dict[FiniteGroup, WreathProduct] = {}

    # element arithmetic

    def identity(self) -> WreathElement:
        return WreathElement(self.top.identity(), {})

    def element(self, top_value: Any, lamps: Iterable[tuple[Any, Any]] = ()) -> WreathElement:
        """The element with this top and these (position, value) lamps, identity lamps dropped."""
        is_identity = self.base.is_identity
        return WreathElement(top_value, {p: v for p, v in lamps if not is_identity(v)})

    def lamp(self, position: Any, value: Any) -> WreathElement:
        return self.element(self.top.identity(), [(position, value)])

    def multiply(self, g: WreathElement, h: WreathElement) -> WreathElement:
        base = dict(g.base)
        shift = self.top.inverse(g.top)
        for position, value in h.base.items():
            p = self.top.multiply(position, shift)
            if p in base:
                merged = self.base.multiply(base[p], value)
                if self.base.is_identity(merged):
                    del base[p]
                else:
                    base[p] = merged
            else:
                base[p] = value
        return WreathElement(self.top.multiply(g.top, h.top), base)

    def inverse(self, g: WreathElement) -> WreathElement:
        base = {
            self.top.multiply(position, g.top): self.base.inverse(value)
            for position, value in g.base.items()
        }
        return WreathElement(self.top.inverse(g.top), base)

    def equal(self, g: WreathElement, h: WreathElement) -> bool:
        if not self.top.equal(g.top, h.top):
            return False
        if len(g.base) != len(h.base):
            return False
        for position, value in g.base.items():
            if position not in h.base or not self.base.equal(value, h.base[position]):
                return False
        return True

    def is_identity(self, g: WreathElement) -> bool:
        return not g.base and self.top.is_identity(g.top)

    evaluate = Group.evaluate  # on the class, so perfbench's tracer times the product's own

    def _evaluate(self, word: Word) -> WreathElement:
        """The element a word over the combined alphabet spells, read left to right.

        Top letters step the running prefix u; each run of base letters
        between two top letters deposits at u^-1, which is computed once per
        run.  A deposited letter cancels the last one at its position when the
        two are inverses, as in any group; the base group evaluates each freely
        reduced position word through evaluate_reduced; identity lamps drop.
        """
        top, split, top_values = self.top, self._split, self._top_values
        columns, base_letters = self._top_columns, self._base_letters
        multiply = top.multiply
        inverse = top.inverse if columns is None else top._inv.__getitem__
        prefix = top.identity()
        deposits: dict = {}  # position -> its base letters, in word order
        run = None  # the letter list of the current run's position
        for letter in word.letters:
            if letter[0] < split:
                if columns is None:
                    prefix = multiply(prefix, top_values[letter])
                else:
                    prefix = columns[letter][prefix]
                run = None
            else:
                base_letter, inverse_letter = base_letters[letter]
                if run is None:
                    run = deposits.setdefault(inverse(prefix), [])
                if run and run[-1] == inverse_letter:
                    run.pop()
                else:
                    run.append(base_letter)
        # a base run is the word's own letters shifted down by the top's rank: no check
        return self.element(prefix, [
            (position, self.base.evaluate_reduced(Word._unchecked(self.base.alphabet, letters)))
            for position, letters in deposits.items()
        ])

    def widened(self, top: FiniteGroup) -> WreathProduct:
        """This product's base over an extension of its top, one handle per extension.

        An extension (FiniteGroup.with_extra_generator) shares the top's
        table and element indices, so an element of this product is one of
        the widened product too.
        """
        wide = self._widened.get(top)
        if wide is None:
            if not (isinstance(self.top, FiniteGroup) and top.extends(self.top)):
                raise GroupDefinitionError("a widened top must extend this product's top")
            wide = self._widened[top] = WreathProduct(top, self.base)
        return wide

    def letter_value(self, index: int, sign: int) -> WreathElement:
        return self.evaluate(Word(self.alphabet, [(index, sign)]))

    def is_abelian(self) -> bool:
        """Abelian exactly when one factor is trivial and the other abelian."""
        return (_is_trivial(self.top) and self.base.is_abelian()) or (
            _is_trivial(self.base) and self.top.is_abelian()
        )

    def support(self, g: WreathElement) -> list:
        return sorted(g.base, key=self.top.canonical_key)

    def placed(self, position: Any, letters: Sequence[Letter]) -> list[Letter]:
        """The letters of p^-1 . w . p for w's letters over the wreath alphabet.

        With w a base word, that is its value as a lamp at position p.
        """
        # top letters keep their indices in the combined alphabet
        conjugator = self.top.element_word(position).letters
        return [(index, -sign) for index, sign in reversed(conjugator)] + [*letters, *conjugator]

    def element_word(self, g: WreathElement) -> Word:
        """The top's word, then each lamp's base word placed at p = position . top.

        Lamps come in canonical order of p; the word evaluates to the element.
        """
        top = self.top
        lamps = sorted(
            ((top.multiply(position, g.top), value) for position, value in g.base.items()),
            key=lambda lamp: top.canonical_key(lamp[0]),
        )
        letters = list(top.element_word(g.top).letters)
        for position, value in lamps:
            base_word = relabel(self.base.element_word(value), self.alphabet)
            letters += self.placed(position, base_word.letters)
        return Word(self.alphabet, letters)

    # finite materialisation

    def as_finite_group(self) -> FiniteGroup:
        """The whole wreath product as a finite group, built by FiniteGroup.from_wreath.

        With k = |top| and m = |base|, the payload t + k·Σ v_p·m^p codes the
        element with top t and lamp values v_p at p, all as element indices.
        """
        top, base = self.top, self.base
        if not isinstance(top, FiniteGroup) or not isinstance(base, FiniteGroup):
            raise GroupDefinitionError("finite materialisation needs finite top and base")
        return FiniteGroup.from_wreath(
            self.alphabet.names, list(top.letter_columns.values()), top._inv,
            list(base.letter_columns.values()),
        )

    def __repr__(self) -> str:
        return f"WreathProduct(top={self.top!r}, base={self.base!r})"


def _is_trivial(group: Group) -> bool:
    """Whether every generator evaluates to the identity."""
    return all(group.is_identity(group.letter_value(i, 1)) for i in range(len(group.alphabet)))
