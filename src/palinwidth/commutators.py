"""Commutator words and constructive expressions inside derived subgroups."""
from __future__ import annotations

from .errors import NotInDerivedSubgroup
from .groups import BreadthFirst, FiniteGroup, abelianize
from .words import Word, invert, reduce_free


def commutator_word(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v, unreduced."""
    return invert(u) * invert(v) * u * v


def express_in_derived(w: Word) -> list[tuple[Word, Word]]:
    """Write a zero-exponent-sum word as an explicit product of commutators.

    Peel-off recursion: a reduced w with zero sums starts with some letter a
    whose inverse occurs later, so w = a.u.a^-1.v = [a^-1, u^-1] . (u.v),
    and u.v is two letters shorter after reduction.  The pair count is at
    most ceil(len/2); no minimality is attempted.
    """
    if any(abelianize(w)):
        raise NotInDerivedSubgroup(f"nonzero exponent sums: {abelianize(w)}")
    alphabet = w.alphabet
    pairs: list[tuple[Word, Word]] = []
    current = reduce_free(w)
    while current.letters:
        first = current.letters[0]
        matching = (first[0], -first[1])
        split = current.letters.index(matching, 1)
        u = Word._unchecked(alphabet, current.letters[1:split])
        v = Word._unchecked(alphabet, current.letters[split + 1 :])
        pairs.append((Word._unchecked(alphabet, [matching]), invert(u)))
        current = reduce_free(u * v)
    return pairs


def commutator_closure(group: FiniteGroup) -> frozenset[int]:
    """Elements reachable as products of commutators (the derived subgroup)."""
    commutators = {
        group.multiply(
            group.multiply(group.inverse(g), group.inverse(h)),
            group.multiply(g, h),
        )
        for g in group.elements()
        for h in group.elements()
    }
    return frozenset(BreadthFirst(group.identity(), commutators, group.multiply).run().order)
