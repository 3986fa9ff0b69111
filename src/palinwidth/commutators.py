"""Commutator words and constructive expressions inside derived subgroups."""
from __future__ import annotations

from .errors import NotInDerivedSubgroup
from .groups import BreadthFirst, FiniteGroup, abelianize
from .words import Word, invert


def commutator_word(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v, unreduced."""
    return invert(u) * invert(v) * u * v


def express_in_derived(w: Word) -> list[tuple[Word, Word]]:
    """Write a zero-exponent-sum word as an explicit product of commutators.

    Block peel: a reduced w with zero sums starts with a prefix A whose
    inverse occurs later as a contiguous block, so w = A.u.A^-1.v =
    [A^-1, u^-1] . (u.v).  Each peel takes the longest such A (at least
    its first letter qualifies) at the first occurrence of A^-1, and
    recurses on u.v, which is reduced once its seam is.  Each peel removes
    at least two letters, so the pair count is at most ceil(len/2), and
    a block such as x1^k.x2.x1^-k.x2^-1 is one pair, not k; no minimality
    is attempted.

    Search: if A^-1 occurs after A, the inverse of every shorter prefix
    does too, so the longest A is found by binary search.  w is freely
    reduced as it is encoded, and it and its inverse are kept as strings
    with one code point per signed letter, A^-1
    is read off the end of the inverse string and looked for with str.find,
    so a peel costs O(log L) linear scans at C speed, O(L log L) in all.
    u.v and its inverse are sliced from the two strings, never re-encoded.
    """
    sums = abelianize(w)
    if any(sums):
        raise NotInDerivedSubgroup(f"nonzero exponent sums: {sums}")
    alphabet = w.alphabet
    # (index, +1) is 2r and (index, -1) is 2r+1, r the index's rank among those present,
    # so a letter's inverse is its code xor 1 and every code is below 2.len(w)
    ranks: dict[int, int] = {}
    codes: list[int] = []
    for index, sign in w.letters:  # encoded and freely reduced in one pass
        code = 2 * ranks.setdefault(index, len(ranks)) + (sign < 0)
        if codes and codes[-1] == code ^ 1:
            codes.pop()
        else:
            codes.append(code)
    current = "".join(map(chr, codes))
    inverse = "".join([chr(code ^ 1) for code in reversed(codes)])
    letter_of = [(index, sign) for index in ranks for sign in (1, -1)]  # by code

    def decoded(text: str) -> Word:
        return Word._unchecked(alphabet, map(letter_of.__getitem__, map(ord, text)))

    pairs: list[tuple[Word, Word]] = []
    while current:
        n = len(current)
        # the first letter's inverse occurs later, as the sums are zero
        k, too_long, split = 1, n // 2 + 1, current.find(inverse[-1], 1)
        while too_long - k > 1:
            middle = (k + too_long) // 2
            found = current.find(inverse[n - middle :], middle)
            if found >= 0:
                k, split = middle, found
            else:
                too_long = middle
        # current = A.u.A^-1.v and inverse = v^-1.A.u^-1.A^-1
        u, v = current[k:split], current[split + k :]
        u_inv, v_inv = inverse[n - split : n - k], inverse[: n - split - k]
        pairs.append((decoded(inverse[n - k :]), decoded(u_inv)))
        seam = 0
        while seam < min(len(u), len(v)) and ord(u[-1 - seam]) ^ 1 == ord(v[seam]):
            seam += 1
        current = u[: len(u) - seam] + v[seam:]
        inverse = v_inv[: len(v_inv) - seam] + u_inv[seam:]
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
