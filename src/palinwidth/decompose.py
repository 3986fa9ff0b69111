"""Constructive palindrome factorizations with evaluation certificates.

Every operation here emits a list of unreduced palindromic words together
with a certificate from the oracle: factors are checked structurally and
their concatenation is evaluated against an independently computed target
element.  Nothing is ever reported without that check passing, and each
reported result is certified once: parts built on the way to it (the cursor
walk, the carrier word, the shifted construction's top powers) are covered
by the final certificate; the carrier's reverse is evaluated only on refusal.

The constructions:

* abelian elements split into one power word per generator;
* a commutator [a, t] over an abelian top unrolls into alternating
  sandwich factors and power words (2n factors, 2n+1 when n is odd);
* over an infinite abelian top, each commutator costs 7 factors built
  from two high powers s = x^q and t = x^y of an infinite-order
  generator, found by verify-and-retry with doubling;
* over a non-abelian top with a reversal-asymmetric relation r, a whole
  product of conjugated commutators collapses into the single palindrome
  h.reverse(h), because interleaving r makes reverse(h) evaluate to the
  identity;
* over a finite top the abelianized part is walked with geodesic cursor
  moves and power-word deposits; the derived residual, each lamp with its
  deposit taken off, goes through the same single-palindrome step.

A carrier construction given no witness searches once per top handle:
the oracle keeps its shortest asymmetric relation, the top its extension
by c, and the wreath product its handle over that extension.
"""
from __future__ import annotations

from functools import partial
from typing import Any, NamedTuple, Optional, Sequence

from .commutators import commutator_word, express_in_derived
from .errors import (
    AbelianGroup,
    GroupDefinitionError,
    InvalidWitness,
    NoInfiniteOrderGenerator,
    NotAbelian,
    NoValidShift,
    PalinwidthError,
    ReverseNotTrivial,
)
from .groups import (
    BaumslagSolitar,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    Homomorphism,
    abelianize,
)
from .oracle import (
    FactorizationCertificate,
    oracle_for,
    verify_factorization,
)
from .words import Word, invert, relabel, reverse, sandwich, within_limit
from .wreath import WreathElement, WreathProduct


class CommutatorSite(NamedTuple):
    """One support position with its list of commutator argument pairs."""

    position: Any
    pairs: tuple[tuple[Word, Word], ...]


class CommutatorData(NamedTuple):
    sites: tuple[CommutatorSite, ...]

    def max_pairs(self) -> int:
        return max((len(site.pairs) for site in self.sites), default=0)


class RelationWitness(NamedTuple):
    """A relation r with r = 1 but reverse(r) != 1 in the group.

    When the original generating set admits no such relation, the group
    handle is extended by one extra generator c and the witness lives over
    the extended alphabet; extra_generator records (name, value).
    """

    group: Group
    relation: Word
    extra_generator: Optional[tuple[str, Any]] = None

    @property
    def reverse_value(self) -> Any:
        """The value of reverse(relation), not the identity for a valid witness."""
        return self.group.evaluate(reverse(self.relation))


class PalindromeFactorization(NamedTuple("PalindromeFactorization", [
    ("factors", tuple), ("target", Any), ("bound_claimed", int), ("bound_formula", str),
    ("certificate", FactorizationCertificate), ("meta", dict),
])):
    """Ordered palindromic factors, their target, and the claimed bound, checked when built."""

    __slots__ = ()

    def __new__(
        cls,
        factors: Sequence[Word],
        target: Any,
        bound_claimed: int,
        bound_formula: str,
        certificate: FactorizationCertificate,
        meta: Optional[dict] = None,
    ):
        factors = tuple(factors)
        if len(factors) > bound_claimed:
            raise PalinwidthError(f"{len(factors)} factors exceed claimed bound {bound_claimed}")
        meta = {} if meta is None else meta
        fields = (factors, target, bound_claimed, bound_formula, certificate, meta)
        return super().__new__(cls, *fields)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks as well

    @property
    def count(self) -> int:
        return len(self.factors)

    @property
    def verified(self) -> bool:
        return self.certificate.valid


def _checked(
    group: Group, target, factors, bound, formula, meta=None, carrier: Optional[Word] = None
) -> PalindromeFactorization:
    certificate = verify_factorization(group, target, factors)
    if not certificate.valid:
        if carrier is not None and not group.is_identity(group.evaluate(reverse(carrier))):
            raise ReverseNotTrivial("reverse of the carrier word is not the identity")
        raise PalinwidthError(
            f"internal verification failed: {certificate.reason}"
            f" at factor {certificate.failing_index}"
        )
    return PalindromeFactorization(
        factors=tuple(factors),
        target=target,
        bound_claimed=bound,
        bound_formula=formula,
        certificate=certificate,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# abelian elements


def decompose_abelian_element(group: Group, element) -> PalindromeFactorization:
    """One power-word palindrome per generator with a nonzero exponent.

    The exponents are those of the element's word: in an abelian group its
    ordered product of generator powers is the element.
    """
    if not group.is_abelian():
        raise NotAbelian("abelian handle required")
    return _checked(group, element, _power_words(group, element), len(group.alphabet), "rank")


def _power_words(group: Group, element) -> list[Word]:
    """The element's word as one power word per generator with a nonzero exponent."""
    exponents = abelianize(group.element_word(element))
    return [Word.letter(group.alphabet, i, e) for i, e in enumerate(exponents) if e]


# ---------------------------------------------------------------------------
# commutators over an abelian top


def abelian_top_target(
    wreath: WreathProduct,
    first_word: Word,
    exponents: Sequence[int],
    second_word: Optional[Word] = None,
) -> WreathElement:
    """[a, t] with t = t1^i1 ... tn^in, times [b, t^2] when b is given.

    a and b must evaluate into the base group.  Inputs are refused before any
    word is built when the unrolled factors, whose sandwiches hold each word
    twice, would pass the letter limit: decompose and verify refuse them alike.
    """
    top = wreath.top
    if not top.is_abelian():
        raise NotAbelian("commutator unrolling needs an abelian top")
    n = len(top.alphabet)
    if n == 0:
        raise GroupDefinitionError("top group has no generators")
    exponents = list(exponents)
    if len(exponents) != n:
        raise GroupDefinitionError(f"expected {n} exponents, got {len(exponents)}")
    words = [(k, w) for k, w in ((1, first_word), (2, second_word)) if w is not None]
    within_limit(sum(2 * len(w) * (n + n % 2) + 2 * k * sum(map(abs, exponents)) for k, w in words))
    target = wreath.identity()
    for scale, word in words:
        a = relabel(word, wreath.alphabet)
        if not top.is_identity(wreath.evaluate(a).top):
            raise GroupDefinitionError(f"word {word} does not evaluate into the base group")
        t = Word.from_blocks(wreath.alphabet, [(i, scale * e) for i, e in enumerate(exponents)])
        target = wreath.multiply(target, wreath.evaluate(commutator_word(a, t)))
    return target


def _unrolled_commutator(wreath: WreathProduct, a: Word, exponents: Sequence[int]) -> list[Word]:
    """Factors of [a, t]: alternating sandwiches around the inverted power
    words collapse to a^-1 t^-1 a, then the power words supply t."""
    n = len(exponents)
    factors: list[Word] = []
    for k in range(n - 1, -1, -1):
        core = Word.letter(wreath.alphabet, k, -exponents[k])
        if (n - 1 - k) % 2 == 0:
            factors.append(sandwich(invert(a), core))
        else:
            factors.append(sandwich(reverse(a), core))
    if n % 2 == 1:
        factors.append(reverse(a) * a)
    factors.extend(Word.letter(wreath.alphabet, k, exponents[k]) for k in range(n))
    return factors


def decompose_commutator_abelian_top(
    wreath: WreathProduct, base_word: Word, exponents: Sequence[int]
) -> PalindromeFactorization:
    """[a, t1^i1 ... tn^in] as 2n palindromes (2n+1 for odd n)."""
    return _unrolled_commutators(wreath, base_word, exponents)


def decompose_commutator_pair(
    wreath: WreathProduct,
    first_word: Word,
    second_word: Word,
    exponents: Sequence[int],
) -> PalindromeFactorization:
    """[a, t][b, t^2] via two commutator unrollings; t^2 doubles every exponent."""
    return _unrolled_commutators(wreath, first_word, exponents, second_word)


def unrolled_bound(exponents: Sequence[int], pair: bool) -> tuple[int, str]:
    """Bound and formula of [a, t], or of [a, t][b, t^2] for a pair: 2n palindromes
    per commutator, 2n+1 for odd n."""
    n, k = len(exponents), 2 if pair else 1
    return k * (2 * n + n % 2), f"{2 * k}n" + (f"+{k}" if n % 2 else "")


def _unrolled_commutators(
    wreath: WreathProduct,
    first_word: Word,
    exponents: Sequence[int],
    second_word: Optional[Word] = None,
) -> PalindromeFactorization:
    """[a, t], times [b, t^2] when b is given (see unrolled_bound)."""
    exponents = list(exponents)
    bound, formula = unrolled_bound(exponents, second_word is not None)
    target = abelian_top_target(wreath, first_word, exponents, second_word)
    factors: list[Word] = []
    for scale, word in ((1, first_word), (2, second_word)):
        if word is not None:
            scaled = [scale * e for e in exponents]
            factors += _unrolled_commutator(wreath, relabel(word, wreath.alphabet), scaled)
    return _checked(wreath, target, factors, bound, formula)


# ---------------------------------------------------------------------------
# reversal-asymmetric relations


def find_reversal_asymmetric_relation(group: Group) -> RelationWitness:
    """A shortest relation whose reverse is not a relation.

    Finite groups are searched exactly through the pair automaton; when the
    given generators admit no witness, the set is extended by c = x.y for
    the first non-commuting generator pair and the search is repeated.
    The Baumslag-Solitar family returns its defining relator directly.
    """
    if isinstance(group, BaumslagSolitar):
        if group.is_abelian():
            raise AbelianGroup("every relation of an abelian group reverses to one")
        if abs(group.n) == abs(group.m):
            raise InvalidWitness("the defining relator reverses to a relation when |n| = |m|")
        witness = RelationWitness(group=group, relation=group.relation())
        _validate_witness(group, witness)
        return witness
    if not isinstance(group, FiniteGroup):
        raise GroupDefinitionError(
            "relation search needs a finite group or a Baumslag-Solitar handle"
        )
    pair = group.non_commuting_pair()
    if pair is None:
        raise AbelianGroup("every relation of an abelian group reverses to one")
    r = oracle_for(group).asymmetric_relation()
    if r is not None:
        return RelationWitness(group=group, relation=r)
    name = _fresh_name(group.alphabet, "c")
    value = group.multiply(*pair)
    extended = group.with_extra_generator(name, value)
    # with c = x.y, x.y.c^-1 is a relation and c^-1.y.x = [y, x] is not: the search finds one
    r = oracle_for(extended).asymmetric_relation()
    return RelationWitness(group=extended, relation=r, extra_generator=(name, value))


def _fresh_name(names, stem: str) -> str:
    if stem not in names:
        return stem
    k = 2
    while f"{stem}{k}" in names:
        k += 1
    return f"{stem}{k}"


def _validate_witness(top: Group, witness: RelationWitness) -> None:
    if not top.is_identity(top.evaluate(witness.relation)):
        raise InvalidWitness("witness word is not a relation")
    if top.is_identity(top.evaluate(reverse(witness.relation))):
        raise InvalidWitness("witness relation reverses to a relation")


def _relation_product(
    wreath: WreathProduct, witness: Optional[RelationWitness]
) -> tuple[WreathProduct, RelationWitness]:
    """The product over the witness's top, and that witness: the search's (exact) one
    when None, else checked to be a relation of the finite top or of the top extended.
    An extension whose names meet the base's is made again under names fresh for the
    product; they come last in both alphabets, so the relation's letters carry over."""
    top = wreath.top
    if not isinstance(top, FiniteGroup):
        raise GroupDefinitionError("finite top required")
    if witness is None:
        witness = find_reversal_asymmetric_relation(top)  # checked by the search
    elif not (isinstance(witness.group, FiniteGroup) and witness.group.extends(top)):
        raise InvalidWitness("witness is not over the top or the top extended")
    else:
        _validate_witness(witness.group, witness)
    k = len(top.alphabet)
    if not set(wreath.base.alphabet.names).isdisjoint(witness.group.alphabet.names[k:]):
        group = top
        for value in witness.group.generator_indices[k:]:
            extra = (_fresh_name([*group.alphabet.names, *wreath.base.alphabet.names], "c"), value)
            group = group.with_extra_generator(*extra)
        witness = RelationWitness(group, Word(group.alphabet, witness.relation.letters), extra)
    # an extension shares the top's table and element indices: an element's
    # value over this product is its value over the widened one as well
    return (wreath if len(witness.group.alphabet) == k else wreath.widened(witness.group)), witness


# ---------------------------------------------------------------------------
# derived subgroup of the base, non-abelian top


def commutator_target(wreath: WreathProduct, data: CommutatorData, top_value) -> WreathElement:
    """The element the data denotes, top_value times prod_i position_i^-1 (prod_j [f_ij, g_ij])
    position_i, over distinct positions and base words; one base evaluation per site."""
    keys = [wreath.top.canonical_key(site.position) for site in data.sites]
    if len(set(keys)) != len(keys):
        raise GroupDefinitionError("commutator positions must be pairwise distinct")
    lamps = []
    for site in data.sites:
        letters: list = []
        for f_word, g_word in site.pairs:
            if f_word.alphabet != wreath.base.alphabet or g_word.alphabet != wreath.base.alphabet:
                raise GroupDefinitionError("commutator arguments must be base words")
            letters += commutator_word(f_word, g_word).letters
        lamps.append((site.position, wreath.base.evaluate(Word(wreath.base.alphabet, letters))))
    return wreath.multiply(wreath.element(top_value), wreath.element(wreath.top.identity(), lamps))


def _carrier(wreath: WreathProduct, data: CommutatorData, witness: RelationWitness) -> Word:
    """The word h with h = the site lamps and reverse(h) = 1, for sites commutator_target accepts.

    h interleaves the relation r around each commutator argument; reversing
    h sends the f- and g-blocks to two different positions where they cancel
    pairwise, so reverse(h) evaluates to the identity and h.reverse(h) is a
    palindrome representing the same element as h.  As r is a relation (the
    callers check a witness they are given), h evaluates to the site lamps, so
    a certificate covering h.reverse(h) passes exactly when reverse(h) = 1:
    _checked evaluates reverse(h) on refusal only.
    """
    r = relabel(witness.relation, wreath.alphabet)
    r_inv = invert(r)
    letters: list = []
    for site in data.sites:
        lamp: list = []
        for f_word, g_word in site.pairs:
            f = relabel(f_word, wreath.alphabet)
            g = relabel(g_word, wreath.alphabet)
            for part in (invert(f), r_inv, invert(g), r, f, r_inv, g, r):
                lamp += part.letters
        letters += wreath.placed(site.position, lamp)
    # every letter comes from a relabelled word, its inverse or a placed conjugator
    return Word._unchecked(wreath.alphabet, letters)


def _with_carrier(
    wide: WreathProduct, target, factors: list, bound, formula, data, witness, meta: dict
) -> PalindromeFactorization:
    """factors, then h.reverse(h) for the sites' carrier h (see _carrier) unless h is
    empty, certified over the witness's product; meta gains the carrier, the witness
    and the count of derived factors."""
    h = _carrier(wide, data, witness)
    if h.letters:
        factors.append(h * reverse(h))
    meta.update(carrier=h, witness=witness, derived_factors=int(bool(h.letters)))
    return _checked(wide, target, factors, bound, formula, meta, carrier=h)


def decompose_derived_wreath(
    wreath: WreathProduct,
    data: CommutatorData,
    top_value,
    witness: Optional[RelationWitness] = None,
) -> PalindromeFactorization:
    """Whole derived-base part as one palindrome h.reverse(h) (see _carrier),
    plus at most pw(top) palindromes from the oracle for the top element; both
    live over the witness's top (see _relation_product; the search's when the
    witness is None), as does the bound."""
    wide, witness = _relation_product(wreath, witness)
    top = wide.top
    bound, formula = derived_bound(top)
    target = commutator_target(wreath, data, top_value)
    factors = [relabel(w, wide.alphabet) for w in oracle_for(top).decompose(top_value)]
    meta = {"top_width": bound - 1}
    return _with_carrier(wide, target, factors, bound, formula, data, witness, meta)


def derived_bound(top: FiniteGroup) -> tuple[int, str]:
    """Bound and formula of decompose_derived_wreath over a top: pw(top), plus the carrier."""
    return oracle_for(top).width().width + 1, "pw(top)+1"


# ---------------------------------------------------------------------------
# shifted commutators over an infinite abelian top

MAX_SHIFT_RETRIES = 16  # doublings of (q, y) = (1, 2) before NoValidShift


def decompose_shifted_commutators(
    wreath: WreathProduct, data: CommutatorData, top_value
) -> PalindromeFactorization:
    """Seven palindromes per commutator index, shifted by powers of one generator.

    For each j the aggregated words kappa_j = prod_i pos_i^-1 f_ij pos_i and
    tau_j = prod_i pos_i^-1 g_ij pos_i are wrapped as

        kappa_j^-1 s^-1 rev(kappa_j^-1) . s . tau_j^-1 t^-1 rev(tau_j^-1)
        . t s^-1 . rev(kappa_j) s kappa_j . t^-1 . rev(tau_j) t tau_j

    with s = x^q, t = x^y, x the top's first infinite-order generator.
    Whether a given (q, y) separates the support is checked by evaluation;
    starting from (1, 2), both exponents double on each mismatch.
    """
    top = wreath.top
    if not top.is_abelian():
        raise NotAbelian("shifted commutators need an abelian top")
    target = commutator_target(wreath, data, top_value)
    index = top.infinite_order_generator_index()
    if index is None:
        raise NoInfiniteOrderGenerator("top has no infinite-order generator")

    n = data.max_pairs()
    bound, formula = shifted_bound(top, data)
    prefix = [relabel(w, wreath.alphabet) for w in _power_words(top, top_value)]

    def aggregate(j: int, which: int) -> Word:
        letters: list = []
        for site in data.sites:
            if j < len(site.pairs):
                argument = relabel(site.pairs[j][which], wreath.alphabet)
                letters += wreath.placed(site.position, argument.letters)
        return Word(wreath.alphabet, letters)

    # kappa_j and tau_j do not depend on the shift, so retries reuse them
    arguments = [(aggregate(j, 0), aggregate(j, 1)) for j in range(n)]

    power = partial(Word.letter, wreath.alphabet, index)

    q, y = 1, 2
    for attempt in range(MAX_SHIFT_RETRIES + 1):
        factors = list(prefix)
        for kappa, tau in arguments:
            factors.append(sandwich(invert(kappa), power(-q)))
            factors.append(power(q))
            factors.append(sandwich(invert(tau), power(-y)))
            factors.append(power(y - q))
            factors.append(sandwich(reverse(kappa), power(q)))
            factors.append(power(-y))
            factors.append(sandwich(reverse(tau), power(y)))
        certificate = verify_factorization(wreath, target, factors)
        if certificate.valid:
            return PalindromeFactorization(
                factors=tuple(factors),
                target=target,
                bound_claimed=bound,
                bound_formula=formula,
                certificate=certificate,
                meta={"retries": attempt, "shift": (index, q, y)},
            )
        q *= 2
        y *= 2
    raise NoValidShift(f"no separating shift found in {MAX_SHIFT_RETRIES} retries")


def shifted_bound(top: Group, data: CommutatorData) -> tuple[int, str]:
    """Bound and formula of decompose_shifted_commutators: r power words, 7 per commutator index."""
    return len(top.alphabet) + 7 * data.max_pairs(), "r+7n"


# ---------------------------------------------------------------------------
# finite top


def _cursor_walk(wreath: WreathProduct, element: WreathElement, residual=None) -> list[Word]:
    """Geodesic cursor moves over the support, with power-word deposits.

    Each lamp deposits its exponent sums, the image of its value in the
    abelianized base; a lamp whose sums are all zero is not visited.
    Every move letter is its own single-letter palindrome; each support
    value costs at most d power words.  Both take their letters from the
    checked words of the top and the base, so neither is checked again.
    Given a dict residual, each lamp at q leaves there, keyed by
    q.element.top, its base word with its deposit y_1^s_1 ... y_d^s_d taken
    off: the lamps of w^-1.element for the walk's product w, whose top is 1.
    """
    top, base = wreath.top, wreath.base
    alphabet = wreath.alphabet
    split = len(top.alphabet)  # top letters keep their indices; base letters follow them
    factors: list[Word] = []
    prefix = top.identity()

    def move_to(goal: int) -> None:
        nonlocal prefix
        step = top.element_word(top.multiply(top.inverse(prefix), goal))
        factors.extend(Word._unchecked(alphabet, (letter,)) for letter in step.letters)
        prefix = goal

    for position in wreath.support(element):
        word = base.element_word(element.base[position])
        exponents = abelianize(word)
        deposit: list = []  # the power words' letters over the base's alphabet
        if any(exponents):
            move_to(top.inverse(position))
            for index, exponent in enumerate(exponents):
                if exponent:
                    sign, count = (1 if exponent > 0 else -1), abs(exponent)
                    factors.append(Word._unchecked(alphabet, ((split + index, sign),) * count))
                    deposit += ((index, sign),) * count
        if residual is not None:
            taken = invert(Word._unchecked(base.alphabet, deposit)) * word
            residual[top.multiply(position, element.top)] = taken
    move_to(element.top)
    return factors


_CURSOR_WALK_FORMULA = "maxlen*(|top|+1) + d*|top|"


def _cursor_walk_bound(top: FiniteGroup, base_rank: int) -> int:
    """Most factors _cursor_walk emits: |top|+1 geodesic moves, d deposits per position."""
    return top.max_word_length() * (top.size + 1) + base_rank * top.size


def finite_top_bound(top: FiniteGroup, base: Group) -> tuple[int, str]:
    """Bound and formula of decompose_full_finite_top over the witness's top: the
    cursor walk's bound plus the one derived palindrome."""
    if not isinstance(base, FreeGroup):
        raise GroupDefinitionError("free base required")
    return _cursor_walk_bound(top, base.rank) + 1, _CURSOR_WALK_FORMULA + " + 1"


def decompose_finite_top_abelianized(
    wreath: WreathProduct, element: WreathElement
) -> PalindromeFactorization:
    """The cursor walk (_cursor_walk) over a vector-valued base."""
    top = wreath.top
    base = wreath.base
    if not isinstance(top, FiniteGroup):
        raise GroupDefinitionError("finite top required")
    if not isinstance(base, FreeAbelianGroup):
        raise GroupDefinitionError("vector-valued base required")
    bound = _cursor_walk_bound(top, base.rank)
    factors = _cursor_walk(wreath, element)
    return _checked(wreath, element, factors, bound, _CURSOR_WALK_FORMULA)


def decompose_full_finite_top(
    wreath: WreathProduct,
    word: Word,
    witness: Optional[RelationWitness] = None,
) -> PalindromeFactorization:
    """Free base over a finite non-abelian top, end to end.

    Splits the element into its abelianized image (cursor walk with power
    deposits) and a derived residual (one palindrome via the asymmetric
    relation).  The combined alphabet may gain the extra generator c, or a
    name fresh for the product, when the relation search demands it; the
    emitted factors live over the possibly extended alphabet, whose handle
    (WreathProduct.widened) is recorded in meta.  Only the whole list is
    certified: it covers both parts.
    """
    if not isinstance(wreath.base, FreeGroup):
        raise GroupDefinitionError("free base required")
    wide, witness = _relation_product(wreath, witness)
    target = wreath.evaluate(word)
    bound, formula = finite_top_bound(wide.top, wide.base)

    residual: dict = {}
    factors = _cursor_walk(wide, target, residual)
    meta = {"wreath": wide, "abelian_factors": len(factors)}
    sites = []
    for position in sorted(residual, key=wide.top.canonical_key):
        pairs = express_in_derived(residual[position])
        if pairs:  # a lamp that is its own deposit leaves nothing
            sites.append(CommutatorSite(position, tuple(pairs)))
    data = CommutatorData(tuple(sites))
    return _with_carrier(wide, target, factors, bound, formula, data, witness, meta)


# ---------------------------------------------------------------------------
# quotient push-forward


def push_factorization(
    hom: Homomorphism, factorization: PalindromeFactorization
) -> PalindromeFactorization:
    """Image of a verified factorization; factor count never changes.

    The source may be any group, a wreath product included; the image is
    certified again over the target.
    """
    factors = tuple(hom.push_word(w) for w in factorization.factors)
    target = hom.image_of_element(factorization.target)
    return _checked(
        hom.target,
        target,
        factors,
        factorization.bound_claimed,
        factorization.bound_formula,
        meta={"pushed_from": factorization.bound_formula},
    )
