"""Acceptance suite: one timed pass/fail line per criterion.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines.
"""
import math
import random
import time

from palinwidth import (
    AbelianProductGroup,
    CommutatorData,
    CommutatorSite,
    FreeAbelianGroup,
    FreeGroup,
    Word,
    WreathProduct,
    commutator_word,
    decompose_commutator_abelian_top,
    decompose_commutator_pair,
    decompose_full_finite_top,
    decompose_derived_wreath,
    decompose_shifted_commutators,
    exact_palindromic_width,
    express_in_derived,
    find_reversal_asymmetric_relation,
    invert,
    oracle_for,
    push_factorization,
    quotient_map,
    reduce_free,
    reverse,
    sandwich,
    verify_factorization,
)
from palinwidth import presets
from palinwidth.decompose import PalindromeFactorization
from helpers import naive_palindromic_elements, random_word, random_zero_sum_word


def _report(number: int, name: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    print(f"criterion {number:02d} ({name}): PASS in {elapsed:.2f}s (< {limit:g}s)")


def test_criterion_01_word_laws():
    started = time.perf_counter()
    rng = random.Random(101)
    alphabet = FreeGroup(4).alphabet
    for _ in range(1000):
        u = random_word(rng, alphabet, 64)
        v = random_word(rng, alphabet, 64)
        assert reverse(reverse(u)) == u
        assert reverse(u * v) == reverse(v) * reverse(u)
        assert invert(reverse(u)) == reverse(invert(u))
    _report(1, "word laws", started, 1.0)


def test_criterion_02_abelian_reverse():
    started = time.perf_counter()
    rng = random.Random(102)
    backends = [FreeAbelianGroup(n) for n in range(1, 5)]
    backends += [
        presets.klein_four(),
        presets.cyclic(4, "u"),
        presets.cyclic(5, "v"),
        AbelianProductGroup(1, presets.cyclic(6, "w"), free_names=["x"]),
    ]
    for group in backends:
        for _ in range(1000 // len(backends) + 1):
            w = random_word(rng, group.alphabet, 40)
            assert group.equal(group.evaluate(w), group.evaluate(reverse(w)))
    _report(2, "abelian reverse", started, 1.0)


def test_criterion_03_abelian_top_commutators():
    started = time.perf_counter()
    rng = random.Random(103)
    even = WreathProduct(FreeAbelianGroup(2), FreeGroup(names=["y1", "y2"]))
    odd = WreathProduct(FreeAbelianGroup(1), FreeGroup(names=["y1", "y2"]))

    def base_word(wreath):
        span = range(len(wreath.top.alphabet), len(wreath.alphabet))
        return Word(
            wreath.alphabet,
            [
                (rng.choice(span), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 8))
            ],
        )

    for _ in range(200):
        a = base_word(even)
        exponents = [rng.randint(-5, 5) for _ in range(2)]
        fact = decompose_commutator_abelian_top(even, a, exponents)
        assert fact.count == 4 and fact.verified
        t_word = Word.from_blocks(even.alphabet, list(enumerate(exponents)))
        assert even.equal(fact.target, even.evaluate(commutator_word(a, t_word)))

        pair = decompose_commutator_pair(even, a, base_word(even), exponents)
        assert pair.count <= 8 and pair.verified

        a1 = base_word(odd)
        exps1 = [rng.randint(-5, 5)]
        fact1 = decompose_commutator_abelian_top(odd, a1, exps1)
        assert fact1.count == 3 and fact1.verified
        pair1 = decompose_commutator_pair(odd, a1, base_word(odd), exps1)
        assert pair1.count <= 6 and pair1.verified
    _report(3, "abelian-top commutator construction", started, 10.0)


def test_criterion_04_shifted_commutators():
    started = time.perf_counter()
    rng = random.Random(104)
    s3 = presets.symmetric_3()
    wreath = WreathProduct(FreeAbelianGroup(1, names=["x"]), s3)
    for _ in range(100):
        site = CommutatorSite(
            (rng.randint(-3, 3),),
            ((random_word(rng, s3.alphabet, 4), random_word(rng, s3.alphabet, 4)),),
        )
        top_value = (rng.randint(-2, 2),)
        fact = decompose_shifted_commutators(wreath, CommutatorData((site,)), top_value)
        assert fact.verified
        assert fact.meta["retries"] <= 16
        top_factors = fact.count - 7
        assert 0 <= top_factors <= 1
    _report(4, "shifted commutator construction", started, 30.0)


def test_criterion_05_derived_wreath():
    started = time.perf_counter()
    rng = random.Random(105)
    s3 = presets.symmetric_3()
    witness = find_reversal_asymmetric_relation(s3)
    top = witness.group
    wreath = WreathProduct(top, FreeGroup(names=["y1", "y2"]))
    width = exact_palindromic_width(top).width
    for _ in range(100):
        positions = rng.sample(range(top.size), rng.randint(1, 3))
        sites = tuple(
            CommutatorSite(
                position,
                tuple(
                    (
                        random_word(rng, wreath.base.alphabet, 4),
                        random_word(rng, wreath.base.alphabet, 4),
                    )
                    for _ in range(rng.randint(1, 2))
                ),
            )
            for position in positions
        )
        top_value = rng.randrange(top.size)
        fact = decompose_derived_wreath(wreath, CommutatorData(sites), top_value, witness)
        assert fact.verified
        assert fact.count <= width + 1
        carrier = fact.meta["carrier"]
        assert wreath.is_identity(wreath.evaluate(reverse(carrier)))
    _report(5, "derived-base single palindrome", started, 60.0)


def test_criterion_06_oracle_exactness():
    started = time.perf_counter()
    names = ["Z2xZ2", "Z/5", "S3", "D4", "Q8", "lamp(2,2)", "lamp(3,2)", "lamp(2,3)"]
    for name in names:
        group = presets.get(name)
        assert group.size <= 24
        automaton_elements = frozenset(oracle_for(group).palindromes.witnesses)
        assert automaton_elements == naive_palindromic_elements(group), name
    k4 = presets.klein_four()
    report = exact_palindromic_width(k4)
    assert report.width == 2
    assert report.witness == k4.evaluate(Word.parse(k4.alphabet, "a*b"))
    _report(6, "oracle exactness", started, 60.0)


def test_criterion_07_generating_set_monotonicity():
    started = time.perf_counter()
    cases = [("S3", "s*t"), ("D4", "r*s"), ("Q8", "i*j")]
    for name, extra in cases:
        group = presets.get(name)
        value = group.evaluate(Word.parse(group.alphabet, extra))
        bigger = group.with_extra_generator("w_extra", value)
        assert (
            exact_palindromic_width(bigger).width
            <= exact_palindromic_width(group).width
        )
    _report(7, "generating-set monotonicity", started, 30.0)


def test_criterion_08_quotient_push():
    started = time.perf_counter()
    rng = random.Random(108)
    free = FreeGroup(2)
    homs = [
        quotient_map(free, presets.klein_four(), ["a", "b"]),
        quotient_map(free, presets.symmetric_3(), ["s", "t"]),
    ]
    for _ in range(50):
        factors = []
        for _ in range(rng.randint(0, 5)):
            u = random_word(rng, free.alphabet, 6)
            core = random_word(rng, free.alphabet, 1)
            factors.append(sandwich(u, core))
        target = free.evaluate(Word(free.alphabet, [l for w in factors for l in w.letters]))
        fact = PalindromeFactorization(
            factors=tuple(factors),
            target=target,
            bound_claimed=len(factors),
            bound_formula="sample",
            certificate=verify_factorization(free, target, factors),
        )
        assert fact.verified
        for hom in homs:
            pushed = push_factorization(hom, fact)
            assert pushed.verified
            assert pushed.count == fact.count
    _report(8, "quotient push-forward", started, 10.0)


def test_criterion_09_full_finite_top():
    started = time.perf_counter()
    rng = random.Random(109)
    s3 = presets.symmetric_3()
    wreath = WreathProduct(s3, FreeGroup(names=["y1", "y2"]))
    maxlen = max(map(len, s3.geodesics()))
    bound = maxlen * (2 * 6 + 1) + 1
    for _ in range(50):
        word = random_word(rng, wreath.alphabet, 30)
        fact = decompose_full_finite_top(wreath, word)
        assert fact.verified
        assert fact.count <= bound
    _report(9, "finite-top pipeline", started, 120.0)


def test_criterion_10_express_in_derived():
    started = time.perf_counter()
    rng = random.Random(110)
    free = FreeGroup(2)
    for _ in range(200):
        word = random_zero_sum_word(rng, free.alphabet, 40)
        pairs = express_in_derived(word)
        product = Word(free.alphabet)
        for u, v in pairs:
            product = product * commutator_word(u, v)
        assert reduce_free(product * invert(word)) == Word(free.alphabet)
        assert len(pairs) <= math.ceil(len(word) / 2)
    _report(10, "commutator expression", started, 5.0)
