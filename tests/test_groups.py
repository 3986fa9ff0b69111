import gc
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from palinwidth import (
    AbelianProductGroup,
    AbelianizedFreeGroup,
    BaumslagSolitar,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    Word,
    abelianize,
    invert,
    is_palindrome,
    quotient_map,
    reduce_free,
    reverse,
)
from palinwidth import presets
from palinwidth.wreath import WreathProduct
from palinwidth.errors import AlphabetMismatch, GroupDefinitionError
from palinwidth.groups import MAX_GROUP_SIZE
from palinwidth.oracle import exact_palindromic_width
from helpers import random_word, restart_loop_is_trivial


def test_free_evaluate():
    F = FreeGroup(2)
    assert F.evaluate(Word.parse(F.alphabet, "x1*x1^-1")) == F.identity()
    u = Word.parse(F.alphabet, "x1*x2*x2^-1*x2")
    assert F.evaluate(u) == Word.parse(F.alphabet, "x1*x2")


def test_free_equality_via_reduction():
    F = FreeGroup(2)
    rng = random.Random(3)
    for _ in range(200):
        u = F.evaluate(random_word(rng, F.alphabet, 20))
        v = F.evaluate(random_word(rng, F.alphabet, 20))
        same = F.equal(u, v)
        assert same == (not reduce_free(u * invert(v)).letters)


def test_free_abelian_evaluate():
    Z2 = FreeAbelianGroup(2)
    assert Z2.evaluate(Word.parse(Z2.alphabet, "t1*t2*t1")) == (2, 1)
    assert Z2.multiply((1, 0), (0, 1)) == (1, 1)
    assert Z2.inverse(Z2.identity()) == Z2.identity()
    with pytest.raises(AlphabetMismatch):
        Z2.evaluate(Word.parse(FreeAbelianGroup(2, names=["x", "y"]).alphabet, "x"))


def test_finite_s3_squares():
    S3 = presets.symmetric_3()
    s = S3.evaluate(Word.parse(S3.alphabet, "s"))
    assert S3.multiply(s, s) == S3.identity()
    # permutation composition checked by hand: st maps 1->3, ts maps 1->1
    st = S3.evaluate(Word.parse(S3.alphabet, "s*t"))
    ts = S3.evaluate(Word.parse(S3.alphabet, "t*s"))
    assert st != ts
    assert S3.payloads[st] == (2, 1, 0)
    assert S3.payloads[ts] == (0, 2, 1)


def test_evaluate_is_multiplicative():
    rng = random.Random(4)
    backends = [
        FreeGroup(3),
        FreeAbelianGroup(3),
        AbelianizedFreeGroup(2),
        presets.symmetric_3(),
        presets.quaternion_8(),
    ]
    for group in backends:
        for _ in range(1000):
            u = random_word(rng, group.alphabet, 12)
            v = random_word(rng, group.alphabet, 12)
            assert group.equal(
                group.evaluate(u * v),
                group.multiply(group.evaluate(u), group.evaluate(v)),
            )


def test_abelianize():
    F = FreeGroup(2)
    assert abelianize(Word.parse(F.alphabet, "x1*x2*x1^-1")) == (0, 1)
    assert abelianize(Word.parse(F.alphabet, "x1^-1*x2^-1*x1*x2")) == (0, 0)
    assert abelianize(Word.parse(F.alphabet, "x1^3")) == (3, 0)


def test_geodesics_identity_and_z2():
    Z2 = presets.cyclic(2, "a")
    words = Z2.geodesics()
    assert len(words[Z2.identity()]) == 0
    assert len(words[1]) == 1
    assert Z2.evaluate(words[1]) == 1


def test_geodesics_s3_bfs():
    # by hand: e, s, t, t^2 have lengths 0,1,1,1; st and ts need 2 letters
    S3 = presets.symmetric_3()
    words = S3.geodesics()
    assert sorted(map(len, words)) == [0, 1, 1, 1, 2, 2]
    assert S3.max_word_length() == 2
    for element in S3.elements():
        assert S3.evaluate(words[element]) == element
        assert len(S3.element_word(element)) == len(words[element])


def test_geodesic_lengths_match_brute_force():
    # independent oracle: enumerate every word up to the diameter
    S3 = presets.symmetric_3()
    letters = [(i, s) for i in range(2) for s in (1, -1)]
    shortest = {S3.identity(): 0}
    level = [Word(S3.alphabet)]
    for length in range(1, max(map(len, S3.geodesics())) + 1):
        level = [w * Word(S3.alphabet, [l]) for w in level for l in letters]
        for word in level:
            shortest.setdefault(S3.evaluate(word), length)
    assert [shortest[e] for e in S3.elements()] == list(map(len, S3.geodesics()))


def test_finite_table_validation():
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["g"], [[0, 1], [1, 1]], [1])
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["g"], [[1, 0], [0, 1]], [1])
    # every row a permutation, but column 1 repeats an entry
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["g"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]], [1])
    # ragged: the second row is too long
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["g"], [[0, 1], [1, 0, 0]], [1])
    # Z/2 x Z/2 with only one generator declared: closure too small
    k4 = presets.klein_four()
    with pytest.raises(GroupDefinitionError):
        FiniteGroup.from_table(["a"], k4._table, [k4.generator_indices[0]])
    # a Latin square with identity 0, generated by a and b, but not associative:
    # the closure certificate refuses it, as it does the loop as a payload product
    with pytest.raises(GroupDefinitionError, match=r"inv\(a\) does not invert it"):
        FiniteGroup.from_table(["a", "b"], LOOP, [1, 3])
    # a table over the size limit, or an empty one, is refused before any row is read
    for table in ([[]] * (MAX_GROUP_SIZE + 1), []):
        with pytest.raises(GroupDefinitionError, match=f"^a table has 1 to {MAX_GROUP_SIZE} rows"):
            FiniteGroup.from_table(["g"], table, [1])
    # a -1 entry would index the last column; it is refused before any lookup
    with pytest.raises(GroupDefinitionError, match=r"2 rows of 2 entries in 0\.\.1"):
        FiniteGroup.from_table(["g"], [[0, 1], [1, -1]], [1])
    # a generator out of range, or whose row holds no 0 (no inverse to close over)
    for table, generator in (([[0, 1], [1, 0]], 2), ([[0, 1], [1, 1]], 1)):
        with pytest.raises(GroupDefinitionError, match="whose row holds 0"):
            FiniteGroup.from_table(["g"], table, [generator])


# a loop of order 5: (1·1)·3 = 2·3 = 0 but 1·(1·3) = 1·4 = 3
LOOP = [[0, 1, 2, 3, 4], [1, 2, 0, 4, 3], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 0, 3, 1, 2]]


def _letter_step(mul, inv, generators):
    """The step from_elements takes: a payload times every signed letter, by mul."""
    letters = [p for g in generators for p in (g, inv(g))]
    return lambda a: [mul(a, letter) for letter in letters]


def test_closure_refuses_products_that_are_not_group_products():
    # the loop as a payload product: a·2 = 0 but 2·a = 3, so a has no inverse
    def right_inverse(a):
        return LOOP[a].index(0)

    with pytest.raises(GroupDefinitionError, match=r"inv\(a\) does not invert it"):
        FiniteGroup.from_elements(
            ["a", "b"], 0, _letter_step(lambda a, b: LOOP[a][b], right_inverse, [1, 3])
        )
    # a loop with two-sided inverses: each letter acts as a permutation and
    # inv inverts, but left multiplication does not commute with the action
    inverse_loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupDefinitionError, match="not a group product"):
        FiniteGroup.from_elements(
            ["a", "b"], 0,
            _letter_step(lambda a, b: inverse_loop[a][b], lambda a: inverse_loop[a].index(0), [1, 2]),
        )
    # multiplication mod 4: the letter 2 sends both 0 and 2 to 0
    with pytest.raises(GroupDefinitionError, match="does not act as a permutation"):
        FiniteGroup.from_elements(["g"], 1, _letter_step(lambda a, b: a * b % 4, lambda a: a, [2]))
    # an inv that returns its argument: the 3-cycle t is not its own inverse
    with pytest.raises(GroupDefinitionError, match=r"inv\(t\) does not invert it"):
        FiniteGroup.from_elements(
            ["s", "t"], (0, 1, 2), _letter_step(_compose, lambda p: p, [(1, 0, 2), (1, 2, 0)])
        )
    # one product per generator, where the step must give one per signed letter
    with pytest.raises(GroupDefinitionError, match="step must give one product per signed letter"):
        FiniteGroup.from_elements(["g"], 0, lambda a: [(a + 1) % 3])


def _normalized_latin_square(n: int, rng: random.Random) -> list[list[int]]:
    """A random n x n Latin square whose row 0 and column 0 are 0..n-1, by backtracking."""
    square = [[i if j == 0 else j if i == 0 else None for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(square[i][:j]) | {square[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for square[i][j] in options:
            if fill(k + 1):
                return True
        square[i][j] = None
        return False

    fill(0)
    return square


# every refusal that the closure's certificate and from_table's comparison can give
_CERTIFICATE_REFUSALS = (
    "does not act as a permutation",
    r"inv\(.\) does not invert it",
    "not a group product: left multiplication by .* does not commute with the generator action",
    "generators do not generate the group",
    "the table is not the product its generators act by",
)


def _is_associative_table(table) -> bool:
    elements = range(len(table))
    return all(
        table[table[a][b]][c] == table[a][table[b][c]] for a in elements for b in elements for c in elements
    )


def test_random_latin_squares_are_accepted_exactly_when_they_are_groups():
    # a normalized Latin square has identity 0 and each row and column a
    # permutation, so associativity and generation alone make it a group
    # table; whatever either constructor accepts is one, with b·0 = b
    rng = random.Random(3)
    accepted = refused = 0
    for n in [4, 5, 6, 7] * 110:
        square = _normalized_latin_square(n, rng)
        generators = rng.sample(range(1, n), 2)
        reached, frontier = {0}, [0]
        while frontier:
            row = square[frontier.pop()]
            for y in (row[g] for g in generators):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        letters = [h for g in generators for h in (g, square[g].index(0))]
        groups = []
        for build in (
            lambda: FiniteGroup.from_table(["a", "b"], square, generators),
            lambda: FiniteGroup.from_elements(["a", "b"], 0, lambda a: [square[a][h] for h in letters]),
        ):
            try:
                groups.append(build())
            except GroupDefinitionError as refusal:
                assert any(re.fullmatch(pattern, str(refusal)) for pattern in _CERTIFICATE_REFUSALS)
                groups.append(None)
        for group in filter(None, groups):
            table = [[group.multiply(a, b) for b in group.elements()] for a in group.elements()]
            assert _is_associative_table(table)
            assert all(group.multiply(b, 0) == b for b in group.elements())
        table_accepted = groups[0] is not None
        assert table_accepted == (_is_associative_table(square) and len(reached) == n)
        accepted += table_accepted
        refused += not table_accepted
    assert accepted > 20 and refused > 20


def test_finite_from_table_round_trip():
    S3 = presets.symmetric_3()
    again = FiniteGroup.from_table(
        list(S3.alphabet.names), S3._table, list(S3.generator_indices)
    )
    assert again.size == 6
    assert max(map(len, again.geodesics())) == 2


def test_with_extra_generator():
    S3 = presets.symmetric_3()
    st = S3.evaluate(Word.parse(S3.alphabet, "s*t"))
    bigger = S3.with_extra_generator("c", st)
    assert bigger.alphabet.names == ("s", "t", "c")
    assert bigger.evaluate(Word.parse(bigger.alphabet, "c")) == st
    assert max(map(len, bigger.geodesics())) <= max(map(len, S3.geodesics()))


def test_extra_generator_shares_the_checked_table():
    S3 = presets.symmetric_3()
    bigger = S3.with_extra_generator("c", 5)
    assert bigger._table is S3._table
    assert bigger._inv is S3._inv
    assert bigger.payloads is S3.payloads
    assert S3.with_extra_generator("c", 5) is bigger
    # the parent's letter columns are shared, not read off the table again
    shared = list(bigger.letter_columns.values())[: 2 * len(S3.alphabet)]
    assert all(mine is theirs for mine, theirs in zip(shared, S3.letter_columns.values()))
    _assert_columns_read_off_the_table(bigger)
    with pytest.raises(GroupDefinitionError):
        S3.with_extra_generator("c", 6)


def test_table_rows_are_tuples_the_collector_stops_tracking():
    closure = presets.get("lamp(2,3)")
    explicit = FiniteGroup.from_table(["g"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [1])
    extension = closure.with_extra_generator("c", 1)
    assert extension._table is closure._table
    gc.collect()
    for group in (closure, explicit, extension):
        assert all(type(row) is tuple and not gc.is_tracked(row) for row in group._table)


def test_closure_stops_at_the_size_limit():
    # lamp(2,12) has 2^12 * 12 = 49,152 elements: its order is refused
    # before either factor is built
    with pytest.raises(GroupDefinitionError, match=rf"order 2\^12\*12 exceeds {MAX_GROUP_SIZE} elements"):
        presets.get("lamp(2,12)")


def test_closure_of_an_infinite_step_stops_at_the_size_limit():
    # steps a -> a+1, a-1 over the integers never close
    with pytest.raises(GroupDefinitionError, match=f"closure exceeded {MAX_GROUP_SIZE} elements"):
        FiniteGroup.from_elements(["z"], 0, lambda a: (a + 1, a - 1))


def test_wreath_materialisation_is_refused_by_its_order():
    wreath = WreathProduct(presets.cyclic(3, "z"), presets.cyclic(300, "y"))  # 300^3 * 3 elements
    with pytest.raises(GroupDefinitionError, match=rf"order 300\^3\*3 exceeds {MAX_GROUP_SIZE}"):
        wreath.as_finite_group()


@pytest.mark.parametrize("order", [1, 2, 5, 12, 60])
def test_cyclic_integer_step_matches_the_permutation_build(order):
    cyclic = presets.cyclic(order, "z")
    cycle = FiniteGroup.from_permutations([("z", [i % order + 1 for i in range(1, order + 1)])])
    assert cyclic._table == cycle._table
    assert cyclic._inv == cycle._inv
    assert cyclic.generator_indices == cycle.generator_indices
    assert cyclic.geodesics() == cycle.geodesics()


@pytest.mark.parametrize(
    "m, k", [(1, 1), (1, 3), (3, 1), (2, 2), (2, 3), (2, 5), (3, 3), (4, 3), (5, 2)]
)
def test_lamplighter_integer_step_matches_the_wreath_build(m, k):
    lamp = presets.lamplighter(m, k)
    wreath = WreathProduct(presets.cyclic(k, "z"), presets.cyclic(m, "y")).as_finite_group()
    assert lamp._table == wreath._table
    assert lamp._inv == wreath._inv
    assert lamp.generator_indices == wreath.generator_indices
    assert lamp.geodesics() == wreath.geodesics()


def test_a_trivial_lamplighter_factor_costs_nothing_extra():
    # lamp(1,1000) is Z/1000 with a trivial second generator: it builds in
    # about the same memory, not through permutations of 1000 points
    def peak(name: str) -> int:
        tracemalloc.start()
        try:
            presets.get(name)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak("lamp(1,1000)") <= 1.25 * peak("Z/1000")


@pytest.mark.parametrize(
    "name, message",
    [("lamp(0,3)", "cyclic order must be positive"),
     ("lamp(3,0)", "cyclic order must be positive"),
     ("lamp(1,20001)", "cyclic order 20001 exceeds 20000 elements"),
     ("lamp(20001,0)", "cyclic order must be positive"),
     ("lamp(20001,1)", "cyclic order 20001 exceeds 20000 elements")],
)
def test_lamplighter_factor_refusals_keep_their_messages(name, message):
    # the top's order is checked before the base's, as each cyclic factor checks it
    with pytest.raises(GroupDefinitionError, match=f"^{message}$"):
        presets.get(name)


@pytest.mark.parametrize(
    "name, order", [("Z/1", 1), ("lamp(1,1)", 1), ("lamp(1,3)", 3), ("lamp(3,1)", 3)]
)
def test_trivial_and_degree_one_groups_build(name, order):
    # Z/1 and lamp(1,1) are permutation groups of degree 1, where every
    # payload is (0,); lamp(1,3) and lamp(3,1) have a trivial factor
    group = presets.get(name)
    assert group.size == order
    assert [group.element_word(x) for x in group.elements()] == list(group.geodesics())


@pytest.mark.parametrize(
    "spelling, canonical",
    [("Z/05", "Z/5"), ("F02", "F2"), ("Z^02", "Z^2"), ("F0", "F0"), ("Z^00", "Z^0"),
     ("lamp(02,3)", "lamp(2,3)"), ("BS(01,2)", "BS(1,2)")],
)
def test_presets_record_their_numbers_canonically(spelling, canonical):
    # two spellings of one preset record one definition, so their reports agree byte for byte
    assert presets.get(spelling).source_def == {"preset": canonical}
    assert presets.get(canonical).source_def == {"preset": canonical}


def test_degree_zero_permutation_group_is_trivial():
    group = FiniteGroup.from_permutations({"g": []})
    assert group.size == 1 and group.element_word(0) == Word(group.alphabet)


@pytest.mark.parametrize(
    "name",
    ["S3", "D4", "Q8", "Z2xZ2", "Z/1", "Z/5", "lamp(2,2)", "lamp(2,3)", "lamp(3,3)", "S3+c", "table"],
)
def test_element_word_is_the_geodesic(name):
    # one word built from the search tree on each read equals the geodesic
    # table's, before the table is built and after
    def build():
        if name == "S3+c":
            s3 = presets.get("S3")
            return s3.with_extra_generator("c", s3.evaluate(Word.parse(s3.alphabet, "s*t")))
        if name == "table":
            d4 = presets.get("D4")
            return FiniteGroup.from_table(list(d4.alphabet.names), d4._table, d4.generator_indices)
        return presets.get(name)

    group = build()
    before = [group.element_word(x) for x in group.elements()]
    words = group.geodesics()
    assert before == list(words)
    assert [group.element_word(x) for x in group.elements()] == list(words)


def _direct_table(group: FiniteGroup, mul) -> tuple[tuple[int, ...], ...]:
    """The Cayley table from one payload product per cell."""
    index = {payload: i for i, payload in enumerate(group.payloads)}
    return tuple(tuple(index[mul(a, b)] for b in group.payloads) for a in group.payloads)


def _stepped_table(group: FiniteGroup, step) -> tuple[tuple[int, ...], ...]:
    """The Cayley table from payload products: a times b's element word, one step per letter."""
    index = {payload: i for i, payload in enumerate(group.payloads)}
    words = [[2 * i + (sign < 0) for i, sign in group.element_word(b).letters] for b in group.elements()]

    def times(a, moves):
        for m in moves:
            a = list(step(a))[m]
        return index[a]

    return tuple(tuple(times(a, moves) for moves in words) for a in group.payloads)


_SYMMETRIC = {
    f"S{n}": {"s": [2, 1] + list(range(3, n + 1)), "t": list(range(2, n + 1)) + [1]}
    for n in (4, 5)
}


def _closure_built(name: str) -> FiniteGroup:
    if name in _SYMMETRIC:
        return FiniteGroup.from_permutations(_SYMMETRIC[name])
    return presets.get(name)


@pytest.mark.parametrize(
    "name",
    ["S3", "D4", "Q8", "Z2xZ2", "Z/5", "lamp(2,2)", "lamp(2,3)", "lamp(3,3)", "lamp(2,5)", "S4", "S5"],
)
def test_action_table_matches_direct_products(name, monkeypatch):
    # keep the step each build hands to from_elements; the last one is the
    # group's own (a lamplighter builds its top and base first)
    build = FiniteGroup.from_elements.__func__
    steps = []

    def spy(cls, names, identity, step):
        steps.append(step)
        return build(cls, names, identity, step)

    monkeypatch.setattr(FiniteGroup, "from_elements", classmethod(spy))
    group = _closure_built(name)
    assert group._table == _stepped_table(group, steps[-1])


@pytest.mark.parametrize("extended", [False, True], ids=["", "+c"])
@pytest.mark.parametrize(
    "name",
    ["S3", "D4", "Q8", "Z2xZ2", "Z/5", "Z/12", "lamp(2,2)", "lamp(2,3)", "lamp(2,4)",
     "lamp(2,5)", "lamp(3,3)", "S4", "S5"],
)
def test_closure_and_table_constructors_agree(name, extended):
    # the closure's own table, given back as an explicit table, is accepted
    # unchanged, and both handles answer alike from it
    group = _closure_built(name)
    if extended:
        first, last = group.alphabet.names[0], group.alphabet.names[-1]
        value = group.evaluate(Word.parse(group.alphabet, f"{first}*{last}"))
        group = group.with_extra_generator("c", value)
    again = FiniteGroup.from_table(list(group.alphabet.names), group._table, group.generator_indices)
    for handle in (group, again):
        _assert_columns_read_off_the_table(handle)
    assert again.letter_columns == group.letter_columns
    assert again._table == group._table
    assert again._inv == group._inv
    assert again.geodesics() == group.geodesics()
    assert exact_palindromic_width(again) == exact_palindromic_width(group)


def _shuffled_table(group: FiniteGroup, seed: int) -> tuple[list, list]:
    """The group's table with its elements renumbered by a seeded perm fixing 0; (table, perm)."""
    perm = [0] + random.Random(seed).sample(range(1, group.size), group.size - 1)
    table = [[0] * group.size for _ in range(group.size)]
    for a in group.elements():
        for b in group.elements():
            table[perm[a]][perm[b]] = perm[group.multiply(a, b)]
    return table, perm


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "lamp(2,3)", "S4"])
def test_shuffled_table_keeps_its_indices(name, seed, monkeypatch):
    # the same group with its elements renumbered, 0 kept fixed: the table
    # keeps the given numbering, and inverses, geodesics and width move with it
    group = _closure_built(name)
    table, perm = _shuffled_table(group, seed)
    names = list(group.alphabet.names)
    builds, init = [], FiniteGroup.__init__

    def counted_init(handle, *args):
        builds.append(handle)
        init(handle, *args)

    monkeypatch.setattr(FiniteGroup, "__init__", counted_init)
    again = FiniteGroup.from_table(names, table, [perm[g] for g in group.generator_indices])
    monkeypatch.undo()
    # one handle, certified in the given indices, keeps the letter search it ran
    assert builds == [again] and again._tree is not None
    assert [[again.multiply(a, b) for b in again.elements()] for a in again.elements()] == table
    _assert_columns_read_off_the_table(again)  # in the given order, not the closure's
    geodesics, again_geodesics = group.geodesics(), again.geodesics()
    width, again_width = exact_palindromic_width(group), exact_palindromic_width(again)
    assert again_width.width == width.width
    for x in group.elements():
        assert again.inverse(perm[x]) == perm[group.inverse(x)]
        assert again_geodesics[perm[x]] == geodesics[x]
        assert again_width.distances[perm[x]] == width.distances[x]


def test_explicit_table_build_peaks_near_what_it_keeps():
    # the certificate runs in the table's own indices: no second table is held
    s5 = _closure_built("S5")
    table, perm = _shuffled_table(s5, 1)
    generators = [perm[g] for g in s5.generator_indices]
    tracemalloc.start()
    try:
        group = FiniteGroup.from_table(["s", "t"], table, generators)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.size == 120
    assert peak <= 1.25 * kept


def test_table_wrong_off_the_generator_columns_is_refused():
    # two entries of row 3 swapped where no signed letter's column is: the
    # certificate reads only those columns, so only the full comparison sees it
    S3 = presets.symmetric_3()
    columns = [c for c in S3.elements() if c not in S3.letter_values().values()]
    first, second = columns[:2]
    table = [list(row) for row in S3._table]
    table[3][first], table[3][second] = table[3][second], table[3][first]
    with pytest.raises(GroupDefinitionError, match="not the product its generators act by"):
        FiniteGroup.from_table(list(S3.alphabet.names), table, S3.generator_indices)


def _assert_columns_read_off_the_table(group):
    """Each signed letter's column is g -> g.x read off the handle's own table."""
    assert list(group.letter_columns) == [(i, s) for i in range(len(group.alphabet)) for s in (1, -1)]
    for (index, sign), column in group.letter_columns.items():
        x = group.letter_value(index, sign)
        assert column == tuple(row[x] for row in group._table)


def _compose(p: tuple, q: tuple) -> tuple:
    """p then q, as maps of 0..n-1."""
    return tuple(q[i] for i in p)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.permutations(list(range(1, n + 1))), min_size=2, max_size=3)
    )
)
def test_action_table_matches_direct_products_for_random_permutations(images):
    group = FiniteGroup.from_permutations([(f"g{i}", p) for i, p in enumerate(images)])
    assert group._table == _direct_table(group, _compose)


def test_abelian_product():
    group = AbelianProductGroup(1, presets.cyclic(4, "u"), free_names=["x"])
    assert group.is_abelian()
    value = group.evaluate(Word.parse(group.alphabet, "x^3*u^2*x^-1"))
    assert value == ((2,), group.finite.evaluate(Word.parse(group.finite.alphabet, "u^2")))
    assert group.equal(group.evaluate(group.element_word(value)), value)
    assert group.infinite_order_generator_index() == 0
    with pytest.raises(GroupDefinitionError):
        AbelianProductGroup(1, presets.symmetric_3())


@pytest.mark.parametrize(
    "name", ["S3", "D4", "Q8", "Z2xZ2", "Z/1", "Z/5", "lamp(2,3)", "lamp(3,1)", "S3+c", "table"]
)
def test_non_commuting_pair_is_the_first_in_alphabet_order(name):
    if name == "S3+c":
        s3 = presets.get("S3")
        group = s3.with_extra_generator("c", s3.evaluate(Word.parse(s3.alphabet, "t^2")))
    elif name == "table":
        q8 = presets.get("Q8")
        group = FiniteGroup.from_table(list(q8.alphabet.names), q8._table, q8.generator_indices)
    else:
        group = presets.get(name)
    commute = lambda a, b: group.multiply(a, b) == group.multiply(b, a)
    pair = group.non_commuting_pair()
    # abelian exactly when every two elements commute, generators or not
    assert group.is_abelian() == (pair is None)
    elements = group.elements()
    assert group.is_abelian() == all(commute(a, b) for a in elements for b in elements)
    if pair is not None:
        gens = list(group.generator_indices)
        assert not commute(*pair) and gens.index(pair[0]) < gens.index(pair[1])
        earlier = [(g, h) for i, g in enumerate(gens) for h in gens[i + 1:]]
        assert all(commute(g, h) for g, h in earlier[: earlier.index(pair)])


def test_quotient_map_basics():
    F = FreeGroup(2)
    K4 = presets.klein_four()
    hom = quotient_map(F, K4, ["a", "b"])
    assert hom.image_of_word(Word(F.alphabet)) == K4.identity()
    pal = Word.parse(F.alphabet, "x1*x2*x1")
    pushed = hom.push_word(pal)
    assert str(pushed) == "a*b*a"
    assert is_palindrome(pushed)
    with pytest.raises(AlphabetMismatch):
        hom.push_word(pushed)  # a word over the target, not the source
    commutator = Word.parse(F.alphabet, "x1^-1*x2^-1*x1*x2")
    assert hom.image_of_word(commutator) == K4.identity()


def test_quotient_map_is_homomorphism():
    F = FreeGroup(2)
    S3 = presets.symmetric_3()
    hom = quotient_map(F, S3, ["s", "t"])
    rng = random.Random(5)
    for _ in range(100):
        u = random_word(rng, F.alphabet, 15)
        v = random_word(rng, F.alphabet, 15)
        assert hom.image_of_word(u * v) == S3.multiply(
            hom.image_of_word(u), hom.image_of_word(v)
        )



def test_quotient_map_refuses_images_that_break_relations():
    z4 = presets.cyclic(4, "a")
    with pytest.raises(GroupDefinitionError):
        quotient_map(z4, presets.cyclic(3, "b"), ["b"])  # a^4 = 1 but b^4 = b
    with pytest.raises(GroupDefinitionError):
        quotient_map(FreeAbelianGroup(2), presets.symmetric_3(), ["s", "t"])  # s, t do not commute
    assert quotient_map(FreeAbelianGroup(2), presets.klein_four(), ["a", "b"])
    with pytest.raises(GroupDefinitionError):
        quotient_map(BaumslagSolitar(1, 2), FreeGroup(names=["a", "b"]), ["a", "b"])


def test_quotient_map_from_a_wreath_product_checks_top_and_base():
    s3 = presets.symmetric_3()
    source = WreathProduct(s3, presets.cyclic(4, "a"))
    z2 = WreathProduct(s3, presets.cyclic(2, "b"))
    assert quotient_map(source, z2, ["s", "t", "b"])
    refused = [
        (WreathProduct(s3, presets.cyclic(3, "b")), ["s", "t", "b"]),  # the base map is not one
        (z2, ["t", "s", "b"]),  # top letters moved
        (WreathProduct(presets.symmetric_3(), presets.cyclic(2, "b")), ["s", "t", "b"]),  # another top
        (z2, ["s", "t", "s*b"]),  # a base letter leaves the base
        (presets.cyclic(2, "b"), ["1", "1", "b"]),  # not a wreath product
    ]
    for target, images in refused:
        with pytest.raises(GroupDefinitionError):
            quotient_map(source, target, images)

def test_homomorphism_is_immutable_hashable_and_rechecked_on_replace():
    z4 = presets.cyclic(4, "a")
    hom = quotient_map(z4, presets.cyclic(2, "b"), ["b"])
    twin = quotient_map(z4, hom.target, ["b"])
    assert hom == twin and hash(hom) == hash(twin) and len({hom, twin}) == 1
    with pytest.raises(AttributeError):
        hom.images = ()
    z3 = presets.cyclic(3, "b")
    with pytest.raises(GroupDefinitionError, match="relations"):
        hom._replace(target=z3, images=(Word.parse(z3.alphabet, "b"),))  # a^4 = 1 but b^4 = b
    with pytest.raises(GroupDefinitionError, match="one image per source generator"):
        hom._replace(images=())
    assert hom._replace(target=twin.target) == hom


def test_alphabet_mismatch_raises():
    F = FreeGroup(2)
    Z = FreeAbelianGroup(1)
    with pytest.raises(AlphabetMismatch):
        F.evaluate(Word.parse(Z.alphabet, "t1"))
    with pytest.raises(AlphabetMismatch):
        quotient_map(F, Z, ["t1", Word.parse(F.alphabet, "x1")])


@pytest.mark.parametrize(
    "name", ["S3", "F2", "Z^2", "abelianized", "abelian product", "BS(1,2)", "wreath"]
)
def test_every_backend_refuses_a_word_over_another_alphabet(name):
    group = {
        "abelianized": lambda: AbelianizedFreeGroup(2),
        "abelian product": lambda: AbelianProductGroup(1, presets.cyclic(4, "u"), ["x"]),
        "wreath": lambda: WreathProduct(presets.symmetric_3(), FreeGroup(names=["y"])),
    }.get(name, lambda: presets.get(name))()
    other = FreeGroup(names=["q"]).alphabet
    with pytest.raises(AlphabetMismatch, match=f"fed to .* over {re.escape(repr(group.alphabet))}"):
        group.evaluate(Word.parse(other, "q"))


# Baumslag-Solitar: pinch reduction cross-checked against the faithful
# affine representation of BS(1,2): a acts as x -> 2x, b as x -> x+1.


def _affine_eval(word: Word):
    images = {0: (Fraction(2), Fraction(0)), 1: (Fraction(1), Fraction(1))}
    value = (Fraction(1), Fraction(0))
    for index, sign in word.letters:
        scale, shift = images[index]
        if sign < 0:
            scale, shift = 1 / scale, -shift / scale
        value = (value[0] * scale, scale * value[1] + shift)
    return value


def test_bs_relation_and_reverse():
    bs = BaumslagSolitar(1, 2)
    relation = bs.relation()
    assert str(relation) == "a^-1*b*a*b^-2"
    assert bs.is_trivial(relation)
    assert not bs.is_trivial(reverse(relation))
    assert _affine_eval(relation) == (Fraction(1), Fraction(0))
    assert _affine_eval(reverse(relation)) != (Fraction(1), Fraction(0))


@pytest.mark.parametrize("n, m", [(1, 2), (2, 3)])
def test_bs_is_identity_reads_the_relation(n, m):
    # a Baumslag-Solitar element is a reduced word that can still be trivial:
    # emptiness is the free group's test only
    bs = BaumslagSolitar(n, m)
    relation = bs.relation()
    conjugate = Word.parse(bs.alphabet, "a*b^-1") * relation * Word.parse(bs.alphabet, "b*a^-1")
    assert bs.is_identity(relation) and bs.is_identity(bs.evaluate(relation))
    assert bs.is_identity(conjugate) and bs.is_identity(bs.evaluate(conjugate))
    assert not bs.is_identity(reverse(relation))
    assert not bs.is_identity(bs.evaluate(reverse(relation)))


def test_free_is_identity_matches_equality_with_the_identity():
    F = FreeGroup(2)
    rng = random.Random(16)
    for _ in range(300):
        element = F.evaluate(random_word(rng, F.alphabet, 8))
        assert F.is_identity(element) == F.equal(element, F.identity())
    assert F.is_identity(F.identity())


def test_bs_triviality_matches_affine_model():
    bs = BaumslagSolitar(1, 2)
    rng = random.Random(6)
    for _ in range(200):
        word = random_word(rng, bs.alphabet, 14)
        assert bs.is_trivial(word) == (_affine_eval(word) == (Fraction(1), Fraction(0)))


def test_bs_flags():
    assert BaumslagSolitar(1, 1).is_abelian()
    assert not BaumslagSolitar(2, 3).is_abelian()
    with pytest.raises(GroupDefinitionError):
        BaumslagSolitar(0, 2)


def _conjugate_product(rng: random.Random, bs: BaumslagSolitar) -> Word:
    """A product of conjugates u . r^(+-1) . u^-1 of the relator: always trivial."""
    relator = bs.relation()
    word = Word(bs.alphabet)
    for _ in range(rng.randint(1, 3)):
        u = random_word(rng, bs.alphabet, 5)
        word = word * u * (relator if rng.random() < 0.5 else invert(relator)) * invert(u)
    return word


@pytest.mark.parametrize("n, m", [(1, 2), (2, 3), (-2, 3), (3, 5), (2, 2), (1, 1)])
def test_bs_one_pass_reduction_matches_restart_loop(n, m):
    # 5,000 words per pair, half random and half products of conjugates of
    # r^+-1, neither freely reduced; the conjugate products are trivial
    bs = BaumslagSolitar(n, m)
    rng = random.Random(1000 * n + m)
    trivial = 0
    for i in range(5000):
        word = random_word(rng, bs.alphabet, 16) if i % 2 else _conjugate_product(rng, bs)
        expected = restart_loop_is_trivial(n, m, word)
        assert bs.is_trivial(word) == expected, (n, m, str(word))
        trivial += expected
    assert trivial >= 2500
