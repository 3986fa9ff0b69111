"""The finite-group core against sympy.combinatorics, a test-only reference."""
import pytest

pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

from palinwidth import FiniteGroup  # noqa: E402
from palinwidth.commutators import commutator_closure  # noqa: E402

GENERATORS = {
    "S4": {"s": [2, 1, 3, 4], "t": [2, 3, 4, 1]},
    "S5": {"s": [2, 1, 3, 4, 5], "t": [2, 3, 4, 5, 1]},
    "S6": {"s": [2, 1, 3, 4, 5, 6], "t": [2, 3, 4, 5, 6, 1]},
    "D4": {"r": [2, 3, 4, 1], "s": [3, 2, 1, 4]},
}


def both(name):
    gens = GENERATORS[name]
    ours = FiniteGroup.from_permutations(gens)
    theirs = PermutationGroup(*[Permutation([i - 1 for i in images]) for images in gens.values()])
    return ours, theirs


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_group_order_matches_sympy(name):
    ours, theirs = both(name)
    assert ours.size == theirs.order()
    assert set(ours.payloads) == {tuple(p.array_form) for p in theirs.elements}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_commutator_closure_matches_sympy(name):
    ours, theirs = both(name)
    closure = commutator_closure(ours)
    derived = theirs.derived_subgroup()
    assert len(closure) == derived.order()
    assert {ours.payloads[x] for x in closure} == {tuple(p.array_form) for p in derived.elements}
