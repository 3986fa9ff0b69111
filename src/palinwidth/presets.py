"""Built-in example groups, so runs need no external files."""
from __future__ import annotations

import re

from .errors import GroupDefinitionError
from .groups import MAX_GROUP_SIZE, BaumslagSolitar, FiniteGroup, FreeAbelianGroup, FreeGroup, Group


def symmetric_3() -> FiniteGroup:
    return FiniteGroup.from_permutations([("s", [2, 1, 3]), ("t", [2, 3, 1])])


def dihedral_4() -> FiniteGroup:
    return FiniteGroup.from_permutations([("r", [2, 3, 4, 1]), ("s", [3, 2, 1, 4])])


def klein_four() -> FiniteGroup:
    return FiniteGroup.from_permutations([("a", [2, 1, 3, 4]), ("b", [1, 2, 4, 3])])


def quaternion_8() -> FiniteGroup:
    """Q8 = <i, j> as its right-regular representation: 1, i, -i, j, -j, -1, k, -k."""
    return FiniteGroup.from_permutations(
        [("i", [2, 6, 1, 8, 7, 3, 4, 5]), ("j", [4, 7, 8, 6, 1, 5, 3, 2])]
    )


def _check_cyclic_order(order: int) -> None:
    if order < 1:
        raise GroupDefinitionError("cyclic order must be positive")
    if order > MAX_GROUP_SIZE:
        raise GroupDefinitionError(f"cyclic order {order} exceeds {MAX_GROUP_SIZE} elements")


def cyclic(order: int, name: str = "z") -> FiniteGroup:
    _check_cyclic_order(order)
    # the residue a steps to a+1 and a-1: one integer per element, not a permutation
    return FiniteGroup.from_elements([name], 0, lambda a: ((a + 1) % order, (a - 1) % order))


def lamplighter(base_order: int, top_order: int) -> FiniteGroup:
    """Finite truncation Z/m wr Z/k of a lamplighter-style wreath product, over z (top), y (base).

    A factor is refused as cyclic refuses it, the top first.  FiniteGroup
    .from_wreath then builds it from both factors' residue columns, and no
    factor's table, so lamp(1,k) costs what Z/k costs.  An element is the
    integer t + k*L, the cursor t and the lamps L = sum of lamp_p * m^p over
    residues p; the table, inverses and geodesics are those of
    WreathProduct(cyclic(k, "z"), cyclic(m, "y")).as_finite_group().
    """
    m, k = base_order, top_order
    for order in (k, m):  # the top's order first, then the base's
        _check_cyclic_order(order)
    # each factor's letter columns: the residue a steps to a+1 and to a-1; a's inverse is -a
    top, base = ([[*range(1, n), 0], [n - 1, *range(n - 1)]] for n in (k, m))
    return FiniteGroup.from_wreath(["z", "y"], top, [0, *range(k - 1, 0, -1)], base)


def baumslag_solitar(n: int, m: int) -> BaumslagSolitar:
    return BaumslagSolitar(n, m)


def get(name: str) -> Group:
    """Resolve a preset name like S3, D4, Q8, Z2xZ2, Z/5, lamp(2,3), BS(1,2), F2, Z^2.

    The group records {"preset": name}, with every number in it written
    canonically (Z/05 records Z/5, F02 records F2).
    """
    fixed = {
        "S3": symmetric_3,
        "D4": dihedral_4,
        "Q8": quaternion_8,
        "Z2xZ2": klein_four,
        "Z": lambda: FreeAbelianGroup(1),
    }
    if name in fixed:
        group = fixed[name]()
    elif match := re.fullmatch(r"lamp\((\d+),(\d+)\)", name):
        m, k = map(int, match.groups())
        group, name = lamplighter(m, k), f"lamp({m},{k})"
    elif match := re.fullmatch(r"BS\((-?\d+),(-?\d+)\)", name):
        n, m = map(int, match.groups())
        group, name = baumslag_solitar(n, m), f"BS({n},{m})"
    elif match := re.fullmatch(r"(Z/|F|Z\^)(\d+)", name):
        kind, number = match.group(1), int(match.group(2))
        group = {"Z/": cyclic, "F": FreeGroup, "Z^": FreeAbelianGroup}[kind](number)
        name = f"{kind}{number}"
    elif len(name) > 40:  # the argument may be a whole mistyped definition: echo its start only
        raise GroupDefinitionError(f"unknown preset {name[:40]!r}... ({len(name)} characters)")
    else:
        raise GroupDefinitionError(f"unknown preset {name!r}")
    group.source_def = {"preset": name}
    return group
