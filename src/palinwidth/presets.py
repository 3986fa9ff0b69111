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

    An element is one integer t + k*L: the cursor t in Z/k and the lamps
    L = sum of lamp_p * m^p, each lamp_p in 0..m-1.  z^±1 moves the cursor
    by ±1; y^±1 adds ±1 mod m to the lamp at -t, where the wreath convention
    deposits a base letter read after the top prefix t.  Discovery order
    depends only on the labelled Cayley graph, so the table, inverses and
    geodesics are those of WreathProduct(cyclic(k, "z"), cyclic(m, "y"))
    .as_finite_group(), built without its permutations of m*k points.

    Its order m^k*k is known before anything is built, so an order over
    MAX_GROUP_SIZE is refused at once.  A factor over the limit is refused
    as cyclic refuses it, which keeps the power small.
    """
    m, k = base_order, top_order
    if max(m, k) <= MAX_GROUP_SIZE < m**k * k:
        raise GroupDefinitionError(
            f"lamplighter order {m}^{k}*{k} exceeds {MAX_GROUP_SIZE} elements"
        )
    for order in (k, m):  # the top's order first, then the base's
        _check_cyclic_order(order)
    # per cursor t: the moves to t+1 and t-1, and the place value of the lamp at -t, times k
    shifts = [((t + 1) % k - t, (t - 1) % k - t, k * m ** (-t % k)) for t in range(k)]

    def step(code: int) -> tuple[int, int, int, int]:
        forward, back, place = shifts[code % k]
        lamp = code // place % m
        return (
            code + forward,
            code + back,
            code + place if lamp < m - 1 else code - lamp * place,  # m-1 wraps to 0
            code - place if lamp else code + (m - 1) * place,  # 0 wraps to m-1
        )

    return FiniteGroup.from_elements(["z", "y"], 0, step)


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
