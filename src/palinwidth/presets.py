"""Built-in example groups, so runs need no external files."""
from __future__ import annotations

import re

from .errors import GroupDefinitionError
from .groups import MAX_GROUP_SIZE, BaumslagSolitar, FiniteGroup, FreeAbelianGroup, FreeGroup, Group
from .wreath import WreathProduct


def symmetric_3() -> FiniteGroup:
    return FiniteGroup.from_permutations(
        [("s", [2, 1, 3]), ("t", [2, 3, 1])], source_def={"preset": "S3"}
    )


def dihedral_4() -> FiniteGroup:
    return FiniteGroup.from_permutations(
        [("r", [2, 3, 4, 1]), ("s", [3, 2, 1, 4])], source_def={"preset": "D4"}
    )


def klein_four() -> FiniteGroup:
    return FiniteGroup.from_permutations(
        [("a", [2, 1, 3, 4]), ("b", [1, 2, 4, 3])], source_def={"preset": "Z2xZ2"}
    )


_UNIT_MUL = {
    ("e", "e"): (1, "e"), ("e", "i"): (1, "i"), ("e", "j"): (1, "j"), ("e", "k"): (1, "k"),
    ("i", "e"): (1, "i"), ("i", "i"): (-1, "e"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "e"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "e"), ("j", "k"): (1, "i"),
    ("k", "e"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "e"),
}


def quaternion_8() -> FiniteGroup:
    def mul(a, b):
        sign, unit = _UNIT_MUL[(a[1], b[1])]
        return (a[0] * b[0] * sign, unit)

    def inv(a):
        if a[1] == "e":
            return a
        return (-a[0], a[1])

    return FiniteGroup.from_elements(
        ["i", "j"],
        (1, "e"),
        [(1, "i"), (1, "j")],
        mul,
        inv,
        source_def={"preset": "Q8"},
    )


def cyclic(order: int, name: str = "z") -> FiniteGroup:
    if order < 1:
        raise GroupDefinitionError("cyclic order must be positive")
    if order > MAX_GROUP_SIZE:
        # the closure would multiply |G| permutations of `order` points before refusing
        raise GroupDefinitionError(f"cyclic order {order} exceeds {MAX_GROUP_SIZE} elements")
    images = [i % order + 1 for i in range(1, order + 1)]
    return FiniteGroup.from_permutations(
        [(name, images)], source_def={"preset": f"Z/{order}"}
    )


def lamplighter(base_order: int, top_order: int) -> FiniteGroup:
    """Finite truncation Z/m wr Z/k of a lamplighter-style wreath product."""
    product = WreathProduct(cyclic(top_order, "z"), cyclic(base_order, "y"))
    finite = product.as_finite_group()
    finite.source_def = {"preset": f"lamp({base_order},{top_order})"}
    return finite


def baumslag_solitar(n: int, m: int) -> BaumslagSolitar:
    return BaumslagSolitar(n, m)


def get(name: str) -> Group:
    """Resolve a preset name like S3, D4, Q8, Z2xZ2, Z/5, lamp(2,3), BS(1,2), F2, Z^2."""
    fixed = {
        "S3": symmetric_3,
        "D4": dihedral_4,
        "Q8": quaternion_8,
        "Z2xZ2": klein_four,
        "Z": lambda: FreeAbelianGroup(1, source_def={"preset": "Z"}),
    }
    if name in fixed:
        return fixed[name]()
    match = re.fullmatch(r"lamp\((\d+),(\d+)\)", name)
    if match:
        return lamplighter(int(match.group(1)), int(match.group(2)))
    match = re.fullmatch(r"BS\((-?\d+),(-?\d+)\)", name)
    if match:
        return baumslag_solitar(int(match.group(1)), int(match.group(2)))
    match = re.fullmatch(r"Z/(\d+)", name)
    if match:
        return cyclic(int(match.group(1)))
    match = re.fullmatch(r"F(\d+)", name)
    if match:
        return FreeGroup(int(match.group(1)), source_def={"preset": name})
    match = re.fullmatch(r"Z\^(\d+)", name)
    if match:
        return FreeAbelianGroup(int(match.group(1)), source_def={"preset": name})
    if len(name) > 40:  # the argument may be a whole mistyped definition: echo its start only
        raise GroupDefinitionError(f"unknown preset {name[:40]!r}... ({len(name)} characters)")
    raise GroupDefinitionError(f"unknown preset {name!r}")
