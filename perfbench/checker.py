"""Independent checker for palinwidth outputs.

Nothing here imports palinwidth.  Groups are modelled with their own
arithmetic: permutation tuples, 2x2 Gaussian-integer matrices for Q8,
(top, lamp tuple) pairs for the lamplighter presets, exponent vectors for
free abelian tops and freely reduced letter tuples for free bases.  Words
are read from their printed form (`x^-2*y*c`) with a parser of our own.

Conventions, taken from the package documentation rather than its code:

* a word is read left to right; for permutations, one-line images are
  applied in that order, so the value of `x*y` sends i to y(x(i));
* in a wreath product, evaluating left to right with running top prefix
  u, a base letter deposits its value at position u^-1.

Every check raises CheckError with a reason on the first mismatch.
"""
from __future__ import annotations

import math
import re
from collections import deque

Letter = tuple  # (generator name, sign)

_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


class CheckError(Exception):
    """An output disagrees with the independent computation."""


def parse_word(text: str) -> tuple[Letter, ...]:
    """`x^-2*y` -> (('x', -1), ('x', -1), ('y', 1)); `1` is the empty word."""
    letters: list[Letter] = []
    for token in re.split(r"[*\s]+", text.strip()):
        if token in ("", "1"):
            continue
        match = _TOKEN.match(token)
        if match is None:
            raise CheckError(f"unreadable word token {token!r} in {text!r}")
        exponent = int(match.group(2)) if match.group(2) else 1
        sign = 1 if exponent > 0 else -1
        letters.extend([(match.group(1), sign)] * abs(exponent))
    return tuple(letters)


def format_word(letters) -> str:
    """Inverse of parse_word, one letter per token."""
    if not letters:
        return "1"
    return "*".join(name if sign > 0 else f"{name}^-1" for name, sign in letters)


def is_palindrome(letters) -> bool:
    letters = tuple(letters)
    return letters == letters[::-1]


def free_reduce(letters) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for name, sign in letters:
        if stack and stack[-1] == (name, -sign):
            stack.pop()
        else:
            stack.append((name, sign))
    return tuple(stack)


# ---------------------------------------------------------------------------
# group models: identity, mul, inv, gens {name: element}


class Model:
    identity = None
    gens: dict

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def letter(self, name: str, sign: int):
        if name not in self.gens:
            raise CheckError(f"unknown generator {name!r}")
        value = self.gens[name]
        return value if sign > 0 else self.inv(value)

    def evaluate(self, letters):
        value = self.identity
        for name, sign in letters:
            value = self.mul(value, self.letter(name, sign))
        return value

    def extended(self, name: str, value_word: str) -> "Model":
        """The same group with one more generator, valued by a word."""
        if name in self.gens:
            raise CheckError(f"extra generator {name!r} clashes with a generator")
        out = _Extended(self)
        out.gens = dict(self.gens)
        out.gens[name] = self.evaluate(parse_word(value_word))
        return out


class _Extended(Model):
    def __init__(self, inner: Model):
        self.inner = inner
        self.identity = inner.identity

    def mul(self, a, b):
        return self.inner.mul(a, b)

    def inv(self, a):
        return self.inner.inv(a)


class PermModel(Model):
    """Permutations of 0..n-1 as image tuples; x*y applies x first."""

    def __init__(self, gens_one_based: dict):
        degrees = {len(images) for images in gens_one_based.values()}
        if len(degrees) != 1:
            raise CheckError("permutation generators of different degrees")
        self.degree = degrees.pop()
        self.identity = tuple(range(self.degree))
        self.gens = {}
        for name, images in gens_one_based.items():
            perm = tuple(i - 1 for i in images)
            if sorted(perm) != list(self.identity):
                raise CheckError(f"generator {name!r} is not a permutation")
            self.gens[name] = perm

    def mul(self, a, b):
        return tuple(b[i] for i in a)

    def inv(self, a):
        out = [0] * len(a)
        for i, image in enumerate(a):
            out[image] = i
        return tuple(out)


class Q8Model(Model):
    """Quaternion group as 2x2 matrices over the Gaussian integers."""

    def __init__(self):
        self.identity = ((1, 0), (0, 1))
        self.gens = {"i": ((1j, 0), (0, -1j)), "j": ((0, 1), (-1, 0))}

    def mul(self, a, b):
        return tuple(
            tuple(a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in range(2)) for r in range(2)
        )

    def inv(self, a):
        # unitary with determinant 1: the inverse is the conjugate transpose
        return tuple(tuple(a[c][r].conjugate() for c in range(2)) for r in range(2))


class LampModel(Model):
    """Z/m wr Z/k as (top, lamps); z moves the top, y lights position 0."""

    def __init__(self, m: int, k: int):
        self.m, self.k = m, k
        self.identity = (0, (0,) * k)
        self.gens = {"z": (1, (0,) * k), "y": (0, (1,) + (0,) * (k - 1))}

    def mul(self, a, b):
        # (phi, s) . (psi, t) = (p -> phi(p) + psi(p + s), s + t)
        s, phi = a
        t, psi = b
        k, m = self.k, self.m
        return ((s + t) % k, tuple((phi[p] + psi[(p + s) % k]) % m for p in range(k)))

    def inv(self, a):
        s, phi = a
        k, m = self.k, self.m
        return ((-s) % k, tuple((-phi[(p - s) % k]) % m for p in range(k)))


class VectorModel(Model):
    """Free abelian group on the given names, as exponent vectors."""

    def __init__(self, names):
        names = tuple(names)
        self.identity = (0,) * len(names)
        self.gens = {
            name: tuple(1 if j == i else 0 for j in range(len(names)))
            for i, name in enumerate(names)
        }

    def mul(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)


class FreeModel(Model):
    """Free group on the given names, as freely reduced letter tuples."""

    def __init__(self, names):
        self.identity = ()
        self.gens = {name: ((name, 1),) for name in names}

    def mul(self, a, b):
        return free_reduce(a + b)

    def inv(self, a):
        return tuple((name, -sign) for name, sign in reversed(a))


class WreathModel:
    """base wr top, evaluated letter by letter with the deposit rule."""

    def __init__(self, top: Model, base: Model):
        clash = set(top.gens) & set(base.gens)
        if clash:
            raise CheckError(f"top and base share generators {sorted(clash)}")
        self.top = top
        self.base = base

    def evaluate(self, letters) -> tuple:
        """(top element, frozenset of (position, non-trivial lamp value))."""
        prefix = self.top.identity
        lamps: dict = {}
        for name, sign in letters:
            if name in self.top.gens:
                prefix = self.top.mul(prefix, self.top.letter(name, sign))
                continue
            position = self.top.inv(prefix)
            value = self.base.mul(
                lamps.get(position, self.base.identity), self.base.letter(name, sign)
            )
            if value == self.base.identity:
                lamps.pop(position, None)
            else:
                lamps[position] = value
        return prefix, frozenset(lamps.items())

    def extended(self, name: str, value_word: str) -> "WreathModel":
        return WreathModel(self.top.extended(name, value_word), self.base)


# ---------------------------------------------------------------------------
# finite groups: palindromic elements, width, orders


def palindromic_elements(model: Model) -> set:
    """Values of every palindromic word u.x.reverse(u), x empty or one letter.

    Breadth-first search over the pairs (value of u, value of reverse(u));
    appending a letter x to u sends (g, h) to (g.x, x.h).
    """
    letters = [model.letter(name, sign) for name in model.gens for sign in (1, -1)]
    start = (model.identity, model.identity)
    seen = {start}
    queue = deque([start])
    elements = set()
    while queue:
        g, h = queue.popleft()
        elements.add(model.mul(g, h))
        for x in letters:
            elements.add(model.mul(model.mul(g, x), h))
            successor = (model.mul(g, x), model.mul(x, h))
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return elements


def palindromic_distances(model: Model) -> dict:
    """Fewest palindromic factors for each element (the width BFS)."""
    moves = [p for p in palindromic_elements(model) if p != model.identity]
    distances = {model.identity: 0}
    queue = deque([model.identity])
    while queue:
        x = queue.popleft()
        for p in moves:
            y = model.mul(x, p)
            if y not in distances:
                distances[y] = distances[x] + 1
                queue.append(y)
    return distances


class FiniteReference:
    """What the checker knows about one finite group with its generators."""

    def __init__(self, model: Model, expected_order: int):
        self.model = model
        self.distances = palindromic_distances(model)
        self.order = len(self.distances)
        if self.order != expected_order:
            raise CheckError(f"checker reached {self.order} elements, expected {expected_order}")
        self.width = max(self.distances.values())

    def check_width(self, order: int, width: int, witness_word: str, factors) -> None:
        """pw-exact answer: order, width, and a witness needing `width` factors."""
        if order != self.order:
            raise CheckError(f"order {order}, checker has {self.order}")
        if width != self.width:
            raise CheckError(f"width {width}, checker has {self.width}")
        witness = self.model.evaluate(parse_word(witness_word))
        if self.distances[witness] != width:
            raise CheckError(
                f"witness needs {self.distances[witness]} palindromes, not the width {width}"
            )
        check_factors(self.model.evaluate, witness, factors, width)

    def check_relation(self, relation: str, extra: dict | None) -> None:
        """r evaluates to 1 and reverse(r) does not, with c from its value_word."""
        model = self.model
        if extra is not None:
            model = model.extended(extra["name"], extra["value_word"])
        letters = parse_word(relation)
        if model.evaluate(letters) != model.identity:
            raise CheckError(f"relation {relation} is not trivial")
        if model.evaluate(letters[::-1]) == model.identity:
            raise CheckError(f"reverse of relation {relation} is trivial too")


def check_factors(evaluate, target, factors, bound: int) -> None:
    """Palindromes letter for letter, at most `bound` of them, product = target."""
    if len(factors) > bound:
        raise CheckError(f"{len(factors)} factors exceed the bound {bound}")
    product: list = []
    for i, text in enumerate(factors):
        letters = parse_word(text)
        if not is_palindrome(letters):
            raise CheckError(f"factor {i} ({text}) is not a palindrome")
        product.extend(letters)
    if evaluate(product) != target:
        raise CheckError("product of the factors differs from the target")


# ---------------------------------------------------------------------------
# group definitions as the CLI reads them


def model_of(definition: dict) -> tuple[Model, int]:
    """Model and expected order for the finite group definitions in use.

    A permutation definition is expected to generate the whole symmetric
    group on its points, as the benchmark's S4 and S5 inputs do.
    """
    if "extra_generator" in definition:
        inner, order = model_of(definition["base"])
        extra = definition["extra_generator"]
        return inner.extended(extra["name"], extra["value_word"]), order
    preset = definition.get("preset")
    if preset == "S3":
        return PermModel({"s": [2, 1, 3], "t": [2, 3, 1]}), math.factorial(3)
    if preset == "D4":
        return PermModel({"r": [2, 3, 4, 1], "s": [3, 2, 1, 4]}), 8
    if preset == "Q8":
        return Q8Model(), 8
    if preset is not None:
        match = re.fullmatch(r"lamp\((\d+),(\d+)\)", preset)
        if match is None:
            raise CheckError(f"no model for preset {preset!r}")
        m, k = int(match.group(1)), int(match.group(2))
        return LampModel(m, k), m**k * k
    if definition.get("kind") == "finite" and "table" not in definition:
        model = PermModel(definition["generators"])
        return model, math.factorial(model.degree)
    raise CheckError(f"no model for group definition {definition!r}")
