"""Palindromic width of wreath products: exact oracle and certified constructions.

Exports load on first use (PEP 562): `import palinwidth` loads no
submodule, and reading a name such as `palinwidth.Word` imports only the
module that defines it and what that module imports.
"""
from importlib import import_module

_EXPORTS = {  # module -> the names the package exports from it
    "words": (
        "Alphabet", "Word", "invert", "is_palindrome", "reduce_free", "relabel", "reverse",
        "sandwich",
    ),
    "groups": (
        "AbelianProductGroup", "AbelianizedFreeGroup", "BaumslagSolitar", "FiniteGroup",
        "FreeAbelianGroup", "FreeGroup", "Group", "Homomorphism", "abelianize", "quotient_map",
    ),
    "wreath": ("WreathElement", "WreathProduct"),
    "commutators": ("commutator_closure", "commutator_word", "express_in_derived"),
    "oracle": (
        "FactorizationCertificate", "PairAutomaton", "PalindromeOracle", "PalindromeSet",
        "WidthReport", "build_pair_automaton", "exact_palindromic_width", "oracle_for",
        "palindrome_set", "verify_factorization",
    ),
    "decompose": (
        "CommutatorData", "CommutatorSite", "PalindromeFactorization", "RelationWitness",
        "decompose_abelian_element", "decompose_commutator_abelian_top",
        "decompose_commutator_pair", "decompose_derived_wreath",
        "decompose_finite_top_abelianized", "decompose_full_finite_top",
        "decompose_shifted_commutators", "find_reversal_asymmetric_relation",
        "push_factorization",
    ),
}
_MODULES = (*_EXPORTS, "errors", "presets")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    # an AttributeError lets `from palinwidth import cli` fall back to importing the submodule
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
