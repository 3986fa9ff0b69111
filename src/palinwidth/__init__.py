"""Palindromic width of wreath products: exact oracle and certified constructions."""

from .words import (
    Alphabet,
    PalindromeCertificate,
    Word,
    invert,
    is_palindrome,
    reduce_free,
    relabel,
    reverse,
    sandwich,
)
from .groups import (
    AbelianProductGroup,
    AbelianizedFreeGroup,
    BaumslagSolitar,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    GeodesicTable,
    Group,
    Homomorphism,
    abelianize,
    quotient_map,
)
from .wreath import WreathElement, WreathProduct
from .commutators import commutator_closure, commutator_word, express_in_derived
from .oracle import (
    FactorizationCertificate,
    PairAutomaton,
    PalindromeOracle,
    PalindromeSet,
    WidthReport,
    build_pair_automaton,
    exact_palindromic_width,
    oracle_for,
    palindrome_set,
    verify_factorization,
)
from .decompose import (
    CommutatorData,
    CommutatorSite,
    PalindromeFactorization,
    RelationWitness,
    decompose_abelian_element,
    decompose_commutator_abelian_top,
    decompose_commutator_pair,
    decompose_derived_wreath,
    decompose_finite_top_abelianized,
    decompose_full_finite_top,
    decompose_shifted_commutators,
    find_reversal_asymmetric_relation,
    push_factorization,
)
from . import errors, presets

__all__ = [name for name in dir() if not name.startswith("_")]
