"""Command-line front door.

Reports are deterministic for identical inputs: JSON goes to
stdout with sorted keys, timing goes to stderr.  Exit codes: 0 success,
1 verification or decomposition failure (a stored relation that is not
one, too) or a stdout closed before the report was written, 2 input
error (a relation missing from a report, or on a mode that takes none).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional

from . import presets
from .errors import (
    AlphabetMismatch,
    ClaimMismatch,
    GroupDefinitionError,
    PalinwidthError,
    WordSyntaxError,
)
from .groups import (
    AbelianProductGroup,
    AbelianizedFreeGroup,
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
)
from .words import Word, within_limit

# The oracle and the constructions are imported by the commands that run them,
# so a process compiles only the modules its subcommand needs.
if TYPE_CHECKING:
    import random

    from .decompose import CommutatorData, PalindromeFactorization, RelationWitness
    from .wreath import WreathProduct

# the paper's constructions, in the order `bench` runs them
MODES = ("abelian-top", "shifted", "derived", "finite-top")
# the modes whose construction takes a relation of the top (and searches for one when given none)
RELATION_MODES = ("derived", "finite-top")
# the decompose options each mode reads, besides --top, --base and (RELATION_MODES) --relation
_MODE_OPTIONS = {"abelian-top": ("word", "word_b", "exps"), "shifted": ("commutators", "a_top"),
                 "derived": ("commutators", "a_top"), "finite-top": ("word",)}

_INPUT_ERRORS = (GroupDefinitionError, WordSyntaxError, AlphabetMismatch, ValueError)


# ---------------------------------------------------------------------------
# JSON input checks

_REQUIRED = object()


def _field(block: Any, key: str, kind: type, default: Any = _REQUIRED) -> Any:
    """block[key], checked to be a `kind`; malformed JSON is an input error."""
    if not isinstance(block, dict):
        raise GroupDefinitionError(f"expected a JSON object, got {type(block).__name__}")
    if key not in block:
        if default is _REQUIRED:
            raise GroupDefinitionError(f"missing key {key!r}")
        return default
    value = block[key]
    if value is None and default is None:
        return None
    if not _is(value, kind):
        raise GroupDefinitionError(f"{key!r} has the wrong type ({type(value).__name__})")
    return value


def _list_of(value: list, kind: type, what: str) -> list:
    if not all(_is(item, kind) for item in value):
        raise GroupDefinitionError(f"{what} must hold only {kind.__name__} values")
    return value


def _is(value: Any, kind: type) -> bool:
    """isinstance, except that a JSON boolean is not an integer."""
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


# ---------------------------------------------------------------------------
# group loading


def group_from_def(definition: dict) -> Group:
    """The group a JSON definition describes, recording that definition.

    A preset records its canonical name instead (see presets.get).
    """
    if not isinstance(definition, dict):
        raise GroupDefinitionError("a group definition is a JSON object")
    if "preset" in definition:
        return presets.get(_field(definition, "preset", str))
    group = _build(definition)
    group.source_def = definition
    return group


def _build(definition: dict) -> Group:
    """The group a definition other than a preset describes, not yet recorded."""
    if "extra_generator" in definition:
        # the inner group is fresh, so no other holder of the extension sees its definition
        inner = group_from_def(_field(definition, "base", dict))
        return _extend(inner, _field(definition, "extra_generator", dict))
    kind = _field(definition, "kind", str, None)
    if kind == "finite":
        gens = _field(definition, "generators", dict)
        if "table" not in definition:
            for name in gens:
                _list_of(_field(gens, name, list), int, f"generator {name!r}")
            return FiniteGroup.from_permutations(list(gens.items()))
        rows = _list_of(_field(definition, "table", list), list, "table")
        for row in rows:
            _list_of(row, int, "table row")
        _list_of(list(gens.values()), int, "generators")
        return FiniteGroup.from_table(list(gens.keys()), rows, list(gens.values()))
    backends = {
        "free": FreeGroup,
        "free_abelian": FreeAbelianGroup,
        "abelianized_free": AbelianizedFreeGroup,
    }
    if kind in backends:
        return backends[kind](_field(definition, "rank", int, None), _names(definition, "names"))
    if kind == "abelian_product":
        finite = group_from_def(_field(definition, "finite", dict))
        if not isinstance(finite, FiniteGroup):
            raise GroupDefinitionError("abelian product needs a finite part")
        return AbelianProductGroup(
            _field(definition, "free_rank", int), finite, _names(definition, "free_names")
        )
    raise GroupDefinitionError(f"unknown group kind {kind!r}")


def _names(definition: dict, key: str) -> Optional[list]:
    names = _field(definition, key, list, None)
    return None if names is None else _list_of(names, str, key)


def _extend(group: Group, extra: dict) -> FiniteGroup:
    """The group extended by an `extra_generator` block."""
    if not isinstance(group, FiniteGroup):
        raise GroupDefinitionError("extra generators only extend finite groups")
    value = group.evaluate(Word.parse(group.alphabet, _field(extra, "value_word", str)))
    return group.with_extra_generator(_field(extra, "name", str), value)


def load_group(source: str) -> Group:
    if os.path.exists(source):
        with open(source) as handle:
            return group_from_def(json.load(handle))
    if source.lstrip().startswith("{"):
        return group_from_def(json.loads(source))
    return presets.get(source)


def _witness_def(witness: RelationWitness, original: Group) -> dict:
    out: dict[str, Any] = {"relation": str(witness.relation), "extra_generator": None}
    if witness.extra_generator is not None:
        name, value = witness.extra_generator
        out["extra_generator"] = {
            "name": name,
            "value_word": str(original.element_word(value)),
        }
    return out


def _witness(mode: str, relation: Any, top: Group) -> Optional[RelationWitness]:
    """The witness `--relation` or a `relation_used` block names: None when none is
    given or `--relation` is 'auto' or '' (the construction searches), else the word
    over the top, or over the top a block extends.  Only RELATION_MODES take one."""
    from .decompose import RelationWitness

    if relation is not None and mode not in RELATION_MODES:
        raise GroupDefinitionError(f"{mode} mode takes no relation")
    if relation in (None, "auto", ""):
        return None
    if isinstance(relation, str):
        return RelationWitness(top, Word.parse(top.alphabet, relation))
    extra = _field(relation, "extra_generator", dict, None)
    group = _extend(top, extra) if extra else top
    return RelationWitness(group, Word.parse(group.alphabet, _field(relation, "relation", str)))


# ---------------------------------------------------------------------------
# shared input parsing


def _parse_exponents(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise GroupDefinitionError(f"bad exponent list {text!r}") from None


def _parse_commutators(text: str, wreath: WreathProduct) -> CommutatorData:
    from .decompose import CommutatorData, CommutatorSite

    raw = json.loads(text)
    if not isinstance(raw, list):
        raise GroupDefinitionError("commutator data is a JSON list of sites")
    sites, letters = [], 0  # one count over the whole block
    for entry in raw:
        position_word = Word.parse(wreath.top.alphabet, _field(entry, "position", str))
        letters = within_limit(letters + len(position_word))
        pairs = []
        for pair in _field(entry, "pairs", list):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise GroupDefinitionError("each commutator pair is a list [f, g]")
            first, second = (Word.parse(wreath.base.alphabet, side)
                             for side in _list_of(pair, str, "a commutator pair"))
            letters = within_limit(letters + len(first) + len(second))
            pairs.append((first, second))
        sites.append(CommutatorSite(wreath.top.evaluate(position_word), tuple(pairs)))
    return CommutatorData(tuple(sites))


def _decompose_inputs(args, wreath: WreathProduct) -> dict:
    """argv as the report's `inputs` block; an option the mode does not read is an input error."""
    for option in dict.fromkeys(o for options in _MODE_OPTIONS.values() for o in options):
        if getattr(args, option) is not None and option not in _MODE_OPTIONS[args.mode]:
            raise GroupDefinitionError(f"{args.mode} mode takes no --{option.replace('_', '-')}")
    if args.mode == "abelian-top":
        if args.exps is None:
            raise GroupDefinitionError("--exps is required for abelian-top mode")
        inputs: dict[str, Any] = {"exps": _parse_exponents(args.exps)}
        inputs["word"] = str(Word.parse(wreath.alphabet, args.word or "1"))
        if args.word_b is not None:
            inputs["word_b"] = str(Word.parse(wreath.alphabet, args.word_b))
        return inputs
    if args.mode == "finite-top":
        return {"word": str(Word.parse(wreath.alphabet, args.word or "1"))}
    text = args.commutators or "[]"
    if text.startswith("@"):  # the report keeps the data, not the path
        with open(text[1:]) as handle:
            text = handle.read()
    return {"commutators": text, "a_top": args.a_top or "1"}


def _mode_calls(
    mode: str,
    inputs: dict,
    top: Group,
    base: Group,
    witness: Optional[RelationWitness],
) -> tuple[Callable[[], PalindromeFactorization], Callable[[], tuple]]:
    """The construction for one mode, and its claim: product, target, bound and formula.

    `decompose` runs the first, `verify` checks a report against the
    second, so both read the inputs and compute the target and the bound
    the same way.  A RELATION_MODES construction searches for a relation
    when given none, and its product (_relation_product) checks a given
    one and fixes the bound's top.  The claim is computed on demand:
    decompose never needs it, and working it out first would report some
    bad inputs with the target's error rather than the construction's.
    """
    from .decompose import (
        _relation_product, abelian_top_target, commutator_target, decompose_commutator_abelian_top,
        decompose_commutator_pair, decompose_derived_wreath, decompose_shifted_commutators,
        decompose_full_finite_top, derived_bound, finite_top_bound, shifted_bound, unrolled_bound,
    )
    from .wreath import WreathProduct

    wreath = WreathProduct(top, base)
    if mode == "abelian-top":
        exponents = _list_of(_field(inputs, "exps", list), int, "exps")
        a_word = Word.parse(wreath.alphabet, _field(inputs, "word", str))
        b_text = _field(inputs, "word_b", str, None)
        if b_text is None:
            b_word, run = None, partial(decompose_commutator_abelian_top, wreath, a_word, exponents)
        else:
            b_word = Word.parse(wreath.alphabet, b_text)
            run = partial(decompose_commutator_pair, wreath, a_word, b_word, exponents)
        target = partial(abelian_top_target, wreath, a_word, exponents, b_word)
        bound = lambda _: unrolled_bound(exponents, b_word is not None)
    elif mode in ("shifted", "derived"):
        data = _parse_commutators(_field(inputs, "commutators", str), wreath)
        a_top = top.evaluate(Word.parse(top.alphabet, _field(inputs, "a_top", str)))
        target = partial(commutator_target, wreath, data, a_top)
        if mode == "shifted":
            run = partial(decompose_shifted_commutators, wreath, data, a_top)
            bound = partial(shifted_bound, data=data)
        else:
            run = partial(decompose_derived_wreath, wreath, data, a_top, witness)
            bound = derived_bound
    else:  # finite-top; decompose, verify and bench take only MODES
        word = Word.parse(wreath.alphabet, _field(inputs, "word", str))
        run = partial(decompose_full_finite_top, wreath, word, witness)
        target = partial(wreath.evaluate, word)
        bound = partial(finite_top_bound, base=base)

    def claim() -> tuple:
        product = _relation_product(wreath, witness)[0] if mode in RELATION_MODES else wreath
        return product, target(), *bound(product.top)

    return run, claim


def _factorization_report(fact) -> dict:
    return {
        "factors": [str(w) for w in fact.factors],
        "count": fact.count,
        "bound": fact.bound_claimed,
        "bound_formula": fact.bound_formula,
        "verified": fact.verified,
        "certificate": fact.certificate.to_dict(),
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_pw_exact(args) -> tuple[dict, bool]:
    from .oracle import exact_palindromic_width, oracle_for

    group = load_group(args.group)
    if not isinstance(group, FiniteGroup):
        raise GroupDefinitionError("pw-exact needs a finite group")
    definition = group.source_def
    if args.extend_gens:
        name, _, word_text = args.extend_gens.partition("=")
        if not word_text:
            raise GroupDefinitionError("--extend-gens wants name=word")
        extra = {"name": name.strip(), "value_word": word_text.strip()}
        group = _extend(group, extra)
        definition = {"base": definition, "extra_generator": extra}
    report = exact_palindromic_width(group)
    witness_factors = oracle_for(group).decompose(report.witness)
    return (
        {
            "command": "pw-exact",
            "group": definition,
            "width": report.width,
            "witness": {
                "index": report.witness,
                "word": str(group.element_word(report.witness)),
                "factors": [str(w) for w in witness_factors],
            },
            "histogram": {str(k): v for k, v in sorted(report.histogram().items())},
        },
        True,
    )


def cmd_find_relation(args) -> tuple[dict, bool]:
    from .decompose import find_reversal_asymmetric_relation

    group = load_group(args.group)
    witness = find_reversal_asymmetric_relation(group)
    return (
        {
            "command": "find-relation",
            "group": group.source_def,
            "reverse_value": str(witness.group.element_word(witness.reverse_value)),
            **_witness_def(witness, group),
        },
        True,
    )


def cmd_decompose(args) -> tuple[dict, bool]:
    from .wreath import WreathProduct

    top = load_group(args.top)
    base = load_group(args.base)
    inputs = _decompose_inputs(args, WreathProduct(top, base))
    witness = _witness(args.mode, args.relation, top)
    run, _ = _mode_calls(args.mode, inputs, top, base, witness)
    fact = run()
    within_limit(sum(map(len, fact.factors)))  # so that verify reads every report written
    report: dict[str, Any] = {
        "command": "decompose",
        "mode": args.mode,
        "top": top.source_def,
        "base": base.source_def,
        "inputs": inputs,
    }
    if args.mode == "shifted":
        report["shift_used"] = list(fact.meta["shift"])
        report["retries"] = fact.meta["retries"]
    elif args.mode in RELATION_MODES:  # the witness the construction took, perhaps renamed
        report["relation_used"] = _witness_def(fact.meta["witness"], top)
    report.update(_factorization_report(fact))
    return report, fact.verified


def cmd_verify(args) -> tuple[dict, bool]:
    from .oracle import verify_factorization

    with open(args.report) as handle:
        stored = json.load(handle)
    if not isinstance(stored, dict) or stored.get("command") != "decompose":
        raise GroupDefinitionError("verify wants a decompose report")
    top = group_from_def(_field(stored, "top", dict))
    base = group_from_def(_field(stored, "base", dict))
    mode = _field(stored, "mode", str)
    if mode not in MODES:
        raise GroupDefinitionError(f"unknown mode {mode!r}")
    witness = _witness(mode, _field(stored, "relation_used", dict, None), top)
    if witness is None and mode in RELATION_MODES:
        raise GroupDefinitionError(f"{mode} mode needs a relation")
    _, claim = _mode_calls(mode, _field(stored, "inputs", dict), top, base, witness)
    wreath, target, bound, formula = claim()  # the product fixes the factors' alphabet
    factors, letters = [], 0  # one count over all factors, checked as each is read
    for text in _list_of(_field(stored, "factors", list), str, "factors"):
        factors.append(Word.parse(wreath.alphabet, text))
        letters = within_limit(letters + len(factors[-1]))
    certificate = verify_factorization(wreath, target, factors)
    if certificate.valid:  # a failing certificate is reported as it is
        count, claimed = _field(stored, "count", int), _field(stored, "bound", int)
        if count != len(factors) or count > claimed:
            raise ClaimMismatch(
                f"report claims {count} factors within bound {claimed} and lists {len(factors)}"
            )
        claimed_formula = _field(stored, "bound_formula", str)
        if (claimed, claimed_formula) != (bound, formula):
            raise ClaimMismatch(
                f"report claims bound {claimed} ({claimed_formula}),"
                f" its inputs give {bound} ({formula})"
            )
    return (
        {
            "command": "verify",
            "report": args.report,
            "mode": mode,
            "count": len(factors),
            "verified": certificate.valid,
            "certificate": certificate.to_dict(),
        },
        certificate.valid,
    )


def _bench_rows(suite: str, samples: int, rng: random.Random) -> list[dict]:
    """Factor count against bound for random decompose inputs of one mode.

    Each sample is the `inputs` block a decompose report stores, run through
    _mode_calls as decompose and verify run it.
    """
    f2 = FreeGroup(names=["y1", "y2"])
    if suite == "abelian-top":
        top, base = FreeAbelianGroup(2), f2
    elif suite == "shifted":
        top, base = FreeAbelianGroup(1, names=["x"]), presets.symmetric_3()
    else:
        top, base = presets.symmetric_3(), f2
    rows = []
    for i in range(samples):
        run, _ = _mode_calls(suite, _bench_inputs(suite, rng, top, base), top, base, None)
        fact = run()
        rows.append({
            "suite": suite,
            "sample": i,
            "count": fact.count,
            "bound": fact.bound_claimed,
            "margin": fact.bound_claimed - fact.count,
            "verified": fact.verified,
        })
    return rows


def _bench_inputs(suite: str, rng: random.Random, top: Group, base: Group) -> dict:
    """One random `inputs` block for a mode, as a decompose report stores it."""
    def pair() -> list[str]:
        return [_random_word(rng, base.alphabet, 1, 4) for _ in range(2)]

    if suite == "abelian-top":
        word = _random_word(rng, base.alphabet, 0, 8)
        return {"exps": [rng.randint(-5, 5) for _ in range(2)], "word": word}
    if suite == "finite-top":
        # over the wreath product's alphabet: the top's letters, then the base's
        return {"word": _random_word(rng, top.alphabet.extend(base.alphabet.names), 0, 30)}
    if suite == "shifted":
        pairs = [pair()]
        sites = [{"position": f"x^{rng.randint(-3, 3)}", "pairs": pairs}]
        a_top = f"x^{rng.randint(-2, 2)}"
    else:  # derived; bench takes only MODES
        sites = []
        for position in rng.sample(range(top.size), rng.randint(0, 3)):
            pairs = [pair() for _ in range(rng.randint(1, 2))]
            sites.append({"position": str(top.element_word(position)), "pairs": pairs})
        a_top = str(top.element_word(rng.randrange(top.size)))
    return {"commutators": json.dumps(sites), "a_top": a_top}


def _random_word(rng: random.Random, alphabet, min_len: int, max_len: int) -> str:
    letters = [
        (rng.randrange(len(alphabet)), rng.choice((1, -1)))
        for _ in range(rng.randint(min_len, max_len))
    ]
    return str(Word(alphabet, letters))


def cmd_bench(args) -> tuple[dict, bool]:
    import random

    suites = MODES if args.suite == "all" else [args.suite]
    rows = []
    for suite in suites:
        rows.extend(_bench_rows(suite, args.samples, random.Random(args.seed)))
    return (
        {
            "command": "bench",
            "seed": args.seed,
            "samples": args.samples,
            "rows": rows,
        },
        all(row["verified"] for row in rows),
    )


# ---------------------------------------------------------------------------
# output and wiring


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    if report["command"] == "bench":
        print(f"{'suite':<12} {'sample':>6} {'count':>5} {'bound':>5} {'margin':>6} verified")
        for row in report["rows"]:
            print(
                f"{row['suite']:<12} {row['sample']:>6} {row['count']:>5}"
                f" {row['bound']:>5} {row['margin']:>6} {row['verified']}"
            )
        return
    for key in sorted(report):
        value = report[key]
        if key == "factors":
            print("factors:")
            for factor in value:
                print(f"  {factor}")
        else:
            print(f"{key}: {json.dumps(value, sort_keys=True)}")


def _count(text: str) -> int:
    """A non-negative integer option; anything else is an input error."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="palinwidth",
        description="Palindrome factorizations in wreath products, with exact checking",
    )
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decompose", help="emit a certified palindrome factorization")
    p.add_argument("--top", required=True, help="group file, inline JSON, or preset")
    p.add_argument("--base", required=True)
    p.add_argument("--mode", choices=MODES, default="finite-top")
    p.add_argument("--word", help="input word over the combined alphabet")
    p.add_argument("--word-b", dest="word_b", help="second word for the two-commutator shape")
    p.add_argument("--exps", help="comma-separated exponents for the abelian top")
    p.add_argument("--commutators", help="JSON (or @file) commutator data")
    p.add_argument("--a-top", dest="a_top", help="top element as a word")
    p.add_argument("--relation", help="'auto' (the default) or a relation word of the top;"
                   f" only for {', '.join(RELATION_MODES)}")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pw-exact", help="exact palindromic width of a finite group")
    p.add_argument("--group", required=True)
    p.add_argument("--extend-gens", dest="extend_gens", help="name=word extra generator")
    p.set_defaults(func=cmd_pw_exact)

    p = sub.add_parser("find-relation", help="reversal-asymmetric relation search")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_find_relation)

    p = sub.add_parser("verify", help="re-check a stored decompose report")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="factor counts against claimed bounds")
    p.add_argument("--suite", choices=["all", *MODES], default="all")
    p.add_argument("--samples", type=_count, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        report, ok = args.func(args)
    except _INPUT_ERRORS + (OSError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PalinwidthError as exc:
        report, ok = {"command": args.subcommand, "failure": f"{type(exc).__name__}: {exc}"}, False
    try:
        _emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout closed before the report was written", file=sys.stderr)
        return 1
    print(f"elapsed_ms={1000 * (time.perf_counter() - started):.1f}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
