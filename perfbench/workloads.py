"""The three benchmark workloads.

Each workload is built from a seed and yields one *round*: a fixed list of
operations that a run repeats whole until its time is up.  An operation has
a timed part, which calls the program, and an untimed check, which compares
what the program returned with the independent checker.  Reference answers
are computed while the round is built, before anything is timed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Optional

import checker as ck
from palinwidth import cli, oracle, presets
from palinwidth import decompose as dec
from palinwidth.groups import FreeAbelianGroup, FreeGroup
from palinwidth.words import Alphabet, Word
from palinwidth.wreath import WreathProduct

F2_NAMES = ("y1", "y2")
F2_DEF = {"kind": "free", "rank": 2, "names": list(F2_NAMES)}
SETUP_REPEATS = 11
CPUS = sorted(os.sched_getaffinity(0))


def use_cpu(turn: int) -> None:
    """Run on the allowed processors in turn (turn = -1: on all of them).

    On a shared host the processors' speeds drift apart independently
    (by up to 1.6x at one moment on a 2-vCPU virtual machine), and a
    single-threaded run would measure whichever one the scheduler kept it
    on.  Taking turns spreads every run evenly over all of them; child
    processes inherit the choice.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS if turn < 0 else [CPUS[turn % len(CPUS)]])


@dataclass
class Outcome:
    failed: bool = False
    factors: int = 0
    letters: int = 0
    margin: int = 0  # claimed bound minus factor count
    report_bytes: int = 0


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _words_outcome(factors, extra_letters: int = 0) -> Outcome:
    return Outcome(
        factors=len(factors),
        letters=sum(len(ck.parse_word(f)) for f in factors) + extra_letters,
    )


def _to_word(alphabet: Alphabet, letters) -> Word:
    return Word(alphabet, [(alphabet.index(n), s) for n, s in letters])


def _random_letters(rng: random.Random, names, length: int) -> tuple:
    return tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(length))


def _commutator_letters(f, g) -> tuple:
    inv = lambda w: tuple((n, -s) for n, s in reversed(w))  # noqa: E731
    return inv(f) + inv(g) + f + g


def _site_letters(position, pairs) -> tuple:
    """p^-1 . [f1,g1][f2,g2]... . p, the word placing the lamp at p."""
    inner = sum((_commutator_letters(f, g) for f, g in pairs), ())
    inv_position = tuple((n, -s) for n, s in reversed(position))
    return inv_position + inner + position


def _conjugated(images, sigma) -> list:
    """sigma^-1 . p . sigma in one-line notation (1-based)."""
    inv = [0] * len(sigma)
    for i, image in enumerate(sigma):
        inv[image] = i
    return [sigma[images[inv[i]] - 1] + 1 for i in range(len(sigma))]


def _symmetric_def(rng: random.Random, n: int) -> dict:
    """S_n on a transposition and an n-cycle, points relabelled by the seed."""
    transposition = [2, 1] + list(range(3, n + 1))
    cycle = list(range(2, n + 1)) + [1]
    sigma = list(range(n))
    rng.shuffle(sigma)
    return {
        "kind": "finite",
        "generators": {"s": _conjugated(transposition, sigma), "t": _conjugated(cycle, sigma)},
    }


def _plus_c(definition: dict, value_word: str) -> dict:
    return {"base": definition, "extra_generator": {"name": "c", "value_word": value_word}}


def median_child_seconds(root: str, code: str, inside: bool) -> float:
    """Median over fresh interpreters running `code`.

    With inside=True the child times `code` itself and prints the seconds;
    otherwise the whole process is timed from here.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    samples = []
    for turn in range(SETUP_REPEATS):
        use_cpu(turn)
        if inside:
            script = (
                "import time\nt = time.perf_counter()\n" + code +
                "\nprint(time.perf_counter() - t)"
            )
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, cwd=root,
                capture_output=True, text=True, check=True,
            )
            samples.append(float(out.stdout.split()[-1]))
        else:
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=root,
                stdout=subprocess.DEVNULL, check=True,
            )
            samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# oracle-cold


class OracleCold:
    """Build a finite group from its definition, then pw-exact + find-relation.

    The round's costs form plateaus, one per group.  The mix puts the
    median inside the S4+c plateau (ranks 9-12 of 20) and the 90th
    percentile inside the lamp(2,5) plateau (ranks 17-19 of 20).
    """

    name = "oracle-cold"

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(seed)
        self.root = root

    def setup(self) -> float:
        return median_child_seconds(self.root, "import palinwidth", inside=True)

    def round(self) -> list[Op]:
        rng = self.rng
        s4 = lambda: _symmetric_def(rng, 4)  # noqa: E731
        defs = [{"preset": p} for p in ("S3", "D4", "Q8", "lamp(2,2)", "lamp(2,3)")]
        defs += [
            _plus_c({"preset": "S3"}, "s*t"),
            _plus_c({"preset": "Q8"}, "i*j"),
            s4(),
        ]
        defs += [_plus_c(s4(), "s*t") for _ in range(4)]
        defs += [{"preset": "lamp(2,4)"}, {"preset": "lamp(3,3)"}, _symmetric_def(rng, 5)]
        defs += [_plus_c({"preset": "lamp(2,4)"}, "z*y")]
        defs += [{"preset": "lamp(2,5)"}] * 3
        defs += [_plus_c(_symmetric_def(rng, 5), "s*t")]
        rng.shuffle(defs)
        references: dict = {}
        ops = []
        for definition in defs:
            key = json.dumps(definition, sort_keys=True)
            if key not in references:
                references[key] = ck.FiniteReference(*ck.model_of(definition))
            ops.append(self._op(definition, references[key]))
        return ops

    @staticmethod
    def _op(definition: dict, reference: ck.FiniteReference) -> Op:
        def run():
            group = cli.group_from_def(definition)
            report = oracle.exact_palindromic_width(group)
            factors = oracle.oracle_for(group).decompose(report.witness)
            witness_word = group.element_word(report.witness)
            relation = dec.find_reversal_asymmetric_relation(group)
            extra = None
            if relation.extra_generator is not None:
                name, value = relation.extra_generator
                extra = {"name": name, "value_word": str(group.element_word(value))}
            return group.size, report.width, witness_word, factors, relation.relation, extra

        def check(result) -> Outcome:
            size, width, witness_word, factors, relation, extra = result
            texts = [str(f) for f in factors]
            reference.check_width(size, width, str(witness_word), texts)
            reference.check_relation(str(relation), extra)
            return _words_outcome(texts, extra_letters=len(relation))

        return Op(json.dumps(definition, sort_keys=True), run, check)


# ---------------------------------------------------------------------------
# decompose-warm


class DecomposeWarm:
    """Seeded inputs to the six constructions over tops built in set-up.

    Finite-top words (relation=auto, as the CLI calls it) are two thirds of
    the round, with lengths spread evenly over 20..200 letters, so both
    reported percentiles fall inside their cost range rather than on the
    step up from the cheap constructions.
    """

    name = "decompose-warm"
    SCALE = 4  # the round holds SCALE copies of the 62-operation mix
    FINITE_TOP_OPS = 40 * SCALE
    MIN_LEN, MAX_LEN = 20, 200

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.s4_def = _symmetric_def(self.rng, 4)

    def _build(self) -> dict:
        base = FreeGroup(names=F2_NAMES)
        tops = {name: presets.get(name) for name in ("S3", "D4", "Q8", "lamp(2,3)")}
        tops["S4"] = cli.group_from_def(self.s4_def)
        finite = {}
        for name, top in tops.items():
            top.geodesics()
            witness = dec.find_reversal_asymmetric_relation(top)
            oracle.oracle_for(witness.group).width()
            witness.group.geodesics()
            finite[name] = (
                WreathProduct(top, base),
                witness,
                WreathProduct(witness.group, base),
            )
        abelian = {
            rank: WreathProduct(FreeAbelianGroup(rank), base) for rank in (1, 2)
        }
        return {"finite": finite, "abelian": abelian, "z3": FreeAbelianGroup(3)}

    def setup(self) -> float:
        samples = []
        for turn in range(SETUP_REPEATS):
            use_cpu(turn)
            started = time.perf_counter()
            self.built = self._build()
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)

    def _models(self) -> dict:
        return {
            "S3": ck.model_of({"preset": "S3"})[0],
            "D4": ck.model_of({"preset": "D4"})[0],
            "Q8": ck.model_of({"preset": "Q8"})[0],
            "lamp(2,3)": ck.model_of({"preset": "lamp(2,3)"})[0],
            "S4": ck.model_of(self.s4_def)[0],
        }

    def round(self) -> list[Op]:
        rng = self.rng
        models = self._models()
        free = ck.FreeModel(F2_NAMES)
        names = list(models)
        ops: list[Op] = []
        span = (self.MAX_LEN - self.MIN_LEN) / self.FINITE_TOP_OPS
        for i in range(self.FINITE_TOP_OPS):
            top_name = names[i % len(names)]
            wreath, _, _ = self.built["finite"][top_name]
            length = self.MIN_LEN + int(span * i + rng.random() * span)
            letters = _random_letters(rng, wreath.alphabet.names, length)
            model = ck.WreathModel(models[top_name], free)
            ops.append(self._finite_top_op(wreath, _to_word(wreath.alphabet, letters), letters, model))

        for i in range(10 * self.SCALE):
            top_name = names[i % len(names)]
            wreath, witness, wide = self.built["finite"][top_name]
            ops.append(self._derived_op(rng, wreath.top, wide, witness, models[top_name], free))

        for i in range(4 * self.SCALE):
            rank = 1 + i % 2
            ops.append(self._shifted_op(rng, self.built["abelian"][rank], free))
            ops.append(self._abelian_top_op(rng, self.built["abelian"][rank], free, pair=False))
        for _ in range(2 * self.SCALE):
            ops.append(self._abelian_top_op(rng, self.built["abelian"][2], free, pair=True))
            ops.append(self._abelian_element_op(rng, self.built["z3"]))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _fact_check(model, target) -> Callable:
        return lambda fact: _fact_outcome(model, target, fact)

    def _finite_top_op(self, wreath, word, letters, model) -> Op:
        target = model.evaluate(letters)

        def check(fact) -> Outcome:
            witness = fact.meta["witness"]
            evaluator = model
            if witness.extra_generator is not None:
                name, value = witness.extra_generator
                evaluator = model.extended(name, str(wreath.top.element_word(value)))
            return _fact_outcome(evaluator, target, fact)

        return Op("finite-top", lambda: dec.decompose_full_finite_top(wreath, word), check)

    def _derived_op(self, rng, top, wide, witness, top_model, free) -> Op:
        top_names = top.alphabet.names
        top_alphabet = wide.top.alphabet
        sites_letters = []
        seen = set()
        site_count = rng.randint(1, 3)
        while len(sites_letters) < site_count:
            position = _random_letters(rng, top_names, rng.randint(1, 4))
            key = top_model.evaluate(position)
            if key in seen:
                continue
            seen.add(key)
            pairs = tuple(
                (
                    _random_letters(rng, F2_NAMES, rng.randint(1, 6)),
                    _random_letters(rng, F2_NAMES, rng.randint(1, 6)),
                )
                for _ in range(rng.randint(1, 2))
            )
            sites_letters.append((position, pairs))
        a_top = _random_letters(rng, top_names, rng.randint(0, 4))
        base_alphabet = Alphabet(F2_NAMES)
        data = dec.CommutatorData(tuple(
            dec.CommutatorSite(
                wide.top.evaluate(_to_word(top_alphabet, position)),
                tuple((_to_word(base_alphabet, f), _to_word(base_alphabet, g)) for f, g in pairs),
            )
            for position, pairs in sites_letters
        ))
        top_value = wide.top.evaluate(_to_word(top_alphabet, a_top))
        model = ck.WreathModel(top_model, free)
        letters = a_top + sum((_site_letters(p, pairs) for p, pairs in sites_letters), ())
        target = model.evaluate(letters)
        if witness.extra_generator is not None:
            name, value = witness.extra_generator
            model = model.extended(name, str(top.element_word(value)))
        return Op(
            "derived",
            lambda: dec.decompose_derived_wreath(wide, data, top_value, witness),
            self._fact_check(model, target),
        )

    def _shifted_op(self, rng, wreath, free) -> Op:
        top_names = wreath.top.alphabet.names
        rank = len(top_names)
        positions = set()
        site_count = rng.randint(1, 3)
        while len(positions) < site_count:
            positions.add(tuple(rng.randint(-3, 3) for _ in range(rank)))
        base_alphabet = Alphabet(F2_NAMES)
        sites = []
        letters: tuple = ()
        for position in sorted(positions):
            pairs = tuple(
                (
                    _random_letters(rng, F2_NAMES, rng.randint(1, 5)),
                    _random_letters(rng, F2_NAMES, rng.randint(1, 5)),
                )
                for _ in range(rng.randint(1, 2))
            )
            sites.append(dec.CommutatorSite(
                position,
                tuple((_to_word(base_alphabet, f), _to_word(base_alphabet, g)) for f, g in pairs),
            ))
            position_letters = _vector_letters(top_names, position)
            letters += _site_letters(position_letters, pairs)
        a_top = tuple(rng.randint(-3, 3) for _ in range(rank))
        model = ck.WreathModel(ck.VectorModel(top_names), free)
        target = model.evaluate(_vector_letters(top_names, a_top) + letters)
        data = dec.CommutatorData(tuple(sites))
        return Op(
            "shifted",
            lambda: dec.decompose_shifted_commutators(wreath, data, a_top),
            self._fact_check(model, target),
        )

    def _abelian_top_op(self, rng, wreath, free, pair: bool) -> Op:
        top_names = wreath.top.alphabet.names
        rank = len(top_names)
        exponents = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(rank)]
        a = _random_letters(rng, F2_NAMES, rng.randint(1, 8))
        t = _vector_letters(top_names, exponents)
        letters = _commutator_letters(a, t)
        model = ck.WreathModel(ck.VectorModel(top_names), free)
        a_word = _to_word(wreath.alphabet, a)
        if pair:
            b = _random_letters(rng, F2_NAMES, rng.randint(1, 8))
            letters += _commutator_letters(b, _vector_letters(top_names, [2 * e for e in exponents]))
            b_word = _to_word(wreath.alphabet, b)
            run = lambda: dec.decompose_commutator_pair(wreath, a_word, b_word, exponents)  # noqa: E731
        else:
            run = lambda: dec.decompose_commutator_abelian_top(wreath, a_word, exponents)  # noqa: E731
        return Op("pair" if pair else "abelian-top", run, self._fact_check(model, model.evaluate(letters)))

    def _abelian_element_op(self, rng, group) -> Op:
        element = tuple(rng.randint(-9, 9) for _ in range(group.rank))
        model = ck.VectorModel(group.alphabet.names)
        return Op(
            "abelian-element",
            lambda: dec.decompose_abelian_element(group, element),
            self._fact_check(model, element),
        )


def _fact_outcome(model, target, fact) -> Outcome:
    texts = [str(w) for w in fact.factors]
    ck.check_factors(model.evaluate, target, texts, fact.bound_claimed)
    outcome = _words_outcome(texts)
    outcome.margin = fact.bound_claimed - fact.count
    return outcome


def _vector_letters(names, exponents) -> tuple:
    letters: tuple = ()
    for name, exponent in zip(names, exponents):
        sign = 1 if exponent > 0 else -1
        letters += ((name, sign),) * abs(exponent)
    return letters


# ---------------------------------------------------------------------------
# cli-roundtrip


class CliRoundtrip:
    """One `python -m palinwidth.cli` process per operation.

    A round runs pw-exact and find-relation on small presets, decompose in
    each mode writing a report that verify then reads back, and two
    malformed inputs that the CLI should refuse with exit code 2.

    Nearly every call costs one interpreter start, so three pw-exact calls
    on lamp(2,5) (a 160-element materialisation) form the top fifth of the
    latencies and hold the 90th percentile, which would otherwise sit on
    the start-up jitter tail.  A round has only four decompose inputs, too
    few to average out random sizes, so their letters come from one fixed
    template and the seed picks the sign of each base generator (the
    automorphism y_i -> y_i^-1, which every construction commutes with):
    the input strings change with the seed, while the work and the size of
    every certificate stay the same.  Swapping y1 and y2 would not do,
    since the finite-top construction deposits generators in index order.
    """

    name = "cli-roundtrip"
    MALFORMED = "malformed"
    TEMPLATE_SEED = 2014

    def __init__(self, seed: int, root: str, workdir: str, in_process: bool = False):
        seed_rng = random.Random(seed)
        self.base_signs = {name: seed_rng.choice((1, -1)) for name in F2_NAMES}
        self.rng = random.Random(self.TEMPLATE_SEED)
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def setup(self) -> float:
        return median_child_seconds(self.root, "import palinwidth.cli", inside=False)

    def _invoke(self, argv: list[str], stdout_path: Optional[str] = None):
        """(exit code, stdout text, stderr text) of one CLI call."""
        if self.in_process:
            return self._invoke_in_process(argv, stdout_path)
        if stdout_path is None:
            done = subprocess.run(
                [sys.executable, "-m", "palinwidth.cli", *argv],
                env=self.env, cwd=self.workdir, capture_output=True, text=True,
            )
            return done.returncode, done.stdout, done.stderr
        with open(stdout_path, "w") as out:
            done = subprocess.run(
                [sys.executable, "-m", "palinwidth.cli", *argv],
                env=self.env, cwd=self.workdir, stdout=out, stderr=subprocess.PIPE, text=True,
            )
        with open(stdout_path) as handle:
            return done.returncode, handle.read(), done.stderr

    def _invoke_in_process(self, argv, stdout_path):
        err = io.StringIO()
        out = open(stdout_path, "w") if stdout_path else io.StringIO()
        with out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # what an uncaught error does to a real process
                traceback.print_exc()
                code = 1
            text = None if stdout_path else out.getvalue()
        if stdout_path:
            with open(stdout_path) as handle:
                text = handle.read()
        return code, text, err.getvalue()

    def _letters(self, names, length: int) -> tuple:
        """Template letters over `names`, base generators signed by the seed."""
        return tuple(
            (name, sign * self.base_signs.get(name, 1))
            for name, sign in _random_letters(self.rng, names, length)
        )

    def round(self) -> list[Op]:
        rng = self.rng
        refs: dict = {}

        def reference(definition: dict) -> ck.FiniteReference:
            key = json.dumps(definition, sort_keys=True)
            if key not in refs:
                refs[key] = ck.FiniteReference(*ck.model_of(definition))
            return refs[key]

        ops = [
            self._pw_exact("S3", None, reference({"preset": "S3"})),
            self._pw_exact("D4", "r*s", reference(_plus_c({"preset": "D4"}, "r*s"))),
            self._find_relation("Q8", reference({"preset": "Q8"})),
            self._find_relation("lamp(2,3)", reference({"preset": "lamp(2,3)"})),
        ]
        ops += [self._pw_exact("lamp(2,5)", None, reference({"preset": "lamp(2,5)"}))] * 3
        free = ck.FreeModel(F2_NAMES)
        base = json.dumps(F2_DEF)

        # finite-top, relation=auto
        top = rng.choice(["S3", "D4"])
        model = ck.WreathModel(ck.model_of({"preset": top})[0], free)
        letters = self._letters(list(model.top.gens) + list(F2_NAMES), rng.randint(20, 40))
        word = ck.format_word(letters)
        ops += self._decompose_and_verify(
            "finite-top",
            ["--top", top, "--base", base, "--mode", "finite-top", "--word", word],
            model, model.evaluate(letters),
        )

        # derived, relation found by the CLI
        top_model = ck.model_of({"preset": "S3"})[0]
        model = ck.WreathModel(top_model, free)
        sites, seen = [], set()
        while len(sites) < 2:
            position = _random_letters(rng, ["s", "t"], rng.randint(1, 3))
            if top_model.evaluate(position) in seen:
                continue
            seen.add(top_model.evaluate(position))
            pair = (
                self._letters(F2_NAMES, rng.randint(1, 4)),
                self._letters(F2_NAMES, rng.randint(1, 4)),
            )
            sites.append((position, (pair,)))
        a_top = _random_letters(rng, ["s", "t"], 2)
        commutators = json.dumps([
            {"position": ck.format_word(p), "pairs": [[ck.format_word(f), ck.format_word(g)] for f, g in pairs]}
            for p, pairs in sites
        ])
        target = model.evaluate(a_top + sum((_site_letters(p, pairs) for p, pairs in sites), ()))
        ops += self._decompose_and_verify(
            "derived",
            ["--top", "S3", "--base", base, "--mode", "derived",
             "--commutators", commutators, "--a-top", ck.format_word(a_top)],
            model, target,
        )

        # shifted over Z
        model = ck.WreathModel(ck.VectorModel(["t1"]), free)
        positions = rng.sample(range(-3, 4), 2)
        sites = [
            ((("t1", 1 if p > 0 else -1),) * abs(p),
             ((self._letters(F2_NAMES, rng.randint(1, 4)),
               self._letters(F2_NAMES, rng.randint(1, 4))),))
            for p in positions
        ]
        a_exp = rng.choice((-2, -1, 1, 2))
        a_top = (("t1", 1 if a_exp > 0 else -1),) * abs(a_exp)
        commutators = json.dumps([
            {"position": ck.format_word(p), "pairs": [[ck.format_word(f), ck.format_word(g)] for f, g in pairs]}
            for p, pairs in sites
        ])
        target = model.evaluate(a_top + sum((_site_letters(p, pairs) for p, pairs in sites), ()))
        ops += self._decompose_and_verify(
            "shifted",
            ["--top", "Z", "--base", base, "--mode", "shifted",
             "--commutators", commutators, "--a-top", ck.format_word(a_top)],
            model, target,
        )

        # abelian-top, two-commutator shape over Z^2
        model = ck.WreathModel(ck.VectorModel(["t1", "t2"]), free)
        exponents = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(2)]
        a = self._letters(F2_NAMES, rng.randint(2, 6))
        b = self._letters(F2_NAMES, rng.randint(2, 6))
        letters = _commutator_letters(a, _vector_letters(["t1", "t2"], exponents))
        letters += _commutator_letters(b, _vector_letters(["t1", "t2"], [2 * e for e in exponents]))
        ops += self._decompose_and_verify(
            "abelian-top",
            ["--top", "Z^2", "--base", base, "--mode", "abelian-top",
             "--word", ck.format_word(a), "--word-b", ck.format_word(b),
             "--exps=" + ",".join(map(str, exponents))],
            model, model.evaluate(letters),
        )

        ops.append(self._malformed(["pw-exact", "--group", '{"kind":"abelian_product"}']))
        ops.append(self._malformed(
            ["decompose", "--top", "Z", "--base", base, "--mode", "shifted",
             "--commutators", '[{"pairs": [["y1", "y2"]]}]']
        ))
        for op in ops:
            op.check = _counting_report_bytes(op.check)
        return ops

    def _pw_exact(self, preset: str, value_word: Optional[str], reference) -> Op:
        argv = ["pw-exact", "--group", preset]
        if value_word is not None:
            argv += ["--extend-gens", f"c={value_word}"]

        def check(result) -> Outcome:
            report = _cli_json(result)
            order = sum(report["histogram"].values())
            factors = report["witness"]["factors"]
            reference.check_width(order, report["width"], report["witness"]["word"], factors)
            return _words_outcome(factors)

        return Op("pw-exact", lambda: self._invoke(argv), check)

    def _find_relation(self, preset: str, reference) -> Op:
        def check(result) -> Outcome:
            report = _cli_json(result)
            reference.check_relation(report["relation"], report["extra_generator"])
            return Outcome(letters=len(ck.parse_word(report["relation"])))

        return Op("find-relation", lambda: self._invoke(["find-relation", "--group", preset]), check)

    def _decompose_and_verify(self, mode: str, argv: list[str], model, target) -> list[Op]:
        path = os.path.join(self.workdir, f"{mode}.json")
        counts = {}

        def check_decompose(result) -> Outcome:
            report = _cli_json(result)
            if report["count"] != len(report["factors"]) or report["verified"] is not True:
                raise ck.CheckError(f"{mode}: inconsistent report")
            evaluator = model
            extra = (report.get("relation_used") or {}).get("extra_generator")
            if extra:
                evaluator = model.extended(extra["name"], extra["value_word"])
            ck.check_factors(evaluator.evaluate, target, report["factors"], report["bound"])
            counts["count"] = report["count"]
            outcome = _words_outcome(report["factors"])
            outcome.margin = report["bound"] - report["count"]
            return outcome

        def check_verify(result) -> Outcome:
            report = _cli_json(result)
            if report["verified"] is not True or report["count"] != counts.get("count"):
                raise ck.CheckError(f"verify of the {mode} report disagrees with it")
            return Outcome()

        return [
            Op(f"decompose-{mode}", lambda: self._invoke(["decompose", *argv], path), check_decompose),
            Op(f"verify-{mode}", lambda: self._invoke(["verify", "--report", path]), check_verify),
        ]

    def _malformed(self, argv: list[str]) -> Op:
        def check(result) -> Outcome:
            code, _, err = result
            if code == 2 and len(err.strip().splitlines()) == 1:
                return Outcome()
            if code == 1 and "Traceback" in err:
                return Outcome(failed=True)
            raise ck.CheckError(f"malformed input gave exit {code}: {err.strip()[:200]}")

        return Op(self.MALFORMED, lambda: self._invoke(argv), check)


def _counting_report_bytes(check: Callable) -> Callable:
    def counted(result) -> Outcome:
        outcome = check(result)
        outcome.report_bytes = len(result[1].encode())
        return outcome

    return counted


def _cli_json(result) -> dict:
    code, out, err = result
    if code != 0:
        raise ck.CheckError(f"exit {code}: {err.strip()[-300:]}")
    return json.loads(out)
