"""Spans and counters around palinwidth's public functions, from outside.

The package source is untouched: install() rebinds each wrapped function
wherever a palinwidth module looks it up (the defining module and every
module that imported the name), and uninstall() puts the originals back.
The benchmark installs the wrappers only around the timed call of an
operation, so checking and set-up never show in the trace.

Spans live in flat arrays (name, start, end, parent, operation) until the
run ends.  A span's self time is its duration minus the durations of its
direct children; children never overlap because the program is single
threaded.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Optional

OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        self._define()

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        name_id = self._id(name)

        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, call: Callable):
        """Run one operation under a root span, with the wrappers installed."""
        self._op = len(self.span_name)
        index = self._open(self._id(OP))
        self.install()
        try:
            return call()
        finally:
            self.uninstall()
            self._close(index)
            self._op = -1

    # -- wrapping ------------------------------------------------------------

    def _function(self, module, attr: str, wrapper_of: Callable) -> None:
        """Wrap a module-level function under every name bound to it."""
        original = getattr(module, attr)
        wrapper = wrapper_of(original)
        for name, mod in list(sys.modules.items()):
            if name != "palinwidth" and not name.startswith("palinwidth."):
                continue
            for key, value in vars(mod).items():
                if value is original:
                    self._patches.append((mod, key, original, wrapper))

    def _method(self, cls, attr: str, wrapper_of: Callable) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapper_of(raw.__func__))
        else:
            wrapped = wrapper_of(raw)
        self._patches.append((cls, attr, raw, wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _define(self) -> None:
        from palinwidth import cli, commutators, decompose, groups, oracle, presets, words, wreath

        span = self.spanned

        def count_build(counts, args, result):
            counts["groups.builds"] += 1
            counts["groups.elements_built"] += args[0].size

        groups_cls = groups.FiniteGroup
        self._method(groups_cls, "__init__", lambda f: span("groups.build", f, count_build))
        self._method(groups_cls, "from_elements", lambda f: span("groups.build", f))
        self._method(groups_cls, "geodesics", lambda f: span("groups.geodesics", f))

        self._function(presets, "get", lambda f: span("presets.get", f))

        def count_letters(counts, args, result):
            counts["wreath.letters_evaluated"] += len(args[1])

        def count_multiply(counts, args, result):
            counts["wreath.multiply_calls"] += 1

        product = wreath.WreathProduct
        self._method(product, "as_finite_group", lambda f: span("wreath.materialise", f))
        self._method(product, "evaluate", lambda f: span("wreath.evaluate", f, count_letters))
        self._method(product, "multiply", lambda f: span("wreath.multiply", f, count_multiply))

        def count_states(counts, args, result):
            counts["oracle.automaton_states"] += len(result.order)

        def count_palindromes(counts, args, result):
            counts["oracle.palindromes"] += len(result.witnesses)

        def count_verify(counts, args, result):
            counts["oracle.verify_calls"] += 1

        self._function(oracle, "build_pair_automaton", lambda f: span("oracle.automaton", f, count_states))
        self._function(oracle, "palindrome_set", lambda f: span("oracle.palindrome_set", f, count_palindromes))
        self._function(oracle, "palindrome_width_bfs", lambda f: span("oracle.width_bfs", f))
        self._method(oracle.PalindromeOracle, "decompose", lambda f: span("oracle.decompose", f))
        self._function(oracle, "verify_factorization", lambda f: span("oracle.verify", f, count_verify))

        self._method(words.Word, "__init__", lambda f: self.counted("words.word_objects", f))
        self._method(words.Word, "parse", lambda f: span("words.parse", f))

        def count_pairs(counts, args, result):
            counts["commutators.pairs"] += len(result)

        self._function(commutators, "express_in_derived", lambda f: span("commutators.express", f, count_pairs))

        def count_retries(counts, args, result):
            counts["decompose.shift_retries"] += result.meta["retries"]

        def count_extensions(counts, args, result):
            if result.extra_generator is not None:
                counts["decompose.relation_extensions"] += 1

        for attr, name, after in (
            ("decompose_full_finite_top", "decompose.finite_top", None),
            ("decompose_finite_top_abelianized", "decompose.finite_top_abelianized", None),
            ("decompose_derived_wreath", "decompose.derived", None),
            ("decompose_shifted_commutators", "decompose.shifted", count_retries),
            ("decompose_commutator_abelian_top", "decompose.abelian_top", None),
            ("decompose_commutator_pair", "decompose.pair", None),
            ("decompose_abelian_element", "decompose.abelian_element", None),
            ("find_reversal_asymmetric_relation", "decompose.relation", count_extensions),
        ):
            self._function(decompose, attr, lambda f, name=name, after=after: span(name, f, after))

        self._function(cli, "main", lambda f: span("cli.main", f))

    # -- results -------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        totals = {name: 0.0 for name in self.names}
        names = self.names
        name_ids = self.span_name
        for i in range(n):
            totals[names[name_ids[i]]] += ends[i] - starts[i] - child[i]
        return totals

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: span, op, parent, name, start and end in us."""
        origin = self.span_start[0] if len(self.span_start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,op,parent,name,start_us,end_us\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i},{self.span_op[i]},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{(self.span_start[i] - origin) * 1e6:.1f},{(self.span_end[i] - origin) * 1e6:.1f}\n"
                )
