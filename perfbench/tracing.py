"""Spans and counters around calls into totlat's layers.

`install` wraps public functions and methods of totlat's modules from the
outside; nothing inside the program is changed.  Every module attribute that
is bound to a wrapped function (including names brought in with
`from .x import f`) is rebound to the wrapper.

A span records its name, start, end and parent span, in CPU seconds of this
process; all spans of one CLI call share the tracer's call identifier.  Spans
stay in memory until `Tracer.write`.  Functions called millions of times
(`compose`) or only to be counted (`opposite_morphism`) get counters, not
spans.

`enumerate_join_endomorphisms` is a generator whose work interleaves with its
consumer's; the traced run drains it into a list inside its span, so the
span holds exactly the enumeration work.  Candidates tried are counted as
calls of the enumerator's assignment-extension step (`_extend_assignment`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

clock = time.process_time


class Tracer:
    def __init__(self, call_id):
        self.call_id = call_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def span(self, name, fn, after=None):
        """Wrap fn in a span; `after(result, args)` may add counts."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), None, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self.stack.pop()
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def counter(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def write(self, path):
        doc = {
            "call": self.call_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _rebind(original, wrapper):
    """Point every totlat module attribute bound to `original` at `wrapper`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "totlat" or name.startswith("totlat.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap totlat's layer entry points with spans and counters."""
    from totlat import algebra, checks, lattices, morphisms, posets, serialize

    t, counts = tracer, tracer.counts

    def add_chains(result, args):
        counts["lattices.chain_family.chains"] += len(result)

    def add_term_pairs(result, args):
        if result is not NotImplemented:
            counts["algebra.mul.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def add_bytes(result, args):
        counts["serialize.to_json.bytes_out"] += len(result.encode("utf-8"))

    def add_raw_family_terms(result, args):
        if t.current() == "algebra.idempotent_original":
            counts["algebra.family_terms_raw"] += len(result.terms)

    def add_terms_out(result, args):
        counts["algebra.terms_out"] += len(result.terms)

    extend = morphisms._extend_assignment
    _rebind(extend, t.counter("morphisms.extend_assignment", extend))
    enumerate_endos = morphisms.enumerate_join_endomorphisms

    def drained(L, *args, **kwargs):
        before = counts["morphisms.extend_assignment"]
        maps = list(enumerate_endos(L, *args, **kwargs))
        counts["morphisms.enumerate.yielded"] += len(maps)
        counts["morphisms.enumerate.candidates"] += counts["morphisms.extend_assignment"] - before
        return maps

    def list_iterator(L, *args, **kwargs):
        return iter(traced_enumerate(L, *args, **kwargs))

    traced_enumerate = t.span("morphisms.enumerate", drained)
    _rebind(enumerate_endos, functools.wraps(enumerate_endos)(list_iterator))

    _rebind(lattices.generate, t.span("lattices.generate", lattices.generate))
    _rebind(algebra.idempotent_direct,
            t.span("algebra.idempotent_direct", algebra.idempotent_direct))
    _rebind(algebra.idempotent_original,
            t.span("algebra.idempotent_original", algebra.idempotent_original,
                   after=add_terms_out))
    _rebind(algebra.f_of_chain,
            t.counter("algebra.f_of_chain", algebra.f_of_chain, after=add_raw_family_terms))
    _rebind(morphisms.compose, t.counter("morphisms.compose.calls", morphisms.compose))
    _rebind(morphisms.opposite_morphism,
            t.counter("morphisms.opposite_morphism.calls", morphisms.opposite_morphism))
    _rebind(serialize.formal_sum_to_json,
            t.span("serialize.to_json", serialize.formal_sum_to_json, after=add_bytes))

    posets.Poset.chains = t.span("posets.chains", posets.Poset.chains)
    lattices.Lattice.chain_family = t.span(
        "lattices.chain_family", lattices.Lattice.chain_family, after=add_chains)
    lattices.Lattice.opposite = t.span("lattices.opposite", lattices.Lattice.opposite)
    algebra.FormalSum.__mul__ = t.span(
        "algebra.mul", algebra.FormalSum.__mul__, after=add_term_pairs)
    algebra.FormalSum.__add__ = t.span("algebra.add", algebra.FormalSum.__add__)

    for name, run_check in list(checks.CHECKS.items()):
        checks.CHECKS[name] = t.span(f"checks.{name}", run_check)


def summarize(spans):
    """Per span name: calls, inclusive time and self time.

    Inclusive time counts only spans with no ancestor of the same name, so a
    recursive layer is not counted twice.  Self time is a span's duration
    minus the time its direct children cover.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "cpu_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["cpu_s"] += end - start
    return out
