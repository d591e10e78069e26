"""Lattice loading, lattice text files and serialized formal-sum documents.

`load_lattice` is the one way the CLI and the verification suite get a
lattice: a path to a lattice file, or else a generator descriptor.

A lattice file is UTF-8 text, read as such whatever the locale's encoding;
a byte-order mark at its start is dropped.
Its grammar (blank lines and '#' comments ignored):

    elements: <label> <label> ...
    covers:
    <label> <label>      # one cover pair per line

There is exactly one 'elements:' line, and it names at least one and at
most MAX_ELEMENTS elements, each under its own label.

A formal sum over Z is written in an output ring (`algebra.Ring`): each
writer takes the ring, writes the terms that `ring.reduce` leaves and,
over the rationals, each coefficient as a string.  The JSON document
carries the ring, the source and target lattice fingerprints, and the
coefficient/value-table terms in canonical (value-table) order.

A document is byte for byte `json.dumps(formal_sum_to_document(s, ring),
indent=2, ensure_ascii=False)`, but it is written one term at a time:
`formal_sum_json_chunks` yields the header and then one finished string
per term, so a writer never holds the whole document.  Each distinct
coefficient is encoded once per document, and each line `"x": "v"` of a
table once, the first time its pair occurs, into the row of x; a term is
its table's lines read from the rows, one C-level lookup per element.
`formal_sum_to_document` stays the plain-`json` form, the oracle the
chunked writer is tested against.
"""

from __future__ import annotations

import json
import os

from .algebra import FormalSum, Ring
from .errors import ParseError
from .lattices import MAX_ELEMENTS, Lattice, generate
from .morphisms import JoinMap, alpha_of_chain, image_chain


def load_lattice(spec) -> Lattice:
    """The lattice in the file `spec` if that path exists, else `generate(spec)`."""
    if not os.path.exists(spec):
        return generate(spec)
    try:
        with open(spec, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{spec}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{spec}: not a text file") from None
    return parse_lattice_file(text)


def parse_lattice_file(text) -> Lattice:
    names = None
    covers = []
    in_covers = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if names is not None:
                raise ParseError(f"line {lineno}: second 'elements:' line")
            names = line[len("elements:"):].split()
            if not names:
                raise ParseError(f"line {lineno}: 'elements:' lists no elements")
            if len(names) > MAX_ELEMENTS:
                raise ParseError(
                    f"line {lineno}: {len(names)} elements, above the cap of {MAX_ELEMENTS}"
                )
            continue
        if line.startswith("covers:"):
            if names is None:
                raise ParseError(f"line {lineno}: covers before elements")
            in_covers = True
            rest = line[len("covers:"):].strip()
            if rest:
                raise ParseError(f"line {lineno}: cover pairs go on their own lines")
            continue
        if not in_covers:
            raise ParseError(f"line {lineno}: expected 'elements:' or 'covers:'")
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected exactly two labels")
        covers.append((parts[0], parts[1]))
    if names is None:
        raise ParseError("missing 'elements:' line")
    return Lattice.from_covers(names, covers)


def _coeff_to_json(ring: Ring, c):
    return str(c) if ring.kind == "rat" else c


def _sorted_maps(s: FormalSum, ring: Ring):
    """(JoinMap, coeff) pairs of s in `ring`, in canonical order."""
    return [(JoinMap(s.source, s.target, table), c)
            for table, c in sorted(ring.reduce(s.terms).items())]


def formal_sum_to_document(s: FormalSum, ring: Ring) -> dict:
    return {
        "ring": str(ring),
        "source": s.source.fingerprint(),
        "target": s.target.fingerprint(),
        "terms": [
            {"coeff": _coeff_to_json(ring, c), "table": jm.table_labels()}
            for jm, c in _sorted_maps(s, ring)
        ],
    }


class _Lines(dict):
    """The JSON lines of one source element's slot, by target index.

    A line is made the first time its value occurs, so a row holds only
    the pairs some term has, and is then one dict lookup per slot.
    """

    __slots__ = ("key", "values")

    def __init__(self, key, values):
        self.key = key
        self.values = values

    def __missing__(self, v):
        line = self[v] = self.key + self.values[v]
        return line


def formal_sum_json_chunks(s: FormalSum, ring: Ring):
    """The JSON document of `s` in `ring` as strings to be written in order:
    the header, one string per term in canonical order, then the closing
    brackets."""
    def encode(value):
        return json.dumps(value, ensure_ascii=False)

    head = (
        '{\n  "ring": ' + encode(str(ring))
        + ',\n  "source": ' + encode(s.source.fingerprint())
        + ',\n  "target": ' + encode(s.target.fingerprint())
        + ',\n  "terms": ['
    )
    terms = ring.reduce(s.terms)
    if not terms:
        yield head + "]\n}"
        return
    yield head
    # one row of lines per source element, the first without the comma
    # that separates it from the slot before; a lattice has at least one
    # element, so no table is the empty object
    values = [encode(name) for name in s.target.names]
    rows = [
        _Lines(",\n        " + encode(name) + ": ", values) for name in s.source.names
    ]
    rows[0].key = rows[0].key[1:]
    # dict's own lookup, which falls back to `_Lines.__missing__`
    line = dict.__getitem__
    # a document holds few distinct coefficients, each encoded once
    # into the text that opens its terms
    opening = {}
    separator = "\n    {"
    # the tables alone are sorted and each coefficient looked up as it is
    # written, so no list of (table, coefficient) pairs is built
    for table in sorted(terms):
        c = terms[table]
        text = opening.get(c)
        if text is None:
            text = opening[c] = (
                '\n      "coeff": ' + encode(_coeff_to_json(ring, c))
                + ',\n      "table": {'
            )
        yield "".join([separator, text, *map(line, rows, table), "\n      }\n    }"])
        separator = ",\n    {"
    yield "\n  ]\n}"


def formal_sum_to_json(s: FormalSum, ring: Ring) -> str:
    return "".join(formal_sum_json_chunks(s, ring))


def formal_sum_to_text(s: FormalSum, ring: Ring) -> str:
    """Human-readable signed terms of `s` in `ring`; chain retractions print
    as their chain."""
    lines = []
    for jm, c in _sorted_maps(s, ring):
        label = None
        if jm.source == jm.target:
            img = image_chain(jm)
            if (
                img is not None
                and img.members
                and img.members[0] == jm.target.bottom
                and img.members[-1] == jm.target.top
                and jm == alpha_of_chain(jm.target, img)
            ):
                label = "alpha_{" + ",".join(img.labels()) + "}"
        if label is None:
            label = "[" + ",".join(
                f"{k}->{v}" for k, v in jm.table_labels().items()
            ) + "]"
        lines.append(f"{'+' if c >= 0 else '-'} {abs(c)}*{label}")
    return "\n".join(lines) if lines else "0"
