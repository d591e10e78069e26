import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import totlat
import totlat.algebra as algebra
from totlat.algebra import FormalSum, Ring, idempotent_direct, idempotent_original
from totlat.checks import DEFAULT_CORPUS
from totlat.cli import main
from totlat.errors import NotJoinMorphism, ParseError, TotlatError, UnsupportedRing
from totlat.lattices import boolean_lattice, generate
from totlat.morphisms import alpha_of_chain, enumerate_join_endomorphisms
from totlat.serialize import (
    formal_sum_from_document,
    formal_sum_to_document,
    formal_sum_to_json,
    parse_lattice_file,
)

DATA = Path(__file__).parent / "data"

DIAMOND_FILE = """\
# a diamond
elements: 0 a b 1
covers:
0 a
0 b
a 1
b 1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- lattice files --------------------------------------------------------


def test_parse_lattice_file():
    L = parse_lattice_file(DIAMOND_FILE)
    assert L.n == 4
    assert L.names[L.bottom] == "0" and L.names[L.top] == "1"


def test_parse_lattice_file_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_lattice_file("covers:\n0 1\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_lattice_file("elements: 0 1\ncovers:\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_lattice_file("")


def test_parse_lattice_file_empty_elements():
    with pytest.raises(ParseError, match="line 2: 'elements:' lists no elements"):
        parse_lattice_file("# nothing\nelements:\ncovers:\n")


def test_parse_lattice_file_second_elements_line():
    with pytest.raises(ParseError, match="line 2: second 'elements:' line"):
        parse_lattice_file("elements: 0 1\nelements: 0\ncovers:\n0 1\n")


@pytest.mark.parametrize("spec", [
    "diamond:2000", "product:diamond:40,chain:40", "divisor:1000000000000000",
])
def test_oversized_descriptor_is_refused(capsys, spec):
    code, out, err = run_cli(capsys, "info", spec)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_oversized_lattice_file_is_refused(tmp_path, capsys):
    names = [f"e{i}" for i in range(1025)]
    path = tmp_path / "wide.lat"
    path.write_text("elements: " + " ".join(names) + "\ncovers:\n"
                    + "".join(f"{names[0]} {x}\n" for x in names[1:]))
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1: 1025 elements, above the cap of 1024\n"


# -- formal sum documents -------------------------------------------------


@pytest.mark.parametrize("ring", ["int", "mod:3", "rat"])
def test_formal_sum_roundtrip(ring):
    for spec in DEFAULT_CORPUS:
        L = generate(spec)
        e = idempotent_direct(L).map_ring(Ring.parse(ring))
        doc = json.loads(json.dumps(formal_sum_to_document(e)))
        assert formal_sum_from_document(doc, L, L) == e


def boolean_2_document(ring="int", coeff=1, table=None):
    L = boolean_lattice(2)
    doc = formal_sum_to_document(idempotent_direct(L).map_ring(Ring.parse(ring)))
    doc["terms"][0]["coeff"] = coeff
    if table is not None:
        doc["terms"][0]["table"] = table
    return L, doc


def test_formal_sum_rejects_non_join_morphism_table():
    # sends the bottom to the top
    L, doc = boolean_2_document(table={"0": "ab", "a": "ab", "b": "ab", "ab": "ab"})
    with pytest.raises(NotJoinMorphism):
        formal_sum_from_document(doc, L, L)


@pytest.mark.parametrize("ring", ["int", "mod:3"])
@pytest.mark.parametrize("coeff", [2.5, 1e23, 2.0, True, "1.5", "two", None])
def test_formal_sum_rejects_inexact_coefficient(ring, coeff):
    L, doc = boolean_2_document(ring, coeff)
    with pytest.raises(UnsupportedRing):
        formal_sum_from_document(doc, L, L)


def test_formal_sum_rejects_extra_table_label():
    L, doc = boolean_2_document()
    doc["terms"][0]["table"]["zz"] = "ab"
    with pytest.raises(ParseError, match="zz"):
        formal_sum_from_document(doc, L, L)


def test_formal_sum_reads_rational_coefficient():
    L, doc = boolean_2_document("rat", "-3/2")
    (term,) = [c for jm, c in formal_sum_from_document(doc, L, L).sorted_terms()
               if jm.table_labels() == doc["terms"][0]["table"]]
    assert term == Fraction(-3, 2)


IDENTITY_TABLE = {"0": "0", "a": "a", "b": "b", "ab": "ab"}


@pytest.mark.parametrize("doc", [
    None, [], "doc", {}, {"ring": "int"}, {"ring": 5},
    {"ring": "rat", "terms": [{"coeff": "1/0", "table": IDENTITY_TABLE}]},
    {"ring": "rat", "terms": [{"coeff": "x", "table": IDENTITY_TABLE}]},
    {"terms": 5}, {"terms": ["term"]}, {"terms": [{"coeff": 1}]},
    {"terms": [{"coeff": 1, "table": "0ab"}]},
    {"terms": [{"coeff": 1, "table": {"0": "0"}}]},
    {"terms": [{"coeff": 1, "table": {"0": "0", "a": "zz", "b": "b", "ab": "ab"}}]},
    # the number 0 is not the label "0"
    {"terms": [{"coeff": 1, "table": {"0": 0, "a": "a", "b": "b", "ab": "ab"}}]},
    # JSON floats are not exact: str() of the first is "0.1"
    {"ring": "rat", "terms": [{"coeff": 0.1000000000000000055511151231257827,
                               "table": IDENTITY_TABLE}]},
    {"ring": "rat", "terms": [{"coeff": 2.0, "table": IDENTITY_TABLE}]},
])
def test_formal_sum_malformed_document(doc):
    L = boolean_lattice(2)
    if isinstance(doc, dict):
        doc = {"ring": "int", "source": L.fingerprint(), "target": L.fingerprint(),
               **doc}
    with pytest.raises(TotlatError):
        formal_sum_from_document(doc, L, L)


def test_formal_sum_rejects_wrong_lattice():
    L = boolean_lattice(2)
    other = generate("chain:3")
    doc = formal_sum_to_document(idempotent_direct(L))
    with pytest.raises(ParseError):
        formal_sum_from_document(doc, other, other)


def test_formal_sum_document_sorted_and_nonzero():
    L = generate("divisor:12")
    doc = formal_sum_to_document(idempotent_direct(L))
    tables = [tuple(sorted(t["table"].items())) for t in doc["terms"]]
    assert all(t["coeff"] != 0 for t in doc["terms"])
    assert len(tables) == len(set(tables))


# A pentagon whose labels need JSON escaping, are not ASCII or hold a
# %-format directive.
ESCAPED_LABELS_FILE = """\
elements: %s "x" a\\b é ☃
covers:
%s "x"
%s a\\b
a\\b é
"x" ☃
é ☃
"""


def indent_json(s):
    """The oracle for the chunked writer: the standard library's indent encoder."""
    return json.dumps(formal_sum_to_document(s), indent=2, ensure_ascii=False)


@pytest.mark.parametrize("construction", [idempotent_direct, idempotent_original])
@pytest.mark.parametrize("ring", ["int", "mod:3", "rat"])
@pytest.mark.parametrize("spec", DEFAULT_CORPUS)
def test_formal_sum_to_json_matches_indent_encoder(spec, ring, construction):
    e = construction(generate(spec)).map_ring(Ring.parse(ring))
    assert formal_sum_to_json(e) == indent_json(e)


@pytest.mark.parametrize("ring", ["int", "mod:3", "rat"])
def test_formal_sum_to_json_zero_sum(ring):
    L = generate("pentagon")
    zero = FormalSum(Ring.parse(ring), L, L)
    assert formal_sum_to_json(zero) == indent_json(zero)
    assert json.loads(formal_sum_to_json(zero))["terms"] == []


@pytest.mark.parametrize("ring", ["int", "rat"])
def test_formal_sum_to_json_coefficient_above_64_bits(ring):
    e = idempotent_direct(generate("boolean:2")).map_ring(Ring.parse(ring)).scale(2**70 + 3)
    text = formal_sum_to_json(e)
    assert text == indent_json(e)
    assert str(2**70 + 3) in text


# tuple tables past 256 elements, and the lattices of the `construct`
# benchmark workload
@pytest.mark.parametrize("ring", ["int", "mod:3", "rat"])
@pytest.mark.parametrize(
    "spec", ["diamond:255", "boolean:6", "partition:5", "product:boolean:3,chain:3"]
)
def test_formal_sum_to_json_matches_indent_encoder_at_scale(spec, ring):
    e = idempotent_direct(generate(spec)).map_ring(Ring.parse(ring))
    assert formal_sum_to_json(e) == indent_json(e)


def signed_multiples(L, tables, ring):
    """The sum over `ring` of (-1)^k (k + 1) times the k-th table, the first
    added a second time with the opposite sign, so that it cancels, and the
    last times 2^70 + 3; over rat, times 2/3."""
    coeffs = [(-1) ** k * (k + 1) for k in range(len(tables))]
    coeffs[-1] *= 2**70 + 3
    pairs = list(zip(tables, coeffs)) + [(tables[0], -coeffs[0])]
    s = FormalSum(Ring.parse("int"), L, L, pairs).map_ring(Ring.parse(ring))
    return s.scale(Fraction(2, 3)) if ring == "rat" else s


@pytest.mark.parametrize("ring", ["int", "mod:3", "rat"])
def test_formal_sum_to_json_of_signed_join_endomorphisms(ring):
    L = generate("boolean:3")
    tables = list(enumerate_join_endomorphisms(L))[::7]
    s = signed_multiples(L, tables, ring)
    assert tables[0] not in s.terms
    text = formal_sum_to_json(s)
    assert text == indent_json(s)
    assert formal_sum_from_document(json.loads(text), L, L) == s


@pytest.mark.parametrize("ring", ["int", "mod:3", "rat"])
def test_formal_sum_to_json_of_retractions_past_one_byte(ring):
    L = generate("chain:300")
    chains = [(0, 300), (0, 150, 300), tuple(range(301)), (0, 1, 299, 300), (0, 7, 300)]
    tables = [alpha_of_chain(L, members).values for members in chains]
    assert all(type(table) is tuple for table in tables)
    s = signed_multiples(L, tables, ring)
    assert formal_sum_to_json(s) == indent_json(s)


def test_formal_sum_to_json_escapes_labels(tmp_path, capsys):
    L = parse_lattice_file(ESCAPED_LABELS_FILE)
    assert set(L.names) == {"%s", '"x"', "a\\b", "é", "☃"}
    for ring in ("int", "rat"):
        e = idempotent_direct(L).map_ring(Ring.parse(ring))
        text = formal_sum_to_json(e)
        assert text == indent_json(e)
        for encoded in ('"\\"x\\"": ', '"a\\\\b": ', '"%s": ', '"☃"'):
            assert encoded in text
        assert formal_sum_from_document(json.loads(text), L, L) == e
    path = tmp_path / "escaped.lat"
    path.write_text(ESCAPED_LABELS_FILE, encoding="utf-8")
    code, out, _ = run_cli(capsys, "idempotent", str(path), "--format", "json")
    assert code == 0 and out == indent_json(idempotent_direct(L)) + "\n"


# -- subcommands ----------------------------------------------------------


def test_cmd_info(capsys):
    code, out, _ = run_cli(capsys, "info", "boolean:2")
    assert code == 0
    assert "elements: 4" in out
    assert "max chain length: 2" in out
    assert "[0, 1, 2]" in out  # bottom-to-top chain counts by length


def test_cmd_info_chain(capsys):
    code, out, _ = run_cli(capsys, "info", "chain:3")
    assert code == 0
    assert "elements: 4" in out and "max chain length: 3" in out


def test_cmd_info_file(tmp_path, capsys):
    path = tmp_path / "diamond.lat"
    path.write_text(DIAMOND_FILE)
    code, out, _ = run_cli(capsys, "info", str(path))
    assert code == 0 and "elements: 4" in out


def test_cmd_info_file_with_byte_order_mark(tmp_path, capsys):
    # editors that save UTF-8 with a byte-order mark put U+FEFF first
    plain, marked = tmp_path / "plain.lat", tmp_path / "marked.lat"
    text = "elements: 0 1\ncovers:\n0 1\n"
    plain.write_bytes(text.encode())
    marked.write_bytes(text.encode("utf-8-sig"))
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    expected = run_cli(capsys, "info", str(plain))
    assert expected[0] == 0
    assert run_cli(capsys, "info", str(marked)) == expected


def test_cmd_info_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.lat"
    path.write_text("elements: 0 1\ncovers:\n0 1 extra\n")
    code, _, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert "line 3" in err


def test_cmd_info_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.lat"
    path.write_text("elements:\n")
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == "error: line 1: 'elements:' lists no elements\n"


def test_cmd_info_duplicate_label(tmp_path, capsys):
    path = tmp_path / "dup.lat"
    path.write_text("elements: a a b\ncovers:\na b\n")
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == "error: duplicate label 'a'\n"


def test_cmd_idempotent_text(capsys):
    code, out, _ = run_cli(capsys, "idempotent", "boolean:2")
    assert code == 0
    assert "alpha_{0,ab}" in out and "alpha_{0,a,ab}" in out


def test_cmd_idempotent_chain_is_identity(capsys):
    code, out, _ = run_cli(capsys, "idempotent", "chain:4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1 and "alpha_{0,1,2,3,4}" in lines[0]


def test_cmd_idempotent_methods_agree_bytewise(capsys):
    _, direct, _ = run_cli(capsys, "idempotent", "pentagon", "--format", "json")
    _, original, _ = run_cli(
        capsys, "idempotent", "pentagon", "--method", "original", "--format", "json"
    )
    assert direct == original


def test_cmd_idempotent_mod_ring(capsys):
    code, out, _ = run_cli(
        capsys, "idempotent", "boolean:2", "--ring", "mod:2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"] == "mod:2"
    assert all(t["coeff"] in (0, 1) for t in doc["terms"])


def test_cmd_idempotent_bad_ring(capsys):
    code, _, err = run_cli(capsys, "idempotent", "boolean:2", "--ring", "float")
    assert code == 2 and "error" in err


def test_cmd_mobius_pair(capsys):
    code, out, _ = run_cli(capsys, "mobius", "boolean:2", "0", "ab")
    assert code == 0 and out.strip() == "1"


def test_cmd_mobius_same_element(capsys):
    code, out, _ = run_cli(capsys, "mobius", "boolean:2", "a", "a")
    assert code == 0 and out.strip() == "1"


def test_cmd_mobius_chain(capsys):
    code, out, _ = run_cli(capsys, "mobius", "boolean:2", "--chain", "0,a")
    assert code == 0
    assert "= 0" in out and "oracle = 0" in out


@pytest.mark.parametrize("pair", [("0", "ab"), ("0",)])
def test_cmd_mobius_elements_with_chain_is_an_error(capsys, pair):
    code, out, err = run_cli(capsys, "mobius", "boolean:2", *pair, "--chain", "0,a")
    assert code == 2 and out == "" and err.startswith("error: ") and "--chain" in err


def test_cmd_mobius_unknown_label(capsys):
    code, _, err = run_cli(capsys, "mobius", "boolean:2", "0", "zz")
    assert code == 2


def test_chain_poset_limit_reaches_mobius_and_verify(capsys, monkeypatch):
    monkeypatch.setattr(algebra, "CHAIN_POSET_LIMIT", 0)
    code, out, err = run_cli(capsys, "mobius", "boolean:2", "--chain", "0")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "oracle = (skipped: chain poset above the size limit)"
    code, out, err = run_cli(capsys, "verify", "boolean:2", "--checks", "mobius_lemmas",
                             "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out)["note"] == "some chains skipped by the chain-poset size limit"


def test_default_chain_poset_limit_skips_large_oracle():
    # the 9,365 chains above the bottom of boolean:6 exceed the default limit
    proc = cli_process("mobius", "boolean:6", "--chain", "0")
    try:
        out, err = proc.communicate(timeout=20)
    finally:
        proc.kill()
    assert proc.returncode == 0 and err == b""
    assert out.splitlines() == [
        b"mu(chain, infinity) = 0",
        b"oracle = (skipped: chain poset above the size limit)",
    ]


def test_cmd_mobius_empty_chain_is_an_unknown_label(capsys):
    # an empty --chain is given, so it is read as the label '', not as omitted
    code, out, err = run_cli(capsys, "mobius", "pentagon", "--chain", "")
    assert code == 2 and out == ""
    assert err == "error: no element labeled ''\n"


def test_cmd_mobius_chain_not_increasing(capsys):
    code, out, err = run_cli(capsys, "mobius", "pentagon", "--chain", "0,b,a")
    assert code == 2 and out == ""
    assert err == "error: members not strictly increasing at (b, a)\n"


def src_env():
    """This environment, with the tested totlat first on PYTHONPATH."""
    src = str(Path(totlat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def cli_process(*argv):
    """Start `python -m totlat.cli argv` with buffered, piped stdout and stderr."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen(
        [sys.executable, "-m", "totlat.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def test_cli_calls_load_neither_openssl_nor_inspect():
    # a fresh interpreter: this one has loaded hashlib and inspect already
    script = Path(__file__).with_name("lean_cli_imports.py")
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(
        "4 calls over int loaded none of hashlib, _hashlib, inspect, dataclasses, "
        "array, fractions, decimal, 1 over rat none of hashlib, _hashlib, inspect, "
        "dataclasses, array;")


def assert_ends_quietly_on_closed_stdout(*argv):
    proc = cli_process(*argv)
    proc.stdout.close()  # the reader goes away before any output arrives
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_closed_stdout_ends_quietly():
    assert_ends_quietly_on_closed_stdout("verify", "boolean:2", "--format", "json")


def test_closed_stdout_mid_document_ends_quietly():
    # the boolean:6 document is megabytes long, so the pipe breaks while its
    # terms are being written
    assert_ends_quietly_on_closed_stdout("idempotent", "boolean:6", "--format", "json")


def test_help_on_closed_stdout_ends_quietly():
    # argparse prints the help and exits before any subcommand runs
    assert_ends_quietly_on_closed_stdout("verify", "--help")


def test_help_exits_zero():
    proc = cli_process("--help")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == b""
    assert out.startswith(b"usage: totlat")


def test_usage_error_exits_two():
    for argv in (("verify", "--no-such-option"), ("idempotent", "pentagon", "--crapo")):
        proc = cli_process(*argv)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 2 and out == b""
        assert f"unrecognized arguments: {argv[-1]}".encode() in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sample_count_below_one_is_a_usage_error(count):
    proc = cli_process("verify", "partition:4", "--checks", "central",
                       "--sample-count", count)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2 and out == b""
    assert err.startswith(b"usage: totlat verify")
    assert f"argument --sample-count: must be at least 1, not {count}".encode() in err


@pytest.mark.parametrize("option, value", [
    ("--seed", "\u0663"),  # ARABIC-INDIC DIGIT THREE
    ("--seed", "1_0"),
    ("--sample-count", "+5"),
])
def test_integer_options_take_ascii_digits_only(option, value):
    proc = cli_process("verify", "partition:4", "--checks", "central", option, value)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2 and out == b""
    assert err.startswith(b"usage: totlat verify")
    assert f"argument {option}: must be an integer, not {value!r}".encode() in err


def test_negative_seed_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "verify", "partition:4", "--checks", "central",
                           "--seed", "-3", "--sample-count", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == -3


def test_cmd_verify_single_lattice(capsys):
    code, out, _ = run_cli(capsys, "verify", "boolean:2", "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines() if line]
    assert all(r["status"] in ("pass", "skipped") for r in reports)


def test_cmd_verify_file_matches_descriptor(tmp_path, capsys):
    path = tmp_path / "diamond3.lat"
    path.write_text(
        "elements: 0 m1 m2 m3 1\ncovers:\n"
        "0 m1\n0 m2\n0 m3\nm1 1\nm2 1\nm3 1\n"
    )
    code, from_file, _ = run_cli(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    _, generated, _ = run_cli(capsys, "verify", "diamond:3", "--format", "json")
    file_reports = [json.loads(line) for line in from_file.splitlines()]
    generated_reports = [json.loads(line) for line in generated.splitlines()]
    assert len(file_reports) == len(generated_reports) == 12
    for f, g in zip(file_reports, generated_reports):
        assert f.pop("lattice") == str(path) and g.pop("lattice") == "diamond:3"
        assert f == g


@pytest.mark.parametrize("command", ["info", "verify"])
def test_unreadable_lattice_file(tmp_path, capsys, command):
    binary = tmp_path / "binary.lat"
    binary.write_bytes(b"elements: \xff\xfe\n")
    code, out, err = run_cli(capsys, command, str(binary))
    assert code == 2 and out == ""
    assert err == f"error: {binary}: not a text file\n"
    code, out, err = run_cli(capsys, command, str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err


def test_utf8_lattice_file_under_c_locale(tmp_path):
    # the file is read, and its labels written back, in UTF-8 even when the
    # locale's encoding is ASCII
    path = tmp_path / "chain.lat"
    src = str(Path(totlat.__file__).resolve().parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "totlat.cli", *argv],
                              capture_output=True, env=env, timeout=120)

    path.write_bytes("elements: 0 \u00e9 1\ncovers:\n0 \u00e9\n\u00e9 1\n".encode("utf-8"))
    proc = run("idempotent", str(path))
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == "+ 1*alpha_{0,\u00e9,1}\n".encode("utf-8")
    proc = run("idempotent", str(path), "--format", "json")
    assert proc.returncode == 0 and proc.stderr == b""
    assert '"\u00e9": "\u00e9"'.encode("utf-8") in proc.stdout
    path.write_bytes("elements: 0 \u00e9 \u00e9\n".encode("utf-8"))
    proc = run("info", str(path))
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == "error: duplicate label '\u00e9'\n".encode("utf-8")


def test_cmd_verify_corpus_option_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--corpus", "default"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --corpus" in capsys.readouterr().err


def test_cmd_verify_selected_checks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "pentagon", "--checks", "idempotent,central"
    )
    assert code == 0
    assert out.count("idempotent") == 1 and out.count("central") == 1


def test_cmd_verify_unknown_check(capsys):
    code, out, err = run_cli(capsys, "verify", "pentagon", "--checks", "bogus")
    assert code == 2 and out == ""
    assert err == (
        "error: unknown checks: bogus\n"
        "available: central, crapo, decomposition, dimension, f_family, "
        "formula_equivalence, ideal_closure, idempotent, identity_on_tot, "
        "mobius_lemmas, opposite_involution, ring_functoriality\n"
    )


def test_cmd_verify_empty_input_is_an_error(capsys):
    # an empty INPUT names no lattice; it does not mean the default corpus
    code, out, err = run_cli(capsys, "verify", "", "--format", "json")
    assert code == 2 and out == ""
    assert err == "error: unknown generator ''\n"


def test_cmd_verify_empty_checks_is_an_error(capsys):
    # an empty --checks names no check; it does not mean every check
    code, out, err = run_cli(capsys, "verify", "boolean:2", "--checks", "")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown checks: ''\navailable: central, ")
    # an empty entry between commas is named too, beside the other bad names
    code, out, err = run_cli(capsys, "verify", "boolean:2",
                             "--checks", "idempotent,,bogus,central")
    assert code == 2 and out == ""
    assert err.startswith("error: unknown checks: '', bogus\navailable: central, ")


def test_cmd_verify_sampled_seed_recorded(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "partition:4", "--checks", "central",
        "--seed", "7", "--sample-count", "25", "--format", "json",
    )
    assert code == 0
    (report,) = [json.loads(line) for line in out.splitlines() if line]
    assert report["seed"] == 7 and report["counts"]["mode"] == "sampled"


def test_cmd_verify_deterministic_json(capsys):
    args = ("verify", "boolean:2", "--seed", "3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("golden, argv", [
    ("verify_default.jsonl", ()),
    ("verify_partition4_seed1.jsonl", ("partition:4", "--seed", "1")),
    ("verify_divisor60_seed1.jsonl", ("divisor:60", "--seed", "1")),
    ("verify_divisor60_rat.jsonl", ("divisor:60", "--ring", "rat")),
    ("verify_divisor60_mod2.jsonl", ("divisor:60", "--ring", "mod:2")),
    ("verify_diamond5.jsonl", ("diamond:5",)),
])
def test_cmd_verify_matches_golden_reports(capsys, golden, argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert out == (DATA / golden).read_text(encoding="utf-8")
