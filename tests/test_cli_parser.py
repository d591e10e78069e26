"""The fast parser of well-formed calls against argparse, its reference.

`parse_fast` must give either None or exactly the namespace argparse
builds from the same grammar, and None wherever argparse exits.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from totlat.cli import GRAMMAR, build_parser, parse_fast

COMMANDS = tuple(GRAMMAR)
FLAGS = tuple(sorted({flag for *_, options in GRAMMAR.values() for flag in options}))
CHOICES = tuple(sorted({value for *_, options in GRAMMAR.values()
                        for spec in options.values() for value in spec.get("choices", ())}))
VALUES = ("pentagon", "boolean:2", "0", "a", "1", "7", "500", "int", "rat", "mod:2",
          "idempotent,central", "0,a")
HOSTILE = ("-h", "--help", "--", "--format=json", "--form", "-3", "", "1_0", "٣")
TOKENS = COMMANDS + FLAGS + CHOICES + VALUES + HOSTILE

# the argv shapes of the benchmark's calls, each of which must be parsed
# without argparse
BENCHMARK_SHAPES = (
    ("verify", "--format", "json"),
    ("verify", "divisor:60", "--checks",
     "idempotent,identity_on_tot,central,formula_equivalence,f_family,mobius_lemmas,"
     "crapo,dimension,decomposition,ideal_closure,ring_functoriality",
     "--format", "json", "--seed", "3"),
    ("idempotent", "boolean:6", "--format", "json"),
    ("info", "partition:5"),
    ("idempotent", "divisor:240", "--method", "original", "--ring", "rat", "--format", "json"),
)


def argparse_result(argv):
    """vars() of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def assert_agrees(argv):
    fast = parse_fast(argv)
    expected = argparse_result(argv)
    if expected is None:
        assert fast is None, argv
    elif fast is not None:
        assert fast == expected, argv
    return fast


@st.composite
def calls(draw):
    """A call of the fast parser's shape, with perhaps one token put in anywhere.

    Options may repeat, and the token put in may be a positional after an
    option or any hostile token.
    """
    command = draw(st.sampled_from(COMMANDS))
    _, _, positionals, options = GRAMMAR[command]
    argv = [command, *draw(st.lists(st.sampled_from(VALUES), max_size=len(positionals) + 1))]
    for flag in draw(st.lists(st.sampled_from(tuple(options) or FLAGS), max_size=4)):
        values = options[flag].get("choices", ()) if flag in options else ()
        argv += [flag, draw(st.sampled_from(values + VALUES + HOSTILE))]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(TOKENS)))
    return argv


@given(calls())
@settings(max_examples=400, deadline=None)
@example(["verify", "", "--checks", ""])
def test_fast_parser_agrees_with_argparse_on_calls(argv):
    assert_agrees(argv)


@given(st.lists(st.sampled_from(TOKENS), max_size=8))
@settings(max_examples=400, deadline=None)
def test_fast_parser_agrees_with_argparse_on_any_tokens(argv):
    assert_agrees(argv)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["verify", "-h"], ["verify", "--help"], ["info"],
    ["info", "a", "b"], ["verify", "--format=json"], ["verify", "--form", "json"],
    ["verify", "--", "pentagon"], ["verify", "--seed", "-3"], ["info", "-3"],
    ["verify", "--format", "json", "pentagon"], ["verify", "--format"],
    ["idempotent", "pentagon", "--method", "fast"],
    ["verify", "--sample-count", "1_0"], ["verify", "--sample-count", "0"],
    ["verify", "--seed", "٣"], ["mobius", "pentagon", "--chain", "0,a", "a"],
])
def test_fast_parser_leaves_to_argparse(argv):
    assert parse_fast(argv) is None
    assert_agrees(argv)


@pytest.mark.parametrize("argv", BENCHMARK_SHAPES, ids=" ".join)
def test_benchmark_calls_take_the_fast_path(argv):
    assert assert_agrees(list(argv)) is not None


def test_repeated_option_keeps_its_last_value():
    argv = ["verify", "--seed", "1", "--format", "json", "--seed", "2"]
    assert assert_agrees(argv) == {
        "command": "verify", "input": None, "checks": None, "ring": "int",
        "seed": 2, "sample_count": 500, "format": "json",
    }
