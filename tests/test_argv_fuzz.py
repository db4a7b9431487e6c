"""Property test: the options cli._read_options reads are argparse's.

Argv words are drawn for each subcommand from its own and the other
subcommands' flags, their unique prefixes, "--flag=value", "-h", "--",
values such as "-1e-5", "nan", "" and "abc", and a spec path.  Whenever
``_read_options`` reads the words, ``cli.build_parser``'s parser, built
from the same ``cli.OPTIONS``, must read them without error and to the
same options.  Any other call goes to that parser itself, so ``main``
reads every argv as argparse alone would.
"""

import contextlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobcdv import cli

SPEC = "spec.json"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
FLAGS = sorted({flag for options, _, _ in cli.OPTIONS.values() for flag in options})


def _unique_prefixes(flags):
    """The prefixes of each flag, longer than "--", that name no other."""
    return [flag[:n] for flag in flags for n in range(3, len(flag))
            if [f for f in flags if f.startswith(flag[:n])] == [flag]]


# Values that every flag's type converts, and values that some do not.
NUMBERS = st.sampled_from(("1", "3", "0"))
VALUES = st.sampled_from(("2.5", "1e-8", "-1e-5", "-1", "nan", "inf", "", "abc",
                          "0.1,0.2;0.3,0.4", SPEC, "-h", "--seed"))
WORDS = st.one_of(
    st.sampled_from(FLAGS + _unique_prefixes(FLAGS) + ["-h", "--help", "--", "--spec=" + SPEC,
                                                       "--points=1", "--seed=2"]),
    VALUES,
)


@st.composite
def calls(draw):
    """A subcommand and its words: "--flag value" pairs of its own flags,
    mostly with the spec path; half the calls plain, with values every
    type converts, the other half with any value and other words among
    the pairs."""
    name = draw(st.sampled_from(list(cli.OPTIONS)))
    plain = draw(st.booleans())
    values = NUMBERS if plain else st.one_of(NUMBERS, VALUES)
    pairs = draw(st.lists(st.tuples(st.sampled_from(list(cli.OPTIONS[name][0])), values),
                          max_size=4))
    if draw(st.integers(0, 3)):
        pairs.insert(draw(st.integers(0, len(pairs))), ("--spec", SPEC))
    words = [word for pair in pairs for word in pair]
    for word in [] if plain else draw(st.lists(WORDS, max_size=2)):
        words.insert(draw(st.integers(0, len(words))), word)
    return name, words


def _reprs(args):
    """The options as the reprs of their values, so that nan equals nan."""
    return {dest: repr(value) for dest, value in vars(args).items()}


def _argparse_reads(name, words):
    """The options cli.build_parser's parser reads off subcommand name's words."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            return cli.build_parser().parse_args([name, *words])
        except SystemExit:
            raise AssertionError(f"argparse refuses {words}: {err.getvalue()}") from None


@settings(max_examples=600, deadline=None, derandomize=True)
@given(call=calls())
# argparse converts every value of a repeated flag, not the last alone.
@example(call=("tt2d", ["--spec", SPEC, "--tol", "abc", "--tol", "1e-8"]))
@example(call=("catalog", ["--out-dir", "", "--name", "p1"]))
def test_read_options_equals_argparse(call):
    name, words = call
    ours = cli._read_options(name, words)
    if ours is not None:
        assert _reprs(ours) == _reprs(_argparse_reads(name, words))


# Each id is the name the case has had in earlier runs of the suite, kept fixed.
@pytest.mark.parametrize("name, words", [
    pytest.param("cdv", ["--spec", SPEC, "--seed", "7", "--report", "r.json"], id="cdv-words5"),
    pytest.param("catalog", ["--name", "p1", "--out-dir", "."], id="catalog-words6"),
])
def test_read_options_reads_a_plain_call(name, words):
    # A plain call of each subcommand the benchmark does not run;
    # test_read_options_reads_every_benchmark_call covers the others.
    ours = cli._read_options(name, words)
    assert ours is not None
    assert _reprs(ours) == _reprs(_argparse_reads(name, words))


def _load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_read_options_reads_every_benchmark_call(tmp_path, monkeypatch):
    # Every call of one rotation of each workload, as bench/workloads.py
    # builds it (loaded from its file, writing nothing under bench/), is
    # read off cli.OPTIONS, to argparse's options: the benchmark builds no
    # argparse parser.
    workloads = _load_workloads(monkeypatch)
    argvs = []
    for workload in workloads.WORKLOADS:
        for i in range(workloads.cycle_length(workload)):
            groups, _ = workloads.make_op(workload, i, random.Random(0), tmp_path,
                                          lambda name, k: 1.0)
            argvs += [call.argv for calls in groups for call in calls]
    assert len(argvs) == 13
    for argv in argvs:
        ours = cli._read_options(argv[0], argv[1:])
        assert ours is not None, argv
        assert _reprs(ours) == _reprs(_argparse_reads(argv[0], argv[1:])), argv
