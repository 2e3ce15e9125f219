"""Random formula text, random JSON and random flags through every subcommand.

Whatever the input, `main()` returns one of the documented exit codes and,
under ``--format json``, prints exactly one JSON object.  The last
``--format`` given sets the format, on a usage error too.
"""
import contextlib
import io
import json

import hypothesis.strategies as st
from hypothesis import given, settings

from sapta.cli import _COMMANDS, main

EXIT_CODES = {0, 1, 2, 64}

NAMES = st.sampled_from(["a", "b", "c1", "c2", "p", "q", "p_undet", "x"])
FRAGMENTS = st.sampled_from([
    "forall", "exists", " x", " y", ".", "(", ")", "p", "q", "c1", "c2", "(x)", "(y)",
    " & ", " | ", " -> ", " <-> ", "~", "∀", "∃", "¬", "∧", "→", "↔", " ", "\n",
    "# note\n", "let f = ", "=", "$", "é", "-", "<",
])
FORMULA_TEXT = st.one_of(st.lists(FRAGMENTS, max_size=30).map("".join), st.text(max_size=30))

JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4) | NAMES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(NAMES | st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


def either(strategy):
    """The well-typed strategy or, sometimes, anything at all."""
    return st.one_of(strategy, JSON_JUNK)


VALUES = either(st.sampled_from(["T", "F", "U"]))
MODELS = either(st.fixed_dictionaries(
    {
        "domain": either(st.lists(NAMES, max_size=3)),
        "contexts": either(st.lists(
            st.fixed_dictionaries({"name": either(NAMES)},
                                  optional={"extension": either(st.lists(NAMES, max_size=3))}),
            max_size=3,
        )),
        "predicates": either(st.lists(NAMES, max_size=3)),
    },
    optional={
        "valuation": either(st.lists(st.fixed_dictionaries(
            {"context": either(NAMES), "entity": either(NAMES), "predicate": either(NAMES),
             "value": VALUES}), max_size=4)),
        "incompatible": either(st.lists(st.lists(NAMES, min_size=2, max_size=2), max_size=2)),
        "background": either(NAMES),
    },
))
JUDGMENT_SETS = either(st.lists(
    st.fixed_dictionaries({"context": either(NAMES), "predicate": either(NAMES), "value": VALUES}),
    max_size=4,
))


def json_file(values):
    """JSON text of a drawn value, or text that is not JSON at all."""
    return st.one_of(values.map(json.dumps), st.text(max_size=12))


SMALL_INTS = st.integers(-3, 50).map(str)


def value(*choices):
    """The argv words of a flag that takes one of `choices`, or an integer."""
    return st.sampled_from(choices).map(lambda v: [v]) if choices else SMALL_INTS.map(lambda v: [v])


SWITCH = st.just([])

# Each subcommand's flags, each with the words that may follow it.  Every
# flag the command-line table, cli._COMMANDS, declares must be here (--format is drawn for
# every subcommand below); test_fuzz_draws_every_flag_the_parser_declares
# checks that, so a new flag fails the suite until it is fuzzed.
FLAGS = {
    "parse": {},
    "eval": {
        "--model": st.just(["model.json"]),
        "--incompat": value("relational", "extensional", "x"),
    },
    "classify": {
        "--model": st.just(["model.json"]),
        "--judgments": st.just(["judgments.json"]),
        "--predicate": value("p", "q"),
    },
    "scenario": {
        "--seed": value(),
        "--open": SWITCH,
        "--trials": value(),
        "--perspective": value("friend", "wigner", "combined", "x"),
        "--friend-outcome": value("up", "down"),
        "--basis": value("zero_one", "plus_minus"),
        "--levels": st.text("0123456789.,-e ", max_size=10).map(lambda v: [v]),
        "--lower-cut": value("0.2", "0.8", "nan", "-1", "x"),
        "--upper-cut": value("0.2", "0.8", "nan", "-1", "x"),
        **{f"--{no}{flag}": SWITCH
           for flag in ("one-slit-observed", "one-slit-unobserved", "two-slits-unobserved")
           for no in ("", "no-")},
    },
    "corpus": {"--seed": value()},
    "exclusivity": {},
}
# Flags each invocation of a subcommand carries, so that it gets past the
# argument parser most of the time.
REQUIRED = {"eval": ["--model"], "classify": ["--model"]}


@st.composite
def command_flags(draw, command):
    """Argv words for the subcommand's required flags and up to four others."""
    table = FLAGS[command]
    required = REQUIRED.get(command, [])
    optional = [flag for flag in table if flag not in required]
    names = required + (draw(st.lists(st.sampled_from(optional), max_size=4)) if optional else [])
    return [word for name in names for word in [name, *draw(table[name])]]


# Up to two output-format flags, in either spelling, in any order with --bogus.
FORMAT_FLAGS = st.lists(
    st.sampled_from([["--format", "json"], ["--format", "text"], ["--format=json"], ["--format=text"]]),
    max_size=2,
)


@st.composite
def invocations(draw):
    """(argv, files, output format) for one subcommand, with random flags."""
    command = draw(st.sampled_from(list(FLAGS)))
    files = {}
    if command == "parse":
        files["f.lgc"] = draw(FORMULA_TEXT)
        argv = ["parse", "f.lgc"]
    elif command == "eval":
        files["f.lgc"] = draw(FORMULA_TEXT)
        files["model.json"] = draw(json_file(MODELS))
        argv = ["eval", "f.lgc"]
    elif command == "classify":
        files["model.json"] = draw(json_file(MODELS))
        files["judgments.json"] = draw(json_file(JUDGMENT_SETS))
        argv = ["classify", *draw(st.sampled_from([["judgments.json"], []]))]
    elif command == "scenario":
        argv = ["scenario", draw(st.sampled_from(["double_slit", "cat", "wigner", "epr", "qcc", "threshold"]))]
    else:
        argv = [command]
    argv += draw(command_flags(command))
    tail = draw(st.permutations(draw(FORMAT_FLAGS) + draw(st.sampled_from([[], [["--bogus"]]]))))
    argv += [part for flag in tail for part in flag]
    formats = [flag[-1].removeprefix("--format=") for flag in tail if flag != ["--bogus"]]
    output_format = formats[-1] if formats else "json"
    return argv, files, output_format


def test_fuzz_draws_every_flag_the_parser_declares():
    declared = {
        command: {"--format", *(flag for flag, *_ in flags),
                  *(f"--no-{flag[2:]}" for flag, default, *_ in flags if default is True)}
        for command, (_, _, _, flags) in _COMMANDS.items()
    }
    assert declared == {command: {*flags, "--format"} for command, flags in FLAGS.items()}


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_every_subcommand_keeps_the_cli_contract(tmp_path_factory, case):
    argv, files, output_format = case
    directory = tmp_path_factory.mktemp("fuzz")
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    argv = [str(directory / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code)
    if output_format == "text":
        assert not out.getvalue().startswith("{"), (argv, out.getvalue())
    else:
        assert isinstance(json.loads(out.getvalue()), dict), (argv, out.getvalue())
