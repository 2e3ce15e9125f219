"""`cli._parse_args` against the argparse parser it replaced.

`reference_parser()` is the argparse definition of the command line as the
CLI had it, kept here as the oracle.  Random command lines drawn from the
fuzzer's flag table, with junk words mixed in, must give both parsers the
same namespace, both the help, or both a usage error, except on the lines
`argparse_leaves_words_over` describes, which argparse rejects by accident.
The divergences were listed from runs on Python 3.10.13, 3.11.7, 3.12.1
and 3.13.0.  Words the test does not draw are read differently too:
argparse takes `-hh` as `-h -h` and a word with a space (`'-a b'`) as a
value, where sapta takes both as unknown flags, and sapta takes `-1_0`,
which float() reads, as a value, where argparse takes it as a flag.
"""
import argparse
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from sapta import MAX_LEVELS, MAX_TRIALS, SCENARIO_NAMES
from sapta.cli import _COMMANDS, _FORMAT, EX_OK, _parse_args, UsageError, main
from test_cli_fuzz import FLAGS


class Rejected(Exception):
    pass


class Help(Exception):
    pass


# argparse reads an argument that starts with '-' as a value, not an option,
# when this matches it.  The stock pattern differs between Python versions and
# misses '-1e3', '-inf' and the --levels list '-1e-3,0.5'.
_NUMBER = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)"
_NEGATIVE_NUMBERS = re.compile(rf"-{_NUMBER}(?:,[-+]?{_NUMBER})*\Z", re.IGNORECASE)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


def _trial_count(text: str) -> int:
    value = _non_negative_int(text)
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"invalid trial count: {text!r} is above {MAX_TRIALS}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list value: {text!r}") from None


class _ArgumentParser(argparse.ArgumentParser):
    # Subparsers are built as type(self).  No flag may be abbreviated.
    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBERS

    def error(self, message):
        raise Rejected(message)

    def print_help(self, file=None):
        raise Help


def reference_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="sapta")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json", help="output format")

    p_parse = sub.add_parser("parse", help="parse formula files and dump ASTs")
    p_parse.add_argument("paths", nargs="+", help="formula files ('-' for stdin)")
    add_format(p_parse)

    p_eval = sub.add_parser("eval", help="evaluate formulas over a model")
    p_eval.add_argument("paths", nargs="+", help="formula files ('-' for stdin)")
    p_eval.add_argument("--model", required=True, help="model JSON file")
    p_eval.add_argument(
        "--incompat",
        choices=("relational", "extensional"),
        default="relational",
        help="reading of guard-incompatibility clauses",
    )
    add_format(p_eval)

    p_classify = sub.add_parser("classify", help="classify a judgment set")
    p_classify.add_argument(
        "judgments_path", nargs="?", help="judgment set JSON file ('-' for stdin)"
    )
    p_classify.add_argument("--judgments", help="judgment set JSON file (alternative spelling)")
    p_classify.add_argument("--model", required=True, help="model JSON file")
    p_classify.add_argument("--predicate", help="predicate to classify (inferred when unique)")
    add_format(p_classify)

    p_scenario = sub.add_parser("scenario", help="run one built-in scenario")
    p_scenario.add_argument("name", choices=SCENARIO_NAMES)
    p_scenario.add_argument("--seed", type=_non_negative_int, default=0, help="non-negative sampling seed")
    p_scenario.add_argument("--open", action="store_true", help="cat: open the box")
    p_scenario.add_argument(
        "--trials", type=_trial_count, help=f"cat: sample this many outcomes, at most {MAX_TRIALS}"
    )
    p_scenario.add_argument(
        "--perspective", choices=("friend", "wigner", "combined"), default="combined"
    )
    p_scenario.add_argument("--friend-outcome", choices=("up", "down"), default="up")
    p_scenario.add_argument("--basis", choices=("zero_one", "plus_minus"), default="zero_one")
    p_scenario.add_argument(
        "--levels", type=_float_list, default="0.1,0.5,0.9",
        help=f"threshold: comma-separated intensities, at most {MAX_LEVELS}",
    )
    p_scenario.add_argument("--lower-cut", type=float, default=0.3)
    p_scenario.add_argument("--upper-cut", type=float, default=0.7)
    for flag in ("one-slit-observed", "one-slit-unobserved", "two-slits-unobserved"):
        p_scenario.add_argument(
            f"--{flag}", action=argparse.BooleanOptionalAction, default=True,
            help="double_slit: include this context",
        )
    add_format(p_scenario)

    p_corpus = sub.add_parser("corpus", help="run all scenarios against expected classes")
    p_corpus.add_argument("--seed", type=_non_negative_int, default=0, help="non-negative sampling seed")
    add_format(p_corpus)

    p_excl = sub.add_parser("exclusivity", help="21-row mutual exclusivity certificate")
    add_format(p_excl)

    return parser


REFERENCE = reference_parser()


def ours(argv):
    """The namespace's fields, "help" or "usage error"."""
    try:
        parsed = _parse_args(argv)
    except UsageError:
        return "usage error"
    return "help" if type(parsed) is list else vars(parsed)


def theirs(argv):
    """The reference's fields, "help" or "usage error", and the words it
    leaves over (which its parse_args rejects)."""
    try:
        parsed, left_over = REFERENCE.parse_known_args(argv)
    except Rejected:
        return "usage error", []
    except Help:
        return "help", []
    return vars(parsed), left_over


def same(outcome, reference) -> bool:
    """Whether two outcomes are equal, a NaN field equal to a NaN."""
    if type(outcome) is dict and type(reference) is dict:
        outcome, reference = ({name: repr(value) for name, value in fields.items()}
                              for fields in (outcome, reference))
    return outcome == reference


def argparse_leaves_words_over(fields: dict, reference: dict, left_over: list) -> bool:
    """Whether argparse rejects a line that `_parse_args` reads as `fields`
    only for the words it leaves over, where those words are:

    - later words of a `+` positional, after a flag: argparse takes a
      positional's words only up to the first flag after them, so it
      rejects `parse a.lgc --format text b.lgc`;
    - a `--` after the command's positional is taken, or in a command that
      has none: argparse drops a `--` only as part of a positional's words,
      so it rejects `exclusivity --`, where `--` ends the flags.

    The reference's fields with the `+` positional's later words added must
    then be `fields`.
    """
    rest = list(left_over)
    if "--" in rest:
        rest.remove("--")
    if "paths" in reference:
        reference = {**reference, "paths": reference["paths"] + rest}
        rest = []
    return not rest and same(fields, reference)


POSITIONALS = {
    "parse": ["a.lgc", "b.lgc", "-"],
    "eval": ["a.lgc", "b.lgc", "-"],
    "classify": ["j.json"],
    "scenario": [*SCENARIO_NAMES, "heisenberg"],
    "corpus": [],
    "exclusivity": [],
}
JUNK = ["--bogus", "-x", "--", "-1e3", "-inf", "--open=1", "--no-open", "--format=xml",
        "-", "x", "-h", "--help"]
FORMATS = [["--format", "json"], ["--format", "text"], ["--format=text"]]


@st.composite
def command_lines(draw):
    """A command, then its flags with their values (or a flag without its
    value), its positional words and junk words in any order; sometimes a
    junk word before the command, or no command at all."""
    command = draw(st.sampled_from([*FLAGS, "frobnicate"]))
    table = FLAGS.get(command, {})
    flags = draw(st.lists(st.sampled_from(sorted(table)), max_size=4)) if table else []
    groups = [[flag, *draw(table[flag])] for flag in flags] + draw(st.lists(st.sampled_from(FORMATS), max_size=2))
    groups = [group[:1] if draw(st.integers(0, 9)) == 0 else group for group in groups]
    for words, most in ((POSITIONALS.get(command), 3), (JUNK, 2)):
        groups += [[word] for word in draw(st.lists(st.sampled_from(words), max_size=most))] if words else []
    argv = [word for group in draw(st.permutations(groups)) for word in group]
    head = draw(st.sampled_from([[command]] * 8 + [[], ["--bogus", command], ["-h", command]]))
    return head + argv


@settings(max_examples=2000, deadline=None)
@given(command_lines())
def test_parse_args_agrees_with_argparse(argv):
    outcome = ours(argv)
    reference, left_over = theirs(argv)
    if left_over and type(reference) is dict:
        if type(outcome) is dict and argparse_leaves_words_over(outcome, reference, left_over):
            return
        reference = "usage error"
    assert same(outcome, reference), argv


def test_a_plus_positional_split_by_a_flag_takes_all_its_words():
    argv = ["parse", "a.lgc", "--format", "text", "b.lgc"]
    assert ours(argv)["paths"] == ["a.lgc", "b.lgc"]
    assert theirs(argv) == ({"command": "parse", "paths": ["a.lgc"], "format": "text"}, ["b.lgc"])


def test_a_bare_double_dash_ends_the_flags():
    assert ours(["exclusivity", "--"]) == {"command": "exclusivity", "format": "json"}
    assert theirs(["scenario", "cat", "--open", "--"])[1] == ["--"]
    assert ours(["scenario", "cat", "--open", "--"])["open"] is True


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_help_lists_every_flag_with_its_choices_and_help(capsys, command):
    assert main([command, "--help"]) == EX_OK
    lines = capsys.readouterr().out.splitlines()
    summary, _, flags = _COMMANDS[command]
    assert summary in lines
    for flag, default, kind, text in (*flags, _FORMAT):
        line = next(line for line in lines if line.split()[:1] in ([flag], [flag + ","]))
        assert line.endswith(text + (" (required)" if flag == "--model" else "")), line
        if type(kind) is tuple:
            assert " {" + ",".join(kind) + "} " in line, line
        if default is True:
            assert f"--no-{flag[2:]} " in line, line
