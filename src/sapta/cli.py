"""Command-line front end: parse, eval, classify, scenario, corpus, exclusivity.

Output goes to stdout as JSON (default) or human-readable text; identical
inputs and seed produce byte-identical output.  Under ``--format json``
every exit path but ``--help`` prints a JSON object, errors included.  A run
writes stdout once, after its work is done: each command returns its output,
and one function writes it, the error object or the help.  Exit codes: 0 on
success, 1 on syntax/model errors or a failed write, 2 on a corpus mismatch,
64 on a usage error.  Set SAPTA_COLOR=0 to disable ANSI color in text output.
"""
from __future__ import annotations

import errno
import gc
import json
import os
import sys
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring
from types import SimpleNamespace

from . import MAX_LEVELS, MAX_TRIALS, SCENARIO_NAMES
from .errors import ModelError, ParseError, SaptaError

__all__ = ["main", "entry"]

EX_OK = 0
EX_ERROR = 1
EX_MISMATCH = 2
EX_USAGE = 64


class UsageError(SaptaError):
    """A command line that cannot run: a bad flag, value or input name."""


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise UsageError(f"invalid non-negative int value: {text!r}")
    return value


def _trial_count(text: str) -> int:
    value = _non_negative_int(text)
    if value > MAX_TRIALS:
        raise UsageError(f"invalid trial count: {text!r} is above {MAX_TRIALS}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"invalid float list value: {text!r}") from None


def _is_value(word: str) -> bool:
    """Whether a word is a value, not a flag: one that starts with '-' is a
    value only when it is '-' itself or each of its comma-separated parts
    reads as a float, as in `--lower-cut -1e3` or `--levels -1e-3,0.5`."""
    if word[:1] != "-" or word == "-":
        return True
    try:
        for part in word.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _value(name: str, word: str, kind):
    """`word` as the value of `name`: one of a tuple of choices, or what the function
    `kind` makes of it; as in argparse, its ValueError is "invalid <its name> value"."""
    if type(kind) is tuple:
        if word not in kind:
            raise UsageError(f"argument {name}: invalid choice: {word!r} "
                             f"(choose from {', '.join(map(repr, kind))})")
        return word
    try:
        return kind(word)
    except UsageError as exc:
        raise UsageError(f"argument {name}: {exc}") from None
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {word!r}") from None


def _parse_args(argv: list[str]):
    """The namespace of a command line, with `command` and a field for each
    positional and flag of that command, or the help lines when `-h` or
    `--help` comes first.  Raises UsageError: at once for a bad value, after
    the walk for an unknown flag, a surplus word or a missing argument."""
    # The command is the first value (or `--`); before it, -h is the only flag.
    at = next((i for i, word in enumerate(argv) if _is_value(word) or word == "--"), len(argv))
    if "-h" in argv[:at] or "--help" in argv[:at]:
        from .helptext import help_lines  # only -h and --help load the help writer

        return help_lines(sys.modules[__name__], None)
    if at == len(argv):
        raise UsageError("the following arguments are required: command")
    command = _value("command", argv[at], tuple(_COMMANDS))
    words, unknown = iter(argv[at + 1:]), argv[:at]
    _, positional, flags = _COMMANDS[command]
    args = {"command": command}
    named = {}  # a flag's word -> (its field, its value's kind, what a switch sets)
    for flag, default, kind, _ in (*flags, _FORMAT):
        dest = flag[2:].replace("-", "_")
        args[dest] = default
        named[flag] = dest, kind, True
        if default is True:
            named["--no-" + flag[2:]] = dest, kind, False
    name, takes, _ = positional or (None, None, None)
    taken, ended = [], False
    for word in words:
        if ended or _is_value(word):
            if takes == "+" or name and not taken:
                taken.append(_value(name, word, takes) if type(takes) is tuple else word)
            else:
                unknown.append(word)
        elif word == "--":
            ended = True
        elif word in ("-h", "--help"):
            from .helptext import help_lines

            return help_lines(sys.modules[__name__], command)
        elif word.partition("=")[0] not in named:
            unknown.append(word)
        else:
            flag, has_value, value = word.partition("=")
            dest, kind, on = named[flag]
            if kind is None and has_value:
                raise UsageError(f"argument {flag}: ignored explicit argument {value!r}")
            if kind is not None and not has_value:
                value = next(words, "--")  # with no word left, as if a flag came next
                if not _is_value(value):
                    raise UsageError(f"argument {flag}: expected one argument")
            args[dest] = on if kind is None else _value(flag, value, kind)
    if name:
        args[name] = taken if takes == "+" else taken[0] if taken else None
    missing = [name] if name and takes != "?" and not taken else []
    missing += [flag for flag, (dest, *_) in named.items() if args[dest] is _REQUIRED]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    if unknown:
        raise UsageError("unrecognized arguments: " + " ".join(unknown))
    return SimpleNamespace(**args)


# ---------------------------------------------------------------------------
# The commands' callees.  Each command lives in a module of its own under
# `commands`, which `_run` loads when the command runs and hands this module;
# the command calls its callees as this module's names, `cli.pretty(...)`, and
# `json` too, so that a caller can rebind them, as the traced benchmark replay
# and the tests do.  A callee is read from the package, which loads it from
# its home module, on the first read of its name here, so that a command loads
# only the modules it runs (only `scenario cat --open --trials` loads numpy).
_CALLEES = (
    "Model", "parse_formula_file", "evaluate", "pretty", "ast_to_dict", "judgments_from_json",
    "classify", "mutual_exclusivity_certificate", "run_corpus",
    *(f"scenario_{name}" for name in SCENARIO_NAMES),
)


def __getattr__(name: str):
    if name not in _CALLEES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


# ---------------------------------------------------------------------------
# Output helpers.


_COLORS = {"T": "\x1b[32m", "F": "\x1b[31m", "U": "\x1b[33m"}


def _painter():
    """The function that writes a truth value's letter in this run's text
    output: in its ANSI color when stdout is a terminal and SAPTA_COLOR is
    not 0, plain otherwise."""
    if os.environ.get("SAPTA_COLOR", "1") != "0" and sys.stdout.isatty():
        return lambda text: f"{_COLORS[text]}{text}\x1b[0m" if text in _COLORS else text
    return str


class _Encoder(json.JSONEncoder):
    """The stock encoder's output for the CLI's ``indent=2,
    ensure_ascii=False``, written by one recursive function.

    With ``indent`` set, CPython's encoder runs a pure-Python generator per
    container and yields a fresh string per item.  This writer appends two
    pieces per item to one list, the text before the item and its value's
    text, and joins them once; it concatenates nothing per item.  The text
    before a dict's item, from its brace or comma to its quoted key and
    separator, is made once per depth and set of keys, and each string is
    quoted once per call, so most pieces are shared cached strings and the
    list holds only a reference to each.  It writes the shapes sapta emits,
    a non-empty exact dict with string keys and a non-empty exact list or
    tuple; any other value is the stock text.
    """

    def encode(self, o) -> str:
        stock = super().encode
        indent, item_sep, key_sep = " " * self.indent, self.item_separator, self.key_separator
        quoted = lru_cache(None)(encode_basestring)
        # The text of a value that is no container, by its exact type.
        scalar = {str: quoted, int: int.__repr__, float: stock,
                  bool: ("false", "true").__getitem__, type(None): lambda _: "null"}
        # (depth, *keys) -> the text before each item of a dict at `depth`
        # with those string keys, and its closing text; depth -> the text
        # before a list's first item, before a later one, and its closing text.
        layouts: dict = {}
        pieces: list[str] = []
        append = pieces.append

        def dict_layout(depth: int, o: dict) -> tuple | None:
            if not all(type(key) is str for key in o):
                return None  # the stock encoder writes, or rejects, other keys
            margin = item_sep + "\n" + indent * (depth + 1)
            heads = [margin + quoted(key) + key_sep for key in o]
            heads[0] = "{" + heads[0][len(item_sep):]
            return layouts.setdefault((depth, *o), (heads, "\n" + indent * depth + "}"))

        def write(o, depth: int) -> None:
            t = type(o)
            if t is dict and o and (layout := layouts.get((depth, *o)) or dict_layout(depth, o)):
                heads, close = layout
                items = zip(heads, o.values())
            elif (t is list or t is tuple) and o:
                if depth not in layouts:
                    margin = "\n" + indent * (depth + 1)
                    layouts[depth] = "[" + margin, item_sep + margin, "\n" + indent * depth + "]"
                first, later, close = layouts[depth]
                items = zip(chain((first,), repeat(later)), o)
            else:  # indented to this depth: JSON escapes a newline in a string
                append(stock(o).replace("\n", "\n" + indent * depth))
                return
            for head, value in items:
                append(head)
                text = scalar.get(type(value))
                if text is None:
                    write(value, depth + 1)
                else:
                    append(text(value))
            append(close)

        try:
            write(o, 0)
        finally:
            # `write` calls itself through its closure cell; emptying the cell
            # ends that cycle, which would keep the pieces and caches alive
            # until a collection, and the CLI process runs none.
            del write
        return "".join(pieces)


def _write(output) -> None:
    """Write a run's output to stdout, once: a JSON object, or a list of text
    lines; None or no lines writes nothing.  A failed write raises the
    stream's OSError."""
    if isinstance(output, dict):
        print(json.dumps(output, indent=2, ensure_ascii=False, cls=_Encoder))
    elif output:
        print("\n".join(output))


def _warn(text: str) -> None:
    """Print one line to stderr; a closed or failing stderr drops it."""
    try:
        if sys.stderr is not None:  # started with stderr closed
            print(text, file=sys.stderr)
    except OSError:
        pass


def _read(path: str, error=ParseError) -> str:
    """The UTF-8 text of a file, or of stdin for "-", with its line endings
    as they are, so that a span's offset counts the bytes of the file.

    Bytes that are not UTF-8 raise `error`, naming the path as given and the
    offset of the first bad byte: a ParseError spans that byte, at the line
    and column the formula parser would give it."""
    if path == "-":
        if sys.stdin is None:  # started with stdin closed
            raise SaptaError("standard input is closed")
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        message = f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})"
        if error is not ParseError:
            raise error(message) from None
        from .formulas import SourceSpan

        # A line ends at CR LF, CR or LF, as in parse_formula_file.
        before = data[:exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        column = len(before) - before.rfind("\n")
        span = SourceSpan(exc.start, exc.end, before.count("\n") + 1, column)
        raise ParseError(message, span=span) from None


def _read_json(path: str, keep: list):
    text = _read(path, ModelError)
    try:
        data = json.loads(text)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ModelError(f"{path}: JSON nested too deeply") from None
    except json.JSONDecodeError as exc:  # its message gives the line and column
        raise ModelError(f"{path}: {exc}") from None
    keep.append(data)
    return data


def _class_text(cls) -> str:
    from . import SANSKRIT_NAMES

    name = SANSKRIT_NAMES.get(cls.tag)
    return f"{cls.tag.value} ({name})" if name else cls.tag.value


# The command line: command -> (its help line, its positional, its flags, to
# which every command adds _FORMAT); it runs in its namesake module under
# `commands`.  A positional is (name, "+", "?" or a tuple of choices, help).
# A flag is (flag, default, kind, help) and sets the field named as the flag
# without its dashes, '_' for '-'.  Its kind is a tuple of choices, a
# converter, or None for a switch, which sets True; a switch whose default is
# True also has a --no- form, which sets False.
_REQUIRED = object()  # the default of a flag that must be given
_FORMAT = ("--format", "json", ("json", "text"), "output format")
_PATHS = ("paths", "+", "formula files ('-' for stdin)")
_MODEL = ("--model", _REQUIRED, str, "model JSON file")
_SEED = ("--seed", 0, _non_negative_int, "non-negative sampling seed")
_COMMANDS = {
    "parse": ("parse formula files and dump ASTs", _PATHS, ()),
    "eval": ("evaluate formulas over a model", _PATHS, (_MODEL, ("--incompat", "relational",
        ("relational", "extensional"), "reading of guard-incompatibility clauses"))),
    "classify": ("classify a judgment set",
                 ("judgments_path", "?", "judgment set JSON file ('-' for stdin)"), (
        ("--judgments", None, str, "judgment set JSON file (alternative spelling)"), _MODEL,
        ("--predicate", None, str, "predicate to classify (inferred when unique)"))),
    "scenario": ("run one built-in scenario", ("name", SCENARIO_NAMES, "the scenario"), (
        _SEED,
        ("--open", False, None, "cat: open the box"),
        ("--trials", None, _trial_count, f"cat: sample this many outcomes, at most {MAX_TRIALS}"),
        ("--perspective", "combined", ("friend", "wigner", "combined"), "wigner: whose report"),
        ("--friend-outcome", "up", ("up", "down"), "wigner: the spin the friend measured"),
        ("--basis", "zero_one", ("zero_one", "plus_minus"), "epr: Alice's measurement basis"),
        ("--levels", (0.1, 0.5, 0.9), _float_list,
         f"threshold: comma-separated intensities, at most {MAX_LEVELS}"),
        ("--lower-cut", 0.3, float, "threshold: an intensity below it is a no (F)"),
        ("--upper-cut", 0.7, float, "threshold: an intensity above it is a yes (T)"),
        *((f"--{flag}", True, None, "double_slit: include this context")
          for flag in ("one-slit-observed", "one-slit-unobserved", "two-slits-unobserved")))),
    "corpus": ("run all scenarios against expected classes", None, (_SEED,)),
    "exclusivity": ("21-row mutual exclusivity certificate", None, ()),
}


def _error_payload(exc: Exception) -> dict:
    payload = {"kind": type(exc).__name__, "message": str(exc)}
    span = getattr(exc, "span", None)
    payload["span"] = span.to_dict() if span is not None else None
    if isinstance(exc, ParseError) and exc.expected:
        payload["expected"] = sorted(exc.expected)
    return payload


def _check_inputs(args) -> None:
    """Raise UsageError when a command line names standard input, '-', as
    more than one of its inputs, since the first would read all of it, or
    names classify's judgment file other than exactly once."""
    fields = vars(args)
    inputs = [*fields.get("paths", ()), *map(fields.get, ("model", "judgments_path", "judgments"))]
    if inputs.count("-") > 1:
        raise UsageError("standard input '-' is named more than once; it can be read only once")
    if args.command == "classify" and bool(args.judgments_path) == bool(args.judgments):
        raise UsageError("give the judgment file either positionally or via --judgments")


def main(argv: list[str] | None = None) -> int:
    return _run(argv, [])


def _run(argv: list[str] | None, keep: list) -> int:
    """Run one command line; what the command still holds when it returns
    is appended to ``keep``, and lives as long as the caller holds that.

    The command line is checked before its command's module loads, so no
    command checks its own.  Every failure, a usage error included, writes
    its stderr line and then, as the output, its JSON error object.  Stdout
    is written once, by ``_write`` after the handler, so a failed write
    raises the stream's own OSError past it.  Help is output like any other.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = None
    try:
        args = _parse_args(argv)
        if type(args) is list:  # the help lines are the output of -h or --help
            code, output = EX_OK, args
        else:  # this module is `__main__` under `python -m sapta.cli`
            _check_inputs(args)
            command = __import__("commands." + args.command, globals(), None, ("run",), 1)
            code, output = command.run(sys.modules[__name__], args, keep)
    # ModuleNotFoundError: numpy is missing and `scenario cat --trials` needs it.
    except (SaptaError, OSError, ValueError, ModuleNotFoundError) as exc:
        usage = isinstance(exc, UsageError)
        span = getattr(exc, "span", None)
        where = f"{span.line}:{span.column}: " if span is not None else ""
        _warn(f"{where}{'usage ' if usage else ''}error: {exc}")
        output_format = "json" if args is None else args.format
        if args is None:  # the last --format before any `--`; after it, every word is a positional
            for arg, value in zip(argv, argv[1:] + [None]):
                if arg == "--":
                    break
                if arg.startswith("--format="):
                    output_format = arg[len("--format="):]
                elif arg == "--format" and value is not None:
                    output_format = value
        code = EX_USAGE if usage else EX_ERROR
        output = {"error": _error_payload(exc)} if output_format != "text" else None
    _write(output)
    return code


def entry() -> None:
    """Run the command line in ``sys.argv`` as the ``sapta`` process and end
    the process.

    numpy's OpenBLAS, which only ``scenario cat --open --trials`` loads,
    runs on one thread unless the user has set ``OPENBLAS_NUM_THREADS``:
    otherwise it starts a spinning helper thread per extra core, which costs
    CPU time and no wall time for the few operations sapta asks of it.

    The cyclic collector is off for the whole run.  One command's cyclic
    garbage is at most a few hundred objects whatever the input size, so the
    process never collects it; with the collector on, decoding a large model
    rescans every list it has made so far at each collection.  ``main()``
    leaves the collector as it finds it, for callers that run it in-process.

    The process ends in one place: stdout is flushed, then stderr, then
    ``os._exit`` ends it with the exit code.  So the interpreter's teardown
    never runs: no final collections, no atexit handlers and no exit-time
    flush of any other stream.  The run writes stdout once, after the
    command's work and its error handling are done, so a failed write or
    flush (a reader that closed it, as ``sapta parse f | head`` does, or a
    full disk) raises the stream's own OSError here; it ends the run with
    exit 1 and one stderr line, none for a closed pipe, and stdout is never
    written again.  Nothing the command decoded or built is freed
    before that: ``keep`` holds it until ``os._exit``, which frees it all at
    once with the process, where ``main()`` frees it when it returns.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    code = EX_ERROR
    keep: list = []
    if sys.stdout is None:  # started with stdout closed: no result can be written
        _warn("error: standard output is closed")
    else:
        try:
            code = _run(None, keep)
            sys.stdout.flush()
        except OSError as exc:
            code = EX_ERROR
            if exc.errno != errno.EPIPE:
                _warn(f"error: cannot write output: {exc.strerror}")
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    entry()
