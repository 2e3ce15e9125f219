"""Command-line front end: parse, eval, classify, scenario, corpus, exclusivity.

Output goes to stdout as JSON (default) or human-readable text; identical
inputs and seed produce byte-identical output.  Under ``--format json``
every exit path prints a JSON object, errors included.  Exit codes: 0 on
success, 1 on syntax/model errors, 2 on a corpus expectation mismatch, 64
on bad flags.  Set SAPTA_COLOR=0 to disable ANSI color in text output.
"""
from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import re
import sys
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring

from . import MAX_LEVELS, MAX_TRIALS, SCENARIO_NAMES
from .errors import ModelError, ParseError, SaptaError

__all__ = ["main", "entry", "build_parser"]

EX_OK = 0
EX_ERROR = 1
EX_MISMATCH = 2
EX_USAGE = 64


class _UsageError(Exception):
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
    # Subparsers are built as type(self).  No flag may be abbreviated, so a
    # usage error can read the output format off argv (see main).
    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBERS

    # argparse exits 2 on usage errors; route through EX_USAGE instead.
    def error(self, message):
        raise _UsageError(message)

    # argparse drops a failed write of its help; to stdout, it fails the run
    # as any other failed write there does.
    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            try:
                file.write(message)
            except OSError as exc:
                raise _OutputError(exc.errno, exc.strerror) from None
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="sapta", description=__doc__.split("\n")[0])
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


# ---------------------------------------------------------------------------
# The commands' callees.  Each looks its name up in the package when it is
# called, and the package loads it from its home module on first use, so that
# a command loads only the modules it runs (only `scenario cat --open --trials`
# loads numpy).  They stay names of this module so that a caller can rebind
# them, as the traced benchmark replay and the tests do.


def _deferred(path: str):
    """A function that calls the package's name ``path``, or for
    ``"Model.from_json"`` that name's attribute, as it is when called."""
    package = sys.modules[__package__]
    name, _, attr = path.partition(".")

    def call(*args, **kwargs):
        target = getattr(package, name)
        return (getattr(target, attr) if attr else target)(*args, **kwargs)

    return call


class Model:
    from_json = _deferred("Model.from_json")


parse_formula_file = _deferred("parse_formula_file")
evaluate = _deferred("evaluate")
pretty = _deferred("pretty")
ast_to_dict = _deferred("ast_to_dict")
judgments_from_json = _deferred("judgments_from_json")
classify = _deferred("classify")
mutual_exclusivity_certificate = _deferred("mutual_exclusivity_certificate")
run_corpus = _deferred("run_corpus")
scenario_double_slit = _deferred("scenario_double_slit")
scenario_cat = _deferred("scenario_cat")
scenario_wigner = _deferred("scenario_wigner")
scenario_epr = _deferred("scenario_epr")
scenario_qcc = _deferred("scenario_qcc")
scenario_threshold = _deferred("scenario_threshold")


# ---------------------------------------------------------------------------
# Output helpers.


def _color_enabled() -> bool:
    return os.environ.get("SAPTA_COLOR", "1") != "0" and sys.stdout.isatty()


_COLORS = {"T": "\x1b[32m", "F": "\x1b[31m", "U": "\x1b[33m"}


def _tv(text: str) -> str:
    if _color_enabled() and text in _COLORS:
        return f"{_COLORS[text]}{text}\x1b[0m"
    return text


class _Encoder(json.JSONEncoder):
    """The stock encoder's output for the CLI's ``indent=2,
    ensure_ascii=False``, written by one recursive function.

    With ``indent`` set, CPython's encoder runs a pure-Python generator per
    container and yields a fresh string per item; this writer appends one
    string per item (two when the value is a container): the text before a
    dict's item, from its brace or comma to its quoted key and separator, is
    made once per depth and set of keys.  Strings are quoted once per call;
    floats, empty containers and other scalars go to the stock encoder.
    """

    def encode(self, o) -> str:
        stock = super().encode
        indent, item_sep, key_sep = " " * self.indent, self.item_separator, self.key_separator
        quoted = lru_cache(None)(encode_basestring)
        # The text of a value that is no container, by its exact type.
        scalar = {str: quoted, int: int.__repr__, float: stock,
                  bool: ("false", "true").__getitem__, type(None): lambda _: "null"}
        # (depth, *keys) -> the text before each item of a dict at `depth`
        # with those keys, and its closing text; depth -> the text before a
        # list's first item, before a later one, and its closing text.
        layouts: dict = {}
        chunks: list[str] = []
        append = chunks.append

        def dict_layout(depth: int, o: dict) -> tuple:
            margin = item_sep + "\n" + indent * (depth + 1)
            heads = []
            for key in o:  # as the stock encoder, which quotes the text of a scalar key
                if not isinstance(key, (str, int, float, type(None))):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
                heads.append(margin + quoted(key if isinstance(key, str) else stock(key)) + key_sep)
            heads[0] = "{" + heads[0][len(item_sep):]
            layout = heads, "\n" + indent * depth + "}"
            if all(type(key) is str for key in o):  # 1, 1.0 and True are one key
                layouts[(depth, *o)] = layout
            return layout

        def write(o, depth: int) -> None:
            t = type(o)
            if t is dict and o:
                heads, close = layouts.get((depth, *o)) or dict_layout(depth, o)
                items = zip(heads, o.values())
            elif (t is list or t is tuple) and o:
                if depth not in layouts:
                    margin = "\n" + indent * (depth + 1)
                    layouts[depth] = "[" + margin, item_sep + margin, "\n" + indent * depth + "]"
                first, later, close = layouts[depth]
                items = zip(chain((first,), repeat(later)), o)
            elif isinstance(o, (dict, list, tuple)) and t not in (dict, list, tuple):  # a subclass
                write(dict(o.items()) if isinstance(o, dict) else list(o), depth)
                return
            else:  # a scalar or an empty container; raises TypeError as stock does
                append(stock(o))
                return
            for head, value in items:
                text = scalar.get(type(value))
                if text is None:
                    append(head)
                    write(value, depth + 1)
                else:
                    append(head + text(value))
            append(close)

        try:
            write(o, 0)
        finally:
            # `write` calls itself through its closure cell; emptying the cell
            # ends that cycle, which would keep the chunks and caches alive
            # until a collection, and the CLI process runs none.
            del write
        return "".join(chunks)


class _OutputError(OSError):
    """A write to stdout failed, so no error report can be written there."""


def _say(text: str) -> None:
    """Print one line to stdout; a failed write raises _OutputError."""
    try:
        print(text)
    except OSError as exc:
        raise _OutputError(exc.errno, exc.strerror) from None


def _warn(text: str) -> None:
    """Print one line to stderr; a closed or failing stderr drops it."""
    try:
        if sys.stderr is not None:  # started with stderr closed
            print(text, file=sys.stderr)
    except OSError:
        pass


def _emit_json(obj) -> None:
    _say(json.dumps(obj, indent=2, ensure_ascii=False, cls=_Encoder))


def _read(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for "-", with its line endings
    as they are, so that a span's offset counts the bytes of the file."""
    if path == "-":
        if sys.stdin is None:  # started with stdin closed
            raise SaptaError("standard input is closed")
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _read_json(path: str, keep: list):
    text = _read(path)
    try:
        data = json.loads(text)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ModelError(f"{path}: JSON nested too deeply") from None
    keep.append(data)
    return data


def _load_model(path: str, keep: list):
    model = Model.from_json(_read_json(path, keep))
    keep.append(model)
    return model


def _model_metadata(model) -> dict:
    from . import trivalent

    return {
        "connectives": trivalent.CONNECTIVES,
        "implication": trivalent.IMPLICATION,
        "valuationDefault": "U",
        "defaultedValuationEntries": model.defaulted_valuations,
    }


def _class_text(cls) -> str:
    from . import SANSKRIT_NAMES

    name = SANSKRIT_NAMES.get(cls.tag)
    return f"{cls.tag.value} ({name})" if name else cls.tag.value


# ---------------------------------------------------------------------------
# Commands.  Each appends to `keep` what it decoded or built and still holds
# when it returns, so that the caller decides when that is freed (see _run).


def _cmd_parse(args, keep: list) -> int:
    entries = []
    keep.append(entries)
    for path in args.paths:
        for nf in parse_formula_file(_read(path)):
            entries.append(
                {
                    "path": path,
                    "name": nf.name,
                    "line": nf.line,
                    "pretty": pretty(nf.formula),
                    "ast": ast_to_dict(nf.formula),
                }
            )
    if args.format == "json":
        _emit_json({"formulas": entries})
    else:
        for e in entries:
            label = e["name"] or f"{e['path']}:{e['line']}"
            _say(f"{label}: {e['pretty']}")
    return EX_OK


def _cmd_eval(args, keep: list) -> int:
    model = _load_model(args.model, keep)
    results = []
    keep.append(results)
    for path in args.paths:
        for nf in parse_formula_file(_read(path), require_closed=True):
            value = evaluate(nf.formula, model, incompat_mode=args.incompat)
            results.append(
                {
                    "path": path,
                    "name": nf.name,
                    "line": nf.line,
                    "pretty": pretty(nf.formula),
                    "value": value.value,
                }
            )
    if args.format == "json":
        metadata = _model_metadata(model)
        metadata["incompatibilityMode"] = args.incompat
        _emit_json({"results": results, "metadata": metadata})
    else:
        for r in results:
            label = r["name"] or f"{r['path']}:{r['line']}"
            _say(f"{label}: {_tv(r['value'])}")
    return EX_OK


def _cmd_classify(args, keep: list) -> int:
    from . import schema_formula_for

    path = args.judgments_path or args.judgments
    if path is None or (args.judgments_path and args.judgments):
        raise SaptaError("give the judgment file either positionally or via --judgments")
    model = _load_model(args.model, keep)
    judgments = judgments_from_json(_read_json(path, keep))
    keep.append(judgments)
    predicate = args.predicate
    if predicate is None:
        names = sorted({j.predicate for j in judgments})
        if len(names) != 1:
            raise SaptaError(
                f"--predicate required: judgment set mentions {len(names)} predicates {names}"
            )
        predicate = names[0]
    cls = classify(judgments, model, predicate)
    formula = schema_formula_for(cls, predicate)
    out = cls.to_json()
    out["schemaFormula"] = pretty(formula) if formula is not None else None
    if args.format == "json":
        out["metadata"] = _model_metadata(model)
        _emit_json(out)
    else:
        _say(_class_text(cls))
        if cls.contexts_used:
            _say("contexts: " + ", ".join(cls.contexts_used))
        if out["schemaFormula"]:
            _say("schema: " + out["schemaFormula"])
    return EX_OK


def _build_scenario(args):
    if args.name == "double_slit":
        return scenario_double_slit(
            args.one_slit_observed, args.one_slit_unobserved, args.two_slits_unobserved
        )
    if args.name == "cat":
        return scenario_cat(args.open, args.seed, args.trials)
    if args.name == "wigner":
        return scenario_wigner(args.perspective, args.friend_outcome)
    if args.name == "epr":
        return scenario_epr(args.basis)
    if args.name == "qcc":
        return scenario_qcc()
    return scenario_threshold(args.levels, args.lower_cut, args.upper_cut)


def _cmd_scenario(args, keep: list) -> int:
    report = _build_scenario(args)
    keep.append(report)
    if args.format == "json":
        out = report.to_json()
        out["metadata"] = {"seed": args.seed}
        _emit_json(out)
    else:
        _say(f"scenario: {report.scenario_name}")
        for j in report.judgments:
            _say(f"  {j.context}: {j.predicate} = {_tv(j.value.value)}")
        _say(f"expected: {_class_text(report.expected_class)}")
        for name, value in report.numeric_witness.items():
            _say(f"  {name} = {value}")
    return EX_OK


def _cmd_corpus(args, keep: list) -> int:
    from .scenarios import CORPUS_ORDER

    results = run_corpus(args.seed)
    keep.append(results)
    ok = all(r.match for r in results)
    if args.format == "json":
        _emit_json(
            {
                "results": [r.to_json() for r in results],
                "allMatch": ok,
                "metadata": {"seed": args.seed, "order": list(CORPUS_ORDER)},
            }
        )
    else:
        for r in results:
            verdict = "ok" if r.match else "MISMATCH"
            _say(
                f"{r.name}: expected {_class_text(r.report.expected_class)}, "
                f"classified {_class_text(r.classified)}, {verdict}"
            )
        _say(f"{sum(r.match for r in results)}/{len(results)} scenarios match")
    return EX_OK if ok else EX_MISMATCH


def _cmd_exclusivity(args, keep: list) -> int:
    rows = mutual_exclusivity_certificate()
    keep.append(rows)
    distinct = sum(1 for r in rows if r.verdict == "distinct")
    if args.format == "json":
        _emit_json(
            {
                "rows": [r.to_json() for r in rows],
                "allDistinct": distinct == len(rows),
                "distinct": distinct,
                "total": len(rows),
            }
        )
    else:
        for r in rows:
            _say(f"{r.first.value}/{r.second.value}: {r.verdict} ({r.reason})")
        _say(f"{distinct}/{len(rows)} distinct")
    return EX_OK if distinct == len(rows) else EX_ERROR


_COMMANDS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "scenario": _cmd_scenario,
    "corpus": _cmd_corpus,
    "exclusivity": _cmd_exclusivity,
}


def _error_payload(exc: Exception) -> dict:
    payload = {"kind": type(exc).__name__, "message": str(exc)}
    span = getattr(exc, "span", None)
    payload["span"] = span.to_dict() if span is not None else None
    if isinstance(exc, ParseError) and exc.expected:
        payload["expected"] = sorted(exc.expected)
    return payload


def main(argv: list[str] | None = None) -> int:
    return _run(argv, [])


def _run(argv: list[str] | None, keep: list) -> int:
    """Run one command line; what the command still holds when it returns
    is appended to ``keep``, and lives as long as the caller holds that."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        # No parsed args on this path: as in argparse, the last --format counts.
        output_format = "json"
        for arg, value in zip(argv, argv[1:] + [None]):
            if arg.startswith("--format="):
                output_format = arg[len("--format="):]
            elif arg == "--format" and value is not None:
                output_format = value
        if output_format != "text":
            _emit_json({"error": {"kind": "UsageError", "message": str(exc), "span": None}})
        _warn(f"usage error: {exc}")
        return EX_USAGE
    try:
        return _COMMANDS[args.command](args, keep)
    except _OutputError:
        raise  # stdout failed: no error report can be written to it
    # ModuleNotFoundError: numpy is missing and `scenario cat --trials` needs it.
    except (SaptaError, OSError, json.JSONDecodeError, ValueError, ModuleNotFoundError) as exc:
        span = getattr(exc, "span", None)
        where = f"{span.line}:{span.column}: " if span is not None else ""
        _warn(f"{where}error: {exc}")
        if args.format == "json":
            _emit_json({"error": _error_payload(exc)})
        return EX_ERROR


def entry() -> None:
    """Run the command line in ``sys.argv`` as the ``sapta`` process and end
    the process.

    numpy's OpenBLAS, which only ``scenario cat --open --trials`` loads,
    runs on one thread unless the user has set ``OPENBLAS_NUM_THREADS``:
    otherwise it starts a spinning helper thread per extra core, which costs
    CPU time and no wall time for the few operations sapta asks of it.

    The cyclic collector is off for the whole run.  One command's cyclic
    garbage is a few hundred objects whatever the input size (mostly the
    argparse parser), so the process never collects it; with the collector
    on, decoding a large model rescans every list it has made so far at each
    collection.  ``main()`` leaves the collector as it finds it, for callers
    that run it in-process.

    The process ends in one place: stdout is flushed, then stderr, then
    ``os._exit`` ends it with the exit code.  So the interpreter's teardown
    never runs: no final collections, no atexit handlers and no exit-time
    flush of any other stream.  A failed write or flush of stdout (a reader
    that closed it, as ``sapta parse f | head`` does, or a full disk) ends
    the run with exit 1 and one stderr line, none for a closed pipe; stdout
    is never written again.  Nothing the command decoded or built is freed
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
            try:
                code = _run(None, keep)
            except SystemExit as exc:  # --help, which argparse ends with exit 0
                code = exc.code
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
