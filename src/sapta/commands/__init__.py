"""The command line's commands, one module each, loaded when its command runs.

Each module's ``run(cli, args, keep)`` returns its exit code and its output,
the JSON object or the lines of text, and writes nothing: ``cli._run``
writes the output.  It appends to ``keep`` what it decoded or built and
still holds when it returns, so that the caller decides when that is freed.

``cli`` is the module that runs the command line (``__main__`` under
``python -m sapta.cli``), passed in so that no command imports it a second
time.  A command calls every callee and reader through it, as
``cli.pretty(...)`` or ``cli._read(path)``, when it runs, so that a caller
who rebinds those names there, as the traced benchmark replay and the
tests do, sees every call.
"""
from __future__ import annotations


def _label(path: str, nf) -> str:
    return nf.name or f"{path}:{nf.line}"


def _load_model(cli, path: str, keep: list):
    model = cli.Model.from_json(cli._read_json(path, keep))
    keep.append(model)
    return model


def _model_metadata(model) -> dict:
    from .. import trivalent

    return {
        "connectives": trivalent.CONNECTIVES,
        "implication": trivalent.IMPLICATION,
        "valuationDefault": "U",
        "defaultedValuationEntries": model.defaulted_valuations,
    }
