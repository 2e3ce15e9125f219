"""`sapta eval`: each closed formula's truth value over a model."""
from __future__ import annotations

from . import _label, _load_model, _model_metadata


def run(cli, args, keep: list) -> tuple[int, dict | list[str]]:
    model = _load_model(cli, args.model, keep)
    text = args.format == "text"
    paint = cli._painter() if text else None
    out = []
    keep.append(out)
    for path in args.paths:
        for nf in cli.parse_formula_file(cli._read(path), require_closed=True):
            value = cli.evaluate(nf.formula, model, incompat_mode=args.incompat).value
            if text:
                out.append(f"{_label(path, nf)}: {paint(value)}")
            else:
                out.append({"path": path, "name": nf.name, "line": nf.line,
                            "pretty": cli.pretty(nf.formula), "value": value})
    if text:
        return cli.EX_OK, out
    metadata = _model_metadata(model)
    metadata["incompatibilityMode"] = args.incompat
    return cli.EX_OK, {"results": out, "metadata": metadata}
