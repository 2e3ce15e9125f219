"""`sapta classify`: a judgment set's predication class and its schema."""
from __future__ import annotations

from .. import schema_formula_for
from ..errors import SaptaError
from . import _load_model, _model_metadata


def run(cli, args, keep: list) -> tuple[int, dict | list[str]]:
    path = args.judgments_path or args.judgments
    if path is None or (args.judgments_path and args.judgments):
        raise SaptaError("give the judgment file either positionally or via --judgments")
    model = _load_model(cli, args.model, keep)
    judgments = cli.judgments_from_json(cli._read_json(path, keep))
    keep.append(judgments)
    predicate = args.predicate
    if predicate is None:
        names = sorted({j.predicate for j in judgments})
        if len(names) != 1:
            raise SaptaError(
                f"--predicate required: judgment set mentions {len(names)} predicates {names}"
            )
        predicate = names[0]
    cls = cli.classify(judgments, model, predicate)
    formula = schema_formula_for(cls, predicate)
    schema_text = cli.pretty(formula) if formula is not None else None
    if args.format == "text":
        lines = [cli._class_text(cls)]
        if cls.contexts_used:
            lines.append("contexts: " + ", ".join(cls.contexts_used))
        if schema_text:
            lines.append("schema: " + schema_text)
        return cli.EX_OK, lines
    out = cls.to_json()
    out["schemaFormula"] = schema_text
    out["metadata"] = _model_metadata(model)
    return cli.EX_OK, out
