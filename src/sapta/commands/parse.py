"""`sapta parse`: each formula's pretty form and syntax tree."""
from __future__ import annotations

from . import _label


def run(cli, args, keep: list) -> tuple[int, dict | list[str]]:
    text = args.format == "text"
    out = []
    keep.append(out)
    for path in args.paths:
        for nf in cli.parse_formula_file(cli._read(path)):
            if text:
                out.append(f"{_label(path, nf)}: {cli.pretty(nf.formula)}")
            else:
                out.append({"path": path, "name": nf.name, "line": nf.line,
                            "pretty": cli.pretty(nf.formula), "ast": cli.ast_to_dict(nf.formula)})
    return cli.EX_OK, out if text else {"formulas": out}
