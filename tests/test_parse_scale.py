"""`sapta parse` on a file of about a thousand depth-6 formulas writes what the
stock JSON encoder writes for the same entries."""
import json
import random
import re

from helpers_formulas import random_formula

from sapta.cli import EX_OK, main
from sapta.formulas import ast_to_dict, pretty

_ALIASES = {"<->": "↔", "->": "→", "forall": "∀", "exists": "∃", "~": "¬", "&": "∧", "|": "∨"}
_SPELLINGS = re.compile("|".join(re.escape(plain) for plain in _ALIASES))


def test_parse_output_of_a_large_file_is_stock_json(tmp_path, capsys):
    rng = random.Random(20251019)
    lines, entries = [], []
    for k in range(1000):
        f = random_formula(rng, depth=6)
        text = pretty(f)
        if k % 3 == 0:
            text = _SPELLINGS.sub(lambda m: _ALIASES[m.group()], text)
        name = f"f{k}" if k % 10 == 0 else None
        lines.append(f"let {name} = {text}" if name else text)
        if k % 7 == 0:
            lines[-1] += "  # é ∀ ¬"
        entries.append({"name": name, "line": len(lines), "pretty": pretty(f), "ast": ast_to_dict(f)})
        if k % 50 == 0:
            lines += ["", "# a comment line"]
    path = tmp_path / "large.lgc"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert main(["parse", str(path)]) == EX_OK
    out = capsys.readouterr().out
    entries = [{"path": str(path), **entry} for entry in entries]
    assert out == json.dumps({"formulas": entries}, indent=2, ensure_ascii=False) + "\n"
