"""The README's "Library example" runs as written."""
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library example", "exec"), {})
    assert capsys.readouterr().out == (
        "forall x. ((box_open(x) -> alive(x)) & (box_closed(x) -> alive_undet(x))"
        " & ~(box_open(x) <-> box_closed(x)))\n"
    )
