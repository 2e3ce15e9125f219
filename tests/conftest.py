"""Fixtures shared by the test modules."""
import pytest


@pytest.fixture(scope="session")
def big_formulas(tmp_path_factory) -> str:
    """The path of an ASCII file of 1,000 formulas: its `parse` output is
    about 2 MB as JSON and 100 KB as text, past a pipe's capacity and past
    stdout's buffer, so that a failed write fails in the write itself."""
    path = tmp_path_factory.mktemp("big") / "big.lgc"
    path.write_text("".join(
        f"let f{i} = forall x. ((c(x) -> (p(x) & ~q(x))) & (d(x) -> (q(x) | ~p(x))) & ~(c(x) <-> d(x)))\n"
        for i in range(1000)
    ))
    return str(path)
