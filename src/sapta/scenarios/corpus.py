"""The corpus: every built-in scenario, classified against its expected class."""
from __future__ import annotations

from typing import Callable

from ..records import Record
from . import ScenarioReport, classify
from .cat import find_cat_seed, scenario_cat
from .double_slit import scenario_double_slit
from .epr import scenario_epr
from .qcc import scenario_qcc
from .threshold import scenario_threshold
from .wigner import scenario_wigner

__all__ = ["CORPUS_ORDER", "CorpusResult", "run_corpus"]

# The corpus, in output order: each entry's name and its report for a base
# seed.  The open-box entries pin their branch by searching forward from the
# base seed for one whose honest sample lands on that branch.
_CORPUS: tuple[tuple[str, Callable[[int], ScenarioReport]], ...] = (
    ("double_slit", lambda seed: scenario_double_slit()),
    ("cat_closed", lambda seed: scenario_cat(False, seed)),
    ("cat_open_alive", lambda seed: scenario_cat(True, find_cat_seed(seed, want_alive=True))),
    ("cat_open_dead", lambda seed: scenario_cat(True, find_cat_seed(seed, want_alive=False))),
    ("wigner", lambda seed: scenario_wigner()),
    ("epr", lambda seed: scenario_epr()),
    ("qcc", lambda seed: scenario_qcc()),
    ("threshold", lambda seed: scenario_threshold()),
)
CORPUS_ORDER = tuple(name for name, _ in _CORPUS)


class CorpusResult(Record):
    __slots__ = _fields = ("name", "report", "classified")

    @property
    def match(self) -> bool:
        return self.classified == self.report.expected_class

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expectedClass": self.report.expected_class.to_json(),
            "classifiedClass": self.classified.to_json(),
            "match": self.match,
        }


def run_corpus(seed: int = 0) -> list[CorpusResult]:
    """Generate every built-in scenario and classify its judgments.

    Output order is fixed regardless of execution strategy; each result
    compares the classifier's verdict against the scenario's expectation.
    """
    results = []
    for name, build in _CORPUS:
        report = build(seed)
        predicate = report.judgments[0].predicate
        classified = classify(report.judgments, report.model, predicate)
        results.append(CorpusResult(name, report, classified))
    return results
