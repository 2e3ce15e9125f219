"""Scenario generators: context-tagged judgments from toy physical models.

Each generator builds a small state-vector computation and derives a
judgment set over mutually incompatible observation contexts; ``_report``
adds the induced model and the expected predication class.  All randomness
comes from numpy's seeded PCG64 generator (``numpy.random.default_rng``),
so reports are reproducible bit-for-bit given the same parameters and
seed.  The draws are in ``sampling``, which only an opened box loads: its
one draw is computed in pure Python, and only a cat run with ``trials``
imports numpy, for its bulk sample.

Each generator lives in a submodule of its own, and the corpus in
``corpus``; this package holds what they share and loads each of their
names on first use (PEP 562), so a scenario request compiles only its own
generator, and ``threshold``, which uses no state vector, never loads
``quantum``.
"""
from __future__ import annotations

import math
from typing import Sequence

from .. import MAX_LEVELS, SCENARIO_NAMES
from ..predication import (
    Judgment,
    PredicationClass,
    PredicationTag,
    classify,
    induced_model,
    judgments_to_json,
    tag_for_values,
)
from ..records import Record
from ..semantics import Model
from ..trivalent import Tv3

# Submodule -> the names it defines.  `weak_value` is quantum's: the Cheshire
# cat calls it through this package, as `scenarios.weak_value`, so that a
# caller can rebind it here, as the traced benchmark replay does.
_HOMES = {
    "double_slit": ("scenario_double_slit",),
    "cat": ("scenario_cat", "find_cat_seed", "_P_ALIVE"),
    "wigner": ("scenario_wigner",),
    "epr": ("scenario_epr",),
    "qcc": ("scenario_qcc", "weak_value"),
    "threshold": ("scenario_threshold",),
    "corpus": ("CORPUS_ORDER", "CorpusResult", "run_corpus", "_CORPUS"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["ScenarioReport", "SCENARIO_NAMES",
           *(name for name in _HOME if name[0] != "_" and name != "weak_value")]

_SQRT2 = math.sqrt(2.0)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_HOME[name], globals(), None, (), 1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


class ScenarioReport(Record):
    """A scenario's model, judgments, expected class, and numeric evidence."""

    __slots__ = _fields = ("scenario_name", "model", "judgments", "expected_class", "numeric_witness")

    def __init__(
        self,
        scenario_name: str,
        model: Model,
        judgments: tuple[Judgment, ...],
        expected_class: PredicationClass,
        numeric_witness: dict[str, float | complex] | None = None,
    ):
        for j in judgments:
            if not model.is_context(j.context):
                raise ValueError(f"judgment context {j.context!r} not declared in scenario model")
        object.__setattr__(self, "scenario_name", scenario_name)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "judgments", judgments)
        object.__setattr__(self, "expected_class", expected_class)
        object.__setattr__(self, "numeric_witness", {} if numeric_witness is None else numeric_witness)

    def to_json(self) -> dict:
        witness = {}
        for name, v in self.numeric_witness.items():
            if isinstance(v, complex):  # `threshold` has none, so it never loads quantum
                from ..quantum import complex_to_json

                witness[name] = complex_to_json(v)
            else:
                witness[name] = float(v)
        return {
            "scenarioName": self.scenario_name,
            "model": self.model.to_json(),
            "judgments": judgments_to_json(self.judgments),
            "expectedClass": self.expected_class.to_json(),
            "numericWitness": witness,
        }


def _report(name: str, predicate: str, entity: str, judgments: Sequence[Judgment],
            witness: dict[str, float | complex]) -> ScenarioReport:
    """A scenario's report on its judgments about `predicate` of `entity`.

    Each context is an arrangement of its own, incompatible with every
    other, so the asserted values alone fix the expected class: the tag of
    their set, with the lexicographically first context per value as
    witness, in T, F, U order; no judgment at all is Degenerate.  The rule
    is stated here apart from ``classify``, which the corpus checks
    against it.
    """
    judgments = tuple(judgments)
    values = [v for v in (Tv3.TRUE, Tv3.FALSE, Tv3.UNDET) if any(j.value is v for j in judgments)]
    if values:
        model = induced_model(judgments, predicate, entity)
        contexts = tuple(min(j.context for j in judgments if j.value is v) for v in values)
        expected = PredicationClass(tag_for_values(values), contexts)
    else:
        model = Model([entity], [], [predicate])
        expected = PredicationClass(PredicationTag.DEGENERATE, ())
    return ScenarioReport(name, model, judgments, expected, witness)
