"""Decoding of the JSON inputs: models and judgment sets.

Each decoder checks the shape of its document as it reads it and raises
:class:`ModelError` naming the first part that is malformed.  Only the
commands that read a model or a judgment file (``eval`` and ``classify``)
load this module: ``Model.from_json`` and ``Judgment.from_json`` import it
when called, and ``Model(...)`` reaches its fault search only once a row
or pair has failed.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import ModelError
from .semantics import ContextDef, _index_of
from .trivalent import Tv3

if TYPE_CHECKING:
    from .predication import Judgment
    from .semantics import Model

__all__ = ["judgments_from_json"]


def model_from_json(cls: type[Model], data: dict) -> Model:
    """The body of ``Model.from_json``: check the object's shape, then build."""
    _object(data, "a model", "domain", "contexts", "predicates")
    domain = _names(data["domain"], "'domain'")
    ctx_objs = []
    for c in _array(data["contexts"], "'contexts'"):
        name = _name(_object(c, "every entry of 'contexts'", "name")["name"], "a context name")
        extension = _names(c.get("extension", []), "the extension of {!r}", name)
        ctx_objs.append(ContextDef(name, extension))
    predicates = _names(data["predicates"], "'predicates'")
    rows = _array(data.get("valuation", []), "'valuation'")
    incompatible = _array(data.get("incompatible", []), "'incompatible'")
    background = data.get("background")
    if background is not None:
        _name(background, "'background'")
    model = cls.__new__(cls)
    model._build(domain, ctx_objs, predicates, rows, incompatible, background)
    return model


def judgment_from_json(cls: type[Judgment], data: dict) -> Judgment:
    """The body of ``Judgment.from_json``."""
    _object(data, "a judgment")
    try:
        judgment = cls(data["context"], data["predicate"], Tv3.from_str(data["value"]))
    except (KeyError, TypeError, ValueError) as exc:
        _object(data, "a judgment", "context", "predicate", "value")
        raise ModelError(f"malformed judgment {data!r}: {exc}") from None
    if not (isinstance(judgment.context, str) and isinstance(judgment.predicate, str)):
        raise ModelError(f"malformed judgment {data!r}: context and predicate must be strings")
    return judgment


def judgments_from_json(data: list) -> tuple[Judgment, ...]:
    from .predication import Judgment

    return tuple(judgment_from_json(Judgment, row) for row in _array(data, "a judgment set"))


def _raise_row_fault(model: Model, rows: list) -> None:
    """Raise the ModelError for the first valuation row that is malformed
    or names an undeclared context, entity or predicate."""
    for row in rows:
        _object(row, "every valuation row", "context", "entity", "predicate", "value")
        try:
            Tv3.from_str(row["value"])
        except ValueError as exc:
            raise ModelError(f"malformed valuation row {row!r}: {exc}") from None
        for kind, index in (("context", model._context_index), ("entity", model._entity_index),
                            ("predicate", model._predicate_index)):
            name = row[kind]
            if _index_of(index, name) is None:
                _name(name, f"a valuation row's {kind}")
                raise ModelError(f"valuation names undeclared {kind} {name!r}")


def _pair_fault(pair) -> ModelError:
    """The error for an incompatible entry that could not be stored."""
    if (isinstance(pair, (list, tuple)) and len(pair) == 2
            and isinstance(pair[0], str) and isinstance(pair[1], str)):
        a, b = pair
        return ModelError(f"incompatible pair ({a!r}, {b!r}) names an undeclared context")
    return ModelError(f"incompatible entry must be a pair of context names, got {pair!r}")


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise ModelError(f"{what} must be an array, got {type(value).__name__}")
    return value


def _object(value, what: str, *keys: str) -> dict:
    if not isinstance(value, dict):
        raise ModelError(f"{what} must be a JSON object, got {type(value).__name__}")
    for key in keys:
        if key not in value:
            raise ModelError(f"{what} must have a {key!r} key")
    return value


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise ModelError(f"{what} must be a string, got {value!r}")
    return value


def _names(value, what: str, *args) -> list[str]:
    """`value`, checked to be an array of strings.  `what`, formatted with
    `args`, names it in the error, and is formatted only when one is raised."""
    if not (isinstance(value, list) and all(isinstance(name, str) for name in value)):
        what = what.format(*args)
        for name in _array(value, what):
            _name(name, "every entry of " + what)
    return value
