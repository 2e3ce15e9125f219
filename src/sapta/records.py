"""The base every other module builds on: value records and the predication table.

``Record`` is the immutable value object that the AST nodes and the result
records derive from, and ``PREDICATIONS`` is the one table of the seven
predications.  They live apart from the formula layer so that a command
that only classifies judgments (``scenario``, ``corpus``, ``exclusivity``)
never loads ``formulas``.  This module imports no other sapta module.
"""
from __future__ import annotations

from types import FunctionType

__all__ = ["Record", "PREDICATIONS", "UNDET_SUFFIX", "undet_name"]


# The code of every constructor `_constructor` has built.
_GENERATED: set = set()


class Record:
    """Immutable value object whose identity is its class and ``_fields``.

    Two records are equal when they have the same class and equal fields,
    and equal records hash equally.  ``repr`` shows the fields, assignment
    raises ``AttributeError``, and pickle and ``copy`` rebuild a record
    through its constructor from ``_init_args``.

    A subclass writes its fields once, as ``__slots__ = _fields = (...)``,
    and gets a constructor taking them in order, generated when the class
    is created; a class keyword ``defaults=(...)`` gives the last fields
    defaults, as for ``collections.namedtuple``.  The constructor then
    takes the class's ``_trailing`` parameters, each defaulting to None and
    stored in the slot of its name with a leading underscore: a ``Formula``
    node's takes ``span=None`` after its fields.  A subclass without
    ``_fields`` of its own gets a copy of its parent's generated constructor
    under its own name, so that a wrong-arity call names the class called;
    one whose constructor must do more than store its arguments writes
    ``__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _trailing: tuple[str, ...] = ()

    def __init_subclass__(cls, defaults=(), **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            return
        if "_fields" in cls.__dict__:
            cls.__init__ = _constructor(cls, tuple(defaults))
        elif getattr(cls.__init__, "__code__", None) in _GENERATED:
            f = cls.__init__
            init = FunctionType(f.__code__, f.__globals__, f.__name__, f.__defaults__, f.__closure__)
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _init_args(self) -> tuple:
        return self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._init_args()


def _constructor(cls, defaults: tuple):
    """``__init__`` storing its arguments through the class's slot descriptors.

    Built as ``collections.namedtuple`` builds ``__new__``: one ``exec`` of a
    ``def`` whose parameters are the field names, which come from class
    literals, so ``inspect.signature`` and keyword calls work.  Storing
    through the slot descriptors' ``__set__`` builds a node about twice as
    fast as going through ``object``'s ``__setattr__``, and the parser builds
    one node per atom and connective.
    """
    params = [*cls._fields, *cls._trailing]
    slots = [*cls._fields, *("_" + name for name in cls._trailing)]
    defaults += (None,) * len(cls._trailing)
    namespace = {f"_set{i}": getattr(cls, slot).__set__ for i, slot in enumerate(slots)}
    namespace["__name__"] = cls.__module__
    stores = "".join(f"\n    _set{i}(self, {param})" for i, param in enumerate(params))
    exec(f"def __init__(self, {', '.join(params)}):{stores}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    _GENERATED.add(init.__code__)
    return init


# ---------------------------------------------------------------------------
# The seven predications.

UNDET_SUFFIX = "_undet"


def undet_name(predicate: str) -> str:
    """Companion predicate asserting that `predicate` is indeterminate.

    The indeterminacy branch of a schema cannot be phrased in terms of the
    content predicate alone (no strong-Kleene formula is T exactly when its
    input is U), so schemas use a derived predicate; model induction from
    judgments valuates it.
    """
    return predicate + UNDET_SUFFIX


# The seven predications, one row per nonempty subset of {T, F, U}: row k is
# schema k and class Pk.  A row holds the asserted values in witness order
# T, F, U and the transliterated name.  The schema's arity is the number of
# values, and each letter fixes a consequent: T the plain atom, F the negated
# atom, U the companion indeterminacy atom.
PREDICATIONS = {
    1: ("T", "syāt asti"),
    2: ("F", "syāt nāsti"),
    3: ("U", "syāt avaktavyam"),
    4: ("TF", "syāt asti cha nāsti cha"),
    5: ("TU", "syāt asti cha avaktavyam cha"),
    6: ("FU", "syāt nāsti cha avaktavyam cha"),
    7: ("TFU", "syād asti cha nāsti cha avaktavyam cha"),
}
