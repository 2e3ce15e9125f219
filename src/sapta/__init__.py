"""Contextual three-valued logic with sevenfold predication.

A formula language over guarded, context-qualified assertions; strong-Kleene
evaluation on finite models; classification of context-tagged judgments into
the seven predications; and scenario generators that produce such judgments
from small quantum and psychophysics models.

The names below are loaded on first use (PEP 562), so ``import sapta``, and
each CLI command, imports only the submodules it needs.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    "errors": (
        "ArityMismatch", "BadCuts", "BasisMismatch", "DimensionMismatch", "DuplicateContext",
        "ModelError", "OrthogonalSelection", "ParseError", "SaptaError",
        "UnboundVariable", "UndeclaredName",
    ),
    "certificate": ("CertificateRow", "canonical_witness", "mutual_exclusivity_certificate"),
    "evaluation": ("evaluate",),
    "formulas": (
        "And", "ContextGuard", "Exists", "ForAll", "Formula", "Iff", "Implies", "Not", "Or",
        "PredicateApp", "SourceSpan", "ast_to_dict", "free_variables", "pretty",
    ),
    "inputs": ("judgments_from_json",),
    "parser": ("NamedFormula", "parse", "parse_formula_file"),
    "predication": (
        "Entailment", "Judgment", "PredicationClass", "PredicationTag", "SANSKRIT_NAMES",
        "classify", "entails", "induced_model", "judgments_to_json", "schema_formula_for",
        "tag_for_values",
    ),
    "quantum": (
        "Operator", "StateVector", "fringe_visibility", "inner_product", "tensor_product",
        "weak_value",
    ),
    "records": ("undet_name",),
    "sampling": (),  # the cat scenario's draws; no public name
    "schemas": ("schema",),
    "semantics": ("ContextDef", "Model"),
    "scenarios": (
        "CorpusResult", "ScenarioReport", "find_cat_seed", "run_corpus", "scenario_cat",
        "scenario_double_slit", "scenario_epr", "scenario_qcc", "scenario_threshold",
        "scenario_wigner",
    ),
    "trivalent": ("Tv3", "conj3", "disj3", "iff3", "impl3", "neg3"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)

# Limits and choices the CLI's argument parser needs before any command runs;
# defined here so that reading them does not import `scenarios`.
SCENARIO_NAMES = ("double_slit", "cat", "wigner", "epr", "qcc", "threshold")
# Most intensity levels one threshold scenario takes.  Its model declares
# every pair of levels incompatible, so memory grows with the square of the
# level count: at 256 levels a run peaks at about 18 MB RSS under `--format
# text` and 28 MB under JSON; at 1,000, 57 and 192 MB.
MAX_LEVELS = 256
# Most outcomes one `scenario cat --open --trials` run samples.  Memory stays
# constant, since the draws come in fixed-size chunks, but time grows with
# the count: 10^8 trials take about 0.9 s on one Xeon core, so the limit
# takes about 9 s.
MAX_TRIALS = 10**9


def __getattr__(name: str):
    # `__import__`, unlike `importlib.import_module`, goes through the import
    # statement's machinery, so `-X importtime` lists the modules it loads.
    if name in _HOMES:  # a submodule not imported yet
        return __import__(name, globals(), None, (), 1)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(_HOME[name], globals(), None, (), 1), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *__all__})
