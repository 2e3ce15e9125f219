"""Contextual three-valued logic with sevenfold predication.

A formula language over guarded, context-qualified assertions; strong-Kleene
evaluation on finite models; classification of context-tagged judgments into
the seven predications; and scenario generators that produce such judgments
from small quantum and psychophysics models.
"""

from .errors import (
    ArityMismatch,
    BadCuts,
    BasisMismatch,
    DimensionMismatch,
    DuplicateContext,
    ModelError,
    NotASchema,
    OrthogonalSelection,
    ParseError,
    SaptaError,
    UnboundVariable,
    UndeclaredName,
)
from .formulas import (
    And,
    ContextGuard,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateApp,
    SourceSpan,
    ast_to_dict,
    free_variables,
    pretty,
    schema,
    undet_name,
)
from .parser import NamedFormula, parse, parse_formula_file
from .predication import (
    CertificateRow,
    Entailment,
    Judgment,
    PredicationClass,
    PredicationTag,
    SANSKRIT_NAMES,
    canonical_witness,
    classify,
    entails,
    induced_model,
    judgments_from_json,
    judgments_to_json,
    mutual_exclusivity_certificate,
    schema_formula_for,
    tag_for_values,
)
from .quantum import (
    Operator,
    StateVector,
    fringe_visibility,
    inner_product,
    tensor_product,
    weak_value,
)
from .semantics import ContextDef, Model, check_incompatibility, evaluate, guard_of
from .scenarios import (
    CorpusResult,
    ScenarioReport,
    find_cat_seed,
    run_corpus,
    scenario_cat,
    scenario_double_slit,
    scenario_epr,
    scenario_qcc,
    scenario_threshold,
    scenario_wigner,
)
from .trivalent import Tv3, conj3, disj3, iff3, impl3, neg3

__version__ = "0.1.0"
