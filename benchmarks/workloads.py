"""Seeded workload generators and the references their responses are checked against.

Every input the program receives is generated here from the workload seed
and written to files; every expected value is computed here, by code that
does not import ``sapta``.  Evaluation references use strong-Kleene min/max
over the chain F < U < T on the generated arrays; classification references
are known by construction; parse references are the dict form of the trees
the generator built.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

# Strong-Kleene values as ranks on the chain F < U < T.
F, U, T = 0, 1, 2
TEXT = {F: "F", U: "U", T: "T"}
RANK = {"F": F, "U": U, "T": T}

EX_OK = 0
EX_ERROR = 1


@dataclass
class Request:
    """One `sapta` invocation with its expected exit code and output.

    ``check(expected, output)`` returns None when the parsed JSON output
    matches ``expected`` and otherwise a one-line reason.
    """

    key: str
    argv: list[str]
    expected: object
    check: Callable[[object, dict], str | None]
    exit_code: int = EX_OK


@dataclass
class Workload:
    requests: list[Request]
    files: dict[str, str] = field(default_factory=dict)

    def write(self, directory: Path) -> None:
        for name, text in self.files.items():
            (directory / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Formulas: same tree shape as the round-trip generator in the test suite.

NAMES = ("p", "q", "r", "phi", "psi", "chi")
VARS = ("x", "y", "z")
_BINARY = {"And": "&", "Or": "|", "Implies": "->", "Iff": "<->"}


def random_tree(rng: random.Random, depth: int) -> dict:
    """Random formula tree in the dict form `sapta parse` emits as ``ast``."""
    if depth <= 0 or rng.random() < 0.25:
        return {"node": "PredicateApp", "name": rng.choice(NAMES), "var": rng.choice(VARS)}
    kind = rng.randrange(10)
    if kind < 2:
        return {"node": "Not", "operand": random_tree(rng, depth - 1)}
    if kind < 8:
        node = ("And", "And", "Or", "Or", "Implies", "Iff")[kind - 2]
        left = random_tree(rng, depth - 1)
        return {"node": node, "left": left, "right": random_tree(rng, depth - 1)}
    node = "ForAll" if kind == 8 else "Exists"
    var = rng.choice(VARS)
    return {"node": node, "var": var, "body": random_tree(rng, depth - 1)}


def render(tree: dict) -> str:
    """Fully parenthesized concrete syntax, so no precedence rule is relied on."""
    node = tree["node"]
    if node == "PredicateApp":
        return f"{tree['name']}({tree['var']})"
    if node == "Not":
        return "~" + render(tree["operand"])
    if node in _BINARY:
        return f"({render(tree['left'])} {_BINARY[node]} {render(tree['right'])})"
    keyword = "forall" if node == "ForAll" else "exists"
    return f"({keyword} {tree['var']}. {render(tree['body'])})"


def formula_file(rng: random.Random, count: int, depth: int) -> tuple[str, list[dict]]:
    trees = [random_tree(rng, depth) for _ in range(count)]
    return "".join(render(t) + "\n" for t in trees), trees


def formula_file_of_size(rng: random.Random, chars: int, depth: int) -> tuple[str, list[dict]]:
    """Formulas drawn until the file holds at least `chars` characters, so the
    parser's work varies little from seed to seed (a fixed count of random
    trees varies by about 7 %)."""
    lines, trees, size = [], [], 0
    while size < chars:
        tree = random_tree(rng, depth)
        lines.append(render(tree) + "\n")
        trees.append(tree)
        size += len(lines[-1])
    return "".join(lines), trees


def check_parse(expected: list[dict], out: dict) -> str | None:
    formulas = out.get("formulas")
    if not isinstance(formulas, list) or len(formulas) != len(expected):
        return f"expected {len(expected)} formulas"
    for line, (tree, entry) in enumerate(zip(expected, formulas), start=1):
        if entry.get("line") != line or entry.get("name") is not None:
            return f"formula {line}: wrong line or name"
        if not isinstance(entry.get("pretty"), str):
            return f"formula {line}: no pretty form"
        if entry.get("ast") != tree:
            return f"formula {line}: ast differs from the generated tree"
    return None


def check_parse_error(expected: str, out: dict) -> str | None:
    error = out.get("error")
    if not isinstance(error, dict) or error.get("kind") != expected:
        return f"expected an error object of kind {expected}"
    if not isinstance(error.get("span"), dict):
        return "error object carries no span"
    return None


# ---------------------------------------------------------------------------
# Evaluation: three contexts, predicates p / p_undet / q, and the seven schemas.

EVAL_CONTEXTS = ("c1", "c2", "c3")
EVAL_PREDICATES = ("p", "p_undet", "q")
# Each context reads one branch: c1 asserts p, c2 asserts ~p, c3 asserts p_undet.
# Per context: the predicate the branch reads and whether it is negated.
_BRANCH = {"c1": ("p", False), "c2": ("p", True), "c3": ("p_undet", False)}
# Schema k -> its guard contexts, in the published T, F, U consequent order.
SCHEMA_CONTEXTS = {
    1: ("c1",),
    2: ("c2",),
    3: ("c3",),
    4: ("c1", "c2"),
    5: ("c1", "c3"),
    6: ("c2", "c3"),
    7: ("c1", "c2", "c3"),
}


def schema_text(k: int) -> str:
    contexts = SCHEMA_CONTEXTS[k]
    parts = []
    for c in contexts:
        predicate, negated = _BRANCH[c]
        atom = f"{'~' if negated else ''}{predicate}(x)"
        parts.append(f"({c}(x) -> {atom})")
    for a, b in combinations(contexts, 2):
        parts.append(f"~({a}(x) <-> {b}(x))")
    return f"let S{k} = forall x. ({' & '.join(parts)})"


SCHEMA_FILE = "".join(schema_text(k) + "\n" for k in SCHEMA_CONTEXTS)


def eval_model(rng: random.Random, n: int, listed_share: float = 0.9) -> dict:
    """Model JSON with n entities, three half-domain contexts and three predicates.

    Inside each context's extension the cell its schema branch reads holds the
    branch's good value, except for at most one seeded spoiler (an unlisted U
    cell or a bad value), so the seven schemas come out in a mix of T, F and
    U.  Unlisted cells are drawn from the cells no branch reads.
    """
    entities = [f"e{i:05d}" for i in range(n)]
    extension = {c: sorted(rng.sample(range(n), n // 2)) for c in EVAL_CONTEXTS}
    values: dict[tuple[str, int, str], int] = {}
    read = set()
    for c in EVAL_CONTEXTS:
        predicate, negated = _BRANCH[c]
        for i in extension[c]:
            values[(c, i, predicate)] = F if negated else T
            read.add((c, i, predicate))
    spoiled_unlisted = set()
    for c in EVAL_CONTEXTS:
        predicate, negated = _BRANCH[c]
        spoiler = rng.randrange(3)
        if spoiler and extension[c]:
            i = rng.choice(extension[c])
            if spoiler == 1:
                spoiled_unlisted.add((c, i, predicate))
            else:
                values[(c, i, predicate)] = T if negated else F
    free = [
        (c, i, p)
        for c in EVAL_CONTEXTS
        for i in range(n)
        for p in EVAL_PREDICATES
        if (c, i, p) not in read
    ]
    total = n * len(EVAL_CONTEXTS) * len(EVAL_PREDICATES)
    unlisted_target = total - round(listed_share * total) - len(spoiled_unlisted)
    unlisted = set(rng.sample(free, max(0, min(len(free), unlisted_target)))) | spoiled_unlisted
    for cell in free:
        values[cell] = rng.randrange(3)
    rows = [
        {"context": c, "entity": entities[i], "predicate": p, "value": TEXT[values[(c, i, p)]]}
        for c in EVAL_CONTEXTS
        for i in range(n)
        for p in EVAL_PREDICATES
        if (c, i, p) not in unlisted
    ]
    incompatible = [[a, b] for a, b in combinations(EVAL_CONTEXTS, 2) if rng.random() < 0.75]
    return {
        "domain": entities,
        "background": "c1",
        "contexts": [
            {"name": c, "extension": [entities[i] for i in extension[c]]} for c in EVAL_CONTEXTS
        ],
        "predicates": list(EVAL_PREDICATES),
        "valuation": rows,
        "incompatible": incompatible,
    }


def kleene_schema_values(model: dict) -> dict[str, str]:
    """Reference value of each schema S1..S7 over a model JSON object.

    conj = min, impl(a, b) = max(2 - a, b), forall = min over the domain
    (T when empty); guards are bivalent membership tests, and each
    ``~(ci(x) <-> cj(x))`` clause reads the declared relation.
    """
    cells = {
        (row["context"], row["entity"], row["predicate"]): RANK[row["value"]]
        for row in model["valuation"]
    }
    extension = {c["name"]: set(c["extension"]) for c in model["contexts"]}
    declared = {frozenset(pair) for pair in model["incompatible"]}
    out = {}
    for k, contexts in SCHEMA_CONTEXTS.items():
        value = T
        for a, b in combinations(contexts, 2):
            value = min(value, T if frozenset((a, b)) in declared else F)
        for entity in model["domain"]:
            for c in contexts:
                guard = T if entity in extension[c] else F
                predicate, negated = _BRANCH[c]
                cell = cells.get((c, entity, predicate), U)
                consequent = T - cell if negated else cell
                value = min(value, max(T - guard, consequent))
        out[f"S{k}"] = TEXT[value]
    return out


def eval_expectation(model: dict) -> dict:
    total = len(model["domain"]) * len(model["contexts"]) * len(model["predicates"])
    return {"values": kleene_schema_values(model), "defaulted": total - len(model["valuation"])}


def check_eval(expected: dict, out: dict) -> str | None:
    results = out.get("results")
    if not isinstance(results, list):
        return "no results list"
    got = {r.get("name"): r.get("value") for r in results}
    if list(got) != list(expected["values"]) or len(results) != len(got):
        return f"expected results for {list(expected['values'])}"
    for name, value in expected["values"].items():
        if got[name] != value:
            return f"{name}: got {got[name]}, reference {value}"
    metadata = out.get("metadata", {})
    if metadata.get("defaultedValuationEntries") != expected["defaulted"]:
        return f"defaultedValuationEntries is not {expected['defaulted']}"
    if metadata.get("incompatibilityMode") != "relational":
        return "incompatibilityMode is not relational"
    return None


# ---------------------------------------------------------------------------
# Classification.

TAGS = {
    frozenset("T"): "P1",
    frozenset("F"): "P2",
    frozenset("U"): "P3",
    frozenset("TF"): "P4",
    frozenset("TU"): "P5",
    frozenset("FU"): "P6",
    frozenset("TFU"): "P7",
}


def classify_reference(judgments: list[dict], incompatible) -> dict:
    """Class and witnesses of a one-predicate judgment set, by the paper's rule.

    Distinct values are licensed only across declared-incompatible contexts;
    witnesses are the smallest context name per value, in T, F, U order.
    """
    declared = {frozenset(pair) for pair in incompatible}
    by_context: dict[str, str] = {}
    for j in judgments:
        seen = by_context.setdefault(j["context"], j["value"])
        if seen != j["value"]:
            return {"class": "Inconsistent", "contexts": [j["context"]]}
    if not by_context:
        return {"class": "Degenerate", "contexts": []}
    for a, b in combinations(sorted(by_context), 2):
        if by_context[a] != by_context[b] and frozenset((a, b)) not in declared:
            return {"class": "Inconsistent", "contexts": [a]}
    values = set(by_context.values())
    witnesses = [min(c for c, v in by_context.items() if v == value) for value in "TFU" if value in values]
    return {"class": TAGS[frozenset(values)], "contexts": witnesses}


def classify_model(rng: random.Random, k: int) -> tuple[dict, tuple[str, str]]:
    """Model JSON with k contexts over one entity; all pairs incompatible but one.

    Returns the model and its one compatible pair (a, b), a < b.  The pair
    is drawn from the last tenth of the contexts, so a scan for it costs
    about the same whatever the seed.
    """
    names = [f"k{i:03d}" for i in range(k)]
    a, b = sorted(rng.sample(range(k - max(2, k // 10), k), 2))
    compatible = (names[a], names[b])
    model = {
        "domain": ["e"],
        "background": names[0],
        "contexts": [{"name": c, "extension": ["e"]} for c in names],
        "predicates": ["p"],
        "valuation": [
            {"context": c, "entity": "e", "predicate": "p", "value": rng.choice("TFU")}
            for c in names
        ],
        "incompatible": [
            [x, y] for x, y in combinations(names, 2) if (x, y) != compatible
        ],
    }
    return model, compatible


def classify_sets(rng: random.Random, model: dict, compatible: tuple[str, str]):
    """The P7, P1 and Inconsistent judgment sets over every context, with
    their expected class and witnesses known by construction."""
    names = [c["name"] for c in model["contexts"]]
    rng.shuffle(names)
    a, b = compatible
    values = {c: "TFU"[i % 3] for i, c in enumerate(names)}
    # P7 (for k >= 4): the compatible pair agrees, so no clash is licensed.
    p7 = dict(values)
    p7[b] = p7[a]
    p7_witness = [min(c for c, v in p7.items() if v == value) for value in "TFU"]
    # Inconsistent: the compatible pair disagrees; it is the only such pair.
    clash = dict(values)
    clash[b] = "TFU"[("TFU".index(clash[a]) + 1) % 3]

    def judgments(assignment):
        return [{"context": c, "predicate": "p", "value": v} for c, v in assignment.items()]

    return [
        ("P7", judgments(p7), {"class": "P7", "contexts": p7_witness}),
        ("P1", judgments({c: "T" for c in names}), {"class": "P1", "contexts": [min(names)]}),
        ("Inconsistent", judgments(clash), {"class": "Inconsistent", "contexts": [a]}),
    ]


def check_classify(expected: dict, out: dict) -> str | None:
    got = {"class": out.get("class"), "contexts": out.get("contexts")}
    if got != expected:
        return f"got {got}, reference {expected}"
    if (out.get("schemaFormula") is None) != (expected["class"] == "Inconsistent"):
        return "schemaFormula present exactly for P1..P7"
    return None


# ---------------------------------------------------------------------------
# Scenarios, corpus and the certificate: the paper's classes.

SCENARIO_CLASS = {
    "double_slit": "P7",
    "cat": None,  # P5 when the opened box shows the cat alive, P6 when dead
    "wigner": "P5",
    "epr": "P5",
    "qcc": "P7",
    "threshold": "P7",
}
CORPUS_CLASS = {
    "double_slit": "P7",
    "cat_closed": "P3",
    "cat_open_alive": "P5",
    "cat_open_dead": "P6",
    "wigner": "P5",
    "epr": "P5",
    "qcc": "P7",
    "threshold": "P7",
}
# Weak values of the Cheshire-cat set-up, worked by hand: <post|pre> = i/2.
QCC_WEAK_VALUES = {
    "weak_value_path_L": (1.0, 0.0),
    "weak_value_path_R": (0.0, 0.0),
    "weak_value_polarization_L": (0.0, 0.0),
    "weak_value_polarization_R": (1.0, 0.0),
}
CAT_TRIALS = 1_000_000


def check_scenario(expected: dict, out: dict) -> str | None:
    name = expected["name"]
    if out.get("scenarioName") != name:
        return f"scenarioName is not {name}"
    judgments = out.get("judgments", [])
    witness = out.get("numericWitness", {})
    paper = expected["class"]
    if name == "cat":
        opened = [j for j in judgments if j.get("context") == "box_open"]
        if len(opened) != 1 or opened[0].get("value") not in ("T", "F"):
            return "opened box carries no T/F judgment"
        alive = opened[0]["value"] == "T"
        paper = "P5" if alive else "P6"
        if witness.get("sampled_alive") != (1.0 if alive else 0.0):
            return "sampled_alive disagrees with the opened-box judgment"
        # Six standard deviations of a Bernoulli(1/2) mean over the trials.
        frequency = witness.get("alive_frequency")
        if not isinstance(frequency, float) or abs(frequency - 0.5) > 3 / math.sqrt(CAT_TRIALS):
            return f"alive_frequency {frequency} is not within 6 sigma of 1/2"
    if name == "qcc":
        for key, (re, im) in QCC_WEAK_VALUES.items():
            z = witness.get(key, {})
            if abs(z.get("re", math.inf) - re) > 1e-9 or abs(z.get("im", math.inf) - im) > 1e-9:
                return f"{key} is {z}, not {re}+{im}i"
    got = out.get("expectedClass")
    if not isinstance(got, dict) or got.get("class") != paper:
        return f"expectedClass is {got}, the paper's class is {paper}"
    reference = classify_reference(judgments, out.get("model", {}).get("incompatible", []))
    if reference != got:
        return f"expectedClass {got} differs from classifying its judgments: {reference}"
    return None


def check_corpus(expected: dict, out: dict) -> str | None:
    if out.get("allMatch") is not True:
        return "allMatch is not true"
    results = out.get("results", [])
    got = {r.get("name"): r.get("classifiedClass", {}).get("class") for r in results}
    if got != expected or len(results) != len(expected):
        return f"classified {got}, the paper's classes are {expected}"
    for r in results:
        if r.get("match") is not True or r.get("expectedClass") != r.get("classifiedClass"):
            return f"{r.get('name')}: expected and classified classes differ"
    return None


def check_exclusivity(expected: int, out: dict) -> str | None:
    rows = out.get("rows", [])
    pairs = {(r.get("first"), r.get("second")) for r in rows}
    wanted = set(combinations([f"P{k}" for k in range(1, 8)], 2))
    if out.get("distinct") != expected or out.get("total") != expected or out.get("allDistinct") is not True:
        return f"certificate is not {expected}/{expected} distinct"
    if pairs != wanted or any(r.get("verdict") != "distinct" for r in rows):
        return "rows do not cover the 21 class pairs, each distinct"
    return None


# ---------------------------------------------------------------------------
# The four workloads.


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def cli_small(seed: int) -> Workload:
    rng = random.Random(f"cli_small/{seed}")
    formulas, trees = formula_file(rng, 20, 6)
    model = eval_model(rng, 16)
    k3_model, _ = classify_model(rng, 3)
    k3_judgments = [
        {"context": c["name"], "predicate": "p", "value": rng.choice("TFU")}
        for c in k3_model["contexts"]
    ]
    malformed = render(random_tree(rng, 3)) + " &\n"
    cat_seed = rng.randrange(2**32)
    files = {
        "formulas20.lgc": formulas,
        "schemas.lgc": SCHEMA_FILE,
        "model16.json": _dump(model),
        "model_k3.json": _dump(k3_model),
        "judgments_k3.json": _dump(k3_judgments),
        "malformed.lgc": malformed,
    }
    requests = [
        Request("parse", ["parse", "formulas20.lgc"], trees, check_parse),
        Request("eval", ["eval", "schemas.lgc", "--model", "model16.json"], eval_expectation(model), check_eval),
        Request(
            "classify",
            ["classify", "judgments_k3.json", "--model", "model_k3.json"],
            classify_reference(k3_judgments, k3_model["incompatible"]),
            check_classify,
        ),
    ]
    for name, paper in SCENARIO_CLASS.items():
        argv = ["scenario", name]
        if name == "cat":
            argv += ["--open", "--trials", str(CAT_TRIALS), "--seed", str(cat_seed)]
        requests.append(Request(f"scenario_{name}", argv, {"name": name, "class": paper}, check_scenario))
    requests += [
        Request("corpus", ["corpus", "--seed", str(seed % 1000)], dict(CORPUS_CLASS), check_corpus),
        Request("exclusivity", ["exclusivity"], 21, check_exclusivity),
        Request("malformed", ["parse", "malformed.lgc"], "ParseError", check_parse_error, EX_ERROR),
    ]
    return Workload(requests, files)


# About 1000 depth-6 formulas.
PARSE_BULK_CHARS = 70_000


def parse_bulk(seed: int) -> Workload:
    rng = random.Random(f"parse_bulk/{seed}")
    text, trees = formula_file_of_size(rng, PARSE_BULK_CHARS, 6)
    request = Request("parse", ["parse", "formulas.lgc"], trees, check_parse)
    return Workload([request], {"formulas.lgc": text})


EVAL_LARGE_N = 1600


def eval_large(seed: int, n: int = EVAL_LARGE_N) -> Workload:
    rng = random.Random(f"eval_large/{seed}/{n}")
    model = eval_model(rng, n)
    request = Request(
        "eval", ["eval", "schemas.lgc", "--model", "model.json"], eval_expectation(model), check_eval
    )
    return Workload([request], {"schemas.lgc": SCHEMA_FILE, "model.json": _dump(model)})


CLASSIFY_WIDE_K = 600


def classify_wide(seed: int, k: int = CLASSIFY_WIDE_K) -> Workload:
    rng = random.Random(f"classify_wide/{seed}/{k}")
    model, compatible = classify_model(rng, k)
    files = {"model.json": _dump(model)}
    requests = []
    for tag, judgments, expected in classify_sets(rng, model, compatible):
        files[f"judgments_{tag}.json"] = _dump(judgments)
        argv = ["classify", f"judgments_{tag}.json", "--model", "model.json"]
        requests.append(Request(f"classify_{tag}", argv, expected, check_classify))
    return Workload(requests, files)


GENERATORS = {
    "cli_small": cli_small,
    "parse_bulk": parse_bulk,
    "eval_large": eval_large,
    "classify_wide": classify_wide,
}
WORKLOADS = tuple(GENERATORS)
