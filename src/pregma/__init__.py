"""Probabilistic regular graphs: grammars, engines, oracles, frontends.

The package splits along the data flow: `model` holds the grammar and
expansion machinery, `gio` the text format, `validation` the per-class
degree accounting and the grammar analysis the engines share, `pushdown`
and `pcp` build grammars from other inputs, `oracle` provides exact
finite-horizon ground truth, `formulas` the property language, and
`qualitative`/`quantitative`/`labeling` the three engines behind `check`
and `prob`.
"""
from .formulas import FormulaError, parse_formula, to_text
from .gio import ParseError, emit_dot, load_grammar, parse_grammar, serialize_grammar
from .labeling import Labelling, Verdict, classes_for_colours, label_formula
from .model import (
    CanonicalVertex,
    Expansion,
    Grammar,
    GrammarError,
    Hypergraph,
    Rule,
    expand,
    reachable_component,
    validate_grammar,
)
from .oracle import FiniteMC, HorizonError, PathQuery, bounded_until, sample_until, truncate
from .pcp import (
    PCPInstance,
    closed_form,
    dyadic_value,
    encode,
    expansions_match,
    green_probability,
    load_pcp,
    parse_pcp,
    sequence_grammar,
)
from .polysys import Enclosure, PolySystem, decide_threshold, solve_enclosure
from .pushdown import PushdownSystem, SuffixRule, config_words, load_pds, parse_pds, to_grammar
from .qualitative import next_qualitative, until_almost_sure, until_positive
from .quantitative import axiom_probability, solve_until
from .validation import (
    Analysis,
    ChainAmbiguityError,
    DegreeProfile,
    EngineUnsupported,
    PhrReport,
    VertexClass,
    analyse,
    check_complete_outside,
    phr_check,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis", "CanonicalVertex", "ChainAmbiguityError", "DegreeProfile",
    "Enclosure", "EngineUnsupported", "Expansion", "FiniteMC", "FormulaError",
    "Grammar", "GrammarError", "HorizonError", "Hypergraph", "Labelling",
    "PCPInstance", "ParseError", "PathQuery", "PhrReport", "PolySystem",
    "PushdownSystem", "Rule", "SuffixRule", "Verdict", "VertexClass",
    "analyse", "axiom_probability", "bounded_until",
    "check_complete_outside", "classes_for_colours", "closed_form",
    "config_words", "decide_threshold", "dyadic_value", "emit_dot", "encode",
    "expand", "expansions_match", "green_probability", "label_formula",
    "load_grammar", "load_pcp", "load_pds", "next_qualitative",
    "parse_formula", "parse_grammar", "parse_pcp", "parse_pds", "phr_check",
    "reachable_component", "sample_until", "sequence_grammar",
    "serialize_grammar", "solve_enclosure", "solve_until", "to_grammar",
    "to_text", "truncate", "until_almost_sure", "until_positive",
    "validate_grammar", "__version__",
]
