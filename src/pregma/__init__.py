"""Probabilistic regular graphs: grammars, engines, oracles, frontends.

The package splits along the data flow: `model` holds the grammar and
expansion machinery, `gio` the text format, `validation` the per-class
degree accounting and the grammar analysis the engines share, `fragments`
the per-rule first-hit rows, `polysys` the certified polynomial solver,
`pushdown` and `pcp` build grammars from other inputs, `oracle` provides
exact finite-horizon ground truth, `formulas` the property language,
`qualitative`/`quantitative`/`labeling` the three engines behind `check`
and `prob`, and `cli` the command line. Import each name from its module
(`from pregma.validation import analyse`); the package root holds only
`__version__`, so importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
