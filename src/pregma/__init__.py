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

`cli` loads the engines and the modules they read as it is imported, and
loads each of the rest in the one command that runs it: `oracle` in
`prob --method truncate|sample`, `pcp` in `gen-pcp`, `pushdown` in
`from-pds`, and numpy in the sampler alone. The engines stay eager: a
caller that times each command would otherwise charge their one-off
import to its first command.
"""

__version__ = "0.1.0"
