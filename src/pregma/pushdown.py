"""Suffix rewriting systems (pushdown configuration graphs) as grammars.

A pushdown system is given as a suffix rewriting system over stack symbols
plus control states: a configuration is a word, rules rewrite suffixes, and
the control state sits at the right end of the word. The conversion builds a
single-nonterminal grammar whose generated graph is the configuration graph:
one vertex per base suffix, one extended copy per stack symbol, one
nonterminal hyperarc per stack symbol, and one terminal arc per rewriting
rule. Words are kept as vertex names so the correspondence stays auditable.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .gio import ParseError, read_prob
from .model import Grammar, GrammarError, Hypergraph, Rule
from .validation import vertex_classes

Word = tuple[str, ...]


class SuffixRule(NamedTuple):
    lhs: Word
    label: str
    rhs: Word


class PushdownSystem:
    __slots__ = ("stack", "states", "rules", "mu", "sink_colour")

    def __init__(self, stack: list[str], states: list[str], rules: list[SuffixRule],
                 mu: dict[str, Fraction], sink_colour: str | None) -> None:
        self.stack, self.states, self.rules = stack, states, rules
        self.mu, self.sink_colour = mu, sink_colour

    def word_name(self, w: Word) -> str:
        return "".join(w)


def _split_word(lineno: int, text: str, symbols: list[str]) -> Word:
    """Maximal-munch split of a configuration word into declared symbols:
    at each position the longest symbol whose remainder still splits, so
    prefix-overlapping alphabets parse. One backward pass marks the
    positions from which the rest of the word splits."""
    ordered = sorted(set(symbols), key=len, reverse=True)
    n = len(text)
    splits = [False] * n + [True]
    for i in range(n - 1, -1, -1):
        splits[i] = any(text.startswith(s, i) and splits[i + len(s)] for s in ordered)
    if not splits[0]:
        raise ParseError(lineno, f"cannot split {text!r} into declared symbols")
    out: list[str] = []
    i = 0
    while i < n:
        sym = next(s for s in ordered if text.startswith(s, i) and splits[i + len(s)])
        out.append(sym)
        i += len(sym)
    return tuple(out)


def parse_pds(text: str) -> PushdownSystem:
    """Parse the line-based pds format.

    Keywords: `stack`, `state` (symbol declarations), `prob LABEL p/q`,
    `absorb-sinks COLOUR`, and `rule LHS LABEL RHS`. Comments with #.
    """
    stack: list[str] = []
    states: list[str] = []
    mu: dict[str, Fraction] = {}
    sink_colour: str | None = None
    pending_rules: list[tuple[int, str, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head, args = parts[0], parts[1:]
        if head == "stack":
            stack.extend(args)
        elif head == "state":
            states.extend(args)
        elif head == "prob":
            read_prob(lineno, args, mu)
        elif head == "absorb-sinks":
            if len(args) != 1:
                raise ParseError(lineno, "absorb-sinks needs a colour name")
            sink_colour = args[0]
        elif head == "rule":
            if len(args) != 3:
                raise ParseError(lineno, "rule needs LHS LABEL RHS")
            pending_rules.append((lineno, args[0], args[1], args[2]))
        else:
            raise ParseError(lineno, f"unknown keyword {head!r}")

    if len(set(stack)) != len(stack) or len(set(states)) != len(states):
        raise ParseError(0, "repeated symbol declaration")
    if set(stack) & set(states):
        raise ParseError(0, "stack and state alphabets overlap")
    symbols = stack + states
    rules = [
        SuffixRule(_split_word(ln, lhs, symbols), label, _split_word(ln, rhs, symbols))
        for ln, lhs, label, rhs in pending_rules
    ]
    return PushdownSystem(stack, states, rules, mu, sink_colour)


def load_pds(path) -> PushdownSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pds(fh.read())


def base_suffixes(p: PushdownSystem) -> list[Word]:
    """Nonempty proper suffixes of all rule-side words, in order of first
    appearance (longest first per word). One-symbol rule sides that never
    occur as a proper suffix are appended so every rule side is a vertex."""
    bases: list[Word] = []
    seen: set[Word] = set()

    def add(w: Word) -> None:
        if w not in seen:
            seen.add(w)
            bases.append(w)

    sides = [w for r in p.rules for w in (r.lhs, r.rhs)]
    for w in sides:
        for k in range(1, len(w)):
            add(w[k:])
    for w in sides:
        if len(w) == 1:
            add(w)
    return bases


def _fresh_name(wanted: str, taken: set[str]) -> str:
    name = wanted
    while name in taken:
        name = "_" + name
    return name


def to_grammar(p: PushdownSystem) -> Grammar:
    """One-nonterminal grammar generating the configuration graph.

    The nonterminal's rule has the base suffixes as inputs; its rhs holds the
    bases plus one extension per stack symbol and base, one hyperarc per
    stack symbol over the extensions, and one arc per rewriting rule. The
    axiom rule holds fresh copies of the bases under a single hyperarc.
    """
    if not p.rules:
        raise GrammarError("pushdown system has no rules")
    bases = base_suffixes(p)
    if not bases:
        raise GrammarError("no rule side has a nonempty strict suffix")
    name = p.word_name

    names: dict[str, Word] = {}

    def admit(w: Word) -> str:
        n = name(w)
        if names.setdefault(n, w) != w:
            raise GrammarError(
                f"vertex name {n!r} is ambiguous: "
                f"{names[n]} and {w} both render to it"
            )
        return n

    rhs = Hypergraph()
    for b in bases:
        rhs.add_vertex(admit(b))
    hyperarcs: list[tuple[str, list[str]]] = []
    for sym in p.stack:
        row: list[str] = []
        for b in bases:
            n = admit((sym,) + b)
            if not rhs.has_vertex(n):
                rhs.add_vertex(n)
            row.append(n)
        hyperarcs.append((sym, row))

    for rule in p.rules:
        for side in (rule.lhs, rule.rhs):
            if name(side) not in names:
                raise GrammarError(
                    f"rule side {name(side)!r} is not representable: "
                    "not a base suffix or a one-symbol stack extension"
                )
        rhs.add_arc(rule.label, name(rule.lhs), name(rule.rhs))

    labels = {r.label for r in p.rules} | set(p.mu)
    taken = set(labels) | set(names)
    if p.sink_colour is not None:
        taken.add(p.sink_colour)
    conf = _fresh_name("X", taken)
    root = _fresh_name("Z", taken | {conf})
    for sym, row in hyperarcs:
        rhs.add_hyperarc(conf, tuple(row))

    axiom_rhs = Hypergraph()
    for b in bases:
        axiom_rhs.add_vertex(name(b))
    axiom_rhs.add_hyperarc(conf, tuple(name(b) for b in bases))

    g = Grammar(
        terminals={label: 2 for label in sorted(labels)},
        nonterminals={root: 0, conf: len(bases)},
        axiom=root,
        rules=[
            Rule(root, (), axiom_rhs),
            Rule(conf, tuple(name(b) for b in bases), rhs),
        ],
        mu=dict(p.mu),
        absorbing=set(),
    )
    if p.sink_colour is not None:
        _mark_sinks(g, p.sink_colour)
    return g


def _mark_sinks(g: Grammar, colour: str) -> None:
    if colour in g.terminals or colour in g.nonterminals:
        raise GrammarError(f"sink colour {colour!r} collides with a symbol")
    g.terminals[colour] = 1
    g.absorbing.add(colour)
    rules = {rule.lhs: rule for rule in g.rules}
    for can, vc in vertex_classes(g).items():
        if vc.is_sink:
            rules[can.rule].rhs.add_colour(colour, can.vertex)
