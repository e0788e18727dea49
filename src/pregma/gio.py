"""Text format for grammars, plus dot output.

The format is line-based:

    # comment
    nonterminal NAME ARITY
    terminal NAME ARITY
    colour NAME              # shorthand for an arity-1 terminal
    prob LABEL P             # P is N or N/M, in ASCII digits
    axiom NAME
    default-colour NAME      # attach NAME to every rhs vertex (see nocolour)
    absorbing NAME           # colour marking deliberate sinks

    rule NAME inputs v1 v2
      vertex u w             # optional, declares vertices up front
      arc LABEL SRC DST
      hyperarc NAME v1 v2
      colour NAME v
      nocolour NAME v        # suppress the default colour on v

A rule block ends at a blank line or at the next top-level keyword. The
default colour is applied at parse time, so parsed grammars always carry
explicit colour marks; serialisation writes them back out explicitly.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .model import Expansion, Grammar, Hypergraph, Rule, VertexId

_RULE_KEYWORDS = {"vertex", "arc", "hyperarc", "colour", "nocolour"}


class ParseError(ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def read_prob(lineno: int, args: list[str], mu: dict[str, Fraction]) -> None:
    """Enter the `prob LABEL P` line with arguments `args` into mu."""
    if len(args) != 2:
        raise ParseError(lineno, "prob needs LABEL VALUE")
    label, text = args
    if label in mu:
        raise ParseError(lineno, f"probability for {label} given twice")
    # N or N/M only: Fraction also reads exponents, and for 1e-k computes 10^k
    if not all(part.isascii() and part.isdigit() for part in text.split("/", 1)):
        raise ParseError(lineno, f"bad probability {text!r}: not N or N/M")
    try:
        mu[label] = Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(lineno, f"bad probability {text!r}: {exc}") from None


def parse_grammar(text: str) -> Grammar:
    terminals: dict[str, int] = {}
    nonterminals: dict[str, int] = {}
    mu: dict[str, Fraction] = {}
    absorbing: set[str] = set()
    axiom: str | None = None
    default_colour: str | None = None
    # each rule with its line and the vertices its nocolour lines exempt
    # from the default colour, which is attached once the whole text is read
    rules: list[tuple[int, Rule, set[VertexId]]] = []
    current: Rule | None = None

    def declare(lineno: int, table: dict[str, int], name: str, arity: int) -> None:
        if name in terminals or name in nonterminals:
            raise ParseError(lineno, f"symbol {name} declared twice")
        table[name] = arity

    def mention(*vs: VertexId) -> None:
        """Register vertices in order of first mention."""
        for v in vs:
            if not current.rhs.has_vertex(v):
                current.rhs.add_vertex(v)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if not raw.strip():
                current = None
            continue
        parts = line.split()
        head, args = parts[0], parts[1:]

        if current is not None and head in _RULE_KEYWORDS and not (
            head == "colour" and len(args) == 1
        ):
            if head == "vertex":
                if not args:
                    raise ParseError(lineno, "vertex line needs at least one name")
                mention(*args)
            elif head == "arc":
                if len(args) != 3:
                    raise ParseError(lineno, "arc needs LABEL SRC DST")
                label, src, dst = args
                mention(src, dst)
                current.rhs.add_arc(label, src, dst)
            elif head == "hyperarc":
                if len(args) < 1:
                    raise ParseError(lineno, "hyperarc needs a label")
                label, vs = args[0], args[1:]
                mention(*vs)
                current.rhs.add_hyperarc(label, tuple(vs))
            elif head == "colour":
                if len(args) != 2:
                    raise ParseError(lineno, "colour inside a rule needs NAME VERTEX")
                name, v = args
                mention(v)
                current.rhs.add_colour(name, v)
            elif head == "nocolour":
                if len(args) != 2:
                    raise ParseError(lineno, "nocolour needs NAME VERTEX")
                name, v = args
                if default_colour is None:
                    raise ParseError(lineno, "nocolour without a default-colour")
                if name != default_colour:
                    raise ParseError(
                        lineno,
                        f"nocolour {name} does not match default-colour {default_colour}",
                    )
                mention(v)
                exempt.add(v)
            continue

        current = None
        if head in ("nonterminal", "terminal"):
            # ASCII digits only: str.isdigit also accepts "²", which int refuses
            if len(args) != 2 or not (args[1].isascii() and args[1].isdigit()):
                raise ParseError(lineno, f"{head} needs NAME ARITY")
            table = nonterminals if head == "nonterminal" else terminals
            declare(lineno, table, args[0], int(args[1]))
        elif head == "colour":
            if len(args) != 1:
                raise ParseError(lineno, "top-level colour needs just NAME")
            declare(lineno, terminals, args[0], 1)
        elif head == "prob":
            read_prob(lineno, args, mu)
        elif head == "axiom":
            if len(args) != 1:
                raise ParseError(lineno, "axiom needs NAME")
            if axiom is not None:
                raise ParseError(lineno, "axiom given twice")
            axiom = args[0]
        elif head == "default-colour":
            if len(args) != 1:
                raise ParseError(lineno, "default-colour needs NAME")
            if default_colour is not None:
                raise ParseError(lineno, "default-colour given twice")
            default_colour = args[0]
        elif head == "absorbing":
            if len(args) != 1:
                raise ParseError(lineno, "absorbing needs NAME")
            absorbing.add(args[0])
        elif head == "rule":
            if not args:
                raise ParseError(lineno, "rule needs a nonterminal name")
            name = args[0]
            rest = args[1:]
            if rest:
                if rest[0] != "inputs":
                    raise ParseError(lineno, "expected 'inputs' after the rule name")
                inputs = tuple(rest[1:])
            else:
                inputs = ()
            current, exempt = Rule(name, inputs, Hypergraph()), set()
            rules.append((lineno, current, exempt))
            mention(*inputs)
        else:
            raise ParseError(lineno, f"unknown keyword {head!r}")

    if axiom is None:
        raise ParseError(0, "no axiom line")

    for lineno, rule, exempt in rules:
        if default_colour is not None:
            if default_colour not in terminals:
                raise ParseError(lineno, f"default-colour {default_colour} not declared")
            marked = {v for c, v in rule.rhs.colours if c == default_colour}
            for v in rule.rhs.vertices:
                if v not in marked and v not in exempt:
                    rule.rhs.add_colour(default_colour, v)

    return Grammar(
        terminals=terminals,
        nonterminals=nonterminals,
        axiom=axiom,
        rules=[rule for _, rule, _ in rules],
        mu=mu,
        absorbing=absorbing,
    )


def load_grammar(path) -> Grammar:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grammar(fh.read())


def _mention_order(rule: Rule) -> list[str]:
    order: list[str] = []
    seen: set[str] = set()

    def touch(v: str) -> None:
        if v not in seen:
            seen.add(v)
            order.append(v)

    for v in rule.inputs:
        touch(v)
    for arc in rule.rhs.arcs:
        touch(arc.source)
        touch(arc.target)
    for h in rule.rhs.hyperarcs:
        for v in h.vertices:
            touch(v)
    for _, v in rule.rhs.colours:
        touch(v)
    return order


def serialize_grammar(g: Grammar) -> str:
    lines: list[str] = []
    for name, arity in g.nonterminals.items():
        lines.append(f"nonterminal {name} {arity}")
    for name, arity in g.terminals.items():
        if arity == 1:
            lines.append(f"colour {name}")
        else:
            lines.append(f"terminal {name} {arity}")
    for label, p in g.mu.items():
        lines.append(f"prob {label} {p}")
    for name in sorted(g.absorbing):
        lines.append(f"absorbing {name}")
    lines.append(f"axiom {g.axiom}")
    for rule in g.rules:
        lines.append("")
        if rule.inputs:
            lines.append(f"rule {rule.lhs} inputs {' '.join(map(str, rule.inputs))}")
        else:
            lines.append(f"rule {rule.lhs}")
        if _mention_order(rule) != list(rule.rhs.vertices):
            lines.append(f"  vertex {' '.join(map(str, rule.rhs.vertices))}")
        for arc in rule.rhs.arcs:
            lines.append(f"  arc {arc.label} {arc.source} {arc.target}")
        for h in rule.rhs.hyperarcs:
            lines.append(f"  hyperarc {h.label} {' '.join(map(str, h.vertices))}")
        for colour, v in rule.rhs.colours:
            lines.append(f"  colour {colour} {v}")
    lines.append("")
    return "\n".join(lines)


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(expansion: Expansion) -> Iterator[str]:
    """Graphviz rendering of an expansion's graph, one line at a time:
    solid labelled arcs, dashed numbered hyperarc legs, colour marks listed
    under each vertex name, and each vertex's level and class as its
    tooltip."""
    graph = expansion.graph
    yield from ("digraph graph0 {", "  rankdir=LR;", '  node [shape=ellipse];')
    for v in graph.vertices:
        label = str(v)
        cs = sorted(expansion.colours[v])
        if cs:
            label += "\\n" + ",".join(cs)
        yield (f'  "{_esc(str(v))}" [label="{_esc(label)}", tooltip="level '
               f'{expansion.levels[v]}, from {expansion.classes[v]}"];')
    for label, source, target in graph.arcs():
        yield (f'  "{_esc(str(source))}" -> "{_esc(str(target))}" '
               f'[label="{_esc(label)}"];')
    for i, (label, hvs) in enumerate(graph.legs()):
        hub = f"__hyperarc_{i}"
        yield f'  "{hub}" [shape=box, style=dashed, label="{_esc(label)}"];'
        for pos, v in enumerate(hvs, start=1):
            yield f'  "{hub}" -> "{_esc(str(v))}" [style=dashed, label="{pos}"];'
    yield "}"
