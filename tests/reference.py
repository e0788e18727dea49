"""References the tests compare the library against; the CLI reaches none
of them: the lines `expand` prints, the word-matching gadgets' closed
forms (`pregma.pcp`), the configuration words and chains of a suffix
rewriting system (`pregma.pushdown`), the scalar stream that
`pregma.rng.draw_array` vectorises, exact evaluation and solving over
`Fraction`s, a fragment's first-hit rows (`pregma.fragments`), a check
that an enclosure proves its own bounds (`pregma.polysys`), and the class
records and class sets of `pregma.validation` read off the rules and off
an expansion; and the generated inputs of the differential checks, random
grammars and seeded walks whose systems are quadratic.

`model._rewrite` yields rule applications without their parents. The
helpers that need them replay the order `_rewrite` documents, so every use
also checks that order.
"""
from __future__ import annotations

import json
import random
from array import array
from collections import Counter, deque
from fractions import Fraction
from typing import Iterable

from pregma.fragments import local_rows
from pregma.gio import parse_grammar
from pregma.labeling import classes_for_colours
from pregma.model import (CanonicalVertex, Expansion, FiniteMC, Grammar, GrammarError,
                          Rows, Rule, _rewrite, checked_rules, integer_weights)
from pregma.oracle import PathQuery, bounded_until, truncate
from pregma.pcp import HALF, PCPInstance, _gadget, _gates, _rail
from pregma.pushdown import PushdownSystem, Word
from pregma.quantitative import shared_assembly, solve_until
from pregma.rng import GAMMA
from pregma.validation import Analysis, analyse, vertex_classes

_MASK = (1 << 64) - 1


def row_table(rows: list[list[tuple[int, int]]]) -> Rows:
    """The row table of a chain whose state i steps as rows[i] lists, in
    (target, weight) pairs."""
    table = Rows(array("q", [0]), array("q"), [])
    for row in rows:
        for t, w in row:
            table.targets.append(t)
            table.weights.append(w)
        table.starts.append(len(table.targets))
    return table


def rows(mc: FiniteMC) -> list[list[tuple[int, int]]]:
    """Each state's row of mc's row table as (target, weight) pairs."""
    starts, targets, weights = mc.trans
    return [list(zip(targets[a:b], weights[a:b])) for a, b in zip(starts, starts[1:])]


def applications(g: Grammar, depth: int):
    """(compiled rule, ids, parent, position) per rule application of
    `_rewrite` on g's checked rules to `depth`: parent is the number of the
    application whose rhs held the replaced hyperarc (None for the axiom),
    position that hyperarc's index in the rhs. Replays a FIFO of hyperarcs, each
    application's queued in rhs order, and asserts that every application
    replaces the hyperarc at its head."""
    queue = deque([(None, None, g.axiom, ())])
    rewriting = _rewrite(checked_rules(g), g.axiom, depth, Expansion())
    for number, (rule, ids) in enumerate(rewriting):
        parent, position, label, glued = queue.popleft()
        arity = len(rule.names) - len(rule.cans)  # the slots glued on
        assert (rule.lhs, tuple(ids[:arity])) == (label, glued)
        yield rule, ids, parent, position
        queue.extend((number, i, h_label, tuple([ids[s] for s in slots]))
                     for i, (h_label, slots) in enumerate(rule.hyperarcs))


def expand_rendering(g: Grammar, depth: int, fmt: str,
                     component: str | None = None) -> list[str]:
    """The lines `pregma expand` prints for g at `depth` in format `fmt`,
    restricted to the undirected component of the axiom-rule vertex
    `component` when one is given. Built from the `applications` replay and
    the grammar's own rules: each application names its rule's vertices by
    ids, a level is its parent's plus one, a vertex's colours are the union
    of the marks on it, and the hyperarcs left are those that no application
    replaced."""
    rules = {rule.lhs: rule for rule in g.rules}
    app_levels: list[int] = []
    replaced: set[tuple[int, int]] = set()
    made: dict[int, tuple[str, int]] = {}  # id -> (class, level)
    marks: dict[int, set[str]] = {}
    arcs: list[tuple[str, int, int]] = []
    hyperarcs: list[tuple[tuple[int, int], str, tuple[int, ...]]] = []
    for number, (compiled, ids, parent, position) in enumerate(applications(g, depth)):
        rule = rules[compiled.lhs]
        at = dict(zip(compiled.names, ids))
        level = 0 if parent is None else app_levels[parent] + 1
        app_levels.append(level)
        if parent is None:
            axiom_ids = at
        else:
            replaced.add((parent, position))
        for name in rule.rhs.vertices:
            if name not in rule.inputs:
                made[at[name]] = (f"{rule.lhs}:{name}", level)
        arcs += [(a.label, at[a.source], at[a.target]) for a in rule.rhs.arcs]
        for colour, name in rule.rhs.colours:
            marks.setdefault(at[name], set()).add(colour)
        hyperarcs += [((number, i), h.label, tuple(at[v] for v in h.vertices))
                      for i, h in enumerate(rule.rhs.hyperarcs)]
    left = [(label, vs) for key, label, vs in hyperarcs if key not in replaced]
    frontier = {v for _, vs in left for v in vs}
    vertices = sorted(made)
    assert vertices == list(range(len(made)))
    if component is not None:
        near: dict[int, list[int]] = {v: [] for v in vertices}
        for _, s, t in arcs:
            near[s].append(t)
            near[t].append(s)
        inside, todo = {axiom_ids[component]}, [axiom_ids[component]]
        while todo:
            for w in near[todo.pop()]:
                if w not in inside:
                    inside.add(w)
                    todo.append(w)
        vertices = [v for v in vertices if v in inside]
        arcs = [a for a in arcs if a[1] in inside and a[2] in inside]
        left = [(label, vs) for label, vs in left if set(vs) <= inside]
        frontier &= inside
    colours = {v: sorted(marks.get(v, ())) for v in vertices}

    if fmt == "text":
        lines = [f"vertices={len(vertices)} arcs={len(arcs)} "
                 f"hyperarcs={len(left)} frontier={len(frontier)}"]
        for v in vertices:
            cls, level = made[v]
            lines.append(f"vertex {v} level={level} class={cls}"
                         + (f" colours={','.join(colours[v])}" if colours[v] else "")
                         + (" frontier" if v in frontier else ""))
        lines += [f"arc {label} {s} {t}" for label, s, t in arcs]
        lines += [f"hyperarc {label} " + " ".join(map(str, vs)) for label, vs in left]
        return lines
    if fmt == "json-lines":
        records = [{"kind": "vertex", "id": str(v), "level": made[v][1],
                    "class": made[v][0], "colours": colours[v],
                    "frontier": v in frontier} for v in vertices]
        records += [{"kind": "arc", "label": label, "source": str(s),
                     "target": str(t)} for label, s, t in arcs]
        records += [{"kind": "hyperarc", "label": label,
                     "vertices": [str(v) for v in vs]} for label, vs in left]
        return [json.dumps(r, sort_keys=True) for r in records]
    assert fmt == "dot", fmt

    def esc(text) -> str:
        return str(text).replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph graph0 {", "  rankdir=LR;", "  node [shape=ellipse];"]
    for v in vertices:
        label = f"{v}\\n{','.join(colours[v])}" if colours[v] else str(v)
        lines.append(f'  "{v}" [label="{esc(label)}", tooltip="level '
                     f'{made[v][1]}, from {made[v][0]}"];')
    lines += [f'  "{s}" -> "{t}" [label="{esc(label)}"];' for label, s, t in arcs]
    for i, (label, vs) in enumerate(left):
        lines.append(f'  "__hyperarc_{i}" [shape=box, style=dashed, label="{esc(label)}"];')
        lines += [f'  "__hyperarc_{i}" -> "{v}" [style=dashed, label="{pos}"];'
                  for pos, v in enumerate(vs, start=1)]
    return lines + ["}"]


def _concat(p: PCPInstance, seq: tuple[int, ...] | list[int]) -> tuple[str, str]:
    if not seq:
        raise GrammarError("sequence must be nonempty")
    for i in seq:
        if not 1 <= i <= len(p.pairs):
            raise GrammarError(f"index {i} out of range 1..{len(p.pairs)}")
    u = "".join(p.pairs[i - 1][0] for i in seq)
    v = "".join(p.pairs[i - 1][1] for i in seq)
    return u, v


def dyadic_value(word: str) -> Fraction:
    """The number 0.word in binary, exact. Values, not words, are compared:
    a pair like (10, 1) has equal values without equal words, so word-level
    conclusions need instances free of such trailing-zero padding."""
    return sum((Fraction(1, 2 ** (k + 1)) for k, bit in enumerate(word) if bit == "1"),
               Fraction(0))


def closed_form(p: PCPInstance, seq: tuple[int, ...] | list[int]) -> Fraction:
    """Exact probability of reaching red from the s-vertex whose tile
    sequence, read from its own tile outward, is `seq`.

    Red mass comes from the 0-bits of the concatenated u-word, the 1-bits of
    the concatenated v-word, and the full u-rail residue (the u-side gate
    feeds the red sink), which is what makes the total equal 1/2 exactly on
    value matches. Verified against exhaustive finite-horizon reachability
    in the tests before being used as an oracle anywhere."""
    u, v = _concat(p, seq)
    return HALF * (1 - dyadic_value(u) + dyadic_value(v))


def green_probability(p: PCPInstance, seq: tuple[int, ...] | list[int]) -> Fraction:
    """Complement of `closed_form`: every walk is eventually absorbed."""
    return 1 - closed_form(p, seq)


def expansions_match(p: PCPInstance, seq: tuple[int, ...] | list[int]) -> bool:
    """Do the concatenated words along `seq` have equal dyadic values?

    Equality of values, not of words: trailing zeros are invisible here."""
    u, v = _concat(p, seq)
    return dyadic_value(u) == dyadic_value(v)


def sequence_grammar(
    p: PCPInstance, seq: tuple[int, ...] | list[int]
) -> tuple[Grammar, str]:
    """Purely terminal grammar holding just the walk of one tile sequence.

    Inlines the rails along `seq` (innermost tile first, as everywhere) into
    a single axiom rule and returns it with the fork's vertex name. Sibling
    tiles and enclosing forks are unreachable from that fork, so dropping
    them changes nothing the walk can see; the payoff is a grammar the
    validator and both engines accept for any number of tiles."""
    _concat(p, seq)  # refuses an empty or out-of-range sequence
    rhs = _gates()
    v_next, u_next = "vgate", "ugate"
    for j in range(len(seq) - 1, -1, -1):
        u, v = p.pairs[seq[j] - 1]
        v_next = _rail(rhs, v, f"v{j}_", v_next, green_bit="0")
        u_next = _rail(rhs, u, f"u{j}_", u_next, green_bit="1")
    rhs.add_vertex("s0")
    rhs.add_colour("s", "s0")
    rhs.add_arc("a", "s0", v_next)
    rhs.add_arc("a", "s0", u_next)
    return _gadget([Rule("Z", (), rhs)], []), "s0"


def fork_sequences(g: Grammar, depth: int) -> list[tuple[int, tuple[int, ...]]]:
    """(vertex id of the fork in `expand(g, depth)`, tile sequence) for every
    fork of an expanded gadget, the sequence read from the fork's own tile
    outward."""
    tiles = (n for n in g.nonterminals if n != g.axiom)
    tile_no = {name: i for i, name in enumerate(tiles, start=1)}
    seqs: list[tuple[int, ...]] = []  # per rule application, in order
    out: list[tuple[int, tuple[int, ...]]] = []
    for rule, ids, parent, _ in applications(g, depth):
        if rule.lhs == g.axiom:
            seqs.append(())
            continue
        seq = (tile_no[rule.lhs], *seqs[parent])
        seqs.append(seq)
        out.append((ids[rule.names.index("fork")], seq))
    return out


def config_words(p: PushdownSystem, g: Grammar, depth: int) -> dict[int, str]:
    """Vertex id of `expand(g, depth)` -> configuration word.

    The axiom application and the first copy carry their vertex names
    verbatim; each deeper copy prepends the stack symbol of the hyperarc it
    replaced (hyperarcs are emitted in stack-declaration order)."""
    conf = next(n for n, k in g.nonterminals.items() if k > 0)
    # per rule application, in order: its rule and its words' prefix
    applied: list[tuple[str, str]] = []
    words: dict[int, str] = {}
    for rule, ids, parent, position in applications(g, depth):
        if rule.lhs != conf and rule.lhs != g.axiom:
            raise GrammarError(f"unexpected rule {rule.lhs} in pushdown expansion")
        if parent is None or applied[parent][0] == g.axiom:
            prefix = ""
        else:
            prefix = applied[parent][1] + p.stack[position]
        applied.append((rule.lhs, prefix))
        arity = len(rule.names) - len(rule.cans)
        for v, cid in zip(rule.names[arity:], ids[arity:]):
            words[cid] = prefix + str(v)
    return words


def split_word(word: str, symbols: list[str]) -> Word:
    """A configuration word's symbols: longest first, with backtracking."""
    ordered = sorted(symbols, key=len, reverse=True)

    def go(rest):
        if not rest:
            return ()
        for sym in ordered:
            if rest.startswith(sym):
                tail = go(rest[len(sym):])
                if tail is not None:
                    return (sym,) + tail
        return None

    out = go(word)
    assert out is not None, word
    return out


def successors(p: PushdownSystem, w: Word) -> list[tuple[str, Word]]:
    """All one-step rewritings of configuration w (label, target)."""
    return [(rule.label, w[: len(w) - len(rule.lhs)] + rule.rhs) for rule in p.rules
            if len(w) >= len(rule.lhs) and w[-len(rule.lhs):] == rule.lhs]


def config_chain(p: PushdownSystem, start: Word, steps: int) -> FiniteMC:
    """Markov chain of configurations reachable from `start` in <= steps
    rewritings, straight from the suffix rules (no grammar involved). State
    i is the i-th configuration discovered, breadth first; axiom_ids maps
    each configuration's name to its state, so queries can start from a
    name.

    States at exactly `steps` rewritings form the frontier. Sinks self-loop
    when a sink colour is declared, mirroring the absorbing convention."""
    if steps < 0:
        raise GrammarError("steps must be >= 0")
    for label in {r.label for r in p.rules}:
        if label not in p.mu:
            raise GrammarError(f"no probability for arc label {label}")
    den, weight = integer_weights(p.mu)
    name = p.word_name
    layer = [start]
    seen = {start: 0}  # in order of discovery
    for dist in range(1, steps + 1):
        nxt: list[Word] = []
        for w in layer:
            for _, target in successors(p, w):
                if target not in seen:
                    seen[target] = dist
                    nxt.append(target)
        layer = nxt

    index = {name(w): i for i, w in enumerate(seen)}
    trans: list[list[tuple[int, int]]] = []
    colours: list[frozenset[str]] = []
    frontier: set[int] = set()
    for i, w in enumerate(seen):
        succ = successors(p, w)
        if seen[w] >= steps and succ:
            frontier.add(i)
            trans.append([])
            colours.append(frozenset())
            continue
        if not succ and p.sink_colour is not None:
            trans.append([(i, den)])
            colours.append(frozenset({p.sink_colour}))
            continue
        row = [(index[name(t)], weight[label]) for label, t in succ]
        total = sum(n for _, n in row)
        if total != den:
            raise GrammarError(
                f"configuration {name(w)} has out-mass {Fraction(total, den)}, not 1"
            )
        trans.append(row)
        colours.append(frozenset())
    return FiniteMC(trans=row_table(trans), den=den, colours=colours,
                    frontier=frozenset(frontier), axiom_ids=index, classes=None, levels=None,
                    endless=frozenset())


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def draw(seed: int, k: int) -> int:
    """k-th 64-bit draw of the stream; uniform on [0, 2^64)."""
    return mix64((seed + (k + 1) * GAMMA) & _MASK)


def rhs_value(system, key, point) -> Fraction:
    """The right-hand side of `key` in a `PolySystem` at `point`, exactly,
    one Fraction operation per factor."""
    acc = Fraction(0)
    for coeff, factors in system.equations[key]:
        term = coeff
        for f in factors:
            term *= point[f]
        acc += term
    return acc


def evaluate(system, point) -> dict:
    """Every right-hand side of a `PolySystem` at `point`, exactly."""
    return {key: rhs_value(system, key, point) for key in system.variables}


def gauss_jordan(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """X with A X = B over exact rationals, by Gauss–Jordan with a pivot
    search; GrammarError when A is singular."""
    n = len(a)
    m = [row[:] + rhs[:] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise GrammarError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _gate(an, phi1: frozenset[int], phi2: frozenset[int], node) -> str | None:
    """"win" for a fragment node of a class in phi2, "loss" for one of a
    class outside phi1 or absorbing, None for any other."""
    if node.can in phi2:
        return "win"
    return "loss" if node.can not in phi1 or node.can in an.absorbing else None


def live_transients(an, frag, phi1: frozenset[int], phi2: frozenset[int]) -> list:
    """The interior nodes of a `fragments.Fragment` that neither win nor
    lose and reach a node of another kind, in node order: the unknowns of
    `fragment_rows`."""
    transient = {k for k, node in frag.nodes.items()
                 if node.kind == "interior" and _gate(an, phi1, phi2, node) is None}
    leaves = set(frag.nodes) - transient
    while grown := {k for k in transient - leaves if any(d in leaves for _, d in frag.out[k])}:
        leaves |= grown
    return [k for k in frag.nodes if k in transient and k in leaves]


def fragment_rows(an, frag, phi1: frozenset[int], phi2: frozenset[int]) -> dict:
    """(win, loss, hits) per start node of a `fragments.Fragment`, from an
    absorbing chain over the fragment's nodes solved by `gauss_jordan`:
    the reference for `fragments.local_rows`.

    A node of a class in phi2 wins, one of a class outside phi1 or absorbing
    loses, and every other interior node is transient; a transient node that
    reaches no other kind of node keeps the walk for ever, and loses too.
    Every node that is not interior absorbs as itself, and `hits` holds its
    probability when that is above 0, in node order; a start that is such a
    node, and neither wins nor loses, takes its first step before it
    absorbs. loss is solved for like every other column, so win + loss +
    sum(hits) = 1 is the fragment's mass, not an identity."""
    mu = an.grammar.mu
    ends = ["win", "loss", *(k for k, node in frag.nodes.items() if node.kind != "interior")]

    def gate(node):
        return _gate(an, phi1, phi2, node)

    def unit(end) -> list[Fraction]:
        return [Fraction(e == end) for e in ends]

    live = live_transients(an, frag, phi1, phi2)
    index = {k: i for i, k in enumerate(live)}

    def fixed(key) -> list[Fraction]:
        """Where a walk on a node that is not live ends."""
        node = frag.nodes[key]
        return unit(key) if node.kind != "interior" else unit(gate(node) or "loss")

    a = [[Fraction(i == j) for j in range(len(live))] for i in range(len(live))]
    b = [[Fraction(0)] * len(ends) for _ in live]
    for i, key in enumerate(live):
        for label, dst in frag.out[key]:
            if dst in index:
                a[i][index[dst]] -= mu[label]
            else:
                b[i] = [x + mu[label] * y for x, y in zip(b[i], fixed(dst))]
    value = dict(zip(live, gauss_jordan(a, b))) if live else {}

    rows = {}
    for node in frag.starts:
        key = node.key
        if node.kind == "interior":
            x = value[key] if key in value else fixed(key)
        elif gate(node):
            x = unit(gate(node))
        else:
            x = [Fraction(0)] * len(ends)
            for label, dst in frag.out[key]:
                x = [s + mu[label] * y
                     for s, y in zip(x, value[dst] if dst in value else fixed(dst))]
        rows[key] = (x[0], x[1], {e: p for e, p in zip(ends[2:], x[2:]) if p})
    return rows


def pivots(rows: dict, order: list) -> list[Fraction]:
    """The pivots of an exact elimination of a sparse matrix (rows: key ->
    {key: entry}) without row swaps, in `order`, up to and including the
    first that is not > 0. A Z-matrix is a nonsingular M-matrix exactly when
    every pivot is > 0."""
    m = {k: dict(rows[k]) for k in order}
    out = []
    for i, k in enumerate(order):
        pivot = m[k].get(k, Fraction(0))
        out.append(pivot)
        if pivot <= 0:
            break
        for r in order[i + 1:]:
            if m[r].get(k):
                factor = m[r][k] / pivot
                for col, x in m[k].items():
                    m[r][col] = m[r].get(col, 0) - factor * x
    return out


def closes_singular(ps: list[Fraction], n: int) -> bool:
    """Pivots all > 0 but a last 0: an irreducible Z-matrix I - A with them
    has rho(A) = 1."""
    return len(ps) == n and ps[-1] == 0 and all(p > 0 for p in ps[:-1])


def enclosure_fault(system, enc) -> str | None:
    """Why `enc` is not a proof that [lo, hi] holds the least fixpoint μF
    of a `PolySystem`'s equations, or None when it is. Reads only the
    equations and the two vectors.

    A variable is positive when one of its terms has only positive factors;
    every other one has value 0, so its lo must be 0.
    - hi: for every positive k, F(hi)ₖ ≤ hiₖ or hiₖ = 1. By induction every
      Kleene iterate from 0 stays ≤ hi: where hiₖ = 1 because the values
      are probabilities, elsewhere by monotonicity.
    - lo: lo ≤ F(lo), and on every component C of A = F′(lo) over the
      positive variables (strongly connected in its nonzero entries), an
      exact elimination of I − A on C without row swaps has every pivot
      > 0, or lo is an exact fixpoint on C, the pivots are all > 0 but a
      last 0, and some term of C has both factors in C.

    Proof for lo, with d = lo − μF: convexity gives d ≤ Ad, so d⁺ ≤ Ad⁺.
    Go through the components dependencies first, with d ≤ 0 on those
    below C: then d⁺ ≤ A_CC d⁺ on C. Every pivot > 0 makes ρ(A_CC) < 1, so
    d ≤ 0 on C. Otherwise ρ(A_CC) = 1 and A_CC is irreducible: if d⁺ ≠ 0
    on C, Perron–Frobenius gives d > 0 and A_CC d = d on C. F is quadratic,
    so F(lo − d) = F(lo) − Ad + Q(d) exactly, with Q(d)ₖ = Σ c·d_a·d_b over
    k's quadratic terms; lo and μF are fixpoints on C, so there Q(d) equals
    Σ_{f∉C} Aₖf·d_f. Split by term, Q(d) minus that sum is c·d_a·d_b > 0
    for a, b in C; −c·μ_a·d_b ≥ 0 for a in C and b outside (lo_a > 0, so b
    is below C); c·(μ_a·μ_b − lo_a·lo_b) ≥ 0 for a, b outside (each is
    below C or the other's lo is 0); and −c·d_b ≥ 0 for a linear term in a
    b below C. So a term with both factors in C rules d⁺ ≠ 0 out.
    """
    eqs, lo, hi = system.equations, enc.lo, enc.hi
    pos: set = set()
    while grown := {k for k, terms in eqs.items() if k not in pos
                    and any(all(f in pos for f in fs) for _, fs in terms)}:
        pos |= grown
    for k in eqs:
        if not 0 <= lo[k] <= hi[k] <= 1:
            return f"{k}: not 0 <= lo <= hi <= 1"
        if k not in pos and lo[k]:
            return f"{k}: lo above the value 0"
        if k in pos and hi[k] != 1 and rhs_value(system, k, hi) > hi[k]:
            return f"{k}: F(hi) above hi"
        if k in pos and rhs_value(system, k, lo) < lo[k]:
            return f"{k}: F(lo) below lo"
    order = [k for k in eqs if k in pos]
    jac: dict = {k: {} for k in order}  # A = F′(lo), its nonzero entries
    for k in order:
        for coeff, fs in eqs[k]:
            for i, f in enumerate(fs):
                if f in pos:
                    jac[k][f] = jac[k].get(f, 0) + (coeff * lo[fs[1 - i]] if len(fs) == 2
                                                    else coeff)
        jac[k] = {f: x for f, x in jac[k].items() if x}
    reach = {}
    for k in order:
        seen, todo = {k}, [k]
        while todo:
            for f in jac[todo.pop()]:
                if f not in seen:
                    seen.add(f)
                    todo.append(f)
        reach[k] = seen
    done: set = set()
    for k in order:
        if k in done:
            continue
        comp = [f for f in order if f in reach[k] and k in reach[f]]
        done.update(comp)
        inside = set(comp)
        rows = {r: {f: -x for f, x in jac[r].items() if f in inside} for r in comp}
        for r in comp:
            rows[r][r] = 1 + rows[r].get(r, 0)
        ps = pivots(rows, comp)
        if ps[-1] > 0:
            continue
        if (closes_singular(ps, len(comp))
                and all(rhs_value(system, r, lo) == lo[r] for r in comp)
                and any(len(fs) == 2 and set(fs) <= inside for r in comp for _, fs in eqs[r])):
            continue
        return f"{comp[len(ps) - 1]}: pivot {ps[-1]} of I - F'(lo) is not > 0"
    return None


def walk(b: int, d: list[Fraction]) -> str:
    """The text of the families walk of `perfbench/families.py` with b tops
    per rule: level i's rule W<i> climbs from its input `lo` to b fresh
    vertices with u<i>, each stepping back down with d<i> and carrying level
    i+1's hyperarc (indices mod K = len(d)), and the axiom's m0 steps down
    to the green base. b = 1 gives the chain, b = 2 the branching walk, and
    a larger b a width walk."""
    k = len(d)
    lines = ["nonterminal Z 0", *(f"nonterminal W{i} 1" for i in range(k))]
    lines += [f"terminal {lab}{i} 2" for i in range(k) for lab in "ud"]
    lines += ["colour green", "absorbing green", "axiom Z"]
    for i in range(k):
        lines += [f"prob d{i} {d[i]}", f"prob u{i} {(1 - d[i - 1]) / b}"]
    lines += ["", "rule Z", "  vertex base m0", "  colour green base",
              f"  arc d{k - 1} m0 base", "  hyperarc W0 m0"]
    for i in range(k):
        tops = [f"h{j}" for j in range(b)]
        lines += ["", f"rule W{i} inputs lo", "  vertex " + " ".join(tops)]
        for h in tops:
            lines += [f"  arc u{i} lo {h}", f"  arc d{i} {h} lo",
                      f"  hyperarc W{(i + 1) % k} {h}"]
    return "\n".join(lines) + "\n"


# A copy of the benchmark's walk levels (perfbench/families.py), so that
# the tests build the same chain and branching walks on their own.


def _odd_128ths(rng, lo, hi):
    return Fraction(rng.randrange(lo, hi + 1, 2), 128)


def walk_levels(k, critical, rng):
    """Per-level down probabilities; rng None gives the uniform walk."""
    if rng is None:
        return [Fraction(1, 2) if critical else Fraction(1, 5)] * k
    if not critical:
        return [_odd_128ths(rng, 17, 27) for _ in range(k)]
    out = []
    for _ in range(k // 2):
        a = _odd_128ths(rng, 39, 63)
        out += [a, 1 - a]
    return out


def random_walk(rng: random.Random) -> tuple[str, int, list[Fraction]]:
    """A seeded `walk`: its regime, b and per-level down probabilities d.

    From a top the walk steps down with d or up with 1 - d, and each step
    up owes one more step down, so the descents it owes branch with mean
    2(1 - d) and it comes down with probability 1 exactly when they die
    out. Subcritical walks draw every d above 1/2 and supercritical ones
    below it, each with b in 1-3 and K in 1-4 levels. A critical walk is
    the chain (b = 1) on an even K in (a, 1 - a) pairs, as `walk_levels`
    draws them, whose descents form a double root at 1; a near-critical
    one moves one level's d of such a walk by 10^-k either way."""
    regime = rng.choice(["subcritical", "supercritical", "critical", "near-critical"])
    if regime in ("critical", "near-critical"):
        d = walk_levels(2 * rng.randint(1, 2), True, rng)
        if regime == "near-critical":
            shift = Fraction(rng.choice([-1, 1]), 10 ** rng.randint(1, 12))
            d[rng.randrange(len(d))] += shift
        return regime, 1, d
    lo, hi = (65, 127) if regime == "subcritical" else (1, 63)
    return regime, rng.randint(1, 3), [_odd_128ths(rng, lo, hi) for _ in range(rng.randint(1, 4))]


def walk_faults(seeds: Iterable[int]) -> tuple[Counter, list[str]]:
    """The certified solver on `random_walk(random.Random(seed))` for each
    seed, its until tt U green: `enclosure_fault` of the `solve_until`
    enclosure, and the bounded until at horizon 8 on the depth-10
    truncation from m0, which may not pass hi at m0. The counts of walks,
    of quadratic systems and of exact, converged (not exact) and
    unconverged enclosures, and one line per walk where a check fails."""
    counts, faults = Counter(), []
    for seed in seeds:
        regime, b, d = random_walk(random.Random(seed))
        g = parse_grammar(walk(b, d))
        an = analyse(g)
        phi1, phi2 = (classes_for_colours(an, c) for c in (None, frozenset({"green"})))
        enc, system = solve_until(an, phi1, phi2), shared_assembly(an, phi1, phi2).system
        counts["walks"] += 1
        counts["quadratic"] += any(len(fs) == 2 for terms in system.equations.values()
                                   for _, fs in terms)
        counts["exact" if enc.exact else "converged" if enc.converged else "unconverged"] += 1
        query = PathQuery(None, frozenset({"green"}), "m0", 8)
        bounded, hi = bounded_until(truncate(g, 10, query), query), enc.hi[an.ids["Z", "m0"]]
        fault = enclosure_fault(system, enc) or (
            f"bounded {bounded} above hi {hi}" if bounded > hi else None)
        if fault:
            faults.append(f"seed {seed} ({regime}, b = {b}, d = {[str(x) for x in d]}): {fault}")
    return counts, faults


def random_grammar(rng: random.Random) -> str:
    """A small grammar text: an axiom Z and one to three nonterminals of
    arity 1 or 2. A fresh vertex mostly gets mass 1 (one go arc or two h
    arcs) or a green mark, an absorbing sink unless it gains arcs later; now
    and then it gets a bad arc instead, and bad is priced only in half the
    grammars. An input sometimes gains an arc after being passed down.
    Hyperarcs pick their vertices freely, so they share vertices and pass
    inputs round loops."""
    arity = {f"N{i}": rng.randint(1, 2) for i in range(rng.randint(1, 3))}
    lines = ["nonterminal Z 0", *(f"nonterminal {n} {k}" for n, k in arity.items()),
             "terminal go 2", "terminal h 2", "terminal bad 2", "colour green",
             "colour red", "prob go 1", "prob h 1/2", "absorbing green", "axiom Z"]
    if rng.random() < 0.5:
        lines.append("prob bad 1/2")
    for name, k in [("Z", 0), *arity.items()]:
        inputs = [f"x{j}" for j in range(k)]
        fresh = [f"v{j}" for j in range(rng.randint(1, 3))]
        vs = inputs + fresh
        lines += [f"rule {name}" + (" inputs " + " ".join(inputs) if inputs else ""),
                  "  vertex " + " ".join(fresh)]
        for v in fresh:
            kind = rng.random()
            if kind < 0.45:
                lines.append(f"  arc go {v} {rng.choice(vs)}")
            elif kind < 0.75:
                lines += [f"  arc h {v} {rng.choice(vs)}" for _ in range(2)]
            elif kind < 0.95:
                lines.append(f"  colour green {v}")
            else:
                lines.append(f"  arc bad {v} {rng.choice(vs)}")
        for v in vs:
            if v in inputs and rng.random() < 0.15:
                lines.append(f"  arc h {v} {rng.choice(vs)}")
            if rng.random() < 0.2:
                lines.append(f"  colour red {v}")
        for _ in range(rng.randint(0, 2)):
            label = rng.choice(list(arity))
            if arity[label] <= len(vs):
                lines.append(f"  hyperarc {label} " + " ".join(rng.sample(vs, arity[label])))
    return "\n".join(lines) + "\n"


def closure_fault(g: Grammar) -> str | None:
    """Why some class record of `g` (`vertex_classes`) is not the
    reachability closure of its passings, or None when every record is.
    Reads the rules alone, not the walk.

    A passing leads from a rule vertex in a hyperarc slot to the input of
    that slot's rule; a class reaches its creation site and every site that
    passings lead to from there. Its colours are the reached sites' marks.
    A reached site on a cycle of passings, and every site below it, is
    reached forever: `forever` holds every (way, label) of their arcs, and
    the class terminates when there is no such site. `counts` sums, once
    per path of passings from the creation site that meets no cycle, the
    arcs of the site the path ends at. A creation site is never an input,
    so it lies on no cycle.
    """
    inputs = {rule.lhs: rule.inputs for rule in g.rules}
    step: dict = {}
    arcs: dict = {}
    marks: dict = {}
    for rule in g.rules:
        for label, vs in rule.rhs.hyperarcs:
            for v, x in zip(vs, inputs[label]):
                step.setdefault((rule.lhs, v), []).append((label, x))
        for label, source, target in rule.rhs.arcs:
            arcs.setdefault((rule.lhs, source), []).append(("out", label))
            arcs.setdefault((rule.lhs, target), []).append(("in", label))
        for colour, v in rule.rhs.colours:
            marks.setdefault((rule.lhs, v), set()).add(colour)

    def beyond(sites) -> set:
        """The sites one or more passings lead to from `sites`."""
        seen, todo = set(), [t for s in sites for t in step.get(s, ())]
        while todo:
            t = todo.pop()
            if t not in seen:
                seen.add(t)
                todo += step.get(t, ())
        return seen

    for can, vc in vertex_classes(g).items():
        reached = beyond([can]) | {can}
        cycles = {s for s in reached if s in beyond([s])}
        below = cycles | beyond(cycles)

        def paths(site) -> Counter:
            return sum((paths(t) for t in step.get(site, ()) if t not in cycles),
                       Counter(arcs.get(site, ())))

        want = (frozenset().union(*(marks.get(s, ()) for s in reached)), not cycles,
                paths(can), frozenset(a for s in below for a in arcs.get(s, ())))
        got = (vc.colours, vc.terminates, vc.counts, vc.forever)
        if got != want:
            return (f"{can}: colours, terminates, counts, forever {_shown(got)}; "
                    f"the closure has {_shown(want)}")
    return None


def _shown(record: tuple) -> str:
    colours, terminates, counts, forever = record
    return f"{sorted(colours)}, {terminates}, {sorted(counts.items())}, {sorted(forever)}"


def record_faults(seeds: Iterable[int]) -> list[str]:
    """`closure_fault` on `random_grammar(random.Random(seed))` for each
    seed: one line per grammar with a class record that is not the
    closure of its passings."""
    faults = []
    for seed in seeds:
        fault = closure_fault(parse_grammar(random_grammar(random.Random(seed))))
        if fault:
            faults.append(f"seed {seed}: {fault}")
    return faults


def occurrence_fault(an: Analysis) -> str | None:
    """Why the analysis's `refs` or `bindings` are not the classes an
    expansion glues on, or None when they are. Reads the `applications`
    replay, not the passing table.

    The replay runs to depth len(rules) + the sum of the rules' arities.
    Every reachable rule is first applied within len(rules) - 1 levels. A
    vertex reaches each input it can sit at along a simple path of
    passings from its creation, one level per passing and each landing on
    a different input, so along at most the sum of the arities; the
    occurrence that passes it on lies one level deeper still. Each input
    of each application holds the class of the vertex glued there: `refs`
    groups them by (rule, input), and `bindings` by occurrence (the host
    rule and the hyperarc's index in it, hosts that the replay applies
    only), in the order of the hosts' rules and hyperarcs.
    """
    g = an.grammar
    depth = len(g.rules) + sum(len(rule.inputs) for rule in g.rules)
    made: dict[int, CanonicalVertex] = {}
    hosts: list[str] = []  # the rule of each application
    refs = {(rule.lhs, j): set() for rule in g.rules for j in range(1, len(rule.inputs) + 1)}
    slots: dict[tuple[str, int], list[set]] = {}  # occurrence -> classes per input
    for compiled, ids, parent, position in applications(g, depth):
        arity = len(ids) - len(compiled.cans)
        made.update(zip(ids[arity:], compiled.cans))
        hosts.append(compiled.lhs)
        if parent is not None:
            held = slots.setdefault((hosts[parent], position), [set() for _ in range(arity)])
            for j, v in enumerate(ids[:arity], start=1):
                refs[compiled.lhs, j].add(made[v])
                held[j - 1].add(made[v])
    bindings: dict[str, list[tuple[frozenset, ...]]] = {}
    applied = set(hosts)
    for rule in g.rules:
        if rule.lhs in applied:
            for i, (label, _) in enumerate(rule.rhs.hyperarcs):
                bindings.setdefault(label, []).append(tuple(map(frozenset, slots[rule.lhs, i])))
    got_refs = {key: {an.names[c] for c in cs} for key, cs in an.refs.items()}
    got_bindings = {label: [tuple(frozenset(an.names[c] for c in s) for s in occ)
                            for occ in occs] for label, occs in an.bindings.items()}
    for key in sorted(refs.keys() | got_refs.keys()):
        if refs.get(key) != got_refs.get(key):
            return (f"refs{key}: {sorted(got_refs.get(key, ()))}; "
                    f"the expansion has {sorted(refs.get(key, ()))}")
    for label in sorted(bindings.keys() | got_bindings.keys()):
        if bindings.get(label) != got_bindings.get(label):
            return (f"bindings[{label}]: {got_bindings.get(label)}; "
                    f"the expansion has {bindings.get(label)}")
    return None


def occurrence_faults(seeds: Iterable[int]) -> tuple[int, list[str]]:
    """`occurrence_fault` on each `random_grammar(random.Random(seed))`
    that `analyse` accepts: how many it accepts, and one line per grammar
    whose `refs` or `bindings` are not the expansion's."""
    checked, faults = 0, []
    for seed in seeds:
        try:
            an = analyse(parse_grammar(random_grammar(random.Random(seed))))
        except GrammarError:
            continue
        checked += 1
        if fault := occurrence_fault(an):
            faults.append(f"seed {seed}: {fault}")
    return checked, faults


def colour_pairs(an: Analysis) -> list[tuple]:
    """(c1, c2, phi1, phi2) for every colour c2 and c1 None or a colour:
    phi1 holds the classes of c1 (every class for None), phi2 those of c2."""
    names = sorted(an.grammar.colour_names)
    return [(c1, c2, *(classes_for_colours(an, None if c is None else frozenset({c}))
                       for c in (c1, c2)))
            for c1 in [None, *names] for c2 in names]


def fragment_faults(seeds: Iterable[int]) -> tuple[Counter, list[str]]:
    """`fragments.local_rows` against `fragment_rows` on each
    `random_grammar(random.Random(seed))` that `analyse` accepts, for every
    fragment and every pair of phi1 (true or a colour) and phi2 (a colour):
    the counts of grammars, rows, calls and calls with live transients, and
    one line per grammar where some row's win or hits differ from the
    reference's."""
    counts, faults = Counter(), []
    for seed in seeds:
        try:
            an = analyse(parse_grammar(random_grammar(random.Random(seed))))
        except GrammarError:
            continue
        counts["grammars"] += 1
        fault = None
        for c1, c2, phi1, phi2 in colour_pairs(an):
            for name, frag in an.fragments.items():
                rows = local_rows(an, frag, phi1, phi2)
                ref = fragment_rows(an, frag, phi1, phi2)
                counts["calls"] += 1
                counts["rows"] += len(rows)
                counts["calls with transients"] += bool(live_transients(an, frag, phi1, phi2))
                if fault is None:
                    got = {k: (row.win, row.hits) for k, row in rows.items()}
                    want = {k: (win, hits) for k, (win, _, hits) in ref.items()}
                    if got != want:
                        fault = f"fragment {name}, phi1 {c1}, phi2 {c2}: {got} against {want}"
        if fault:
            faults.append(f"seed {seed}: {fault}")
    return counts, faults
