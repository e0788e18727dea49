import random
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from math import lcm

import numpy as np
import pytest

from pregma.gio import parse_grammar
from pregma.model import GrammarError, checked_rules, expand
from pregma.oracle import (
    HorizonError,
    PathQuery,
    TotalityError,
    _colour_mask,
    _threshold_tables,
    bounded_until,
    integer_weights,
    sample_until,
    truncate,
)
from pregma.pcp import encode, load_pcp
from pregma.pushdown import config_chain, load_pds, to_grammar
from pregma.rng import draw_array

V1 = frozenset({"V1"})
V2 = frozenset({"V2"})


def q(h, phi1=V1, phi2=V2):
    return PathQuery(phi1, phi2, "v0", h)


def test_truncate_state_count(running):
    mc = truncate(running, 8)
    # 2 axiom vertices plus 4 per level
    assert len(mc.states) == 34
    assert len(mc.trans) == 34
    assert _colour_mask(mc, V2).sum() == 8
    assert _colour_mask(mc, None).all()


def test_truncate_gives_sinks_self_loops(running):
    mc = truncate(running, 3)
    t0 = mc.resolve("t0")
    assert mc.den == 4
    assert mc.trans[t0] == [(t0, 4)]


def test_resolve_accepts_names_and_ids(running):
    mc = truncate(running, 2)
    i = mc.resolve("v0")
    assert mc.resolve(i) == i
    with pytest.raises(Exception, match="not a vertex of the axiom rule"):
        mc.resolve("not-a-vertex")


def test_bounded_until_exact_prefix(running):
    mc = truncate(running, 8)
    values = [bounded_until(mc, q(h)) for h in range(6)]
    assert values == [
        Fraction(0), Fraction(0), Fraction(0),
        Fraction(1, 8), Fraction(3, 16), Fraction(7, 32),
    ]


def test_bounded_until_is_monotone_in_horizon(running, dag, updrift):
    for g in (running, dag, updrift):
        mc = truncate(g, 14)
        start = str(g.axiom_rule().rhs.vertices[0])
        phi2 = frozenset({next(iter(g.absorbing & g.colour_names))})
        last = Fraction(0)
        for h in range(12):
            value = bounded_until(mc, PathQuery(None, phi2, start, h))
            assert value >= last
            assert value <= 1
            last = value


def test_truncate_rejects_unnormalised_mu(running):
    with pytest.raises(TotalityError, match="outgoing mass 7/6"):
        truncate(replace(running, mu={"a": Fraction(1, 2), "d": Fraction(1, 3)}), 4)


def test_truncate_needs_every_label_priced(running):
    with pytest.raises(Exception, match="no probability for arc label d"):
        truncate(replace(running, mu={"a": Fraction(1, 2)}), 4)


def test_frontier_guard(running):
    mc = truncate(running, 3)
    # the frontier sits 3 steps from v0, so horizon 2 is fine and 3 is not
    assert bounded_until(mc, q(2)) == 0
    with pytest.raises(HorizonError, match="deepen the truncation"):
        bounded_until(mc, q(3))
    # the cone walk ends with the cone, not with the horizon
    with pytest.raises(HorizonError, match="within 1000000 steps"):
        bounded_until(mc, q(10**6))


def test_frontier_guard_spares_winning_frontiers(running):
    # every frontier vertex carries V1, so a V1 target needs no deepening
    mc = truncate(running, 3)
    assert bounded_until(mc, PathQuery(None, V1, "v0", 10)) == 1
    assert bounded_until(mc, PathQuery(None, V1, "v0", 10**6)) == 1


def test_sample_until_frozen_run(running):
    mc = truncate(running, 45)
    res = sample_until(mc, q(40), 5000, 11)
    assert (res.hits, res.misses, res.escapes, res.n) == (1569, 3431, 0, 5000)
    assert res.estimate_lo == Fraction(1569, 5000)
    assert res.estimate_hi == Fraction(1569, 5000)


def test_sample_until_is_deterministic_per_seed(running):
    mc = truncate(running, 12)
    a = sample_until(mc, q(8), 400, 7)
    b = sample_until(mc, q(8), 400, 7)
    c = sample_until(mc, q(8), 400, 8)
    assert (a.hits, a.misses, a.escapes) == (b.hits, b.misses, b.escapes)
    assert (a.hits, a.misses) != (c.hits, c.misses)


def test_sample_until_tracks_the_exact_value(running):
    # 400 runs at horizon 8: agreement with the DP value to within a loose
    # binomial band, no escapes possible this shallow
    mc = truncate(running, 12)
    exact = float(bounded_until(mc, q(8)))
    res = sample_until(mc, q(8), 400, 3)
    assert res.escapes == 0
    assert abs(res.hits / 400 - exact) < 0.1


def test_sample_until_needs_positive_n(running):
    mc = truncate(running, 4)
    with pytest.raises(ValueError, match="positive sample count"):
        sample_until(mc, q(2), 0, 1)


def test_sample_until_ends_hopeless_trajectories(running, monkeypatch):
    # many trajectories reach a state that can reach neither V2 nor the
    # frontier, such as the absorbing sink t0 (coloured V1, so never dead);
    # they end there as misses, so a far horizon draws exactly as often as
    # a near one and gives the same counts
    calls = []

    def counting(seed, ks):
        calls.append(len(ks))
        return draw_array(seed, ks)

    monkeypatch.setattr("pregma.oracle.draw_array", counting)
    mc = truncate(running, 3)
    runs = []
    for horizon in (2000, 10**6):
        calls.clear()
        res = sample_until(mc, q(horizon), 1000, 0)
        runs.append(((res.hits, res.misses, res.escapes), len(calls), sum(calls)))
    assert runs[0] == runs[1]
    assert runs[0][0] == (191, 675, 134)
    assert runs[0][1] < 2000


def full_sweep(mc, query):
    """Reference: the plain Fraction sweep over every state at every step."""
    win, alive = _colour_mask(mc, query.phi2), _colour_mask(mc, query.phi1)
    prev = [Fraction(int(w)) for w in win]
    for _ in range(query.horizon):
        prev = [Fraction(1) if win[s] else Fraction(0) if not alive[s] else
                sum((Fraction(w, mc.den) * prev[t] for t, w in row), Fraction(0))
                for s, row in enumerate(mc.trans)]
    return prev[mc.resolve(query.start)]


@pytest.fixture(scope="module")
def branching_walk():
    """A seeded two-level walk: level i climbs from its input `lo` with u<i>
    to two fresh vertices, each stepping back down with d<i> and carrying the
    next level's hyperarc; the axiom's m0 steps down to the green base."""
    rng = random.Random(7)
    d = [Fraction(rng.randrange(17, 28, 2), 128) for _ in range(2)]
    lines = ["nonterminal Z 0", "nonterminal W0 1", "nonterminal W1 1"]
    lines += [f"terminal {lab}{i} 2" for i in range(2) for lab in "ud"]
    lines += ["colour green", "absorbing green", "axiom Z"]
    for i in range(2):
        lines += [f"prob d{i} {d[i]}", f"prob u{i} {(1 - d[i - 1]) / 2}"]
    lines += ["rule Z", "  vertex base m0", "  colour green base",
              "  arc d1 m0 base", "  hyperarc W0 m0"]
    for i in range(2):
        lines += [f"rule W{i} inputs lo", "  vertex h0 h1"]
        for h in ("h0", "h1"):
            lines += [f"  arc u{i} lo {h}", f"  arc d{i} {h} lo",
                      f"  hyperarc W{1 - i} {h}"]
    return parse_grammar("\n".join(lines) + "\n")


def test_bounded_until_matches_the_full_sweep(running, dag, updrift,
                                               branching_walk, pds_prob):
    cases = [(truncate(g, 14), phi1, frozenset({phi2}), start)
             for g, phi1, phi2, start in [(running, V1, "V2", "v0"),
                                          (running, None, "V2", "v0"),
                                          (dag, None, "goal", "v0"),
                                          (updrift, None, "green", "m0")]]
    walk = truncate(branching_walk, 8)
    cases.append((walk, None, frozenset({"green"}), "m0"))
    cases.append((config_chain(pds_prob, ("r",), 14), None,
                  frozenset({"halt"}), "r"))
    for mc, phi1, phi2, start in cases:
        for h in range(13):
            query = PathQuery(phi1, phi2, start, h)
            if mc is walk and h >= 8:
                # the walk's frontier is 8 climbs above m0
                with pytest.raises(HorizonError):
                    bounded_until(mc, query)
                continue
            assert bounded_until(mc, query) == full_sweep(mc, query), (start, h)


def test_horizon_errors_exactly_where_the_frontier_is_in_reach(running):
    for depth in range(1, 7):
        mc = truncate(running, depth)
        for h in range(9):
            if h < depth:
                assert bounded_until(mc, q(h)) == full_sweep(mc, q(h))
            else:
                with pytest.raises(HorizonError):
                    bounded_until(mc, q(h))
    with pytest.raises(HorizonError, match=(
            r"^frontier vertex 13 \(class A:next, level 3\) is within 3 "
            r"steps of the start; deepen the truncation$")):
        bounded_until(truncate(running, 3), q(3))


class Unreadable:
    def _refuse(self, *args):
        raise AssertionError("read a row outside the horizon cone")

    __iter__ = __getitem__ = __len__ = _refuse


def test_bounded_until_reads_only_the_horizon_cone(updrift, branching_walk):
    for g, start, h in [(updrift, "m0", 6), (branching_walk, "m0", 5)]:
        mc = truncate(g, 14 if g is updrift else 8)
        query = PathQuery(None, frozenset({"green"}), start, h)
        dist = {mc.resolve(start): 0}
        todo = [mc.resolve(start)]
        for s in todo:
            for t, _ in mc.trans[s]:
                if t not in dist:
                    dist[t] = dist[s] + 1
                    todo.append(t)
        far = [s for s in range(len(mc.states)) if dist.get(s, h + 1) > h]
        assert far
        trans = list(mc.trans)
        for s in far:
            trans[s] = Unreadable()
        assert bounded_until(replace(mc, trans=trans), query) \
            == full_sweep(mc, query)


@pytest.fixture(scope="module")
def corpus_grammars(corpus_dir):
    grammars = [parse_grammar(p.read_text()) for p in sorted(corpus_dir.glob("*.gg"))]
    grammars += [encode(load_pcp(p))[0] for p in sorted(corpus_dir.glob("*.pcp"))]
    grammars.append(to_grammar(load_pds(corpus_dir / "pds_example_prob.pds")))
    assert len(grammars) == 11
    return grammars


def expanded_chain(g, depth):
    """Reference: the chain read off a whole `expand(g, depth)`, with the
    states in vertex order and the rows in arc order."""
    checked_rules(g)
    den, weight = integer_weights(g.mu)
    expansion = expand(g, depth)
    graph = expansion.graph
    states = list(graph.vertices)
    index = {v: i for i, v in enumerate(states)}
    colour_sets = graph.colour_sets()
    colours = [colour_sets[v] for v in states]
    frontier = frozenset(index[v] for v in expansion.frontier)
    trans = [[] for _ in states]
    for label, source, target in graph.arcs:
        if label not in weight:
            raise GrammarError(f"no probability for arc label {label}")
        trans[index[source]].append((index[target], weight[label]))
    for i, cs in enumerate(colours):
        if not trans[i] and i not in frontier and cs & g.absorbing:
            trans[i].append((i, den))
    classes = [expansion.classes[v] for v in states]
    levels = [expansion.levels[v] for v in states]
    for i, row in enumerate(trans):
        total = sum(w for _, w in row)
        if total != den and i not in frontier:
            raise TotalityError(
                f"vertex {states[i]} (class {classes[i]}, level "
                f"{levels[i]}) has outgoing mass {Fraction(total, den)}")
    return {"states": states, "index": index, "trans": trans, "den": den,
            "colours": colours, "frontier": frontier,
            "classes": classes, "levels": levels,
            "axiom_ids": {name: index[v] for name, v
                          in expansion.axiom_ids.items()}}


def chain_or_error(build, g, depth):
    try:
        return build(g, depth)
    except GrammarError as exc:
        return type(exc), str(exc)


def test_truncate_equals_the_chain_of_the_expansion(corpus_grammars,
                                                    corpus_dir, running,
                                                    branching_walk):
    grammars = [*corpus_grammars,
                to_grammar(load_pds(corpus_dir / "pds_example.pds")),
                replace(running, mu={"a": Fraction(1, 4), "d": Fraction(1, 4)}),
                replace(running, mu={"a": Fraction(1, 2)})]
    cases = [(g, depth) for g in grammars for depth in range(9)]
    cases.append((branching_walk, 14))
    errors = 0
    for g, depth in cases:
        expected = chain_or_error(expanded_chain, g, depth)
        mc = chain_or_error(truncate, g, depth)
        if isinstance(expected, tuple):
            errors += 1
            assert mc == expected, (g.axiom, depth)
            continue
        assert {key: getattr(mc, key) for key in expected} == expected
    # the unpriced pushdown and the two broken mus fail at every depth but
    # 0, where no arc exists yet
    assert errors == 3 * 8


def test_threshold_tables_match_the_fraction_cuts(corpus_grammars):
    for g in corpus_grammars:
        mc = truncate(g, 8)
        cuts, targets = _threshold_tables(mc, list(range(len(mc.trans))))
        for s, row in enumerate(mc.trans):
            cum = Fraction(0)
            expected = []
            for _, w in row[:-1]:
                cum += Fraction(w, mc.den)
                expected.append((cum.numerator << 64) // cum.denominator)
            assert cuts[s].tolist() == expected
            assert np.array_equal(targets[s], [t for t, _ in row])
        # tables for a subset of the states agree
        some = list(range(0, len(mc.trans), 3))
        part, _ = _threshold_tables(mc, some)
        assert all(np.array_equal(part[s], cuts[s]) for s in some)


def test_rows_are_integer_weights_over_the_lcm_of_mu(corpus_grammars, pds_prob):
    chains = [(truncate(g, 8), g.mu, g.absorbing) for g in corpus_grammars]
    chains.append((config_chain(pds_prob, ("r",), 14), pds_prob.mu,
                   {pds_prob.sink_colour}))
    for mc, mu, absorbing in chains:
        assert mc.den == lcm(*(p.denominator for p in mu.values()))
        loops = 0
        for i, row in enumerate(mc.trans):
            if i in mc.frontier:
                continue
            assert sum(w for _, w in row) == mc.den
            if mc.colours[i] & absorbing:
                assert row == [(i, mc.den)]
                loops += 1
        assert loops


def test_mixed_denominators_keep_values_and_cuts():
    # 1/2 steps for the start's first three steps, 1/3 and 2/3 beyond them:
    # the cone's lcm is 2 up to horizon 3, while mu's is 6
    g = parse_grammar(
        "nonterminal Z 0\nnonterminal A 2\nnonterminal B 2\nnonterminal C 2\n"
        "terminal h 2\nterminal t 2\nterminal u 2\ncolour goal\n"
        "absorbing goal\nprob h 1/2\nprob t 1/3\nprob u 2/3\naxiom Z\n"
        "rule Z\n  vertex v0 g\n  colour goal g\n  hyperarc A v0 g\n"
        "rule A inputs s g\n  vertex n\n  arc h s g\n  arc h s n\n"
        "  hyperarc B n g\n"
        "rule B inputs s g\n  vertex n\n  arc h s g\n  arc h s n\n"
        "  hyperarc C n g\n"
        "rule C inputs s g\n  vertex n\n  arc t s g\n  arc u s n\n"
        "  hyperarc C n g\n")
    mc = truncate(g, 10)
    assert mc.den == 6
    for h in range(9):
        query = PathQuery(None, frozenset({"goal"}), "v0", h)
        assert bounded_until(mc, query) == full_sweep(mc, query), h
    assert bounded_until(mc, query) == Fraction(713, 729)
    # the cuts from mu's own fractions, row by row in arc order
    probs: dict[int, list[Fraction]] = {}
    for arc in expand(g, 10).graph.arcs:
        probs.setdefault(mc.index[arc.source], []).append(g.mu[arc.label])
    cuts, _ = _threshold_tables(mc, list(probs))
    for s, ps in probs.items():
        assert cuts[s].tolist() == [(c.numerator << 64) // c.denominator
                                    for c in accumulate(ps[:-1])]
    assert cuts[mc.resolve("v0")].tolist() == [1 << 63]


def test_truncate_rejects_mass_below_one(running):
    with pytest.raises(TotalityError, match=(
            r"^vertex 0 \(class Z:v0, level 0\) has outgoing mass 1/2$")):
        truncate(replace(running, mu={"a": Fraction(1, 4), "d": Fraction(1, 4)}), 4)


def test_sample_until_reads_only_the_stepping_cone(updrift, branching_walk):
    # horizons 20 and 11 run past the frontier, so escapes are covered too
    for g, depth, h in [(updrift, 14, 6), (updrift, 14, 20),
                        (branching_walk, 8, 5), (branching_walk, 8, 11)]:
        mc = truncate(g, depth)
        query = PathQuery(None, frozenset({"green"}), "m0", h)
        win = _colour_mask(mc, query.phi2)

        def undecided(s):
            return not win[s] and s not in mc.frontier

        start = mc.resolve("m0")
        dist = {start: 0}
        todo = [start]
        for s in todo:
            if dist[s] < h and undecided(s):
                for t, _ in mc.trans[s]:
                    if t not in dist:
                        dist[t] = dist[s] + 1
                        todo.append(t)
        stepping = {s for s, d in dist.items() if d < h and undecided(s)}
        far = [s for s in range(len(mc.states)) if s not in stepping]
        assert far
        trans = list(mc.trans)
        for s in far:
            trans[s] = Unreadable()
        escapes = 0
        for seed in (0, 11):
            a = sample_until(mc, query, 2000, seed)
            b = sample_until(replace(mc, trans=trans), query, 2000, seed)
            assert (a.hits, a.misses, a.escapes) == (b.hits, b.misses, b.escapes)
            escapes += a.escapes
        assert (escapes > 0) == (h > 8)


def test_missing_probability_names_the_first_label_in_arc_order():
    g = parse_grammar(
        "nonterminal Z 0\nterminal b 2\nterminal zz 2\nterminal aa 2\n"
        "prob b 1\naxiom Z\nrule Z\n  vertex v0 v1\n"
        "  arc b v0 v1\n  arc zz v1 v0\n  arc aa v1 v1\n")
    with pytest.raises(GrammarError, match="^no probability for arc label zz$"):
        truncate(g, 0)
    with pytest.raises(GrammarError, match="^no probability for arc label aa$"):
        truncate(replace(g, mu={"b": Fraction(1), "zz": Fraction(1, 2)}), 0)
