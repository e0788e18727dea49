import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import NamedTuple

import numpy as np
import pytest

from pregma.gio import parse_grammar
from pregma.labeling import classes_for_colours
from pregma.model import GrammarError, checked_rules, expand, reachable_nonterminals
from pregma.oracle import (
    HorizonError,
    SAMPLE_BATCH,
    PathQuery,
    TotalityError,
    _cone,
    _may_raise,
    _targets_of,
    _threshold_tables,
    bounded_until,
    integer_weights,
    sample_until,
    truncate,
)
from pregma.pcp import encode, load_pcp
from pregma.polysys import decide_threshold
from pregma.pushdown import load_pds, to_grammar
from pregma.qualitative import next_qualitative, until_almost_sure, until_positive
from pregma.quantitative import shared_assembly, solve_until
from pregma.rng import draw_array
from pregma.validation import analyse, check_complete_outside, phr_check, vertex_classes
from reference import config_chain, enclosure_fault, random_grammar, row_table, rows

V1 = frozenset({"V1"})
V2 = frozenset({"V2"})
GREEN = frozenset({"green"})


def q(h, phi1=V1, phi2=V2):
    return PathQuery(phi1, phi2, "v0", h)


def mask(mc, names):
    """Per state: whether it shows a colour of `names` (None: every state)."""
    return [names is None or bool(cs & names) for cs in mc.colours]


def test_truncate_state_count(running):
    mc = truncate(running, 8)
    # 2 axiom vertices plus 4 per level
    assert len(mc.states) == 34
    assert len(mc.trans.starts) == 35
    assert sum(mask(mc, V2)) == 8
    assert all(mask(mc, None))


def test_truncate_gives_sinks_self_loops(running):
    mc = truncate(running, 3)
    t0 = mc.resolve("t0")
    assert mc.den == 4
    assert rows(mc)[t0] == [(t0, 4)]


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
        truncate(running._replace(mu={"a": Fraction(1, 2), "d": Fraction(1, 3)}), 4)


def test_truncate_needs_every_label_priced(running):
    with pytest.raises(Exception, match="no probability for arc label d"):
        truncate(running._replace(mu={"a": Fraction(1, 2)}), 4)


def test_frontier_guard(running):
    mc = truncate(running, 3)
    # the frontier sits 3 steps from v0: horizon 3 reads it only through
    # its final colours, as a deeper truncation does, and 4 needs its row
    assert bounded_until(mc, q(2)) == 0
    assert bounded_until(mc, q(3)) == bounded_until(truncate(running, 5), q(3)) \
        == Fraction(1, 8)
    with pytest.raises(HorizonError, match="deepen the truncation"):
        bounded_until(mc, q(4))
    # the cone walk ends with the cone, not with the horizon
    with pytest.raises(HorizonError, match="within 1000000 steps"):
        bounded_until(mc, q(10**6))


def test_frontier_guard_spares_winning_frontiers(running):
    # every frontier vertex carries V1, so a V1 target needs no deepening
    mc = truncate(running, 3)
    assert bounded_until(mc, PathQuery(None, V1, "v0", 10)) == 1
    assert bounded_until(mc, PathQuery(None, V1, "v0", 10**6)) == 1


def test_frontier_states_are_read_through_their_final_colours():
    # C colours its own input goal, so x and w show goal only once their
    # C hyperarcs are expanded; at depth 0 they, and y, lie on the frontier.
    # x lies exactly at the horizon, w one step inside it (won only by its
    # final colours) and y one step inside it too, dead: its final colours
    # lack ok. None of them steps, so depth 0 answers as depth 2 does
    g = parse_grammar(
        "nonterminal Z 0\nnonterminal C 1\nnonterminal D 1\nterminal a 2\n"
        "terminal b 2\nterminal c 2\nterminal e 2\ncolour ok\ncolour goal\n"
        "colour stop\nprob a 1/2\nprob b 1/4\nprob c 1/4\nprob e 1\n"
        "absorbing goal\nabsorbing stop\naxiom Z\n"
        "rule Z\n  vertex s m x y w\n  colour ok s\n  colour ok m\n  arc a s m\n"
        "  arc e m x\n  arc b s y\n  arc c s w\n  hyperarc C x\n  hyperarc D y\n"
        "  hyperarc C w\nrule C inputs i\n  colour goal i\n"
        "rule D inputs i\n  vertex z\n  arc e i z\n  colour stop z\n")
    query = PathQuery(frozenset({"ok"}), frozenset({"goal"}), "s", 2)
    shallow, deeper = truncate(g, 0), truncate(g, 2)
    assert len(shallow.frontier) == 3
    assert truncate(g, 2, query).states == shallow.states
    assert bounded_until(shallow, query) == bounded_until(deeper, query) == Fraction(3, 4)
    counts = [sample_until(mc, query, 400, 5) for mc in (shallow, deeper)]
    assert [(r.hits, r.misses, r.escapes) for r in counts] == [
        (counts[1].hits, 400 - counts[1].hits, 0)] * 2
    assert abs(counts[0].misses - 100) < 30  # the trajectories through y


def test_sample_until_frozen_run(running):
    mc = truncate(running, 45)
    res = sample_until(mc, q(40), 5000, 11)
    assert (res.hits, res.misses, res.escapes, res.n) == (1569, 3431, 0, 5000)
    assert res.estimate_lo == Fraction(1569, 5000)
    assert res.estimate_hi == Fraction(1569, 5000)


def test_two_arc_rows_keep_their_order(branching_walk):
    # each walk state steps on two or three arcs, so the sampler's cut
    # points, and with them these hits, move if a row's arcs are reordered
    query = PathQuery(None, GREEN, "m0", 12)
    mc = truncate(branching_walk, 14, query)
    assert bounded_until(mc, query) == Fraction(13402228906523274493919,
                                                75557863725914323419136)
    res = sample_until(mc, query, 20000, 11)
    assert (res.hits, res.escapes) == (3628, 0)


def peak_mib(call) -> float:
    """The tracemalloc peak of `call`, in MiB, once a first call has
    imported and compiled what it needs."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# The tracemalloc peaks of the truncation path on the walk's 8,192 states at
# depth 14 and horizon 12, each bound 20-30% above its peak on Python 3.11
# (in the comments): the rows are one flat table, read in place.


@pytest.fixture(scope="module")
def walk_chain(branching_walk):
    query = PathQuery(None, GREEN, "m0", 12)
    mc = truncate(branching_walk, 14, query)
    assert len(mc.states) == 8192
    return mc, query


def test_truncate_memory(branching_walk, walk_chain):
    _, query = walk_chain
    assert peak_mib(lambda: truncate(branching_walk, 14, query)) < 2.2  # 1.83


def test_bounded_until_memory(walk_chain):
    assert peak_mib(lambda: bounded_until(*walk_chain)) < 0.6  # 0.47


def test_sample_until_memory(walk_chain):
    assert peak_mib(lambda: sample_until(*walk_chain, 20000, 11)) < 2.6  # 2.11


def test_sample_until_walks_in_batches(running):
    # trajectory i draws number step * n + i in whichever batch it walks,
    # so these are the hits of one walk over all n trajectories at once;
    # the peak is that of one batch, whatever n is (3.76 MiB on Python 3.11
    # at both 10^6 and 4 * 10^6)
    query = PathQuery(None, frozenset({"V2"}), "v0", 5)
    mc = truncate(running, 7, query)
    hits = [sample_until(mc, query, n, 0).hits for n in (SAMPLE_BATCH, SAMPLE_BATCH + 1)]
    assert hits == [14188, 14318]
    tracemalloc.start()
    try:
        res = sample_until(mc, query, 10**6, 0)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert (res.hits, res.escapes) == (218527, 0)
    assert peak < 5


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

    monkeypatch.setattr("pregma.rng.draw_array", counting)
    mc = truncate(running, 3)
    runs = []
    for horizon in (2000, 10**6):
        calls.clear()
        res = sample_until(mc, q(horizon), 1000, 0)
        runs.append(((res.hits, res.misses, res.escapes), len(calls), sum(calls)))
    assert runs[0] == runs[1]
    assert runs[0][0] == (191, 675, 134)
    assert runs[0][1] < 2000


def test_sample_until_steps_on_the_cut_points(monkeypatch):
    # s steps to x, y and z with 1/4, 1/4 and 1/2, so its cuts are c1 = 2^62
    # and c2 = 2^63; p's one arc has no cut, and its row is padded to s's
    # width. A draw r takes the first target whose cut exceeds r, and the
    # draw 2^64 - 1 takes the last target of a row, padded or not
    g = parse_grammar(
        "nonterminal Z 0\nterminal a 2\nterminal b 2\nterminal c 2\n"
        "terminal e 2\ncolour x\ncolour y\ncolour z\nabsorbing x\n"
        "absorbing y\nabsorbing z\nprob a 1/4\nprob b 1/4\nprob c 1/2\n"
        "prob e 1\naxiom Z\nrule Z\n  vertex p s u v w\n  arc e p s\n"
        "  arc a s u\n  arc b s v\n  arc c s w\n  colour x u\n"
        "  colour y v\n  colour z w\n")
    c1, c2 = 1 << 62, 1 << 63
    draws = np.array([0, c1 - 1, c1, c2 - 1, c2, (1 << 64) - 1], dtype=np.uint64)

    def fixed(seed, ks):
        assert len(ks) == len(draws)
        return draws

    monkeypatch.setattr("pregma.rng.draw_array", fixed)
    mc = truncate(g, 0)
    for start, h in [("s", 1), ("p", 2)]:
        for colour in "xyz":
            res = sample_until(mc, PathQuery(None, frozenset({colour}), start, h),
                               len(draws), 0)
            assert (res.hits, res.misses, res.escapes) == (2, 4, 0), (start, colour)


def full_sweep(mc, query):
    """Reference: the plain Fraction sweep over every state at every step."""
    win, alive = mask(mc, query.phi2), mask(mc, query.phi1)
    prev = [Fraction(int(w)) for w in win]
    for _ in range(query.horizon):
        prev = [Fraction(1) if win[s] else Fraction(0) if not alive[s] else
                sum((Fraction(w, mc.den) * prev[t] for t, w in row), Fraction(0))
                for s, row in enumerate(rows(mc))]
    return prev[mc.resolve(query.start)]


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
            if mc is walk and h >= 9:
                # the walk's frontier is 8 climbs above m0
                with pytest.raises(HorizonError):
                    bounded_until(mc, query)
                continue
            if mc is walk and h == 8:
                # the frontier at the horizon is read only through its colours
                assert bounded_until(mc, query) == full_sweep(truncate(branching_walk, 10),
                                                              query)
            assert bounded_until(mc, query) == full_sweep(mc, query), (start, h)


def test_horizon_errors_exactly_where_the_frontier_is_in_reach(running, pds_prob):
    # the frontier of depth d lies d steps from v0 and would step on from
    # there, so horizons up to d read it only through its colours
    for depth in range(1, 7):
        mc = truncate(running, depth)
        deeper = truncate(running, depth + 2)
        for h in range(9):
            if h <= depth:
                assert bounded_until(mc, q(h)) == full_sweep(mc, q(h)) \
                    == full_sweep(deeper, q(h))
            else:
                with pytest.raises(HorizonError):
                    bounded_until(mc, q(h))
    with pytest.raises(HorizonError, match=(
            r"^frontier vertex 13 \(class A:next, level 3\) is within 4 "
            r"steps of the start; deepen the truncation$")):
        bounded_until(truncate(running, 3), q(4))
    # a chain that is no truncation names no class or level
    halt = PathQuery(None, frozenset({"halt"}), "r", 3)
    assert bounded_until(config_chain(pds_prob, ("r",), 3), halt) == \
        bounded_until(config_chain(pds_prob, ("r",), 5), halt) == Fraction(1, 2)
    with pytest.raises(HorizonError, match=(
            r"^frontier vertex 2 is within 3 steps of the start; deepen the truncation$")):
        bounded_until(config_chain(pds_prob, ("r",), 2), halt)
    # r is passed on to C's input on every level, so it lies on the frontier
    # at every depth: deepening cannot help, and the error says so
    forever = parse_grammar(
        "nonterminal Z 0\nnonterminal C 1\nterminal a 2\ncolour stop\nprob a 1\n"
        "absorbing stop\naxiom Z\nrule Z\n  vertex r\n  hyperarc C r\n"
        "rule C inputs x\n  vertex y\n  arc a x y\n  colour stop y\n  hyperarc C x\n")
    query = PathQuery(None, frozenset({"stop"}), "r", 2)
    for depth in (4, 300):
        with pytest.raises(HorizonError, match=(
                r"^frontier vertex 0 \(class Z:r, level 0\) is within 2 steps of the "
                r"start; its class's passings never end, so its vertices never leave "
                r"the frontier$")):
            bounded_until(truncate(forever, depth, query), query)


def poisoned(mc, far):
    """mc with the row of each state in `far` replaced by one step to a
    state that does not exist, weighted None: a reader that takes such a
    row fails on the target or on the weight."""
    table = rows(mc)
    for s in far:
        table[s] = [(len(mc.states), None)]
    return mc._replace(trans=row_table(table))


def test_bounded_until_reads_only_the_horizon_cone(updrift, branching_walk):
    for g, start, h in [(updrift, "m0", 6), (branching_walk, "m0", 5)]:
        mc = truncate(g, 14 if g is updrift else 8)
        query = PathQuery(None, frozenset({"green"}), start, h)
        dist = {mc.resolve(start): 0}
        todo = [mc.resolve(start)]
        for s in todo:
            for t, _ in rows(mc)[s]:
                if t not in dist:
                    dist[t] = dist[s] + 1
                    todo.append(t)
        far = [s for s in range(len(mc.states)) if dist.get(s, h + 1) > h]
        assert far
        assert bounded_until(poisoned(mc, far), query) == full_sweep(mc, query)


class Recording(list):
    """A list that records the index of every item read, iteration
    included."""

    def __init__(self, items):
        super().__init__(items)
        self.read: set[int] = set()

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)

    def __iter__(self):
        self.read.update(range(len(self)))
        return super().__iter__()


def test_bounded_until_reads_colours_only_in_the_cone(running, updrift,
                                                      branching_walk,
                                                      corpus_dir):
    gadget, _ = encode(load_pcp(corpus_dir / "pcp_s2.pcp"))
    cases = [(running, V1, V2, "v0", 14, range(0, 14, 3)),
             (updrift, None, frozenset({"green"}), "m0", 14, range(0, 14, 3)),
             (branching_walk, None, frozenset({"green"}), "m0", 8, range(10)),
             (gadget, None, frozenset({"green"}), "vgate", 10, range(9))]
    for g, phi1, phi2, start, depth, horizons in cases:
        mc = truncate(g, depth)
        for h in horizons:
            query = PathQuery(phi1, phi2, start, h)
            colours = Recording(mc.colours)
            try:
                value = bounded_until(mc._replace(colours=colours), query)
            except HorizonError:
                value = None
            else:
                assert value == bounded_until(mc, query)

            def steps(s):
                cs = mc.colours[s]
                return not (phi2 & cs) and (phi1 is None or bool(phi1 & cs))

            layers, _ = _cone(_targets_of(mc.trans), len(mc.states), mc.frontier, steps,
                              mc.resolve(start), h)
            assert colours.read <= set().union(*layers), (start, h, value)
            # the sampler reads the same colours, frontier or not
            colours = Recording(mc.colours)
            a = sample_until(mc._replace(colours=colours), query, 300, 5)
            b = sample_until(mc, query, 300, 5)
            assert (a.hits, a.misses, a.escapes) == (b.hits, b.misses, b.escapes)
            assert colours.read <= set().union(*layers), (start, h)


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
    colours = [expansion.colours[v] for v in states]
    frontier = frozenset(index[v] for v in expansion.frontier)
    trans = [[] for _ in states]
    for label, source, target in graph.arcs():
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
    return {"states": states, "trans": trans, "den": den,
            "colours": colours, "frontier": frontier,
            "classes": classes, "levels": levels,
            "axiom_ids": {name: index[v] for name, v
                          in expansion.axiom_ids.items()}}


class Refusal(NamedTuple):
    """What `outcome` gives in place of a raised error; the records under
    test are NamedTuples as well, so tests tell the two apart by type."""

    kind: type
    message: str


def outcome(answer, *args):
    try:
        return answer(*args)
    except (HorizonError, GrammarError) as exc:
        return Refusal(type(exc), str(exc))


def test_truncate_equals_the_chain_of_the_expansion(corpus_grammars,
                                                    corpus_dir, running,
                                                    branching_walk):
    grammars = [*corpus_grammars,
                to_grammar(load_pds(corpus_dir / "pds_example.pds")),
                running._replace(mu={"a": Fraction(1, 4), "d": Fraction(1, 4)}),
                running._replace(mu={"a": Fraction(1, 2)})]
    cases = [(g, depth) for g in grammars for depth in range(9)]
    cases.append((branching_walk, 14))
    errors = 0
    for g, depth in cases:
        expected = outcome(expanded_chain, g, depth)
        mc = outcome(truncate, g, depth)
        if isinstance(expected, Refusal):
            errors += 1
            assert mc == expected, (g.axiom, depth)
            continue
        # a truncation's states are the expansion's vertex ids
        assert list(mc.states) == expected.pop("states")
        assert {key: rows(mc) if key == "trans" else getattr(mc, key)
                for key in expected} == expected
    # the unpriced pushdown and the two broken mus fail at every depth but
    # 0, where no arc exists yet
    assert errors == 3 * 8


def tables(mc, states):
    """Each state's cuts and targets in the sampler's tables for `states`,
    checked to be padded with 2^64 - 1 and with 0 to the widest row."""
    cut, to, last = _threshold_tables(mc, np.array(states, dtype=np.int64))
    cuts, targets = {}, {}
    for i, s in enumerate(states):
        k = int(last[i])
        assert set(cut[i, k:].tolist()) <= {(1 << 64) - 1}
        assert set(to[i, k + 1:].tolist()) <= {0}
        cuts[s], targets[s] = cut[i, :k].tolist(), to[i, :k + 1].tolist()
    return cuts, targets


def test_threshold_tables_match_the_fraction_cuts(corpus_grammars):
    for g in corpus_grammars:
        mc = truncate(g, 8)
        # every state with a row, in a shuffled order
        table = rows(mc)
        states = [s for s, row in enumerate(table) if row]
        random.Random(len(states)).shuffle(states)
        cuts, targets = tables(mc, states)
        for s in states:
            row = table[s]
            cum = Fraction(0)
            expected = []
            for _, w in row[:-1]:
                cum += Fraction(w, mc.den)
                expected.append((cum.numerator << 64) // cum.denominator)
            assert cuts[s] == expected
            assert targets[s] == [t for t, _ in row]
        # tables for a subset of the states agree
        some = states[::3]
        part, _ = tables(mc, some)
        assert all(part[s] == cuts[s] for s in some)


def test_rows_are_integer_weights_over_the_lcm_of_mu(corpus_grammars, pds_prob):
    chains = [(truncate(g, 8), g.mu, g.absorbing) for g in corpus_grammars]
    chains.append((config_chain(pds_prob, ("r",), 14), pds_prob.mu,
                   {pds_prob.sink_colour}))
    for mc, mu, absorbing in chains:
        assert mc.den == lcm(*(p.denominator for p in mu.values()))
        loops = 0
        for i, row in enumerate(rows(mc)):
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
    for label, source, _ in expand(g, 10).graph.arcs():
        probs.setdefault(source, []).append(g.mu[label])
    cuts, _ = tables(mc, list(probs))
    for s, ps in probs.items():
        assert cuts[s] == [(c.numerator << 64) // c.denominator
                                    for c in accumulate(ps[:-1])]
    assert cuts[mc.resolve("v0")] == [1 << 63]


def test_truncate_rejects_mass_below_one(running):
    with pytest.raises(TotalityError, match=(
            r"^vertex 0 \(class Z:v0, level 0\) has outgoing mass 1/2$")):
        truncate(running._replace(mu={"a": Fraction(1, 4), "d": Fraction(1, 4)}), 4)


def test_sample_until_reads_only_the_stepping_cone(updrift, branching_walk):
    # horizons 20 and 11 run past the frontier, so escapes are covered too
    for g, depth, h in [(updrift, 14, 6), (updrift, 14, 20),
                        (branching_walk, 8, 5), (branching_walk, 8, 11)]:
        mc = truncate(g, depth)
        query = PathQuery(None, frozenset({"green"}), "m0", h)
        win = mask(mc, query.phi2)

        def undecided(s):
            return not win[s] and s not in mc.frontier

        start = mc.resolve("m0")
        dist = {start: 0}
        todo = [start]
        for s in todo:
            if dist[s] < h and undecided(s):
                for t, _ in rows(mc)[s]:
                    if t not in dist:
                        dist[t] = dist[s] + 1
                        todo.append(t)
        stepping = {s for s, d in dist.items() if d < h and undecided(s)}
        far = [s for s in range(len(mc.states)) if s not in stepping]
        assert far
        escapes = 0
        for seed in (0, 11):
            a = sample_until(mc, query, 2000, seed)
            b = sample_until(poisoned(mc, far), query, 2000, seed)
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
        truncate(g._replace(mu={"b": Fraction(1), "zz": Fraction(1, 2)}), 0)


def test_closed_cones_give_the_answers_of_the_full_depth(corpus_grammars,
                                                         corpus_dir,
                                                         branching_walk):
    grammars = [*corpus_grammars, branching_walk,
                to_grammar(load_pds(corpus_dir / "pds_example.pds"))]
    early_stops = 0
    for g in grammars:
        axiom = g.axiom_rule().rhs
        # every axiom vertex, and one state id that later levels create
        starts = [*map(str, axiom.vertices), len(axiom.vertices) + 3]
        targets = [frozenset({c}) for c in sorted(g.colour_names)] or [None]
        for depth in (1, 4, 8):
            full = outcome(truncate, g, depth)
            full_rows = None if isinstance(full, Refusal) else rows(full)
            for start in starts:
                for phi2 in targets:
                    for h in range(13):
                        query = PathQuery(None, phi2, start, h)
                        early = outcome(truncate, g, depth, query)
                        if isinstance(full, Refusal):
                            assert early == full
                            continue
                        n = len(early.states)
                        if n == len(full.states):
                            assert early == full
                            continue
                        early_stops += 1
                        assert early.states == full.states[:n]
                        assert early.classes == full.classes[:n]
                        assert early.levels == full.levels[:n]
                        assert early.axiom_ids == full.axiom_ids
                        early_rows = rows(early)
                        for s in range(n):
                            if s not in early.frontier:
                                assert early_rows[s] == full_rows[s]
                                assert early.colours[s] == full.colours[s]
                        assert outcome(bounded_until, early, query) == \
                            outcome(bounded_until, full, query), (g.axiom, query)
                        for seed in (0, 11):
                            a = outcome(sample_until, early, query, 60, seed)
                            b = outcome(sample_until, full, query, 60, seed)
                            if not isinstance(a, Refusal):
                                a = (a.hits, a.misses, a.escapes)
                                b = (b.hits, b.misses, b.escapes)
                            assert a == b, (g.axiom, query, seed)
    assert early_stops > 1000


def test_a_closed_cone_keeps_the_errors_of_the_full_depth(deep_defects):
    query = PathQuery(None, frozenset({"green"}), "v0", 2)
    for text, line in deep_defects:
        g = parse_grammar(text)
        # the cone is closed at level 0, where the truncation is sound
        assert bounded_until(truncate(g, 0), query) == 1
        with pytest.raises(GrammarError, match=f"^{re.escape(line)}$"):
            truncate(g, 4, query)


def test_vertices_passed_on_for_ever_never_keep_a_truncation_building():
    # g is passed from C to C at every level and gains one more loop each
    # time, so it never leaves the frontier and its mass is never checked
    g = parse_grammar(
        "nonterminal Z 0\nnonterminal C 2\nterminal h 2\nterminal t 2\n"
        "colour goal\nabsorbing goal\nprob h 1/2\nprob t 1/2\naxiom Z\n"
        "rule Z\n  vertex v0 g\n  colour goal g\n  hyperarc C v0 g\n"
        "rule C inputs s g\n  vertex n\n  arc h s g\n  arc t s n\n"
        "  arc t g g\n  hyperarc C n g\n")
    query = PathQuery(None, frozenset({"goal"}), "v0", 3)
    mc = truncate(g, 12, query)
    assert max(mc.levels) == 3
    assert bounded_until(mc, query) == bounded_until(truncate(g, 12), query) \
        == Fraction(7, 8)


def test_a_huge_depth_is_not_built_once_the_cone_closes(updrift):
    query = PathQuery(None, frozenset({"green"}), "m0", 6)
    mc = truncate(updrift, 100_000, query)
    assert max(mc.levels) <= 8
    assert bounded_until(mc, query) == bounded_until(truncate(updrift, 8), query)


def test_a_closed_cone_stops_early_when_a_shared_vertex_sums_to_one(deep_defects):
    # the third defect's y, with loops of mass 1/2 from both of its hyperarcs
    text = deep_defects[2][0].replace("  arc go x x\n", "  arc h x x\n").replace(
        "prob go 1\n", "prob go 1\nterminal h 2\nprob h 1/2\n")
    g = parse_grammar(text)
    query = PathQuery(None, frozenset({"green"}), "v0", 2)
    mc = truncate(g, 4, query)
    assert max(mc.levels) == 0
    assert bounded_until(mc, query) == bounded_until(truncate(g, 4), query) == 1


def settled_colours(g, depth):
    """The colours of every vertex of the depth-`depth` expansion once it
    gains no more: those of an expansion deeper by the number of rule
    inputs, the sites a passing leads to, after which no passing reaches a
    site it has not reached yet."""
    return expand(g, depth + sum(len(rule.inputs) for rule in g.rules)).colours


def test_random_grammars_truncate_and_expand_as_their_classes_say():
    """On seeded random grammars: a query's truncation raises what the full
    depth raises or is a prefix of it, on which bounded_until and
    sample_until give the full depth's answers, and every vertex off the
    frontier of an expansion has its class's out-arcs and colours whenever
    the class's passings end; the vertices of the other classes never
    leave the frontier. A truncation's frontier state carries its class's
    colours, which are the colours it settles on, shared vertex or not,
    also when the class's passings never end. Without a shared vertex or an
    unpriced reachable arc, the truncation oracle expects a raise exactly
    when phr_check fails a reachable class whose passings end."""
    rng = random.Random(29)
    seen, pinned = Counter(), Counter()
    for _ in range(700):
        g = parse_grammar(random_grammar(rng))
        depth = rng.randint(1, 4)
        start = rng.choice([str(v) for v in g.axiom_rule().rhs.vertices])
        query = PathQuery(rng.choice([None, frozenset({"red"})]), frozenset({"green"}),
                          start, rng.randint(0, 5))
        full = outcome(truncate, g, depth)
        early = outcome(truncate, g, depth, query)
        if isinstance(full, Refusal):
            seen["raises"] += 1
            assert early == full
        else:
            n = len(early.states)
            seen["stops early"] += n < len(full.states)
            assert early.states == full.states[:n]
            assert (early.classes, early.levels) == (full.classes[:n], full.levels[:n])
            early_rows, full_rows = rows(early), rows(full)
            assert all(early_rows[s] == full_rows[s] and early.colours[s] == full.colours[s]
                       for s in range(n) if s not in early.frontier)
            assert outcome(bounded_until, early, query) == outcome(bounded_until, full, query)
            a, b = (sample_until(mc, query, 50, 3) for mc in (early, full))
            assert (a.hits, a.misses, a.escapes) == (b.hits, b.misses, b.escapes)
            seen["escapes"] += a.escapes > 0

        classes = vertex_classes(g)
        e = expand(g, depth)
        if not isinstance(full, Refusal):
            settled = settled_colours(g, depth)
            shared = bool(check_complete_outside(g))
            for v in full.frontier:
                vc = classes[full.classes[v]]
                assert full.colours[v] == settled[v] == vc.colours
                seen["settles for ever"] += not vc.terminates
                seen["shared, settles for ever"] += shared and not vc.terminates
        out = {v: Counter() for v in e.graph.vertices}
        for label, source, _ in e.graph.arcs():
            out[source][label] += 1
        for v in e.graph.vertices:
            vc = classes[e.classes[v]]
            if v in e.frontier:
                continue
            assert vc.terminates
            assert out[v] == {label: n for (way, label), n in vc.counts.items() if way == "out"}
            assert e.colours[v] == vc.colours
        reached = reachable_nonterminals(g)
        if not check_complete_outside(g) and all(
                arc.label in g.mu for rule in g.rules if rule.lhs in reached
                for arc in rule.rhs.arcs):
            fails = any(f.can.rule in reached and classes[f.can].terminates
                        for f in phr_check(g).failures)
            assert _may_raise(g, *integer_weights(g.mu), classes) == fails
            pinned[fails] += 1
        seen["shared"] += bool(check_complete_outside(g))
        seen["loops"] += not all(vc.terminates for vc in classes.values())
        seen["unpriced"] += "bad" not in g.mu
        seen["absorbing sinks"] += any(vc.is_sink and vc.colours & g.absorbing
                                       for vc in classes.values())
    assert min(seen.values()) >= 30, seen
    assert min(pinned[True], pinned[False]) >= 10, pinned


def test_engines_agree_with_the_oracle_on_random_grammars():
    """`F green` from every axiom vertex of each seeded random grammar that
    `analyse` accepts: every bounded value at horizons 2-12 is at most the
    enclosure's hi, `until_positive` fails only where every bounded value is
    0, `until_almost_sure` holds where lo reaches 1 and fails where hi stays
    below it (an axiom class has no descents), and the enclosure carries its
    own proof."""
    seen = Counter()
    for seed in range(2000):
        g = parse_grammar(random_grammar(random.Random(seed)))
        try:
            an = analyse(g)
        except GrammarError:
            continue
        phi1, phi2 = classes_for_colours(an, None), classes_for_colours(an, GREEN)
        positive = until_positive(an, phi1, phi2)
        sure = until_almost_sure(an, phi1, phi2)
        enc = solve_until(an, phi1, phi2)
        assert enclosure_fault(shared_assembly(an, phi1, phi2).system, enc) is None, seed
        for v in g.axiom_rule().rhs.vertices:
            c = an.ids[g.axiom, v]
            lo, hi = enc.interval(c)
            assert sure[c] == ("holds" if lo >= 1 else "fails" if hi < 1 else "unknown"), seed
            try:
                mc = truncate(g, 13, PathQuery(None, GREEN, v, 12))
                values = [bounded_until(mc, PathQuery(None, GREEN, v, h)) for h in range(2, 13)]
            except HorizonError:
                seen["horizon"] += 1
                continue
            assert max(values) <= hi, (seed, v)
            assert positive[c] != "fails" or not any(values), (seed, v)
            seen[positive[c], sure[c]] += 1
    # 1,076 starts: 36 truncations stop short of horizon 12, and no verdict
    # is unknown
    assert sum(seen.values()) >= 1000, seen
    assert min(seen["holds", "holds"], seen["fails", "fails"], seen["holds", "fails"]) >= 3, seen


@pytest.fixture(scope="module")
def settled_cases(corpus_grammars):
    """(name, grammar, analysis, depth-5 truncation) for the corpus and for
    every seeded random grammar that `analyse` accepts."""
    grammars = [(f"seed {seed}", parse_grammar(random_grammar(random.Random(seed))))
                for seed in range(2000)]
    grammars += [(f"corpus {i}", g) for i, g in enumerate(corpus_grammars)]
    cases = []
    for name, g in grammars:
        try:
            an = analyse(g)
        except GrammarError:
            continue
        cases.append((name, g, an, truncate(g, 5)))
    return cases


def test_next_verdicts_hold_at_every_settled_instance(settled_cases):
    """X[>0], X[>=1/2], X[>=1] and X[<1/2] of each colour, on every settled
    case: at every state off the frontier of the truncation whose class is
    decided, the state's exact one-step mass into the colour passes the
    threshold where the class holds and misses it where the class fails. A
    frontier target carries its final colours, so the mass is the vertex's
    at any depth."""
    seen = Counter()
    for name, g, an, mc in settled_cases:
        steps = [(s, row) for s, row in enumerate(rows(mc)) if s not in mc.frontier]
        for colour in sorted(g.colour_names):
            target = classes_for_colours(an, frozenset({colour}))
            for cmp, rho in [(">", 0), (">=", Fraction(1, 2)), (">=", 1), ("<", Fraction(1, 2))]:
                verdicts = next_qualitative(an, target, cmp, rho)
                for s, row in steps:
                    verdict = verdicts[an.ids[mc.classes[s]]]
                    seen[verdict] += 1
                    if verdict == "unknown":
                        continue
                    mass = Fraction(sum(w for t, w in row if colour in mc.colours[t]), mc.den)
                    assert decide_threshold((mass, mass), cmp, rho) == verdict, \
                        (name, s, f"X[{cmp}{rho}] {colour}", mass)
    # 601 grammars: 11,476 holds and 17,709 fails decided, 1,439 unknown
    assert min(seen["holds"], seen["fails"]) >= 10000, seen


def test_failing_positive_untils_are_zero_at_every_instance(settled_cases):
    """phi1 U[>0] phi2 for every ordered pair of colours, on every settled
    case: at every state of the truncation whose class fails, the bounded
    value at horizons 1-3 is 0 wherever `bounded_until` answers (it refuses
    where the frontier blocks the cone)."""
    seen = Counter()
    for name, g, an, mc in settled_cases:
        colours = [frozenset({c}) for c in sorted(g.colour_names)]
        for phi1 in colours:
            for phi2 in colours:
                verdicts = until_positive(an, classes_for_colours(an, phi1),
                                          classes_for_colours(an, phi2))
                for s in mc.states:
                    if verdicts[an.ids[mc.classes[s]]] != "fails":
                        continue
                    for h in (1, 2, 3):
                        try:
                            value = bounded_until(mc, PathQuery(phi1, phi2, s, h))
                        except HorizonError:
                            seen["refused"] += 1
                            continue
                        seen["decided"] += 1
                        assert value == 0, (name, s, f"{set(phi1)} U[>0] {set(phi2)}", h)
    # 45,699 decided, 0 contradicted, and 1,206 refused
    assert seen["decided"] >= 40000, seen
