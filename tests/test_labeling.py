import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest

import pregma.labeling as labeling
from pregma.formulas import FormulaError, parse_formula
from pregma.gio import load_grammar, parse_grammar
from pregma.labeling import Verdict, classes_for_colours, label_formula
from pregma.model import CanonicalVertex, GrammarError, reachable_nonterminals
from pregma.polysys import WIDTH, ZERO, decide_threshold, solve_enclosure
from pregma.pushdown import to_grammar
from pregma.qualitative import until_almost_sure, until_positive
from pregma.quantitative import shared_assembly, solve_until
from pregma.validation import analyse, canonical_vertices

F = Fraction
ONE = F(1)


def statuses(lab):
    return {str(c): v.status for c, v in lab.items()}


def test_classes_for_colours(running):
    an = analyse(running)
    assert classes_for_colours(an, frozenset({"V2"})) == frozenset({an.ids["A", "win"]})
    assert classes_for_colours(an, frozenset({"sink"})) == frozenset({
        an.ids["Z", "t0"], an.ids["A", "win"], an.ids["A", "dead"],
    })
    assert len(classes_for_colours(an, None)) == 6


def test_colour_atom(running):
    lab = label_formula(running, parse_formula("V2"))
    assert statuses(lab) == {
        "Z:v0": "fails", "Z:t0": "fails", "A:win": "holds",
        "A:fork": "fails", "A:next": "fails", "A:dead": "fails",
    }


def test_axiom_vertex_atom(running):
    lab = label_formula(running, parse_formula("v0"))
    assert lab[CanonicalVertex("Z", "v0")].status == "holds"
    rest = {v.status for c, v in lab.items()
            if c != CanonicalVertex("Z", "v0")}
    assert rest == {"fails"}


def test_atom_name_clash_is_refused():
    g = parse_grammar(
        "nonterminal Z 0\nterminal a 2\ncolour s\ncolour stop\n"
        "prob a 1\nabsorbing stop\naxiom Z\n"
        "rule Z\n  vertex s u\n  arc a s u\n  colour s s\n  colour stop u\n"
    )
    with pytest.raises(FormulaError,
                       match="both a colour and an axiom-rule vertex"):
        label_formula(g, parse_formula("s"))


def test_unknown_atom_lists_candidates(running):
    with pytest.raises(FormulaError) as err:
        label_formula(running, parse_formula("nope"))
    assert "neither a colour" in str(err.value)
    assert "V2" in str(err.value) and "v0" in str(err.value)


def test_vertex_guard_with_threshold(running):
    lab = label_formula(running, parse_formula("v0 & (V1 U[>2/3] V2)"))
    assert set(statuses(lab).values()) == {"fails"}


def test_quantitative_until_at_axiom(running):
    lab = label_formula(running, parse_formula("V1 U[>=1/4] V2"))
    assert statuses(lab) == {
        "Z:v0": "holds", "Z:t0": "fails", "A:win": "holds",
        "A:fork": "unknown", "A:next": "unknown", "A:dead": "fails",
    }
    v0 = lab[CanonicalVertex("Z", "v0")]
    lo, hi = v0.interval
    # certified window straddles (4*sqrt(3) - 6) / 3 and is narrow
    assert (3 * lo + 6) ** 2 <= 48 <= (3 * hi + 6) ** 2
    assert hi - lo <= F(1, 10**6)
    assert lab[CanonicalVertex("A", "win")] == Verdict("holds", (F(1), F(1)))
    assert lab[CanonicalVertex("A", "dead")].interval == (F(0), F(0))
    assert lab[CanonicalVertex("A", "fork")].interval is None


def test_one_step_operator(running):
    lab = label_formula(running, parse_formula("X[>=1/2] V2"))
    assert statuses(lab) == {
        "Z:v0": "fails", "Z:t0": "fails", "A:win": "holds",
        "A:fork": "holds", "A:next": "fails", "A:dead": "fails",
    }


@pytest.mark.parametrize("formula, expected", [
    ("X[>0] (V1 U[>=1/4] V2)", {
        "Z:v0": "unknown", "Z:t0": "fails", "A:win": "holds",
        "A:fork": "holds", "A:next": "unknown", "A:dead": "fails",
    }),
    ("X[<=1/2] (V1 U[>=1/4] V2)", {
        "Z:v0": "holds", "Z:t0": "holds", "A:win": "fails",
        "A:fork": "unknown", "A:next": "unknown", "A:dead": "holds",
    }),
])
def test_one_step_over_undecided_subformula(running, formula, expected):
    # the until is unknown at A:fork and A:next, so the one-step mass into
    # it is only known between the holds and the not-fails classes
    assert statuses(label_formula(running, parse_formula(formula))) == expected


def test_almost_sure_until_closes_critical_classes(critical, critical_bounded):
    # the double root at 1 closes exactly, so every class holds; the
    # bounded values from m0 and Walk:hi stay at most 1 and rise
    lab = label_formula(critical, parse_formula("tt U[>=1] green"))
    assert statuses(lab) == {
        "Z:base": "holds", "Z:m0": "holds", "Walk:hi": "holds",
    }
    for values in critical_bounded.values():
        assert all(a <= b <= 1 for a, b in zip(values, values[1:])), values


def test_decided_conjunct_masks_undecided(updrift):
    # updrift's value at m0 is exactly 1/4, which no enclosure decides
    until = parse_formula("F[>=1/4] green")
    assert "unknown" in statuses(label_formula(updrift, until)).values()
    lab = label_formula(updrift, parse_formula("!tt & (F[>=1/4] green)"))
    assert set(statuses(lab).values()) == {"fails"}


def test_threshold_shortcuts(running):
    assert set(statuses(
        label_formula(running, parse_formula("V1 U[>=0] V2"))).values()
    ) == {"holds"}
    assert set(statuses(
        label_formula(running, parse_formula("V1 U[>1] V2"))).values()
    ) == {"fails"}


# the colour each corpus grammar's untils aim at
GOALS = {"critical.gg": "green", "dag.gg": "goal", "running.gg": "V2", "updrift.gg": "green"}
KLEENE_NOT = {"holds": "fails", "fails": "holds", "unknown": "unknown"}


def test_negated_thresholds_are_kleene_negations(corpus_dir):
    """Per class, F[<1] c negates F[>=1] c and F[<=0] c negates F[>0] c,
    and !!phi and phi & tt keep the statuses of a quantitative until phi."""
    labelled = 0
    for path in sorted(corpus_dir.glob("*.gg")):
        g = load_grammar(path)
        try:
            analyse(g)
        except GrammarError:  # outside the engines' fragment
            continue
        c = GOALS[path.name]

        def label(text):
            return statuses(label_formula(g, parse_formula(text)))

        for below, above in [(f"F[<1] {c}", f"F[>=1] {c}"), (f"F[<=0] {c}", f"F[>0] {c}")]:
            negated = {k: KLEENE_NOT[v] for k, v in label(above).items()}
            assert label(below) == negated, f"{path.name}: {below}"
        phi = f"F[>=1/2] {c}"
        assert label(f"!!({phi})") == label(f"({phi}) & tt") == label(phi), path.name
        labelled += 1
    assert labelled == len(GOALS)


@pytest.mark.parametrize("formula", ["!(V1 U[>=1/4] V2)", "X[>0] (V1 U[>=1/4] V2)"])
def test_intervals_come_from_a_top_level_until_only(running, formula):
    assert {v.interval for v in label_formula(running, parse_formula(formula)).values()} \
        == {None}
    top = label_formula(running, parse_formula("V1 U[>=1/4] V2"))
    assert top[CanonicalVertex("Z", "v0")].interval is not None


def test_labelling_leaves_no_cyclic_garbage(running, critical):
    """A labelling frees what it built by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        for g, text in [(running, "V1 U[>=1/4] V2"), (running, "X[>0] (V1 U[>=1/4] V2)"),
                        (critical, "F[<1] green & !F[>0] green")]:
            label_formula(g, parse_formula(text))
            assert gc.collect() == 0, text
    finally:
        gc.enable()


def test_one_analysis_per_labelling(running, monkeypatch):
    """One label_formula walks the passings once, builds each context's
    fragment once and assembles each (phi1, phi2) pair once, however many
    untils, solves and qualitative passes the formula needs."""
    import pregma.quantitative as quantitative
    import pregma.validation as validation

    walks, built, pairs = [], [], []

    def counting_walk(*args):
        walks.append(walk(*args))
        return walks[-1]

    def counting_fragment(*args):
        built.append(args[2])  # the context
        return build_fragment(*args)

    def counting_assembly(*args):
        pairs.append(args[-2:])
        return assemble_system(*args)

    walk = validation._walk
    build_fragment = validation.build_fragment
    assemble_system = quantitative.assemble_system
    monkeypatch.setattr(validation, "_walk", counting_walk)
    monkeypatch.setattr(validation, "build_fragment", counting_fragment)
    monkeypatch.setattr(quantitative, "assemble_system", counting_assembly)
    label_formula(running, parse_formula("V1 U[>=1/4] V2 & F[>0] V2"))
    (down,) = walks
    assert all((c.rule, c.vertex) in down for c in canonical_vertices(running))
    assert sorted(built) == ["A", "Z"]
    assert len(pairs) == len(set(pairs)) == 2


def test_one_solve_per_until(critical, monkeypatch):
    """A quantitative until is solved once: one enclosure serves both
    bounds and the almost-sure verdicts below the axiom. At m0 the value is
    1 (a double root), and the enclosure's lower bound passes 99999/100000
    well inside a 200-round budget."""
    import pregma.labeling as labeling
    import pregma.polysys as polysys
    import pregma.quantitative as quantitative

    solves, almost_sure = [], []

    def counting_solve(system):
        solves.append(system)
        return solve_enclosure(system)

    def counting_almost_sure(*args):
        almost_sure.append(args[1:])
        return until_almost_sure(*args)

    solve_enclosure = quantitative.solve_enclosure
    until_almost_sure = labeling.until_almost_sure
    monkeypatch.setattr(polysys, "_ROUNDS", 200)
    monkeypatch.setattr(quantitative, "solve_enclosure", counting_solve)
    monkeypatch.setattr(labeling, "until_almost_sure", counting_almost_sure)
    lab = label_formula(critical, parse_formula("F[>=99999/100000] green"))
    assert lab[CanonicalVertex("Z", "m0")].status == "holds"
    assert len(almost_sure) == 1
    assert len(solves) == 1


def test_every_until_is_solved_once_at_one_width(running, monkeypatch):
    """A quantitative until, a qualitative until over the same pair and a
    quantitative until over an until's classes: each pair's enclosure is
    solved once."""
    import pregma.quantitative as quantitative

    assembled, solved = [], []

    def recording_assembly(*args):
        assembled.append((assemble_system(*args), args[-2:]))
        return assembled[-1][0]

    def recording_solve(system):
        solved.append(next(pair for a, pair in assembled if a.system is system))
        return solve_enclosure(system)

    assemble_system = quantitative.assemble_system
    solve_enclosure = quantitative.solve_enclosure
    monkeypatch.setattr(quantitative, "assemble_system", recording_assembly)
    monkeypatch.setattr(quantitative, "solve_enclosure", recording_solve)
    label_formula(running, parse_formula(
        "(V1 U[>=1/4] V2) & (V1 U[>=1] V2) & F[>=1/2] (V1 U[>=1/4] V2)"))
    # (V1, V2), then (tt, surely) and (tt, possibly) of the nested until
    assert len(solved) == len(set(solved)) == 3


def test_shared_enclosure_lies_inside_the_axiom_solve():
    """At every axiom class, the shared enclosure of each until lies inside
    an independent solve of its assembled system, and the
    labeller decides its thresholds from the shared interval."""
    from test_polysys import corpus_and_walk_grammars

    pairs = 0
    for name, g, mu in corpus_and_walk_grammars():
        if not mu:
            continue
        try:
            an = analyse(g)
        except GrammarError:  # outside the engines' fragment (PCP gadgets)
            continue
        axiom = [node.can for node in an.fragments[g.axiom].starts]
        colours = sorted(g.colour_names - {str(an.names[c].vertex) for c in axiom})
        for phi1 in [None, *colours]:
            for phi2 in colours:
                u1 = classes_for_colours(an, None if phi1 is None else frozenset({phi1}))
                u2 = classes_for_colours(an, frozenset({phi2}))
                shared = solve_until(an, u1, u2)
                assembly = shared_assembly(an, u1, u2)
                alone = solve_enclosure(assembly.system)
                until = f"{phi1 or 'tt'} U {phi2}"
                assert shared.converged, f"{name}: {until}"
                for c in axiom:
                    lo, hi = shared.interval(c)
                    assert alone.lo[c] <= lo <= hi <= alone.hi[c], \
                        f"{name}: {until} at {an.names[c]}"
                    assert hi - lo <= WIDTH
                first = shared.lo[axiom[0]]
                for rho in {F(1, 2), first} - {ZERO, ONE}:
                    lab = label_formula(g, parse_formula(until.replace(" U ", f" U[>={rho}] ")))
                    for c in axiom:
                        interval = shared.interval(c)
                        assert lab[an.names[c]] == Verdict(
                            decide_threshold(interval, ">=", rho), interval), \
                            f"{name}: {until} at {an.names[c]}"
                pairs += 1
    assert pairs >= 40


# dag.gg with a rule that no right-hand side uses: its classes get no id
UNREACHABLE = (Path(__file__).resolve().parent.parent / "corpus" / "dag.gg").read_text() + (
    "nonterminal Spare 1\n"
    "rule Spare inputs y\n  vertex s\n  arc go y s\n  arc go y s\n  colour goal s\n")


def id_grammars(running, pds_prob):
    from test_polysys import walk_grammar, walk_levels

    return {"running": running, "pds": to_grammar(pds_prob),
            "walk": walk_grammar("branching", walk_levels(64, False, random.Random(64)))}


@pytest.mark.parametrize("name", ["running", "pds", "walk"])
def test_engines_after_analyse_never_hash_a_creation_site(name, running, pds_prob,
                                                          monkeypatch):
    """Once `analyse` has numbered the classes, solving, the qualitative
    engines and the labeller (everything of label_formula but its analysis
    and the keying of its verdicts by creation site) read only the ids."""
    g = id_grammars(running, pds_prob)[name]
    an = analyse(g)
    formulas = [f"X[>=1/2] {c} & !(tt U[>0] {c}) & !(tt U[>=1] {c}) & !(tt U[>=1/3] {c})"
                for c in sorted(g.colour_names)]
    # an axiom-vertex atom looks its class up in `an.ids` by (rule, vertex)
    v = g.axiom_rule().rhs.vertices[-1]
    formulas.append(f"X[>0] {v} & !{v}")

    def refuse(*args):
        raise AssertionError("a CanonicalVertex was hashed or compared")

    monkeypatch.setattr(CanonicalVertex, "__hash__", refuse)
    monkeypatch.setattr(CanonicalVertex, "__eq__", refuse)
    every = classes_for_colours(an, None)
    for colour in sorted(g.colour_names):
        target = classes_for_colours(an, frozenset({colour}))
        solve_until(an, every, target)
        until_positive(an, every, target)
        until_almost_sure(an, every, target)
    for text in formulas:
        assert len(labeling._verdicts(an, parse_formula(text))) == len(an.names)
    with pytest.raises(AssertionError, match="hashed or compared"):
        {an.names[0]}


def test_class_ids_are_dense_and_named(running, pds_prob):
    grammars = [*id_grammars(running, pds_prob).values(), parse_grammar(UNREACHABLE)]
    for g in grammars:
        an = analyse(g)
        n = len(an.names)
        reached = reachable_nonterminals(g)
        assert an.names == [c for c in canonical_vertices(g) if c.rule in reached]
        assert an.reachable == range(n) and len(an.classes) == n
        assert [an.ids[c.rule, c.vertex] for c in an.names] == list(an.reachable)
        assert sorted(an.ids.values()) == list(an.reachable)
        # win c is c, and c's descents follow every win, one per input
        assert an.dec[0] == n
        assert [an.dec[c + 1] - an.dec[c] for c in an.reachable] == [
            len(an.rules[c.rule].inputs) for c in an.names]
        assert {node.can for f in an.fragments.values() for node in f.nodes.values()} \
            <= {None, *an.reachable}
        # label_formula keeps the analysis's order
        assert list(label_formula(g, parse_formula("tt"))) == an.names
    assert "Spare" not in {c.rule for c in analyse(grammars[-1]).names}
