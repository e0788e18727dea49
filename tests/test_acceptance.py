"""End-to-end gate: nine numbered checks, one printed PASS/FAIL line each.

Every check recomputes its claim from scratch through the public entry
points (library calls or the CLI) and verifies exact rationals, certified
enclosures against interval-evaluated radicals, or agreement with the
independent finite-state oracles. Lines go to the real stdout so the gate
stays visible in captured test runs.
"""
import io
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

from pregma.cli import main
from pregma.fragments import local_rows
from pregma.labeling import classes_for_colours
from pregma.model import CanonicalVertex, expand
from pregma.oracle import PathQuery, bounded_until, sample_until, truncate
from pregma.pcp import encode
from pregma.polysys import decide_threshold
from pregma.pushdown import to_grammar
from pregma.qualitative import next_qualitative, until_almost_sure, until_positive
from pregma.quantitative import solve_until
from pregma.validation import analyse, phr_check
from reference import (config_chain, config_words, expansions_match, fork_sequences,
                       green_probability, sequence_grammar, split_word, successors)

F = Fraction


def gate(capfd, number, label, checks):
    ok = all(passed for _, passed in checks)
    with capfd.disabled():
        print(f"acceptance {number} {label}: {'PASS' if ok else 'FAIL'}",
              flush=True)
    failing = [desc for desc, passed in checks if not passed]
    assert not failing, f"check {number} failed: {failing}"


def cls(an, name):
    return classes_for_colours(an, frozenset({name}) if name else None)


def solve(g, phi1, phi2):
    an = analyse(g)
    return solve_until(an, cls(an, phi1), cls(an, phi2))


def at(sol, g, vertex):
    """The enclosure of P(until) from a vertex of the axiom rule (a class id
    depends on the grammar alone, so a fresh analysis names the same one)."""
    return sol.interval(analyse(g).ids[g.axiom, vertex])


def straddles(lo, hi, scale_lo, scale_hi, square):
    """Exact test that [lo, hi] contains a value v with (a + b*v)^2 = square,
    where scale_lo(t) = a + b*t must be increasing in t."""
    return scale_lo ** 2 <= square <= scale_hi ** 2


def test_gate_1_exact_mass_validation(capfd, running):
    started = time.perf_counter()
    good = phr_check(running)
    detuned = running._replace(mu=dict(running.mu, d=F(1, 3)))
    bad = phr_check(detuned)
    elapsed = time.perf_counter() - started
    gate(capfd, 1, "out-mass validation", [
        ("accepts the stock probabilities", good.ok),
        ("rejects d=1/3", not bad.ok),
        ("names the offending class",
         [f.can for f in bad.failures] == [CanonicalVertex("A", "fork")]),
        ("reports the exact sum 7/6", bad.failures[0].total == F(7, 6)),
        ("runs in under 0.1s", elapsed < 0.1),
    ])


def test_gate_2_local_first_hit_probabilities(capfd, running):
    an = analyse(running)
    frag = an.fragments["A"]
    rows = local_rows(an, frag, cls(an, "V1"), cls(an, "V2"))
    fork = rows[("base", "fork")]
    branch = rows[("base", "next")]
    # every arc out of input s ends on a boundary node, so its first step
    # is its whole first-hit row
    step = frag.out[("base", "s")]
    gate(capfd, 2, "two-level fragment locals", [
        ("win from the fork is 1/2", fork.win == F(1, 2)),
        ("branch hits the fork with 1/2",
         branch.hits.get(("base", "fork")) == F(1, 2)),
        ("fork falls back to input 1 with 1/4",
         fork.hits.get(("base", "s")) == F(1, 4)),
        ("input never crosses to the fork first",
         all(frag.nodes[dst].kind != "interior" for _, dst in step)
         and sum(running.mu[label] for label, dst in step
                 if dst == ("base", "fork")) == F(0)),
    ])


def _parse_rendered_system(lines):
    eqs = {}
    for line in lines:
        if line.startswith("pin "):
            name, value = line[4:].split(" = ")
            eqs[name] = [(F(value), ())]
            continue
        name, rhs = line.split(" = ")
        terms = []
        for chunk in rhs.split(" + "):
            coeff = F(1)
            factors = []
            for factor in chunk.split(" * "):
                try:
                    coeff *= F(factor)
                except ValueError:
                    factors.append(factor)
            terms.append((coeff, tuple(factors)))
        eqs[name] = terms
    return eqs


def test_gate_3_descent_equation_and_root(capfd, corpus_dir, running):
    started = time.perf_counter()
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([
            "prob", str(corpus_dir / "running.gg"), "--phi2", "V2",
            "--from", "v0", "--emit-system",
        ])
    lines = [l for l in out.getvalue().splitlines()
             if " = " in l and not l.startswith("lower")]
    eqs = _parse_rendered_system(lines)

    x = "dec(A:next; 1)"
    known = {"dec(A:fork; 1)": F(1, 4), "dec(A:fork; 2)": F(0)}
    fork_exact = (eqs.get("dec(A:fork; 1)") == [(F(1, 4), ())]
                  and eqs.get("dec(A:fork; 2)") == [(F(0), ())])
    # the sibling descent variable is syntactically zero: starting from zero,
    # every term of its equation keeps a factor from the zero pair
    zero_pair = {"dec(A:fork; 2)", "dec(A:next; 2)"}
    sibling_zero = all(zero_pair & set(v)
                       for _, v in eqs.get("dec(A:next; 2)", [(F(1), ())]))
    known["dec(A:next; 2)"] = F(0)

    poly = {}
    reducible = True
    for coeff, factors in eqs.get(x, []):
        power = 0
        for var in factors:
            if var == x:
                power += 1
            elif var in known:
                coeff *= known[var]
            else:
                reducible = False
        if coeff:
            poly[power] = poly.get(power, F(0)) + coeff

    enc = solve(running, "V1", "V2")
    nxt = analyse(running).ids["A", "next"]
    lo, hi = enc.interval(analyse(running).dec[nxt])  # dec(A:next; 1)
    elapsed = time.perf_counter() - started
    gate(capfd, 3, "descent fixpoint", [
        ("solver exits cleanly", code == 0),
        ("fork coefficients print exactly", fork_exact),
        ("second descent variable vanishes", sibling_zero),
        ("equation rearranges to x = 1/8 + (1/2)x^2",
         reducible and poly == {0: F(1, 8), 2: F(1, 2)}),
        ("enclosure contains 1 - sqrt(3)/2",
         straddles(lo, hi, 2 * (1 - hi), 2 * (1 - lo), 3)),
        ("width within 1e-9", hi - lo <= F(1, 10**9)),
        ("runs in under 1s", elapsed < 1.0),
    ])


def test_gate_4_headline_enclosure(capfd, running):
    started = time.perf_counter()
    sol = solve(running, "V1", "V2")
    lo, hi = at(sol, running, "v0")
    elapsed = time.perf_counter() - started
    gate(capfd, 4, "headline reachability value", [
        ("width within 1e-6", hi - lo <= F(1, 10**6)),
        ("contains (2/3)(2*sqrt(3) - 3)",
         straddles(lo, hi, 3 * lo + 6, 3 * hi + 6, 48)),
        ("threshold > 2/3 fails",
         decide_threshold((lo, hi), ">", F(2, 3)) == "fails"),
        ("runs in under 2s", elapsed < 2.0),
    ])


def test_gate_5_bounded_oracle_coherence(capfd, running, dag, updrift,
                                         pds_prob, pcp_solvable):
    walk, fork = sequence_grammar(pcp_solvable[0], (1,))
    gp = to_grammar(pds_prob)
    rows = [
        ("running", truncate(running, 45), frozenset({"V1"}),
         frozenset({"V2"}), "v0",
         solve(running, "V1", "V2"), running),
        ("pushdown", config_chain(pds_prob, ("r",), 50), None,
         frozenset({"halt"}), "r",
         solve(gp, None, "halt"), gp),
        ("dag", truncate(dag, 45), None, frozenset({"goal"}), "v0",
         solve(dag, None, "goal"), dag),
        ("updrift", truncate(updrift, 45), None, frozenset({"green"}), "m0",
         solve(updrift, None, "green"), updrift),
        ("walk", truncate(walk, 1), None, frozenset({"green"}), fork,
         solve(walk, None, "green"), walk),
    ]
    checks = []
    for name, mc, phi1, phi2, start, sol, g in rows:
        lo, hi = at(sol, g, start)
        values = [bounded_until(mc, PathQuery(phi1, phi2, start, k))
                  for k in (5, 10, 20, 40)]
        checks.append((f"{name}: monotone in the horizon",
                       all(a <= b for a, b in zip(values, values[1:]))))
        checks.append((f"{name}: never above the certified upper bound",
                       all(v <= hi for v in values)))
        checks.append((f"{name}: within 1e-3 of the lower bound at 40",
                       abs(lo - values[-1]) <= F(1, 1000)))
    gate(capfd, 5, "bounded values against enclosures", checks)


def test_gate_6_seeded_sampling(capfd, running):
    mc = truncate(running, 45)
    query = PathQuery(frozenset({"V1"}), frozenset({"V2"}), "v0", 40)
    n, seed = 100000, 20260815
    first = sample_until(mc, query, n, seed)
    second = sample_until(mc, query, n, seed)
    sigma3 = 3 * math.sqrt(0.3094 * (1 - 0.3094) / n)
    gate(capfd, 6, "seeded trajectory estimate", [
        ("estimate within three sigma of 0.3094",
         abs(first.hits / n - 0.3094) < sigma3),
        ("escape rate under 1e-3", first.escapes / n < 1e-3),
        ("deterministic per seed", first == second),
        ("stream frozen for this seed",
         (first.hits, first.escapes) == (31074, 0)),
    ])


def _reach_witness(out_arcs, colours, start, phi1, phi2):
    if colours[start] & phi2:
        return True
    if phi1 is not None and not (colours[start] & phi1):
        return False
    seen, todo = {start}, [start]
    while todo:
        v = todo.pop()
        for _, _, target in out_arcs[v]:
            cols = colours[target]
            if cols & phi2:
                return True
            if target not in seen and (phi1 is None or cols & phi1):
                seen.add(target)
                todo.append(target)
    return False


def test_gate_7_qualitative_against_oracle(capfd, corpus_dir, running, dag,
                                           updrift, critical, pds_prob,
                                           pcp_solvable):
    named = [
        ("running.gg", running), ("dag.gg", dag), ("updrift.gg", updrift),
        ("critical.gg", critical),
        ("pds_example_prob.pds", to_grammar(pds_prob)),
        ("pcp_s1.pcp", encode(pcp_solvable[0])[0]),
    ]
    checks = []

    checked = 0
    for fname, g in named:
        e = expand(g, 8)
        colours = e.colours
        out_arcs = {v: [] for v in e.graph.vertices}
        for label, source, target in e.graph.arcs():
            out_arcs[source].append((label, source, target))
        an = analyse(g)
        pairs = [(None, c) for c in sorted(g.colour_names)]
        if fname == "running.gg":
            pairs.append(("V1", "V2"))
        for p1name, p2name in pairs:
            phi1 = cls(an, p1name)
            phi2 = cls(an, p2name)
            p1cols = frozenset({p1name}) if p1name else None
            p2cols = frozenset({p2name})
            positive = {an.names[c]: v
                        for c, v in until_positive(an, phi1, phi2).items()}
            agree = True
            for v in e.graph.vertices:
                if e.levels[v] > 6:
                    continue
                checked += 1
                has = _reach_witness(out_arcs, colours, v, p1cols, p2cols)
                verdict = positive[e.classes[v]]
                if verdict == "holds" and not has:
                    agree = False
                if verdict == "fails" and has:
                    agree = False
                if verdict == "unknown":
                    agree = False
            checks.append(
                (f"positivity matches reachability ({fname}, {p2name})",
                 agree))

            for cmp, rho in ((">", F(0)), (">=", F(1, 2)), (">=", F(1))):
                one_step = {an.names[c]: v
                            for c, v in next_qualitative(an, phi2, cmp, rho, phi2).items()}
                outcome = {}
                for v in e.graph.vertices:
                    if e.levels[v] > 6 or v in e.frontier:
                        continue
                    arcs = out_arcs[v]
                    if arcs:
                        mass = sum(
                            (g.mu[label] for label, _, target in arcs
                             if colours[target] & p2cols),
                            F(0))
                    else:
                        mass = F(1) if colours[v] & p2cols else F(0)
                    sat = {"<": mass < rho, "<=": mass <= rho,
                           ">": mass > rho, ">=": mass >= rho}[cmp]
                    outcome.setdefault(e.classes[v], set()).add(sat)
                agree = True
                for can, seen in outcome.items():
                    verdict = one_step[can]
                    if verdict == "holds" and seen != {True}:
                        agree = False
                    if verdict == "fails" and seen != {False}:
                        agree = False
                    if verdict == "unknown" and seen != {True, False}:
                        agree = False
                checks.append(
                    (f"one-step masses match ({fname}, {p2name}, {cmp}{rho})",
                     agree))
    checks.append(("sweep is exhaustive", checked > 600))

    an = analyse(running)
    every = cls(an, None)
    trivially = until_almost_sure(an, every, every)
    checks.append(("probability one on the trivial target",
                   set(trivially.values()) == {"holds"}))
    headline = until_almost_sure(an, every, cls(an, "V2"))
    checks.append(("headline start is not almost sure",
                   headline[an.ids["Z", "v0"]] == "fails"))
    designated = [
        ("running.gg", running, "V2"), ("dag.gg", dag, "goal"),
        ("updrift.gg", updrift, "green"), ("critical.gg", critical, "green"),
        ("pds_example_prob.pds", to_grammar(pds_prob), "halt"),
    ]
    for fname, g, colour in designated:
        an = analyse(g)
        verdicts = until_almost_sure(an, cls(an, None), cls(an, colour))
        if "unknown" in verdicts.values():
            marked = (corpus_dir / fname).read_text().startswith("# hard")
            checks.append(
                (f"unknown only where the corpus marks it hard ({fname})",
                 marked))
        else:
            checks.append((f"fully decided ({fname})", True))
    gate(capfd, 7, "qualitative engines against the oracle", checks)


def test_gate_8_word_matching_gadget(capfd, pcp_solvable, pcp_unsolvable):
    s1 = pcp_solvable[0]
    g, fork = sequence_grammar(s1, (1,))
    mc = truncate(g, 1)
    oracle_green = bounded_until(mc, PathQuery(None, frozenset({"green"}),
                                               fork, 8))
    checks = [
        ("oracle and closed form reconcile on a match",
         oracle_green == green_probability(s1, (1,)) == F(1, 2)),
        ("match detected", expansions_match(s1, (1,))),
    ]
    u1 = pcp_unsolvable[0]
    g, fork = sequence_grammar(u1, (1,))
    mc = truncate(g, 1)
    checks.append((
        "oracle and closed form reconcile off a match",
        bounded_until(mc, PathQuery(None, frozenset({"green"}), fork, 10))
        == green_probability(u1, (1,)) == F(3, 8)))

    counts = []
    for inst in pcp_unsolvable:
        gadget, _ = encode(inst)
        forks = fork_sequences(gadget, 4)
        counts.append(len(forks))
        checks.append((
            f"no fork of {inst.pairs} reaches green with exactly 1/2",
            all(green_probability(inst, seq) != F(1, 2)
                for _, seq in forks)))
        longest = max((seq for _, seq in forks), key=len)
        gseq, fork = sequence_grammar(inst, longest)
        total = sum(len(inst.pairs[i - 1][0]) + len(inst.pairs[i - 1][1])
                    for i in longest)
        value = bounded_until(truncate(gseq, 1),
                              PathQuery(None, frozenset({"green"}), fork,
                                        2 * total + 4))
        checks.append((f"deepest fork of {inst.pairs} reconciles",
                       value == green_probability(inst, longest) != F(1, 2)))
    checks.append(("every fork at depth 4 enumerated", counts == [4, 4, 30]))
    gate(capfd, 8, "word-matching gadget", checks)


def test_gate_9_configuration_graph_equality(capfd, pds_plain):
    g = to_grammar(pds_plain)
    e = expand(g, 5)
    words = config_words(pds_plain, g, 5)
    keep = {cid for cid, w in words.items()
            if len(split_word(w, pds_plain.stack + pds_plain.states)) <= 5}
    adjacency = {cid: set() for cid in keep}
    arcs = [(label, s, t) for label, s, t in e.graph.arcs()
            if s in keep and t in keep]
    for _, s, t in arcs:
        adjacency[s].add(t)
        adjacency[t].add(s)
    root = next(cid for cid, w in words.items() if w == "r")
    component = {root}
    todo = [root]
    while todo:
        v = todo.pop()
        for n in adjacency[v]:
            if n not in component:
                component.add(n)
                todo.append(n)
    expanded_words = {words[cid] for cid in component}
    expanded_arcs = {(label, words[s], words[t]) for label, s, t in arcs
                     if s in component and t in component}

    def predecessors(w):
        out = []
        for rule in pds_plain.rules:
            k = len(rule.rhs)
            if len(w) >= k and w[-k:] == rule.rhs:
                out.append(w[:len(w) - k] + rule.lhs)
        return out

    seen = {("r",)}
    todo = [("r",)]
    while todo:
        w = todo.pop()
        nexts = [t for _, t in successors(pds_plain, w)] + predecessors(w)
        for t in nexts:
            if len(t) <= 5 and t not in seen:
                seen.add(t)
                todo.append(t)
    suffix_words = {"".join(w) for w in seen}
    suffix_arcs = {(label, "".join(w), "".join(t))
                   for w in seen for label, t in successors(pds_plain, w)
                   if t in seen}

    gate(capfd, 9, "configuration graph equality", [
        ("same configuration words", expanded_words == suffix_words),
        ("same labelled arcs", expanded_arcs == suffix_arcs),
        ("component is nontrivial", len(expanded_words) >= 8),
    ])
