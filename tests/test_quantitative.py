from fractions import Fraction

import pregma.quantitative as quantitative
from pregma.labeling import classes_for_colours
from pregma.polysys import WIDTH
from pregma.quantitative import assemble_system, render_key, solve_until
from pregma.validation import analyse

F = Fraction


def classes(an, name):
    return classes_for_colours(an, frozenset({name}) if name else None)


def until_args(g, phi1, phi2):
    an = analyse(g)
    return an, classes(an, phi1), classes(an, phi2)


def dec_key(an, c, j):
    """The variable of dec(c; j)."""
    return an.dec[c] + j - 1


def at(sol, an, vertex):
    """The enclosure of P(until) from a vertex of the axiom rule."""
    return sol.interval(an.ids[an.grammar.axiom, vertex])


def straddles_sqrt3(lo, hi, scale_num, scale_den, shift):
    """Does [lo, hi] contain (scale*sqrt(3) + shift)? Exact, via squaring."""
    f = lambda q: ((q - shift) * scale_den / scale_num) ** 2
    return f(lo) <= 3 <= f(hi)


def test_assembly_shape(running):
    an, phi1, phi2 = until_args(running, "V1", "V2")
    asm = assemble_system(an, phi1, phi2)
    assert [(n, len(f.rule.inputs)) for n, f in an.fragments.items()] == [
        ("Z", 0), ("A", 2)]
    # one win per class, one dec per input of A's classes
    assert len(asm.system.variables) + len(asm.system.pins) == 14
    win = an.ids["A", "win"]
    dead = an.ids["A", "dead"]
    assert asm.system.pins == {
        win: F(1), dec_key(an, win, 1): F(0), dec_key(an, win, 2): F(0),
        dead: F(0), dec_key(an, dead, 1): F(0), dec_key(an, dead, 2): F(0),
    }
    # ids are dense: n wins, then each class's descents in id order
    assert an.dec == [6, 6, 6, 8, 10, 12, 14]
    assert [str(an.names[c]) for c in an.reachable] == [
        "Z:v0", "Z:t0", "A:win", "A:fork", "A:dead", "A:next"]


def test_reduced_system_equations(running):
    an, phi1, phi2 = until_args(running, "V1", "V2")
    reduced = assemble_system(an, phi1, phi2).system
    nxt, fork, v0, t0 = (an.ids[site] for site in [
        ("A", "next"), ("A", "fork"), ("Z", "v0"), ("Z", "t0")])
    # sinks keep empty equations rather than disappearing
    assert reduced.equations[t0] == []
    assert reduced.equations[fork] == [(F(1, 2), ())]
    assert sorted(reduced.equations[nxt], key=repr) == sorted([
        (F(1, 2), (fork,)),
        (F(1, 2), (nxt,)),
        (F(1, 2), (dec_key(an, nxt, 1), nxt)),
        (F(1, 2), (dec_key(an, nxt, 2), fork)),
    ], key=repr)
    assert sorted(reduced.equations[v0], key=repr) == sorted([
        (F(1, 2), (t0,)),
        (F(1, 2), (nxt,)),
        (F(1, 2), (dec_key(an, nxt, 1), v0)),
        (F(1, 2), (dec_key(an, nxt, 2), t0)),
    ], key=repr)
    # the fork exits through input 1 with the d-step back onto s
    assert reduced.equations[dec_key(an, fork, 1)] == [(F(1, 4), ())]
    assert reduced.equations[dec_key(an, fork, 2)] == []


def test_descend_direction_two_is_dead_weight(running):
    an, phi1, phi2 = until_args(running, "V1", "V2")
    asm = assemble_system(an, phi1, phi2)
    reduced = asm.system
    nxt, fork = an.ids["A", "next"], an.ids["A", "fork"]
    pos = reduced.positive_variables()
    assert dec_key(an, nxt, 1) in pos
    assert dec_key(an, fork, 1) in pos
    assert dec_key(an, nxt, 2) not in pos
    assert dec_key(an, fork, 2) not in pos
    # the positive keys are the positive variables and the pin at 1, and
    # the assembly carries per class its positive descents with their variables
    win, v0 = an.ids["A", "win"], an.ids["Z", "v0"]
    assert pos == {v0, nxt, fork, dec_key(an, nxt, 1), dec_key(an, fork, 1), win}
    assert asm.descents[nxt] == [(1, dec_key(an, nxt, 1))]
    assert asm.descents[fork] == [(1, dec_key(an, fork, 1))]
    for site in [("A", "win"), ("A", "dead"), ("Z", "v0"), ("Z", "t0")]:
        assert asm.descents[an.ids[site]] == []
    assert len(asm.descents) == len(an.names)


def test_render_key_names(running):
    an = analyse(running)
    nxt = an.ids["A", "next"]
    assert render_key(an, nxt) == "win(A:next)"
    assert render_key(an, dec_key(an, nxt, 2)) == "dec(A:next; 2)"
    # every key names its own variable, classes without inputs included
    assert [render_key(an, k) for k in range(an.dec[-1])] == [
        "win(Z:v0)", "win(Z:t0)", "win(A:win)", "win(A:fork)", "win(A:dead)",
        "win(A:next)"] + [f"dec({name}; {j})" for name in ("A:win", "A:fork", "A:dead",
                                                           "A:next") for j in (1, 2)]


def test_running_enclosure(running):
    args = until_args(running, "V1", "V2")
    sol = solve_until(*args)
    assert sol.converged and not sol.exact
    lo, hi = at(sol, args[0], "v0")
    assert hi - lo <= WIDTH
    # exact containment of (4*sqrt(3) - 6)/3
    assert straddles_sqrt3(lo, hi, 4, 3, F(-2))
    assert at(sol, args[0], "t0") == (F(0), F(0))


def test_running_inner_variables(running):
    an, phi1, phi2 = until_args(running, "V1", "V2")
    sol = solve_until(an, phi1, phi2)
    nxt = an.ids["A", "next"]
    # dec(A:next;1) = 1 - sqrt(3)/2, win(A:next) = 1/sqrt(3)
    lo, hi = sol.interval(dec_key(an, nxt, 1))
    assert hi - lo <= F(1, 10**9)
    assert (1 - lo) ** 2 * 4 >= 3 >= (1 - hi) ** 2 * 4
    lo, hi = sol.interval(nxt)
    assert lo ** 2 * 3 <= 1 <= hi ** 2 * 3
    # pinned variables survive into the full enclosure, exactly
    assert sol.interval(an.ids["A", "win"]) == (F(1), F(1))


def test_dag_is_exact(dag):
    args = until_args(dag, None, "goal")
    sol = solve_until(*args)
    assert sol.exact
    assert at(sol, args[0], "v0") == (F(1), F(1))


def test_updrift_encloses_one_quarter(updrift):
    args = until_args(updrift, None, "green")
    sol = solve_until(*args)
    assert sol.converged
    lo, hi = at(sol, args[0], "m0")
    assert lo <= F(1, 4) <= hi
    assert hi - lo <= WIDTH


def test_critical_closes_exactly(critical, critical_bounded):
    # the value at m0 is 1, a double root, where Newton only gains a bit
    # per step: the descent closes exactly at 1 instead (1 - F'(1) = 0 and
    # a term dec * dec), and m0's linear win equation then solves to 1.
    # The bounded values from m0 stay at most 1 and rise with the horizon.
    args = until_args(critical, None, "green")
    sol = solve_until(*args)
    assert sol.converged and sol.exact
    assert sol.iterations == 1
    assert at(sol, args[0], "m0") == (1, 1)
    values = critical_bounded["Z:m0"]
    assert all(a <= b <= 1 for a, b in zip(values, values[1:])), values


def test_critical_converges_everywhere(critical):
    sol = solve_until(*until_args(critical, None, "green"))
    assert sol.converged
    assert all(sol.hi[k] - sol.lo[k] <= F(1, 10**9) for k in sol.lo)


def test_shared_enclosure_is_solved_once_per_until(running, monkeypatch):
    """One enclosure per (phi1, phi2) and analysis, solved once at WIDTH,
    every variable within it; a second request reuses it."""
    solve, solved = quantitative.solve_enclosure, []

    def watched(system):
        solved.append(system)
        return solve(system)

    monkeypatch.setattr(quantitative, "solve_enclosure", watched)
    args = until_args(running, "V1", "V2")
    enc = solve_until(*args)
    assert enc.converged
    assert all(enc.hi[k] - enc.lo[k] <= WIDTH for k in enc.lo)
    assert solve_until(*args) is enc
    assert len(solved) == 1
    an, _, phi2 = args
    other = solve_until(an, classes(an, None), phi2)
    assert other is not enc and solve_until(an, classes(an, None), phi2) is other
    assert len(solved) == 2


def test_trivial_phi2_saturates(running):
    # phi2 = every colour pins every class to 1
    an = analyse(running)
    enc = solve_until(an, classes(an, None), classes(an, None))
    assert enc.exact
    for c in classes(an, None):
        assert enc.interval(c) == (F(1), F(1))
