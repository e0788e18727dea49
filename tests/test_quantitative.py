from fractions import Fraction

from pregma.labeling import classes_for_colours
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
    assert len(asm.system.variables) + len(asm.pins) == 14
    win = an.ids["A", "win"]
    dead = an.ids["A", "dead"]
    assert asm.pins == {
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
    reduced = assemble_system(an, phi1, phi2).system
    nxt, fork = an.ids["A", "next"], an.ids["A", "fork"]
    pos = reduced.positive_variables()
    assert dec_key(an, nxt, 1) in pos
    assert dec_key(an, fork, 1) in pos
    assert dec_key(an, nxt, 2) not in pos
    assert dec_key(an, fork, 2) not in pos


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
    assert hi - lo <= F(1, 10**6)
    # exact containment of (4*sqrt(3) - 6)/3
    assert straddles_sqrt3(lo, hi, 4, 3, F(-2))
    assert at(sol, args[0], "t0") == (F(0), F(0))


def test_running_inner_variables(running):
    an, phi1, phi2 = until_args(running, "V1", "V2")
    sol = solve_until(an, phi1, phi2, eps=F(1, 10**9))
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
    assert hi - lo <= F(1, 10**6)


def test_critical_stays_undecided(critical):
    # the value at m0 is 1, a double root: Newton gains a bit per step, so
    # the enclosure closes to eps in a few dozen rounds, yet lo never
    # reaches 1 and the almost-sure question stays open
    args = until_args(critical, None, "green")
    sol = solve_until(*args)
    assert sol.converged and not sol.exact
    assert sol.iterations <= 30
    lo, hi = at(sol, args[0], "m0")
    assert hi == 1
    assert 1 - F(1, 10**6) <= lo < 1


def test_critical_converges_everywhere(critical):
    sol = solve_until(*until_args(critical, None, "green"), eps=F(1, 10**9))
    assert sol.converged
    assert all(sol.hi[k] - sol.lo[k] <= F(1, 10**9) for k in sol.lo)


def test_shared_enclosure_is_solved_once_per_width(running):
    """One enclosure per until and analysis, every variable within eps: a
    request it already meets reuses it, a finer one solves again."""
    args = until_args(running, "V1", "V2")
    enc = solve_until(*args, eps=F(1, 10**6))
    assert enc.converged
    assert all(enc.hi[k] - enc.lo[k] <= F(1, 10**6) for k in enc.lo)
    assert solve_until(*args) is enc
    assert solve_until(*args, eps=F(1, 20)) is enc
    fine = solve_until(*args, eps=F(1, 10**15))
    assert fine is not enc and fine.converged
    assert all(fine.hi[k] - fine.lo[k] <= F(1, 10**15) for k in fine.lo)
    assert solve_until(*args, eps=F(1, 10**12)) is fine
    an, _, phi2 = args
    assert solve_until(an, classes(an, None), phi2) is not fine


def test_trivial_phi2_saturates(running):
    # phi2 = every colour pins every class to 1
    an = analyse(running)
    enc = solve_until(an, classes(an, None), classes(an, None))
    assert enc.exact
    for c in classes(an, None):
        assert enc.interval(c) == (F(1), F(1))
