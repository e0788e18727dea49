"""Ground-truth oracle on finite truncations.

Expanding the grammar to a fixed depth gives a finite chunk of the generated
graph. `truncate` takes the rule applications of `model._rewrite`, the
rewriting routine behind `model.expand`, and only prices them into integer
rows: that routine builds the per-vertex columns (class, level, colours,
axiom ids, frontier) of an expansion and of a truncation alike, and no
expanded graph is kept. A truncation checks the grammar and walks its
classes once, before it builds (`_rewrite` takes the checked rules).
Vertices still sitting on an unexpanded hyperarc (the frontier) have
incomplete out-arcs, but the class record of the walk of the passings
(`validation.vertex_classes`) already holds every colour they will carry,
and a truncation gives them those final colours. A frontier state is then
read only through its colours unless a path could step on from it in time:
it lies fewer than `horizon` steps from the start, is not won and shows
phi1. One pass over the horizon cone (`_cone`) gives its layers and the
first such state; the oracle refuses a query whose cone holds one, and
the sampler counts a trajectory that reaches one as an escape instead
of guessing. Marked absorbing sinks get an explicit probability-1
self-loop so the truncation is a genuine Markov chain.

Transition rows hold integer weights over one denominator, the lcm of mu's
denominators, in one flat table that every reader reads in place. Both the
exact bounded sweep and the sampler read only the
start's horizon cone, the states a path can reach in time while undecided:
the sweep runs in integers over powers of that denominator, and the sampler
gives each cone state one fate and takes each step as one lookup in a table
of cut points, ending each trajectory as soon as it can no longer hit or
escape. numpy serves the sampler alone and is imported only when it runs.

Once the horizon cone holds no frontier state that a path could step on
from in time, deeper levels can no longer change the answer, so a
truncation made for a query stops at the first level whose cone is closed:
the requested depth is the most it builds.
"""
from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import floordiv, lshift, mul, not_, rshift, sub
from typing import Any, Callable, Collection, Iterable, NamedTuple

from .model import (
    CanonicalVertex,
    Expansion,
    FiniteMC,
    Grammar,
    GrammarError,
    Rows,
    _Compiled,
    _rewrite,
    checked_rules,
    integer_weights,
    reachable_nonterminals,
)
from .validation import VertexClass, _mass_fault, vertex_classes


class TotalityError(GrammarError):
    """A fully expanded vertex's outgoing probabilities do not sum to 1."""


class HorizonError(ValueError):
    """The requested horizon can see past the truncation depth."""


def _priced(rule: _Compiled, weight: dict[str, int]) -> list[tuple[int, int, int]]:
    """A compiled rule's arcs as (source slot, target slot, weight), in arc
    order."""
    for label, _, _ in rule.arcs:
        if label not in weight:
            raise GrammarError(f"no probability for arc label {label}")
    return [(s, t, weight[label]) for label, s, t in rule.arcs]


def _may_raise(g: Grammar, den: int, weight: dict[str, int],
               classes: dict[CanonicalVertex, VertexClass]) -> bool:
    """Whether the truncation raises at some depth, read off the rules and
    their class table (`vertex_classes(g)`) alone: a reachable rule has an
    arc label without a probability, or a reachable class whose passings
    end fails admission's mass test (`_mass_fault`, on mu's weights over
    den). A class whose passings never end keeps its vertices on the
    frontier at every depth, so the truncation never checks its mass. The
    walk is the one admission runs; at a shared vertex it sums what every
    branch gains, which is what the truncation sees."""
    names = reachable_nonterminals(g)
    if any(arc.label not in g.mu
           for rule in g.rules if rule.lhs in names for arc in rule.rhs.arcs):
        return True
    return any(vc.terminates and _mass_fault(vc, g.absorbing, den, weight)
               for can, vc in classes.items() if can.rule in names)


def truncate(g: Grammar, depth: int, query: PathQuery | None = None) -> FiniteMC:
    """The depth-`depth` expansion as a finite chain under the grammar's own
    mu: state i is the concrete vertex with id i. The row table is the rule
    applications of `_rewrite` priced in integer weights; the colours,
    classes, levels, axiom ids and frontier are the columns `_rewrite`
    fills, the same ones `expand` returns, except that each frontier state
    carries its final colours: those of its class record
    (`VertexClass.colours`, from one `vertex_classes` walk taken before
    the build), which holds every colour a vertex of the class gains at any
    depth; the same walk gives the chain's `endless` classes. Raises
    GrammarError on a structurally invalid grammar (`checked_rules`, before
    anything else) or an arc label without a probability (at the first
    application that needs it), and TotalityError on a fully expanded
    vertex whose outgoing mass is not 1.

    While the levels are built, each state's row is a list of its steps'
    targets and weights in turn, the cheapest way to gather steps that
    several applications add; the build ends by joining them into one table.

    Without a query every level up to `depth` is built. Given one, the
    truncation stops at the first level whose horizon cone from the query's
    start is closed (`_cone` finds no blocking state), so `depth` is the
    most it builds; the states exactly `horizon` steps from the start may
    stay on the frontier, since they never step. State ids go breadth
    first, so the shallower chain's ids are a prefix of the full one's, and
    `bounded_until` and `sample_until` give the query the same answers,
    errors included, on both. Two things keep it building:
    - some depth's truncation would raise (`_may_raise`, read once before
      the build): then no stop test runs and every level is built, so that
      the error is the full depth's;
    - the cone tests so far have read more than four states per state
      built: a level's test is then skipped, which bounds the tests of a
      cone that never closes (one reads a state in about a quarter of the
      time the build takes to make one) by about one more build.
    """
    rules = checked_rules(g)
    classes = vertex_classes(g)
    den, weight = integer_weights(g.mu)
    rows: list[list[int]] = []  # state i's steps' targets and weights in turn
    priced: dict[str, list[tuple[int, int, int]]] = {}
    e = Expansion()
    final = {can: e.colour_sets.setdefault(vc.colours, vc.colours)
             for can, vc in classes.items()}  # the records' colours
    read = 0  # states the cone tests have read

    def closed(attached: list[int]) -> bool:
        """Whether the query's horizon cone is closed on the levels so far."""
        nonlocal read
        if read > 4 * len(rows):
            return False
        start = query.start
        if isinstance(start, str) and start in e.axiom_ids:
            start = e.axiom_ids[start]
        elif not (type(start) is int and 0 <= start < len(rows)):
            return False  # until it resolves as FiniteMC.resolve will
        frontier = set(attached)
        for v in frontier:
            e.colours[v] = final[e.classes[v]]
        layers, hit = _cone(lambda s: rows[s][0::2], len(rows), frontier,
                            _query_tests(query, e.colours)[1], start, query.horizon)
        read += sum(map(len, layers))
        return hit is None

    stop = None if query is None or _may_raise(g, den, weight, classes) else closed
    for rule, ids in _rewrite(rules, g.axiom, depth, e, stop):
        arcs = priced.get(rule.lhs)
        if arcs is None:
            arcs = priced[rule.lhs] = _priced(rule, weight)
        for _ in rule.cans:
            rows.append([])
        for s, t, w in arcs:
            row = rows[ids[s]]
            row.append(ids[t])
            row.append(w)

    for i in compress(count(), map(not_, rows)):
        if i not in e.frontier and e.colours[i] & g.absorbing:
            rows[i] += i, den  # a marked sink: an explicit probability-1 self-loop
    for v in e.frontier:
        e.colours[v] = final[e.classes[v]]
    # the first state off the frontier whose steps' weights miss den
    bad = next((i for i, row in enumerate(rows)
                if i not in e.frontier and sum(row[1::2]) != den), None)
    flat = list(chain.from_iterable(rows))
    starts = array("q", map(rshift, accumulate(map(len, rows), initial=0), repeat(1)))
    del rows  # the per-state lists, before the table's columns are made
    trans = Rows(starts, array("q", flat[0::2]), flat[1::2])
    del flat
    mc = FiniteMC(trans, den, e.colours, e.frontier, e.axiom_ids, e.classes, e.levels,
                  frozenset(can for can, vc in classes.items() if not vc.terminates))
    if bad is not None:
        total = sum(trans.weights[starts[bad]:starts[bad + 1]])
        raise TotalityError(f"vertex {bad}{mc.where(bad)} has outgoing mass "
                            f"{Fraction(total, den)}")
    return mc


class PathQuery(NamedTuple):
    """Bounded until: phi1/phi2 are unions of colour names, None meaning
    "true". start is a state id or an axiom-rule vertex name."""

    phi1: frozenset[str] | None
    phi2: frozenset[str] | None
    start: Any
    horizon: int


def _query_tests(
    query: PathQuery, colours: list[frozenset[str]],
) -> tuple[Callable[[int], bool], Callable[[int], bool]]:
    """The query's tests on a state, reading only that state's colours:
    won (it shows a phi2 colour) and steps (it is not won and shows phi1,
    so a path goes on from it)."""
    phi1, phi2 = query.phi1, query.phi2

    def won(s: int) -> bool:
        return phi2 is None or not phi2.isdisjoint(colours[s])

    def steps(s: int) -> bool:
        return not won(s) and (phi1 is None or not phi1.isdisjoint(colours[s]))

    return won, steps


def _targets_of(trans: Rows) -> Callable[[int], array]:
    """state -> the targets of its row, read in place."""
    starts, targets = trans.starts, trans.targets
    return lambda s: targets[starts[s]:starts[s + 1]]


def _cone(targets_of: Callable[[int], Iterable[int]], size: int,
          frontier: Collection[int], steps: Callable[[int], bool], start: int,
          horizon: int) -> tuple[list[list[int]], int | None]:
    """The start's forward cone and the state that blocks it, on the states
    0..size-1 whose rows' targets `targets_of` gives.

    layers[d] holds the states first reached in d <= horizon steps,
    stepping on only from states that step and are off the frontier; the
    list ends before the first empty layer, and each layer is listed in the
    order of the set that collects it. The blocking state is the first
    frontier state, in the order the layers are walked, that lies fewer
    than `horizon` steps out and steps: its missing row the answer may
    need. It is None when there is none, and the cone is closed. A frontier
    state's colours are final, so one that is won, outside phi1 or at the
    horizon is read only through them, as a deeper truncation reads it
    where it has the row. Every state that steps in a closed cone is off
    the frontier, so its row and its colours are final, and deeper
    truncations hold the same cone."""
    seen = bytearray(size)
    seen[start] = 1
    layers = [[start]]
    hit = None
    for _ in range(horizon):
        nxt: set[int] = set()
        for s in layers[-1]:
            if not steps(s):
                continue
            if s not in frontier:
                for t in targets_of(s):
                    if not seen[t]:
                        seen[t] = 1
                        nxt.add(t)
            elif hit is None:
                hit = s
        if not nxt:
            break
        layers.append(list(nxt))
    return layers, hit


def bounded_until(mc: FiniteMC, query: PathQuery) -> Fraction:
    """Exact probability of reaching phi2 through phi1 within the horizon.

    Only the start's horizon cone is swept: step k reads the states within
    horizon - k steps of the start, since no other state's value reaches
    the start's in time. Values are integers over mc.den**k, in two lists
    indexed by state that the steps take in turn. Rejects the query when
    `_cone` finds a frontier state that blocks the cone, whose row a deeper
    truncation knows unless its class is in `mc.endless`. No state outside
    the cone is read."""
    won, steps = _query_tests(query, mc.colours)
    start = mc.resolve(query.start)
    horizon = query.horizon
    layers, hit = _cone(_targets_of(mc.trans), len(mc.states), mc.frontier, steps,
                        start, horizon)
    if hit is not None:
        # a class whose passings never end keeps its vertices on the
        # frontier at every depth, where deepening cannot help
        stuck = mc.classes is not None and mc.classes[hit] in mc.endless
        raise HorizonError(
            f"frontier vertex {hit}{mc.where(hit)} is within {horizon} steps of the "
            "start; " + ("its class's passings never end, so its vertices never leave "
                         "the frontier" if stuck else "deepen the truncation"))
    if not horizon or not steps(start):
        # no step is taken, so no den**horizon scale is needed
        return Fraction(int(won(start)))
    # steps start only within horizon - 1 steps of the start, where no
    # frontier state steps; won and dead states have no value to sweep, and
    # the won ones are reset each step
    movers = [[s for s in layer if steps(s)] for layer in layers[:horizon]]
    wins = [s for layer in layers for s in layer if won(s)]
    starts, targets, weights = mc.trans
    prev, cur = [0] * len(mc.states), [0] * len(mc.states)
    for s in wins:
        prev[s] = 1
    scale = 1
    for k in range(1, horizon + 1):
        scale *= mc.den
        value = prev.__getitem__
        for layer in movers[:horizon + 1 - k]:
            for s in layer:
                a, b = starts[s], starts[s + 1]
                cur[s] = sum(map(mul, weights[a:b], map(value, targets[a:b])))
        for s in wins:
            cur[s] = scale
        # cur's other entries are older values of states further out than
        # this step's movers reach, so the next step reads none of them
        prev, cur = cur, prev
    return Fraction(prev[start], scale)


class SampleResult(NamedTuple):
    hits: int
    misses: int
    escapes: int
    n: int

    @property
    def estimate_lo(self) -> Fraction:
        return Fraction(self.hits, self.n)

    @property
    def estimate_hi(self) -> Fraction:
        return Fraction(self.hits + self.escapes, self.n)


def _row_arcs(starts: array, rows):
    """The arcs of the rows `rows` (a numpy array of states), row after row:
    each row's size, and for arc j its row's index in `rows`, its column
    and its position in the table whose offsets are `starts`."""
    import numpy as np

    offsets = np.frombuffer(starts, dtype=np.int64)
    lo = offsets[rows]
    size = offsets[rows + 1] - lo
    of = np.repeat(np.arange(len(size)), size)
    col = np.arange(len(of)) - (np.cumsum(size) - size)[of]
    return size, of, col, lo[of] + col


def _threshold_tables(mc: FiniteMC, moving):
    """Row i of the tables serves state moving[i]: its sorted 64-bit cut
    points (first k-1 cumulative probabilities scaled by 2^64, rounded
    down) padded with 2^64 - 1 to the widest row, its k targets padded
    with 0, and k - 1. A cut is floor(P * 2^64) whatever denominator P is
    written over, so the draws depend only on the probabilities."""
    import numpy as np

    starts, targets, weights = mc.trans
    size, of, col, arcs = _row_arcs(starts, moving)
    to = np.zeros((len(size), size.max(initial=1)), dtype=np.int64)
    to[of, col] = np.frombuffer(targets, dtype=np.int64)[arcs]
    # a running total of the weights, less its value where each row starts
    total = list(accumulate(map(weights.__getitem__, arcs.tolist()), initial=0))
    first = np.arange(len(col)) - col  # where each arc's row starts among them
    sums = map(sub, islice(total, 1, None), map(total.__getitem__, first.tolist()))
    inner = col < size[of] - 1  # every arc but each row's last has a cut
    cut = np.full((len(size), to.shape[1] - 1), (1 << 64) - 1, dtype=np.uint64)
    cut[of[inner], col[inner]] = np.fromiter(
        map(floordiv, map(lshift, compress(sums, inner.tolist()), repeat(64)),
            repeat(mc.den)), dtype=np.uint64, count=int(inner.sum()))
    return cut, to, size - 1


# trajectories walked at once, so that the arrays a call holds grow with the
# widest row of the cone but not with the sample count
SAMPLE_BATCH = 1 << 16


def sample_until(mc: FiniteMC, query: PathQuery, n: int, seed: int) -> SampleResult:
    """Monte Carlo estimate of the same query, deterministic in the seed.

    Trajectory i uses draw number step * n + i, so the result is a pure
    function of (seed, n, horizon), whatever batches of SAMPLE_BATCH the
    trajectories are walked in. A trajectory that reaches a frontier state
    that blocks the cone (see `_cone`) counts as an escape: the truth then
    lies between hits/n and (hits+escapes)/n. Any other frontier state is
    a hit or a miss by its final colours. A trajectory misses as soon as
    it stands on a state from which no win or blocking state can be
    reached inside the cone, so the loop ends once no trajectory can still
    hit or escape; draws are counter-based, so hits and escapes stay as if
    it walked on.

    Only the start's horizon cone is read, its rows in place. Each cone
    state gets one fate (steps on, hit, miss or escape) in an array indexed
    by state, and each state a trajectory can step from gets one row of
    cut points, padded to the widest row, so a step is one table lookup
    per trajectory. No state outside the cone is read.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    # numpy serves the sampler alone: imported here, the front end and the
    # engines never pay for loading it
    import numpy as np

    from .rng import draw_array

    won, steps = _query_tests(query, mc.colours)
    start = mc.resolve(query.start)
    horizon = query.horizon
    layers, _ = _cone(_targets_of(mc.trans), len(mc.states), mc.frontier, steps,
                      start, horizon)
    # one fate per state: 0 steps on, 1 hit, 2 miss (all states outside the
    # cone too), 3 escape
    fates: tuple[list[int], ...] = ([], [], [], [])  # the cone's states by fate
    for d, layer in enumerate(layers):
        for s in layer:
            fates[1 if won(s) else 2 if d == horizon or not steps(s)
                  else 3 if s in mc.frontier else 0].append(s)
    fate = np.full(len(mc.states), 2, dtype=np.int8)
    fate[fates[1]], fate[fates[3]] = 1, 3
    # each state that steps gets a row in the tables; walk back from the
    # cone's won and blocking states through the targets of those rows, a
    # round per step, each reading the arcs whose source is unmarked: a
    # trajectory anywhere else can only miss
    stepping = np.array(fates[0], dtype=np.int64)
    cut, to, last = _threshold_tables(mc, stepping)
    into = to[np.arange(to.shape[1]) <= last[:, None]]
    out_of = np.repeat(stepping, last + 1)
    hopeful = fate != 2
    while len(back := out_of[hopeful[into]]):
        hopeful[back] = True
        unmarked = ~hopeful[out_of]
        into, out_of = into[unmarked], out_of[unmarked]
    fate[stepping[hopeful[stepping]]] = 0
    # positions: the states that step first, in the rows of the tables,
    # then the cone's other states; a padding cut counts only when the draw
    # is 2^64 - 1, where every real cut counts too, so clamping to the last
    # target gives what a search of the real cuts gives
    order = np.concatenate((stepping, np.array(fates[1] + fates[2] + fates[3],
                                               dtype=np.int64)))
    pos = np.zeros(len(fate), dtype=np.int64)
    pos[order] = np.arange(len(order))
    fate, to = fate[order], pos[to]

    tally = np.zeros(4, dtype=np.int64)  # trajectories by final fate
    for first in range(0, n, SAMPLE_BATCH):
        status = np.zeros(min(SAMPLE_BATCH, n - first), dtype=np.int8)
        traj = np.arange(len(status))  # the batch's walkers, at positions cur
        cur = np.full(len(status), pos[start], dtype=np.int64)
        for step in range(horizon + 1):
            here = fate[cur]
            status[traj] = here
            walking = here == 0
            traj, cur = traj[walking], cur[walking]
            if step == horizon or not len(traj):
                break
            ks = np.uint64(step) * np.uint64(n) + (traj + first).astype(np.uint64)
            rand = draw_array(seed, ks)
            slot = np.minimum((cut[cur] <= rand[:, None]).sum(1), last[cur])
            cur = to[cur, slot]
        status[traj] = 2  # still walking at the horizon
        tally += np.bincount(status, minlength=4)
    _, hits, misses, escapes = tally.tolist()
    return SampleResult(hits=hits, misses=misses, escapes=escapes, n=n)
