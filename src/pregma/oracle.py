"""Ground-truth oracle on finite truncations.

Expanding the grammar to a fixed depth gives a finite chunk of the generated
graph. `truncate` takes the rule applications of `model._rewrite`, the
rewriting routine behind `model.expand`, and only prices them into integer
rows: that routine builds the per-vertex columns (class, level, colours,
axiom ids, frontier) of an expansion and of a truncation alike, and no
expanded graph is kept.
Vertices still sitting on an unexpanded hyperarc (the frontier) have
incomplete out-arcs, but the class record of the walk of the passings
(`validation.vertex_classes`) already holds every colour they will carry,
and a truncation gives them those final colours. A frontier state is then
read only through its colours unless a path could step on from it in time:
it lies fewer than `horizon` steps from the start, is not won and shows
phi1. The oracle refuses a query whose horizon cone holds such a state,
and the sampler counts a trajectory that reaches one as an escape instead
of guessing. Marked absorbing sinks get an explicit probability-1
self-loop so the truncation is a genuine Markov chain.

Transition rows hold integer weights over one denominator, the lcm of mu's
denominators. Both the exact bounded sweep and the sampler read only the
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

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Any, Callable, Collection, Iterable

from .model import (
    CanonicalVertex,
    Expansion,
    FiniteMC,
    Grammar,
    GrammarError,
    VertexId,
    _Compiled,
    _rewrite,
    integer_weights,
    reach,
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
    mu: state i is the concrete vertex with id i. The rows are the rule
    applications of `_rewrite` priced in integer weights; the colours,
    classes, levels, axiom ids and frontier are the columns `_rewrite`
    fills, the same ones `expand` returns, except that each frontier state
    carries its final colours: those of its class record
    (`VertexClass.colours`, from one `vertex_classes` walk per truncation),
    which holds every colour a vertex of the class gains at any depth; the
    same walk gives the chain's `endless` classes. Raises GrammarError on
    a structurally invalid grammar or an arc label without a probability
    (at the first application that needs it), and TotalityError on a fully
    expanded vertex whose outgoing mass is not 1.

    Without a query every level up to `depth` is built. Given one, the
    truncation stops at the first level whose horizon cone from the query's
    start is closed (see `_blocking`), so `depth` is the most it builds;
    the states exactly `horizon` steps from the start may stay on the
    frontier, since they never step. State ids go breadth first, so the
    shallower chain's ids are a prefix of the full one's, and
    `bounded_until` and `sample_until` give the query the same answers,
    errors included, on both. Two things keep it building:
    - some depth's truncation would raise (`_may_raise`): then every level
      is built, so that the error is the full depth's;
    - the cone tests so far have read more than four states per state
      built: a level's test is then skipped, which bounds the tests of a
      cone that never closes (one reads a state in about a quarter of the
      time the build takes to make one) by about one more build.
    """
    den, weight = integer_weights(g.mu)
    trans: list[list[tuple[int, int]]] = []
    priced: dict[str, list[tuple[int, int, int]]] = {}
    e = Expansion()
    read = 0  # states the cone tests have read
    may_raise: bool | None = None
    classes: dict[CanonicalVertex, VertexClass] | None = None
    final: dict[CanonicalVertex, frozenset[str]] = {}  # the records' colours

    def settle(frontier: Iterable[int]) -> None:
        """Give frontier states their final colours."""
        nonlocal classes
        if classes is None:  # `_rewrite` has checked the grammar by now
            classes = vertex_classes(g)
            for can, vc in classes.items():
                final[can] = e.colour_sets.setdefault(vc.colours, vc.colours)
        for v in frontier:
            e.colours[v] = final[e.classes[v]]

    def closed(pending: list[tuple[str, tuple[VertexId, ...]]]) -> bool:
        """Whether the query's horizon cone is closed on the levels so far."""
        nonlocal read, may_raise
        if may_raise or read > 4 * len(trans):
            return False
        start = query.start
        if isinstance(start, str) and start in e.axiom_ids:
            start = e.axiom_ids[start]
        elif not (type(start) is int and 0 <= start < len(trans)):
            return False  # until it resolves as FiniteMC.resolve will
        frontier = {v for _, vs in pending for v in vs}
        settle(frontier)
        _, undecided, blocks = _query_tests(query, e.colours, frontier)
        layers = _cone(trans, undecided, start, query.horizon)
        read += sum(map(len, layers))
        if _blocking(layers, frontier, blocks) is not None:
            return False
        if may_raise is None:
            may_raise = _may_raise(g, den, weight, classes)
        return not may_raise

    for rule, ids in _rewrite(g, depth, e, None if query is None else closed):
        arcs = priced.get(rule.lhs)
        if arcs is None:
            arcs = priced[rule.lhs] = _priced(rule, weight)
        for _ in rule.cans:
            trans.append([])
        for s, t, w in arcs:
            trans[ids[s]].append((ids[t], w))

    for i, cs in enumerate(e.colours):
        if not trans[i] and i not in e.frontier and cs & g.absorbing:
            trans[i].append((i, den))

    settle(e.frontier)
    mc = FiniteMC(trans, den, e.colours, e.frontier, e.axiom_ids, e.classes, e.levels,
                  frozenset(can for can, vc in classes.items() if not vc.terminates))
    for i, row in enumerate(trans):
        if i not in e.frontier and (total := sum([w for _, w in row])) != den:
            raise TotalityError(f"vertex {i}{mc.where(i)} has outgoing mass "
                                f"{Fraction(total, den)}")
    return mc


@dataclass(frozen=True)
class PathQuery:
    """Bounded until: phi1/phi2 are unions of colour names, None meaning
    "true". start is a state id or an axiom-rule vertex name."""

    phi1: frozenset[str] | None
    phi2: frozenset[str] | None
    start: Any
    horizon: int


def _query_tests(
    query: PathQuery, colours: list[frozenset[str]], frontier: Collection[int],
) -> tuple[Callable[[int], bool], Callable[[int], bool], Callable[[int, int], bool]]:
    """The query's tests on a state, reading only that state's colours:
    won (it shows a phi2 colour), undecided (alive, not won and not on the
    frontier, so it steps on) and, for a frontier state d steps from the
    start, blocks (see `_blocking`)."""
    phi1, phi2, horizon = query.phi1, query.phi2, query.horizon

    def won(s: int) -> bool:
        return phi2 is None or not phi2.isdisjoint(colours[s])

    def undecided(s: int) -> bool:
        return not (s in frontier or won(s)) and (
            phi1 is None or not phi1.isdisjoint(colours[s]))

    def blocks(s: int, d: int) -> bool:
        return d < horizon and not won(s) and (
            phi1 is None or not phi1.isdisjoint(colours[s]))

    return won, undecided, blocks


def _cone(trans: list[list[tuple[int, int]]], undecided: Callable[[int], bool],
          start: int, horizon: int) -> list[set[int]]:
    """The start's forward cone: layers[d] holds the states first reached in
    d <= horizon steps, stepping on only from undecided states (alive, not
    won, not on the frontier). The list ends before the first empty layer."""
    seen = {start}
    layers = [{start}]
    for _ in range(horizon):
        nxt: set[int] = set()
        for s in layers[-1]:
            if undecided(s):
                for t, _ in trans[s]:
                    if t not in seen:
                        seen.add(t)
                        nxt.add(t)
        if not nxt:
            break
        layers.append(nxt)
    return layers


def _blocking(layers: list[set[int]], frontier: Collection[int],
              blocks: Callable[[int, int], bool]) -> int | None:
    """The cone's first frontier state, in layer order, whose missing row
    the answer may need; None when there is none, and the cone is closed.

    A frontier state in layers[d] blocks when d < horizon and it would step
    on: it is not won and it shows phi1. Its colours are final, so a state
    that is won, outside phi1 or at the horizon is read only through them,
    as a deeper truncation reads it where it has the row. Every state that
    steps in a closed cone is off the frontier, so its row and its colours
    are final, and deeper truncations hold the same cone."""
    for d, layer in enumerate(layers):
        for s in layer:
            if s in frontier and blocks(s, d):
                return s
    return None


def bounded_until(mc: FiniteMC, query: PathQuery) -> Fraction:
    """Exact probability of reaching phi2 through phi1 within the horizon.

    Only the start's horizon cone is swept: step k reads the states within
    horizon - k steps of the start, since no other state's value reaches
    the start's in time. Values are integers over mc.den**k. Rejects the
    query when the cone holds a frontier state that blocks (`_blocking`),
    whose row a deeper truncation knows unless its class is in `mc.endless`.
    No state outside the cone is read."""
    won, undecided, blocks = _query_tests(query, mc.colours, mc.frontier)
    start = mc.resolve(query.start)
    horizon = query.horizon
    layers = _cone(mc.trans, undecided, start, horizon)
    hit = _blocking(layers, mc.frontier, blocks)
    if hit is not None:
        # a class whose passings never end keeps its vertices on the
        # frontier at every depth, where deepening cannot help
        stuck = mc.classes is not None and mc.classes[hit] in mc.endless
        raise HorizonError(
            f"frontier vertex {hit}{mc.where(hit)} is within {horizon} steps of the "
            "start; " + ("its class's passings never end, so its vertices never leave "
                         "the frontier" if stuck else "deepen the truncation"))
    # the cone in layer order: the states within d steps are a prefix
    order = [s for layer in layers for s in layer]
    if not horizon or not undecided(start):
        # no step is taken, so no den**horizon scale is needed
        return Fraction(int(won(start)))
    pos = {s: i for i, s in enumerate(order)}
    within = list(accumulate(len(layer) for layer in layers))
    within += [len(order)] * (horizon + 1 - len(within))
    # steps start only within horizon - 1 steps of the start; won and dead
    # states keep empty rows, and the won ones are reset each step
    stepping = order[:within[horizon - 1]]
    rows = [[(pos[t], w) for t, w in mc.trans[s]] if undecided(s) else []
            for s in stepping]
    prev = [int(won(s)) for s in order]
    wins = [i for i, v in enumerate(prev) if v]
    scale = 1
    for k in range(1, horizon + 1):
        scale *= mc.den
        reach = within[horizon - k]
        cur = [sum(w * prev[j] for j, w in rows[i]) for i in range(reach)]
        for i in wins:
            if i >= reach:
                break
            cur[i] = scale
        prev = cur
    return Fraction(prev[0], scale)


@dataclass
class SampleResult:
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


def _threshold_tables(
    mc: FiniteMC, states: list[int],
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """For each of `states`: sorted 64-bit cut points (first k-1 cumulative
    probabilities scaled by 2^64, rounded down) and the k target indices.
    A cut is floor(P * 2^64) whatever denominator P is written over, so the
    draws depend only on the probabilities."""
    cuts: dict[int, list[int]] = {}
    targets: dict[int, list[int]] = {}
    for s in states:
        row = mc.trans[s]
        cuts[s] = [(c << 64) // mc.den for c in accumulate(w for _, w in row[:-1])]
        targets[s] = [t for t, _ in row]
    return cuts, targets


def sample_until(mc: FiniteMC, query: PathQuery, n: int, seed: int) -> SampleResult:
    """Monte Carlo estimate of the same query, deterministic in the seed.

    Trajectory i uses draw number step * n + i, so the result is a pure
    function of (seed, n, horizon). A trajectory that reaches a frontier
    state that blocks (`_blocking`) counts as an escape: the truth then
    lies between hits/n and (hits+escapes)/n. Any other frontier state is
    a hit or a miss by its final colours. A trajectory misses as soon as
    it stands on a state from which no win or blocking state can be
    reached inside the cone, so the loop ends once no trajectory can still
    hit or escape; draws are counter-based, so hits and escapes stay as if
    it walked on.

    Only the start's horizon cone is read, in positions of its own: each
    cone state gets one fate (steps on, hit, miss or escape), and each
    state a trajectory can step from gets one row of cut points, padded to
    the widest row, so a step is one table lookup per trajectory. No state
    outside the cone is read.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    # numpy serves the sampler alone: imported here, the front end and the
    # engines never pay for loading it
    import numpy as np

    from .rng import draw_array

    won, undecided, blocks = _query_tests(query, mc.colours, mc.frontier)
    start = mc.resolve(query.start)
    horizon = query.horizon
    layers = _cone(mc.trans, undecided, start, horizon)
    stepping = [s for layer in layers[:horizon] for s in layer if undecided(s)]
    # walk back from the cone's won and blocking states through the
    # stepping states: a trajectory anywhere else can only miss
    preds: dict[int, list[int]] = {}
    for s in stepping:
        for t, _ in mc.trans[s]:
            preds.setdefault(t, []).append(s)
    # one fate per cone state: 0 steps on, 1 hit, 2 miss, 3 escape
    fates = {s: 1 if won(s) else 3 if s in mc.frontier and blocks(s, d) else 2
             for d, layer in enumerate(layers) for s in layer}
    hopeful = reach([s for s, f in fates.items() if f != 2],
                    lambda t: preds.get(t, ()))
    moving = [s for s in stepping if s in hopeful]
    fates.update(dict.fromkeys(moving, 0))
    # positions: the states that step on first, in the rows of the tables
    order = moving + [s for s, f in fates.items() if f]
    pos = {s: i for i, s in enumerate(order)}
    fate = np.array([fates[s] for s in order], dtype=np.int8)
    # row i: state i's cuts padded with 2^64 - 1 to the widest row, and its
    # targets' positions; a padding cut counts only when the draw is
    # 2^64 - 1, where every real cut counts too, so clamping to the last
    # target gives what a search of the real cuts gives
    cuts, targets = _threshold_tables(mc, moving)
    width = max(map(len, cuts.values()), default=0)
    cut = np.array([c + [(1 << 64) - 1] * (width - len(c))
                    for c in cuts.values()], dtype=np.uint64)
    to = np.array([[pos[t] for t in ts] + [0] * (width + 1 - len(ts))
                   for ts in targets.values()], dtype=np.int64)
    last = np.array([len(c) for c in cuts.values()], dtype=np.int64)

    status = np.zeros(n, dtype=np.int8)
    traj = np.arange(n)  # the trajectories still walking, at positions cur
    cur = np.full(n, pos[start], dtype=np.int64)
    for step in range(horizon + 1):
        here = fate[cur]
        status[traj] = here
        walking = here == 0
        traj, cur = traj[walking], cur[walking]
        if step == horizon or not len(traj):
            break
        ks = np.uint64(step) * np.uint64(n) + traj.astype(np.uint64)
        rand = draw_array(seed, ks)
        slot = np.minimum((cut[cur] <= rand[:, None]).sum(1), last[cur])
        cur = to[cur, slot]
    status[traj] = 2  # still walking at the horizon
    _, hits, misses, escapes = np.bincount(status, minlength=4).tolist()
    return SampleResult(hits=hits, misses=misses, escapes=escapes, n=n)
