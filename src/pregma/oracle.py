"""Ground-truth oracle on finite truncations.

Expanding the grammar to a fixed depth gives a finite chunk of the generated
graph. `truncate` builds that chunk's chain straight from the rule
applications of the rewriting routine behind `model.expand`, without
building the expanded graph; each state keeps only its class and level.
Vertices still sitting on an unexpanded hyperarc (the frontier) have
incomplete out-arcs and possibly missing colours, so the oracle refuses
horizon/depth combinations whose answer could still be influenced by the
frontier, and the sampler reports frontier contacts separately instead of
guessing. Marked absorbing sinks get an explicit probability-1 self-loop so
the truncation is a genuine Markov chain.

Transition rows hold integer weights over one denominator, the lcm of mu's
denominators. Both the exact bounded sweep and the sampler walk only the
start's horizon cone, the states a path can reach in time while undecided:
the sweep runs in integers over powers of that denominator, and the sampler
ends each trajectory as soon as it can no longer hit or escape.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Any

import numpy as np

from .model import (
    CanonicalVertex,
    FiniteMC,
    Grammar,
    GrammarError,
    VertexId,
    _Compiled,
    _rewrite,
    integer_weights,
    reach,
)
from .rng import draw_array


class TotalityError(GrammarError):
    """A fully expanded vertex's outgoing probabilities do not sum to 1."""


class HorizonError(ValueError):
    """The requested horizon can see past the truncation depth."""


def _colour_mask(mc: FiniteMC, names: frozenset[str] | None) -> np.ndarray:
    """Boolean per state; names=None means "every state"."""
    if names is None:
        return np.ones(len(mc.states), dtype=bool)
    # states share their colour sets, so test each distinct set once
    meets = {cs: bool(cs & names) for cs in set(mc.colours)}
    return np.fromiter((meets[cs] for cs in mc.colours), dtype=bool,
                       count=len(mc.colours))


def _priced(rule: _Compiled, weight: dict[str, int]) -> list[tuple[int, int, int]]:
    """A compiled rule's arcs as (source slot, target slot, weight), in arc
    order."""
    for label, _, _ in rule.arcs:
        if label not in weight:
            raise GrammarError(f"no probability for arc label {label}")
    return [(s, t, weight[label]) for label, s, t in rule.arcs]


def truncate(g: Grammar, depth: int) -> FiniteMC:
    """The depth-`depth` expansion as a finite chain under the grammar's own
    mu, built straight from the rule applications: state i is the concrete
    vertex with id i. Raises GrammarError on a structurally invalid grammar
    or an arc label without a probability, and TotalityError on a fully
    expanded vertex whose outgoing mass is not 1."""
    den, weight = integer_weights(g.mu)

    trans: list[list[tuple[int, int]]] = []
    colours: list[frozenset[str]] = []
    classes: list[CanonicalVertex] = []
    levels: list[int] = []
    empty: frozenset[str] = frozenset()
    shared = {empty: empty}  # one object per distinct colour set
    priced: dict[str, list[tuple[int, int, int]]] = {}
    unexpanded: list[tuple[str, tuple[VertexId, ...]]] = []
    for level, rule, ids, parent, _ in _rewrite(g, depth, unexpanded):
        if parent is None:
            axiom_ids = dict(zip(rule.names, ids))
        arcs = priced.get(rule.lhs)
        if arcs is None:
            arcs = priced[rule.lhs] = _priced(rule, weight)
        classes += rule.cans
        levels += [level] * len(rule.cans)
        colours += [empty] * len(rule.cans)
        for _ in rule.cans:
            trans.append([])
        for s, t, w in arcs:
            trans[ids[s]].append((ids[t], w))
        for colour, v in rule.colours:
            cs = colours[ids[v]] | {colour}
            colours[ids[v]] = shared.setdefault(cs, cs)
    frontier = frozenset(v for _, vs in unexpanded for v in vs)

    for i, cs in enumerate(colours):
        if not trans[i] and i not in frontier and cs & g.absorbing:
            trans[i].append((i, den))

    states = list(range(len(trans)))
    mc = FiniteMC(states, dict(zip(states, states)), trans, den, colours,
                  frontier, classes, levels, axiom_ids)
    for i, row in enumerate(trans):
        if i not in frontier and (total := sum([w for _, w in row])) != den:
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


def _cone(mc: FiniteMC, undecided: list[bool], start: int,
          horizon: int) -> list[set[int]]:
    """The start's forward cone: layers[d] holds the states first reached in
    d <= horizon steps, stepping on only from undecided states (alive, not
    won, not on the frontier). The list ends before the first empty layer."""
    seen = {start}
    layers = [{start}]
    for _ in range(horizon):
        nxt: set[int] = set()
        for s in layers[-1]:
            if undecided[s]:
                for t, _ in mc.trans[s]:
                    if t not in seen:
                        seen.add(t)
                        nxt.add(t)
        if not nxt:
            break
        layers.append(nxt)
    return layers


def bounded_until(mc: FiniteMC, query: PathQuery) -> Fraction:
    """Exact probability of reaching phi2 through phi1 within the horizon.

    Only the start's horizon cone is swept: step k reads the states within
    horizon - k steps of the start, since no other state's value reaches
    the start's in time. Values are integers over mc.den**k. Rejects the
    query when a frontier state that is not won lies in the cone, where the
    truncation does not know its behaviour."""
    win = _colour_mask(mc, query.phi2)
    alive = _colour_mask(mc, query.phi1)
    start = mc.resolve(query.start)
    horizon = query.horizon
    fmask = np.zeros(len(mc.states), dtype=bool)
    fmask[list(mc.frontier)] = True
    undecided = (alive & ~win & ~fmask).tolist()
    layers = _cone(mc, undecided, start, horizon)
    # the cone in layer order: the states within d steps are a prefix
    order = [s for layer in layers for s in layer]
    # a frontier state that already shows the goal colour is fine: colours
    # only ever accumulate, so it wins no matter what comes later
    hit = [s for s in order if s in mc.frontier and not win[s]]
    if hit:
        raise HorizonError(
            f"frontier vertex {mc.states[hit[0]]}{mc.where(hit[0])} is within "
            f"{horizon} steps of the start; deepen the truncation"
        )
    if not horizon or not undecided[start]:
        # no step is taken, so no den**horizon scale is needed
        return Fraction(int(win[start]))
    pos = {s: i for i, s in enumerate(order)}
    within = list(accumulate(len(layer) for layer in layers))
    within += [len(order)] * (horizon + 1 - len(within))
    # steps start only within horizon - 1 steps of the start; won and dead
    # states keep empty rows, and the won ones are reset each step
    stepping = order[:within[horizon - 1]]
    rows = [[(pos[t], w) for t, w in mc.trans[s]] if undecided[s] else []
            for s in stepping]
    prev = [int(win[s]) for s in order]
    won = [i for i, v in enumerate(prev) if v]
    scale = 1
    for k in range(1, horizon + 1):
        scale *= mc.den
        reach = within[horizon - k]
        cur = [sum(w * prev[j] for j, w in rows[i]) for i in range(reach)]
        for i in won:
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
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """For each of `states`: sorted uint64 cut points (first k-1 cumulative
    probabilities scaled by 2^64, rounded down) and the k target indices.
    A cut is floor(P * 2^64) whatever denominator P is written over, so the
    draws depend only on the probabilities."""
    cuts: dict[int, np.ndarray] = {}
    targets: dict[int, np.ndarray] = {}
    for s in states:
        row = mc.trans[s]
        cum = accumulate(w for _, w in row[:-1])
        cuts[s] = np.array([(c << 64) // mc.den for c in cum], dtype=np.uint64)
        targets[s] = np.array([t for t, _ in row], dtype=np.int64)
    return cuts, targets


def sample_until(mc: FiniteMC, query: PathQuery, n: int, seed: int) -> SampleResult:
    """Monte Carlo estimate of the same query, deterministic in the seed.

    Trajectory i uses draw number step * n + i, so the result is a pure
    function of (seed, n, horizon). A trajectory touching the frontier while
    still undecided counts as an escape: the truth then lies between
    hits/n and (hits+escapes)/n. A trajectory misses as soon as it stands
    on a state from which no win or frontier state can be reached inside
    the cone, so the loop ends once no trajectory can still hit or escape;
    draws are counter-based, so hits and escapes stay as if it walked on.
    Cut tables are built only for the stepping states that can still hit
    or escape.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    win = _colour_mask(mc, query.phi2)
    alive = _colour_mask(mc, query.phi1)
    fmask = np.zeros(len(mc.states), dtype=bool)
    fmask[list(mc.frontier)] = True
    start = mc.resolve(query.start)
    undecided = (alive & ~win & ~fmask).tolist()
    layers = _cone(mc, undecided, start, query.horizon)
    stepping = [s for layer in layers[:query.horizon] for s in layer
                if undecided[s]]
    # walk back from the cone's won and frontier states through the
    # stepping states: a trajectory anywhere else can only miss
    preds: dict[int, list[int]] = {}
    for s in stepping:
        for t, _ in mc.trans[s]:
            preds.setdefault(t, []).append(s)
    exits = (win | fmask).tolist()
    hopeful = reach([s for layer in layers for s in layer if exits[s]],
                    lambda t: preds.get(t, ()))
    misses = ~alive
    misses[[s for s in stepping if s not in hopeful]] = True
    cuts, targets = _threshold_tables(
        mc, [s for s in stepping if s in hopeful])

    cur = np.full(n, start, dtype=np.int64)
    # 0 active, 1 hit, 2 miss, 3 escape
    status = np.zeros(n, dtype=np.int8)

    for step in range(query.horizon + 1):
        active = status == 0
        if not active.any():
            break
        here = cur[active]
        decided = np.zeros(len(here), dtype=np.int8)
        decided[win[here]] = 1
        esc = fmask[here] & (decided == 0)
        decided[esc] = 3
        dead = misses[here] & (decided == 0)
        decided[dead] = 2
        status[np.flatnonzero(active)] = decided
        if step == query.horizon:
            idx = np.flatnonzero(active)
            status[idx[decided == 0]] = 2
            break

        moving = status == 0
        if not moving.any():
            break
        traj = np.flatnonzero(moving)
        ks = np.uint64(step) * np.uint64(n) + traj.astype(np.uint64)
        rand = draw_array(seed, ks)
        # group the moving trajectories by the state they step from
        order = np.argsort(cur[traj])
        traj, rand = traj[order], rand[order]
        src = cur[traj]
        sources, firsts = np.unique(src, return_index=True)
        ends = [*firsts[1:].tolist(), len(traj)]
        for s, a, b in zip(sources.tolist(), firsts.tolist(), ends):
            slot = np.searchsorted(cuts[s], rand[a:b], side="right")
            cur[traj[a:b]] = targets[s][slot]

    return SampleResult(
        hits=int((status == 1).sum()),
        misses=int((status == 2).sum()),
        escapes=int((status == 3).sum()),
        n=n,
    )
