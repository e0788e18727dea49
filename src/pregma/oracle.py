"""Ground-truth oracle on finite truncations.

Expanding the grammar to a fixed depth gives a finite chunk of the generated
graph. Vertices still sitting on an unexpanded hyperarc (the frontier) have
incomplete out-arcs and possibly missing colours, so the oracle refuses
horizon/depth combinations whose answer could still be influenced by the
frontier, and the sampler reports frontier contacts separately instead of
guessing. Marked absorbing sinks get an explicit probability-1 self-loop so
the truncation is a genuine Markov chain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from .model import Expansion, Grammar, GrammarError, expand, validate_grammar
from .rng import draw_array
from .validation import ProbabilityMap

ZERO = Fraction(0)
ONE = Fraction(1)


class TotalityError(GrammarError):
    """A fully expanded vertex's outgoing probabilities do not sum to 1."""


class HorizonError(ValueError):
    """The requested horizon can see past the truncation depth."""


@dataclass
class FiniteMC:
    expansion: Expansion | None
    states: list[Any]
    index: dict[Any, int]
    trans: list[list[tuple[int, Fraction]]]
    colours: list[frozenset[str]]
    frontier: frozenset[int]

    def colour_mask(self, names: frozenset[str] | None) -> np.ndarray:
        """Boolean per state; names=None means "every state"."""
        if names is None:
            return np.ones(len(self.states), dtype=bool)
        return np.array(
            [bool(cs & names) for cs in self.colours], dtype=bool
        )

    def resolve(self, start: Any) -> int:
        """Accept a state id or an axiom-rule vertex name."""
        if start in self.index:
            return self.index[start]
        if self.expansion is None:
            raise KeyError(start)
        return self.index[self.expansion.axiom_vertex(start)]


def truncate(g: Grammar, depth: int, mu: ProbabilityMap | None = None) -> FiniteMC:
    issues = validate_grammar(g)
    if issues:
        raise GrammarError("; ".join(str(i) for i in issues))
    mu = dict(g.mu) if mu is None else dict(mu)

    expansion = expand(g, depth)
    graph = expansion.graph
    states = list(graph.vertices)
    index = {v: i for i, v in enumerate(states)}
    colour_sets = graph.colour_sets()
    colours = [colour_sets.get(v, frozenset()) for v in states]
    frontier = frozenset(index[v] for v in expansion.frontier)

    trans: list[list[tuple[int, Fraction]]] = [[] for _ in states]
    for arc in graph.arcs:
        if arc.label not in mu:
            raise GrammarError(f"no probability for arc label {arc.label}")
        trans[index[arc.source]].append((index[arc.target], mu[arc.label]))

    for i, v in enumerate(states):
        if trans[i] or i in frontier:
            continue
        if colours[i] & g.absorbing:
            trans[i].append((i, ONE))

    for i, v in enumerate(states):
        if i in frontier:
            continue
        total = sum((p for _, p in trans[i]), ZERO)
        if total != 1:
            cv = expansion.vertices[v]
            raise TotalityError(
                f"vertex {v} (class {cv.can}, level {cv.level}) has outgoing "
                f"mass {total}"
            )
    return FiniteMC(expansion, states, index, trans, colours, frontier)


@dataclass(frozen=True)
class PathQuery:
    """Bounded until: phi1/phi2 are unions of colour names, None meaning
    "true". start is a state id or an axiom-rule vertex name."""

    phi1: frozenset[str] | None
    phi2: frozenset[str] | None
    start: Any
    horizon: int


def _frontier_guard(mc: FiniteMC, win: np.ndarray, alive: np.ndarray,
                    start: int, horizon: int) -> None:
    """Reject when a frontier state is reachable within the horizon through
    states whose behaviour the truncation does know."""
    seen = {start}
    layer = {start}
    for _ in range(horizon + 1):
        # a frontier state that already shows the goal colour is fine: colours
        # only ever accumulate, so it wins no matter what comes later
        hit = [s for s in layer if s in mc.frontier and not win[s]]
        if hit:
            v = mc.states[hit[0]]
            where = ""
            if mc.expansion is not None:
                cv = mc.expansion.vertices[v]
                where = f" (class {cv.can}, level {cv.level})"
            raise HorizonError(
                f"frontier vertex {v}{where} is within {horizon} steps of "
                "the start; deepen the truncation"
            )
        nxt: set[int] = set()
        for s in layer:
            if win[s] or not alive[s]:
                continue  # absorbed before taking another step
            for t, _ in mc.trans[s]:
                if t not in seen:
                    seen.add(t)
                    nxt.add(t)
        layer = nxt
        if not layer:
            return


def bounded_until(mc: FiniteMC, query: PathQuery) -> Fraction:
    """Exact probability of reaching phi2 through phi1 within the horizon."""
    win_mask = mc.colour_mask(query.phi2)
    alive_mask = mc.colour_mask(query.phi1)
    start = mc.resolve(query.start)
    _frontier_guard(mc, win_mask, alive_mask, start, query.horizon)

    n = len(mc.states)
    prev = [ONE if win_mask[s] else ZERO for s in range(n)]
    for _ in range(query.horizon):
        cur = []
        for s in range(n):
            if win_mask[s]:
                cur.append(ONE)
            elif not alive_mask[s]:
                cur.append(ZERO)
            else:
                acc = ZERO
                for t, p in mc.trans[s]:
                    acc += p * prev[t]
                cur.append(acc)
        prev = cur
    return prev[start]


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


def _threshold_tables(mc: FiniteMC) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per state: sorted uint64 cut points (first k-1 cumulative probabilities
    scaled by 2^64, rounded down) and the k target indices."""
    cuts: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for rows in mc.trans:
        cum = ZERO
        cs = []
        for t, p in rows[:-1]:
            cum += p
            cs.append((cum.numerator << 64) // cum.denominator)
        cuts.append(np.array(cs, dtype=np.uint64))
        targets.append(np.array([t for t, _ in rows], dtype=np.int64))
    return cuts, targets


def sample_until(mc: FiniteMC, query: PathQuery, n: int, seed: int) -> SampleResult:
    """Monte Carlo estimate of the same query, deterministic in the seed.

    Trajectory i uses draw number step * n + i, so the result is a pure
    function of (seed, n, horizon). A trajectory touching the frontier while
    still undecided counts as an escape: the truth then lies between
    hits/n and (hits+escapes)/n.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    win = mc.colour_mask(query.phi2)
    alive = mc.colour_mask(query.phi1)
    fmask = np.zeros(len(mc.states), dtype=bool)
    for s in mc.frontier:
        fmask[s] = True
    cuts, targets = _threshold_tables(mc)

    start = mc.resolve(query.start)
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
        dead = ~alive[here] & (decided == 0)
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
        src = cur[traj]
        nxt = np.empty(len(traj), dtype=np.int64)
        for s in np.unique(src):
            sel = src == s
            slot = np.searchsorted(cuts[s], rand[sel], side="right")
            nxt[sel] = targets[s][slot]
        cur[traj] = nxt

    return SampleResult(
        hits=int((status == 1).sum()),
        misses=int((status == 2).sum()),
        escapes=int((status == 3).sum()),
        n=n,
    )
