"""Spans around the public functions of every `pregma` module.

`install` wraps each public module-level function once and rebinds the
wrapper under every name that held the original, in every `pregma` module
(functions imported with `from .x import f` live in several namespaces).
`Grammar.rule_for` is wrapped on the class and only counted, since it runs
hundreds of thousands of times per query; the per-term key helpers of
`quantitative` are left alone. A span records name, start, end,
parent and query number in flat arrays; nothing is written until `dump`.
A handful of observers read sizes off return values (variables, rounds,
states); their work is recorded as `trace.observe` child spans, so it never
counts as the observed layer's own time.
"""
from __future__ import annotations

import sys
import types
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

# key helpers run once per polynomial term; a span would cost more than they do
UNWRAPPED = {"quantitative.win_key", "quantitative.dec_key", "quantitative.render_key"}


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_query = array("i")
        self.span_nested = array("b")  # an enclosing span has the same name
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.facts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.query = -1

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def span(self, name: str, fn, observe=None):
        nid = self._id(name)
        watch = None if observe is None else self.span("trace.observe", observe)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1])
            self.span_query.append(self.query)
            self.span_nested.append(self.active[nid] > 0)
            self.span_end.append(0.0)
            self.active[nid] += 1
            self.stack.append(i)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[i] = perf_counter()
                self.stack.pop()
                self.active[nid] -= 1
            if watch is not None:
                watch(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def peak(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def dump(self, path) -> None:
        """One line per span: query, name, start and end in microseconds
        from the first span, parent span index (-1 for a root)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query,name,start_us,end_us,parent\n")
            for i in range(len(self.span_start)):
                fh.write(f"{self.span_query[i]},{self.names[self.span_name[i]]},"
                         f"{(self.span_start[i] - t0) * 1e6:.1f},"
                         f"{(self.span_end[i] - t0) * 1e6:.1f},{self.span_parent[i]}\n")


# ---------------------------------------------------------------- observers


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values if isinstance(v, Fraction)),
               default=0)


def _assembly(tr: Tracer, asm, args, kwargs) -> None:
    tr.facts["quantitative.variables"] += len(asm.system.variables)
    tr.facts["quantitative.terms"] += sum(len(ts) for ts in asm.system.equations.values())


def _enclosure(tr: Tracer, enc, args, kwargs) -> None:
    tr.facts["polysys.rounds"] += enc.iterations
    tr.facts["polysys.converged"] += bool(enc.converged)
    tr.peak("polysys.den_bits_max",
            max(_den_bits(enc.lo.values()), _den_bits(enc.hi.values())))


def _verdicts(tr: Tracer, verdicts, args, kwargs) -> None:
    tr.facts["qualitative.verdicts"] += len(verdicts)
    tr.facts["qualitative.unknown"] += sum(v == "unknown" for v in verdicts.values())


def _truncation(tr: Tracer, mc, args, kwargs) -> None:
    tr.facts["oracle.states"] += len(mc.states)


def _bounded(tr: Tracer, value, args, kwargs) -> None:
    mc, query = args[0], args[1]
    tr.facts["oracle.bounded_state_steps"] += len(mc.states) * query.horizon
    tr.peak("oracle.value_den_bits", value.denominator.bit_length())


def _expansion(tr: Tracer, expansion, args, kwargs) -> None:
    tr.facts["model.expanded_vertices"] += len(expansion.graph.vertices)


OBSERVERS = {
    "quantitative.assemble_system": _assembly,
    "polysys.solve_enclosure": _enclosure,
    "qualitative.until_positive": _verdicts,
    "qualitative.until_almost_sure": _verdicts,
    "oracle.truncate": _truncation,
    "oracle.bounded_until": _bounded,
    "model.expand": _expansion,
}


def install(tracer: Tracer) -> int:
    """Wrap every public function of every loaded `pregma` module; returns
    the number of functions wrapped."""
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "pregma" or name.startswith("pregma.")) and m is not None]
    wrapped: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.split(".")[-1]
        for attr, value in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                    or value.__module__ != mod.__name__):
                continue
            name = f"{short}.{attr}"
            if name not in UNWRAPPED:
                wrapped[id(value)] = tracer.span(name, value, OBSERVERS.get(name))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and isinstance(value, types.FunctionType):
                setattr(mod, attr, wrapped[id(value)])
    grammar = sys.modules["pregma.model"].Grammar
    grammar.rule_for = tracer.counter("model.rule_for", grammar.rule_for)
    return len(wrapped)


# ------------------------------------------------------------ layer metrics

# (metric, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("validation.self_ms", "ms"), ("validation.role_chain_calls", "count"),
    ("validation.phr_check_calls", "count"), ("validation.engine_admissible_calls", "count"),
    ("validation.absorbing_classes_calls", "count"),
    ("fragments.self_ms", "ms"), ("fragments.build_fragment_calls", "count"),
    ("fragments.local_rows_calls", "count"),
    ("quantitative.assemble_ms", "ms"), ("quantitative.assemble_calls", "count"),
    ("quantitative.solve_until_calls", "count"), ("quantitative.variables", "count"),
    ("quantitative.terms", "count"),
    ("qualitative.positive_ms", "ms"), ("qualitative.almost_sure_ms", "ms"),
    ("qualitative.resolve_ref_calls", "count"), ("qualitative.unknown_share", "ratio"),
    ("labeling.self_ms", "ms"), ("labeling.solves_per_query", "count"),
    ("model.rule_for_calls", "count"),
    ("polysys.solve_ms", "ms"), ("polysys.rounds", "count"),
    ("polysys.converged_share", "ratio"), ("polysys.den_bits_max", "bits"),
    ("oracle.truncate_ms", "ms"), ("oracle.bounded_ms", "ms"), ("oracle.sample_ms", "ms"),
    ("oracle.states", "count"), ("oracle.bounded_state_steps_per_s", "1/s"),
    ("oracle.value_den_bits", "bits"),
    ("model.expand_ms", "ms"), ("model.expanded_vertices", "count"),
    ("gio.parse_ms", "ms"), ("gio.serialize_ms", "ms"), ("formulas.parse_ms", "ms"),
    ("pushdown.to_grammar_ms", "ms"), ("pcp.encode_ms", "ms"), ("cli.self_ms", "ms"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
]

# metric -> span whose outermost calls' total time it reports
_INCLUSIVE_MS = {
    "quantitative.assemble_ms": "quantitative.assemble_system",
    "qualitative.positive_ms": "qualitative.until_positive",
    "qualitative.almost_sure_ms": "qualitative.until_almost_sure",
    "polysys.solve_ms": "polysys.solve_enclosure",
    "oracle.truncate_ms": "oracle.truncate",
    "oracle.bounded_ms": "oracle.bounded_until",
    "oracle.sample_ms": "oracle.sample_until",
    "model.expand_ms": "model.expand",
    "gio.parse_ms": "gio.parse_grammar",
    "gio.serialize_ms": "gio.serialize_grammar",
    "formulas.parse_ms": "formulas.parse_formula",
    "pushdown.to_grammar_ms": "pushdown.to_grammar",
    "pcp.encode_ms": "pcp.encode",
}
_CALLS = {
    "validation.role_chain_calls": "validation.role_chain",
    "validation.phr_check_calls": "validation.phr_check",
    "validation.engine_admissible_calls": "validation.engine_admissible",
    "validation.absorbing_classes_calls": "validation.absorbing_classes",
    "fragments.build_fragment_calls": "fragments.build_fragment",
    "fragments.local_rows_calls": "fragments.local_rows",
    "quantitative.assemble_calls": "quantitative.assemble_system",
    "quantitative.solve_until_calls": "quantitative.solve_until",
    "qualitative.resolve_ref_calls": "qualitative.resolve_ref",
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers of the spans recorded since the last reset."""
    n = len(tr.span_start)
    names = tr.names
    dur = [tr.span_end[i] - tr.span_start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tr.span_parent[i]
        if p >= 0:
            child[p] += dur[i]
    self_s: Counter = Counter()
    inclusive_s: Counter = Counter()
    calls: Counter = Counter()
    labeling_solves = 0
    for i in range(n):
        name = names[tr.span_name[i]]
        calls[name] += 1
        self_s[name.split(".")[0]] += dur[i] - child[i]
        if not tr.span_nested[i]:
            inclusive_s[name] += dur[i]
        p = tr.span_parent[i]
        if name == "quantitative.solve_until" and p >= 0 \
                and names[tr.span_name[p]] == "labeling.label_formula":
            labeling_solves += 1

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    out: dict[str, float] = {}
    for metric in ("validation", "fragments", "labeling", "cli"):
        out[f"{metric}.self_ms"] = self_s[metric] * 1e3
    for metric, span in _INCLUSIVE_MS.items():
        out[metric] = inclusive_s[span] * 1e3
    for metric, span in _CALLS.items():
        out[metric] = calls[span]
    out["quantitative.variables"] = tr.facts["quantitative.variables"]
    out["quantitative.terms"] = tr.facts["quantitative.terms"]
    out["qualitative.unknown_share"] = share(tr.facts["qualitative.unknown"],
                                             tr.facts["qualitative.verdicts"])
    out["labeling.solves_per_query"] = share(labeling_solves, calls["labeling.label_formula"])
    out["model.rule_for_calls"] = tr.counts["model.rule_for"]
    out["polysys.rounds"] = tr.facts["polysys.rounds"]
    out["polysys.converged_share"] = share(tr.facts["polysys.converged"],
                                           calls["polysys.solve_enclosure"])
    out["polysys.den_bits_max"] = tr.maxima.get("polysys.den_bits_max", 0)
    out["oracle.states"] = tr.facts["oracle.states"]
    out["oracle.bounded_state_steps_per_s"] = share(tr.facts["oracle.bounded_state_steps"],
                                                    inclusive_s["oracle.bounded_until"])
    out["oracle.value_den_bits"] = tr.maxima.get("oracle.value_den_bits", 0)
    out["model.expanded_vertices"] = tr.facts["model.expanded_vertices"]
    out["trace.spans"] = n
    return out


# metrics that count work; two passes over the same inputs must agree on them
COUNTS = {m for m, unit in LAYER_METRICS if unit in ("count", "bits")}
