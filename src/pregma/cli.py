"""Command line front door.

Exit codes are part of the contract: 0 for success (and `holds` verdicts),
1 for validation failures and `fails` verdicts, 2 for `unknown` verdicts,
3 for usage errors. Exit 1 also covers an input file that cannot be read
or is not UTF-8, an `-o` path that cannot be written and a command that
runs out of memory (a `MemoryError`), each with one diagnostic line on
stderr. Results go to stdout, diagnostics to stderr. With `--format
json-lines` every result is one self-describing JSON object per line and
rationals stay exact as "p/q" strings; the default text format adds
rounded decimals for reading.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_str
from math import inf
from typing import Callable, Iterable, Iterator

from . import __version__
from .formulas import Formula, FormulaError, Next, Not, And, Until, parse_formula
from .gio import ParseError, emit_dot, load_grammar, serialize_grammar
from .labeling import classes_for_colours, label_formula
from .model import (
    CanonicalVertex,
    Expansion,
    Grammar,
    GrammarError,
    checked_rules,
    expand,
    reachable_component,
)
from .quantitative import render_key, shared_assembly, solve_until
from .validation import analyse, check_complete_outside, phr_check

USAGE_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here says 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _whole(least: float) -> Callable[[str], int]:
    """The option type of a whole number >= least, in ASCII digits after an
    optional "-": int alone also reads other scripts' digits, "_" and spaces."""

    def parse(text: str) -> int:
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}")
        return int(text)

    return parse


class _Failure(Exception):
    """A diagnostic line; `main` prints it on stderr and exits 1."""


def _load(path: str, load=load_grammar):
    """Read one input file with `load`: a grammar unless told otherwise."""
    try:
        return load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(f"cannot read {path}: {exc}")
    except (ParseError, GrammarError) as exc:
        raise _Failure(f"{path}: {exc}")


def _colour_names(g: Grammar, expr: str, parser: _Parser) -> frozenset[str] | None:
    """Comma-separated colour names, or "tt" for no restriction. A
    structurally invalid grammar fails before an unknown colour is refused."""
    if expr == "tt":
        return None
    names = frozenset(n.strip() for n in expr.split(",") if n.strip())
    if not names:
        parser.error(f"empty colour expression {expr!r}")
    unknown = names - set(g.colour_names)
    if unknown:
        checked_rules(g)
        parser.error(
            f"unknown colours {sorted(unknown)}; grammar has {sorted(g.colour_names)}"
        )
    return names


def _axiom_vertex(g: Grammar, name: str, parser: _Parser) -> str:
    """name, if it is a vertex of the axiom rule. Otherwise a structurally
    invalid grammar fails first, with its one diagnostic line."""
    if g.axiom not in {r.lhs for r in g.rules} or not g.axiom_rule().rhs.has_vertex(name):
        checked_rules(g)
        known = sorted(map(str, g.axiom_rule().rhs.vertices))
        parser.error(f"{name!r} is not an axiom-rule vertex (known: {known})")
    return name


# lines `_write_out` joins and writes at a time
_CHUNK_LINES = 1024


def _write_out(lines: Iterable[str], path: str | None) -> None:
    """Write `lines` joined by newlines, plus one newline unless the joined
    text already ends in one, to `path` or else stdout. The lines are
    rendered, joined and written a bounded chunk at a time, so the whole
    text is never held in memory."""
    if path is None:
        _stream(lines, sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _stream(lines, fh)
    except OSError as exc:
        raise _Failure(f"cannot write {path}: {exc}")


def _stream(lines: Iterable[str], fh) -> None:
    lines = iter(lines)
    sep = tail = ""
    while chunk := list(islice(lines, _CHUNK_LINES)):
        text = sep + "\n".join(chunk)
        fh.write(text)
        sep, tail = "\n", text[-1:]
    if tail != "\n":
        fh.write("\n")


def _report(args, record: dict, *lines: str) -> None:
    """One result: its record as a JSON line, or else its text lines."""
    if args.format == "json-lines":
        print(json.dumps(record, sort_keys=True))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------- validate


def _cmd_validate(args, parser: _Parser) -> int:
    g = _load(args.grammar)
    issues, failures = [], ()
    try:  # the structural check runs once, and its refusal holds the issues
        if g.mu:
            report = phr_check(g)
            violations, failures = report.violations, report.failures
        else:  # no probabilities, so no mass to test
            checked_rules(g)
            violations = check_complete_outside(g)
    except GrammarError as exc:
        issues, violations = exc.issues, check_complete_outside(g)
    for issue in issues:
        print(issue, file=sys.stderr)
    for line in violations:
        print(line, file=sys.stderr)
    for f in failures:
        if f.total is not None:
            print(f"canonical={f.can} sum={f.total}", file=sys.stderr)
        else:
            print(f"canonical={f.can} {f.reason}", file=sys.stderr)
    return 1 if issues or violations or failures else 0


# ------------------------------------------------------------- converters


def _cmd_from_pds(args, parser: _Parser) -> int:
    from .pushdown import load_pds, to_grammar

    g = _load(args.input, lambda path: to_grammar(load_pds(path)))
    _write_out([serialize_grammar(g)], args.output)
    return 0


def _cmd_gen_pcp(args, parser: _Parser) -> int:
    from .pcp import encode, load_pcp

    g, formula = encode(_load(args.input, load_pcp))
    _write_out([serialize_grammar(g), f"# matching forks satisfy: {formula}"],
               args.output)
    return 0


# ------------------------------------------------------------------ expand


class _Fragments(dict):
    """Encoded output fragments, each made once per key on first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _cmd_expand(args, parser: _Parser) -> int:
    g = _load(args.grammar)
    if args.component is not None:
        _axiom_vertex(g, args.component, parser)
        expansion = reachable_component(g, args.component, args.depth)
    else:
        expansion = expand(g, args.depth)
    render = {"dot": emit_dot, "json-lines": _json_lines, "text": _text_lines}
    _write_out(render[args.format](expansion), args.output)
    return 0


def _json_lines(expansion: Expansion) -> Iterator[str]:
    """One record per vertex, arc and hyperarc. Each line equals
    json.dumps(record, sort_keys=True); its pieces are encoded once per
    class, colour set, level and label, and ids are ints, so "<id>" is
    their JSON."""
    graph, frontier = expansion.graph, expansion.frontier
    classes, levels, colours = expansion.classes, expansion.levels, expansion.colours
    head = _Fragments(
        lambda can: f'{{"class": {_json_str(str(can))}, "colours": ')
    marks = _Fragments(
        lambda cs: "[" + ", ".join(map(_json_str, sorted(cs))) + "]")
    tail = _Fragments(lambda level: f'", "kind": "vertex", "level": {level}}}')
    for v in graph.vertices:
        yield (f'{head[classes[v]]}{marks[colours[v]]}, "frontier": '
               f'{"true" if v in frontier else "false"}, "id": "{v}{tail[levels[v]]}')
    arc_head = _Fragments(
        lambda label: f'{{"kind": "arc", "label": {_json_str(label)}, "source": "')
    for rule, slots in graph.slots():
        for label, s, t in rule.arcs:
            yield f'{arc_head[label]}{slots[s]}", "target": "{slots[t]}"}}'
    for label, hvs in graph.legs():
        ids = ", ".join([f'"{v}"' for v in hvs])
        yield (f'{{"kind": "hyperarc", "label": {_json_str(label)}, '
               f'"vertices": [{ids}]}}')


def _text_lines(expansion: Expansion) -> Iterator[str]:
    """A count line, then one line per vertex, arc and hyperarc."""
    graph, frontier = expansion.graph, expansion.frontier
    classes, levels, colours = expansion.classes, expansion.levels, expansion.colours
    yield (f"vertices={len(graph.vertices)} "
           f"arcs={sum(len(rule.arcs) for rule in graph.applications)} "
           f"hyperarcs={len(graph.hyperarcs)} frontier={len(frontier)}")
    for v in graph.vertices:
        marks = ",".join(sorted(colours[v]))
        tag = " frontier" if v in frontier else ""
        yield (f"vertex {v} level={levels[v]} class={classes[v]}"
               + (f" colours={marks}" if marks else "") + tag)
    for rule, slots in graph.slots():
        for label, s, t in rule.arcs:
            yield f"arc {label} {slots[s]} {slots[t]}"
    for label, hvs in graph.legs():
        yield f"hyperarc {label} " + " ".join(map(str, hvs))


# -------------------------------------------------------------------- prob


def _require_mu(g: Grammar) -> None:
    """Refuse a grammar without arc probabilities, once its structure passes."""
    if not g.mu:
        checked_rules(g)
        raise _Failure("grammar declares no arc probabilities")


def _cmd_prob(args, parser: _Parser) -> int:
    # an option the method never reads is refused, not silently ignored
    if args.method == "enclosure":
        unread = [("--horizon", args.horizon is not None),
                  ("--depth", args.depth is not None)]
    else:
        unread = [("--emit-system", args.emit_system)]
    for option, given in unread:
        if given:
            parser.error(f"{option} does not apply to --method {args.method}")
    g = _load(args.grammar)
    _require_mu(g)
    _axiom_vertex(g, args.start, parser)
    phi1_names = _colour_names(g, args.phi1, parser)
    phi2_names = _colour_names(g, args.phi2, parser)

    if args.method == "enclosure":
        an = analyse(g)
        phi1 = classes_for_colours(an, phi1_names)
        phi2 = classes_for_colours(an, phi2_names)
        enc = solve_until(an, phi1, phi2)
        if args.emit_system:
            assembly = shared_assembly(an, phi1, phi2)
            for key, value in assembly.system.pins.items():
                variable = render_key(an, key)
                _report(args, {"kind": "pin", "variable": variable, "value": str(value)},
                        f"pin {variable} = {value}")
            system = assembly.system
            for key in system.variables:
                variable = render_key(an, key)
                rhs = system.render_rhs(key, lambda k: render_key(an, k))
                _report(args, {"kind": "equation", "variable": variable, "rhs": rhs},
                        f"{variable} = {rhs}")
        lo, hi = enc.interval(an.ids[g.axiom, args.start])
        state = "exact" if enc.exact else (
            "converged" if enc.converged else "not converged"
        )
        _report(args, {"kind": "enclosure", "lower": str(lo), "upper": str(hi),
                       "converged": enc.converged, "exact": enc.exact},
                f"lower={lo} upper={hi}",
                f"decimal [{float(lo):.12f}, {float(hi):.12f}] "
                f"width={float(hi - lo):.3e} ({state})")
        return 0

    # the oracle serves truncate and sample alone: imported here, the other
    # commands never pay for loading it
    from .oracle import HorizonError, PathQuery, bounded_until, sample_until, truncate

    horizon = args.horizon
    if horizon is None:
        parser.error(f"--horizon is required with --method {args.method}")
    depth = args.depth if args.depth is not None else horizon + 2
    query = PathQuery(phi1_names, phi2_names, args.start, horizon)
    mc = truncate(g, depth, query)
    if args.method == "truncate":
        try:
            value = bounded_until(mc, query)
        except HorizonError as exc:
            raise _Failure(str(exc))
        _report(args, {"kind": "bounded", "horizon": horizon, "depth": depth,
                       "value": str(value)},
                f"bounded={value}",
                f"decimal {float(value):.12f} (horizon {horizon})")
        return 0
    result = sample_until(mc, query, args.trajectories, args.seed)
    _report(args, {"kind": "sample", "hits": result.hits, "escapes": result.escapes,
                   "n": result.n, "seed": args.seed, "horizon": horizon,
                   "depth": depth},
            f"hits={result.hits} escapes={result.escapes} n={result.n}",
            f"estimate [{float(result.estimate_lo):.6f}, "
            f"{float(result.estimate_hi):.6f}] (seed {args.seed})")
    return 0


# ------------------------------------------------------------------- check


def _qualitative_only(f: Formula) -> bool:
    if isinstance(f, (Next, Until)):
        if f.rho not in (Fraction(0), Fraction(1)):
            return False
    if isinstance(f, (Not, Next)):
        return _qualitative_only(f.sub)
    if isinstance(f, (And, Until)):
        return _qualitative_only(f.left) and _qualitative_only(f.right)
    return True


_EXIT_BY_STATUS = {"holds": 0, "fails": 1, "unknown": 2}


def _cmd_check(args, parser: _Parser) -> int:
    g = _load(args.grammar)
    _require_mu(g)
    formula = parse_formula(args.formula)
    if args.qualitative and not _qualitative_only(formula):
        parser.error("--qualitative requires every threshold to be 0 or 1")
    if args.at is not None:
        _axiom_vertex(g, args.at, parser)
    verdicts = label_formula(g, formula)

    def show(line: str, interval, record: dict) -> None:
        """One verdict, with its enclosure when it has one."""
        if interval is not None:
            record["lower"], record["upper"] = map(str, interval)
            line += f" enclosure=[{record['lower']}, {record['upper']}]"
        _report(args, record, line)

    if args.emit_coloured:
        for can, verdict in verdicts.items():
            show(f"class={can} verdict={verdict.status}", verdict.interval,
                 {"kind": "class-verdict", "class": str(can),
                  "status": verdict.status})

    if args.at is not None:
        can = CanonicalVertex(g.axiom, args.at)
        verdict = verdicts[can]
        show(verdict.status, verdict.interval,
             {"kind": "verdict", "at": args.at, "status": verdict.status})
        return _EXIT_BY_STATUS[verdict.status]

    statuses = {v.status for v in verdicts.values()}
    if statuses <= {"holds"}:
        overall = "holds"
    elif "fails" in statuses:
        overall = "fails"
    else:
        overall = "unknown"
    show(overall, None, {"kind": "verdict", "at": None, "status": overall})
    return _EXIT_BY_STATUS[overall]


# -------------------------------------------------------------------- main


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built on the first call of `main`.

    No parse changes it: its defaults are immutable or a subcommand's own
    parser (so usage errors a command raises name the subcommand), and
    errors, help and the version look up sys.stdout and sys.stderr when
    they print.
    """
    parser = _Parser(prog="pregma", description=__doc__)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="structural and probability checks")
    p.add_argument("grammar")
    p.set_defaults(func=_cmd_validate, parser=p)

    p = sub.add_parser("from-pds", help="suffix rewriting system to grammar")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_from_pds, parser=p)

    p = sub.add_parser("gen-pcp", help="word-pair instance to gadget grammar")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen_pcp, parser=p)

    p = sub.add_parser("expand", help="materialize a finite prefix")
    p.add_argument("grammar")
    p.add_argument("--depth", type=_whole(0), required=True)
    p.add_argument("--format", choices=("text", "dot", "json-lines"),
                   default="text")
    p.add_argument("--component", default=None, metavar="VERTEX",
                   help="restrict to the connected component of this axiom vertex")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_expand, parser=p)

    p = sub.add_parser("prob", help="probability of an until query")
    p.add_argument("grammar")
    p.add_argument("--phi1", default="tt",
                   help='colour names, comma separated, or "tt"')
    p.add_argument("--phi2", required=True)
    p.add_argument("--from", dest="start", required=True,
                   metavar="VERTEX", help="axiom-rule vertex to start from")
    p.add_argument("--method", choices=("enclosure", "truncate", "sample"),
                   default="enclosure")
    p.add_argument("--horizon", type=_whole(0), default=None)
    p.add_argument("--depth", type=_whole(0), default=None)
    p.add_argument("--n", dest="trajectories", type=_whole(1), default=10000)
    p.add_argument("--seed", type=_whole(-inf), default=0)
    p.add_argument("--emit-system", action="store_true",
                   help="print the polynomial system before solving")
    p.add_argument("--format", choices=("text", "json-lines"), default="text")
    p.set_defaults(func=_cmd_prob, parser=p)

    p = sub.add_parser("check", help="three-valued formula verdicts")
    p.add_argument("grammar")
    p.add_argument("--formula", required=True)
    p.add_argument("--at", default=None, metavar="VERTEX")
    p.add_argument("--qualitative", action="store_true",
                   help="reject formulas with thresholds other than 0 and 1")
    p.add_argument("--emit-coloured", action="store_true",
                   help="print one verdict line per vertex class")
    p.add_argument("--format", choices=("text", "json-lines"), default="text")
    p.set_defaults(func=_cmd_check, parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    # print exact answers of any length (Python 3.10.7 on limits ints to 4300 digits)
    digits = None
    if hasattr(sys, "set_int_max_str_digits"):
        digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    # The tables a command builds hold no reference cycle, so refcounting
    # frees them, and the cyclic collector only rescans them as they grow:
    # each depth-14 `prob --method truncate` or `sample` or `expand` query
    # on a two-level branching walk paid one full collection (10-21 ms on
    # a 2-core host) and 106-124 young ones. The 2,864 calls of
    # tests/cli_sweep.py leave 560 cyclic objects in all: 322 from numpy's
    # first import, the rest from building the parser and from usage
    # errors. So each command runs with the collector paused, and main
    # restores the state it found, and the digit limit too.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def _run(argv: list[str] | None) -> int:
    """Parse argv and run its command under the exit-code contract."""
    args, unknown = _build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args, args.parser)
    except FormulaError as exc:
        args.parser.error(f"bad formula: {exc}")
    except (_Failure, GrammarError) as exc:
        print(exc, file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}" if str(exc) else "out of memory",
              file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
