"""Command-line front end: analyze graphs, emit dart graphs, and drive the
verification suites over a census.

Exit codes: 0 all assertions passed, 1 some verification assertion
failed, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cached_property
from operator import getitem

from . import __version__
from .errors import (
    HatError,
    MalformedCensus,
    MalformedGraph6,
    Not2ArcTransitive,
    NotConnected,
    NotCubic,
    OrderTooSmall,
    StructureViolation,
    TooLarge,
)
from .graphs import girth, is_bipartite, is_connected, line_graph, valence
from .graph6 import load_graph6_file, write_graph6
from .autgroup import (_check_vertex_bound, automorphism_group,
                       transitivity_report)
from .altcycles import (
    alternating_cycles,
    antipodal_involution,
    divisibility_checks,
    half_arc_orientation,
    induced_alt_action,
)
from .dartgraph import dart_graph, psi_isomorphism, verify_dart_forward
from .covers import cover_pipeline, covering_fault
from .perms import orbits
from .census import load_census


class _EntryAnalysis:
    """The artefacts of one graph, each built on first use and at most
    once; analyze and the suites read them instead of rebuilding them.
    An analysis lives for one entry, and group is its only Aut(g) chain:
    autgroup keeps no chain, and its search result (autgroup._analysis)
    only for the graph in hand."""

    def __init__(self, g):
        self.g = g
        self.valence = valence(g)

    @cached_property
    def group(self):
        return automorphism_group(self.g)

    @cached_property
    def orbits(self):
        """Aut(g)'s vertex orbits, each sorted, by least vertex."""
        return orbits(range(self.g.n), self.group.generators, getitem)

    @cached_property
    def girth(self):
        """girth(g), searched from the least vertex of each Aut(g) orbit."""
        return girth(self.g, roots=[orbit[0] for orbit in self.orbits])

    @cached_property
    def report(self):
        return transitivity_report(self.group, self.g)

    @cached_property
    def connected(self):
        return is_connected(self.g)

    @property
    def dart_applicable(self):
        return (self.valence == 3 and self.connected
                and self.report.two_arc_transitive)

    @property
    def half_arc_transitive(self):
        """Whether g is connected and tetravalent with Aut(g)
        half-arc-transitive: the graphs whose alternating cycles analyze
        and the divisibility suite read."""
        return (self.valence == 4 and self.connected
                and self.report.half_arc_transitive)

    @cached_property
    def forward(self):
        """The certified dart chain of a 2-arc-transitive cubic graph:
        verify_dart_forward's (labeling, lifted, dec, checks)."""
        return verify_dart_forward(self.g, self.group, self.report)

    @cached_property
    def tau(self):
        """The antipodal involution of the dart graph's alternating cycles,
        certified on the lift; the cover and divisibility suites read it."""
        labeling, lifted, dec, _ = self.forward
        return antipodal_involution(labeling.graph, dec, lifted)

    @cached_property
    def half_arc_cycles(self):
        """Alternating cycles of a half-arc-transitive tetravalent graph."""
        return alternating_cycles(half_arc_orientation(self.g, self.report))


def analyze_graph(name, g):
    """Structure, symmetry and (when applicable) alternating-cycle report
    for one graph."""
    analysis = _EntryAnalysis(g)
    record = {
        "name": name,
        "graph6": write_graph6(g),
        "order": g.n,
        "size": g.m,
        "connected": analysis.connected,
        "regular_valence": analysis.valence,
        "bipartite": is_bipartite(g) is not None,
        "aut_order": str(analysis.group.order),
        "girth": analysis.girth,
    }
    report = analysis.report
    record["transitivity"] = report.to_json_dict()
    if analysis.valence == 3:
        record["cubic_two_arc_transitive"] = report.two_arc_transitive
    record["alternating"] = None
    if analysis.half_arc_transitive:
        dec = analysis.half_arc_cycles
        note = divisibility_checks(dec, [])
        alt = {
            "radius": dec.radius,
            "attachment": dec.attachment,
            "ell": dec.ell,
            "cycle_count": len(dec.cycles),
            "tightly_attached": dec.tightly_attached,
            "alt_action_arc_transitive": None,
            "open_question_notes": [note] if note else [],
        }
        if len(dec.cycles) >= 3:
            _, arc_t = induced_alt_action(analysis.group, dec)
            alt["alt_action_arc_transitive"] = arc_t
        record["alternating"] = alt
    return record


def _check(checks, name, ok, detail=""):
    checks.append({"check": name, "passed": bool(ok), "detail": detail})


def _engine_checks(checks, passed):
    """The (name, witness) pairs of the checks an engine stage passed, in
    the order it made them."""
    checks.extend({"check": name, "passed": True, "detail": detail}
                  for name, detail in passed)


def _expected_checks(analysis, expected, checks):
    if not expected:
        return
    g, group = analysis.g, analysis.group
    # only the keys the entry declares are derived
    derive = {
        "vertices": lambda: g.n,
        "valence": lambda: analysis.valence,
        "bipartite": lambda: is_bipartite(g) is not None,
        "girth": lambda: analysis.girth,
        "aut_order": lambda: group.order,
        "two_arc_transitive": lambda: analysis.report.two_arc_transitive,
        "half_arc_transitive": lambda: analysis.report.half_arc_transitive,
    }
    for key, want in sorted(expected.items()):
        got = derive[key]() if key in derive else "<unknown property>"
        _check(checks, f"expected:{key}", got == want,
               f"declared {want}, derived {got}")
    _check(checks, "expected:orbit_sizes_divide_order",
           all(group.order % len(orbit) == 0 for orbit in analysis.orbits),
           f"|Aut| = {group.order}")


def _dart_suite(analysis, checks, strict):
    if not analysis.dart_applicable:
        _check(checks, "dart:applicable", True,
               "skipped: not a 2-arc-transitive cubic graph")
        return
    labeling, _, dec, forward_checks = analysis.forward
    _engine_checks(checks, forward_checks)
    # verify_dart_forward certified the natural orientation as induced
    _, psi_checks = psi_isomorphism(labeling.orientation, dec)
    _engine_checks(checks, psi_checks)


def _cover_suite(analysis, checks, strict):
    if not analysis.dart_applicable:
        _check(checks, "cover:applicable", True,
               "skipped: not a 2-arc-transitive cubic graph")
        return
    labeling, lifted, dec, _ = analysis.forward
    dart = labeling.graph

    line, line_edges = line_graph(analysis.g)
    index = {e: i for i, e in enumerate(line_edges)}
    fibre_map = tuple(index[min(u, v), max(u, v)] for u, v in labeling.darts)
    fault = covering_fault(dart, line, fibre_map)
    _check(checks, "cover:dart_covers_line_graph", not fault, fault)

    if dart.n <= 12:
        try:
            cover_pipeline(dart, dec, lifted, analysis.tau)
            _check(checks, "cover:order_guard", False,
                   f"order {dart.n} <= 12 must be rejected")
        except OrderTooSmall:
            _check(checks, "cover:order_guard", True,
                   f"order {dart.n} <= 12 rejected")
        return
    _, _, cover_checks = cover_pipeline(dart, dec, lifted, analysis.tau)
    # split, with |G~| = 2 |G|, by split_certificate's proof
    _check(checks, "cover:split", True,
           f"|G~| = {2 * lifted.order} = 2 x {lifted.order}")
    _engine_checks(checks, cover_checks)


def _divisibility_suite(analysis, checks, strict):
    if analysis.dart_applicable:
        labeling, _, dec, _ = analysis.forward
        # verify_dart_forward proved the lift's arc orbits to be the natural
        # orientation and its reverse, and antipodal_involution that tau
        # (the dart reversal) is an automorphism; so tau proves Dart(g)
        # arc-transitive exactly when it maps some natural arc (t, h) to a
        # reversed arc: {tau[t], tau[h]} is an edge, directed tau[h] -> tau[t]
        natural, tau = labeling.orientation, analysis.tau
        reversal = next((((t, h), (tau[t], tau[h])) for t, h in natural.arcs
                         if tau[t] in natural.out_adj[tau[h]]), None)
    elif analysis.half_arc_transitive:
        dec, reversal = analysis.half_arc_cycles, None
    else:
        _check(checks, "div:applicable", True,
               "skipped: no analyzed half-arc-transitive structure")
        return
    passed = []
    note = divisibility_checks(dec, passed, reversal)
    _engine_checks(checks, passed)
    if reversal is None:
        # the analysed group is Aut(g), so the note names a candidate
        _check(checks, "div:open_questions", not (strict and note),
               note or "")


_SUITE_RUNNERS = {"dart-theorem": _dart_suite,
                  "cover-theorem": _cover_suite,
                  "divisibility": _divisibility_suite}
SUITES = tuple(_SUITE_RUNNERS)


def _verify_entry(payload):
    """The report of one census entry.  A failed theorem check (a
    StructureViolation) is recorded as that check, failed, with its
    witness as detail.  Any other error, typed (a HatError) or an engine
    error (any other exception), fails only its entry and also records
    where it happened: the suite that ran ("expected" before the first
    suite) and the last check recorded."""
    entry, suites, strict = payload
    checks = []
    stage = "expected"
    error = None
    t0 = time.perf_counter()
    try:
        analysis = _EntryAnalysis(entry.graph())
        _expected_checks(analysis, entry.expected, checks)
        for suite in SUITES:
            if suite in suites:
                stage = suite
                _SUITE_RUNNERS[suite](analysis, checks, strict)
    except StructureViolation as exc:
        checks.append({"check": exc.check, "passed": False,
                       "detail": exc.witness})
    except Exception as exc:
        # an engine bug, any error but a HatError, fails its own entry, not
        # the whole run or pool; a MemoryError prints no traceback, whose
        # import needs memory that the failed frames still hold.  An error
        # without a message (an allocator's MemoryError) is its type alone.
        engine = not isinstance(exc, HatError)
        if engine and not isinstance(exc, MemoryError):
            import traceback
            traceback.print_exc(file=sys.stderr)
        text = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        error = f"engine error: {text}" if engine else text
    result = {
        "name": entry.name,
        "checks": checks,
        "error": error,
        "passed": error is None and all(c["passed"] for c in checks),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }
    if error is not None:
        result["error_context"] = {
            "suite": stage,
            "last_check": checks[-1]["check"] if checks else None}
    return result


def _emit(command, entries, out_path, **fields):
    """Write the report of a command, its entries ordered by name, as
    JSON to out_path when given; returns the JSON text."""
    report = {"tool": "hatkit", "version": __version__, "command": command,
              "entries": sorted(entries, key=lambda r: r["name"]), **fields}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _cmd_analyze(args):
    records = [analyze_graph(name, g)
               for name, g in _input_graphs(args.input, args.census)]
    sys.stdout.write(_emit("analyze", records, args.out))
    return 0


def _cmd_dart(args):
    records = []
    for name, g in _input_graphs(args.input, args.census):
        analysis = _EntryAnalysis(g)
        # a graph that is not cubic and connected reaches dart_graph before
        # any search, which aborts with code 2 (NotCubic, NotConnected)
        dart = (analysis.forward[0].graph if analysis.dart_applicable
                else dart_graph(g)[0])
        record = {"name": name, "dart_graph6": write_graph6(dart),
                  "dart_order": dart.n}
        try:
            _, lifted, dec, _ = analysis.forward
            # group orders outgrow the integers that JSON readers keep exact
            record["report"] = {
                "base_order": g.n, "dart_order": dart.n,
                "group_order": str(analysis.group.order),
                "lifted_order": str(lifted.order), "radius": dec.radius,
                "attachment": dec.attachment, "ell": dec.ell}
        except Not2ArcTransitive as exc:
            record["report"] = None
            record["note"] = str(exc)
        records.append(record)
        print(record["dart_graph6"])
    _emit("dart", records, args.out)
    return 0


def _cmd_verify(args):
    suites = SUITES if args.suite == "all" else (args.suite,)
    payloads = [(e, suites, args.strict) for e in load_census(args.census)]
    if not payloads:
        raise MalformedCensus(f"{args.census}: the census has no entries")
    # a graph above the search's vertex bound is bad input, even where no
    # suite searches it
    for entry, _, _ in payloads:
        _check_vertex_bound(entry.graph())
    t0 = time.perf_counter()
    # a fork-started pool launches every worker at once, so never more
    # workers than entries
    workers = min(args.jobs, len(payloads))
    if workers > 1:
        # the pool's import is a cold-start cost that --jobs 1 never pays
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_entry, payloads))
    else:
        results = [_verify_entry(p) for p in payloads]
    results.sort(key=lambda r: r["name"])
    for result in results:
        for check in result["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            detail = f"  ({check['detail']})" if check["detail"] else ""
            print(f"[{status}] {result['name']}: {check['check']}{detail}")
        if result["error"]:
            context = result.get("error_context")
            where = (f" (in suite {context['suite']}, after check "
                     f"{context['last_check']})" if context else "")
            print(f"[FAIL] {result['name']}: error: {result['error']}{where}")
    passed = all(r["passed"] for r in results)
    _emit("verify", results, args.out, suite=args.suite, census=args.census,
          strict=args.strict, passed=passed,
          failures=[r["name"] for r in results if not r["passed"]],
          elapsed_seconds=round(time.perf_counter() - t0, 3))
    print(f"{'PASS' if passed else 'FAIL'}: {len(results)} entries, "
          f"suite={args.suite}")
    return 0 if passed else 1


def _input_graphs(source, census):
    """Resolve a positional input, census entry name or graph6 file path,
    to (name, graph) pairs."""
    named = {e.name: e for e in load_census(census)}
    if source in named:
        return [(source, named[source].graph())]
    try:
        loaded = load_graph6_file(source)
    except OSError as exc:
        raise MalformedGraph6(
            f"{source!r} is neither a census entry "
            f"({', '.join(sorted(named))}) nor a readable file: {exc}")
    if not loaded:
        raise MalformedGraph6(f"{source} contains no graphs")
    return [(f"{source}:{lineno}", g) for lineno, g in loaded]


def _job_count(text):
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"{jobs} is below 1")
    return jobs


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hatkit",
        description="alternating-cycle structure, dart graphs and 2-fold "
                    "covers of tetravalent graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--census", default="builtin",
                        help="'builtin', census JSON, or graph6 file")
    common.add_argument("--out", default=None, help="write JSON here")
    graph_input = argparse.ArgumentParser(add_help=False, parents=[common])
    graph_input.add_argument("input", help="census entry name or graph6 file")

    sub.add_parser("analyze", parents=[graph_input],
                   help="symmetry and alternating-cycle report"
                   ).set_defaults(func=_cmd_analyze)
    sub.add_parser("dart", parents=[graph_input],
                   help="emit the dart graph of a cubic graph, with report"
                   ).set_defaults(func=_cmd_dart)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a verification suite over a census")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    p_verify.add_argument("--jobs", type=_job_count, default=1,
                          help="process entries in parallel")
    p_verify.add_argument("--strict", action="store_true",
                          help="fail open-question candidates: a half-arc-"
                               "transitive Aut(X) with a not dividing r")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedCensus, MalformedGraph6, NotCubic, NotConnected,
            TooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
