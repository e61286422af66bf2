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
from concurrent.futures import ProcessPoolExecutor
from functools import cached_property

from . import __version__
from .errors import (
    HatError,
    MalformedCensus,
    MalformedGraph6,
    Not2ArcTransitive,
    NotConnected,
    NotCubic,
    OrderTooSmall,
)
from .graphs import girth, is_bipartite, is_connected, line_graph
from .graph6 import load_graph6_file, write_graph6
from .autgroup import arc_orbits, automorphism_group, transitivity_report
from .altcycles import (
    alt_graph,
    alternating_cycles,
    divisibility_report,
    induced_alt_action,
    induced_orientation,
)
from .dartgraph import (
    dart_graph,
    dart_reversal,
    psi_isomorphism,
    verify_dart_forward,
)
from .covers import cover_pipeline, is_covering
from .census import CensusEntry, load_census

SUITES = ("dart-theorem", "cover-theorem", "divisibility")


class _EntryAnalysis:
    """The artefacts of one graph, each built on first use and at most
    once; analyze and the suites read them instead of rebuilding them.
    An analysis lives for one entry: only the automorphism search
    (autgroup._analysis) is cached across entries."""

    def __init__(self, g):
        self.g = g
        degs = set(g.degrees())
        self.valence = degs.pop() if len(degs) == 1 else None

    @cached_property
    def group(self):
        return automorphism_group(self.g)

    @cached_property
    def report(self):
        return transitivity_report(self.group, self.g)

    @property
    def dart_applicable(self):
        return self.valence == 3 and self.report.two_arc_transitive

    @cached_property
    def forward(self):
        """The certified dart chain of a 2-arc-transitive cubic graph."""
        return verify_dart_forward(self.g, self.group)

    @cached_property
    def half_arc_cycles(self):
        """Alternating cycles of a half-arc-transitive tetravalent graph."""
        d, _ = induced_orientation(self.group, self.g)
        return alternating_cycles(self.g, d)


def _open_question_notes(dec):
    """The induced action on the alternating cycles is arc-transitive
    exactly when ell is odd; record when the radius-divides-attachment
    reading would predict otherwise."""
    parity_reading = dec.ell % 2 == 1
    divides_reading = dec.attachment % dec.radius != 0
    notes = []
    if parity_reading != divides_reading:
        notes.append(
            f"readings disagree for (r, a) = ({dec.radius}, {dec.attachment}): "
            f"ell-parity predicts arc-transitive={parity_reading}, "
            f"radius-divides-attachment predicts {divides_reading}")
    return notes


def analyze_graph(name, g):
    """Structure, symmetry and (when applicable) alternating-cycle report
    for one graph."""
    analysis = _EntryAnalysis(g)
    record = {
        "name": name,
        "graph6": write_graph6(g),
        "order": g.n,
        "size": g.m,
        "connected": is_connected(g),
        "regular_valence": analysis.valence,
        "bipartite": is_bipartite(g) is not None,
        "girth": girth(g),
    }
    report = analysis.report
    record["aut_order"] = str(analysis.group.order)
    record["transitivity"] = report.to_json_dict()
    if analysis.valence == 3:
        record["cubic_two_arc_transitive"] = report.two_arc_transitive
    record["alternating"] = None
    if (record["connected"] and analysis.valence == 4
            and report.half_arc_transitive):
        dec = analysis.half_arc_cycles
        divis = divisibility_report(dec, is_full_group=True,
                                    genuinely_hat=True)
        alt = {
            "radius": dec.radius,
            "attachment": dec.attachment,
            "ell": dec.ell,
            "cycle_count": len(dec.cycles),
            "tightly_attached": dec.tightly_attached,
            "divisibility": divis.to_json_dict(),
            "alt_action_arc_transitive": None,
            "open_question_notes": _open_question_notes(dec),
        }
        if len(dec.cycles) >= 3:
            altg = alt_graph(g, dec)
            _, arc_t = induced_alt_action(analysis.group, dec, altg)
            alt["alt_action_arc_transitive"] = arc_t
        record["alternating"] = alt
    return record


def _check(checks, name, ok, detail=""):
    checks.append({"check": name, "passed": bool(ok), "detail": detail})
    return ok


def _expected_checks(analysis, expected, checks):
    if not expected:
        return
    g, group = analysis.g, analysis.group
    derived = {
        "vertices": g.n,
        "valence": analysis.valence,
        "bipartite": is_bipartite(g) is not None,
        "girth": girth(g),
        "aut_order": group.order,
        "two_arc_transitive": analysis.report.two_arc_transitive,
        "half_arc_transitive": analysis.report.half_arc_transitive,
    }
    for key, want in sorted(expected.items()):
        got = derived.get(key, "<unknown property>")
        _check(checks, f"expected:{key}", got == want,
               f"declared {want}, derived {got}")
    _check(checks, "expected:orbit_sizes_divide_order",
           all(group.order % len(orbit) == 0
               for orbit in group.orbit_partition()),
           f"|Aut| = {group.order}")


def _dart_suite(analysis, checks, strict):
    if not analysis.dart_applicable:
        _check(checks, "dart:applicable", True,
               "skipped: not a 2-arc-transitive cubic graph")
        return
    forward = analysis.forward
    _check(checks, "dart:half_arc_transitive", forward.half_arc_transitive)
    _check(checks, "dart:radius_3", forward.radius == 3,
           f"radius {forward.radius}")
    _check(checks, "dart:attachment_2", forward.attachment == 2,
           f"attachment {forward.attachment}")
    _check(checks, "dart:alt_reconstructs_base", forward.alt_isomorphic_to_base)
    _check(checks, "dart:natural_orientation_induced",
           forward.natural_orientation_induced)
    # verify_dart_forward certified the natural orientation as induced
    _, psi_report = psi_isomorphism(forward.labeling.graph,
                                    forward.labeling.orientation,
                                    forward.decomposition)
    _check(checks, "dart:psi_isomorphism",
           psi_report.bijective and psi_report.preserves_adjacency
           and psi_report.orientation_compatible)
    if strict:
        # reversing the orientation keeps the alternating cycles, so the
        # natural orientation's decomposition is the induced one's
        notes = _open_question_notes(forward.decomposition)
        _check(checks, "dart:open_questions", not notes, "; ".join(notes))


def _cover_suite(analysis, checks, strict):
    if not analysis.dart_applicable:
        _check(checks, "cover:applicable", True,
               "skipped: not a 2-arc-transitive cubic graph")
        return
    labeling = analysis.forward.labeling
    dart, lifted = labeling.graph, analysis.forward.lifted_group
    dec = analysis.forward.decomposition

    line, line_edges = line_graph(analysis.g)
    fibre_map = tuple(line_edges.index((min(u, v), max(u, v)))
                      for u, v in labeling.darts)
    _check(checks, "cover:dart_covers_line_graph",
           is_covering(dart, line, fibre_map))

    if dart.n <= 12:
        try:
            cover_pipeline(dart, dec, lifted)
            _check(checks, "cover:order_guard", False,
                   f"order {dart.n} <= 12 must be rejected")
        except OrderTooSmall:
            _check(checks, "cover:order_guard", True,
                   f"order {dart.n} <= 12 rejected")
        return
    rep = cover_pipeline(dart, dec, lifted)
    _check(checks, "cover:split", rep.split,
           f"|G~| = {rep.lifted_order} = 2 x {rep.group_order}")
    _check(checks, "cover:sectional_iff_bipartite",
           rep.sectional == rep.bipartite,
           f"bipartite={rep.bipartite}, sectional={rep.sectional}")
    _check(checks, "cover:base_girth_3", rep.base_girth == 3)
    _check(checks, "cover:base_is_line_graph", True,
           f"base order {rep.base_order}")
    _check(checks, "cover:projected_group_halved",
           2 * rep.projected_order == rep.lifted_order)


def _divisibility_suite(analysis, checks, strict):
    if analysis.dart_applicable:
        forward = analysis.forward
        dec = forward.decomposition
        rec = divisibility_report(dec, is_full_group=False,
                                  genuinely_hat=False)
        _check(checks, "div:a_divides_2r", rec.a_divides_2r,
               f"(r, a) = ({rec.radius}, {rec.attachment})")
        dart = forward.labeling.graph
        tau = dart_reversal(forward.labeling)
        orbits = arc_orbits(list(forward.lifted_group.generators) + [tau],
                            dart)
        _check(checks, "div:full_group_not_hat", len(orbits) <= 1,
               "dart reversal extends the lift to an arc-transitive group")
    elif analysis.valence == 4 and analysis.report.half_arc_transitive:
        dec = analysis.half_arc_cycles
        rec = divisibility_report(dec, is_full_group=True, genuinely_hat=True)
        _check(checks, "div:a_divides_2r", rec.a_divides_2r,
               f"(r, a) = ({rec.radius}, {rec.attachment})")
        _check(checks, "div:odd_radius_rule",
               not rec.odd_radius_rule_applicable or rec.a_divides_r,
               f"applicable={rec.odd_radius_rule_applicable}, "
               f"a|r={rec.a_divides_r}")
    else:
        _check(checks, "div:applicable", True,
               "skipped: no analyzed half-arc-transitive structure")
        return
    if strict:
        notes = _open_question_notes(dec)
        _check(checks, "div:open_questions", not notes, "; ".join(notes))


def _verify_entry(payload):
    entry_dict, suites, strict = payload
    entry = CensusEntry(**entry_dict)
    checks = []
    t0 = time.perf_counter()
    try:
        analysis = _EntryAnalysis(entry.graph())
        _expected_checks(analysis, entry.expected, checks)
        if "dart-theorem" in suites:
            _dart_suite(analysis, checks, strict)
        if "cover-theorem" in suites:
            _cover_suite(analysis, checks, strict)
        if "divisibility" in suites:
            _divisibility_suite(analysis, checks, strict)
        error = None
    except HatError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except AssertionError as exc:
        error = f"engine invariant failed: {exc}"
    return {
        "name": entry.name,
        "checks": checks,
        "error": error,
        "passed": error is None and all(c["passed"] for c in checks),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }


def _emit(report, out_path, as_json):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    if as_json:
        sys.stdout.write(text)


def _cmd_analyze(args):
    records = [analyze_graph(name, g)
               for name, g in _input_graphs(args.input, args.census)]
    report = {
        "tool": "hatkit",
        "version": __version__,
        "command": "analyze",
        "entries": sorted(records, key=lambda r: r["name"]),
    }
    _emit(report, args.out, as_json=True)
    return 0


def _cmd_dart(args):
    records = []
    for name, g in _input_graphs(args.input, args.census):
        # NotCubic and NotConnected abort with code 2 before any search
        dart, _, _ = dart_graph(g)
        record = {"name": name, "dart_graph6": write_graph6(dart),
                  "dart_order": dart.n}
        try:
            record["report"] = _EntryAnalysis(g).forward.to_json_dict()
        except Not2ArcTransitive as exc:
            record["report"] = None
            record["note"] = str(exc)
        records.append(record)
        print(record["dart_graph6"])
    report = {
        "tool": "hatkit",
        "version": __version__,
        "command": "dart",
        "entries": sorted(records, key=lambda r: r["name"]),
    }
    if args.out:
        _emit(report, args.out, as_json=False)
    return 0


def _cmd_verify(args):
    suites = SUITES if args.suite == "all" else (args.suite,)
    entries = load_census(args.census)
    # a census string that is not graph6 is an input error, not a failed
    # verification of its entry
    for i, entry in enumerate(entries):
        try:
            entry.graph()
        except MalformedGraph6 as exc:
            raise MalformedCensus(
                f"{args.census}: entry {i} ({entry.name!r}): {exc}") from exc
    payloads = [(e.to_json_dict(), suites, args.strict) for e in entries]
    t0 = time.perf_counter()
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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
            print(f"[FAIL] {result['name']}: error: {result['error']}")
    passed = all(r["passed"] for r in results)
    report = {
        "tool": "hatkit",
        "version": __version__,
        "command": "verify",
        "suite": args.suite,
        "census": args.census,
        "strict": args.strict,
        "entries": results,
        "passed": passed,
        "failures": [r["name"] for r in results if not r["passed"]],
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }
    _emit(report, args.out, as_json=args.json)
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hatkit",
        description="alternating-cycle structure, dart graphs and 2-fold "
                    "covers of tetravalent graphs")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="symmetry and alternating-cycle report")
    p_analyze.add_argument("input", help="census entry name or graph6 file")
    p_analyze.add_argument("--census", default="builtin")
    p_analyze.add_argument("--out", default=None, help="write JSON here")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_dart = sub.add_parser(
        "dart", help="emit the dart graph of a cubic graph, with report")
    p_dart.add_argument("input", help="census entry name or graph6 file")
    p_dart.add_argument("--census", default="builtin")
    p_dart.add_argument("--out", default=None, help="write JSON here")
    p_dart.set_defaults(func=_cmd_dart)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite over a census")
    p_verify.add_argument("suite", choices=SUITES + ("all",))
    p_verify.add_argument("--census", default="builtin",
                          help="'builtin', census JSON, or graph6 file")
    p_verify.add_argument("--out", default=None, help="write JSON here")
    p_verify.add_argument("--json", action="store_true",
                          help="print the JSON report to stdout")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="process entries in parallel")
    p_verify.add_argument("--strict", action="store_true",
                          help="treat open-question discrepancies as failures")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MalformedCensus, MalformedGraph6, NotCubic, NotConnected,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
