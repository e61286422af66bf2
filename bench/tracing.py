"""Span tracing of hatkit from outside the package, and the per-layer
metrics computed from the spans.

`traced(tracer)` wraps the public functions of every layer module and
patches each hatkit module global that names one of them, including names
imported into other modules (`cli`, `dartgraph`, `covers`, ...), so calls
made inside the package are timed too.  A span is (name, start, end,
parent); spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

LAYERS = ("graph6", "graphs", "perms", "autgroup", "altcycles", "dartgraph",
          "covers", "census", "cli")

# Permutation helpers are called up to a million times per pass; a wrapper
# on each call would dominate the traced pass.  `from_edge_list` is the graph
# constructor, so its time stays with the caller (a leaf's `relabel` builds
# the relabeled graph with it).  `cli.main` is the pass itself.
UNTRACED = {"perms.identity", "perms.is_identity", "perms.check_perm",
            "perms.compose", "perms.inverse", "graphs.from_edge_list",
            "cli.main"}

# The memoised analysis behind automorphism_group / canonical_form /
# is_isomorphic.  Tracing it separates the IR search (a cache miss) from
# the relabel those entry points do afterwards.
SEARCH = "autgroup._analysis"
SEARCH_ENTRIES = ("autgroup.automorphism_group", "autgroup.canonical_form",
                  "autgroup.is_isomorphic", SEARCH)

# Layers the analyze command never calls.  Their times are 0 there, so the
# benchmark contract lists their call counts; the times are printed too.
BYPASSABLE = ("perms.induced_action", "altcycles.antipodal_involution",
              "covers.cover_pipeline", "covers.split_certificate",
              "covers.quotient_by_tau", "dartgraph.lift_automorphisms",
              "graphs.line_graph", "graphs.bipartite_double")
CUMULATIVE = ("covers.cover_pipeline", "covers.split_certificate",
              "dartgraph.lift_automorphisms")


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.gens = {}      # schreier_sims span -> (degree, input generators)
        self._stack = []

    def wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, clock = self.parents, self._stack, time.perf_counter
        record_gens = name == "perms.schreier_sims"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if record_gens:
                self.gens[sid] = (result.degree, len(args[0]))
            return result

        return span

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents))


@contextlib.contextmanager
def traced(tracer):
    """Route every public layer function through `tracer` while active."""
    modules = {layer: importlib.import_module(f"hatkit.{layer}")
               for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_") and name not in UNTRACED):
                wrappers[obj] = tracer.wrap(name, obj)
    search = modules["autgroup"]._analysis
    wrappers[search] = tracer.wrap(SEARCH, search)
    patched = []
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if callable(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                patched.append((mod, attr, obj))
    try:
        yield
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)


def _untraced_time(intervals, pass_s):
    """Pass time outside the union of the given top-level intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return pass_s - covered


def layer_metrics(tracer, pass_start, pass_s, cache_info, graphs, cubic):
    """Per-layer metrics of one traced pass, plus the self-time check.

    Returns (metrics, self-time table by span name, check error or None).
    """
    names, parents = tracer.names, tracer.parents
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    covered = [0.0] * len(names)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[sid]
    calls, self_s, cum_s = {}, {}, {}
    for sid, name in enumerate(names):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + durations[sid] - covered[sid]
        parent = parents[sid]
        while parent >= 0 and names[parent] != name:
            parent = parents[parent]
        if parent < 0:      # outermost span of this name on its stack
            cum_s[name] = cum_s.get(name, 0.0) + durations[sid]

    top = [(tracer.starts[i] - pass_start, tracer.ends[i] - pass_start)
           for i, p in enumerate(parents) if p < 0]
    other = _untraced_time(top, pass_s)
    total = sum(self_s.values()) + other
    error = None
    if abs(total - pass_s) > 1e-6 * len(names) + 1e-4 or min(
            self_s.values(), default=0.0) < -1e-6:
        error = (f"span self times + cli.other_self_s = {total:.6f} s, "
                 f"traced pass = {pass_s:.6f} s")

    search_ids = {i for i, n in enumerate(names) if n == SEARCH}
    leaves = sum(1 for i, n in enumerate(names)
                 if n == "graphs.relabel" and parents[i] in search_ids)
    found = sum(ngens for sid, (_, ngens) in tracer.gens.items()
                if parents[sid] in search_ids)
    lookups = cache_info.hits + cache_info.misses

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    ss_calls = c("perms.schreier_sims")
    dart_calls = c("dartgraph.dart_graph")

    metrics = {
        "perms.schreier_sims.calls": ss_calls,
        "perms.schreier_sims.self_s": s("perms.schreier_sims"),
        "perms.schreier_sims.degree_sum": sum(
            degree for degree, _ in tracer.gens.values()),
        "perms.schreier_sims.calls_per_graph": ss_calls / graphs,
        "autgroup.refine.calls": c("autgroup.refine"),
        "autgroup.refine.self_s": s("autgroup.refine"),
        "autgroup.search.self_s": sum(s(n) for n in SEARCH_ENTRIES),
        "autgroup.leaves": leaves,
        "autgroup.aut_gens_per_leaf": found / leaves if leaves else 0.0,
        "graph6.write_graph6.calls": c("graph6.write_graph6"),
        "graph6.write_graph6.self_s": s("graph6.write_graph6"),
        "graphs.relabel.self_s": s("graphs.relabel"),
        "autgroup.cache_hit_ratio": (cache_info.hits / lookups
                                     if lookups else 0.0),
        "dartgraph.dart_graph.calls": dart_calls,
        "dartgraph.dart_graph.calls_per_cubic_graph": (
            dart_calls / cubic if cubic else 0.0),
        "autgroup.transitivity_report.calls": c(
            "autgroup.transitivity_report"),
        "autgroup.transitivity_report.self_s": s(
            "autgroup.transitivity_report"),
        "altcycles.induced_orientation.self_s": s(
            "altcycles.induced_orientation"),
        "altcycles.alternating_cycles.self_s": s(
            "altcycles.alternating_cycles"),
        "graphs.girth.self_s": s("graphs.girth"),
        "graph6.parse_graph6.self_s": s("graph6.parse_graph6"),
        "census.load_census.self_s": s("census.load_census"),
        "cli.other_self_s": other,
    }
    # Layers that analyze-relabeled never reaches: calls, plus the times.
    for name in BYPASSABLE:
        metrics[name + ".calls"] = c(name)
        kind = "cum_s" if name in CUMULATIVE else "self_s"
        metrics[f"{name}.{kind}"] = (cum_s.get(name, 0.0) if kind == "cum_s"
                                     else s(name))
    return metrics, self_s, error
