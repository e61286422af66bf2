#!/usr/bin/env python3
"""hatkit benchmark: time `hatkit verify` and `hatkit analyze` end to end,
and layer by layer in a separate traced run.

    python3 bench/run.py --workload verify-builtin --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 90 --trace 1

Each pass is one in-process `hatkit.cli.main([...])` call on an empty
analysis cache, as every real `hatkit` invocation starts with one.  Every
pass goes through an output gate; a pass with a wrong answer counts as
failed, never as fast.  `--workload all` interleaves the workloads pass by
pass so that slow phases of the machine hit each alike.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The run stamp, the samples and (traced) the spans of the last
traced pass go to bench/out/.  Exit code 0 means every gate passed; 1 means
a gate failed or no hatkit sources were found next to the benchmark.

Every end-to-end time is scaled to a fixed machine speed: wall seconds times
REF_SECONDS over the wall time of a fixed reference computation measured
right before and after it (see bench/README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 3          # untraced passes per workload, even past --seconds
SETUP_BATCHES = 3       # setup_s: batches of fresh interpreters, each
SETUP_REPEATS = 7       # followed by a reference measurement
REF_ROUNDS = 300        # rounds of reference work in one reference unit
REF_SECONDS = 0.25      # time of one unit at the speed times are scaled to
REF_SHARE = 0.15        # reference time after a pass, as a share of the pass
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hatkit
loaded = getattr(hatkit, sys.argv[2])(sys.argv[3])
print(time.perf_counter() - t0, len(loaded))
"""
PASS_CHILD = """\
import contextlib, io, resource, sys
sys.path.insert(0, sys.argv[1])
from hatkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[2:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def load_hatkit():
    """Import hatkit from this checkout's src/, never from elsewhere."""
    if not (SRC / "hatkit" / "__init__.py").is_file():
        sys.exit(f"error: no hatkit sources at {SRC}; run the benchmark "
                 "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hatkit
    if Path(hatkit.__file__).resolve().parent != SRC / "hatkit":
        sys.exit(f"error: imported hatkit from {hatkit.__file__}, "
                 f"not from {SRC}")


@dataclass
class Workload:
    name: str
    argv: list              # hatkit CLI arguments of one pass
    loader: str             # hatkit loader timed by setup_s
    source: str             # the loader's argument
    graphs: int
    cubic: int
    entries: list = field(default_factory=list)   # verify: entry names
    sources: list = field(default_factory=list)   # analyze: one per line
    samples: dict = field(default_factory=dict)
    layers: list = field(default_factory=list)    # traced-pass metrics
    spans: list = field(default_factory=list)     # last traced pass
    rng: random.Random | None = None             # analyze: input stream
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def sample(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def renew(self):
        """Draw the next analyze input from the seeded stream, so that the
        passes of one run cover many relabelings, not one."""
        if self.rng is not None:
            import inputs
            self.sources = inputs.write_analyze_file(self.source, self.rng)


def build_workload(name, seed):
    import inputs
    from hatkit.census import builtin_entries
    if name == "verify-builtin":
        report = str(OUT / "verify-builtin-report.json")
        entries = builtin_entries()
        return Workload(name, ["verify", "all", "--census", "builtin",
                               "--out", report],
                        "load_census", "builtin", len(entries),
                        sum(e.expected.get("valence") == 3 for e in entries),
                        entries=sorted(e.name for e in entries))
    if name == "verify-stress":
        census = str(OUT / "stress-census.json")
        report = str(OUT / "verify-stress-report.json")
        names = inputs.write_stress_census(census)
        return Workload(name, ["verify", "all", "--census", census,
                               "--out", report],
                        "load_census", census, len(names), len(names),
                        entries=sorted(names))
    if name == "analyze-relabeled":
        path = str(OUT / "analyze-relabeled.g6")
        rng = random.Random(seed)
        sources = inputs.write_analyze_file(path, rng)
        return Workload(name, ["analyze", path], "load_graph6_file", path,
                        len(sources),
                        sum(exp.get("regular_valence") == 3
                            for _, exp in sources),
                        sources=sources, rng=rng)
    raise ValueError(name)


WORKLOADS = ("verify-builtin", "verify-stress", "analyze-relabeled")


# ---------------------------------------------------------------- gates

def gate_verify(wl, code, report):
    """Exit 0, `passed: true`, every check PASS and no errored entry."""
    entries = report["entries"]
    checks = [c for e in entries for c in e["checks"]]
    failed = (sum(not c["passed"] for c in checks)
              + sum(e["error"] is not None for e in entries))
    problems = []
    if code != 0 or report["passed"] is not True:
        problems.append(f"exit {code}, passed={report['passed']}")
    if sorted(e["name"] for e in entries) != wl.entries:
        problems.append("report entries differ from the census")
    if failed:
        problems.append(f"failures: {report['failures']}")
    return len(checks) + len(entries), failed, problems


def _field(record, key):
    if key.startswith("transitivity."):
        return record["transitivity"][key.split(".", 1)[1]]
    return record[key]


INVARIANT_FIELDS = ("order", "size", "aut_order", "transitivity", "girth",
                    "bipartite", "alternating")


def gate_analyze(wl, code, report, lines):
    """Every record matches its input line and its expected values, and
    all records of one source graph agree on the relabeling invariants."""
    records = report["entries"]
    bad, problems, first = set(), [], {}
    if code != 0 or len(records) != len(wl.sources):
        problems.append(f"exit {code}, {len(records)} records for "
                        f"{len(wl.sources)} graphs")
    for record in records:
        lineno = int(record["name"].rsplit(":", 1)[1])
        source, expected = wl.sources[lineno - 1]
        why = [k for k, v in expected.items() if _field(record, k) != v]
        if record["graph6"] != lines[lineno - 1]:
            why.append("graph6")
        invariants = tuple(record[k] for k in INVARIANT_FIELDS)
        if first.setdefault(source, invariants) != invariants:
            why.append("disagrees with another relabeling")
        if why:
            bad.add(lineno)
            problems.append(f"line {lineno} ({source}): {', '.join(why)}")
    return len(wl.sources), len(bad), problems


# ---------------------------------------------------------------- passes

def run_pass(wl, tracer=None):
    """One timed CLI pass through the output gate.

    Returns (seconds, gate passed, seconds of the slowest graph, start
    time, cache info); the tracer, if given, records the pass's spans.
    """
    from hatkit import autgroup, cli
    import tracing
    autgroup._analysis.cache_clear()
    entry_times = []
    analyze_graph = cli.analyze_graph

    def timed_analyze(*args):
        t = time.perf_counter()
        try:
            return analyze_graph(*args)
        finally:
            entry_times.append(time.perf_counter() - t)

    stdout = io.StringIO()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.traced(tracer))
        elif wl.sources:
            # The analyze report has no per-entry time; measure it here.
            cli.analyze_graph = timed_analyze
            stack.callback(setattr, cli, "analyze_graph", analyze_graph)
        stack.enter_context(contextlib.redirect_stdout(stdout))
        start = time.perf_counter()
        code = cli.main(wl.argv)
        seconds = time.perf_counter() - start
    cache = autgroup._analysis.cache_info()

    if wl.sources:
        with open(wl.source, encoding="ascii") as fh:
            lines = fh.read().split()
        attempted, failed, problems = gate_analyze(
            wl, code, json.loads(stdout.getvalue()), lines)
        # Records follow the input lines.  A graph given in several
        # labelings counts with its mean time.
        per_graph = {}
        for (source, _), t in zip(wl.sources, entry_times):
            per_graph.setdefault(source, []).append(t)
        slowest = max(map(statistics.mean, per_graph.values()), default=0.0)
    else:
        with open(wl.argv[-1], encoding="utf-8") as fh:
            report = json.load(fh)
        attempted, failed, problems = gate_verify(wl, code, report)
        slowest = max(e["elapsed_seconds"] for e in report["entries"])
    wl.attempted += attempted
    wl.failed += failed
    wl.errors.extend(problems[:5])
    return seconds, not problems, slowest, start, cache


def reference_seconds(rounds=REF_ROUNDS):
    """Wall time per REF_ROUNDS rounds of fixed pure-Python work
    (permutation products, dict and set traffic, sorting), which no change
    to hatkit can alter, measured over `rounds` rounds."""
    start = time.perf_counter()
    n = 3000
    perm = tuple((7 * i + 3) % n for i in range(n))
    p = perm
    for _ in range(rounds):
        p = tuple(p[i] for i in perm)
        cells = {}
        for v in range(n):
            cells.setdefault(p[v] % 61, []).append(v)
        sorted(cells.items())
        len({(v, p[v]) for v in range(0, n, 3)})
    return (time.perf_counter() - start) * REF_ROUNDS / rounds


def measure_untraced(wl, ref_before):
    """One untraced pass scaled to the reference speed; returns the
    reference time measured after it."""
    seconds, ok, slowest, _, _ = run_pass(wl)
    # A long pass averages out fast swings of machine speed; so must the
    # reference that scales it.
    ref_after = reference_seconds(max(REF_ROUNDS, round(
        REF_SHARE * seconds * REF_ROUNDS / ref_before)))
    if ok:
        scale = REF_SECONDS / ((ref_before + ref_after) / 2)
        wl.sample("pass_s", seconds * scale)
        wl.sample("slowest_graph_s", slowest * scale)
        wl.sample("pass_wall_s", seconds)
        wl.sample("reference_s", ref_after)
    return ref_after


def measure_traced(wl):
    """One untraced and one traced pass; per-layer metrics of the latter."""
    import tracing
    untraced, _, _, _, _ = run_pass(wl)
    tracer = tracing.Tracer()
    seconds, ok, _, start, cache = run_pass(wl, tracer)
    metrics, self_s, error = tracing.layer_metrics(
        tracer, start, seconds, cache, wl.graphs, wl.cubic)
    if error:
        wl.errors.append(error)
        wl.failed += 1
    if ok and not error:
        metrics["trace.overhead_ratio"] = seconds / untraced
        wl.layers.append((metrics, self_s))
    wl.spans = tracer.spans()


# ---------------------------------------------------------------- set-up

def child_python(code, *args):
    out = subprocess.run([sys.executable, "-I", "-c", code, *args],
                         capture_output=True, text=True, timeout=170,
                         cwd=ROOT, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"child failed ({out.returncode}): "
                           f"{out.stderr.strip()[-400:]}")
    return out.stdout.split()


def measure_setup(wl):
    """peak_rss_mb from a fresh `hatkit` process running one pass, then
    setup_s from fresh interpreters that import hatkit and load the input."""
    argv = list(wl.argv)
    if argv[-2] == "--out":
        argv[-1] += ".child"
    code, maxrss_kb = child_python(PASS_CHILD, str(SRC), *argv)
    if code != "0":
        wl.errors.append(f"fresh-process pass exited {code}")
        wl.failed += 1
    wl.sample("peak_rss_mb", int(maxrss_kb) / 1024)
    child_python(SETUP_CHILD, str(SRC), wl.loader, wl.source)  # warm-up
    times, refs = [], [reference_seconds()]
    for _ in range(SETUP_BATCHES):
        for _ in range(SETUP_REPEATS):
            seconds, count = child_python(SETUP_CHILD, str(SRC), wl.loader,
                                          wl.source)
            if int(count) != wl.graphs:
                wl.errors.append(f"loader returned {count} of {wl.graphs}")
            times.append(float(seconds))
        refs.append(reference_seconds())
    scale = REF_SECONDS / statistics.median(refs)
    for seconds in times:
        wl.sample("setup_s", seconds * scale)
        wl.sample("setup_wall_s", seconds)


# ---------------------------------------------------------------- report

def contract_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_stamp():
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "commit": commit,
            "src_lines": lines}


def summarise(wl, trace):
    """Metric name -> (median, sample count) of everything measured."""
    if trace:
        series = {name: [m[name] for m, _ in wl.layers]
                  for name in (wl.layers[0][0] if wl.layers else ())}
    else:
        series = wl.samples
    return {name: (statistics.median(values), len(values))
            for name, values in series.items() if values}


def print_report(wl, trace, summary, units):
    print(f"== {wl.name}: {wl.graphs} graphs")
    for name, (value, n) in summary.items():
        unit = units.get(name) or ("s" if name.endswith("_s") else "")
        print(f"  {name:45s} {value:14.6f} {unit:12s} (median of {n})")
    ratio = wl.failed / wl.attempted if wl.attempted else 0.0
    print(f"  {'failed_ratio':45s} {ratio:14.6f} {'ratio':12s} "
          f"({wl.failed} of {wl.attempted} outputs)")
    if trace and wl.layers:
        self_s = wl.layers[-1][1]
        total = sum(self_s.values())
        print("  largest self times in the last traced pass:")
        for name in sorted(self_s, key=self_s.get, reverse=True)[:8]:
            print(f"    {name:43s} {self_s[name]:10.4f} s "
                  f"{100 * self_s[name] / total:5.1f} %")
    for problem in wl.errors[:10]:
        print(f"  GATE FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_hatkit()
    sys.path.insert(0, str(BENCH))
    import inputs
    inputs.self_test()
    OUT.mkdir(exist_ok=True)
    stamp = run_stamp()
    print("run stamp: " + json.dumps(stamp, sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    workloads = [build_workload(name, args.seed) for name in names]
    if not args.trace:
        for wl in workloads:
            measure_setup(wl)

    # Round robin, one pass (traced: one untraced and one traced) per
    # workload per round, until the next round would overrun --seconds.
    start = time.perf_counter()
    rounds, round_times = 0, []
    ref = reference_seconds()
    while True:
        t = time.perf_counter()
        for wl in workloads:
            if args.trace:
                measure_traced(wl)
            else:
                ref = measure_untraced(wl, ref)
            wl.renew()
        rounds += 1
        round_times.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        enough = rounds >= (1 if args.trace else MIN_PASSES)
        if enough and elapsed + statistics.median(round_times) > args.seconds:
            break

    metrics, results = {}, {"stamp": stamp, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "workloads": {}}
    units = contract_units(args.trace)
    for wl in workloads:
        summary = summarise(wl, args.trace)
        prefix = "" if len(workloads) == 1 else wl.name + "."
        for name, unit in units.items():
            if name in summary:
                metrics[prefix + name] = {"value": summary[name][0],
                                          "unit": unit}
            else:
                wl.errors.append(f"metric {name} was not measured")
        print_report(wl, args.trace, summary, units)
        results["workloads"][wl.name] = {
            "samples": wl.samples, "layers": [m for m, _ in wl.layers],
            "attempted": wl.attempted, "failed": wl.failed,
            "errors": wl.errors}
        if wl.spans:
            with open(OUT / f"spans-{wl.name}-seed{args.seed}.json", "w",
                      encoding="utf-8") as fh:
                json.dump({"stamp": stamp, "fields": ["name", "start", "end",
                                                      "parent"],
                           "spans": wl.spans}, fh)
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)

    correct = all(not wl.errors for wl in workloads)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(wl.attempted for wl in workloads),
        "failed": sum(wl.failed for wl in workloads),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
