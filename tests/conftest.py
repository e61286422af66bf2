import os
import subprocess
import sys
from pathlib import Path

import pytest

import hatkit
from hatkit.census import (
    complete_bipartite,
    complete_graph,
    coxeter_graph,
    generalized_petersen,
    holt_graph,
    lcf_graph,
)
from hatkit.graphs import bipartite_double, from_edge_list
from hatkit.perms import schreier_sims


# The seven cubic symmetric graphs of the benchmark's stress census
# (bench/inputs.py STRESS_TABLE), up to the Foster graph on 90 vertices.
# All but the first, F026, are 2-arc-transitive.
STRESS_NAMES = ("f026", "dyck", "tutte8cage", "gp24_5", "dodecahedron_double",
                "coxeter_double", "foster")
STRESS_GRAPHS = (
    lambda: lcf_graph([-7, 7], 13),
    lambda: lcf_graph([5, -5, 13, -13], 8),
    lambda: lcf_graph([-13, -9, 7, -7, 9, 13], 5),
    lambda: generalized_petersen(24, 5),
    lambda: bipartite_double(generalized_petersen(10, 2)),
    lambda: bipartite_double(coxeter_graph()),
    lambda: lcf_graph([17, -9, 37, -37, 9, -17], 15),
)
STRESS_AUT_ORDERS = (78, 192, 1440, 288, 480, 672, 4320)


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def lift_chain(lifted):
    """A stabiliser chain of a dartgraph.LiftedGroup, built from its
    generators by full closure: the reference that tests read the lift's
    levels, orbits and sifts from, as the lift itself keeps no chain."""
    return schreier_sims(lifted.generators, degree=lifted.degree)


def run_optimized(code):
    """Run code under python -O with this hatkit importable; return the
    words it printed."""
    src = str(Path(hatkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def k33():
    return complete_bipartite(3, 3)


@pytest.fixture(scope="session")
def petersen():
    return generalized_petersen(5, 2)


@pytest.fixture(scope="session")
def heawood():
    return lcf_graph([5, -5], 7)


@pytest.fixture(scope="session")
def pappus():
    return lcf_graph([5, 7, -7, 7, -7, -5], 3)


@pytest.fixture(scope="session")
def coxeter():
    return coxeter_graph()


@pytest.fixture(scope="session")
def holt():
    return holt_graph()


@pytest.fixture()
def serial_pool(monkeypatch):
    """Replace the process pool with an executor that maps serially in
    this process; returns the list of max_workers each pool asked for."""
    asked = []

    class SerialExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        SerialExecutor)
    return asked
