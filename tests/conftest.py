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
from hatkit.graphs import from_edge_list


def cycle_graph(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


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
